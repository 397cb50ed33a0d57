// Package calendar provides a time-reservation calendar for single-capacity
// servers (memory modules, switch ports) in the discrete-event model.
//
// Higher layers charge whole inner loops in one engine event, booking server
// occupancy into the virtual future. A scalar busy-until would then starve
// any request that arrives later in wall-clock order but earlier in virtual
// time; the calendar instead keeps the set of reserved intervals and lets a
// request backfill the earliest gap at or after its arrival time, conserving
// capacity without false serialization.
package calendar

// interval is a half-open busy span [start, end).
type interval struct{ start, end int64 }

// Calendar tracks the reserved time of one unit-capacity server. The zero
// value is an empty calendar.
type Calendar struct {
	iv []interval // disjoint, sorted by start
	// hint remembers where the last reservation landed. Requests are close
	// to monotone per flow, so the next search usually resolves at or just
	// after the hint without a binary search.
	hint int
	// Batch placement state (see BeginBatch): batch is the open batch's
	// output buffer (nil outside a batch), batchLo the index of the first
	// interval of the walked window, and batchIdx the monotone walk cursor
	// (-1 until the batch's first search), which ends the window.
	batch    *Scratch
	batchLo  int
	batchIdx int
}

// Reserve books dur nanoseconds of server time at the earliest instant no
// earlier than t, and returns that start time. dur must be positive.
func (c *Calendar) Reserve(t, dur int64) int64 {
	if dur <= 0 {
		return t
	}
	// Fast path: booking at or after the end of the schedule (the common
	// case for per-flow monotone bookings).
	if n := len(c.iv); n == 0 || t >= c.iv[n-1].end {
		if n > 0 && c.iv[n-1].end == t {
			c.iv[n-1].end = t + dur
		} else {
			c.iv = append(c.iv, interval{t, t + dur})
		}
		c.hint = len(c.iv) - 1
		return t
	}
	i := c.searchEndAfter(t)
	start := t
	for ; i < len(c.iv); i++ {
		if start+dur <= c.iv[i].start {
			break // the gap before interval i fits
		}
		if c.iv[i].end > start {
			start = c.iv[i].end
		}
	}
	c.insert(i, start, start+dur)
	return start
}

// searchEndAfter returns the index of the first interval with end > t,
// starting from the hint when it is consistent and falling back to a binary
// search otherwise.
func (c *Calendar) searchEndAfter(t int64) int {
	iv := c.iv
	n := len(iv)
	if h := c.hint; h >= 0 && h < n && (h == 0 || iv[h-1].end <= t) {
		// The answer is at or after the hint; scan a few steps before giving
		// up on locality.
		for i := h; i < n && i < h+8; i++ {
			if iv[i].end > t {
				return i
			}
		}
		lo, hi := h+8, n
		if lo > hi {
			return n
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if iv[mid].end > t {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if iv[mid].end > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ReserveRun books a chain of n reservations of dur nanoseconds each, where
// the first request arrives at t and each subsequent request arrives gap
// nanoseconds after the previous reservation's end — the word-at-a-time
// remote reference pattern (fixed network round trip between words). It is
// an exact fold of n sequential Reserve calls and returns the start of the
// last reservation plus the total queueing delay across the run.
func (c *Calendar) ReserveRun(t, dur, gap int64, n int) (lastStart, totalWait int64) {
	if n <= 0 || dur <= 0 {
		return t, 0
	}
	// Fast path: the whole run lands at or beyond the schedule tail, so
	// every request is granted at its arrival time.
	if m := len(c.iv); m == 0 || t >= c.iv[m-1].end {
		if m > 0 && c.iv[m-1].end == t {
			c.iv[m-1].end = t + dur
		} else {
			c.iv = append(c.iv, interval{t, t + dur})
		}
		if gap == 0 {
			c.iv[len(c.iv)-1].end = t + int64(n)*dur
		} else {
			stride := dur + gap
			for i := 1; i < n; i++ {
				s := t + int64(i)*stride
				c.iv = append(c.iv, interval{s, s + dur})
			}
		}
		c.hint = len(c.iv) - 1
		return t + int64(n-1)*(dur+gap), 0
	}
	req := t
	for i := 0; i < n; i++ {
		s := c.Reserve(req, dur)
		totalWait += s - req
		lastStart = s
		req = s + dur + gap
	}
	return lastStart, totalWait
}

// Scratch is the output buffer of one open placement batch: BatchReserve
// writes the merged window into it and CommitBatch splices it in. The
// buffer grows to the largest window it has held and is reused, so a caller
// that opens several batches at once keeps one Scratch per open batch and
// hands the same ones to every later batch, instead of every calendar
// holding a buffer of its own.
type Scratch struct{ buf []interval }

// BeginBatch starts a placement batch: reservations made with BatchReserve
// are placed against the current schedule without mutating it and spliced in
// all at once by CommitBatch. A batch requires a monotone flow — each
// request must arrive at or after the previous batch reservation's end —
// which guarantees the batch's own pending reservations can never constrain
// a later placement, so placing against the frozen schedule is exact.
// The batch owns out until CommitBatch; out must not back another open
// batch. Repeated single inserts each shift the schedule tail; a batch of k
// reservations into a schedule of m intervals costs one O(m+k) walk and one
// splice instead of k shifts.
func (c *Calendar) BeginBatch(out *Scratch) {
	out.buf = out.buf[:0]
	c.batch = out
	c.batchIdx = -1
}

// InBatch reports whether a batch is open.
func (c *Calendar) InBatch() bool { return c.batch != nil }

// BatchReserve books dur nanoseconds at the earliest instant no earlier
// than t within the open batch and returns that start. t must be no earlier
// than the end of the batch's previous reservation.
//
// The walk emits the merged window as it goes: every interval it steps past
// ends at or before the new placement, and every interval it has not reached
// starts at or after the placement's end, so appending each stepped-over
// interval and then the placement keeps the batch buffer sorted. After the
// last reservation the buffer is exactly iv[batchLo:batchIdx] merged with
// the batch.
func (c *Calendar) BatchReserve(t, dur int64) int64 {
	if dur <= 0 {
		return t
	}
	idx := c.batchIdx
	if idx < 0 {
		idx = c.searchEndAfter(t)
		c.batchLo = idx
	}
	iv := c.iv
	start := t
	first := idx
	for ; idx < len(iv); idx++ {
		if start+dur <= iv[idx].start {
			break // the gap before interval idx fits
		}
		if iv[idx].end > start {
			start = iv[idx].end
		}
		// This interval now ends at or before start, so it can never matter
		// again: later arrivals in the (monotone) batch are >= start+dur.
	}
	c.batchIdx = idx
	out := c.batch.buf
	if first < idx {
		// Only the first stepped-over interval can touch the buffer's last
		// span; the schedule's own intervals never touch each other.
		out = appendSpan(out, iv[first])
		out = append(out, iv[first+1:idx]...)
	}
	c.batch.buf = appendSpan(out, interval{start, start + dur})
	return start
}

// appendSpan appends v to the sorted span list s, coalescing it with the
// last span when they touch, as repeated insert would.
func appendSpan(s []interval, v interval) []interval {
	if n := len(s); n > 0 && s[n-1].end == v.start {
		s[n-1].end = v.end
		return s
	}
	return append(s, v)
}

// BatchReserveRun is ReserveRun within the open batch: n chained requests
// of dur nanoseconds, each arriving gap nanoseconds after the previous
// reservation's end.
func (c *Calendar) BatchReserveRun(t, dur, gap int64, n int) (lastStart, totalWait int64) {
	if n <= 0 || dur <= 0 {
		return t, 0
	}
	req := t
	for i := 0; i < n; i++ {
		s := c.BatchReserve(req, dur)
		totalWait += s - req
		lastStart = s
		req = s + dur + gap
	}
	return lastStart, totalWait
}

// CommitBatch closes the open batch and splices its merged window over the
// intervals it walked: iv = iv[:lo] + window + iv[hi:], moving the suffix
// once.
func (c *Calendar) CommitBatch() {
	out := c.batch.buf
	c.batch = nil
	if c.batchIdx < 0 {
		return // the batch booked nothing
	}
	iv := c.iv
	lo, hi := c.batchLo, c.batchIdx
	// Coalesce across the window boundaries, as repeated insert would.
	if lo > 0 && iv[lo-1].end == out[0].start {
		lo--
		out[0].start = iv[lo].start
	}
	if hi < len(iv) && out[len(out)-1].end == iv[hi].start {
		out[len(out)-1].end = iv[hi].end
		hi++
	}
	need := lo + len(out) + len(iv) - hi
	if need <= cap(iv) {
		c.iv = iv[:need]
		copy(c.iv[lo+len(out):], iv[hi:])
	} else {
		c.iv = make([]interval, need, need+need/2)
		copy(c.iv, iv[:lo])
		copy(c.iv[lo+len(out):], iv[hi:])
	}
	copy(c.iv[lo:], out)
	// The next reservation in this flow lands at or after the batch's last
	// placement, which ends the merged window.
	c.hint = lo + len(out) - 1
}

// insert places [s,e) before index i, merging with adjacent neighbours.
func (c *Calendar) insert(i int, s, e int64) {
	mergePrev := i > 0 && c.iv[i-1].end == s
	mergeNext := i < len(c.iv) && c.iv[i].start == e
	switch {
	case mergePrev && mergeNext:
		c.iv[i-1].end = c.iv[i].end
		c.iv = append(c.iv[:i], c.iv[i+1:]...)
	case mergePrev:
		c.iv[i-1].end = e
	case mergeNext:
		c.iv[i].start = s
	default:
		c.iv = append(c.iv, interval{})
		copy(c.iv[i+1:], c.iv[i:])
		c.iv[i] = interval{s, e}
	}
	if i < len(c.iv) {
		c.hint = i
	} else {
		c.hint = len(c.iv) - 1
	}
}

// PruneBefore discards reservations that end at or before t. It is safe to
// call with any lower bound on future arrival times (typically the engine's
// current virtual time).
func (c *Calendar) PruneBefore(t int64) {
	n := 0
	for n < len(c.iv) && c.iv[n].end <= t {
		n++
	}
	if n > 0 {
		c.iv = append(c.iv[:0], c.iv[n:]...)
		if c.hint -= n; c.hint < 0 {
			c.hint = 0
		}
	}
}

// Busy reports the total reserved time currently tracked (after pruning,
// i.e. roughly the backlog); used by tests.
func (c *Calendar) Busy() int64 {
	var total int64
	for _, iv := range c.iv {
		total += iv.end - iv.start
	}
	return total
}

// Spans reports the number of disjoint reserved intervals (tests/diagnostics).
func (c *Calendar) Spans() int { return len(c.iv) }
