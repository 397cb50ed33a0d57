package calendar

import (
	"math/rand"
	"testing"
)

// refCalendar is the obviously-correct model: a sorted slice of disjoint
// half-open intervals with naive linear placement and insertion. The real
// Calendar's hinted search, run folding, and batch walk and splice must
// agree with it on every operation, down to the interval layout.
type refCalendar struct {
	iv []interval
}

func (r *refCalendar) reserve(t, dur int64) int64 {
	if dur <= 0 {
		return t
	}
	start := t
	for _, v := range r.iv {
		if v.end <= start {
			continue
		}
		if start+dur <= v.start {
			break
		}
		start = v.end
	}
	// Insert [start, start+dur) keeping the slice sorted and coalesced.
	i := 0
	for i < len(r.iv) && r.iv[i].start < start {
		i++
	}
	r.iv = append(r.iv, interval{})
	copy(r.iv[i+1:], r.iv[i:])
	r.iv[i] = interval{start, start + dur}
	// Coalesce touching neighbours.
	out := r.iv[:1]
	for _, v := range r.iv[1:] {
		if last := &out[len(out)-1]; last.end == v.start {
			last.end = v.end
		} else {
			out = append(out, v)
		}
	}
	r.iv = out
	return start
}

func (r *refCalendar) reserveRun(t, dur, gap int64, n int) (lastStart, totalWait int64) {
	if n <= 0 || dur <= 0 {
		return t, 0
	}
	req := t
	for i := 0; i < n; i++ {
		s := r.reserve(req, dur)
		totalWait += s - req
		lastStart = s
		req = s + dur + gap
	}
	return lastStart, totalWait
}

func (r *refCalendar) pruneBefore(t int64) {
	n := 0
	for n < len(r.iv) && r.iv[n].end <= t {
		n++
	}
	r.iv = append(r.iv[:0], r.iv[n:]...)
}

// gapAt returns the length of the idle gap that starts exactly at t and
// ends at the next interval (0 when t is busy or nothing follows).
func (r *refCalendar) gapAt(t int64) int64 {
	for _, v := range r.iv {
		if v.end <= t {
			continue
		}
		if v.start > t {
			return v.start - t
		}
		return 0
	}
	return 0
}

// ncal is how many calendars driveOps runs side by side, the most a batch
// opens at once (as many as a Figure 5 sweep has references).
const ncal = 3

// driver holds one random operation sequence's calendars, their models, and
// the batch output buffers they share.
type driver struct {
	t     *testing.T
	rng   *rand.Rand
	cals  [ncal]Calendar
	refs  [ncal]refCalendar
	slots [ncal]Scratch
	floor int64 // monotone lower bound on future arrivals
}

// driveOps feeds one pseudo-random operation sequence to a few Calendars
// and their reference models and fails on the first divergence. After every
// operation each calendar's full interval list must equal its model's, so a
// batch commit with the right span count but the wrong layout fails too.
// Arrival times are kept at or after the prune floor, matching
// PruneBefore's contract.
func driveOps(t *testing.T, rng *rand.Rand, ops int) {
	t.Helper()
	d := &driver{t: t, rng: rng}
	for i := 0; i < ops; i++ {
		c := rng.Intn(ncal)
		switch rng.Intn(6) {
		case 0, 1: // single reservation (two slots: the most common op)
			at := d.arrival(c)
			dur := d.duration(c, at, 50)
			d.check("Reserve", c, d.cals[c].Reserve(at, dur), d.refs[c].reserve(at, dur))
			d.same("Reserve", c, d.refs[c].iv)
		case 2: // chained run, possibly with gaps
			at, dur, gap, n := d.arrival(c), 1+rng.Int63n(30), rng.Int63n(3)*rng.Int63n(40), 1+rng.Intn(6)
			gs, gw := d.cals[c].ReserveRun(at, dur, gap, n)
			ws, ww := d.refs[c].reserveRun(at, dur, gap, n)
			d.check("ReserveRun wait", c, gw, ww)
			d.check("ReserveRun", c, gs, ws)
			d.same("ReserveRun", c, d.refs[c].iv)
		case 3, 4: // batches: monotone flows placed against frozen schedules
			d.batch()
		case 5: // advance the clock and prune history
			d.floor += rng.Int63n(500)
			for c := range d.cals {
				d.cals[c].PruneBefore(d.floor)
				d.refs[c].pruneBefore(d.floor)
				d.same("PruneBefore", c, d.refs[c].iv)
			}
		}
	}
}

// batch opens batches on a random subset of the calendars, the j-th one
// opened taking output slot j (so a slot backs different calendars in
// consecutive batches). It interleaves BatchReserve and BatchReserveRun
// flows across them, some batches booking nothing, and checks every
// placement against the model's sequential reserves and that the open
// batches leave the schedules untouched. Then it commits the batches in
// opening order, as a machine sweep does.
func (d *driver) batch() {
	d.t.Helper()
	open := d.rng.Perm(ncal)[:1+d.rng.Intn(ncal)]
	var frozen [ncal][]interval
	var next [ncal]int64
	for j, c := range open {
		frozen[c] = append([]interval(nil), d.cals[c].iv...)
		d.cals[c].BeginBatch(&d.slots[j])
		if !d.cals[c].InBatch() {
			d.t.Fatalf("calendar %d: BeginBatch left no batch open", c)
		}
		next[c] = d.arrival(c)
	}
	for steps := d.rng.Intn(12); steps > 0; steps-- {
		c := open[d.rng.Intn(len(open))]
		at := next[c]
		if d.rng.Intn(3) == 0 {
			dur, gap, n := 1+d.rng.Int63n(30), d.rng.Int63n(3)*d.rng.Int63n(40), 1+d.rng.Intn(6)
			gs, gw := d.cals[c].BatchReserveRun(at, dur, gap, n)
			ws, ww := d.refs[c].reserveRun(at, dur, gap, n)
			d.check("BatchReserveRun wait", c, gw, ww)
			d.check("BatchReserveRun", c, gs, ws)
			next[c] = gs + dur + gap
		} else {
			dur := d.duration(c, at, 40)
			s := d.cals[c].BatchReserve(at, dur)
			d.check("BatchReserve", c, s, d.refs[c].reserve(at, dur))
			next[c] = s + dur + d.rng.Int63n(3)*d.rng.Int63n(60) // next arrival ≥ this end
		}
	}
	for _, c := range open {
		d.same("BatchReserve (schedule must stay frozen)", c, frozen[c])
	}
	for _, c := range open {
		d.cals[c].CommitBatch()
		if d.cals[c].InBatch() {
			d.t.Fatalf("calendar %d: CommitBatch left the batch open", c)
		}
		d.same("CommitBatch", c, d.refs[c].iv)
	}
}

// same fails unless calendar c holds exactly the intervals want.
func (d *driver) same(op string, c int, want []interval) {
	d.t.Helper()
	got := d.cals[c].iv
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i] == want[i]
	}
	if !ok {
		d.t.Fatalf("after %s: calendar %d holds %v, want %v", op, c, got, want)
	}
}

func (d *driver) check(op string, c int, got, want int64) {
	d.t.Helper()
	if got != want {
		d.t.Fatalf("%s diverged on calendar %d: calendar %d, model %d", op, c, got, want)
	}
}

// arrival draws an arrival time for calendar c, biased towards the end of
// an existing interval so that placements touch the interval before a
// batch's window.
func (d *driver) arrival(c int) int64 {
	if iv := d.refs[c].iv; len(iv) > 0 && d.rng.Intn(4) == 0 {
		return iv[d.rng.Intn(len(iv))].end
	}
	return d.floor + d.rng.Int63n(2000)
}

// duration draws a reservation length for an arrival at t on calendar c,
// biased towards one that exactly fills the idle gap starting at t, so that
// placements touch the interval after a batch's window.
func (d *driver) duration(c int, t, max int64) int64 {
	if g := d.refs[c].gapAt(t); g > 0 && d.rng.Intn(4) == 0 {
		return g
	}
	return 1 + d.rng.Int63n(max)
}

// TestCalendarRandomAgainstModel drives many independent random op sequences
// through Calendar and the reference model.
func TestCalendarRandomAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		driveOps(t, rng, 300)
	}
}

// FuzzCalendar lets the fuzzer pick the seed and sequence length; `go test`
// runs the seed corpus, `go test -fuzz=FuzzCalendar` explores.
func FuzzCalendar(f *testing.F) {
	f.Add(int64(1), uint16(50))
	f.Add(int64(42), uint16(400))
	f.Add(int64(-7), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		driveOps(t, rand.New(rand.NewSource(seed)), int(ops)%1024)
	})
}
