package sim

// WaitQueue is a FIFO queue of blocked processes. It is the building block
// for every scheduler-based synchronization primitive in the Chrysalis layer
// (events, dual queues) and for the higher-level packages.
type WaitQueue struct {
	name  string
	procs []*Proc
}

// NewWaitQueue creates a named wait queue; the name appears in deadlock
// reports as the reason string for processes blocked on it.
func NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{name: name}
}

// Name returns the queue's name.
func (q *WaitQueue) Name() string { return q.name }

// Len returns the number of processes currently waiting.
func (q *WaitQueue) Len() int { return len(q.procs) }

// Wait blocks the calling process on the queue until some other process
// wakes it with WakeOne or WakeAll. The caller's local clock is flushed
// before it joins the queue, so FIFO order reflects true arrival times.
func (q *WaitQueue) Wait(p *Proc) {
	p.mustBeRunning("WaitQueue.Wait")
	p.sync()
	q.procs = append(q.procs, p)
	p.Block(q.name)
}

// WaitTimeout blocks the calling process on the queue for at most d
// nanoseconds of virtual time. It reports whether the wait timed out (true)
// rather than being woken (false). On timeout the process has already been
// removed from the queue.
func (q *WaitQueue) WaitTimeout(p *Proc, d int64) (timedOut bool) {
	p.mustBeRunning("WaitQueue.WaitTimeout")
	p.sync()
	q.procs = append(q.procs, p)
	if p.BlockTimeout(q.name, d) {
		q.Remove(p)
		return true
	}
	return false
}

// WakeOne unblocks the longest-waiting live process, if any, after delay
// nanoseconds of virtual time. Processes killed while waiting (their node
// failed) are discarded silently. It reports whether a process was woken.
// A running caller's local clock is flushed before the queue is examined.
func (q *WaitQueue) WakeOne(e *Engine, delay int64) bool {
	w := q.waker(e)
	for len(q.procs) > 0 {
		p := q.procs[0]
		copy(q.procs, q.procs[1:])
		q.procs = q.procs[:len(q.procs)-1]
		if p.killed {
			continue
		}
		e.wake(w, p, delay)
		return true
	}
	return false
}

// WakeAll unblocks every live waiting process (in FIFO order, all at the same
// virtual instant plus delay), discarding killed waiters. It returns the
// number of processes woken. A running caller's local clock is flushed before
// the queue is examined.
func (q *WaitQueue) WakeAll(e *Engine, delay int64) int {
	w := q.waker(e)
	n := 0
	for _, p := range q.procs {
		if p.killed {
			continue
		}
		e.wake(w, p, delay)
		n++
	}
	q.procs = q.procs[:0]
	return n
}

// waker returns the process performing a wake (nil during engine setup),
// with its lazy clock flushed before the queue is examined. On a classic
// engine it is the single running process. On a partitioned engine a wait
// queue is a same-node object, like all shared Go state, so its waker runs
// in the partition of its waiters; an empty queue needs no waker, since
// there is nobody to wake.
func (q *WaitQueue) waker(e *Engine) *Proc {
	var w *Proc
	if !e.windowed {
		w = e.scheds[0].running
	} else if len(q.procs) > 0 {
		w = q.procs[0].sd.running
	}
	if w != nil {
		w.sync()
	}
	return w
}

// Remove deletes a specific process from the queue without waking it
// (used by primitives with cancellation semantics). It reports whether the
// process was present.
func (q *WaitQueue) Remove(p *Proc) bool {
	for i, w := range q.procs {
		if w == p {
			q.procs = append(q.procs[:i], q.procs[i+1:]...)
			return true
		}
	}
	return false
}

// Time unit helpers. Virtual time is int64 nanoseconds; these constants make
// calibration tables readable.
const (
	Nanosecond  int64 = 1
	Microsecond int64 = 1_000
	Millisecond int64 = 1_000_000
	Second      int64 = 1_000_000_000
)

// Seconds converts a virtual-time duration in nanoseconds to float seconds.
func Seconds(ns int64) float64 { return float64(ns) / 1e9 }

// Micros converts a virtual-time duration in nanoseconds to float microseconds.
func Micros(ns int64) float64 { return float64(ns) / 1e3 }

// Millis converts a virtual-time duration in nanoseconds to float milliseconds.
func Millis(ns int64) float64 { return float64(ns) / 1e6 }
