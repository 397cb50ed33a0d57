//go:build go1.23

package sim

import "iter"

// Coroutine runs a function as an iter.Pull coroutine: Resume runs the body
// until it calls Yield or returns, and the next Resume continues it from
// there. A switch is a direct runtime.coroswitch on the resuming thread, not
// a wake-up through the Go scheduler. The engine runs every process body as
// one, and antfarm runs its threads the same way.
//
// The coroutine is created on its first Resume, not by NewCoroutine, because
// the runtime requires a coroutine to be resumed with the OS-thread locking
// it was created under: creating it from the loop that will resume it keeps
// that true even when that loop runs on a LockOSThread goroutine and the
// code that asked for the coroutine ran somewhere else.
//
// A panic or runtime.Goexit that ends the body is raised again from the
// Resume call that was running it.
//
// Yield may be called from a goroutine other than the body's own: the
// runtime's coroswitch suspends whichever goroutine calls it and resumes the
// one waiting in Resume, and the next Resume continues the goroutine that
// yielded. antfarm relies on this: a thread running inside a process parks
// the process by yielding the process's coroutine from the thread's.
type Coroutine struct {
	body  func()
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// NewCoroutine returns body as a coroutine that has not started yet.
func NewCoroutine(body func()) *Coroutine { return &Coroutine{body: body} }

// Resume runs the coroutine until it yields or its body returns.
func (c *Coroutine) Resume() {
	if c.next == nil {
		body := c.body
		c.body = nil
		c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			body()
		})
	}
	c.next()
}

// Yield suspends the running coroutine body and returns from the Resume
// that ran it; it returns when the coroutine is next resumed.
func (c *Coroutine) Yield() { c.yield(struct{}{}) }
