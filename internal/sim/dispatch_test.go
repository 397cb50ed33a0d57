package sim

import (
	"runtime"
	"strings"
	"testing"
)

// onLockedThread runs fn on a fresh goroutine locked to its OS thread, the
// way lab workers run simulations, and waits for it.
func onLockedThread(fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		fn()
	}()
	<-done
}

// pingPong spawns procs processes per node on nodes nodes that advance on
// interleaved ticks, so nearly every park switches processes, and returns
// the slice the bodies record their finish times in.
func pingPong(e *Engine, nodes, procs int) []int64 {
	ends := make([]int64, nodes*procs)
	for n := 0; n < nodes; n++ {
		for k := 0; k < procs; k++ {
			idx, node := n*procs+k, n
			e.Spawn("pp", node, func(p *Proc) {
				for i := 0; i < 50; i++ {
					p.Advance(int64(3 + idx))
				}
				ends[idx] = p.Now()
			})
		}
	}
	return ends
}

// TestRunOnLockedThread: a simulation run on a goroutine that called
// runtime.LockOSThread, as lab workers do, works for the classic engine
// (with mid-run spawns) and for a partitioned one, whether it was set up on
// that goroutine or on another. The runtime throws if a coroutine is resumed
// with thread locking other than at its creation, so every coroutine must
// be created by the loop that resumes it.
func TestRunOnLockedThread(t *testing.T) {
	build := func(parts int) (*Engine, []int64) {
		e := New()
		if parts > 0 {
			e.EnablePartitions(parts, func(node int) int { return node % parts })
		}
		ends := pingPong(e, 4, 2)
		if parts == 0 {
			e.Spawn("parent", 0, func(p *Proc) {
				p.Advance(7)
				e.Spawn("child", 1, func(c *Proc) { c.Advance(11) })
			})
		}
		return e, ends
	}
	run := func(e *Engine) {
		if err := e.Run(); err != nil {
			t.Errorf("Run: %v", err)
		}
	}
	for _, parts := range []int{0, 2} {
		e, want := build(parts)
		run(e)
		e, builtOutside := build(parts)
		onLockedThread(func() { run(e) })
		var builtInside []int64
		onLockedThread(func() {
			e, builtInside = build(parts)
			run(e)
		})
		for i := range want {
			if builtOutside[i] != want[i] || builtInside[i] != want[i] {
				t.Fatalf("parts=%d: proc %d finished at %d/%d on a locked thread (set up elsewhere/there), %d unlocked",
					parts, i, builtOutside[i], builtInside[i], want[i])
			}
		}
	}
}

// TestRealPanicRaisedFromRun: without TrapPanics, a real panic in a process
// body comes out of Run, on both engines.
func TestRealPanicRaisedFromRun(t *testing.T) {
	for _, parts := range []int{0, 2} {
		e := New()
		if parts > 0 {
			e.EnablePartitions(parts, func(node int) int { return node % parts })
		}
		pingPong(e, 2, 1)
		e.Spawn("victim", 1, func(p *Proc) {
			p.Advance(5)
			panic("boom")
		})
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("parts=%d: Run panicked with %v, want the body's panic", parts, r)
				}
			}()
			_ = e.Run()
			t.Errorf("parts=%d: Run returned after a process panicked", parts)
		}()
	}
}

// TestTrapPanicsPartitioned: trapped mode turns a real panic into Run's
// error on a partitioned engine too.
func TestTrapPanicsPartitioned(t *testing.T) {
	e := New()
	e.EnablePartitions(2, func(node int) int { return node % 2 })
	e.TrapPanics()
	pingPong(e, 2, 1)
	e.Spawn("victim", 1, func(p *Proc) {
		p.Advance(5)
		panic("index out of range")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "victim") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Run = %v, want the trapped panic", err)
	}
}

// TestGoexitInBodyEndsRunGoroutine: runtime.Goexit in a process body (what
// t.Fatal does) runs the process's deferred calls and completion, then ends
// the goroutine that called Run instead of returning from it.
func TestGoexitInBodyEndsRunGoroutine(t *testing.T) {
	for _, parts := range []int{0, 2} {
		e := New()
		if parts > 0 {
			e.EnablePartitions(parts, func(node int) int { return node % parts })
		}
		pingPong(e, 2, 1)
		var deferred bool
		victim := e.Spawn("victim", 1, func(p *Proc) {
			defer func() { deferred = true }()
			p.Advance(5)
			runtime.Goexit()
		})
		returned := false
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = e.Run()
			returned = true
		}()
		<-done
		if returned {
			t.Errorf("parts=%d: Run returned after a process body called Goexit", parts)
		}
		if !deferred || !victim.Done() {
			t.Errorf("parts=%d: victim deferred=%v done=%v, want its unwind and completion to run", parts, deferred, victim.Done())
		}
	}
}

// TestUnblockRejectedDuringPartitionedRun: Engine.Unblock cannot identify
// its caller on a partitioned engine, so it refuses even a same-node wake;
// the same wake through a WaitQueue works.
func TestUnblockRejectedDuringPartitionedRun(t *testing.T) {
	e := New()
	e.EnablePartitions(2, func(node int) int { return node % 2 })
	q := NewWaitQueue("q")
	var sleeper *Proc
	sleeper = e.Spawn("sleeper", 0, func(p *Proc) { q.Wait(p) })
	var refused bool
	e.Spawn("waker", 0, func(p *Proc) {
		p.Advance(1_000)
		func() {
			defer func() { refused = recover() != nil }()
			e.Unblock(sleeper, 0)
		}()
		q.WakeOne(e, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !refused {
		t.Error("Engine.Unblock during a partitioned run did not panic")
	}
}
