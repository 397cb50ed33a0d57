//go:build go1.24

package smp

import (
	"runtime"
	"testing"
	"time"
)

// TestFamilyReleasedAfterRun: once a family's simulation has run and the
// caller drops it, nothing in the package keeps its machine alive, so a
// long-running service does not accumulate every SMP job it has served.
func TestFamilyReleasedAfterRun(t *testing.T) {
	released := make(chan struct{})
	func() {
		os := newOS(t, 4)
		// The cleanup must not reference the machine, or it would keep it
		// alive itself; unlike a finalizer, it runs although the machine is
		// part of a reference cycle (machine → engine → process → OS).
		runtime.AddCleanup(os.M, func(ch chan struct{}) { close(ch) }, released)
		_, err := NewFamily(os, nil, "ring", seqNodes(4), Ring{}, DefaultConfig(), func(m *Member) {
			next := (m.ID + 1) % 4
			for i := 0; i < 3; i++ {
				if err := m.Send(next, 0, 8, nil); err != nil {
					t.Errorf("send: %v", err)
				}
				m.Recv()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.M.E.Run(); err != nil {
			t.Fatal(err)
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-released:
			return
		case <-deadline:
			t.Fatal("machine of a finished, dropped family is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
