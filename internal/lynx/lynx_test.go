package lynx

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"butterfly/internal/antfarm"
	"butterfly/internal/chrysalis"
	"butterfly/internal/machine"
	"butterfly/internal/sim"
)

func newOS(t *testing.T, nodes int) *chrysalis.OS {
	t.Helper()
	return chrysalis.New(machine.New(machine.DefaultConfig(nodes)))
}

func TestBasicRPC(t *testing.T) {
	os := newOS(t, 2)
	server, err := Spawn(os, "server", 1, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	server.Bind("double", func(ht *antfarm.Thread, args any, words int) (any, int, error) {
		return args.(int) * 2, 1, nil
	})
	var got int
	client, err := Spawn(os, "client", 0, DefaultConfig(), func(self *Proc, th *antfarm.Thread) {
		l := NewLink(self, server)
		v, err := self.Call(th, l, "double", 21, 1)
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		got = v.(int)
		server.Shutdown(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = client
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 42 {
		t.Errorf("got = %d, want 42", got)
	}
	if server.Stats().CallsServiced != 1 {
		t.Errorf("server stats = %+v", server.Stats())
	}
}

func TestRemoteException(t *testing.T) {
	os := newOS(t, 2)
	server, _ := Spawn(os, "server", 1, DefaultConfig(), nil)
	server.Bind("fail", func(ht *antfarm.Thread, args any, words int) (any, int, error) {
		return nil, 0, errors.New("constraint violated")
	})
	var callErr error
	Spawn(os, "client", 0, DefaultConfig(), func(self *Proc, th *antfarm.Thread) {
		l := NewLink(self, server)
		_, callErr = self.Call(th, l, "fail", nil, 1)
		server.Shutdown(th)
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var re *RemoteError
	if !errors.As(callErr, &re) {
		t.Fatalf("err = %v, want RemoteError", callErr)
	}
	if !strings.Contains(re.Error(), "constraint violated") {
		t.Errorf("error text = %q", re.Error())
	}
	if server.Stats().Exceptions != 1 {
		t.Errorf("exceptions = %d", server.Stats().Exceptions)
	}
}

func TestUnknownEntry(t *testing.T) {
	os := newOS(t, 2)
	server, _ := Spawn(os, "server", 1, DefaultConfig(), nil)
	var callErr error
	Spawn(os, "client", 0, DefaultConfig(), func(self *Proc, th *antfarm.Thread) {
		l := NewLink(self, server)
		_, callErr = self.Call(th, l, "nonesuch", nil, 1)
		server.Shutdown(th)
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if callErr == nil || !strings.Contains(callErr.Error(), "no entry") {
		t.Errorf("err = %v", callErr)
	}
}

func TestInterleavedConversations(t *testing.T) {
	// Two client threads call concurrently; each conversation keeps its own
	// context (a fresh handler thread per call).
	os := newOS(t, 3)
	server, _ := Spawn(os, "server", 2, DefaultConfig(), nil)
	server.Bind("slowEcho", func(ht *antfarm.Thread, args any, words int) (any, int, error) {
		ht.P().Advance(5 * sim.Millisecond)
		return args, 1, nil
	})
	results := map[int]int{}
	Spawn(os, "client", 0, DefaultConfig(), func(self *Proc, th *antfarm.Thread) {
		l := NewLink(self, server)
		done := th.Farm.NewChannel(2)
		for i := 1; i <= 2; i++ {
			i := i
			th.Farm.Spawn("caller", func(ct *antfarm.Thread) {
				v, err := self.Call(ct, l, "slowEcho", i*100, 1)
				if err != nil {
					t.Errorf("Call: %v", err)
				}
				results[i] = v.(int)
				done.Send(ct, i, 1)
			})
		}
		done.Recv(th)
		done.Recv(th)
		server.Shutdown(th)
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if results[1] != 100 || results[2] != 200 {
		t.Errorf("results = %v", results)
	}
}

func TestLinkMove(t *testing.T) {
	os := newOS(t, 3)
	s1, _ := Spawn(os, "s1", 1, DefaultConfig(), nil)
	s1.Bind("who", func(ht *antfarm.Thread, args any, words int) (any, int, error) {
		return "s1", 1, nil
	})
	s2, _ := Spawn(os, "s2", 2, DefaultConfig(), nil)
	s2.Bind("who", func(ht *antfarm.Thread, args any, words int) (any, int, error) {
		return "s2", 1, nil
	})
	var first, second string
	Spawn(os, "client", 0, DefaultConfig(), func(self *Proc, th *antfarm.Thread) {
		l := NewLink(self, s1)
		v, err := self.Call(th, l, "who", nil, 1)
		if err != nil {
			t.Errorf("call 1: %v", err)
		}
		first, _ = v.(string)
		if err := l.Move(s1, s2); err != nil {
			t.Errorf("Move: %v", err)
		}
		v, err = self.Call(th, l, "who", nil, 1)
		if err != nil {
			t.Errorf("call 2: %v", err)
		}
		second, _ = v.(string)
		s1.Shutdown(th)
		s2.Shutdown(th)
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if first != "s1" || second != "s2" {
		t.Errorf("first=%q second=%q", first, second)
	}
}

func TestLinkDestroy(t *testing.T) {
	os := newOS(t, 2)
	server, _ := Spawn(os, "server", 1, DefaultConfig(), nil)
	var callErr error
	Spawn(os, "client", 0, DefaultConfig(), func(self *Proc, th *antfarm.Thread) {
		l := NewLink(self, server)
		l.Destroy()
		if l.Alive() {
			t.Error("destroyed link still alive")
		}
		_, callErr = self.Call(th, l, "x", nil, 1)
		server.Shutdown(th)
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if callErr != ErrLinkDestroyed {
		t.Errorf("err = %v, want ErrLinkDestroyed", callErr)
	}
}

func TestCallOnForeignLink(t *testing.T) {
	os := newOS(t, 3)
	s1, _ := Spawn(os, "s1", 1, DefaultConfig(), nil)
	s2, _ := Spawn(os, "s2", 2, DefaultConfig(), nil)
	var callErr error
	Spawn(os, "client", 0, DefaultConfig(), func(self *Proc, th *antfarm.Thread) {
		foreign := NewLink(s1, s2)
		_, callErr = self.Call(th, foreign, "x", nil, 1)
		s1.Shutdown(th)
		s2.Shutdown(th)
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if callErr != ErrNotAnEnd {
		t.Errorf("err = %v, want ErrNotAnEnd", callErr)
	}
}

func TestCallAfterShutdown(t *testing.T) {
	os := newOS(t, 2)
	server, _ := Spawn(os, "server", 1, DefaultConfig(), nil)
	server.Bind("noop", func(ht *antfarm.Thread, args any, words int) (any, int, error) { return nil, 0, nil })
	var callErr error
	Spawn(os, "client", 0, DefaultConfig(), func(self *Proc, th *antfarm.Thread) {
		l := NewLink(self, server)
		if _, err := self.Call(th, l, "noop", nil, 1); err != nil {
			t.Errorf("first call: %v", err)
		}
		server.Shutdown(th)
		th.P().Advance(10 * sim.Millisecond)
		_, callErr = self.Call(th, l, "noop", nil, 1)
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if callErr != ErrDown {
		t.Errorf("err = %v, want ErrDown", callErr)
	}
}

func TestRPCCostIsMilliseconds(t *testing.T) {
	// §4.2: "for the semantics provided, the costs are very reasonable" —
	// Lynx round trips measure in low milliseconds.
	os := newOS(t, 2)
	server, _ := Spawn(os, "server", 1, DefaultConfig(), nil)
	server.Bind("echo", func(ht *antfarm.Thread, args any, words int) (any, int, error) {
		return args, words, nil
	})
	var perCall int64
	Spawn(os, "client", 0, DefaultConfig(), func(self *Proc, th *antfarm.Thread) {
		l := NewLink(self, server)
		start := th.P().Engine().Now()
		const n = 20
		for i := 0; i < n; i++ {
			if _, err := self.Call(th, l, "echo", i, 8); err != nil {
				t.Errorf("Call: %v", err)
			}
		}
		perCall = (th.P().Engine().Now() - start) / n
		server.Shutdown(th)
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if perCall < 500*sim.Microsecond || perCall > 10*sim.Millisecond {
		t.Errorf("per-call = %d ns, want 0.5-10 ms", perCall)
	}
}

func TestEndsAccessors(t *testing.T) {
	os := newOS(t, 2)
	a, _ := Spawn(os, "a", 0, DefaultConfig(), nil)
	b, _ := Spawn(os, "b", 1, DefaultConfig(), nil)
	l := NewLink(a, b)
	x, y := l.Ends()
	if x != a || y != b {
		t.Error("Ends mismatch")
	}
	if err := l.Move(nil, a); err != ErrNotAnEnd {
		t.Errorf("Move from non-end: %v", err)
	}
	l.Destroy()
	if err := l.Move(a, b); err != ErrLinkDestroyed {
		t.Errorf("Move on destroyed link: %v", err)
	}
	// Drain the two idle dispatchers so the sim terminates.
	Spawn(os, "killer", 0, DefaultConfig(), func(self *Proc, th *antfarm.Thread) {
		a.Shutdown(th)
		b.Shutdown(th)
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestRPCOnLockedThread: a Lynx simulation, whose processes run Ant Farm
// threads as coroutines inside process coroutines, runs on a goroutine that
// called runtime.LockOSThread (as lab workers do) after being set up on
// another. The runtime throws if a coroutine is resumed with thread locking
// other than at its creation.
func TestRPCOnLockedThread(t *testing.T) {
	os := newOS(t, 2)
	server, err := Spawn(os, "server", 1, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	server.Bind("double", func(ht *antfarm.Thread, args any, words int) (any, int, error) {
		return args.(int) * 2, 1, nil
	})
	var got []int
	_, err = Spawn(os, "client", 0, DefaultConfig(), func(self *Proc, th *antfarm.Thread) {
		l := NewLink(self, server)
		for i := 1; i <= 3; i++ {
			v, err := self.Call(th, l, "double", i, 1)
			if err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			got = append(got, v.(int))
		}
		server.Shutdown(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if err := os.M.E.Run(); err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	<-done
	if len(got) != 3 || got[0] != 2 || got[2] != 6 {
		t.Errorf("replies = %v, want [2 4 6]", got)
	}
}
