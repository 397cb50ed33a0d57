package main

import (
	"fmt"
	"time"

	"butterfly/internal/apps/gauss"
)

// The gauss-fig5 input: Figure 5's two Gaussian eliminations at one matrix
// size and three machine sizes, the uncached shared-memory version with the
// matrix spread over all 128 memories as in the paper's experiment.
const (
	gaussN      = 192
	gaussSpread = 128
)

var gaussProcs = []int{32, 64, 128}

// gaussRun is the output of one elimination the verifier checks.
type gaussRun struct {
	model     string // "us" or "smp"
	procs     int
	elapsedNs int64
	x         []float64
	count     uint64 // US communication ops or SMP messages
}

// gaussBench holds the system the program is asked to solve, regenerated
// from the same seed. The expected counts come from the paper's formulas and
// the simulated times from refs.go.
type gaussBench struct {
	seed int64
	a    [][]float64
	b    []float64
}

func setupGauss(seed int64, _ string) (instance, error) {
	a, b := gauss.RandomMatrix(gaussN, seed)
	return &gaussBench{seed: seed, a: a, b: b}, nil
}

// check returns nil when r is a correct Figure 5 output: the solution
// satisfies the system to 1e-9, the communication count follows the paper's
// formula, and the simulated time equals the reference recorded for this
// model and machine size (it does not depend on the matrix values).
func (o *gaussBench) check(r gaussRun) error {
	if len(r.x) != gaussN {
		return fmt.Errorf("%s P=%d: solution has %d entries, want %d", r.model, r.procs, len(r.x), gaussN)
	}
	if res := gauss.Residual(o.a, o.b, r.x); !(res <= 1e-9) {
		return fmt.Errorf("%s P=%d: residual %g > 1e-9", r.model, r.procs, res)
	}
	want := gauss.ExpectedCommOpsUS(r.procs, gaussN)
	if r.model == "smp" {
		want = gauss.ExpectedMessagesSMP(r.procs, gaussN)
	}
	if r.count != want {
		return fmt.Errorf("%s P=%d: %d communication operations, want %d", r.model, r.procs, r.count, want)
	}
	ref, ok := gaussRefNs[fmt.Sprintf("%s/%d", r.model, r.procs)]
	if !ok || r.elapsedNs != ref {
		return fmt.Errorf("%s P=%d: simulated %d ns, reference %d ns", r.model, r.procs, r.elapsedNs, ref)
	}
	return nil
}

// pass runs every elimination once, one simulation at a time.
func (o *gaussBench) pass(sp *spans) (time.Duration, tally, error) {
	var t tally
	start := time.Now()
	for _, p := range gaussProcs {
		t0 := time.Now()
		us, err := gauss.RunUS(gauss.USConfig{N: gaussN, Procs: p, Seed: o.seed, SpreadK: gaussSpread})
		sp.add("gauss.us_s", time.Since(t0).Seconds())
		if err != nil {
			return 0, t, fmt.Errorf("RunUS P=%d: %w", p, err)
		}
		t.record(o.check(gaussRun{"us", p, us.ElapsedNs, us.X, us.CommOps}))

		t0 = time.Now()
		smp, err := gauss.RunSMP(gauss.SMPConfig{N: gaussN, Procs: p, Seed: o.seed})
		sp.add("gauss.smp_s", time.Since(t0).Seconds())
		if err != nil {
			return 0, t, fmt.Errorf("RunSMP P=%d: %w", p, err)
		}
		t.record(o.check(gaussRun{"smp", p, smp.ElapsedNs, smp.X, smp.Messages}))
	}
	return time.Since(start), t, nil
}

// usWords is how many simulated words one pass's RunUS calls place: at
// elimination step k each of the n-1-k row tasks sweeps n-k items of five
// words (pivot element, target read and write, two descriptor words).
func usWords() float64 {
	w := 0
	for k := 0; k < gaussN-1; k++ {
		w += (gaussN - 1 - k) * (gaussN - k) * 5
	}
	return float64(w * len(gaussProcs))
}

func (o *gaussBench) layers(m metricSet, _, traced *spans, a *attribution) error {
	m["gauss.us_s"] = traced.perPass("gauss.us_s")
	m["gauss.smp_s"] = traced.perPass("gauss.smp_s")
	if traced.passes > 0 {
		m["calendar.ns_per_word"] = float64(a.usCalendar) / (usWords() * float64(traced.passes))
	}
	return nil
}

func (o *gaussBench) close() error { return nil }
