package main

import (
	"fmt"
	"time"

	"butterfly/internal/apps/hough"
)

// The hough input: the paper's three Hough-transform styles on one seeded
// synthetic edge image at 64 processors.
const (
	houghSize   = 128
	houghAngles = 90
	houghProcs  = 64
)

var houghVariants = []struct {
	v    hough.Variant
	span string
}{
	{hough.VariantShared, "hough.shared_s"},
	{hough.VariantCached, "hough.cached_s"},
	{hough.VariantLocalTables, "hough.tables_s"},
}

// houghBench holds the image handed to the program and the vote
// accumulator computed from it sequentially, outside the simulator.
type houghBench struct {
	seed  int64
	image *hough.Image
	votes [][]int
}

func houghImage(seed int64) *hough.Image {
	return hough.SyntheticImage(houghSize, houghSize, 6, 0.15, seed)
}

func setupHough(seed int64, _ string) (instance, error) {
	im := houghImage(seed)
	return &houghBench{seed: seed, image: im, votes: hough.Reference(im, houghAngles)}, nil
}

// check returns nil when a variant's accumulator equals the sequential
// reference and, for seeds with a recorded reference, its simulated time
// equals the recorded one.
func (o *houghBench) check(variant int, r hough.Result) error {
	if err := hough.Equal(o.votes, r.Votes); err != nil {
		return fmt.Errorf("%v: %w", houghVariants[variant].v, err)
	}
	if ref, ok := houghRefNs[o.seed]; ok && r.ElapsedNs != ref[variant] {
		return fmt.Errorf("%v: simulated %d ns, reference %d ns", houghVariants[variant].v, r.ElapsedNs, ref[variant])
	}
	return nil
}

// pass runs the three variants once, one simulation at a time.
func (o *houghBench) pass(sp *spans) (time.Duration, tally, error) {
	var t tally
	start := time.Now()
	for i, hv := range houghVariants {
		t0 := time.Now()
		r, err := hough.Run(hough.Config{Image: o.image, Angles: houghAngles, Procs: houghProcs, Variant: hv.v})
		sp.add(hv.span, time.Since(t0).Seconds())
		if err != nil {
			return 0, t, fmt.Errorf("hough %v: %w", hv.v, err)
		}
		t.record(o.check(i, r))
	}
	return time.Since(start), t, nil
}

func (o *houghBench) layers(m metricSet, _, traced *spans, _ *attribution) error {
	for _, hv := range houghVariants {
		m[hv.span] = traced.perPass(hv.span)
	}
	return nil
}

func (o *houghBench) close() error { return nil }
