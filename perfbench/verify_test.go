package main

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"butterfly/internal/apps/gauss"
	"butterfly/internal/apps/hough"
	"butterfly/internal/lab"
)

var record = flag.Bool("record", false, "print the simulated-time references as Go source")

// TestRecordReferences prints refs.go's tables from the current program:
//
//	go test -run TestRecordReferences -record -v
func TestRecordReferences(t *testing.T) {
	if !*record {
		t.Skip("run with -record to print the reference tables")
	}
	var b strings.Builder
	b.WriteString("var gaussRefNs = map[string]int64{\n")
	for _, p := range gaussProcs {
		var ns [2][2]int64 // [seed 1, seed 2][us, smp]
		for i, seed := range []int64{1, 2} {
			us, err := gauss.RunUS(gauss.USConfig{N: gaussN, Procs: p, Seed: seed, SpreadK: gaussSpread})
			if err != nil {
				t.Fatal(err)
			}
			smp, err := gauss.RunSMP(gauss.SMPConfig{N: gaussN, Procs: p, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			ns[i] = [2]int64{us.ElapsedNs, smp.ElapsedNs}
		}
		if ns[0] != ns[1] {
			t.Errorf("P=%d: simulated times depend on the seed: %v vs %v", p, ns[0], ns[1])
		}
		fmt.Fprintf(&b, "\t\"us/%d\": %d,\n\t\"smp/%d\": %d,\n", p, ns[0][0], p, ns[0][1])
	}
	b.WriteString("}\n\nvar houghRefNs = map[int64][3]int64{\n")
	for seed := int64(0); seed <= 100; seed++ {
		im := houghImage(seed)
		var ns [3]int64
		for i, hv := range houghVariants {
			r, err := hough.Run(hough.Config{Image: im, Angles: houghAngles, Procs: houghProcs, Variant: hv.v})
			if err != nil {
				t.Fatal(err)
			}
			ns[i] = r.ElapsedNs
		}
		fmt.Fprintf(&b, "\t%d: {%d, %d, %d},\n", seed, ns[0], ns[1], ns[2])
	}
	b.WriteString("}\n")
	fmt.Print(b.String())
}

// The self-tests below run the program for real, check that its output
// passes, then corrupt the output and check that the verifier counts it as
// a failed operation.

func TestGaussVerifierRejectsCorruptOutput(t *testing.T) {
	inst, err := setupGauss(7, "")
	if err != nil {
		t.Fatal(err)
	}
	o := inst.(*gaussBench)
	p := gaussProcs[0]
	us, err := gauss.RunUS(gauss.USConfig{N: gaussN, Procs: p, Seed: 7, SpreadK: gaussSpread})
	if err != nil {
		t.Fatal(err)
	}
	smp, err := gauss.RunSMP(gauss.SMPConfig{N: gaussN, Procs: p, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	good := []gaussRun{{"us", p, us.ElapsedNs, us.X, us.CommOps}, {"smp", p, smp.ElapsedNs, smp.X, smp.Messages}}
	for _, r := range good {
		if err := o.check(r); err != nil {
			t.Fatalf("correct output rejected: %v", err)
		}
	}
	corruptions := map[string]func(*gaussRun){
		"solution":       func(r *gaussRun) { r.x = append([]float64(nil), r.x...); r.x[gaussN/2] += 1e-6 },
		"short solution": func(r *gaussRun) { r.x = r.x[1:] },
		"count":          func(r *gaussRun) { r.count++ },
		"simulated time": func(r *gaussRun) { r.elapsedNs-- },
	}
	for _, r := range good {
		for name, corrupt := range corruptions {
			bad := r
			corrupt(&bad)
			var tl tally
			tl.record(o.check(bad))
			if tl.failed != 1 {
				t.Errorf("%s with corrupt %s passed", r.model, name)
			}
		}
	}
}

func TestHoughVerifierRejectsCorruptOutput(t *testing.T) {
	const seed = 3
	inst, err := setupHough(seed, "")
	if err != nil {
		t.Fatal(err)
	}
	o := inst.(*houghBench)
	if _, ok := houghRefNs[seed]; !ok {
		t.Fatalf("seed %d has no recorded reference", seed)
	}
	i := len(houghVariants) - 1 // the fast local-tables variant
	r, err := hough.Run(hough.Config{Image: o.image, Angles: houghAngles, Procs: houghProcs, Variant: houghVariants[i].v})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.check(i, r); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	vote := r
	vote.Votes = make([][]int, len(r.Votes))
	for a := range r.Votes {
		vote.Votes[a] = append([]int(nil), r.Votes[a]...)
	}
	vote.Votes[houghAngles/2][r.NRho/2]++
	slow := r
	slow.ElapsedNs++
	for name, bad := range map[string]hough.Result{"vote": vote, "simulated time": slow} {
		var tl tally
		tl.record(o.check(i, bad))
		if tl.failed != 1 {
			t.Errorf("corrupt %s passed", name)
		}
	}
}

func TestLabVerifiersRejectCorruptOutput(t *testing.T) {
	inst, err := setupLab(11, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := inst.(*labBench)
	defer o.close()

	// A clean pass verifies every point, single job and the restart.
	var sp = newSpans()
	_, tl, err := o.pass(sp)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted != 2*labPoints+labClients*labSingles+1 {
		t.Fatalf("clean pass: %d of %d failed", tl.failed, tl.attempted)
	}

	// A pass whose outputs disagree with the oracle in one sweep point and
	// one single job counts the point twice (cold and warm) and the job once.
	want := o.points[5]
	o.points[5] = strings.Replace(want, "remote read", "remote reed", 1)
	wantTable := o.tables[3]
	o.tables[3] += "x"
	_, tl, err = o.pass(sp)
	o.points[5], o.tables[3] = want, wantTable
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 3 {
		t.Errorf("pass with three wrong outputs: %d failed", tl.failed)
	}

	// The document check counts each corrupt, missing or extra point.
	doc := strings.Join(o.points, "")
	if bad := checkDocument(o.points, doc); bad != 0 {
		t.Fatalf("correct document: %d bad points", bad)
	}
	cases := map[string]struct {
		doc string
		bad int
	}{
		"flipped byte":   {strings.Replace(doc, "1.10 us", "1.11 us", 1), 1},
		"missing point":  {strings.Join(o.points[1:], ""), labPoints},
		"extra point":    {doc + o.points[0], 1},
		"truncated tail": {doc[:len(doc)-3], 1},
	}
	for name, c := range cases {
		if bad := checkDocument(o.points, c.doc); bad < c.bad {
			t.Errorf("%s: %d bad points, want at least %d", name, bad, c.bad)
		}
	}

	// The recovery check rejects a requeue or a lost job.
	good := lab.RecoveryStats{Replayed: labJobs, Restored: labJobs}
	if err := checkRecovery(good); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]lab.RecoveryStats{
		"requeued": {Replayed: labJobs, Restored: labJobs - 1, Requeued: 1},
		"lost":     {Replayed: labJobs - 1, Restored: labJobs - 1},
	} {
		if checkRecovery(r) == nil {
			t.Errorf("recovery with a %s job passed", name)
		}
	}
}
