package main

import "testing"

func TestCriticalPath(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		wall, sumBusy, maxBusy int64
		parts, cpus            int
		want                   int64
		basis                  string
	}{
		// One CPU: the partitions ran one at a time, so the cell is
		// projected onto P cores.
		{"projected", 100, 80, 30, 4, 1, 50, "projected"},
		// More than one CPU: partitions overlapped and their stopwatches
		// double-count, so the measured wall time is reported, whatever the
		// stopwatches add up to — also with fewer CPUs than partitions.
		{"measured, fewer CPUs than partitions", 100, 250, 70, 4, 2, 100, "measured"},
		{"measured, enough CPUs", 100, 300, 90, 2, 2, 100, "measured"},
		// One partition has nothing to overlap.
		{"measured, one partition", 100, 60, 60, 1, 1, 100, "measured"},
	} {
		got, basis := criticalPath(tc.wall, tc.sumBusy, tc.maxBusy, tc.parts, tc.cpus)
		if got != tc.want || basis != tc.basis {
			t.Errorf("%s: criticalPath = %d %q, want %d %q", tc.name, got, basis, tc.want, tc.basis)
		}
	}
}
