// Command perfbench is the repository benchmark. It runs one workload on
// inputs made from a seed, for a given number of seconds, checks every output
// against an oracle, and prints one JSON result as its last line:
//
//	perfbench --workload gauss-fig5 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured untraced.
// With --trace 1 it holds the per-layer metrics: the run spends half its time
// untraced and half under a CPU profile, with spans timed around the calls
// into each layer. Build and run it through run.sh, from the repository root.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// instance is one workload set up for one seed: its inputs and the oracle
// that checks the program's outputs.
type instance interface {
	// pass runs the workload's fixed input once, verifying every output. It
	// returns the host time that counts, excluding any untimed preparation.
	pass(sp *spans) (time.Duration, tally, error)
	// layers adds the workload's own per-layer metrics, from the spans of
	// the untraced and traced passes and the traced passes' profile.
	layers(m metricSet, untraced, traced *spans, a *attribution) error
	close() error
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(seed int64, dir string) (instance, error){
	// Figure 5: word-by-word calendar placement, switch booking bypassed.
	"gauss-fig5": setupGauss,
	// The Hough transform: engine handoffs, spin locks and switch transits.
	"hough": setupHough,
	// The lab service: journal, cache, JSON and HTTP around tiny simulations.
	"lab": setupLab,
}

// setupRuns is how many times a run sets up; setup_s is the median.
const setupRuns = 5

type metricSet map[string]float64

// endToEnd are the metrics a --trace 0 run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"host_s", "s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports. A layer the workload
// does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"calendar.cpu_share", "share"},
	{"calendar.ns_per_word", "ns/word"},
	{"machine.cpu_share", "share"},
	{"machine.sweep_share", "share"},
	{"memory.cpu_share", "share"},
	{"sim.cpu_share", "share"},
	{"sim.handoff_share", "share"},
	{"switchnet.cpu_share", "share"},
	{"switchnet.transit_share", "share"},
	{"chrysalis.cpu_share", "share"},
	{"chrysalis.spinlock_share", "share"},
	{"us.cpu_share", "share"},
	{"smp.cpu_share", "share"},
	{"lab.cpu_share", "share"},
	{"net_http.cpu_share", "share"},
	{"encoding_json.cpu_share", "share"},
	{"syscall.cpu_share", "share"},
	{"runtime.gc_share", "share"},
	{"gauss.us_s", "s"},
	{"gauss.smp_s", "s"},
	{"hough.shared_s", "s"},
	{"hough.cached_s", "s"},
	{"hough.tables_s", "s"},
	{"http.sweep_submit_ms", "ms"},
	{"http.status_ms", "ms"},
	{"http.stream_ms", "ms"},
	{"http.job_submit_ms", "ms"},
	{"journal.append_us_p50", "us"},
	{"journal.append_us_p99", "us"},
	{"journal.commit_us_p50", "us"},
	{"journal.commit_us_p99", "us"},
	{"journal.records_per_job", "records/job"},
	{"journal.open_ms", "ms"},
	{"scheduler.replay_ms", "ms"},
	{"cache.put_us", "us"},
	{"cache.get_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"runner.point_ms", "ms"},
	{"lab.cold_jobs_per_s", "1/s"},
	{"lab.warm_jobs_per_s", "1/s"},
	{"lab.job_p50_ms", "ms"},
	{"lab.job_p99_ms", "ms"},
	{"lab.restart_s", "s"},
	{"bench.untraced_host_s", "s"},
	{"bench.traced_host_s", "s"},
	{"bench.trace_overhead_s", "s"},
}

// profiledLayers are the layers whose self-time share the traced run
// reports as <layer>.cpu_share.
var profiledLayers = []string{
	"calendar", "machine", "memory", "sim", "switchnet", "chrysalis", "us", "smp",
	"lab", "net_http", "encoding_json", "syscall",
}

// tally counts verified operations and the ones whose output was wrong.
type tally struct{ attempted, failed int }

// reported caps how many verification failures are written to stderr.
var reported atomic.Int32

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		logFailure(err)
	}
}

// logFailure writes a verification failure to stderr, the first ten only.
func logFailure(err error) {
	if reported.Add(1) <= 10 {
		log.Printf("verify: %v", err)
	}
}

func (t *tally) add(attempted, failed int) {
	t.attempted += attempted
	t.failed += failed
}

// spans collects the host times the benchmark takes around calls into the
// program: every sample, and per-pass totals.
type spans struct {
	passes  int
	samples map[string][]float64
	totals  map[string][]float64
	cur     map[string]float64
}

func newSpans() *spans {
	return &spans{samples: map[string][]float64{}, totals: map[string][]float64{}, cur: map[string]float64{}}
}

func (s *spans) add(name string, v float64) {
	s.samples[name] = append(s.samples[name], v)
	s.cur[name] += v
}

func (s *spans) endPass() {
	for k, v := range s.cur {
		s.totals[k] = append(s.totals[k], v)
	}
	s.cur = map[string]float64{}
	s.passes++
}

// print writes every span series, one line each.
func (s *spans) print() {
	names := make([]string, 0, len(s.samples))
	for k := range s.samples {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %s: %s\n", k, describe(s.samples[k], ""))
	}
}

// perPass is the median over passes of a span's per-pass total.
func (s *spans) perPass(name string) float64 { return median(s.totals[name]) }

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: gauss-fig5, hough or lab")
	seed := flag.Int64("seed", 1, "seed the inputs are made from")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	scratch := flag.String("scratch", filepath.Join(".bench_build", "tmp"), "directory for scratch files")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	dir := filepath.Join(*scratch, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var inst instance
	var setupS []float64
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		inst, err = setup(*seed, filepath.Join(dir, "setup-"+strconv.Itoa(i)))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	budget := time.Duration(*seconds * float64(time.Second))
	m := metricSet{}
	var t tally
	var units = endToEnd
	if *trace == 0 {
		sp := newSpans()
		hosts, err := measure(inst, budget, sp, nil, &t)
		if err != nil {
			return err
		}
		m["host_s"] = median(hosts)
		m["setup_s"] = median(setupS)
		m["max_rss_mb"] = median(sp.samples["pass.peak_rss_mb"])
		fmt.Printf("host_s: %s\n  per pass: %s\n", describe(hosts, "s"), series(hosts))
		sp.print()
	} else {
		units = perLayer
		untraced, traced := newSpans(), newSpans()
		a := newAttribution()
		base, err := measure(inst, budget/2, untraced, nil, &t)
		if err != nil {
			return err
		}
		hosts, err := measure(inst, budget/2, traced, a, &t)
		if err != nil {
			return err
		}
		for _, l := range profiledLayers {
			m[l+".cpu_share"] = a.selfShare(l)
		}
		for metric := range entryPoints {
			m[metric] = a.share(a.under[metric])
		}
		if err := inst.layers(m, untraced, traced, a); err != nil {
			return err
		}
		m["bench.untraced_host_s"] = median(base)
		m["bench.traced_host_s"] = median(hosts)
		m["bench.trace_overhead_s"] = median(hosts) - median(base)
		fmt.Printf("untraced host_s: %s\ntraced host_s: %s\n", describe(base, "s"), describe(hosts, "s"))
		untraced.print()
		fmt.Printf("profile: %d ms of CPU sampled; largest self-time layers: %s\n", a.total/1e6, a.top(8))
	}
	fmt.Printf("setup_s: %s\n", describe(setupS, "s"))
	fmt.Printf("host: NumCPU=%d GOMAXPROCS=%d %s scratch filesystem %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), filesystem(dir))
	return emit(t, m, units)
}

// series lists samples in the order taken, in milliseconds.
func series(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f", x*1e3)
	}
	return b.String() + " ms"
}

// measure runs passes until the budget is spent (at least one), adding
// their verification counts to t and returning each pass's host seconds.
// Each pass starts from a heap returned to the OS, so its peak resident
// memory, recorded in sp, does not depend on the passes before it. With a
// non-nil attribution every pass runs under a CPU profile.
func measure(inst instance, budget time.Duration, sp *spans, a *attribution, t *tally) ([]float64, error) {
	var hosts []float64
	start := time.Now()
	for len(hosts) == 0 || time.Since(start) < budget {
		debug.FreeOSMemory()
		peakRSS := watchRSS()
		var prof bytes.Buffer
		if a != nil {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		d, pt, err := inst.pass(sp)
		if a != nil {
			pprof.StopCPUProfile()
		}
		rss, rerr := peakRSS()
		if err = errors.Join(err, rerr); err != nil {
			return nil, err
		}
		sp.add("pass.peak_rss_mb", rss)
		if a != nil {
			p, err := parseCPUProfile(prof.Bytes())
			if err != nil {
				return nil, err
			}
			a.add(p)
		}
		sp.endPass()
		t.add(pt.attempted, pt.failed)
		hosts = append(hosts, d.Seconds())
	}
	return hosts, nil
}

// emit prints the result line: every listed metric, 0 where unmeasured.
func emit(t tally, m metricSet, units []struct{ name, unit string }) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: t.attempted > 0 && t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	for _, u := range units {
		v := m[u.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", u.name, v)
		}
		out.Metrics[u.name] = value{v, u.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// rssMB reads the process's resident set size from /proc/self/statm.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// watchRSS samples the resident set size every millisecond until the
// returned function is called, which returns the peak seen.
func watchRSS() func() (float64, error) {
	stop := make(chan struct{})
	result := make(chan error, 1)
	var peak float64
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			r, err := rssMB()
			if err != nil {
				result <- err
				return
			}
			peak = max(peak, r)
			select {
			case <-stop:
				result <- nil
				return
			case <-tick.C:
			}
		}
	}()
	return func() (float64, error) {
		close(stop)
		err := <-result
		return peak, err
	}
}

// filesystem names the filesystem holding dir; fsync cost depends on it.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("type %#x", st.Type)
}
