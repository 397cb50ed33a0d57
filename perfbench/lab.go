package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
)

// The lab input: an in-process butterflyd (scheduler with journal, cache and
// spooled results, served on loopback) driven over HTTP. Every point is the
// same quick NUMA measurement under a light packet-drop schedule, varied only
// by fault seed, so each point costs the same sub-millisecond simulation and
// the time goes to the service layers.
const (
	labPoints  = 600 // points of the tracked sweep, submitted cold then warm
	labClients = 2   // closed-loop clients submitting single jobs
	labSingles = 250 // single jobs per client per pass
	labWorkers = 2
	// labPoll is the fixed interval between sweep-progress polls.
	labPoll = 10 * time.Millisecond
)

// labJobs is how many jobs one pass submits, all of which a restart replays.
const labJobs = 2*labPoints + labClients*labSingles

// labSpec is the base spec of every point.
func labSpec() core.Spec {
	return core.Spec{Experiment: "numa", Quick: true, Faults: "drop 0.001"}
}

// labBench holds one seed's inputs — the sweep and the single-job specs —
// and their expected outputs, computed with lab.RunSpec outside any
// scheduler, cache or journal.
type labBench struct {
	dir     string
	sweep   lab.Sweep
	points  []string // expected document, one segment per point
	singles []core.Spec
	tables  []string     // expected single-job result tables
	sample  *core.Result // a result the cache probe stores copies of
	client  *http.Client
	passes  int
}

// labSeedBase offsets the fault-seed axis by the workload seed, so each seed
// gets fresh fingerprints.
func labSeedBase(seed int64) uint64 {
	s := seed % 1_000_000
	if s < 0 {
		s += 1_000_000
	}
	return uint64(s) * 1_000_000
}

func setupLab(seed int64, dir string) (instance, error) {
	base := labSeedBase(seed)
	o := &labBench{
		dir: dir,
		sweep: lab.Sweep{Base: labSpec(), Axes: []lab.Axis{{
			Field:  "fault_seed",
			Values: []string{fmt.Sprintf("%d..%d", base, base+labPoints-1)},
		}}},
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: labClients, MaxIdleConnsPerHost: labClients}},
	}
	specs, err := o.sweep.Expand()
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		r, err := lab.RunSpec(sp)
		if err != nil {
			return nil, fmt.Errorf("oracle point %d: %w", i, err)
		}
		o.points = append(o.points, pointSegment(i, len(specs), sp, r.Table))
		o.sample = r
	}
	for i := 0; i < labClients*labSingles; i++ {
		sp := labSpec()
		fs := base + 500_000 + uint64(i)
		sp.FaultSeed = &fs
		r, err := lab.RunSpec(sp)
		if err != nil {
			return nil, fmt.Errorf("oracle single %d: %w", i, err)
		}
		o.singles = append(o.singles, sp)
		o.tables = append(o.tables, r.Table)
	}
	// Starting the daemon belongs to set-up too; each pass then starts its
	// own on fresh directories, outside the timed phases.
	d, err := startDaemon(filepath.Join(dir, "setup"))
	if err != nil {
		return nil, err
	}
	return o, d.stop()
}

// pointSegment is one point of a reassembled sweep document, in the format
// lab.AssembleSweep and GET /sweeps/{id}/result produce.
func pointSegment(i, n int, sp core.Spec, table string) string {
	s := fmt.Sprintf("--- point %d/%d: %s ---\n%s", i+1, n, lab.DescribeSpec(sp), table)
	if !strings.HasSuffix(table, "\n") {
		s += "\n"
	}
	return s
}

// checkDocument counts the points of a received sweep document that differ
// from the oracle, a missing or extra point counting as one.
func checkDocument(want []string, doc string) (bad int) {
	var got []string
	for len(doc) > 0 {
		next := strings.Index(doc[1:], "\n--- point ")
		if next < 0 {
			got = append(got, doc)
			break
		}
		got = append(got, doc[:next+2])
		doc = doc[next+2:]
	}
	for i := 0; i < len(want) || i < len(got); i++ {
		if i >= len(want) || i >= len(got) || want[i] != got[i] {
			bad++
		}
	}
	return bad
}

// daemon is one in-process butterflyd on loopback.
type daemon struct {
	journal *lab.Journal
	sched   *lab.Scheduler
	srv     *http.Server
	served  chan error
	base    string
}

func labConfig(j *lab.Journal, dir string) lab.Config {
	return lab.Config{
		Workers:      labWorkers,
		QueueDepth:   labPoints + labClients,
		Cache:        lab.OpenCache(filepath.Join(dir, "cache")),
		Journal:      j,
		SpoolResults: true,
	}
}

func startDaemon(dir string) (*daemon, error) {
	j, err := lab.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	sched := lab.NewScheduler(labConfig(j, dir))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sched.Shutdown(context.Background())
		_ = j.Close()
		return nil, err
	}
	d := &daemon{
		journal: j, sched: sched,
		srv:    &http.Server{Handler: lab.NewServerFor(sched, lab.ServerConfig{})},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop closes the listener and connections, waits for the serve loop, then
// drains the scheduler and closes the journal.
func (d *daemon) stop() error {
	err := d.srv.Shutdown(context.Background())
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.sched.Shutdown(context.Background()), d.journal.Close())
}

// call makes one request and returns the status and the whole body.
func (o *labBench) call(method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := o.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// pass runs the four phases on a fresh daemon. Starting the daemon and
// stopping it before the restart are not timed.
func (o *labBench) pass(sp *spans) (time.Duration, tally, error) {
	o.passes++
	dir := filepath.Join(o.dir, "pass-"+strconv.Itoa(o.passes))
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir)
	if err != nil {
		return 0, tally{}, err
	}
	var t tally
	cold, err := o.sweepPhase(d, sp, &t)
	if err != nil {
		_ = d.stop()
		return 0, t, err
	}
	cacheMid := d.sched.Cache().Stats()
	warm, err := o.sweepPhase(d, sp, &t)
	if err != nil {
		_ = d.stop()
		return 0, t, err
	}
	cacheAfter := d.sched.Cache().Stats()
	loop := o.loopPhase(d, sp, &t)
	sp.add("journal.records_per_job", float64(d.journal.Rec())/labJobs)
	if err := d.stop(); err != nil {
		return 0, t, err
	}
	restart, err := o.restartPhase(dir, sp, &t)
	if err != nil {
		return 0, t, err
	}
	hits := cacheAfter.Hits - cacheMid.Hits
	if lookups := hits + cacheAfter.Misses - cacheMid.Misses; lookups > 0 {
		sp.add("cache.hit_ratio", float64(hits)/float64(lookups))
	}
	sp.add("lab.cold_jobs_per_s", labPoints/cold.Seconds())
	sp.add("lab.warm_jobs_per_s", labPoints/warm.Seconds())
	sp.add("lab.restart_s", restart.Seconds())
	return cold + warm + loop + restart, t, nil
}

// sweepPhase submits the tracked sweep, polls its progress at the fixed
// interval until every point is done, and streams the reassembled document.
// It returns the time from submission until the document is fully received.
func (o *labBench) sweepPhase(d *daemon, sp *spans, t *tally) (time.Duration, error) {
	start := time.Now()
	status, body, err := o.call("POST", d.base+"/sweeps", o.sweep)
	sp.add("http.sweep_submit_ms", msSince(start))
	if err != nil {
		return 0, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if status != http.StatusAccepted || json.Unmarshal(body, &sub) != nil || sub.ID == "" {
		return 0, fmt.Errorf("POST /sweeps: status %d: %.200s", status, body)
	}
	for {
		t0 := time.Now()
		status, body, err := o.call("GET", d.base+"/sweeps/"+sub.ID, nil)
		sp.add("http.status_ms", msSince(t0))
		if err != nil {
			return 0, err
		}
		var v struct{ Points, Done, Failed int }
		if status != http.StatusOK || json.Unmarshal(body, &v) != nil {
			return 0, fmt.Errorf("GET /sweeps/%s: status %d: %.200s", sub.ID, status, body)
		}
		if v.Failed > 0 {
			// Failed points never finish; the document cannot be streamed.
			logFailure(fmt.Errorf("sweep %s: %d points failed", sub.ID, v.Failed))
			t.add(labPoints, labPoints)
			return time.Since(start), nil
		}
		if v.Done == v.Points {
			break
		}
		time.Sleep(labPoll)
	}
	t0 := time.Now()
	status, body, err = o.call("GET", d.base+"/sweeps/"+sub.ID+"/result", nil)
	sp.add("http.stream_ms", msSince(t0))
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	bad := labPoints
	if status == http.StatusOK {
		bad = checkDocument(o.points, string(body))
	}
	if bad > 0 {
		logFailure(fmt.Errorf("sweep %s: status %d, %d of %d points differ from the oracle", sub.ID, status, bad, labPoints))
	}
	t.add(labPoints, bad)
	return elapsed, nil
}

// loopPhase runs the closed loop: each client submits a fresh single job,
// waits on the job's Done channel, fetches its result, and only then submits
// the next. Latency runs from POST /jobs until the result body is received.
func (o *labBench) loopPhase(d *daemon, sp *spans, t *tally) time.Duration {
	logs := make([]clientLog, labClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			for i := 0; i < labSingles; i++ {
				idx := c*labSingles + i
				l.t.record(o.singleJob(d, idx, l))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, l := range logs {
		for _, v := range l.submitMs {
			sp.add("http.job_submit_ms", v)
		}
		for _, v := range l.latencyMs {
			sp.add("lab.job_ms", v)
		}
		t.add(l.t.attempted, l.t.failed)
	}
	return elapsed
}

// clientLog is what one closed-loop client measured and verified.
type clientLog struct {
	submitMs, latencyMs []float64
	t                   tally
}

// singleJob runs one closed-loop request and checks its result.
func (o *labBench) singleJob(d *daemon, idx int, l *clientLog) error {
	start := time.Now()
	status, body, err := o.call("POST", d.base+"/jobs", o.singles[idx])
	l.submitMs = append(l.submitMs, msSince(start))
	if err != nil {
		return err
	}
	var st struct {
		ID string `json:"id"`
	}
	if (status != http.StatusAccepted && status != http.StatusOK) || json.Unmarshal(body, &st) != nil {
		return fmt.Errorf("POST /jobs: status %d: %.200s", status, body)
	}
	job, ok := d.sched.Lookup(st.ID)
	if !ok {
		return fmt.Errorf("job %s unknown to the scheduler", st.ID)
	}
	<-job.Done()
	status, body, err = o.call("GET", d.base+"/jobs/"+st.ID+"/result", nil)
	l.latencyMs = append(l.latencyMs, msSince(start))
	if err != nil {
		return err
	}
	if status != http.StatusOK || string(body) != o.tables[idx] {
		return fmt.Errorf("job %s: status %d, result differs from the oracle", st.ID, status)
	}
	return nil
}

// restartPhase reopens the pass's journal and replays it into a new
// scheduler, timing both steps; every journaled job must come back restored
// and none requeued.
func (o *labBench) restartPhase(dir string, sp *spans, t *tally) (time.Duration, error) {
	start := time.Now()
	j, err := lab.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return 0, err
	}
	opened := time.Now()
	sched := lab.NewScheduler(labConfig(j, dir))
	elapsed := time.Since(start)
	sp.add("journal.open_ms", float64(opened.Sub(start))/1e6)
	sp.add("scheduler.replay_ms", float64(time.Since(opened))/1e6)
	t.record(checkRecovery(sched.Recovery()))
	return elapsed, errors.Join(sched.Shutdown(context.Background()), j.Close())
}

// checkRecovery returns nil when a replay restored every job of a pass and
// requeued none.
func checkRecovery(r lab.RecoveryStats) error {
	if r.Replayed != labJobs || r.Restored != labJobs || r.Requeued != 0 {
		return fmt.Errorf("recovery replayed %d, restored %d, requeued %d; want %d, %d, 0",
			r.Replayed, r.Restored, r.Requeued, labJobs, labJobs)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func (o *labBench) layers(m metricSet, untraced, traced *spans, _ *attribution) error {
	for _, name := range []string{"lab.cold_jobs_per_s", "lab.warm_jobs_per_s", "lab.restart_s"} {
		m[name] = median(untraced.samples[name])
	}
	m["lab.job_p50_ms"] = percentile(untraced.samples["lab.job_ms"], 50)
	m["lab.job_p99_ms"] = percentile(untraced.samples["lab.job_ms"], 99)
	for _, name := range []string{"http.sweep_submit_ms", "http.status_ms", "http.stream_ms", "http.job_submit_ms",
		"journal.open_ms", "scheduler.replay_ms", "journal.records_per_job", "cache.hit_ratio"} {
		m[name] = median(traced.samples[name])
	}
	return o.probe(m)
}

// labProbeCalls is how many direct calls each journal and cache probe makes:
// enough for a p99 with ten samples beyond it.
const labProbeCalls = 1000

// probe times direct calls into the journal, the cache and the runner, on
// scratch directories of their own: a non-terminal append, a terminal append
// with its fsync, a cache store and lookup, and one point's simulation.
func (o *labBench) probe(m metricSet) error {
	dir := filepath.Join(o.dir, "probe")
	defer os.RemoveAll(dir)
	j, err := lab.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	cache := lab.OpenCache(filepath.Join(dir, "cache"))
	var appendUs, commitUs, putUs, getUs []float64
	for i := 0; i < labProbeCalls; i++ {
		spec := o.singles[i%len(o.singles)]
		id := fmt.Sprintf("p%05d", i)
		fp := fmt.Sprintf("%064x", i)
		t0 := time.Now()
		err := j.Submitted(id, i+1, spec, fp)
		appendUs = append(appendUs, usSince(t0))
		if err != nil {
			return errors.Join(err, j.Close())
		}
		t0 = time.Now()
		err = j.Finished(id, core.JobDone, "")
		commitUs = append(commitUs, usSince(t0))
		if err != nil {
			return errors.Join(err, j.Close())
		}
		r := *o.sample
		r.Fingerprint = fp
		t0 = time.Now()
		err = cache.Put(&r)
		putUs = append(putUs, usSince(t0))
		if err != nil {
			return errors.Join(err, j.Close())
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	for i := 0; i < labProbeCalls; i++ {
		fp := fmt.Sprintf("%064x", i)
		t0 := time.Now()
		r, ok := cache.Get(fp)
		getUs = append(getUs, usSince(t0))
		if !ok || r.Table != o.sample.Table {
			return fmt.Errorf("cache probe: blob %s did not round-trip", fp)
		}
	}
	var pointMs []float64
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		r, err := lab.RunSpec(o.singles[i])
		pointMs = append(pointMs, msSince(t0))
		if err != nil {
			return err
		}
		if r.Table != o.tables[i] {
			return fmt.Errorf("runner probe: point %d differs from the oracle", i)
		}
	}
	m["journal.append_us_p50"] = percentile(appendUs, 50)
	m["journal.append_us_p99"] = percentile(appendUs, 99)
	m["journal.commit_us_p50"] = percentile(commitUs, 50)
	m["journal.commit_us_p99"] = percentile(commitUs, 99)
	m["cache.put_us"] = median(putUs)
	m["cache.get_us"] = median(getUs)
	m["runner.point_ms"] = median(pointMs)
	return nil
}

func usSince(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }

func (o *labBench) close() error {
	o.client.CloseIdleConnections()
	return nil
}
