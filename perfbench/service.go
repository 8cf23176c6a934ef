package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/service/diskcache"
)

const (
	// clientPoll is the benchmark client's status-poll interval, well
	// below the client's 25ms default so that miss latency is not
	// quantized by polling, yet long enough that a waiting client's polls
	// do not crowd out the other client's requests on two cores.
	clientPoll = 5 * time.Millisecond
	// probeBudget is how long the traced runs of the simulation workloads
	// drive the service mix to measure the service-side layers.
	probeBudget = 3 * time.Second
	// testbedStarts is how many complete starts setup_s is the median of.
	testbedStarts = 50
	// directProbes is how many completed points the direct-worker and
	// coordinator hit probes use.
	directProbes = 20
)

// testbed is the service under test: a coordinator fronting two
// in-process fastd workers (one engine worker each) that share one disk
// cache directory, all served over loopback HTTP.
type testbed struct {
	dir      string
	workers  []*service.Server
	coord    *cluster.Coordinator
	servers  []*http.Server
	serving  sync.WaitGroup
	urls     []string // worker base URLs
	coordURL string
}

// serve mounts h on a fresh loopback listener.
func (tb *testbed) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	tb.servers = append(tb.servers, srv)
	tb.serving.Add(1)
	go func() {
		defer tb.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// startTestbed starts the cluster with its disk cache in a fresh
// directory under workDir and returns once the coordinator's /healthz
// answers.
func startTestbed(ctx context.Context) (*testbed, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "svc-")
	if err != nil {
		return nil, err
	}
	tb := &testbed{dir: dir}
	for i := 0; i < 2; i++ {
		tel := obs.New()
		store, err := diskcache.New(filepath.Join(dir, "cache"), 0, tel)
		if err != nil {
			tb.stop()
			return nil, err
		}
		w := service.New(service.Config{Workers: 1, Store: store, Telemetry: tel})
		tb.workers = append(tb.workers, w)
		u, err := tb.serve(w.Handler())
		if err != nil {
			tb.stop()
			return nil, err
		}
		tb.urls = append(tb.urls, u)
	}
	tb.coord, err = cluster.New(cluster.Config{Nodes: tb.urls})
	if err != nil {
		tb.stop()
		return nil, err
	}
	if tb.coordURL, err = tb.serve(tb.coord.Handler()); err != nil {
		tb.stop()
		return nil, err
	}
	cli := tb.client(tb.coordURL)
	for {
		if h, err := cli.Health(ctx); err == nil && h.Status == "ok" {
			return tb, nil
		}
		select {
		case <-ctx.Done():
			tb.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func (tb *testbed) client(base string) *client.Client {
	c := client.New(base)
	c.Poll = clientPoll
	return c
}

// stop shuts everything down, waits for every goroutine it started and
// removes the cache directory.
func (tb *testbed) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if tb.coord != nil {
		tb.coord.Close()
	}
	for _, s := range tb.servers {
		_ = s.Shutdown(ctx) // best effort: the directory goes next anyway
	}
	tb.serving.Wait()
	for _, w := range tb.workers {
		_ = w.Shutdown(ctx)
	}
	_ = os.RemoveAll(tb.dir)
}

// scrape sums the named counters (exact series names, labels included)
// over the given nodes' /metrics.
func scrape(ctx context.Context, tb *testbed, urls []string, names ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range urls {
		raw, err := tb.client(u).Metrics(ctx)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(raw))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) != 2 || strings.HasPrefix(f[0], "#") {
				continue
			}
			for _, n := range names {
				if f[0] == n {
					v, err := strconv.ParseFloat(f[1], 64)
					if err != nil {
						return nil, fmt.Errorf("metric %s: %w", n, err)
					}
					out[n] += v
				}
			}
		}
	}
	return out, nil
}

// Series the benchmark reads from the workers' /metrics.
var (
	mEngineRuns   = "service_engine_runs_total"
	mSubmitted    = "service_jobs_submitted_total"
	mCached       = obs.L("service_jobs_total", "status", "cached")
	mSnapHits     = "service_snapshot_hits_total"
	mSnapMisses   = "service_snapshot_misses_total"
	mResumed      = "service_snapshot_resumed_instructions_total"
	serviceSeries = []string{mEngineRuns, mSubmitted, mCached, mSnapHits, mSnapMisses, mResumed}
)

// jobOutcome is one completed submission of the mix.
type jobOutcome struct {
	it        item
	latency   time.Duration
	view      service.JobView // final view (misses only)
	instr     uint64          // Result.instructions (misses only)
	completed time.Time
}

// mixRun is what driveMix measured.
type mixRun struct {
	outcomes []jobOutcome
	makespan time.Duration
}

// driveMix runs the seed's mix through the coordinator from two
// closed-loop clients until the budget is spent (a client finishes the
// job it holds). Each job is checked against its reference digest and its
// expected cache outcome.
func driveMix(ctx context.Context, rep *report, tr *tracer, ref *reference, tb *testbed, seed int64, budget time.Duration) (*mixRun, error) {
	items := genMix(seed)
	done := make([]chan struct{}, len(items))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		run     mixRun
		firstEr error
	)
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := tb.client(tb.coordURL)
			// A claimed item always closes its done channel: the other
			// client may hold an item that depends on it.
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				out, err := waitAndRun(ctx, rep, tr, ref, cli, items[i], i, done)
				close(done[i])
				mu.Lock()
				if err != nil {
					if firstEr == nil {
						firstEr = err
					}
				} else {
					run.outcomes = append(run.outcomes, out)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	if int(next.Load()) >= len(items) {
		fmt.Fprintf(os.Stderr, "perfbench: mix of %d items used up before the budget\n", len(items))
	}
	for _, o := range run.outcomes {
		if d := o.completed.Sub(start); d > run.makespan {
			run.makespan = d
		}
	}
	return &run, nil
}

// waitAndRun waits until the item's dependencies are done, then runs it.
func waitAndRun(ctx context.Context, rep *report, tr *tracer, ref *reference, cli *client.Client, it item, i int, done []chan struct{}) (jobOutcome, error) {
	for _, d := range it.deps {
		select {
		case <-done[d]:
		case <-ctx.Done():
			return jobOutcome{}, ctx.Err()
		}
	}
	return runJob(ctx, rep, tr, ref, cli, it, i)
}

// runJob submits one item and waits for its result bytes. An error return
// means the harness itself broke (the context ended); a job that fails or
// whose output differs is counted as a failed operation instead.
func runJob(ctx context.Context, rep *report, tr *tracer, ref *reference, cli *client.Client, it item, i int) (jobOutcome, error) {
	out := jobOutcome{it: it}
	runID := fmt.Sprintf("job-%d", i)
	root := tr.begin("job."+kindNames[it.kind], 0, runID)
	start := time.Now()
	sub := tr.begin("client.SubmitParams", root, runID)
	v, err := cli.SubmitParams(ctx, "fast", it.pt.params(), 0)
	tr.end(sub)
	var raw json.RawMessage
	if err == nil {
		wait := tr.begin("client.WaitResult", root, runID)
		raw, err = cli.WaitResult(ctx, v.ID)
		tr.end(wait)
	}
	out.latency = time.Since(start)
	out.completed = time.Now()
	tr.end(root)
	if ctx.Err() != nil {
		return out, ctx.Err()
	}
	var verr error
	if err == nil && it.kind != repeat {
		out.view, verr = cli.Job(ctx, v.ID)
	}

	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.Attempted++
	switch want, ok := ref.Service[it.pt.key()]; {
	case err != nil:
		rep.fail("%s %s: %v", kindNames[it.kind], it.pt.key(), err)
	case !ok || digest(raw) != want:
		rep.fail("%s %s: result differs from reference", kindNames[it.kind], it.pt.key())
	case v.Cached != (it.kind == repeat):
		rep.fail("%s %s: cached=%t at submission", kindNames[it.kind], it.pt.key(), v.Cached)
	case verr != nil:
		rep.fail("%s %s: job view: %v", kindNames[it.kind], it.pt.key(), verr)
	case it.kind != repeat:
		var res struct {
			Instructions uint64 `json:"instructions"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			rep.fail("%s: decode result: %v", it.pt.key(), err)
		}
		out.instr = res.Instructions
	}
	return out, nil
}

// mixCounts checks the workers' counters against what the completed items
// imply: one engine run per miss, a snapshot miss per cold miss and a hit
// per warm miss, a cached job per repeat. A count that moved is a failure.
func mixCounts(rep *report, run *mixRun, before, after map[string]float64) {
	var n [3]float64
	for _, o := range run.outcomes {
		n[o.it.kind]++
	}
	expect := map[string]float64{
		mEngineRuns: n[cold] + n[warm],
		mSnapMisses: n[cold],
		mSnapHits:   n[warm],
		mCached:     n[repeat],
		mSubmitted:  n[cold] + n[warm] + n[repeat],
	}
	for _, name := range sortedKeys(expect) {
		if got := after[name] - before[name]; got != expect[name] {
			rep.fail("count %s moved: got %v, want %v", name, got, expect[name])
		}
	}
}

// serviceEndToEnd is the service workload's end-to-end run.
func serviceEndToEnd(rep *report, ref *reference, seed int64, budget time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), budget+120*time.Second)
	defer cancel()
	tr := newTracer(false)

	// Set-up: server start until the coordinator's /healthz answers, timed
	// over several complete starts.
	var setups []float64
	var tb *testbed
	for i := 0; i <= testbedStarts; i++ {
		settle()
		start := time.Now()
		var err error
		tb, err = startTestbed(ctx)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < testbedStarts {
			tb.stop()
		}
	}
	defer tb.stop()

	before, err := scrape(ctx, tb, tb.urls, serviceSeries...)
	if err != nil {
		return err
	}
	settle()
	rtBefore := readRuntime()
	run, err := driveMix(ctx, rep, tr, ref, tb, seed, budget)
	if err != nil {
		return err
	}
	rtAfter := readRuntime()
	after, err := scrape(ctx, tb, tb.urls, serviceSeries...)
	if err != nil {
		return err
	}
	mixCounts(rep, run, before, after)

	var hit, miss []float64
	var instr, engineSeconds float64
	for _, o := range run.outcomes {
		ms := o.latency.Seconds() * 1e3
		if o.it.kind == repeat {
			hit = append(hit, ms)
			continue
		}
		miss = append(miss, ms)
		instr += float64(o.instr)
		engineSeconds += o.view.FinishedAt.Sub(o.view.StartedAt).Seconds()
	}
	if len(hit) == 0 || len(miss) == 0 || engineSeconds <= 0 {
		return fmt.Errorf("mix completed %d hits and %d misses; need both", len(hit), len(miss))
	}
	// Warm misses resume past their prefix's boot: only the instructions
	// an engine actually executed count toward host speed.
	executed := instr - (after[mResumed] - before[mResumed])
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	fmt.Printf("service mix: %d hits, %d misses (%d cold) in %.2fs\n", len(hit), len(miss),
		int(after[mSnapMisses]-before[mSnapMisses]), run.makespan.Seconds())
	rep.set("host_kips", executed/engineSeconds/1e3, "kips")
	rep.set("setup_s", median(setups), "s")
	rep.set("alloc_mib", rtAfter.sub(rtBefore).allocBytes/float64(len(run.outcomes))/(1<<20), "MiB")
	rep.set("peak_rss_mib", rss, "MiB")
	rep.set("jobs_per_s", float64(len(run.outcomes))/run.makespan.Seconds(), "1/s")
	rep.set("hit_p50_ms", quantile(hit, 0.5), "ms")
	rep.set("hit_p90_ms", quantile(hit, 0.9), "ms")
	rep.set("miss_p50_ms", quantile(miss, 0.5), "ms")
	rep.set("miss_p90_ms", quantile(miss, 0.9), "ms")
	return nil
}

// serviceLayers is the service workload's traced run: the ledger over the
// mix's boot image, then the service probes over the full budget.
func serviceLayers(rep *report, tr *tracer, ref *reference, seed int64, budget time.Duration) error {
	if err := simLedger(rep, tr, serviceWorkload, ledgerPoint.params(), serviceRefCheck(rep, ref, ledgerPoint)); err != nil {
		return err
	}
	return serviceProbes(rep, tr, ref, seed, budget)
}

// serviceProbes drives the mix with spans around every client call, then
// measures the per-request costs on completed points: submit and result
// calls made direct to a worker, and the coordinator's extra latency on
// the same hits. It also reports the workers' cache and snapshot counts,
// the coordinator's reassignments and steals, and the snapshot layer.
func serviceProbes(rep *report, tr *tracer, ref *reference, seed int64, budget time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), budget+120*time.Second)
	defer cancel()
	var tb *testbed
	var err error
	tr.timed("testbed.start", 0, "testbed", func() { tb, err = startTestbed(ctx) })
	if err != nil {
		return err
	}
	defer tb.stop()
	before, err := scrape(ctx, tb, tb.urls, serviceSeries...)
	if err != nil {
		return err
	}
	run, err := driveMix(ctx, rep, tr, ref, tb, seed, budget)
	if err != nil {
		return err
	}
	after, err := scrape(ctx, tb, tb.urls, serviceSeries...)
	if err != nil {
		return err
	}
	mixCounts(rep, run, before, after)
	d := func(name string) float64 { return after[name] - before[name] }
	rep.set("service.engine_runs", d(mEngineRuns), "count")
	rep.set("service.cache_hit_ratio", d(mCached)/d(mSubmitted), "fraction")
	rep.set("service.snapshot_hit_ratio", d(mSnapHits)/(d(mSnapHits)+d(mSnapMisses)), "fraction")

	var waits []float64
	var points []item
	for _, o := range run.outcomes {
		if o.it.kind != repeat {
			waits = append(waits, o.view.StartedAt.Sub(o.view.SubmittedAt).Seconds()*1e3)
			if len(points) < directProbes {
				points = append(points, o.it)
			}
		}
	}
	if len(waits) == 0 {
		return fmt.Errorf("service probe completed no miss")
	}
	rep.set("service.queue_wait_ms", mean(waits), "ms")

	// Hits direct to worker 0: the first submission may be served from
	// the shared disk tier and promotes the result into memory; the
	// second is the memory hit that is timed.
	direct := tb.client(tb.urls[0])
	coord := tb.client(tb.coordURL)
	var submits, results, directHits, coordHits []float64
	for i, it := range points {
		runID := fmt.Sprintf("probe-%d", i)
		p := it.pt.params()
		if _, err := direct.SubmitParams(ctx, "fast", p, 0); err != nil {
			return err
		}
		var v service.JobView
		ds := tr.timed("direct.SubmitParams", 0, runID, func() { v, err = direct.SubmitParams(ctx, "fast", p, 0) })
		if err != nil {
			return err
		}
		var raw json.RawMessage
		var ok bool
		dr := tr.timed("direct.JobResult", 0, runID, func() { raw, ok, err = direct.JobResult(ctx, v.ID) })
		rep.Attempted++
		if err != nil || !ok || !v.Cached || digest(raw) != ref.Service[it.pt.key()] {
			rep.fail("direct hit on %s: cached=%t ok=%t err=%v", it.pt.key(), v.Cached, ok, err)
			continue
		}
		submits = append(submits, ds.Seconds()*1e3)
		results = append(results, dr.Seconds()*1e3)
		directHits = append(directHits, (ds+dr).Seconds()*1e3)

		dc := tr.timed("coordinator.hit", 0, runID, func() {
			if v, err = coord.SubmitParams(ctx, "fast", p, 0); err == nil {
				raw, err = coord.WaitResult(ctx, v.ID)
			}
		})
		rep.Attempted++
		if err != nil || !v.Cached || digest(raw) != ref.Service[it.pt.key()] {
			rep.fail("coordinator hit on %s: cached=%t err=%v", it.pt.key(), v.Cached, err)
			continue
		}
		coordHits = append(coordHits, dc.Seconds()*1e3)
	}
	if len(directHits) == 0 || len(coordHits) == 0 {
		return fmt.Errorf("no hit probe succeeded")
	}
	rep.set("service.submit_ms", median(submits), "ms")
	rep.set("service.result_ms", median(results), "ms")
	rep.set("cluster.overhead_ms", median(coordHits)-median(directHits), "ms")

	cl, err := scrape(ctx, tb, []string{tb.coordURL}, "cluster_reassignments_total", "cluster_steals_total")
	if err != nil {
		return err
	}
	rep.set("cluster.reassignments", cl["cluster_reassignments_total"], "count")
	rep.set("cluster.steals", cl["cluster_steals_total"], "count")
	return snapProbe(rep, tr)
}
