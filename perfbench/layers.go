package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fm"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ledgerRun is the run id the per-layer spans of one ledger share.
const ledgerRun = "ledger"

// simLayers is the traced run of a simulation workload: the per-layer
// ledger over the workload's own point, then the service, cluster and
// snapshot probes over a short service mix (the simulation workloads
// never drive those layers; the probes report their unit costs).
func simLayers(rep *report, tr *tracer, ref *reference, name string, seed int64) error {
	w := simWorkloads[name]
	want, ok := ref.Sim[name]
	if !ok {
		return fmt.Errorf("no reference for workload %s; run with --record", name)
	}
	check := func(r sim.Result, e sim.Engine) { checkSim(rep, want, r, e) }
	if err := simLedger(rep, tr, w.workload, w.params(), check); err != nil {
		return err
	}
	return serviceProbes(rep, tr, ref, seed, probeBudget)
}

// ledger results of one layer pass.
type fmPass struct {
	entries    []trace.Entry // the right path, one entry per IN
	stepped    uint64        // instructions StepBlock produced (re-executions included)
	stepNs     float64
	commits    uint64
	commitNs   float64
	rollbacks  uint64
	rollbackNs float64
	allocBytes float64
	windowSum  float64
	windowN    float64
	sb, ic     [2]uint64 // hits, misses
}

// simLedger measures each layer's unit cost on the point's boot image and
// checks it against the coupled run's counts:
//
//	core.unattributed_share = 1 − Σ(layer unit cost × coupled count) / coupled wall
//
// A share above 0.2 means a layer the ledger does not list holds the time.
func simLedger(rep *report, tr *tracer, workloadName string, p sim.Params, check func(sim.Result, sim.Engine)) error {
	spec, ok := workload.ByName(workloadName)
	if !ok {
		return fmt.Errorf("unknown workload %s", workloadName)
	}

	// Set-up: the workload build alone, and sim.New (which builds the
	// workload again and assembles the simulator).
	var builds, news []float64
	for i := 0; i < setupSamples; i++ {
		settle()
		var err error
		d := tr.timed("workload.Build", 0, ledgerRun, func() { _, err = spec.Build() })
		if err != nil {
			return err
		}
		builds = append(builds, d.Seconds()*1e3)
		settle()
		d = tr.timed("sim.New", 0, ledgerRun, func() { _, err = sim.New("fast", p) })
		if err != nil {
			return err
		}
		news = append(news, d.Seconds()*1e3)
	}
	rep.set("workload.build_ms", median(builds), "ms")
	rep.set("sim.configure_ms", median(news)-median(builds), "ms")

	// The coupled run as end-to-end runs see it: no telemetry, no spans
	// inside. Its counts weight the ledger; its GC share is reported.
	e, err := sim.New("fast", p)
	if err != nil {
		return err
	}
	settle()
	before := readRuntime()
	var r sim.Result
	wall := tr.timed("Engine.Run", 0, ledgerRun, func() { r, err = e.Run() })
	settle()
	after := readRuntime()
	rep.Attempted++
	if err != nil {
		rep.fail("run: %v", err)
		return nil
	}
	check(r, e)
	counts := countsOf(e)
	rep.set("runtime.gc_cpu_share", after.sub(before).gcShare(), "fraction")
	untracedKIPS := float64(r.Instructions) / wall.Seconds() / 1e3

	// The traced coupled run: the same simulation built from core with
	// the program's telemetry attached and a sampler reading trace-buffer
	// occupancy. Its commit-weighted occupancy and its mean published
	// chunk (entries the pump produced per TM cycle that produced any) pace
	// the FM pass, so that the pass's journal records and commit window
	// look like the coupled run's.
	pace, tracedWall, err := tracedCoupledRun(rep, tr, spec, p, r)
	if err != nil {
		return err
	}
	rep.set("tracing.host_kips_untraced", untracedKIPS, "kips")
	rep.set("tracing.host_kips_traced", float64(r.Instructions)/tracedWall.Seconds()/1e3, "kips")
	rep.set("core.tb_occupancy_mean", pace.occupancy, "entries")

	if counts.Rollbacks > 0 {
		pace.dist = (counts.RolledBack + counts.Rollbacks/2) / counts.Rollbacks
		pace.interval = r.Instructions / counts.Rollbacks
	}
	fp, err := runFMPass(tr, spec, p, r.Instructions, pace)
	if err != nil {
		return err
	}
	nsPerInst := fp.stepNs / float64(fp.stepped)
	commitNs := fp.commitNs / float64(fp.commits)
	rollbackNs := 0.0
	if fp.rollbacks > 0 {
		rollbackNs = fp.rollbackNs / float64(fp.rollbacks)
	}
	rep.set("fm.ns_per_inst", nsPerInst, "ns")
	rep.set("fm.alloc_bytes_per_inst", fp.allocBytes/float64(fp.stepped), "B")
	rep.set("fm.commit_ns", commitNs, "ns")
	rep.set("fm.rollback_ns", rollbackNs, "ns")
	rep.set("fm.superblock_hit_ratio", ratio(fp.sb[0], fp.sb[1]), "fraction")
	rep.set("fm.icache_hit_ratio", ratio(fp.ic[0], fp.ic[1]), "fraction")
	rep.set("fm.journal_window", fp.windowSum/fp.windowN, "entries")

	traceNs := tracePass(tr, fp.entries)
	rep.set("trace.ns_per_entry", traceNs, "ns")

	tmNs, tmAlloc, err := tmReplay(tr, fp.entries)
	if err != nil {
		return err
	}
	rep.set("tm.ns_per_cycle", tmNs, "ns")
	rep.set("tm.alloc_bytes_per_cycle", tmAlloc, "B")

	// Every instruction the FM produced in the coupled run is either
	// committed or rolled back; each one crossed the trace buffer.
	produced := float64(r.Instructions + counts.RolledBack)
	predicted := nsPerInst*produced +
		commitNs*float64(r.Instructions) +
		rollbackNs*float64(counts.Rollbacks) +
		traceNs*produced +
		tmNs*float64(r.TargetCycles)
	rep.set("core.unattributed_share", 1-predicted/float64(wall.Nanoseconds()), "fraction")
	return nil
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// pacing is what the FM pass copies from the traced coupled run.
type pacing struct {
	occupancy float64 // commit-weighted mean trace-buffer occupancy
	chunk     float64 // mean entries per published trace chunk
	dist      uint64  // mean instructions undone per rollback
	interval  uint64  // committed instructions per rollback
}

// tracedCoupledRun runs the point through core directly with telemetry
// on. A second goroutine samples the trace buffer every 100µs
// (Buffer.Occupancy and Committed take the buffer's lock) and weights
// each occupancy sample by the commits since the previous one, so the
// mean is the window a Commit sees rather than a time average (which
// would over-weight the slow, full-window stretches). The mean published
// chunk comes from the core_trace_chunk_entries histogram. It returns
// both and the run's wall time, and checks the modeled counts against
// the untraced run.
func tracedCoupledRun(rep *report, tr *tracer, spec workload.Spec, p sim.Params, want sim.Result) (pacing, time.Duration, error) {
	var (
		s   *core.Sim
		err error
	)
	tel := obs.New()
	tr.timed("core.New", 0, ledgerRun, func() {
		var boot *workload.Boot
		if boot, err = spec.Build(); err != nil {
			return
		}
		cfg := core.DefaultConfig()
		cfg.FM.Devices = boot.Devices()
		cfg.FM.ICacheEntries, cfg.FM.SuperblockLen = p.ICacheEntries, p.SuperblockLen
		cfg.MaxInstructions = p.MaxInstructions
		cfg.Telemetry = tel
		if s, err = core.New(cfg); err == nil {
			s.LoadProgram(boot.Kernel)
		}
	})
	if err != nil {
		return pacing{}, 0, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var occSum, weight float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		var last uint64
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				occ := s.TB.Occupancy()
				c := s.TB.Committed()
				occSum += float64(occ) * float64(c-last)
				weight += float64(c - last)
				last = c
			}
		}
	}()
	settle()
	var r core.Result
	wall := tr.timed("core.Sim.Run", 0, ledgerRun, func() { r, err = s.Run() })
	close(stop)
	wg.Wait()
	rep.Attempted++
	if err != nil {
		return pacing{}, 0, fmt.Errorf("traced run: %w", err)
	}
	if r.Instructions != want.Instructions || r.TargetCycles != want.TargetCycles ||
		r.Rollbacks != want.Rollbacks || r.WrongPath != want.WrongPath {
		rep.fail("traced run moved a modeled count: %s vs %s", r, want)
	}
	chunks := tel.Histogram(obs.L("core_trace_chunk_entries", "coupling", "serial"), obs.ChunkBuckets)
	if weight == 0 || chunks.Count() == 0 {
		return pacing{}, 0, fmt.Errorf("traced run too short to sample occupancy")
	}
	return pacing{occupancy: occSum / weight, chunk: chunks.Sum() / float64(chunks.Count())}, wall, nil
}

// runFMPass runs the functional model alone over the workload's boot
// image for n instructions, paced the way the coupled pump drives it:
// once lag (the coupled run's commit-weighted occupancy) instructions are
// uncommitted, each step commits about one coupled chunk of instructions,
// one Commit per instruction as the TM retires them, and StepBlock then
// refills the window (its sink stops the block at lag). So journal
// records are as long, and the window holds as many of them, as in the
// coupled run. Every interval instructions a SetPC goes back dist
// instructions and the undone path re-executes. Every call is timed: a
// few instructions (fork's string copies) cost thousands of times the
// median, so sampling a subset of calls would miss them. The clock's own
// cost, calibrated first, is subtracted from each timed interval.
func runFMPass(tr *tracer, spec workload.Spec, p sim.Params, n uint64, pace pacing) (*fmPass, error) {
	overhead := clockOverhead()
	elapsed := func(start time.Time) float64 {
		return float64(time.Since(start).Nanoseconds()) - overhead
	}
	boot, err := spec.Build()
	if err != nil {
		return nil, err
	}
	m := fm.New(fm.Config{Devices: boot.Devices(), ICacheEntries: p.ICacheEntries, SuperblockLen: p.SuperblockLen})
	m.LoadProgram(boot.Kernel)
	fp := &fmPass{entries: make([]trace.Entry, 0, n+4096)}
	lag := uint64(math.Max(math.Round(pace.occupancy), math.Ceil(pace.chunk)))
	var committed uint64
	sink := func(e trace.Entry) bool {
		fp.entries = append(fp.entries, e)
		return uint64(len(fp.entries))-committed < lag
	}
	dist := min(pace.dist, lag-1)
	nextRollback := pace.interval
	var owed float64 // commits due, carried between steps

	settle()
	before := readRuntime()
	span := tr.begin("fm.pass", 0, ledgerRun)
	for m.IN() < n {
		if m.Fatal() != nil {
			return nil, fmt.Errorf("fm pass: %v", m.Fatal())
		}
		if m.Halted() {
			if m.Flags&isa.FlagI == 0 {
				break // shut down
			}
			m.AdvanceIdle(1)
			continue
		}
		if m.IN()-committed >= lag {
			owed += pace.chunk
			k := min(uint64(owed), m.IN()-committed)
			owed -= float64(k)
			start := time.Now()
			for end := committed + k; committed < end; committed++ {
				m.Commit(committed)
			}
			fp.commitNs += elapsed(start)
			fp.commits += k
			fp.windowSum += float64(m.JournalLen())
			fp.windowN++
		}
		start := time.Now()
		k := m.StepBlock(sink)
		fp.stepNs += elapsed(start)
		fp.stepped += uint64(k)
		if k == 0 && !m.Halted() {
			return nil, fmt.Errorf("fm pass stalled at IN %d", m.IN())
		}
		if pace.interval > 0 && dist > 0 && m.IN() >= nextRollback && m.IN()-committed > dist {
			to := m.IN() - dist
			pc := fp.entries[to].PC
			start := time.Now()
			if err := m.SetPC(to, pc); err != nil {
				return nil, fmt.Errorf("fm pass rollback: %v", err)
			}
			fp.rollbackNs += elapsed(start)
			fp.rollbacks++
			fp.entries = fp.entries[:to]
			nextRollback += pace.interval
		}
	}
	tr.end(span)
	after := readRuntime()
	fp.allocBytes = after.sub(before).allocBytes
	fp.sb[0], fp.sb[1], _, _ = m.SuperblockStats()
	fp.ic[0], fp.ic[1], _, _ = m.ICacheStats()
	for i, e := range fp.entries {
		if e.IN != uint64(i) {
			return nil, fmt.Errorf("fm pass: entry %d carries IN %d", i, e.IN)
		}
	}
	if fp.commits == 0 || fp.stepped == 0 {
		return nil, fmt.Errorf("fm pass committed or stepped nothing")
	}
	return fp, nil
}

// clockOverhead is the median time an empty interval measures with
// time.Now and time.Since: the cost every timed call carries on top of
// its own.
func clockOverhead() float64 {
	xs := make([]float64, 1001)
	for i := range xs {
		start := time.Now()
		xs[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(xs)
}

// tracePass pushes the recorded entries through a trace buffer of the
// coupled simulator's capacity: Appender.TryAppend/Flush on the producer
// side, Buffer.TryFetchChunk/Commit on the consumer side. It repeats the
// pass until 200ms have been measured and returns ns per entry.
func tracePass(tr *tracer, entries []trace.Entry) float64 {
	var total time.Duration
	var moved int
	for total < 200*time.Millisecond {
		b := trace.NewBuffer(core.DefaultConfig().TBCapacity)
		a := b.NewAppender(0)
		dst := make([]trace.Entry, a.ChunkSize())
		var fetch uint64
		drain := func() {
			for {
				k := b.TryFetchChunk(fetch, dst)
				if k == 0 {
					return
				}
				fetch += uint64(k)
				b.Commit(fetch - 1)
			}
		}
		total += tr.timed("trace.pass", 0, ledgerRun, func() {
			for _, e := range entries {
				for !a.TryAppend(e) {
					a.Flush()
					drain()
				}
			}
			a.Flush()
			drain()
		})
		moved += len(entries)
	}
	return float64(total.Nanoseconds()) / float64(moved)
}

// tmReplay replays the recorded right path through the timing model
// (tm.New + tm.SliceSource + TM.Step) and returns ns and heap bytes per
// target cycle.
func tmReplay(tr *tracer, entries []trace.Entry) (float64, float64, error) {
	model, err := tm.New(tm.DefaultConfig(), &tm.SliceSource{Entries: entries}, nil)
	if err != nil {
		return 0, 0, err
	}
	settle()
	before := readRuntime()
	var cycles uint64
	d := tr.timed("tm.replay", 0, ledgerRun, func() {
		for !model.Done() {
			model.Step()
			cycles++
		}
	})
	after := readRuntime()
	if cycles == 0 {
		return 0, 0, fmt.Errorf("tm replay ran no cycles")
	}
	return float64(d.Nanoseconds()) / float64(cycles), after.sub(before).allocBytes / float64(cycles), nil
}

// snapProbe times a snapshot capture and restore of the ledger point's
// boot (core.Sim.Restore and core.Sim.Snapshot, the calls the warm-start
// tier makes) and checks that a restored simulator re-captures the
// identical blob.
func snapProbe(rep *report, tr *tracer) error {
	p := ledgerPoint.params()
	store := newSnapStore()
	p.Snapshots = store
	if _, err := sim.Run("fast", p); err != nil {
		return err
	}
	snap, ok := store.GetSnapshot(p.SnapshotPrefix())
	if !ok {
		return fmt.Errorf("ledger point captured no snapshot")
	}
	spec, _ := workload.ByName(serviceWorkload)
	var captures, restores []float64
	for i := 0; i < setupSamples; i++ {
		boot, err := spec.Build()
		if err != nil {
			return err
		}
		cfg := core.DefaultConfig()
		cfg.FM.Devices = boot.Devices()
		s, err := core.New(cfg)
		if err != nil {
			return err
		}
		s.LoadProgram(boot.Kernel)
		run := fmt.Sprintf("snap-%d", i)
		d := tr.timed("core.Sim.Restore", 0, run, func() { err = s.Restore(snap.Blob) })
		rep.Attempted++
		if err != nil {
			rep.fail("restore: %v", err)
			continue
		}
		restores = append(restores, d.Seconds()*1e3)
		var blob []byte
		d = tr.timed("core.Sim.Snapshot", 0, run, func() { blob, err = s.Snapshot() })
		if err != nil || !bytes.Equal(blob, snap.Blob) {
			rep.fail("re-capture after restore differs (err %v)", err)
			continue
		}
		captures = append(captures, d.Seconds()*1e3)
	}
	if len(captures) == 0 {
		return fmt.Errorf("no snapshot round trip succeeded")
	}
	rep.set("snap.capture_ms", median(captures), "ms")
	rep.set("snap.restore_ms", median(restores), "ms")
	rep.set("snap.bytes", float64(len(snap.Blob)), "bytes")
	return nil
}

// serviceRefCheck checks a ledger run of a service point against the
// point's recorded digest.
func serviceRefCheck(rep *report, ref *reference, pt point) func(sim.Result, sim.Engine) {
	return func(r sim.Result, _ sim.Engine) {
		raw, err := json.Marshal(r)
		if err != nil || digest(raw) != ref.Service[pt.key()] {
			rep.fail("ledger run of %s differs from reference", pt.key())
		}
	}
}
