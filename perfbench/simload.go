package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/fm"
	"repro/internal/sim"
)

// simWorkload is one coupled-simulation workload on the deterministic
// fast engine with the default predecode cache and superblocks. Each
// stresses a different layer; README.md says why each exists. They do
// not depend on the seed.
type simWorkload struct {
	workload string
	cap      uint64 // committed-instruction cap (0 = run to completion)
}

var simWorkloads = map[string]simWorkload{
	// Boot to completion: superblocks, devices, interrupts and SetPC
	// rollbacks (59k of them, 65% of produced instructions wrong-path).
	"boot": {"Linux-2.4", 0},
	// The FM runs a full trace buffer ahead and rarely rolls back, so
	// journal commits and TM cycles dominate.
	"mcf": {"181.mcf", 300_000},
	// The first fork copies the parent image with byte-wise string
	// stores (instructions 8100..8200 are 1.8M target cycles), which the
	// journal records one byte at a time: the allocation-heavy case.
	"fork": {"shell-fork", 8_200},
}

func (w simWorkload) params() sim.Params {
	return sim.Params{
		Workload:        w.workload,
		MaxInstructions: w.cap,
		ICacheEntries:   fm.DefaultICacheEntries,
		SuperblockLen:   fm.DefaultSuperblockLen,
	}
}

// setupSamples is how many extra set-ups a run times before its loop, so
// that setup_s is a median even when the loop itself is short.
const setupSamples = 15

// fmCounts are the functional model's deterministic counters that the
// Result does not carry.
type fmCounts struct {
	SuperblockHits   uint64 `json:"superblock_hits"`
	SuperblockMisses uint64 `json:"superblock_misses"`
	ICacheHits       uint64 `json:"icache_hits"`
	ICacheMisses     uint64 `json:"icache_misses"`
	Rollbacks        uint64 `json:"rollbacks"`
	RolledBack       uint64 `json:"rolled_back"`
}

func countsOf(e sim.Engine) fmCounts {
	m := e.(sim.Coupled).FunctionalModel()
	var c fmCounts
	c.SuperblockHits, c.SuperblockMisses, _, _ = m.SuperblockStats()
	c.ICacheHits, c.ICacheMisses, _, _ = m.ICacheStats()
	c.Rollbacks, c.RolledBack = m.Rollbacks, m.RolledBack
	return c
}

// checkSim compares one finished run with the reference: the Result JSON
// byte for byte, and the FM counts exactly.
func checkSim(rep *report, want simRef, r sim.Result, e sim.Engine) {
	raw, err := json.Marshal(r)
	if err != nil {
		rep.fail("encode result: %v", err)
		return
	}
	if string(raw) != want.Result {
		rep.fail("result differs from reference:\n got %s\nwant %s", raw, want.Result)
		return
	}
	if got := countsOf(e); got != want.Counts {
		rep.fail("FM counts moved: got %+v, want %+v", got, want.Counts)
	}
}

// simEndToEnd times Engine.Run of the workload's point until the budget is
// spent. Every run builds a fresh engine (an Engine runs once); the
// set-up is timed separately and the heap is collected before each run so
// that runs do not pay for each other's garbage.
func simEndToEnd(rep *report, ref *reference, name string, budget time.Duration) error {
	w := simWorkloads[name]
	want, ok := ref.Sim[name]
	if !ok {
		return fmt.Errorf("no reference for workload %s; run with --record", name)
	}
	p := w.params()
	var setups []float64
	newEngine := func() (sim.Engine, error) {
		settle()
		start := time.Now()
		e, err := sim.New("fast", p)
		setups = append(setups, time.Since(start).Seconds())
		return e, err
	}
	for i := 0; i < setupSamples; i++ {
		if _, err := newEngine(); err != nil {
			return err
		}
	}

	var lat, allocs []float64
	var inst uint64
	var runSeconds float64
	loopStart := time.Now()
	for rep.Attempted == 0 || time.Since(loopStart) < budget {
		e, err := newEngine()
		rep.Attempted++
		if err != nil {
			rep.fail("sim.New: %v", err)
			continue
		}
		settle()
		before := readRuntime()
		start := time.Now()
		r, err := e.Run()
		d := time.Since(start)
		after := readRuntime()
		if err != nil {
			rep.fail("run: %v", err)
			continue
		}
		checkSim(rep, want, r, e)
		lat = append(lat, d.Seconds()*1e3)
		allocs = append(allocs, after.sub(before).allocBytes)
		inst += r.Instructions
		runSeconds += d.Seconds()
	}
	makespan := time.Since(loopStart).Seconds()
	if len(lat) == 0 {
		return fmt.Errorf("no run of %s completed", name)
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	rep.set("host_kips", float64(inst)/runSeconds/1e3, "kips")
	rep.set("setup_s", median(setups), "s")
	rep.set("alloc_mib", median(allocs)/(1<<20), "MiB")
	rep.set("peak_rss_mib", rss, "MiB")
	rep.set("jobs_per_s", float64(len(lat))/makespan, "1/s")
	// Nothing caches a simulation run outside the service: a repeated
	// point costs a whole Engine.Run, so hit and miss latency are the same
	// run-latency distribution here.
	for _, class := range []string{"hit", "miss"} {
		rep.set(class+"_p50_ms", quantile(lat, 0.5), "ms")
		rep.set(class+"_p90_ms", quantile(lat, 0.9), "ms")
	}
	return nil
}
