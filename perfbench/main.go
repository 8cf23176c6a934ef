// Command perfbench is the repository benchmark: host speed of the FAST
// simulator on three simulation workloads and submit→result latency of
// the fastd job service on a fourth, each checked against recorded
// reference results.
//
// Usage (from the repository root, normally through perfbench/run.py):
//
//	perfbench --workload boot|mcf|fork|service --seed N --seconds S --trace 0|1
//	perfbench --record   # rewrite perfbench/reference.json at this commit
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the per-layer ledger instead, with spans around every call into a layer,
// and writes the spans to <work-dir>/spans/. The last line of standard
// output is always one JSON object: {"correct", "attempted", "failed",
// "metrics"}. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workDir holds every file a run writes: the service's disk cache and the
// traced run's spans.
var workDir = ".bench_build"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	mu       sync.Mutex // held by concurrent service clients around Attempted and fail
	problems []string
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// fail records one failed operation (an error, a refusal, or a modeled
// result or count that differs from the reference).
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	workloadName := flag.String("workload", "", "boot, mcf, fork or service")
	seed := flag.Int64("seed", 1, "picks the service mix's points and order (the simulation workloads are seed-independent)")
	seconds := flag.Float64("seconds", 10, "measurement time of the timed loop")
	traceFlag := flag.Int("trace", 0, "1 = run the traced per-layer ledger instead of the end-to-end loop")
	record := flag.Bool("record", false, "rewrite the reference results (reference.json) and exit")
	flag.StringVar(&workDir, "work-dir", workDir, "directory for the service's disk cache and the spans (run.py passes its build directory)")
	flag.Parse()

	if *record {
		if err := recordReference(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	rep := newReport()
	tr := newTracer(*traceFlag == 1)
	var runErr error
	switch {
	case *workloadName == "service" && tr.on:
		runErr = serviceLayers(rep, tr, ref, *seed, budget)
	case *workloadName == "service":
		runErr = serviceEndToEnd(rep, ref, *seed, budget)
	case simWorkloads[*workloadName].workload != "" && tr.on:
		runErr = simLayers(rep, tr, ref, *workloadName, *seed)
	case simWorkloads[*workloadName].workload != "":
		runErr = simEndToEnd(rep, ref, *workloadName, budget)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want boot, mcf, fork or service)\n", *workloadName)
		os.Exit(2)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		os.Exit(1)
	}
	if tr.on {
		path := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.json", *workloadName, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", tr.len(), path)
	}
	if rep.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed")
		os.Exit(1)
	}
	if *traceFlag == 1 {
		rep.set("failed_frac", float64(rep.Failed)/float64(rep.Attempted), "fraction")
	}
	rep.Correct = rep.Failed == 0
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload=%s seed=%d trace=%d attempted=%d failed=%d failed_frac=%.4f\n",
		*workloadName, *seed, *traceFlag, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted))
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// quantile is the linear-interpolation quantile of xs (0 ≤ q ≤ 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// runtimeCounters reads the process-wide allocation and CPU counters the
// benchmark attributes to a measured interval.
type runtimeCounters struct {
	allocBytes float64 // /gc/heap/allocs:bytes
	gcCPU      float64 // /cpu/classes/gc/total:cpu-seconds
	totalCPU   float64 // /cpu/classes/total:cpu-seconds
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// gcShare is the GC share of the CPU time the runtime accounted over an
// interval. The runtime refreshes its CPU classes at GC cycles, so a
// runtime.GC before each read makes the interval exact.
func (a runtimeCounters) gcShare() float64 {
	if a.totalCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.totalCPU
}

// peakRSSMiB is the process's maximum resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}

// settle collects garbage so one measured interval does not pay for the
// previous one's heap.
func settle() { runtime.GC() }
