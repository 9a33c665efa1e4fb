// Command perfbench is the repository's benchmark. It generates one
// workload's inputs from a seed, drives them through the public surfaces —
// plurality.Run, plurality.Sweep and pluralityd's HTTP API — checks every
// output, and prints the metrics by name with their units. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {"run_s": {"value": 3.61, "unit": "s"}, ...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics, span self times and the tracing
// overhead, and write their spans to -out. See README.md for definitions.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload leader-1m --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"plurality"
)

// e2eNames are the end-to-end metrics every untraced run reports in its
// result. peak_mem_mb is measured too but only printed: one decentralized
// Run's high-water RSS ranged from 64 to 93 MB between runs of the same
// seeds, with GC timing, which is too wide for a bound.
var e2eNames = []string{"setup_s", "run_s", "events_per_s", "jobs_per_s"}

// layerNames are the per-layer metrics every traced run reports.
var layerNames = []string{
	"sim.ladder_ns_per_event", "sim.ladder_ns_per_event_10k", "sim.clocks_ns_per_tick",
	"xrand.exp_ns", "xrand.fill_int32n_ns",
	"topo.sample_ns.complete", "topo.sample_ns.torus", "topo.sample_ns.random-regular",
	"topo.build_s.random-regular",
	"opinion.planted_bias_s",
	"cluster.form_s",
	"syncgen.node_updates_per_s.complete", "syncgen.node_updates_per_s.torus",
	"syncgen.node_updates_per_s.random-regular", "baseline.node_updates_per_s.3-majority",
	"plurality.canonical_key_ns", "plurality.snapshot_encode_mb_per_s",
	"plurality.snapshot_decode_mb_per_s", "plurality.resume_ms",
	"server.cache_get_ns", "server.cache_put_ms", "server.store_snapshot_ms",
	"server.jobs_computed", "server.jobs_cached", "server.segments_run", "server.cache_hit_ratio",
	"harness.pool_job_overhead_us",
	"trace.overhead_frac", "trace.setup_share", "trace.setup_self_s", "trace.kernel_self_s", "trace.unit_self_s",
}

// env is what a workload runs with.
type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	tr      *tracer // nil unless tracing
	workers int     // reference runs and pool probe workers: the CPU count
	daemon  string  // pluralityd binary
	scratch string  // per-run directory for daemon stores and probe files
}

type workloadFunc func(ctx context.Context, e *env) *outcome

// workloads maps each workload name to its driver. Every workload runs the
// serial kernel (no Spec.Shards) through the registry entry point.
var workloads = map[string]workloadFunc{
	"leader-1m": runWorkload("leader", func(seed uint64) plurality.Spec {
		return asyncSpec(1_000_000, 4, derive(seed, "leader-1m"))
	}),
	// A 12-unit horizon keeps formation most of the run while giving the
	// consensus phase, which events_per_s measures, a few seconds.
	"decentralized-200k": runWorkload("decentralized", func(seed uint64) plurality.Spec {
		return asyncSpec(200_000, 12, derive(seed, "decentralized-200k"))
	}),
	"sweep-grid":  sweepWorkload([]int{100_000, 1_000_000}),
	"served-runs": servedWorkload(servedSides),
}

// asyncSpec is the shared shape of the two single-run workloads: K=4,
// α=2, complete graph, Exp(1) latency, a fixed horizon and one trajectory
// point per virtual-time unit.
func asyncSpec(n int, horizon float64, seed uint64) plurality.Spec {
	return plurality.Spec{N: n, K: 4, Alpha: 2, Seed: seed, MaxTime: horizon, RecordEvery: 1}
}

// derive mixes the workload seed with a label into an input seed.
func derive(seed uint64, label string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return h.Sum64()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome accumulates one run's operations, failures and metrics.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("metric %s = %.6g %s\n", name, v, unit)
}

// op counts one attempted operation, failed when err is non-nil.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Printf("# FAIL: %v\n", err)
	}
}

// setPeakMem reports a high-water resident set size read by peakMB as
// peak_mem_mb, or counts the failure to read it.
func (o *outcome) setPeakMem(mb float64, err error) {
	if err != nil {
		o.op(fmt.Errorf("reading peak memory: %w", err))
		return
	}
	o.set("peak_mem_mb", mb, "MB")
}

// traceOverhead reports the traced/untraced ratio of the same operation,
// measured on interleaved repeats of one run.
func (o *outcome) traceOverhead(traced, untraced float64) {
	fmt.Printf("# tracing overhead: traced %.6g vs untraced %.6g (medians)\n", traced, untraced)
	o.set("trace.overhead_frac", traced/untraced-1, "frac")
}

func main() { os.Exit(benchmark()) }

// benchmark runs the selected workload and returns the exit code: 0 when
// every operation and check passed, 1 otherwise, 2 for bad flags.
func benchmark() int {
	var (
		workload = flag.String("workload", "", "workload name: leader-1m, decentralized-200k, sweep-grid or served-runs")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 15, "measuring time per run")
		trace    = flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
		daemon   = flag.String("daemon", "", "pluralityd binary (served-runs)")
		out      = flag.String("out", ".bench_build/traces", "directory the traced run writes its spans to")
		headline = flag.Bool("headline", false, "re-measure the headline rows of the earlier BENCH files and exit")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *headline {
		if err := headlineRows(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	run, ok := workloads[*workload]
	if !ok || *trace < 0 || *trace > 1 || !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// Daemon stores and probe files live next to the trace directory, so
	// the run writes nothing outside the directory the caller chose.
	parent := filepath.Dir(filepath.Clean(*out))
	err := os.MkdirAll(parent, 0o755)
	var scratch string
	if err == nil {
		scratch, err = os.MkdirTemp(parent, "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		workers: runtime.NumCPU(), daemon: *daemon, scratch: scratch}
	if e.trace {
		e.tr = newTracer()
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	o := run(ctx, e)
	want := e2eNames
	if e.trace {
		runLayers(ctx, e, o)
		traceMetrics(e.tr.snapshot(), o)
		path := filepath.Join(*out, fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := e.tr.write(path); err != nil {
			o.op(fmt.Errorf("writing spans: %w", err))
		} else {
			fmt.Printf("# spans written to %s\n", path)
		}
		want = layerNames
	}
	if missing := missingMetrics(o.metrics, want); len(missing) > 0 {
		o.op(fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", ")))
	}
	fmt.Printf("# failed_frac = %d/%d\n", o.failed, o.attempted)
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, pick(o.metrics, want)}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if o.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// missingMetrics lists the names in want that m lacks or holds as a
// non-finite value.
func missingMetrics(m map[string]metric, want []string) []string {
	var out []string
	for _, n := range want {
		if v, ok := m[n]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out = append(out, n)
		}
	}
	return out
}

func pick(m map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		if v, ok := m[n]; ok {
			out[n] = v
		}
	}
	return out
}

// traceMetrics derives the span-based per-layer metrics: the share of Run
// time spent in set-up, the mean self time per Run of its setup, kernel
// (after the last trajectory point) and unit spans, and a self-time line
// per span name for the report.
func traceMetrics(spans []span, o *outcome) {
	self, count := selfByName(spans)
	var names []string
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# self time %-28s %10.4f s over %d spans\n", n, self[n].Seconds(), count[n])
	}
	var runTotal time.Duration
	for _, s := range spans {
		if s.Name == "Run" {
			runTotal += s.End - s.Start
		}
	}
	runs := float64(count["Run"])
	if runs == 0 {
		return
	}
	o.set("trace.setup_share", self["setup"].Seconds()/runTotal.Seconds(), "frac")
	o.set("trace.setup_self_s", self["setup"].Seconds()/runs, "s")
	o.set("trace.kernel_self_s", self["kernel"].Seconds()/runs, "s")
	o.set("trace.unit_self_s", self["unit"].Seconds()/runs, "s")
}
