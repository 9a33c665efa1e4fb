package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"plurality"
)

// smokeEnv is an env whose measuring time ends at once, so each workload
// runs its minimum: one operation (two when traced).
func smokeEnv(t *testing.T, trace bool) *env {
	e := &env{seed: 3, seconds: 1, trace: trace, workers: 2, scratch: t.TempDir()}
	if trace {
		e.tr = newTracer()
	}
	return e
}

func requireClean(t *testing.T, o *outcome, names []string) {
	t.Helper()
	if o.failed != 0 || o.attempted == 0 {
		t.Fatalf("%d of %d operations failed", o.failed, o.attempted)
	}
	if missing := missingMetrics(o.metrics, names); len(missing) > 0 {
		t.Fatalf("metrics not measured: %v", missing)
	}
}

func TestSmokeRunWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		protocol string
		n        int
	}{{"leader", 2000}, {"decentralized", 2000}} {
		o := runRepeated(ctx, smokeEnv(t, false), c.protocol, asyncSpec(c.n, 4, 5))
		requireClean(t, o, e2eNames)
		e := smokeEnv(t, true)
		o = runRepeated(ctx, e, c.protocol, asyncSpec(c.n, 4, 5))
		traceMetrics(e.tr.snapshot(), o)
		requireClean(t, o, []string{"trace.overhead_frac", "trace.setup_share", "trace.setup_self_s", "trace.unit_self_s"})
	}
}

func TestSmokeSweepWorkload(t *testing.T) {
	ctx := context.Background()
	cfgs := sweepGrid(3, []int{900, 1600}, 2)
	requireClean(t, runSweeps(ctx, smokeEnv(t, false), cfgs), e2eNames)
	e := smokeEnv(t, true)
	o := runSweeps(ctx, e, cfgs)
	traceMetrics(e.tr.snapshot(), o)
	requireClean(t, o, []string{"trace.overhead_frac", "trace.setup_share"})
}

func TestSmokeServedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pluralityd")
	}
	bin := filepath.Join(t.TempDir(), "pluralityd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/pluralityd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pluralityd: %v\n%s", err, out)
	}
	sides := map[string]int{"leader": 20, "decentralized": 20, "sync": 24, "3-majority": 22}
	ctx := context.Background()
	e := smokeEnv(t, false)
	e.daemon = bin
	requireClean(t, runServed(ctx, e, servedSpecs(3, sides)), e2eNames)
	e = smokeEnv(t, true)
	e.daemon = bin
	o := runServed(ctx, e, servedSpecs(3, sides))
	requireClean(t, o, []string{"trace.overhead_frac", "server.jobs_computed", "server.cache_hit_ratio"})
	if got := o.metrics["server.jobs_computed"].Value; got != 12 {
		t.Fatalf("daemon computed %v jobs, want one per distinct spec (12)", got)
	}
	if got := o.metrics["server.jobs_cached"].Value; got != tracedWarmBlocks*tracedWarmBlock {
		t.Fatalf("daemon served %v jobs from cache, want %d", got, tracedWarmBlocks*tracedWarmBlock)
	}
}

func TestServedSpecsDistinctAndSeeded(t *testing.T) {
	a, b := servedSpecs(1, servedSides), servedSpecs(1, servedSides)
	if len(a) != 12 {
		t.Fatalf("%d specs, want 12", len(a))
	}
	keys := map[string]bool{}
	for i := range a {
		if a[i].Spec.Seed != b[i].Spec.Seed || a[i].Spec.N != b[i].Spec.N {
			t.Fatal("same seed generated different specs")
		}
		if n := a[i].Spec.N; n < 10_000 || n > 50_000 {
			t.Errorf("spec %d: N=%d outside 10⁴–5·10⁴", i, n)
		}
		cb, err := a[i].Spec.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		keys[a[i].Protocol+string(cb)] = true
	}
	if len(keys) != len(a) {
		t.Fatalf("only %d distinct specs of %d", len(keys), len(a))
	}
	if c := servedSpecs(2, servedSides); c[0].Spec.Seed == a[0].Spec.Seed {
		t.Fatal("another seed generated the same spec seed")
	}
}

func TestChecksRejectBadOutputs(t *testing.T) {
	spec := asyncSpec(1000, 4, 9)
	res, err := plurality.Run(context.Background(), "leader", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(res, spec, true); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	d := digest(res)
	res.FinalCounts[0]++
	if checkResult(res, spec, true) == nil {
		t.Fatal("final counts not summing to N accepted")
	}
	if digest(res) == d {
		t.Fatal("digest ignores final counts")
	}
	cfg := sweepGrid(1, []int{900}, 1)[0]
	if checkCells(nil, cfg) == nil {
		t.Fatal("a sweep with no cells accepted")
	}
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's workload and metric
// names to the ones this program runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sortedCopy := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(bj.Workloads), workloadNames()},
		{"end_to_end", names(bj.EndToEnd), sortedCopy(e2eNames)},
		{"per_layer", names(bj.PerLayer), sortedCopy(layerNames)},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %v, code has %v", c.what, c.got, c.want)
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s: BENCHMARK.json has %v, code has %v", c.what, c.got, c.want)
				break
			}
		}
	}
}
