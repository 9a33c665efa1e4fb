package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"plurality"
)

// runSample is one timed plurality.Run: the wall time of the call and the
// offsets, from the call, at which each trajectory point was observed. The
// first stamp is the end of set-up (the t=0 point).
type runSample struct {
	res    *plurality.Result
	wall   time.Duration
	stamps []time.Duration
}

func (s runSample) setup() time.Duration { return s.stamps[0] }

// timedRun runs one protocol with an Observer that only records the time
// of each trajectory point. The same observer is attached whether or not
// the run is traced; with a tracer the run becomes a Run span whose
// children are setup (up to the first point) and kernel, and kernel has
// one child per recorded interval (one virtual-time unit or round).
func timedRun(ctx context.Context, tr *tracer, parent int, protocol string, spec plurality.Spec) (runSample, error) {
	var stamps []time.Duration
	start := time.Now()
	spec.Observer = plurality.ObserverFunc(func(plurality.TrajectoryPoint) {
		stamps = append(stamps, time.Since(start))
	})
	t0 := tr.now()
	res, err := plurality.Run(ctx, protocol, spec)
	wall := time.Since(start)
	if err != nil {
		return runSample{}, fmt.Errorf("%s run: %w", protocol, err)
	}
	if len(stamps) == 0 {
		return runSample{}, fmt.Errorf("%s run: observer saw no trajectory point", protocol)
	}
	if tr != nil {
		run := tr.add("Run", "", parent, t0, t0+wall)
		tr.add("setup", "", run, t0, t0+stamps[0])
		kernel := tr.add("kernel", "", run, t0+stamps[0], t0+wall)
		for i := 1; i < len(stamps); i++ {
			tr.add("unit", "", kernel, t0+stamps[i-1], t0+stamps[i])
		}
	}
	return runSample{res: res, wall: wall, stamps: stamps}, nil
}

// runWorkload is a workload made of repeated identical plurality.Run calls.
func runWorkload(protocol string, spec func(uint64) plurality.Spec) workloadFunc {
	return func(ctx context.Context, e *env) *outcome {
		return runRepeated(ctx, e, protocol, spec(e.seed))
	}
}

// runRepeated runs spec over and over for the measuring time. Every
// repeat must reproduce the first one's Result bit-exactly. Traced runs
// alternate untraced and traced repeats, so the tracing overhead is
// measured on interleaved pairs.
func runRepeated(ctx context.Context, e *env, protocol string, spec plurality.Spec) *outcome {
	o := newOutcome()
	var want string
	var setups, walls, rates []float64
	var tracedWalls []float64
	var peak float64
	var peakErr error
	var last runSample
	deadline := time.Now().Add(e.seconds)
	for i := 0; ; i++ {
		traced := e.trace && i%2 == 1
		var tr *tracer
		if traced {
			tr = e.tr
		}
		// Start every repeat from a heap handed back to the OS, as a fresh
		// process would, so run time does not depend on how many repeats
		// came before.
		debug.FreeOSMemory()
		s, err := timedRun(ctx, tr, -1, protocol, spec)
		if err == nil {
			err = checkResult(s.res, spec, true)
		}
		if err == nil {
			d := digest(s.res)
			if want == "" {
				want = d
			} else if d != want {
				err = fmt.Errorf("repeat %d: Result digest %s differs from first repeat's %s", i, d[:12], want[:12])
			}
		}
		o.op(err)
		if err == nil {
			last = s
			if traced {
				tracedWalls = append(tracedWalls, s.wall.Seconds())
			} else {
				setups = append(setups, s.setup().Seconds())
				walls = append(walls, s.wall.Seconds())
				rates = append(rates, s.res.Stats["events"]/(s.wall-s.setup()).Seconds())
				if len(walls) == 1 {
					// High-water RSS after the first Run: the peak of one Run
					// in a fresh process. Later repeats reuse a heap whose
					// layout varies, which would add noise to it.
					peak, peakErr = peakMB(os.Getpid())
				}
			}
			fmt.Printf("# repeat %d traced=%t run_s=%.4f setup_s=%.4f events=%.0f\n",
				i, traced, s.wall.Seconds(), s.setup().Seconds(), s.res.Stats["events"])
		}
		if ctx.Err() != nil || (time.Now().After(deadline) && (!e.trace || i%2 == 1)) {
			break
		}
	}
	if len(walls) == 0 {
		return o
	}
	if e.trace {
		o.traceOverhead(median(tracedWalls), median(walls))
		return o
	}
	var total float64
	for _, w := range walls {
		total += w
	}
	o.set("setup_s", median(setups), "s")
	o.set("run_s", median(walls), "s")
	o.set("events_per_s", median(rates), "1/s")
	o.set("jobs_per_s", float64(len(walls))/total, "1/s")
	o.setPeakMem(peak, peakErr)
	fmt.Printf("# %s: %d runs, run_s %s, setup_s %s\n", protocol, len(walls), quart(walls), quart(setups))
	if protocol == "decentralized" && last.res != nil {
		// Formation and consensus are reported apart: Stats["events"]
		// counts only the consensus simulator's events, so dividing them
		// by a wall time that includes formation would understate the
		// kernel's throughput.
		fmt.Printf("# formation: setup_s=%.4f s (median, includes cluster.Form), clustering_time=%g (virtual time), share of run_s=%.3f\n",
			median(setups), last.res.Stats["clustering_time"], median(setups)/median(walls))
		fmt.Printf("# consensus: events=%.0f, events_per_s=%.0f 1/s over run_s-setup_s\n",
			last.res.Stats["events"], median(rates))
	}
	return o
}

// sweepGrid is the sweep-grid workload's pair of factor grids: sync, then
// 3-majority, each over ns × the three topologies.
func sweepGrid(seed uint64, ns []int, workers int) []plurality.SweepConfig {
	topos := []plurality.TopologySpec{
		{Kind: plurality.TopologyComplete},
		{Kind: plurality.TopologyTorus},
		{Kind: plurality.TopologyRandomRegular},
	}
	var out []plurality.SweepConfig
	for _, proto := range []string{"sync", "3-majority"} {
		out = append(out, plurality.SweepConfig{
			Protocol:   proto,
			Base:       plurality.Spec{K: 4, Alpha: 2, Seed: derive(seed, proto), MaxSteps: sweepMaxSteps},
			Ns:         ns,
			Topologies: topos,
			Reps:       sweepReps,
			Workers:    workers,
		})
	}
	return out
}

const (
	sweepMaxSteps = 10
	sweepReps     = 2
	// sweepWorkers is the sweep's worker pool size. One worker leaves the
	// second of the host's two CPUs to the garbage collector and the rest
	// of the machine: over eight interleaved pairs of runs, events_per_s
	// and run_s spread 7% between runs on one worker and 14–16% on two.
	sweepWorkers = 1
)

// sweepSample is one timed plurality.Sweep call.
type sweepSample struct {
	cells []plurality.SweepCell
	wall  time.Duration
	setup time.Duration // call to the first t=0 trajectory point of any job
	jobs  int
	work  float64 // node updates: Σ rounds × N over every job
}

func timedSweep(ctx context.Context, cfg plurality.SweepConfig) (sweepSample, error) {
	var first atomic.Int64
	start := time.Now()
	cfg.Base.Observer = plurality.ObserverFunc(func(plurality.TrajectoryPoint) {
		first.CompareAndSwap(0, int64(time.Since(start)))
	})
	res, err := plurality.Sweep(ctx, cfg)
	wall := time.Since(start)
	if err != nil {
		return sweepSample{}, fmt.Errorf("%s sweep: %w", cfg.Protocol, err)
	}
	s := sweepSample{cells: res.Cells, wall: wall, setup: time.Duration(first.Load())}
	for _, c := range res.Cells {
		d := c.Metrics["duration"]
		s.jobs += d.N
		s.work += d.Mean * float64(d.N) * float64(c.N)
	}
	return s, nil
}

// checkCells verifies a sweep's shape: one cell per grid point, each with
// every replication aggregated.
func checkCells(cells []plurality.SweepCell, cfg plurality.SweepConfig) error {
	if want := len(cfg.Ns) * len(cfg.Topologies); len(cells) != want {
		return fmt.Errorf("%s sweep: %d cells, want %d", cfg.Protocol, len(cells), want)
	}
	for _, c := range cells {
		if d := c.Metrics["duration"]; d.N != cfg.Reps || !(d.Min > 0) || d.Max > float64(cfg.Base.MaxSteps) {
			return fmt.Errorf("%s sweep: cell n=%d %s: duration summary %+v", cfg.Protocol, c.N, c.Topology, d)
		}
	}
	return nil
}

// sweepWorkload runs the grid pair over ns repeatedly. Repeats must
// reproduce the first pair's cells exactly. A traced run cycles through
// three passes: a Sweep pair (the untraced end-to-end path), then the same
// plan executed job by job (SweepConfig.Plan / JobSpec) without and with
// spans, so each job gets its own Run span; the job-by-job passes must
// aggregate to the Sweep's cells. Tracing overhead compares the two
// job-by-job passes; the report also prints how the job-by-job path
// compares with Sweep.
func sweepWorkload(ns []int) workloadFunc {
	return func(ctx context.Context, e *env) *outcome {
		return runSweeps(ctx, e, sweepGrid(e.seed, ns, sweepWorkers))
	}
}

func runSweeps(ctx context.Context, e *env, cfgs []plurality.SweepConfig) *outcome {
	o := newOutcome()
	want := make([][]plurality.SweepCell, len(cfgs))
	// walls and kernels hold each protocol's Sweep wall and wall minus
	// set-up; work is each protocol's node updates, the same every repeat.
	var setups []float64
	walls := make([][]float64, len(cfgs))
	kernels := make([][]float64, len(cfgs))
	work := make([]float64, len(cfgs))
	var pairWalls [3][]float64
	var peak float64
	var peakErr error // Sweep, job by job, job by job traced
	var jobs int
	var wallTotal float64
	passes := 1
	if e.trace {
		passes = 3
	}
	deadline := time.Now().Add(e.seconds)
	for i := 0; ; i++ {
		pass := i % passes
		var pair time.Duration
		for ci, cfg := range cfgs {
			debug.FreeOSMemory() // as in runRepeated
			var cells []plurality.SweepCell
			var err error
			if pass > 0 {
				var tr *tracer
				if pass == 2 {
					tr = e.tr
				}
				var wall time.Duration
				cells, wall, err = planSweep(ctx, tr, cfg, cfg.Workers)
				pair += wall
			} else {
				var s sweepSample
				s, err = timedSweep(ctx, cfg)
				if err == nil {
					cells, pair = s.cells, pair+s.wall
					setups = append(setups, s.setup.Seconds())
					walls[ci] = append(walls[ci], s.wall.Seconds())
					kernels[ci] = append(kernels[ci], (s.wall - s.setup).Seconds())
					work[ci] = s.work
					jobs += s.jobs
					wallTotal += s.wall.Seconds()
					if len(setups) == 1 { // as in runRepeated
						peak, peakErr = peakMB(os.Getpid())
					}
					fmt.Printf("# sweep %s repeat %d: wall_s=%.4f setup_s=%.4f jobs=%d node_updates=%.0f\n",
						cfg.Protocol, i, s.wall.Seconds(), s.setup.Seconds(), s.jobs, s.work)
				}
			}
			if err == nil {
				err = checkCells(cells, cfg)
			}
			if err == nil {
				if want[ci] == nil {
					want[ci] = cells
				} else if !reflect.DeepEqual(cells, want[ci]) {
					err = fmt.Errorf("%s sweep repeat %d (pass %d): cells differ from the first repeat's", cfg.Protocol, i, pass)
				}
			}
			o.op(err)
		}
		pairWalls[pass] = append(pairWalls[pass], pair.Seconds())
		if ctx.Err() != nil || (time.Now().After(deadline) && pass == passes-1) {
			break
		}
	}
	if len(setups) == 0 {
		return o
	}
	if e.trace {
		sweep, plain, traced := median(pairWalls[0]), median(pairWalls[1]), median(pairWalls[2])
		fmt.Printf("# job-by-job path (plurality.Run per JobSpec) vs Sweep: %.4f s vs %.4f s per pair (%+.1f%%)\n",
			plain, sweep, 100*(plain/sweep-1))
		o.traceOverhead(traced, plain)
		return o
	}
	// One grid pass is a Sweep of each protocol. Its time is the sum of
	// the protocols' median Sweep walls, so the two protocols' unlike
	// walls never meet in one median.
	var pass, kernel, updates float64
	for ci := range cfgs {
		pass += median(walls[ci])
		kernel += median(kernels[ci])
		updates += work[ci]
		fmt.Printf("# sweep %s: %d sweeps, wall_s %s\n", cfgs[ci].Protocol, len(walls[ci]), quart(walls[ci]))
	}
	o.set("setup_s", median(setups), "s")
	o.set("run_s", pass, "s")
	o.set("events_per_s", updates/kernel, "1/s")
	o.set("jobs_per_s", float64(jobs)/wallTotal, "1/s")
	o.setPeakMem(peak, peakErr)
	fmt.Printf("# sweep-grid: cells_per_s=%.4f 1/s (sweep jobs = cell x rep), setup_s %s\n",
		float64(jobs)/wallTotal, quart(setups))
	return o
}

// planSweep executes cfg's plan on workers goroutines, one timedRun per
// job under a sweep span (with the plan's validation as its own child;
// spans only when tr is set), and aggregates each cell's replications the
// way Sweep does.
func planSweep(ctx context.Context, tr *tracer, cfg plurality.SweepConfig, workers int) ([]plurality.SweepCell, time.Duration, error) {
	start := time.Now()
	root := tr.begin("sweep", cfg.Protocol, -1)
	planSpan := tr.begin("plan", "", root)
	plan, err := cfg.Plan()
	if err != nil {
		return nil, 0, fmt.Errorf("%s plan: %w", cfg.Protocol, err)
	}
	tr.finish(planSpan)
	measurements := make([]map[string]float64, plan.Jobs())
	errs := make([]error, plan.Jobs())
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range next {
				spec := plan.JobSpec(job/plan.Reps, job%plan.Reps)
				s, err := timedRun(ctx, tr, root, plan.Protocol, spec)
				if err == nil {
					err = checkResult(s.res, spec, false)
				}
				if err != nil {
					errs[job] = err
					continue
				}
				measurements[job] = plurality.StandardMetrics(s.res)
			}
		}()
	}
	for job := range measurements {
		next <- job
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)
	tr.finish(root)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	cells := make([]plurality.SweepCell, len(plan.Cells))
	for ci, c := range plan.Cells {
		cells[ci] = plurality.SweepCell{N: c.N, K: c.K, Alpha: c.Alpha, Topology: c.Topology,
			Adversary: c.Adversary,
			Metrics:   plurality.AggregateCellMetrics(measurements[ci*plan.Reps : (ci+1)*plan.Reps])}
	}
	return cells, wall, nil
}

// quart renders the quartiles of xs for report lines.
func quart(xs []float64) string {
	return fmt.Sprintf("q1/med/q3=%.4f/%.4f/%.4f", percentile(xs, 25), median(xs), percentile(xs, 75))
}
