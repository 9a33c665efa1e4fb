package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"plurality"
	"plurality/internal/baseline"
	"plurality/internal/cluster"
	"plurality/internal/core/syncgen"
	"plurality/internal/harness"
	"plurality/internal/opinion"
	"plurality/internal/server"
	"plurality/internal/sim"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// Sizes of the per-layer probes. Each probe times calls into one layer's
// exported functions at the size the end-to-end workload that layer
// should move runs at.
const (
	layerN       = 1_000_000 // leader-1m's N, and sweep-grid's large cells
	layerFormN   = 200_000   // decentralized-200k's N
	ladderSteps  = 2_000_000 // Schedule+Step pairs per ladder sample
	layerRepeats = 3         // samples per probe; the median is reported
	syncRounds   = 20        // rounds per engine probe
)

// eventFunc adapts a function to sim.EventHandler.
type eventFunc func(sim.Event)

func (f eventFunc) HandleEvent(ev sim.Event) { f(ev) }

// probe runs fn layerRepeats times and returns the median of its results.
func probe(fn func() float64) float64 {
	xs := make([]float64, layerRepeats)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// ladderNsPerEvent times Schedule+Step with pending Exp(1)-spaced events
// in the ladder: each popped event is rescheduled after a precomputed
// Exp(1) delay, so the draw itself is not timed.
func ladderNsPerEvent(pending int, seed uint64) float64 {
	rng := xrand.New(seed)
	delays := make([]float64, 1<<16)
	for i := range delays {
		delays[i] = rng.Exp(1)
	}
	s := sim.New()
	k := 0
	s.SetHandler(eventFunc(func(ev sim.Event) {
		s.ScheduleAfter(delays[k&(len(delays)-1)], ev)
		k++
	}))
	s.Reserve(pending + 16)
	for i := 0; i < pending; i++ {
		s.ScheduleAfter(rng.Exp(1), sim.Event{Node: int32(i)})
	}
	for i := 0; i < pending; i++ { // warm the ladder past its first windows
		s.Step()
	}
	start := time.Now()
	for i := 0; i < ladderSteps; i++ {
		s.Step()
	}
	return float64(time.Since(start).Nanoseconds()) / ladderSteps
}

// clocksNsPerTick times the full Poisson clock cycle on layerN clocks:
// dispatch, Clocks.Fire, the Exp draw and the reschedule.
func clocksNsPerTick(seed uint64) float64 {
	s := sim.New()
	var clocks *sim.Clocks
	ticks := 0
	tick := func(int) { ticks++ }
	s.SetHandler(eventFunc(func(ev sim.Event) { clocks.Fire(ev.Node, tick) }))
	s.Reserve(layerN + 16)
	clocks = sim.NewClocks(s, xrand.New(seed), layerN, 1, 0)
	clocks.StartAll()
	for i := 0; i < layerN; i++ {
		s.Step()
	}
	start := time.Now()
	for i := 0; i < ladderSteps; i++ {
		s.Step()
	}
	return float64(time.Since(start).Nanoseconds()) / ladderSteps
}

var sink float64

func expNs(seed uint64) float64 {
	const draws = 10_000_000
	r := xrand.New(seed)
	var acc float64
	start := time.Now()
	for i := 0; i < draws; i++ {
		acc += r.Exp(1)
	}
	sink += acc
	return float64(time.Since(start).Nanoseconds()) / draws
}

func fillInt32nNs(seed uint64) float64 {
	const total = 10_000_000
	r := xrand.New(seed)
	buf := make([]int32, 4096)
	start := time.Now()
	for done := 0; done < total; done += len(buf) {
		r.FillInt32n(layerN, buf)
	}
	sink += float64(buf[0])
	return float64(time.Since(start).Nanoseconds()) / total
}

// sampleNs times one batched SampleNeighbors call over every node of g.
func sampleNs(g topo.Sampler, seed uint64) float64 {
	n := g.Size()
	vs, out := make([]int32, n), make([]int32, n)
	for i := range vs {
		vs[i] = int32(i)
	}
	r := xrand.New(seed)
	start := time.Now()
	topo.SampleNeighbors(g, r, vs, out)
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// secondsOf times fn.
func secondsOf(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// runLayers runs every per-layer probe, each as a span named after its
// layer, and records the per-layer metrics. Counts of the serving layer
// come from the served-runs workload's daemon; other workloads serve
// nothing and report them as 0.
func runLayers(ctx context.Context, e *env, o *outcome) {
	tr := e.tr
	root := tr.begin("layers", "", -1)
	seed := derive(e.seed, "layers")
	layer := func(name string, fn func() error) {
		id := tr.begin(name, "", root)
		err := fn()
		tr.finish(id)
		if err != nil {
			o.op(fmt.Errorf("layer %s: %w", name, err))
		}
	}
	layer("sim", func() error {
		o.set("sim.ladder_ns_per_event", probe(func() float64 { return ladderNsPerEvent(layerN, seed) }), "ns")
		o.set("sim.ladder_ns_per_event_10k", probe(func() float64 { return ladderNsPerEvent(10_000, seed) }), "ns")
		o.set("sim.clocks_ns_per_tick", probe(func() float64 { return clocksNsPerTick(seed) }), "ns")
		return nil
	})
	layer("xrand", func() error {
		o.set("xrand.exp_ns", probe(func() float64 { return expNs(seed) }), "ns")
		o.set("xrand.fill_int32n_ns", probe(func() float64 { return fillInt32nNs(seed) }), "ns")
		return nil
	})
	rr, err := plurality.TopologySpec{Kind: plurality.TopologyRandomRegular}.Resolve(layerN)
	if err != nil {
		o.op(err)
		return
	}
	graphs := map[string]topo.Sampler{plurality.TopologyComplete: topo.NewComplete(layerN)}
	layer("topo", func() error {
		tor, err := topo.NewTorus(1000, 1000)
		if err != nil {
			return err
		}
		graphs[plurality.TopologyTorus] = tor
		var g *topo.AdjGraph
		o.set("topo.build_s.random-regular", probe(func() float64 {
			return secondsOf(func() { g, err = topo.NewRandomRegular(layerN, rr.Degree, seed) })
		}), "s")
		if err != nil {
			return err
		}
		graphs[plurality.TopologyRandomRegular] = g
		for _, kind := range []string{plurality.TopologyComplete, plurality.TopologyTorus, plurality.TopologyRandomRegular} {
			o.set("topo.sample_ns."+kind, probe(func() float64 { return sampleNs(graphs[kind], seed) }), "ns")
		}
		return nil
	})
	layer("opinion", func() error {
		o.set("opinion.planted_bias_s", probe(func() float64 {
			return secondsOf(func() { opinion.PlantedBias(layerN, 4, 2, xrand.New(seed)) })
		}), "s")
		return nil
	})
	layer("cluster", func() error {
		// The decentralized engine's parameters: defaults throughout,
		// complete graph and Exp(1) latency. One sample: it is the
		// slowest probe.
		var err error
		o.set("cluster.form_s", secondsOf(func() {
			_, err = cluster.Form(cluster.Params{N: layerFormN, Latency: sim.ExpLatency{Rate: 1}, Seed: seed, Ctx: ctx})
		}), "s")
		return err
	})
	layer("syncgen", func() error {
		for _, kind := range []string{plurality.TopologyComplete, plurality.TopologyTorus, plurality.TopologyRandomRegular} {
			var err error
			o.set("syncgen.node_updates_per_s."+kind, probe(func() float64 {
				var res *syncgen.Result
				sec := secondsOf(func() {
					res, err = syncgen.Run(syncgen.Config{N: layerN, K: 4, Alpha: 2, MaxSteps: syncRounds,
						Seed: seed, Topo: graphs[kind], DiscardTrajectory: true, Ctx: ctx})
				})
				if err != nil {
					return 0
				}
				return float64(res.Steps) * layerN / sec
			}), "1/s")
			if err != nil {
				return err
			}
		}
		return nil
	})
	layer("baseline", func() error {
		var err error
		o.set("baseline.node_updates_per_s.3-majority", probe(func() float64 {
			var res *baseline.Result
			var rule baseline.Rule
			rule, err = baseline.NewRule("3-majority", xrand.New(seed))
			if err != nil {
				return 0
			}
			sec := secondsOf(func() {
				res, err = baseline.RunSync(rule, baseline.Config{N: layerN, K: 4, Alpha: 2, MaxRounds: syncRounds,
					Seed: seed, Topo: graphs[plurality.TopologyComplete], DiscardTrajectory: true, Ctx: ctx})
			})
			if err != nil {
				return 0
			}
			return float64(res.Rounds) * layerN / sec
		}), "1/s")
		return err
	})
	var snapBlob, resultBlob []byte
	layer("plurality", func() error {
		// CanonicalBytes validates the spec, which builds a random
		// graph's sampler, so keys of random-regular specs cost a graph
		// build; the mean runs over every served spec alike.
		reqs := servedSpecs(e.seed, servedSides)
		keys := 10 * len(reqs)
		o.set("plurality.canonical_key_ns", probe(func() float64 {
			start := time.Now()
			for i := 0; i < keys; i++ {
				b, _ := reqs[i%len(reqs)].Spec.CanonicalBytes()
				sink += float64(len(b))
			}
			return float64(time.Since(start).Nanoseconds()) / float64(keys)
		}), "ns")
		// A mid-run snapshot of a served-size leader spec, halted at the
		// first segment boundary the daemon would persist.
		spec := reqs[0].Spec
		spec.Checkpoint = plurality.CheckpointSpec{SnapshotAt: servedCheckpointEvery, Halt: true}
		res, err := plurality.Run(ctx, reqs[0].Protocol, spec)
		if err != nil {
			return err
		}
		if res.Snapshot == nil {
			return fmt.Errorf("no snapshot at t=%d", servedCheckpointEvery)
		}
		if snapBlob, err = res.Snapshot.Encode(); err != nil {
			return err
		}
		const codecReps = 20
		mb := float64(len(snapBlob)) * codecReps / 1e6
		o.set("plurality.snapshot_encode_mb_per_s", probe(func() float64 {
			return mb / secondsOf(func() {
				for i := 0; i < codecReps; i++ {
					_, err = res.Snapshot.Encode()
				}
			})
		}), "MB/s")
		var snap *plurality.Snapshot
		o.set("plurality.snapshot_decode_mb_per_s", probe(func() float64 {
			return mb / secondsOf(func() {
				for i := 0; i < codecReps; i++ {
					snap, err = plurality.DecodeSnapshot(snapBlob)
				}
			})
		}), "MB/s")
		if err != nil {
			return err
		}
		// Resume through one served segment, as a daemon miss does.
		o.set("plurality.resume_ms", probe(func() float64 {
			var r *plurality.Result
			sec := secondsOf(func() {
				r, err = plurality.Resume(ctx, snap, &plurality.ResumeOptions{
					Checkpoint: plurality.CheckpointSpec{SnapshotAt: 2 * servedCheckpointEvery, Halt: true}})
			})
			if err == nil && r.Snapshot == nil {
				err = fmt.Errorf("resumed run did not halt at t=%d", 2*servedCheckpointEvery)
			}
			return sec * 1e3
		}), "ms")
		if err != nil {
			return err
		}
		full, err := plurality.Run(ctx, reqs[0].Protocol, reqs[0].Spec)
		if err != nil {
			return err
		}
		resultBlob, err = json.Marshal(full)
		return err
	})
	layer("server", func() error { return serverLayer(e, o, snapBlob, resultBlob) })
	layer("harness", func() error {
		p := harness.NewPool(e.workers, 64, nil)
		defer p.Close()
		const jobs = 20_000
		noop := func(context.Context, any) error { return nil }
		var err error
		o.set("harness.pool_job_overhead_us", probe(func() float64 {
			start := time.Now()
			for i := 0; i < jobs; i++ {
				h, ok := p.TrySubmit(noop)
				if !ok {
					err = fmt.Errorf("pool refused a job with an empty queue")
					return 0
				}
				<-h.Done()
			}
			return float64(time.Since(start).Nanoseconds()) / jobs / 1e3
		}), "us")
		return err
	})
	tr.finish(root)
	for _, n := range []string{"server.jobs_computed", "server.jobs_cached", "server.segments_run", "server.cache_hit_ratio"} {
		if _, ok := o.metrics[n]; !ok {
			unit := "count"
			if n == "server.cache_hit_ratio" {
				unit = "ratio"
			}
			o.set(n, 0, unit)
		}
	}
}

// serverLayer times the serving layer's cache and store with a
// served-size Result blob and snapshot blob, on disk under the run's
// scratch directory.
func serverLayer(e *env, o *outcome, snapBlob, resultBlob []byte) error {
	if snapBlob == nil || resultBlob == nil {
		return fmt.Errorf("no blobs from the plurality layer")
	}
	dir := filepath.Join(e.scratch, "layer-server")
	defer os.RemoveAll(dir)
	cache, err := server.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	const puts = 20
	keys := make([]string, puts*layerRepeats)
	for i := range keys {
		h := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys[i] = hex.EncodeToString(h[:])
	}
	next := 0
	o.set("server.cache_put_ms", probe(func() float64 {
		start := time.Now()
		for i := 0; i < puts; i++ {
			if err == nil {
				err = cache.Put(keys[next], resultBlob)
			}
			next++
		}
		return time.Since(start).Seconds() * 1e3 / puts
	}), "ms")
	if err != nil {
		return err
	}
	const gets = 1_000_000
	o.set("server.cache_get_ns", probe(func() float64 {
		start := time.Now()
		for i := 0; i < gets; i++ {
			if _, ok := cache.Get(keys[i%len(keys)]); !ok {
				err = fmt.Errorf("cache miss on a stored key")
			}
		}
		return float64(time.Since(start).Nanoseconds()) / gets
	}), "ns")
	if err != nil {
		return err
	}
	store, err := server.NewStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	o.set("server.store_snapshot_ms", probe(func() float64 {
		start := time.Now()
		for i := 0; i < puts; i++ {
			if err == nil {
				err = store.SaveJobSnapshot(keys[i], snapBlob)
			}
		}
		return time.Since(start).Seconds() * 1e3 / puts
	}), "ms")
	return err
}
