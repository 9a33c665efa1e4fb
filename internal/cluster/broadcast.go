package cluster

import (
	"fmt"
	"math"

	"plurality/internal/sim"
	"plurality/internal/snap"
	"plurality/internal/topo"
	"plurality/internal/xrand"
)

// BroadcastResult reports one inter-cluster broadcast experiment
// (Theorem 28): starting from a single informed leader, how long until all
// participating leaders are informed.
type BroadcastResult struct {
	// CompleteTime is the virtual time at which the last participating
	// leader became informed (-1 if the run timed out first).
	CompleteTime float64
	// LeaderCount is the number of participating leaders.
	LeaderCount int
	// InformTimes maps each informed leader to its inform time.
	InformTimes map[int]float64
	// TimedOut reports whether MaxTime passed before completion.
	TimedOut bool
}

// Typed event kinds of the broadcast engine (see bcastState.HandleEvent).
const (
	// bcTick is one Poisson tick of node ev.Node.
	bcTick int32 = iota
	// bcComplete is node ev.Node's channels to contacts ev.A and ev.B
	// completing: equalize the informed bit across the visible leaders.
	bcComplete
	// bcDeadline is the hard maxTime watchdog.
	bcDeadline
)

// bcastState is the mutable state of one broadcast run; per-node flags are
// flat slices indexed by node id.
type bcastState struct {
	cl     *Clustering
	sm     *sim.Simulator
	clocks *sim.Clocks
	tickFn func(int)
	tp     topo.Sampler
	lat    sim.Latency
	smp    *xrand.RNG
	latR   *xrand.RNG

	participating []bool
	informed      []bool
	locked        []bool
	informTimes   map[int]float64
	remaining     int
	res           *BroadcastResult
}

// HandleEvent dispatches the broadcast engine's typed events.
func (bs *bcastState) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case bcTick:
		bs.clocks.Fire(ev.Node, bs.tickFn)
	case bcComplete:
		bs.complete(int(ev.Node), int(ev.A), int(ev.B))
	case bcDeadline:
		bs.res.TimedOut = true
		bs.sm.Stop()
	}
}

func (bs *bcastState) inform(l int) {
	if !bs.participating[l] || bs.informed[l] {
		return
	}
	bs.informed[l] = true
	bs.informTimes[l] = bs.sm.Now()
	bs.remaining--
	if bs.remaining == 0 {
		bs.sm.Stop()
	}
}

func (bs *bcastState) tick(v int) {
	my := int(bs.cl.LeaderOf[v])
	if my < 0 || !bs.participating[my] {
		return // inactive node: not in a participating cluster
	}
	if bs.locked[v] {
		return
	}
	bs.locked[v] = true
	a := bs.tp.SampleNeighbor(bs.smp, v)
	b := bs.tp.SampleNeighbor(bs.smp, v)
	// Own leader + two contacts in parallel, then their leaders in
	// parallel: max(T2,T2,T2) + max(T2,T2).
	lat := bs.lat
	d := math.Max(lat.Sample(bs.latR), math.Max(lat.Sample(bs.latR), lat.Sample(bs.latR))) +
		math.Max(lat.Sample(bs.latR), lat.Sample(bs.latR))
	bs.sm.ScheduleAfter(d, sim.Event{Kind: bcComplete, Node: int32(v), A: int32(a), B: int32(b)})
}

func (bs *bcastState) complete(v, a, b int) {
	bs.locked[v] = false
	my := int(bs.cl.LeaderOf[v])
	group := [3]int{my, int(bs.cl.LeaderOf[a]), int(bs.cl.LeaderOf[b])}
	any := false
	for _, l := range group {
		if l >= 0 && bs.informed[l] {
			any = true
			break
		}
	}
	if any {
		for _, l := range group {
			if l >= 0 {
				bs.inform(l)
			}
		}
	}
}

// Broadcast runs the §4.2 push–pull broadcast over an existing clustering:
// on each tick an active node contacts its own leader and two random nodes,
// obtains their leaders' addresses, contacts those, and equalizes the
// informed bit across the three leaders. seed controls the randomness,
// lat the channel latency (nil for Exp(1)), maxTime the abort horizon
// (<= 0 for a default of 64·(1+mean latency)).
//
// ck (nil to disable) may request a mid-run capture and/or resume from one
// (see snap.Checkpoint). A restore must be given the same clustering and
// seed the capture ran with; everything mutable — kernel heap, clocks, RNG
// streams, informed bits — comes from the payload.
func Broadcast(cl *Clustering, lat sim.Latency, seed uint64, maxTime float64, ck *snap.Checkpoint) (*BroadcastResult, error) {
	leaders := cl.ParticipatingLeaders()
	if len(leaders) == 0 {
		return nil, fmt.Errorf("cluster: broadcast needs at least one participating leader")
	}
	if lat == nil {
		lat = sim.ExpLatency{Rate: 1}
	}
	if maxTime <= 0 {
		maxTime = 64 * (1 + lat.Mean())
	}
	root := xrand.New(seed)
	n := cl.N
	tp, err := topo.OrComplete(cl.Topo, n)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	sm := sim.New()
	bs := &bcastState{
		cl:            cl,
		sm:            sm,
		tp:            tp,
		lat:           lat,
		smp:           root.SplitNamed("sampling"),
		latR:          root.SplitNamed("latency"),
		participating: make([]bool, n),
		informed:      make([]bool, n),
		locked:        make([]bool, n),
		informTimes:   make(map[int]float64, len(leaders)),
		remaining:     len(leaders),
	}
	for _, l := range leaders {
		bs.participating[l] = true
	}

	// The message originates at the first participating leader.
	bs.inform(leaders[0])
	res := &BroadcastResult{LeaderCount: len(leaders), InformTimes: bs.informTimes}
	if bs.remaining == 0 {
		res.CompleteTime = 0
		return res, nil
	}

	bs.res = res
	bs.tickFn = bs.tick
	sm.SetHandler(bs)
	sm.Reserve(2*n + 64)
	clockR := root.SplitNamed("clocks")
	bs.clocks = sim.NewClocks(sm, clockR, n, 1, bcTick)
	if ck.Restoring() {
		if err := bs.restore(ck.Restore, ck.Perturb, leaders); err != nil {
			return nil, err
		}
	} else {
		bs.clocks.StartAll()
		sm.Schedule(maxTime, sim.Event{Kind: bcDeadline})
	}
	if err := bs.runSim(ck); err != nil {
		return nil, err
	}
	remaining := bs.remaining
	informTimes := bs.informTimes

	if res.TimedOut && remaining > 0 {
		res.CompleteTime = -1
		return res, nil
	}
	last := 0.0
	for _, t := range informTimes {
		if t > last {
			last = t
		}
	}
	res.CompleteTime = last
	return res, nil
}
