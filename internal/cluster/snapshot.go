package cluster

import (
	"context"
	"fmt"

	"plurality/internal/sim"
	"plurality/internal/snap"
)

// This file implements the clustering substrate's checkpoint hooks: a
// canonical codec for the Clustering structure (consumed by the
// decentralized consensus engine's snapshots, so a resumed run does not
// replay formation), plus capture/restore of a formation run in flight and
// of a leader broadcast.

// EncodeClustering writes a formation outcome in canonical form: map-valued
// fields are iterated in Leaders order, so encoding the same clustering
// twice yields identical bytes. The interaction graph (Topo) is not
// serialized — it is a deterministic function of the run configuration and
// is re-attached by the caller after decoding.
func EncodeClustering(w *snap.Writer, cl *Clustering) {
	w.Int(cl.N)
	w.Int(cl.TargetSize)
	w.I32s(cl.LeaderOf)
	w.Ints(cl.Leaders)
	w.Len32(len(cl.Leaders))
	for _, l := range cl.Leaders {
		w.Int(cl.Size[l])
		w.Bool(cl.InConsensusMode[l])
		st, ok := cl.SwitchTime[l]
		w.Bool(ok)
		w.F64(st)
	}
	w.F64(cl.FirstSwitch)
	w.F64(cl.LastSwitch)
	w.Len32(len(cl.Coverage))
	for _, p := range cl.Coverage {
		w.F64(p.Time)
		w.F64(p.ClusteredFrac)
		w.F64(p.BigClusterFrac)
	}
	w.F64(cl.EndTime)
	w.Bool(cl.TimedOut)
}

// DecodeClustering reads a structure written by EncodeClustering. The
// caller must attach the interaction graph (Topo) afterwards.
func DecodeClustering(r *snap.Reader) (*Clustering, error) {
	cl := &Clustering{}
	cl.N = r.Int()
	cl.TargetSize = r.Int()
	cl.LeaderOf = r.I32s()
	cl.Leaders = r.Ints()
	nl := r.Len32(18)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nl != len(cl.Leaders) {
		return nil, r.Fail(fmt.Errorf("%w: %d leader records for %d leaders", snap.ErrCorrupt, nl, len(cl.Leaders)))
	}
	if len(cl.LeaderOf) != cl.N {
		return nil, r.Fail(fmt.Errorf("%w: LeaderOf length %d != N %d", snap.ErrCorrupt, len(cl.LeaderOf), cl.N))
	}
	cl.Size = make(map[int]int, nl)
	cl.InConsensusMode = make(map[int]bool, nl)
	cl.SwitchTime = make(map[int]float64, nl)
	for _, l := range cl.Leaders {
		if l < 0 || l >= cl.N {
			return nil, r.Fail(fmt.Errorf("%w: leader id %d outside [0, %d)", snap.ErrCorrupt, l, cl.N))
		}
		cl.Size[l] = r.Int()
		cl.InConsensusMode[l] = r.Bool()
		hasSwitch := r.Bool()
		st := r.F64()
		if hasSwitch {
			cl.SwitchTime[l] = st
		}
	}
	cl.FirstSwitch = r.F64()
	cl.LastSwitch = r.F64()
	nc := r.Len32(24)
	if err := r.Err(); err != nil {
		return nil, err
	}
	cl.Coverage = make([]CoveragePoint, nc)
	for i := range cl.Coverage {
		cl.Coverage[i] = CoveragePoint{
			Time:           r.F64(),
			ClusteredFrac:  r.F64(),
			BigClusterFrac: r.F64(),
		}
	}
	cl.EndTime = r.F64()
	cl.TimedOut = r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return cl, nil
}

// runSim drives the broadcast kernel through the shared checkpoint barrier
// (Broadcast has no context parameter, so only the barrier interrupts the
// run).
func (bs *bcastState) runSim(ck *snap.Checkpoint) error {
	return sim.RunCheckpointed(nil, bs.sm, ck, bs.capture)
}

// capture serializes a broadcast run's mutable state; the participating set
// is derived from the clustering and not stored.
func (bs *bcastState) capture() ([]byte, error) {
	w := &snap.Writer{}
	if err := bs.sm.EncodeState(w); err != nil {
		return nil, err
	}
	bs.clocks.EncodeState(w)
	w.RNG(bs.smp)
	w.RNG(bs.latR)
	w.Bools(bs.informed)
	w.Bools(bs.locked)
	leaders := bs.cl.ParticipatingLeaders()
	w.Len32(len(leaders))
	for _, l := range leaders {
		t, ok := bs.informTimes[l]
		w.Bool(ok)
		w.F64(t)
	}
	w.Int(bs.remaining)
	w.Bool(bs.res.TimedOut)
	return w.Bytes(), nil
}

// restore overwrites a broadcast run's mutable state from a captured
// payload; leaders is the participating set in canonical order.
func (bs *bcastState) restore(state []byte, perturb uint64, leaders []int) error {
	r := snap.NewReader(state)
	if err := bs.sm.DecodeState(r); err != nil {
		return fmt.Errorf("cluster: broadcast kernel state: %w", err)
	}
	if err := bs.clocks.DecodeState(r); err != nil {
		return fmt.Errorf("cluster: broadcast clock state: %w", err)
	}
	if err := r.ReadRNG(bs.smp); err != nil {
		return fmt.Errorf("cluster: broadcast sampling rng: %w", err)
	}
	if err := r.ReadRNG(bs.latR); err != nil {
		return fmt.Errorf("cluster: broadcast latency rng: %w", err)
	}
	informed := r.Bools()
	locked := r.Bools()
	nl := r.Len32(9)
	if err := r.Err(); err != nil {
		return fmt.Errorf("cluster: broadcast state: %w", err)
	}
	if nl != len(leaders) {
		return fmt.Errorf("cluster: %w: %d inform records for %d leaders", snap.ErrCorrupt, nl, len(leaders))
	}
	// Refill the inform-time map in place: the result aliases it.
	for k := range bs.informTimes {
		delete(bs.informTimes, k)
	}
	for _, l := range leaders {
		ok := r.Bool()
		t := r.F64()
		if ok {
			bs.informTimes[l] = t
		}
	}
	remaining := r.Int()
	timedOut := r.Bool()
	if err := r.Finish(); err != nil {
		return fmt.Errorf("cluster: broadcast state: %w", err)
	}
	if len(informed) != len(bs.informed) || len(locked) != len(bs.locked) {
		return fmt.Errorf("cluster: %w: broadcast node-state length mismatch", snap.ErrCorrupt)
	}
	copy(bs.informed, informed)
	copy(bs.locked, locked)
	bs.remaining = remaining
	bs.res.TimedOut = timedOut
	if perturb != 0 {
		bs.smp.Perturb(perturb)
		bs.latR.Perturb(perturb)
		bs.clocks.Perturb(perturb)
	}
	return nil
}

// runSim drives the formation kernel through the shared checkpoint barrier
// (sim.RunCheckpointed), exactly like the consensus engines.
func (fs *formState) runSim(ctx context.Context) error {
	return sim.RunCheckpointed(ctx, fs.sm, fs.p.Ckpt, fs.capture)
}

// capture serializes a formation run's mutable state.
func (fs *formState) capture() ([]byte, error) {
	w := &snap.Writer{}
	if err := fs.sm.EncodeState(w); err != nil {
		return nil, err
	}
	fs.clocks.EncodeState(w)
	w.RNG(fs.smp)
	w.RNG(fs.latR)
	w.I32s(fs.leaderOf)
	w.I32s(fs.rank)
	w.Bools(fs.locked)
	w.I32s(fs.lSize)
	w.I32s(fs.lCount)
	w.Bools(fs.lFilled)
	w.Bools(fs.lPauseDone)
	w.Bools(fs.lConsensus)
	w.Bools(fs.lExcluded)
	w.F64s(fs.lSwitchTime)
	w.F64s(fs.lRebcastEnd)
	w.Int(fs.clustered)
	w.F64(fs.cl.FirstSwitch)
	w.F64(fs.cl.LastSwitch)
	w.Bool(fs.cl.TimedOut)
	w.Len32(len(fs.cl.Coverage))
	for _, p := range fs.cl.Coverage {
		w.F64(p.Time)
		w.F64(p.ClusteredFrac)
		w.F64(p.BigClusterFrac)
	}
	return w.Bytes(), nil
}

// restore overwrites a formation run's mutable state from a captured
// payload. The leader set is a deterministic function of the seed and was
// already recomputed by setup; the blob only carries the mutable words.
func (fs *formState) restore(state []byte, perturb uint64) error {
	r := snap.NewReader(state)
	if err := fs.sm.DecodeState(r); err != nil {
		return fmt.Errorf("cluster: kernel state: %w", err)
	}
	if err := fs.clocks.DecodeState(r); err != nil {
		return fmt.Errorf("cluster: clock state: %w", err)
	}
	if err := r.ReadRNG(fs.smp); err != nil {
		return fmt.Errorf("cluster: sampling rng: %w", err)
	}
	if err := r.ReadRNG(fs.latR); err != nil {
		return fmt.Errorf("cluster: latency rng: %w", err)
	}
	leaderOf := r.I32s()
	rank := r.I32s()
	locked := r.Bools()
	lSize := r.I32s()
	lCount := r.I32s()
	lFilled := r.Bools()
	lPauseDone := r.Bools()
	lConsensus := r.Bools()
	lExcluded := r.Bools()
	lSwitchTime := r.F64s()
	lRebcastEnd := r.F64s()
	clustered := r.Int()
	firstSwitch := r.F64()
	lastSwitch := r.F64()
	timedOut := r.Bool()
	nc := r.Len32(24)
	if err := r.Err(); err != nil {
		return fmt.Errorf("cluster: state: %w", err)
	}
	coverage := make([]CoveragePoint, nc)
	for i := range coverage {
		coverage[i] = CoveragePoint{
			Time:           r.F64(),
			ClusteredFrac:  r.F64(),
			BigClusterFrac: r.F64(),
		}
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("cluster: state: %w", err)
	}
	if len(leaderOf) != fs.p.N || len(rank) != fs.p.N || len(locked) != fs.p.N {
		return fmt.Errorf("cluster: %w: node-state length mismatch (blob for a different N?)", snap.ErrCorrupt)
	}
	nl := len(fs.lSize)
	if len(lSize) != nl || len(lCount) != nl || len(lFilled) != nl ||
		len(lPauseDone) != nl || len(lConsensus) != nl || len(lExcluded) != nl ||
		len(lSwitchTime) != nl || len(lRebcastEnd) != nl {
		return fmt.Errorf("cluster: %w: leader-state length mismatch (blob for a different seed?)", snap.ErrCorrupt)
	}
	// cl.LeaderOf aliases fs.leaderOf; copy in place to keep the aliasing.
	copy(fs.leaderOf, leaderOf)
	copy(fs.rank, rank)
	copy(fs.locked, locked)
	copy(fs.lSize, lSize)
	copy(fs.lCount, lCount)
	copy(fs.lFilled, lFilled)
	copy(fs.lPauseDone, lPauseDone)
	copy(fs.lConsensus, lConsensus)
	copy(fs.lExcluded, lExcluded)
	copy(fs.lSwitchTime, lSwitchTime)
	copy(fs.lRebcastEnd, lRebcastEnd)
	fs.clustered = clustered
	fs.cl.FirstSwitch = firstSwitch
	fs.cl.LastSwitch = lastSwitch
	fs.cl.TimedOut = timedOut
	fs.cl.Coverage = coverage
	if perturb != 0 {
		fs.smp.Perturb(perturb)
		fs.latR.Perturb(perturb)
		fs.clocks.Perturb(perturb)
	}
	return nil
}
