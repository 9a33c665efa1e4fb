package experiments

import (
	"fmt"

	"plurality/internal/cluster"
	"plurality/internal/harness"
	"plurality/internal/stats"
)

// Theorem27Clustering validates the clustering claims: almost all nodes end
// up in clusters of at least the target size within O(log log n)-scale time,
// and the consensus-mode switch times of participating leaders span an O(1)
// window (t_l − t_f).
func Theorem27Clustering(o Opts) *harness.Table {
	o = o.normalize()
	ns := []int{1000, 2000, 4000, 8000, 16000}
	if o.Quick {
		ns = []int{1000, 4000}
	}
	t := harness.NewTable(
		"Theorem 27 — clustering: coverage, formation time, switch spread",
		[]string{"n"},
		[]string{"participating_frac", "formation_time", "switch_spread",
			"leaders", "target_size", "timed_out"},
	)
	for _, n := range ns {
		agg := o.replicate(o.Reps, func(rep uint64) harness.Metrics {
			cl, err := cluster.Form(cluster.Params{
				N: n, Seed: mergeSeed(o.Seed+600, rep),
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: Theorem27: %v", err))
			}
			m := harness.Metrics{
				"participating_frac": cl.ParticipatingFrac(),
				"formation_time":     cl.EndTime,
				"leaders":            float64(len(cl.ParticipatingLeaders())),
				"target_size":        float64(cl.TargetSize),
				"timed_out":          boolMetric(cl.TimedOut),
			}
			if cl.FirstSwitch >= 0 {
				m["switch_spread"] = cl.LastSwitch - cl.FirstSwitch
			}
			return m
		})
		t.Append(map[string]float64{"n": float64(n)}, agg)
	}
	// The formation-time column should grow sublinearly; annotate the
	// log-log slope (log log n predicts a slope near zero; anything well
	// below 1 confirms sublinearity at these scales).
	var xs, ys []float64
	for _, r := range t.Rows {
		xs = append(xs, r.Factors["n"])
		ys = append(ys, r.Cells["formation_time"].Mean())
	}
	if len(xs) >= 2 {
		t.Caption += "\n" + fitLine("log(formation_time) ~ log n", stats.LogLogFit(xs, ys))
	}
	return t
}

// Theorem28Broadcast validates the inter-cluster broadcast claim: the time
// to inform all participating leaders does not grow with n (an O(1)-time
// broadcast), in contrast to the Θ(log n) push–pull bound for uninformed
// flat gossip.
func Theorem28Broadcast(o Opts) *harness.Table {
	o = o.normalize()
	ns := []int{500, 1000, 2000, 4000, 8000, 16000}
	if o.Quick {
		ns = []int{500, 2000}
	}
	t := harness.NewTable(
		"Theorem 28 — inter-cluster broadcast completion time vs n",
		[]string{"n"},
		[]string{"broadcast_time", "leaders", "timed_out"},
	)
	for _, n := range ns {
		agg := o.replicate(o.Reps, func(rep uint64) harness.Metrics {
			seed := mergeSeed(o.Seed+700, rep)
			cl, err := cluster.Form(cluster.Params{N: n, Seed: seed})
			if err != nil {
				panic(fmt.Sprintf("experiments: Theorem28 form: %v", err))
			}
			res, err := cluster.Broadcast(cl, nil, seed+1, 0, nil)
			if err != nil {
				panic(fmt.Sprintf("experiments: Theorem28 broadcast: %v", err))
			}
			m := harness.Metrics{
				"leaders":   float64(res.LeaderCount),
				"timed_out": boolMetric(res.TimedOut),
			}
			if res.CompleteTime >= 0 {
				m["broadcast_time"] = res.CompleteTime
			}
			return m
		})
		t.Append(map[string]float64{"n": float64(n)}, agg)
	}
	var xs, ys []float64
	for _, r := range t.Rows {
		if s, ok := r.Cells["broadcast_time"]; ok && s.N() > 0 {
			xs = append(xs, r.Factors["n"])
			ys = append(ys, s.Mean())
		}
	}
	if len(xs) >= 2 {
		t.Caption += "\n" + fitLine("log(broadcast_time) ~ log n (flat ⇒ O(1))",
			stats.LogLogFit(xs, ys))
	}
	return t
}
