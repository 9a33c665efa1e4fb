package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"

	"plurality"
)

// digest folds every field of a Result that the repository's golden tests
// hash — outcome, final counts, full trajectory and stats — into a SHA-256
// hex string, so two Results digest equal iff they are bit-identical.
func digest(res *plurality.Result) string {
	h := sha256.New()
	hx := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	fmt.Fprintf(h, "winner=%d pwon=%t full=%t ct=%s eps=%t et=%s e=%s dur=%s to=%t\n",
		res.Winner, res.PluralityWon, res.FullConsensus, hx(res.ConsensusTime),
		res.EpsReached, hx(res.EpsTime), hx(res.Eps), hx(res.Duration), res.TimedOut)
	fmt.Fprintf(h, "counts=%v\n", res.FinalCounts)
	for _, p := range res.Trajectory {
		fmt.Fprintf(h, "p %s %s %s %s %d\n",
			hx(p.Time), hx(p.TopFrac), hx(p.PluralityFrac), hx(p.Bias), p.MaxGen)
	}
	keys := make([]string, 0, len(res.Stats))
	for k := range res.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "s %s=%s\n", k, hx(res.Stats[k]))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checkResult verifies the invariants every Result of spec must satisfy:
// final counts cover exactly N nodes over K opinions, the winner is one of
// them, the trajectory starts at time 0, the run advanced, and an
// event-driven run executed events.
func checkResult(res *plurality.Result, spec plurality.Spec, async bool) error {
	if len(res.FinalCounts) != spec.K {
		return fmt.Errorf("final counts have %d opinions, want %d", len(res.FinalCounts), spec.K)
	}
	total := 0
	for _, c := range res.FinalCounts {
		if c < 0 {
			return fmt.Errorf("negative final count %d", c)
		}
		total += c
	}
	if total != spec.N {
		return fmt.Errorf("final counts sum to %d, want N=%d", total, spec.N)
	}
	if res.Winner < 0 || res.Winner >= spec.K {
		return fmt.Errorf("winner %d outside [0, %d)", res.Winner, spec.K)
	}
	if len(res.Trajectory) == 0 || res.Trajectory[0].Time != 0 {
		return fmt.Errorf("trajectory does not start at time 0")
	}
	if !(res.Duration > 0) {
		return fmt.Errorf("run did not advance (duration %v)", res.Duration)
	}
	if async && !(res.Stats["events"] > 0) {
		return fmt.Errorf("event-driven run reports no events")
	}
	return nil
}
