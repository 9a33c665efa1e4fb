package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"plurality"
)

// peakMB returns a process's high-water resident set size (VmHWM) in MB.
func peakMB(pid int) (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", pid)
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in %s", path)
}

// headlineRows re-measures, in the shape the earlier BENCH files used,
// their headline rows: leader at N=10⁶ over a 4-unit window (events per
// wall second, set-up included; BENCH_PR5/8) and sync at N=10⁶ on the
// complete graph to consensus (node updates per wall second; BENCH_PR10).
// Both use K=4, α=2, seed 1; each row is printed per repeat.
func headlineRows(ctx context.Context) error {
	rows := []struct {
		protocol string
		spec     plurality.Spec
	}{
		{"leader", plurality.Spec{N: 1_000_000, K: 4, Alpha: 2, Seed: 1, MaxTime: 4}},
		{"sync", plurality.Spec{N: 1_000_000, K: 4, Alpha: 2, Seed: 1}},
	}
	for rep := 0; rep < 3; rep++ {
		for _, r := range rows {
			start := time.Now()
			res, err := plurality.Run(ctx, r.protocol, r.spec)
			if err != nil {
				return err
			}
			wall := time.Since(start).Seconds()
			work, unit := res.Stats["events"], "events"
			if r.protocol == "sync" {
				work, unit = res.Duration*float64(r.spec.N), "node_updates"
			}
			fmt.Printf("{\"protocol\": %q, \"n\": %d, \"rep\": %d, \"%s\": %.0f, \"wall_seconds\": %.4f, \"%s_per_sec\": %.0f}\n",
				r.protocol, r.spec.N, rep, unit, work, wall, unit, work/wall)
		}
	}
	return nil
}
