#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Each run's full output is kept in .bench_build/spread/. For every
workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json. With --record it also writes those figures, with the
host description, to a JSON file (the recorded baseline).

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads served-runs --seeds 1-5 --trace 1
    python3 perfbench/spread.py --seeds 1-10 --headline --record perfbench/baseline/<commit>.json

--headline also re-measures the headline rows of the earlier BENCH files
(leader N=10^6 events/s, sync N=10^6 node updates/s) in their own shape.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - start
    os.makedirs(os.path.join(".bench_build", "spread"), exist_ok=True)
    with open(os.path.join(".bench_build", "spread", f"{workload}-seed{seed}-trace{trace}.out"), "w") as f:
        f.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    header = next((l for l in lines if l.startswith("# perfbench ")), "")
    return result, wall, header


def host_info(header, commit):
    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    fields = dict(f.split("=", 1) for f in header.split() if "=" in f)
    if not commit:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    return {
        "commit": commit,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "gomaxprocs": int(fields.get("GOMAXPROCS", 0)),
        "go_version": header.split()[-1] if header else "",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma-separated; default: every workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--headline", action="store_true", help="also re-measure the earlier BENCH files' headline rows")
    ap.add_argument("--commit", default="", help="commit recorded with --record; default: git rev-parse HEAD")
    ap.add_argument("--record", default="", help="write medians, quartiles and host info to this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    report = {"run_seconds": seconds, "seeds": seeds, "trace": args.trace, "workloads": {}}
    header = ""
    for w in workloads:
        values, walls = {}, []
        for seed in seeds:
            result, wall, header = run_once(bench, w, seed, seconds, args.trace)
            walls.append(wall)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{w} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                values.setdefault("_unit_" + name, m["unit"])
            print(f"{w} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)
        rows = {}
        print(f"\n{w}: {len(seeds)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name in sorted(k for k in values if not k.startswith("_unit_")):
            xs = values[name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"  {name:42s} median {med:14.6g} q1 {q1:14.6g} q3 {q3:14.6g} spread {spread:7.3f}"
                  + (f" bound {bound}" if bound is not None else "") + flag)
            rows[name] = {"unit": values["_unit_" + name], "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": xs}
        report["workloads"][w] = {"wall_s": walls, "metrics": rows}
    if args.headline:
        proc = subprocess.run(bench["command"] + ["--headline"], capture_output=True, text=True, check=True)
        report["headline_rows"] = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
        for row in report["headline_rows"]:
            print(json.dumps(row))
    if args.record:
        report["host"] = host_info(header, args.commit)
        os.makedirs(os.path.dirname(args.record) or ".", exist_ok=True)
        with open(args.record, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
