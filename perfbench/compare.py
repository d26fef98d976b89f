#!/usr/bin/env python3
"""Run sets of benchmark runs and compare them, with no download.

Run from the repository root.

  python3 perfbench/compare.py run OUT [--workloads compile,serve-hot] [--seeds 1-10]
      [--seconds 10] [--trace 0]
      Runs perfbench/run.py once per (workload, seed), prints each run's
      metrics and answer checks, and keeps its full output as
      OUT/<workload>-<seed>.txt. With --seeds 1 it is the one command that
      runs every workload and prints every end-to-end metric.

  python3 perfbench/compare.py spread OUT
      Per workload and metric: median, quartiles and spread (interquartile
      distance over the median). Flags a spread above the metric's bound in
      BENCHMARK.json, and marks one above a third of it.

  python3 perfbench/compare.py diff BASE NEW
      Per workload and metric: each side's median and quartiles, the share
      of seed-paired runs each side won, and whether the two sets agree:
      every spread within its bound, and NEW's median no worse than BASE's
      by more than the bound. Exits 1 when they do not.

  python3 perfbench/compare.py overhead UNTRACED TRACED
      The measured cost of tracing: per workload, each end-to-end value a
      traced run printed (its `traced` lines) against the untraced run of
      the same seed, as the median share by which tracing made it worse.

Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cmd_run(args, spec):
    os.makedirs(args.out, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            path = os.path.join(args.out, f"{workload}-{seed}.txt")
            with open(path, "w") as f:
                f.write(proc.stdout)
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            print(f"{workload} seed {seed}: {status}", flush=True)
            for line in proc.stdout.splitlines():
                if line.startswith(("metric ", "check ")):
                    print("  " + line, flush=True)


def load_runs(directory):
    """{workload: {seed: result}} from a run directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".txt"):
            continue
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        record = {}
        for line in lines:
            if line.startswith("record "):
                record = json.loads(line[len("record "):])
        workload, seed = record.get("workload"), record.get("seed")
        if workload is None:
            continue
        runs.setdefault(workload, {})[seed] = result
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def metric_specs(spec, results):
    traced = any(m in {d["name"] for d in spec["per_layer"]} for r in results for m in r["metrics"])
    return spec["per_layer"] if traced else spec["end_to_end"]


def cmd_spread(args, spec):
    runs = load_runs(args.dir)
    for workload, by_seed in sorted(runs.items()):
        results = list(by_seed.values())
        bad = [s for s, r in by_seed.items() if not r["correct"] or r["failed"]]
        print(f"{workload}: {len(results)} runs" + (f", INCORRECT seeds {bad}" if bad else ""))
        for m in metric_specs(spec, results):
            values = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
            med, q1, q3, spread = summary(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "  OVER BOUND"
                elif spread > bound / 3:
                    flag = "  over a third of bound"
            print(f"  {m['name']:<26} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}" + (f" bound {bound}" if bound is not None else "") + flag)


def worse(a, b, better):
    """Share by which b is worse than a."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def cmd_diff(args, spec):
    base, new = load_runs(args.base), load_runs(args.new)
    ok = True
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        print(f"{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        for m in metric_specs(spec, list(b_runs.values())):
            name, better, bound = m["name"], m["better"], m.get("bound")
            bv = [r["metrics"][name]["value"] for r in b_runs.values()]
            nv = [r["metrics"][name]["value"] for r in n_runs.values()]
            bmed, bq1, bq3, bspread = summary(bv)
            nmed, nq1, nq3, nspread = summary(nv)
            wins_b = wins_n = pairs = 0
            for seed in set(b_runs) & set(n_runs):
                x, y = b_runs[seed]["metrics"][name]["value"], n_runs[seed]["metrics"][name]["value"]
                pairs += 1
                if x != y:
                    new_better = (y < x) if better == "lower" else (y > x)
                    wins_n += new_better
                    wins_b += not new_better
            verdict = ""
            if bound is not None:
                problems = []
                if bspread > bound or nspread > bound:
                    problems.append("spread over bound")
                if worse(bmed, nmed, better) > bound:
                    problems.append(f"new median worse by {worse(bmed, nmed, better):.1%}")
                verdict = "  AGREE" if not problems else "  DISAGREE: " + ", ".join(problems)
                ok = ok and not problems
            print(f"  {name:<26} base {bmed:<11.6g} [{bq1:.6g}, {bq3:.6g}]  new {nmed:<11.6g} "
                  f"[{nq1:.6g}, {nq3:.6g}]  won base {wins_b}/{pairs} new {wins_n}/{pairs}{verdict}")
    return 0 if ok else 1


def load_traced(directory):
    """{workload: {seed: {metric: value}}} from the `traced` lines of traced runs."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".txt"):
            continue
        values, record = {}, {}
        with open(os.path.join(directory, name)) as f:
            for line in f:
                if line.startswith("traced "):
                    parts = line.split()
                    values[parts[1]] = float(parts[2])
                elif line.startswith("record "):
                    record = json.loads(line[len("record "):])
        if record.get("workload") is not None and values:
            out.setdefault(record["workload"], {})[record["seed"]] = values
    return out


def cmd_overhead(args, spec):
    untraced, traced = load_runs(args.untraced), load_traced(args.traced)
    for workload in sorted(set(untraced) & set(traced)):
        seeds = sorted(set(untraced[workload]) & set(traced[workload]))
        print(f"{workload}: {len(seeds)} seed pairs")
        for m in spec["end_to_end"]:
            name = m["name"]
            shares = [worse(untraced[workload][s]["metrics"][name]["value"], traced[workload][s][name], m["better"])
                      for s in seeds if name in traced[workload][s] and name in untraced[workload][s]["metrics"]]
            if shares:
                print(f"  {name:<26} tracing costs {statistics.median(shares):+.1%} "
                      f"(min {min(shares):+.1%}, max {max(shares):+.1%})")


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--workloads", default="")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=spec["run_seconds"])
    r.add_argument("--trace", type=int, default=0)
    s = sub.add_parser("spread")
    s.add_argument("dir")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    o = sub.add_parser("overhead")
    o.add_argument("untraced")
    o.add_argument("traced")
    args = p.parse_args()
    if args.cmd == "run":
        cmd_run(args, spec)
        return 0
    if args.cmd == "spread":
        cmd_spread(args, spec)
        return 0
    if args.cmd == "overhead":
        cmd_overhead(args, spec)
        return 0
    return cmd_diff(args, spec)


if __name__ == "__main__":
    sys.exit(main())
