#!/usr/bin/env python3
"""Compare the benchmark on a parent and a change checkout.

    python3 vbbench/compare.py run PARENT_DIR CHANGE_DIR [--pairs 10]
        [--workload NAME ...] [--seconds S] [--first-seed N] [--out FILE]
    python3 vbbench/compare.py report FILE [--benchmark BENCHMARK.json]

`run` alternates parent and change runs of each workload, one pair per
seed, swapping which side goes first on every other pair, and appends one
JSON line per run to FILE. `report` reads such a file and gives, for every
(workload, end-to-end metric), each side's median and quartiles, the
fraction of pairs the change won, and a verdict:

  improved    the change won at least 9 pairs in 10 (ties count for
              neither side) and the medians differ by more than the
              distance between the parent's quartiles;
  unresolved  the parent's own spread is wider than the metric's bound,
              and not every change run beats every parent run;
  regressed   the change's median is worse than the parent's by more
              than the metric's bound;
  unchanged   otherwise.

It also lists pairs whose output digests differ (the change altered the
program's outputs) and runs that failed. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")


def load_benchmark(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def parse_run_output(stdout):
    """The result object (last line) and the output digest of one run."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("benchmark printed nothing")
    result = json.loads(lines[-1])
    digest = None
    for line in lines:
        if line.startswith("output_digest "):
            parts = line.split()
            digest = parts[2] if len(parts) > 2 else None
    return result, digest


def run_once(checkout, command, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(args, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    return parse_run_output(proc.stdout)


def run_pairs(args):
    bench = {side: load_benchmark(os.path.join(d, "BENCHMARK.json"))
             for side, d in (("parent", args.parent), ("change", args.change))}
    if bench["parent"] != bench["change"]:
        print("warning: BENCHMARK.json differs between the checkouts; "
              "a comparison needs identical benchmark settings", file=sys.stderr)
    workloads = args.workload or [w["name"] for w in bench["change"]["workloads"]]
    seconds = args.seconds or bench["change"]["run_seconds"]
    dirs = {"parent": args.parent, "change": args.change}
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in workloads:
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result, digest = run_once(dirs[side], bench[side]["command"],
                                              workload, seed, seconds)
                    record = {
                        "side": side, "workload": workload, "pair": pair,
                        "seed": seed, "first": order[0], "digest": digest,
                        "correct": result["correct"], "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    }
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"{workload} pair {pair} seed {seed} {side}: done", file=sys.stderr)


def load_results(lines):
    """Records from a results file's lines (blank lines skipped)."""
    return [json.loads(line) for line in lines if line.strip()]


def summarize(values):
    """Median and quartiles as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"median": v, "q1": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def is_better(a, b, better):
    """True when value `a` is better than `b`."""
    return a < b if better == "lower" else a > b


def verdict(parent, change, better, bound):
    """Apply the comparison rules to paired parent/change values.

    `parent[i]` and `change[i]` are the two runs of pair i. Returns the
    verdict with the statistics it rests on.
    """
    p, c = summarize(parent), summarize(change)
    wins = sum(1 for a, b in zip(change, parent) if is_better(a, b, better))
    pairs = min(len(parent), len(change))
    win_frac = wins / pairs if pairs else 0.0
    scale = abs(p["median"]) or 1.0
    spread = (p["q3"] - p["q1"]) / scale
    worse_by = (c["median"] - p["median"]) / scale
    if better == "higher":
        worse_by = -worse_by
    all_better = bool(change) and all(
        is_better(a, b, better) for a in change for b in parent)
    if win_frac >= 0.9 and worse_by < 0 and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]:
        result = "improved"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "regressed"
    else:
        result = "unchanged"
    return {
        "verdict": result, "parent": p, "change": c, "pairs": pairs,
        "win_frac": win_frac, "spread": spread, "worse_by": worse_by,
    }


def report(records, bench):
    """Rows of (workload, metric, verdict stats) plus digest and failure notes."""
    rows, notes = [], []
    by_key = {}
    for r in records:
        by_key.setdefault((r["workload"], r["pair"]), {})[r["side"]] = r
    known = [w["name"] for w in bench["workloads"]]
    present = {w for w, _ in by_key}
    workloads = [w for w in known if w in present] + sorted(present - set(known))
    for workload in workloads:
        pairs = [v for (w, _), v in sorted(by_key.items()) if w == workload
                 and "parent" in v and "change" in v]
        for side in ("parent", "change"):
            failed = sum(p[side]["failed"] for p in pairs)
            incorrect = sum(1 for p in pairs if not p[side]["correct"])
            if failed or incorrect:
                notes.append(f"{workload}: {side} had {failed} failed studies "
                             f"and {incorrect} incorrect runs")
        differ = [p["parent"]["seed"] for p in pairs
                  if p["parent"]["digest"] != p["change"]["digest"]]
        if differ:
            notes.append(f"{workload}: output digests differ at seeds {differ}")
        for m in bench["end_to_end"]:
            both = [p for p in pairs if all(m["name"] in p[s]["metrics"] for s in p)]
            if not both:
                continue
            parent = [p["parent"]["metrics"][m["name"]] for p in both]
            change = [p["change"]["metrics"][m["name"]] for p in both]
            rows.append((workload, m, verdict(parent, change, m["better"], m["bound"])))
    return rows, notes


def print_report(rows, notes):
    print(f"{'workload':<14} {'metric':<20} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'worse by':>9} {'won':>5}  verdict")
    for workload, m, v in rows:
        def fmt(s):
            return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
        print(f"{workload:<14} {m['name']:<20} {fmt(v['parent']):>36} {fmt(v['change']):>36} "
              f"{100 * v['worse_by']:>8.2f}% {v['win_frac']:>5.2f}  {v['verdict']}"
              f"  (bound {100 * m['bound']:.0f}%, parent spread {100 * v['spread']:.1f}%, "
              f"{v['pairs']} pairs)")
    for note in notes:
        print(f"note: {note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="alternate parent/change runs and record them")
    r.add_argument("parent")
    r.add_argument("change")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--workload", action="append")
    r.add_argument("--seconds", type=float)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--out", default=os.path.join(".bench_build", "vbbench-compare.jsonl"))
    p = sub.add_parser("report", help="verdicts from a results file")
    p.add_argument("results")
    p.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = ap.parse_args(argv)
    if args.cmd == "run":
        if args.pairs < 10:
            ap.error("--pairs must be at least 10")
        run_pairs(args)
        print(f"results appended to {args.out}; report with: "
              f"python3 {os.path.relpath(__file__)} report {args.out}", file=sys.stderr)
        return 0
    with open(args.results, encoding="utf-8") as f:
        records = load_results(f)
    rows, notes = report(records, load_benchmark(args.benchmark))
    print_report(rows, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
