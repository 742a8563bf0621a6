#!/usr/bin/env python3
"""Perf-regression gate over the committed bench baselines.

Usage: check_bench.py CURRENT.json BASELINE.json [--rows=SCALE,...] [KEY=TOL ...]

Compares a freshly produced bench result (`BENCH_solver.json`,
`BENCH_fleet.json`) against the committed baseline and exits non-zero
when the run regressed past the tolerance band for any key. The rule
table is selected by the file's `bench` field:

* `solver_scaling` — per-scale `scaling` rows (`1x`, `10x`, `100x`
  model sizes, each epoch solved cold by `solve_mip_kernel`) flattened
  to `{scale}.{key}` entries;
* `fleet_sim` — per-scale rows (`10x`, `100x`, ...) flattened to
  `{scale}.{key}` entries so every scale is gated independently.

For either kind, `--rows=10x` restricts the gate to the named scales
(CI runs the cheap scales only; the committed baseline also carries
the expensive ones).

Keys fall into three classes:

* structural (`sites`, `epochs`, `policy`, ...): exact match — a drift
  here means the bench ran a different experiment and the perf
  comparison is meaningless;
* work and quality (LP solves, pivots, nodes, objective sums, decision
  counts, volumes): deterministic given the config. A count no libm
  value feeds is gated exactly — every solver row key is; one that
  libm transcendentals feed (the fleet rows' trace-driven counts and
  volumes) gets a small relative band (`rel`) instead of bit-equality;
* wall-clock (`*_secs`, `*_per_sec`, `speedup`): noisy on shared CI
  hosts, so the bands are wide — wide enough to ride out scheduler
  noise, tight enough that a genuinely quadratic regression or a lost
  fast path still trips it.

The key sets of the current result and the baseline must match exactly,
in *both* directions: a key present on one side only — current missing
a baseline key, or current carrying a key the baseline has never seen —
fails the gate. (An earlier version only checked that the rule table's
keys existed in each file, so a renamed or extra key in either file
slid through as "nothing to compare".) A key both sides carry must
also have a rule; one without fails the gate rather than pass ungated.

Tolerances can be overridden per flattened key on the command line,
e.g. `10x.event_secs=4.0`; a bare row key (`event_secs=4.0`) applies to
that key in every row.
Improvements never fail the gate (they print a hint to refresh the
baseline instead).
"""

import json
import sys

# Rules:
#   exact      — current == baseline
#   ratio      — current <= tol * baseline (bigger is worse)
#   ratio_min  — current >= baseline / tol (smaller is worse)
#   abs_max    — current <= tol (baseline-independent ceiling)
#   rel        — |current - baseline| <= tol * max(|baseline|, 1)
SOLVER_ROW_RULES = {
    # Structural: a drifting model size means a different experiment.
    "apps": ("exact", None),
    "vars": ("exact", None),
    "rows": ("exact", None),
    "epochs": ("exact", None),
    # Exact work: the solver calls no libm transcendental (only
    # correctly rounded IEEE-754 arithmetic, floor/ceil/round and
    # comparisons), and the bench models are built from integer
    # arithmetic and `round`, so every count below, and every optimal
    # objective (integer-valued), is a deterministic function of the
    # model on any IEEE-754 host. Any change means the solver took a
    # different path: fewer pivots is as much a change as more (refresh
    # the baseline with it), and a moved objective is a wrong optimum.
    "presolve_vars_fixed": ("exact", None),
    "lp_solves": ("exact", None),
    "kernel_pivots": ("exact", None),
    "eta_updates": ("exact", None),
    "refactorizations": ("exact", None),
    "nodes_expanded": ("exact", None),
    "objective_sum": ("exact", None),
    # Wall-clock: a wide band for shared CI hosts.
    "kernel_secs": ("ratio", 2.0),
}

FLEET_TOP_RULES = {
    "shard_size": ("exact", None),
}

FLEET_ROW_RULES = {
    "sites": ("exact", None),
    "shards": ("exact", None),
    "days": ("exact", None),
    "steps": ("exact", None),
    "policy": ("exact", None),
    # Deterministic given the config, but floats produced through libm
    # transcendentals (trace generation) may drift in the last ulps
    # across platforms — a tight relative band instead of bit-equality.
    "vm_decisions": ("rel", 0.01),
    "total_gb": ("rel", 0.01),
    "dropped_apps": ("rel", 0.05),
    # Wall-clock: wide bands for shared CI hosts.
    "event_secs": ("ratio", 2.0),
    "legacy_secs": ("ratio", 2.0),
    "event_steps_per_sec": ("ratio_min", 2.0),
    "legacy_steps_per_sec": ("ratio_min", 2.0),
    "vm_decisions_per_sec": ("ratio_min", 2.0),
    # The headline claim: the event core's advantage over the legacy
    # step loop. The band is tighter than the raw timers because both
    # cores run in one process on one host — host noise largely cancels
    # in the ratio.
    "speedup": ("ratio_min", 1.5),
    "peak_rss_mb": ("ratio", 2.5),
}


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot load bench result {path}: {err}")


def flatten_rows(data, path, rows_key, row_rules, flat, rules, rows_filter):
    """Flatten `data[rows_key]` into `{scale}.{key}` entries in place."""
    seen_scales = []
    for row in data.get(rows_key, []):
        scale = row.get("scale")
        if not scale:
            sys.exit(f"error: {path}: {rows_key} row without a `scale` field")
        seen_scales.append(scale)
        if rows_filter is not None and scale not in rows_filter:
            continue
        for key, value in row.items():
            if key == "scale":
                continue
            if key not in row_rules:
                sys.exit(f"error: {path}: no gate rule for {rows_key} row key `{key}`")
            flat[f"{scale}.{key}"] = value
            rules[f"{scale}.{key}"] = row_rules[key]
    if rows_filter is not None:
        unknown = sorted(set(rows_filter) - set(seen_scales))
        if unknown:
            sys.exit(
                f"error: {path}: --rows names scales not in the file: "
                f"{', '.join(unknown)}"
            )


def flatten(data, path, rows_filter=None):
    """(flat key -> value, flat key -> rule) for one bench file."""
    bench = data.get("bench")
    if bench == "solver_scaling":
        flat = {k: v for k, v in data.items() if k not in ("bench", "scaling")}
        rules = {}
        flatten_rows(data, path, "scaling", SOLVER_ROW_RULES, flat, rules, rows_filter)
        return flat, rules
    if bench == "fleet_sim":
        flat = {k: v for k, v in data.items() if k not in ("bench", "rows")}
        rules = dict(FLEET_TOP_RULES)
        flatten_rows(data, path, "rows", FLEET_ROW_RULES, flat, rules, rows_filter)
        return flat, rules
    sys.exit(f"error: {path}: unknown bench kind {bench!r}")


def keyset_mismatch(cur_flat, base_flat):
    """Symmetric key comparison: drift in either direction is fatal."""
    msgs = []
    only_cur = sorted(set(cur_flat) - set(base_flat))
    only_base = sorted(set(base_flat) - set(cur_flat))
    if only_cur:
        msgs.append(f"keys only in current result: {', '.join(only_cur)}")
    if only_base:
        msgs.append(f"keys only in baseline: {', '.join(only_base)}")
    return msgs


def check(key, rule, tol, cur, base):
    """Return (ok, verdict) for one key."""
    if rule == "exact":
        return cur == base, "exact match required"
    if rule == "ratio":
        return cur <= tol * base, f"must stay <= {tol:g}x baseline"
    if rule == "ratio_min":
        return cur >= base / tol, f"must stay >= baseline/{tol:g}"
    if rule == "abs_max":
        return cur <= tol, f"must stay <= {tol:g}"
    if rule == "rel":
        band = tol * max(abs(base), 1.0)
        return abs(cur - base) <= band, f"must stay within {tol:g} relative"
    sys.exit(f"error: unknown rule {rule} for {key}")


def run_gate(current_path, baseline_path, rows_filter=None, overrides=None):
    """Run the gate; returns the process exit code (importable for tests)."""
    overrides = overrides or {}
    current, baseline = load(current_path), load(baseline_path)
    if current.get("bench") != baseline.get("bench"):
        print(
            f"perf gate FAILED: bench kind mismatch "
            f"({current.get('bench')!r} vs {baseline.get('bench')!r})"
        )
        return 1

    cur_flat, rules = flatten(current, current_path, rows_filter)
    base_flat, base_rules = flatten(baseline, baseline_path, rows_filter)
    mismatches = keyset_mismatch(cur_flat, base_flat)
    if mismatches:
        for msg in mismatches:
            print(msg)
        print("perf gate FAILED: key sets diverged between current and baseline")
        return 1
    # A scale present in both files gated by the union of both rule
    # derivations (identical by construction once the key sets match).
    rules.update({k: v for k, v in base_rules.items() if k not in rules})
    # A key both files carry but no rule covers would pass ungated.
    unruled = sorted(set(cur_flat) - set(rules))
    if unruled:
        print(f"keys without a gate rule: {', '.join(unruled)}")
        print("perf gate FAILED: every key must have a gate rule")
        return 1

    failures = []
    improvements = []
    width = max(len(k) for k in rules) if rules else 10
    print(f"{'key':<{width}} {'current':>14} {'baseline':>14}  verdict")
    for key in sorted(rules):
        rule, default_tol = rules[key]
        tol = overrides.get(key, overrides.get(key.partition(".")[2], default_tol))
        cur, base = cur_flat[key], base_flat[key]
        ok, band = check(key, rule, tol, cur, base)
        status = "ok" if ok else "FAIL"
        print(f"{key:<{width}} {cur!s:>14} {base!s:>14}  {status} ({band})")
        if not ok:
            failures.append(key)
        elif rule == "ratio" and isinstance(cur, (int, float)) and cur < 0.5 * base:
            improvements.append(key)

    if improvements:
        print(
            f"note: {', '.join(improvements)} improved >2x over baseline — "
            "consider refreshing the committed baseline"
        )
    if failures:
        print(f"perf gate FAILED: {', '.join(failures)} regressed past tolerance")
        return 1
    print("perf gate passed")
    return 0


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__.strip())
    current_path, baseline_path = argv[1], argv[2]

    rows_filter = None
    overrides = {}
    known = {**SOLVER_ROW_RULES, **FLEET_ROW_RULES, **FLEET_TOP_RULES}
    for arg in argv[3:]:
        if arg.startswith("--rows="):
            rows_filter = [r for r in arg[len("--rows=") :].split(",") if r]
            continue
        key, eq, value = arg.partition("=")
        bare = key.partition(".")[2] or key
        if not eq or (bare not in known and key not in known):
            sys.exit(f"error: bad tolerance override `{arg}` (expected KEY=TOL)")
        if known.get(key, known.get(bare))[0] == "exact":
            sys.exit(f"error: `{key}` is gated exactly; its tolerance cannot be overridden")
        try:
            overrides[key] = float(value)
        except ValueError:
            sys.exit(f"error: tolerance `{value}` for {key} is not a number")

    sys.exit(run_gate(current_path, baseline_path, rows_filter, overrides))


if __name__ == "__main__":
    main(sys.argv)
