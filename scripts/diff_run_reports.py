#!/usr/bin/env python3
"""Compare two vb-telemetry JSONL run reports for determinism.

Usage: diff_run_reports.py A.jsonl B.jsonl

Compares the *metric values* of the two reports — counters,
float_counters and histogram shapes from the summary line —
the multiset of events, and the per-epoch series lines. Quantities
that legitimately differ between runs are excluded:

* spans (wall-clock timings, *_ns),
* the `elapsed_secs` event field (timing),
* `par.workers` / `par.worker_tasks` (reflect the thread count by
  design; `par.tasks` — the amount of work — must still match),
* `trace.anchor_draws` / `trace.anchor_copied` (per-thread memo work,
  which depends on the thread count by design),
* wall-clock series columns (`secs`).

Exit status 0 when the filtered reports are identical, 1 with a diff
on stdout otherwise.
"""

import json
import sys

# `trace.anchor_draws` / `trace.anchor_copied` count the work of each
# synthesizing thread's anchor-draw memo, and every vb-par worker starts
# with an empty memo, so they depend on the thread count by design (the
# outputs the memo serves do not).
EXCLUDED_METRICS = {
    "par.workers",
    "par.worker_tasks",
    "trace.anchor_draws",
    "trace.anchor_copied",
}
EXCLUDED_EVENT_FIELDS = {"elapsed_secs"}
EXCLUDED_SERIES_COLUMNS = {"secs"}


def load(path):
    # A missing or empty report means the bench never ran (or wrote
    # nowhere) — that must be a hard failure, not a vacuous "match".
    events = []
    series = []
    summary = None
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        sys.exit(f"error: cannot read run report {path}: {err}")
    if not text.strip():
        sys.exit(f"error: run report {path} is empty")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            sys.exit(f"error: {path}:{lineno}: malformed JSON: {err}")
        if obj.get("type") == "summary":
            summary = obj
        elif obj.get("type") == "series":
            series.append(obj)
        else:
            events.append(obj)
    if summary is None:
        sys.exit(f"error: {path}: no summary line found")
    return events, series, summary


def filtered_summary(summary):
    out = {}
    for section in ("counters", "float_counters", "histograms"):
        values = summary.get(section, {})
        out[section] = {
            name: value
            for name, value in sorted(values.items())
            if name not in EXCLUDED_METRICS
        }
    return out


def filtered_events(events):
    # Parallel workers interleave event emission, so seq order is not
    # deterministic — compare the sorted multiset instead.
    normalized = []
    for event in events:
        fields = {
            key: value
            for key, value in event.get("fields", {}).items()
            if key not in EXCLUDED_EVENT_FIELDS
        }
        normalized.append(
            json.dumps({"kind": event.get("kind"), "fields": fields}, sort_keys=True)
        )
    return sorted(normalized)


def filtered_series(series):
    # Series are keyed by (name, instance); within one report each key
    # appears once. Everything except wall-clock columns must be
    # bit-identical — epochs included.
    out = {}
    for entry in series:
        key = (entry.get("name"), entry.get("instance"))
        if key in out:
            sys.exit(f"error: duplicate series {key[0]}/{key[1]} in one report")
        out[key] = {
            "epochs": entry.get("epochs"),
            "columns": {
                name: values
                for name, values in sorted(entry.get("columns", {}).items())
                if name not in EXCLUDED_SERIES_COLUMNS
            },
        }
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    (events_a, series_a, summary_a), (events_b, series_b, summary_b) = (
        load(sys.argv[1]),
        load(sys.argv[2]),
    )
    ok = True

    fa, fb = filtered_summary(summary_a), filtered_summary(summary_b)
    for section in fa:
        if fa[section] != fb[section]:
            ok = False
            keys = set(fa[section]) | set(fb[section])
            for key in sorted(keys):
                va, vb = fa[section].get(key), fb[section].get(key)
                if va != vb:
                    print(f"{section}.{key}: {va!r} != {vb!r}")

    ea, eb = filtered_events(events_a), filtered_events(events_b)
    if ea != eb:
        ok = False
        only_a = [e for e in ea if e not in eb]
        only_b = [e for e in eb if e not in ea]
        for e in only_a[:10]:
            print(f"only in {sys.argv[1]}: {e}")
        for e in only_b[:10]:
            print(f"only in {sys.argv[2]}: {e}")

    sa, sb = filtered_series(series_a), filtered_series(series_b)
    if sa != sb:
        ok = False
        for key in sorted(set(sa) | set(sb)):
            va, vb = sa.get(key), sb.get(key)
            if va == vb:
                continue
            name = f"{key[0]}/{key[1]}"
            if va is None or vb is None:
                where = sys.argv[1] if vb is None else sys.argv[2]
                print(f"series {name}: only in {where}")
                continue
            if va["epochs"] != vb["epochs"]:
                print(f"series {name}: epoch axes differ")
            for col in sorted(set(va["columns"]) | set(vb["columns"])):
                if va["columns"].get(col) != vb["columns"].get(col):
                    print(f"series {name}.{col}: values differ")

    if not ok:
        sys.exit(1)

    # A "match" between two reports with nothing left after filtering
    # would certify nothing — treat it as a broken harness.
    compared = sum(len(fa[section]) for section in fa) + len(ea) + len(sa)
    if compared == 0:
        sys.exit("error: no comparable metrics or events after exclusions")
    print(
        f"run reports match ({compared} metrics/events/series compared; "
        "timings and worker counts excluded)"
    )


if __name__ == "__main__":
    main()
