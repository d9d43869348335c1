#!/usr/bin/env python3
"""Diff the tracked peak memory of every (scheme, query) of two power runs.

    python3 perfbench/run.py --workload power --seed 7 --trace 1
    python3 scripts/compare_query_peaks.py BASE.json CHANGE.json

Both inputs are Chrome trace-event files that `perfbench/run.py --workload
power --trace 1` writes (`.bench_build/perfbench/trace-power-<seed>.json`).
Each `tpch.RunTpchQuery` span carries the scheme, the query, the rep and the
query's tracked peak (`peak_bytes`); rep 0 runs every query once on every
scheme, so its spans are compared.

Prints every (scheme, query) whose peak changed, then each scheme's total.
Exits 1 when any peak rose, 2 on unreadable input or when the two files do
not cover the same (scheme, query) pairs, and 0 otherwise.
"""
import json
import sys

SPAN = "tpch.RunTpchQuery"
MIB = 1048576.0


def load_peaks(path):
    """(scheme, query) -> peak bytes of the rep-0 spans in `path`."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        sys.exit(f"compare_query_peaks: cannot read {path}: {e}")
    peaks = {}
    for e in events:
        args = e.get("args", {})
        if e.get("name") != SPAN or args.get("rep") != "0":
            continue
        key = (args["scheme"], int(args["query"]))
        if key in peaks:
            print(f"compare_query_peaks: {path}: {key} appears twice in rep 0",
                  file=sys.stderr)
            sys.exit(2)
        peaks[key] = int(args["peak_bytes"])
    if not peaks:
        print(f"compare_query_peaks: {path}: no rep-0 {SPAN} spans",
              file=sys.stderr)
        sys.exit(2)
    return peaks


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load_peaks(argv[1]), load_peaks(argv[2])
    if base.keys() != change.keys():
        missing = sorted(base.keys() ^ change.keys())
        print(f"compare_query_peaks: pairs in only one file: {missing}",
              file=sys.stderr)
        return 2
    rises = 0
    for scheme, query in sorted(base):
        before, after = base[(scheme, query)], change[(scheme, query)]
        if before == after:
            continue
        change_pct = (after - before) / before * 100 if before else float("inf")
        mark = "ROSE" if after > before else "fell"
        rises += after > before
        print(f"{scheme:5} Q{query:02d} {before:>10} -> {after:>10} B "
              f"({change_pct:+.1f}%) {mark}")
    for scheme in sorted({s for s, _ in base}):
        total_before = sum(v for (s, _), v in base.items() if s == scheme)
        total_after = sum(v for (s, _), v in change.items() if s == scheme)
        print(f"{scheme:5} total {total_before / MIB:.2f} -> "
              f"{total_after / MIB:.2f} MiB")
    print(f"{rises} of {len(base)} (scheme, query) peaks rose")
    return 1 if rises else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
