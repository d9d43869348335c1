#!/usr/bin/env python3
"""Warn-only benchmark regression check over well-formed inputs.

Compares the JSON lines emitted by the CI bench smoke run against the
committed perf-trajectory baseline (BENCH_pr18.json). Rows are matched on
their config keys (bench/mode/build_rows/threads, and any other non-metric
fields); for each matched row, every *throughput* metric (keys ending in
"_per_s") that dropped more than the threshold, and every *tail-latency*
metric (keys ending in "p99_ms") that rose more than the threshold, prints
a GitHub warning annotation. Regressions never fail the build: machine-to-machine variance
(the committed baselines may come from a different core count — see the
host_cpus field) makes a hard gate meaningless, but a printed warning makes
a real regression visible in the PR checks.

Broken *inputs* do fail the build, though: an unreadable file, a file with
zero valid benchmark rows, or a line that looks like JSON but does not
parse all exit non-zero. A silently-empty comparison reads as "no
regressions" in CI when it actually means "the smoke run produced garbage".

Rows whose host_cpus differs between baseline and smoke run are skipped
outright: a wall-clock comparison across machines with different core
counts is noise, not signal. The summary line reports how many rows were
skipped for that reason.

Usage: check_bench_regression.py <smoke.jsonl> <baseline.json> [threshold]
"""
import json
import sys

# Fields that describe the measurement rather than the configuration.
METRIC_PREFIXES = ("build_ms", "probe_ms", "wall_ms", "time_ms")
METRIC_SUFFIXES = ("_per_s", "_ms", "_kb", "_bytes")
METRIC_NAMES = ("qps",)
# host_cpus is handled by the explicit mismatch skip; the lifecycle
# counters (morsels_cancelled & co.) are emitted only when nonzero, so they
# must not take part in row matching or healthy baseline rows would never
# match a faulted smoke row and vice versa.
IGNORED_KEYS = (
    "host_cpus",
    "out_rows",
    # No bench emits "partitions" any more, but the micro_join build-sweep
    # rows of BENCH_pr18.json carry it; ignoring it keeps their serial rows
    # matched until that baseline is re-recorded.
    "partitions",
    "morsels_cancelled",
    "budget_denials",
    "faults_injected",
    # Delta-leg counters (nonzero only when a plan scanned unmerged
    # appends) and the derived merge-restore ratio: informational, never
    # part of row identity.
    "delta_rows_scanned",
    "delta_chunks",
    "restore_ratio",
    # Throughput-bench outcome counters: how many queries landed in each
    # terminal state varies run to run (shedding is timing-dependent), so
    # they can neither key a row nor be compared as a metric.
    "ok",
    "shed",
    "cancelled",
    "exhausted",
    "errors",
    "retries",
)


def is_metric(key):
    return (
        key.endswith(METRIC_SUFFIXES)
        or key.startswith(METRIC_PREFIXES)
        or key in METRIC_NAMES
    )


def config_key(row):
    items = []
    for k, v in sorted(row.items()):
        if is_metric(k) or k in IGNORED_KEYS:
            continue
        items.append((k, v))
    return tuple(items)


def load_rows(path):
    """Parse one JSON-lines file into {config_key: row}.

    Blank lines and non-JSON chatter (benchmark table output sharing the
    stream) are tolerated; a line that *starts* like JSON but fails to
    parse, an unreadable file, or a file with no benchmark rows at all is
    a fatal input error (exit 1) rather than a silent zero-row comparison.
    """
    rows = {}
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as e:
                    sys.exit(f"error: {path}:{lineno}: malformed JSON: {e}")
                if "bench" in row:
                    rows[config_key(row)] = row
    except OSError as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if not rows:
        sys.exit(f"error: {path}: no benchmark JSON rows found")
    return rows


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    smoke = load_rows(sys.argv[1])
    baseline = load_rows(sys.argv[2])
    try:
        threshold = float(sys.argv[3]) if len(sys.argv) > 3 else 0.25
    except ValueError:
        sys.exit(f"error: threshold must be a number, got {sys.argv[3]!r}")

    matched = warned = skipped = 0
    for key, base_row in baseline.items():
        got = smoke.get(key)
        if got is None:
            skipped += 1  # baseline config absent from the smoke run
            continue
        if base_row.get("host_cpus") != got.get("host_cpus"):
            skipped += 1  # host_cpus mismatch: cross-machine noise
            continue
        matched += 1
        for metric, base_val in base_row.items():
            # Throughput (higher is better) warns on a drop; p99 tail
            # latency (lower is better) warns on a rise. Mean/p50 latency
            # is deliberately not gated — the tail is what the serving
            # layer's admission limits are supposed to protect.
            if metric.endswith("_per_s") or metric in METRIC_NAMES:
                direction = "dropped"
            elif metric.endswith("p99_ms"):
                direction = "rose"
            else:
                continue
            new_val = got.get(metric)
            if not isinstance(base_val, (int, float)) or not base_val:
                continue
            if not isinstance(new_val, (int, float)):
                continue
            delta = (
                1.0 - new_val / base_val
                if direction == "dropped"
                else new_val / base_val - 1.0
            )
            if delta > threshold:
                cfg = " ".join(f"{k}={v}" for k, v in key)
                print(
                    f"::warning title=bench regression::{cfg} {metric} "
                    f"{direction} {delta * 100:.0f}% "
                    f"({base_val:.3g} -> {new_val:.3g})"
                )
                warned += 1
    print(
        f"bench-regression: {matched} matched, {skipped} skipped, "
        f"{warned} warned (threshold {threshold * 100:.0f}%)"
    )
    return 0  # regressions warn-only by design; input errors exited above


if __name__ == "__main__":
    sys.exit(main())
