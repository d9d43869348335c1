#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench_driver against the engine's own bdcc_core target (same
build type, same flags) and runs one closed-loop workload:

    python3 perfbench/run.py --workload power --seed 1 --seconds 25 --trace 0

The last stdout line is one JSON object with exactly the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1 (names and units from BENCHMARK.json).
With --trace 1 the driver also writes a Chrome trace-event file under
.bench_build/perfbench/. The command exits non-zero when an output check
failed, when the engine sources are missing, or when a metric is missing.

    python3 perfbench/run.py --steadiness [--seconds 25]

runs every workload 10 times with seeds 1..10 and prints, per end-to-end
metric, the median, the quartiles and the relative IQR against the metric's
bound; it then reruns power on two seeds and asserts that its deterministic
counts repeat exactly. --write FILE also stores the report.
"""
import argparse
import fnmatch
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
RESULT_PREFIX = "PERFBENCH_RESULT "
# Each run, traced or not, ends well within this; a hung driver is killed.
RUN_TIMEOUT_S = 170
STEADINESS_RUNS = 10

# Per-layer metrics of layers a workload does no work in: these report 0
# there. Any other per-layer metric a workload leaves out is an error.
NOT_EXERCISED = {
    "power": ["serve.*", "delta.*"],
    "serve": ["exec.*.plain", "exec.*.pk", "io.*", "tpch.q*",
              "tpch.geomean_ms.*", "bdcc.groups_read",
              "bdcc.group_prune_ratio", "bdcc.sandwich_partitions",
              "delta.*"],
    "live": ["exec.*", "io.*", "tpch.q*", "tpch.geomean_ms.*",
             "bdcc.groups_read", "bdcc.group_prune_ratio",
             "bdcc.sandwich_partitions", "serve.*"],
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: engine sources missing: no {needed} next "
                     "to perfbench/")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_driver", "-j", "4"],
                   stdout=sys.stderr, check=True)


def run_driver(workload, seed, seconds, trace):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, f"trace-{workload}-{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line, file=sys.stderr)
    if result is None:
        sys.exit(f"perfbench: driver exited {proc.returncode} without a "
                 "result")
    return result


def select_metrics(spec, workload, result, trace):
    if trace:
        group, source = spec["per_layer"], result["traced_metrics"]
        idle = NOT_EXERCISED[workload]
    else:
        group, source = spec["end_to_end"], result["metrics"]
        idle = []
    metrics, missing = {}, []
    for m in group:
        value = source.get(m["name"])
        if value is None and any(fnmatch.fnmatchcase(m["name"], p)
                                 for p in idle):
            value = 0.0
        if value is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if missing:
        sys.exit("perfbench: workload reported no " + ", ".join(missing))
    return metrics


def run_once(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(one of {', '.join(names)})")
    build()
    result = run_driver(args.workload, args.seed, args.seconds, args.trace)
    for error in result["errors"]:
        log(f"ERROR {error}")
    print("perfbench-info " + json.dumps(result["info"], sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": select_metrics(spec, args.workload, result, args.trace),
    }))
    return 0 if result["correct"] else 1


# Counts the power workload must repeat exactly for one seed: serial cold
# runs against deterministic simulated pools.
def deterministic_power_metrics(metrics):
    return {k: v for k, v in metrics.items()
            if k.split(".")[0] in ("exec", "io", "bdcc")
            or k == "peak_mem_mb"}


def steadiness(args):
    spec = load_spec()
    build()
    out = [f"# Steadiness report: {STEADINESS_RUNS} runs per workload, "
           f"seeds 1..{STEADINESS_RUNS}, {args.seconds} s each", ""]
    ok = True
    first_power = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs, walls = [], []
        for seed in range(1, STEADINESS_RUNS + 1):
            start = time.monotonic()
            result = run_driver(workload, seed, args.seconds, 0)
            walls.append(time.monotonic() - start)
            runs.append(result)
            log(f"{workload} seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}")
            if workload == "power" and seed <= 2:
                first_power[seed] = result["metrics"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok &= failed == 0 and all(r["correct"] for r in runs)
        info = runs[0]["info"]
        threads = {k: v for k, v in info.items() if k.endswith("_threads")}
        out.append(f"## {workload}")
        out.append("")
        out.append(f"host_cpus {info.get('host_cpus')}, threads {threads}, "
                   f"error_rate {failed}/{attempted}, driver wall "
                   f"{statistics.mean(walls):.1f} s per run (mean)")
        out.append("")
        out.append("| metric | unit | median | q1 | q3 | IQR/median | "
                   "bound | IQR/bound |")
        out.append("|---|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            rel = (q3 - q1) / median if median else 0.0
            out.append(f"| {m['name']} | {m['unit']} | {median:.6g} | "
                       f"{q1:.6g} | {q3:.6g} | {rel:.4f} | {m['bound']} | "
                       f"{rel / m['bound']:.2f} |")
        out.append("")
    # Determinism: the same seed must give the same power counts.
    out.append("## power determinism (same seed, second run)")
    out.append("")
    for seed, before in sorted(first_power.items()):
        after = run_driver("power", seed, args.seconds, 0)["metrics"]
        want = deterministic_power_metrics(before)
        diffs = [k for k, v in want.items() if after.get(k) != v]
        ok &= not diffs
        out.append(f"- seed {seed}: {len(want)} counts compared, "
                   f"{len(diffs)} differ" +
                   (f" ({', '.join(sorted(diffs))})" if diffs else ""))
    out.append("")
    report = "\n".join(out)
    print(report)
    if args.write:
        with open(args.write, "w") as f:
            f.write(report)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--write")
    args = parser.parse_args()
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
