"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep|lab|exact --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The workload runs in a fresh single-threaded
child process (perfbench/child.py) that imports the package from ``src``;
with --trace 0 five more fresh processes time the set-up.  The last line of
standard output is one JSON object: {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from reference import REFERENCE_S, time_kernel
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, extra: list[str], workdir: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, *extra]
    return subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("sweep", "lab", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "boolebell", "cli.py")):
        print("error: run from the repository root; src/boolebell is missing",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-p{os.getpid()}")

    proc = run_child(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     workdir)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload process exited with status {proc.returncode}",
              file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])
    if not args.trace and raw["check_rss_growth_mb"] > 1.0:
        print(f"warning: checks raised peak RSS by {raw['check_rss_growth_mb']:.1f} MB",
              file=sys.stderr)

    if args.trace:
        metrics = raw["layer_metrics"]
    else:
        setups, kernel_s = [], [time_kernel() for _ in range(3)]
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            setup = run_child(args, ["--setup-only"], workdir + "-setup")
            setups.append(time.perf_counter() - t0)
            kernel_s.append(time_kernel())
            if setup.returncode != 0:
                print(f"error: set-up process exited with status {setup.returncode}",
                      file=sys.stderr)
                return 1
        lat_ms = [ns / 1e6 for ns in raw["latencies_ns"]]
        timed_s = sum(lat_ms) / 1e3
        deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
        measured = {"setup_s": statistics.median(setups),
                    "items_per_s": sum(raw["items"]) / timed_s,
                    "op_p50_ms": deciles[4], "op_p90_ms": deciles[8]}
        run_scale = REFERENCE_S / statistics.median(raw["kernel_s"])
        setup_scale = REFERENCE_S / statistics.median(kernel_s)
        scaled = {"setup_s": measured["setup_s"] * setup_scale,
                  "items_per_s": measured["items_per_s"] / run_scale,
                  "op_p50_ms": measured["op_p50_ms"] * run_scale,
                  "op_p90_ms": measured["op_p90_ms"] * run_scale}
        units = {"setup_s": "s", "items_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in scaled.items()}
        metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB"}
        print(f"{args.workload}: {raw['ops']} timed operations, "
              f"{sum(raw['items'])} items in {timed_s:.3f} s; reference kernel "
              f"{statistics.median(raw['kernel_s']) * 1e3:.3f} ms (run), "
              f"{statistics.median(kernel_s) * 1e3:.3f} ms (set-up)", file=sys.stderr)
        print("unscaled: " + json.dumps(measured), file=sys.stderr)
    # failed operations are counted in "failed"; "correct" speaks of the
    # rest, which includes the untimed warm-up operations
    print(json.dumps({"correct": raw["warmup_failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
