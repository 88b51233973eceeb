"""One workload in one fresh process: warm-up, timed rounds, checks.

Started by run.py with the package on PYTHONPATH; prints one JSON line with
the raw figures.  With --setup-only it imports the package, runs one
bottom-size warm-up operation of each kind and exits, so that run.py can time
the whole fresh-process set-up.
"""

from __future__ import annotations

import argparse
from array import array
import json
import os
import resource
import shutil
import sys
import time

MIN_OPS = 100
KERNEL_EVERY_S = 0.25


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cleanup(op: dict) -> None:
    for key in ("events_out", "out", "input"):
        path = op.get(key)
        if path and os.path.exists(path):
            os.remove(path)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import boolebell  # noqa: F401
    import boolebell.cli  # noqa: F401
    from workloads import Plan, Runner, expected_calls

    os.makedirs(args.workdir, exist_ok=True)
    plan = Plan(args.workload, args.seed, args.workdir)
    runner = Runner()
    if args.setup_only:
        for op in plan.warmups(0.0):
            runner.prepare(op)()
        shutil.rmtree(args.workdir, ignore_errors=True)
        return 0

    from checks import Checker
    from reference import time_kernel
    checker = Checker(os.path.join("src", "boolebell", "schemas", "report.schema.json"))
    failed = attempted = 0
    errors_shown = 0

    def check(op, out) -> bool:
        nonlocal errors_shown
        errors = checker.check(op, out)
        if errors and errors_shown < 10:
            errors_shown += 1
            print(f"check failed: {op['kind']} {json.dumps(op)[:300]}: "
                  f"{'; '.join(errors[:3])}", file=sys.stderr)
        return not errors

    # warm-up at the top of each range: the largest operations set the
    # process's peak memory before any check runs
    warm = plan.warmups(1.0)
    outs = [runner.prepare(op)() for op in warm]
    warmup_failed = 0
    for op, out in zip(warm, outs):
        if not check(op, out):
            warmup_failed += 1
            print(f"warm-up operation {op['kind']} failed its check", file=sys.stderr)
        _cleanup(op)
    del outs

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    # compact per-operation records: a list of operation dicts would grow
    # with the run and show up in the child's peak RSS
    latencies, items = array("q"), array("q")
    kinds: dict[str, int] = {}
    expected: dict[str, int] = {}
    traced_ns = untraced_ns = 0
    rss_check_growth = 0.0
    kernel_s = [time_kernel() for _ in range(3)]
    t_start = last_kernel = time.perf_counter()
    while time.perf_counter() - t_start < args.seconds or len(latencies) < MIN_OPS:
        for op in plan.round():
            if tracer is None:
                call = runner.prepare(op)
                t0 = time.perf_counter_ns()
                out = call()
                ns = time.perf_counter_ns() - t0
                runs = [out]
            else:
                # untraced and traced runs of the same operation, in
                # alternating order, give the tracing overhead
                runs = []
                for traced in ((False, True) if len(latencies) % 2 == 0 else (True, False)):
                    call = runner.prepare(op)
                    if traced:
                        ns_t, out = tracer.run_op(op["kind"], call)
                        traced_ns += ns_t
                    else:
                        t0 = time.perf_counter_ns()
                        out = call()
                        untraced_ns += time.perf_counter_ns() - t0
                    runs.append(out)
                ns = 0
                for name, k in expected_calls(op).items():
                    expected[name] = expected.get(name, 0) + k
            before = _peak_rss_mb()
            for out in runs:
                attempted += 1
                failed += not check(op, out)
            rss_check_growth += _peak_rss_mb() - before
            _cleanup(op)
            if time.perf_counter() - last_kernel >= KERNEL_EVERY_S:
                kernel_s.append(time_kernel())
                last_kernel = time.perf_counter()
            latencies.append(ns)
            items.append(op["items"])
            kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1

    result = {"attempted": attempted, "failed": failed, "ops": len(latencies),
              "warmup_failed": warmup_failed,
              "latencies_ns": latencies.tolist(), "items": items.tolist(),
              "kernel_s": kernel_s,
              "peak_rss_mb": _peak_rss_mb(),
              "check_rss_growth_mb": rss_check_growth}
    if tracer is not None:
        from tracing import MEMORY_TARGETS, layer_metrics
        # peak allocations come from a separate pass over the top-size
        # operations, so that tracemalloc's cost stays out of the timings
        for op in plan.warmups(1.0):
            if set(expected_calls(op)) & set(MEMORY_TARGETS):
                tracer.measure_memory(runner.prepare(op))
                _cleanup(op)
        metrics, mismatches = layer_metrics(tracer, kinds, sum(items), expected,
                                            traced_ns, untraced_ns)
        for line in mismatches:
            print(f"call-count mismatch: {line}", file=sys.stderr)
        for name in tracer.absent:
            print(f"absent from the program: {name}", file=sys.stderr)
        tracer.write_spans(os.path.join(os.path.dirname(args.workdir),
                                        f"spans-{args.workload}-{args.seed}.csv"))
        result["layer_metrics"] = metrics
    shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
