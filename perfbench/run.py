"""avfuse benchmark: run one workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
``perfbench/README.md``).  Scratch files go to ``.bench_work/`` and are
removed; result files and traced spans go to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One process generates the load.  BLAS gets one thread unless the caller
# chose otherwise, so a busy neighbour on the machine stalls one thread rather
# than a team of them.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def fingerprint() -> dict:
    """Where the numbers were measured: interpreter, numpy, BLAS, threads, CPUs."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "AVFUSE_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def _timed_loop(workload, state, seconds: float, tracer=None) -> dict:
    """Closed loop: call after call until ``seconds`` of calls have been timed."""
    durations, items, ops, failed = [], [], 0, 0
    while not durations or sum(durations) < seconds:
        workload.prepare(state)
        if tracer is not None:
            tracer.op = len(durations)
            tracer.enabled = True
        start = time.perf_counter()
        call = workload.call(state)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        durations.append(elapsed)
        items.append(call.items)
        ops += call.ops
        failed += workload.check(state, call)
    return {"durations": durations, "items": items, "ops": ops, "failed": failed}


def _rates(loop: dict) -> tuple[float, float]:
    """(items per second over the loop, median ms per item over its calls)."""
    per_item_ms = [1000.0 * d / n for d, n in zip(loop["durations"], loop["items"])]
    return sum(loop["items"]) / sum(loop["durations"]), statistics.median(per_item_ms)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 results: Path = ROOT / ".bench_results") -> dict:
    """Set up, measure and check one workload; returns the full result record.

    A traced run writes its spans under ``results``.
    """
    import workloads
    from tracer import Tracer

    workload = workloads.make(name, tiny=tiny)
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    load_before = os.getloadavg()[0]
    tracer = Tracer() if trace else None
    spans_path = None
    try:
        setup_s, digests, state = [], set(), None
        for i in range(1 if trace else workload.setups):
            state = None  # drop the previous set-up before building a new one
            gc.collect()
            start = time.perf_counter()
            if tracer is None:
                state = workload.setup(seed, work / f"setup-{i}")
            else:
                with tracer:
                    tracer.enabled = True
                    state = workload.setup(seed, work / f"setup-{i}")
                    tracer.enabled = False
            setup_s.append(time.perf_counter() - start)
            digests.add(workload.setup_digest(state))
        same_setups = len(digests) == 1

        workload.warmup(state)
        loop = _timed_loop(workload, state, seconds)
        rate, p50_ms = _rates(loop)
        result_metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "items_per_s": {"value": rate, "unit": "1/s"},
            "item_ms_p50": {"value": p50_ms, "unit": "ms"},
        }
        named = workload.named(rate, p50_ms, state)
        attempted, failed = loop["ops"], loop["failed"]

        if tracer is not None:
            tracer.phase = "timed"
            with tracer:
                traced = _timed_loop(workload, state, seconds, tracer)
            traced_rate, _ = _rates(traced)
            layer = tracer.layer_metrics(traced["ops"], sum(traced["durations"]))
            layer["trace_overhead_pct"] = 100.0 * (rate / traced_rate - 1.0)
            result_metrics = {key: {"value": value, "unit": _unit(key)}
                              for key, value in sorted(layer.items())}
            attempted += traced["ops"]
            failed += traced["failed"]
            results.mkdir(parents=True, exist_ok=True)
            spans_path = results / f"{name}-seed{seed}.spans.npz"
            tracer.write_spans(spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    return {
        "result": {"correct": failed == 0 and same_setups, "attempted": attempted,
                   "failed": failed, "metrics": result_metrics},
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "calls": len(loop["durations"]),
        "setup_s_each": setup_s,
        "setups_identical": same_setups,
        "named": named,
        "fingerprint": fingerprint(),
        "load_avg_1min": {"before": load_before, "after": os.getloadavg()[0]},
        "spans": str(spans_path) if spans_path else None,
    }


def _unit(metric: str) -> str:
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_ms") or metric.endswith(".ms"):
        return "ms"
    if metric.endswith("_share"):
        return "fraction"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the avfuse sources under {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}, sort_keys=True))
    print(json.dumps(record["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
