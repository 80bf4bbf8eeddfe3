"""One benchmark round in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1

Imports kwise from src/ of the checkout (blocking scipy first for
full_lp_noscipy), builds the workload's inputs, runs its calls in their
fixed order, then checks every output.  Prints one JSON object with the
round's timings, peak memory, operation counts and, in traced rounds, the
per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _import_kwise(block_scipy: bool) -> None:
    if block_scipy:
        sys.modules["scipy"] = None
        sys.modules["scipy.optimize"] = None
    sys.path.insert(0, str(SRC))
    import kwise

    if Path(kwise.__file__).resolve().parent != SRC / "kwise":
        raise RuntimeError(f"kwise imported from {kwise.__file__}, not from {SRC}")


def _problems(op, result) -> list[str]:
    try:
        return op.check(result)
    except Exception:  # a malformed output must fail its check, not the round
        return [f"check raised: {traceback.format_exc(limit=2)}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    start = perf_counter()
    _import_kwise(workload.block_scipy)
    ops, after = workload.build(args.seed)
    setup_s = perf_counter() - start

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    results = []
    start = perf_counter()
    for op in ops:
        try:
            if tracer is not None and op.span:
                results.append((True, tracer.span(op.span, op.call)))
            else:
                results.append((True, op.call()))
        except Exception:
            results.append((False, traceback.format_exc(limit=3)))
    wall_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.remove()
        draw_us = workload.probe(args.seed) if workload.probe else {}
        layers = spans.layer_metrics(tracer, draw_us)

    failed, wrong = [], []
    for op, (ran, result) in zip(ops, results):
        if not ran:
            failed.append(f"{op.label}: {result}")
            continue
        problems = _problems(op, result)
        if problems:
            wrong.append(f"{op.label}: {'; '.join(problems)}")
    for op in after:
        try:
            result = op.call()
        except Exception:
            failed.append(f"{op.label}: {traceback.format_exc(limit=3)}")
            continue
        problems = _problems(op, result)
        if problems:
            wrong.append(f"{op.label}: {'; '.join(problems)}")

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops) + len(after),
        "failed": len(failed) + len(wrong),
        "wrong": len(wrong),
        "problems": failed + wrong,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
