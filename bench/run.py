"""kwise benchmark: one workload, several fresh-process rounds, medians.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kwise checkout (it imports kwise from src/).  Each
round runs `bench/worker.py` in a fresh interpreter, so every round pays
the same cold caches and lazy imports in the same fixed call order.  Rounds
repeat until the next one would end past --seconds (at least three).

--trace 0 prints the end-to-end metrics: the median over rounds of the
timed section (wall_s), of importing kwise plus building the inputs
(setup_s), and of the round's peak resident memory (peak_rss_mb).
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics (medians over traced rounds), the tracing overhead against the
untraced rounds, and a fixed pure-Python loop timed beside the rounds.

The last line of stdout is the JSON result; round problems go to stderr.
Exits 2 without a result when the checkout holds no kwise sources.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 3  # untraced rounds per run; traced runs make two (untraced, traced) pairs
MIN_PAIRS = 2
ROUND_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def host_loop_s() -> float:
    """Median of three timings of a fixed pure-Python loop: host drift."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_round(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"round exceeded {ROUND_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kwise" / "__init__.py").is_file():
        print(f"error: no kwise sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    loop_before = host_loop_s()
    plan = [0, 1] if args.trace else [0]  # trace flags of one repetition
    rounds: list[tuple[int, dict]] = []
    start = perf_counter()
    while True:
        rep_start = perf_counter()
        for flag in plan:
            rounds.append((flag, run_round(args.workload, args.seed, flag)))
        elapsed = perf_counter() - start
        enough = len(rounds) // len(plan) >= (MIN_PAIRS if args.trace else MIN_ROUNDS)
        if enough and elapsed + (perf_counter() - rep_start) > args.seconds:
            break
        if enough and any("crashed" in r for _, r in rounds):
            break
    host = statistics.median([loop_before, host_loop_s()])

    attempted = failed = 0
    wrong = False
    for _, r in rounds:
        if "crashed" in r:
            print(f"round crashed: {r['crashed']}", file=sys.stderr)
            wrong = True
            continue
        attempted += r["attempted"]
        failed += r["failed"]
        wrong = wrong or r["wrong"] > 0
        for problem in r["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
    ok = [(flag, r) for flag, r in rounds if "crashed" not in r]
    plain = [r for flag, r in ok if flag == 0]
    traced = [r for flag, r in ok if flag == 1]
    if not ok:
        attempted = max(attempted, 1)
        failed = attempted

    metrics = {}
    if args.trace == 0 and plain:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(r[name] for r in plain), "unit": unit}
    elif traced and plain:
        for name in traced[0]["layers"]:
            unit = unit_of(name)
            middle = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = {"value": middle(r["layers"][name] for r in traced), "unit": unit}
        base = statistics.median(r["wall_s"] for r in plain)
        metrics["trace.overhead_pct"] = {
            "value": 100 * (statistics.median(r["wall_s"] for r in traced) / base - 1),
            "unit": "%"}
        metrics["host.loop_s"] = {"value": host, "unit": "s"}
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} host.loop_s={host:.4f} "
          + " ".join(f"{flag}:{r.get('wall_s', float('nan')):.3f}" for flag, r in rounds),
          file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
