"""Reference figures: run the benchmark on several seeds and summarise each metric.

Usage, from the repository root::

    python3 bench/figures.py --workload lift --seeds 1-10            # end-to-end metrics
    python3 bench/figures.py --workload lift --seeds 1-10 --trace 1  # per-layer metrics
    python3 bench/figures.py --workload lift --seeds 1-3 --pairs     # tracing overhead

Runs are made one after another, each a fresh ``bench/run.py`` process that
this script waits for. For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median. ``--pairs`` runs every seed untraced and traced,
alternating which goes first, and prints traced ``trace.op_p50_s`` over
untraced ``op_p50_s`` per pair.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", action="store_true")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)

    if args.pairs:
        ratios = []
        for seed in seeds:
            order = (0, 1) if seed % 2 else (1, 0)
            runs = {t: one_run(args.workload, seed, args.seconds, t)["metrics"] for t in order}
            ratio = runs[1]["trace.op_p50_s"]["value"] / runs[0]["op_p50_s"]["value"]
            ratios.append(ratio)
            print(f"seed {seed}: traced / untraced op_p50_s = {ratio:.3f}", flush=True)
        print(f"median ratio {statistics.median(ratios):.3f}")
        return 0

    results = []
    for seed in seeds:
        r = one_run(args.workload, seed, args.seconds, args.trace)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}", flush=True)
    print(f"failed share: {sorted({r['failed'] / r['attempted'] for r in results})}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:28s} {first['unit']:6s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
