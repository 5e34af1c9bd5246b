"""Benchmark of fglift's lift, query and evaluate paths.

Usage, from the repository root::

    python3 bench/run.py --workload lift --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke

One run is one single-threaded process: it prepares the workload's pool
(set-up, repeated and reported as a median), makes one untimed warm-up
pass, then times whole rounds over the pool until ``--seconds`` have
passed. Every output is checked outside the timed region. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). Traced runs also write their spans
to ``bench/out/``.
"""
from __future__ import annotations

import os

# Set before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5


def _import_program():
    """Import fglift from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fglift" / "__init__.py").is_file():
        raise SystemExit(f"error: no fglift sources under {src}")
    sys.path.insert(0, str(src))
    import fglift

    if Path(fglift.__file__).resolve().parent != (src / "fglift").resolve():
        raise SystemExit(f"error: imported fglift from {fglift.__file__}, not {src}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    from fglift import InconsistentEvidence
    from tracing import Calls, Tracer, wrapped_bindings
    from workloads import WORKLOADS, CheckFailure

    wl = WORKLOADS[workload]
    spec = wl.select(seed, scale)

    def set_up():
        gc.collect()
        calls = Calls()
        inputs = wl.setup(workload, seed, scale, calls, spec)
        return inputs, calls.seconds

    # Set-up is repeated SETUP_REPEATS times: once here, the rest spread
    # over the timed phase so that they meet the machine at different times.
    inputs, first = set_up()
    setup_times = [first]
    ops = wl.operations(inputs, seed)

    def attempt(op, calls):
        """Run one operation; returns (output, error, seconds). Only the kept fault is caught."""
        start = time.perf_counter()
        try:
            out, err = op.run(calls), None
        except InconsistentEvidence as e:
            if not op.may_fail:
                raise
            out, err = None, e
        return out, err, time.perf_counter() - start

    correct = True

    def verify(op, out, err, reference=None) -> bool:
        try:
            op.check(out, err)
            if reference is not None and reference != (out, None if err is None else str(err)):
                raise CheckFailure("output differs from the warm-up pass")
        except CheckFailure as e:
            print(f"check failed: {op.label}: {e}", file=sys.stderr)
            return False
        return True

    # Warm-up pass: fills the program's caches, and its checked outputs are
    # the references later operations must reproduce.
    references = []
    for op in ops:
        out, err, _ = attempt(op, Calls())
        correct &= verify(op, out, err)
        references.append((out, None if err is None else str(err)))

    tracer = Tracer() if trace else None
    durations: list[float] = []
    attempted = failed = 0
    gc.collect()
    gc.freeze()
    with wrapped_bindings(tracer) if trace else nullcontext():
        calls = Calls(tracer)
        if trace:
            traced_inputs = wl.setup(workload, seed, scale, calls, spec)
            if traced_inputs != inputs:
                raise CheckFailure("traced set-up produced different inputs")
        start = time.perf_counter()
        paused = 0.0  # spent in set-up repeats, not counted against --seconds
        round_no = 0
        while round_no == 0 or time.perf_counter() - start - paused < seconds:
            due = (time.perf_counter() - start - paused) * SETUP_REPEATS / seconds if seconds else 0
            if not trace and len(setup_times) < min(SETUP_REPEATS, 1 + due):
                before = time.perf_counter()
                setup_times.append(set_up()[1])
                paused += time.perf_counter() - before
            for i, op in enumerate(ops):
                gc.collect()
                if trace:
                    tracer.begin_op(f"r{round_no}/{i}", "op", round_no)
                    with tracer.span(f"{workload}.op"):
                        out, err, dt = attempt(op, calls)
                    if op.after_traced is not None:
                        op.after_traced(calls)
                else:
                    out, err, dt = attempt(op, calls)
                durations.append(dt)
                attempted += 1
                failed += err is not None
                correct &= verify(op, out, err, references[i])
            round_no += 1
    while not trace and len(setup_times) < SETUP_REPEATS:
        setup_times.append(set_up()[1])
    gc.unfreeze()

    if not trace:
        metrics = {
            "op_p50_s": {"value": median(durations), "unit": "s"},
            "ops_per_s": {"value": attempted / sum(durations), "unit": "1/s"},
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    else:
        try:
            _cli_probe(tracer, wl.probe(inputs))
        except CheckFailure as e:
            print(f"check failed: cli: {e}", file=sys.stderr)
            correct = False
        metrics = tracer.metrics(median(durations))
        tracer.write(
            OUT_DIR / f"trace-{workload}-seed{seed}.json",
            {"workload": workload, "seed": seed, "scale": scale, "rounds": round_no},
        )
    return {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}


def _cli_probe(tracer, probe) -> None:
    """One in-process ``fglift lift`` call with its files in a temporary directory."""
    from fglift import parse_model
    from fglift.cli import main
    from workloads import CheckFailure

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmp_path = Path(tmp)
        (tmp_path / "in.fg").write_text(probe.text)
        argv = ["lift", "--model", str(tmp_path / "in.fg"), "--theta", "0",
                "--out", str(tmp_path / "out.fg"), "--report", str(tmp_path / "report.txt"),
                "--grouping", str(tmp_path / "grouping.txt"), "--strict"]
        if probe.bk_text is not None:
            (tmp_path / "bk.txt").write_text(probe.bk_text)
            argv += ["--bk", str(tmp_path / "bk.txt"), "--rtol", repr(probe.rtol)]
        tracer.begin_op("cli", "cli")
        with tracer.span("cli.lift"):
            code = main(argv)
        if code != 0:
            raise CheckFailure(f"fglift lift exited {code}")
        if parse_model((tmp_path / "out.fg").read_text()) != probe.truth:
            raise CheckFailure("fglift lift output does not parse back to the truth")


def smoke() -> bool:
    """Every workload at a tiny size, untraced and traced, plus the oracle self-test."""
    from oracle import self_test

    ok = True
    start = time.perf_counter()
    self_test()
    print(f"oracle self-test ok ({time.perf_counter() - start:.2f} s)")
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace in (False, True):
            start = time.perf_counter()
            result = run(name, seed=1, seconds=0.05, trace=trace, scale="smoke")
            ok &= result["correct"]
            print(f"{name} trace={int(trace)}: attempted={result['attempted']} "
                  f"failed={result['failed']} ({time.perf_counter() - start:.2f} s)")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("lift", "lift-bk", "query", "evaluate"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at a tiny size, with all checks")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    if args.smoke:
        return 0 if smoke() else 1
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # a failed set-up check or an unexpected error: no result
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
