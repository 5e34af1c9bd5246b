"""Command line interface.

Five subcommands: ``lift`` completes a model's unknown factors and writes
the completed model plus optional transfer/grouping reports, ``query``
computes exact marginals, ``generate`` writes one synthetic instance,
``evaluate`` sweeps configurations into a TSV of per-query divergences,
``report`` aggregates such a TSV. Exit codes: 0 on success, 2 for input
problems (unparseable or invalid files, bad flags), 3 for algorithmic
failures (unresolved unknowns under --strict, inconsistent evidence,
infeasible generation); ``evaluate`` instead counts a failed instance in
its summary and goes on.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from statistics import median

from .colours import grouping_report
from .errors import (
    FactorGraphError,
    GenerationInfeasible,
    InconsistentEvidence,
    ParseError,
)
from .inference import marginals
from .model import validate, validate_background
from .modelio import (
    parse_background,
    parse_evidence,
    parse_model,
    serialize_model,
    serialize_queries,
)
from .synth import ExperimentConfig, generate_instance, max_cohorts, run_experiment
from .transfer import complete_and_lift, transfer_report_text

_INPUT_ERRORS = (ParseError, OSError, ValueError, FactorGraphError)
_ALGO_ERRORS = (InconsistentEvidence, GenerationInfeasible)


def _write_atomic(path: str, text: str) -> None:
    """Write via a temp file and rename, so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fglift-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, path: str | None) -> None:
    if path:
        _write_atomic(path, text)
    else:
        sys.stdout.write(text)


def _load_model(path: str):
    with open(path) as fh:
        fg = parse_model(fh.read())
    violations = validate(fg)
    if violations:
        for v in violations:
            print(f"invalid model: {v}", file=sys.stderr)
        return None
    return fg


def _cmd_lift(args: argparse.Namespace) -> int:
    fg = _load_model(args.model)
    if fg is None:
        return 2
    if args.evidence:
        with open(args.evidence) as fh:
            fg = fg.with_evidence(parse_evidence(fh.read()))
    bk = None
    if args.bk:
        with open(args.bk) as fh:
            bk = parse_background(fh.read())
        violations = validate_background(fg, bk)
        if violations:
            for v in violations:
                print(f"invalid background knowledge: {v}", file=sys.stderr)
            return 2
    result = complete_and_lift(fg, args.theta, bk, args.rtol)
    _write_atomic(args.out, serialize_model(result.completed))
    if args.report:
        _write_atomic(args.report, transfer_report_text(result.report))
    if args.grouping:
        _write_atomic(args.grouping, grouping_report(result.grouping))
    if args.strict and result.report.unresolved:
        unresolved = ", ".join(result.report.unresolved)
        print(f"error: unresolved unknown factors: {unresolved}", file=sys.stderr)
        return 3
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    fg = _load_model(args.model)
    if fg is None:
        return 2
    evidence = {}
    if args.evidence:
        with open(args.evidence) as fh:
            evidence = parse_evidence(fh.read())
    lines = []
    for marginal in marginals(fg, args.rv, evidence, order=args.order):
        probs = ",".join(format(p, ".12g") for p in marginal.probabilities)
        lines.append(f"{marginal.rv} {probs}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        d=args.d,
        p=args.p,
        unknown_fraction=args.unknown_frac,
        cohorts=args.cohorts,
        queries_per_instance=args.queries,
        theta=0.0,
        seed=args.seed,
        standard_grids=not args.free_mode,
    )
    inst = generate_instance(cfg)
    _write_atomic(args.out_truth, serialize_model(inst.truth))
    _write_atomic(args.out_incomplete, serialize_model(inst.incomplete))
    _write_atomic(args.out_queries, serialize_queries(list(inst.queries)))
    return 0


def _csv_list(text: str, convert):
    return [convert(x) for x in text.split(",") if x != ""]


def _cmd_evaluate(args: argparse.Namespace) -> int:
    ds = _csv_list(args.d, int)
    ps = _csv_list(args.p, float)
    ufs = _csv_list(args.unknown_frac, float)
    if not ds or not ps or not ufs or args.seeds < 1:
        print("error: empty sweep", file=sys.stderr)
        return 2
    lines = ["d\tp\tunknown_frac\tseed\tquery\tkld"]
    klds: list[float] = []
    instances = 0
    failed = 0
    for d in ds:
        for p in ps:
            for uf in ufs:
                for s in range(args.seeds):
                    seed = args.seed_base + s
                    cfg = ExperimentConfig(
                        d=d,
                        p=p,
                        unknown_fraction=uf,
                        cohorts=min(3 + seed % 3, max_cohorts(d, p)),
                        queries_per_instance=3 + seed % 2,
                        theta=args.theta,
                        seed=seed,
                        standard_grids=not args.free_mode,
                    )
                    instances += 1
                    try:
                        result = run_experiment(cfg)
                    except _ALGO_ERRORS as e:
                        failed += 1
                        print(
                            f"error: instance d={d} p={p:g} unknown_frac={uf:g} seed={seed}: {e}",
                            file=sys.stderr,
                        )
                        continue
                    if result.failed:
                        failed += 1
                    for qr in result.queries:
                        klds.append(qr.kld)
                        lines.append(
                            f"{d}\t{p:g}\t{uf:g}\t{seed}\t{qr.query}\t{qr.kld:.12g}"
                        )
    max_kld = format(max(klds), ".12g") if klds else "nan"
    med_kld = format(median(klds), ".12g") if klds else "nan"
    lines.append(
        f"# summary instances={instances} failed={failed} queries={len(klds)} "
        f"max_kld={max_kld} median_kld={med_kld}"
    )
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    groups: dict[tuple[int, float], list[float]] = {}
    with open(args.rows) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("d\t"):
                continue
            parts = line.split("\t")
            if len(parts) != 6:
                raise ParseError(lineno, f"expected 6 tab-separated columns, got {len(parts)}")
            try:
                d, p, value = int(parts[0]), float(parts[1]), float(parts[5])
            except ValueError:
                raise ParseError(lineno, "non-numeric d, p, or kld column") from None
            groups.setdefault((d, p), []).append(value)
    lines = []
    for (d, p), values in sorted(groups.items()):
        lines.append(
            f"d={d} p={p:g} queries={len(values)} "
            f"median_kld={median(values):.6g} max_kld={max(values):.6g}"
        )
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fglift",
        description="Complete factor graphs with unknown factors and lift them by colour passing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lift = sub.add_parser("lift", help="complete unknown factors and group the result")
    p_lift.add_argument("--model", required=True)
    p_lift.add_argument("--theta", required=True, type=float)
    p_lift.add_argument("--evidence")
    p_lift.add_argument("--bk", help="background knowledge file")
    p_lift.add_argument("--rtol", type=float, default=0.0)
    p_lift.add_argument("--out", required=True, help="completed model file")
    p_lift.add_argument("--report", help="transfer report file")
    p_lift.add_argument("--grouping", help="grouping report file")
    p_lift.add_argument("--strict", action="store_true", help="exit 3 if anything stays unresolved")
    p_lift.set_defaults(func=_cmd_lift)

    p_query = sub.add_parser("query", help="exact marginals by variable elimination")
    p_query.add_argument("--model", required=True)
    p_query.add_argument("--evidence")
    p_query.add_argument("--rv", action="append", required=True)
    p_query.add_argument("--order", choices=("min_degree", "reverse_id"), default="min_degree")
    p_query.add_argument("--out", help="write marginals here instead of stdout")
    p_query.set_defaults(func=_cmd_query)

    p_gen = sub.add_parser("generate", help="write one synthetic instance")
    p_gen.add_argument("--d", required=True, type=int)
    p_gen.add_argument("--p", required=True, type=float)
    p_gen.add_argument("--unknown-frac", required=True, type=float, dest="unknown_frac")
    p_gen.add_argument("--seed", required=True, type=int)
    p_gen.add_argument("--cohorts", type=int, default=3)
    p_gen.add_argument("--queries", type=int, default=3)
    p_gen.add_argument("--free-mode", action="store_true", help="allow parameters outside the standard grids")
    p_gen.add_argument("--out-truth", required=True)
    p_gen.add_argument("--out-incomplete", required=True)
    p_gen.add_argument("--out-queries", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_eval = sub.add_parser(
        "evaluate",
        help="sweep configurations, write per-query divergences",
        description=(
            "Sweep configurations and write one TSV row per query. An instance that "
            "fails (unresolved unknowns, infeasible generation or inconsistent "
            "evidence) adds no rows and counts in the summary's failed=; the sweep "
            "goes on and the TSV is still written."
        ),
    )
    p_eval.add_argument("--d", required=True, help="comma-separated list")
    p_eval.add_argument("--p", required=True, help="comma-separated list")
    p_eval.add_argument("--unknown-frac", required=True, dest="unknown_frac", help="comma-separated list")
    p_eval.add_argument("--seeds", type=int, default=20, help="seeds per cell")
    p_eval.add_argument("--seed-base", type=int, default=0, dest="seed_base")
    p_eval.add_argument("--theta", type=float, default=0.0)
    p_eval.add_argument("--free-mode", action="store_true")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_rep = sub.add_parser("report", help="aggregate an evaluate TSV per (d, p)")
    p_rep.add_argument("--rows", required=True)
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ALGO_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
