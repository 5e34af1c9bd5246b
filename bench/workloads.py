"""The four workloads: instance pools, set-up, operations and their checks.

Every workload is a closed loop over a fixed pool of seeded synthetic
hub-and-cohort instances. ``lift``, ``lift-bk`` and ``query`` take their
cohort layouts from fixed generator configurations and draw, from the
benchmark seed, fresh potential tables for every (cohort, role) class, a
fresh choice of which factors are unknown (same count per class), and the
query variables and evidence. The cost of an operation depends on the
layout, so it stays put from seed to seed, while every table, every
unknown and every answer changes. ``evaluate`` runs ``run_experiment`` on
configurations, so its seeds are drawn per sweep cell, keeping instances
whose RV count lies within 2% of 2.5 d.

Checks compare outputs with the generator's truth, with properties the
method must have, and with an independent log-space oracle. They run
outside the timed region.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from fglift import (
    BackgroundKnowledge,
    CompletionResult,
    ExperimentConfig,
    Factor,
    FactorGraph,
    GenerationInfeasible,
    InconsistentEvidence,
    InstanceResult,
    PotentialTable,
    QueryResult,
    TransferReport,
    candidate_sets,
    complete_and_lift,
    compression_ratio,
    generate_instance,
    grouping_from_colouring,
    grouping_report,
    initial_colouring,
    kld,
    parse_background,
    parse_model,
    refine_to_fixpoint,
    run_experiment,
    select_transfer_class,
    serialize_background,
    serialize_model,
    transfer_report_text,
    validate,
    validate_background,
    variable_elimination,
)
from fglift.synth import max_cohorts

from oracle import OracleMarginal, overflow_safe, tree_marginal
from tracing import Calls

OVERFLOW_MESSAGE = "distribution is identically zero under evidence"
ORACLE_TOL = 1e-9
BK_RTOL = 1e-6


class CheckFailure(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


def _cfg(d, p, cohorts, seed, uf=0.2, standard=False) -> ExperimentConfig:
    return ExperimentConfig(
        d=d,
        p=p,
        unknown_fraction=uf,
        cohorts=cohorts,
        queries_per_instance=3,
        theta=0.0,
        seed=seed,
        standard_grids=standard,
    )


def _sweep_cfg(d: int, p: float, uf: float, seed: int) -> ExperimentConfig:
    """The configuration ``fglift evaluate`` builds for one (d, p, uf, seed)."""
    return ExperimentConfig(
        d=d,
        p=p,
        unknown_fraction=uf,
        cohorts=min(3 + seed % 3, max_cohorts(d, p)),
        queries_per_instance=3 + seed % 2,
        theta=0.0,
        seed=seed,
    )


# Cohort layouts: (d, p, cohorts, generator seed); RV and factor counts are
# in README.md. Most of each pool sits in one band of similar cost, so the
# median operation is sampled several times per round.
LIFT_LAYOUTS = {
    "full": [(160, 0.3, 3, 7), (320, 0.3, 4, 4), (320, 0.5, 3, 4), (320, 0.2, 5, 4), (520, 0.5, 4, 6)],
    "smoke": [(8, 0.5, 3, 1), (12, 0.3, 3, 2)],
}
LIFT_BK_LAYOUTS = {
    "full": [(100, 0.3, 3, 2), (180, 0.5, 3, 19), (180, 0.9, 3, 74), (180, 0.2, 5, 37)],
    "smoke": [(8, 0.5, 3, 1), (12, 0.7, 3, 3)],
}
QUERY_LAYOUTS = {
    "full": [(64, 0.2, 3, 0), (68, 0.3, 4, 11), (72, 0.5, 5, 49), (76, 0.7, 3, 43),
             (80, 0.9, 4, 7), (84, 0.5, 3, 62), (88, 0.3, 4, 96)],
    "smoke": [(8, 0.5, 3, 1)],
}
QUERY_UF = 0.1
QUERIES_PER_INSTANCE = 4  # the odd-numbered ones carry evidence
EVIDENCE_RVS = 3
# VE overflows on these today: the instances `fglift evaluate --d 128 --p 0.5
# --unknown-frac 0.1 --seeds 3` generates, each asked its first query.
QUERY_FAILING = {"full": [(128, 0.5, 0.1, 0), (128, 0.5, 0.1, 1), (128, 0.5, 0.1, 2)],
                 "smoke": [(128, 0.5, 0.1, 0)]}
EVALUATE_GRID = {
    # Every p, and per d: (d, queries per instance, unknown fractions, draws
    # per cell). Two thirds of the sweep sits at d = 32, so the median
    # operation is the median of 40 instances there.
    "full": {"p": (0.2, 0.3, 0.5, 0.7, 0.9),
             "d": [(16, 4, (0.05, 0.2), 1), (32, 3, (0.05, 0.1, 0.15, 0.2), 2), (64, 4, (0.05, 0.2), 1)]},
    "smoke": {"p": (0.5,), "d": [(4, 3, (0.1,), 1), (8, 3, (0.1,), 1)]},
}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def role_of(node_id: str) -> str:
    """The generator's class of a node: ``hub``, ``g0``, or ``<role>_c<cohort>``."""
    return "_".join(node_id.split("_")[:2])


def redraw(truth: FactorGraph, stripped: tuple[str, ...], rng: np.random.Generator):
    """Fresh class tables and a fresh choice of unknowns, same count per class.

    Tables are drawn from the generator's own distribution (uniform on
    [0.1, 10)); every member of a class shares its class's table, and every
    class keeps at least one known factor because the counts are copied
    from the generator's own strip.
    """
    by_role: dict[str, list[Factor]] = {}
    for f in truth.factors:
        by_role.setdefault(role_of(f.id), []).append(f)
    strip_counts = Counter(role_of(fid) for fid in stripped)
    tables: dict[str, PotentialTable] = {}
    unknown: set[str] = set()
    for role in sorted(by_role):
        members = by_role[role]
        table = PotentialTable.from_array(rng.uniform(0.1, 10.0, members[0].table.shape))
        for f in members:
            tables[f.id] = table
        k = strip_counts.get(role, 0)
        if k:
            unknown.update(members[int(i)].id for i in rng.choice(len(members), k, replace=False))
    new_truth = truth.with_tables(tables)
    incomplete = FactorGraph(
        new_truth.rvs,
        tuple(Factor(f.id, f.args, None) if f.id in unknown else f for f in new_truth.factors),
    )
    return new_truth, incomplete


def background_of(truth: FactorGraph) -> BackgroundKnowledge:
    """One individual per core RV, holding every factor on it."""
    return BackgroundKnowledge.from_dict(
        {rv: truth.factors_of(rv) for rv in truth.rv_ids if role_of(rv).startswith("u_")}
    )


def expected_partitions(truth: FactorGraph):
    """``hub`` and ``g0`` alone, plus one class per (cohort, role)."""

    def part(ids):
        classes: dict[str, set[str]] = {}
        for node in ids:
            classes.setdefault(role_of(node), set()).add(node)
        return frozenset(frozenset(c) for c in classes.values())

    return part(truth.rv_ids), part(truth.factor_ids)


def _generate(calls: Calls, cfg: ExperimentConfig):
    inst = calls("synth.generate", generate_instance, cfg)
    calls.count("synth.rvs", len(inst.truth.rvs))
    calls.count("synth.factors", len(inst.truth.factors))
    calls.count("synth.unknowns", len(inst.stripped))
    return inst


def _serialize(calls: Calls, fn, obj) -> str:
    text = calls("modelio.serialize", fn, obj)
    calls.count("modelio.bytes", len(text))
    return text


def _parse(calls: Calls, fn, text: str):
    calls.count("modelio.bytes", len(text))
    return calls("modelio.parse", fn, text)


# -- step-by-step replays for the traced run ----------------------------------


def replay_complete_and_lift(calls: Calls, fg: FactorGraph, theta: float, bk, rtol: float) -> CompletionResult:
    """``complete_and_lift`` through its public steps, one span each.

    Covers graphs whose unknowns all get a donor, which every workload
    checks. The library's colour tags for unresolved unknowns are then
    empty, so the replay does not compute them.
    """
    sets = calls("transfer.candidate_sets", candidate_sets, fg, rtol)
    calls.count("transfer.candidates", sum(len(cs.candidates) for cs in sets))
    calls.count("transfer.classes", sum(len(cs.classes) for cs in sets))
    rows = []
    for cs in sets:
        sel = calls("transfer.select", select_transfer_class, fg, cs, theta, bk, rtol)
        rows.append(replace(cs, chosen=sel))
    accepted = [row for row in rows if row.chosen is not None and row.chosen.accepted]
    calls.count("transfer.resolved", len(accepted))
    unresolved = tuple(sorted(set(fg.unknown_factor_ids) - {r.unknown_factor for r in accepted}))
    _require(not unresolved, f"replay needs every unknown resolved, left: {unresolved[:3]}")

    def apply():
        transfers = {
            row.unknown_factor: PotentialTable.from_array(
                np.transpose(fg.factor(row.chosen.donor).table.array, row.chosen.alignment)
            )
            for row in accepted
        }
        return fg.with_tables(transfers)

    completed = calls("transfer.apply", apply)
    colouring = calls("colours.initial", initial_colouring, completed, rtol, {})
    colouring = calls("colours.refine", refine_to_fixpoint, completed, colouring)
    grouping = calls("colours.grouping", grouping_from_colouring, completed, colouring)
    calls.count("colours.rv_classes", len(grouping.rv_classes))
    calls.count("colours.factor_classes", len(grouping.factor_classes))
    return CompletionResult(completed, grouping, TransferReport(tuple(rows), unresolved, theta))


def _complete(calls: Calls, fg: FactorGraph, theta: float, bk, rtol: float) -> CompletionResult:
    if calls.tracing:
        return replay_complete_and_lift(calls, fg, theta, bk, rtol)
    return calls("transfer.complete_and_lift", complete_and_lift, fg, theta, bk, rtol)


def _ve(calls: Calls, name: str, fg: FactorGraph, query: str, evidence=None, order="min_degree"):
    if calls.tracing:
        observed = {rv.id for rv in fg.rvs if rv.evidence is not None} | set(evidence or ())
        calls.count("inference.eliminated", len(fg.rvs) - len(observed | {query}))
    try:
        return calls(name, variable_elimination, fg, query, evidence, order)
    except InconsistentEvidence:
        calls.count("inference.failed")
        raise


def replay_run_experiment(calls: Calls, cfg: ExperimentConfig) -> InstanceResult:
    """``run_experiment`` through its public steps."""
    inst = _generate(calls, cfg)
    result = replay_complete_and_lift(calls, inst.incomplete, cfg.theta, None, 0.0)
    rv_ratio, factor_ratio = calls("inference.compression_ratio", compression_ratio, result.grouping, result.completed)
    queries = []
    for q in inst.queries:
        truth_marginal = _ve(calls, "inference.ve", inst.truth, q)
        completed_marginal = _ve(calls, "inference.ve", result.completed, q)
        queries.append(QueryResult(q, calls("inference.kld", kld, truth_marginal, completed_marginal)))
    return InstanceResult(
        config=cfg,
        n_rvs=len(inst.truth.rvs),
        n_factors=len(inst.truth.factors),
        n_unknown=len(inst.stripped),
        unresolved=len(result.report.unresolved),
        rv_ratio=rv_ratio,
        factor_ratio=factor_ratio,
        queries=tuple(queries),
    )


# -- workload plumbing --------------------------------------------------------


@dataclass
class Op:
    """One operation of a round: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[Calls], object]
    check: Callable[[object, Exception | None], None]
    may_fail: bool = False
    after_traced: Callable[[Calls], None] | None = None


@dataclass
class LiftInput:
    text: str
    bk_text: str | None
    rtol: float
    truth: FactorGraph = field(repr=False)


@dataclass
class LiftOutput:
    result: CompletionResult
    text: str
    report: str
    grouping: str


def lift_op(calls: Calls, inp: LiftInput) -> LiftOutput:
    """The ``fglift lift`` path in memory."""
    fg = _parse(calls, parse_model, inp.text)
    violations = calls("model.validate", validate, fg)
    bk = None
    if inp.bk_text is not None:
        bk = _parse(calls, parse_background, inp.bk_text)
        violations = violations + calls("model.validate", validate_background, fg, bk)
    _require(not violations, f"input rejected: {violations[:3]}")
    result = _complete(calls, fg, 0.0, bk, inp.rtol)
    text = _serialize(calls, serialize_model, result.completed)
    report = calls("transfer.report", transfer_report_text, result.report)
    groups = calls("colours.report", grouping_report, result.grouping)
    return LiftOutput(result, text, report, groups)


def check_lift(inp: LiftInput, out: LiftOutput) -> None:
    res = out.result
    _require(not res.report.unresolved, f"unresolved unknowns: {res.report.unresolved[:3]}")
    truth = inp.truth
    for f in res.completed.factors:
        t = truth.factor(f.id).table
        _require(
            f.table is not None and f.table.shape == t.shape and f.table.array.tobytes() == t.array.tobytes(),
            f"completed table of {f.id} differs from the truth",
        )
    for row in res.report.rows:
        sel = row.chosen
        _require(
            sel is not None and sel.accepted and sel.ratio == 1.0 and set(sel.members) == set(row.candidates),
            f"donor class of {row.unknown_factor} does not cover its candidates",
        )
    rv_part, factor_part = expected_partitions(truth)
    _require(res.grouping.rv_partition() == rv_part, "RV partition differs from the cohort roles")
    _require(res.grouping.factor_partition() == factor_part, "factor partition differs from the cohort roles")
    _require(parse_model(out.text) == truth, "serialized completed model does not parse back to the truth")
    _require(len(out.report.splitlines()) == len(res.report.rows), "transfer report has the wrong length")
    _require(
        len(out.grouping.splitlines()) == len(rv_part) + len(factor_part),
        "grouping report has the wrong length",
    )


def _lift_pool(name: str, seed: int, scale: str, calls: Calls, spec=None) -> list[LiftInput]:
    with_bk = name == "lift-bk"
    layouts = (LIFT_BK_LAYOUTS if with_bk else LIFT_LAYOUTS)[scale]
    inputs = []
    for i, (d, p, cohorts, gen_seed) in enumerate(layouts):
        if calls.tracing:
            calls.tracer.begin_op(f"setup/{i}", "setup")
        with calls.span(f"{name}.setup"):
            inst = _generate(calls, _cfg(d, p, cohorts, gen_seed))
            truth, incomplete = redraw(inst.truth, inst.stripped, _rng(seed, 1 + with_bk, i))
            text = _serialize(calls, serialize_model, incomplete)
            bk_text = _serialize(calls, serialize_background, background_of(truth)) if with_bk else None
        inputs.append(LiftInput(text, bk_text, BK_RTOL if with_bk else 0.0, truth))
    return inputs


def _lift_ops(inputs: list[LiftInput], seed: int) -> list[Op]:
    return [
        Op(f"lift/{i}", lambda calls, inp=inp: lift_op(calls, inp), lambda out, err, inp=inp: check_lift(inp, out))
        for i, inp in enumerate(inputs)
    ]


# -- query ----------------------------------------------------------------------


@dataclass
class QueryInstance:
    truth: FactorGraph = field(repr=False)
    graph: FactorGraph = field(repr=False)
    incomplete_text: str = field(repr=False)
    fails_today: bool
    first_query: str  # the first query the generator drew


def _query_pool(name: str, seed: int, scale: str, calls: Calls, spec=None) -> list[QueryInstance]:
    pool = [(True, layout) for layout in QUERY_LAYOUTS[scale]]
    pool += [(False, failing) for failing in QUERY_FAILING[scale]]
    out = []
    for i, (seeded, params) in enumerate(pool):
        if calls.tracing:
            calls.tracer.begin_op(f"setup/{i}", "setup")
        with calls.span(f"{name}.setup"):
            if seeded:
                d, p, cohorts, gen_seed = params
                inst = _generate(calls, _cfg(d, p, cohorts, gen_seed, uf=QUERY_UF, standard=True))
                truth, incomplete = redraw(inst.truth, inst.stripped, _rng(seed, 3, i))
            else:
                inst = _generate(calls, _sweep_cfg(*params))
                truth, incomplete = inst.truth, inst.incomplete
            text = _serialize(calls, serialize_model, incomplete)
            fg = _parse(calls, parse_model, text)
            _require(not calls("model.validate", validate, fg), "generated model is invalid")
            result = _complete(calls, fg, 0.0, None, 0.0)
            _require(not result.report.unresolved, "query instance left unknowns unresolved")
            completed_text = _serialize(calls, serialize_model, result.completed)
            graph = _parse(calls, parse_model, completed_text)
            _require(not calls("model.validate", validate, graph), "completed model is invalid")
        _require(graph == truth, "completed query instance differs from the truth")
        out.append(QueryInstance(truth, graph, text, not seeded, inst.queries[0]))
    return out


def _query_ops(instances: list[QueryInstance], seed: int) -> list[Op]:
    ops = []
    for i, inst in enumerate(instances):
        fg = inst.graph
        if inst.fails_today:
            asks = [(inst.first_query, None)]
        else:
            _require(overflow_safe(fg), "seeded query instance could overflow")
            rng = _rng(seed, 4, i)
            ids = sorted(fg.rv_ids)
            asks = []
            for k, q in enumerate(rng.choice(ids, QUERIES_PER_INSTANCE, replace=False)):
                q = str(q)
                evidence = None
                if k % 2:
                    evidence = {}
                    leaves = [v for v in ids if v != q and fg.degree(v) == 1]
                    for v in rng.choice(leaves, EVIDENCE_RVS, replace=False):
                        values = fg.rv(str(v)).range.values
                        evidence[str(v)] = values[int(rng.integers(len(values)))]
                asks.append((q, evidence))
        for q, evidence in asks:
            expected = tree_marginal(fg, q, evidence)
            ops.append(
                Op(
                    f"query/{i}/{q}",
                    lambda calls, fg=fg, q=q, ev=evidence: _ve(calls, "inference.ve", fg, q, ev),
                    lambda out, err, exp=expected, fails=inst.fails_today: check_query(out, err, exp, fails),
                    may_fail=True,
                    after_traced=lambda calls, fg=fg, q=q, ev=evidence: _reverse_id(calls, fg, q, ev),
                )
            )
    return ops


def _reverse_id(calls: Calls, fg: FactorGraph, q: str, evidence) -> None:
    """The same query with the ``reverse_id`` order, for the traced run only."""
    try:
        calls("inference.ve_reverse_id", variable_elimination, fg, q, evidence, "reverse_id")
    except InconsistentEvidence:
        pass


def check_query(out, err, expected: OracleMarginal, fails_today: bool) -> None:
    """A failure must be the overflow on a named instance; an answer must match the oracle.

    The named instances may answer once the overflow is mended; their
    answers are then checked like every other.
    """
    _require(expected.finite, f"oracle has no finite answer for {expected.rv}")
    if err is not None:
        _require(fails_today, f"VE failed on {expected.rv}, which it answers today: {err}")
        _require(str(err) == OVERFLOW_MESSAGE, f"unexpected failure message: {err}")
        return
    _require(out.rv == expected.rv and out.values == expected.values, "marginal over the wrong RV")
    diff = max(abs(a - b) for a, b in zip(out.probabilities, expected.probabilities))
    _require(diff <= ORACLE_TOL, f"marginal of {out.rv} differs from the oracle by {diff:.3g}")


# -- evaluate -------------------------------------------------------------------


@dataclass
class EvaluateInput:
    config: ExperimentConfig
    n_rvs: int
    n_factors: int
    n_unknown: int


def select_evaluate(seed: int, scale: str) -> list[ExperimentConfig]:
    """One configuration per sweep cell, as ``fglift evaluate`` would build it.

    Seeds come from the benchmark seed. A draw is kept when its RV count
    lies within 2% of 2.5 d, so per-cell cost stays put from seed to seed,
    and when no VE message on it can overflow (see ``overflow_safe``).
    """
    grid = EVALUATE_GRID[scale]
    rng = _rng(seed, 5)
    configs = []
    for d, queries, ufs, draws in grid["d"]:
        lo, hi = 2.5 * d * 0.98, 2.5 * d * 1.02
        for p in grid["p"]:
            for uf in ufs:
                for _ in range(draws):
                    for _ in range(2000):
                        s = int(rng.integers(2**31))
                        cfg = replace(_sweep_cfg(d, p, uf, s), queries_per_instance=queries)
                        try:
                            inst = generate_instance(cfg)
                        except GenerationInfeasible:
                            continue
                        if lo <= len(inst.truth.rvs) <= hi and overflow_safe(inst.truth):
                            configs.append(cfg)
                            break
                    else:
                        raise RuntimeError(f"no instance for d={d} p={p} uf={uf}")
    return configs


def _evaluate_pool(name: str, seed: int, scale: str, calls: Calls, configs) -> list[EvaluateInput]:
    inputs = []
    for i, cfg in enumerate(configs):
        if calls.tracing:
            calls.tracer.begin_op(f"setup/{i}", "setup")
        with calls.span(f"{name}.setup"):
            inst = _generate(calls, cfg)
        inputs.append(EvaluateInput(cfg, len(inst.truth.rvs), len(inst.truth.factors), len(inst.stripped)))
    return inputs


def evaluate_op(calls: Calls, cfg: ExperimentConfig) -> InstanceResult:
    if calls.tracing:
        return replay_run_experiment(calls, cfg)
    return calls("synth.run_experiment", run_experiment, cfg)


def check_evaluate(inp: EvaluateInput, out: InstanceResult) -> None:
    _require(out.config == inp.config, "result for the wrong configuration")
    _require(out.unresolved == 0, f"{out.unresolved} unknowns unresolved")
    _require(
        (out.n_rvs, out.n_factors, out.n_unknown) == (inp.n_rvs, inp.n_factors, inp.n_unknown),
        "instance counts differ from the generated instance",
    )
    _require(len(out.queries) == inp.config.queries_per_instance, "wrong number of queries")
    _require(all(q.kld == 0.0 for q in out.queries), f"non-zero KLD: {[q.kld for q in out.queries]}")


def _evaluate_ops(inputs: list[EvaluateInput], seed: int) -> list[Op]:
    return [
        Op(f"evaluate/{i}", lambda calls, cfg=inp.config: evaluate_op(calls, cfg),
           lambda out, err, inp=inp: check_evaluate(inp, out))
        for i, inp in enumerate(inputs)
    ]


# -- registry -------------------------------------------------------------------


@dataclass
class Workload:
    select: Callable[[int, str], object]  # untimed choice of the pool
    setup: Callable[..., list]  # (name, seed, scale, calls, choice) -> inputs; the program's own work
    operations: Callable[[list, int], list[Op]]
    probe: Callable[[list], LiftInput]  # input for the traced run's CLI call


def _probe_lift(inputs: list[LiftInput]) -> LiftInput:
    return inputs[0]


def _probe_query(instances: list[QueryInstance]) -> LiftInput:
    return LiftInput(instances[0].incomplete_text, None, 0.0, instances[0].truth)


def _probe_evaluate(inputs: list[EvaluateInput]) -> LiftInput:
    inst = generate_instance(inputs[0].config)
    return LiftInput(serialize_model(inst.incomplete), None, 0.0, inst.truth)


def _fixed_layouts(seed: int, scale: str) -> None:
    """Nothing to choose: the pool's layouts are constants above."""


WORKLOADS = {
    "lift": Workload(_fixed_layouts, _lift_pool, _lift_ops, _probe_lift),
    "lift-bk": Workload(_fixed_layouts, _lift_pool, _lift_ops, _probe_lift),
    "query": Workload(_fixed_layouts, _query_pool, _query_ops, _probe_query),
    "evaluate": Workload(select_evaluate, _evaluate_pool, _evaluate_ops, _probe_evaluate),
}
