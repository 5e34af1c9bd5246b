"""Tests of the benchmark's oracle, checks, replays and traced counts.

Run from the repository root with ``python -m pytest bench -q``.
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from fglift import (  # noqa: E402
    BOOL_RANGE,
    Factor,
    FactorGraph,
    InconsistentEvidence,
    Marginal,
    PotentialTable,
    QueryResult,
    RandomVariable,
    complete_and_lift,
    generate_instance,
    parse_model,
    run_experiment,
    serialize_model,
    variable_elimination,
)

import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from oracle import enumerated_marginal, overflow_safe, self_test, tree_marginal  # noqa: E402
from tracing import Calls, Tracer, wrapped_bindings  # noqa: E402


def test_oracle_matches_enumeration_with_and_without_evidence():
    assert self_test() > 100


def test_oracle_answers_where_ve_overflows():
    inst = generate_instance(wl._sweep_cfg(*wl.QUERY_FAILING["smoke"][0]))
    completed = complete_and_lift(inst.incomplete, 0.0).completed
    q = inst.queries[0]
    assert not overflow_safe(completed)
    with pytest.raises(InconsistentEvidence, match=wl.OVERFLOW_MESSAGE):
        variable_elimination(completed, q)
    assert tree_marginal(completed, q).finite


def test_oracle_rejects_a_cycle():
    t = PotentialTable((2, 2), (1.0, 2.0, 3.0, 4.0))
    rvs = [RandomVariable(n, BOOL_RANGE) for n in "ABC"]
    fg = FactorGraph(rvs, [Factor("f1", ("A", "B"), t), Factor("f2", ("B", "C"), t), Factor("f3", ("C", "A"), t)])
    with pytest.raises(ValueError, match="cycle"):
        tree_marginal(fg, "A")


def test_oracle_agrees_with_enumeration_on_an_observed_query():
    fg = generate_instance(wl._cfg(2, 0.5, 3, 0, uf=0.1, standard=True)).truth
    got = tree_marginal(fg, "hub", {"hub": "h2"}).probabilities
    assert got == pytest.approx(enumerated_marginal(fg, "hub", {"hub": "h2"}), abs=1e-12)
    assert got == (0.0, 0.0, 1.0, 0.0)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_passes_its_checks_at_smoke_size(workload, trace):
    result = bench_run.run(workload, seed=3, seconds=0.0, trace=trace, scale="smoke")
    assert result["correct"]
    assert result["attempted"] >= 1
    if workload == "query":
        assert result["failed"] * 5 == result["attempted"]  # one overflow per round of five
    else:
        assert result["failed"] == 0


def test_traced_counts_repeat_exactly():
    first = bench_run.run("lift-bk", seed=2, seconds=0.0, trace=True, scale="smoke")["metrics"]
    second = bench_run.run("lift-bk", seed=2, seconds=0.0, trace=True, scale="smoke")["metrics"]
    counts = [name for name, m in first.items() if m["unit"] in ("count", "B")]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["transfer.resolved"]["value"] > 0
    assert first["tables.canonical_calls"]["value"] > 0


def test_seeds_change_inputs_but_not_layouts():
    a = wl._lift_pool("lift", 1, "smoke", Calls())
    b = wl._lift_pool("lift", 2, "smoke", Calls())
    assert [x.text for x in a] != [y.text for y in b]
    assert [x.truth.factor_ids for x in a] == [y.truth.factor_ids for y in b]
    assert a == wl._lift_pool("lift", 1, "smoke", Calls())


# -- the replays reproduce the library -------------------------------------------


def test_replay_reproduces_complete_and_lift_with_background_knowledge():
    inp = wl._lift_pool("lift-bk", 1, "smoke", Calls())[1]
    fg = parse_model(inp.text)
    bk = wl.background_of(inp.truth)
    tracer = Tracer()
    with wrapped_bindings(tracer):
        replayed = wl.replay_complete_and_lift(Calls(tracer), fg, 0.0, bk, wl.BK_RTOL)
    assert replayed == complete_and_lift(fg, 0.0, bk, wl.BK_RTOL)
    assert tracer.counts


def test_replay_reproduces_run_experiment():
    cfg = wl.select_evaluate(1, "smoke")[0]
    tracer = Tracer()
    with wrapped_bindings(tracer):
        replayed = wl.replay_run_experiment(Calls(tracer), cfg)
    assert replayed == run_experiment(cfg)
    assert tracer.counts


def test_wrapped_bindings_are_restored():
    import fglift.colours as colours
    import fglift.transfer as transfer

    before = (transfer.canonical_table, colours.canonical_info, colours.colour_passing_step)
    with wrapped_bindings(Tracer()):
        assert transfer.canonical_table is not before[0]
    assert (transfer.canonical_table, colours.canonical_info, colours.colour_passing_step) == before


# -- the checks catch wrong outputs ------------------------------------------------


@pytest.fixture(scope="module")
def lift_case():
    inp = wl._lift_pool("lift", 1, "smoke", Calls())[0]
    return inp, wl.lift_op(Calls(), inp)


def test_lift_check_accepts_the_library_output(lift_case):
    wl.check_lift(*lift_case)


def test_lift_check_catches_a_wrong_table(lift_case):
    inp, out = lift_case
    res = out.result
    fid = res.report.rows[0].unknown_factor
    table = res.completed.factor(fid).table
    bad = PotentialTable.from_array(table.array * 1.5)
    tampered = replace(out, result=replace(res, completed=res.completed.with_tables({fid: bad})))
    with pytest.raises(wl.CheckFailure, match="differs from the truth"):
        wl.check_lift(inp, tampered)


def test_lift_check_catches_an_unresolved_unknown(lift_case):
    inp, out = lift_case
    res = out.result
    report = replace(res.report, unresolved=(res.report.rows[0].unknown_factor,))
    with pytest.raises(wl.CheckFailure, match="unresolved"):
        wl.check_lift(inp, replace(out, result=replace(res, report=report)))


def test_lift_check_catches_a_wrong_partition(lift_case):
    inp, out = lift_case
    res = out.result
    merged = (tuple(sorted(res.grouping.rv_classes[0] + res.grouping.rv_classes[1])),) + res.grouping.rv_classes[2:]
    grouping = replace(res.grouping, rv_classes=merged)
    with pytest.raises(wl.CheckFailure, match="RV partition"):
        wl.check_lift(inp, replace(out, result=replace(res, grouping=grouping)))


def test_lift_check_catches_a_lossy_serialization(lift_case):
    inp, out = lift_case
    g0 = inp.truth.factor("g0").table
    wrong = serialize_model(inp.truth.with_tables({"g0": PotentialTable.from_array(g0.array + 1e-9)}))
    with pytest.raises(wl.CheckFailure, match="parse back"):
        wl.check_lift(inp, replace(out, text=wrong))


def _query_case():
    instances = wl._query_pool("query", 1, "smoke", Calls())
    ops = wl._query_ops(instances, 1)
    return instances, ops


def test_query_check_catches_a_wrong_marginal():
    instances, ops = _query_case()
    fg = instances[0].graph
    q = sorted(fg.rv_ids)[0]
    expected = tree_marginal(fg, q)
    good = variable_elimination(fg, q)
    wl.check_query(good, None, expected, fails_today=False)
    shifted = (good.probabilities[0] + 1e-6, good.probabilities[1] - 1e-6) + good.probabilities[2:]
    with pytest.raises(wl.CheckFailure, match="differs from the oracle"):
        wl.check_query(Marginal(q, good.values, shifted), None, expected, fails_today=False)


def test_query_check_requires_the_named_instances_to_fail_with_the_overflow_error():
    instances, _ = _query_case()
    failing = instances[-1]
    assert failing.fails_today
    expected = tree_marginal(failing.graph, failing.first_query)
    wl.check_query(None, InconsistentEvidence(wl.OVERFLOW_MESSAGE), expected, fails_today=True)
    with pytest.raises(wl.CheckFailure, match="message"):
        wl.check_query(None, InconsistentEvidence("conflicting evidence"), expected, fails_today=True)
    with pytest.raises(wl.CheckFailure, match="answers today"):
        wl.check_query(None, InconsistentEvidence(wl.OVERFLOW_MESSAGE), expected, fails_today=False)
    # Once the overflow is mended, an answer is accepted if it matches the oracle.
    wl.check_query(Marginal(expected.rv, expected.values, expected.probabilities), None, expected, True)
    wrong = Marginal(expected.rv, expected.values, tuple(reversed(expected.probabilities)))
    with pytest.raises(wl.CheckFailure, match="differs from the oracle"):
        wl.check_query(wrong, None, expected, fails_today=True)


def test_query_ops_are_seeded():
    _, a = _query_case()
    instances = wl._query_pool("query", 2, "smoke", Calls())
    b = wl._query_ops(instances, 2)
    assert [op.label for op in a] != [op.label for op in b]
    assert sum(op.label.startswith(f"query/{len(instances) - 1}/") for op in b) == 1


def test_evaluate_check_catches_a_nonzero_kld():
    cfg = wl.select_evaluate(1, "smoke")[0]
    inst = generate_instance(cfg)
    inp = wl.EvaluateInput(cfg, len(inst.truth.rvs), len(inst.truth.factors), len(inst.stripped))
    out = run_experiment(cfg)
    wl.check_evaluate(inp, out)
    bad = replace(out, queries=(QueryResult(out.queries[0].query, 1e-15),) + out.queries[1:])
    with pytest.raises(wl.CheckFailure, match="KLD"):
        wl.check_evaluate(inp, bad)
    with pytest.raises(wl.CheckFailure, match="unresolved"):
        wl.check_evaluate(inp, replace(out, unresolved=1))


def test_evaluate_selection_is_seeded_and_bounded():
    a = wl.select_evaluate(1, "smoke")
    assert a == wl.select_evaluate(1, "smoke")
    assert a != wl.select_evaluate(2, "smoke")
    for cfg in a:
        inst = generate_instance(cfg)
        assert abs(len(inst.truth.rvs) - 2.5 * cfg.d) <= 0.02 * 2.5 * cfg.d
        assert overflow_safe(inst.truth)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lift", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
