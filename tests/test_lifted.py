"""Lifted marginals: counting belief propagation on the quotient of a
graph's own stable colouring, against the ground function
``_ground_marginals``, and the fallback to it; the path ``marginals`` and
``variable_elimination`` choose; and the per-graph state that path keeps."""
import sys
from pathlib import Path

import numpy as np
import pytest

from fglift import (
    BOOL_RANGE,
    ExperimentConfig,
    Factor,
    FactorGraph,
    InconsistentEvidence,
    PotentialTable,
    RandomVariable,
    RangeSpec,
    UnknownFactorPresent,
    UnknownNode,
    complete_and_lift,
    generate_instance,
    marginals,
    parse_model,
    run_colour_passing,
    run_experiment,
    state_space_size,
    variable_elimination,
)
import fglift.colours as colours
import fglift.inference as inference
import fglift.model as model
import fglift.synth as synth
from fglift.colours import (
    _adjacency,
    _evidence_free_colours,
    _grouping,
    _ports,
    _refined_colours,
    known_table_classes,
)
from fglift.inference import _ground_marginals, _quotient
from fglift.transfer import _profile_ids
from fglift.synth import max_cohorts
from conftest import ASYMMETRIC_2x2, chain_graph, random_graph
from test_inference import _with_zero_entries
from test_acceptance import SWEEP_D, SWEEP_P, SWEEP_SEEDS, SWEEP_UF, _sweep_config

BENCH = Path(__file__).resolve().parent.parent / "bench"
ORDERS = ("min_degree", "reverse_id")


def assert_close_to_ground(fg, queries, tol=1e-12):
    got = marginals(fg, queries)
    expected = _ground_marginals(fg, queries)
    assert [m.rv for m in got] == list(queries)
    for m, e in zip(got, expected):
        assert m.values == e.values
        assert np.allclose(m.probabilities, e.probabilities, rtol=0.0, atol=tol)


def assert_falls_back(fg, queries):
    assert _quotient(fg) is None
    assert marginals(fg, queries) == _ground_marginals(fg, queries)


def cycles_sharing_tables():
    """Two triangles and a 6-cycle, each RV with the same unary factor and
    every edge the same pairwise factor: colour passing puts all twelve RVs
    in one class, but a triangle's marginal differs from the hexagon's."""
    pair = PotentialTable((2, 2), (3.0, 1.0, 1.0, 2.0))
    unary = PotentialTable((2,), (1.0, 2.0))
    rvs, factors = [], []
    for name, n in (("t", 3), ("u", 3), ("h", 6)):
        for i in range(n):
            rvs.append(RandomVariable(f"{name}{i}", BOOL_RANGE))
            factors.append(Factor(f"{name}u{i}", (f"{name}{i}",), unary))
            factors.append(Factor(f"{name}p{i}", (f"{name}{i}", f"{name}{(i + 1) % n}"), pair))
    return FactorGraph(rvs, factors)


def criterion_6_graphs():
    """The 300 random graphs of acceptance criterion 6 (seed 307)."""
    rng = np.random.default_rng(307)
    graphs = 0
    while graphs < 300:
        big = graphs % 50 == 49
        g = random_graph(
            rng,
            n_rvs=(12 + int(rng.integers(4))) if big else 4 + int(rng.integers(6)),
            n_factors=(13 + int(rng.integers(4))) if big else 5 + int(rng.integers(6)),
            evidence_frac=0.2 if graphs % 2 else 0.0,
        )
        if state_space_size(g) > 2**16:
            continue
        graphs += 1
        yield g


def test_generated_instances_with_and_without_stored_evidence():
    rng = np.random.default_rng(811)
    for d, p, seed in [(8, 0.5, 1), (32, 0.7, 3), (128, 0.3, 5), (512, 0.5, 2), (2048, 0.5, 1)]:
        cfg = ExperimentConfig(
            d=d, p=p, unknown_fraction=0.2, cohorts=min(3 + seed % 3, max_cohorts(d, p)),
            queries_per_instance=3, theta=0.0, seed=seed, standard_grids=False,
        )
        inst = generate_instance(cfg)
        result = complete_and_lift(inst.incomplete, 0.0)
        queries = list(result.completed.rv_ids)
        assert _quotient(result.completed) is not None
        assert_close_to_ground(result.completed, queries)
        # evidence stored on a few RVs, refined into the colouring
        picked = rng.choice(queries, 4, replace=False)
        observed = result.completed.with_evidence(
            {str(r): result.completed.rv(str(r)).range.values[-1] for r in picked}
        )
        assert _quotient(observed) is not None
        assert_close_to_ground(observed, queries)
        # an observed query is a point mass, a repeated query answers twice
        got = marginals(observed, [str(picked[0]), queries[0], queries[0]])
        assert got[0].probabilities[-1] == 1.0 and sum(got[0].probabilities) == 1.0
        assert got[1] == got[2]


def test_the_acceptance_sweep_lifts_both_graphs_alike():
    """On every instance of criterion 1's sweep, the truth and the completed
    graph both answer on the quotient, bit for bit alike, near ground."""
    instances = 0
    for d in SWEEP_D:
        for p in SWEEP_P:
            for uf in SWEEP_UF:
                for seed in range(SWEEP_SEEDS):
                    inst = generate_instance(_sweep_config(d, p, uf, seed, theta=0.0))
                    result = complete_and_lift(inst.incomplete, 0.0)
                    assert _quotient(inst.truth) is not None
                    assert _quotient(result.completed) is not None
                    truth = marginals(inst.truth, inst.queries)
                    assert truth == marginals(result.completed, inst.queries)
                    assert_close_to_ground(inst.truth, inst.queries)
                    instances += 1
    assert instances == 960


def test_criterion_6_forests_lift_and_the_rest_fall_back():
    forests = 0
    for g in criterion_6_graphs():
        queries = list(g.rv_ids)
        if g.incidence.is_forest:
            forests += 1
            assert _quotient(g) is not None
            assert_close_to_ground(g, queries)
        else:
            assert_falls_back(g, queries)
    assert forests == 38


def test_cycles_that_colour_passing_merges_fall_back():
    g = cycles_sharing_tables()
    assert len(run_colour_passing(g).rv_classes) == 1
    got = marginals(g, ["t0", "h0"])
    assert [round(m.probabilities[0], 4) for m in got] == [0.3534, 0.3347]
    assert_falls_back(g, list(g.rv_ids))


def test_a_cyclic_quotient_is_refused_past_the_forest_gate():
    g = cycles_sharing_tables()
    # the colouring passes every other gate; the messages then meet a cycle
    g.incidence.__dict__["is_forest"] = True
    assert _quotient(g) is None


def test_a_completion_within_rtol_lifts_on_the_exact_colouring():
    near = parse_model(
        "rv a false,true\nrv b false,true\nrv c false,true\n"
        "factor fa known a 1,2\nfactor fb known b 1,2.0000009\nfactor fc known c 1,2.0000018\n"
    )
    result = complete_and_lift(near, 0.5, None, 1e-6)
    assert len(result.grouping.factor_classes) == 1
    # the completion's grouping is not the graph's own: that one is exact
    assert len(run_colour_passing(result.completed).factor_classes) == 3
    assert _quotient(result.completed) is not None
    assert_close_to_ground(result.completed, ["a", "b", "c"])


def test_a_symmetric_table_at_different_positions_falls_back():
    g = chain_graph()
    # colour passing merges f1 and f2 through their symmetric table, but B
    # sits at position 1 of f1 and at position 0 of f2
    assert len(run_colour_passing(g).factor_classes) == 1
    assert_falls_back(g, ["A", "B", "C"])


def transposed_member():
    """f2 is f1's potential over (C, B) with its arguments swapped: one
    canonical form, two positional tables."""
    t = PotentialTable((2, 2), ASYMMETRIC_2x2)
    return FactorGraph(
        tuple(RandomVariable(n, BOOL_RANGE) for n in "ABC"),
        (Factor("f1", ("A", "B"), t), Factor("f2", ("B", "C"), PotentialTable.from_array(t.array.T))),
    )


def symmetric_triple_at_two_positions():
    """v5 and v6 share a class, at positions 1 and 0 of f3's symmetric
    table; every factor is a class of its own, so only the RVs' multisets of
    (factor class, position) tell them apart."""
    triple = PotentialTable((2, 2, 2), (12.0, 6.0, 6.0, 10.0, 6.0, 10.0, 10.0, 6.0))
    rvs = [RandomVariable(f"v{i}", RangeSpec(("a", "b", "c")) if i == 3 else BOOL_RANGE) for i in range(7)]
    return FactorGraph(rvs, (
        Factor("f0", ("v1", "v2", "v0"), triple),
        Factor("f1", ("v2", "v3"), PotentialTable((2, 3), (1.0, 1.0, 2.0, 2.0, 1.0, 2.0))),
        Factor("f2", ("v4", "v2"), PotentialTable((2, 2), (4.0, 4.0, 4.0, 2.0))),
        Factor("f3", ("v6", "v5", "v1"), triple),
        Factor("u0", ("v0",), PotentialTable((2,), (1.0, 1.0))),
    ))


def test_a_transposed_member_falls_back():
    g = transposed_member()
    assert len(run_colour_passing(g).factor_classes) == 1
    assert_falls_back(g, ["A", "B", "C"])


def test_the_gates_refuse_before_the_messages(monkeypatch):
    def no_messages(*args):
        raise AssertionError("a gate should have refused")

    graphs = [chain_graph(), transposed_member(), symmetric_triple_at_two_positions()]
    assert [len(g.factors) for g in graphs] == [2, 2, 5]
    monkeypatch.setattr(inference, "_counting_bp", no_messages)
    for g in graphs:
        assert _quotient(g) is None
        assert marginals(g, g.rv_ids) == _ground_marginals(g, g.rv_ids)
    assert {frozenset({"v5", "v6"})} < run_colour_passing(graphs[2]).rv_partition()


def test_errors_are_those_of_the_ground_path():
    with_unknown = chain_graph().with_tables({"f2": None})
    with pytest.raises(UnknownFactorPresent):
        marginals(with_unknown, ["A"])

    # B = true selects an all-zero column of f1
    zero = chain_graph(t1=(1.0, 0.0, 1.0, 0.0), t2=ASYMMETRIC_2x2, evidence={"B": "true"})
    assert _quotient(zero) is None
    with pytest.raises(InconsistentEvidence) as ground:
        _ground_marginals(zero, ["A"])
    with pytest.raises(InconsistentEvidence) as lifted:
        marginals(zero, ["A"])
    assert str(lifted.value) == str(ground.value)
    # both arguments observed: the factor's own entry is zero
    both = chain_graph(t1=(1.0, 0.0, 1.0, 0.0), t2=ASYMMETRIC_2x2, evidence={"A": "true", "B": "true"})
    assert _quotient(both) is None
    with pytest.raises(InconsistentEvidence, match="zeroes out factor 'f1'"):
        marginals(both, ["C"])
    # only observed queries: ground answers without looking at the zero
    assert marginals(both, ["A", "B"]) == _ground_marginals(both, ["A", "B"])

    # disjoint unary supports on B: B's message to f2, and B's belief, are zero
    rvs = (RandomVariable("B", BOOL_RANGE), RandomVariable("C", BOOL_RANGE))
    u1 = Factor("u1", ("B",), PotentialTable((2,), (1.0, 0.0)))
    u2 = Factor("u2", ("B",), PotentialTable((2,), (0.0, 1.0)))
    f2 = Factor("f2", ("B", "C"), PotentialTable((2, 2), ASYMMETRIC_2x2))
    for zero in (FactorGraph(rvs, (u1, u2, f2)), FactorGraph(rvs[:1], (u1, u2))):
        assert _quotient(zero) is None
        with pytest.raises(InconsistentEvidence) as ground:
            _ground_marginals(zero, ["B"])
        with pytest.raises(InconsistentEvidence) as lifted:
            marginals(zero, ["B"])
        assert str(lifted.value) == str(ground.value)

    g = chain_graph()
    with pytest.raises(TypeError):
        marginals(g, "A")
    with pytest.raises(UnknownNode, match="no random variable 'Z'"):
        marginals(g, ["Z"])


# -- the path marginals and variable_elimination choose ------------------------


def lifts(fg, evidence=None):
    """Whether ``marginals(fg, ..., evidence)`` can answer on the quotient."""
    g = fg.with_evidence(evidence) if evidence else fg
    return _quotient(g) is not None


def assert_public_close_to_ground(fg, queries, evidence=None, tol=1e-12):
    """``marginals`` and ``variable_elimination`` within ``tol`` of the ground
    function, in both orders."""
    for order in ORDERS:
        expected = _ground_marginals(fg, queries, evidence, order)
        got = marginals(fg, queries, evidence, order)
        assert [m.rv for m in got] == list(queries)
        for q, m, e in zip(queries, got, expected):
            assert m.values == e.values
            assert np.allclose(m.probabilities, e.probabilities, rtol=0.0, atol=tol)
            single = variable_elimination(fg, q, evidence, order)
            assert single.values == e.values
            assert np.allclose(single.probabilities, e.probabilities, rtol=0.0, atol=tol)


def outcome(answer, *args):
    """The answer, or the type and text of the error raised instead."""
    try:
        return answer(*args)
    except (InconsistentEvidence, UnknownFactorPresent, ValueError) as exc:
        return type(exc), str(exc)


def assert_public_is_ground(fg, queries, evidence=None):
    """``marginals`` and ``variable_elimination`` give the ground function's
    answers or errors, bit for bit, in both orders."""
    for order in ORDERS:
        expected = outcome(_ground_marginals, fg, queries, evidence, order)
        assert outcome(marginals, fg, queries, evidence, order) == expected
        for q in queries:
            ground = outcome(lambda *args: _ground_marginals(*args)[0], fg, [q], evidence, order)
            assert outcome(variable_elimination, fg, q, evidence, order) == ground


def test_the_public_entry_lifts_generated_forests():
    rng = np.random.default_rng(821)
    for d, p, seed in [(8, 0.5, 1), (32, 0.7, 3), (128, 0.3, 5), (512, 0.5, 2)]:
        cfg = ExperimentConfig(
            d=d, p=p, unknown_fraction=0.2, cohorts=min(3 + seed % 3, max_cohorts(d, p)),
            queries_per_instance=3, theta=0.0, seed=seed, standard_grids=False,
        )
        inst = generate_instance(cfg)
        fg = inst.truth
        others = [r for r in fg.rv_ids if r not in inst.queries]
        picked = [str(r) for r in rng.choice(others, 6, replace=False)]
        stored = fg.with_evidence({r: fg.rv(r).range.values[-1] for r in picked[:2]})
        passed = {r: fg.rv(r).range.values[0] for r in picked[2:4]}
        # several queries, one observed by each kind of evidence, one repeated
        queries = list(inst.queries) + [picked[4], picked[0], picked[2], inst.queries[0]]
        for g, ev in ((fg, None), (stored, None), (fg, passed), (stored, passed)):
            assert lifts(g, ev)
            assert_public_close_to_ground(g, queries, ev)
        assert_public_close_to_ground(fg, list(fg.rv_ids))


def test_the_public_entry_lifts_the_benchmark_query_pool():
    """Every instance of the ``query`` workload's pool (d = 64-88, and the
    three d = 128 instances elimination once overflowed on) lifts, with and
    without evidence on three leaves."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads
    from tracing import Calls

    rng = np.random.default_rng(823)
    pool = workloads._query_pool("query", 1, "full", Calls())
    assert len(pool) == 10 and sum(inst.fails_today for inst in pool) == 3
    for inst in pool:
        fg = inst.graph
        ids = sorted(fg.rv_ids)
        queries = [inst.first_query] + [str(q) for q in rng.choice(ids, 3, replace=False)]
        leaves = [v for v in ids if v not in queries and fg.degree(v) == 1]
        evidence = {str(v): fg.rv(str(v)).range.values[1] for v in rng.choice(leaves, 3, replace=False)}
        for ev in (None, evidence):
            assert lifts(fg, ev)
            assert_public_close_to_ground(fg, queries, ev)


def test_the_public_entry_falls_back_to_the_ground_function():
    # cyclic criterion-6 graphs, with stored evidence on every other one and
    # passed evidence; the forests among them lift
    rng = np.random.default_rng(827)
    cyclic = 0
    for g in criterion_6_graphs():
        queries = list(g.rv_ids)
        free = [r.id for r in g.rvs if r.evidence is None]
        evidence = {r: g.rv(r).range.values[0] for r in rng.choice(free, min(2, len(free)), replace=False)}
        for ev in (None, evidence):
            if g.incidence.is_forest:
                assert_public_close_to_ground(g, queries, ev)
            else:
                assert_public_is_ground(g, queries, ev)
        cyclic += not g.incidence.is_forest
    assert cyclic == 262
    # larger non-forest random graphs, every other one with zero entries
    for i in range(20):
        g = random_graph(rng, n_rvs=16, n_factors=20, evidence_frac=0.1)
        if i % 2:
            g = _with_zero_entries(rng, g, 0.3)
        assert not g.incidence.is_forest
        assert_public_is_ground(g, list(g.rv_ids)[:5])
    # colour passing merges a triangle with the hexagon
    assert_public_is_ground(cycles_sharing_tables(), ["t0", "h0", "u2"])
    # unknown factors
    with_unknown = chain_graph().with_tables({"f2": None})
    assert outcome(marginals, with_unknown, ["A"])[0] is UnknownFactorPresent
    assert_public_is_ground(with_unknown, ["A"])
    # a forest whose grouping is not positional
    assert not lifts(chain_graph())
    assert_public_is_ground(chain_graph(), ["A", "B", "C"], {"C": "true"})
    # zero mass: evidence selects an all-zero column, stored or passed
    zero = chain_graph(t1=(1.0, 0.0, 1.0, 0.0), t2=ASYMMETRIC_2x2)
    for g, ev in ((zero, {"B": "true"}), (zero.with_evidence({"B": "true"}), None)):
        assert outcome(marginals, g, ["A"], ev)[0] is InconsistentEvidence
        assert_public_is_ground(g, ["A", "C"], ev)
    # both arguments observed, and only observed queries
    assert_public_is_ground(zero, ["C"], {"A": "true", "B": "true"})
    assert_public_is_ground(zero, ["A", "B"], {"A": "true", "B": "true"})
    rvs = (RandomVariable("B", BOOL_RANGE), RandomVariable("C", BOOL_RANGE))
    disjoint = FactorGraph(rvs, (
        Factor("u1", ("B",), PotentialTable((2,), (1.0, 0.0))),
        Factor("u2", ("B",), PotentialTable((2,), (0.0, 1.0))),
        Factor("f2", ("B", "C"), PotentialTable((2, 2), ASYMMETRIC_2x2)),
    ))
    assert outcome(marginals, disjoint, ["C"])[0] is InconsistentEvidence
    assert_public_is_ground(disjoint, ["C", "B"])


def kept(g, key, tables_only=False):
    """What ``g`` keeps under ``key``, without building it."""
    return (g._table_memo if tables_only else g._memo).get(key)


def test_passed_evidence_is_stored_evidence_and_refines_the_kept_colouring(monkeypatch):
    cfg = ExperimentConfig(
        d=32, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=4,
    )
    inst = generate_instance(cfg)
    fg = inst.truth
    leaves = [r for r in fg.rv_ids if fg.degree(r) == 1 and r not in inst.queries][:3]
    evidence = {r: fg.rv(r).range.values[1] for r in leaves}
    starts, used, passes = [], [], []
    start = colours._initial_colours
    quotient = inference._quotient
    bp = inference._counting_bp
    monkeypatch.setattr(colours, "_initial_colours", lambda g, *a: starts.append(g) or start(g, *a))
    monkeypatch.setattr(inference, "_quotient", lambda g: used.append(g) or quotient(g))
    monkeypatch.setattr(inference, "_counting_bp", lambda *a: passes.append(a) or bp(*a))

    plain = marginals(fg, inst.queries)
    assert starts == [fg] and len(passes) == 1
    # the graph's colouring is kept, the marginals are not
    assert marginals(fg, inst.queries) == plain
    assert starts == [fg] and len(passes) == 2
    own = _refined_colours(fg)
    assert used == [fg, fg] and own is _evidence_free_colours(fg)
    scratch = run_colour_passing(fg)
    assert _grouping(fg, own) == scratch and starts == [fg]

    observed = fg.with_evidence(evidence)
    expected = run_colour_passing(observed)
    del starts[:], used[:]
    assert marginals(fg, inst.queries, evidence) == marginals(observed, inst.queries)
    # both calls refined the kept colouring: neither coloured a graph from
    # its initial colours, and the partition they used is the observed graph's own
    assert starts == [] and len(passes) == 4
    assert used[1] is observed
    assert [_grouping(g, _refined_colours(g)) for g in used] == [expected, expected] != [scratch] * 2
    assert _refined_colours(fg) is own
    # passed evidence that repeats stored evidence is no new evidence
    assert marginals(observed, inst.queries, evidence) == marginals(observed, inst.queries)
    assert starts == [] and len(passes) == 6


def test_a_graph_is_coloured_once(monkeypatch):
    refined = []
    refine = colours._refine
    monkeypatch.setattr(colours, "_refine", lambda p, adj, work: refined.append(p) or refine(p, adj, work))
    starts = []
    start = colours._initial_colours
    monkeypatch.setattr(colours, "_initial_colours", lambda g, *a: starts.append(g) or start(g, *a))
    # the library colours on node numbers: the reference API's Colouring is
    # never built, and no reference round runs
    reference = []
    for name in ("initial_colouring", "colour_passing_step", "refine_to_fixpoint", "grouping_from_colouring"):
        monkeypatch.setattr(colours, name, lambda *a, name=name: reference.append(name))
    results = []
    complete = synth.complete_and_lift
    monkeypatch.setattr(synth, "complete_and_lift", lambda *a: results.append(complete(*a)) or results[-1])

    cfg = ExperimentConfig(
        d=32, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=4,
    )
    assert run_experiment(cfg).queries
    assert reference == []
    # complete_and_lift coloured the completed graph, marginals the truth
    # graph; neither graph was coloured twice
    (result,) = results
    assert len(starts) == len(refined) == 2
    assert starts[0] is result.completed and starts[1] is not result.completed
    # the completed graph keeps its colouring, and no adjacency
    assert _grouping(result.completed, _evidence_free_colours(result.completed)) == result.grouping
    assert kept(result.completed, "colours.adjacency", True) is None

    # a repeated call on a graph with stored evidence refines once
    fg = result.completed
    leaves = [r for r in fg.rv_ids if fg.degree(r) == 1][:3]
    observed = fg.with_evidence({r: fg.rv(r).range.values[1] for r in leaves})
    del starts[:], refined[:]
    first = marginals(observed, leaves[:1] + [fg.rv_ids[0]])
    assert marginals(observed, leaves[:1] + [fg.rv_ids[0]]) == first
    assert starts == [] and len(refined) == 1
    assert reference == []


def test_a_repeated_call_reads_no_signature(monkeypatch):
    inst = generate_instance(ExperimentConfig(
        d=32, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=4,
    ))
    result = complete_and_lift(inst.incomplete, 0.0)
    fg = result.completed
    queries = list(fg.rv_ids)
    signatures = []
    signature = model.RandomVariable.signature
    monkeypatch.setattr(
        model.RandomVariable, "signature", property(lambda rv: signatures.append(rv) or signature.fget(rv))
    )
    # the colouring complete_and_lift made is the graph's own, so neither
    # call reads an RV's signature
    first = marginals(fg, queries)
    assert marginals(fg, queries) == first
    assert signatures == []


def test_evidence_copies_share_the_table_views_and_nothing_else():
    inst = generate_instance(ExperimentConfig(
        d=32, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=4,
    ))
    fg = inst.truth
    marginals(fg, inst.queries)
    leaves = [r for r in fg.rv_ids if fg.degree(r) == 1][:3]
    copy = fg.with_evidence({r: fg.rv(r).range.values[1] for r in leaves})
    fresh = FactorGraph(copy.rvs, copy.factors)
    for rtol in (0.0, 1e-6):
        assert known_table_classes(copy, rtol) is known_table_classes(fg, rtol)
        assert known_table_classes(copy, rtol) == known_table_classes(fresh, rtol)
    assert _ports(copy) is _ports(fg)
    assert np.array_equal(_ports(copy)[0], _ports(fresh)[0]) and _ports(copy)[1] == _ports(fresh)[1]
    assert copy.unknown_factor_ids == fresh.unknown_factor_ids == ()
    # the evidence-free colouring reads no evidence; the adjacency is kept
    # only once evidence is refined on it
    assert _evidence_free_colours(copy) is _evidence_free_colours(fg)
    assert np.array_equal(_evidence_free_colours(copy), _evidence_free_colours(fresh))
    assert kept(fg, "colours.adjacency", True) is None
    refined = _refined_colours(copy)
    assert kept(copy, "colours.adjacency", True) is kept(fg, "colours.adjacency", True)
    assert kept(copy, "colours.adjacency", True) == _adjacency(fresh)
    # views that read the RVs' evidence are the copy's own
    assert _profile_ids(copy) == _profile_ids(fresh) != _profile_ids(fg)
    assert np.array_equal(refined, _refined_colours(fresh))
    assert _grouping(copy, refined) != _grouping(fg, _refined_colours(fg))
    assert kept(fg, "colours.refined") is not refined
    # new tables share nothing
    f = next(f for f in fg.factors if len(f.args) == 2)
    changed = fg.with_tables({f.id: PotentialTable(f.table.shape, [1.0] * f.table.array.size)})
    assert known_table_classes(changed) is not known_table_classes(fg)
    assert known_table_classes(changed) == known_table_classes(FactorGraph(changed.rvs, changed.factors))
    assert _evidence_free_colours(changed) is not _evidence_free_colours(fg)
    assert kept(changed, "colours.adjacency", True) is None
