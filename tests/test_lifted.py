"""Lifted marginals: counting belief propagation on the quotient of a
grouping, against the ground function ``_ground_marginals``, and the
fallback to it; the path ``marginals`` and ``variable_elimination`` choose;
and the per-graph state that path keeps."""
import sys
from pathlib import Path

import numpy as np
import pytest

from fglift import (
    BOOL_RANGE,
    ExperimentConfig,
    Factor,
    FactorClass,
    FactorGraph,
    Grouping,
    InconsistentEvidence,
    PotentialTable,
    RandomVariable,
    UnknownFactorPresent,
    UnknownNode,
    complete_and_lift,
    generate_instance,
    lifted_marginals,
    marginals,
    parse_model,
    run_colour_passing,
    state_space_size,
    variable_elimination,
)
import fglift.colours as colours
import fglift.inference as inference
import fglift.model as model
from fglift.colours import (
    _adjacency,
    _evidence_free_colouring,
    _ports,
    known_table_classes,
)
from fglift.inference import _ground_marginals, _quotient, _signature_codes
from fglift.transfer import _profile_ids
from fglift.synth import max_cohorts
from conftest import ASYMMETRIC_2x2, chain_graph, random_graph
from test_inference import _with_zero_entries
from test_acceptance import SWEEP_D, SWEEP_P, SWEEP_SEEDS, SWEEP_UF, _sweep_config

BENCH = Path(__file__).resolve().parent.parent / "bench"
ORDERS = ("min_degree", "reverse_id")


def assert_close_to_ground(fg, grouping, queries, tol=1e-12):
    got = lifted_marginals(fg, queries, grouping)
    expected = _ground_marginals(fg, queries)
    assert [m.rv for m in got] == list(queries)
    for m, e in zip(got, expected):
        assert m.values == e.values
        assert np.allclose(m.probabilities, e.probabilities, rtol=0.0, atol=tol)


def assert_falls_back(fg, grouping, queries):
    assert _quotient(fg, grouping) is None
    assert lifted_marginals(fg, queries, grouping) == _ground_marginals(fg, queries)


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
        assert _quotient(result.completed, result.grouping) is not None
        assert_close_to_ground(result.completed, result.grouping, queries)
        # evidence stored on a few RVs, and colour passing that sees it
        picked = rng.choice(queries, 4, replace=False)
        observed = result.completed.with_evidence(
            {str(r): result.completed.rv(str(r)).range.values[-1] for r in picked}
        )
        grouping = run_colour_passing(observed)
        assert _quotient(observed, grouping) is not None
        assert_close_to_ground(observed, grouping, queries)
        # an observed query is a point mass, a repeated query answers twice
        got = lifted_marginals(observed, [str(picked[0]), queries[0], queries[0]], grouping)
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
                    truth_grouping = run_colour_passing(inst.truth)
                    assert _quotient(inst.truth, truth_grouping) is not None
                    assert _quotient(result.completed, result.grouping) is not None
                    truth = lifted_marginals(inst.truth, inst.queries, truth_grouping)
                    assert truth == lifted_marginals(result.completed, inst.queries, result.grouping)
                    assert_close_to_ground(inst.truth, truth_grouping, inst.queries)
                    instances += 1
    assert instances == 960


def test_criterion_6_forests_lift_and_the_rest_fall_back():
    forests = 0
    for g in criterion_6_graphs():
        grouping = run_colour_passing(g)
        queries = list(g.rv_ids)
        if g.incidence.is_forest:
            forests += 1
            assert _quotient(g, grouping) is not None
            assert_close_to_ground(g, grouping, queries)
        else:
            assert_falls_back(g, grouping, queries)
    assert forests == 38


def test_cycles_that_colour_passing_merges_fall_back():
    g = cycles_sharing_tables()
    grouping = run_colour_passing(g)
    assert len(grouping.rv_classes) == 1
    got = lifted_marginals(g, ["t0", "h0"], grouping)
    assert [round(m.probabilities[0], 4) for m in got] == [0.3534, 0.3347]
    assert_falls_back(g, grouping, list(g.rv_ids))


def test_a_cyclic_quotient_is_refused_past_the_forest_gate():
    g = cycles_sharing_tables()
    # the grouping passes every other gate; the messages then meet a cycle
    g.incidence.__dict__["is_forest"] = True
    assert _quotient(g, run_colour_passing(g)) is None


def test_a_grouping_within_rtol_falls_back():
    near = parse_model(
        "rv a false,true\nrv b false,true\nrv c false,true\n"
        "factor fa known a 1,2\nfactor fb known b 1,2.0000009\nfactor fc known c 1,2.0000018\n"
    )
    result = complete_and_lift(near, 0.5, None, 1e-6)
    assert len(result.grouping.factor_classes) == 1
    assert_falls_back(result.completed, result.grouping, ["a", "b", "c"])
    exact = run_colour_passing(near)
    assert len(exact.factor_classes) == 3
    assert _quotient(near, exact) is not None


def test_groupings_that_are_not_positionally_equitable_fall_back():
    g = chain_graph()
    queries = ["A", "B", "C"]
    # colour passing merges f1 and f2 through their symmetric table, but B
    # sits at position 1 of f1 and at position 0 of f2
    assert_falls_back(g, run_colour_passing(g), queries)
    rvs = (("A", "B", "C"),)
    one_class = Grouping(rvs, (FactorClass(("f1", "f2"), g.factor("f1").table),))
    assert_falls_back(g, one_class, queries)
    split = Grouping(rvs, (FactorClass(("f1",), g.factor("f1").table), FactorClass(("f2",), g.factor("f2").table)))
    assert_falls_back(g, split, queries)
    for broken in (
        Grouping((("A", "C"),), split.factor_classes),
        Grouping((("A", "C"), ("Z",)), split.factor_classes),
        Grouping((("A", "C"), ("B",), ()), split.factor_classes),
        Grouping((("A", "C"), ("A",)), split.factor_classes),
        Grouping((("A", "C"), ("B",)), (split.factor_classes[0],)),
    ):
        assert_falls_back(g, broken, queries)
    exact = Grouping((("A",), ("B",), ("C",)), split.factor_classes)
    assert _quotient(g, exact) is not None
    assert_close_to_ground(g, exact, queries)
    # A observed: it no longer shares C's signature
    observed = g.with_evidence({"A": "true"})
    assert_falls_back(observed, Grouping((("A", "C"), ("B",)), split.factor_classes), queries)
    # A and B each at position 0 of their own unary class, which differ
    a, b = RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)
    unaries = FactorGraph(
        (a, b),
        (Factor("ua", ("A",), PotentialTable((2,), (1.0, 2.0))),
         Factor("ub", ("B",), PotentialTable((2,), (2.0, 1.0)))),
    )
    merged = Grouping(
        (("A", "B"),),
        tuple(FactorClass((f.id,), f.table) for f in unaries.factors),
    )
    assert_falls_back(unaries, merged, ["A", "B"])


def test_a_transposed_member_falls_back():
    t = PotentialTable((2, 2), ASYMMETRIC_2x2)
    # f2 is f1's potential over (C, B) with its arguments swapped: one
    # canonical form, two positional tables
    g = FactorGraph(
        tuple(RandomVariable(n, BOOL_RANGE) for n in "ABC"),
        (Factor("f1", ("A", "B"), t), Factor("f2", ("B", "C"), PotentialTable.from_array(t.array.T))),
    )
    grouping = run_colour_passing(g)
    assert len(grouping.factor_classes) == 1
    assert_falls_back(g, grouping, ["A", "B", "C"])


def test_errors_are_those_of_the_ground_path():
    with_unknown = chain_graph().with_tables({"f2": None})
    grouping = run_colour_passing(with_unknown, unknown_tags={"f2": "u"})
    assert _quotient(with_unknown, grouping) is None
    with pytest.raises(UnknownFactorPresent):
        lifted_marginals(with_unknown, ["A"], grouping)

    # B = true selects an all-zero column of f1
    zero = chain_graph(t1=(1.0, 0.0, 1.0, 0.0), t2=ASYMMETRIC_2x2, evidence={"B": "true"})
    grouping = run_colour_passing(zero)
    assert _quotient(zero, grouping) is None
    with pytest.raises(InconsistentEvidence) as ground:
        _ground_marginals(zero, ["A"])
    with pytest.raises(InconsistentEvidence) as lifted:
        lifted_marginals(zero, ["A"], grouping)
    assert str(lifted.value) == str(ground.value)
    # both arguments observed: the factor's own entry is zero
    both = chain_graph(t1=(1.0, 0.0, 1.0, 0.0), t2=ASYMMETRIC_2x2, evidence={"A": "true", "B": "true"})
    grouping = run_colour_passing(both)
    assert _quotient(both, grouping) is None
    with pytest.raises(InconsistentEvidence, match="zeroes out factor 'f1'"):
        lifted_marginals(both, ["C"], grouping)
    # only observed queries: ground answers without looking at the zero
    assert lifted_marginals(both, ["A", "B"], grouping) == _ground_marginals(both, ["A", "B"])

    # disjoint unary supports on B: B's message to f2, and B's belief, are zero
    rvs = (RandomVariable("B", BOOL_RANGE), RandomVariable("C", BOOL_RANGE))
    u1 = Factor("u1", ("B",), PotentialTable((2,), (1.0, 0.0)))
    u2 = Factor("u2", ("B",), PotentialTable((2,), (0.0, 1.0)))
    f2 = Factor("f2", ("B", "C"), PotentialTable((2, 2), ASYMMETRIC_2x2))
    for zero in (FactorGraph(rvs, (u1, u2, f2)), FactorGraph(rvs[:1], (u1, u2))):
        grouping = run_colour_passing(zero)
        assert _quotient(zero, grouping) is None
        with pytest.raises(InconsistentEvidence) as ground:
            _ground_marginals(zero, ["B"])
        with pytest.raises(InconsistentEvidence) as lifted:
            lifted_marginals(zero, ["B"], grouping)
        assert str(lifted.value) == str(ground.value)

    g = chain_graph()
    with pytest.raises(TypeError):
        lifted_marginals(g, "A", run_colour_passing(g))
    with pytest.raises(UnknownNode, match="no random variable 'Z'"):
        lifted_marginals(g, ["Z"], run_colour_passing(g))


# -- the path marginals and variable_elimination choose ------------------------


def lifts(fg, evidence=None):
    """Whether ``marginals(fg, ..., evidence)`` can answer on the quotient."""
    g = fg.with_evidence(evidence) if evidence else fg
    return _quotient(g, run_colour_passing(g)) is not None


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


def test_passed_evidence_is_stored_evidence_and_refines_the_kept_colouring(monkeypatch):
    cfg = ExperimentConfig(
        d=32, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=4,
    )
    inst = generate_instance(cfg)
    fg = inst.truth
    leaves = [r for r in fg.rv_ids if fg.degree(r) == 1 and r not in inst.queries][:3]
    evidence = {r: fg.rv(r).range.values[1] for r in leaves}
    starts, used, passes = [], [], []
    start = colours.initial_colouring
    quotient = inference._quotient
    bp = inference._counting_bp
    monkeypatch.setattr(colours, "initial_colouring", lambda g, *a: starts.append(g) or start(g, *a))
    monkeypatch.setattr(inference, "_quotient", lambda g, grouping: used.append(grouping) or quotient(g, grouping))
    monkeypatch.setattr(inference, "_counting_bp", lambda *a: passes.append(a) or bp(*a))

    plain = marginals(fg, inst.queries)
    assert starts and len(passes) == 1
    # the graph's grouping is kept, the marginals are not
    assert marginals(fg, inst.queries) == plain
    assert len(passes) == 2
    own = fg.memo("inference.grouping", lambda: None)
    assert used == [own, own]
    scratch = run_colour_passing(fg)
    assert own == scratch

    observed = fg.with_evidence(evidence)
    expected = run_colour_passing(observed)
    del starts[:], used[:]
    assert marginals(fg, inst.queries, evidence) == marginals(observed, inst.queries)
    # both calls refined the kept colouring: neither coloured a graph from
    # its initial colours, and the grouping they used is the observed graph's own
    assert starts == [] and len(passes) == 4
    assert used == [expected, expected] and expected != own
    assert fg.memo("inference.grouping", lambda: None) is own == scratch
    # passed evidence that repeats stored evidence is no new evidence
    assert marginals(observed, inst.queries, evidence) == marginals(observed, inst.queries)
    assert starts == [] and len(passes) == 6


def test_gate_data_is_kept_per_graph(monkeypatch):
    inst = generate_instance(ExperimentConfig(
        d=32, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=4,
    ))
    result = complete_and_lift(inst.incomplete, 0.0)
    fg, grouping = result.completed, result.grouping
    other = run_colour_passing(fg)
    queries = list(fg.rv_ids)
    first = lifted_marginals(fg, queries, grouping)
    signatures = []
    signature = model.RandomVariable.signature
    monkeypatch.setattr(
        model.RandomVariable, "signature", property(lambda rv: signatures.append(rv) or signature.fget(rv))
    )
    # a repeated call, and a call with another grouping, read no RV's
    # signature: the codes are the graph's own
    assert lifted_marginals(fg, queries, grouping) == first
    assert lifted_marginals(fg, queries, other) == first
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
    # the evidence-free colouring and the adjacency read no evidence
    assert _evidence_free_colouring(copy) is _evidence_free_colouring(fg)
    assert vars(_evidence_free_colouring(copy)) == vars(_evidence_free_colouring(fresh))
    assert _adjacency(copy) is _adjacency(fg)
    assert _adjacency(copy) == _adjacency(fresh)
    # views that read the RVs' evidence are the copy's own
    assert _profile_ids(copy) == _profile_ids(fresh) != _profile_ids(fg)
    assert np.array_equal(_signature_codes(copy), _signature_codes(fresh))
    assert not np.array_equal(_signature_codes(copy), _signature_codes(fg))
    assert copy.memo("inference.grouping", lambda: None) is None
    # new tables share nothing
    f = next(f for f in fg.factors if len(f.args) == 2)
    changed = fg.with_tables({f.id: PotentialTable(f.table.shape, [1.0] * f.table.array.size)})
    assert known_table_classes(changed) is not known_table_classes(fg)
    assert known_table_classes(changed) == known_table_classes(FactorGraph(changed.rvs, changed.factors))
    assert _evidence_free_colouring(changed) is not _evidence_free_colouring(fg)
    assert _adjacency(changed) is not _adjacency(fg)
