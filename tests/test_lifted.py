"""Lifted marginals: counting belief propagation on the quotient of a
grouping, against ground ``marginals``, and the fallback to it."""
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
)
from fglift.inference import _quotient
from fglift.synth import max_cohorts
from conftest import ASYMMETRIC_2x2, chain_graph, random_graph
from test_acceptance import SWEEP_D, SWEEP_P, SWEEP_SEEDS, SWEEP_UF, _sweep_config


def assert_close_to_ground(fg, grouping, queries, tol=1e-12):
    got = lifted_marginals(fg, queries, grouping)
    expected = marginals(fg, queries)
    assert [m.rv for m in got] == list(queries)
    for m, e in zip(got, expected):
        assert m.values == e.values
        assert np.allclose(m.probabilities, e.probabilities, rtol=0.0, atol=tol)


def assert_falls_back(fg, grouping, queries):
    assert _quotient(fg, grouping) is None
    assert lifted_marginals(fg, queries, grouping) == marginals(fg, queries)


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
        marginals(zero, ["A"])
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
    assert lifted_marginals(both, ["A", "B"], grouping) == marginals(both, ["A", "B"])

    # disjoint unary supports on B: B's message to f2, and B's belief, are zero
    rvs = (RandomVariable("B", BOOL_RANGE), RandomVariable("C", BOOL_RANGE))
    u1 = Factor("u1", ("B",), PotentialTable((2,), (1.0, 0.0)))
    u2 = Factor("u2", ("B",), PotentialTable((2,), (0.0, 1.0)))
    f2 = Factor("f2", ("B", "C"), PotentialTable((2, 2), ASYMMETRIC_2x2))
    for zero in (FactorGraph(rvs, (u1, u2, f2)), FactorGraph(rvs[:1], (u1, u2))):
        grouping = run_colour_passing(zero)
        assert _quotient(zero, grouping) is None
        with pytest.raises(InconsistentEvidence) as ground:
            marginals(zero, ["B"])
        with pytest.raises(InconsistentEvidence) as lifted:
            lifted_marginals(zero, ["B"], grouping)
        assert str(lifted.value) == str(ground.value)

    g = chain_graph()
    with pytest.raises(TypeError):
        lifted_marginals(g, "A", run_colour_passing(g))
    with pytest.raises(UnknownNode, match="no random variable 'Z'"):
        lifted_marginals(g, ["Z"], run_colour_passing(g))
