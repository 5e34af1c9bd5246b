"""Lifted marginals: counting belief propagation on the quotient of a
graph's own stable colouring, against the ground function
``_ground_marginals``, and the fallback to it; the path ``marginals`` and
``variable_elimination`` choose; and the per-graph state that path keeps."""
import sys
from itertools import permutations
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
    serialize_model,
    state_space_size,
    variable_elimination,
)
import fglift.colours as colours
import fglift.inference as inference
import fglift.model as model
import fglift.synth as synth
from fglift.colours import (
    _adjacency,
    _grouping,
    _ports,
    _stable_colours,
    known_table_classes,
)
from fglift.inference import _ground_marginals, _quotient
from fglift.synth import max_cohorts
from conftest import ASYMMETRIC_2x2, chain_graph, cyclic_pair, random_graph, range_of
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


def quotient(g, evidence=None):
    """``_quotient`` under ``g``'s stored evidence and the passed
    ``evidence``, merged as ``marginals`` merges them."""
    return _quotient(g, {r.id: r.evidence for r in g.rvs if r.evidence is not None} | (evidence or {}))


def assert_falls_back(fg, queries):
    assert quotient(fg) is None
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
        assert quotient(result.completed) is not None
        assert_close_to_ground(result.completed, queries)
        # evidence stored on a few RVs, refined into the colouring
        picked = rng.choice(queries, 4, replace=False)
        observed = result.completed.with_evidence(
            {str(r): result.completed.rv(str(r)).range.values[-1] for r in picked}
        )
        assert quotient(observed) is not None
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
                    assert quotient(inst.truth) is not None
                    assert quotient(result.completed) is not None
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
            assert quotient(g) is not None
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
    # past the forest check, the messages meet a cycle of the quotient
    g.incidence.__dict__["is_forest"] = True
    assert quotient(g) is None


def test_a_completion_within_rtol_lifts_on_the_exact_colouring():
    near = parse_model(
        "rv a false,true\nrv b false,true\nrv c false,true\n"
        "factor fa known a 1,2\nfactor fb known b 1,2.0000009\nfactor fc known c 1,2.0000018\n"
    )
    result = complete_and_lift(near, 0.5, None, 1e-6)
    assert len(result.grouping.factor_classes) == 1
    # the completion's grouping is not the graph's own: that one is exact
    assert len(run_colour_passing(result.completed).factor_classes) == 3
    assert quotient(result.completed) is not None
    assert_close_to_ground(result.completed, ["a", "b", "c"])


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


def test_forests_whose_members_differ_by_position_lift():
    # colour passing merges the chain's f1 and f2 through their symmetric
    # table, though B sits at position 1 of f1 and at position 0 of f2, and
    # it merges a transposed member with its class; the edge classes are
    # keyed on ports, as the colouring is, so each lifts
    graphs = [chain_graph(), transposed_member(), symmetric_triple_at_two_positions()]
    assert [len(run_colour_passing(g).factor_classes) for g in graphs] == [1, 1, 5]
    for g in graphs:
        for ev in (None, {g.rv_ids[0]: g.rvs[0].range.values[1]}):
            assert lifts(g, ev)
            assert_public_close_to_ground(g, list(g.rv_ids), ev)
    assert {frozenset({"v5", "v6"})} < run_colour_passing(graphs[2]).rv_partition()


def symmetric_table(rng, k, arity, kind):
    """A small-integer table over ``arity`` arguments of ``k`` values: summed
    over every axis permutation ("full"), over the swap of its first two
    axes ("block") or over its rotations ("cyclic")."""
    base = rng.integers(1, 9, (k,) * arity).astype(float)
    group = {
        "full": list(permutations(range(arity))),
        "block": [tuple(range(arity)), (1, 0) + tuple(range(2, arity))],
        "cyclic": [tuple(range(i, arity)) + tuple(range(i)) for i in range(arity)],
    }[kind]
    return PotentialTable.from_array(sum(np.transpose(base, g) for g in group))


def permuted_forests(rng, n):
    """``n`` forests, each two or three copies of one random tree of arity-2
    and arity-3 factors with fully symmetric, block-symmetric and cyclic
    tables. Every factor of every copy lists its arguments in a random order
    and permutes its table's axes to match, so the copies agree up to
    positions; each RV has a unary table from a pool of two."""
    for _ in range(n):
        k = int(rng.integers(2, 4))
        pool = [symmetric_table(rng, k, 2, "full")]
        pool += [symmetric_table(rng, k, 3, kind) for kind in ("full", "block", "cyclic")]
        unary = [PotentialTable((k,), rng.integers(1, 9, k).astype(float)) for _ in range(2)]
        n_rvs, tree = 1, []
        for _ in range(int(rng.integers(1, 4))):
            table = pool[int(rng.integers(len(pool)))]
            tree.append((table, [int(rng.integers(n_rvs))] + list(range(n_rvs, n_rvs + table.arity - 1))))
            n_rvs += table.arity - 1
        kind = rng.integers(2, size=n_rvs)
        rvs, factors = [], []
        for copy in range(int(rng.integers(2, 4))):
            rvs += [RandomVariable(f"x{copy}_{v}", range_of(k)) for v in range(n_rvs)]
            for i, (table, args) in enumerate(tree):
                perm = [int(q) for q in rng.permutation(table.arity)]
                names = tuple(f"x{copy}_{args[q]}" for q in perm)
                factors.append(Factor(f"f{copy}_{i}", names, PotentialTable.from_array(np.transpose(table.array, perm))))
            factors += [Factor(f"u{copy}_{v}", (f"x{copy}_{v}",), unary[kind[v]]) for v in range(n_rvs)]
        yield FactorGraph(rvs, factors)


def test_forests_with_permuted_symmetric_members_lift_with_and_without_evidence():
    rng = np.random.default_rng(829)
    calls = 0
    for g in permuted_forests(rng, 92):
        assert g.incidence.is_forest
        queries = list(g.rv_ids)
        observed = rng.choice(queries, int(rng.integers(1, 3)), replace=False)
        evidence = {str(r): str(rng.choice(g.rv(str(r)).range.values)) for r in observed}
        for ev in (None, evidence):
            assert lifts(g, ev)
            for m, e in zip(marginals(g, queries, ev), _ground_marginals(g, queries, ev), strict=True):
                assert m.rv == e.rv and m.values == e.values
                assert np.allclose(m.probabilities, e.probabilities, rtol=0.0, atol=1e-12)
            calls += 1
    assert calls == 184


def test_block_ports_keep_a_cyclic_pair_apart(monkeypatch):
    # the quotient trusts the ports: with every position of an arity-3
    # table at one port, as whole stabiliser orbits put a cyclic table's,
    # a0 and a1 would share a class although their marginals differ
    fg = cyclic_pair()
    partition = run_colour_passing(fg).rv_partition()
    assert {frozenset({"a0"}), frozenset({"a1"})} <= partition
    assert quotient(fg) is not None
    assert_close_to_ground(fg, list(fg.rv_ids))
    ground = _ground_marginals(fg, ["a0", "a1"])
    assert ground[0].probabilities != ground[1].probabilities
    coarse = cyclic_pair()
    ports = colours._port_labels
    monkeypatch.setattr(
        colours, "_port_labels", lambda table, n: (0,) * n if n == 3 else ports(table, n)
    )
    assert frozenset({"a0", "a1"}) in run_colour_passing(coarse).rv_partition()


def test_errors_are_those_of_the_ground_path():
    with_unknown = chain_graph().with_tables({"f2": None})
    with pytest.raises(UnknownFactorPresent):
        marginals(with_unknown, ["A"])

    # B = true selects an all-zero column of f1
    zero = chain_graph(t1=(1.0, 0.0, 1.0, 0.0), t2=ASYMMETRIC_2x2, evidence={"B": "true"})
    assert quotient(zero) is None
    with pytest.raises(InconsistentEvidence) as ground:
        _ground_marginals(zero, ["A"])
    with pytest.raises(InconsistentEvidence) as lifted:
        marginals(zero, ["A"])
    assert str(lifted.value) == str(ground.value)
    # both arguments observed: the factor's own entry is zero
    both = chain_graph(t1=(1.0, 0.0, 1.0, 0.0), t2=ASYMMETRIC_2x2, evidence={"A": "true", "B": "true"})
    assert quotient(both) is None
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
        assert quotient(zero) is None
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
    return quotient(fg, evidence) is not None


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
    # a forest whose grouping is not positional lifts
    assert lifts(chain_graph(), {"C": "true"})
    assert_public_close_to_ground(chain_graph(), ["A", "B", "C"], {"C": "true"})
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


def kept(g, key):
    """What ``g`` keeps under ``key``, without building it."""
    return g._memo.get(key)


def test_passed_evidence_is_stored_evidence_and_refines_the_kept_colouring(monkeypatch):
    cfg = ExperimentConfig(
        d=32, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=4,
    )
    inst = generate_instance(cfg)
    fg = inst.truth
    leaves = [r for r in fg.rv_ids if fg.degree(r) == 1 and r not in inst.queries][:3]
    evidence = {r: fg.rv(r).range.values[1] for r in leaves}
    starts, used = [], []
    start = colours._initial_colours
    lifted = inference._quotient
    monkeypatch.setattr(colours, "_initial_colours", lambda g, *a: starts.append(g) or start(g, *a))
    monkeypatch.setattr(inference, "_quotient", lambda g, ev: used.append((g, ev)) or lifted(g, ev))

    plain = marginals(fg, inst.queries)
    assert starts == [fg] and len(used) == 1
    # the graph's colouring is kept, the marginals are not
    assert marginals(fg, inst.queries) == plain
    assert starts == [fg]
    assert used == [(fg, {}), (fg, {})]
    own = _stable_colours(fg, {})
    scratch = run_colour_passing(fg)
    assert _grouping(fg, own) == scratch and starts == [fg]

    observed = fg.with_evidence(evidence)
    expected = run_colour_passing(observed)
    del starts[:], used[:]
    assert marginals(fg, inst.queries, evidence) == marginals(observed, inst.queries)
    # both calls split a kept colouring by the same evidence: neither
    # coloured a graph from its initial colours, and the partition they
    # used is the observed graph's own
    assert starts == []
    assert used == [(fg, evidence), (observed, evidence)]
    split = [_grouping(g, _stable_colours(g, ev)) for g, ev in used]
    assert split == [expected, expected] != [scratch] * 2
    assert _stable_colours(fg, {}) is own
    # passed evidence that repeats stored evidence is no new evidence
    assert marginals(observed, inst.queries, evidence) == marginals(observed, inst.queries)
    assert starts == [] and len(used) == 4


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
    assert _grouping(result.completed, _stable_colours(result.completed, {})) == result.grouping
    assert kept(result.completed, "colours.adjacency") is None

    # a graph with stored evidence is coloured from its initial colours
    # once, and every call then splits that colouring by the evidence: no
    # later call colours from initial colours
    fg = result.completed
    leaves = [r for r in fg.rv_ids if fg.degree(r) == 1][:3]
    observed = fg.with_evidence({r: fg.rv(r).range.values[1] for r in leaves})
    del starts[:], refined[:]
    first = marginals(observed, leaves[:1] + [fg.rv_ids[0]])
    assert starts == [observed] and len(refined) == 2
    assert marginals(observed, leaves[:1] + [fg.rv_ids[0]]) == first
    assert starts == [observed] and len(refined) == 3
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


def test_evidence_calls_copy_no_graph(monkeypatch):
    inst = generate_instance(ExperimentConfig(
        d=32, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=4,
    ))
    fg = inst.truth
    queries = list(inst.queries)
    marginals(fg, queries)
    before = dict(fg._memo)
    leaves = [r for r in fg.rv_ids if fg.degree(r) == 1 and r not in queries][:3]
    evidence = {r: fg.rv(r).range.values[1] for r in leaves}
    assert quotient(fg, evidence) is not None
    # every FactorGraph is made by the constructor or by _same_structure
    built = []
    init, same = model.FactorGraph.__init__, model.FactorGraph._same_structure
    monkeypatch.setattr(model.FactorGraph, "__init__", lambda g, *a: built.append(g) or init(g, *a))
    monkeypatch.setattr(model.FactorGraph, "_same_structure", lambda g, *a: built.append(g) or same(g, *a))
    got = marginals(fg, queries, evidence)
    assert marginals(fg, queries, evidence) == got
    assert built == []
    # the graph keeps its evidence-free colouring and the adjacency the
    # evidence is split on, and nothing that depends on the evidence
    assert fg._memo.keys() - before.keys() == {"colours.adjacency"}
    assert all(fg._memo[key] is view for key, view in before.items())
    monkeypatch.undo()
    assert np.array_equal(kept(fg, ("colours.stable", 0.0, ())), _stable_colours(fg.with_tables({}), {}))
    assert kept(fg, "colours.adjacency") == _adjacency(fg)
    # a copy shares the incidence index and no view, and its answer is the
    # one passed evidence gave, bit for bit
    copy = fg.with_evidence(evidence)
    assert copy.incidence is fg.incidence and copy._memo == {}
    assert got == marginals(copy, queries)
    assert _ports(copy) is not _ports(fg)
    assert known_table_classes(copy) is not known_table_classes(fg)


def test_an_evidence_path_builds_the_adjacency_once(monkeypatch):
    inst = generate_instance(ExperimentConfig(
        d=32, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=4,
    ))
    fg = inst.truth
    queries = list(inst.queries)
    leaves = [r for r in fg.rv_ids if fg.degree(r) == 1 and r not in queries][:3]
    evidence = {r: fg.rv(r).range.values[1] for r in leaves}
    built = []
    adjacency = colours._adjacency
    monkeypatch.setattr(colours, "_adjacency", lambda g: built.append(g) or adjacency(g))
    # stored evidence: the from-scratch colouring and the split share one
    for rtol in (0.0, 1e-6):
        observed = fg.with_evidence(evidence)
        run_colour_passing(observed, rtol)
        run_colour_passing(observed, rtol)
        assert built == [observed] and kept(observed, "colours.adjacency") is not None
        del built[:]
    # passed evidence on a graph not coloured yet, then again
    marginals(fg, queries, evidence)
    marginals(fg, queries, evidence)
    assert built == [fg]
    # a graph that never sees evidence builds one for its colouring, and
    # keeps none
    plain = fg.with_tables({})
    marginals(plain, queries)
    run_colour_passing(plain)
    assert built == [fg, plain] and kept(plain, "colours.adjacency") is None


def test_a_graph_is_coloured_once_per_rtol_and_tags(monkeypatch):
    inst = generate_instance(ExperimentConfig(
        d=32, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=4,
    ))
    starts = []
    start = colours._initial_colours
    monkeypatch.setattr(colours, "_initial_colours", lambda g, *a: starts.append((g, *a)) or start(g, *a))
    fg = inst.truth
    first = run_colour_passing(fg, 1e-6)
    assert run_colour_passing(fg, 1e-6) == first
    assert starts == [(fg, 1e-6, None)]
    # another rtol is another colouring, kept apart
    run_colour_passing(fg)
    run_colour_passing(fg, 0.0, {})
    assert starts == [(fg, 1e-6, None), (fg, 0.0, None)]


def test_what_a_completed_graph_keeps():
    inst = generate_instance(ExperimentConfig(
        d=32, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=4,
    ))
    result = complete_and_lift(inst.incomplete, 0.0, None, 1e-6)
    fg = result.completed
    marginals(fg, inst.queries)
    # complete_and_lift keeps the colouring at its rtol, marginals at rtol 0
    # and the evidence-free counting BP on it; neither keeps an adjacency, as
    # the graph has seen no evidence
    assert fg._memo.keys() == {
        "colours.ports",
        ("colours.table_classes", 1e-6),
        ("colours.stable", 1e-6, ()),
        ("colours.table_classes", 0.0),
        ("colours.stable", 0.0, ()),
        "inference.free",
        "model.unknown_factor_ids",
    }
    assert _grouping(fg, kept(fg, ("colours.stable", 1e-6, ()))) == result.grouping


# -- the evidence-free state, and messages computed on demand ---------------------


def copied_forests(rng, n):
    """``n`` forests, each two or three copies of one random tree plus one
    tree of its own, so that the quotient folds the copies together. Factors
    have arity 1 to 3 and take their tables from a small pool per shape, in
    which about 30% of the entries are zero."""
    for _ in range(n):
        pools: dict[tuple[int, ...], list[PotentialTable]] = {}

        def table(shape):
            pool = pools.setdefault(shape, [])
            if len(pool) < 2:
                entries = rng.integers(1, 9, int(np.prod(shape))).astype(float)
                entries[rng.random(entries.size) < 0.3] = 0.0
                pool.append(PotentialTable(shape, entries.tolist()))
            return pool[int(rng.integers(len(pool)))]

        def tree(n_rvs):
            sizes = [int(rng.integers(2, 4)) for _ in range(n_rvs)]
            scopes, joined = [], 1
            while joined < n_rvs:
                new = list(range(joined, min(n_rvs, joined + int(rng.integers(1, 3)))))
                scopes.append([int(rng.integers(joined))] + new)
                joined += len(new)
            scopes += [[int(v)] for v in rng.choice(n_rvs, int(rng.integers(1, n_rvs + 1)), replace=False)]
            return sizes, [(scope, table(tuple(sizes[v] for v in scope))) for scope in scopes]

        shared, own = tree(int(rng.integers(3, 7))), tree(int(rng.integers(2, 5)))
        rvs, factors = [], []
        for c, (sizes, tables) in enumerate([shared] * int(rng.integers(2, 4)) + [own]):
            rvs += [RandomVariable(f"x{c}_{v}", range_of(k)) for v, k in enumerate(sizes)]
            factors += [
                Factor(f"f{c}_{i}", tuple(f"x{c}_{v}" for v in scope), t) for i, (scope, t) in enumerate(tables)
            ]
        yield FactorGraph(rvs, factors)


def test_evidence_calls_on_the_kept_state_answer_as_the_ground_path():
    """Random forests with zero entries, stored and passed evidence, and
    observed queries mixed in; evidence also lies in copies that hold no
    query. Every answer is the ground function's within 1e-12, and every
    error its error; each call that answers lifts."""
    rng = np.random.default_rng(839)
    answered, failed = [0, 0, 0], 0
    for g in copied_forests(rng, 240):
        assert g.incidence.is_forest
        ids = list(g.rv_ids)
        first = [r for r in ids if r.startswith("x0_")]
        stored = {
            str(r): str(rng.choice(g.rv(str(r)).range.values))
            for r in rng.choice(ids, int(rng.integers(0, 3)), replace=False)
        }
        fg = g.with_evidence(stored)
        free = [r for r in ids if r not in stored]
        # evidence in the queried copy, on a copy's only query and in a copy
        # without a query; the first two are queried too
        others = [r for r in free if not r.startswith("x0_")]
        picked = [str(rng.choice(first))] + [str(r) for r in rng.choice(others, 2, replace=False)]
        passed = {r: str(rng.choice(fg.rv(r).range.values)) for r in picked if r not in stored}
        queries = [str(q) for q in rng.choice(first, min(3, len(first)), replace=False)] + picked[:2]
        for i, ev in enumerate((None, passed, {r: v for r, v in passed.items() if not r.startswith("x0_")})):
            expected = outcome(_ground_marginals, fg, queries, ev)
            got = outcome(marginals, fg, queries, ev)
            if isinstance(expected, tuple) and isinstance(expected[0], type):
                assert got == expected
                failed += 1
                continue
            assert lifts(fg, ev)
            answered[i] += 1
            for m, e in zip(got, expected, strict=True):
                assert m.rv == e.rv and m.values == e.values
                assert np.allclose(m.probabilities, e.probabilities, rtol=0.0, atol=1e-12)
    # answers without evidence, under all of it, and under the evidence
    # outside the queried copy
    assert min(answered) > 60 and failed > 100


def test_no_answer_depends_on_call_history():
    """One graph is asked without evidence, under evidence A, under evidence
    B and without evidence again; each answer is bit for bit that of the same
    call on a fresh copy, which builds its evidence-free state in that call."""
    rng = np.random.default_rng(853)
    forests = list(copied_forests(rng, 60))
    inst = generate_instance(ExperimentConfig(
        d=64, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=2,
    ))
    lifted = 0
    for g in forests + [inst.truth]:
        text = serialize_model(g)
        fg = parse_model(text)
        ids = list(fg.rv_ids)
        queries = [str(q) for q in rng.choice(ids, min(4, len(ids)), replace=False)]
        a, b = ({str(r): fg.rv(str(r)).range.values[-1] for r in rng.choice(ids, 2, replace=False)} for _ in "ab")
        for ev in (None, a, b, None):
            assert outcome(marginals, fg, queries, ev) == outcome(marginals, parse_model(text), queries, ev)
        lifted += kept(fg, "inference.free") is not None
    assert lifted > 30


def counted_log_additions(monkeypatch):
    """Count every addition of two arrays derived from a log message: the
    log messages are made by ``np.log``, which returns them as an array
    type that counts the additions it takes part in."""
    count = [0]

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.add and method == "__call__":
                count[0] += 1
            plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
            out = getattr(ufunc, method)(*plain, **kwargs)
            return out.view(Counted) if isinstance(out, np.ndarray) else out

    log = np.log
    monkeypatch.setattr(np, "log", lambda x: log(x).view(Counted))
    return count


def test_a_hub_sends_its_messages_in_work_linear_in_its_edges(monkeypatch):
    """A hub with 200 leaves, each joined by a table of its own, has 200
    distinct incoming edge classes. Its 200 outgoing messages together take
    O(D) log-message additions, not D - 1 each."""
    rng = np.random.default_rng(857)
    leaves = 200
    rvs = [RandomVariable("hub", BOOL_RANGE)] + [RandomVariable(f"l{i}", BOOL_RANGE) for i in range(leaves)]
    factors = [
        Factor(f"p{i}", ("hub", f"l{i}"), PotentialTable((2, 2), rng.uniform(0.5, 2.0, 4).tolist()))
        for i in range(leaves)
    ]
    fg = FactorGraph(rvs, factors)
    queries = ["hub", "l0", f"l{leaves - 1}"]
    count = counted_log_additions(monkeypatch)
    got = marginals(fg, queries)
    assert count[0] < 10 * leaves, count[0]
    # under evidence on one leaf, the messages into the hub and the hub's
    # messages out again cost O(D) too
    evidence = {"l1": "true"}
    count[0] = 0
    observed = marginals(fg, queries, evidence)
    assert count[0] < 10 * leaves, count[0]
    monkeypatch.undo()
    assert len(kept(fg, "inference.free").log_mu) == 2 * leaves and lifts(fg, evidence)
    for ev, answer in ((None, got), (evidence, observed)):
        for m, e in zip(answer, _ground_marginals(fg, queries, ev), strict=True):
            assert np.allclose(m.probabilities, e.probabilities, rtol=0.0, atol=1e-12)


def evidence_behind(fg, row, evidence):
    """Whether an RV in ``evidence`` lies behind incidence row ``row`` of the
    forest ``fg``: reachable from the row's factor without crossing the
    row's own edge, by a walk over the ground graph."""
    factor = fg.factors[int(fg.incidence.factor[row])]
    seen = {fg.rvs[int(fg.incidence.rv[row])].id}
    walked, todo = {factor.id}, list(factor.args)
    while todo:
        r = todo.pop()
        if r in seen:
            continue
        if r in evidence:
            return True
        seen.add(r)
        for f in set(fg.factors_of(r)) - walked:
            walked.add(f)
            todo += fg.factor(f).args
    return False


def test_an_evidence_call_computes_only_messages_with_evidence_behind(monkeypatch):
    """With the evidence-free state kept, an evidence call computes a
    message, or lists the messages it reads, only for an edge class with an
    observed RV behind its first row; every other message is the kept one."""
    rng = np.random.default_rng(863)
    inst = generate_instance(ExperimentConfig(
        d=64, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=2,
    ))
    touched = []
    for name in ("message", "reads"):
        method = getattr(inference._Counting, name)
        monkeypatch.setattr(inference._Counting, name, lambda bp, e, m=method: touched.append((bp, e)) or m(bp, e))
    checked, lifted = 0, 0
    for fg in [inst.truth, *copied_forests(rng, 60)]:
        ids = list(fg.rv_ids)
        leaves = [r for r in ids if fg.degree(r) == 1]
        if len(leaves) < 3 or len(ids) < 6:
            continue
        evidence = {str(r): str(rng.choice(fg.rv(str(r)).range.values)) for r in rng.choice(leaves, 3, replace=False)}
        queries = [str(q) for q in rng.choice([r for r in ids if r not in evidence], 3, replace=False)]
        outcome(marginals, fg, queries)
        del touched[:]
        outcome(marginals, fg, queries, evidence)
        for bp, e in touched:
            assert evidence_behind(fg, int(np.flatnonzero(bp.edge == e)[0]), evidence)
        checked += len(touched)
        lifted += kept(fg, "inference.free") is not None and lifts(fg, evidence)
    assert lifted > 15 and checked > 100, (lifted, checked)
