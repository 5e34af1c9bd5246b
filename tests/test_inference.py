"""Variable elimination and several marginals from one elimination against the enumeration oracle, plus divergence.

Oracle checks run on both the public entries, which answer on the lifted
quotient where that is exact, and the ground function, which always
eliminates; bit-for-bit checks of elimination run on the ground function."""
import math
import warnings

import numpy as np
import pytest

from fglift import (
    BOOL_RANGE,
    DomainMismatch,
    ExperimentConfig,
    Factor,
    FactorGraph,
    GenerationInfeasible,
    InconsistentEvidence,
    InfiniteDivergence,
    Marginal,
    PotentialTable,
    RandomVariable,
    UnknownFactorPresent,
    UnknownNode,
    complete_and_lift,
    compression_ratio,
    generate_instance,
    kld,
    marginals,
    parse_model,
    run_colour_passing,
    run_experiment,
    state_space_size,
    variable_elimination,
)
from fglift.inference import (
    _beliefs,
    _ground_marginals,
    _in_range,
    _min_degree_order,
    _product,
    _reduced_factors,
    _sum_to,
)
from fglift.synth import InstanceResult, QueryResult, max_cohorts
from conftest import (
    ASYMMETRIC_2x2,
    chain_graph,
    enumerate_weights,
    epidemic_base,
    oracle_marginal,
    random_graph,
)

ORDERS = ("min_degree", "reverse_id")


def ground_elimination(fg, query, evidence=None, order="min_degree"):
    """``variable_elimination`` on the ground graph, always."""
    return _ground_marginals(fg, (query,), evidence, order)[0]


# (several queries, one query): the public entries, then the ground path
ENTRIES = ((marginals, variable_elimination), (_ground_marginals, ground_elimination))


def assert_matches_oracle(fg, query, evidence=None, tol=1e-12):
    expected = oracle_marginal(fg, query, evidence)
    for order in ORDERS:
        for _, single in ENTRIES:
            got = single(fg, query, evidence, order=order)
            assert got.rv == query
            assert got.values == fg.rv(query).range.values
            assert np.allclose(got.probabilities, expected, atol=tol)


def test_single_unary_factor():
    g = FactorGraph(
        (RandomVariable("A", BOOL_RANGE),),
        (Factor("f", ("A",), PotentialTable((2,), (1.0, 3.0))),),
    )
    m = variable_elimination(g, "A")
    assert m == Marginal("A", ("false", "true"), (0.25, 0.75))


def test_chain_frozen_marginals():
    # symmetric chain: Z = 89, column sums 5 and 8
    g = chain_graph()
    assert variable_elimination(g, "A").probabilities == pytest.approx(
        (34 / 89, 55 / 89), rel=1e-15
    )
    assert variable_elimination(g, "B").probabilities == pytest.approx(
        (25 / 89, 64 / 89), rel=1e-15
    )
    assert variable_elimination(g, "C").probabilities == pytest.approx(
        (34 / 89, 55 / 89), rel=1e-15
    )


def test_chain_frozen_posterior():
    g = chain_graph()
    m = variable_elimination(g, "A", {"C": "true"})
    assert m.probabilities == pytest.approx((21 / 55, 34 / 55), rel=1e-15)


def test_chain_matches_oracle_under_all_evidence():
    g = chain_graph()
    for rv in ("A", "B", "C"):
        assert_matches_oracle(g, rv)
        for ev_rv in ("A", "B", "C"):
            if ev_rv == rv:
                continue
            for val in ("false", "true"):
                assert_matches_oracle(g, rv, {ev_rv: val})


def test_epidemic_matches_oracle():
    g = epidemic_base()
    for rv in g.rv_ids:
        assert_matches_oracle(g, rv)
    assert_matches_oracle(g, "Epid", {"Travel.alice": "true", "Sick.bob": "false"})


def test_long_chain_matches_oracle():
    rng = np.random.default_rng(61)
    n = 12
    rvs = tuple(RandomVariable(f"x{i:02d}", BOOL_RANGE) for i in range(n))
    fs = tuple(
        Factor(
            f"e{i:02d}",
            (f"x{i:02d}", f"x{i + 1:02d}"),
            PotentialTable((2, 2), tuple(rng.uniform(0.5, 2.0, size=4))),
        )
        for i in range(n - 1)
    )
    g = FactorGraph(rvs, fs)
    assert_matches_oracle(g, "x00", tol=1e-9)
    assert_matches_oracle(g, "x06", tol=1e-9)
    assert_matches_oracle(g, "x11", {"x00": "true", "x05": "false"}, tol=1e-9)


def test_random_graphs_match_oracle():
    rng = np.random.default_rng(67)
    for _ in range(20):
        g = random_graph(rng, n_rvs=6, n_factors=7, evidence_frac=0.3)
        for query in g.rv_ids[:3]:
            assert_matches_oracle(g, query, tol=1e-9)


def test_stored_and_passed_evidence_merge():
    g = chain_graph().with_evidence({"C": "true"})
    merged = variable_elimination(g, "A", {"B": "false"})
    plain = variable_elimination(chain_graph(), "A", {"B": "false", "C": "true"})
    assert merged.probabilities == plain.probabilities
    # same value twice is not a conflict
    variable_elimination(g, "A", {"C": "true"})


def test_query_on_observed_rv_is_point_mass():
    g = chain_graph()
    m = variable_elimination(g, "B", {"B": "true"})
    assert m.probabilities == (0.0, 1.0)
    stored = g.with_evidence({"B": "false"})
    assert variable_elimination(stored, "B").probabilities == (1.0, 0.0)


def test_conflicting_evidence_raises():
    g = chain_graph().with_evidence({"A": "true"})
    with pytest.raises(InconsistentEvidence):
        variable_elimination(g, "B", {"A": "false"})


def test_zero_distribution_under_evidence_raises():
    # tables with zero entries are representable even though validate flags
    # them; the all-zero slice must be rejected at inference time
    t = PotentialTable((2, 2), (1.0, 1.0, 0.0, 0.0))
    g = FactorGraph(
        (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)),
        (Factor("f", ("A", "B"), t),),
    )
    with pytest.raises(InconsistentEvidence):
        variable_elimination(g, "B", {"A": "true"})

    fully_observed = FactorGraph(
        (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)),
        (
            Factor("f", ("A",), PotentialTable((2,), (1.0, 0.0))),
            Factor("h", ("B",), PotentialTable((2,), (1.0, 1.0))),
        ),
    )
    with pytest.raises(InconsistentEvidence):
        variable_elimination(fully_observed, "B", {"A": "true"})


def test_variable_elimination_input_errors():
    g = chain_graph()
    with pytest.raises(ValueError):
        variable_elimination(g, "A", order="clever")
    with pytest.raises(ValueError):
        variable_elimination(g, "A", {"B": "maybe"})
    with pytest.raises(UnknownNode):
        variable_elimination(g, "Z")
    with pytest.raises(UnknownNode):
        variable_elimination(g, "A", {"Z": "true"})
    incomplete = FactorGraph(
        (RandomVariable("A", BOOL_RANGE),), (Factor("f", ("A",)),)
    )
    with pytest.raises(UnknownFactorPresent):
        variable_elimination(incomplete, "A")
    infinite = FactorGraph(
        (RandomVariable("A", BOOL_RANGE),),
        (Factor("f", ("A",), PotentialTable((2,), (1.0, math.inf))),),
    )
    with pytest.raises(ValueError, match="finite"):
        variable_elimination(infinite, "A")


def full_scan_elimination(fg, query, evidence=None, order="min_degree"):
    """Reference elimination without a priority queue and without rescaling.

    Min-degree rescans every remaining variable's neighbourhood at each step
    and takes the smallest (neighbour count, id); messages are never scaled,
    so it overflows on large graphs. Evidence is the stored evidence merged
    with ``evidence``, which must not conflict with it.
    """
    ev = {r.id: r.evidence for r in fg.rvs if r.evidence is not None}
    ev.update(evidence or {})
    sizes = {r.id: len(r.range) for r in fg.rvs}
    store = dict(enumerate(_reduced_factors(fg, ev)))
    next_id = len(store)
    var_facs = {}
    for fid, (vars_, _) in store.items():
        for v in vars_:
            var_facs.setdefault(v, set()).add(fid)
    remaining = {r.id for r in fg.rvs if r.id != query and r.id not in ev}
    static_order = sorted(remaining, reverse=True)

    def neighbour_count(v):
        seen = set()
        for fid in var_facs.get(v, ()):
            seen.update(store[fid][0])
        seen.discard(v)
        return len(seen)

    while remaining:
        if order == "min_degree":
            v = min(remaining, key=lambda u: (neighbour_count(u), u))
        else:
            v = next(u for u in static_order if u in remaining)
        remaining.discard(v)
        touched = sorted(var_facs.pop(v, ()))
        if not touched:
            continue
        acc = store.pop(touched[0])
        for fid in touched[1:]:
            acc = _product(acc, store.pop(fid))
        for fid in touched:
            for u in set(acc[0]) | {v}:
                var_facs.get(u, set()).discard(fid)
        vars_, arr = acc
        summed = arr.sum(axis=vars_.index(v))
        new_vars = tuple(u for u in vars_ if u != v)
        if new_vars:
            store[next_id] = (new_vars, summed)
            for u in new_vars:
                var_facs.setdefault(u, set()).add(next_id)
            next_id += 1
    result = np.ones(sizes[query])
    for vars_, arr in store.values():
        assert vars_ == (query,)
        result = result * arr
    z = float(result.sum())
    assert 0.0 < z < math.inf, "reference elimination overflowed"
    return tuple(float(x) for x in result / z)


def _random_evidence(rng, fg, query, count):
    ids = [r for r in sorted(fg.rv_ids) if r != query and fg.rv(r).evidence is None]
    picked = rng.choice(ids, min(count, len(ids)), replace=False)
    return {
        str(r): fg.rv(str(r)).range.values[int(rng.integers(len(fg.rv(str(r)).range)))]
        for r in picked
    }


def assert_bit_identical_to_full_scan(fg, query, evidence=None):
    for order in ORDERS:
        got = ground_elimination(fg, query, evidence, order=order)
        assert got.probabilities == full_scan_elimination(fg, query, evidence, order)


def test_heap_order_matches_full_scan_bit_for_bit():
    rng = np.random.default_rng(211)
    for i in range(60):
        g = random_graph(
            rng,
            n_rvs=int(rng.integers(4, 13)),
            n_factors=int(rng.integers(4, 16)),
            evidence_frac=0.3 if i % 2 else 0.0,
        )
        for query in g.rv_ids:
            if g.rv(query).evidence is not None:
                continue
            assert_bit_identical_to_full_scan(g, query)
            assert_bit_identical_to_full_scan(g, query, _random_evidence(rng, g, query, 2))


def test_heap_order_matches_full_scan_on_generated_instances():
    rng = np.random.default_rng(223)
    for d, p, seed in [(8, 0.5, 1), (16, 0.2, 2), (32, 0.7, 3), (32, 0.9, 4), (64, 0.3, 5), (64, 0.5, 6)]:
        cfg = ExperimentConfig(
            d=d, p=p, unknown_fraction=0.1, cohorts=min(3, max_cohorts(d, p)),
            queries_per_instance=4, theta=0.0, seed=seed,
        )
        inst = generate_instance(cfg)
        for query in inst.queries:
            assert_bit_identical_to_full_scan(inst.truth, query)
            evidence = _random_evidence(rng, inst.truth, query, 3)
            assert_bit_identical_to_full_scan(inst.truth, query, evidence)


def _unary_stack(tables):
    factors = tuple(
        Factor(f"f{i:04d}", ("A",), PotentialTable((2,), t)) for i, t in enumerate(tables)
    )
    return FactorGraph((RandomVariable("A", BOOL_RANGE),), factors)


def test_products_beyond_float64_range_are_rescaled():
    for order in ORDERS:
        big = _unary_stack([(10.0, 10.0)] * 1000)
        assert variable_elimination(big, "A", order=order).probabilities == (0.5, 0.5)
        # every product stays below 1 but their running product underflows
        # unless the final vector is rescaled as it is built
        alternating = _unary_stack([(1.0, 1e-3), (1e-3, 1.0)] * 300)
        assert variable_elimination(alternating, "A", order=order).probabilities == (0.5, 0.5)


def test_large_instances_answer_without_overflow():
    for seed in range(3):
        d, p = 128, 0.5
        cfg = ExperimentConfig(
            d=d, p=p, unknown_fraction=0.1, cohorts=min(3 + seed % 3, max_cohorts(d, p)),
            queries_per_instance=3 + seed % 2, theta=0.0, seed=seed,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_experiment(cfg)
        assert result.unresolved == 0
        assert len(result.queries) == cfg.queries_per_instance
        assert all(q.kld == 0.0 for q in result.queries)


def test_true_zero_at_large_scale_raises():
    # A is pushed far past float64 range by its unary factors, and the
    # evidence B=true selects an all-zero column of the pairwise factor
    big = _unary_stack([(10.0, 10.0)] * 1000)
    g = FactorGraph(
        tuple(big.rvs) + (RandomVariable("B", BOOL_RANGE),),
        tuple(big.factors) + (Factor("pair", ("A", "B"), PotentialTable((2, 2), (1.0, 0.0, 1.0, 0.0))),),
    )
    for order in ORDERS:
        assert variable_elimination(g, "A", order=order).probabilities == (0.5, 0.5)
        assert variable_elimination(g, "B", order=order).probabilities == (1.0, 0.0)
        with pytest.raises(InconsistentEvidence):
            variable_elimination(g, "A", {"B": "true"}, order=order)
        with pytest.raises(InconsistentEvidence):
            variable_elimination(g.with_evidence({"B": "true"}), "A", order=order)


# -- several marginals from one elimination ---------------------------------


def _with_zero_entries(rng, fg, frac):
    """``fg`` with about ``frac`` of every table's entries set to zero."""
    factors = []
    for f in fg.factors:
        entries = np.array(f.table.entries)
        entries[rng.random(entries.size) < frac] = 0.0
        factors.append(Factor(f.id, f.args, PotentialTable(f.table.shape, entries.tolist())))
    return FactorGraph(fg.rvs, factors)


def _prefixed(fg, prefix):
    return FactorGraph(
        tuple(RandomVariable(prefix + r.id, r.range, r.evidence) for r in fg.rvs),
        tuple(Factor(prefix + f.id, tuple(prefix + a for a in f.args), f.table) for f in fg.factors),
    )


def _has_mass(fg, evidence=None):
    """Whether some configuration consistent with the evidence has non-zero weight."""
    ev = {r.id: r.evidence for r in fg.rvs if r.evidence is not None}
    ev.update(evidence or {})
    ids, weights = enumerate_weights(fg)
    fixed = {ids.index(r): fg.rv(r).range.index(v) for r, v in ev.items()}
    return any(w > 0.0 and all(a[i] == v for i, v in fixed.items()) for a, w in weights.items())


def assert_marginals_match_oracle(fg, queries, evidence=None, tol=1e-12):
    for order in ORDERS:
        for several, _ in ENTRIES:
            got = several(fg, queries, evidence, order=order)
            assert [m.rv for m in got] == list(queries)
            for q, m in zip(queries, got):
                assert m.values == fg.rv(q).range.values
                assert np.allclose(m.probabilities, oracle_marginal(fg, q, evidence), rtol=0.0, atol=tol)


def test_marginals_match_enumeration():
    rng = np.random.default_rng(401)
    zeros_seen = 0
    for i in range(60):
        g = random_graph(
            rng, n_rvs=int(rng.integers(3, 8)), n_factors=int(rng.integers(3, 10)),
            evidence_frac=0.3 if i % 2 else 0.0,
        )
        if i % 4 >= 2:
            g = _with_zero_entries(rng, g, 0.3)
        all_rvs = list(g.rv_ids)
        rng.shuffle(all_rvs)
        evidence = _random_evidence(rng, g, all_rvs[0], 2)
        if not (_has_mass(g) and _has_mass(g, evidence)):
            for ev in (None, evidence):
                observed = {r.id for r in g.rvs if r.evidence is not None} | set(ev or ())
                if not _has_mass(g, ev) and set(all_rvs) - observed:
                    for several, _ in ENTRIES:
                        with pytest.raises(InconsistentEvidence):
                            several(g, all_rvs, ev)
            continue
        zeros_seen += i % 4 >= 2
        # every RV in one call, observed ones included, then passed evidence
        assert_marginals_match_oracle(g, all_rvs)
        assert_marginals_match_oracle(g, all_rvs, evidence)
        # a repeated query, and a query observed through passed evidence
        observed = next(iter(evidence))
        assert_marginals_match_oracle(g, [all_rvs[-1], observed, all_rvs[-1], all_rvs[0]], evidence)
    assert zeros_seen >= 8


def test_marginals_across_connected_components():
    rng = np.random.default_rng(409)
    for i in range(12):
        left = random_graph(rng, n_rvs=3, n_factors=3, evidence_frac=0.2)
        right = random_graph(rng, n_rvs=4, n_factors=5, evidence_frac=0.2)
        if i % 2:
            right = _with_zero_entries(rng, right, 0.2)
        g = FactorGraph(
            _prefixed(left, "a").rvs + _prefixed(right, "b").rvs,
            _prefixed(left, "a").factors + _prefixed(right, "b").factors,
        )
        if not _has_mass(g):
            continue
        queries = [r for r in g.rv_ids if r.startswith("b")] + [r for r in g.rv_ids if r.startswith("a")]
        assert_marginals_match_oracle(g, queries)
        assert_marginals_match_oracle(g, queries[::-1])


def assert_marginals_match_elimination(fg, queries, evidence=None, tol=1e-12):
    for order in ORDERS:
        for several, single in ENTRIES:
            got = several(fg, queries, evidence, order=order)
            # the first query is the root of the elimination tree, so it is
            # the single-query answer bit for bit; the lifted path answers
            # every query from one set of messages
            assert got[0] == single(fg, queries[0], evidence, order=order)
            for q, m in zip(queries, got):
                expected = single(fg, q, evidence, order=order)
                assert m.rv == q and m.values == expected.values
                assert np.allclose(m.probabilities, expected.probabilities, rtol=0.0, atol=tol)


def test_marginals_match_elimination_on_criterion_6_graphs():
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
        assert_marginals_match_elimination(g, list(g.rv_ids))


def test_marginals_match_elimination_on_generated_instances():
    rng = np.random.default_rng(419)
    for d, p, seed in [(8, 0.5, 1), (16, 0.2, 2), (32, 0.7, 3), (64, 0.3, 5), (128, 0.5, 0), (128, 0.5, 1)]:
        cfg = ExperimentConfig(
            d=d, p=p, unknown_fraction=0.1, cohorts=min(3 + seed % 3, max_cohorts(d, p)),
            queries_per_instance=3 + seed % 2, theta=0.0, seed=seed,
        )
        inst = generate_instance(cfg)
        queries = list(inst.queries) + sorted(inst.truth.rv_ids)[:: max(1, d // 8)]
        assert_marginals_match_elimination(inst.truth, queries)
        evidence = _random_evidence(rng, inst.truth, queries[0], 3)
        assert_marginals_match_elimination(inst.truth, queries, evidence)


def test_marginals_rescale_beyond_float64_range():
    big = _unary_stack([(10.0, 10.0)] * 1000)
    g = FactorGraph(
        tuple(big.rvs) + (RandomVariable("B", BOOL_RANGE),),
        tuple(big.factors) + (Factor("pair", ("A", "B"), PotentialTable((2, 2), (1.0, 2.0, 3.0, 4.0))),),
    )
    assert_marginals_match_elimination(g, ["A", "B"])
    assert_marginals_match_elimination(g, ["B", "A"])
    assert marginals(g, ["A", "B"])[1].probabilities == pytest.approx((0.4, 0.6), rel=1e-15)


def test_marginals_input_errors():
    g = chain_graph()
    with pytest.raises(ValueError):
        marginals(g, ["A", "B"], order="clever")
    with pytest.raises(ValueError):
        marginals(g, ["A", "C"], {"B": "maybe"})
    with pytest.raises(TypeError):
        marginals(g, "AB")
    with pytest.raises(UnknownNode):
        marginals(g, ["A", "Z"])
    with pytest.raises(InconsistentEvidence):
        marginals(g.with_evidence({"A": "true"}), ["B", "C"], {"A": "false"})
    incomplete = FactorGraph(
        (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)),
        (Factor("f", ("A",)), Factor("g", ("A", "B"), PotentialTable((2, 2), ASYMMETRIC_2x2))),
    )
    for _ in range(2):  # the graph keeps its unknown factors, and the check fails again
        with pytest.raises(UnknownFactorPresent):
            marginals(incomplete, ["A", "B"])
    infinite = FactorGraph(
        (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)),
        (
            Factor("f", ("A",), PotentialTable((2,), (1.0, math.inf))),
            Factor("g", ("A", "B"), PotentialTable((2, 2), ASYMMETRIC_2x2)),
        ),
    )
    with pytest.raises(ValueError, match="finite"):
        marginals(infinite, ["A", "B"])
    with pytest.raises(ValueError, match="finite"):
        marginals(infinite, ["B", "A"])
    assert marginals(g, []) == ()


def test_stored_evidence_outside_the_range_never_reaches_inference():
    # marginals on such a graph would answer P(A) = (0.0, 0.0) when A held
    # the bad value, and fail with "tuple.index(x): x not in tuple" when B did
    with pytest.raises(ValueError, match="evidence 'maybe' not in range of 'A'"):
        chain_graph(evidence={"A": "maybe"})
    with pytest.raises(ValueError, match="evidence 'maybe' not in range of 'B'"):
        chain_graph(evidence={"B": "maybe"})
    with pytest.raises(ValueError, match="evidence 'maybe' not in range of 'B'"):
        chain_graph().with_evidence({"B": "maybe"})


def test_marginals_raise_on_a_true_zero():
    big = _unary_stack([(10.0, 10.0)] * 1000)
    g = FactorGraph(
        tuple(big.rvs) + (RandomVariable("B", BOOL_RANGE), RandomVariable("C", BOOL_RANGE)),
        tuple(big.factors) + (
            Factor("pair", ("A", "B"), PotentialTable((2, 2), (1.0, 0.0, 1.0, 0.0))),
            Factor("link", ("B", "C"), PotentialTable((2, 2), ASYMMETRIC_2x2)),
        ),
    )
    for order in ORDERS:
        for queries in (["A", "C"], ["C", "A"], ["B", "A", "C"]):
            with pytest.raises(InconsistentEvidence):
                marginals(g, queries, {"B": "true"}, order=order)
            with pytest.raises(InconsistentEvidence):
                marginals(g.with_evidence({"B": "true"}), queries, order=order)


def _table_store_beliefs(fg, ev, hidden, order):
    """``_beliefs`` on an id-keyed table store: the reference for bucket elimination.

    Each variable's tables are found through a variable-to-table index that
    is patched after every step, each kept message's receiver through the
    id of the message, and the downward pass walks the path from each query
    up to its root, memoised per cluster.
    """
    sizes = {r.id: len(r.range) for r in fg.rvs}
    store = dict(enumerate(_reduced_factors(fg, ev)))
    next_id = len(store)
    var_facs = {}
    for fid, (vars_, _) in store.items():
        for v in vars_:
            var_facs.setdefault(v, set()).add(fid)
    root, wanted = hidden[0], set(hidden)
    remaining = {r.id for r in fg.rvs if r.id != root and r.id not in ev}
    if order == "min_degree":
        elimination = _min_degree_order([vars_ for vars_, _ in store.values()], remaining)
    else:
        elimination = sorted(remaining, reverse=True)
    elimination.append(root)
    cluster, message, parent, sender = {}, {}, {}, {}
    for v in elimination:
        touched = sorted(var_facs.pop(v, ()))
        keep = v in wanted
        for fid in touched:
            if fid in sender:
                parent[sender.pop(fid)] = v
                keep = True
        if touched:
            acc = store.pop(touched[0])
            for fid in touched[1:]:
                vars_, arr = _product(acc, store.pop(fid))
                acc = vars_, _in_range(arr)
        elif v in wanted:
            acc = (v,), np.ones(sizes[v], dtype=np.float64)
        else:
            continue
        if keep:
            cluster[v] = acc
        vars_, arr = acc
        summed = arr.sum(axis=vars_.index(v))
        new_vars = tuple(u for u in vars_ if u != v)
        if not new_vars:
            if float(summed) == 0.0:
                raise InconsistentEvidence("distribution is identically zero under evidence")
            continue
        store[next_id] = (new_vars, _in_range(summed))
        if keep:
            message[v] = store[next_id]
            sender[next_id] = v
        for u in new_vars:
            facs = var_facs[u]
            facs.difference_update(touched)
            facs.add(next_id)
        next_id += 1
    belief = {}
    for v in hidden:
        path = []
        while v not in belief and v in parent:
            path.append(v)
            v = parent[v]
        belief.setdefault(v, cluster[v])
        for c in reversed(path):
            sep, m = message[c]
            passed = _sum_to(belief[parent[c]], sep)
            with np.errstate(divide="ignore", invalid="ignore"):
                down = np.where(m == 0.0, 0.0, passed / m)
            vars_, arr = _product(cluster[c], (sep, _in_range(down)))
            belief[c] = vars_, _in_range(arr)
    return belief


def assert_beliefs_match_table_store(fg, queries, evidence=None):
    """Same belief dict as the reference, key by key, scope and array bytes.

    Returns how many beliefs were compared (0 when every configuration has
    zero weight, which both must then report alike).
    """
    ev = {r.id: r.evidence for r in fg.rvs if r.evidence is not None}
    ev.update(evidence or {})
    hidden = list(dict.fromkeys(q for q in queries if q not in ev))
    if not hidden:
        return 0
    compared = 0
    for order in ORDERS:
        try:
            expected = _table_store_beliefs(fg, ev, hidden, order)
        except InconsistentEvidence as exc:
            with pytest.raises(InconsistentEvidence, match=str(exc)):
                _beliefs(fg, ev, hidden, order)
            continue
        got = _beliefs(fg, ev, hidden, order)
        assert got.keys() == expected.keys()
        for v, (scope, arr) in expected.items():
            assert got[v][0] == scope
            assert (got[v][1].dtype, got[v][1].shape) == (arr.dtype, arr.shape)
            assert got[v][1].tobytes() == arr.tobytes()
        compared += len(got)
    return compared


def test_bucket_beliefs_match_table_store_on_random_graphs():
    rng = np.random.default_rng(431)
    compared = empty = 0
    for i in range(80):
        g = random_graph(
            rng, n_rvs=int(rng.integers(3, 10)), n_factors=int(rng.integers(3, 12)),
            evidence_frac=0.3 if i % 2 else 0.0,
        )
        if i % 3:
            other = random_graph(rng, n_rvs=int(rng.integers(2, 6)), n_factors=int(rng.integers(2, 6)))
            g = FactorGraph(
                _prefixed(g, "a").rvs + _prefixed(other, "b").rvs,
                _prefixed(g, "a").factors + _prefixed(other, "b").factors,
            )
        if i % 4 >= 2:
            g = _with_zero_entries(rng, g, 0.3)
        ids = list(g.rv_ids)
        rng.shuffle(ids)
        evidence = _random_evidence(rng, g, ids[0], 2)
        subsets = [ids] + [list(rng.permutation(ids)[: int(rng.integers(1, len(ids) + 1))]) for _ in range(3)]
        for queries in subsets:
            for ev in (None, evidence):
                n = assert_beliefs_match_table_store(g, [str(q) for q in queries], ev)
                compared += n
                empty += n == 0
    assert compared > 1000 and empty > 10


def test_bucket_beliefs_match_table_store_on_generated_instances():
    rng = np.random.default_rng(433)
    for d, p, seed in [(8, 0.5, 1), (16, 0.2, 2), (32, 0.7, 3), (64, 0.3, 5), (128, 0.5, 0), (128, 0.9, 1)]:
        cfg = ExperimentConfig(
            d=d, p=p, unknown_fraction=0.1, cohorts=min(3 + seed % 3, max_cohorts(d, p)),
            queries_per_instance=3, theta=0.0, seed=seed,
        )
        fg = generate_instance(cfg).truth
        ids = sorted(fg.rv_ids)
        subsets = [ids] + [[str(q) for q in rng.permutation(ids)[: 1 + d // 4]] for _ in range(2)]
        for queries in subsets:
            evidence = _random_evidence(rng, fg, queries[0], 3)
            assert assert_beliefs_match_table_store(fg, queries) >= 2 * len(queries)
            assert assert_beliefs_match_table_store(fg, queries, evidence) > 0


def _run_experiment_per_query(cfg):
    """``run_experiment`` as two separate eliminations per query: the reference."""
    inst = generate_instance(cfg)
    result = complete_and_lift(inst.incomplete, cfg.theta)
    rv_ratio, factor_ratio = compression_ratio(result.grouping, result.completed)
    queries = []
    if not result.report.unresolved:
        for q in inst.queries:
            truth_marginal = ground_elimination(inst.truth, q)
            completed_marginal = ground_elimination(result.completed, q)
            queries.append(QueryResult(q, kld(truth_marginal, completed_marginal)))
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


def _outcome(run, cfg):
    try:
        return repr(run(cfg))
    except GenerationInfeasible as exc:
        return type(exc).__name__


def test_run_experiment_matches_per_query_elimination():
    # the 60 cells of a standard-grid sweep: every p; d = 16 and 64 with
    # unknown fractions 0.05 and 0.2 and 4 queries, d = 32 with four unknown
    # fractions, 3 queries and two draws per cell
    rng = np.random.default_rng([1, 5])
    grid = [(16, 4, (0.05, 0.2), 1), (32, 3, (0.05, 0.1, 0.15, 0.2), 2), (64, 4, (0.05, 0.2), 1)]
    cells = 0
    for d, queries, ufs, draws in grid:
        for p in (0.2, 0.3, 0.5, 0.7, 0.9):
            for uf in ufs:
                for _ in range(draws):
                    seed = int(rng.integers(2**31))
                    cfg = ExperimentConfig(
                        d=d, p=p, unknown_fraction=uf, cohorts=min(3 + seed % 3, max_cohorts(d, p)),
                        queries_per_instance=queries, theta=0.0, seed=seed,
                    )
                    assert _outcome(run_experiment, cfg) == _outcome(_run_experiment_per_query, cfg)
                    cells += 1
    assert cells == 60


def test_kld_frozen_values():
    b = ("false", "true")
    assert kld(Marginal("x", b, (0.5, 0.5)), Marginal("x", b, (0.5, 0.5))) == 0.0
    assert kld(
        Marginal("x", b, (0.5, 0.5)), Marginal("x", b, (0.25, 0.75))
    ) == pytest.approx(0.14384103622589042, rel=1e-15)
    # a point mass against uniform: ln 2 exactly, the q=0 term never fires
    assert kld(Marginal("x", b, (1.0, 0.0)), Marginal("x", b, (0.5, 0.5))) == math.log(2)


def test_kld_is_nonnegative_and_zero_only_at_equality():
    rng = np.random.default_rng(71)
    b = ("false", "true", "maybe")
    for _ in range(200):
        p = rng.dirichlet((1.0, 1.0, 1.0))
        q = rng.dirichlet((1.0, 1.0, 1.0))
        d = kld(Marginal("x", b, tuple(p)), Marginal("x", b, tuple(q)))
        assert d >= 0.0
        if d == 0.0:
            assert np.allclose(p, q, atol=1e-6)


def test_kld_domain_and_support_errors():
    b = ("false", "true")
    with pytest.raises(DomainMismatch):
        kld(Marginal("x", b, (0.5, 0.5)), Marginal("y", b, (0.5, 0.5)))
    with pytest.raises(DomainMismatch):
        kld(Marginal("x", b, (0.5, 0.5)), Marginal("x", ("a", "b"), (0.5, 0.5)))
    with pytest.raises(InfiniteDivergence):
        kld(Marginal("x", b, (0.5, 0.5)), Marginal("x", b, (1.0, 0.0)))


def test_compression_ratio():
    g = chain_graph(t1=ASYMMETRIC_2x2, t2=ASYMMETRIC_2x2)
    assert compression_ratio(run_colour_passing(g), g) == (1.0, 1.0)
    base = epidemic_base()
    assert compression_ratio(run_colour_passing(base), base) == (4 / 9, 4 / 9)
    # an empty side groups nothing
    empty = complete_and_lift(parse_model(""), 0.5)
    assert compression_ratio(empty.grouping, empty.completed) == (1.0, 1.0)
    rvs = (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE))
    no_factors = FactorGraph(rvs, ())
    assert compression_ratio(run_colour_passing(no_factors), no_factors) == (0.5, 1.0)
