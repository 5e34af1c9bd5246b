"""Variable elimination against the enumeration oracle, plus divergence."""
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
    InconsistentEvidence,
    InfiniteDivergence,
    Marginal,
    PotentialTable,
    RandomVariable,
    UnknownFactorPresent,
    UnknownNode,
    compression_ratio,
    generate_instance,
    kld,
    run_colour_passing,
    run_experiment,
    variable_elimination,
)
from fglift.inference import _product, _reduced_factors
from fglift.synth import max_cohorts
from conftest import (
    ASYMMETRIC_2x2,
    chain_graph,
    epidemic_base,
    oracle_marginal,
    random_graph,
)

ORDERS = ("min_degree", "reverse_id")


def assert_matches_oracle(fg, query, evidence=None, tol=1e-12):
    expected = oracle_marginal(fg, query, evidence)
    for order in ORDERS:
        got = variable_elimination(fg, query, evidence, order=order)
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
            acc = _product(acc, store.pop(fid), sizes)
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
        got = variable_elimination(fg, query, evidence, order=order)
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
