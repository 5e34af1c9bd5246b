"""Acceptance gate: seven criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
criterion is also a hard assertion. Bounds are pinned here, not derived.
"""
import time
from statistics import median

import numpy as np

from fglift import (
    ExperimentConfig,
    candidate_sets,
    complete_and_lift,
    grounded_equivalence_check,
    kld,
    parse_model,
    possibly_identical,
    run_colour_passing,
    run_experiment,
    serialize_model,
    state_space_size,
    variable_elimination,
    Marginal,
)
from fglift.inference import _ground_marginals
from fglift.synth import max_cohorts
from conftest import (
    chain_graph,
    completion_cases,
    epidemic_base,
    epidemic_four,
    epidemic_with_eve,
    eve_dave_bk,
    jittered,
    oracle_marginal,
    random_graph,
)

KLD_MAX_BOUND = 0.01
KLD_MEDIAN_BOUND = 0.001
SWEEP_SECONDS = 300.0
VE_TOL = 1e-9

SWEEP_D = (2, 4, 8, 16)
SWEEP_P = (0.2, 0.5, 0.9)
SWEEP_UF = (0.05, 0.10, 0.15, 0.20)
SWEEP_SEEDS = 20


def _line(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}")


def _sweep_config(d: int, p: float, uf: float, seed: int, theta: float) -> ExperimentConfig:
    return ExperimentConfig(
        d=d,
        p=p,
        unknown_fraction=uf,
        cohorts=min(3 + seed % 3, max_cohorts(d, p)),
        queries_per_instance=3 + seed % 2,
        theta=theta,
        seed=seed,
    )


def test_criterion_1_kld_reproduction(capsys):
    start = time.perf_counter()
    klds: list[float] = []
    failures = 0
    for d in SWEEP_D:
        for p in SWEEP_P:
            for uf in SWEEP_UF:
                for seed in range(SWEEP_SEEDS):
                    r = run_experiment(_sweep_config(d, p, uf, seed, theta=0.0))
                    if r.failed:
                        failures += 1
                    klds.extend(q.kld for q in r.queries)
    elapsed = time.perf_counter() - start
    max_kld = max(klds)
    med_kld = median(klds)
    ok = (
        failures == 0
        and max_kld < KLD_MAX_BOUND
        and med_kld < KLD_MEDIAN_BOUND
        and elapsed < SWEEP_SECONDS
    )
    _line(
        capsys,
        1,
        ok,
        f"960-instance sweep, {len(klds)} queries, max KLD {max_kld:g} "
        f"(< {KLD_MAX_BOUND}), median {med_kld:g} (< {KLD_MEDIAN_BOUND}), "
        f"{elapsed:.1f}s (< {SWEEP_SECONDS:g}s)",
    )
    assert ok


def test_criterion_2_all_unknowns_replaced(capsys):
    unresolved = 0
    for seed in range(200):
        cfg = _sweep_config(
            d=SWEEP_D[seed % 4],
            p=SWEEP_P[seed % 3],
            uf=SWEEP_UF[seed % 4],
            seed=seed,
            theta=0.0,
        )
        unresolved += run_experiment(cfg).unresolved
    ok = unresolved == 0
    _line(capsys, 2, ok, f"200 instances at theta=0, {unresolved} unresolved unknown factors")
    assert ok


def _unique_maximum_subset(fg, cs):
    """Brute force: is the maximum pairwise possibly-identical subset unique?"""
    ids = list(cs.candidates)
    n = len(ids)
    adj = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if i == j or possibly_identical(fg, ids[i], ids[j]):
                mask |= 1 << j
        adj.append(mask)
    best_size, best_masks = 0, []
    for mask in range(1, 1 << n):
        m, ok = mask, True
        while m:
            i = (m & -m).bit_length() - 1
            if adj[i] & mask != mask:
                ok = False
                break
            m &= m - 1
        if not ok:
            continue
        size = mask.bit_count()
        if size > best_size:
            best_size, best_masks = size, [mask]
        elif size == best_size:
            best_masks.append(mask)
    members = {ids[i] for i in range(n) if best_masks[0] >> i & 1}
    return len(best_masks) == 1, members


def test_criterion_3_majority_class_is_unique(capsys):
    rng = np.random.default_rng(101)
    checked = majorities = 0
    ok = True
    while checked < 500 and ok:
        g = random_graph(
            rng,
            n_rvs=5 + int(rng.integers(4)),
            n_factors=6 + int(rng.integers(7)),
            pool_size=int(rng.integers(2, 4)),
            n_unknown=1 + int(rng.integers(3)),
        )
        for cs in candidate_sets(g):
            if not cs.candidates or len(cs.candidates) > 12:
                continue
            checked += 1
            ratio = len(cs.classes[0]) / len(cs.candidates)
            if ratio <= 0.5:
                continue
            majorities += 1
            unique, members = _unique_maximum_subset(g, cs)
            if not unique or members != set(cs.classes[0]):
                ok = False
                break
    _line(
        capsys,
        3,
        ok,
        f"{checked} candidate sets (|C| <= 12), {majorities} with a majority class, "
        "each majority class is the unique maximum possibly-identical subset",
    )
    assert ok and checked >= 500 and majorities >= 100


def test_criterion_4_completion_matches_colour_passing_when_known(capsys):
    rng = np.random.default_rng(211)
    graphs = 0
    ok = True
    for _ in range(200):
        g = random_graph(
            rng,
            n_rvs=4 + int(rng.integers(5)),
            n_factors=4 + int(rng.integers(6)),
            evidence_frac=0.2,
        )
        graphs += 1
        plain = run_colour_passing(g)
        for theta in (0.0, 0.5, 1.0):
            res = complete_and_lift(g, theta=theta)
            if (
                res.grouping.rv_partition() != plain.rv_partition()
                or res.grouping.factor_partition() != plain.factor_partition()
                or res.grouping != plain
            ):
                ok = False
    _line(
        capsys,
        4,
        ok,
        f"{graphs} fully-known graphs x theta in {{0, 0.5, 1}}: "
        "completion pipeline and colour passing give identical partitions",
    )
    assert ok


def test_criterion_5_worked_example_goldens(capsys):
    chain = run_colour_passing(chain_graph())
    chain_ok = chain.rv_partition() == frozenset(
        {frozenset({"A", "C"}), frozenset({"B"})}
    ) and chain.factor_partition() == frozenset({frozenset({"f1", "f2"})})

    base_classes = {
        frozenset({"f0"}),
        frozenset({"f1_alice", "f1_bob"}),
        frozenset({"f2_alice_m1", "f2_alice_m2", "f2_bob_m1", "f2_bob_m2"}),
        frozenset({"f3_alice", "f3_bob"}),
    }
    epidemic_ok = set(run_colour_passing(epidemic_base()).factor_partition()) == base_classes

    completed = complete_and_lift(epidemic_with_eve(), theta=0.0)
    pipeline_ok = completed.report.unresolved == () and set(
        completed.grouping.factor_partition()
    ) == {
        frozenset({"f0"}),
        frozenset({"f1_alice", "f1_bob", "f1_eve"}),
        frozenset(
            {
                "f2_alice_m1",
                "f2_alice_m2",
                "f2_bob_m1",
                "f2_bob_m2",
                "f2_eve_m1",
                "f2_eve_m2",
            }
        ),
        frozenset({"f3_alice", "f3_bob", "f3_eve"}),
    }

    with_bk = complete_and_lift(epidemic_four(), theta=0.0, bk=eve_dave_bk())
    bk_ok = (
        frozenset({"f2_dave_m1", "f2_dave_m2", "f2_eve_m1", "f2_eve_m2"})
        in with_bk.grouping.factor_partition()
    )
    without_bk = complete_and_lift(epidemic_four(), theta=0.0)
    no_bk_sel = without_bk.report.rows[0].chosen
    no_bk_ok = (
        no_bk_sel.donor == "f2_alice_m1"
        and no_bk_sel.ratio == 4 / 6
        and without_bk.completed.factor("f2_eve_m1").table
        == epidemic_four().factor("f2_alice_m1").table
    )

    ok = chain_ok and epidemic_ok and pipeline_ok and bk_ok and no_bk_ok
    _line(
        capsys,
        5,
        ok,
        "goldens hold: chain {{A,C}},{{B}} / one factor class; epidemic lifts to "
        "four factor classes; background knowledge redirects eve's factors to "
        "dave's class, without it the larger class donates",
    )
    assert ok


def test_criterion_6_oracle_equivalence_and_lossless_lifting(capsys):
    rng = np.random.default_rng(307)
    graphs = 0
    worst = 0.0
    ok = True
    while graphs < 300:
        big = graphs % 50 == 49  # a few graphs near the state-space cap
        g = random_graph(
            rng,
            n_rvs=(12 + int(rng.integers(4))) if big else 4 + int(rng.integers(6)),
            n_factors=(13 + int(rng.integers(4))) if big else 5 + int(rng.integers(6)),
            evidence_frac=0.2 if graphs % 2 else 0.0,
        )
        if state_space_size(g) > 2**16:
            continue
        graphs += 1
        queries = [rid for rid in g.rv_ids[: 2 if big else 3]]
        for q in queries:
            expected = oracle_marginal(g, q)
            for order in ("min_degree", "reverse_id"):
                # the public entry, lifted on the forests, and the ground path
                for got in (
                    variable_elimination(g, q, order=order).probabilities,
                    _ground_marginals(g, [q], None, order)[0].probabilities,
                ):
                    err = max(abs(a - b) for a, b in zip(got, expected))
                    worst = max(worst, err)
                    if err > VE_TOL:
                        ok = False
        grouping = run_colour_passing(g)
        if not grounded_equivalence_check(g, grouping):
            ok = False

    # fully symmetric model: everything collapses into single classes
    from fglift import BOOL_RANGE, Factor, FactorGraph, PotentialTable, RandomVariable
    from fglift import compression_ratio

    t = PotentialTable((2,), (1.0, 4.0))
    sym = FactorGraph(
        tuple(RandomVariable(f"s{i}", BOOL_RANGE) for i in range(8)),
        tuple(Factor(f"f{i}", (f"s{i}",), t) for i in range(8)),
    )
    ratios = compression_ratio(run_colour_passing(sym), sym)
    compression_ok = ratios == (1 / 8, 1 / 8)
    ok = ok and compression_ok

    _line(
        capsys,
        6,
        ok,
        f"300 graphs (state space <= 2^16): worst VE-vs-enumeration error "
        f"{worst:.2e} (<= {VE_TOL:g}), grounded reconstruction exact everywhere, "
        f"fully symmetric model compresses to single classes",
    )
    assert ok


def test_criterion_7_property_suites(capsys):
    rng = np.random.default_rng(401)

    equivalence_ok = True
    from fglift import indistinguishable

    for _ in range(25):
        g = random_graph(rng, n_unknown=int(rng.integers(3)))
        fids = g.factor_ids
        rel = {(a, b): indistinguishable(g, a, b) for a in fids for b in fids}
        for a in fids:
            equivalence_ok &= rel[(a, a)]
            for b in fids:
                equivalence_ok &= rel[(a, b)] == rel[(b, a)]
                for c in fids:
                    if rel[(a, b)] and rel[(b, c)]:
                        equivalence_ok &= rel[(a, c)]

    kld_ok = True
    values = ("false", "true", "maybe")
    for _ in range(500):
        p = tuple(rng.dirichlet((1.0, 1.0, 1.0)))
        q = tuple(rng.dirichlet((1.0, 1.0, 1.0)))
        d = kld(Marginal("x", values, p), Marginal("x", values, q))
        kld_ok &= d >= 0.0
        kld_ok &= kld(Marginal("x", values, p), Marginal("x", values, p)) == 0.0
        if d == 0.0:
            kld_ok &= bool(np.allclose(p, q, atol=1e-6))

    round_trip_ok = True
    for _ in range(25):
        g = random_graph(rng, n_unknown=int(rng.integers(2)))
        text = serialize_model(g)
        back = parse_model(text)
        round_trip_ok &= serialize_model(back) == text
        round_trip_ok &= all(
            back.factor(f.id).table == f.table and back.factor(f.id).args == f.args
            for f in g.factors
        )

    from fglift import FactorGraph, Factor, RandomVariable

    def reversed_graph(g):
        return FactorGraph(tuple(reversed(g.rvs)), tuple(reversed(g.factors)))

    def grouping_invariant(g, rtol):
        ren = {x: f"n{i:03d}_{x}" for i, x in enumerate(g.rv_ids + g.factor_ids)}
        mapped = FactorGraph(
            tuple(RandomVariable(ren[rv.id], rv.range, rv.evidence) for rv in g.rvs),
            tuple(
                Factor(ren[f.id], tuple(ren[a] for a in f.args), f.table)
                for f in g.factors
            ),
        )
        a, b = run_colour_passing(g, rtol), run_colour_passing(mapped, rtol)
        return (
            {frozenset(ren[x] for x in c) for c in a.rv_partition()} == set(b.rv_partition())
            and {frozenset(ren[x] for x in c) for c in a.factor_partition()}
            == set(b.factor_partition())
            and run_colour_passing(reversed_graph(g), rtol) == a
        )

    # at rtol 1e-6 on jittered copies, whose near tables chain into classes
    relabel_ok = True
    jitter_rng = np.random.default_rng(402)
    for _ in range(15):
        g = random_graph(rng)
        relabel_ok &= grouping_invariant(g, 0.0)
        relabel_ok &= grouping_invariant(jittered(g, jitter_rng), 1e-6)

    completion_ok = True
    for fg, bk, theta in completion_cases(np.random.default_rng(2024)):
        for rtol in (0.0, 1e-6):
            a = complete_and_lift(fg, theta, bk, rtol)
            b = complete_and_lift(reversed_graph(fg), theta, bk, rtol)
            completion_ok &= a.report == b.report and a.grouping == b.grouping

    ok = equivalence_ok and kld_ok and round_trip_ok and relabel_ok and completion_ok
    _line(
        capsys,
        7,
        ok,
        f"properties hold: indistinguishability is an equivalence relation "
        f"({'ok' if equivalence_ok else 'FAIL'}), divergence nonnegative and "
        f"zero iff equal ({'ok' if kld_ok else 'FAIL'}), serialization round-trips "
        f"({'ok' if round_trip_ok else 'FAIL'}), grouping invariant under "
        f"relabelling and insertion order at rtol 0 and 1e-6 "
        f"({'ok' if relabel_ok else 'FAIL'}), completion invariant under "
        f"reversed insertion order ({'ok' if completion_ok else 'FAIL'})",
    )
    assert ok
