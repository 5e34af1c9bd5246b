"""Shared graphs and oracles for the test suite.

The worked-example graphs (a three-variable chain, an epidemic model with
two, three, and four individuals) are hand-encoded here with pinned table
values. The enumeration oracle recomputes joints and marginals with plain
Python loops, independent of the library's numpy code paths.
"""
from __future__ import annotations

import itertools
from dataclasses import replace
from math import prod

import numpy as np
import pytest

from fglift import (
    BOOL_RANGE,
    BackgroundKnowledge,
    ExperimentConfig,
    Factor,
    FactorGraph,
    PotentialTable,
    RandomVariable,
    RangeSpec,
    UnknownNode,
    generate_instance,
)

# Chain A - f1 - B - f2 - C. The symmetric table makes f1 and f2 encode the
# same potential mapping even though B sits at opposite argument positions.
SYMMETRIC_2x2 = (2.0, 3.0, 3.0, 5.0)
ASYMMETRIC_2x2 = (1.0, 2.0, 3.0, 4.0)


def chain_graph(t1=SYMMETRIC_2x2, t2=SYMMETRIC_2x2, evidence=None):
    rvs = [RandomVariable(n, BOOL_RANGE, (evidence or {}).get(n)) for n in "ABC"]
    factors = [
        Factor("f1", ("A", "B"), PotentialTable((2, 2), t1)),
        Factor("f2", ("B", "C"), PotentialTable((2, 2), t2)),
    ]
    return FactorGraph(rvs, factors)


@pytest.fixture
def fig_chain():
    return chain_graph()


# Epidemic model tables, shared across all individuals of the base cohort.
# Argument orders: prior (Epid), link (Epid, Travel.x, Sick.x),
# treat (Treat.x.m, Sick.x, Epid), travel prior (Travel.x).
T0 = (0.4, 1.6)
T1 = (3.0, 0.6, 1.2, 2.5, 0.9, 4.0, 1.1, 0.7)
T2 = (1.3, 0.8, 2.2, 0.5, 3.1, 1.9, 0.4, 2.8)
T3 = (2.0, 0.5)

# Primed variants for the second cohort (dave, and eve's known factors).
T1P = (0.7, 2.1, 3.3, 0.2, 1.8, 0.9, 2.6, 1.4)
T2P = (2.4, 0.3, 1.7, 3.6, 0.6, 1.1, 2.9, 0.8)
T3P = (0.9, 1.4)


def _individual(name, link, treat, travel):
    """RVs and the four factors of one individual; None table = unknown."""
    rvs = [
        RandomVariable(f"Sick.{name}", BOOL_RANGE),
        RandomVariable(f"Travel.{name}", BOOL_RANGE),
        RandomVariable(f"Treat.{name}.m1", BOOL_RANGE),
        RandomVariable(f"Treat.{name}.m2", BOOL_RANGE),
    ]

    def tbl(spec, shape):
        return None if spec is None else PotentialTable(shape, spec)

    factors = [
        Factor(f"f1_{name}", ("Epid", f"Travel.{name}", f"Sick.{name}"), tbl(link, (2, 2, 2))),
        Factor(f"f2_{name}_m1", (f"Treat.{name}.m1", f"Sick.{name}", "Epid"), tbl(treat, (2, 2, 2))),
        Factor(f"f2_{name}_m2", (f"Treat.{name}.m2", f"Sick.{name}", "Epid"), tbl(treat, (2, 2, 2))),
        Factor(f"f3_{name}", (f"Travel.{name}",), tbl(travel, (2,))),
    ]
    return rvs, factors


def epidemic_base():
    """Two fully-known individuals: 9 RVs, 9 factors."""
    rvs = [RandomVariable("Epid", BOOL_RANGE)]
    factors = [Factor("f0", ("Epid",), PotentialTable((2,), T0))]
    for name in ("alice", "bob"):
        r, f = _individual(name, T1, T2, T3)
        rvs += r
        factors += f
    return FactorGraph(rvs, factors)


def epidemic_with_eve():
    """The base model plus eve, whose four factors are all unknown."""
    base = epidemic_base()
    r, f = _individual("eve", None, None, None)
    return FactorGraph(tuple(base.rvs) + tuple(r), tuple(base.factors) + tuple(f))


def epidemic_four():
    """alice, bob (base tables), dave (primed), eve (primed known factors,
    both treat factors unknown)."""
    rvs = [RandomVariable("Epid", BOOL_RANGE)]
    factors = [Factor("f0", ("Epid",), PotentialTable((2,), T0))]
    for name in ("alice", "bob"):
        r, f = _individual(name, T1, T2, T3)
        rvs += r
        factors += f
    r, f = _individual("dave", T1P, T2P, T3P)
    rvs += r
    factors += f
    r, f = _individual("eve", T1P, None, T3P)
    rvs += r
    factors += f
    return FactorGraph(rvs, factors)


def eve_dave_bk():
    return BackgroundKnowledge.from_dict(
        {
            "eve": ["f1_eve", "f2_eve_m1", "f2_eve_m2", "f3_eve"],
            "dave": ["f1_dave", "f2_dave_m1", "f2_dave_m2", "f3_dave"],
        }
    )


@pytest.fixture
def fig_epidemic():
    return epidemic_base()


@pytest.fixture
def fig_eve():
    return epidemic_with_eve()


@pytest.fixture
def fig_four():
    return epidemic_four()


# -- random graph builder -------------------------------------------------


def random_graph(
    rng: np.random.Generator,
    n_rvs: int = 6,
    n_factors: int = 6,
    max_arity: int = 3,
    pool_size: int = 3,
    evidence_frac: float = 0.0,
    n_unknown: int = 0,
):
    """Random known/unknown factor graph with repeated tables.

    Tables come from a small per-shape pool so that colour passing and
    candidate classes see genuine repeats.
    """
    sizes = [int(rng.integers(2, 4)) for _ in range(n_rvs)]
    rvs = []
    for i, k in enumerate(sizes):
        ev = None
        if evidence_frac and rng.random() < evidence_frac:
            ev = f"v{int(rng.integers(k))}"
        rvs.append(RandomVariable(f"r{i}", range_of(k), ev))
    pools: dict[tuple[int, ...], list[PotentialTable]] = {}
    factors = []
    for j in range(n_factors):
        arity = int(rng.integers(1, max_arity + 1))
        arity = min(arity, n_rvs)
        args = tuple(f"r{int(i)}" for i in rng.choice(n_rvs, arity, replace=False))
        shape = tuple(sizes[int(a[1:])] for a in args)
        pool = pools.setdefault(shape, [])
        if len(pool) < pool_size:
            pool.append(
                PotentialTable(shape, rng.uniform(0.1, 10.0, prod(shape)).tolist())
            )
        table = pool[int(rng.integers(len(pool)))]
        factors.append(Factor(f"g{j}", args, table))
    for j in range(n_unknown):
        arity = int(rng.integers(1, max_arity + 1))
        arity = min(arity, n_rvs)
        args = tuple(f"r{int(i)}" for i in rng.choice(n_rvs, arity, replace=False))
        factors.append(Factor(f"u{j}", args, None))
    return FactorGraph(rvs, factors)


def jittered(fg, rng):
    """Known tables scaled by 1 + s: steps 0.6e-6 apart chain within 1e-6, 1.2e-6 does not."""
    factors = []
    for f in fg.factors:
        if f.table is not None:
            s = float(rng.choice([0.0, 0.0, 6e-7, 1.2e-6, 3e-6]))
            f = replace(f, table=PotentialTable.from_array(f.table.array * (1.0 + s)))
        factors.append(f)
    return FactorGraph(fg.rvs, factors)


def permuted(fg: FactorGraph, rng: np.random.Generator) -> FactorGraph:
    """The same potentials with every factor's arguments in a random order."""
    factors = []
    for f in fg.factors:
        perm = tuple(int(i) for i in rng.permutation(len(f.args)))
        table = None if f.table is None else PotentialTable.from_array(np.transpose(f.table.array, perm))
        factors.append(Factor(f.id, tuple(f.args[i] for i in perm), table))
    return FactorGraph(fg.rvs, factors)


def random_individuals(fg, rng):
    """Random individuals of one to three factors; some factors belong to none."""
    fids = [fid for fid in fg.factor_ids if rng.random() < 0.85]
    rng.shuffle(fids)
    groups, i = {}, 0
    while i < len(fids):
        size = int(rng.integers(1, 4))
        groups[f"ind{len(groups)}"] = fids[i : i + size]
        i += size
    return BackgroundKnowledge.from_dict(groups)


def per_core_rv(fg):
    """One individual per core RV of a generated instance, holding its factors."""
    return BackgroundKnowledge.from_dict(
        {rv: fg.factors_of(rv) for rv in fg.rv_ids if rv.startswith("u_")}
    )


def hub_graph(rng: np.random.Generator, arity: int, n_unknown: int = 3) -> FactorGraph:
    """Two binary hubs, each the first argument of factors of two kinds over
    fresh binary leaves of degree 1: a kind-j factor holds ``k + j`` plain
    leaves and then observed ones up to ``arity``. So the kinds' neighbour
    profiles hold the same profiles, in different numbers. Hub 0 is in m
    factors of kind 0 and n of kind 1, hub 1 in n and m, with m != n
    between 10 and 20, so the hubs' neighbourhoods differ only in
    multiplicity too. Every other factor of a kind carries one table
    symmetric in all arguments and shared by both kinds, the rest its
    kind's own random table; ``n_unknown`` random factors are unknown."""
    k = int(rng.integers(1, arity - 2))
    m, n = (int(c) for c in rng.choice(np.arange(10, 21), 2, replace=False))
    shape = (2,) * arity
    by_ones = rng.uniform(0.5, 2.0, arity + 1)
    symmetric = PotentialTable(shape, [float(by_ones[bin(i).count("1")]) for i in range(2**arity)])
    own = [PotentialTable(shape, rng.uniform(0.1, 10.0, 2**arity).tolist()) for _ in range(2)]
    rvs = [RandomVariable(f"h{h}", range_of(2)) for h in range(2)]
    factors = []
    for h, counts in enumerate(((m, n), (n, m))):
        for kind, count in enumerate(counts):
            for i in range(count):
                fid = f"h{h}k{kind}f{i}"
                leaves = [
                    RandomVariable(f"{fid}x{j}", range_of(2), None if j < k + kind else "v1")
                    for j in range(arity - 1)
                ]
                rvs += leaves
                args = (f"h{h}", *(leaf.id for leaf in leaves))
                factors.append(Factor(fid, args, symmetric if i % 2 else own[kind]))
    for i in rng.choice(len(factors), n_unknown, replace=False):
        factors[i] = Factor(factors[i].id, factors[i].args)
    return FactorGraph(rvs, factors)


def completion_cases(rng):
    """(graph, background knowledge or None, theta) for completion: random
    graphs, half of them jittered, then jittered generated cohorts, then
    hub graphs with factors of arity 5 to 9 (``hub_graph``)."""
    for trial in range(60):
        fg = random_graph(
            rng, n_rvs=7, n_factors=16, max_arity=3, pool_size=2,
            evidence_frac=0.15, n_unknown=5,
        )
        if trial % 2:
            fg = jittered(fg, rng)
        bk = random_individuals(fg, rng) if trial % 3 else None
        yield fg, bk, float(rng.choice([0.0, 0.5, 0.9]))
    for seed in range(12):
        cfg = ExperimentConfig(
            d=int(rng.choice([8, 16])), p=0.5, unknown_fraction=0.2, cohorts=3,
            queries_per_instance=3, theta=0.0, seed=seed,
        )
        fg = jittered(generate_instance(cfg).incomplete, rng)
        yield fg, per_core_rv(fg), 0.0
    for arity in range(5, 10):
        fg = hub_graph(rng, arity)
        bk = random_individuals(fg, rng) if arity % 2 else None
        yield fg, bk, float(rng.choice([0.0, 0.5, 0.9]))


def malformed_graphs():
    """(build, exception, message pattern) for graphs whose factors name a
    missing RV, have no arguments, repeat an argument, carry a table of the
    wrong arity, or carry a table of the wrong shape, the last alone and
    beside a factor that touches the same RV. ``build()`` raises: the
    constructors of ``Factor`` and ``FactorGraph`` reject each of them."""
    a, b = RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)
    pair = Factor("g", ("A", "B"), PotentialTable((2, 2), ASYMMETRIC_2x2))
    three = PotentialTable((3,), (1.0, 2.0, 3.0))
    return [
        (lambda: FactorGraph((a, b), (pair, Factor("f", ("A", "Z"), pair.table))), UnknownNode,
         "factor 'f' references missing RV 'Z'"),
        (lambda: FactorGraph((a, b), (pair, Factor("f", ()))), ValueError,
         "factor 'f' has no arguments"),
        (lambda: FactorGraph((a, b), (pair, Factor("f", ("A", "A"), pair.table))), ValueError,
         "factor 'f' repeats arguments"),
        (lambda: FactorGraph((a, b), (Factor("f", ("A",), pair.table),)), ValueError,
         r"factor 'f': table arity 2 != 1 arguments"),
        (lambda: FactorGraph((a,), (Factor("f", ("A",), three),)), ValueError,
         r"factor 'f': table shape \(3,\) != argument ranges \(2,\)"),
        (lambda: FactorGraph((a, b), (Factor("f", ("A",), three), pair)), ValueError,
         r"factor 'f': table shape \(3,\)"),
    ]


def range_of(k: int) -> RangeSpec:
    return RangeSpec(tuple(f"v{i}" for i in range(k)))


def cyclic_table(k, arity, weight):
    """A table over ``arity`` arguments of ``k`` values each that rotating
    its axes leaves unchanged, ``C[x0, ..., xn] == C[x1, ..., xn, x0]``: each
    cell takes ``weight`` of its smallest rotation."""
    cells = np.ndindex(*(k,) * arity)
    return PotentialTable((k,) * arity, [weight(min(c[i:] + c[:i] for i in range(arity))) for c in cells])


def cyclic_pair():
    """f0(a0, b0, c0) with a table C that is cyclically but not fully
    symmetric, and f1(a1, b1, c1) with C's first two axes swapped; the a, b
    and c RVs each have their own unary table. One canonical form, but a0
    sees b0 where C's rotation would put c0, so a0 and a1 differ."""
    table = cyclic_table(3, 3, lambda c: float(1 + (9 * c[0] + 3 * c[1] + c[2]) % 7))
    unary = {"a": (1.0, 2.0, 3.0), "b": (3.0, 1.0, 2.0), "c": (2.0, 3.0, 1.0)}
    rvs = [RandomVariable(f"{n}{i}", range_of(3)) for i in range(2) for n in "abc"]
    factors = [
        Factor("f0", ("a0", "b0", "c0"), table),
        Factor("f1", ("a1", "b1", "c1"), PotentialTable.from_array(table.array.transpose(1, 0, 2))),
    ]
    factors += [Factor(f"u{n}{i}", (f"{n}{i}",), PotentialTable((3,), unary[n])) for i in range(2) for n in "abc"]
    return FactorGraph(rvs, factors)


# -- enumeration oracle ----------------------------------------------------


def enumerate_weights(fg: FactorGraph):
    """Unnormalised joint weights by brute force, keyed by value-index tuples."""
    ids = [rv.id for rv in fg.rvs]
    card = {rv.id: len(rv.range) for rv in fg.rvs}
    tables = {}
    for f in fg.factors:
        assert f.table is not None, "oracle needs a fully known graph"
        tables[f.id] = (f.args, f.table.entries, [card[a] for a in f.args])
    out = {}
    for assignment in itertools.product(*(range(card[i]) for i in ids)):
        value = dict(zip(ids, assignment))
        w = 1.0
        for args, entries, shape in tables.values():
            idx = 0
            for a, k in zip(args, shape):
                idx = idx * k + value[a]
            w *= entries[idx]
        out[assignment] = w
    return ids, out


def oracle_joint(fg: FactorGraph):
    ids, weights = enumerate_weights(fg)
    z = sum(weights.values())
    return ids, {k: v / z for k, v in weights.items()}


def oracle_marginal(fg: FactorGraph, query: str, evidence=None):
    """P(query | evidence) by enumeration; evidence merges with stored values."""
    ev = {rv.id: rv.evidence for rv in fg.rvs if rv.evidence is not None}
    ev.update(evidence or {})
    ids, weights = enumerate_weights(fg)
    pos = {rid: i for i, rid in enumerate(ids)}
    ev_idx = {pos[r]: fg.rv(r).range.index(v) for r, v in ev.items()}
    card = len(fg.rv(query).range)
    if query in ev:
        return tuple(1.0 if i == ev_idx[pos[query]] else 0.0 for i in range(card))
    acc = [0.0] * card
    for assignment, w in weights.items():
        if any(assignment[i] != v for i, v in ev_idx.items()):
            continue
        acc[assignment[pos[query]]] += w
    z = sum(acc)
    assert z > 0.0, "oracle: zero mass under evidence"
    return tuple(a / z for a in acc)
