"""Exact marginal inference and distribution comparison.

Variable elimination works on the factor tables directly: evidence is
indexed out, every non-query variable is summed out of the product of the
factors touching it, and the final vector over the query is normalised.
Two elimination orders are available, the greedy min-degree heuristic
(default) and reverse lexicographic id order; both must agree, which the
tests exploit.

The min-degree order depends only on the factor scopes, so it is fixed
before any table is touched: a lazy min-heap keyed by (neighbour count, id)
re-keys only the neighbours of each eliminated variable, which costs
O((n + fill) log n) for n variables and ``fill`` neighbour-set updates,
instead of rescanning every remaining variable at every step. Ties go to
the smallest id.

Products and sums are kept inside float64 range by exact power-of-two
rescaling: whenever the maximum of a product, a summed-out message or the
final vector leaves [2**-256, 2**256], the table is multiplied by 2**-e so
that its maximum lies in [0.5, 1). The scale cancels in the normalisation,
and because a power of two changes no mantissa, every marginal that the
unscaled products compute without overflow or underflow comes out bit for
bit the same. Factor entries must be finite, non-negative and below 2**500,
so that no single product of two tables overflows. InconsistentEvidence then
means what it says: the evidence conflicts, or every configuration
consistent with it has a zero factor entry; it is never an overflow.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import frexp, isfinite, log
from typing import Mapping

import numpy as np

from .errors import (
    DomainMismatch,
    InconsistentEvidence,
    InfiniteDivergence,
    UnknownFactorPresent,
)
from .model import FactorGraph
from .colours import Grouping

_ORDERS = ("min_degree", "reverse_id")
# Messages whose maximum stays within these bounds are not rescaled; a
# product of two such tables, or a sum over one axis, cannot overflow.
_SCALE_LO = 2.0**-256
_SCALE_HI = 2.0**256


@dataclass(frozen=True)
class Marginal:
    """A distribution over one RV, probabilities aligned with its range."""

    rv: str
    values: tuple[str, ...]
    probabilities: tuple[float, ...]


def _reduced_factors(
    fg: FactorGraph, evidence: dict[str, str]
) -> list[tuple[tuple[str, ...], np.ndarray]]:
    work: list[tuple[tuple[str, ...], np.ndarray]] = []
    for f in fg.factors:
        assert f.table is not None
        idx: list[object] = []
        keep: list[str] = []
        for arg in f.args:
            if arg in evidence:
                idx.append(fg.rv(arg).range.index(evidence[arg]))
            else:
                idx.append(slice(None))
                keep.append(arg)
        arr = np.asarray(f.table.array[tuple(idx)], dtype=np.float64)
        if keep:
            work.append((tuple(keep), arr))
        elif float(arr) == 0.0:
            raise InconsistentEvidence(
                f"evidence zeroes out factor {f.id!r} entirely"
            )
    return work


def _product(
    a: tuple[tuple[str, ...], np.ndarray],
    b: tuple[tuple[str, ...], np.ndarray],
    sizes: Mapping[str, int],
) -> tuple[tuple[str, ...], np.ndarray]:
    a_vars, a_arr = a
    b_vars, b_arr = b
    union = list(a_vars) + [v for v in b_vars if v not in a_vars]
    axis = {v: i for i, v in enumerate(union)}

    def expand(vars_: tuple[str, ...], arr: np.ndarray) -> np.ndarray:
        order = sorted(range(len(vars_)), key=lambda i: axis[vars_[i]])
        arr = np.transpose(arr, order)
        shape = [1] * len(union)
        for i in order:
            shape[axis[vars_[i]]] = sizes[vars_[i]]
        return arr.reshape(shape)

    return tuple(union), expand(a_vars, a_arr) * expand(b_vars, b_arr)


def _min_degree_order(
    scopes: list[tuple[str, ...]], remaining: set[str]
) -> list[str]:
    """Greedy min-degree order, ties to the smallest id.

    Works on the variables' neighbour sets alone: eliminating ``v`` joins
    its neighbours into a clique, exactly as the message over them joins
    the factors it replaces. A lazy min-heap keyed by (neighbour count, id)
    holds one live entry per remaining variable; only the eliminated
    variable's neighbours change, so only they are pushed again, and
    entries whose count is stale are skipped on pop.
    """
    nbrs: dict[str, set[str]] = {}
    for scope in scopes:
        for u in scope:
            nbrs.setdefault(u, set()).update(scope)
    for u, s in nbrs.items():
        s.discard(u)
    heap = [(len(nbrs.get(v, ())), v) for v in remaining]
    heapq.heapify(heap)
    left = set(remaining)
    order: list[str] = []
    while heap:
        count, v = heapq.heappop(heap)
        if v not in left or count != len(nbrs.get(v, ())):
            continue
        left.discard(v)
        order.append(v)
        joined = nbrs.pop(v, set())
        for u in joined:
            s = nbrs[u]
            s.discard(v)
            s.update(joined)
            s.discard(u)
            if u in left:
                heapq.heappush(heap, (len(s), u))
    return order


def _in_range(arr: np.ndarray) -> np.ndarray:
    """``arr`` scaled by a power of two so that its maximum lies in [0.5, 1)
    when that maximum has left [2**-256, 2**256]; zero, or anything
    already in range, is returned as is. The scaling is exact in float64.
    """
    m = float(arr.max())
    if _SCALE_LO <= m <= _SCALE_HI or m == 0.0 or not isfinite(m):
        return arr
    return np.ldexp(arr, -frexp(m)[1])


def variable_elimination(
    fg: FactorGraph,
    query: str,
    evidence: Mapping[str, str] | None = None,
    order: str = "min_degree",
) -> Marginal:
    """Exact posterior marginal of ``query`` given evidence.

    Evidence stored on RVs and passed here are merged; a conflict between
    the two raises InconsistentEvidence, as does evidence under which every
    configuration has a zero factor entry. Querying an observed RV yields a
    point mass on its observed value. Non-finite or negative table entries
    that leave the normaliser non-finite or negative raise ValueError. See
    the module docstring for the order and the rescaling.
    """
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")
    unknown = fg.unknown_factor_ids
    if unknown:
        raise UnknownFactorPresent(f"unknown factors present: {', '.join(unknown)}")
    rv = fg.rv(query)

    ev: dict[str, str] = {r.id: r.evidence for r in fg.rvs if r.evidence is not None}
    for k, v in (evidence or {}).items():
        target = fg.rv(k)
        if v not in target.range:
            raise ValueError(f"evidence {v!r} not in range of {k!r}")
        if k in ev and ev[k] != v:
            raise InconsistentEvidence(f"conflicting evidence for {k!r}: {ev[k]!r} vs {v!r}")
        ev[k] = v
    if query in ev:
        probs = tuple(1.0 if val == ev[query] else 0.0 for val in rv.range.values)
        return Marginal(query, rv.range.values, probs)

    sizes = {r.id: len(r.range) for r in fg.rvs}
    store: dict[int, tuple[tuple[str, ...], np.ndarray]] = dict(
        enumerate(_reduced_factors(fg, ev))
    )
    next_id = len(store)
    var_facs: dict[str, set[int]] = {}
    for fid, (vars_, _) in store.items():
        for v in vars_:
            var_facs.setdefault(v, set()).add(fid)

    remaining = {r.id for r in fg.rvs if r.id != query and r.id not in ev}
    if order == "min_degree":
        elimination = _min_degree_order([vars_ for vars_, _ in store.values()], remaining)
    else:
        elimination = sorted(remaining, reverse=True)

    for v in elimination:
        touched = sorted(var_facs.pop(v, ()))
        if not touched:
            continue
        acc = store.pop(touched[0])
        for fid in touched[1:]:
            vars_, arr = _product(acc, store.pop(fid), sizes)
            acc = vars_, _in_range(arr)
        vars_, arr = acc
        summed = arr.sum(axis=vars_.index(v))
        new_vars = tuple(u for u in vars_ if u != v)
        if not new_vars:
            if float(summed) == 0.0:
                raise InconsistentEvidence("distribution is identically zero under evidence")
            continue
        store[next_id] = (new_vars, _in_range(summed))
        for u in new_vars:
            facs = var_facs[u]
            facs.difference_update(touched)
            facs.add(next_id)
        next_id += 1

    result = np.ones(sizes[query], dtype=np.float64)
    for vars_, arr in store.values():
        if vars_ == (query,):
            result = _in_range(result * arr)
        elif vars_:  # pragma: no cover - cannot happen once all others are eliminated
            raise RuntimeError(f"factor over {vars_} survived elimination")
    z = float(result.sum())
    if not isfinite(z) or z < 0.0:
        raise ValueError("factor tables must be finite and non-negative")
    if z == 0.0:
        raise InconsistentEvidence("distribution is identically zero under evidence")
    probs = tuple(float(x) for x in result / z)
    return Marginal(query, rv.range.values, probs)


def kld(p: Marginal, q: Marginal) -> float:
    """Kullback-Leibler divergence sum(p * ln(p/q)) in nats.

    Terms with p == 0 contribute nothing; p > 0 where q == 0 raises
    InfiniteDivergence; differing RVs or ranges raise DomainMismatch.
    """
    if p.rv != q.rv or p.values != q.values:
        raise DomainMismatch(
            f"marginals over {p.rv!r}/{p.values} and {q.rv!r}/{q.values} do not share a domain"
        )
    total = 0.0
    for pi, qi in zip(p.probabilities, q.probabilities):
        if pi == 0.0:
            continue
        if qi == 0.0:
            raise InfiniteDivergence(f"p has mass at a value where q has none ({p.rv!r})")
        total += pi * log(pi / qi)
    if -1e-12 < total < 0.0:
        return 0.0
    return total


def compression_ratio(grouping: Grouping, fg: FactorGraph) -> tuple[float, float]:
    """(RV classes / RVs, factor classes / factors); lower is more lifted."""
    return (
        len(grouping.rv_classes) / len(fg.rvs),
        len(grouping.factor_classes) / len(fg.factors),
    )
