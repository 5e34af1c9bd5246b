"""Exact marginal inference and distribution comparison.

Bucket elimination on the ground graph can answer every query; counting
belief propagation on a lifted quotient answers exactly on forests (the
last two paragraphs). Variable elimination works on the factor tables
directly: evidence is indexed out, every other variable is summed out of
the product of the factors touching it, and the final vector over a query
is normalised.
Two elimination orders are available, the greedy min-degree heuristic
(default) and reverse lexicographic id order; both must agree, which the
tests exploit.

The min-degree order depends only on the factor scopes, so it is fixed
before any table is touched: a lazy min-heap keyed by (neighbour count, id)
re-keys only the neighbours of each eliminated variable, which costs
O((n + fill) log n) for n variables and ``fill`` neighbour-set updates,
instead of rescanning every remaining variable at every step. Ties go to
the smallest id.

Several marginals come from one bucket elimination (Dechter 1999) and its
bucket-tree propagation (Kask, Dechter, Larrosa and Dechter 2005). Every
table waits in the bucket of its earliest variable in the order.
Eliminating v multiplies v's bucket into its cluster and sums v out into a
message over the cluster's other variables, its separator; the message
goes to the bucket of its earliest variable, which is v's parent in the
elimination tree, and a variable whose message is a scalar is the root of
its connected component. The upward pass is that elimination, with the
first unobserved query appended after the order of every other unobserved
variable, so it is eliminated last and roots its component. It keeps the
cluster and message of each variable whose subtree holds a query, and
nothing else: exactly the queries and their ancestors. The downward pass
visits those clusters in reverse elimination order, parents first: the
belief of a root is its cluster; the belief of a child c is its cluster
times the message down from its parent p, which is p's belief summed onto
c's separator and divided by c's upward message, with 0/0 := 0 (a zero
upward message means c's cluster is zero there). A query's marginal is its
cluster's belief summed onto the query and normalised. Buckets fill in
creation order, so each product takes its tables in the order plain
elimination does. With one query the tree's root is the query itself and
no downward pass runs: the order is the single query's order, and the last
cluster differs from the product of the query's remaining tables only by
exact powers of two, so single-query answers are those of plain
elimination bit for bit. Each extra query costs the clusters on its path
instead of a whole elimination.

Products, ratios and sums are kept inside float64 range by exact
power-of-two rescaling: whenever the maximum of a product, a downward or
summed-out message or a belief leaves [2**-256, 2**256], the table is
multiplied by 2**-e so that its maximum lies in [0.5, 1). The scale cancels
in the normalisation, and because a power of two changes no mantissa,
every marginal that the unscaled products compute without overflow or
underflow comes out bit for bit the same. Factor entries must be finite,
non-negative and below 2**500, so that no single product of two tables
overflows. InconsistentEvidence then means what it says: the evidence
conflicts, or every configuration consistent with it has a zero factor
entry; it is never an overflow.

``marginals`` and ``variable_elimination`` choose their path per call.
The stored and the passed evidence are merged into one dict, by RV id.
When some query is unobserved and the graph is a forest, the answer comes
from the quotient of the graph's stable colouring under that evidence, by
counting belief propagation (Kersting, Ahmadi and Natarajan, UAI 2009);
otherwise, or where a normaliser is zero, bucket elimination answers in the
given ``order``, bit for bit and errors included, so ``order`` applies only
there. The colouring comes from ``colours._stable_colours``, which keeps
the graph's evidence-free stable colouring and splits it by the evidence,
so only what the evidence tells apart is refined; its partition is that of
colouring the observed graph from scratch. The quotient reads it as one
class number per node, never as a ``Grouping``, and the messages read the
observed values from the evidence dict, so no graph is copied. Nothing
query- or evidence-specific is kept: every call splits the colouring and
runs the messages.

The quotient's edge key is the colouring's own: an edge class is a (factor
class, port, argument RV class), where a port is a block of argument
positions within which the canonical table is fully symmetric
(``colours._ports``). Its message is computed at the first position of its
factor class's first member (lowest node number) that falls in it. That is
exact on a forest without any further check. The members of a factor class
share a canonical key (``check_factors`` has refused unknown factors), so
each is an axis permutation of one canonical table, symmetric within each
port. The stable colouring gives every member one multiset of argument
classes per port, and every RV of a class one range, one observed value and
one multiset of (factor class, port). So, by induction over the subtrees
they summarise, the ground messages along two edges of one class are equal,
and so are the beliefs of two RVs of one class. Belief propagation is exact
on a forest, so one message per edge class, raised to the power of the
number of edges it stands for, answers every query exactly. Messages are
kept as logs and shifted to maximum 0 before every ``exp``; observed RVs
send indicators. The quotient of a forest cannot be cyclic, and a zero
normaliser means a component without mass, where the ground path raises;
either sends the call to bucket elimination, so errors are the ground
path's own.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import frexp, isfinite, log
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DomainMismatch,
    InconsistentEvidence,
    InfiniteDivergence,
)
from .model import FactorGraph, check_factors
from .colours import Grouping, _ports, _stable_colours

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
    a: tuple[tuple[str, ...], np.ndarray], b: tuple[tuple[str, ...], np.ndarray]
) -> tuple[tuple[str, ...], np.ndarray]:
    """``a * b`` over the union of their variables, ``a``'s first: ``a`` gains
    trailing singleton axes, ``b`` is moved into union order."""
    a_vars, a_arr = a
    b_vars, b_arr = b
    union = a_vars + tuple(v for v in b_vars if v not in a_vars)
    axis = {v: i for i, v in enumerate(union)}
    order = sorted(range(len(b_vars)), key=lambda i: axis[b_vars[i]])
    shape = [1] * len(union)
    for i in order:
        shape[axis[b_vars[i]]] = b_arr.shape[i]
    a_arr = a_arr.reshape(a_arr.shape + (1,) * (len(union) - len(a_vars)))
    return union, a_arr * np.transpose(b_arr, order).reshape(shape)


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


def _sum_to(
    table: tuple[tuple[str, ...], np.ndarray], keep: tuple[str, ...]
) -> np.ndarray:
    """``table`` summed over every variable outside ``keep``, axes in ``keep`` order."""
    vars_, arr = table
    arr = arr.sum(axis=tuple(i for i, v in enumerate(vars_) if v not in keep))
    rest = [v for v in vars_ if v in keep]
    return np.transpose(arr, [rest.index(v) for v in keep])


def marginals(
    fg: FactorGraph,
    queries: Sequence[str],
    evidence: Mapping[str, str] | None = None,
    order: str = "min_degree",
) -> tuple[Marginal, ...]:
    """Exact posterior marginals of ``queries`` given evidence, in query order.

    Evidence stored on RVs and passed here are merged; a conflict between
    the two raises InconsistentEvidence, as does evidence under which every
    configuration has a zero factor entry. Querying an observed RV yields a
    point mass on its observed value; a repeated query yields the same
    marginal twice. Non-finite or negative table entries that leave a
    normaliser non-finite or negative raise ValueError, and an unknown
    factor raises UnknownFactorPresent.

    On a forest the answer comes from counting belief propagation on the
    quotient of the graph's stable colouring under the stored and passed
    evidence: its kept evidence-free colouring, split where the evidence
    splits it, and no graph is copied. Otherwise, or where a normaliser is
    zero, bucket elimination in ``order`` answers, with its errors. See the
    module docstring for both paths.
    """
    return _marginals(fg, queries, evidence, order, True)


def _ground_marginals(
    fg: FactorGraph,
    queries: Sequence[str],
    evidence: Mapping[str, str] | None = None,
    order: str = "min_degree",
) -> tuple[Marginal, ...]:
    """``marginals`` by bucket elimination on the ground graph, always."""
    return _marginals(fg, queries, evidence, order, False)


def _marginals(
    fg: FactorGraph,
    queries: Sequence[str],
    evidence: Mapping[str, str] | None,
    order: str,
    lifted: bool,
) -> tuple[Marginal, ...]:
    """The argument checks, then, if ``lifted``, the lifted path under the
    stored and passed evidence, where it answers and some query is
    unobserved, else bucket elimination."""
    if isinstance(queries, str):
        raise TypeError("queries must be a sequence of RV ids, not one id")
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")
    check_factors(fg)
    rvs = [fg.rv(q) for q in queries]
    # stored evidence, then passed evidence on RVs that store none
    ev = {r.id: r.evidence for r in fg.rvs if r.evidence is not None}
    for k, v in (evidence or {}).items():
        if v not in fg.rv(k).range:
            raise ValueError(f"evidence {v!r} not in range of {k!r}")
        if ev.setdefault(k, v) != v:
            raise InconsistentEvidence(f"conflicting evidence for {k!r}: {ev[k]!r} vs {v!r}")
    if lifted and any(rv.id not in ev for rv in rvs):
        answer = _quotient(fg, ev)
        if answer is not None:
            rv_class, probabilities = answer[0].tolist(), answer[1]
            position = fg.incidence.rv_position
            return tuple(
                Marginal(rv.id, rv.range.values, probabilities[rv_class[position[rv.id]]])
                for rv in rvs
            )
    hidden = list(dict.fromkeys(rv.id for rv in rvs if rv.id not in ev))
    beliefs = _beliefs(fg, ev, hidden, order) if hidden else {}

    out: list[Marginal] = []
    for rv in rvs:
        if rv.id in ev:
            probs = tuple(1.0 if val == ev[rv.id] else 0.0 for val in rv.range.values)
        else:
            result = _sum_to(beliefs[rv.id], (rv.id,))
            z = float(result.sum())
            if not isfinite(z) or z < 0.0:
                raise ValueError("factor tables must be finite and non-negative")
            if z == 0.0:
                raise InconsistentEvidence("distribution is identically zero under evidence")
            probs = tuple(float(x) for x in result / z)
        out.append(Marginal(rv.id, rv.range.values, probs))
    return tuple(out)


def _beliefs(
    fg: FactorGraph, ev: dict[str, str], hidden: list[str], order: str
) -> dict[str, tuple[tuple[str, ...], np.ndarray]]:
    """Unnormalised joint of each RV in ``hidden`` with its cluster, under ``ev``.

    Bucket elimination with ``hidden[0]`` last keeps the clusters of the
    queries and of their ancestors; the downward pass then calibrates them
    in reverse elimination order, parents first.
    """
    tables = _reduced_factors(fg, ev)
    root, kept = hidden[0], set(hidden)
    remaining = {r.id for r in fg.rvs if r.id != root and r.id not in ev}
    if order == "min_degree":
        elimination = _min_degree_order([vars_ for vars_, _ in tables], remaining)
    else:
        elimination = sorted(remaining, reverse=True)
    elimination.append(root)
    rank = {v: i for i, v in enumerate(elimination)}.__getitem__
    bucket: dict[str, list[tuple[tuple[str, ...], np.ndarray]]] = {}
    for table in tables:
        bucket.setdefault(min(table[0], key=rank), []).append(table)

    # The elimination tree, kept only where a query lies in the subtree:
    # ``kept`` grows from the queries to each receiver of a kept message.
    cluster: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}
    message: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}
    parent: dict[str, str] = {}
    for v in elimination:
        if v in bucket:
            acc, *rest = bucket.pop(v)
            for table in rest:
                vars_, arr = _product(acc, table)
                acc = vars_, _in_range(arr)
        elif v in kept:
            acc = (v,), np.ones(len(fg.rv(v).range), dtype=np.float64)
        else:
            continue
        if v in kept:
            cluster[v] = acc
        vars_, arr = acc
        summed = arr.sum(axis=vars_.index(v))
        new_vars = tuple(u for u in vars_ if u != v)
        if not new_vars:
            if float(summed) == 0.0:
                raise InconsistentEvidence("distribution is identically zero under evidence")
            continue
        sent = new_vars, _in_range(summed)
        to = min(new_vars, key=rank)
        bucket.setdefault(to, []).append(sent)
        if v in kept:
            message[v], parent[v] = sent, to
            kept.add(to)

    belief: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}
    for c in reversed(cluster):
        if c not in parent:
            belief[c] = cluster[c]
            continue
        sep, m = message[c]
        passed = _sum_to(belief[parent[c]], sep)
        with np.errstate(divide="ignore", invalid="ignore"):
            down = np.where(m == 0.0, 0.0, passed / m)
        vars_, arr = _product(cluster[c], (sep, _in_range(down)))
        belief[c] = vars_, _in_range(arr)
    return belief


def _quotient(
    fg: FactorGraph, ev: Mapping[str, str]
) -> tuple[np.ndarray, list[tuple[float, ...]]] | None:
    """The class of each RV (by position in ``fg.rvs``) and the marginal of
    each RV class under the evidence ``ev``, all of it by RV id, stored
    evidence included, by counting belief propagation on the quotient of
    the stable colouring of a fully known forest ``fg`` under ``ev``
    (``colours._stable_colours``).
    None for a graph that is not a forest, a cyclic quotient, or a zero or
    non-finite normaliser.

    An edge class is a (factor class, port, argument RV class), the key the
    colouring refines on; its message is computed at the first position of
    the factor class's first member that falls in it. Each edge into an
    unobserved RV class carries one factor-to-RV message, computed once,
    dependencies first. The RV-to-factor message along an edge is the
    count-weighted sum of the RV's incoming log messages less one copy of
    the edge's own; an observed RV sends its indicator. Every message and
    every unobserved class's belief must have a positive finite normaliser,
    as must the table entry of a factor class whose arguments are all
    observed: on a forest a zero one means a component without mass, where
    the ground path raises.
    """
    inc = fg.incidence
    if not inc.is_forest:
        return None
    colour = _stable_colours(fg, ev)
    n_rv = len(inc.rv_ids)
    _, rv_rep, rv_cls = np.unique(colour[:n_rv], return_index=True, return_inverse=True)
    _, fac_rep, fac_cls = np.unique(colour[n_rv:], return_index=True, return_inverse=True)
    ports, n_ports = _ports(fg)
    arg_cls = rv_cls[inc.rv]
    # rows sit in factor order, so each edge class's first row lies in its
    # factor class's first member
    _, first, edge = np.unique(
        (fac_cls[inc.factor] * n_ports + ports) * len(rv_rep) + arg_cls,
        return_index=True,
        return_inverse=True,
    )
    start, edge_of_row = inc.start.tolist(), edge.tolist()
    target = arg_cls[first].tolist()
    reps = [fg.rvs[r] for r in rv_rep.tolist()]
    observed = [rv.range.index(ev[rv.id]) if rv.id in ev else None for rv in reps]
    # incident edges of each unobserved RV class's representative, with counts
    counts: list[dict[int, int]] = []
    for k, r in enumerate(rv_rep.tolist()):
        seen: dict[int, int] = {}
        if observed[k] is None:
            for e in edge[inc.by_rv[inc.rv_start[r] : inc.rv_start[r + 1]]].tolist():
                seen[e] = seen.get(e, 0) + 1
        counts.append(seen)
    # the factor and position each edge class's message is computed at, and
    # the (position, edge) of every other argument of that factor
    at: list[tuple[int, int, list[tuple[int, int]]]] = []
    for f, row in zip(inc.factor[first].tolist(), first.tolist()):
        p = row - start[f]
        at.append((f, p, [(q - start[f], edge_of_row[q]) for q in range(start[f], start[f + 1]) if q != row]))
    log_mu: dict[int, np.ndarray] = {}
    nu: dict[int, np.ndarray | None] = {}

    def incoming(k: int, skip: int | None) -> list[tuple[int, int]]:
        """(edge, count) of RV class k's incoming messages, one copy of edge
        ``skip`` left out; an observed class has none."""
        return [(e, n - (e == skip)) for e, n in counts[k].items() if n - (e == skip)]

    def rv_side(k: int, skip: int | None) -> np.ndarray | None:
        """Log product of RV class k's incoming messages, one copy of edge
        ``skip`` left out, shifted to maximum 0; None for a zero normaliser."""
        if observed[k] is not None:
            out = np.full(len(reps[k].range), -np.inf)
            out[observed[k]] = 0.0
            return out
        out = np.zeros(len(reps[k].range))
        for e, n in incoming(k, skip):
            out = out + n * log_mu[e]
        top = out.max()
        return out - top if top > -np.inf else None

    def message(e: int) -> bool:
        """Compute ``log_mu[e]``: the factor's table with e's position
        first, its other axes contracted with their RV-to-factor messages,
        last first. A negative entry turns into NaN, which no belief passes."""
        f, p, rest = at[e]
        m = fg.factors[f].table.array.transpose([p] + [q for q, _ in rest])
        for _, d in reversed(rest):
            if d not in nu:
                log_nu = rv_side(target[d], d)
                nu[d] = None if log_nu is None else np.exp(log_nu)
            if nu[d] is None:
                return False
            m = m @ nu[d]
        top = m.max()
        if not 0.0 < top < np.inf:
            return False
        log_mu[e] = np.log(m / top)
        return True

    def needs(e: int) -> list[int]:
        return [e2 for _, d in at[e][2] for e2, _ in incoming(target[d], d)]

    # depth first, dependencies first; an edge met again while still open
    # closes a cycle of the quotient
    done: dict[int, bool] = {}  # False while open
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        for root in range(len(target)):
            if observed[target[root]] is not None:
                continue
            stack = [root]
            while stack:
                e = stack[-1]
                if done.get(e):
                    stack.pop()
                elif e in done:
                    if not message(e):
                        return None
                    done[e] = True
                    stack.pop()
                else:
                    done[e] = False
                    for d in needs(e):
                        if d not in done:
                            stack.append(d)
                        elif not done[d]:
                            return None
        for f in fac_rep.tolist():
            values = [observed[k] for k in arg_cls[start[f] : start[f + 1]].tolist()]
            if None not in values and not 0.0 < fg.factors[f].table.array[tuple(values)] < np.inf:
                return None
        out: list[tuple[float, ...]] = []
        for k, rv in enumerate(reps):
            if observed[k] is not None:
                out.append(tuple(1.0 if i == observed[k] else 0.0 for i in range(len(rv.range))))
                continue
            belief = rv_side(k, None)
            if belief is None:
                return None
            b = np.exp(belief)
            out.append(tuple((b / b.sum()).tolist()))
    return rv_cls, out


def variable_elimination(
    fg: FactorGraph,
    query: str,
    evidence: Mapping[str, str] | None = None,
    order: str = "min_degree",
) -> Marginal:
    """Exact posterior marginal of ``query`` given evidence, as ``marginals``
    gives it: lifted on a forest, else by bucket elimination in ``order``."""
    return marginals(fg, (query,), evidence, order)[0]


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
    """(RV classes / RVs, factor classes / factors); lower is more lifted.
    A graph without RVs or without factors reads 1.0 on that side: nothing
    is grouped."""
    return (
        len(grouping.rv_classes) / len(fg.rvs) if fg.rvs else 1.0,
        len(grouping.factor_classes) / len(fg.factors) if fg.factors else 1.0,
    )
