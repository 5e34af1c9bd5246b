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
observed values from the evidence dict, so no graph is copied. What a graph
keeps for this path is evidence-free: its stable colouring and, from the
first call that reaches the quotient, counting belief propagation on it
(every message and every class's marginal, ``_Free``), so a call without
evidence only reads marginals. A call with evidence splits the colouring
and first marks the hot messages, one forward closure from the observed
classes: a message is hot if it reads an observed class or a hot message.
It then computes messages on demand from the query classes and the
observed classes; a message that is not hot is the evidence-free one, so
only the hot messages on the paths between the evidence and the queries
are computed again, as in sequential clamping (Hadiji, Ahmadi and
Kersting, KI 2011). Nothing query- or evidence-specific is kept.

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
send indicators. An RV class's message along one of its D distinct
incoming edge classes sums the others' log messages from kept prefix and
suffix sums, and its belief is the full prefix sum, so that all its
messages together cost O(D). The quotient of a forest cannot be cyclic, and
a zero normaliser means a component without mass, where the ground path
raises; either sends the call to bucket elimination, so errors are the
ground path's own. The evidence-free state checks every component; under
evidence, the belief of each observed class at its observed value checks
each component that holds evidence.
"""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from math import frexp, isfinite, log
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
            rv_class, marginals_of = answer
            position = fg.incidence.rv_position
            probabilities = marginals_of([rv_class[position[rv.id]] for rv in rvs])
            if probabilities is not None:
                return tuple(Marginal(rv.id, rv.range.values, p) for rv, p in zip(rvs, probabilities))
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


class _Free(NamedTuple):
    """A forest's evidence-free counting belief propagation, kept per graph:
    the class of each RV (by position in ``fg.rvs``), the edge class of each
    incidence row, the log message of each edge class and the marginal of
    each RV class."""

    rv_class: list[int]
    edge: np.ndarray
    log_mu: list[np.ndarray]
    marginals: list[tuple[float, ...]]


def _plus(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """``a + b``, where None is an empty sum."""
    return b if a is None else a if b is None else a + b


class _Counting:
    """Counting belief propagation on the quotient of the node colouring
    ``colour`` (``colours._stable_colours``) of the forest ``fg`` under the
    evidence ``ev`` (by RV id), each message computed when first needed,
    dependencies first.

    An edge class is a (factor class, port, argument RV class), the key the
    colouring refines on; its message is computed at the first position of
    the factor class's first member that falls in it, and flows from the
    factor to the RV. The RV-to-factor message along an edge is the
    count-weighted sum of the RV's incoming log messages less one copy of
    the edge's own; an observed RV sends its indicator.

    Given ``free``, the graph's evidence-free state (``_Free``), only the
    hot edge classes, those with an observed class behind them, are
    computed; any other takes the message of the free edge class of its
    first row, and its reads are not listed. Without ``free`` all are hot.
    """

    def __init__(
        self, fg: FactorGraph, colour: np.ndarray, ev: Mapping[str, str], free: _Free | None = None
    ) -> None:
        inc = fg.incidence
        n_rv = len(inc.rv_ids)
        _, rep, self.rv_class = np.unique(colour[:n_rv], return_index=True, return_inverse=True)
        ports, n_ports = _ports(fg)
        arg_cls = self.rv_class[inc.rv]
        # a factor's colour names its class; rows sit in factor order, so
        # each edge class's first row lies in its factor class's first member
        _, first, self.edge = np.unique(
            (colour[n_rv + inc.factor] * n_ports + ports) * len(rep) + arg_cls,
            return_index=True,
            return_inverse=True,
        )
        self.fg, self.rep, self.target = fg, rep.tolist(), arg_cls[first].tolist()
        # per edge class: the factor and position its message is computed
        # at, and the (position, edge class) of every other argument of it;
        # per RV class: the (edge class, argument edge class) slots reading it
        self.at: list[tuple[int, int, list[tuple[int, int]]]] = []
        readers: list[list[tuple[int, int]]] = [[] for _ in self.rep]
        factor = inc.factor[first]
        for e, (f, a, b, row) in enumerate(zip(
            factor.tolist(), inc.start[factor].tolist(), inc.start[factor + 1].tolist(), first.tolist()
        )):
            edges = self.edge[a:b].tolist()
            self.at.append((f, row - a, [(q, edges[q]) for q in range(b - a) if q != row - a]))
            for _, d in self.at[e][2]:
                readers[self.target[d]].append((e, d))
        # per RV class: the distinct edge classes into its representative in
        # row order, their counts, and the index of each
        self.incoming: list[tuple[list[int], list[int], dict[int, int]]] = []
        for a, b in zip(inc.rv_start[rep].tolist(), inc.rv_start[rep + 1].tolist()):
            counts = Counter(self.edge[inc.by_rv[a:b]].tolist())
            self.incoming.append((list(counts), list(counts.values()), {e: i for i, e in enumerate(counts)}))
        # the observed value of each observed RV class
        self.observed = {int(self.rv_class[inc.rv_position[r]]): fg.rv(r).range.index(v) for r, v in ev.items()}
        self.log_mu: dict[int, np.ndarray] = {}
        self.nu: dict[int, np.ndarray | None] = {}
        # per RV class: how many of the edge classes into it are known
        self.known = [0] * len(self.rep)
        self._sums: dict[tuple[int, bool], list[np.ndarray]] = {}
        self.hot: range | set[int] = range(len(self.at))
        if free is None:
            return
        self.free_edge, self.free_log_mu = free.edge[first].tolist(), free.log_mu
        # one forward closure from the observed classes: a message is hot if
        # it reads an observed class, or a hot message other than one copy
        # of its own edge class. ``heat`` counts the hot edges into a class;
        # from two on, every reader of the class is hot, so a class's
        # readers are walked at most twice, also on a hub under much evidence.
        self.hot, heat = set(), [0] * len(self.rep)
        todo = [e for k in self.observed for e, _ in readers[k]]
        while todo:
            e = todo.pop()
            if e in self.hot:
                continue
            self.hot.add(e)
            k = self.target[e]
            if k in self.observed or heat[k] > 1:
                continue
            _, counts, index = self.incoming[k]
            heat[k] += counts[index[e]]
            todo += [r for r, d in readers[k] if d != e or heat[k] > 1]

    def reads(self, e: int) -> list[int]:
        """The edge classes not known yet whose messages edge class e's
        message reads: those into each other argument's class, one copy of
        that argument's own edge class left out. An observed class reads
        none, and nor does a class whose incoming messages are all known."""
        out = []
        for _, d in self.at[e][2]:
            k = self.target[d]
            edges, counts, _ = self.incoming[k]
            if k not in self.observed and self.known[k] < len(edges):
                out += [x for x, n in zip(edges, counts) if n - (x == d) and x not in self.log_mu]
        return out

    def solve(self, roots: list[int]) -> bool:
        """Know the message of every edge class in ``roots``, depth first,
        dependencies first: a hot one is computed once its reads are known,
        any other is copied from the free state. False for an edge class met
        again while its reads are open, which closes a cycle of the
        quotient, or for a message with a zero or non-finite normaliser."""
        log_mu, opened = self.log_mu, set()
        stack = list(roots)
        while stack:
            e = stack[-1]
            if e in log_mu:
                stack.pop()
                continue
            if e in self.hot and e not in opened:
                opened.add(e)
                for d in self.reads(e):
                    if d in opened:
                        return False
                    stack.append(d)
                continue
            stack.pop()
            if e not in self.hot:
                log_mu[e] = self.free_log_mu[self.free_edge[e]]
            elif not self.message(e):
                return False
            self.known[self.target[e]] += 1
        return True

    def message(self, e: int) -> bool:
        """Compute ``log_mu[e]``: the factor's table with e's position
        first, its other axes contracted with their RV-to-factor messages,
        last first. A negative entry turns into NaN, which no belief passes."""
        f, p, rest = self.at[e]
        m = self.fg.factors[f].table.array.transpose([p] + [q for q, _ in rest])
        for _, d in reversed(rest):
            if d not in self.nu:
                log_nu = self.rv_side(self.target[d], d)
                self.nu[d] = None if log_nu is None else np.exp(log_nu)
            if self.nu[d] is None:
                return False
            m = m @ self.nu[d]
        top = m.max()
        if not 0.0 < top < np.inf:
            return False
        self.log_mu[e] = np.log(m / top)
        return True

    def rv_side(self, k: int, skip: int | None) -> np.ndarray | None:
        """Log product of RV class k's incoming messages, one copy of edge
        ``skip`` left out, shifted to maximum 0; None for a zero normaliser.
        A belief is the kept sum of all count-weighted terms, in row order; a
        message is the kept sum before its edge class, that class's further
        copies and the kept sum after it, so that all of k's messages cost
        O(D) together. Sums start from their first term, not from zeros,
        which changes at most the sign of a zero that no ``exp`` sees."""
        size = len(self.fg.rvs[self.rep[k]].range)
        if k in self.observed:
            out = np.full(size, -np.inf)
            out[self.observed[k]] = 0.0
            return out
        edges, counts, index = self.incoming[k]
        if skip is None:
            out = self.kept_sum(k, len(edges), False)
        else:
            i = index[skip]
            before = _plus(self.kept_sum(k, i, False), self.term(skip, counts[i] - 1))
            out = _plus(before, self.kept_sum(k, i + 1, True))
        if out is None:
            return np.zeros(size)
        top = out.max()
        return out - top if top > -np.inf else None

    def kept_sum(self, k: int, i: int, after: bool) -> np.ndarray | None:
        """Sum of the count-weighted log messages of class k's incoming edge
        classes before index i, added left to right, or from i on, added
        right to left; None for no terms. Every partial sum is kept."""
        edges, counts, _ = self.incoming[k]
        want = len(edges) - i if after else i
        if not want:
            return None
        sums = self._sums.setdefault((k, after), [])
        while len(sums) < want:
            j = len(edges) - 1 - len(sums) if after else len(sums)
            sums.append(_plus(sums[-1] if sums else None, self.term(edges[j], counts[j])))
        return sums[want - 1]

    def term(self, e: int, n: int) -> np.ndarray | None:
        """n copies of edge class e's log message, None for none; one copy
        is the message itself, not a product."""
        return None if not n else self.log_mu[e] if n == 1 else n * self.log_mu[e]

    def marginals(self, classes: Iterable[int]) -> list[tuple[float, ...]] | None:
        """The marginal of each RV class in ``classes``: its indicator if
        observed, else its normalised belief once the messages into it are
        known; None for a cycle or where a normaliser is zero or non-finite."""
        out: dict[int, tuple[float, ...]] = {}
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            for k in classes:
                if k in out:
                    continue
                solved = k in self.observed or self.solve(self.incoming[k][0])
                belief = self.rv_side(k, None) if solved else None
                if belief is None:
                    return None
                b = np.exp(belief)
                out[k] = tuple((b / b.sum()).tolist())
        return list(map(out.__getitem__, classes))

    def has_mass(self, k: int) -> bool:
        """Whether the observed RV class k's belief at its observed value has
        a positive finite normaliser: its component has mass under the
        evidence. Its own evidence is left out of its belief."""
        # per observed class, not per component: an observed RV cuts its
        # component into parts, each of which sends it one message
        edges = self.incoming[k][0]
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            if not self.solve(edges):
                return False
            return not edges or self.kept_sum(k, len(edges), False)[self.observed[k]] > -np.inf


def _free(fg: FactorGraph) -> _Free | None:
    """The evidence-free state of the forest ``fg``: every message and every
    RV class's marginal on the quotient of its evidence-free stable
    colouring. None for a cyclic quotient or a zero or non-finite
    normaliser, where no call lifts."""
    bp = _Counting(fg, _stable_colours(fg, {}), {})
    marginals = bp.marginals(range(len(bp.rep)))
    if marginals is None:
        return None
    return _Free(bp.rv_class.tolist(), bp.edge, [bp.log_mu[e] for e in range(len(bp.at))], marginals)


def _quotient(
    fg: FactorGraph, ev: Mapping[str, str]
) -> tuple[list[int], Callable[[list[int]], list[tuple[float, ...]] | None]] | None:
    """The class of each RV (by position in ``fg.rvs``) and a function from
    a list of RV classes to their marginals under the evidence ``ev``, all
    of it by RV id, stored evidence included, by counting belief propagation
    on the quotient of the stable colouring of a fully known forest ``fg``
    under ``ev`` (``colours._stable_colours``).
    None for a graph that is not a forest, a cyclic quotient, or a zero or
    non-finite normaliser.

    The evidence-free state (``_Free``) is kept per graph: it is built the
    first time, by every message and every class's belief, and an
    evidence-free call only reads it. Under evidence, messages are computed
    from the query classes and the observed classes, and only the hot ones,
    with an observed class behind them, are computed again (``_Counting``).
    Every observed class's belief at its observed value must have mass, so
    that every component that holds evidence is checked (the others were,
    by the free state); on a forest a zero one means a component without
    mass, where the ground path raises. The function
    returns None where a normaliser it meets is zero or non-finite, and the
    call then answers on the ground path.
    """
    if not fg.incidence.is_forest:
        return None
    # the split first, so that the free colouring under it shares the
    # adjacency the evidence is split on
    colour = _stable_colours(fg, ev) if ev else None
    free = fg.memo("inference.free", lambda: _free(fg))
    if free is None:
        return None
    if not ev:
        return free.rv_class, lambda classes: list(map(free.marginals.__getitem__, classes))
    bp = _Counting(fg, colour, ev, free)
    if not all(bp.has_mass(k) for k in bp.observed):
        return None
    return bp.rv_class.tolist(), bp.marginals


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
