"""Colour passing: partition refinement over factor graphs.

Nodes start with structural colours (random variables by their signature
of range and evidence, known factors by the class of their canonical tables,
unknown factors by a caller's tag) and are repeatedly re-partitioned: each
factor combines its own colour with the colours of its arguments, each RV
combines its own colour with the multiset of factor colours it sees,
annotated by the *port* it sits at in each factor. An argument position's
port label is its symmetry orbit in the table's canonical form, so
positions that the potentials make interchangeable share a label; unknown
and over-arity tables label each position by itself. Every signature
starts with the node's old colour, so a round only ever splits classes: the
partition is stable as soon as the number of RV classes and of factor
classes stops growing, after at most one round per node. The initial
colours are signatures too, numbered by the same rule as every round: dense
ids in sorted-signature order, RVs first in the initial colouring and
factors first in each round.

A round is written as it is defined (``colour_passing_step``): a factor's
signature is its old colour and, port by port, the sorted colours of its
arguments at that port; an RV's is its old colour and the sorted (new
factor colour, port) pairs of its factors. The port labels are memoised
per graph.

The rounds (``colour_passing_step``, ``refine_to_fixpoint``) are the
reference that defines colour ids, and the library never runs one. They
stay public because tests and CI compare the worklist against them, and
the benchmark imports and times them. The library colours a graph with a
worklist of splitter classes instead: counting colour refinement
(Berkholz, Bonsma and Grohe, ESA 2013), which runs on classes of node
numbers (``_Partition``) and revisits only the neighbourhoods of classes
that split (``_refine``). A splitter class gives each neighbour the
multiset of ports of its edges into the class, and the neighbours' classes
split by it. The coarsest stable refinement of a start is unique, so the
worklist finds the partition of ``refine_to_fixpoint``; only the colour
ids differ, and a ``Grouping`` has none. There are two starts:

- From scratch (``_stable_colours``): the initial colours, every class
  a splitter. No class may be left out, because the initial colours do
  not encode degree. ``run_colour_passing`` at ``rtol == 0`` on a graph
  with no tags and no evidence keeps this colouring per structure and
  tables (``_evidence_free_colours``), so a graph is coloured from
  scratch once.
- Evidence (``_refined_colours``): evidence changes only the signatures
  of the observed RVs, so inference refines the stable colouring of the
  same graph with its evidence cleared, built once per structure and
  tables and shared with the graph's ``with_evidence`` copies. The
  observed RVs' classes split by value, and only the parts split off
  become splitters. The observed graph's initial colours refine the
  evidence-free ones, and refinement to a stable colouring preserves
  that, so the observed stable colouring refines the meet of the
  evidence-free stable colouring and the observed initial colours, which
  is where the worklist starts. Being the coarsest stable partition that
  refines the observed initial colours, it is then also the coarsest
  stable refinement of that start, which is where the worklist stops. The
  start must be evidence-free: from a colouring that already holds some
  evidence, a newly observed RV can belong with an RV observed before to
  the same value, and refinement never merges.

Inside this module a colouring is one int64 array over node numbers, RVs
by position in ``FactorGraph.rvs`` and then factors: ``_initial_colours``
builds the initial colours straight into it, the worklist keeps its classes
as ``_Partition`` lists and hands back an array, and ``_grouping`` reads
the :class:`Grouping` off an array with one stable argsort: the classes,
each sorted by id once, and for each factor class one table, its first
member's. An id-keyed :class:`Colouring` is built only by the reference
API: ``initial_colouring`` converts the array (``_colouring``), a round
works on the dicts, and ``grouping_from_colouring`` converts back
(``_colours_of``), keeping RV and factor colours apart where their ids
overlap.

A factor class is exact when every member's table is an axis permutation
of the class table, bit for bit, which is when they all share its
canonical key (``_is_exact``, one key lookup per distinct table).
:func:`grounded_equivalence_check` asks that of every class, in time linear
in the graph, and ``grouping_report`` marks a class that fails it. That
implies equal joints, and is stricter than comparing them: a member that
is a constant multiple of its class table, or only near it, is rejected
although normalisation would hide the difference.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Hashable, Mapping, Sequence

import numpy as np

from .errors import UnknownFactorPresent
from .model import FactorGraph, Incidence
from .tables import (
    CanonicalKey,
    PotentialTable,
    canonical_info,
    canonical_table,  # noqa: F401  (wrapped by name in bench/tracing.py)
    check_rtol,
    table_classes,
    tables_equal,  # noqa: F401  (wrapped by name in bench/tracing.py)
)


@dataclass(frozen=True)
class Colouring:
    """One colour per node id; ids from a single shared namespace. Plain
    data: any graph with these node ids can refine it."""

    rv_colours: dict[str, int]
    factor_colours: dict[str, int]

    def rv_partition(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(c) for c in _classes(self.rv_colours))

    def factor_partition(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(c) for c in _classes(self.factor_colours))


def _classes(colours: Mapping[str, int]) -> list[tuple[str, ...]]:
    """Members of each colour, sorted; classes ordered by first member."""
    classes: dict[int, list[str]] = {}
    for node, colour in colours.items():
        classes.setdefault(colour, []).append(node)
    return sorted(tuple(sorted(members)) for members in classes.values())


def _dense(keys: Sequence[Hashable]) -> tuple[list[int], int]:
    """Dense id of each key in sorted-key order, so that ids compare like
    the keys they stand for, and the number of distinct keys. Each key is
    hashed once: it gets a code in first-seen order, and the codes are then
    ranked by their keys."""
    code: dict[Hashable, int] = {}
    codes = [code.setdefault(key, len(code)) for key in keys]
    distinct = list(code)
    rank = [0] * len(distinct)
    for i, c in enumerate(sorted(range(len(distinct)), key=distinct.__getitem__)):
        rank[c] = i
    return list(map(rank.__getitem__, codes)), len(distinct)


def _node_colours(rv_keys: Sequence[Hashable], factor_keys: Sequence[Hashable]) -> np.ndarray:
    """Dense node colours, numbered as in ``_Partition``: RVs by their keys,
    then factors by theirs after them, so RVs and factors stay apart even
    where their keys overlap."""
    rv, n_rv = _dense(rv_keys)
    factor, _ = _dense(factor_keys)
    return np.array(rv + [n_rv + c for c in factor], np.int64)


def _colours_of(inc: Incidence, colouring: Colouring) -> np.ndarray:
    """The colouring as dense node colours over ``inc`` (``_node_colours``),
    each ordered like the colouring's own ids."""
    return _node_colours(
        [colouring.rv_colours[v] for v in inc.rv_ids], [colouring.factor_colours[f] for f in inc.factor_ids]
    )


def _colouring(inc: Incidence, colour: np.ndarray) -> Colouring:
    """The ``Colouring`` of node colours ``colour`` over ``inc``, ids kept."""
    n_rv, values = len(inc.rv_ids), colour.tolist()
    return Colouring(dict(zip(inc.rv_ids, values[:n_rv])), dict(zip(inc.factor_ids, values[n_rv:])))


def known_table_classes(fg: FactorGraph, rtol: float = 0.0) -> Mapping[str, CanonicalKey]:
    """Table class of each known factor, by factor id, as ``tables.table_classes``
    builds it over the graph's canonical keys; one ``canonical_info`` per
    distinct table. Built once per graph and ``rtol``, and shared with the
    graph's ``with_evidence`` copies; the mapping is read-only. Raises
    ValueError for a negative or NaN ``rtol``.
    """
    check_rtol(rtol)

    def build() -> Mapping[str, CanonicalKey]:
        known = [f for f in fg.factors if f.table is not None]
        key_of = {t: canonical_info(t).key for t in dict.fromkeys(f.table for f in known)}
        class_of = table_classes(key_of.values(), rtol)
        return MappingProxyType({f.id: class_of[key_of[f.table]] for f in known})

    return fg.memo(("colours.table_classes", rtol), build, tables_only=True)


def initial_colouring(
    fg: FactorGraph, rtol: float = 0.0, unknown_tags: Mapping[str, Hashable] | None = None
) -> Colouring:
    """Structural starting colours, numbered like every refinement round.

    An RV's signature is ``RandomVariable.signature``. A known factor's is
    ``(0, key)`` with the key naming its table class (``known_table_classes``).
    Every unknown factor must appear in ``unknown_tags`` and gets ``(1,
    tag)``, so factors sharing a tag share a colour; tags must be mutually
    sortable. RVs and then factors are coloured densely in sorted-signature
    order. Raises UnknownFactorPresent for an untagged unknown factor.
    """
    return _colouring(fg.incidence, _initial_colours(fg, rtol, unknown_tags))


def _initial_colours(
    fg: FactorGraph, rtol: float = 0.0, unknown_tags: Mapping[str, Hashable] | None = None
) -> np.ndarray:
    """``initial_colouring`` as the colour of every node, numbered as in
    ``_Partition``; the colour ids are the same."""
    tags = dict(unknown_tags or {})
    untagged = [fid for fid in fg.unknown_factor_ids if fid not in tags]
    if untagged:
        raise UnknownFactorPresent(
            f"unknown factors without a colour tag: {', '.join(untagged)}"
        )
    extra = [fid for fid in tags if not fg.has_factor(fid) or not fg.factor(fid).is_unknown]
    if extra:
        raise ValueError(f"tags given for non-unknown factors: {', '.join(extra)}")

    key = known_table_classes(fg, rtol)
    return _node_colours(
        [rv.signature for rv in fg.rvs],
        [(1, tags[f.id]) if f.table is None else (0, key[f.id]) for f in fg.factors],
    )


def _port_labels(table: PotentialTable | None, n: int) -> tuple[int, ...]:
    """Port label of each of a factor's ``n`` argument positions: its
    canonical symmetry orbit in the factor's ``table``.

    Unknown factors label each position by itself, as ``canonical_info``
    does for oversized tables, so positions are then compared literally.
    """
    if table is None:
        return tuple(range(n))
    info = canonical_info(table)
    return tuple(info.orbit_of_position(p) for p in range(n))


def _ports(fg: FactorGraph) -> tuple[np.ndarray, int]:
    """Port label of every incidence row of ``fg``, and a bound on the
    labels; memoised per graph and shared with its ``with_evidence`` copies."""

    def build() -> tuple[np.ndarray, int]:
        labels = cache(_port_labels)
        rows = (p for f in fg.factors for p in labels(f.table, len(f.args)))
        ports = np.fromiter(rows, np.int64, len(fg.incidence.rv))
        return ports, int(ports.max()) + 1 if len(ports) else 1

    return fg.memo("colours.ports", build, tables_only=True)


def colour_passing_step(fg: FactorGraph, colouring: Colouring) -> Colouring:
    """One refinement round: factors re-colour from their arguments, then
    RVs re-colour from the new factor colours.

    A factor's signature is its old colour and, port by port, the sorted
    colours of the arguments at that port; an RV's is its old colour and
    the sorted (new factor colour, port) pairs of its factors. Both are
    numbered by ``_dense``, factors first and RVs after them, so the result
    is independent of node insertion order.
    """
    inc = fg.incidence
    rv_old = [colouring.rv_colours[v] for v in inc.rv_ids]
    rows = list(zip(inc.factor.tolist(), inc.rv.tolist(), _ports(fg)[0].tolist()))
    by_port: list[dict[int, list[int]]] = [{} for _ in inc.factor_ids]
    for f, r, port in rows:
        by_port[f].setdefault(port, []).append(rv_old[r])
    fac_new, n_fac = _dense([
        (colouring.factor_colours[fid], tuple((p, tuple(sorted(c))) for p, c in sorted(ports.items())))
        for fid, ports in zip(inc.factor_ids, by_port)
    ])
    seen: list[list[tuple[int, int]]] = [[] for _ in inc.rv_ids]
    for f, r, port in rows:
        seen[r].append((fac_new[f], port))
    rv_new, _ = _dense([(c, tuple(sorted(pairs))) for c, pairs in zip(rv_old, seen)])
    return Colouring(dict(zip(inc.rv_ids, (n_fac + c for c in rv_new))), dict(zip(inc.factor_ids, fac_new)))


def _class_counts(colouring: Colouring) -> tuple[int, int]:
    return len(set(colouring.rv_colours.values())), len(set(colouring.factor_colours.values()))


def refine_to_fixpoint(fg: FactorGraph, colouring: Colouring) -> Colouring:
    """Iterate colour_passing_step until the partition stops changing.

    A step only splits classes, so an unchanged number of RV classes and of
    factor classes means an unchanged partition.
    """
    current = colouring
    counts = _class_counts(current)
    for _ in range(len(fg.rvs) + len(fg.factors) + 1):
        nxt = colour_passing_step(fg, current)
        nxt_counts = _class_counts(nxt)
        if nxt_counts == counts:
            return nxt
        current, counts = nxt, nxt_counts
    raise RuntimeError("colour passing did not converge; this is a bug")


@dataclass(frozen=True)
class FactorClass:
    """One class of mutually grouped factors and its representative table:
    the first member's positional table, None for a class of unknown factors."""

    members: tuple[str, ...]
    table: PotentialTable | None

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Grouping:
    """A lifted (grouped) view of one factor graph."""

    rv_classes: tuple[tuple[str, ...], ...]
    factor_classes: tuple[FactorClass, ...]

    def rv_partition(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(c) for c in self.rv_classes)

    def factor_partition(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(c.members) for c in self.factor_classes)


def grouping_from_colouring(fg: FactorGraph, colouring: Colouring) -> Grouping:
    """The colouring's classes, each factor class with its first member's table."""
    return _grouping(fg, _colours_of(fg.incidence, colouring))


def run_colour_passing(
    fg: FactorGraph,
    rtol: float = 0.0,
    unknown_tags: Mapping[str, Hashable] | None = None,
) -> Grouping:
    """Full colour passing: the grouping of ``refine_to_fixpoint`` from
    ``initial_colouring``, found by the splitter worklist (``_refine``) with
    every initial class queued.

    ``unknown_tags`` pre-colours unknown factors (see initial_colouring);
    without it the graph must be fully known. At ``rtol == 0``, with no
    tags and no evidence, the colouring is the graph's kept evidence-free
    one, which inference refines and reads.
    """
    if rtol == 0.0 and not unknown_tags and not _observed(fg):
        return _grouping(fg, _evidence_free_colours(fg))
    return _grouping(fg, _stable_colours(fg, rtol, unknown_tags))


@dataclass
class _Partition:
    """The worklist's state, classes of node numbers: RVs by position in
    ``FactorGraph.rvs``, then factors by position after them. Class c holds
    ``order[start[c]:end[c]]``, and node v sits at ``order[place[v]]`` in
    class ``colour[v]``, so a split moves only the nodes it touches."""

    colour: list[int]
    order: list[int]
    place: list[int]
    start: list[int]
    end: list[int]

    @classmethod
    def of(cls, colour: np.ndarray) -> "_Partition":
        """The classes of dense colours ``0 <= colour[v] < k``, class c for colour c."""
        order = np.argsort(colour, kind="stable")
        place = np.empty_like(order)
        place[order] = np.arange(len(order))
        size = np.bincount(colour)
        end = np.cumsum(size)
        return cls(colour.tolist(), order.tolist(), place.tolist(), (end - size).tolist(), end.tolist())

    def members(self, c: int) -> list[int]:
        return self.order[self.start[c] : self.end[c]]

    def split(self, keys: Mapping[int, Hashable]) -> list[int]:
        """Split each class met in ``keys`` by key, its nodes outside ``keys``
        apart, and return the new class ids. The largest part of a class
        keeps its id. The touched nodes move to the front of their class, so
        this costs what it touches."""
        colour, order, place, start, end = self.colour, self.order, self.place, self.start, self.end
        touched: dict[int, dict[Hashable, list[int]]] = defaultdict(lambda: defaultdict(list))
        for v, key in keys.items():
            touched[colour[v]][key].append(v)
        new: list[int] = []
        for c, by_key in touched.items():
            parts = list(by_key.values())
            i, b = start[c], end[c]
            if len(parts) == 1 and len(parts[0]) == b - i:
                continue
            cuts = [i]
            for part in parts:
                for v in part:
                    j, w = place[v], order[i]
                    order[i], order[j], place[v], place[w] = v, w, i, j
                    i += 1
                cuts.append(i)
            if i < b:
                cuts.append(b)
            ranges = list(zip(cuts, cuts[1:]))
            keep = max(ranges, key=lambda r: r[1] - r[0])
            start[c], end[c] = keep
            for x, y in ranges:
                if (x, y) != keep:
                    for v in order[x:y]:
                        colour[v] = len(start)
                    new.append(len(start))
                    start.append(x)
                    end.append(y)
        return new


def _adjacency(fg: FactorGraph) -> tuple[list[int], list[int], list[int]]:
    """Neighbours of every node, numbered as in ``_Partition``, and a weight
    per edge: node u's are ``neighbour[i]`` and ``weight[i]`` for
    ``offset[u] <= i < offset[u + 1]``. An edge at port p weighs ``B**p``,
    with B above every node's degree, so a sum of weights over some of a
    node's edges names the multiset of their ports."""
    inc = fg.incidence
    ports, n_ports = _ports(fg)
    arity = np.diff(inc.start)
    base = max(int(inc.degree.max(initial=0)), int(arity.max(initial=0))) + 1
    weight_of = [base**p for p in range(n_ports)]
    neighbour = np.concatenate((inc.factor[inc.by_rv] + len(inc.rv_ids), inc.rv))
    port = np.concatenate((ports[inc.by_rv], ports)).tolist()
    offset = np.concatenate((inc.rv_start, inc.start[1:] + len(inc.rv)))
    return neighbour.tolist(), list(map(weight_of.__getitem__, port)), offset.tolist()


def _refine(
    partition: _Partition, adjacency: tuple[list[int], list[int], list[int]], work: list[int]
) -> None:
    """Refine ``partition`` in place to its coarsest stable refinement by a
    splitter worklist over the graph's ``adjacency``, starting with the
    classes ``work``.

    A splitter class gives each neighbour the multiset of ports of its
    edges into the class (a sum of edge weights, ``_adjacency``), and only
    the classes of those neighbours split, by that multiset. Whenever a
    class splits, every part but the largest joins the worklist; a class
    waiting there keeps its place, so then every part waits. The largest
    part may wait out because the neighbours already agreed on their edges
    into the whole class, and then agree on the edges into it once they
    agree on those into the other parts. So ``work`` may leave out only a
    class whose neighbours agree on their edges into it.
    """
    neighbour, weight, offset = adjacency
    members, split = partition.members, partition.split
    while work:
        keys: dict[int, int] = {}
        for u in members(work.pop()):
            for i in range(offset[u], offset[u + 1]):
                v = neighbour[i]
                keys[v] = keys.get(v, 0) + weight[i]
        work += split(keys)


def _grouping(fg: FactorGraph, colour: np.ndarray) -> Grouping:
    """The grouping of the node colours ``colour >= 0``, nodes numbered as in
    ``_Partition`` and no colour shared by an RV and a factor: one stable
    argsort lays the classes out, and each is sorted by id once."""
    inc = fg.incidence
    order = np.argsort(colour, kind="stable")
    cuts = np.flatnonzero(np.diff(colour[order], prepend=-1)).tolist() + [len(order)]
    nodes, ids = order.tolist(), inc.rv_ids + inc.factor_ids
    rv_classes, factor_classes = [], []
    for a, b in zip(cuts, cuts[1:]):
        part = tuple(sorted(ids[v] for v in nodes[a:b]))
        if nodes[a] < len(inc.rv_ids):
            rv_classes.append(part)
        else:
            factor_classes.append(FactorClass(part, fg.factor(part[0]).table))
    return Grouping(tuple(sorted(rv_classes)), tuple(sorted(factor_classes, key=lambda c: c.members)))


def _stable_colours(
    fg: FactorGraph, rtol: float = 0.0, unknown_tags: Mapping[str, Hashable] | None = None
) -> np.ndarray:
    """The class of each node, numbered as in ``_Partition``, in the coarsest
    stable refinement of ``_initial_colours(fg, rtol, unknown_tags)``. Every
    initial class is a splitter, since the initial colours do not encode
    degree."""
    partition = _Partition.of(_initial_colours(fg, rtol, unknown_tags))
    _refine(partition, _adjacency(fg), list(range(len(partition.start))))
    return np.array(partition.colour, np.int64)


def _observed(fg: FactorGraph) -> dict[int, str]:
    """The evidence of each observed RV, by node number."""
    return {v: rv.evidence for v, rv in enumerate(fg.rvs) if rv.evidence is not None}


def _evidence_free_colours(fg: FactorGraph) -> np.ndarray:
    """``_stable_colours`` of ``fg`` with every RV's evidence cleared. Built
    once per structure and tables, and shared with the graph's
    ``with_evidence`` copies."""

    def build() -> np.ndarray:
        stored = {rv.id: None for rv in fg.rvs if rv.evidence is not None}
        return _stable_colours(fg.with_evidence(stored) if stored else fg)

    return fg.memo("colours.evidence_free", build, tables_only=True)


def _refined_colours(fg: FactorGraph) -> np.ndarray:
    """The partition of ``_stable_colours(fg)`` for a fully known ``fg``,
    refined from its kept evidence-free colouring (``_evidence_free_colours``):
    the observed RVs' classes split by evidence value, and only the parts
    split off join the worklist (``_refine``), so the work follows what the
    evidence splits. Kept per graph; the adjacency it refines on is kept
    per structure and tables."""

    def build() -> np.ndarray:
        free = _evidence_free_colours(fg)
        observed = _observed(fg)
        if not observed:
            return free
        partition = _Partition.of(free)
        adjacency = fg.memo("colours.adjacency", lambda: _adjacency(fg), tables_only=True)
        _refine(partition, adjacency, partition.split(observed))
        return np.array(partition.colour, np.int64)

    return fg.memo("colours.refined", build)


def _is_exact(fg: FactorGraph, cls: FactorClass) -> bool:
    """True iff every member's table is an axis permutation of the class
    table, bit for bit: a class of unknown factors, or members that all share
    the class table's canonical key. Above ``MAX_CANONICAL_ARITY`` the key is
    positional, and so is the match. One key lookup per distinct table."""
    if cls.table is None:
        return True
    key = canonical_info(cls.table).key
    tables = {fg.factor(m).table for m in cls.members}
    # t == t fails for a table holding NaN, which matches no table
    return all(t is not None and t == t and canonical_info(t).key == key for t in tables)


def grounded_equivalence_check(fg: FactorGraph, grouping: Grouping) -> bool:
    """True iff the grouping rebuilds every ground factor bit for bit.

    Every RV and every factor must sit in exactly one class, and every
    factor class must carry a table and be exact (``_is_exact``). Linear in
    the graph's size; equal tables imply equal joints.
    """
    if sorted(m for c in grouping.rv_classes for m in c) != sorted(fg.rv_ids):
        return False
    if sorted(m for c in grouping.factor_classes for m in c.members) != sorted(fg.factor_ids):
        return False
    return all(cls.table is not None and _is_exact(fg, cls) for cls in grouping.factor_classes)


def grouping_report(grouping: Grouping, fg: FactorGraph | None = None) -> str:
    """Stable text report: one ``class`` line per class, RVs then factors.

    Given the grouped graph, a factor class that is not exact (``_is_exact``),
    such as one merged within ``rtol > 0``, ends in `` exact=no``.
    """
    rows = [f"kind=rv size={len(m)} members={','.join(m)}" for m in grouping.rv_classes]
    rows += (
        f"kind=factor size={cls.size} members={','.join(cls.members)}"
        + ("" if fg is None or _is_exact(fg, cls) else " exact=no")
        for cls in grouping.factor_classes
    )
    return "".join(f"class {i} {row}\n" for i, row in enumerate(rows))
