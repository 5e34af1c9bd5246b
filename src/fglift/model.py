"""Factor graph model: random variables, factors, validation, exact joint.

A factor graph here is a bipartite structure of random variables and
factors. Every factor names the variables it touches in a fixed argument
order; a factor either carries a potential table or is *unknown* (arguments
known, potentials missing). The joint semantics over the known-only case is
the normalised product of all potential tables.

Structural invariants are checked once, by the constructor of the node or
graph they belong to, so every graph that exists is well-formed: an RV's
evidence lies in its range; a factor's arguments are non-empty and distinct
and its table has one axis per argument; every argument names an RV of the
graph, and every table's shape is its arguments' range sizes. Ids are
unique across the graph's nodes. Nothing downstream checks these again.
``validate`` reports what a well-formed graph may still hold: table entries
that are not strictly positive and finite.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from math import prod
from typing import Callable, Hashable, Iterable, Mapping

import numpy as np

from .errors import StateSpaceTooLarge, UnknownFactorPresent, UnknownNode
from .tables import PotentialTable

STATE_CAP = 1 << 20


@dataclass(frozen=True, order=True)
class RangeSpec:
    """Ordered finite range of a random variable.

    Two ranges compare equal iff their ordered value lists are identical;
    the same labels in a different order are a different range. Raises
    TypeError when ``values`` is one string.
    """

    values: tuple[str, ...]

    def __init__(self, values: Iterable[str]) -> None:
        if isinstance(values, str):
            raise TypeError(f"range values must be a sequence of values, not one string {values!r}")
        vals = tuple(str(v) for v in values)
        if len(vals) < 2:
            raise ValueError("a range needs at least two values")
        if len(set(vals)) != len(vals):
            raise ValueError(f"range values must be distinct, got {vals}")
        if any(v == "" for v in vals):
            raise ValueError("range values must be non-empty strings")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def index(self, value: str) -> int:
        return self.values.index(value)

    def __contains__(self, value: object) -> bool:
        return value in self.values


BOOL_RANGE = RangeSpec(("false", "true"))


@dataclass(frozen=True)
class RandomVariable:
    id: str
    range: RangeSpec
    evidence: str | None = None

    def __post_init__(self) -> None:
        if self.evidence is not None and self.evidence not in self.range:
            raise ValueError(f"evidence {self.evidence!r} not in range of {self.id!r}")

    @property
    def signature(self) -> tuple[tuple[str, ...], bool, str]:
        """(range values, has evidence, evidence or ""): all that tells RVs apart
        before the graph structure is read."""
        return (self.range.values, self.evidence is not None, self.evidence or "")


@dataclass(frozen=True)
class Factor:
    """A factor over an ordered argument list.

    ``table is None`` marks an unknown factor: its arguments are part of the
    graph structure but its potentials are missing. Raises TypeError when
    ``args`` is one string, and ValueError when the arguments are empty or
    repeat, or the table's arity is not their count.
    """

    id: str
    args: tuple[str, ...]
    table: PotentialTable | None = None

    def __post_init__(self) -> None:
        args = self.args
        if type(args) is not tuple:
            if isinstance(args, str):
                raise TypeError(f"factor {self.id!r}: args must be a sequence of RV ids, not one id")
            args = tuple(args)
            object.__setattr__(self, "args", args)
        n = len(args)
        if not n:
            raise ValueError(f"factor {self.id!r} has no arguments")
        if n > 1 and len(set(args)) < n:
            raise ValueError(f"factor {self.id!r} repeats arguments")
        if self.table is not None and self.table.arity != n:
            raise ValueError(f"factor {self.id!r}: table arity {self.table.arity} != {n} arguments")

    @property
    def is_unknown(self) -> bool:
        return self.table is None


@dataclass(frozen=True, eq=False)
class Incidence:
    """Integer incidence index of a factor graph's structure.

    RVs are numbered by their position in ``FactorGraph.rvs``, factors by
    their position in ``FactorGraph.factors``.
    There is one row per argument position, running factor by factor in
    argument order: row i joins factor ``factor[i]`` to RV ``rv[i]``, and
    factor f owns rows ``start[f]:start[f + 1]``.
    ``by_rv[rv_start[r]:rv_start[r + 1]]`` are RV r's rows, one per factor
    of r in factor order, and ``degree[r]`` counts them. Only ids and
    arguments enter, so graphs that differ in tables or evidence alone
    share one index.
    """

    rv_ids: tuple[str, ...]
    factor_ids: tuple[str, ...]
    rv_position: dict[str, int]
    factor: np.ndarray
    rv: np.ndarray
    start: np.ndarray
    by_rv: np.ndarray
    rv_start: np.ndarray
    degree: np.ndarray

    @classmethod
    def of(cls, rv_ids: tuple[str, ...], factors: tuple[Factor, ...]) -> "Incidence":
        position = {rid: i for i, rid in enumerate(rv_ids)}
        arity = np.fromiter((len(f.args) for f in factors), np.int64, len(factors))
        start = np.concatenate(([0], np.cumsum(arity)))
        rv = np.fromiter(
            (position[arg] for f in factors for arg in f.args), np.int64, int(start[-1])
        )
        degree = np.bincount(rv, minlength=len(rv_ids))
        return cls(
            rv_ids,
            tuple(f.id for f in factors),
            position,
            np.repeat(np.arange(len(factors)), arity),
            rv,
            start,
            np.argsort(rv, kind="stable"),
            np.concatenate(([0], np.cumsum(degree))),
            degree,
        )

    @cached_property
    def is_forest(self) -> bool:
        """True iff the bipartite graph of RVs and factors has no cycle: a
        union-find adds the rows one edge at a time, and an edge that joins
        two nodes already sharing a root closes a cycle."""
        n_rv = len(self.rv_ids)
        parent = list(range(n_rv + len(self.factor_ids)))

        def root(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for r, f in zip(self.rv.tolist(), self.factor.tolist()):
            a, b = root(r), root(n_rv + f)
            if a == b:
                return False
            parent[a] = b
        return True


@dataclass(frozen=True)
class FactorGraph:
    rvs: tuple[RandomVariable, ...]
    factors: tuple[Factor, ...]
    _rv_by_id: dict = field(init=False, repr=False, compare=False)
    _factor_by_id: dict = field(init=False, repr=False, compare=False)
    # one-element list holding the Incidence once built; graphs of one
    # structure share the list, so whichever builds the index first builds
    # it for all of them
    _incidence: list = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __init__(self, rvs: Iterable[RandomVariable], factors: Iterable[Factor]) -> None:
        """Raises ValueError when an id names two nodes (two RVs, two
        factors, or an RV and a factor) or a table's shape is not its
        arguments' range sizes, and UnknownNode when an argument names no RV."""
        self._set_nodes(rvs, factors)
        _check_factors(self.factors, {rv.id: len(rv.range.values) for rv in self.rvs}.__getitem__)
        object.__setattr__(self, "_incidence", [None])

    def _set_nodes(self, rvs: Iterable[RandomVariable], factors: Iterable[Factor]) -> None:
        object.__setattr__(self, "rvs", tuple(rvs))
        object.__setattr__(self, "factors", tuple(factors))
        rv_by_id = {rv.id: rv for rv in self.rvs}
        factor_by_id = {f.id: f for f in self.factors}
        if (
            len(rv_by_id) < len(self.rvs)
            or len(factor_by_id) < len(self.factors)
            or not rv_by_id.keys().isdisjoint(factor_by_id)
        ):
            raise ValueError(f"node id {_repeated_id(self)!r} used more than once")
        object.__setattr__(self, "_rv_by_id", rv_by_id)
        object.__setattr__(self, "_factor_by_id", factor_by_id)
        object.__setattr__(self, "_memo", {})

    @property
    def incidence(self) -> Incidence:
        """The graph's integer incidence index, built on first use."""
        if self._incidence[0] is None:
            self._incidence[0] = Incidence.of(self.rv_ids, self.factors)
        return self._incidence[0]

    def memo(self, key: Hashable, build: Callable[[], object]) -> object:
        """``build()``, computed once per graph and key: a store for views
        derived from this graph's structure, tables and evidence. Only the
        incidence index is shared with the graphs ``with_tables`` and
        ``with_evidence`` make; each keeps its own views."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def _same_structure(self, rvs: Iterable[RandomVariable], factors: Iterable[Factor]) -> "FactorGraph":
        """A graph of the given nodes, which carry this graph's ids and
        arguments in this graph's order, sharing its incidence index. The
        caller checks the nodes it changed; the constructor's per-factor
        check does not run again."""
        out = object.__new__(FactorGraph)
        out._set_nodes(rvs, factors)
        object.__setattr__(out, "_incidence", self._incidence)
        return out

    # -- lookups ---------------------------------------------------------

    @property
    def rv_ids(self) -> tuple[str, ...]:
        return tuple(rv.id for rv in self.rvs)

    @property
    def factor_ids(self) -> tuple[str, ...]:
        return tuple(f.id for f in self.factors)

    def has_rv(self, rv_id: str) -> bool:
        return rv_id in self._rv_by_id

    def has_factor(self, factor_id: str) -> bool:
        return factor_id in self._factor_by_id

    def rv(self, rv_id: str) -> RandomVariable:
        try:
            return self._rv_by_id[rv_id]
        except KeyError:
            raise UnknownNode(f"no random variable {rv_id!r}") from None

    def factor(self, factor_id: str) -> Factor:
        try:
            return self._factor_by_id[factor_id]
        except KeyError:
            raise UnknownNode(f"no factor {factor_id!r}") from None

    def factors_of(self, rv_id: str) -> tuple[str, ...]:
        """The RV's factors, in factor order."""
        inc = self.incidence
        try:
            r = inc.rv_position[rv_id]
        except KeyError:
            raise UnknownNode(f"no random variable {rv_id!r}") from None
        rows = inc.by_rv[inc.rv_start[r] : inc.rv_start[r + 1]]
        return tuple(inc.factor_ids[f] for f in inc.factor[rows].tolist())

    def degree(self, rv_id: str) -> int:
        """Number of factors of the RV."""
        try:
            return int(self.incidence.degree[self.incidence.rv_position[rv_id]])
        except KeyError:
            raise UnknownNode(f"no random variable {rv_id!r}") from None

    @property
    def unknown_factor_ids(self) -> tuple[str, ...]:
        return self.memo(
            "model.unknown_factor_ids", lambda: tuple(f.id for f in self.factors if f.is_unknown)
        )

    @property
    def is_complete(self) -> bool:
        return not self.unknown_factor_ids

    # -- derived graphs --------------------------------------------------

    def with_tables(self, tables: Mapping[str, PotentialTable | None]) -> "FactorGraph":
        """Copy of the graph with the given factors' tables replaced; None
        makes a factor unknown.

        Raises UnknownNode for an id that is not a factor of the graph, and
        ValueError for a table whose shape is not its factor's argument ranges.
        """
        changed = {fid: Factor(fid, self.factor(fid).args, table) for fid, table in tables.items()}
        _check_factors(changed.values(), lambda rv_id: len(self._rv_by_id[rv_id].range.values))
        return self._same_structure(self.rvs, (changed.get(f.id, f) for f in self.factors))

    def with_evidence(self, evidence: Mapping[str, str | None]) -> "FactorGraph":
        """Copy of the graph with evidence set (or cleared via None) per RV.
        It shares the incidence index and none of the graph's memoised views,
        so it is coloured afresh; to condition a query, pass the evidence to
        ``marginals`` instead, which copies no graph.

        Raises UnknownNode for an id that is not an RV of the graph, and
        ValueError for a value outside the RV's range.
        """
        for rv_id in evidence:
            if rv_id not in self._rv_by_id:
                raise UnknownNode(f"no random variable {rv_id!r}")
        rvs = (
            replace(rv, evidence=evidence[rv.id]) if rv.id in evidence else rv for rv in self.rvs
        )
        return self._same_structure(rvs, self.factors)


def _check_factors(factors: Iterable[Factor], size: Callable[[str], int]) -> None:
    """Raise UnknownNode for an argument for which ``size``, the range size
    of an RV by id, raises KeyError, and ValueError for a table whose shape
    is not its arguments' range sizes."""
    for f in factors:
        try:
            sizes = tuple(map(size, f.args))
        except KeyError as e:
            raise UnknownNode(f"factor {f.id!r} references missing RV {e.args[0]!r}") from None
        if f.table is not None and f.table.shape != sizes:
            raise ValueError(f"factor {f.id!r}: table shape {f.table.shape} != argument ranges {sizes}")


def _repeated_id(fg: FactorGraph) -> str | None:
    """The first id that names a second node of ``fg``, if any."""
    seen: set[str] = set()
    for node in fg.rvs + fg.factors:
        if node.id in seen:
            return node.id
        seen.add(node.id)
    return None


@dataclass(frozen=True)
class Violation:
    """One problem found by validate() or validate_background()."""

    kind: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} [{self.subject}]: {self.detail}"


def validate(fg: FactorGraph) -> list[Violation]:
    """Report every factor whose table holds an entry that is not strictly
    positive and finite, in factor order; the entries of each distinct
    table are scanned once. Structural invariants need no report: the
    constructors reject a graph that breaks one.
    """
    bad_entries = cache(lambda t: int(np.count_nonzero(~(np.isfinite(t.array) & (t.array > 0.0)))))
    out: list[Violation] = []
    for f in fg.factors:
        bad = 0 if f.table is None else bad_entries(f.table)
        if bad:
            out.append(
                Violation(
                    "non-positive-potential",
                    f.id,
                    f"{bad} entr{'y' if bad == 1 else 'ies'} not strictly positive and finite",
                )
            )
    return out


@dataclass(frozen=True)
class BackgroundKnowledge:
    """Disjoint factor-id sets, one per named individual."""

    groups: tuple[tuple[str, tuple[str, ...]], ...]

    @classmethod
    def from_dict(cls, groups: Mapping[str, Iterable[str]]) -> "BackgroundKnowledge":
        """Raises TypeError when an individual's factors are one string."""
        for k, v in groups.items():
            if isinstance(v, str):
                raise TypeError(
                    f"individual {k!r}: factors must be a sequence of factor ids, not one id"
                )
        return cls(tuple((str(k), tuple(sorted(set(v)))) for k, v in groups.items()))

    @property
    def individual_ids(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.groups)

    def factors_of(self, individual: str) -> tuple[str, ...]:
        for k, v in self.groups:
            if k == individual:
                return v
        raise UnknownNode(f"no individual {individual!r}")

    def individual_of(self, factor_id: str) -> str | None:
        for k, v in self.groups:
            if factor_id in v:
                return k
        return None


def validate_background(fg: FactorGraph, bk: BackgroundKnowledge) -> list[Violation]:
    out: list[Violation] = []
    seen: dict[str, str] = {}
    for individual, fids in bk.groups:
        for fid in fids:
            if not fg.has_factor(fid):
                out.append(
                    Violation("bk-unknown-factor", individual, f"factor {fid!r} not in graph")
                )
            if fid in seen and seen[fid] != individual:
                out.append(
                    Violation(
                        "bk-overlap",
                        fid,
                        f"assigned to both {seen[fid]!r} and {individual!r}",
                    )
                )
            seen.setdefault(fid, individual)
    return out


def state_space_size(fg: FactorGraph) -> int:
    return prod(len(rv.range) for rv in fg.rvs)


def check_factors(fg: FactorGraph) -> None:
    """Raise UnknownFactorPresent if some factor lacks a table; the graph
    keeps its list of unknown factors, so a second call is O(1)."""
    unknown = fg.unknown_factor_ids
    if unknown:
        raise UnknownFactorPresent(f"unknown factors present: {', '.join(unknown)}")


def joint_distribution(fg: FactorGraph) -> np.ndarray:
    """Exact normalised joint over all RVs, axes in ``fg.rvs`` order.

    The joint is the normalised product of all factor tables; evidence
    stored on RVs does not restrict it (restriction is an inference-time
    concern). Raises UnknownFactorPresent for an unknown factor, and
    StateSpaceTooLarge when the assignment count exceeds ``STATE_CAP``.
    """
    check_factors(fg)
    size = state_space_size(fg)
    if size > STATE_CAP:
        raise StateSpaceTooLarge(f"{size} joint states exceed cap {STATE_CAP}")
    axis_of = {rv.id: i for i, rv in enumerate(fg.rvs)}
    sizes = tuple(len(rv.range) for rv in fg.rvs)
    acc = np.ones(sizes, dtype=np.float64)
    for f in fg.factors:
        axes = [axis_of[a] for a in f.args]
        order = sorted(range(len(axes)), key=axes.__getitem__)
        others = [i for i in range(len(sizes)) if i not in axes]
        acc = acc * np.expand_dims(np.transpose(f.table.array, order), others)
    z = float(acc.sum())
    if not np.isfinite(z) or z <= 0.0:
        raise ValueError("partition function is not positive and finite")
    return acc / z
