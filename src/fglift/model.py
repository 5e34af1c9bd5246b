"""Factor graph model: random variables, factors, validation, exact joint.

A factor graph here is a bipartite structure of random variables and
factors. Every factor names the variables it touches in a fixed argument
order; a factor either carries a potential table or is *unknown* (arguments
known, potentials missing). The joint semantics over the known-only case is
the normalised product of all potential tables.
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
    the same labels in a different order are a different range.
    """

    values: tuple[str, ...]

    def __init__(self, values: Iterable[str]) -> None:
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

    @property
    def signature(self) -> tuple[tuple[str, ...], bool, str]:
        """(range values, has evidence, evidence or ""): all that tells RVs apart
        before the graph structure is read."""
        return (self.range.values, self.evidence is not None, self.evidence or "")


@dataclass(frozen=True)
class Factor:
    """A factor over an ordered argument list.

    ``table is None`` marks an unknown factor: its arguments are part of the
    graph structure but its potentials are missing.
    """

    id: str
    args: tuple[str, ...]
    table: PotentialTable | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    @property
    def is_unknown(self) -> bool:
        return self.table is None


@dataclass(frozen=True, eq=False)
class Incidence:
    """Integer incidence index of a factor graph's structure.

    RVs are numbered by their position in ``FactorGraph.rvs``, factors by
    their position in ``FactorGraph.factors``.
    There is one row per argument position, running factor by factor in
    argument order: row i joins factor ``factor[i]`` to RV ``rv[i]`` (-1 for
    a dangling argument), and factor f owns rows ``start[f]:start[f + 1]``.
    ``by_rv[rv_start[r]:rv_start[r + 1]]`` are RV r's rows, one per position,
    so a repeated argument contributes two; ``degree[r]`` counts RV r's
    distinct factors, as ``factors_of`` lists them. ``dangling`` names the
    first (factor, argument) pair whose argument is no RV, if any. Only ids
    and arguments enter, so graphs that differ in tables or evidence alone
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
    dangling: tuple[str, str] | None

    @classmethod
    def of(cls, rv_ids: tuple[str, ...], factors: tuple[Factor, ...]) -> "Incidence":
        position = {rid: i for i, rid in enumerate(rv_ids)}
        arity = np.fromiter((len(f.args) for f in factors), np.int64, len(factors))
        start = np.concatenate(([0], np.cumsum(arity)))
        rv = np.fromiter(
            (position.get(arg, -1) for f in factors for arg in f.args), np.int64, int(start[-1])
        )
        factor = np.repeat(np.arange(len(factors)), arity)
        rows = np.flatnonzero(rv >= 0)
        dangling = None
        if len(rows) < len(rv):
            row = int(np.flatnonzero(rv < 0)[0])
            f = factors[int(factor[row])]
            dangling = (f.id, f.args[row - int(start[factor[row]])])
        by_rv = rows[np.argsort(rv[rows], kind="stable")]
        per_rv = np.bincount(rv[rows], minlength=len(rv_ids))
        # an RV's rows in one factor are adjacent in by_rv: count each factor once
        owner, arg = factor[by_rv], rv[by_rv]
        repeat = (owner[1:] == owner[:-1]) & (arg[1:] == arg[:-1])
        return cls(
            rv_ids,
            tuple(f.id for f in factors),
            position,
            factor,
            rv,
            start,
            by_rv,
            np.concatenate(([0], np.cumsum(per_rv))),
            per_rv - np.bincount(arg[1:][repeat], minlength=len(rv_ids)),
            dangling,
        )

    def check_arguments(self) -> None:
        """Raise UnknownNode if some argument names no RV of the graph."""
        if self.dangling is not None:
            factor_id, arg = self.dangling
            raise UnknownNode(f"factor {factor_id!r} references missing RV {arg!r}")

    @cached_property
    def factors_of(self) -> dict[str, tuple[str, ...]]:
        """Each RV's distinct factors, in factor order."""
        out = {}
        for rid, r in self.rv_position.items():
            rows = self.by_rv[self.rv_start[r] : self.rv_start[r + 1]]
            out[rid] = tuple(self.factor_ids[f] for f in dict.fromkeys(self.factor[rows].tolist()))
        return out


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
        """Raises ValueError when an id names two nodes: two RVs, two
        factors, or an RV and a factor."""
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
        object.__setattr__(self, "_incidence", [None])
        object.__setattr__(self, "_memo", {})

    @property
    def incidence(self) -> Incidence:
        """The graph's integer incidence index, built on first use."""
        if self._incidence[0] is None:
            self._incidence[0] = Incidence.of(self.rv_ids, self.factors)
        return self._incidence[0]

    def memo(self, key: Hashable, build: Callable[[], object]) -> object:
        """``build()``, computed once per graph and key: a store for views
        derived from this graph's tables and evidence as well as its structure."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def _same_structure(self, rvs: Iterable[RandomVariable], factors: Iterable[Factor]) -> "FactorGraph":
        """A graph of the given nodes, which carry this graph's ids and
        arguments in this graph's order, sharing its incidence index."""
        out = FactorGraph(rvs, factors)
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
        try:
            return self.incidence.factors_of[rv_id]
        except KeyError:
            raise UnknownNode(f"no random variable {rv_id!r}") from None

    def degree(self, rv_id: str) -> int:
        """Number of distinct factors of the RV."""
        try:
            return int(self.incidence.degree[self.incidence.rv_position[rv_id]])
        except KeyError:
            raise UnknownNode(f"no random variable {rv_id!r}") from None

    @property
    def unknown_factor_ids(self) -> tuple[str, ...]:
        return tuple(f.id for f in self.factors if f.is_unknown)

    @property
    def is_complete(self) -> bool:
        return not self.unknown_factor_ids

    # -- derived graphs --------------------------------------------------

    def with_tables(self, tables: Mapping[str, PotentialTable]) -> "FactorGraph":
        """Copy of the graph with the given factors' tables replaced.

        Raises UnknownNode for an id that is not a factor of the graph.
        """
        for factor_id in tables:
            if factor_id not in self._factor_by_id:
                raise UnknownNode(f"no factor {factor_id!r}")
        factors = tuple(
            Factor(f.id, f.args, tables[f.id]) if f.id in tables else f for f in self.factors
        )
        return self._same_structure(self.rvs, factors)

    def with_evidence(self, evidence: Mapping[str, str | None]) -> "FactorGraph":
        """Copy of the graph with evidence set (or cleared via None) per RV."""
        for rv_id in evidence:
            if rv_id not in self._rv_by_id:
                raise UnknownNode(f"no random variable {rv_id!r}")
        rvs = []
        for rv in self.rvs:
            if rv.id in evidence:
                value = evidence[rv.id]
                if value is not None and value not in rv.range:
                    raise ValueError(
                        f"evidence {value!r} not in range of {rv.id!r}"
                    )
                rvs.append(replace(rv, evidence=value))
            else:
                rvs.append(rv)
        return self._same_structure(rvs, self.factors)


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
    """One structural invariant violation found by validate()."""

    kind: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} [{self.subject}]: {self.detail}"


def validate(fg: FactorGraph) -> list[Violation]:
    """Check every structural invariant; returns all violations found.

    Covered: empty or repeating argument lists, dangling argument
    references, table shape mismatches, non-positive or non-finite entries,
    evidence outside the variable's range. The entries of each distinct
    table are scanned once. Repeated ids never get this far: the graph's
    constructor rejects them.
    """
    out: list[Violation] = []
    bad_entries = cache(lambda t: int(np.count_nonzero(~(np.isfinite(t.array) & (t.array > 0.0)))))
    rv_ids = {rv.id for rv in fg.rvs}
    for rv in fg.rvs:
        if rv.evidence is not None and rv.evidence not in rv.range:
            out.append(
                Violation(
                    "bad-evidence",
                    rv.id,
                    f"evidence {rv.evidence!r} not in range {rv.range.values}",
                )
            )

    for f in fg.factors:
        if not f.args:
            out.append(Violation("empty-args", f.id, "factor has no arguments"))
            continue
        if len(set(f.args)) != len(f.args):
            out.append(Violation("repeated-arg", f.id, f"arguments repeat: {f.args}"))
        dangling = [a for a in f.args if a not in rv_ids]
        for a in dangling:
            out.append(Violation("dangling-arg", f.id, f"argument {a!r} is not an RV"))
        if f.table is None:
            continue
        if dangling or len(set(f.args)) != len(f.args):
            continue
        expected = tuple(len(fg.rv(a).range) for a in f.args)
        if f.table.shape != expected:
            out.append(
                Violation(
                    "shape-mismatch",
                    f.id,
                    f"table shape {f.table.shape} != arg ranges {expected}",
                )
            )
            continue
        bad = bad_entries(f.table)
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
    """Raise UnknownFactorPresent if some factor lacks a table, UnknownNode
    for an argument that names no RV (``Incidence.check_arguments``), and
    ValueError for a factor that repeats an argument or whose table's shape
    is not its arguments' range sizes."""
    unknown = fg.unknown_factor_ids
    if unknown:
        raise UnknownFactorPresent(f"unknown factors present: {', '.join(unknown)}")
    size = {rv_id: len(rv.range) for rv_id, rv in fg._rv_by_id.items()}
    for f in fg.factors:
        sizes = tuple(map(size.get, f.args))
        if None in sizes:
            fg.incidence.check_arguments()  # raises for f, the first factor with a missing RV
        if len(set(f.args)) != len(f.args):
            raise ValueError(f"factor {f.id!r} repeats arguments")
        if f.table.shape != sizes:
            raise ValueError(f"factor {f.id!r}: table shape {f.table.shape} != argument ranges {sizes}")


def joint_distribution(fg: FactorGraph) -> np.ndarray:
    """Exact normalised joint over all RVs, axes in ``fg.rvs`` order.

    The joint is the normalised product of all factor tables; evidence
    stored on RVs does not restrict it (restriction is an inference-time
    concern). Raises what ``check_factors`` raises, and StateSpaceTooLarge
    when the assignment count exceeds ``STATE_CAP``.
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
