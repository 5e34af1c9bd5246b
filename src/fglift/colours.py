"""Colour passing: partition refinement over factor graphs.

Nodes start with structural colours (random variables by range and
evidence, factors by the canonical form of their tables) and are repeatedly
re-partitioned: each factor combines its own colour with the colours of its
arguments, each RV combines its own colour with the multiset of factor
colours it sees, annotated by the *port* it sits at in each factor. An
argument position's port label is its symmetry orbit in the table's
canonical form, so positions that the potentials make interchangeable share
a label; unknown and over-arity tables label each position by itself. Every
signature starts with the node's old colour, so a round only ever splits
classes: the partition is stable as soon as the number of RV classes and of
factor classes stops growing, after at most one round per node.

The fixpoint partition is packaged as a :class:`Grouping`: classes plus one
shared table and per-member argument alignments for every factor class.
:func:`grounded_equivalence_check` asks that these rebuild every ground
factor bit for bit, in time linear in the graph. That implies equal joints,
and is stricter than comparing them: a member that is a constant multiple
of its class table, or only near it, is rejected although normalisation
would hide the difference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import UnknownFactorPresent
from .model import Factor, FactorGraph
from .tables import (
    MAX_CANONICAL_ARITY,
    PotentialTable,
    alignment_axes,
    canonical_info,
    canonical_table,  # noqa: F401  (wrapped by name in bench/tracing.py)
    first_match_groups,
    tables_equal,  # noqa: F401  (wrapped by name in bench/tracing.py)
)


@dataclass(frozen=True)
class Colouring:
    """One colour per node id; ids from a single shared namespace."""

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


def _group_known_factors(
    factors: list[Factor], rtol: float
) -> list[tuple[tuple, list[str]]]:
    """Group known factors by canonical table; returns (sort key, member ids)."""
    keys = [canonical_info(f.table).key for f in factors]  # type: ignore[arg-type]
    groups = first_match_groups(keys, rtol)
    return sorted((keys[g[0]], [factors[i].id for i in g]) for g in groups)


def initial_colouring(
    fg: FactorGraph,
    rtol: float = 0.0,
    unknown_tags: Mapping[str, int] | None = None,
) -> Colouring:
    """Structural starting colours.

    RVs are grouped by (range, evidence). Known factors are grouped by
    canonical table (within ``rtol`` if nonzero). Every unknown factor must
    appear in ``unknown_tags``; factors sharing a tag share a colour.
    Raises UnknownFactorPresent for an untagged unknown factor.
    """
    tags = dict(unknown_tags or {})
    untagged = [fid for fid in fg.unknown_factor_ids if fid not in tags]
    if untagged:
        raise UnknownFactorPresent(
            f"unknown factors without a colour tag: {', '.join(untagged)}"
        )
    extra = [fid for fid in tags if not fg.has_factor(fid) or not fg.factor(fid).is_unknown]
    if extra:
        raise ValueError(f"tags given for non-unknown factors: {', '.join(extra)}")

    rv_groups: dict[tuple, list[str]] = {}
    for rv in fg.rvs:
        key = (rv.range.values, rv.evidence is not None, rv.evidence or "")
        rv_groups.setdefault(key, []).append(rv.id)
    rv_colours: dict[str, int] = {}
    next_colour = 0
    for _, members in sorted(rv_groups.items()):
        for m in members:
            rv_colours[m] = next_colour
        next_colour += 1

    factor_colours: dict[str, int] = {}
    known = [f for f in fg.factors if not f.is_unknown]
    for _, members in _group_known_factors(known, rtol):
        for m in members:
            factor_colours[m] = next_colour
        next_colour += 1
    tag_groups: dict[int, list[str]] = {}
    for fid, tag in tags.items():
        tag_groups.setdefault(tag, []).append(fid)
    for _, members in sorted(tag_groups.items()):
        for m in members:
            factor_colours[m] = next_colour
        next_colour += 1
    return Colouring(rv_colours, factor_colours)


def _ports(factor: Factor) -> tuple[int, ...]:
    """Port label of each argument position: its canonical symmetry orbit.

    Unknown factors and oversized tables label each position by itself, so
    positions are then compared literally.
    """
    n = len(factor.args)
    if (
        factor.table is None
        or factor.table.arity != n
        or factor.table.arity > MAX_CANONICAL_ARITY
    ):
        return tuple(range(n))
    info = canonical_info(factor.table)
    return tuple(info.orbit_of_position(p) for p in range(n))


def _recolour(sigs: dict[str, tuple], first: int) -> dict[str, int]:
    """Dense colours from ``first`` on, in sorted-signature order."""
    order = {sig: first + i for i, sig in enumerate(sorted(set(sigs.values())))}
    return {node: order[sig] for node, sig in sigs.items()}


def colour_passing_step(fg: FactorGraph, colouring: Colouring) -> Colouring:
    """One refinement round: factors re-colour from their arguments, then
    RVs re-colour from the new factor colours. New colour ids are dense and
    assigned in sorted-signature order, so the result is independent of node
    insertion order."""
    rv_col = colouring.rv_colours
    fac_col = colouring.factor_colours

    ports = [_ports(f) for f in fg.factors]
    factor_sigs: dict[str, tuple] = {}
    for f, f_ports in zip(fg.factors, ports):
        per_port: dict[int, list[int]] = {}
        for port, arg in zip(f_ports, f.args):
            per_port.setdefault(port, []).append(rv_col[arg])
        sig = tuple((port, tuple(sorted(cols))) for port, cols in sorted(per_port.items()))
        factor_sigs[f.id] = (fac_col[f.id], sig)
    new_fac = _recolour(factor_sigs, 0)

    messages: dict[str, list[tuple[int, int]]] = {rv.id: [] for rv in fg.rvs}
    for f, f_ports in zip(fg.factors, ports):
        for port, arg in zip(f_ports, f.args):
            if arg in messages:
                messages[arg].append((new_fac[f.id], port))
    rv_sigs = {rid: (rv_col[rid], tuple(sorted(msgs))) for rid, msgs in messages.items()}
    new_rv = _recolour(rv_sigs, len(set(new_fac.values())))
    return Colouring(new_rv, new_fac)


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
    """One class of mutually grouped factors.

    ``table`` is the representative's positional table (None for a class of
    unknown factors); ``alignments[i]`` are transpose axes reconstructing
    member i's positional table from it.
    """

    members: tuple[str, ...]
    table: PotentialTable | None
    alignments: tuple[tuple[int, ...], ...] | None

    @property
    def size(self) -> int:
        return len(self.members)

    def member_table(self, index: int) -> PotentialTable:
        if self.table is None or self.alignments is None:
            raise UnknownFactorPresent(f"class of {self.members[0]!r} has no table")
        return PotentialTable.from_array(
            np.transpose(self.table.array, self.alignments[index])
        )


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
    classes: list[FactorClass] = []
    for members in _classes(colouring.factor_colours):
        rep = fg.factor(members[0])
        if rep.table is None:
            classes.append(FactorClass(members, None, None))
            continue
        alignments = []
        for m in members:
            mf = fg.factor(m)
            assert mf.table is not None
            alignments.append(alignment_axes(rep.table, mf.table))
        classes.append(FactorClass(members, rep.table, tuple(alignments)))
    return Grouping(tuple(_classes(colouring.rv_colours)), tuple(classes))


def run_colour_passing(
    fg: FactorGraph,
    rtol: float = 0.0,
    unknown_tags: Mapping[str, int] | None = None,
) -> Grouping:
    """Full colour passing: initial colours, refinement, grouping.

    ``unknown_tags`` pre-colours unknown factors (see initial_colouring);
    without it the graph must be fully known.
    """
    colouring = refine_to_fixpoint(fg, initial_colouring(fg, rtol, unknown_tags))
    return grouping_from_colouring(fg, colouring)


def grounded_equivalence_check(fg: FactorGraph, grouping: Grouping) -> bool:
    """True iff expanding the grouping rebuilds every ground factor bit for bit.

    Every RV and every factor must sit in exactly one class, every factor
    class must carry a table and one argument permutation per member, and
    each member's table must equal ``FactorClass.member_table`` exactly.
    Linear in the graph's size; equal tables imply equal joints.
    """
    if sorted(m for c in grouping.rv_classes for m in c) != sorted(fg.rv_ids):
        return False
    if sorted(m for c in grouping.factor_classes for m in c.members) != sorted(fg.factor_ids):
        return False
    for cls in grouping.factor_classes:
        if cls.table is None or cls.alignments is None:
            return False
        if len(cls.alignments) != len(cls.members):
            return False
        for i, (member, axes) in enumerate(zip(cls.members, cls.alignments)):
            if sorted(axes) != list(range(cls.table.arity)):
                return False
            if cls.member_table(i) != fg.factor(member).table:
                return False
    return True


def grouping_report(grouping: Grouping) -> str:
    """Stable text report: one ``class`` line per class, RVs then factors."""
    lines = []
    class_id = 0
    for members in grouping.rv_classes:
        lines.append(
            f"class {class_id} kind=rv size={len(members)} members={','.join(members)}"
        )
        class_id += 1
    for cls in grouping.factor_classes:
        lines.append(
            f"class {class_id} kind=factor size={cls.size} members={','.join(cls.members)}"
        )
        class_id += 1
    return "\n".join(lines) + "\n"
