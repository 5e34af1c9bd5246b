"""Colour passing: partition refinement over factor graphs.

Nodes start with structural colours (random variables by range and
evidence, factors by the canonical form of their tables) and are repeatedly
re-partitioned: each factor combines its own colour with the colours of its
arguments, each RV combines its own colour with the multiset of factor
colours it sees, annotated by *where* it sits in each factor. Argument
positions are read through the table's canonical form, so positions that
the potentials make interchangeable carry the same annotation. Refinement
only ever splits classes, so the loop reaches a fixpoint after at most one
round per node.

The fixpoint partition is packaged as a :class:`Grouping`: classes plus one
shared table and per-member argument alignments for every factor class,
enough to reconstruct every ground factor bit-exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import UnknownFactorPresent
from .model import DEFAULT_STATE_CAP, Factor, FactorGraph, joint_distribution
from .tables import (
    MAX_CANONICAL_ARITY,
    PotentialTable,
    alignment_axes,
    canonical_info,
    canonical_table,  # noqa: F401  (wrapped by name in bench/tracing.py)
    first_match_groups,
    invert_axes,
    tables_equal,  # noqa: F401  (wrapped by name in bench/tracing.py)
)


@dataclass(frozen=True)
class Colouring:
    """One colour per node id; ids from a single shared namespace."""

    rv_colours: dict[str, int]
    factor_colours: dict[str, int]

    def rv_partition(self) -> frozenset[frozenset[str]]:
        return _partition(self.rv_colours)

    def factor_partition(self) -> frozenset[frozenset[str]]:
        return _partition(self.factor_colours)


def _partition(colours: Mapping[str, int]) -> frozenset[frozenset[str]]:
    classes: dict[int, set[str]] = {}
    for node, colour in colours.items():
        classes.setdefault(colour, set()).add(node)
    return frozenset(frozenset(c) for c in classes.values())


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


def _slot_info(factor: Factor) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(slot_of_position, orbit_of_slot) for one factor.

    Unknown factors and oversized tables use identity slots: positions are
    then compared literally.
    """
    n = len(factor.args)
    if (
        factor.table is None
        or factor.table.arity != n
        or factor.table.arity > MAX_CANONICAL_ARITY
    ):
        ident = tuple(range(n))
        return ident, ident
    info = canonical_info(factor.table)
    return info.slot_of_position, info.orbit_of_slot


def colour_passing_step(fg: FactorGraph, colouring: Colouring) -> Colouring:
    """One refinement round: factors re-colour from their arguments, then
    RVs re-colour from the new factor colours. New colour ids are dense and
    assigned in sorted-signature order, so the result is independent of node
    insertion order."""
    rv_col = colouring.rv_colours
    fac_col = colouring.factor_colours

    slots = [_slot_info(f) for f in fg.factors]
    factor_sigs: dict[str, tuple] = {}
    for f, (slot_of_pos, orbit_of_slot) in zip(fg.factors, slots):
        pos_of_slot = invert_axes(slot_of_pos)
        per_orbit: dict[int, list[int]] = {}
        for slot in range(len(f.args)):
            arg = f.args[pos_of_slot[slot]]
            per_orbit.setdefault(orbit_of_slot[slot], []).append(rv_col[arg])
        sig = tuple(
            (orbit, tuple(sorted(cols))) for orbit, cols in sorted(per_orbit.items())
        )
        factor_sigs[f.id] = (fac_col[f.id], sig)
    fac_order = {sig: i for i, sig in enumerate(sorted(set(factor_sigs.values())))}
    new_fac = {fid: fac_order[sig] for fid, sig in factor_sigs.items()}
    n_factor_colours = len(fac_order)

    rv_sigs: dict[str, tuple] = {}
    messages: dict[str, list[tuple[int, int]]] = {rv.id: [] for rv in fg.rvs}
    for f, (slot_of_pos, orbit_of_slot) in zip(fg.factors, slots):
        for pos, arg in enumerate(f.args):
            if arg in messages:
                messages[arg].append((new_fac[f.id], orbit_of_slot[slot_of_pos[pos]]))
    for rv in fg.rvs:
        rv_sigs[rv.id] = (rv_col[rv.id], tuple(sorted(messages[rv.id])))
    rv_order = {sig: i for i, sig in enumerate(sorted(set(rv_sigs.values())))}
    new_rv = {rid: n_factor_colours + rv_order[sig] for rid, sig in rv_sigs.items()}
    return Colouring(new_rv, new_fac)


def refine_to_fixpoint(fg: FactorGraph, colouring: Colouring) -> Colouring:
    """Iterate colour_passing_step until the partition stops changing."""
    current = colouring
    parts = (current.rv_partition(), current.factor_partition())
    for _ in range(len(fg.rvs) + len(fg.factors) + 1):
        nxt = colour_passing_step(fg, current)
        nxt_parts = (nxt.rv_partition(), nxt.factor_partition())
        if nxt_parts == parts:
            return nxt
        current, parts = nxt, nxt_parts
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
    rv_groups: dict[int, list[str]] = {}
    for rid, colour in colouring.rv_colours.items():
        rv_groups.setdefault(colour, []).append(rid)
    rv_classes = tuple(
        sorted((tuple(sorted(members)) for members in rv_groups.values()), key=lambda c: c[0])
    )

    fac_groups: dict[int, list[str]] = {}
    for fid, colour in colouring.factor_colours.items():
        fac_groups.setdefault(colour, []).append(fid)
    classes: list[FactorClass] = []
    for members in fac_groups.values():
        members = sorted(members)
        rep = fg.factor(members[0])
        if rep.is_unknown:
            classes.append(FactorClass(tuple(members), None, None))
            continue
        assert rep.table is not None
        alignments = []
        for m in members:
            mf = fg.factor(m)
            assert mf.table is not None
            alignments.append(alignment_axes(rep.table, mf.table))
        classes.append(FactorClass(tuple(members), rep.table, tuple(alignments)))
    factor_classes = tuple(sorted(classes, key=lambda c: c.members[0]))
    return Grouping(rv_classes, factor_classes)


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


def grounded_equivalence_check(
    fg: FactorGraph,
    grouping: Grouping,
    cap: int = DEFAULT_STATE_CAP,
    tol: float = 1e-12,
) -> bool:
    """True iff expanding the grouping reproduces the graph's joint.

    Every factor's table is rebuilt from its class table and alignment; the
    joint of the rebuilt graph must match the original joint within ``tol``
    per entry. Any structural mismatch (missing or doubly-grouped nodes,
    classes without tables, misshapen alignments) yields False.
    """
    if set().union(*[set(c) for c in grouping.rv_classes] or [set()]) != set(fg.rv_ids):
        return False
    if sum(len(c) for c in grouping.rv_classes) != len(fg.rv_ids):
        return False
    seen: list[str] = []
    for cls in grouping.factor_classes:
        seen.extend(cls.members)
    if sorted(seen) != sorted(fg.factor_ids):
        return False

    rebuilt: dict[str, PotentialTable] = {}
    for cls in grouping.factor_classes:
        if cls.table is None or cls.alignments is None:
            return False
        if len(cls.alignments) != len(cls.members):
            return False
        for member, axes in zip(cls.members, cls.alignments):
            original = fg.factor(member)
            if original.table is None:
                return False
            if sorted(axes) != list(range(cls.table.arity)):
                return False
            expanded = np.transpose(cls.table.array, axes)
            if expanded.shape != original.table.shape:
                return False
            rebuilt[member] = PotentialTable.from_array(expanded)
    truth = joint_distribution(fg, cap)
    regrounded = joint_distribution(fg.with_tables(rebuilt), cap)
    return bool(np.max(np.abs(truth - regrounded)) <= tol)


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
