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
from functools import cache
from typing import Hashable, Mapping

import numpy as np

from .errors import UnknownFactorPresent
from .model import FactorGraph
from .tables import (
    CanonicalKey,
    PotentialTable,
    alignment_axes,
    canonical_info,
    canonical_table,  # noqa: F401  (wrapped by name in bench/tracing.py)
    table_classes,
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


def _recolour(sigs: dict[str, tuple], first: int) -> dict[str, int]:
    """Dense colours from ``first`` on, in sorted-signature order."""
    order = {sig: first + i for i, sig in enumerate(sorted(set(sigs.values())))}
    return {node: order[sig] for node, sig in sigs.items()}


def known_table_classes(fg: FactorGraph, rtol: float = 0.0) -> dict[str, CanonicalKey]:
    """Table class of each known factor, by factor id, as ``tables.table_classes``
    builds it over the graph's canonical keys; one ``canonical_info`` per
    distinct table. Raises ValueError for a negative or NaN ``rtol``.
    """
    known = [f for f in fg.factors if f.table is not None]
    key_of = {t: canonical_info(t).key for t in dict.fromkeys(f.table for f in known)}
    class_of = table_classes(key_of.values(), rtol)
    return {f.id: class_of[key_of[f.table]] for f in known}


def initial_colouring(
    fg: FactorGraph,
    rtol: float = 0.0,
    unknown_tags: Mapping[str, Hashable] | None = None,
) -> Colouring:
    """Structural starting colours, numbered like every refinement round.

    An RV's signature is ``RandomVariable.signature``. A known factor's is
    ``(0, key)`` with the key naming its table class (``known_table_classes``).
    Every unknown factor must appear in ``unknown_tags`` and gets ``(1,
    tag)``, so factors sharing a tag share a colour; tags must be mutually
    sortable. RVs and then factors are coloured densely in sorted-signature
    order. Raises UnknownFactorPresent for an untagged unknown factor.
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

    classes = known_table_classes(fg, rtol)
    factor_sigs: dict[str, tuple] = {fid: (0, key) for fid, key in classes.items()}
    factor_sigs.update((fid, (1, tag)) for fid, tag in tags.items())
    rv_colours = _recolour({rv.id: rv.signature for rv in fg.rvs}, 0)
    return Colouring(rv_colours, _recolour(factor_sigs, len(set(rv_colours.values()))))


def _ports(table: PotentialTable | None, n: int) -> tuple[int, ...]:
    """Port label of each of a factor's ``n`` argument positions: its
    canonical symmetry orbit in the factor's ``table``.

    Unknown factors label each position by itself, as ``canonical_info``
    does for oversized tables, so positions are then compared literally.
    """
    if table is None or table.arity != n:
        return tuple(range(n))
    info = canonical_info(table)
    return tuple(info.orbit_of_position(p) for p in range(n))


def colour_passing_step(fg: FactorGraph, colouring: Colouring) -> Colouring:
    """One refinement round: factors re-colour from their arguments, then
    RVs re-colour from the new factor colours. New colour ids are dense and
    assigned in sorted-signature order, so the result is independent of node
    insertion order."""
    rv_col = colouring.rv_colours
    fac_col = colouring.factor_colours

    ports_of = cache(_ports)
    ports = [ports_of(f.table, len(f.args)) for f in fg.factors]
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
    axes_of = cache(alignment_axes)
    for members in _classes(colouring.factor_colours):
        rep = fg.factor(members[0])
        if rep.table is None:
            classes.append(FactorClass(members, None, None))
            continue
        alignments = []
        for m in members:
            mf = fg.factor(m)
            assert mf.table is not None
            alignments.append(axes_of(rep.table, mf.table))
        classes.append(FactorClass(members, rep.table, tuple(alignments)))
    return Grouping(tuple(_classes(colouring.rv_colours)), tuple(classes))


def run_colour_passing(
    fg: FactorGraph,
    rtol: float = 0.0,
    unknown_tags: Mapping[str, Hashable] | None = None,
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
