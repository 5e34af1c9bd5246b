"""Completing unknown factors by transferring structurally matching potentials.

An unknown factor's potentials are recovered from known factors that the
graph structure cannot tell apart from it: the same multiset of (RV
signature, degree) profiles over their neighbour variables, which also fixes
the argument count. Candidates split into classes of factors that are also
mutually identical in their potentials; the largest class wins, optionally
filtered by background knowledge about which factors describe the same
individual, and its table is copied onto the unknown factor whenever the
class covers at least a ``theta`` fraction of all candidates. The completed
graph is then grouped by colour passing, with still-unresolved unknown
factors pre-coloured (uniquely, except that mutually indistinguishable
unknowns share a colour).

Nothing is compared pair by pair. Indistinguishability is an equivalence
whose key is the sorted neighbour profile, so every known factor is
bucketed once by that key and each unknown factor reads its bucket. The
profiles are read off the graph's incidence index: every RV gets one
profile id, numbered densely in sorted-profile order, so that sorted id
tuples order, compare and tag exactly as the profiles did. Every factor
is bucketed in a dict by that sorted tuple (``_neighbour_profile``), its
argument ids read off its rows of the index; the same key decides
``indistinguishable`` and tags the unresolved unknowns. Every known table
belongs to one table class (``colours.known_table_classes``, one canonical
key per distinct table, kept per graph and ``rtol``), and the same map
splits a bucket into classes, finds mirror individuals and colours the
known factors. A mirror individual is found by set tests on each
individual's set of known table classes, built once per graph and
background knowledge, also when ``select_transfer_class`` is called on its
own. At ``rtol == 0`` completion therefore costs O(factors + unknowns)
profile and key computations, plus one set test per individual for each
individual that holds an unknown factor.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping

import numpy as np

from .colours import Grouping, _dense, known_table_classes, run_colour_passing
from .model import BackgroundKnowledge, FactorGraph
from .tables import (
    CanonicalKey,
    PotentialTable,
    canonical_info,  # noqa: F401  (wrapped by name in bench/tracing.py)
    canonical_table,
    check_rtol,
    tables_equal,
)


def _profile_ids(fg: FactorGraph) -> list[int]:
    """Profile id of each RV of the incidence index: its (RV signature,
    degree) numbered by ``colours._dense``, so that ids compare like the
    profiles they stand for. Memoised per graph."""

    def build() -> list[int]:
        degrees = fg.incidence.degree.tolist()
        return _dense([(rv.signature, d) for rv, d in zip(fg.rvs, degrees)])[0]

    return fg.memo("transfer.profile_ids", build)


def _argument_profiles(fg: FactorGraph, factor_id: str) -> tuple[int, ...]:
    """Profile id of each argument RV, in argument order."""
    ids, position = _profile_ids(fg), fg.incidence.rv_position
    return tuple(ids[position[arg]] for arg in fg.factor(factor_id).args)


def _neighbour_profile(argument_profiles: Iterable[int]) -> tuple[int, ...]:
    """Sorted multiset of a factor's argument profile ids: the
    indistinguishability key."""
    return tuple(sorted(argument_profiles))


def indistinguishable(fg: FactorGraph, a: str, b: str) -> bool:
    """True iff the two factors' neighbourhoods cannot be told apart.

    Requires equally many arguments and a degree-, range- and
    evidence-preserving correspondence between the neighbour RVs, i.e.
    equal profile multisets. This is an equivalence relation.
    """
    return _neighbour_profile(_argument_profiles(fg, a)) == _neighbour_profile(_argument_profiles(fg, b))


def possibly_identical(fg: FactorGraph, a: str, b: str, rtol: float = 0.0) -> bool:
    """Indistinguishable, and the potentials do not contradict each other.

    Potentials cannot contradict when either factor is unknown; for two
    known factors the tables must agree under canonical argument alignment
    (within ``rtol``). This is the pairwise relation; table classes are its
    closure, so two known factors of one class need not pass it at ``rtol >
    0``. Raises ValueError for a negative or NaN ``rtol``.
    """
    check_rtol(rtol)
    if not indistinguishable(fg, a, b):
        return False
    fa, fb = fg.factor(a), fg.factor(b)
    if fa.is_unknown or fb.is_unknown:
        return True
    assert fa.table is not None and fb.table is not None
    return tables_equal(canonical_table(fa.table), canonical_table(fb.table), rtol)


@dataclass(frozen=True)
class Selection:
    """Outcome of choosing a donor class for one unknown factor.

    ``alignment`` holds the transpose axes that map the donor's table onto
    the recipient's argument order; None while the selection is rejected.
    """

    members: tuple[str, ...]
    ratio: float
    accepted: bool
    bk_state: str  # "yes" | "no" | "n/a"
    alignment: tuple[int, ...] | None = None

    @property
    def donor(self) -> str:
        return self.members[0]


@dataclass(frozen=True)
class CandidateSet:
    """Known factors that could plausibly share an unknown factor's potentials.

    ``classes`` partitions the candidates by table class: at ``rtol == 0``
    into maximal sets of pairwise possibly identical factors, at ``rtol >
    0`` by the closure of that relation over the graph's known tables.
    Largest class first, ties broken by smallest member id.
    """

    unknown_factor: str
    candidates: tuple[str, ...]
    classes: tuple[tuple[str, ...], ...]
    chosen: Selection | None = None


def _candidate_classes(
    candidates: tuple[str, ...], class_of: Mapping[str, CanonicalKey]
) -> tuple[tuple[str, ...], ...]:
    # Candidates are mutually indistinguishable already, so they split by
    # table class alone.
    classes: dict[CanonicalKey, list[str]] = {}
    for fid in candidates:
        classes.setdefault(class_of[fid], []).append(fid)
    return tuple(sorted((tuple(c) for c in classes.values()), key=lambda c: (-len(c), c)))


def candidate_sets(fg: FactorGraph, rtol: float = 0.0) -> list[CandidateSet]:
    """One CandidateSet per unknown factor, in sorted id order.

    Raises ValueError for a negative or NaN ``rtol``.
    """
    check_rtol(rtol)
    class_of = known_table_classes(fg, rtol)
    ids, inc = _profile_ids(fg), fg.incidence
    arg_profiles = list(map(ids.__getitem__, inc.rv.tolist()))
    bounds = inc.start.tolist()
    # factors share a bucket iff their neighbour profiles are equal
    known: dict[tuple[int, ...], list[str]] = {}
    unknown: list[tuple[str, tuple[int, ...]]] = []
    for f, a, b in zip(fg.factors, bounds, bounds[1:]):
        key = _neighbour_profile(arg_profiles[a:b])
        if f.is_unknown:
            unknown.append((f.id, key))
        else:
            known.setdefault(key, []).append(f.id)
    per_bucket: dict[tuple[int, ...], tuple] = {}
    out = []
    for uid, key in sorted(unknown):
        if key not in per_bucket:
            cands = tuple(sorted(known.get(key, ())))
            per_bucket[key] = (cands, _candidate_classes(cands, class_of))
        out.append(CandidateSet(uid, *per_bucket[key]))
    return out


class _Mirrors:
    """The unique mirror individual of each individual, memoised.

    A mirror of individual I is another individual holding, for every known
    factor of I, a known factor of the same table class. ``class_of`` maps
    each known factor of the graph to its class; each individual's set of
    known classes is built once, so the test is a set inclusion. The scan
    stops at the second mirror.
    """

    def __init__(self, bk: BackgroundKnowledge, class_of: Mapping[str, CanonicalKey]) -> None:
        def known_classes(fids: tuple[str, ...]) -> frozenset[CanonicalKey]:
            return frozenset(class_of[g] for g in fids if g in class_of)

        self.groups = [(ind, fids, known_classes(fids)) for ind, fids in bk.groups]
        # reversed, so that the first group wins, as in bk.individual_of / factors_of
        self.owner = {fid: ind for ind, fids in reversed(bk.groups) for fid in fids}
        self.own_classes = {ind: classes for ind, _, classes in reversed(self.groups)}
        self._mirror: dict[str, frozenset[str]] = {}

    def of(self, unknown_factor: str) -> frozenset[str] | None:
        """Factor ids of the unique individual that mirrors the unknown factor's own.

        None when the unknown factor belongs to no individual (no constraint
        applies); an empty set when no unique mirror exists.
        """
        own = self.owner.get(unknown_factor)
        if own is None:
            return None
        if own not in self._mirror:
            mirrors = []
            for other, fids, classes in self.groups:
                if other != own and self.own_classes[own] <= classes:
                    mirrors.append(fids)
                    if len(mirrors) == 2:
                        break
            self._mirror[own] = frozenset(mirrors[0]) if len(mirrors) == 1 else frozenset()
        return self._mirror[own]


def _mirrors(fg: FactorGraph, bk: BackgroundKnowledge, rtol: float) -> _Mirrors:
    """The graph's mirror table under ``bk`` and ``rtol``, built once per graph."""
    return fg.memo(("transfer.mirrors", bk, rtol), lambda: _Mirrors(bk, known_table_classes(fg, rtol)))


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")


def select_transfer_class(
    fg: FactorGraph,
    cs: CandidateSet,
    theta: float,
    bk: BackgroundKnowledge | None = None,
    rtol: float = 0.0,
) -> Selection | None:
    """Pick the donor class for one candidate set.

    Without background knowledge the largest class wins (ties by smallest
    member id). With it, classes containing a factor of the unknown
    factor's unique mirror individual are preferred; if none qualifies the
    choice falls back to the largest class. The selection is accepted only
    when the chosen class covers at least ``theta`` of all candidates.
    ``bk_state`` records whether the mirror preference decided ("yes"),
    failed ("no"), or never applied ("n/a"). Raises ValueError for a
    ``theta`` outside [0, 1] or NaN, or a negative or NaN ``rtol``.
    """
    _check_theta(theta)
    check_rtol(rtol)
    if not cs.candidates:
        return None
    pool = cs.classes
    bk_state = "n/a"
    if bk is not None:
        mirror = _mirrors(fg, bk, rtol).of(cs.unknown_factor)
        if mirror is not None:
            supported = tuple(c for c in cs.classes if set(c) & mirror)
            if supported:
                pool = supported
                bk_state = "yes"
            else:
                bk_state = "no"
    chosen = pool[0]
    ratio = len(chosen) / len(cs.candidates)
    accepted = ratio >= theta
    alignment = (
        _transfer_alignment(fg, chosen[0], cs.unknown_factor) if accepted else None
    )
    return Selection(chosen, ratio, accepted, bk_state, alignment)


def _transfer_alignment(fg: FactorGraph, donor: str, recipient: str) -> tuple[int, ...]:
    """Axes mapping the donor's table onto the recipient's argument order.

    Positions are matched by their (RV signature, degree) profiles;
    positionally matching factors get the identity. Interchangeable
    positions (equal profiles) are matched in position order.
    """
    dt, rt = _argument_profiles(fg, donor), _argument_profiles(fg, recipient)
    if dt == rt:
        return tuple(range(len(dt)))
    donor_order = sorted(range(len(dt)), key=lambda i: (dt[i], i))
    recip_order = sorted(range(len(rt)), key=lambda i: (rt[i], i))
    axes = [0] * len(rt)
    for d_pos, r_pos in zip(donor_order, recip_order):
        axes[r_pos] = d_pos
    return tuple(axes)


@dataclass(frozen=True)
class TransferReport:
    """Per-unknown-factor transfer decisions plus the leftovers."""

    rows: tuple[CandidateSet, ...]
    unresolved: tuple[str, ...]
    theta: float


@dataclass(frozen=True)
class CompletionResult:
    completed: FactorGraph
    grouping: Grouping
    report: TransferReport


def complete_and_lift(
    fg: FactorGraph,
    theta: float,
    bk: BackgroundKnowledge | None = None,
    rtol: float = 0.0,
) -> CompletionResult:
    """Transfer potentials onto unknown factors, then group by colour passing.

    Every unknown factor with an accepted donor class receives the donor's
    table (the class's smallest id), aligned to its own argument order.
    Unresolved unknown factors enter colour passing with pre-set colours:
    unique, except that mutually indistinguishable unknowns share one.
    Raises ValueError for a ``theta`` outside [0, 1] or NaN, or a negative
    or NaN ``rtol``.
    """
    _check_theta(theta)
    rows: list[CandidateSet] = []
    transfers: dict[str, PotentialTable] = {}

    @cache
    def aligned(donor: PotentialTable, axes: tuple[int, ...]) -> PotentialTable:
        """One transferred table per distinct (donor table, alignment); one
        that equals its donor is the donor, so the completed graph shares it."""
        table = PotentialTable.from_array(np.transpose(donor.array, axes))
        return donor if table == donor else table

    for cs in candidate_sets(fg, rtol):
        sel = select_transfer_class(fg, cs, theta, bk, rtol)
        rows.append(CandidateSet(cs.unknown_factor, cs.candidates, cs.classes, sel))
        if sel is not None and sel.accepted:
            donor_table = fg.factor(sel.donor).table
            assert donor_table is not None and sel.alignment is not None
            transfers[cs.unknown_factor] = aligned(donor_table, sel.alignment)
    completed = fg.with_tables(transfers)
    unresolved = tuple(uid for uid in sorted(fg.unknown_factor_ids) if uid not in transfers)
    # indistinguishable unknowns share a colour: tag each by its neighbour profile
    tags = {uid: _neighbour_profile(_argument_profiles(fg, uid)) for uid in unresolved}
    grouping = run_colour_passing(completed, rtol, unknown_tags=tags)
    report = TransferReport(tuple(rows), unresolved, theta)
    return CompletionResult(completed, grouping, report)


def transfer_report_text(report: TransferReport) -> str:
    """Stable one-line-per-unknown-factor report."""
    lines = []
    for cs in report.rows:
        sizes = ",".join(str(len(c)) for c in cs.classes) if cs.classes else "-"
        sel = cs.chosen
        if sel is None:
            chosen, ratio, bk_state = "none", 0.0, "n/a"
        else:
            chosen = sel.donor if sel.accepted else "none"
            ratio, bk_state = sel.ratio, sel.bk_state
        lines.append(
            f"unknown {cs.unknown_factor} candidates={len(cs.candidates)} "
            f"classes={sizes} chosen={chosen} ratio={format(ratio, '.6g')} bk={bk_state}"
        )
    return "\n".join(lines) + ("\n" if lines else "")
