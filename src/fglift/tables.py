"""Dense potential tables and their permutation-canonical forms.

A potential table maps every joint assignment of a factor's arguments to a
positive real. Entries are stored row-major (the last argument varies
fastest). Because two factors can encode the same potential function with
their arguments listed in a different order, equality questions downstream
are asked about the *canonical form*: the lexicographically smallest
(shape, entries) pair over all argument permutations. Canonicalisation is
performed for arities up to ``MAX_CANONICAL_ARITY``; larger tables fall back
to their positional form, which makes comparisons position-exact there.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import prod
from typing import Iterable, Sequence

import numpy as np

MAX_CANONICAL_ARITY = 5


class PotentialTable:
    """Immutable dense table over the joint range of a factor's arguments.

    Parameters
    ----------
    shape:
        One range size per argument, in argument order. Must be non-empty.
    entries:
        Flat row-major list of table values, ``prod(shape)`` of them.

    A -0.0 entry is stored as 0.0, so tables whose entries compare equal are
    equal and hash alike; a table holding NaN equals no table, itself included.
    """

    __slots__ = ("_array", "_bytes", "_nan", "_hash")

    def __init__(self, shape: Sequence[int], entries: Iterable[float]) -> None:
        shape_t = tuple(int(s) for s in shape)
        if not shape_t:
            raise ValueError("a table needs at least one axis")
        if any(s < 1 for s in shape_t):
            raise ValueError(f"axis sizes must be positive, got {shape_t}")
        flat = np.asarray(list(entries), dtype=np.float64)
        if flat.ndim != 1 or flat.size != prod(shape_t):
            raise ValueError(
                f"expected {prod(shape_t)} entries for shape {shape_t}, got {flat.size}"
            )
        # -0.0 + 0.0 is 0.0; the array is a read-only view of the bytes that
        # equality and hashing compare
        data = (flat + 0.0).tobytes()
        object.__setattr__(self, "_array", np.frombuffer(data, dtype=np.float64).reshape(shape_t))
        object.__setattr__(self, "_bytes", data)
        object.__setattr__(self, "_nan", bool(np.isnan(flat).any()))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "PotentialTable":
        return cls(array.shape, np.asarray(array, dtype=np.float64).ravel())

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view, axes in argument order."""
        return self._array

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def arity(self) -> int:
        return self._array.ndim

    @property
    def entries(self) -> tuple[float, ...]:
        """Flat row-major entries."""
        return tuple(float(x) for x in self._array.ravel())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PotentialTable is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PotentialTable):
            return NotImplemented
        # equal bytes hold NaN on both sides or on neither; NaN equals nothing
        return self._bytes == other._bytes and self.shape == other.shape and not self._nan

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.shape, self._bytes))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"PotentialTable(shape={self.shape}, entries={self.entries!r})"


def tables_equal(a: PotentialTable, b: PotentialTable, rtol: float = 0.0) -> bool:
    """Positional table equality.

    With ``rtol == 0`` (the default) this is bit-exact. Otherwise entries
    x, y count as equal when ``|x - y| <= rtol * max(|x|, |y|)``.
    """
    if a.shape != b.shape:
        return False
    if rtol == 0.0:
        return bool(np.array_equal(a.array, b.array))
    x, y = a.array, b.array
    return bool(np.all(np.abs(x - y) <= rtol * np.maximum(np.abs(x), np.abs(y))))


CanonicalKey = tuple[tuple[int, ...], tuple[float, ...]]


def first_match_groups(keys: Sequence[CanonicalKey], rtol: float) -> list[list[int]]:
    """Positions of canonical ``keys`` grouped as a first-match scan groups them.

    The scan puts each key into the first group whose representative (its
    first key) it matches, as ``tables_equal`` decides within ``rtol`` on
    the canonical tables, and opens a new group otherwise. Equal keys always
    land in the same group, so the scan runs over distinct keys only; at
    ``rtol == 0`` the groups are the classes of equal keys. Groups come in
    order of first appearance, positions ascending within each. Raises
    ValueError for a negative or NaN ``rtol``, under which no table equals itself.
    """
    if not rtol >= 0.0:
        raise ValueError(f"rtol must be non-negative, got {rtol}")
    group_of: dict[CanonicalKey, int] = {}
    if rtol > 0.0:
        reps: list[PotentialTable] = []
        for key in dict.fromkeys(keys):
            table = PotentialTable(*key)
            group_of[key] = next(
                (g for g, rep in enumerate(reps) if tables_equal(rep, table, rtol)), len(reps)
            )
            if group_of[key] == len(reps):
                reps.append(table)
    groups: list[list[int]] = []
    for pos, key in enumerate(keys):
        g = group_of.setdefault(key, len(groups))
        if g == len(groups):
            groups.append([])
        groups[g].append(pos)
    return groups


def invert_axes(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def compose_axes(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Axes helper: transpose(transpose(A, p), q) == transpose(A, compose_axes(p, q))."""
    return tuple(p[q[i]] for i in range(len(p)))


@dataclass(frozen=True)
class CanonicalInfo:
    """Canonical form of one table.

    ``key`` is the sortable (shape, entries) pair of the canonical table;
    ``perm`` satisfies ``canonical = transpose(table, perm)``;
    ``slot_of_position[p]`` is the canonical slot holding argument position p;
    ``orbit_of_slot[s]`` labels slots that the canonical table's symmetries
    make interchangeable (label = smallest slot in the orbit).
    """

    key: CanonicalKey
    perm: tuple[int, ...]
    slot_of_position: tuple[int, ...]
    orbit_of_slot: tuple[int, ...]

    def orbit_of_position(self, position: int) -> int:
        return self.orbit_of_slot[self.slot_of_position[position]]


def _identity_info(table: PotentialTable) -> CanonicalInfo:
    ident = tuple(range(table.arity))
    return CanonicalInfo((table.shape, table.entries), ident, ident, ident)


@lru_cache(maxsize=8192)
def canonical_info(table: PotentialTable) -> CanonicalInfo:
    """Canonicalise ``table`` over argument permutations (arity <= 5 only)."""
    n = table.arity
    if n > MAX_CANONICAL_ARITY:
        return _identity_info(table)
    if n == 1:
        return _identity_info(table)
    arr = table.array
    best_key: tuple | None = None
    best_perms: list[tuple[int, ...]] = []
    for perm in permutations(range(n)):
        t = np.transpose(arr, perm)
        key = (t.shape, tuple(float(x) for x in t.ravel()))
        if best_key is None or key < best_key:
            best_key = key
            best_perms = [perm]
        elif key == best_key:
            best_perms.append(perm)
    perm = best_perms[0]
    inv_perm = invert_axes(perm)
    # Stabiliser elements sigma of the canonical table are recovered from the
    # full argmin set: transpose(canon, sigma) == canon iff perm ∘ sigma is
    # itself an argmin permutation.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for q in best_perms:
        sigma = tuple(inv_perm[q[i]] for i in range(n))
        for i in range(n):
            union(i, sigma[i])
    orbit = tuple(find(s) for s in range(n))
    assert best_key is not None
    return CanonicalInfo(best_key, perm, inv_perm, orbit)


def canonical_table(table: PotentialTable) -> PotentialTable:
    info = canonical_info(table)
    return PotentialTable.from_array(np.transpose(table.array, info.perm))


def alignment_axes(rep: PotentialTable, member: PotentialTable) -> tuple[int, ...]:
    """Axes such that ``member.array == transpose(rep.array, axes)``.

    Both tables must share a canonical form (bit-exact); callers working
    with tolerance-grouped classes get the alignment of the exact canonical
    forms, which is the best available.
    """
    rep_info = canonical_info(rep)
    mem_info = canonical_info(member)
    return compose_axes(rep_info.perm, invert_axes(mem_info.perm))
