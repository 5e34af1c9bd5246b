"""Dense potential tables and their permutation-canonical forms.

A potential table maps every joint assignment of a factor's arguments to a
positive real. Entries are stored row-major (the last argument varies
fastest). Because two factors can encode the same potential function with
their arguments listed in a different order, equality questions downstream
are asked about the *canonical form*: the lexicographically smallest
(shape, entries) pair over all argument permutations. Canonicalisation is
performed for arities up to ``MAX_CANONICAL_ARITY``; larger tables fall back
to their positional form, which makes comparisons position-exact there.

The permutations that reach the canonical form are ``perm ∘ Stab``, where
``Stab`` is the canonical table's stabiliser: the argument permutations that
leave it unchanged. So the argmin scan yields the whole stabiliser group,
and the symmetry orbit of a canonical slot is simply its set of images
under it.
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

    __slots__ = ("_array", "_bytes", "_nan", "_hash", "shape")

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
        object.__setattr__(self, "shape", shape_t)
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


def check_rtol(rtol: float) -> None:
    """Raise ValueError for a negative or NaN ``rtol``, under which no table equals itself."""
    if not rtol >= 0.0:
        raise ValueError(f"rtol must be non-negative, got {rtol}")


def tables_equal(a: PotentialTable, b: PotentialTable, rtol: float = 0.0) -> bool:
    """Positional table equality.

    With ``rtol == 0`` (the default) this is ``a == b``, a byte comparison
    that no table holding NaN passes. Otherwise entries
    x, y count as equal when ``|x - y| <= rtol * max(|x|, |y|)``; a negative
    or NaN ``rtol`` raises ValueError.
    """
    if rtol == 0.0:
        return a == b
    check_rtol(rtol)
    if a.shape != b.shape:
        return False
    x, y = a.array, b.array
    return bool(np.all(np.abs(x - y) <= rtol * np.maximum(np.abs(x), np.abs(y))))


CanonicalKey = tuple[tuple[int, ...], tuple[float, ...]]


def table_classes(keys: Iterable[CanonicalKey], rtol: float) -> dict[CanonicalKey, CanonicalKey]:
    """Each distinct canonical key mapped to its table class, named by its smallest key.

    A class is a connected component of "``tables_equal`` within ``rtol``"
    over the canonical tables, so it does not depend on the order of
    ``keys`` and is closed under chains: a chain of near tables can join two
    tables more than ``rtol`` apart. At ``rtol == 0`` every key is its own
    class. A search from each smallest key not yet placed builds its class,
    comparing keys of equal shape only, each pair at most once. Raises
    ValueError for a negative or NaN ``rtol``.
    """
    check_rtol(rtol)
    if rtol == 0.0:
        return {key: key for key in keys}
    by_shape: dict[tuple[int, ...], list[CanonicalKey]] = {}
    for key in sorted(set(keys)):
        by_shape.setdefault(key[0], []).append(key)
    class_of: dict[CanonicalKey, CanonicalKey] = {}
    for same_shape in by_shape.values():
        tables = {key: PotentialTable(*key) for key in same_shape}
        for first in same_shape:
            if first in class_of:
                continue
            class_of[first] = first
            stack = [first]
            while stack:
                table = tables[stack.pop()]
                for key in same_shape:
                    if key not in class_of and tables_equal(table, tables[key], rtol):
                        class_of[key] = first
                        stack.append(key)
    return class_of


def invert_axes(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


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
    keys: dict[tuple[int, ...], CanonicalKey] = {}
    for perm in permutations(range(n)):
        t = np.transpose(table.array, perm)
        keys[perm] = (t.shape, tuple(float(x) for x in t.ravel()))
    best_key = min(keys.values())
    best_perms = [q for q, key in keys.items() if key == best_key]
    perm = best_perms[0]
    inv_perm = invert_axes(perm)
    # transpose(canon, sigma) == canon iff perm ∘ sigma is an argmin
    # permutation, so these sigmas are the whole stabiliser group and a
    # slot's orbit is its set of images under them.
    stabiliser = [tuple(inv_perm[q[i]] for i in range(n)) for q in best_perms]
    orbit = tuple(min(sigma[s] for sigma in stabiliser) for s in range(n))
    return CanonicalInfo(best_key, perm, inv_perm, orbit)


def canonical_table(table: PotentialTable) -> PotentialTable:
    info = canonical_info(table)
    return PotentialTable.from_array(np.transpose(table.array, info.perm))
