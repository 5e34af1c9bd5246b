"""Potential tables, axis algebra, and permutation-canonical forms."""
from itertools import combinations, permutations

import numpy as np
import pytest

from fglift import (
    PotentialTable,
    canonical_info,
    canonical_table,
    tables_equal,
)
from fglift.tables import (
    MAX_CANONICAL_ARITY,
    CanonicalInfo,
    invert_axes,
    table_classes,
)
from conftest import ASYMMETRIC_2x2, SYMMETRIC_2x2


def test_table_round_trip_and_layout():
    t = PotentialTable((2, 3), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    assert t.shape == (2, 3)
    assert t.arity == 2
    assert t.entries == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    # row-major: last argument varies fastest
    assert t.array[0, 2] == 3.0
    assert t.array[1, 0] == 4.0


def test_table_from_array_round_trip():
    arr = np.arange(1.0, 9.0).reshape(2, 2, 2)
    t = PotentialTable.from_array(arr)
    assert t.shape == (2, 2, 2)
    assert np.array_equal(t.array, arr)


@pytest.mark.parametrize(
    "shape,entries",
    [
        ((), ()),
        ((0,), ()),
        ((2, 0), ()),
        ((2,), (1.0,)),
        ((2,), (1.0, 2.0, 3.0)),
    ],
)
def test_table_rejects_bad_construction(shape, entries):
    with pytest.raises(ValueError):
        PotentialTable(shape, entries)


def test_table_is_immutable():
    t = PotentialTable((2,), (1.0, 2.0))
    with pytest.raises(AttributeError):
        t.shape = (3,)
    with pytest.raises(ValueError):
        t.array[0] = 9.0


def test_table_equality_and_hash():
    a = PotentialTable((2, 2), (1.0, 2.0, 3.0, 4.0))
    b = PotentialTable((2, 2), (1.0, 2.0, 3.0, 4.0))
    c = PotentialTable((4,), (1.0, 2.0, 3.0, 4.0))
    assert a == b
    assert hash(a) == hash(b)
    assert a != c  # same entries, different shape
    assert a != "not a table"
    assert len({a, b, c}) == 2


def test_signed_zeros_are_one_table():
    pos = PotentialTable((2,), (0.0, 1.0))
    neg = PotentialTable((2,), (-0.0, 1.0))
    assert pos == neg
    assert hash(pos) == hash(neg)
    assert len({pos, neg}) == 1
    assert neg.entries == (0.0, 1.0)


def test_table_holding_nan_equals_nothing():
    t = PotentialTable((2,), (float("nan"), 1.0))
    assert t != PotentialTable((2,), (float("nan"), 1.0))
    assert not t == t


def test_tables_equal_exact_and_relative():
    a = PotentialTable((2,), (100.0, 1.0))
    b = PotentialTable((2,), (100.5, 1.0))
    assert tables_equal(a, a)
    assert not tables_equal(a, b)
    # |100 - 100.5| = 0.5 <= rtol * 100.5
    assert tables_equal(a, b, rtol=0.005)
    assert not tables_equal(a, b, rtol=0.004)
    assert not tables_equal(a, PotentialTable((1, 2), (100.0, 1.0)), rtol=1.0)


def test_axis_algebra():
    rng = np.random.default_rng(11)
    arr = rng.uniform(0.5, 2.0, size=(2, 3, 4))
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2)]
    for p in perms:
        assert np.array_equal(
            np.transpose(np.transpose(arr, p), invert_axes(p)), arr
        )


def test_canonical_orbits_symmetric_vs_asymmetric():
    sym = canonical_info(PotentialTable((2, 2), SYMMETRIC_2x2))
    asym = canonical_info(PotentialTable((2, 2), ASYMMETRIC_2x2))
    assert sym.orbit_of_slot == (0, 0)
    assert asym.orbit_of_slot == (0, 1)
    assert asym.perm == (0, 1)
    assert asym.slot_of_position == (0, 1)


def test_canonical_orbits_partial_symmetry():
    # symmetric in the first two arguments only
    rng = np.random.default_rng(5)
    base = rng.uniform(0.5, 2.0, size=(2, 2, 3))
    arr = base + np.transpose(base, (1, 0, 2))
    info = canonical_info(PotentialTable.from_array(arr))
    assert info.orbit_of_position(0) == info.orbit_of_position(1)
    assert info.orbit_of_position(2) != info.orbit_of_position(0)


def test_a_cyclic_symmetry_joins_no_slots():
    # C[a, b, c] == C[b, c, a], and no two arguments swap: each slot is its
    # own block, although one rotation moves every slot to every other
    rng = np.random.default_rng(7)
    # small integers, so that the sums are exact in any order
    base = rng.integers(1, 100, size=(3, 3, 3)).astype(float)
    cyclic = base + np.transpose(base, (1, 2, 0)) + np.transpose(base, (2, 0, 1))
    info = canonical_info(PotentialTable.from_array(cyclic))
    assert info.orbit_of_slot == (0, 1, 2)
    # with a transposition added the table is fully symmetric
    full = cyclic + np.transpose(cyclic, (1, 0, 2))
    assert canonical_info(PotentialTable.from_array(full)).orbit_of_slot == (0, 0, 0)


def test_canonical_form_is_permutation_invariant():
    rng = np.random.default_rng(23)
    from itertools import permutations

    arr = rng.uniform(0.5, 2.0, size=(2, 3, 2))
    t = PotentialTable.from_array(arr)
    canon = canonical_table(t)
    for perm in permutations(range(3)):
        other = PotentialTable.from_array(np.transpose(arr, perm))
        assert canonical_table(other) == canon
        assert canonical_info(other).key == canonical_info(t).key
    assert canonical_table(canon) == canon


def test_canonical_identity_for_unary_and_oversized():
    u = PotentialTable((3,), (2.0, 1.0, 3.0))
    info = canonical_info(u)
    assert info.perm == (0,)
    assert canonical_table(u) == u

    shape = (2,) * (MAX_CANONICAL_ARITY + 1)
    entries = tuple(float(i) for i in range(2 ** len(shape), 0, -1))
    big = PotentialTable(shape, entries)
    info = canonical_info(big)
    assert info.perm == tuple(range(len(shape)))
    assert canonical_table(big) == big  # no search above the arity cap


def _union_find_info(table):
    """Canonical form with slot labels from a union-find that joins the two
    slots of every transposition in the stabiliser, and the unary and
    oversized cases handled apart. Other symmetries join nothing: a cyclic
    one moves every slot of its orbit, yet the marginals there differ."""
    n = table.arity
    ident = tuple(range(n))
    if n == 1 or n > MAX_CANONICAL_ARITY:
        return CanonicalInfo((table.shape, table.entries), ident, ident, ident)
    best_key, best_perms = None, []
    for perm in permutations(range(n)):
        t = np.transpose(table.array, perm)
        key = (t.shape, tuple(float(x) for x in t.ravel()))
        if best_key is None or key < best_key:
            best_key, best_perms = key, [perm]
        elif key == best_key:
            best_perms.append(perm)
    perm = best_perms[0]
    inv_perm = invert_axes(perm)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for q in best_perms:
        moved = [i for i in range(n) if inv_perm[q[i]] != i]
        if len(moved) == 2:
            ra, rb = find(moved[0]), find(moved[1])
            parent[max(ra, rb)] = min(ra, rb)
    return CanonicalInfo(best_key, perm, inv_perm, tuple(find(s) for s in range(n)))


def _compose(p, q):
    """transpose(transpose(A, p), q) == transpose(A, _compose(p, q))."""
    return tuple(p[q[i]] for i in range(len(p)))


def _planted_symmetry(rng, arity):
    """Small-integer table of the given arity made invariant under one or two
    random axis permutations; ties between entries plant further symmetries."""
    sizes = rng.integers(2, 4 if arity <= 4 else 3, arity)
    sizes[rng.random(arity) < 0.6] = sizes[0]
    arr = rng.integers(1, 4, tuple(int(k) for k in sizes)).astype(float)
    for _ in range(int(rng.integers(3))):
        sigma = tuple(int(i) for i in rng.permutation(arity))
        if arr.shape == tuple(arr.shape[i] for i in sigma):
            # sum over the cyclic group sigma generates
            total, power = arr.copy(), sigma
            while power != tuple(range(arity)):
                total += np.transpose(arr, power)
                power = _compose(power, sigma)
            arr = total
    return PotentialTable.from_array(arr)


def test_stabiliser_orbits_match_union_find_reference():
    rng = np.random.default_rng(77)
    non_trivial = 0
    for trial in range(1500):
        table = _planted_symmetry(rng, 1 + trial % 6)
        info = canonical_info(table)
        assert info == _union_find_info(table)
        non_trivial += info.orbit_of_slot != tuple(range(table.arity))
    assert non_trivial > 300


def _symmetrised(rng, arity, kind):
    """Small-integer table summed over a group on a random subset of its
    axes: every permutation of them ("full"), the swaps of two disjoint
    pairs ("partial") or their rotations ("cyclic"); then its axes are
    permuted at random, so the canonical form has to undo that."""
    k = int(rng.integers(2, 4))
    base = rng.integers(1, 5, (k,) * arity).astype(float)
    axes = [int(a) for a in rng.permutation(arity)]
    moved = axes[: int(rng.integers(2, arity + 1))]

    def acting(images):
        perm = list(range(arity))
        for a, b in zip(moved, images):
            perm[a] = b
        return tuple(perm)

    if kind == "full":
        group = [acting(q) for q in permutations(moved)]
    elif kind == "partial":
        swaps = [tuple(range(arity))]
        for a, b in zip(axes[0:4:2], axes[1:4:2]):
            swaps += [_compose(q, tuple(b if i == a else a if i == b else i for i in range(arity))) for q in swaps]
        group = swaps
    else:
        group = [acting(moved[i:] + moved[:i]) for i in range(len(moved))]
    arr = sum(np.transpose(base, g) for g in group)
    return PotentialTable.from_array(np.transpose(arr, [int(a) for a in rng.permutation(arity)]))


def test_each_block_of_the_canonical_table_is_fully_symmetric():
    # a lifted message is computed at one position of one member per port:
    # swapping two slots of a block must leave the canonical table as it is,
    # bit for bit
    rng = np.random.default_rng(79)
    swapped = {"full": 0, "partial": 0, "cyclic": 0, "planted": 0}
    for trial in range(800):
        arity = 2 + trial % 4
        kind = tuple(swapped)[trial // 4 % 4]
        table = _planted_symmetry(rng, arity) if kind == "planted" else _symmetrised(rng, arity, kind)
        info = canonical_info(table)
        canon = np.transpose(table.array, info.perm)
        assert canon.tobytes() == canonical_table(table).array.tobytes()
        for s, u in combinations(range(arity), 2):
            if info.orbit_of_slot[s] == info.orbit_of_slot[u]:
                assert np.swapaxes(canon, s, u).tobytes() == canon.tobytes()
                swapped[kind] += 1
    assert min(swapped.values()) > 100


def test_table_classes_do_not_depend_on_key_order():
    a, b = ((2,), (1.0, 2.0)), ((2,), (3.0, 4.0))
    near_a = ((2,), (1.0 * (1 + 6e-7), 2.0 * (1 + 6e-7)))
    far_a = ((2,), (1.0 * (1 + 1.2e-6), 2.0 * (1 + 1.2e-6)))
    wide = ((3,), (1.0, 2.0, 3.0))
    keys = [b, a, near_a, b, far_a, a, wide]
    # exact: every key is its own class
    assert table_classes(keys, 0.0) == {k: k for k in keys}
    # far_a is near near_a but not near a: the chain joins all three, and
    # the class is named by its smallest key whichever comes first
    expected = {a: a, near_a: a, far_a: a, b: b, wide: wide}
    for perm in permutations(keys):
        assert table_classes(perm, 1e-6) == expected


def test_table_classes_close_chains_only_within_a_shape():
    steps = [((2,), (1.0 * (1 + k * 9e-7), 2.0)) for k in range(5)]
    # the ends lie 3.6e-6 apart, four times rtol, and still share a class
    assert set(table_classes(steps, 1e-6).values()) == {steps[0]}
    # a gap wider than rtol splits the chain
    split = steps[:2] + [((2,), (1.0 * (1 + 4e-6), 2.0))]
    assert table_classes(split, 1e-6) == {steps[0]: steps[0], steps[1]: steps[0], split[2]: split[2]}
    # keys of another shape never join, however close their entries
    other = ((1, 2), (1.0, 2.0))
    assert table_classes([steps[0], other], 1e-6) == {steps[0]: steps[0], other: other}


def test_table_classes_of_no_keys():
    assert table_classes([], 0.0) == {}
    assert table_classes([], 1e-6) == {}


def test_table_classes_reject_negative_or_nan_rtol():
    for rtol in (-1e-6, float("nan"), float("inf")):
        for keys in ([], [((1,), (1.0,))]):
            with pytest.raises(ValueError, match="rtol must be non-negative"):
                table_classes(keys, rtol)
