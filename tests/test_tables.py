"""Potential tables, axis algebra, and permutation-canonical forms."""
import numpy as np
import pytest

from fglift import (
    PotentialTable,
    alignment_axes,
    canonical_info,
    canonical_table,
    tables_equal,
)
from fglift.tables import MAX_CANONICAL_ARITY, compose_axes, first_match_groups, invert_axes
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
        for q in perms:
            assert np.array_equal(
                np.transpose(np.transpose(arr, p), q),
                np.transpose(arr, compose_axes(p, q)),
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


def test_alignment_axes_maps_rep_onto_member():
    rng = np.random.default_rng(31)
    from itertools import permutations

    arr = rng.uniform(0.5, 2.0, size=(2, 3, 4))
    rep = PotentialTable.from_array(arr)
    for perm in permutations(range(3)):
        member = PotentialTable.from_array(np.transpose(arr, perm))
        axes = alignment_axes(rep, member)
        assert np.array_equal(member.array, np.transpose(rep.array, axes))


def test_alignment_axes_with_ambiguous_symmetry():
    # swapping the symmetric axes is a valid alignment either way
    rep = PotentialTable((2, 2), SYMMETRIC_2x2)
    member = PotentialTable.from_array(rep.array.T)
    axes = alignment_axes(rep, member)
    assert np.array_equal(member.array, np.transpose(rep.array, axes))


def test_first_match_groups_follow_first_appearance():
    a, b = ((2,), (1.0, 2.0)), ((2,), (3.0, 4.0))
    near_a = ((2,), (1.0 * (1 + 6e-7), 2.0 * (1 + 6e-7)))
    far_a = ((2,), (1.0 * (1 + 1.2e-6), 2.0 * (1 + 1.2e-6)))
    keys = [b, a, near_a, b, far_a, a]
    # exact: classes of equal keys, in order of first appearance
    assert first_match_groups(keys, 0.0) == [[0, 3], [1, 5], [2], [4]]
    # near_a joins a's group; far_a is near near_a but not near a, and the
    # scan compares only against a group's first key, so the result depends
    # on which key comes first
    assert first_match_groups(keys, 1e-6) == [[0, 3], [1, 2, 5], [4]]
    assert first_match_groups([near_a, a, far_a], 1e-6) == [[0, 1, 2]]
    assert first_match_groups([], 0.0) == []


def test_first_match_groups_reject_negative_rtol():
    for rtol in (-1e-6, float("nan")):
        with pytest.raises(ValueError):
            first_match_groups([((1,), (1.0,))], rtol)
