"""The region P in <-1> + <1>^10: witnesses, slices, per-slice maxima.

The slice enumerator is checked against a combinations-based oracle, the
closed-form witness families against their stated norms, and the maximum
table against both the stored formulas and the raw slice data.
"""

import itertools
from math import gcd

import pytest

from k3cover.vinberg import (
    ABSENT,
    FAMILIES,
    SLICE_CAP,
    enumerate_P_slice,
    family_vector,
    in_P,
    max_norm_in_slice,
    norm,
    predicted_max_norm,
    search_norm,
    slice_maximizer,
    slice_norms,
)

MAX_TABLE = {
    4: -3, 5: -7, 6: -5, 7: -7, 8: -12, 9: -7,
    10: -11, 11: -15, 12: -11, 13: -15, 14: -23,
}


def _slice_oracle(m):
    """Every (m, x1..x10) with x1 >= ... >= x10 > 0, m >= x1 + x2 + x3 and
    3m > sum of the tail, enumerated by brute force (no gcd condition)."""
    out = set()
    for tail in itertools.combinations_with_replacement(range(1, m + 1), 10):
        xs = tuple(reversed(tail))
        if xs[0] + xs[1] + xs[2] > m:
            continue
        if 3 * m <= sum(xs):
            continue
        out.add((m,) + xs)
    return out


def test_norm_frozen_and_length_checked():
    assert norm((1,) + (0,) * 10) == -1
    assert norm(family_vector("Y6")) == -6
    assert norm((13, 5, 4, 4, 4, 4, 4, 4, 4, 2, 2)) == -24
    with pytest.raises(ValueError):
        norm((1, 2, 3))


def test_in_P_frozen():
    assert in_P((4,) + (1,) * 10)            # Y6
    assert not in_P((3,) + (1,) * 10)        # 3 * 3 = 9 <= 10
    assert not in_P((4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 0))   # tail must stay positive
    assert not in_P((4, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1))   # tail must be sorted
    assert not in_P((8, 4, 2, 2, 2, 2, 2, 2, 2, 2, 2))   # gcd 2
    with pytest.raises(ValueError):
        in_P((1, 1))


def test_family_vectors_frozen():
    assert family_vector("Z", 1) == (4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    assert family_vector("W", 2) == (6, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1)
    assert family_vector("Y6") == (4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    assert family_vector("Y8") == (6, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1)
    assert family_vector("Y20") == (6, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1)
    assert family_vector("X12", 0) == (9, 3, 3, 3, 3, 3, 3, 3, 2, 1, 1)
    assert family_vector("X0", 1) == (13, 5, 4, 4, 4, 4, 4, 4, 4, 2, 2)
    assert norm(family_vector("X0", 1)) == -24


def test_family_parameter_ranges():
    for name, param in (("Z", 0), ("W", 1), ("X16", 0), ("X0", 0)):
        with pytest.raises(ValueError):
            family_vector(name, param)
    with pytest.raises(ValueError):
        family_vector("Q", 1)


def test_families_verify_to_large_norms():
    """Every family member up to norm 1000 lies in P with the claimed norm.

    family_vector re-checks its own contract on each call, so constructing
    the vectors is the assertion; the norms are recomputed here anyway.
    """
    for name, (build, min_param, norm_of) in sorted(FAMILIES.items()):
        param = min_param
        while norm_of(param) <= 1000:
            v = family_vector(name, param)
            assert norm(v) == -norm_of(param)
            assert in_P(v)
            param += 1
            if name.startswith("Y"):
                break                      # the Y families are single vectors


def test_search_norm_frozen():
    assert search_norm(3) == (4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    assert search_norm(5) == (6, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1)
    for n in (1, 2, 4):
        assert search_norm(n) is None
    with pytest.raises(ValueError):
        search_norm(0)
    with pytest.raises(ValueError):
        search_norm(-3)


def test_search_norm_sixteen_has_a_witness():
    # norm -16 falls outside the even-residue families' parameter range,
    # so it comes from the slice fallback; only its properties are pinned
    v = search_norm(16)
    assert v is not None
    assert norm(v) == -16
    assert in_P(v)


def test_search_norm_sweep():
    for n in range(3, 61):
        v = search_norm(n)
        if n in ABSENT:
            assert v is None
        else:
            assert v is not None
            assert norm(v) == -n
            assert in_P(v)


def test_slice_enumeration_matches_oracle():
    assert enumerate_P_slice(3) == []
    for m in range(4, 11):
        got = set(enumerate_P_slice(m))
        assert got == _slice_oracle(m)
        for v in got:
            assert v[0] == m


def test_slice_bounds():
    with pytest.raises(ValueError):
        enumerate_P_slice(2)
    with pytest.raises(ValueError):
        enumerate_P_slice(SLICE_CAP + 1)


def test_slice_frozen_members():
    four = enumerate_P_slice(4)
    assert (4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1) in four
    assert max_norm_in_slice(4) == -3
    eight = enumerate_P_slice(8)
    assert (8, 4, 2, 2, 2, 2, 2, 2, 2, 2, 2) in eight
    assert max_norm_in_slice(8) == -12
    assert max_norm_in_slice(3) is None


def test_slice_norms_match_members():
    assert slice_norms(3) == frozenset()
    for m in range(4, 15):
        assert slice_norms(m) == {norm(v) for v in enumerate_P_slice(m)}
    assert -3 in slice_norms(4)
    assert not ABSENT & {-x for x in slice_norms(4)}


def test_max_table():
    assert predicted_max_norm(3) is None
    assert slice_maximizer(3) is None
    for m, value in MAX_TABLE.items():
        assert max_norm_in_slice(m) == value
        assert predicted_max_norm(m) == value
        top = slice_maximizer(m)
        assert top in enumerate_P_slice(m)
        assert norm(top) == value


def test_slices_keep_imprimitive_vectors():
    """The slice data is gcd-free on purpose: the recorded maximum of slice 8
    is only achieved by an imprimitive vector, and restricting to primitive
    ones would drop it to -14."""
    eight = enumerate_P_slice(8)
    top = (8, 4, 2, 2, 2, 2, 2, 2, 2, 2, 2)
    assert top in eight
    assert gcd(*top) == 2
    assert not in_P(top)
    assert max(norm(v) for v in eight if in_P(v)) == -14
