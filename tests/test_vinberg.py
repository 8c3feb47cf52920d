"""The region P in <-1> + <1>^10: witnesses, slices, per-slice maxima.

The slice enumerator of the test suite (conftest.py) is checked against a
combinations-based oracle, and the program's slice norm sets and slice
membership against that enumerator; the closed-form witness families against
their stated norms and the region for every parameter, and the maximum table
against both the stored formulas and the raw slice data.
"""

import hashlib
import inspect
import itertools
import json
import sys
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from k3cover import classifier, cli, lemmas, vinberg
from k3cover.classifier import classify, verify_classification
from k3cover.errors import VerificationError
from k3cover.lattices import TranscendentalForm
from k3cover.lemmas import (
    family_vector,
    in_slice,
    max_norm_in_slice,
    predicted_max_norm,
    slice_maximizer,
)
from k3cover.vinberg import (
    ABSENT,
    FAMILIES,
    SLICE_CAP,
    in_P,
    norm,
    search_norm,
    slice_norms,
)

from conftest import enumerate_P_slice

MAX_TABLE = {
    4: -3, 5: -7, 6: -5, 7: -7, 8: -12, 9: -7,
    10: -11, 11: -15, 12: -11, 13: -15, 14: -23,
    15: -15, 16: -19, 17: -31, 18: -19, 19: -23, 20: -39,
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


_LENGTH_MESSAGE = "^vectors here have 11 coordinates$"


def test_norm_frozen_and_length_checked():
    assert norm((1,) + (0,) * 10) == -1
    assert norm(family_vector("Y6")) == -6
    assert norm((13, 5, 4, 4, 4, 4, 4, 4, 4, 2, 2)) == -24
    for length in (2, 3, 10, 12):
        with pytest.raises(ValueError, match=_LENGTH_MESSAGE):
            norm((1,) * length)


def test_in_P_frozen():
    assert in_P((4,) + (1,) * 10)            # Y6
    assert not in_P((3,) + (1,) * 10)        # 3 * 3 = 9 <= 10
    assert not in_P((4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 0))   # tail must stay positive
    assert not in_P((4, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1))   # tail must be sorted
    assert not in_P((8, 4, 2, 2, 2, 2, 2, 2, 2, 2, 2))   # gcd 2
    for length in (2, 3, 10, 12):
        with pytest.raises(ValueError, match=_LENGTH_MESSAGE):
            in_P((1,) * length)


def _in_P_reference(v) -> bool:
    """Membership in P, one condition at a time, by plain loops."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g != 1:
        return False
    for i in range(1, 10):
        if v[i] < v[i + 1]:
            return False
    if v[10] <= 0:
        return False
    if v[0] < v[1] + v[2] + v[3]:
        return False
    return 3 * v[0] > sum(v[1:])


def _norm_reference(v) -> int:
    """The norm -x0^2 + x1^2 + .. + x10^2, by a plain loop."""
    total = -v[0] * v[0]
    for x in v[1:]:
        total += x * x
    return total


@st.composite
def near_P_vectors(draw):
    """11 ints around P: a tail that is usually sorted and positive, an x0
    near both cone bounds, a common factor now and then, and huge entries."""
    entry = st.one_of(st.integers(1, 30), st.integers(10**30, 10**40))
    tail = draw(st.lists(entry, min_size=9, max_size=9)) + [draw(st.integers(-1, 3))]
    if draw(st.integers(0, 3)):
        tail.sort(reverse=True)
    x0 = max(tail[0] + tail[1] + tail[2], sum(tail) // 3 + 1) + draw(st.integers(-2, 2))
    factor = draw(st.sampled_from([1, 1, 1, 2, 3]))
    return tuple(factor * x for x in (x0, *tail))


@given(near_P_vectors())
@example((4,) + (1,) * 10)
@example((8, 4, 2, 2, 2, 2, 2, 2, 2, 2, 2))
@example((0,) * 11)
def test_in_P_matches_the_loop_reference_property(v):
    assert in_P(v) == _in_P_reference(v)
    assert in_P(list(v)) == in_P(v)
    assert in_P(x for x in v) == in_P(v)


@given(near_P_vectors())
@example((4,) + (1,) * 10)
@example((0,) * 11)
def test_norm_matches_the_loop_reference_property(v):
    assert norm(v) == _norm_reference(v)
    assert norm(list(v)) == norm(v)
    assert norm(x for x in v) == norm(v)


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


# Kept beside family-coverage: `norm` and `in_P` read every member, not `lemmas._margins`
def test_families_verify_to_large_norms():
    """Every family member up to norm 1000 lies in P with the claimed norm.

    family_vector only builds, so the two asserts below are the check.
    """
    for name, (min_param, (slope, intercept), _) in sorted(FAMILIES.items()):
        param = min_param
        while slope * param + intercept <= 1000:
            v = family_vector(name, param)
            assert norm(v) == -(slope * param + intercept)
            assert in_P(v)
            param += 1
            if name.startswith("Y"):
                break                      # the Y families are single vectors


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_lies_in_P_with_its_norm_for_every_parameter(name):
    lemmas._check_family(name)


# Each change maps a row (start, stated norm, runs) to a tampered one
@pytest.mark.parametrize("name, change, check", [
    # the intercept of x10 one more: the norm moves
    ("X16", lambda start, stated, runs: (start, stated, runs[:-1] + ((0, 3, 1),)), "norm"),
    # the runs of x1 and x10 swapped: the same norm, but unsorted
    ("Z", lambda start, stated, runs: (start, stated, (runs[0], runs[3], runs[2], runs[1])),
     "condition"),
    # every entry doubled, with 4 times the norm
    ("W", lambda start, stated, runs: (start, tuple(4 * x for x in stated),
                                       tuple((2 * s, 2 * t, count) for s, t, count in runs)),
     "gcd"),
])
def test_family_totality_catches_a_tampered_family(name, change, check, monkeypatch):
    monkeypatch.setitem(FAMILIES, name, change(*FAMILIES[name]))
    with pytest.raises(VerificationError, match=check):
        lemmas._check_family_coverage()


def test_search_norm_dispatch_covers_every_norm():
    """search_norm builds a family member of stated norm n at a parameter in
    its range for every n >= 3 outside ABSENT, and nothing for n in ABSENT.

    The family-coverage row proves the first: from n = 24 on, n + 24 keeps
    the family and raises the parameter by 1 (X) or by 6 (Z, W), so two
    periods past 24 cover every larger n, and it spot-checks search_norm far
    past them too.
    """
    for n in ABSENT:
        assert search_norm(n) is None, n
    lemmas._check_family_coverage()


# sha256 of json.dumps([search_norm(n) for n in range(1, 20001)]), recorded
# before n = 16 had a family of its own: the witnesses must not move
WITNESS_SHA256 = "8b552dae919bc12c09298694f8d2b6831c25ac54d0cc3024e5630d230373b8c1"


def test_search_norm_witnesses_are_pinned():
    witnesses = json.dumps([search_norm(n) for n in range(1, 20001)])
    assert hashlib.sha256(witnesses.encode()).hexdigest() == WITNESS_SHA256


# sha256 of the reprs of the closed forms, and of the scan lines of the box
# a = 1, b <= 20 000, c = 0 (19 997 III-2 records and 3 III-3), as
# `k3cover scan --a-max 1 --b-max 20000 --c-min 0 --c-max 0` writes them:
# recorded before the families became a table of runs, which must not move them
FAMILY_MEMBERS_SHA256 = "ed8068313e49ff1c40c3b8c89c98c691bea97fe6e9b1aedce35cb274b883e291"
MAXIMIZERS_SHA256 = "a109a48b2467093e7a2a18710d5414c5064a970c3b3e3eafefc683ab8d140187"
WITNESS_BOX_SHA256 = "55e73d8a264a37001fdb2aec4a0e0edf2aef1c677984939ff8c8c17919173ee7"


def test_closed_forms_and_the_witness_box_are_pinned():
    members = []
    for name in sorted(FAMILIES):
        for k in [*range(200), 10**40]:
            try:
                members.append(family_vector(name, k))
            except ValueError:
                continue                   # below the family's minimal parameter
    assert len(members) == 3608
    assert hashlib.sha256(repr(members).encode()).hexdigest() == FAMILY_MEMBERS_SHA256
    tops = [(slice_maximizer(m), predicted_max_norm(m)) for m in range(3, SLICE_CAP + 1)]
    assert hashlib.sha256(repr(tops).encode()).hexdigest() == MAXIMIZERS_SHA256
    digest = hashlib.sha256()
    for b in range(1, 20001):
        t = TranscendentalForm(1, b, 0)
        digest.update((cli._scan_line(t, classify(t)) + "\n").encode())
    assert digest.hexdigest() == WITNESS_BOX_SHA256
    # and through scan's own path, the integer decision that classify wraps
    counts, block = cli._scan_rows(cli._rows(1, 20000, 0, 0))
    assert hashlib.sha256(block.encode()).hexdigest() == WITNESS_BOX_SHA256
    assert sum(counts) == 20000


# Kept beside family-coverage: the pinned witnesses of norms 3 and 5, and ValueError for n <= 0
def test_search_norm_frozen():
    assert search_norm(3) == (4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    assert search_norm(5) == (6, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1)
    for n in (1, 2, 4):
        assert search_norm(n) is None
    with pytest.raises(ValueError):
        search_norm(0)
    with pytest.raises(ValueError):
        search_norm(-3)


# Kept beside family-coverage: search_norm(16) is the Y16 row's own vector, pinned as a literal
def test_search_norm_sixteen_has_a_witness():
    # norm -16 falls outside the X16 family's parameter range, so it has a
    # family of its own, Y16; pinned so that its certificates do not move
    v = search_norm(16)
    assert v == family_vector("Y16") == (7, 3, 2, 2, 2, 2, 2, 1, 1, 1, 1)
    assert v is not None
    assert norm(v) == -16
    assert in_P(v)


# Kept beside family-coverage: `norm` and `in_P` read every witness, not a `family_vector` match
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
    for m in range(4, SLICE_CAP + 1):
        assert slice_norms(m) == {norm(v) for v in enumerate_P_slice(m)}
    assert -3 in slice_norms(4)
    for m in range(3, SLICE_CAP + 1):
        assert not ABSENT & {-x for x in slice_norms(m)}, m


def _slice_conditions(v, m) -> dict[str, bool]:
    """The conditions of slice m, one by one, by plain loops."""
    tail = v[1:]
    return {
        "x0": v[0] == m,
        "sorted": all(tail[i] >= tail[i + 1] for i in range(9)),
        "positive": tail[9] > 0,
        "head": v[0] >= tail[0] + tail[1] + tail[2],
        "budget": 3 * v[0] > sum(tail),
    }


def _near(v):
    """v with one coordinate moved by one, or one unit moved between two
    coordinates of the tail."""
    for i in range(11):
        for step in (1, -1):
            yield v[:i] + (v[i] + step,) + v[i + 1:]
    for i, j in itertools.permutations(range(1, 11), 2):
        w = list(v)
        w[i] += 1
        w[j] -= 1
        yield tuple(w)


def test_in_slice_holds_on_every_member_and_fails_on_each_violation():
    for m in range(4, 11):
        assert all(in_slice(v, m) for v in enumerate_P_slice(m))
    seen = set()
    for m in range(4, SLICE_CAP + 1):
        top = slice_maximizer(m)
        assert in_slice(top, m) and in_slice(list(top), m)
        for v in _near(top):
            broken = [name for name, holds in _slice_conditions(v, m).items() if not holds]
            assert in_slice(v, m) == (not broken), (m, v)
            if len(broken) == 1:
                seen.update(broken)
    assert seen == set(_slice_conditions(top, m))
    with pytest.raises(ValueError):
        in_slice((4, 1), 4)


def test_slice_norms_bounds():
    with pytest.raises(ValueError):
        slice_norms(2)
    with pytest.raises(ValueError):
        slice_norms(SLICE_CAP + 1)


def test_max_table():
    assert predicted_max_norm(3) is None
    assert slice_maximizer(3) is None
    assert sorted(MAX_TABLE) == list(range(4, SLICE_CAP + 1))
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


def _functions_of(module) -> dict:
    """The code of each function the module defines, memoised ones unwrapped."""
    out = {}
    for name, obj in vars(module).items():
        fn = inspect.unwrap(obj) if callable(obj) else None
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            out[fn.__code__] = name
    return out


def test_classify_and_replay_run_all_of_vinberg_and_none_of_lemmas():
    # vinberg holds what classify and replay run, lemmas what only
    # verify-lemmas runs.  The memos are emptied first, so that the slice
    # recurrence and the compiling of the closed forms run under the profile too.
    for memo in (vinberg.slice_norms, vinberg._tail_squares, vinberg._closed_forms,
                 classifier._absence_breach):
        memo.cache_clear()
    called = set()
    sys.setprofile(lambda frame, event, arg: called.add(frame.f_code) if event == "call" else None)
    try:
        for a, b, lo, hi in cli._rows(20, 20, -20, 20):
            for c in range(lo, hi + 1):
                t = TranscendentalForm(a, b, c)
                verify_classification(t, classify(t))
    finally:
        sys.setprofile(None)
    program = _functions_of(vinberg)
    assert set(program.values()) >= {"norm", "in_P", "search_norm", "slice_norms"}
    assert sorted(program[code] for code in program.keys() - called) == []
    assert sorted(name for code, name in _functions_of(lemmas).items() if code in called) == []
