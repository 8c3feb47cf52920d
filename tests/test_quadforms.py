"""Binary quadratic forms a x^2 + c x y + b y^2: reduction and representability of 1."""

import json
import math
import random

from hypothesis import given
from hypothesis import strategies as st

from k3cover import classifier, cli, quadforms
from k3cover.classifier import Classification, classify, verify_classification
from k3cover.lattices import TranscendentalForm
from k3cover.quadforms import _gauss, represents_one

from conftest import (box_triples, c_even_normalized, compose, moved, pair, parity_class,
                      reduce_form, sl2_matrices)


def _evaluate(t: TranscendentalForm, x: int, y: int) -> int:
    return t.a * x * x + t.c * x * y + t.b * y * y


def _is_reduced(t: TranscendentalForm) -> bool:
    """|c| <= a <= b, with c >= 0 on the boundary |c| = a or a = b."""
    return abs(t.c) <= t.a <= t.b and (t.c >= 0 or not (-t.c == t.a or t.a == t.b))


def test_is_reduced_agrees_with_the_oracle_on_a_grid():
    # in process the program's check runs only under `_gauss`'s assert, on
    # reduced forms; here it also meets |q| > p, p > r and a negative q on
    # the boundary |q| = p or p = r
    assert not quadforms._is_reduced(2, 3, 5)
    assert not quadforms._is_reduced(3, 1, 2)
    assert not quadforms._is_reduced(2, -2, 5)
    assert not quadforms._is_reduced(3, -1, 3)
    assert quadforms._is_reduced(2, 2, 5) and quadforms._is_reduced(3, 1, 3)
    assert quadforms._is_reduced(2, -1, 5)
    for p in range(1, 7):
        for r in range(1, 7):
            for q in range(-7, 8):
                if 4 * p * r - q * q > 0:
                    assert quadforms._is_reduced(p, q, r) == _is_reduced(
                        TranscendentalForm(p, r, q)), (p, q, r)


def test_evaluate_frozen():
    assert _evaluate(TranscendentalForm(1, 1, 0), 1, 0) == 1
    assert _evaluate(TranscendentalForm(2, 3, 2), 1, -1) == 3
    assert _evaluate(TranscendentalForm(1, 1, 1), 1, 1) == 3


def test_reduce_frozen():
    assert reduce_form(TranscendentalForm(1, 1, 0))[0] == TranscendentalForm(1, 1, 0)
    assert reduce_form(TranscendentalForm(5, 1, 4))[0] == TranscendentalForm(1, 1, 0)
    assert reduce_form(TranscendentalForm(1, 4, -2))[0] == TranscendentalForm(1, 3, 0)


def test_reduce_transform_consistency():
    """reduce_form returns the witnessing change of basis, the reduced
    form satisfies |c| <= a <= b, and reduction is idempotent."""
    rng = random.Random(47)
    done = 0
    while done < 300:
        a = rng.randint(1, 30)
        b = rng.randint(1, 30)
        c = rng.randint(-60, 60)
        if 4 * a * b - c * c <= 0:
            continue
        done += 1
        t = TranscendentalForm(a, b, c)
        red, g = reduce_form(t)
        assert moved(t, g) == red
        assert red.delta == t.delta
        assert abs(red.c) <= red.a <= red.b
        again, _ = reduce_form(red)
        assert again == red


def _represents_one_naive(t):
    # outside the ellipse t(x, y) <= 1 nothing can evaluate to 1; the box
    # radius sqrt(4ab / (4ab - c^2)) covers that ellipse in each coordinate
    bound = math.isqrt(4 * t.a * t.b // t.delta) + 2
    return any(
        _evaluate(t, x, y) == 1
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1))


def test_represents_one_frozen():
    assert represents_one(1, 0, 5)
    assert not represents_one(2, 2, 3)
    assert represents_one(5, 4, 1)


def test_represents_one_against_box_search():
    rng = random.Random(53)
    done = 0
    while done < 1000:
        a = rng.randint(1, 50)
        b = rng.randint(1, 50)
        c = rng.randint(-50, 50)
        if 4 * a * b - c * c <= 0:
            continue
        done += 1
        t = TranscendentalForm(a, b, c)
        assert represents_one(t.a, t.c, t.b) == _represents_one_naive(t)


@st.composite
def definite_forms(draw, a_b: st.SearchStrategy[int]) -> TranscendentalForm:
    """Positive definite forms with a and b drawn from a_b and any c that
    keeps c^2 < 4ab."""
    a, b = draw(a_b), draw(a_b)
    c_max = math.isqrt(4 * a * b - 1)
    return TranscendentalForm(a, b, draw(st.integers(-c_max, c_max)))


SMALL = st.integers(1, 60)
BIG = st.one_of(st.integers(1, 10**6), st.integers(10**30, 10**40))


@given(definite_forms(SMALL))
def test_represents_one_matches_box_search_property(t):
    assert represents_one(t.a, t.c, t.b) == _represents_one_naive(t)


@given(definite_forms(BIG))
def test_reduce_form_returns_its_transform_property(t):
    red, g = reduce_form(t)
    assert moved(t, g) == red
    assert _is_reduced(red)
    assert red.delta == t.delta


@given(definite_forms(BIG), sl2_matrices(10**30))
def test_reduction_is_invariant_under_sl2_property(t, g):
    u = moved(t, g)
    red, _ = reduce_form(t)
    assert reduce_form(u)[0] == red
    assert represents_one(u.a, u.c, u.b) == (red.a == 1)


def _oracle_triple(t: TranscendentalForm) -> tuple[int, int, int]:
    """The oracle's reduced form as the (p, q, r) = (a, c, b) that `_gauss` returns."""
    red, g = reduce_form(t)
    assert moved(t, g) == red
    return red.a, red.c, red.b


def test_gauss_returns_the_oracle_triple_on_the_box():
    # every positive definite form with a, b <= 20, |c| <= 20
    forms = 0
    for a, b, c in box_triples(20, 20, -20, 20):
        assert _gauss(a, c, b) == _oracle_triple(TranscendentalForm(a, b, c)), (a, b, c)
        forms += 1
    assert forms == 12668


@given(definite_forms(BIG), sl2_matrices(10**40))
def test_gauss_returns_the_oracle_triple_on_moved_forms_property(t, g):
    u = moved(t, g)
    assert _gauss(u.a, u.c, u.b) == _oracle_triple(u)


def _fibonacci_moved(t: TranscendentalForm, digits: int) -> TranscendentalForm:
    """t moved by the least power of [[2, 1], [1, 1]], the product of the unit
    shears [[1, 1], [0, 1]] and [[1, 0], [1, 1]], that gives it an ``a`` of at
    least ``digits`` digits.  The entries of the power are Fibonacci numbers."""
    g = (1, 0, 0, 1)
    u = t
    while u.a < 10 ** (digits - 1):
        g = compose(g, (2, 1, 1, 1))
        u = moved(t, g)
    return u


def test_a_thousand_digit_fibonacci_moved_iii_1_form_reduces_and_round_trips():
    # (3, 5, 2) is reduced, has c even and does not represent 1: case III-1
    start = TranscendentalForm(3, 5, 2)
    moved = _fibonacci_moved(start, 1000)
    assert len(str(moved.a)) == 1000
    assert _gauss(moved.a, moved.c, moved.b) == _oracle_triple(moved) == (3, 2, 5)
    result = classify(moved)
    assert (result.case_label, result.covers) == ("III-1", True)
    data = json.loads(cli._scan_line(moved, result))
    assert (data.pop("a"), data.pop("b"), data.pop("c")) == (moved.a, moved.b, moved.c)
    verify_classification(moved, Classification.from_dict(data))


def _reduces_to_one(t: TranscendentalForm) -> bool:
    """represents_one by the plain reduction loop alone."""
    return _gauss(t.a, t.c, t.b)[0] == 1


@given(definite_forms(st.integers(10**30, 10**40)))
def test_all_even_forms_never_represent_one_property(t):
    # the guard answers for the doubled form without reducing it, and must
    # agree with reduction on it and on the form itself
    doubled = TranscendentalForm(2 * t.a, 2 * t.b, 2 * t.c)
    assert represents_one(doubled.a, doubled.c, doubled.b) is _reduces_to_one(doubled) is False
    assert represents_one(t.a, t.c, t.b) == _reduces_to_one(t)


def test_represents_one_agrees_with_reduction_on_every_complement_block_of_the_box():
    # -B/2 of the construction certify uses for each form of the box
    # a, b <= 20, |c| <= 20: all-even for case I, c-odd for II, and c-even
    # at the normalized form for III; c-odd and all-even blocks are all even
    construction = {"I": "all-even", "II": "c-odd", "III": "c-even"}
    blocks = 0
    for triple in box_triples(20, 20, -20, 20):
        t = TranscendentalForm(*triple)
        name = construction.get(parity_class(t))
        if name is None:
            continue
        if name == "c-even":
            t = c_even_normalized(t)[0]
        rows = classifier.CONSTRUCTIONS[name](t.a, t.b, t.c)
        k1, k2 = classifier.COMPLEMENTS[name](t.a, t.b, t.c)
        p, q, r = pair(k1, k1), pair(k1, k2), pair(k2, k2)
        block = TranscendentalForm(-p // 2, -r // 2, -q)
        # replay's kernel reduces the same block on plain ints
        found = classifier._embedding_defect(
            t.a, t.b, t.c, tuple(row + (0,) * 8 for row in rows), (k1, k2))
        assert represents_one(block.a, block.c, block.b) == _reduces_to_one(block) \
            == (found == "root"), (name, t)
        blocks += 1
    # every form of the box but its 1 510 case IV forms, which have no embedding
    assert blocks == 12668 - 1510
