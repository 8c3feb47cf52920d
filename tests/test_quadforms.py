"""Binary quadratic forms: reduction and representability of 1."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3cover.quadforms import (
    BinaryForm,
    evaluate,
    reduce_form,
    represents_one,
    transform,
)

from conftest import sl2_matrices


def test_binary_form_validation():
    with pytest.raises(ValueError):
        BinaryForm(0, 0, 1)
    with pytest.raises(ValueError):
        BinaryForm(-1, 0, 1)
    with pytest.raises(ValueError):
        BinaryForm(1, 2, 1)      # discriminant zero
    with pytest.raises(ValueError):
        BinaryForm(1, 3, 1)      # indefinite


def test_evaluate_frozen():
    assert evaluate(BinaryForm(1, 0, 1), 1, 0) == 1
    assert evaluate(BinaryForm(2, 2, 3), 1, -1) == 3
    assert evaluate(BinaryForm(1, 1, 1), 1, 1) == 3


def test_reduce_frozen():
    red, _ = reduce_form(BinaryForm(1, 0, 1))
    assert (red.p, red.q, red.r) == (1, 0, 1)
    red, _ = reduce_form(BinaryForm(5, 4, 1))
    assert (red.p, red.q, red.r) == (1, 0, 1)
    red, _ = reduce_form(BinaryForm(1, -2, 4))
    assert (red.p, red.q, red.r) == (1, 0, 3)


def test_reduce_transform_consistency():
    """reduce_form returns the witnessing change of variables, the reduced
    form satisfies |q| <= p <= r, and reduction is idempotent."""
    rng = random.Random(47)
    done = 0
    while done < 300:
        p = rng.randint(1, 30)
        r = rng.randint(1, 30)
        q = rng.randint(-60, 60)
        if 4 * p * r - q * q <= 0:
            continue
        done += 1
        f = BinaryForm(p, q, r)
        red, g = reduce_form(f)
        assert transform(f, g) == red
        assert red.q * red.q - 4 * red.p * red.r == q * q - 4 * p * r
        assert abs(red.q) <= red.p <= red.r
        again, _ = reduce_form(red)
        assert again == red


def _represents_one_naive(f):
    # outside the ellipse f(x, y) <= 1 nothing can evaluate to 1; the box
    # radius sqrt(4pr / (4pr - q^2)) covers that ellipse in each coordinate
    num, den = 4 * f.p * f.r, 4 * f.p * f.r - f.q * f.q
    bound = math.isqrt(num // den) + 2
    return any(
        evaluate(f, x, y) == 1
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1))


def test_represents_one_frozen():
    assert represents_one(BinaryForm(1, 0, 5))
    assert not represents_one(BinaryForm(2, 2, 3))
    assert represents_one(BinaryForm(5, 4, 1))


def test_represents_one_against_box_search():
    rng = random.Random(53)
    done = 0
    while done < 1000:
        p = rng.randint(1, 50)
        r = rng.randint(1, 50)
        q = rng.randint(-50, 50)
        if 4 * p * r - q * q <= 0:
            continue
        done += 1
        f = BinaryForm(p, q, r)
        assert represents_one(f) == _represents_one_naive(f)


@st.composite
def definite_forms(draw, p_r: st.SearchStrategy[int]) -> BinaryForm:
    """Positive definite forms with p and r drawn from p_r and any q that
    keeps q^2 < 4pr."""
    p, r = draw(p_r), draw(p_r)
    q_max = math.isqrt(4 * p * r - 1)
    return BinaryForm(p, draw(st.integers(-q_max, q_max)), r)


SMALL = st.integers(1, 60)
BIG = st.one_of(st.integers(1, 10**6), st.integers(10**30, 10**40))


@given(definite_forms(SMALL))
def test_represents_one_matches_box_search_property(f):
    assert represents_one(f) == _represents_one_naive(f)


@given(definite_forms(BIG))
def test_reduce_form_returns_its_transform_property(f):
    red, g = reduce_form(f)
    assert transform(f, g) == red
    assert red.is_reduced()
    assert red.discriminant == f.discriminant


@given(definite_forms(BIG), sl2_matrices(10**30))
def test_reduction_is_invariant_under_sl2_property(f, g):
    moved = transform(f, g)
    red, _ = reduce_form(f)
    assert reduce_form(moved)[0] == red
    assert represents_one(moved) == (red.p == 1)
