"""Gram containers, the standard ambient blocks, and basis-change invariants."""

import math
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3cover.intmat import (
    IntegralLattice,
    IntMatrix,
    direct_sum,
    hyperbolic_plane,
    inner_product,
    primitive_vector,
    rank,
    standard_lattice,
    to_lattice,
)
from k3cover.lattices import TranscendentalForm, _moved, parity_class

from conftest import compose, moved, random_sl2, signature, sl2_matrices


def test_inner_product_frozen_values():
    u = standard_lattice("U")
    u2 = standard_lattice("U2")
    assert inner_product(u, (1, 0), (0, 1)) == 1
    assert inner_product(u, (1, 1), (1, 1)) == 2
    assert inner_product(u2, (1, 1), (1, 1)) == 4
    with pytest.raises(ValueError):
        inner_product(u, (1, 0, 0), (0, 1, 0))


def test_inner_product_bilinear_and_symmetric():
    rng = random.Random(3)
    lam = standard_lattice("LambdaMinus")
    for _ in range(50):
        x = [rng.randint(-3, 3) for _ in range(12)]
        y = [rng.randint(-3, 3) for _ in range(12)]
        z = [rng.randint(-3, 3) for _ in range(12)]
        both = inner_product(lam, x, [p + q for p, q in zip(y, z)])
        assert both == inner_product(lam, x, y) + inner_product(lam, x, z)
        assert inner_product(lam, x, y) == inner_product(lam, y, x)


def test_standard_lattice_invariants():
    u = standard_lattice("U")
    assert (u.rank, u.det(), signature(u)) == (2, -1, (1, 1, 0))
    assert u.is_even()
    u2 = standard_lattice("U2")
    assert (u2.rank, u2.det()) == (2, -4)
    assert u2.gram.to_lists() == [[0, 2], [2, 0]]
    e8 = standard_lattice("E8_2")
    assert (e8.rank, e8.det(), signature(e8)) == (8, 256, (0, 8, 0))
    assert all(e8.gram.entries[i][i] == -4 for i in range(8))
    lam = standard_lattice("LambdaMinus")
    assert (lam.rank, lam.det(), signature(lam)) == (12, 1024, (2, 10, 0))
    assert lam.is_even()
    with pytest.raises(ValueError):
        standard_lattice("E7")


def test_hyperbolic_plane_scales():
    assert hyperbolic_plane().gram.to_lists() == [[0, 1], [1, 0]]
    assert hyperbolic_plane(2).gram.to_lists() == standard_lattice("U2").gram.to_lists()


def test_direct_sum_blocks():
    u = standard_lattice("U")
    u2 = standard_lattice("U2")
    s = direct_sum(u, u2)
    assert (s.rank, s.det()) == (4, 4)
    assert s.gram.to_lists() == [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 2],
        [0, 0, 2, 0],
    ]
    empty = IntegralLattice.from_gram_rows([])
    assert direct_sum(u, empty).gram.to_lists() == u.gram.to_lists()
    d = direct_sum(IntegralLattice.from_gram_rows([[2]]),
                   IntegralLattice.from_gram_rows([[-2]]))
    assert d.gram.to_lists() == [[2, 0], [0, -2]]


def test_gram_validation():
    with pytest.raises(ValueError):
        IntegralLattice.from_gram_rows([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        IntegralLattice(3, IntMatrix.from_rows([[1, 0], [0, 1]]))
    odd = IntegralLattice.from_gram_rows([[1, 0], [0, -2]])
    assert not odd.is_even()
    assert signature(odd) == (1, 1, 0)
    degenerate = IntegralLattice.from_gram_rows([[0, 0], [0, 2]])
    assert signature(degenerate) == (1, 0, 1)
    assert degenerate.det() == 0


def test_signature_oracle_agrees_with_rank_and_determinant():
    """conftest's sympy signature, held to our own exact algebra on 200
    random symmetric Gram matrices: the counts add up to n, the zero count is
    n - rank, and a nonzero determinant has the sign (-1)^neg."""
    rng = random.Random(39)
    for _ in range(200):
        n = rng.randint(0, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        lattice = IntegralLattice.from_gram_rows(rows)
        pos, neg, zero = signature(lattice)
        assert pos + neg + zero == n
        assert zero == n - rank(lattice.gram)
        det = lattice.gram.det()
        if det:
            assert (-1) ** neg == (1 if det > 0 else -1)
    # the zero form, a zero pivot beside a nonzero pairing, and a repeated eigenvalue
    assert signature(IntegralLattice.from_gram_rows([[0, 0], [0, 0]])) == (0, 0, 2)
    assert signature(IntegralLattice.from_gram_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])) == (1, 1, 1)
    assert signature(IntegralLattice.from_gram_rows([[2, 0, 0], [0, 2, 0], [0, 0, -2]])) == (2, 1, 0)


def test_transcendental_form_validation():
    with pytest.raises(ValueError):
        TranscendentalForm(0, 1, 0)
    with pytest.raises(ValueError):
        TranscendentalForm(1, -1, 0)
    with pytest.raises(ValueError):
        TranscendentalForm(1, 1, 2)          # 4ab - c^2 == 0
    t = TranscendentalForm(2, 3, -2)         # negative pairing is allowed
    assert t.delta == 20
    assert t.triple() == (2, 3, -2)


def test_delta_is_a_slot_but_not_a_field():
    t = TranscendentalForm(2, 3, -2)
    assert TranscendentalForm.__slots__ == ("a", "b", "c")
    assert t.delta == 20 and "delta" not in repr(t)
    with pytest.raises(AttributeError):
        t.delta = 21
    with pytest.raises(AttributeError):
        del t.delta
    assert t.delta == 20
    assert pickle.loads(pickle.dumps(t)).delta == 20


@st.composite
def huge_forms(draw) -> TranscendentalForm:
    a, b = draw(st.integers(1, 10**45)), draw(st.integers(10**40, 10**45))
    c_max = math.isqrt(4 * a * b - 1)
    return TranscendentalForm(a, b, draw(st.integers(-c_max, c_max)))


@given(huge_forms(), sl2_matrices(10**15))
def test_delta_is_bound_at_construction_and_kept_by_basis_changes_property(t, g):
    assert t.delta == 4 * t.a * t.b - t.c * t.c
    out = moved(t, g)
    assert out.delta == 4 * out.a * out.b - out.c * out.c == t.delta


def test_to_lattice_frozen_grams():
    assert to_lattice(TranscendentalForm(1, 1, 1)).gram.to_lists() == [[2, 1], [1, 2]]
    assert to_lattice(TranscendentalForm(1, 1, 1)).det() == 3
    assert to_lattice(TranscendentalForm(1, 1, 0)).det() == 4
    assert to_lattice(TranscendentalForm(2, 3, 2)).gram.to_lists() == [[4, 2], [2, 6]]
    assert to_lattice(TranscendentalForm(2, 3, 2)).det() == 20


def test_sl2_validation_and_compose():
    g = (2, 1, 1, 1)
    assert compose(g, (1, 0, 0, 1)) == (2, 1, 1, 1)
    assert compose(g, (1, 1, 0, 1)) == (2, 3, 1, 2)


def test_apply_basis_change_frozen():
    assert _moved(2, 1, 0, 2, 1, 1, 1) == (9, 3, 10)
    t = TranscendentalForm(2, 1, 0)
    out = moved(t, (2, 1, 1, 1))
    assert out.triple() == (9, 3, 10)
    assert out.delta == t.delta == 8
    assert _moved(2, 1, 0, 1, 0, 0, 1) == (2, 1, 0)


def _assert_moved_is_gram_congruence(t: TranscendentalForm, g) -> None:
    """`_moved` gives the Gram matrix g^T G g of t in the basis changed by g."""
    x, y, z, w = g
    m = IntMatrix.from_rows([[x, z], [y, w]])
    expect = m @ to_lattice(t).gram @ m.transpose()
    out = TranscendentalForm(*_moved(t.a, t.b, t.c, x, y, z, w))
    assert to_lattice(out).gram.to_lists() == expect.to_lists()


def test_apply_basis_change_is_gram_congruence():
    rng = random.Random(41)
    done = 0
    while done < 200:
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        c = rng.randint(-9, 9)
        if 4 * a * b - c * c <= 0:
            continue
        done += 1
        _assert_moved_is_gram_congruence(TranscendentalForm(a, b, c), random_sl2(rng))


@given(huge_forms(), sl2_matrices(10**15))
def test_moved_is_gram_congruence_at_big_integers_property(t, g):
    _assert_moved_is_gram_congruence(t, g)


def test_basis_change_preserves_class_and_delta():
    rng = random.Random(43)
    done = 0
    while done < 1000:
        a, b = rng.randint(1, 8), rng.randint(1, 8)
        c = rng.randint(-9, 9)
        if 4 * a * b - c * c <= 0:
            continue
        done += 1
        t = TranscendentalForm(a, b, c)
        out = moved(t, random_sl2(rng, bound=20))
        assert out.delta == t.delta
        assert parity_class(out) == parity_class(t)


def test_parity_class_table():
    assert parity_class(TranscendentalForm(2, 2, 2)) == "I"
    assert parity_class(TranscendentalForm(1, 2, 1)) == "II"
    assert parity_class(TranscendentalForm(2, 1, 1)) == "II"
    assert parity_class(TranscendentalForm(1, 1, 0)) == "III"
    assert parity_class(TranscendentalForm(2, 3, 2)) == "III"
    assert parity_class(TranscendentalForm(1, 1, 1)) == "IV"
    assert parity_class(TranscendentalForm(3, 5, -3)) == "IV"


def test_primitive_vector():
    assert primitive_vector((1, 2, 4))
    assert primitive_vector((0, 1))
    assert not primitive_vector((2, 4, 6))
    assert not primitive_vector((0, 0))
