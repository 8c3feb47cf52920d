"""Gram containers, the standard ambient blocks, and basis-change invariants."""

import random

import pytest

from k3cover.intmat import (
    IntegralLattice,
    IntMatrix,
    direct_sum,
    hyperbolic_plane,
    inner_product,
    primitive_vector,
    standard_lattice,
    to_lattice,
)
from k3cover.lattices import Sl2Matrix, TranscendentalForm, apply_basis_change, parity_class

from conftest import compose, random_sl2


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
    assert (u.rank, u.det(), u.signature()) == (2, -1, (1, 1, 0))
    assert u.is_even()
    u2 = standard_lattice("U2")
    assert (u2.rank, u2.det()) == (2, -4)
    assert u2.gram.to_lists() == [[0, 2], [2, 0]]
    e8 = standard_lattice("E8_2")
    assert (e8.rank, e8.det(), e8.signature()) == (8, 256, (0, 8, 0))
    assert all(e8.gram.entries[i][i] == -4 for i in range(8))
    lam = standard_lattice("LambdaMinus")
    assert (lam.rank, lam.det(), lam.signature()) == (12, 1024, (2, 10, 0))
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
        IntegralLattice(3, IntMatrix.identity(2))
    odd = IntegralLattice.from_gram_rows([[1, 0], [0, -2]])
    assert not odd.is_even()
    assert odd.signature() == (1, 1, 0)
    degenerate = IntegralLattice.from_gram_rows([[0, 0], [0, 2]])
    assert degenerate.signature() == (1, 0, 1)
    assert degenerate.det() == 0


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


def test_to_lattice_frozen_grams():
    assert to_lattice(TranscendentalForm(1, 1, 1)).gram.to_lists() == [[2, 1], [1, 2]]
    assert to_lattice(TranscendentalForm(1, 1, 1)).det() == 3
    assert to_lattice(TranscendentalForm(1, 1, 0)).det() == 4
    assert to_lattice(TranscendentalForm(2, 3, 2)).gram.to_lists() == [[4, 2], [2, 6]]
    assert to_lattice(TranscendentalForm(2, 3, 2)).det() == 20


def test_sl2_validation_and_compose():
    with pytest.raises(ValueError):
        Sl2Matrix(1, 0, 0, -1)
    with pytest.raises(ValueError):
        Sl2Matrix(2, 0, 0, 2)
    g = Sl2Matrix(2, 1, 1, 1)
    assert compose(g, Sl2Matrix.identity()).as_tuple() == (2, 1, 1, 1)
    assert compose(g, Sl2Matrix(1, 1, 0, 1)).as_tuple() == (2, 3, 1, 2)


def test_apply_basis_change_frozen():
    t = TranscendentalForm(2, 1, 0)
    out = apply_basis_change(t, Sl2Matrix(2, 1, 1, 1))
    assert out.triple() == (9, 3, 10)
    assert out.delta == t.delta == 8
    assert apply_basis_change(t, Sl2Matrix.identity()).triple() == (2, 1, 0)


def test_apply_basis_change_is_gram_congruence():
    rng = random.Random(41)
    done = 0
    while done < 200:
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        c = rng.randint(-9, 9)
        if 4 * a * b - c * c <= 0:
            continue
        done += 1
        t = TranscendentalForm(a, b, c)
        g = random_sl2(rng)
        x, y, z, w = g.as_tuple()
        m = IntMatrix.from_rows([[x, z], [y, w]])
        expect = m @ to_lattice(t).gram @ m.transpose()
        assert to_lattice(apply_basis_change(t, g)).gram.to_lists() == expect.to_lists()


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
        out = apply_basis_change(t, random_sl2(rng, bound=20))
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
