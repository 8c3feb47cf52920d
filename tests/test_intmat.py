"""Integer matrix layer, cross-checked against sympy where it overlaps."""

import random
from math import gcd, prod

import pytest
import sympy

from k3cover.intmat import (
    IntMatrix,
    hnf,
    left_kernel,
    maximal_minor_gcd,
    rank,
    xgcd,
)

from conftest import smith_invariant_factors


def _random_matrix(rng, n, m, bound=9):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)])


def _random_unimodular(rng, n):
    # shears of the identity, occasionally a swap: |det| stays 1
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.randint(-2, 2)
            u[i] = [x + k * y for x, y in zip(u[i], u[j])]
    if n > 1 and rng.random() < 0.5:
        u[0], u[1] = u[1], u[0]
    return IntMatrix.from_rows(u)


def test_xgcd_bezout():
    rng = random.Random(7)
    cases = [(0, 0), (0, 7), (7, 0), (-12, 18), (18, -12), (1, 1), (-1, -1)]
    cases += [(rng.randint(-999, 999), rng.randint(-999, 999)) for _ in range(200)]
    for a, b in cases:
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, ((1, 2), (3,)))
    with pytest.raises(ValueError):
        IntMatrix(1, 1, ((1.5,),))
    with pytest.raises(ValueError):
        IntMatrix(-1, 0, ())
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ((1, 2), (3, 4)))


def test_matmul_and_transpose():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_lists() == [[2, 1], [4, 3]]
    assert a.transpose().to_lists() == [[1, 3], [2, 4]]
    assert a.scale(3).to_lists() == [[3, 6], [9, 12]]
    with pytest.raises(ValueError):
        a @ IntMatrix.from_rows([[1, 2, 3]])


def test_det_and_rank_match_sympy():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n)
        sp = sympy.Matrix(a.to_lists())
        assert a.det() == sp.det()
        assert rank(a) == sp.rank()
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2, 3]]).det()


def test_det_frozen_values():
    # [[0, 1], [1, 0]] -> -1 is pinned by test_lattices' hyperbolic plane
    assert IntMatrix.from_rows([[0, -2], [3, 0]]).det() == 6     # a swap, then a negation
    assert IntMatrix.from_rows([[-3]]).det() == -3               # a negated pivot
    assert IntMatrix.from_rows([[2, 4], [1, 2]]).det() == 0
    assert IntMatrix(0, 0, ()).det() == 1


def test_hnf_transform_and_shape():
    """U @ a == H with U unimodular, H in echelon form with positive pivots
    and the entries above each pivot reduced into [0, pivot)."""
    rng = random.Random(17)
    for _ in range(120):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_matrix(rng, n, m)
        h = hnf(a)
        # the Hermite form of [a | I] is [H | U]
        hu = hnf(IntMatrix.from_rows(
            [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a.entries)]))
        u = IntMatrix.from_rows([row[m:] for row in hu.entries])
        assert (u @ a).to_lists() == h.to_lists()
        assert abs(u.det()) == 1
        pivots = []
        seen_zero_row = False
        for row in h.entries:
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is None:
                seen_zero_row = True
                continue
            assert not seen_zero_row          # zero rows sink to the bottom
            assert not pivots or lead > pivots[-1]
            assert row[lead] > 0
            pivots.append(lead)
        for r, c in enumerate(pivots):
            for i in range(r):
                assert 0 <= h.entries[i][c] < h.entries[r][c]


def test_hnf_canonical_under_row_changes():
    # the Hermite form depends only on the row lattice
    rng = random.Random(19)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = _random_matrix(rng, n, m)
        h = hnf(a)
        h2 = hnf(_random_unimodular(rng, n) @ a)
        assert h.to_lists() == h2.to_lists()


def test_left_kernel_properties():
    rng = random.Random(23)
    for _ in range(80):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        a = _random_matrix(rng, n, m, bound=4)
        k = left_kernel(a)
        assert k.cols == n
        assert k.rows == n - rank(a)
        if k.rows:
            assert all(x == 0 for row in (k @ a).entries for x in row)
            # saturated: the basis extends to a basis of Z^n
            assert maximal_minor_gcd(k) == 1


def test_left_kernel_without_rows_or_columns():
    assert left_kernel(IntMatrix(0, 3, ())) == IntMatrix(0, 0, ())
    assert left_kernel(IntMatrix(2, 0, ((), ()))).to_lists() == [[1, 0], [0, 1]]


def test_maximal_minor_gcd_frozen_values():
    assert maximal_minor_gcd(IntMatrix.from_rows([[1, 0, 0, 5], [0, 1, 0, -3]])) == 1
    assert maximal_minor_gcd(IntMatrix.from_rows([[2, 0]])) == 2
    assert maximal_minor_gcd(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]])) == 6
    assert maximal_minor_gcd(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError):
        maximal_minor_gcd(IntMatrix.from_rows([[1], [2]]))


def test_maximal_minor_gcd_pivots_off_the_diagonal():
    # a's leading entries sit right of the diagonal, so the transpose's
    # Hermite form must move its pivots up to it
    assert maximal_minor_gcd(IntMatrix.from_rows([[0, 2, 0], [0, 0, 3]])) == 6
    assert maximal_minor_gcd(IntMatrix.from_rows([[0, 1, 0], [0, 2, 0]])) == 0
    assert maximal_minor_gcd(IntMatrix(0, 3, ())) == 1


def test_maximal_minor_gcd_matches_the_smith_form():
    """The pivot product is the product of the Smith invariant factors when
    there are as many as rows, and 0 otherwise."""
    rng = random.Random(89)
    for i in range(300):
        m = rng.randint(1, 6)
        n = rng.randint(1, m)
        rows = _random_matrix(rng, n, m, bound=4).to_lists()
        if i % 3 == 0:
            # every third matrix lacks full row rank: one row is an integer
            # combination of the others, or zero when it is alone
            k = [rng.randint(-2, 2) for _ in range(n - 1)]
            rows[-1] = [sum(c * row[j] for c, row in zip(k, rows)) for j in range(m)]
            rng.shuffle(rows)
        a = IntMatrix.from_rows(rows)
        factors = smith_invariant_factors(a)
        assert maximal_minor_gcd(a) == (prod(factors) if len(factors) == n else 0), rows
