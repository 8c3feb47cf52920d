"""Short-vector enumeration: completeness against a naive box search."""

import itertools
import math
import random

import pytest
import sympy

from k3cover import shortvec
from k3cover.intmat import IntegralLattice, IntMatrix, inner_product, standard_lattice
from k3cover.shortvec import (
    NORM_CEILING,
    enumerate_by_norm,
    enumerate_norm,
    has_norm,
)

from conftest import doubled_simple_roots, e8_root_coefficients


def _random_neg_def(rng, n, bound=3):
    while True:
        a = IntMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        if a.det() != 0:
            return (a @ a.transpose()).scale(-1)


def _naive_by_radius(lat, depth):
    """All +/- classes of norm in [-depth, -1] by explicit box search.

    The box radius per coordinate comes from the ellipsoid bound
    x_i^2 <= depth * (Q^-1)_ii for the positive definite Q = -gram,
    computed exactly through the adjugate.
    """
    n = lat.rank
    q = lat.gram.scale(-1)
    adj, det = q.adjugate(), q.det()
    radii = [math.isqrt(depth * adj.entries[i][i] // det) + 1 for i in range(n)]
    out = {}
    for xs in itertools.product(*[range(-r, r + 1) for r in radii]):
        if not any(xs):
            continue
        nrm = inner_product(lat, xs, xs)
        if -depth <= nrm:
            lead = next(x for x in xs if x)
            canon = xs if lead > 0 else tuple(-x for x in xs)
            out.setdefault(nrm, set()).add(canon)
    return out


def test_rank_one_and_diagonal_frozen():
    one = IntegralLattice.from_gram_rows([[-2]])
    assert enumerate_norm(one, -2) == [(1,)]
    assert enumerate_norm(one, -1) == []
    two = IntegralLattice.from_gram_rows([[-2, 0], [0, -2]])
    assert enumerate_norm(two, -2) == [(0, 1), (1, 0)]
    assert enumerate_norm(two, -4) == [(1, -1), (1, 1)]
    empty = IntegralLattice.from_gram_rows([])
    assert enumerate_norm(empty, -2) == []


def test_validation_errors():
    lat = IntegralLattice.from_gram_rows([[-2]])
    with pytest.raises(ValueError):
        enumerate_norm(lat, 0)
    with pytest.raises(ValueError):
        enumerate_norm(lat, 2)
    with pytest.raises(ValueError):
        enumerate_norm(lat, -(NORM_CEILING + 1))
    for bad in ([[2]], [[0]], [[-2, 3], [3, -2]]):
        with pytest.raises(ValueError):
            enumerate_norm(IntegralLattice.from_gram_rows(bad), -2)


def test_definiteness_check_matches_sympy():
    """The Cholesky pass of the enumeration rejects exactly the matrices
    sympy calls not negative definite, including those that fail only at a
    later leading minor."""
    rng = random.Random(79)
    for trial in range(300):
        n = rng.randint(1, 6)
        g = _random_neg_def(rng, n)
        rows = g.to_lists()
        if trial % 2:
            i, j = rng.randrange(n), rng.randrange(n)
            k = rng.randint(-6, 6)
            rows[i][j] += k
            rows[j][i] += k if i != j else 0
        lat = IntegralLattice.from_gram_rows(rows)
        expected = sympy.Matrix(rows).is_negative_definite
        try:
            enumerate_norm(lat, -2)
            ok = True
        except ValueError:
            ok = False
        assert ok == expected, rows


def test_doubled_e8_roots_match_coordinate_model():
    """The 240 norm -4 vectors of the doubled E8 block, found by search,
    coincide with the classical root list built in coordinates."""
    e8 = standard_lattice("E8_2")
    s = doubled_simple_roots()
    assert (s @ s.transpose()).to_lists() == e8.gram.scale(-2).to_lists()
    reps = enumerate_norm(e8, -4)
    assert len(reps) == 120
    full = set(reps) | {tuple(-x for x in v) for v in reps}
    assert full == e8_root_coefficients()


def test_enumeration_matches_box_search():
    rng = random.Random(73)
    for _ in range(25):
        n = rng.randint(1, 4)
        lat = IntegralLattice.from_gram_rows(_random_neg_def(rng, n).to_lists())
        got = enumerate_by_norm(lat, -10)
        want = _naive_by_radius(lat, 10)
        assert {k: set(v) for k, v in got.items()} == want
        assert list(got) == sorted(got)


def test_exact_norm_is_a_slice_of_the_floor_answer():
    rng = random.Random(79)
    for _ in range(20):
        n = rng.randint(1, 4)
        lat = IntegralLattice.from_gram_rows(_random_neg_def(rng, n).to_lists())
        by_norm = enumerate_by_norm(lat, -12)
        for target in range(-12, 0):
            exact = enumerate_norm(lat, target)
            assert tuple(exact) == by_norm.get(target, ())
            assert has_norm(lat, target) == bool(exact)


def test_reported_norms_are_real():
    rng = random.Random(83)
    for _ in range(10):
        n = rng.randint(2, 4)
        lat = IntegralLattice.from_gram_rows(_random_neg_def(rng, n).to_lists())
        for nrm, vecs in enumerate_by_norm(lat, -16).items():
            for v in vecs:
                assert inner_product(lat, v, v) == nrm
                lead = next(x for x in v if x)
                assert lead > 0


def test_congruent_lattices_have_equal_norm_counts():
    rng = random.Random(101)
    for _ in range(15):
        n = rng.randint(2, 4)
        g = _random_neg_def(rng, n)
        u = IntMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)])
        # random unimodular congruence by row shears
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            k = rng.randint(-2, 2)
            u = IntMatrix.from_rows(
                [[u.entries[r][c] + (k * u.entries[j][c] if r == i else 0)
                  for c in range(n)] for r in range(n)])
        h = u @ g @ u.transpose()
        a = enumerate_by_norm(IntegralLattice.from_gram_rows(g.to_lists()), -12)
        b = enumerate_by_norm(IntegralLattice.from_gram_rows(h.to_lists()), -12)
        assert {k_: len(v) for k_, v in a.items()} == {k_: len(v) for k_, v in b.items()}


def test_cache_reset_changes_nothing():
    e8 = standard_lattice("E8_2")
    first = enumerate_norm(e8, -4)
    shortvec._CACHE.clear()
    assert enumerate_norm(e8, -4) == first
