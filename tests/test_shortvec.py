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
    enumerate_norm,
    has_norm,
)

from conftest import (doubled_simple_roots, e8_root_coefficients, norms_divisible_by_4,
                      random_definite_gram)


def _naive_by_radius(lat, depth):
    """All +/- classes of norm in [-depth, -1] by explicit box search.

    The box radius per coordinate comes from the ellipsoid bound
    x_i^2 <= depth * (Q^-1)_ii for the positive definite Q = -gram,
    computed exactly through the adjugate.  Along the last coordinate x the
    norm is base + 2 x lin + g_nn x^2, with base and lin fixed by the others.
    """
    n = lat.rank
    q = lat.gram.scale(-1)
    adj = IntMatrix.from_rows(sympy.Matrix(q.to_lists()).adjugate().tolist())
    det = q.det()
    radii = [math.isqrt(depth * adj.entries[i][i] // det) + 1 for i in range(n)]
    *rows, last = lat.gram.entries
    out = {}
    for head in itertools.product(*[range(-r, r + 1) for r in radii[:-1]]):
        base = sum(x * sum(g * y for g, y in zip(row, head)) for x, row in zip(head, rows))
        lin = sum(g * y for g, y in zip(last, head))
        for x in range(-radii[-1], radii[-1] + 1):
            nrm = base + (2 * lin + last[-1] * x) * x
            if -depth <= nrm and (x or any(head)):
                xs = head + (x,)
                lead = next(y for y in xs if y)
                canon = xs if lead > 0 else tuple(-y for y in xs)
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
        g = random_definite_gram(rng, n, negate=True)
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
    """Each norm from -10 to -1, asked for alone, gets exactly the box
    search's vectors, sorted; has_norm agrees with it."""
    rng = random.Random(73)
    for _ in range(25):
        n = rng.randint(1, 4)
        lat = IntegralLattice.from_gram_rows(random_definite_gram(rng, n, negate=True).to_lists())
        want = _naive_by_radius(lat, 10)
        for target in range(-10, 0):
            got = enumerate_norm(lat, target)
            assert set(got) == want.get(target, set())
            assert got == sorted(got)
            assert has_norm(lat, target) == bool(got)


def test_reported_norms_are_real():
    rng = random.Random(83)
    for _ in range(10):
        n = rng.randint(2, 4)
        lat = IntegralLattice.from_gram_rows(random_definite_gram(rng, n, negate=True).to_lists())
        for target in range(-16, 0):
            for v in enumerate_norm(lat, target):
                assert inner_product(lat, v, v) == target
                lead = next(x for x in v if x)
                assert lead > 0


def _random_gram_by_residue(rng, n):
    """A random negative definite Gram matrix of rank n, diagonally dominant,
    whose diagonal is drawn 0 mod 4, 0 mod 2 or free, and whose other entries
    are drawn even or free, so every outcome of the Gram-entry test occurs."""
    step = rng.choice((1, 2))
    off = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            off[i][j] = off[j][i] = step * rng.randint(-1, 1)
    mod = rng.choice((1, 2, 4))
    gram = [row[:] for row in off]
    for i in range(n):
        least = sum(abs(x) for x in off[i]) + 1
        gram[i][i] = -(least + (-least) % mod + mod * rng.randint(0, 1))
    return gram


def test_norm_residues_follow_the_gram_entries():
    """`norms_divisible_by_4` holds exactly when every norm is 0 mod 4: when
    it says so, no vector of norm -16 to -1 has another residue; when not, e_i
    or e_i + e_j does."""
    rng = random.Random(89)
    outcomes = {True: 0, False: 0}
    diagonal_alone = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        gram = _random_gram_by_residue(rng, n)
        lat = IntegralLattice.from_gram_rows(gram)
        says = norms_divisible_by_4(gram)
        outcomes[says] += 1
        if says:
            for target in range(-16, 0):
                assert target % 4 == 0 or enumerate_norm(lat, target) == [], gram
        else:
            units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
            pairs = [tuple(x + y for x, y in zip(u, v))
                     for u, v in itertools.combinations(units, 2)]
            assert any(inner_product(lat, v, v) % 4 for v in units + pairs), gram
            diagonal_alone += all(gram[i][i] % 4 == 0 for i in range(n))
    assert min(outcomes.values()) > 20, outcomes
    # a helper that read the diagonal alone would say yes to these
    assert diagonal_alone > 5, diagonal_alone


def test_congruent_lattices_have_equal_norm_counts():
    rng = random.Random(101)
    for _ in range(15):
        n = rng.randint(2, 4)
        g = random_definite_gram(rng, n, negate=True)
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
        a = IntegralLattice.from_gram_rows(g.to_lists())
        b = IntegralLattice.from_gram_rows(h.to_lists())
        for target in range(-12, 0):
            assert len(enumerate_norm(a, target)) == len(enumerate_norm(b, target))


def test_cache_reset_changes_nothing():
    e8 = standard_lattice("E8_2")
    first = enumerate_norm(e8, -4)
    shortvec._CACHE.clear()
    assert enumerate_norm(e8, -4) == first
