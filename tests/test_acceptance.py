"""Acceptance gate: one test per required behavior, each with a time budget.

Every test prints as its own pass/fail line under pytest -v.  The budgets
are asserted, not just hoped for, so a performance regression fails the
suite the same way a wrong answer does.
"""

import random
import time
from math import gcd

import pytest

from k3cover.classifier import case_of, classify
from k3cover.embeddings import (
    Embedding,
    in_image,
    index_of_split,
    is_primitive,
    orthogonal_complement,
    torsion_witness,
    validate,
    verify_torsion_witness,
)
from k3cover.intmat import (
    IntegralLattice,
    IntMatrix,
    inner_product,
    maximal_minor_gcd,
    standard_lattice,
)
from k3cover.lattices import TranscendentalForm
from k3cover.quadforms import represents_one
from k3cover.shortvec import enumerate_norm
from k3cover.lemmas import max_norm_in_slice, slice_maximizer
from k3cover.vinberg import in_P, norm, search_norm

from conftest import (
    GRID,
    LAMBDA,
    enumerate_P_slice,
    moved,
    norms_divisible_by_4,
    random_full_rank,
    random_sl2,
    signature,
    smith_invariant_factors,
    written_down_embedding,
)

MAX_TABLE = (-3, -7, -5, -7, -12, -7, -11, -15, -11, -15, -23)


def test_criterion_01_grid_selects_exactly_one_branch():
    """Over 1 <= a, b <= 6, |c| <= 7 (positive definite only), the six branch
    conditions are mutually exclusive and exhaustive, and classify picks the
    one that holds; all-even forms cover, all-odd forms do not."""
    start = time.perf_counter()
    for t in GRID:
        a_even, b_even, c_even = t.a % 2 == 0, t.b % 2 == 0, t.c % 2 == 0
        is_iii = c_even and not (a_even and b_even)
        rep1 = represents_one(t.a, t.c, t.b) if is_iii else False
        predicates = {
            "I": a_even and b_even and c_even,
            "II": not c_even and (a_even or b_even),
            "III-1": is_iii and not rep1,
            "III-2": is_iii and rep1 and t.delta not in (4, 8, 16),
            "III-3": is_iii and rep1 and t.delta in (4, 8, 16),
            "IV": not (a_even or b_even or c_even),
        }
        holding = [label for label, holds in predicates.items() if holds]
        assert len(holding) == 1, ((t.a, t.b, t.c), holding)

        cls = classify(t)
        assert cls.case_label == holding[0]
        if predicates["I"]:
            assert cls.covers
        if predicates["IV"]:
            assert not cls.covers
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_case_ii_embeddings_are_root_free():
    """For every grid form with c odd and ab even, the written-down embedding
    reproduces the Gram matrix, has coprime maximal minors, its complement
    contains no vector of norm -2, and every complement vector has norm
    divisible by 4.

    The last claim is proved from the complement's Gram matrix G, for every
    vector at once: x.x = sum_i G_ii x_i^2 + 2 sum_{i<j} G_ij x_i x_j is
    0 mod 4 for all x exactly when each G_ii is 0 mod 4 and each G_ij is
    even (`conftest.norms_divisible_by_4`)."""
    start = time.perf_counter()
    checked = 0
    for t in GRID:
        if case_of(t)[0] != "II":
            continue
        checked += 1
        e = written_down_embedding(t)
        assert validate(e)
        assert maximal_minor_gcd(e.matrix) == 1
        _, comp = orthogonal_complement(LAMBDA, e)
        assert enumerate_norm(comp, -2) == []
        assert norms_divisible_by_4(comp.gram.entries), (t.a, t.b, t.c)
    assert checked == 160
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_03_case_iii_split_by_complement_roots():
    """After normalization, every grid form with c even and an odd diagonal
    gets a primitive embedding; the complement is root-free exactly for the
    branch that promises a covering through it (III-1), and contains a root
    for III-2 and III-3."""
    start = time.perf_counter()
    seen = {"III-1": 0, "III-2": 0, "III-3": 0}
    for t in GRID:
        label = case_of(t)[0]
        if label not in seen:
            continue
        seen[label] += 1
        e = written_down_embedding(t)
        assert validate(e)
        assert is_primitive(e)
        _, comp = orthogonal_complement(LAMBDA, e)
        roots = enumerate_norm(comp, -2)
        if label == "III-1":
            assert roots == [], (t.a, t.b, t.c)
        else:
            assert roots != [], ((t.a, t.b, t.c), label)
    assert all(seen.values()), seen
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_04_slice_maxima_table():
    """The maximum norm over each x0-slice of the region, for x0 from 4 to
    14, matches the tabulated values, and the recorded maximizers lie in the
    slice and achieve them."""
    start = time.perf_counter()
    for m, expected in zip(range(4, 15), MAX_TABLE):
        assert max_norm_in_slice(m) == expected, m
        top = slice_maximizer(m)
        assert top in enumerate_P_slice(m)
        assert norm(top) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_criterion_05_witness_search_up_to_200():
    """search_norm produces a verified region vector of norm -n for every
    n in [3, 200] except 4, and the slices up to x0 = 14 genuinely contain
    no vector of norm -1, -2 or -4."""
    start = time.perf_counter()
    for n in range(3, 201):
        if n == 4:
            continue
        v = search_norm(n)
        assert v is not None, n
        assert norm(v) == -n
        assert in_P(v)
    for n in (1, 2, 4):
        assert search_norm(n) is None
        for m in range(3, 15):
            assert all(norm(v) != -n for v in enumerate_P_slice(m))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_06_minor_gcd_vs_smith_form():
    """On 1000 random full-row-rank integer matrices (up to 4 x 8, entries
    bounded by 5), the maximal-minor gcd equals the product of the Smith
    invariant factors; whenever it exceeds 1, the torsion witness replays."""
    start = time.perf_counter()
    rng = random.Random(20260819)
    for _ in range(1000):
        n = rng.randint(1, 4)
        m = rng.randint(n, 8)
        a = random_full_rank(rng, n, m, bound=5)
        d = maximal_minor_gcd(a)
        prod = 1
        for f in smith_invariant_factors(a):
            prod *= f
        assert d == prod
        if d > 1:
            target = IntegralLattice.from_gram_rows(
                [[1 if i == j else 0 for j in range(m)] for i in range(m)])
            src = IntegralLattice.from_gram_rows((a @ a.transpose()).to_lists())
            e = Embedding(src, target, a)
            w = torsion_witness(e)
            verify_torsion_witness(e, w)
            assert w.order > 1
            assert in_image(e, [w.order * x for x in w.z])
            assert not in_image(e, w.z)
            assert gcd(w.order, *w.coeffs) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_07_split_index_divides_norm():
    """For 500 random primitive vectors of nonzero norm in random definite
    lattices of rank at most 5, the index of the orthogonal splitting they
    generate divides the absolute value of their norm."""
    start = time.perf_counter()
    rng = random.Random(1105)
    done = 0
    while done < 500:
        n = rng.randint(1, 5)
        mat = None
        while mat is None or mat.det() == 0:
            mat = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        g = mat @ mat.transpose()
        if rng.random() < 0.5:
            g = g.scale(-1)
        lat = IntegralLattice.from_gram_rows(g.to_lists())
        alpha = [rng.randint(-4, 4) for _ in range(n)]
        if gcd(*alpha) != 1:
            continue
        if inner_product(lat, alpha, alpha) == 0:
            continue
        done += 1
        idx = index_of_split(lat, alpha)
        assert abs(inner_product(lat, alpha, alpha)) % idx == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_08_ambient_lattice_invariants():
    """The ambient lattice is even of rank 12 with determinant of absolute
    value 1024 and signature (2, 10); its doubled-E8 block contains exactly
    240 vectors of norm -4."""
    start = time.perf_counter()
    assert LAMBDA.is_even()
    assert LAMBDA.rank == 12
    assert abs(LAMBDA.det()) == 1024
    pos, neg, zero = signature(LAMBDA)
    assert (pos, neg, zero) == (2, 10, 0)
    reps = enumerate_norm(standard_lattice("E8_2"), -4)
    assert 2 * len(reps) == 240
    assert all(v != tuple(-x for x in v) for v in reps)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_09_classification_is_basis_invariant():
    """1000 random pairs of a form and a determinant-one change of basis
    yield the same case label and the same covering verdict."""
    start = time.perf_counter()
    rng = random.Random(8128)
    done = 0
    while done < 1000:
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        c = rng.randint(-11, 11)
        if 4 * a * b - c * c <= 0:
            continue
        done += 1
        t = TranscendentalForm(a, b, c)
        assert case_of(moved(t, random_sl2(rng))) == case_of(t)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
