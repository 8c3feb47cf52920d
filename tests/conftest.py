"""Shared construction helpers for the test suite, and the CLI runner.

Plain functions rather than fixtures: every test seeds its own RNG, so
runs are reproducible and tests stay order-independent.  The one fixture,
`runner`, drives `k3cover.cli.main` in-process.
"""

from __future__ import annotations

import io
import itertools
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from math import gcd
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from k3cover.classifier import CONSTRUCTIONS, _c_even_fields
from k3cover.embeddings import Embedding
from k3cover.intmat import (IntegralLattice, IntMatrix, rank, standard_lattice,
                            to_lattice, xgcd)
from k3cover.lattices import TranscendentalForm, _moved
from k3cover.vinberg import SLICE_CAP

# Property tests replay the same examples on every run, like the seeded
# tests, and keep no example database; big-integer examples have no deadline.
settings.register_profile("k3cover", derandomize=True, database=None, deadline=None)
settings.load_profile("k3cover")


LAMBDA = standard_lattice("LambdaMinus")


def replace(value, **changes):
    """A copy of a k3cover value object with the named fields changed."""
    fields = {name: getattr(value, name) for name in type(value).__slots__}
    return type(value)(**{**fields, **changes})


class _Capture(io.StringIO):
    """One output stream that also copies what it is given into `mixed`."""

    def __init__(self, mixed: io.StringIO) -> None:
        super().__init__()
        self._mixed = mixed

    def write(self, text: str) -> int:
        self._mixed.write(text)
        return super().write(text)


class Runner:
    """Runs a command line entry point in-process with captured output."""

    def invoke(self, main, args, env=None) -> SimpleNamespace:
        """Call ``main(args)`` with ``env`` laid over os.environ.  SystemExit
        becomes ``exit_code``; ``output`` interleaves stdout and stderr."""
        mixed = io.StringIO()
        out, err = _Capture(mixed), _Capture(mixed)
        code = 0
        with patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                               output=mixed.getvalue())


@pytest.fixture()
def runner() -> Runner:
    return Runner()


def parity_class(t: TranscendentalForm) -> str:
    """The basis-change invariant parity class of (a, b, c), stated apart from
    `classifier._case`, which the tests hold to it.

    "I": all even; "II": c odd, ab even; "III": c even, a or b odd;
    "IV": all odd.  Basis changes preserve the class (and the discriminant),
    so the class is a property of the lattice, not the chosen basis.
    """
    a_even, b_even, c_even = t.a % 2 == 0, t.b % 2 == 0, t.c % 2 == 0
    if c_even:
        return "I" if a_even and b_even else "III"
    return "II" if a_even or b_even else "IV"


# CONSTRUCTIONS lists the constructions in the order of the parity classes
# they serve: c odd (II), c even with a or b odd (III), all even (I)
CONSTRUCTION_OF_PARITY = dict(zip(("II", "III", "I"), CONSTRUCTIONS))


def construction_of(t: TranscendentalForm) -> str:
    return CONSTRUCTION_OF_PARITY[parity_class(t)]


def c_even_normalized(t: TranscendentalForm) -> tuple[TranscendentalForm, tuple[int, ...]]:
    """The form that the c-even construction embeds for a case III form t, a
    and b odd, and the basis change to it, as `_c_even_fields` records them."""
    _, normalized, g = _c_even_fields(t.a, t.b, t.c, t.delta)[:3]
    return TranscendentalForm(*normalized), g


def written_down_embedding(t: TranscendentalForm) -> Embedding | None:
    """The construction of t's parity class, of the normalized form in case III,
    as an `Embedding` into U + U(2) + E8(2) for the oracle stack; None in case IV."""
    if parity_class(t) not in CONSTRUCTION_OF_PARITY:
        return None
    if parity_class(t) == "III":
        t = c_even_normalized(t)[0]
    u, v = CONSTRUCTIONS[construction_of(t)](t.a, t.b, t.c)
    zeros = (0,) * 8   # the E8(2) columns
    return Embedding(to_lattice(t), LAMBDA, IntMatrix.from_rows([u + zeros, v + zeros]))


# The U + U(2) block arithmetic that the classifier's `_embedding_defect`
# inlines, kept as plain oracles for the tests that hold the kernel to it
def pair(x, y) -> int:
    """The U + U(2) pairing of the first four coordinates of x and y."""
    return x[0] * y[1] + x[1] * y[0] + 2 * (x[2] * y[3] + x[3] * y[2])


def minor_gcd(x, y) -> int:
    """The gcd of the six 2 x 2 minors of the first four coordinates of x and y."""
    return gcd(*(x[i] * y[j] - x[j] * y[i] for i, j in itertools.combinations(range(4), 2)))


# A change of basis is the int 4-tuple (x, y, z, w) of [[x, y], [z, w]], as
# certificates record it; no type checks its determinant, so the helpers
# below that build one assert it themselves.
Sl2 = tuple[int, int, int, int]


def moved(t: TranscendentalForm, g: Sl2) -> TranscendentalForm:
    """The form of the same lattice in the basis changed by g (`_moved`)."""
    return TranscendentalForm(*_moved(t.a, t.b, t.c, *g))


def random_sl2(rng: random.Random, bound: int = 20) -> Sl2:
    """Random determinant-one integer matrix with entries bounded by `bound`."""
    while True:
        x = rng.randint(-bound, bound)
        z = rng.randint(-bound, bound)
        if gcd(x, z) != 1:
            continue
        # complete the coprime first column, then shear the second a little
        _, s, t = xgcd(x, z)
        k = rng.randint(-3, 3)
        y, w = -t + k * x, s + k * z
        if max(abs(y), abs(w)) <= bound:
            assert x * w - y * z == 1
            return x, y, z, w


def sl2_matrices(bound: int) -> st.SearchStrategy[Sl2]:
    """Hypothesis strategy: products of one to four alternating upper and
    lower shears [[1, k], [0, 1]], [[1, 0], [k, 1]] with |k| <= bound.

    These shears generate SL2(Z), and no example is ever filtered out.
    """
    return st.lists(st.integers(-bound, bound), min_size=1, max_size=4).map(_alternating_shears)


def compose(g: Sl2, h: Sl2) -> Sl2:
    """Matrix product g @ h of two determinant-one matrices."""
    gx, gy, gz, gw = g
    hx, hy, hz, hw = h
    x, y, z, w = gx * hx + gy * hz, gx * hy + gy * hw, gz * hx + gw * hz, gz * hy + gw * hw
    assert x * w - y * z == 1
    return x, y, z, w


def _alternating_shears(ks: list[int]) -> Sl2:
    g = (1, 0, 0, 1)
    for i, k in enumerate(ks):
        g = compose(g, (1, k, 0, 1) if i % 2 == 0 else (1, 0, k, 1))
    return g


def reduce_form(t: TranscendentalForm) -> tuple[TranscendentalForm, Sl2]:
    """Gauss reduction of a x^2 + c x y + b y^2, tracking the change of basis.

    Returns (reduced, g) with moved(t, g) == reduced: the
    tests' oracle for `quadforms._gauss`, which runs the same loop on
    (p, q, r) = (a, c, b) and keeps only the reduced triple.  Each
    translation by k is the matrix [[1, k], [0, 1]] and each swap is
    [[0, -1], [1, 0]].
    """
    p, q, r = t.a, t.c, t.b
    x, y, z, w = 1, 0, 0, 1
    while True:
        # translate q into (-p, p]
        k = (p - q) // (2 * p)
        if k:
            r += k * (q + p * k)
            q += 2 * p * k
            y += x * k
            w += z * k
        if p <= r:
            break
        p, q, r = r, -q, p
        x, y, z, w = y, -x, w, -z
    if p == r and q < 0:
        q = -q
        x, y, z, w = y, -x, w, -z
    return TranscendentalForm(p, r, q), (x, y, z, w)


@lru_cache(maxsize=None)
def _slice_members(m: int) -> tuple[tuple[int, ...], ...]:
    """The cone slice at x0 = m, lexicographic descending on (x1..x10)."""
    out: list[tuple[int, ...]] = []
    budget = 3 * m - 1      # sum of the tail must stay <= budget
    tail = [0] * 10

    def walk(i: int, prev: int, head3: int, total: int) -> None:
        if i == 10:
            out.append((m, *tail))
            return
        hi = min(prev, budget - total - (9 - i))
        if i < 3:
            hi = min(hi, m - head3 - (2 - i))
        for v in range(hi, 0, -1):
            tail[i] = v
            walk(i + 1, v, head3 + v if i < 3 else head3, total + v)

    walk(0, m, 0, 0)
    return tuple(out)


def enumerate_P_slice(m: int) -> list[tuple[int, ...]]:
    """The slice x0 = m of the ordering and cone conditions (gcd not applied),
    listed member by member: the oracle `vinberg.slice_norms` and
    `lemmas.in_slice` are held to.  Desk scale only: 3 <= m <= SLICE_CAP.
    """
    if not 3 <= m <= SLICE_CAP:
        raise ValueError(f"slice index must lie in [3, {SLICE_CAP}]")
    return list(_slice_members(m))


def smith_invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors d1 | d2 | ... of the matrix, all
    positive, from sympy's Smith normal form: the tests' one Smith oracle."""
    return tuple(abs(int(d)) for d in invariant_factors(Matrix(a.to_lists()), domain=ZZ) if d)


def signature(lattice: IntegralLattice) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of the Gram matrix, exact:
    sympy's characteristic polynomial, its zero roots divided out, has its
    real roots counted with multiplicity on each side of 0 (the square-free
    factors' roots are simple).  The tests' one signature oracle."""
    (zero,), p = Matrix(lattice.gram.to_lists()).charpoly().terms_gcd()
    factors = p.sqf_list()[1]
    return (sum(m * f.count_roots(0, None) for f, m in factors),
            sum(m * f.count_roots(None, 0) for f, m in factors), zero)


def norms_divisible_by_4(gram) -> bool:
    """Whether every vector of the integral lattice with Gram matrix `gram`
    (a square list of rows) has norm 0 mod 4.

    x.x = sum_i g_ii x_i^2 + 2 sum_{i<j} g_ij x_i x_j, so the norms are all
    0 mod 4 when each g_ii is 0 mod 4 and each g_ij even; conversely e_i
    has norm g_ii, and e_i + e_j has norm g_ii + g_jj + 2 g_ij."""
    return all(g % (4 if i == j else 2) == 0
               for i, row in enumerate(gram) for j, g in enumerate(row))


def random_full_rank(rng: random.Random, n: int, m: int, bound: int = 5) -> IntMatrix:
    """Random n x m integer matrix of full row rank; needs n <= m."""
    while True:
        a = IntMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)])
        if rank(a) == n:
            return a


# Doubled simple roots of E8 in the even coordinate model, one per row,
# ordered to match the Gram matrix of standard_lattice("E8_2"): indices
# 0 and 2..7 form the long chain, index 1 hangs off index 3.
_DOUBLED_SIMPLE_ROOTS = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)


def doubled_simple_roots() -> IntMatrix:
    return IntMatrix.from_rows([list(r) for r in _DOUBLED_SIMPLE_ROOTS])


def e8_root_coefficients() -> set[tuple[int, ...]]:
    """The 240 roots of E8 as integer coefficient vectors over the simple roots.

    Built independently of the package's search code: the coordinate model
    lists the doubled roots directly (112 vectors with two entries +-2, and
    128 vectors of all +-1 with an even number of minus signs), and each is
    converted by solving x @ S = r against the simple root rows S, as
    x = r @ adj(S) / det(S).
    """
    s = doubled_simple_roots()
    adj, det = s.adjugate(), s.det()
    doubled: list[tuple[int, ...]] = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (2, -2):
                for sj in (2, -2):
                    v = [0] * 8
                    v[i], v[j] = si, sj
                    doubled.append(tuple(v))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            doubled.append(signs)
    assert len(doubled) == 240
    out: set[tuple[int, ...]] = set()
    for r in doubled:
        scaled = (IntMatrix.from_rows([r]) @ adj).entries[0]
        assert all(x % det == 0 for x in scaled), "non-integral root coefficients"
        out.add(tuple(x // det for x in scaled))
    assert len(out) == 240
    return out
