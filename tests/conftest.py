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
from functools import lru_cache, partial
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


def box_triples(a_max: int, b_max: int, c_min: int, c_max: int):
    """The triples (a, b, c) of positive definite forms with 1 <= a <= a_max,
    1 <= b <= b_max and c_min <= c <= c_max, in scan order, by brute force:
    the tests' box, stated apart from `cli._rows`."""
    for a in range(1, a_max + 1):
        for b in range(1, b_max + 1):
            for c in range(c_min, c_max + 1):
                if 4 * a * b - c * c > 0:
                    yield a, b, c


# The small grid of the classification tests: 1 <= a, b <= 6, |c| <= 7
GRID = tuple(TranscendentalForm(*triple) for triple in box_triples(6, 6, -7, 7))

# One form of each case, in the order of `cli.CASE_ORDER`, all inside the box
# a <= 2, b <= 3, 0 <= c <= 2
ONE_FORM_PER_CASE = ((2, 2, 2), (1, 2, 1), (2, 3, 2), (1, 3, 0), (1, 1, 0), (1, 1, 1))


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


def _raise(*args, **kwargs):
    return 1 // 0


# What each hostile method returns when it lies: what a caller that trusted
# it would take for a valid value or an empty one
_LIES = {
    "__repr__": lambda self: "'keum-citation'",
    "__hash__": lambda self: hash("kind"),
    "__eq__": lambda self, other: True,
    "__ne__": lambda self, other: False,
    "__iter__": lambda self: iter(()),
    "__len__": lambda self: 0,
    "get": lambda self, key, default=None: "keum-citation",
    "__getitem__": lambda self, key: 1,
}

# The plain values a hostile subclass of each type is built from when the
# value it replaces is of another type: names and values a record holds
_HOSTILE_SEEDS = {
    str: ("kind", "case", "keum-citation", "c-odd", "III-2"),
    int: (0, 1, 3, 12),
    list: ([1, 1, 0], [], [[0] * 12] * 2),
    tuple: ((1, 1, 0), (2, 2), ()),
    dict: ({"kind": "keum-citation", "halved": [1, 1, 0]}, {}),
    object: (None,),
}


class NameRaises(type):
    """A metaclass whose classes' ``__name__`` raises."""

    __name__ = property(_raise)


class EqualsEveryType(type):
    """A metaclass whose classes equal every type and hash like their base,
    so that a lookup of their base in a set or dict of types finds them."""

    def __eq__(cls, other):
        return True

    def __ne__(cls, other):
        return False

    def __hash__(cls):
        return hash(cls.__base__)


def _hostile(base: type, behaviours: tuple, claimed, meta: type, seed, like):
    """An instance of a fresh subclass of ``base``, of metaclass ``meta``,
    holding ``like``, the value it replaces, if that is of type ``base``,
    else ``seed``.  Each method of `_LIES` is kept, lies or raises as
    ``behaviours`` says, in that order, and ``__class__`` raises or names
    the type ``claimed`` unless that is None."""
    namespace = {"__hash__": base.__hash__}   # kept unless drawn, as __eq__ drops it
    for name, behaviour in zip(_LIES, behaviours):
        if behaviour is not None:
            namespace[name] = _LIES[name] if behaviour == "lies" else _raise
    if claimed is not None:
        namespace["__class__"] = property(_raise if claimed == "raises" else lambda self: claimed)
    cls = meta(f"Hostile{base.__name__.title()}", (base,), namespace)
    return cls() if base is object else cls(like if type(like) is base else seed)


@lru_cache(maxsize=None)
def nested(container: type) -> list | dict:
    """An empty list or dict inside 100 000 more, past any recursion limit,
    made without recursion and once for each type: the tests only read it."""
    value = container()
    for _ in range(100_000):
        value = [value] if container is list else {"kind": value}
    return value


def _deep(container: type, like) -> list | dict:
    return nested(container)


def _huge(k: int, like) -> int:
    """An int past CPython's 4 300-digit int <-> str limit."""
    return k * 10**5000 + 1


def _list_of(makers: tuple, like) -> list:
    return [make(like) for make in makers]


def _dict_of(items: tuple, like) -> dict:
    return {key: make(like) for key, make in items}


def hostile_values() -> st.SearchStrategy[partial]:
    """Hypothesis strategy: functions that build, from the plain value ``like``
    they are to replace, a value that a parse or replay entry point must refuse
    by its type without running its code, alone or inside plain lists and dicts.

    The values are subclasses of str, int, list, tuple and dict, and of object,
    whose ``__repr__``, ``__hash__``, ``__eq__``, ``__ne__``, ``__iter__``,
    ``__len__``, ``get`` or ``__getitem__`` raise or lie and whose
    ``__class__`` may raise or name another type, of a type whose
    ``__name__`` may raise or that may equal every type; ints past CPython's
    4 300-digit int <-> str limit; and a list or dict nested past the
    recursion limit.  The test builds each one: hypothesis prints every
    explicit example and every failing one, and so prints only the function.
    """
    subclasses = st.sampled_from(tuple(_HOSTILE_SEEDS)).flatmap(lambda base: st.builds(
        partial, st.just(_hostile), st.just(base),
        st.tuples(*[st.sampled_from((None, "lies", "raises"))] * len(_LIES)),
        st.sampled_from((None, "raises", bool, dict, str, int, list)),
        st.sampled_from((type, NameRaises, EqualsEveryType)),
        st.sampled_from(_HOSTILE_SEEDS[base])))
    leaves = (subclasses | st.integers(-2, 2).map(partial(partial, _huge))
              | st.sampled_from((list, dict)).map(partial(partial, _deep)))
    return st.recursive(
        leaves, lambda children: st.lists(children, min_size=1, max_size=3).map(
            lambda makers: partial(_list_of, tuple(makers)))
        | st.dictionaries(st.sampled_from(("kind", "case", "halved")), children,
                          min_size=1, max_size=2).map(
            lambda makers: partial(_dict_of, tuple(makers.items()))),
        max_leaves=3)


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
