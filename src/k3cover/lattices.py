"""Integral lattices and rank-2 transcendental forms.

The ambient lattice for every covering question here is the even lattice of
signature (2,10) built as U + U(2) + E8(2), with basis ordered
(u1, u2 | v1, v2 | e1..e8).  U is the hyperbolic plane, U(2) the same with
the form doubled, and E8(2) the negative definite E8 lattice with the form
doubled (Cartan-matrix basis, negated, scaled by 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd

from .intmat import IntMatrix


@dataclass(frozen=True)
class IntegralLattice:
    """Free Z-module of finite rank with an integral symmetric bilinear form."""

    rank: int
    gram: IntMatrix

    def __post_init__(self) -> None:
        if self.gram.rows != self.rank or self.gram.cols != self.rank:
            raise ValueError("gram matrix shape does not match rank")
        if not self.gram.is_symmetric():
            raise ValueError("gram matrix must be symmetric")

    @classmethod
    def from_gram_rows(cls, rows) -> "IntegralLattice":
        g = IntMatrix.from_rows(rows)
        return cls(g.rows, g)

    def det(self) -> int:
        return self.gram.det()

    def is_even(self) -> bool:
        return all(self.gram.entries[i][i] % 2 == 0 for i in range(self.rank))

    def signature(self) -> tuple[int, int, int]:
        """(positive, negative, zero) counts of a rational diagonalization."""
        return _signature(self.gram)


def inner_product(lattice: IntegralLattice, u, v) -> int:
    """Bilinear form value u . v in the given lattice."""
    u, v = tuple(u), tuple(v)
    if len(u) != lattice.rank or len(v) != lattice.rank:
        raise ValueError("vector length does not match lattice rank")
    g = lattice.gram.entries
    return sum(u[i] * sum(g[i][j] * v[j] for j in range(lattice.rank))
               for i in range(lattice.rank))


def direct_sum(a: IntegralLattice, b: IntegralLattice) -> IntegralLattice:
    n, m = a.rank, b.rank
    rows = []
    for i in range(n):
        rows.append(tuple(a.gram.entries[i]) + (0,) * m)
    for i in range(m):
        rows.append((0,) * n + tuple(b.gram.entries[i]))
    return IntegralLattice(n + m, IntMatrix.from_rows(rows) if rows else IntMatrix(0, 0, ()))


def _signature(gram: IntMatrix) -> tuple[int, int, int]:
    """Signature by exact symmetric Gaussian diagonalization over Q."""
    n = gram.rows
    m = [[Fraction(x) for x in row] for row in gram.entries]
    pos = neg = zero = 0
    for k in range(n):
        if m[k][k] == 0:
            # bring a nonzero diagonal entry into position k if possible
            swap = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                # m[k][k] = m[off][off] = 0, m[k][off] != 0: fold row/col `off` in
                for j in range(n):
                    m[k][j] += m[off][j]
                for i in range(n):
                    m[i][k] += m[i][off]
        p = m[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        # row-eliminate below the pivot; the matching column operations then
        # only zero out row k, leaving the symmetric Schur complement
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / p
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
        for j in range(k + 1, n):
            m[k][j] = Fraction(0)
    return pos, neg, zero


_E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))


def _e8_doubled_gram() -> IntMatrix:
    # negative definite E8 with the form scaled by 2: diagonal -4,
    # off-diagonal +2 along the Dynkin adjacency
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -4
    for i, j in _E8_EDGES:
        g[i][j] = g[j][i] = 2
    return IntMatrix.from_rows(g)


def hyperbolic_plane(scale: int = 1) -> IntegralLattice:
    return IntegralLattice.from_gram_rows([[0, scale], [scale, 0]])


@cache
def standard_lattice(name: str) -> IntegralLattice:
    """Named building blocks: U, U2, E8_2 and their sum LambdaMinus (built once each)."""
    if name == "U":
        return hyperbolic_plane(1)
    if name == "U2":
        return hyperbolic_plane(2)
    if name == "E8_2":
        return IntegralLattice(8, _e8_doubled_gram())
    if name == "LambdaMinus":
        return direct_sum(direct_sum(hyperbolic_plane(1), hyperbolic_plane(2)),
                          IntegralLattice(8, _e8_doubled_gram()))
    raise ValueError(f"unknown lattice name: {name!r}")


@dataclass(frozen=True)
class TranscendentalForm:
    """Positive definite even rank-2 form [[2a, c], [c, 2b]].

    This is the transcendental lattice datum of a singular K3 surface,
    presented by the half-integer triple (a, b, c).
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0:
            raise ValueError("diagonal coefficients a, b must be positive")
        if self.delta <= 0:
            raise ValueError("form must be positive definite (4ab - c^2 > 0)")

    @property
    def delta(self) -> int:
        return 4 * self.a * self.b - self.c * self.c

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def to_lattice(t: TranscendentalForm) -> IntegralLattice:
    return IntegralLattice.from_gram_rows([[2 * t.a, t.c], [t.c, 2 * t.b]])


@dataclass(frozen=True)
class Sl2Matrix:
    """Integer matrix [[x, y], [z, w]] of determinant one."""

    x: int
    y: int
    z: int
    w: int

    def __post_init__(self) -> None:
        if self.x * self.w - self.y * self.z != 1:
            raise ValueError("matrix must have determinant 1")

    @classmethod
    def identity(cls) -> "Sl2Matrix":
        return cls(1, 0, 0, 1)

    def compose(self, other: "Sl2Matrix") -> "Sl2Matrix":
        """Matrix product self @ other."""
        return Sl2Matrix(self.x * other.x + self.y * other.z,
                         self.x * other.y + self.y * other.w,
                         self.z * other.x + self.w * other.z,
                         self.z * other.y + self.w * other.w)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.z, self.w)


def apply_basis_change(t: TranscendentalForm, g: Sl2Matrix) -> TranscendentalForm:
    """The form of the same lattice in the basis changed by g.

    a' = a x^2 + c x z + b z^2,  b' = a y^2 + c y w + b w^2,
    c' = 2 a x y + c (x w + y z) + 2 b w z; the discriminant is unchanged.
    """
    a, b, c = t.a, t.b, t.c
    x, y, z, w = g.x, g.y, g.z, g.w
    return TranscendentalForm(
        a=a * x * x + c * x * z + b * z * z,
        b=a * y * y + c * y * w + b * w * w,
        c=2 * a * x * y + c * (x * w + y * z) + 2 * b * w * z,
    )


def parity_class(t: TranscendentalForm) -> str:
    """The basis-change invariant parity class of (a, b, c).

    "I": all even; "II": c odd, ab even; "III": c even, a or b odd;
    "IV": all odd.  Basis changes preserve the class (and the discriminant),
    so the class is a property of the lattice, not the chosen basis.
    """
    a_even, b_even, c_even = t.a % 2 == 0, t.b % 2 == 0, t.c % 2 == 0
    if c_even:
        return "I" if a_even and b_even else "III"
    return "II" if a_even or b_even else "IV"


def primitive_vector(v) -> bool:
    """True when the integer vector has coprime entries."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1
