"""Exact integer matrix algebra, and the integral lattices built on it.

Everything here runs on arbitrary-precision Python ints, with no rational
or floating-point step: determinants, Hermite forms, kernels and adjugates
are computed exactly, so the certificate machinery built on top can be
replayed bit for bit.

The Gram-matrix layer at the end gives integral lattices and the ambient
lattice of every covering question here, the even lattice of signature
(2,10) built as U + U(2) + E8(2), with basis ordered (u1, u2 | v1, v2 |
e1..e8).  U is the hyperbolic plane, U(2) the same with the form doubled,
and E8(2) the negative definite E8 lattice with the form doubled
(Cartan-matrix basis, negated, scaled by 2).  The classifier needs none of
this; it is the ground the tests' oracle stack (`embeddings`, `shortvec`)
stands on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import gcd

from .lattices import TranscendentalForm


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix.

    `entries` is a tuple of row tuples; `rows`/`cols` are stored explicitly
    so zero-row matrices keep their column count.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for x in row:
                if not isinstance(x, int):
                    raise ValueError("matrix entries must be integers")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        ents = tuple(tuple(int(x) for x in row) for row in rows)
        ncols = len(ents[0]) if ents else 0
        return cls(len(ents), ncols, ents)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose().entries
        ents = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                     for row in self.entries)
        return IntMatrix(self.rows, other.cols, ents)

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(k * x for x in row) for row in self.entries))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        e = self.entries
        return all(e[i][j] == e[j][i] for i in range(self.rows) for j in range(i))

    def take_columns(self, cols) -> "IntMatrix":
        cols = tuple(cols)
        return IntMatrix(self.rows, len(cols),
                         tuple(tuple(row[j] for j in cols) for row in self.entries))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def det(self) -> int:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        return _det_bareiss(self.to_lists())

    def adjugate(self) -> "IntMatrix":
        """Adj(A) with A @ Adj(A) = Adj(A) @ A = det(A) * I."""
        if not self.is_square():
            raise ValueError("adjugate of a non-square matrix")
        n = self.rows
        if n == 0:
            return IntMatrix(0, 0, ())
        if n == 1:
            return IntMatrix(1, 1, ((1,),))
        e = self.entries
        # adj[i][j] = (-1)^(i+j) * minor with row j and column i deleted
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                sub = [[e[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
                adj[i][j] = (-1) ** (i + j) * _det_bareiss(sub)
        return IntMatrix.from_rows(adj)


def _det_bareiss(m: list[list[int]]) -> int:
    """Bareiss elimination: each division is exact, so every step stays integral."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form with transform: returns (H, U), U @ a == H.

    U is unimodular.  H is in row echelon form with positive pivots and
    entries above each pivot reduced into [0, pivot).  Zero rows sink to
    the bottom, so the nonzero rows of H are a canonical basis of the row
    lattice of `a`.
    """
    h = a.to_lists()
    n, m = a.rows, a.cols
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for c in range(m):
        # clear column c below row r, accumulating the gcd in row r
        piv = None
        for i in range(r, n):
            if h[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
            u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, n):
            if h[i][c] == 0:
                continue
            g, x, y = xgcd(h[r][c], h[i][c])
            p, q = h[r][c] // g, h[i][c] // g
            # [[x, y], [-q, p]] has determinant 1 and sends the pair to (g, 0)
            h[r], h[i] = ([x * hr + y * hi for hr, hi in zip(h[r], h[i])],
                          [-q * hr + p * hi for hr, hi in zip(h[r], h[i])])
            u[r], u[i] = ([x * ur + y * ui for ur, ui in zip(u[r], u[i])],
                          [-q * ur + p * ui for ur, ui in zip(u[r], u[i])])
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [hi - q * hr for hi, hr in zip(h[i], h[r])]
                u[i] = [ui - q * ur for ui, ur in zip(u[i], u[r])]
        r += 1
        if r == n:
            break
    return IntMatrix.from_rows(h) if n else IntMatrix(0, m, ()), IntMatrix.from_rows(u) if n else IntMatrix(0, 0, ())


def rank(a: IntMatrix) -> int:
    h, _ = hnf(a)
    return sum(1 for row in h.entries if any(row))


def left_kernel(a: IntMatrix) -> IntMatrix:
    """Basis of {y integer row : y @ a = 0}, as rows of the result.

    The kernel of an integer matrix is saturated, and the returned basis is
    canonical (its own Hermite normal form).
    """
    h, u = hnf(a)
    ker = [u.entries[i] for i in range(a.rows) if not any(h.entries[i])]
    if not ker:
        return IntMatrix(0, a.rows, ())
    canon, _ = hnf(IntMatrix.from_rows(ker))
    return canon


def maximal_minors(a: IntMatrix):
    """Yield the determinant of every rows x rows column submatrix."""
    n = a.rows
    for cols in combinations(range(a.cols), n):
        yield a.take_columns(cols).det()


def maximal_minor_gcd(a: IntMatrix) -> int:
    """gcd of all maximal minors; 0 when the matrix is not of full row rank."""
    if a.rows > a.cols:
        raise ValueError("more rows than columns")
    d = 0
    for minor in maximal_minors(a):
        d = gcd(d, minor)
        if d == 1:
            return 1
    return d


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


def to_lattice(t: TranscendentalForm) -> IntegralLattice:
    return IntegralLattice.from_gram_rows([[2 * t.a, t.c], [t.c, 2 * t.b]])


def primitive_vector(v) -> bool:
    """True when the integer vector has coprime entries."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1
