"""Lattice embeddings: primitivity, torsion witnesses, complements.

An embedding is stored as its matrix of images: row i holds the coordinates
of the image of the i-th source basis vector in the target basis.  The image
sublattice is primitive (the quotient by it is torsion free) exactly when
the gcd of the maximal minors of that matrix is 1; when the gcd d exceeds 1
we can always construct an explicit order-N torsion element of the quotient
with N > 1 dividing d, which is what `torsion_witness` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .errors import VerificationError
from .intmat import (
    IntegralLattice,
    IntMatrix,
    hnf,
    inner_product,
    left_kernel,
    maximal_minor_gcd as _matrix_minor_gcd,
    primitive_vector,
    rank,
)


@dataclass(frozen=True)
class Embedding:
    """Candidate lattice map: source basis vector i maps to matrix row i."""

    source: IntegralLattice
    target: IntegralLattice
    matrix: IntMatrix

    def __post_init__(self) -> None:
        if self.matrix.rows != self.source.rank or self.matrix.cols != self.target.rank:
            raise ValueError("matrix shape does not match source/target ranks")


def validate(e: Embedding) -> bool:
    """Gram compatibility (M G M^T equals the source gram) and injectivity."""
    m = e.matrix
    if (m @ e.target.gram @ m.transpose()) != e.source.gram:
        return False
    return rank(m) == e.source.rank


def maximal_minor_gcd(e: Embedding) -> int:
    """gcd of all maximal minors of the image matrix (0 if rank deficient)."""
    return _matrix_minor_gcd(e.matrix)


def is_primitive(e: Embedding) -> bool:
    """Saturated image: no lattice vector outside has a multiple inside."""
    return maximal_minor_gcd(e) == 1


def in_image(e: Embedding, z) -> bool:
    """Whether z (target coordinates) is an integer combination of image rows:
    each Hermite row in turn clears z at its pivot, or z is not a member."""
    z = list(z)
    if len(z) != e.matrix.cols:
        raise ValueError("target length does not match column count")
    for row in hnf(e.matrix)[0].entries:
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is None:
            break
        q, r = divmod(z[pivot], row[pivot])
        if r:
            return False
        z = [zj - q * hj for zj, hj in zip(z, row)]
    return not any(z)


@dataclass(frozen=True)
class TorsionWitness:
    """Certificate that the quotient target/image has N-torsion, N > 1.

    `z` is an integer vector in target coordinates with order*z in the image
    but z itself outside it; `coeffs` expresses order*z as a combination of
    the image rows, and gcd(order, *coeffs) == 1 pins the order exactly.
    """

    order: int
    coeffs: tuple[int, ...]
    z: tuple[int, ...]


def verify_torsion_witness(e: Embedding, w: TorsionWitness) -> None:
    """Replay every claim of the witness; raises VerificationError on failure."""
    if w.order <= 1:
        raise VerificationError("witness order must exceed 1")
    g = w.order
    for c in w.coeffs:
        g = gcd(g, c)
    if g != 1:
        raise VerificationError("witness coefficients share a factor with the order")
    m = e.matrix
    combo = [sum(c * m.entries[i][j] for i, c in enumerate(w.coeffs))
             for j in range(m.cols)]
    if combo != [w.order * zj for zj in w.z]:
        raise VerificationError("coeffs @ matrix != order * z")
    if in_image(e, w.z):
        raise VerificationError("witness vector lies in the image")


def torsion_witness(e: Embedding) -> TorsionWitness:
    """Constructive torsion element when the minor gcd d exceeds 1.

    Writes d = p1^a1 ... pr^ar, picks a maximal minor D0 = d*K with some pi
    not dividing K (one always exists, else d would not be the gcd), and
    builds integer coefficients from one row of the adjugate of that n x n
    block.  The construction is re-verified before returning.
    """
    a = e.matrix
    d = _matrix_minor_gcd(a)
    if d == 0:
        raise ValueError("matrix is not of full row rank")
    if d == 1:
        raise ValueError("image is primitive; no torsion witness exists")
    primes = _prime_divisors(d)
    n, m = a.rows, a.cols

    chosen = None
    for cols in combinations(range(m), n):
        d0 = a.take_columns(cols).det()
        if d0 == 0:
            continue
        k = d0 // d
        if any(k % p for p in primes):
            chosen = cols
            break
    if chosen is None:
        raise VerificationError("no usable minor found; gcd computation inconsistent")

    order_cols = list(chosen) + [j for j in range(m) if j not in chosen]
    ap = a.take_columns(order_cols)
    a0 = ap.take_columns(range(n))
    delta0 = a0.det()
    adj = a0.adjugate()

    ell = None
    for i in range(n):
        row_gcd = 0
        for x in adj.entries[i]:
            row_gcd = gcd(row_gcd, x)
        if row_gcd % d != 0:
            ell = i
            break
    if ell is None:
        raise VerificationError("every adjugate row divisible by d; impossible for the gcd")

    row_gcd = 0
    for x in adj.entries[ell]:
        row_gcd = gcd(row_gcd, x)
    d_small = gcd(d, row_gcd)
    order = d // d_small
    coeffs = tuple(x // d_small for x in adj.entries[ell])

    ks = [0] * m
    ks[ell] = delta0 // d_small
    for i in range(n, m):
        cols_i = list(range(n))
        cols_i[ell] = i
        ks[i] = ap.take_columns(cols_i).det() // d_small

    # the three arithmetic facts the construction rests on
    if any(k % order for k in ks):
        raise VerificationError("order does not divide every k coefficient")
    g = order
    for c in coeffs:
        g = gcd(g, c)
    if g != 1:
        raise VerificationError("order shares a factor with the coefficients")
    for j in range(m):
        lhs = sum(coeffs[i] * ap.entries[i][j] for i in range(n))
        if lhs != ks[j]:
            raise VerificationError("coefficient identity (c @ A = k) failed")

    z_perm = [k // order for k in ks]
    z = [0] * m
    for pos, col in enumerate(order_cols):
        z[col] = z_perm[pos]
    witness = TorsionWitness(order=order, coeffs=coeffs, z=tuple(z))
    verify_torsion_witness(e, witness)
    return witness


def _prime_divisors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def orthogonal_complement(target: IntegralLattice, e: Embedding) -> tuple[IntMatrix, IntegralLattice]:
    """Basis and induced form of everything orthogonal to the image.

    The complement is the integer kernel of (image matrix) @ gram, computed
    through the Hermite form, so the returned basis is canonical and the
    complement is saturated by construction.
    """
    if e.target != target:
        raise ValueError("embedding target does not match the given lattice")
    m = e.matrix @ target.gram          # n x rank; complement = right kernel
    basis = left_kernel(m.transpose())  # rows: the kernel vectors
    induced = basis @ target.gram @ basis.transpose()
    return basis, IntegralLattice(basis.rows, induced)


def index_of_split(lattice: IntegralLattice, alpha) -> int:
    """Index of (Z alpha) + (alpha-perp) inside the lattice.

    alpha must be primitive with nonzero self-intersection; the index always
    divides |alpha . alpha|.
    """
    alpha = tuple(int(x) for x in alpha)
    if len(alpha) != lattice.rank:
        raise ValueError("vector length does not match lattice rank")
    if not primitive_vector(alpha):
        raise ValueError("alpha must be primitive")
    if inner_product(lattice, alpha, alpha) == 0:
        raise ValueError("alpha must have nonzero self-intersection")
    line = Embedding(
        source=IntegralLattice.from_gram_rows([[inner_product(lattice, alpha, alpha)]]),
        target=lattice,
        matrix=IntMatrix.from_rows([alpha]),
    )
    basis, _ = orthogonal_complement(lattice, line)
    stacked = IntMatrix.from_rows([alpha] + [list(r) for r in basis.entries])
    if not stacked.is_square():
        raise VerificationError("split basis is not square; degenerate form?")
    return abs(stacked.det())
