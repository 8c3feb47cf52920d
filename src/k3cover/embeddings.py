"""Lattice embeddings: primitivity, torsion witnesses, complements.

An embedding is stored as its matrix of images: row i holds the coordinates
of the image of the i-th source basis vector in the target basis.  The image
sublattice is primitive (the quotient by it is torsion free) exactly when
the gcd of the maximal minors of that matrix is 1; when the gcd d exceeds 1
the quotient has an explicit torsion element whose order is the least prime
of d, which is what `torsion_witness` returns.  Every answer is read off
Hermite forms and kernels, from `intmat`'s one elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

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
    exactly when the Hermite form of the rows with z appended is the image's
    Hermite form followed by a zero row."""
    m = e.matrix
    z = tuple(z)
    if len(z) != m.cols:
        raise ValueError("target length does not match column count")
    h = hnf(IntMatrix(m.rows + 1, m.cols, m.entries + (z,))).entries
    return not any(h[-1]) and h[:-1] == hnf(m).entries


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
    """Torsion element of order p, the least prime of the minor gcd d > 1.

    The image rows A are dependent modulo p, so the integer kernel of A
    stacked on p times the identity holds a row (c, y) with c @ A = -p y and
    c not 0 modulo p.  Then z = c @ A / p is integral with p z in the image,
    and z lies outside it: z = b @ A would give c = p b, as A has full row
    rank.  As p is prime, gcd(p, c) = 1.  The construction is re-verified
    before returning.
    """
    a = e.matrix
    d = _matrix_minor_gcd(a)
    if d == 0:
        raise ValueError("matrix is not of full row rank")
    if d == 1:
        raise ValueError("image is primitive; no torsion witness exists")
    p = next((q for q in range(2, isqrt(d) + 1) if d % q == 0), d)
    m = a.cols
    stacked = IntMatrix.from_rows(
        a.to_lists() + [[p if i == j else 0 for j in range(m)] for i in range(m)])
    coeffs = next(row[:a.rows] for row in left_kernel(stacked).entries
                  if any(x % p for x in row[:a.rows]))
    z = tuple(sum(c * row[j] for c, row in zip(coeffs, a.entries)) // p for j in range(m))
    witness = TorsionWitness(order=p, coeffs=coeffs, z=z)
    verify_torsion_witness(e, witness)
    return witness


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
