"""Primitive embeddings, torsion witnesses, and orthogonal complements."""

import itertools
import random
from math import gcd, prod

import pytest

from k3cover.embeddings import (
    Embedding,
    TorsionWitness,
    in_image,
    index_of_split,
    is_primitive,
    maximal_minor_gcd,
    orthogonal_complement,
    torsion_witness,
    validate,
    verify_torsion_witness,
)
from k3cover.errors import VerificationError
from k3cover.intmat import (
    IntegralLattice,
    IntMatrix,
    direct_sum,
    inner_product,
    standard_lattice,
    to_lattice,
)
from k3cover.intmat import maximal_minor_gcd as matrix_minor_gcd
from k3cover.lattices import TranscendentalForm

from conftest import (LAMBDA, random_definite_gram, random_full_rank, signature,
                      smith_invariant_factors, written_down_embedding)


def _pad(row):
    return list(row) + [0] * (12 - len(row))


def test_embedding_shape_checked():
    u = standard_lattice("U")
    src = IntegralLattice.from_gram_rows([[2]])
    with pytest.raises(ValueError):
        Embedding(src, u, IntMatrix.from_rows([[1, 0], [0, 1]]))


def test_validate_frozen_examples():
    u = standard_lattice("U")
    assert validate(Embedding(u, u, IntMatrix.from_rows([[1, 0], [0, 1]])))

    t = TranscendentalForm(1, 3, 0)
    rows = [_pad([1, 1]), _pad([1, -1, 1, 2])]
    good = Embedding(to_lattice(t), LAMBDA, IntMatrix.from_rows(rows))
    assert validate(good)
    bad = Embedding(to_lattice(t), LAMBDA, IntMatrix.from_rows([rows[0], rows[0]]))
    assert not validate(bad)


def test_minor_gcd_and_primitivity():
    u = standard_lattice("U")
    both = Embedding(u, LAMBDA, IntMatrix.from_rows([_pad([1, 0]), _pad([0, 1])]))
    assert maximal_minor_gcd(both) == 1
    assert is_primitive(both)

    line = IntegralLattice.from_gram_rows([[0]])
    doubled = Embedding(line, u, IntMatrix.from_rows([[2, 0]]))
    assert maximal_minor_gcd(doubled) == 2
    assert not is_primitive(doubled)

    t = TranscendentalForm(1, 2, 1)
    rows = [_pad([1, 1, -1]), _pad([1, 2, 0, 1])]
    assert is_primitive(Embedding(to_lattice(t), LAMBDA, IntMatrix.from_rows(rows)))


def test_torsion_witness_frozen_line():
    line = IntegralLattice.from_gram_rows([[0]])
    u = standard_lattice("U")
    e = Embedding(line, u, IntMatrix.from_rows([[2, 0]]))
    w = torsion_witness(e)
    assert w.order == 2
    assert w.z == (1, 0)
    verify_torsion_witness(e, w)
    assert in_image(e, [w.order * x for x in w.z])
    assert not in_image(e, w.z)


def test_torsion_witness_diagonal_image():
    target = IntegralLattice.from_gram_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    src = IntegralLattice.from_gram_rows([[4, 0], [0, 9]])
    e = Embedding(src, target, IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]]))
    assert matrix_minor_gcd(e.matrix) == 6
    w = torsion_witness(e)
    verify_torsion_witness(e, w)
    assert w.order > 1 and 6 % w.order == 0
    assert w.order == 2                 # the least prime of the minor gcd
    assert in_image(e, [w.order * x for x in w.z])
    assert not in_image(e, w.z)


def test_torsion_witness_requires_imprimitive_image():
    u = standard_lattice("U")
    with pytest.raises(ValueError):
        torsion_witness(Embedding(u, u, IntMatrix.from_rows([[1, 0], [0, 1]])))


def test_verify_torsion_witness_rejects_tampering():
    line = IntegralLattice.from_gram_rows([[0]])
    u = standard_lattice("U")
    e = Embedding(line, u, IntMatrix.from_rows([[2, 0]]))
    w = torsion_witness(e)
    with pytest.raises(VerificationError):
        verify_torsion_witness(e, TorsionWitness(1, w.coeffs, w.z))
    with pytest.raises(VerificationError):
        verify_torsion_witness(e, TorsionWitness(w.order, w.coeffs, (0, 1)))
    with pytest.raises(VerificationError):
        # combination holds but gcd(order, coeffs) != 1, so the order is not pinned
        verify_torsion_witness(e, TorsionWitness(4, (2,), (1, 0)))


def _embedding_of(rows) -> Embedding:
    """The rows as a map into Z^m with the standard form; in_image reads only the rows."""
    mat = IntMatrix.from_rows(rows)
    target = IntegralLattice.from_gram_rows(
        [[1 if i == j else 0 for j in range(mat.cols)] for i in range(mat.cols)])
    return Embedding(IntegralLattice.from_gram_rows((mat @ mat.transpose()).to_lists()),
                     target, mat)


def test_in_image_without_full_row_rank():
    # 1 = -2 + 3, and -2 is itself a row; neither matrix has full row rank,
    # and each has a rational solution that is not integral
    assert in_image(_embedding_of([[2], [3]]), (1,))
    assert in_image(_embedding_of([[-3], [3], [-2]]), (-2,))
    assert not in_image(_embedding_of([[2], [4]]), (1,))
    with pytest.raises(ValueError):
        in_image(_embedding_of([[1, 0], [0, 1]]), (1, 0, 0))


def _member_by_smith(rows, z) -> bool:
    """z lies in the row lattice L exactly when L + Zz has the rank of L
    (the count of nonzero invariant factors) and the same index in its
    saturation (their product)."""
    before = smith_invariant_factors(IntMatrix.from_rows(rows))
    after = smith_invariant_factors(IntMatrix.from_rows(rows + [z]))
    return len(after) == len(before) and prod(after) == prod(before)


def test_in_image_matches_the_smith_form():
    rng = random.Random(83)
    answers = []
    for i in range(600):
        # every third matrix lacks full row rank
        while True:
            n, m = rng.randint(1, 3), rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
            if (len(smith_invariant_factors(IntMatrix.from_rows(rows))) < n) == (i % 3 == 0):
                break
        e = _embedding_of(rows)
        x = [rng.randint(-3, 3) for _ in range(n)]
        combo = [sum(xi * row[j] for xi, row in zip(x, rows)) for j in range(m)]
        # a member, that member divided by its content, and a random vector
        for z in (combo, [c // (gcd(*combo) or 1) for c in combo],
                  [rng.randint(-3, 3) for _ in range(m)]):
            answers.append(_member_by_smith(rows, z))
            assert in_image(e, z) == answers[-1], (rows, z)
    # members and non-members each in the hundreds
    assert min(sum(answers), len(answers) - sum(answers)) > 400


def test_primitivity_matches_torsion_existence():
    rng = random.Random(71)
    for _ in range(120):
        n = rng.randint(1, 3)
        m = rng.randint(n, 5)
        mat = random_full_rank(rng, n, m, bound=4)
        target = IntegralLattice.from_gram_rows(
            [[1 if i == j else 0 for j in range(m)] for i in range(m)])
        src = IntegralLattice.from_gram_rows((mat @ mat.transpose()).to_lists())
        e = Embedding(src, target, mat)
        if is_primitive(e):
            with pytest.raises(ValueError):
                torsion_witness(e)
        else:
            w = torsion_witness(e)
            verify_torsion_witness(e, w)
            assert maximal_minor_gcd(e) % w.order == 0
            assert in_image(e, [w.order * x for x in w.z])
            assert not in_image(e, w.z)


def test_orthogonal_complement_in_hyperbolic_plane():
    u = standard_lattice("U")
    vec = Embedding(IntegralLattice.from_gram_rows([[2]]), u,
                    IntMatrix.from_rows([[1, 1]]))
    basis, comp = orthogonal_complement(u, vec)
    assert basis.to_lists() == [[1, -1]]
    assert comp.gram.to_lists() == [[-2]]

    iso = Embedding(IntegralLattice.from_gram_rows([[0]]), u,
                    IntMatrix.from_rows([[1, 0]]))
    basis, comp = orthogonal_complement(u, iso)
    assert basis.to_lists() == [[1, 0]]
    assert comp.gram.to_lists() == [[0]]

    with pytest.raises(ValueError):
        orthogonal_complement(standard_lattice("U2"), vec)


def test_complement_of_covering_embedding():
    """The complement of the written-down embedding for (1, 2, 1) is rank 10,
    negative definite, and every vector norm is divisible by 4."""
    e = written_down_embedding(TranscendentalForm(1, 2, 1))
    _, comp = orthogonal_complement(LAMBDA, e)
    assert comp.rank == 10
    assert signature(comp) == (0, 10, 0)
    g = comp.gram.entries
    for i in range(10):
        assert g[i][i] % 4 == 0
        for j in range(i):
            assert g[i][j] % 2 == 0


def test_complement_properties_random():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(3, 5)
        target = IntegralLattice.from_gram_rows(random_definite_gram(rng, n).to_lists())
        mat = random_full_rank(rng, 1, n, bound=4)
        v = mat.entries[0]
        src = IntegralLattice.from_gram_rows([[inner_product(target, v, v)]])
        e = Embedding(src, target, mat)
        basis, comp = orthogonal_complement(target, e)
        assert comp.rank == n - 1
        for i in range(basis.rows):
            assert inner_product(target, basis.entries[i], v) == 0
        if basis.rows:
            assert matrix_minor_gcd(basis) == 1


def test_index_of_split_frozen():
    u = standard_lattice("U")
    assert index_of_split(u, (1, 1)) == 2
    d22 = IntegralLattice.from_gram_rows([[2, 0], [0, 2]])
    assert index_of_split(d22, (1, 0)) == 1
    with pytest.raises(ValueError):
        index_of_split(u, (2, 2))
    with pytest.raises(ValueError):
        index_of_split(u, (1, 0))      # isotropic


def test_index_of_split_divides_norm():
    rng = random.Random(67)
    done = 0
    while done < 100:
        n = rng.randint(2, 5)
        g = random_definite_gram(rng, n, negate=rng.random() < 0.5)
        lat = IntegralLattice.from_gram_rows(g.to_lists())
        v = [rng.randint(-4, 4) for _ in range(n)]
        if gcd(*v) != 1:
            continue
        nrm = inner_product(lat, v, v)
        if nrm == 0:
            continue
        done += 1
        idx = index_of_split(lat, v)
        assert idx >= 1
        assert abs(nrm) % idx == 0


def test_norm_two_vectors_force_the_parity_clash():
    """Inside U + U(2), norm 2 vectors have both U coordinates odd, so any
    two of them pair evenly: the mechanism behind the all-odd obstruction."""
    uu2 = direct_sum(standard_lattice("U"), standard_lattice("U2"))
    norm2 = [v for v in itertools.product(range(-3, 4), repeat=4)
             if inner_product(uu2, v, v) == 2]
    assert norm2
    for v in norm2:
        assert v[0] % 2 == 1 and v[1] % 2 == 1
    for v in norm2:
        for w in norm2:
            assert inner_product(uu2, v, w) % 2 == 0


def test_doubled_e8_norms_are_multiples_of_four():
    e8 = standard_lattice("E8_2")
    for v in itertools.product((-1, 0, 1), repeat=8):
        assert inner_product(e8, v, v) % 4 == 0
