"""The B + E8(2) split against full enumeration of the rank-10 complement.

For a matrix that is zero on the E8(2) columns, `_embedding_defect` checks
the pullback and primitivity on its 2 x 4 block in U + U(2), and decides
root-freeness of the complement from the rank-2 block B there by Gauss
reduction, all in plain ints; replay rejects every other matrix.  B is
always the closed-form basis of the record's named construction, and a
matrix that basis does not fit is rejected as well.  The oracle here is
the general machinery: `validate` and the maximal minor gcd on the full
2 x 12 matrix, the complement's Hermite basis and Fincke-Pohst enumeration
of all its norm -2 vectors.  The closed-form bases are checked against
that enumeration on the box and against the Hermite kernel of the block
for coefficients beyond 10^30.  The kernel inlines the block arithmetic of
`conftest.pair` and `conftest.minor_gcd`, which stay here as oracles.
"""

import itertools
import json
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3cover.classifier import (
    COMPLEMENTS,
    CONSTRUCTIONS,
    Classification,
    ExplicitEmbedding,
    _embedding_defect,
    case_of,
    certify,
    classify,
    embedding_certificate,
    verify_classification,
)
from k3cover.embeddings import (
    Embedding,
    is_primitive,
    maximal_minor_gcd,
    orthogonal_complement,
    validate,
)
from k3cover.errors import VerificationError
from k3cover.intmat import (
    IntMatrix,
    inner_product,
    left_kernel,
    to_lattice,
)
from k3cover.lattices import TranscendentalForm
from k3cover.quadforms import represents_one
from k3cover.shortvec import enumerate_norm

from conftest import (
    LAMBDA,
    box_triples,
    c_even_normalized,
    construction_of,
    minor_gcd,
    moved,
    pair,
    parity_class,
    random_sl2,
    replace,
    sl2_matrices,
    smith_invariant_factors,
    written_down_embedding,
)


def table(construction: str, t: TranscendentalForm):
    """The construction's (rows, basis) at t, as the classifier's tables give them."""
    return (CONSTRUCTIONS[construction](t.a, t.b, t.c),
            COMPLEMENTS[construction](t.a, t.b, t.c))


def formula_basis(e: Embedding):
    """The closed-form complement basis of the construction that built e."""
    t = source_form(e)
    return table(construction_of(t), t)[1]


E8_ZEROS = (0,) * 8


def defect(t: TranscendentalForm, rows, basis) -> str | None:
    """`_embedding_defect` at t, for rows given as any two sequences: the
    kernel takes the 12-tuples that replay's field checks leave."""
    return _embedding_defect(t.a, t.b, t.c, tuple(map(tuple, rows)), basis)


def kernel_has_root(e: Embedding) -> bool:
    """The kernel's root check of a valid, primitive e: all it can find is a
    root or nothing."""
    found = defect(source_form(e), e.matrix.entries, formula_basis(e))
    assert found in (None, "root")
    return found == "root"


def oracle_has_root(e: Embedding) -> bool:
    _, comp = orthogonal_complement(LAMBDA, e)
    return bool(enumerate_norm(comp, -2))


def source_form(e: Embedding) -> TranscendentalForm:
    (d1, c), (_, d2) = e.source.gram.entries
    return TranscendentalForm(d1 // 2, d2 // 2, c)


def oracle_defect(t: TranscendentalForm, rows, has_root=oracle_has_root) -> str | None:
    """The general path's first failed check, in `_embedding_defect`'s terms."""
    e = Embedding(to_lattice(t), LAMBDA, IntMatrix.from_rows(rows))
    if not validate(e):
        return "pullback"
    if maximal_minor_gcd(e) != 1:
        return "primitive"
    return "root" if has_root(e) else None


def box_embeddings(bound: int):
    for triple in box_triples(bound, bound, -bound, bound):
        e = written_down_embedding(TranscendentalForm(*triple))
        if e is not None:
            yield e


def test_block_check_matches_enumeration_on_big_coefficients():
    rng = random.Random(211)
    forms = []
    while len(forms) < 25:
        # random 6-digit diagonal: mostly root-free complements
        a, b = rng.randint(10**5, 10**6 - 1), rng.randint(10**5, 10**6 - 1)
        c = rng.randint(-2 * a, 2 * a)
        if 4 * a * b - c * c > 0 and parity_class(TranscendentalForm(a, b, c)) != "IV":
            forms.append(TranscendentalForm(a, b, c))
    while len(forms) < 50:
        # (1, n, 0) in a random basis: represents 1, so the c-even complement has a root
        t = moved(TranscendentalForm(1, rng.randint(10**3, 10**4), 0), random_sl2(rng, 30))
        if min(t.a, t.b) >= 10**5:
            forms.append(t)
    with_roots = 0
    for t in forms:
        e = written_down_embedding(t)
        has_root = kernel_has_root(e)
        assert has_root == oracle_has_root(e), (t.a, t.b, t.c)
        with_roots += has_root
    assert 0 < with_roots < len(forms)


def reflect_into_e8(e: Embedding) -> Embedding:
    """The image under the reflection in w = u1 + u2 + e1, of norm 2 - 4 = -2.

    x -> x + (x.w) w is an integral isometry of the ambient lattice, so the
    embedding stays valid and primitive and its complement keeps its roots,
    but the rows now use the E8(2) coordinate e1.
    """
    w = (1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
    assert inner_product(LAMBDA, w, w) == -2
    rows = []
    for row in e.matrix.entries:
        k = inner_product(LAMBDA, row, w)
        rows.append([x + k * y for x, y in zip(row, w)])
    return Embedding(e.source, LAMBDA, IntMatrix.from_rows(rows))


def test_replay_rejects_a_matrix_touching_e8():
    # valid primitive embeddings all: root-free complements, then complements
    # with a root, then a 6-digit form whose rank-10 complement takes seconds
    # to search; rejection must not depend on any of that
    triples = [(1, 2, 1), (2, 3, 2), (1, 3, 0), (1, 1, 0), (123457, 234568, 99999)]
    records = []
    for triple in triples:
        t = TranscendentalForm(*triple)
        e = reflect_into_e8(written_down_embedding(t))
        assert any(row[4] for row in e.matrix.entries)
        assert validate(e) and is_primitive(e)
        basis_change = c_even_normalized(t)[1] if parity_class(t) == "III" else (1, 0, 0, 1)
        source = source_form(e)
        cert = ExplicitEmbedding(construction_of(t), (source.a, source.b, source.c), basis_change,
                                 e.matrix.entries, 1, ())
        label, covers = case_of(t)
        records.append((t, json.loads(json.dumps(
            {"case": label, "covers": covers, "delta": t.delta, "certificate": cert.to_dict()}))))
    start = time.perf_counter()
    for t, record in records:
        parsed = Classification.from_dict(record)
        with pytest.raises(VerificationError, match=r"E8\(2\)"):
            if parsed.case_label in ("II", "III-1"):
                verify_classification(t, parsed)
            else:
                # III-2 and III-3 take no embedding, so verify_classification
                # refuses the kind first; replay the certificate itself
                parsed.certificate.replay(t)
    assert time.perf_counter() - start < 0.5


def test_block_defect_matches_the_general_path_on_the_box():
    defects = {}
    for e in box_embeddings(12):
        t, rows = source_form(e), e.matrix.entries
        found = defect(t, rows, formula_basis(e))
        assert found == oracle_defect(t, rows), (t.a, t.b, t.c)
        defects[found] = defects.get(found, 0) + 1
    assert defects == {None: 2498 - defects["root"], "root": defects["root"]}
    assert defects["root"] >= 155


def test_block_defect_matches_the_general_path_on_bumped_rows():
    defects = {}
    for e in box_embeddings(6):
        t = source_form(e)
        for i in range(2):
            for j in range(4):
                rows = [list(row) for row in e.matrix.entries]
                rows[i][j] += 1
                found = defect(t, rows, formula_basis(e))
                assert found == oracle_defect(t, rows), ((t.a, t.b, t.c), i, j)
                defects[found] = defects.get(found, 0) + 1
    assert defects["pullback"] > 0.9 * sum(defects.values())


def test_block_defect_rejects_doubled_rows_as_not_primitive():
    checked = 0
    for e in box_embeddings(6):
        small = source_form(e)
        t = TranscendentalForm(4 * small.a, 4 * small.b, 4 * small.c)
        rows = [[2 * x for x in row] for row in e.matrix.entries]
        basis = table(construction_of(small), t)[1]
        assert defect(t, rows, basis) == oracle_defect(t, rows) == "primitive"
        checked += 1
    assert checked > 300


def smith_blocks():
    """1 000 seeded 2 x 4 blocks, every fourth of rank below 2 by
    construction, each with d1 * d2 of its Smith form, or 0 below rank 2."""
    rng = random.Random(1105)
    for i in range(1000):
        x = [rng.randint(-5, 5) for _ in range(4)]
        k = rng.randint(-2, 2)
        y = [rng.randint(-5, 5) for _ in range(4)] if i % 4 else [k * e for e in x]
        factors = smith_invariant_factors(IntMatrix.from_rows([x, y]))
        yield x, y, factors[0] * factors[1] if len(factors) == 2 else 0


def smith_form_mismatches(gcd_of_minors) -> tuple[int, int]:
    """How many of `smith_blocks` have rank below 2, and on how many
    ``gcd_of_minors`` differs from d1 * d2."""
    deficient = mismatches = 0
    for x, y, d in smith_blocks():
        deficient += d == 0
        mismatches += gcd_of_minors(x, y) != d
    return deficient, mismatches


def kernel_calls_primitive(x, y) -> bool:
    """Whether `_embedding_defect` passes rows (x, y) as primitive, at the form
    they pull back: with no basis, a primitive block goes on to the basis
    check and raises there."""
    t = pair(x, x) // 2, pair(y, y) // 2, pair(x, y)
    try:
        assert _embedding_defect(*t, (tuple(x) + E8_ZEROS, tuple(y) + E8_ZEROS), None) \
            == "primitive"
    except VerificationError as exc:
        assert "construction" in str(exc)
        return True
    return False


def test_minor_gcd_is_d1_d2_of_the_smith_form():
    # the primitivity test explicit-embedding replay runs, the gcd of the six
    # 2 x 2 minors, against the Smith form of the same block
    assert smith_form_mismatches(minor_gcd) == (251, 0)
    # and the comparison is load-bearing: a minor gcd that reads a block of
    # rank below 2 as primitive disagrees on every such block
    assert smith_form_mismatches(lambda x, y: minor_gcd(x, y) or 1) == (251, 251)
    # the kernel, which inlines those minors, calls exactly the blocks with
    # d1 * d2 = 1 primitive
    calls = [(kernel_calls_primitive(x, y), d == 1) for x, y, d in smith_blocks()]
    assert all(called == primitive for called, primitive in calls)
    assert sum(primitive for _, primitive in calls) == 604


@pytest.mark.parametrize("triple", [(1, 2, 1), (2, 3, 2), (3, 4, -3), (5, 7, 6)])
def test_replay_rejects_doubled_rows_for_four_times_the_form(triple):
    small = TranscendentalForm(*triple)
    cert = classify(small).certificate
    big = TranscendentalForm(*(4 * x for x in triple))
    doubled = replace(
        cert, normalized=tuple(4 * x for x in cert.normalized),
        matrix=tuple(tuple(2 * x for x in row) for row in cert.matrix))
    with pytest.raises(VerificationError, match="not primitive"):
        doubled.replay(big)


def hermite_block_gram(rows) -> tuple[int, int, int]:
    """The Gram matrix (p, q, r) of the complement block, from the Hermite
    kernel of the 4 x 2 block of M G: no closed form involved."""
    g4 = IntMatrix.from_rows([row[:4] for row in LAMBDA.gram.entries[:4]])
    image = IntMatrix.from_rows([row[:4] for row in rows])
    basis = left_kernel((image @ g4).transpose())
    (p, q), (_, r) = (basis @ g4 @ basis.transpose()).entries
    return p, q, r


def hnf_block_has_root(e: Embedding) -> bool:
    """Root check of the Hermite complement block.

    For coefficients this large Fincke-Pohst on an unreduced block basis
    does not finish, so the oracle is the Hermite form route instead.
    """
    p, q, r = hermite_block_gram(e.matrix.entries)
    assert p < 0 and p * r > q * q and p % 2 == r % 2 == 0
    block = TranscendentalForm(-p // 2, -r // 2, -q)
    return represents_one(block.a, block.c, block.b)


def test_block_defect_on_coefficients_beyond_10_to_30():
    rng = random.Random(307)
    forms = []
    while len(forms) < 30:
        a, b = rng.randint(10**30, 10**31), rng.randint(10**30, 10**31)
        c = rng.randint(-2 * a, 2 * a)
        if 4 * a * b - c * c > 0 and parity_class(TranscendentalForm(a, b, c)) != "IV":
            forms.append(TranscendentalForm(a, b, c))
    while len(forms) < 40:
        # represents 1, so its c-even complement has a root
        t = moved(TranscendentalForm(1, rng.randint(10**30, 10**31), 0), random_sl2(rng, 30))
        forms.append(t)
    seen = set()
    for t in forms:
        e = written_down_embedding(t)
        small, rows = source_form(e), e.matrix.entries
        found = defect(small, rows, formula_basis(e))
        assert found == oracle_defect(small, rows, hnf_block_has_root), (t.a, t.b, t.c)
        # the c-odd and c-even complements have a root exactly when case_of
        # says the form does not cover through this embedding
        if parity_class(t) in ("II", "III"):
            assert (found == "root") == (case_of(t)[0] in ("III-2", "III-3")), (t.a, t.b, t.c)
        bumped = [list(row) for row in rows]
        bumped[1][1] += 1
        assert defect(small, bumped, formula_basis(e)) \
            == oracle_defect(small, bumped) == "pullback"
        seen.add(found)
    assert seen == {None, "root"}


def construction_form(construction: str, a: int, b: int, c: int, g) -> TranscendentalForm:
    """A form the construction applies to: (a, b, c) moved by g, its
    parities first bumped to the construction's class.

    With |c| below a and b the form is reduced, so its minimum is min(a, b)
    and no basis change makes a diagonal entry smaller.  The c-even
    construction embeds the normalized form (a, b odd).
    """
    if construction == "c-odd":
        a, c = a + a % 2, c | 1
    elif construction == "c-even":
        a, c = a | 1, c - c % 2
    else:
        a, b, c = a + a % 2, b + b % 2, c - c % 2
    t = moved(TranscendentalForm(a, b, c), g)
    return c_even_normalized(t)[0] if construction == "c-even" else t


def gram(k1, k2) -> tuple[int, int, int]:
    return pair(k1, k1), pair(k1, k2), pair(k2, k2)


def is_block_basis(rows, k1, k2) -> bool:
    """Whether k1, k2 pair to zero with both rows and their six 2 x 2 minors
    have gcd 1: their span is then saturated of rank 2 inside the rank-2
    kernel of rows of rank 2, so it is the whole complement block."""
    return not any(pair(row, k) for row in rows for k in (k1, k2)) and minor_gcd(k1, k2) == 1


@given(st.sampled_from(tuple(CONSTRUCTIONS)), st.integers(10**30, 10**31),
       st.integers(10**30, 10**31), st.integers(-10**29, 10**29), sl2_matrices(10**6))
def test_formula_complement_matches_the_kernel_search_property(construction, a, b, c, g):
    t = construction_form(construction, a, b, c, g)
    assert min(t.a, t.b) >= 10**30
    rows, (k1, k2) = table(construction, t)
    assert is_block_basis(rows, k1, k2)
    p, q, r = gram(k1, k2)
    xp, xq, xr = hermite_block_gram(rows)
    assert p * r - q * q == xp * xr - xq * xq == (4 if construction == "c-odd" else 1) * t.delta
    found = defect(t, [row + E8_ZEROS for row in rows], (k1, k2))
    assert found in (None, "root")
    has_root = found == "root"
    block = TranscendentalForm(-xp // 2, -xr // 2, -xq)
    assert has_root == represents_one(block.a, block.c, block.b)
    assert has_root == (construction == "c-even" and case_of(t)[0] != "III-1")
    block = TranscendentalForm(-p // 2, -r // 2, -q)
    assert has_root == represents_one(block.a, block.c, block.b)


def test_construction_table_knows_only_the_three_constructions():
    assert tuple(CONSTRUCTIONS) == ("c-odd", "c-even", "all-even")
    # an unknown name has no basis: replay passes None, and the defect
    # check refuses it (test_replay_rejects_an_unknown_construction)
    t = TranscendentalForm(2, 3, 1)
    e = written_down_embedding(t)
    assert defect(t, e.matrix.entries, formula_basis(e)) is None
    with pytest.raises(VerificationError, match="construction"):
        defect(t, e.matrix.entries, None)


# Each construction's parity class, as (a, b, c) in terms of free integers
# (x, y, z); c-odd needs a or b even.
PARITY_CLASSES = {
    "c-odd, a even": ("c-odd", lambda x, y, z: (2 * x, y, 2 * z + 1)),
    "c-odd, b even": ("c-odd", lambda x, y, z: (x, 2 * y, 2 * z + 1)),
    "c-even": ("c-even", lambda x, y, z: (2 * x + 1, 2 * y + 1, 2 * z)),
    "all-even": ("all-even", lambda x, y, z: (2 * x, 2 * y, 2 * z)),
}


def minor(x, y, i: int, j: int) -> int:
    return x[i] * y[j] - x[j] * y[i]


def stated_gram(construction: str, t: TranscendentalForm) -> tuple[int, int, int]:
    """The Gram matrix of the complement basis, as the comment above
    COMPLEMENTS states it."""
    a, b, c = t.a, t.b, t.c
    if construction == "c-odd":
        s = (c - a * b - 1) // 2
        return -8 * a, 2 * (2 * a * b - c), 4 * b * s
    if construction == "c-even":
        return -2 * a, 2 * a - c, -2 * (a + b - c)
    return -2 * b, -c, -2 * a


def assert_complement_identities(parity: str, tamper=None, tamper_rows=None) -> None:
    """The construction's rows and closed-form complement fit for every form
    of the parity class.

    After the substitution every entry of the rows and of the basis (k1, k2)
    is a polynomial in (x, y, z) of degree at most 2 in each variable (b * s
    is the worst), so every pairing, Gram entry and 2 x 2 minor below has
    degree at most d = 4 in each.  A polynomial of degree <= d in each
    variable that vanishes on a (d + 1)^3 grid is zero, so these identities
    hold for every (x, y, z).  The grid keeps the forms definite.  ``tamper``
    and ``tamper_rows``, if given, map the table's basis and rows to the
    ones checked.

    The identities: the rows pull (2a, c, 2b) back; k1, k2 pair to zero with
    both rows; their Gram matrix is the stated one; and fixed minors prove
    the gcd of the minors 1, so (k1, k2) is saturated, hence the whole
    complement block, and the rows are primitive.  For c-odd, minor (1, 3)
    of (k1, k2) is 2 and minor (2, 3) is ab - 1, odd as ab is even; for the
    others minor (0, 2) is 1.  The rows have minor (1, 3) = 1 (c-odd) or
    minor (0, 2) = +-1.
    """
    construction, substitute = PARITY_CLASSES[parity]
    d = 4
    for x, y, z in itertools.product(range(5, 6 + d), range(5, 6 + d), range(d + 1)):
        t = TranscendentalForm(*substitute(x, y, z))
        rows, basis = table(construction, t)
        rows = rows if tamper_rows is None else tamper_rows(*rows)
        u, v = rows
        k1, k2 = basis if tamper is None else tamper(*basis)
        assert gram(u, v) == (2 * t.a, t.c, 2 * t.b), ("pullback", t)
        assert [pair(row, k) for row in rows for k in (k1, k2)] == [0] * 4, ("pairing", t)
        assert gram(k1, k2) == stated_gram(construction, t), ("gram", t)
        if construction == "c-odd":
            assert (minor(k1, k2, 1, 3), minor(k1, k2, 2, 3)) == (2, t.a * t.b - 1), ("minor", t)
            assert (t.a * t.b - 1) % 2 == 1
            assert minor(u, v, 1, 3) == 1, ("rows", t)
        else:
            assert minor(k1, k2, 0, 2) == 1, ("minor", t)
            assert abs(minor(u, v, 0, 2)) == 1, ("rows", t)


@pytest.mark.parametrize("parity", sorted(PARITY_CLASSES))
def test_formula_complement_fits_every_form_of_its_parity(parity):
    assert_complement_identities(parity)


@pytest.mark.parametrize("parity", sorted(PARITY_CLASSES))
@pytest.mark.parametrize("tamper, check", [
    (lambda k1, k2: (k1, tuple(x + y for x, y in zip(k1, k2))), "gram"),   # still a basis
    (lambda k1, k2: ((k1[0] + 1,) + k1[1:], k2), "pairing"),
    (lambda k1, k2: (k1, tuple(2 * x for x in k2)), "gram"),
])
def test_complement_identities_catch_a_tampered_formula(parity, tamper, check):
    with pytest.raises(AssertionError, match=check):
        assert_complement_identities(parity, tamper)


# Entry j of row i (u or v) of each parity class's construction, for every
# entry that is not 0 at a sample form: the entries that are 0 there are 0
# for every form, and have no sign to flip
_ROW_ENTRIES = [(parity, i, j) for parity in sorted(PARITY_CLASSES) for i in range(2)
                for j in range(4)
                if table(PARITY_CLASSES[parity][0],
                         TranscendentalForm(*PARITY_CLASSES[parity][1](5, 6, 1)))[0][i][j]]


@pytest.mark.parametrize("parity, i, j", _ROW_ENTRIES)
def test_complement_identities_catch_a_sign_flipped_row(parity, i, j):
    # the identities are what proves each construction, now that
    # `embedding_certificate` only builds: a sign flipped in one entry of
    # u or of v must break the pullback or the rows' fixed minor
    def tamper_rows(*rows):
        rows = [list(row) for row in rows]
        rows[i][j] = -rows[i][j]
        return tuple(map(tuple, rows))

    with pytest.raises(AssertionError, match="pullback|rows"):
        assert_complement_identities(parity, tamper_rows=tamper_rows)


def test_certify_and_replay_never_search_the_kernel():
    # every embedding certify writes replays through its own construction's
    # closed-form complement, the only complement replay computes
    embedded = 0
    for triple in box_triples(12, 12, -12, 12):
        t = TranscendentalForm(*triple)
        label = case_of(t)[0]
        cert = embedding_certificate("all-even", t) if label == "I" else certify(t, label)
        if cert.kind == "explicit-embedding":
            verify_classification(t, Classification(label, True, t.delta, cert))
            embedded += 1
    assert embedded == 2343


@pytest.mark.parametrize("triple", [(2, 3, 1), (2, 3, 2), (2, 2, 2), (5, 8, -3)])
def test_replay_rejects_a_matrix_that_misnames_its_construction(triple):
    # swapping u1, u2 and v1, v2 is an isometry of U + U(2): the matrix
    # stays a valid primitive embedding, but it is not the construction
    # its record names, so the named closed-form complement does not fit
    t = TranscendentalForm(*triple)
    cert = (embedding_certificate("all-even", t) if case_of(t)[0] == "I"
            else classify(t).certificate)
    moved = tuple(tuple(row[i] for i in (1, 0, 3, 2)) + row[4:] for row in cert.matrix)
    assert moved != cert.matrix
    e = Embedding(to_lattice(TranscendentalForm(*cert.normalized)), LAMBDA,
                  IntMatrix.from_rows(moved))
    assert validate(e) and is_primitive(e)
    with pytest.raises(VerificationError, match="construction"):
        ExplicitEmbedding(cert.construction, cert.normalized, cert.basis_change,
                          moved, 1, ()).replay(t)


def test_replay_rejects_an_unknown_construction():
    # from_dict refuses the name; a record built directly reaches replay
    t = TranscendentalForm(2, 3, 1)
    cert = classify(t).certificate
    for construction in ("bogus", None, "C-ODD", ["c-odd"]):
        with pytest.raises(VerificationError, match="construction"):
            replace(cert, construction=construction).replay(t)


def test_block_root_check_verifies_its_guess():
    # (1, 3, 0) represents 1, so its c-even complement has a root: k1 itself;
    # a basis that is not B is refused, even where B has a root
    t = TranscendentalForm(1, 3, 0)
    rows, (k1, k2) = table("c-even", t)
    assert pair(k1, k1) == -2
    rows = [row + E8_ZEROS for row in rows]
    doubled = tuple(2 * x for x in k1)
    bumped = (k1[0] + 1,) + k1[1:]
    for guess in ((doubled, k2), (k1, k1), (bumped, k2)):
        assert not is_block_basis(rows, *guess)
        with pytest.raises(VerificationError, match="construction"):
            defect(t, rows, guess)
    assert defect(t, rows, (k1, k2)) == "root"
