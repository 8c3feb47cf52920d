"""The six-way classification and its replayable certificates."""

import ast
import itertools
import json
import math
import random
import re
import sys
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from k3cover import classifier, cli, quadforms, vinberg
from k3cover.classifier import (
    ABSENCE_SLICES,
    CASES,
    COMPLEMENTS,
    CONSTRUCTIONS,
    Certificate,
    Classification,
    ExhaustiveAbsence,
    ExplicitEmbedding,
    KeumCitation,
    ParityObstruction,
    VinbergWitness,
    _embedding_defect,
    case_of,
    certificate_from_dict,
    certify,
    classify,
    embedding_certificate,
    verify_classification,
)
from k3cover.cli import _scan_line
from k3cover.embeddings import Embedding, is_primitive, orthogonal_complement, validate
from k3cover.errors import VerificationError
from k3cover.intmat import IntMatrix, standard_lattice, to_lattice
from k3cover.lattices import TranscendentalForm, _moved
from k3cover.shortvec import has_norm

from conftest import (
    EqualsEveryType,
    GRID,
    LAMBDA,
    NameRaises,
    ONE_FORM_PER_CASE,
    box_triples,
    c_even_normalized,
    compose,
    enumerate_P_slice,
    hostile_values,
    moved,
    nested,
    parity_class,
    random_sl2,
    replace,
    sl2_matrices,
    written_down_embedding,
)

# each form's (case, covers), in the case order of ONE_FORM_PER_CASE
FROZEN_CASES = dict(zip(ONE_FORM_PER_CASE, (("I", True), ("II", True), ("III-1", True),
                                            ("III-2", True), ("III-3", False), ("IV", False))))

EXPECTED_KIND = {
    "I": "keum-citation",
    "II": "explicit-embedding",
    "III-1": "explicit-embedding",
    "III-2": "vinberg-witness",
    "III-3": "exhaustive-absence",
    "IV": "parity-obstruction",
}


def test_case_of_frozen():
    for triple, expected in FROZEN_CASES.items():
        assert case_of(TranscendentalForm(*triple)) == expected


def test_case_table_names_exactly_the_certificate_kinds():
    named = {kind for _, kinds in CASES.values() for kind in kinds}
    assert named == {cert.kind for cert in Certificate.__args__}
    assert len(Certificate.__args__) == 5


CERTIFICATES_DOC = Path(__file__).resolve().parents[1] / "docs" / "certificates.md"


def test_certificates_doc_names_every_integer_field():
    """docs/certificates.md's list of the fields that must hold JSON integers
    is every certificate class's fields but `construction`, a string."""
    text = CERTIFICATES_DOC.read_text(encoding="utf-8")
    listed = re.search(r"Every integer field of every certificate kind \((.*?)\)", text, re.S)
    named = re.findall(r"`(\w+)`", listed.group(1))
    fields = {name for cls in Certificate.__args__ for name in cls.__slots__}
    assert len(named) == len(set(named))
    assert set(named) == fields - {"construction"}


# each shape of classifier.FIELDS, as a parsed JSON value must have it
_SHAPE_OF = {
    "name": lambda value: type(value) is str,
    "int": lambda value: type(value) is int,
    "ints": lambda value: type(value) is list and all(type(x) is int for x in value),
    "rows": lambda value: type(value) is list and all(
        type(row) is list and all(type(x) is int for x in row) for row in value),
}


@pytest.mark.parametrize("kind", list(classifier.FIELDS))
def test_certificates_doc_examples_follow_the_field_table(kind):
    """The JSON example under each kind's heading in docs/certificates.md has
    the keys of `classifier.FIELDS`, in its order after ``kind``, and each
    value the shape the table states."""
    text = CERTIFICATES_DOC.read_text(encoding="utf-8")
    section = re.search(rf"^## {re.escape(kind)}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    example = json.loads(re.search(r"```json\n(.*?)```", section.group(1), re.S).group(1))
    fields = classifier.FIELDS[kind]
    assert list(example) == ["kind", *fields] and example["kind"] == kind
    for name, shape in fields.items():
        assert _SHAPE_OF[shape](example[name]), (name, shape, example[name])


def test_grid_case_structure():
    for t in GRID:
        label, covers = case_of(t)
        assert covers == (label in ("I", "II", "III-1", "III-2"))
        if label == "III-3":
            assert t.delta in (4, 8, 16)
        assert label.split("-")[0] == parity_class(t)
        parities = (t.a % 2, t.b % 2, t.c % 2)
        if parities == (0, 0, 0):
            assert label == "I" and covers
        if parities == (1, 1, 1):
            assert label == "IV" and not covers


@given(st.integers(1, 10**6), sl2_matrices(10**15))
def test_case_of_is_invariant_for_moved_unit_forms_property(n, g):
    # (1, n, 0) represents 1, so it is III-2 or III-3 in every basis
    t = TranscendentalForm(1, n, 0)
    assert case_of(moved(t, g)) == case_of(t)


@st.composite
def small_forms(draw) -> TranscendentalForm:
    a, b = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    c_max = math.isqrt(4 * a * b - 1)
    return TranscendentalForm(a, b, draw(st.integers(-c_max, c_max)))


@given(small_forms(), sl2_matrices(10**15))
def test_case_of_is_invariant_under_large_basis_changes_property(t, g):
    assert case_of(moved(t, g)) == case_of(t)


def test_normalize_case_III():
    # the normalized form and basis change that `_c_even_fields` records
    assert c_even_normalized(TranscendentalForm(2, 1, 0))[0] == TranscendentalForm(9, 3, 10)
    assert c_even_normalized(TranscendentalForm(1, 2, 2))[0] == TranscendentalForm(5, 13, 16)
    assert c_even_normalized(TranscendentalForm(1, 1, 0))[0] == TranscendentalForm(1, 1, 0)
    for t in GRID:
        if case_of(t)[0].startswith("III"):
            n, g = c_even_normalized(t)
            assert moved(t, g) == n
            assert n.a % 2 == 1 and n.b % 2 == 1 and n.c % 2 == 0
            assert n.delta == t.delta
            assert c_even_normalized(n) == (n, (1, 0, 0, 1))


def test_embedding_constructors_frozen():
    e = written_down_embedding(TranscendentalForm(1, 2, 1))
    assert e.matrix.to_lists() == [
        [1, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    ]
    assert validate(e) and is_primitive(e)

    n = c_even_normalized(TranscendentalForm(2, 3, 2))[0]
    assert n == TranscendentalForm(15, 7, 20)
    e = written_down_embedding(n)
    assert e.matrix.to_lists() == [
        [1, 15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 5, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    ]
    assert validate(e) and is_primitive(e)


def test_classify_frozen_cases():
    for triple, (label, covers) in FROZEN_CASES.items():
        t = TranscendentalForm(*triple)
        cls = classify(t)
        assert cls.case_label == label
        assert cls.covers == covers
        assert cls.delta == t.delta
        assert cls.certificate.kind == EXPECTED_KIND[label]
        verify_classification(t, cls)


def test_witness_certificate_content():
    cls = classify(TranscendentalForm(1, 3, 0))
    cert = cls.certificate
    assert isinstance(cert, VinbergWitness)
    assert cert.n == 3
    assert cert.vector == (4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1)


def test_absence_certificate_content():
    cls = classify(TranscendentalForm(1, 1, 0))
    cert = cls.certificate
    assert isinstance(cert, ExhaustiveAbsence)
    assert cert.n == 1
    assert cert.slices == ABSENCE_SLICES == tuple(range(3, 15))


def test_obstruction_certificate_content():
    cls = classify(TranscendentalForm(1, 1, 1))
    cert = cls.certificate
    assert isinstance(cert, ParityObstruction)
    assert cert.norms_mod_4 == (2, 2)
    assert cert.pairing_mod_2 == 1


def test_json_round_trip():
    for triple in FROZEN_CASES:
        t = TranscendentalForm(*triple)
        cls = classify(t)
        data = json.loads(json.dumps(cls.to_dict()))
        back = Classification.from_dict(data)
        assert back == cls
        verify_classification(t, back)


def test_certificate_from_dict_rejects_unknown_kind():
    # the kinds are looked up in a table: a kind that is not a string, an
    # unhashable one included, is as unknown as a wrong name; only a string
    # or None is quoted, anything else is named by its type
    for kind, named in (("handshake", "'handshake'"), (None, "None"), (5, "of type int"),
                        (["keum-citation"], "of type list"),
                        ({"kind": "keum-citation"}, "of type dict")):
        with pytest.raises(ValueError, match=f"^unknown certificate kind {re.escape(named)}$"):
            certificate_from_dict({"kind": kind, "halved": [1, 1, 1]})
    with pytest.raises(ValueError):
        certify(TranscendentalForm(1, 1, 1), "V")


def _all_even_classification(t: TranscendentalForm) -> Classification:
    """The case I classification of t, backed by the all-even embedding."""
    return replace(classify(t), certificate=embedding_certificate("all-even", t))


def test_all_even_embedding_backs_every_all_even_form():
    # the all-even complement block is -(b, c, a), all even: never a root
    checked = 0
    for a in range(2, 13, 2):
        for b in range(2, 13, 2):
            for c in range(-12, 13, 2):
                if 4 * a * b <= c * c:
                    continue
                t = TranscendentalForm(a, b, c)
                cls = _all_even_classification(t)
                assert cls.case_label == "I"
                assert cls.certificate.kind == "explicit-embedding", (t.a, t.b, t.c)
                assert cls.certificate.construction == "all-even"
                verify_classification(t, cls)
                checked += 1
    assert checked == 382


def _replay_tampered_embedding(**changes) -> None:
    t = TranscendentalForm(1, 2, 1)
    replace(classify(t).certificate, **changes).replay(t)


def test_complement_check_rejects_a_non_definite_block():
    # U sent onto the U summand leaves U(2) as the block, which is indefinite;
    # no record reaches this, as U is not positive definite: the kernel is
    # called at U's own (a, b, c) = (0, 0, 1)
    rows = ((1, 0) + (0,) * 10, (0, 1) + (0,) * 10)
    e = Embedding(standard_lattice("U"), LAMBDA, IntMatrix.from_rows(rows))
    assert validate(e) and is_primitive(e)
    # its true complement block: definiteness, not the basis check, refuses it
    message = "complement block in U + U(2) is not even and negative definite"
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        _embedding_defect(0, 0, 1, rows, ((0, 0, 1, 0), (0, 0, 0, 1)))


def _rejected_with(message: str):
    """Expect replay to refuse with exactly this message."""
    return pytest.raises(VerificationError, match=f"^{re.escape(message)}$")


def _first_slice_holding(n: int) -> int | None:
    for m in ABSENCE_SLICES:
        if -n in vinberg.slice_norms(m):
            return m
    return None


def test_absence_breach_matches_a_loop_over_the_slices():
    try:
        breaches = {n: classifier._absence_breach(n) for n in range(1, 31)}
        assert breaches == {n: _first_slice_holding(n) for n in range(1, 31)}
        assert {n for n, m in breaches.items() if m is None} == vinberg.ABSENT
        assert breaches[3] == 4      # slice 3 is empty, slice 4 holds norm -3
    finally:
        classifier._absence_breach.cache_clear()


def test_absence_replay_looks_up_the_slices_once_per_n(monkeypatch):
    lookups = []

    def counted(m):
        lookups.append(m)
        return vinberg.slice_norms(m)

    classifier._absence_breach.cache_clear()
    monkeypatch.setattr(classifier, "slice_norms", counted)
    try:
        t = TranscendentalForm(1, 1, 0)
        verify_classification(t, classify(t))
        assert lookups == list(ABSENCE_SLICES)
        sheared = moved(t, (2, 1, 1, 1))
        verify_classification(sheared, classify(sheared))
        assert lookups == list(ABSENCE_SLICES)
        t = TranscendentalForm(1, 2, 0)
        verify_classification(t, classify(t))
        assert lookups == 2 * list(ABSENCE_SLICES)
    finally:
        classifier._absence_breach.cache_clear()


def test_absence_replay_names_the_first_slice_that_holds_the_norm(monkeypatch):
    # no slice holds -1; made to, slices 9 and 11 are refused by the first
    classifier._absence_breach.cache_clear()
    monkeypatch.setattr(classifier, "slice_norms",
                        lambda m: vinberg.slice_norms(m) | ({-1} if m in (9, 11) else set()))
    try:
        with _rejected_with("slice 9 contains a vector of norm -1"):
            ExhaustiveAbsence(n=1, slices=ABSENCE_SLICES).replay(TranscendentalForm(1, 1, 0))
    finally:
        classifier._absence_breach.cache_clear()


@pytest.mark.parametrize("g, message", [
    ((1, 1, 1, 1), "malformed embedding certificate: matrix must have determinant 1"),
    ((2, 1, 1, 1), "recorded basis change does not reach the recorded form"),
], ids=["determinant 0", "misses the form"])
def test_replay_refuses_a_basis_change_that_does_not_hold(g, message):
    # the fields are built with no check on g; replay is the one check
    cert = ExplicitEmbedding(*classifier._embedding_fields("c-odd", 1, 2, 1, g))
    assert cert.basis_change == g
    with _rejected_with(message):
        _verify_ii(certificate=cert)


def _record(triple) -> dict:
    """The JSON record of the form's classification, as parsing reads it."""
    return json.loads(json.dumps(classify(TranscendentalForm(*triple)).to_dict()))


def _edited_record(triple, edit) -> Classification:
    """The JSON record of the form, edited in place and parsed back."""
    data = _record(triple)
    edit(data)
    return Classification.from_dict(data)


def _bump_matrix_entry(data: dict) -> None:
    data["certificate"]["matrix"][0][1] += 6


def _verifies(triple, edit):
    """A probe that verifies the edited JSON record of ``triple`` against
    the form it is given."""
    return lambda t: verify_classification(t, _edited_record(triple, edit))


def _set_certificate(**fields):
    """An edit that sets fields of a record's certificate."""
    return lambda data: data["certificate"].update(fields)


def _edited_ii(edit, message):
    """A probe: the case II record of (1, 2, 1), edited, against (1, 2, 1)."""
    return (1, 2, 1), _verifies((1, 2, 1), edit), message


def _quadrupled(data: dict) -> None:
    # (1, 2, 1) becomes (4, 8, 4), case I, with its rows doubled: the
    # pullback still matches, but the rows span an index-4 sublattice
    data.update(case="I", delta=112)
    certificate = data["certificate"]
    certificate["normalized"] = [4 * x for x in certificate["normalized"]]
    certificate["matrix"] = [[2 * x for x in row] for row in certificate["matrix"]]


def _c_even_record_of_a_unit_form(t: TranscendentalForm) -> None:
    # (1, 3, 0) represents 1, so its c-even complement has a root; no label
    # of such a form takes an embedding, so the parsed certificate itself
    # is replayed
    record = json.loads(json.dumps(embedding_certificate("c-even", t).to_dict()))
    certificate_from_dict(record).replay(t)


_MALFORMED = "malformed certificate: "
_NOT_ELEVEN_INTEGERS = "witness vector does not have 11 integer coordinates"
_NOT_2_BY_12 = "malformed embedding certificate: matrix is not 2 x 12"
_NOT_TWICE = "halving certificate: twice the halved form is not the input"
_NO_OBSTRUCTION = ("recorded or recomputed norm residues and pairing parity"
                   " do not constitute an obstruction")

# One probe per replay guard that a record or a certificate can reach: the
# form it is replayed against, the replay, and the guard's whole message.
# The first two records verify if their guard is removed.  The embedding
# probes follow replay's order of guards; the block definiteness guard has
# none, as no record reaches it (test_complement_check_rejects_a_non_definite_block).
REPLAY_GUARD_PROBES = {
    "basis change does not reach": ((1, 2, 1), lambda t: verify_classification(
        t, _edited_record((1, 4, 1), lambda d: d.update(delta=7))),
        "recorded basis change does not reach the recorded form"),
    "does not pull the target form back": ((1, 2, 1), lambda t: verify_classification(
        t, _edited_record((1, 2, 1), _bump_matrix_entry)),
        "matrix does not pull the target form back to the source"),
    "halving": ((2, 2, 1), KeumCitation((1, 1, 0)).replay,
                "halving certificate: twice the halved form is not the input"),
    "ten coordinates": ((1, 3, 0), VinbergWitness(3, (4, 2, 1, 1, 1, 1, 1, 1, 1, 1)).replay,
                        _NOT_ELEVEN_INTEGERS),
    "coordinate true": ((1, 3, 0), VinbergWitness(
        3, (4, 2, 1, 1, 1, 1, 1, 1, 1, 1, True)).replay, _NOT_ELEVEN_INTEGERS),
    "witness norm": ((1, 3, 0), VinbergWitness(4, (4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1)).replay,
                     "witness norm does not match the discriminant"),
    "witness claimed": ((1, 1, 0), VinbergWitness(1, (1,) + (0,) * 10).replay,
                        "witness claimed for a discriminant with none"),
    "wrong norm": ((1, 3, 0), VinbergWitness(3, (5, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1)).replay,
                   "witness vector has the wrong norm"),
    # norm -3, but its tail is not sorted
    "outside the region": ((1, 3, 0), VinbergWitness(
        3, (4, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1)).replay,
        "witness vector lies outside the region"),
    "absence norm": ((1, 1, 0), ExhaustiveAbsence(2, ABSENCE_SLICES).replay,
                     "absence norm does not match the discriminant"),
    "absence claimed": ((1, 3, 0), ExhaustiveAbsence(3, ABSENCE_SLICES).replay,
                        "absence claimed for a discriminant that has a witness"),
    "slices": ((1, 1, 0), ExhaustiveAbsence(1, tuple(range(3, 14))).replay,
               "absence transcript does not cover the required slices"),
    "norm residues": ((1, 2, 1), ParityObstruction((2, 2), 1).replay, _NO_OBSTRUCTION),
    "pairing parity": ((1, 3, 2), ParityObstruction((2, 2), 1).replay, _NO_OBSTRUCTION),
    "do not constitute": ((2, 1, 1), ParityObstruction((0, 2), 1).replay, _NO_OBSTRUCTION),
    "disagrees with recomputed": ((1, 2, 1), lambda t: verify_classification(
        t, replace(classify(t), case_label="IV")),
        "label 'IV' disagrees with recomputed 'II'"),
    "covering verdict": ((1, 3, 0), lambda t: verify_classification(
        t, replace(classify(t), covers=False)),
        "covering verdict disagrees with the recomputed case"),
    "discriminant": ((1, 3, 0), lambda t: verify_classification(
        t, replace(classify(t), delta=16)),
        "recorded discriminant disagrees with the form"),
    "cannot back case": ((1, 3, 0), lambda t: verify_classification(
        t, Classification("III-2", True, 12, ParityObstruction((2, 2), 1))),
        "certificate kind 'parity-obstruction' cannot back case 'III-2'"),
    "diagonal": _edited_ii(
        _set_certificate(normalized=[0, 5, 1]),
        "malformed embedding certificate: diagonal coefficients a, b must be positive"),
    "not positive definite": _edited_ii(
        _set_certificate(normalized=[1, 2, 3]),
        "malformed embedding certificate: form must be positive definite (4ab - c^2 > 0)"),
    "determinant": _edited_ii(
        _set_certificate(basis_change=[2, 0, 0, 2]),
        "malformed embedding certificate: matrix must have determinant 1"),
    "not 2 x 12": _edited_ii(
        lambda d: [row.pop() for row in d["certificate"]["matrix"]],
        "malformed embedding certificate: matrix is not 2 x 12"),
    "E8(2) column": _edited_ii(
        lambda d: d["certificate"]["matrix"][1].__setitem__(4, 1),
        "matrix uses the E8(2) columns; an embedding must lie in U + U(2)"),
    "imprimitive rows": ((4, 8, 4), _verifies((1, 2, 1), _quadrupled),
                         "embedding is not primitive"),
    "misnamed construction": _edited_ii(
        _set_certificate(construction="c-even"),
        "matrix does not fit the complement of its named construction"),
    "unknown construction": _edited_ii(
        _set_certificate(construction="bogus"),
        "matrix does not fit the complement of its named construction"),
    "minor_gcd": _edited_ii(_set_certificate(minor_gcd=2), "embedding is not primitive"),
    "root": ((1, 3, 0), _c_even_record_of_a_unit_form,
             "orthogonal complement contains a norm -2 vector"),
    "minus_two": _edited_ii(_set_certificate(minus_two=[[0] * 12]),
                            "orthogonal complement contains a norm -2 vector"),
}


def _refitted(u, v):
    """A probe: the case II record of (2, 1, 1) with its rows replaced by
    another primitive embedding of (2, 1, 1), which the c-odd complement
    basis k1, k2 fails to fit at one pairing only."""
    edit = _set_certificate(matrix=[[*u] + [0] * 8, [*v] + [0] * 8])
    return ((2, 1, 1), _verifies((2, 1, 1), edit),
            "matrix does not fit the complement of its named construction")


def _built_iv(label, covers, delta, certificate, message):
    """A probe: the classification of these fields against (1, 1, 1), case IV."""
    return ((1, 1, 1), lambda t: verify_classification(
        t, Classification(label, covers, delta, certificate or classify(t).certificate)), message)


# More probes of guards that REPLAY_GUARD_PROBES already reaches: through
# another operand of the guard's condition, on another form or value, or on
# an object built in code where the guard's own probe parses a record
_MORE_GUARD_PROBES = {
    "E8(2) column of u": _edited_ii(lambda d: d["certificate"]["matrix"][0].__setitem__(4, 1),
        "matrix uses the E8(2) columns; an embedding must lie in U + U(2)"),
    "one row": _edited_ii(lambda d: d["certificate"]["matrix"].pop(), _NOT_2_BY_12),
    # the row of 11 would fail the E8(2) check next, with another message
    "first row of 11": _edited_ii(lambda d: d["certificate"]["matrix"][0].pop(), _NOT_2_BY_12),
    "second row of 11": _edited_ii(lambda d: d["certificate"]["matrix"][1].pop(), _NOT_2_BY_12),
    "u.k1": _refitted((-3, 0, 1, 1), (-1, -1, 0, -1)),
    "u.k2": _refitted((-3, -2, 2, -1), (-1, -1, 0, -1)),
    "v.k1": _refitted((-2, -1, 1, 0), (3, -1, 2, 1)),
    "v.k2": _refitted((-1, 0, 1, 1), (-3, -1, -1, 1)),
    # replay used to convert each entry with int(), so 1.0 passed as 1
    "matrix entry 1.0": ((1, 2, 1), lambda t: _replay_tampered_embedding(
        matrix=((1.0, 1, -1) + (0,) * 9, (1, 2, 0, 1) + (0,) * 8)),
        "malformed certificate: matrix must hold integers"),
    # a certificate listing roots must never verify as a covering
    "roots listed": ((1, 2, 1), lambda t: _replay_tampered_embedding(minus_two=((1,) * 10,)),
                     "orthogonal complement contains a norm -2 vector"),
    # a 2-coordinate vector raised ValueError from vinberg.norm
    "two coordinates": ((1, 5, 0), VinbergWitness(5, (3, 2)).replay, _NOT_ELEVEN_INTEGERS),
    # delta 7: n = 1 is 7 // 4, but 4 does not divide 7
    "witness at an odd delta": ((1, 2, 1), VinbergWitness(1, (1,) + (0,) * 10).replay,
                                "witness norm does not match the discriminant"),
    "absence at an odd delta": ((1, 2, 1), ExhaustiveAbsence(1, ABSENCE_SLICES).replay,
                                "absence norm does not match the discriminant"),
    # at (1, 1, 1) only the recorded residues are wrong; the "do not
    # constitute" probe's form has wrong residues of its own as well
    "norms (0, 2)": ((1, 1, 1), ParityObstruction((0, 2), 1).replay, _NO_OBSTRUCTION),
    "pairing even": ((1, 1, 1), ParityObstruction((2, 2), 0).replay, _NO_OBSTRUCTION),
    "halved (1, 1, 0) of (2, 2, 2)": ((2, 2, 2), KeumCitation((1, 1, 0)).replay, _NOT_TWICE),
    "halved (1, 1, 1) of (2, 2, 1)": ((2, 2, 1), KeumCitation((1, 1, 1)).replay, _NOT_TWICE),
    "wrong norm, tail 2, 2": ((1, 3, 0), VinbergWitness(
        3, (4, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1)).replay, "witness vector has the wrong norm"),
    "witness norm 5": ((1, 3, 0), VinbergWitness(5, (6, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1)).replay,
                       "witness norm does not match the discriminant"),
    "first three slices": ((1, 1, 0), ExhaustiveAbsence(1, ABSENCE_SLICES[:3]).replay,
                           "absence transcript does not cover the required slices"),
    "label II at IV": _built_iv("II", True, 3, None, "label 'II' disagrees with recomputed 'IV'"),
    "covering case IV": _built_iv("IV", True, 3, None,
                                  "covering verdict disagrees with the recomputed case"),
    "discriminant 5 of (1, 1, 1)": _built_iv("IV", False, 5, None,
                                             "recorded discriminant disagrees with the form"),
    "citation backing case IV": _built_iv("IV", False, 3, KeumCitation((0, 0, 0)),
                                          "certificate kind 'keum-citation' cannot back case 'IV'"),
    "determinant 4": ((1, 2, 1), lambda t: _replay_tampered_embedding(basis_change=(2, 0, 0, 2)),
                      "malformed embedding certificate: matrix must have determinant 1"),
    "diagonal 0": ((1, 2, 1), lambda t: _replay_tampered_embedding(normalized=(0, 2, 1)),
                   "malformed embedding certificate: diagonal coefficients a, b must be positive"),
}


# Certificates and classifications built directly, not parsed: each field
# holds a value that merely converts to the int (or bool) replay wants, and
# replay accepted every one of them as that value.  Each is refused with the
# whole message of the field's own gate.
_COERCED_PROBES = {
    "absence n 1.0": ((1, 1, 0), ExhaustiveAbsence(1.0, ABSENCE_SLICES).replay,
                      _MALFORMED + "n must be an integer, not float"),
    "absence n True": ((1, 1, 0), ExhaustiveAbsence(True, ABSENCE_SLICES).replay,
                       _MALFORMED + "n must be an integer, not bool"),
    "halved 1.0": ((2, 2, 0), KeumCitation((1.0, 1, 0)).replay,
                   _MALFORMED + "halved must hold integers"),
    "residues 2.0, True": ((1, 1, 1), ParityObstruction((2.0, 2), True).replay,
                           _MALFORMED + "norms_mod_4 must hold integers"),
    "witness n 3.0": ((1, 3, 0), VinbergWitness(3.0, (4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1)).replay,
                      _MALFORMED + "n must be an integer, not float"),
    # a dict iterates its keys, here a witness of norm -344
    "witness vector dict": ((1, 344, 0), VinbergWitness(
        344, dict.fromkeys((27, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1))).replay,
        _MALFORMED + "vector must be a list"),
    "delta 4.0": ((1, 1, 0), lambda t: verify_classification(
        t, replace(classify(t), delta=4.0)), "delta must be an integer, not float"),
    "covers 0": ((1, 1, 0), lambda t: verify_classification(
        t, replace(classify(t), covers=0)), "covers must be true or false, not int"),
    # a certificate that is not one of the five classes
    "certificate None": ((1, 1, 0), lambda t: verify_classification(
        t, replace(classify(t), certificate=None)),
        "certificate of type NoneType is not a certificate object"),
    "certificate record dict": ((1, 1, 0), lambda t: verify_classification(
        t, replace(classify(t), certificate=classify(t).certificate.to_dict())),
        "certificate of type dict is not a certificate object"),
    "certificate kind str": ((1, 1, 0), lambda t: verify_classification(
        t, replace(classify(t), certificate="exhaustive-absence")),
        "certificate of type str is not a certificate object"),
    "minor_gcd True": ((1, 2, 1), lambda t: _replay_tampered_embedding(minor_gcd=True),
                       _MALFORMED + "minor_gcd must be an integer, not bool"),
    "normalized 1.0": ((1, 2, 1), lambda t: _replay_tampered_embedding(normalized=(1.0, 2, 1)),
                       _MALFORMED + "normalized must hold integers"),
    "basis_change 1.0": ((1, 2, 1), lambda t: _replay_tampered_embedding(
        basis_change=(1.0, 0, 0, 1)), _MALFORMED + "basis_change must hold integers"),
    "minus_two {}": ((1, 2, 1), lambda t: _replay_tampered_embedding(minus_two={}),
                     _MALFORMED + "minus_two must be a list"),
}


@pytest.mark.parametrize("triple, replay, message",
                         [*REPLAY_GUARD_PROBES.values(), *_MORE_GUARD_PROBES.values(),
                          *_COERCED_PROBES.values()],
                         ids=[*REPLAY_GUARD_PROBES, *_MORE_GUARD_PROBES, *_COERCED_PROBES])
def test_each_replay_guard_rejects_its_probe(triple, replay, message):
    with _rejected_with(message):
        replay(TranscendentalForm(*triple))


def _listed(certificate):
    """The certificate rebuilt with every tuple field as a list, and each
    tuple inside one, a matrix's rows, as a list too: as code may build it."""
    return type(certificate)(*[
        [list(x) if type(x) is tuple else x for x in value] if type(value) is tuple else value
        for value in (getattr(certificate, name) for name in type(certificate).__slots__)])


@pytest.mark.parametrize("triple", [*FROZEN_CASES, (123457, 234568, 99999),
                                    (234568, 123457, 99998)])
def test_replay_accepts_list_fields(triple):
    # parsing leaves tuples; a certificate built in code may hold lists,
    # which replay's gates let through as well
    t = TranscendentalForm(*triple)
    results = [classify(t)]
    if results[0].case_label == "I":
        results.append(_all_even_classification(t))
    for result in results:
        listed = _listed(result.certificate)
        values = [getattr(listed, name) for name in type(listed).__slots__]
        assert tuple not in map(type, values)
        assert all(tuple not in map(type, value) for value in values if type(value) is list)
        assert listed.to_dict() == result.certificate.to_dict()
        listed.replay(t)
        verify_classification(t, replace(result, certificate=listed))


def _bumped_listed_ii(t: TranscendentalForm) -> None:
    """The "does not pull the target form back" probe on a certificate built
    in code with list fields: the case II certificate of (1, 2, 1), listed,
    with the same matrix entry bumped."""
    result = classify(TranscendentalForm(1, 2, 1))
    certificate = _listed(result.certificate)
    certificate.matrix[0][1] += 6
    verify_classification(t, replace(result, certificate=certificate))


# One refusing row per certificate kind, by its name in REPLAY_GUARD_PROBES
# or _MORE_GUARD_PROBES, with a twin whose tuple fields are lists; the twin
# is refused with the row's own whole message
_LIST_FIELD_TWINS = {
    "halving": KeumCitation([1, 1, 0]).replay,
    "does not pull the target form back": _bumped_listed_ii,
    "wrong norm": VinbergWitness(3, [5, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]).replay,
    "slices": ExhaustiveAbsence(1, list(range(3, 14))).replay,
    "norms (0, 2)": ParityObstruction([0, 2], 1).replay,
}


@pytest.mark.parametrize("name", list(_LIST_FIELD_TWINS))
def test_a_list_field_twin_is_refused_as_its_row(name):
    triple, _, message = {**REPLAY_GUARD_PROBES, **_MORE_GUARD_PROBES}[name]
    with _rejected_with(message):
        _LIST_FIELD_TWINS[name](TranscendentalForm(*triple))


class _Liar(int):
    """An int that claims to equal everything."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = int.__hash__


class _LiarStr(str):
    """A str that claims to equal everything."""

    __eq__ = _Liar.__eq__
    __ne__ = _Liar.__ne__
    __hash__ = str.__hash__


class _TypeLiar(int, metaclass=EqualsEveryType):
    """An int that claims to equal everything, of a type that equals every
    type and hashes like int."""

    __eq__ = _Liar.__eq__
    __ne__ = _Liar.__ne__
    __hash__ = int.__hash__


class _NamelessStr(str, metaclass=NameRaises):
    """A str of a type whose __name__ raises."""


class _SameInt(int, metaclass=EqualsEveryType):
    """An int, every method inherited, of a type that equals every type."""


class _SameStr(str, metaclass=EqualsEveryType):
    """A str, every method inherited, of a type that equals every type."""


class _LooksEmpty(tuple):
    """A tuple that reports no entries, whatever it holds."""

    def __len__(self):
        return 0


class _RaisingDict(dict):
    """A dict whose own lookups raise."""

    def get(self, key, default=None):
        return 1 // 0

    def __getitem__(self, key):
        return 1 // 0


class _RaisingKey(str):
    """A str that hashes as str does and whose equality raises, so that a
    lookup in a dict holding it as a key raises when it meets it."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        return 1 // 0


def _with_raising_key(data: dict, key: str) -> dict:
    """The dict with its key ``key`` replaced by a `_RaisingKey`."""
    return {(_RaisingKey(k) if k == key else k): v for k, v in data.items()}


class _ClassRaises:
    """An object whose __class__ raises."""

    @property
    def __class__(self):
        return 1 // 0


class _ClaimsBool:
    """An object whose __class__ is bool and that claims to equal everything."""

    __class__ = property(lambda self: bool)
    __eq__ = _Liar.__eq__
    __ne__ = _Liar.__ne__
    __hash__ = object.__hash__


def _parse_iii_2(**fields) -> Classification:
    """Parse the JSON record of (1, 3, 0), case III-2, with fields replaced."""
    return Classification.from_dict({**_record((1, 3, 0)), **fields})


class _SkippedReplay(ExplicitEmbedding):
    """An explicit embedding whose replay checks nothing."""

    __slots__ = ()

    def replay(self, t):
        pass


class _SkippedParity(ParityObstruction, metaclass=EqualsEveryType):
    """A parity obstruction whose replay checks nothing, of a type that
    claims to equal every type."""

    __slots__ = ()

    def replay(self, t):
        pass


def _verify_shifting_ii() -> None:
    """Verify (1, 2, 1), case II, through a Classification subclass whose
    certificate reads as an embedding with an all-zero matrix three times,
    and then as an object whose replay checks nothing."""
    t = TranscendentalForm(1, 2, 1)
    zero = replace(classify(t).certificate, matrix=((0,) * 12,) * 2)
    reads = itertools.count()

    class _ShiftingClassification(Classification):
        __slots__ = ()
        certificate = property(lambda self: zero if next(reads) < 3
                               else SimpleNamespace(replay=lambda t: None))

    verify_classification(t, _ShiftingClassification("II", True, t.delta, zero))


def _verify_ii(**fields) -> None:
    """Verify the case II classification of (1, 2, 1) with fields replaced."""
    t = TranscendentalForm(1, 2, 1)
    verify_classification(t, replace(classify(t), **fields))


def _verify_ii_embedding(cls=ExplicitEmbedding, **fields) -> None:
    """Verify the case II classification of (1, 2, 1) with its certificate
    rebuilt as ``cls`` and the given fields replaced."""
    certificate = classify(TranscendentalForm(1, 2, 1)).certificate
    values = {name: getattr(certificate, name) for name in ExplicitEmbedding.__slots__}
    _verify_ii(certificate=cls(**{**values, **fields}))


# Values built in code, each of a subclass that a parsed record never holds
# and that lies about its value: replay accepted every one of them while it
# checked types by isinstance.  The next two lie about their type as well,
# through a metaclass, and passed while replay compared types by hash and
# ==.  The last three stand in for the classification itself, which replay
# took as given: the shifting subclass and the namespace were accepted, and
# the string raised AttributeError.  Replay now compares types by identity.
# The five after them are refused by parsing, which raised ZeroDivisionError
# on each while it named a kind by repr and looked a mapping up as given: a
# kind holding a str whose repr raises, and a dict whose lookups raise, as
# the record, as its certificate, and as a certificate alone.  Of the last
# five, the first two are covers values: one raised ZeroDivisionError and
# one was accepted while replay read covers by isinstance, which asks the
# value's own __class__.  The other three raised ZeroDivisionError while
# parsing looked a key up among keys not of type str: the record's, its
# certificate's, and a certificate's alone.  The last three are str values
# of a type whose metaclass makes __name__ raise, as the case, as the kind
# and as a record key: each raised ZeroDivisionError while the messages
# read type(x).__name__, which runs the metaclass's property.  The last two
# hold the record's own delta and case in a subclass of its type whose
# metaclass equals every type, which type(x) not in {int} would accept.
_FORGED_PROBES = {
    "residues and pairing that equal anything": (lambda: verify_classification(
        TranscendentalForm(1, 1, 1),
        Classification("IV", False, 3, ParityObstruction((_Liar(0), _Liar(0)), _Liar(0)))),
        "malformed certificate: norms_mod_4 must hold integers"),
    "delta that equals anything": (lambda: _verify_ii(delta=_Liar(5)),
                                   "delta must be an integer, not _Liar"),
    "minor_gcd that equals anything": (lambda: _verify_ii_embedding(minor_gcd=_Liar(7)),
                                       "malformed certificate: minor_gcd must be an integer,"
                                       " not _Liar"),
    "case that equals anything": (lambda: _verify_ii(case_label=_LiarStr("IV")),
                                  "case must be a string, not _LiarStr"),
    "minus_two that looks empty": (lambda: _verify_ii_embedding(
        minus_two=_LooksEmpty(((0,) * 12,))),
        "malformed certificate: minus_two must be a list"),
    "embedding subclass that skips replay": (lambda: _verify_ii_embedding(
        _SkippedReplay, minor_gcd=5),
        "certificate of type _SkippedReplay is not a certificate object"),
    "residues of a type that equals int": (lambda: verify_classification(
        TranscendentalForm(1, 1, 1),
        Classification("IV", False, 3, ParityObstruction((_TypeLiar(0), _TypeLiar(0)), 1))),
        "malformed certificate: norms_mod_4 must hold integers"),
    "obstruction of a type that equals every class": (lambda: verify_classification(
        TranscendentalForm(1, 1, 1),
        Classification("IV", False, 3, _SkippedParity((0, 0), 0))),
        "certificate of type _SkippedParity is not a certificate object"),
    "classification subclass whose certificate shifts": (
        _verify_shifting_ii,
        "classification of type _ShiftingClassification is not a Classification object"),
    "namespace with the four fields": (lambda: verify_classification(
        TranscendentalForm(1, 2, 1),
        SimpleNamespace(case_label="II", covers=True, delta=7,
                        certificate=classify(TranscendentalForm(1, 2, 1)).certificate)),
        "classification of type SimpleNamespace is not a Classification object"),
    "string": (lambda: verify_classification(TranscendentalForm(1, 2, 1), "x"),
               "classification of type str is not a Classification object"),
    "kind in a list, with a repr that raises": (
        lambda: _parse_iii_2(certificate={"kind": [_RaisingStr("x")]}),
        "malformed classification: unknown certificate kind of type list"),
    "kind in an object, with a repr that raises": (
        lambda: _parse_iii_2(certificate={"kind": {"k": _RaisingStr("y")}}),
        "malformed classification: unknown certificate kind of type dict"),
    "record whose lookups raise": (
        lambda: Classification.from_dict(_RaisingDict(_record((1, 3, 0)))),
        "malformed classification: record of type _RaisingDict is not a dict"),
    "certificate whose lookups raise": (
        lambda: _parse_iii_2(certificate=_RaisingDict(_record((1, 3, 0))["certificate"])),
        _MALFORMED + "certificate of type _RaisingDict is not a dict"),
    "certificate alone whose lookups raise": (
        lambda: certificate_from_dict(_RaisingDict(_record((1, 3, 0))["certificate"])),
        _MALFORMED + "certificate of type _RaisingDict is not a dict"),
    "covers whose __class__ raises": (lambda: _verify_ii(covers=_ClassRaises()),
                                      "covers must be true or false, not _ClassRaises"),
    "covers whose __class__ is bool": (lambda: _verify_ii(covers=_ClaimsBool()),
                                       "covers must be true or false, not _ClaimsBool"),
    "record key whose equality raises": (
        lambda: Classification.from_dict(_with_raising_key(_record((1, 3, 0)), "case")),
        "malformed classification: record key of type _RaisingKey is not a str"),
    "certificate key whose equality raises": (
        lambda: _parse_iii_2(certificate=_with_raising_key(_record((1, 3, 0))["certificate"],
                                                           "kind")),
        _MALFORMED + "certificate key of type _RaisingKey is not a str"),
    "certificate alone with a key whose equality raises": (
        lambda: certificate_from_dict(_with_raising_key(_record((1, 3, 0))["certificate"],
                                                        "kind")),
        _MALFORMED + "certificate key of type _RaisingKey is not a str"),
    "case of a type whose name raises": (lambda: _verify_ii(case_label=_NamelessStr("II")),
                                         "case must be a string, not _NamelessStr"),
    "kind of a type whose name raises": (
        lambda: _parse_iii_2(certificate={**_record((1, 3, 0))["certificate"],
                                          "kind": _NamelessStr("vinberg-witness")}),
        "malformed classification: unknown certificate kind of type _NamelessStr"),
    "record key of a type whose name raises": (
        lambda: Classification.from_dict({(_NamelessStr(k) if k == "case" else k): v
                                          for k, v in _record((1, 3, 0)).items()}),
        "malformed classification: record key of type _NamelessStr is not a str"),
    "delta of an int type that equals every type": (lambda: _verify_ii(delta=_SameInt(7)),
                                                    "delta must be an integer, not _SameInt"),
    "case of a str type that equals every type": (lambda: _verify_ii(case_label=_SameStr("II")),
                                                  "case must be a string, not _SameStr"),
}


@pytest.mark.parametrize("verify, message", _FORGED_PROBES.values(), ids=list(_FORGED_PROBES))
def test_replay_refuses_a_forged_value(verify, message):
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        verify()


def _coefficients(size: int, count: int) -> st.SearchStrategy[tuple[int, ...]]:
    return st.tuples(*[st.integers(-size, size)] * count)


_II = TranscendentalForm(1, 2, 1)
_MOVED_II = sl2_matrices(5).map(lambda g: (_moved(_II.a, _II.b, _II.c, *g), g))


@given(st.one_of(
    # a normalized form and a basis change that reaches it
    _MOVED_II,
    # the fields drawn apart: forms that pass and forms with a non-positive
    # diagonal, an indefinite form or 4ab - c^2 = 0; matrices of determinant
    # 1, of determinant -1 and of any determinant
    st.tuples(st.one_of(_MOVED_II.map(lambda fields: fields[0]),
                        _coefficients(4, 3), _coefficients(10**30, 3),
                        _coefficients(4, 2).map(lambda xy: (
                            xy[0] ** 2, xy[1] ** 2, 2 * xy[0] * xy[1]))),
              st.one_of(sl2_matrices(5),
                        sl2_matrices(5).map(lambda g: (g[1], g[0], g[3], g[2])),
                        _coefficients(3, 4), _coefficients(10**30, 4)))))
def test_embedding_field_checks_match_the_constructors_property(fields):
    # replay checks normalized and basis_change on their ints; it must refuse
    # exactly what TranscendentalForm refuses, with its message, and then a
    # matrix whose determinant is not 1
    normalized, basis_change = fields
    x, y, z, w = basis_change
    try:
        TranscendentalForm(*normalized)
        if x * w - y * z != 1:
            raise ValueError("matrix must have determinant 1")
    except ValueError as exc:
        expected = f"malformed embedding certificate: {exc}"
        with pytest.raises(VerificationError, match=f"^{re.escape(expected)}$"):
            _verify_ii_embedding(normalized=normalized, basis_change=basis_change)
        return
    try:
        _verify_ii_embedding(normalized=normalized, basis_change=basis_change)
    except VerificationError as exc:
        # a later check may refuse it, never this one
        assert not str(exc).startswith("malformed embedding certificate: "), str(exc)


def test_from_dict_accepts_every_construction():
    seen = set()
    for triple, build in (((2, 3, 1), classify), ((2, 3, 2), classify),
                          ((2, 2, 2), _all_even_classification)):
        t = TranscendentalForm(*triple)
        cls = build(t)
        back = Classification.from_dict(json.loads(json.dumps(cls.to_dict())))
        assert back == cls
        verify_classification(t, back)
        seen.add(back.certificate.construction)
    assert seen == set(CONSTRUCTIONS)


_MISSING = object()     # a value that deletes the key

# (form, kind, field, value, message): the JSON record of the form, whose
# certificate is of the kind, with the field set to the value; the field is
# a key of the certificate, or, in a 1-tuple, of the record itself, and
# _MISSING deletes it.  Replay refuses each record with the whole message,
# parsed as a classification and, for a certificate field, as a certificate
# alone.  The first 20 records used to parse, because int() converted the
# value, the length went unchecked, or a dict or string stood in for a list;
# a dict in `halved` made int() raise ValueError, and an empty dict or
# string as `minus_two` verified as "no roots".  Of the record's own keys,
# "covers": "false" used to parse as covers=True and "delta": 23.9 as 23.
_NON_INTEGER_PROBES = [
    ((1, 3, 0), "vinberg-witness", "n", 3.5, _MALFORMED + "n must be an integer, not float"),
    ((1, 3, 0), "vinberg-witness", "n", 3.0, _MALFORMED + "n must be an integer, not float"),
    ((1, 3, 0), "vinberg-witness", "vector", [4.0, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1],
     _NOT_ELEVEN_INTEGERS),
    ((1, 1, 0), "exhaustive-absence", "n", 1.0, _MALFORMED + "n must be an integer, not float"),
    ((1, 1, 0), "exhaustive-absence", "n", True, _MALFORMED + "n must be an integer, not bool"),
    ((1, 1, 0), "exhaustive-absence", "slices", [float(m) for m in ABSENCE_SLICES],
     _MALFORMED + "slices must hold integers"),
    ((1, 1, 1), "parity-obstruction", "pairing_mod_2", 1.5,
     _MALFORMED + "pairing_mod_2 must be an integer, not float"),
    ((1, 1, 1), "parity-obstruction", "pairing_mod_2", True,
     _MALFORMED + "pairing_mod_2 must be an integer, not bool"),
    ((1, 1, 1), "parity-obstruction", "norms_mod_4", [2.2, 2],
     _MALFORMED + "norms_mod_4 must hold integers"),
    ((1, 1, 1), "parity-obstruction", "norms_mod_4", [2, 2, 2],
     _MALFORMED + "norms_mod_4 must have 2 entries"),
    ((2, 2, 2), "keum-citation", "halved", [1.0, 1, 1], _MALFORMED + "halved must hold integers"),
    ((2, 2, 2), "keum-citation", "halved", ["1", "1", "1"],
     _MALFORMED + "halved must hold integers"),
    ((2, 2, 2), "keum-citation", "halved", {"a": 1}, _MALFORMED + "halved must be a list"),
    ((2, 2, 2), "keum-citation", "halved", "111", _MALFORMED + "halved must be a list"),
    ((1, 2, 1), "explicit-embedding", "minus_two", {}, _MALFORMED + "minus_two must be a list"),
    ((1, 2, 1), "explicit-embedding", "minus_two", "", _MALFORMED + "minus_two must be a list"),
    ((123457, 234568, 99999), "explicit-embedding", "minus_two", {},
     _MALFORMED + "minus_two must be a list"),
    ((2, 3, 2), "explicit-embedding", "minus_two", "", _MALFORMED + "minus_two must be a list"),
    ((1, 2, 1), "explicit-embedding", "matrix", {}, _MALFORMED + "matrix must be a list"),
    ((1, 2, 1), "explicit-embedding", "matrix", "", _MALFORMED + "matrix must be a list"),
    ((1, 2, 1), "explicit-embedding", "minus_two", _MISSING,
     "certificate is missing the key 'minus_two'"),
    ((2, 3, 1), "explicit-embedding", "minor_gcd", 1.0,
     _MALFORMED + "minor_gcd must be an integer, not float"),
    ((2, 3, 1), "explicit-embedding", "minor_gcd", True,
     _MALFORMED + "minor_gcd must be an integer, not bool"),
    # a list is not hashable, so only the type check keeps it from the table
    ((2, 3, 1), "explicit-embedding", "construction", ["c-odd"],
     "matrix does not fit the complement of its named construction"),
    ((2, 3, 1), "explicit-embedding", "normalized", ["2", "3", "1"],
     _MALFORMED + "normalized must hold integers"),
    ((2, 3, 1), "explicit-embedding", "normalized", "231",
     _MALFORMED + "normalized must be a list"),
    ((2, 3, 1), "explicit-embedding", "basis_change", [1.0, 0.0, 0.0, 1.0],
     _MALFORMED + "basis_change must hold integers"),
    ((2, 3, 1), "explicit-embedding", "basis_change", [1, 0, 0],
     _MALFORMED + "basis_change must have 4 entries"),
    ((2, 3, 1), "explicit-embedding", "matrix", [[2.0, 1, -3] + [0] * 9, [1, 3, 0, 1] + [0] * 8],
     _MALFORMED + "matrix must hold integers"),
    ((1, 2, 1), "explicit-embedding", ("certificate",), _MISSING,
     "classification is missing the key 'certificate'"),
    ((1, 2, 1), "explicit-embedding", ("certificate",), [],
     _MALFORMED + "'list' object has no attribute 'get'"),
    ((1, 2, 1), "explicit-embedding", ("certificate",), {"kind": "bogus"},
     "malformed classification: unknown certificate kind 'bogus'"),
    ((1, 2, 1), "explicit-embedding", ("certificate",), {},
     "malformed classification: unknown certificate kind None"),
    ((1, 2, 1), "explicit-embedding", ("case",), 5, "case must be a string, not int"),
    ((1, 2, 1), "explicit-embedding", ("covers",), "false",
     "covers must be true or false, not str"),
    ((1, 2, 1), "explicit-embedding", ("covers",), 1, "covers must be true or false, not int"),
    ((1, 2, 1), "explicit-embedding", ("delta",), 23.9, "delta must be an integer, not float"),
    ((1, 2, 1), "explicit-embedding", ("delta",), 23.0, "delta must be an integer, not float"),
    ((1, 2, 1), "explicit-embedding", ("delta",), True, "delta must be an integer, not bool"),
    # a null case, like 5 above, which str() once turned into "5"; a scalar
    # matrix; and a listed root, which never verifies, even a float one
    ((1, 2, 1), "explicit-embedding", ("case",), None, "case must be a string, not NoneType"),
    ((1, 2, 1), "explicit-embedding", "matrix", 5, _MALFORMED + "matrix must be a list"),
    ((2, 3, 1), "explicit-embedding", "minus_two", [[1.0] + [0] * 11],
     "orthogonal complement contains a norm -2 vector"),
]


def _probe_id(index: int, row) -> str:
    """The id pytest gave each of the first 20 rows before the message."""
    _, kind, field, value, _ = row
    if type(value) not in (str, int, float, bool):
        value = "missing" if value is _MISSING else f"value{index}"
    return f"triple{index}-{kind}-{field if type(field) is str else field[0]}-{value}"


@pytest.mark.parametrize("triple, kind, field, value, message", _NON_INTEGER_PROBES,
                         ids=list(itertools.starmap(_probe_id, enumerate(_NON_INTEGER_PROBES))))
def test_from_dict_rejects_non_integer_fields_of_every_kind(triple, kind, field, value, message):
    data = _record(triple)
    assert data["certificate"]["kind"] == kind
    record, key = (data, field[0]) if type(field) is tuple else (data["certificate"], field)
    if value is _MISSING:
        del record[key]
    else:
        record[key] = value
    t, pattern = TranscendentalForm(*triple), f"^{re.escape(message)}$"
    with pytest.raises(VerificationError, match=pattern):
        verify_classification(t, Classification.from_dict(data))
    if type(field) is str:
        with pytest.raises(VerificationError, match=pattern):
            certificate_from_dict(data["certificate"]).replay(t)


# The two checks that docs/certificates.md names as reached by no record:
# the complement block's definiteness (test_complement_check_rejects_a_non_definite_block)
# and a slice of an absence transcript that holds the absent norm
_UNREACHED_MESSAGES = (
    "complement block in U + U(2) is not even and negative definite",
    "slice 3 contains a vector of norm -1",
)


def _message_pattern(node: ast.expr, in_sum: bool = False) -> str:
    """A regular expression for the message a raise builds: a string as it
    is, each replacement field of an f-string as ``.+``, and a ``+`` of such
    parts with any other part of it as ``.+``.  Any other message fails the
    test, naming its line."""
    if isinstance(node, ast.Constant) and type(node.value) is str:
        return re.escape(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(".+" if isinstance(part, ast.FormattedValue) else re.escape(part.value)
                       for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _message_pattern(node.left, True) + _message_pattern(node.right, True)
    if in_sum:
        return ".+"
    pytest.fail(f"line {node.lineno}: cannot read the message {ast.unparse(node)}")


@pytest.mark.parametrize("source, message, other", [
    ('"no witness"', "no witness", "no witness!"),
    ('f"slice {m} holds {-n!r}"', "slice 3 holds -1", "slice 3 has -1"),
    ('"malformed: " + defect', "malformed: not definite", "malformed not definite"),
    ('f"{field} must " + "be " + kind.upper()', "n must be INT", "n must INT"),
])
def test_message_pattern_reads_each_form_of_message(source, message, other):
    pattern = _message_pattern(ast.parse(source, mode="eval").body)
    assert re.fullmatch(pattern, message) and not re.fullmatch(pattern, other)


@pytest.mark.parametrize("source", ["message", "messages[0]", "'%s' % kind", "5"])
def test_message_pattern_names_the_line_of_a_message_it_cannot_read(source):
    with pytest.raises(pytest.fail.Exception, match="^line 2: cannot read the message "):
        _message_pattern(ast.parse(f"(\n{source})", mode="eval").body)


def test_every_replay_message_has_a_probe():
    tree = ast.parse(Path(classifier.__file__).read_text())
    patterns = {_message_pattern(node.args[0]) for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "VerificationError"}
    pinned = [row[-1] for row in (*REPLAY_GUARD_PROBES.values(), *_MORE_GUARD_PROBES.values(),
                                  *_FORGED_PROBES.values(), *_NON_INTEGER_PROBES)]

    def matched(messages):
        return {p for p in patterns if any(re.fullmatch(p, m) for m in messages)}

    unreached = matched(_UNREACHED_MESSAGES)
    assert len(unreached) == len(_UNREACHED_MESSAGES)
    assert patterns - matched(pinned) == unreached


def test_every_definiteness_message_has_a_probe():
    # replay's embedding message fills in what quadforms.definite_defect
    # returns, so the rule's own strings are held to the probes here
    tree = ast.parse(Path(quadforms.__file__).read_text())
    rule = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "definite_defect")
    messages = {node.value for statement in rule.body[1:] for node in ast.walk(statement)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert len(messages) == 2
    pinned = {row[-1] for row in REPLAY_GUARD_PROBES.values()}
    assert {f"malformed embedding certificate: {message}" for message in messages} <= pinned


# one valid record per case and per construction, with 6-digit forms for
# the two cases whose embeddings carry the form's own coefficients
_RECORD_FORMS = {
    "I": (2, 2, 2),
    "I-all-even": (2, 2, 2),
    "II": (1, 2, 1),
    "II-6-digit": (123457, 234568, 99999),
    "III-1": (2, 3, 2),
    "III-1-6-digit": (234568, 123457, 99998),
    "III-2": (1, 3, 0),
    "III-3": (1, 1, 0),
    "IV": (1, 1, 1),
}
_MUTATED_RECORDS = {
    name: json.loads(json.dumps(
        (_all_even_classification if name == "I-all-even" else classify)(
            TranscendentalForm(*triple)).to_dict()))
    for name, triple in _RECORD_FORMS.items()
}


def _json_paths(node, prefix=()):
    """Every key and list index below a JSON value, as paths from it."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


_MUTATION_SITES = [(name, path) for name, record in _MUTATED_RECORDS.items()
                   for path in _json_paths(record)]

_REPLACEMENTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([10**40, -10**40, 10**40 + 1]),
    # past CPython's default limit of 4 300 digits for int <-> str
    st.sampled_from([10**5000, -10**5000, 10**5000 + 1]),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from(tuple(CONSTRUCTIONS) + tuple(EXPECTED_KIND) + tuple(EXPECTED_KIND.values())),
    st.text(max_size=4),
    st.just([]),
    st.just({}),
    st.lists(st.integers(-3, 3), max_size=4),
)


@settings(max_examples=400)
@given(st.sampled_from(_MUTATION_SITES),
       st.just(("delete", None)) | _REPLACEMENTS.map(lambda v: ("replace", v)))
@example(("II", ("certificate", "minus_two")), ("replace", {}))
@example(("II-6-digit", ("certificate", "minus_two")), ("replace", ""))
@example(("III-1", ("certificate", "minus_two")), ("replace", {}))
@example(("II", ("certificate", "basis_change")), ("replace", [-1, 0, 0, -1]))
@example(("I-all-even", ("certificate", "basis_change")), ("replace", [-1, 0, 0, -1]))
@example(("III-2", ("certificate", "n")), ("replace", 3))
@example(("III-2", ("certificate", "vector", 0)), ("replace", 4.0))
@example(("I", ("covers",)), ("replace", 1))
@example(("I", ("certificate", "halved", 0)), ("replace", 1))
@example(("III-3", ("certificate", "n")), ("replace", 1))
@example(("IV", ("certificate", "pairing_mod_2")), ("replace", 1))
def test_a_mutated_record_is_rejected_or_verifies_uncoerced_property(site, mutation):
    _mutate_and_replay(*site, *mutation)


# Any JSON value: scalars of every type, ints past 4 300 digits among them
# (built by map, as the strategy's repr must not print one), inside lists
# and string-keyed objects nested to any depth
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.integers(-2, 2).map(lambda k: k * 10**5000 + 1),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300)
@given(st.sampled_from(_MUTATION_SITES), _JSON_TREES)
@example(("II", ("certificate", "matrix")), [[[[[1]]]]] * 2)
@example(("III-1", ("certificate", "construction")), {"c-even": "c-even"})
@example(("III-3", ("delta",)), 10**5000)
@example(("IV", ("certificate",)), [{"kind": "parity-obstruction"}])
def test_any_json_at_any_path_is_rejected_or_verifies_unchanged_property(site, tree):
    _mutate_and_replay(*site, "replace", tree)


def _mutate_and_replay(name, path, op, value) -> None:
    """Delete or replace the value at one path of a case's record, then parse
    and replay it: it must raise VerificationError, or verify and write back
    exactly the text it was read from."""
    # the comparison below prints ints past 4 300 digits; lift the limit
    # for this call only, so that other tests keep the default
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    before = get_limit() if get_limit else None
    if before is not None:
        sys.set_int_max_str_digits(0)
    try:
        _replay_mutated(name, path, op, value)
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


def _replay_mutated(name, path, op, value) -> None:
    data = json.loads(json.dumps(_MUTATED_RECORDS[name]))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        parsed = Classification.from_dict(data)
        verify_classification(TranscendentalForm(*_RECORD_FORMS[name]), parsed)
    except VerificationError:
        return
    # the text comparison tells 1 from 1.0 and from true, as == does not
    assert json.dumps(parsed.to_dict(), sort_keys=True) == json.dumps(data, sort_keys=True)
    _confirm_on_the_oracle_stack(TranscendentalForm(*_RECORD_FORMS[name]), parsed.certificate)


def _confirm_on_the_oracle_stack(t, cert) -> None:
    """Re-check a certificate that replay accepted without the classifier's
    replay: an embedding on the general lattice machinery, down to a search
    of its complement for roots, a witness by its norm and the region, an
    absence on the listed slices, and a halving or an odd form by hand."""
    if cert.kind == "keum-citation":
        assert tuple(2 * x for x in cert.halved) == (t.a, t.b, t.c)
    elif cert.kind == "parity-obstruction":
        assert t.a % 2 == t.b % 2 == t.c % 2 == 1
    elif cert.kind == "exhaustive-absence":
        assert 4 * cert.n == t.delta
        for m in range(3, 15):
            assert all(vinberg.norm(v) != -cert.n for v in enumerate_P_slice(m))
    elif cert.kind == "explicit-embedding":
        normalized = TranscendentalForm(*cert.normalized)
        assert moved(t, cert.basis_change) == normalized
        e = Embedding(to_lattice(normalized), LAMBDA, IntMatrix.from_rows(cert.matrix))
        assert validate(e) and is_primitive(e)
        _, complement = orthogonal_complement(LAMBDA, e)
        assert not has_norm(complement, -2)
    elif cert.kind == "vinberg-witness":
        assert 4 * vinberg.norm(cert.vector) == -t.delta and vinberg.in_P(cert.vector)
    else:
        raise AssertionError(f"no oracle for {cert.kind!r}")


# Every place a hostile value can take in a record: the record itself, the
# value at any path, and any key of the record or of its certificate; the
# record and certificate levels are drawn as often as all deeper paths
_HOSTILE_SITES = ([(name, (), "value") for name in _MUTATED_RECORDS]
                  + [(name, path, "value") for name, path in _MUTATION_SITES]
                  + [(name, path, "key") for name, path in _MUTATION_SITES
                     if type(path[-1]) is str])


@given(st.sampled_from([site for site in _HOSTILE_SITES if len(site[1]) <= 2])
       | st.sampled_from([site for site in _HOSTILE_SITES if len(site[1]) > 2]),
       hostile_values())
@example(("I", ("covers",), "value"), lambda like: _ClassRaises())
@example(("II", ("covers",), "value"), lambda like: _ClaimsBool())
@example(("III-2", ("case",), "key"), _RaisingKey)
@example(("I", ("certificate", "kind"), "key"), _RaisingKey)
@example(("III-2", ("case",), "value"), _NamelessStr)
@example(("III-2", ("certificate", "kind"), "value"), _NamelessStr)
@example(("III-2", ("case",), "key"), _NamelessStr)
def test_a_hostile_value_at_any_path_is_rejected_or_verifies_unchanged_property(site, make):
    # parsing a record, parsing its certificate alone, and a classification
    # built in code each end in VerificationError (or, for a certificate
    # alone, the ValueError of an unknown kind) or replay an identical record
    name, path, where = site
    t = TranscendentalForm(*_RECORD_FORMS[name])
    valid = Classification.from_dict(_MUTATED_RECORDS[name])
    data = parent = json.loads(json.dumps(_MUTATED_RECORDS[name]))
    for key in path[:-1]:
        parent = parent[key]
    if not path:
        data = value = make(data)
    elif where == "value":
        parent[path[-1]] = value = make(parent[path[-1]])
    else:
        try:  # a key must hash, and compare with any key of the same hash
            value = make(path[-1])
            keyed = {(value if key == path[-1] else key): item for key, item in parent.items()}
        except (ZeroDivisionError, TypeError):
            reject()
        parent.clear()
        parent.update(keyed)
    _refused_or_identical(t, lambda: Classification.from_dict(data), valid)
    if path[:1] == ("certificate",) and (where, len(path)) != ("key", 1):
        try:
            _refused_or_identical(t, lambda: replace(
                valid, certificate=certificate_from_dict(data["certificate"])), valid)
        except ValueError as exc:
            assert str(exc).startswith("unknown certificate kind ")
    if where == "value" and "kind" not in path:
        _refused_or_identical(t, lambda: _put(valid, path, value), valid)


def _refused_or_identical(t, build, valid) -> None:
    """Build a classification and replay it against t: either step must raise
    VerificationError, or the classification be identical to ``valid``."""
    try:
        cls = build()
        verify_classification(t, cls)
    except VerificationError:
        return
    assert _identical(cls, valid)


def _identical(x, y) -> bool:
    """Whether x and y are equal and of the same exact type, field by field and
    entry by entry, so that no value's own __eq__ or __class__ takes part."""
    if type(x) is not type(y):
        return False
    if type(x) is tuple or type(x) is list:
        return len(x) == len(y) and all(map(_identical, x, y))
    if type(y) in (Classification, *Certificate.__args__):
        return all(_identical(getattr(x, name), getattr(y, name)) for name in type(y).__slots__)
    return x == y


def _put(node, path, value):
    """A classification, certificate or tuple of fields with the value at the
    record path ``path`` replaced, built in code rather than parsed."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if type(node) is tuple:
        return node[:key] + (_put(node[key], rest, value),) + node[key + 1:]
    field = "case_label" if key == "case" else key
    return replace(node, **{field: _put(getattr(node, field), rest, value)})


# 4 300 is CPython's default int <-> str digit limit; 10**5000 lies past it
_HUGE = 10**5000


@pytest.mark.parametrize("probe, message", [
    (lambda: verify_classification(TranscendentalForm(1, 1, 1),
                                   Classification("IV", _HUGE, 3, ParityObstruction((2, 2), 1))),
     "covers must be true or false, not int"),
    (lambda: verify_classification(TranscendentalForm(1, 1, 1),
                                   Classification(_HUGE, False, 3, ParityObstruction((2, 2), 1))),
     "case must be a string, not int"),
    (lambda: verify_classification(TranscendentalForm(1, 1, 1),
                                   Classification("IV", False, 3, _HUGE)),
     "certificate of type int is not a certificate object"),
    (lambda: ParityObstruction((2, 2), [_HUGE]).replay(TranscendentalForm(1, 1, 1)),
     _MALFORMED + "pairing_mod_2 must be an integer, not list"),
    (lambda: Classification.from_dict({"case": "IV", "covers": False, "delta": 3,
                                       "certificate": {"kind": _HUGE}}),
     "malformed classification: unknown certificate kind of type int"),
    # a kind whose repr raises RecursionError, not ValueError
    (lambda: Classification.from_dict({"case": "IV", "covers": False, "delta": 3,
                                       "certificate": {"kind": nested(list)}}),
     "malformed classification: unknown certificate kind of type list"),
], ids=["covers", "case", "certificate", "pairing_mod_2", "kind", "kind-nested"])
def test_huge_int_in_a_wrong_field_is_refused_at_the_default_digit_limit(probe, message):
    # the messages used to hold repr(value), and the repr of an int past the
    # limit raises ValueError, not VerificationError
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    before = get_limit() if get_limit else None
    if before is not None:
        sys.set_int_max_str_digits(4300)
    try:
        with _rejected_with(message):
            probe()
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


class _RaisingStr(str):
    """A str whose own hash, equality and repr raise."""

    def __hash__(self):
        return 1 // 0

    def __eq__(self, other):
        return 1 // 0

    def __repr__(self):
        return 1 // 0


@pytest.mark.parametrize("triple, kind", [
    ((1, 3, 0), _RaisingStr("vinberg-witness")),
    ((2, 2, 2), _LiarStr("keum-citation")),
], ids=["hash raises", "equals anything"])
def test_a_str_subclass_kind_is_unknown_and_named_by_its_type(triple, kind):
    # kind is looked up only when it is of type str itself, so none of the
    # subclass's own methods run, its repr included
    data = _record(triple)
    data["certificate"]["kind"] = kind
    with _rejected_with("malformed classification: unknown certificate kind of type "
                        + type(kind).__name__):
        Classification.from_dict(data)


def _refuse(*args, **kwargs):
    raise AssertionError("classify ran a check that belongs to replay")


def test_classify_builds_from_proved_constructions_and_checks_nothing(monkeypatch):
    """classify builds every certificate without checking it: the
    constructions and the witness families are proved in the tests, and
    replay is the one check.  With the embedding check and the region's
    norm and membership made to raise, one form of every case classifies,
    III-2 among them at n = 3, 5, 6 and every residue of n mod 24 past 24."""
    forms = [(2, 2, 2), (1, 2, 1), (2, 3, 2), (1, 1, 0), (1, 1, 1)]
    forms += [(1, n, 0) for n in (3, 5, 6, *range(24, 48))]
    with monkeypatch.context() as patch:
        for module, name in ((classifier, "_embedding_defect"), (classifier, "region_norm"),
                             (classifier, "in_P"), (vinberg, "norm"), (vinberg, "in_P")):
            patch.setattr(module, name, _refuse)
        results = [(TranscendentalForm(*triple), classify(TranscendentalForm(*triple)))
                   for triple in forms]
        results.append((TranscendentalForm(2, 2, 2),
                        _all_even_classification(TranscendentalForm(2, 2, 2))))
    assert {result.case_label for _, result in results} == set(CASES)
    assert [result.case_label for _, result in results[5:-1]] == ["III-2"] * 27
    for t, result in results:
        verify_classification(t, result)
    # replay, with its checks back, still refuses a bumped matrix and a
    # witness of the wrong norm
    t, embedded = results[1]
    bumped = [list(row) for row in embedded.certificate.matrix]
    bumped[1][1] += 1
    with pytest.raises(VerificationError, match="pull"):
        verify_classification(t, replace(embedded, certificate=replace(
            embedded.certificate, matrix=tuple(map(tuple, bumped)))))
    t, witnessed = results[5]
    vector = witnessed.certificate.vector
    with pytest.raises(VerificationError, match="wrong norm"):
        verify_classification(t, replace(witnessed, certificate=replace(
            witnessed.certificate, vector=vector[:10] + (vector[10] + 1,))))


def _refuse_table(*args, **kwargs):
    raise AssertionError("a construction table was read by the path that must not read it")


def test_replay_reads_only_complements_and_classify_only_constructions(monkeypatch):
    """The rows of a construction are the builder's, and its complement
    basis is replay's.  With every entry of CONSTRUCTIONS made to raise, a
    scan line of every case and of every construction replays; with every
    entry of COMPLEMENTS made to raise, classify writes the same records."""
    assert tuple(COMPLEMENTS) == tuple(CONSTRUCTIONS)
    forms = {name: TranscendentalForm(*triple) for name, triple in _RECORD_FORMS.items()}

    def build(name):
        return (_all_even_classification if name == "I-all-even" else classify)(forms[name])

    built = {name: build(name) for name in forms}
    lines = {name: _scan_line(forms[name], result) for name, result in built.items()}
    assert {result.case_label for result in built.values()} == set(CASES)
    assert {result.certificate.construction for result in built.values()
            if result.certificate.kind == "explicit-embedding"} == set(CONSTRUCTIONS)
    with monkeypatch.context() as patch:
        for name in CONSTRUCTIONS:
            patch.setitem(CONSTRUCTIONS, name, _refuse_table)
        for name, line in lines.items():
            verify_classification(forms[name], Classification.from_dict(json.loads(line)))
        # the table in place is the one the builder reads
        with pytest.raises(AssertionError, match="construction table"):
            build("II")
    with monkeypatch.context() as patch:
        for name in COMPLEMENTS:
            patch.setitem(COMPLEMENTS, name, _refuse_table)
        for name, result in built.items():
            again = build(name)
            assert again == result
            assert _scan_line(forms[name], again) == lines[name]
        with pytest.raises(AssertionError, match="construction table"):
            verify_classification(forms["II"], built["II"])


def test_replay_reaches_no_builder():
    """Parsing and replaying every scan line of the full box runs none of the
    functions that build certificates or write records."""
    lines = cli._scan_rows(cli._rows(20, 20, -20, 20))[1].splitlines()
    records = [(TranscendentalForm(d["a"], d["b"], d["c"]), d) for d in map(json.loads, lines)]
    builders = {fn.__code__: fn.__qualname__ for fn in (
        vinberg.search_norm, *CONSTRUCTIONS.values(),
        *(fields for _, fields in classifier._CERTIFY.values()),
        classifier._embedding_fields, classifier._c_even_fields, embedding_certificate,
        certify, classify, *(cls.to_dict for cls in Certificate.__args__),
        *cli._CERTIFICATE_JSON.values())}
    called = set()
    sys.setprofile(lambda frame, event, arg: called.add(frame.f_code) if event == "call" else None)
    try:
        for t, data in records:
            verify_classification(t, Classification.from_dict(data))
    finally:
        sys.setprofile(None)
    # the profile saw replay itself, of every kind
    assert {cls.replay.__code__ for cls in Certificate.__args__} <= called
    assert _embedding_defect.__code__ in called
    assert sorted(name for code, name in builders.items() if code in called) == []


# The changes of basis with entries in {-1, 0, 1}: each carries a form to an
# equivalent one that a valid certificate may embed instead
_SMALL_MOVES = tuple(m for m in itertools.product((-1, 0, 1), repeat=4)
                     if m[0] * m[3] - m[1] * m[2] == 1)


def _inverse(g: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    x, y, z, w = g
    return w, -y, -z, x


def _box_by_case() -> dict[str, tuple[TranscendentalForm, ...]]:
    """The forms of the box a, b <= 20, |c| <= 20, by case."""
    out: dict[str, list[TranscendentalForm]] = {}
    for triple in box_triples(20, 20, -20, 20):
        t = TranscendentalForm(*triple)
        out.setdefault(case_of(t)[0], []).append(t)
    return {label: tuple(forms) for label, forms in out.items()}


@lru_cache(maxsize=None)
def _witnesses_by_norm() -> dict[int, tuple[tuple[int, ...], ...]]:
    """Every vector of P in slices 3..14 whose norm -n has n outside ABSENT,
    by n: each a valid witness, most of them not the one search_norm gives."""
    out: dict[int, list[tuple[int, ...]]] = {}
    for m in range(3, 15):
        for v in enumerate_P_slice(m):
            n = -vinberg.norm(v)
            if n > 0 and n not in vinberg.ABSENT and math.gcd(*v) == 1:
                out.setdefault(n, []).append(v)
    return {n: tuple(vs) for n, vs in out.items()}


def _accept_and_confirm(t, label, cert, confirmed: set) -> None:
    verify_classification(t, Classification(label, True, t.delta, cert))
    _confirm_on_the_oracle_stack(t, cert)
    confirmed.add((t, cert))


def test_replay_accepts_valid_certificates_that_are_not_canonical():
    """Replay accepts every valid certificate, not only the one classify
    writes.  Box forms of the covering cases are moved by SL2 matrices
    with shears up to 10^30; each embedding construction is then certified
    at every equivalent form it fits, reached by a small move, and every
    witness of P in slices 3..14 is replayed against a moved form of its
    discriminant.  The oracle stack confirms each record."""
    confirmed: set = set()
    by_case = _box_by_case()
    # drawn from a seeded generator, not by Hypothesis, whose draws change
    # with the constants of the other modules collected beside this one
    rng = random.Random(1381)
    for _ in range(100):
        s = rng.choice(by_case[rng.choice(("I", "II", "III-1", "III-2"))])
        h = (1, 0, 0, 1)
        for i in range(rng.randint(1, 4)):
            bound = 10 ** rng.randint(0, 30)
            k = rng.randint(-bound, bound)
            h = compose(h, (1, k, 0, 1) if i % 2 == 0 else (1, 0, k, 1))
        t = moved(s, h)
        label = case_of(t)[0]
        if label == "III-2":
            for v in _witnesses_by_norm()[t.delta // 4]:
                _accept_and_confirm(t, label, VinbergWitness(t.delta // 4, v), confirmed)
            continue
        construction = {"I": "all-even", "II": "c-odd", "III-1": "c-even"}[label]
        for k in _SMALL_MOVES:
            form = moved(s, k)
            if construction == "c-even" and not form.a % 2 == form.b % 2 == 1:
                continue
            cert = ExplicitEmbedding(*classifier._embedding_fields(
                construction, form.a, form.b, form.c, compose(_inverse(h), k)))
            _accept_and_confirm(t, label, cert, confirmed)
    rng = random.Random(2951)
    for n, witnesses in _witnesses_by_norm().items():
        t = moved(TranscendentalForm(1, n, 0), random_sl2(rng, 10**30))
        for v in witnesses:
            _accept_and_confirm(t, "III-2", VinbergWitness(n, v), confirmed)
    assert sum(cert.kind == "explicit-embedding" for _, cert in confirmed) >= 1000
    witnessed = {(cert.n, cert.vector) for _, cert in confirmed if cert.kind == "vinberg-witness"}
    assert witnessed == {(n, v) for n, vs in _witnesses_by_norm().items() for v in vs}
    assert len(witnessed) == 2951
