"""Decides which definite even binary forms admit an Enriques quotient.

The input (a, b, c) stands for the Gram matrix [[2a, c], [c, 2b]] of the
transcendental lattice of a singular K3 surface.  The surface doubly covers
an Enriques surface exactly when that lattice embeds primitively into
U + U(2) + E8(2) so that no vector of norm -2 is orthogonal to the image.
Whether this is possible depends only on the parities of a, b, c up to
SL2(Z) and, in one branch, on the discriminant:

    I      a, b, c all even    covers
    II     c odd, ab even      covers (explicit embedding written down)
    III    c even, a or b odd  covers unless 4ab - c^2 is 4, 8 or 16
    IV     a, b, c all odd     never covers

Case III splits on whether the form represents 1.  If it does not (III-1)
an explicit embedding works; if it does, a covering amounts to a vector of
norm -(4ab - c^2)/4 in the region P of <-1> + <1>^10 (III-2), which exists
for every admissible discriminant except 4, 8 and 16 (III-3).

Each outcome is packaged with a certificate that can be replayed from its
serialized form alone: an embedding matrix together with the root-freeness
of its orthogonal complement, a witness vector in P, an exhaustive search
transcript, or the parity residues that make an embedding impossible.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import VerificationError
from .lattices import Frozen, TranscendentalForm, _compiled, _moved
from .quadforms import definite_defect, represents_one
from .vinberg import ABSENT, in_P
from .vinberg import norm as region_norm
from .vinberg import search_norm, slice_norms

CaseLabel = str


# x0-slices that certificates of absence must search; beyond the last slice
# the per-slice maximum norm stays below -14, out of reach of -1, -2, -4.
ABSENCE_SLICES: tuple[int, ...] = tuple(range(3, 15))

# The six cases in report order, each with whether it covers and the
# certificate kinds that may back it.
CASES: dict[CaseLabel, tuple[bool, tuple[str, ...]]] = {
    "I": (True, ("keum-citation", "explicit-embedding")),
    "II": (True, ("explicit-embedding",)),
    "III-1": (True, ("explicit-embedding",)),
    "III-2": (True, ("vinberg-witness",)),
    "III-3": (False, ("exhaustive-absence",)),
    "IV": (False, ("parity-obstruction",)),
}


def _case(a: int, b: int, c: int, delta: int) -> CaseLabel:
    """The label of (a, b, c), delta = 4ab - c^2, from integer facts alone: the
    parity class, then whether the form represents 1, then delta / 4, none of which
    `_moved` changes.  The tests hold it to their own statement, `parity_class`."""
    if c & 1:
        return "IV" if a & b & 1 else "II"
    if not (a | b) & 1:
        return "I"
    if not represents_one(a, c, b):
        return "III-1"
    return "III-3" if delta // 4 in ABSENT else "III-2"     # c is even, so 4 divides delta


def case_of(t: TranscendentalForm) -> tuple[CaseLabel, bool]:
    """Classification label for the form and whether a covering exists."""
    label = _case(t.a, t.b, t.c, t.delta)
    return label, CASES[label][0]


Rows = tuple[tuple[int, ...], ...]


# The written-down embeddings, by the name an explicit-embedding records.
# Each maps (a, b, c) to the images of u, v on the U + U(2) coordinates
# (u1, u2, v1, v2).  `embedding_certificate` reads this table and replay
# never does.
def _c_odd(a: int, b: int, c: int) -> Rows:
    # u -> a*u1 + u2 + ((c - ab - 1)/2) v1,  v -> u1 + b*u2 + v2
    return (a, 1, (c - a * b - 1) // 2, 0), (1, b, 0, 1)


def _c_even(a: int, b: int, c: int) -> Rows:
    # u -> u1 + a*u2,  v -> u1 + (c - a)*u2 + v1 + ((a + b - c)/2) v2
    return (1, a, 0, 0), (1, c - a, 1, (a + b - c) // 2)


def _all_even(a: int, b: int, c: int) -> Rows:
    # u -> v1 + (a/2) v2,  v -> u1 + b*u2 + (c/2) v2
    return (0, 0, 1, a // 2), (1, b, 0, c // 2)


CONSTRUCTIONS = {"c-odd": _c_odd, "c-even": _c_even, "all-even": _all_even}


# The closed-form basis (k1, k2) of the complement block B of each
# construction's rows, by the same names; replay reads this table and
# `embedding_certificate` never does.  Gram matrices of the bases in U + U(2):
#   c-odd, s = (c - ab - 1)/2:  2 [[-4a, 2ab - c], [2ab - c, 2bs]], det 4 delta;
#   c-even (a, b odd):          [[-2a, 2a - c], [2a - c, -2(a + b - c)]], det delta;
#   all-even:                   [[-2b, -c], [-c, -2a]], det delta.
# A construction's name is binding: `_embedding_defect` proves the basis
# is B of the rows before it uses it, and a matrix it does not fit
# misnames its construction.
def _c_odd_complement(a: int, b: int, c: int) -> Rows:
    s = (c - a * b - 1) // 2
    return (-2 * a, 2, a * b - 1, 0), (-2 * s, 0, b * s, 1)


def _c_even_complement(a: int, b: int, c: int) -> Rows:
    return (1, -a, 0, a - c // 2), (0, 0, 1, (c - a - b) // 2)


def _all_even_complement(a: int, b: int, c: int) -> Rows:
    return (1, -b, 0, 0), (0, -c, 1, -(a // 2))


COMPLEMENTS = {"c-odd": _c_odd_complement, "c-even": _c_even_complement,
               "all-even": _all_even_complement}

# U + U(2) + E8(2) has rank 12; its first four coordinates are U + U(2)
_AMBIENT_RANK = 12
_HYPERBOLIC = 4
_E8_ZEROS = (0,) * (_AMBIENT_RANK - _HYPERBOLIC)


def _embedding_defect(a: int, b: int, c: int, rows, basis) -> str | None:
    """The first check that rows fail as an embedding of (a, b, c) into
    U + U(2) + E8(2): "pullback", "primitive" or "root", or None for a valid,
    primitive embedding with a root-free complement.

    ``rows`` are two 12-tuples of ints, as replay's field and shape checks
    leave them.  The checks, on plain ints and in this order:
    1. the E8(2) columns are zero, one comparison per row, else
       VerificationError; then, on the 2 x 4 block u, v of the rows:
    2. the pullback: u, v pair to (2a, c, 2b) in U + U(2);
    3. primitivity: the six 2 x 2 minors of (u, v) have gcd 1, which also
       proves rank 2;
    4. ``basis`` (k1, k2), the closed-form complement block B of the named
       construction (None for an unknown name), pairs to zero with u and v
       and its own six minors have gcd 1, so it spans the whole rank-2
       kernel of the rows; else VerificationError;
    5. -B/2 passes `definite_defect`, else VerificationError; no record reaches
       this, as a positive definite pullback leaves B negative definite;
    6. the complement is B + E8(2) and a norm -2 vector lies wholly in B, so
       there is a root exactly when -B/2 represents 1 (`represents_one`).
    """
    u, v = rows
    if u[_HYPERBOLIC:] != _E8_ZEROS or v[_HYPERBOLIC:] != _E8_ZEROS:
        raise VerificationError("matrix uses the E8(2) columns; an embedding must lie in U + U(2)")
    u0, u1, u2, u3 = u[:_HYPERBOLIC]
    v0, v1, v2, v3 = v[:_HYPERBOLIC]
    if (u0 * u1 + 2 * u2 * u3, u0 * v1 + u1 * v0 + 2 * (u2 * v3 + u3 * v2),
            v0 * v1 + 2 * v2 * v3) != (a, c, b):
        return "pullback"
    if gcd(u0 * v1 - u1 * v0, u0 * v2 - u2 * v0, u0 * v3 - u3 * v0,
           u1 * v2 - u2 * v1, u1 * v3 - u3 * v1, u2 * v3 - u3 * v2) != 1:
        return "primitive"
    if basis is None:
        raise VerificationError("matrix does not fit the complement of its named construction")
    (x0, x1, x2, x3), (y0, y1, y2, y3) = basis
    if (u0 * x1 + u1 * x0 + 2 * (u2 * x3 + u3 * x2) or u0 * y1 + u1 * y0 + 2 * (u2 * y3 + u3 * y2)
            or v0 * x1 + v1 * x0 + 2 * (v2 * x3 + v3 * x2)
            or v0 * y1 + v1 * y0 + 2 * (v2 * y3 + v3 * y2)
            or gcd(x0 * y1 - x1 * y0, x0 * y2 - x2 * y0, x0 * y3 - x3 * y0,
                   x1 * y2 - x2 * y1, x1 * y3 - x3 * y1, x2 * y3 - x3 * y2) != 1):
        raise VerificationError("matrix does not fit the complement of its named construction")
    # -B/2 as p x^2 + q x y + r y^2; B is even, as x.x = 2 (x0 x1 + 2 x2 x3)
    p = -(x0 * x1 + 2 * x2 * x3)
    q = -(x0 * y1 + x1 * y0 + 2 * (x2 * y3 + x3 * y2))
    r = -(y0 * y1 + 2 * y2 * y3)
    if definite_defect(p, r, q) is not None:
        raise VerificationError("complement block in U + U(2) is not even and negative definite")
    return "root" if represents_one(p, q, r) else None


# Each certificate kind's fields in __slots__ order, each with its JSON shape: a
# quoted "name", an "int", "ints" or "rows" of ints.  The slots, `to_dict` and
# cli's writers are made from it at import; replay's gates still name the fields.
FIELDS: dict[str, dict[str, str]] = {
    "keum-citation": {"halved": "ints"},
    "explicit-embedding": {"construction": "name", "normalized": "ints", "basis_change": "ints",
                           "matrix": "rows", "minor_gcd": "int", "minus_two": "rows"},
    "vinberg-witness": {"n": "int", "vector": "ints"},
    "exhaustive-absence": {"n": "int", "slices": "ints"},
    "parity-obstruction": {"norms_mod_4": "ints", "pairing_mod_2": "int"},
}

# `to_dict`'s value of a field of each shape, on the field's name
_TO_DICT = {"name": "self.{}", "int": "self.{}", "ints": "list(self.{})",
            "rows": "[list(row) for row in self.{}]"}


class _Certificate(Frozen):
    """Base of the certificates: a subclass with fields of its own gets `to_dict`,
    compiled once from `FIELDS`; one with ``__slots__ = ()`` keeps its parent's."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__slots__"):
            values = "".join(f', "{name}": {_TO_DICT[shape].format(name)}'
                             for name, shape in FIELDS[cls.kind].items())
            cls.to_dict = _compiled(f"{cls.__qualname__}.to_dict", ("self",),
                                    [f'return {{"kind": self.kind{values}}}'], {})


class KeumCitation(_Certificate):
    """Covering certificate for all-even forms: the form is twice another.

    The replayed content is the halving itself; that a doubled form always
    covers is the classical theorem this certificate points to.
    """

    kind = "keum-citation"
    __slots__ = tuple(FIELDS[kind])

    def replay(self, t: TranscendentalForm) -> None:
        a, b, c = _ints("halved", self.halved, 3)
        if (2 * a, 2 * b, 2 * c) != (t.a, t.b, t.c):
            raise VerificationError("halving certificate: twice the halved form is not the input")


class ExplicitEmbedding(_Certificate):
    """A primitive embedding into U + U(2) + E8(2) with root-free complement.

    ``construction`` names the written-down embedding (a key of CONSTRUCTIONS
    and of COMPLEMENTS), ``normalized`` is the SL2-equivalent form the matrix
    actually embeds and ``basis_change`` the change of basis realizing the
    equivalence, the int 4-tuple (x, y, z, w) of [[x, y], [z, w]].  Replay
    checks the types and shapes of the fields; on their ints, without building
    a form, that ``normalized`` is positive definite (`definite_defect`, the
    form's own rule); that ``basis_change`` has determinant 1, which nothing
    else checks; and that `_moved` takes the input to ``normalized``.  It then
    runs `_embedding_defect` at ``normalized``, whose closed-form complement
    makes the construction's name binding; ``minor_gcd`` must be 1 and
    ``minus_two`` empty.
    """

    kind = "explicit-embedding"
    __slots__ = tuple(FIELDS[kind])

    def replay(self, t: TranscendentalForm) -> None:
        normalized = _ints("normalized", self.normalized, 3)
        if (defect := definite_defect(*normalized)) is not None:
            raise VerificationError(f"malformed embedding certificate: {defect}")
        x, y, z, w = _ints("basis_change", self.basis_change, 4)
        if x * w - y * z != 1:
            raise VerificationError("malformed embedding certificate: matrix must have determinant 1")
        rows = [_ints("matrix", row) for row in
                (self.matrix if type(self.matrix) is tuple else _array("matrix", self.matrix))]
        if len(rows) != 2 or len(rows[0]) != _AMBIENT_RANK or len(rows[1]) != _AMBIENT_RANK:
            raise VerificationError("malformed embedding certificate: matrix is not 2 x 12")
        if _moved(t.a, t.b, t.c, x, y, z, w) != normalized:
            raise VerificationError("recorded basis change does not reach the recorded form")
        complement = (COMPLEMENTS.get(self.construction) if type(self.construction) is str
                      else None)
        basis = None if complement is None else complement(*normalized)
        defect = _embedding_defect(*normalized, rows, basis)
        if defect == "pullback":
            raise VerificationError("matrix does not pull the target form back to the source")
        if _int("minor_gcd", self.minor_gcd) != 1 or defect == "primitive":
            raise VerificationError("embedding is not primitive")
        if _array("minus_two", self.minus_two) or defect == "root":
            raise VerificationError("orthogonal complement contains a norm -2 vector")


class VinbergWitness(_Certificate):
    """A vector of norm -n in the region P of <-1> + <1>^10, n = delta/4."""

    kind = "vinberg-witness"
    __slots__ = tuple(FIELDS[kind])

    def replay(self, t: TranscendentalForm) -> None:
        vector = self.vector if type(self.vector) is tuple else _array("vector", self.vector)
        if len(vector) != 11:
            raise VerificationError("witness vector does not have 11 integer coordinates")
        for x in vector:
            if type(x) is not int:
                raise VerificationError("witness vector does not have 11 integer coordinates")
        delta = t.delta
        if delta % 4 != 0 or _int("n", self.n) != delta // 4:
            raise VerificationError("witness norm does not match the discriminant")
        if self.n in ABSENT:
            raise VerificationError("witness claimed for a discriminant with none")
        if region_norm(vector) != -self.n:
            raise VerificationError("witness vector has the wrong norm")
        if not in_P(vector):
            raise VerificationError("witness vector lies outside the region")


@lru_cache(maxsize=None)
def _absence_breach(n: int) -> int | None:
    """The first slice of ABSENCE_SLICES whose norms hold -n, or None; replay
    asks only for n in ABSENT, so the cache holds at most three entries."""
    for m in ABSENCE_SLICES:
        if -n in slice_norms(m):
            return m
    return None


class ExhaustiveAbsence(_Certificate):
    """No vector of norm -n in P, checked slice by slice (n in {1, 2, 4}).

    Slices past the recorded range cannot help: their maximum norm drops
    below every norm in question, so the finite transcript is conclusive.
    """

    kind = "exhaustive-absence"
    __slots__ = tuple(FIELDS[kind])

    def replay(self, t: TranscendentalForm) -> None:
        if t.delta % 4 != 0 or _int("n", self.n) != t.delta // 4:
            raise VerificationError("absence norm does not match the discriminant")
        if self.n not in ABSENT:
            raise VerificationError("absence claimed for a discriminant that has a witness")
        if _ints("slices", self.slices) != ABSENCE_SLICES:
            raise VerificationError("absence transcript does not cover the required slices")
        if (m := _absence_breach(self.n)) is not None:
            raise VerificationError(f"slice {m} contains a vector of norm {-self.n}")


class ParityObstruction(_Certificate):
    """All of a, b, c odd: no primitive embedding avoids the parity clash.

    Any vectors of norms 2a and 2b, both 2 mod 4, must each use both
    hyperbolic coordinates oddly, forcing an even pairing; c is odd.
    """

    kind = "parity-obstruction"
    __slots__ = tuple(FIELDS[kind])

    def replay(self, t: TranscendentalForm) -> None:
        norms = _ints("norms_mod_4", self.norms_mod_4, 2)
        pairing = _int("pairing_mod_2", self.pairing_mod_2)
        if norms != (2, 2) or pairing != 1 or (2 * t.a % 4, 2 * t.b % 4, t.c % 2) != (2, 2, 1):
            raise VerificationError("recorded or recomputed norm residues and pairing parity"
                                    " do not constitute an obstruction")


Certificate = (
    KeumCitation | ExplicitEmbedding | VinbergWitness | ExhaustiveAbsence | ParityObstruction
)


def _array(field: str, values) -> list | tuple:
    """A list field: exactly the tuple parsing makes of a JSON array, or a
    list; never a string, a subclass or an object that merely iterates."""
    if type(values) is not list and type(values) is not tuple:
        raise VerificationError(f"malformed certificate: {field} must be a list")
    return values


def _ints(field: str, values, length: int | None = None) -> tuple[int, ...]:
    """The entries of a serialized integer list, each of type exactly int, as
    json gives; an exact tuple, as parsing leaves an array, is returned as it is."""
    out = values if type(values) is tuple else tuple(_array(field, values))
    for x in out:
        if type(x) is not int:
            raise VerificationError(f"malformed certificate: {field} must hold integers")
    if length is not None and len(out) != length:
        raise VerificationError(f"malformed certificate: {field} must have {length} entries")
    return out


def _int(field: str, value) -> int:
    """A serialized integer scalar, of type exactly int; the message names the
    type of anything else, as `verify_classification` does."""
    if type(value) is not int:
        raise VerificationError(
            f"malformed certificate: {field} must be an integer, not {type(value).__name__}")
    return value


def _frozen(array: list) -> tuple:
    """A JSON array as a tuple, and each array directly inside it as well;
    anything else, deeper arrays included, as it is."""
    for x in array:
        if type(x) is list:
            return tuple([tuple(x) if type(x) is list else x for x in array])
    return tuple(array)


# The certificate class of each kind, for parsing
_CERTIFICATE_CLASSES = {cls.kind: cls for cls in Certificate.__args__}
_JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def _json_typed(value) -> bool:
    """Whether ``value`` and all inside it are of types json gives, compared by identity,
    so no subclass's or metaclass's code runs; json never gives one container twice."""
    stack, seen = [value], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or not any(type(node) is t for t in _JSON_TYPES):
            return False
        if type(node) is list or type(node) is dict:
            seen.add(id(node))
            stack += [*node, *node.values()] if type(node) is dict else node
    return True


def certificate_from_dict(data: dict[str, object]) -> Certificate:
    """Build the certificate a serialized one describes; an unknown kind
    raises ValueError, a missing key or a non-mapping VerificationError.

    The class is looked up by ``kind`` in one table; a kind not of type
    ``str`` itself, a subclass or an unhashable value, is unknown.  Parsing
    only builds: each field is taken as it is, its arrays as tuples, and
    nothing is checked or converted.  `replay` checks every field and
    refuses a wrong type, shape or construction; it never coerces one.
    """
    try:
        if type(data) is not dict and not _json_typed(data):  # a subclass's get never runs
            raise TypeError(f"certificate of type {type(data).__name__} is not a dict")
        kind = data.get("kind")
        cls = _CERTIFICATE_CLASSES.get(kind) if type(kind) is str else None
        if cls is not None:
            return cls(*[_frozen(value) if type(value := data[name]) is list else value
                         for name in cls.__slots__])
    except KeyError as exc:
        raise VerificationError(f"certificate is missing the key {exc}") from None
    except (AttributeError, TypeError) as exc:
        raise VerificationError(f"malformed certificate: {exc}") from None
    try:  # a kind json could not give is named by its type, so none of its methods run
        named = repr(kind) if _json_typed(kind) else None
    except (ValueError, RecursionError):  # an int past the digit limit, or nested too deep
        named = None
    raise ValueError(f"unknown certificate kind {named or 'of type ' + type(kind).__name__}")


class Classification(Frozen):
    """A form's case label, covering verdict and discriminant, with the
    certificate that backs them."""

    __slots__ = ("case_label", "covers", "delta", "certificate")

    def to_dict(self) -> dict[str, object]:
        return {
            "case": self.case_label,
            "covers": self.covers,
            "delta": self.delta,
            "certificate": self.certificate.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Classification":
        """Build the classification a serialized one describes.  Only a
        missing key, a non-mapping and an unknown certificate kind are
        refused here, each with VerificationError; `verify_classification`
        checks every field."""
        try:
            if type(data) is not dict and not _json_typed(data):  # a subclass's lookups never run
                raise TypeError(f"record of type {type(data).__name__} is not a dict")
            return cls(data["case"], data["covers"], data["delta"],
                       certificate_from_dict(data["certificate"]))
        except KeyError as exc:
            raise VerificationError(f"classification is missing the key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise VerificationError(f"malformed classification: {exc}") from None


def _embedding_fields(construction: str, a: int, b: int, c: int, g=(1, 0, 0, 1)) -> tuple:
    """The fields of `embedding_certificate`, on ints, in __slots__ order."""
    u, v = CONSTRUCTIONS[construction](a, b, c)
    return construction, (a, b, c), g, (u + _E8_ZEROS, v + _E8_ZEROS), 1, ()


def embedding_certificate(construction: str, normalized: TranscendentalForm,
                          g: tuple[int, int, int, int] = (1, 0, 0, 1)) -> ExplicitEmbedding:
    """The certificate of the named written-down embedding of ``normalized``,
    the form that ``g`` = (x, y, z, w), the basis change [[x, y], [z, w]],
    carries the input to.

    It only builds, whatever ``g`` is, and replay is the one check: the test
    suite proves each construction for every form of its parity class.
    `certify` backs case II by `c-odd` and case III-1 by `c-even` of the
    normalized form.  Case I is backed by the citation; the `all-even` embedding,
    ``embedding_certificate("all-even", t)``, backs it as well and always
    fits: its -B/2 is (b, c, a), all even, so it never represents 1.
    """
    return ExplicitEmbedding(*_embedding_fields(construction, normalized.a, normalized.b,
                                                 normalized.c, g))


def _c_even_fields(a: int, b: int, c: int, delta: int) -> tuple:
    """The `c-even` fields of a case III-1 form (c even, a or b odd): the
    shear that makes an even a, or an even b, odd, and the form it reaches."""
    g = (2, 1, 1, 1) if not a & 1 else (1, 1, 1, 2) if not b & 1 else (1, 0, 0, 1)
    return _embedding_fields("c-even", *_moved(a, b, c, *g), g)


# The certificate `certify` builds for each case: its kind, and its fields from
# (a, b, c, delta) on ints, in __slots__ order.  III-2 means delta / 4 is not in ABSENT.
_CERTIFY = {
    "I": ("keum-citation", lambda a, b, c, delta: ((a // 2, b // 2, c // 2),)),
    "II": ("explicit-embedding", lambda a, b, c, delta: _embedding_fields("c-odd", a, b, c)),
    "III-1": ("explicit-embedding", _c_even_fields),
    "III-2": ("vinberg-witness", lambda a, b, c, delta: (delta // 4, search_norm(delta // 4))),
    "III-3": ("exhaustive-absence", lambda a, b, c, delta: (delta // 4, ABSENCE_SLICES)),
    "IV": ("parity-obstruction", lambda a, b, c, delta: ((2 * a % 4, 2 * b % 4), c % 2)),
}


def certify(t: TranscendentalForm, label: CaseLabel) -> Certificate:
    """Build the certificate backing a classification label for this form."""
    if label not in _CERTIFY:
        raise ValueError(f"unknown case label {label!r}")
    kind, fields = _CERTIFY[label]
    return _CERTIFICATE_CLASSES[kind](*fields(t.a, t.b, t.c, t.delta))


def classify(t: TranscendentalForm) -> Classification:
    """Full decision for one form: label, verdict, and certificate."""
    label, covers = case_of(t)
    return Classification(label, covers, t.delta, certify(t, label))


def verify_classification(t: TranscendentalForm, cls: Classification) -> None:
    """Replay a classification against the form it claims to describe.

    Raises VerificationError unless the label, the verdict, the discriminant
    and the certificate all check out independently, the classification and
    each of its fields of exactly the type it must have.
    """
    # Types by identity, never a subclass: one could answer each read of a
    # field differently.  The messages name the type, not the value, whose
    # repr would raise ValueError past CPython's int -> str digit limit.
    if type(cls) is not Classification:
        raise VerificationError(
            f"classification of type {type(cls).__name__} is not a Classification object")
    if type(cls.case_label) is not str:
        raise VerificationError(f"case must be a string, not {type(cls.case_label).__name__}")
    if not isinstance(cls.covers, bool):
        raise VerificationError(f"covers must be true or false, not {type(cls.covers).__name__}")
    if type(cls.delta) is not int:
        raise VerificationError(f"delta must be an integer, not {type(cls.delta).__name__}")
    label, covers = case_of(t)
    if cls.case_label != label:
        raise VerificationError(f"label {cls.case_label!r} disagrees with recomputed {label!r}")
    if cls.covers != covers:
        raise VerificationError("covering verdict disagrees with the recomputed case")
    if cls.delta != t.delta:
        raise VerificationError("recorded discriminant disagrees with the form")
    # by identity, so that no type's own __eq__ or __hash__ takes part
    for certificate_class in Certificate.__args__:
        if type(cls.certificate) is certificate_class:
            break
    else:
        raise VerificationError(
            f"certificate of type {type(cls.certificate).__name__} is not a certificate object")
    if cls.certificate.kind not in CASES[label][1]:
        raise VerificationError(
            f"certificate kind {cls.certificate.kind!r} cannot back case {label!r}"
        )
    cls.certificate.replay(t)
