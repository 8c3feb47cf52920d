"""The immutable value types: construction, immutability, equality, hashing."""

import copy
import pickle

import pytest

from k3cover.classifier import (
    ABSENCE_SLICES,
    Certificate,
    Classification,
    ExhaustiveAbsence,
    ExplicitEmbedding,
    KeumCitation,
    ParityObstruction,
    VinbergWitness,
)
from k3cover.lattices import Sl2Matrix, TranscendentalForm

_ROWS = ((1, 1, -1, 0) + (0,) * 8, (1, 2, 0, 1) + (0,) * 8)
_WITNESS = (4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1)

# each class with the fields of one value, and of a second value that
# differs from it in exactly one field
VALUES = [
    (TranscendentalForm, (1, 2, 1), (1, 3, 1)),
    (Sl2Matrix, (2, 1, 1, 1), (1, 1, 0, 1)),
    (KeumCitation, ((1, 1, 1),), ((1, 1, 2),)),
    (ExplicitEmbedding, ("c-odd", (1, 2, 1), (1, 0, 0, 1), _ROWS, 1, ()),
                        ("c-even", (1, 2, 1), (1, 0, 0, 1), _ROWS, 1, ())),
    (VinbergWitness, (3, _WITNESS), (4, _WITNESS)),
    (ExhaustiveAbsence, (1, ABSENCE_SLICES), (2, ABSENCE_SLICES)),
    (ParityObstruction, ((2, 2), 1), ((2, 2), 0)),
    (Classification, ("III-2", True, 12, VinbergWitness(3, _WITNESS)),
                     ("III-2", True, 12, VinbergWitness(4, _WITNESS))),
]


@pytest.mark.parametrize("cls, args, other", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_type_contract(cls, args, other):
    value = cls(*args)
    fields = dict(zip(cls.__slots__, args))
    assert {name: getattr(value, name) for name in cls.__slots__} == fields
    assert cls(**fields) == value and hash(cls(**fields)) == hash(value)
    assert cls(*other) != value
    # equality and hash depend on the exact type, never on the fields alone
    assert value != args and value != tuple(fields.values())
    assert type("Sub", (cls,), {"__slots__": ()})(*args) != value
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*args)
    namespace = {c.__name__: c for c, _, _ in VALUES}
    assert eval(repr(value), namespace) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


def test_certificates_of_one_shape_differ_by_type():
    assert KeumCitation((1, 1, 1)) != (1, 1, 1)
    assert VinbergWitness(1, ABSENCE_SLICES) != ExhaustiveAbsence(1, ABSENCE_SLICES)
    assert ExhaustiveAbsence(1, ABSENCE_SLICES) != VinbergWitness(1, ABSENCE_SLICES)


def test_certificate_kind_is_a_plain_str_class_attribute():
    # perfbench/tracing.py finds the replay spans through it
    for cls in Certificate.__args__:
        assert type(cls.kind) is str and "kind" not in cls.__slots__
        assert type(cls.__dict__["kind"]) is str


@pytest.mark.parametrize("cls, args", [
    (TranscendentalForm, (0, 1, 0)),
    (TranscendentalForm, (1, -1, 0)),
    (TranscendentalForm, (1, 1, 2)),     # 4ab - c^2 zero
    (Sl2Matrix, (1, 1, 1, 1)),
    (Sl2Matrix, (2, 0, 0, 2)),
    (TranscendentalForm, (-1, 1, 0)),
    (TranscendentalForm, (0, 1, 1)),
    (TranscendentalForm, (1, 1, 3)),     # indefinite
    # coefficients that are not ints, bools among them
    (TranscendentalForm, (0.5, 1, 0)),
    (TranscendentalForm, (2.0, 2.0, 0.0)),
    (TranscendentalForm, (True, 1, 0)),
    (TranscendentalForm, (1, 1, "0")),
    (TranscendentalForm, (1, 1.0, 0)),
])
def test_invalid_value_raises_value_error(cls, args):
    with pytest.raises(ValueError):
        cls(*args)
