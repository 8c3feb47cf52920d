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
from k3cover.lattices import Frozen, TranscendentalForm

_ROWS = ((1, 1, -1, 0) + (0,) * 8, (1, 2, 0, 1) + (0,) * 8)
_WITNESS = (4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1)

# each class with the fields of one value, and of a second value that
# differs from it in exactly one field
VALUES = [
    (TranscendentalForm, (1, 2, 1), (1, 3, 1)),
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
    # the constructor takes exactly the fields, in slot order, and names itself
    code = cls.__init__.__code__
    assert code.co_varnames[1:code.co_argcount] == cls.__slots__
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) missing"):
        cls(*args[:-1])


class Pair(Frozen):
    __slots__ = ("x", "y")


class SubPair(Pair):
    __slots__ = ()


def test_frozen_generates_the_constructor_from_its_own_slots():
    pair = Pair(1, 2)
    assert (pair.x, pair.y) == (1, 2) and Pair(y=2, x=1) == pair
    for name in ("x", "y"):
        with pytest.raises(AttributeError):
            setattr(pair, name, 3)
        with pytest.raises(AttributeError):
            delattr(pair, name)
    assert hash(Pair(1, 2)) == hash(pair) and Pair(1, 3) != pair and pair != (1, 2)
    assert pickle.loads(pickle.dumps(pair)) == pair and copy.deepcopy(pair) == pair
    # a subclass with no fields of its own keeps its parent's constructor
    assert SubPair.__init__ is Pair.__init__
    assert (SubPair(1, 2).x, SubPair(1, 2).y) == (1, 2) and SubPair(1, 2) != pair


def test_certificates_of_one_shape_differ_by_type():
    assert KeumCitation((1, 1, 1)) != (1, 1, 1)
    assert VinbergWitness(1, ABSENCE_SLICES) != ExhaustiveAbsence(1, ABSENCE_SLICES)
    assert ExhaustiveAbsence(1, ABSENCE_SLICES) != VinbergWitness(1, ABSENCE_SLICES)


def test_certificate_kind_is_a_plain_str_class_attribute():
    # perfbench/tracing.py finds the replay spans through it
    for cls in Certificate.__args__:
        assert type(cls.kind) is str and "kind" not in cls.__slots__
        assert type(cls.__dict__["kind"]) is str


# Keyed by the number in each row's test id; rows 3 and 4 held a matrix
# type that no longer exists, and the other rows keep their ids.
_INVALID = {
    0: (TranscendentalForm, (0, 1, 0)),
    1: (TranscendentalForm, (1, -1, 0)),
    2: (TranscendentalForm, (1, 1, 2)),     # 4ab - c^2 zero
    5: (TranscendentalForm, (-1, 1, 0)),
    6: (TranscendentalForm, (0, 1, 1)),
    7: (TranscendentalForm, (1, 1, 3)),     # indefinite
    # coefficients that are not ints, bools among them
    8: (TranscendentalForm, (0.5, 1, 0)),
    9: (TranscendentalForm, (2.0, 2.0, 0.0)),
    10: (TranscendentalForm, (True, 1, 0)),
    11: (TranscendentalForm, (1, 1, "0")),
    12: (TranscendentalForm, (1, 1.0, 0)),
}


@pytest.mark.parametrize("cls, args", list(_INVALID.values()),
                         ids=[f"{cls.__name__}-args{i}" for i, (cls, _) in _INVALID.items()])
def test_invalid_value_raises_value_error(cls, args):
    with pytest.raises(ValueError):
        cls(*args)
