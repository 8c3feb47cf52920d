"""Rank-2 transcendental forms and the SL2 action on them.

`TranscendentalForm(a, b, c)` is the package's one binary-form type: the
Gram matrix [[2a, c], [c, 2b]], or equally the positive definite form
a x^2 + c x y + b y^2 that `quadforms` reduces.  It is the one value type
the classifier reads its input through.  A change of basis is the plain
int 4-tuple (x, y, z, w) of [[x, y], [z, w]] that certificates record;
`_moved` states its action once, on ints, and replay is the one check that
a recorded one has determinant 1.  The Gram-matrix layer (integral lattices
and the ambient U + U(2) + E8(2)) lives in `intmat` beside its algebra.
"""

from __future__ import annotations

from .quadforms import definite_defect


class Frozen:
    """Base of the package's immutable value types.

    A class's fields are its own ``__slots__``.  A subclass that lists fields
    there and writes no ``__init__`` gets ``__init__(self, <fields in slot
    order>)`` from `_compiled`, as the certificates' ``to_dict`` and scan
    writers are, which binds each field through its slot's setter
    (`_setters`) and so costs what a hand-written one does; one with
    ``__slots__ = ()`` keeps its parent's.  Afterwards assignment and ``del``
    raise AttributeError.  Two values are equal, and hash alike, when they
    have the same exact type and equal fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__", ())
        if fields and "__init__" not in cls.__dict__:
            cls.__init__ = _compiled(
                f"{cls.__qualname__}.__init__", ("self", *fields),
                [f"_set_{name}(self, {name})" for name in fields],
                {f"_set_{name}": setter for name, setter in zip(fields, _setters(cls))})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((self.__class__, self._values()))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return self.__class__, self._values()


def _setters(cls: type) -> tuple:
    """The setters of the slots of ``cls``, in ``__slots__`` order, for the
    generated constructors and `TranscendentalForm`'s.  A slot's own setter
    takes about half the time of ``object.__setattr__``, which first looks
    the name up on the type, and the `classify` command, the library and the
    benchmark's classify and replay phases build a form, a certificate and a
    classification per form."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


def _compiled(qualname: str, parameters, lines, namespace: dict):
    """``def`` of ``parameters`` with body ``lines``, compiled once from source with
    ``namespace`` as its globals, as `dataclasses` builds methods, named ``qualname``."""
    name = qualname.rpartition(".")[2]
    exec(f"def {name}({', '.join(parameters)}):\n    " + "\n    ".join(lines), namespace)
    namespace[name].__qualname__ = qualname
    return namespace[name]


class _Discriminant(Frozen):
    """A form's discriminant 4ab - c^2, in a slot that is not a field."""

    __slots__ = ("delta",)


(_set_delta,) = _setters(_Discriminant)


class TranscendentalForm(_Discriminant):
    """Positive definite even rank-2 form [[2a, c], [c, 2b]].

    This is the transcendental lattice datum of a singular K3 surface,
    presented by the half-integer triple (a, b, c) of ints (bools refused).
    Its ``delta`` = 4ab - c^2 is bound once, after `quadforms.definite_defect`.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        if type(a) is not int or type(b) is not int or type(c) is not int:
            raise ValueError("coefficients a, b, c must be ints")
        if (defect := definite_defect(a, b, c)) is not None:
            raise ValueError(defect)
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_delta(self, 4 * a * b - c * c)


_set_a, _set_b, _set_c = _setters(TranscendentalForm)


def _moved(a: int, b: int, c: int, x: int, y: int, z: int, w: int) -> tuple[int, int, int]:
    """The SL2 action on plain ints: the coefficients of (a, b, c) in the
    basis changed by [[x, y], [z, w]],

    a' = a x^2 + c x z + b z^2,  b' = a y^2 + c y w + b w^2,
    c' = 2 a x y + c (x w + y z) + 2 b w z; the discriminant is unchanged.
    """
    return (a * x * x + c * x * z + b * z * z, a * y * y + c * y * w + b * w * w,
            2 * a * x * y + c * (x * w + y * z) + 2 * b * w * z)

