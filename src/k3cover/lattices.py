"""Rank-2 transcendental forms, their SL2 changes of basis, and parity classes.

`TranscendentalForm(a, b, c)` is the package's one binary-form type: the
Gram matrix [[2a, c], [c, 2b]], or equally the positive definite form
a x^2 + c x y + b y^2 that `quadforms` reduces.  These are the value types
the classifier reads its input through, kept free of any matrix machinery:
the Gram-matrix layer (integral lattices and the ambient U + U(2) + E8(2))
lives in `intmat` beside the algebra it is built on.
"""

from __future__ import annotations


class Frozen:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__`` and binds them once, in its
    own explicit ``__init__``, through the slot setters `_setters` returns;
    afterwards assignment and ``del`` raise AttributeError.  Two values are
    equal, and hash alike, when they have the same exact type and equal
    fields.
    """

    __slots__ = ()

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
    """The setters of the slots of ``cls``, in ``__slots__`` order.  A slot's
    own setter takes about half the time of ``object.__setattr__``, which
    first looks the name up on the type, and every scanned, classified or
    replayed form builds a form, a certificate and a classification."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class TranscendentalForm(Frozen):
    """Positive definite even rank-2 form [[2a, c], [c, 2b]].

    This is the transcendental lattice datum of a singular K3 surface,
    presented by the half-integer triple (a, b, c) of ints (bools refused).
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        if type(a) is not int or type(b) is not int or type(c) is not int:
            raise ValueError("coefficients a, b, c must be ints")
        if a <= 0 or b <= 0:
            raise ValueError("diagonal coefficients a, b must be positive")
        if 4 * a * b - c * c <= 0:
            raise ValueError("form must be positive definite (4ab - c^2 > 0)")
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)

    @property
    def delta(self) -> int:
        return 4 * self.a * self.b - self.c * self.c

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


_set_a, _set_b, _set_c = _setters(TranscendentalForm)


class Sl2Matrix(Frozen):
    """Integer matrix [[x, y], [z, w]] of determinant one."""

    __slots__ = ("x", "y", "z", "w")

    def __init__(self, x: int, y: int, z: int, w: int) -> None:
        if x * w - y * z != 1:
            raise ValueError("matrix must have determinant 1")
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)
        _set_w(self, w)

    @classmethod
    def identity(cls) -> "Sl2Matrix":
        return cls(1, 0, 0, 1)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.z, self.w)


_set_x, _set_y, _set_z, _set_w = _setters(Sl2Matrix)


def _moved(a: int, b: int, c: int, x: int, y: int, z: int, w: int) -> tuple[int, int, int]:
    """The SL2 action on plain ints: the coefficients of (a, b, c) in the
    basis changed by [[x, y], [z, w]],

    a' = a x^2 + c x z + b z^2,  b' = a y^2 + c y w + b w^2,
    c' = 2 a x y + c (x w + y z) + 2 b w z; the discriminant is unchanged.
    """
    return (a * x * x + c * x * z + b * z * z, a * y * y + c * y * w + b * w * w,
            2 * a * x * y + c * (x * w + y * z) + 2 * b * w * z)


def apply_basis_change(t: TranscendentalForm, g: Sl2Matrix) -> TranscendentalForm:
    """The form of the same lattice in the basis changed by g (`_moved`)."""
    return TranscendentalForm(*_moved(t.a, t.b, t.c, g.x, g.y, g.z, g.w))


def parity_class(t: TranscendentalForm) -> str:
    """The basis-change invariant parity class of (a, b, c).

    "I": all even; "II": c odd, ab even; "III": c even, a or b odd;
    "IV": all odd.  Basis changes preserve the class (and the discriminant),
    so the class is a property of the lattice, not the chosen basis.
    """
    a_even, b_even, c_even = t.a % 2 == 0, t.b % 2 == 0, t.c % 2 == 0
    if c_even:
        return "I" if a_even and b_even else "III"
    return "II" if a_even or b_even else "IV"
