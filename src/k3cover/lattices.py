"""Rank-2 transcendental forms, their SL2 changes of basis, and parity classes.

`TranscendentalForm(a, b, c)` is the package's one binary-form type: the
Gram matrix [[2a, c], [c, 2b]], or equally the positive definite form
a x^2 + c x y + b y^2 that `quadforms` reduces.  These are the value types
the classifier reads its input through, kept free of any matrix machinery:
the Gram-matrix layer (integral lattices and the ambient U + U(2) + E8(2))
lives in `intmat` beside the algebra it is built on.
"""

from __future__ import annotations

_set = object.__setattr__


class Frozen:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__`` and binds them once, in its
    own explicit ``__init__``, through ``object.__setattr__`` or the slot's
    own setter; afterwards assignment and ``del`` raise AttributeError.  Two values are equal, and
    hash alike, when they have the same exact type and equal fields.
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
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    @property
    def delta(self) -> int:
        return 4 * self.a * self.b - self.c * self.c

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


class Sl2Matrix(Frozen):
    """Integer matrix [[x, y], [z, w]] of determinant one."""

    __slots__ = ("x", "y", "z", "w")

    def __init__(self, x: int, y: int, z: int, w: int) -> None:
        if x * w - y * z != 1:
            raise ValueError("matrix must have determinant 1")
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)
        _set(self, "w", w)

    @classmethod
    def identity(cls) -> "Sl2Matrix":
        return cls(1, 0, 0, 1)

    def compose(self, other: "Sl2Matrix") -> "Sl2Matrix":
        """Matrix product self @ other."""
        return Sl2Matrix(self.x * other.x + self.y * other.z,
                         self.x * other.y + self.y * other.w,
                         self.z * other.x + self.w * other.z,
                         self.z * other.y + self.w * other.w)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.z, self.w)


def apply_basis_change(t: TranscendentalForm, g: Sl2Matrix) -> TranscendentalForm:
    """The form of the same lattice in the basis changed by g.

    a' = a x^2 + c x z + b z^2,  b' = a y^2 + c y w + b w^2,
    c' = 2 a x y + c (x w + y z) + 2 b w z; the discriminant is unchanged.
    """
    a, b, c = t.a, t.b, t.c
    x, y, z, w = g.x, g.y, g.z, g.w
    return TranscendentalForm(
        a=a * x * x + c * x * z + b * z * z,
        b=a * y * y + c * y * w + b * w * w,
        c=2 * a * x * y + c * (x * w + y * z) + 2 * b * w * z,
    )


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
