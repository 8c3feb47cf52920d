"""Positive definite binary quadratic forms and Gauss reduction.

A form p x^2 + q x y + r y^2 is reduced when |q| <= p <= r, with q >= 0 on
the boundary (|q| = p or p = r).  Every positive definite form is equivalent
to exactly one reduced form, and the reduced form starts with the minimum of
the form, so "represents 1" is just "reduced leading coefficient is 1".

Reduction runs as one loop on plain ints (p, q, r), carrying the change of
basis as four ints; `represents_one` reads the reduced p and drops the
rest, and only `reduce_form` builds a `BinaryForm` and an `Sl2Matrix`, once
each, at the end.
"""

from __future__ import annotations

from .lattices import Frozen, Sl2Matrix

_set = object.__setattr__


class BinaryForm(Frozen):
    """p x^2 + q x y + r y^2 with p > 0 and negative discriminant."""

    __slots__ = ("p", "q", "r")

    def __init__(self, p: int, q: int, r: int) -> None:
        if p <= 0:
            raise ValueError("leading coefficient must be positive")
        if q * q - 4 * p * r >= 0:
            raise ValueError("form must be positive definite (q^2 - 4pr < 0)")
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "r", r)

    @property
    def discriminant(self) -> int:
        return self.q * self.q - 4 * self.p * self.r

    def triple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    def is_reduced(self) -> bool:
        return _is_reduced(self.p, self.q, self.r)


def evaluate(f: BinaryForm, x: int, y: int) -> int:
    return f.p * x * x + f.q * x * y + f.r * y * y


def transform(f: BinaryForm, g: Sl2Matrix) -> BinaryForm:
    """The equivalent form f((x, y) sent through g), i.e. basis change by g."""
    p = evaluate(f, g.x, g.z)
    r = evaluate(f, g.y, g.w)
    q = 2 * f.p * g.x * g.y + f.q * (g.x * g.w + g.y * g.z) + 2 * f.r * g.z * g.w
    return BinaryForm(p, q, r)


def _is_reduced(p: int, q: int, r: int) -> bool:
    """|q| <= p <= r, with q >= 0 on the boundary |q| = p or p = r."""
    if not (abs(q) <= p <= r):
        return False
    return q >= 0 or not (-q == p or p == r)


def _gauss(p: int, q: int, r: int) -> tuple[int, int, int, int, int, int, int]:
    """Gauss reduction of a positive definite (p, q, r) on plain ints.

    Returns the reduced (p, q, r) followed by the entries (x, y, z, w) of
    the SL2 matrix that carries the input to it.  Each translation by t is
    the matrix [[1, t], [0, 1]] and each swap is [[0, -1], [1, 0]].
    """
    x, y, z, w = 1, 0, 0, 1
    while True:
        # translate q into (-p, p]
        t = (p - q) // (2 * p)
        if t:
            r += t * (q + p * t)
            q += 2 * p * t
            y += x * t
            w += z * t
        if p <= r:
            break
        p, q, r = r, -q, p
        x, y, z, w = y, -x, w, -z
    if p == r and q < 0:
        q = -q
        x, y, z, w = y, -x, w, -z
    assert _is_reduced(p, q, r), f"BUG: reduction ended on non-reduced form {(p, q, r)}"
    return p, q, r, x, y, z, w


def reduce_form(f: BinaryForm) -> tuple[BinaryForm, Sl2Matrix]:
    """Gauss reduction.  Returns (reduced, g) with transform(f, g) == reduced."""
    p, q, r, x, y, z, w = _gauss(f.p, f.q, f.r)
    return BinaryForm(p, q, r), Sl2Matrix(x, y, z, w)


def represents_one(f: BinaryForm) -> bool:
    """Whether f(x, y) = 1 has an integer solution."""
    return _gauss(f.p, f.q, f.r)[0] == 1

