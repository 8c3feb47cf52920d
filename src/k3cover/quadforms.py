"""Gauss reduction of positive definite binary forms, and representing 1.

The forms are `TranscendentalForm`s: (a, b, c), the Gram matrix
[[2a, c], [c, 2b]], is the form a x^2 + c x y + b y^2.  Written as
p x^2 + q x y + r y^2, a form is reduced when |q| <= p <= r, with q >= 0 on
the boundary (|q| = p or p = r).  Every positive definite form is equivalent
to exactly one reduced form, and the reduced form starts with the minimum of
the form, so "represents 1" is just "reduced leading coefficient is 1".

Reduction runs as one loop on plain ints (p, q, r) = (a, c, b), carrying
the change of basis as four ints; `represents_one` reads the reduced p and
drops the rest, and only `reduce_form` builds a `TranscendentalForm` and an
`Sl2Matrix`, once each, at the end.
"""

from __future__ import annotations

from .lattices import Sl2Matrix, TranscendentalForm


def _is_reduced(p: int, q: int, r: int) -> bool:
    """|q| <= p <= r, with q >= 0 on the boundary |q| = p or p = r."""
    if not (abs(q) <= p <= r):
        return False
    return q >= 0 or not (-q == p or p == r)


def _gauss(p: int, q: int, r: int) -> tuple[int, int, int, int, int, int, int]:
    """Gauss reduction of a positive definite p x^2 + q x y + r y^2 on plain ints.

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


def reduce_form(t: TranscendentalForm) -> tuple[TranscendentalForm, Sl2Matrix]:
    """Gauss reduction.  Returns (reduced, g) with apply_basis_change(t, g) == reduced."""
    p, q, r, x, y, z, w = _gauss(t.a, t.c, t.b)
    return TranscendentalForm(p, r, q), Sl2Matrix(x, y, z, w)


def represents_one(t: TranscendentalForm) -> bool:
    """Whether a x^2 + c x y + b y^2 = 1 has an integer solution.

    A form whose three coefficients are all even takes only even values, so
    it never represents 1; only the other forms are reduced.
    """
    if not (t.a | t.b | t.c) & 1:
        return False
    return _gauss(t.a, t.c, t.b)[0] == 1
