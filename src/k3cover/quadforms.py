"""Positive definiteness and Gauss reduction of binary forms, and representing 1.

A `TranscendentalForm` (a, b, c), the Gram matrix [[2a, c], [c, 2b]], is the
form a x^2 + c x y + b y^2; `definite_defect` is the one rule that it is
positive definite, a, b > 0 and 4ab - c^2 > 0.  Written p x^2 + q x y + r y^2,
a form is reduced when |q| <= p <= r, with q >= 0 on the boundary (|q| = p
or p = r).  Every positive definite form is equivalent to exactly one
reduced form, whose leading coefficient is the minimum of the form, so
"represents 1" is just "reduced leading coefficient is 1".

Reduction runs as one loop on plain ints (p, q, r) = (a, c, b) and returns
the reduced triple alone: `represents_one` reads its p, and no caller reads
the change of basis, so the loop does not track one.  The loop that does,
and proves each reduction by applying it, is the tests' oracle.
"""

from __future__ import annotations


def definite_defect(a: int, b: int, c: int) -> str | None:
    """The message of the first condition that a x^2 + c x y + b y^2, on plain
    ints, fails as a positive definite form, or None if it is one."""
    if a <= 0 or b <= 0:
        return "diagonal coefficients a, b must be positive"
    return None if 4 * a * b > c * c else "form must be positive definite (4ab - c^2 > 0)"


def _is_reduced(p: int, q: int, r: int) -> bool:
    """|q| <= p <= r, with q >= 0 on the boundary |q| = p or p = r."""
    if not (abs(q) <= p <= r):
        return False
    return q >= 0 or not (-q == p or p == r)


def _gauss(p: int, q: int, r: int) -> tuple[int, int, int]:
    """Gauss reduction of a positive definite p x^2 + q x y + r y^2 on plain ints:
    the reduced (p, q, r).  Each step translates by t, the basis change
    [[1, t], [0, 1]], or swaps, [[0, -1], [1, 0]]."""
    while True:
        # translate q into (-p, p]
        t = (p - q) // (2 * p)
        if t:
            r += t * (q + p * t)
            q += 2 * p * t
        if p <= r:
            break
        p, q, r = r, -q, p
    if p == r and q < 0:
        q = -q
    assert _is_reduced(p, q, r), f"BUG: reduction ended on non-reduced form {(p, q, r)}"
    return p, q, r


def represents_one(p: int, q: int, r: int) -> bool:
    """Whether a positive definite p x^2 + q x y + r y^2 = 1 has an integer
    solution, on plain ints; for a form (a, b, c), ``represents_one(a, c, b)``.

    A form whose three coefficients are all even takes only even values, so
    it never represents 1; only the other forms are reduced.
    """
    if not (p | q | r) & 1:
        return False
    return _gauss(p, q, r)[0] == 1
