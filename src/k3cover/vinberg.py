"""Witness vectors in the odd Lorentzian lattice <-1> + <1>^10.

A covering certificate for the interesting branch needs a vector x =
(x0, x1, .., x10) with -x0^2 + x1^2 + .. + x10^2 = -N lying in the region P:

    gcd(x0..x10) = 1,  x1 >= x2 >= ... >= x10 > 0,
    x0 >= x1 + x2 + x3,  3*x0 > x1 + ... + x10.

Closed-form families cover every N >= 3 except N = 4, so search_norm is a
dispatch that never enumerates.  FAMILIES states each family once, as a row
(minimal parameter k, stated N as (slope, intercept), runs of x0, x1, ..,
x10 in order), where a run (slope, intercept, count) stands for `count`
entries slope*k + intercept.  search_norm runs each row compiled to one
function of k (`_closed_forms`); `lemmas` expands the rows by code of its
own and checks the two against each other.  For N in {1, 2, 4} no vector
of P has norm -N: the per-slice norm sets verify it through slice
SLICE_CAP, and beyond that it rests on the per-slice maximum table of
`lemmas`, which nothing yet checks past SLICE_CAP.

Slices are indexed by x0 = m.  A slice deliberately drops the gcd
condition: searching the larger set only strengthens absence results.
in_P checks full membership, gcd included.  No slice is ever listed:
slice_norms builds a slice's set of norms by a memoised recurrence on sums
of squares, and the test suite holds it to an explicit enumeration of the
slice.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .lattices import _compiled

SLICE_CAP = 20          # desk-scale cap on x0 for exhaustive slice work
ABSENT = frozenset({1, 2, 4})   # norms -N with no witness in P

Vector11 = tuple[int, ...]


def norm(v) -> int:
    v = tuple(v)
    if len(v) != 11:
        raise ValueError("vectors here have 11 coordinates")
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = v
    return (x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4 + x5 * x5 + x6 * x6 + x7 * x7 + x8 * x8
            + x9 * x9 + x10 * x10 - x0 * x0)


def in_P(v) -> bool:
    """Membership in the fundamental-domain slice region described above."""
    v = tuple(v)
    if len(v) != 11:
        raise ValueError("vectors here have 11 coordinates")
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = v
    return (gcd(*v) == 1 and x1 >= x2 >= x3 >= x4 >= x5 >= x6 >= x7 >= x8 >= x9 >= x10 > 0
            and x0 >= x1 + x2 + x3 and 3 * x0 > x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10)


# name -> row, laid out as the module docstring says; `lemmas`' family-coverage
# row proves from these that every member lies in P with its norm
FAMILIES: dict[str, tuple[int, tuple[int, int], tuple[tuple[int, int, int], ...]]] = {
    "X0": (1, (24, 0), ((9, 4, 1), (3, 2, 1), (3, 1, 7), (3, -1, 1), (0, 2, 1))),
    "X2": (1, (24, 2), ((9, 4, 1), (3, 2, 1), (3, 1, 6), (3, 0, 2), (0, 2, 1))),
    "X4": (1, (24, 4), ((12, 4, 1), (4, 2, 1), (4, 1, 7), (4, 0, 1), (0, 1, 1))),
    "X6": (1, (24, 6), ((9, 5, 1), (3, 2, 2), (3, 1, 7), (0, 2, 1))),
    "X8": (1, (24, 8), ((9, 7, 1), (3, 3, 1), (3, 2, 7), (3, 0, 1), (0, 2, 1))),
    "X10": (0, (24, 10), ((12, 7, 1), (4, 3, 1), (4, 2, 7), (4, 1, 1), (0, 1, 1))),
    "X12": (0, (24, 12), ((12, 9, 1), (4, 3, 7), (4, 2, 1), (4, 1, 1), (0, 1, 1))),
    "X14": (0, (24, 14), ((9, 8, 1), (3, 3, 2), (3, 2, 7), (0, 2, 1))),
    "X16": (1, (24, 16), ((9, 10, 1), (3, 4, 1), (3, 3, 7), (3, 1, 1), (0, 2, 1))),
    "X18": (0, (24, 18), ((12, 12, 1), (4, 4, 7), (4, 3, 1), (4, 2, 1), (0, 1, 1))),
    "X20": (1, (24, 20), ((6, 12, 1), (2, 6, 1), (2, 3, 8), (0, 4, 1))),
    "X22": (0, (24, 22), ((9, 11, 1), (3, 4, 2), (3, 3, 7), (0, 2, 1))),
    "Y6": (0, (0, 6), ((0, 4, 1), (0, 1, 10))),
    "Y8": (0, (0, 8), ((0, 6, 1), (0, 2, 6), (0, 1, 4))),
    "Y16": (0, (0, 16), ((0, 7, 1), (0, 3, 1), (0, 2, 5), (0, 1, 4))),
    "Y20": (0, (0, 20), ((0, 6, 1), (0, 2, 2), (0, 1, 8))),
    "Z": (1, (4, -1), ((3, 1, 1), (1, 1, 1), (1, 0, 8), (0, 1, 1))),
    "W": (2, (4, -3), ((3, 0, 1), (1, 0, 7), (1, -1, 2), (0, 1, 1))),
}


@lru_cache(maxsize=None)
def _tail_squares(k: int, top: int, room: int) -> int:
    """The sums of squares of k entries, as a bitset: bit j is set when k
    non-increasing entries in [1, top], summing to at most room, have
    squares that sum to j."""
    if k == 0:
        return 1
    bits = 0
    # the first entry v leaves room - v for the other k - 1, each at least 1
    for v in range(1, min(top, room - k + 1) + 1):
        bits |= _tail_squares(k - 1, v, room - v) << v * v
    return bits


def _check_slice(m: int) -> None:
    if not 3 <= m <= SLICE_CAP:
        raise ValueError(f"slice index must lie in [3, {SLICE_CAP}]")


@lru_cache(maxsize=None)
def slice_norms(m: int) -> frozenset[int]:
    """Every norm attained on the slice x0 = m (gcd not applied).

    The slice is x1 >= ... >= x10 >= 1 with x1 + x2 + x3 <= m and a tail
    sum of at most 3m - 1.  Each head x1, x2, x3 leaves seven entries in
    [1, x3] for the rest of that sum, and their sums of squares come from
    `_tail_squares`, which every slice shares.  Memoised, so that absence
    checks and the maximum table cost one pass per slice and process.
    """
    _check_slice(m)
    bits = 0
    for x1 in range(1, m + 1):
        for x2 in range(1, min(x1, m - x1) + 1):
            for x3 in range(1, min(x2, m - x1 - x2) + 1):
                bits |= (_tail_squares(7, x3, 3 * m - 1 - x1 - x2 - x3)
                         << x1 * x1 + x2 * x2 + x3 * x3)
    # bit j of `bits` is digit j from the right of its binary string
    return frozenset(j - m * m for j, digit in enumerate(reversed(bin(bits))) if digit == "1")


@lru_cache(maxsize=None)
def _closed_forms() -> dict:
    """Each family's member as a function of its parameter k, by name, each body
    one tuple display of the eleven affine entries, a repeated one bound once to
    a local, which halves the time of writing it out at each place.  All are
    compiled at the first call, not at import, where they would add about
    0.6 ms to every start-up, and not one at a time, which would put a compile
    of about 40 us into the first form of each family (2-core VM, CPython 3.11)."""
    forms = {}
    for name, (_, _, runs) in FAMILIES.items():
        lines, entries = [], []
        for i, (slope, intercept, count) in enumerate(runs):
            entry = f"{slope} * k + {intercept}" if slope else str(intercept)
            if slope and count > 1:
                lines.append(f"e{i} = {entry}")
                entry = f"e{i}"
            entries += [entry] * count
        forms[name] = _compiled(f"_family_{name}", ("k",),
                                [*lines, f"return ({', '.join(entries)})"], {})
    return forms


# search_norm's tables from FAMILIES: the X and Y names by intercept (n mod 24, n)
_X_NAMES, _Y_NAMES = ({intercept: name for name, (_, (_, intercept), _) in FAMILIES.items()
                       if name[0] == letter} for letter in "XY")


def search_norm(n: int) -> Vector11 | None:
    """A vector of P with norm -n, or None when no such vector exists.

    A dispatch to the closed-form families, which lie in P with their stated
    norms for every parameter: Y for n in {6, 8, 16, 20}, Z for n = 3 mod 4,
    W for the other odd n, and X by n mod 24 for the rest.  None for n in
    ABSENT is exhaustive, by the slice tables (see the module docstring).
    """
    if n <= 0:
        raise ValueError("search target must be a positive integer")
    if n in ABSENT:
        return None
    forms = _closed_forms()
    if n in _Y_NAMES:
        return forms[_Y_NAMES[n]](0)
    if n % 2 == 1:
        return forms["Z"]((n + 1) // 4) if n % 4 == 3 else forms["W"]((n + 3) // 4)
    return forms[_X_NAMES[n % 24]](n // 24)
