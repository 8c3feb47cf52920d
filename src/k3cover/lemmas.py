"""The facts about the region P that `verify-lemmas` re-derives: ROWS holds
one (name, check) row each, and a check returns its detail line or raises.
The rows reach `vinberg` through its module, so they check what classify
and replay run.  The per-slice maximum table here is stated for the plain
cone slices, with no gcd condition: its slice-8 maximizer is divisible by 2.
"""

from __future__ import annotations

from math import gcd

from . import vinberg
from .errors import VerificationError


def in_slice(v, m: int) -> bool:
    """Membership in the slice x0 = m: the conditions of P but the gcd.

    Those conditions are homogeneous, so v meets them exactly when v divided
    by its gcd does, and that vector has gcd 1: in_P holds the one copy.
    """
    v = tuple(v)
    g = gcd(*v)
    return g > 0 and vinberg.in_P(x // g for x in v) and v[0] == m


def family_vector(name: str, param: int = 0) -> vinberg.Vector11:
    """A family's closed-form witness at a parameter in its range.  It only
    builds: the tests prove every family in P with its stated norm, and the
    `family-coverage` row re-checks the members it draws."""
    if name not in vinberg.FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    min_param, _, runs = vinberg.FAMILIES[name]
    if param < min_param:
        raise ValueError(f"family {name} needs parameter >= {min_param}")
    return vinberg._expand(runs, param)


def max_norm_in_slice(m: int) -> int | None:
    """Largest norm over the slice; None when the slice is empty."""
    return max(vinberg.slice_norms(m), default=None)


# The maximum table, stated once as the maximizer of each slice m: slices 5,
# 6 and 8 written out, the empty slice 3 as None, and every other m = 3q + r
# as runs in q by the residue r, of norms 5 - 4q, 1 - 4q and 9 - 8q
_MAXIMIZERS = {3: None, 5: (5, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1),
               6: (6, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1), 8: (8, 4, 2, 2, 2, 2, 2, 2, 2, 2, 2)}
_MAXIMIZER_RUNS = (((3, 0, 1), (1, 0, 8), (1, -2, 1), (0, 1, 1)),
                   ((3, 1, 1), (1, 1, 1), (1, 0, 8), (0, 1, 1)),
                   ((3, 2, 1), (1, 2, 1), (1, 0, 8), (0, 3, 1)))


def slice_maximizer(m: int) -> vinberg.Vector11 | None:
    """The stated maximizer of slice m; None for the empty slice m = 3."""
    vinberg._check_slice(m)
    if m in _MAXIMIZERS:
        return _MAXIMIZERS[m]
    q, r = divmod(m, 3)
    return vinberg._expand(_MAXIMIZER_RUNS[r], q)


def predicted_max_norm(m: int) -> int | None:
    """The stated slice maximum: the norm of slice_maximizer(m)."""
    top = slice_maximizer(m)
    return None if top is None else vinberg.norm(top)


def _check_family_coverage() -> str:
    up_to = 200     # every admissible norm -n up to here must have its witness
    for name, (min_param, (slope, intercept), _) in sorted(vinberg.FAMILIES.items()):
        for param in range(min_param, min_param + 25):
            v = family_vector(name, param)
            if vinberg.norm(v) != -(slope * param + intercept) or not vinberg.in_P(v):
                raise VerificationError(f"family {name}({param}) is not in P with its norm")
    witnessed = 0
    for n in range(3, up_to + 1):
        if n in vinberg.ABSENT:
            continue    # small-norm-absence checks that these have no witness
        v = vinberg.search_norm(n)
        if v is None:
            raise VerificationError(f"no witness of norm -{n}")
        if vinberg.norm(v) != -n or not vinberg.in_P(v):
            raise VerificationError(f"witness for norm -{n} fails membership")
        witnessed += 1
    return f"{witnessed} norms witnessed up to {up_to}"


def _check_absence() -> str:
    targets = sorted(vinberg.ABSENT)
    for n in targets:
        for m in range(3, vinberg.SLICE_CAP + 1):
            if -n in vinberg.slice_norms(m):
                raise VerificationError(f"norm -{n} appears in slice {m}")
        if vinberg.search_norm(n) is not None:
            raise VerificationError(f"search found a phantom witness for norm -{n}")
    return f"norms {targets} absent through slice {vinberg.SLICE_CAP}"


def _check_max_table() -> str:
    for m in range(3, vinberg.SLICE_CAP + 1):
        want = predicted_max_norm(m)
        got = max_norm_in_slice(m)
        if got != want:
            raise VerificationError(f"slice {m}: maximum {got}, formula says {want}")
        top = slice_maximizer(m)
        if top is None and got is None:
            continue    # an empty slice states no maximizer
        if top is None or vinberg.norm(top) != want or not in_slice(top, m):
            raise VerificationError(f"slice {m}: stated maximizer is invalid")
    return f"slices 4..{vinberg.SLICE_CAP} match the formulas"


ROWS = (("family-coverage", _check_family_coverage),
        ("small-norm-absence", _check_absence),
        ("max-table", _check_max_table))
