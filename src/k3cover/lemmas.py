"""The facts about the region P that `verify-lemmas` re-derives: ROWS holds
one (name, check) row each, and a check returns its detail line or raises.
The rows reach `vinberg` through its module, so they check what classify
and replay run.  `_expand` is the proof's reference for a row of runs: the
family members and the slice maximizers are built by it, and the
family-coverage row holds `vinberg.search_norm`, which runs the families'
compiled closed forms, to it.  The per-slice maximum table here is stated
for the plain cone slices, with no gcd condition: its slice-8 maximizer is
divisible by 2.
"""

from __future__ import annotations

from itertools import combinations
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


def _expand(runs, k: int) -> vinberg.Vector11:
    """The vector of runs (slope, intercept, count) at parameter k."""
    out: vinberg.Vector11 = ()
    for slope, intercept, count in runs:
        out += (slope * k + intercept,) * count
    return out


def family_vector(name: str, param: int = 0) -> vinberg.Vector11:
    """A family's closed-form witness at a parameter in its range.  It only
    builds: the `family-coverage` row proves every family in P with its
    stated norm."""
    if name not in vinberg.FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    min_param, _, runs = vinberg.FAMILIES[name]
    if param < min_param:
        raise ValueError(f"family {name} needs parameter >= {min_param}")
    return _expand(runs, param)


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
    return _expand(_MAXIMIZER_RUNS[r], q)


def predicted_max_norm(m: int) -> int | None:
    """The stated slice maximum: the norm of slice_maximizer(m)."""
    top = slice_maximizer(m)
    return None if top is None else vinberg.norm(top)


_CONDITIONS = (*(f"x{i} >= x{i + 1}" for i in range(1, 10)), "x10 > 0", "x0 >= x1 + x2 + x3",
               "3 x0 > x1 + ... + x10")


def _margins(v) -> list[int]:
    """For each condition of P but the gcd, a margin that is >= 0 exactly when it holds."""
    x0, *tail = v
    return [*(x - y for x, y in zip(tail, tail[1:])), tail[9] - 1,
            x0 - tail[0] - tail[1] - tail[2], 3 * x0 - sum(tail) - 1]


def _coprime_for_every_k(x, y, k0: int) -> bool:
    """Whether the entries s k + t and u k + w of runs x and y are coprime for every
    k >= k0: their gcd divides d = u t - s w, so it repeats with period |d| in k, and
    when s = u = 0 it is gcd(t, w)."""
    (s, t, _), (u, w, _) = x, y
    period = abs(u * t - s * w) or int(s == u == 0)
    return period > 0 and all(gcd(s * k + t, u * k + w) == 1 for k in range(k0, k0 + period))


def _check_family(name: str) -> None:
    """Prove family `name` in P with its stated norm for every k >= k0.  Its entries are
    affine in k, so each margin is too: one that holds at k0 with a slope >= 0 always holds.
    The gcd is 1 when two entries are coprime for every k.  The norm is quadratic in k and
    the stated norm linear, so three parameters prove them equal."""
    k0, (slope, intercept), runs = vinberg.FAMILIES[name]
    members = [family_vector(name, k) for k in (k0, k0 + 1, k0 + 2)]
    for label, m, next_m in zip(_CONDITIONS, _margins(members[0]), _margins(members[1])):
        if m < 0 or next_m < m:
            k = k0 if m < 0 else k0 + m // (m - next_m) + 1     # the first k it fails at
            raise VerificationError(f"family {name}({k}) is not in P: condition {label} fails")
    if not any(_coprime_for_every_k(x, y, k0) for x, y in combinations(runs, 2)):
        raise VerificationError(f"family {name}: no two entries have gcd 1 for every k")
    for k, v in enumerate(members, k0):
        if vinberg.norm(v) != -(slope * k + intercept) or not vinberg.in_P(v):
            raise VerificationError(f"family {name}({k}) is not in P with its norm")


def _check_family_coverage() -> str:
    """Prove every family, then search_norm(n) a family member (name, k >= k0) of stated
    norm n for every n outside ABSENT: for each n < 96, which reaches every family, and
    24 spot checks past 10^30, which reach every X, Z and W family.  Members are built by
    `_expand`, which shares no code with the compiled closed forms search_norm runs.
    From n = 24 on, n + 24 keeps the family and adds 24 / slope to k, 1 for X and 6 for
    Z and W: two periods show it, and every larger n follows."""
    for name in sorted(vinberg.FAMILIES):
        _check_family(name)
    rule = {}
    for n in (*range(1, 96), *range(10**30, 10**30 + 24)):
        if n in vinberg.ABSENT:
            continue    # small-norm-absence checks that these have no witness
        v = vinberg.search_norm(n)
        if v is None:
            raise VerificationError(f"no witness of norm -{n}")
        rule[n] = next(((name, k) for name, (k0, (s, t), _) in vinberg.FAMILIES.items()
                        for k in ((n - t) // s if s else k0,)     # the k of norm n, if any
                        if s * k + t == n and k >= k0 and family_vector(name, k) == v), None)
        if rule[n] is None:
            raise VerificationError(f"witness for norm -{n} fails membership")
    for n in range(24, 72):
        name, k = rule[n]
        if rule[n + 24] != (name, k + 24 // vinberg.FAMILIES[name][1][0]):
            raise VerificationError(f"witness for norm -{n + 24} breaks the period 24")
    return (f"{len(vinberg.FAMILIES)} families in P for every parameter, "
            f"every norm but {sorted(vinberg.ABSENT)} witnessed")


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
        if top is not None and not in_slice(top, m):
            raise VerificationError(f"slice {m}: stated maximizer is invalid")
    return f"slices 4..{vinberg.SLICE_CAP} match the formulas"


ROWS = (("family-coverage", _check_family_coverage),
        ("small-norm-absence", _check_absence),
        ("max-table", _check_max_table))
