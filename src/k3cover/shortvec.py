"""Complete search for the vectors of one norm in negative definite lattices.

Exact arithmetic throughout: bounds propagate through a rational Cholesky
factorization and integer square roots, never floats, so a "no vector of
norm -2 exists" answer is genuinely exhaustive.  It answers one exact
norm at a time (`enumerate_norm`, `has_norm`), never a range of norms.

Vectors come in +/- pairs; one representative per pair is returned, the one
whose first nonzero coordinate is positive, in lexicographic order.

This is the general machinery.  The classifier does not use it: it decides
the complements of its embeddings, which lie in U + U(2), by reducing a
binary form.  The test suite uses it as an independent oracle for that
shortcut.

The Gram matrix is split into orthogonal connected components, each
enumerated once and memoized per (component, bound), then recombined.
The split is what keeps the oracle cheap: the root search of the 2 498
box complements (a, b <= 12, |c| <= 12) takes about 0.15 s through it
and 5.5-6.2 s as one Fincke-Pohst walk of each rank-10 Gram matrix
(CPython 3.11 on a shared 2-core VM), since every complement shares the
memoized E8(2) block.
The Cholesky factorization of each component is also the definiteness
check: a component that is not negative definite raises ValueError, and
only components that passed it are memoized.  No basis reduction runs
first: the only block of rank >= 3 the tests enumerate is E8(2), whose
standard Gram matrix is already reduced.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .intmat import IntegralLattice, IntMatrix

NORM_CEILING = 64


def _validate(target_norm: int) -> int:
    if target_norm >= 0:
        raise ValueError("target norm must be negative in a negative definite lattice")
    bound = -target_norm
    if bound > NORM_CEILING:
        raise ValueError(f"|target norm| {bound} exceeds the ceiling {NORM_CEILING}")
    return bound


def _cholesky(q: list[list[Fraction]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Q(x) = sum_i d[i] * (x_i + sum_{j>i} u[i][j] x_j)^2; ValueError unless Q > 0."""
    n = len(q)
    m = [row[:] for row in q]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = m[i][i]
        if d[i] <= 0:
            raise ValueError("gram matrix is not definite")
        for j in range(i + 1, n):
            u[i][j] = m[i][j] / d[i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] -= m[i][r] * m[i][c] / d[i]
    return d, u


def _level_range(c: Fraction, budget: Fraction) -> tuple[int, int]:
    """Integers x with (x + c)^2 <= budget, via exact integer square roots."""
    if budget < 0:
        return 1, 0
    cp, cq = c.numerator, c.denominator
    rp, rq = budget.numerator, budget.denominator
    s = isqrt((rp * cq * cq) // rq)
    lo = -((s + cp) // cq)
    hi = (s - cp) // cq
    return lo, hi


def _fp_groups(q: list[list[int]], bound: int) -> dict[int, list[tuple[int, ...]]]:
    """All x != 0 with x Q x^T <= bound (Q positive definite), grouped by value.

    One representative per +/- pair: the deepest assigned coordinate that is
    nonzero is positive (callers re-normalize signs after any basis change).
    """
    n = len(q)
    d, u = _cholesky([[Fraction(x) for x in row] for row in q])
    groups: dict[int, list[tuple[int, ...]]] = {}
    x = [0] * n

    def walk(level: int, budget: Fraction, all_zero: bool) -> None:
        if level < 0:
            used = Fraction(bound) - budget
            assert used.denominator == 1, "BUG: non-integer form value"
            groups.setdefault(int(used), []).append(tuple(x))
            return
        c = Fraction(0)
        urow = u[level]
        for j in range(level + 1, n):
            if urow[j] and x[j]:
                c += urow[j] * x[j]
        lo, hi = _level_range(c, budget / d[level])
        if all_zero:
            lo = max(lo, 0)
        for v in range(lo, hi + 1):
            x[level] = v
            zero_here = all_zero and v == 0
            if level == 0 and zero_here:
                continue
            spent = d[level] * (v + c) ** 2
            walk(level - 1, budget - spent, zero_here)
        x[level] = 0

    walk(n - 1, Fraction(bound), True)
    return groups


def _canonical_sign(vec: tuple[int, ...]) -> tuple[int, ...]:
    for v in vec:
        if v > 0:
            return vec
        if v < 0:
            return tuple(-x for x in vec)
    return vec


_CACHE: dict[tuple, tuple[int, dict[int, tuple[tuple[int, ...], ...]]]] = {}


def _component_groups(gram_rows: tuple[tuple[int, ...], ...],
                      bound: int) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Memoized enumeration of one definite block up to the given bound."""
    key = (gram_rows,)   # perfbench/worker.py reads the block as key[0]
    hit = _CACHE.get(key)
    if hit is not None and hit[0] >= bound:
        return {val: vecs for val, vecs in hit[1].items() if val <= bound}
    raw = _fp_groups([[-x for x in row] for row in gram_rows], bound)
    groups = {val: tuple(sorted(_canonical_sign(v) for v in vecs))
              for val, vecs in raw.items()}
    _CACHE[key] = (bound, groups)
    return groups


def _components(gram: IntMatrix) -> list[tuple[int, ...]]:
    """Connected components of the Gram matrix's nonzero pattern, by index."""
    n = gram.rows
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and gram.entries[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return comps


def _iter_vectors(lattice: IntegralLattice, bound: int):
    """Yield each vector of norm exactly -bound, one per +/- pair."""
    n = lattice.rank
    if n == 0:
        return
    comps = _components(lattice.gram)
    groups = []
    for comp in comps:
        sub = tuple(tuple(lattice.gram.entries[i][j] for j in comp) for i in comp)
        groups.append(_component_groups(sub, bound))

    # one vector, filled in place: component ci owns the positions comps[ci]
    # and leaves them zero whenever control returns to an earlier component;
    # the last component yields its vectors itself instead of recursing
    full = [0] * n
    last = len(comps) - 1

    def rec(ci: int, used: int, any_nonzero: bool):
        comp = comps[ci]
        if ci < last:
            yield from rec(ci + 1, used, any_nonzero)
        elif any_nonzero and used == bound:
            yield _canonical_sign(tuple(full))
        signs = (1, -1) if any_nonzero else (1,)
        for val, vecs in groups[ci].items():
            total = used + val
            if total > bound or (ci == last and total != bound):
                continue
            for v in vecs:
                for sign in signs:
                    for pos, coord in zip(comp, v):
                        full[pos] = sign * coord
                    if ci < last:
                        yield from rec(ci + 1, total, True)
                    else:
                        yield _canonical_sign(tuple(full))
        for pos in comp:
            full[pos] = 0

    yield from rec(0, 0, False)


def enumerate_norm(lattice: IntegralLattice, target_norm: int) -> list[tuple[int, ...]]:
    """All vectors of norm exactly target_norm.

    One representative per +/- pair, first nonzero coordinate positive,
    sorted lexicographically.
    """
    return sorted(_iter_vectors(lattice, _validate(target_norm)))


def has_norm(lattice: IntegralLattice, target_norm: int) -> bool:
    """Whether a vector of norm target_norm exists; stops at the first witness."""
    return next(_iter_vectors(lattice, _validate(target_norm)), None) is not None
