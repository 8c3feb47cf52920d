"""How fast the machine runs right now, from a fixed reference kernel.

The benchmark runs on a shared 2-core VM.  Pinned to one core, this kernel
flips between two speeds about 1.8 times apart, every second or so, on each
core independently, and stays slow for minutes at a time; k3cover's exact
arithmetic slows with it.  So the benchmark divides each timing by the
kernel's slowdown at that moment, and starts each child on the core where
the kernel ran faster.  A change to k3cover does not touch the kernel, so
it shows in full.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter, perf_counter_ns

REFERENCE_S = 0.0030   # kernel() on the unloaded 2-core VM, CPython 3.11

_GRAM = [[(7 * i + 3 * j) % 11 - 5 for j in range(10)] for i in range(10)]
_GRAM = [[_GRAM[i][j] + _GRAM[j][i] + (60 if i == j else 0) for j in range(10)]
         for i in range(10)]


def kernel() -> dict:
    """Fixed work: rational elimination on two 10x10 definite matrices."""
    memo = {}
    for shift in range(2):
        m = [[Fraction(x + shift if i == j else x) for j, x in enumerate(row)]
             for i, row in enumerate(_GRAM)]
        for i in range(10):
            for r in range(i + 1, 10):
                f = m[r][i] / m[i][i]
                m[r] = [a - f * b for a, b in zip(m[r], m[i])]
        memo[tuple(m[i][i].numerator for i in range(10))] = shift
    return memo


def slowdown() -> float:
    """The kernel's time now over REFERENCE_S."""
    start = perf_counter()
    kernel()
    return (perf_counter() - start) / REFERENCE_S


class Pacer:
    """Runs the kernel between forms, every `every_s` seconds of work.

    Each form gets the mean slowdown of the kernel runs just before and just
    after its stretch of forms.
    """

    def __init__(self, every_s: float = 0.1) -> None:
        self.every_ns = int(every_s * 1e9)
        self.samples = [slowdown()]
        self.marks = [0]
        self.last = perf_counter_ns()

    def tick(self, done: int) -> None:
        """Call between forms, with the number of forms done so far."""
        if perf_counter_ns() - self.last >= self.every_ns:
            self.samples.append(slowdown())
            self.marks.append(done)
            self.last = perf_counter_ns()

    def per_form(self, count: int) -> list[float]:
        self.samples.append(slowdown())
        self.marks.append(count)
        out: list[float] = []
        for j in range(len(self.marks) - 1):
            mean = (self.samples[j] + self.samples[j + 1]) / 2
            out += [mean] * (self.marks[j + 1] - self.marks[j])
        return out
