"""Input generation for the three benchmark workloads.

Each workload has a fixed *pool* of forms (a, b, c), generated without the
program from a fixed pool seed, and a per-form record made by `record.py`:
the digest of the form's scan line, its case, and the enumeration nodes its
classification visited.  A run's `--seed` draws the forms it measures from
the pool by stratified sampling: the pool is sorted by (case, nodes), cut
into consecutive blocks of `k` forms, and one form is drawn from every
block.  Different seeds therefore measure different forms, while each run
sees the same mix of cheap and expensive forms; that keeps tail latencies
comparable between seeds without hiding the expensive forms.

Workloads:

  box      every positive definite form with 1 <= a, b <= 20 and |c| <= 20
           (12 668 forms), the traffic `scan` serves; small coefficients,
           mostly explicit embeddings that share the memoised E8(2) block.
  bigcoef  a and b uniform 6-digit integers, c uniform over the positive
           definite range; every complement block is distinct (memo
           misses) and the unreduced rank-2 block makes enumeration cost
           grow with coefficient size, giving a heavy tail.
  region   (1, n, 0) moved into a random SL2 basis with entries <= 50,
           n uniform in 3..5000, one form in ten with an absent norm from
           {1, 2, 4}: Vinberg witnesses and slice replay, no embeddings.

Each workload also names the box its `scan` child process covers, since
`scan` only takes coefficient boxes: a sub-box of `box`, a thin box along b
whose complement blocks are all distinct, and the region's reduced forms
(1, n, 0).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd, isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGEST_DIR = HERE / "digests"
POOL_SEED = 20020528
CASES = ("I", "II", "III-1", "III-2", "III-3", "IV")

Form = tuple[int, int, int]


def box_forms(a_max: int, b_max: int, c_min: int, c_max: int) -> list[Form]:
    """The forms `k3cover scan` covers for these bounds, in its output order."""
    return [
        (a, b, c)
        for a in range(1, a_max + 1)
        for b in range(1, b_max + 1)
        for c in range(c_min, c_max + 1)
        if 4 * a * b - c * c > 0
    ]


def _bigcoef_pool(size: int) -> list[Form]:
    rng = random.Random(POOL_SEED)
    out = []
    for _ in range(size):
        a = rng.randint(10**5, 10**6 - 1)
        b = rng.randint(10**5, 10**6 - 1)
        m = isqrt(4 * a * b - 1)
        out.append((a, b, rng.randint(-m, m)))
    return out


def _random_sl2(rng: random.Random, bound: int) -> tuple[int, int, int, int]:
    """Uniform-ish determinant-one matrix [[x, y], [z, w]], entries <= bound."""
    while True:
        x, z = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if gcd(x, z) != 1:
            continue
        # complete the coprime column (x, z) to x*w - y*z = 1, then shear
        s, t = _bezout(x, z)
        k = rng.randint(-3, 3)
        y, w = -t + k * x, s + k * z
        if max(abs(y), abs(w)) <= bound:
            return x, y, z, w


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(s, t) with a*s + b*t = gcd(a, b) = 1."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return (old_s, old_t) if old_r > 0 else (-old_s, -old_t)


def _region_pool(size: int) -> list[Form]:
    rng = random.Random(POOL_SEED)
    out = []
    for i in range(size):
        n = rng.choice((1, 2, 4)) if i % 10 == 0 else rng.randint(3, 5000)
        x, y, z, w = _random_sl2(rng, 50)
        # (1, n, 0) in the basis changed by [[x, y], [z, w]]
        out.append((x * x + n * z * z, y * y + n * w * w, 2 * x * y + 2 * n * z * w))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scan_box: tuple[int, int, int, int]   # a_max, b_max, c_min, c_max
    forms_per_s: int    # forms per --seconds: three timed passes at the parent's pace

    def pool(self) -> list[Form]:
        if self.name == "box":
            return box_forms(20, 20, -20, 20)
        if self.name == "bigcoef":
            return _bigcoef_pool(6000)
        return _region_pool(16000)

    def scan_args(self) -> list[str]:
        a_max, b_max, c_min, c_max = self.scan_box
        return ["--a-max", str(a_max), "--b-max", str(b_max),
                "--c-min", str(c_min), "--c-max", str(c_max)]

    def scan_forms(self) -> list[Form]:
        return box_forms(*self.scan_box)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("box", "the ROADMAP box a, b <= 20, |c| <= 20: small coefficients, "
                 "shared E8(2) memo, the traffic scan serves", (8, 8, -8, 8), 105),
        Workload("bigcoef", "6-digit a, b: distinct complement blocks miss the memo and "
                 "enumeration cost grows with coefficient size", (2, 100, -2, 2), 100),
        Workload("region", "III-2/III-3 forms in random SL2 bases: Vinberg witnesses and "
                 "slice replay, embeddings bypassed", (1, 20000, 0, 0), 400),
    )
}


@dataclass(frozen=True)
class Record:
    """What `record.py` stored for one pool form."""

    digest: str   # first 8 hex digits of sha256 of the scan line
    case: str
    nodes: int    # enumeration nodes classify visited, the pool classified in order


def line_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:8]


def pool_sha256(forms: list[Form]) -> str:
    return hashlib.sha256(json.dumps(forms).encode()).hexdigest()


def load_manifest() -> dict:
    return json.loads((DIGEST_DIR / "manifest.json").read_text())


def load_records(name: str) -> list[Record]:
    with gzip.open(DIGEST_DIR / f"{name}.tsv.gz", "rt") as fh:
        rows = [line.split() for line in fh if not line.startswith("#")]
    return [Record(d, case, int(nodes)) for d, case, nodes in rows]


def setup_forms(records: list[Record]) -> dict[str, int]:
    """Pool index of the first form of each case the workload produces."""
    first: dict[str, int] = {}
    for i, rec in enumerate(records):
        first.setdefault(rec.case, i)
    return {case: first[case] for case in CASES if case in first}


def sample(name: str, seed: int, seconds: float, records: list[Record],
           rounds: int) -> list[list[int]]:
    """Pool indices a run measures, as rounds in the order it measures them.

    Stratified by (case, nodes): one form from every block of k consecutive
    forms, with k chosen so that three passes of classify and replay take
    about `seconds` at the parent commit's pace.  The forms are dealt into
    `rounds` rounds of the same mix, each shuffled, so that each round's
    throughput estimates the same quantity.  The set-up forms are left out
    so that nothing the replay phase checks was primed by set-up.
    """
    skip = set(setup_forms(records).values())
    order = sorted((i for i in range(len(records)) if i not in skip),
                   key=lambda i: (CASES.index(records[i].case), records[i].nodes, i))
    target = max(1, round(WORKLOADS[name].forms_per_s * seconds))
    # p99 needs at least ten samples beyond it
    k = max(1, min(round(len(order) / target), len(order) // 1000))
    rng = random.Random(f"perfbench:{name}:{seed}")
    picked = [order[j + rng.randrange(k)] for j in range(0, len(order) - k + 1, k)]
    out = [picked[r::rounds] for r in range(rounds)]
    for part in out:
        rng.shuffle(part)
    return out
