"""Command line front end.

Three subcommands:

  classify        decide one form (a, b, c), replay its certificate, and
                  print the verdict or the form's scan line
  scan            classify a whole box of forms to JSON lines
  verify-lemmas   re-check the tabulated facts the classifier relies on

Exit codes: 0 success, 1 invalid input (or output that cannot be written),
2 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import deque
from functools import lru_cache
from itertools import islice
from math import isqrt
from operator import add

from . import classifier
from .classifier import classify, verify_classification
from .errors import VerificationError
from .lattices import TranscendentalForm, _compiled

CASE_ORDER = tuple(classifier.CASES)


def _fail(message: str, code: int) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def classify_cmd(a: int | None, b: int | None, c: int | None, gram: str | None,
                 as_json: bool) -> None:
    """Classify a single form, replay its certificate, and print its verdict."""
    if gram is not None:
        if a is not None or b is not None or c is not None:
            _fail("--gram cannot be combined with --a/--b/--c", 1)
        try:
            d1, off, d2 = map(int, gram.split(","))
        except ValueError:
            _fail("--gram wants three comma separated integers", 1)
        if d1 % 2 or d2 % 2:
            _fail("diagonal Gram entries must be even", 1)
        a, b, c = d1 // 2, d2 // 2, off
    elif a is None or b is None or c is None:
        _fail("provide --a, --b and --c (or --gram)", 1)
    try:
        form = TranscendentalForm(a, b, c)
    except ValueError as exc:
        _fail(str(exc), 1)
    result = classify(form)
    try:
        verify_classification(form, result)
    except VerificationError as exc:
        _fail(f"verification failed: {exc}", 2)
    if as_json:
        print(_scan_line(form, result))
    else:
        verdict = "covers" if result.covers else "does not cover"
        print(f"case {result.case_label}: {verdict}")


@lru_cache(maxsize=None)
def _format(n: int) -> str:
    return ",".join(["%d"] * n)     # made once per length, "%d" writes an int as str does


def _join(values: tuple) -> str:
    return _format(len(values)) % values


def _rows_json(rows) -> str:
    return "[" + ",".join([f"[{_join(row)}]" for row in rows]) + "]"


# The strings a record may hold, each already quoted: the case labels and
# the construction names.  Anything else is refused with KeyError, so no
# string a template writes needs escaping.
_QUOTED = {name: f'"{name}"' for name in (*CASE_ORDER, *classifier.CONSTRUCTIONS)}

# Each certificate kind's writer, on its fields in __slots__ order: `to_dict()` of the
# certificate as json.dumps writes it with sorted keys and no whitespace, one f-string
# compiled once from `classifier.FIELDS`, each field written as its shape says here.
_SHAPE_JSON = {"name": "{_QUOTED[%s]}", "int": "{%s}", "ints": "[{_join(%s)}]",
               "rows": "{_rows_json(%s)}"}


def _writer(kind: str, fields: dict[str, str]):
    parts = {"kind": f'"{kind}"'} | {n: _SHAPE_JSON[shape] % n for n, shape in fields.items()}
    body = ",".join(f'"{key}":{parts[key]}' for key in sorted(parts))
    return _compiled(f"_write_{kind.replace('-', '_')}", fields, [f"return f'{{{{{body}}}}}'"],
                     {"_QUOTED": _QUOTED, "_join": _join, "_rows_json": _rows_json})


_CERTIFICATE_JSON = {kind: _writer(kind, fields) for kind, fields in classifier.FIELDS.items()}


def _line(a: int, b: int, c: int, label: str, covers: bool, delta: int, kind: str, fields):
    """The record of one form, as `scan` writes it and `classify --json` prints it:
    the bytes of `json.dumps`, sorted keys and no whitespace, for ``{"a", "b", "c"}``
    next to ``Classification.to_dict()``, the tests' oracle.  No string but
    the fixed ones in `_QUOTED` is written."""
    return (f'{{"a":{a},"b":{b},"c":{c},"case":{_QUOTED[label]},'
            f'"certificate":{_CERTIFICATE_JSON[kind](*fields)},'
            f'"covers":{"true" if covers else "false"},"delta":{delta}}}')


def _scan_line(form: TranscendentalForm, result: classifier.Classification) -> str:
    """`_line` of a classified form."""
    cert = result.certificate
    return _line(form.a, form.b, form.c, result.case_label, result.covers, result.delta,
                 cert.kind, cert._values())


# Measured in process, 2-core VM, CPython 3.11.  A task gathers whole rows until
# it holds this many forms: a 224 kB block, made in 7 ms, pickled both ways in 0.1 ms.
_TASK_FORMS = 1024
# Tasks in flight per worker, and so blocks the parent holds: two workers ran
# the m = 40 box at 7.0, 6.0, 5.3 and 5.6 us a form with 1, 2, 4 and 8.
_TASKS_PER_WORKER = 4
# A pool pays once each worker gets this many forms.  Two workers cost 27 ms (import,
# start, first block, shutdown) and save 2.0 of m = 40's 6.4 us a form if the second
# CPU is free; on a shared VM they beat one in 5/12 pairs at m = 22 (16 782 forms),
# 10/12 at m = 24 (21 692), and on the cheaper forms a = 1, c = 0 in 7/12 at 25 000.
_POOL_FORMS = 11_000


def _rows(a_max: int, b_max: int, c_min: int, c_max: int):
    """The non-empty rows of the box in scan order, as (a, b, first c, last c).

    The form is positive definite exactly when c^2 < 4ab, that is when
    |c| <= isqrt(4ab - 1), so each row is one interval of c, non-empty
    exactly when 4ab > c0^2 for c0 the smallest |c| of the range: a and b
    start where that holds, and no empty row is visited.  The whole range
    fits once 4ab > c1^2, for c1 the largest |c| of the range, and from that
    b on a row is the range itself, with no isqrt."""
    if c_min > c_max or b_max < 1:
        return
    c0, c1 = max(c_min, -c_max, 0), max(-c_min, c_max)
    for a in range(c0 * c0 // (4 * b_max) + 1, a_max + 1):
        fits = c1 * c1 // (4 * a) + 1       # the first b with 4ab > c1^2
        for b in range(c0 * c0 // (4 * a) + 1, min(fits, b_max + 1)):
            r = isqrt(4 * a * b - 1)
            yield a, b, max(c_min, -r), min(c_max, r)
        for b in range(fits, b_max + 1):
            yield a, b, c_min, c_max


def _tasks(rows):
    """Consecutive rows, grouped into tuples of at least `_TASK_FORMS` forms
    (the last may hold fewer)."""
    task, size = [], 0
    for row in rows:
        task.append(row)
        size += row[3] - row[2] + 1
        if size >= _TASK_FORMS:
            yield tuple(task)
            task, size = [], 0
    if task:
        yield tuple(task)


def _scan_rows(rows) -> tuple[tuple[int, ...], str]:
    """Classify every form of some rows: the per-case counts, in CASE_ORDER,
    and the rows' lines as one block, each line ended by a newline.  The lines
    come from the integer decision that `classify` wraps (`classifier._case`,
    `classifier._CERTIFY`), which builds no form, certificate or classification."""
    case, table, cases = classifier._case, classifier._CERTIFY, classifier.CASES
    counts = dict.fromkeys(CASE_ORDER, 0)
    lines = []
    for a, b, lo, hi in rows:
        for c in range(lo, hi + 1):
            delta = 4 * a * b - c * c
            label = case(a, b, c, delta)
            counts[label] += 1
            kind, fields = table[label]
            lines.append(_line(a, b, c, label, cases[label][0], delta, kind,
                               fields(a, b, c, delta)))
    lines.append("")
    return tuple(counts.values()), "\n".join(lines)


def _in_order(pool, fn, tasks, window: int):
    """``map(fn, tasks)`` on a process pool, with at most ``window`` tasks
    submitted and not yet taken; results come in the order of ``tasks``."""
    pending = deque()
    for task in tasks:
        pending.append(pool.submit(fn, task))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _worker_count(a_max: int, b_max: int, c_min: int, c_max: int) -> int:
    # the CPUs this process may run on, which an affinity mask (taskset,
    # a container's cpuset) can make fewer than the machine has
    affinity = getattr(os, "sched_getaffinity", None)
    limit = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    env = os.environ.get("K3COVER_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            _fail(f"K3COVER_THREADS must be an integer, got {env!r}", 1)
        if cap < 1:
            _fail("K3COVER_THREADS must be at least 1", 1)
        limit = min(limit, cap)
    # one worker, or a box with fewer triples (a, b, c) than two shares, counts no row
    if limit == 1 or a_max * b_max * (c_max - c_min + 1) < 2 * _POOL_FORMS:
        return 1
    # every row holds a form, so `limit` shares' worth of rows settle the count
    rows = islice(_rows(a_max, b_max, c_min, c_max), limit * _POOL_FORMS)
    return max(1, min(limit, sum(hi - lo + 1 for _, _, lo, hi in rows) // _POOL_FORMS))


def scan_cmd(a_max: int, b_max: int, c_min: int, c_max: int, out: str) -> None:
    """Classify every positive definite form in a coefficient box.

    Emits one JSON line per form, ordered by (a, b, c) ascending, and a
    per-case tally on stderr.  Output is byte-identical for a given box no
    matter how many worker processes run (K3COVER_THREADS caps them).  Rows
    of the box stream through in blocks, so memory does not grow with it.
    """
    box = (a_max, b_max, c_min, c_max)
    if next(_rows(*box), None) is None:
        _fail("no positive definite forms in the requested ranges", 1)
    workers = _worker_count(*box)
    try:
        handle = sys.stdout if out == "-" else open(out, "w", encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot open {out!r} for writing: {exc}", 1)
    counts = [0] * len(CASE_ORDER)
    tasks = _tasks(_rows(*box))
    pool = None
    try:
        try:
            if workers == 1:
                blocks = map(_scan_rows, tasks)
            else:
                # imported on demand: it adds 20-40 ms to every start-up
                from concurrent.futures import ProcessPoolExecutor
                pool = ProcessPoolExecutor(max_workers=workers)
                blocks = _in_order(pool, _scan_rows, tasks, _TASKS_PER_WORKER * workers)
            for task_counts, block in blocks:
                counts = list(map(add, counts, task_counts))
                handle.write(block)
        finally:
            if pool is not None:
                # after a failed write, the window's tasks not yet started are dropped
                pool.shutdown(cancel_futures=True)
            if handle is not sys.stdout:
                handle.close()
    except OSError as exc:
        if handle is sys.stdout:
            raise       # to main, which quiets stdout; a failed --out file leaves it be
        _fail(f"cannot write the output: {exc.strerror or exc}", 1)
    tally = " ".join(f"{label}={count}" for label, count in zip(CASE_ORDER, counts))
    print(f"scanned {sum(counts)} forms: {tally}", file=sys.stderr)


def verify_lemmas_cmd() -> None:
    """Print one line per row of `lemmas.ROWS`; exit 2 on any failure."""
    from . import lemmas   # here, not at the top: no other command needs it
    failed = False
    for name, check in lemmas.ROWS:
        try:
            detail = check()
        except Exception as exc:  # noqa: BLE001 - any breakage must turn the row red
            failed = True
            print(f"{name:<20} FAIL  {exc}")
        else:
            print(f"{name:<20} pass  {detail}")
    if failed:
        sys.exit(2)


class _Parser(argparse.ArgumentParser):
    """Options must be spelled in full, and a usage error is invalid input:
    `error: ...` on stderr, exit 1."""

    def __init__(self, **kwargs: object) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:
        _fail(message, 1)

    def print_help(self, file=None) -> None:
        # argparse's own writer drops a failed write; flushed here, the
        # error reaches the handler in `main` before --help exits 0
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="k3cover",
        description="Decide which singular K3 surfaces doubly cover an Enriques surface.  "
                    "A surface is given by the coefficients (a, b, c) of its transcendental "
                    "lattice [[2a, c], [c, 2b]]; every verdict ships with a certificate that "
                    "can be replayed independently.")
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    cmd = commands.add_parser(
        "classify", help="Classify a single form, replay its certificate and print its verdict.")
    cmd.add_argument("--a", type=int, help="Half the first diagonal entry.")
    cmd.add_argument("--b", type=int, help="Half the second diagonal entry.")
    cmd.add_argument("--c", type=int, help="The off-diagonal entry.")
    cmd.add_argument("--gram", metavar="D1,C,D2",
                     help="Raw Gram entries instead of --a/--b/--c; diagonal must be even.")
    cmd.add_argument("--json", dest="as_json", action="store_true",
                     help="Print the form's record as the JSON line scan writes.")
    cmd.set_defaults(run=classify_cmd)

    cmd = commands.add_parser(
        "scan", help="Classify every positive definite form in a coefficient box.",
        description=scan_cmd.__doc__)
    cmd.add_argument("--a-max", type=int, required=True, help="Scan a = 1 .. a-max.")
    cmd.add_argument("--b-max", type=int, required=True, help="Scan b = 1 .. b-max.")
    cmd.add_argument("--c-min", type=int, required=True, help="Lower end of the c range.")
    cmd.add_argument("--c-max", type=int, required=True, help="Upper end of the c range.")
    cmd.add_argument("--out", default="-", metavar="PATH",
                     help="Output file for the JSON lines ('-' for stdout).")
    cmd.set_defaults(run=scan_cmd)

    cmd = commands.add_parser(
        "verify-lemmas", help="Re-derive the tabulated facts behind the classifier; "
                              "exit 2 on any failure.")
    cmd.set_defaults(run=verify_lemmas_cmd)
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run one subcommand; `argv` defaults to the process's arguments."""
    # Coefficients and certificate entries may pass CPython's default limit
    # of 4 300 digits for int <-> str, so it is lifted before any option is
    # parsed.  Versions before 3.10.7 have no limit to lift.
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is not None:
        lift(0)
    try:
        args = vars(_parser().parse_args(argv))
        args.pop("run")(**args)
        sys.stdout.flush()
    except OSError as exc:
        # stdout could not be written: the reader closed the pipe
        # (`k3cover scan ... | head`) or the device is full.  What is still
        # buffered goes to the null device, so the exit flush stays silent.
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, sys.stdout.fileno())
        except OSError:
            pass    # no descriptor, as a caller's StringIO: nothing waits for the exit flush
        os.close(null)
        _fail(f"cannot write the output: {exc.strerror or exc}", 1)


if __name__ == "__main__":
    main()
