"""Command line surface: classify, scan, verify-lemmas."""

import ast
import errno
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import tracemalloc
from concurrent.futures import Future
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import k3cover
from k3cover import classifier, cli, lemmas, vinberg
from k3cover.cli import CASE_ORDER, main
from k3cover.classifier import (
    Classification,
    ExhaustiveAbsence,
    ExplicitEmbedding,
    KeumCitation,
    ParityObstruction,
    VinbergWitness,
    case_of,
    classify,
    verify_classification,
)
from k3cover.lattices import TranscendentalForm

from conftest import ONE_FORM_PER_CASE, box_triples, enumerate_P_slice, moved, random_sl2


@pytest.fixture(autouse=True)
def digit_limit():
    """Restores this process's int <-> str digit limit, which every
    in-process run of `main` lifts, so that other tests keep the default."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    before = get_limit() if get_limit else None
    yield
    if before is not None:
        sys.set_int_max_str_digits(before)


def test_classify_human_output(runner):
    result = runner.invoke(main, ["classify", "--a", "1", "--b", "1", "--c", "1"])
    assert result.exit_code == 0
    assert result.output == "case IV: does not cover\n"
    result = runner.invoke(main, ["classify", "--a", "1", "--b", "2", "--c", "1"])
    assert result.exit_code == 0
    assert result.output == "case II: covers\n"


def test_classify_json_output(runner):
    result = runner.invoke(main, ["classify", "--a", "1", "--b", "3", "--c", "0", "--json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert set(data) == {"a", "b", "c", "case", "certificate", "covers", "delta"}
    assert (data["a"], data["b"], data["c"]) == (1, 3, 0)
    assert data["case"] == "III-2"
    assert data["covers"] is True
    assert data["delta"] == 12
    assert data["certificate"]["kind"] == "vinberg-witness"
    assert data["certificate"]["n"] == 3
    assert len(data["certificate"]["vector"]) == 11


def test_classify_gram_option(runner):
    result = runner.invoke(main, ["classify", "--gram", "2,1,4"])
    assert result.exit_code == 0
    assert result.output == "case II: covers\n"
    # same form, negative pairing
    result = runner.invoke(main, ["classify", "--gram", "2,-1,4"])
    assert result.exit_code == 0
    assert result.output == "case II: covers\n"


def test_plain_classify_replays_the_certificate(runner, monkeypatch):
    replayed = []

    def replay(form, result):
        replayed.append((form, result))
        verify_classification(form, result)

    monkeypatch.setattr(cli, "verify_classification", replay)
    result = runner.invoke(main, ["classify", "--a", "2", "--b", "3", "--c", "2"])
    assert result.exit_code == 0
    assert result.output == "case III-1: covers\n"
    form = TranscendentalForm(2, 3, 2)
    assert replayed == [(form, classify(form))]


# A III-2 record whose witness is (4, 2, 1, ..., 1, 1) with its last entry
# raised to 2: the verdict stands, the certificate does not prove it
_FORGED = Classification("III-2", True, 12, VinbergWitness(3, (4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2)))


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
def test_classify_exits_2_on_a_failed_replay(runner, monkeypatch, json_flag):
    monkeypatch.setattr(cli, "classify", lambda form: _FORGED)
    result = runner.invoke(main, ["classify", "--a", "1", "--b", "3", "--c", "0", *json_flag])
    assert result.exit_code == 2
    assert result.stderr == "error: verification failed: witness vector has the wrong norm\n"
    assert result.stdout == ""


def test_classify_json_prints_the_line_scan_writes(runner, tmp_path):
    assert tuple(case_of(TranscendentalForm(*t))[0] for t in ONE_FORM_PER_CASE) == CASE_ORDER
    out = tmp_path / "scan.jsonl"
    result = runner.invoke(main, [
        "scan", "--a-max", "2", "--b-max", "3", "--c-min", "0", "--c-max", "2",
        "--out", str(out)])
    assert result.exit_code == 0
    scanned = {tuple(json.loads(line)[key] for key in "abc"): line + "\n"
               for line in out.read_text().splitlines()}
    for a, b, c in ONE_FORM_PER_CASE:
        result = runner.invoke(main, ["classify", "--a", str(a), "--b", str(b), "--c", str(c),
                                      "--json"])
        assert result.exit_code == 0
        assert result.stdout == scanned[a, b, c]
    # past CPython's digit limit no box can be scanned, so scan's writer is the reference
    t = TranscendentalForm(2 * 10**2499, 3 * 10**2499, 1)
    result = runner.invoke(main, ["classify", "--a", str(t.a), "--b", str(t.b), "--c", "1",
                                  "--json"])
    assert result.exit_code == 0
    assert result.stdout == cli._scan_line(t, classify(t)) + "\n"


def test_classify_rejects_bad_input(runner):
    for args in (
        ["classify", "--a", "1", "--b", "0", "--c", "0"],
        ["classify", "--a", "1", "--b", "1", "--c", "2"],     # not definite
        ["classify"],
        ["classify", "--a", "1", "--b", "1"],
        ["classify", "--gram", "2,1"],
        ["classify", "--gram", "2,x,4"],
        ["classify", "--gram", "3,1,4"],                       # odd diagonal
        ["classify", "--gram", "2,1,4", "--a", "1"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 1, args
        assert result.stderr.startswith("error:"), args


@pytest.mark.parametrize("args", [
    ["classify", "--a", "abc", "--b", "1", "--c", "0"],
    ["classify", "--a", "1", "--b", "1", "--c", "0", "--colour"],
    ["scan", "--a-max", "1", "--c-min", "0", "--c-max", "1"],
    ["colour"],
    ["verify-lemmas", "--slice-max", "20"],
    ["classify", "--a", "1", "--b", "1", "--c", "0", "--verify"],
], ids=["not-an-int", "unknown-option", "missing-option", "unknown-subcommand",
        "verify-lemmas-option", "verify-option"])
def test_usage_errors_exit_1(runner, args):
    # a malformed call is invalid input (1), never a failed replay (2)
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stderr.startswith("error:")
    assert result.stdout == ""


@pytest.mark.parametrize("args", [[], ["classify"], ["scan"], ["verify-lemmas"]],
                         ids=["main", "classify", "scan", "verify-lemmas"])
def test_help_exits_0(runner, args):
    result = runner.invoke(main, args + ["--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith("usage: k3cover")


def test_classify_round_trips_a_2500_digit_form(runner):
    # the c-odd matrix entry (c - ab - 1)/2 has about 5 000 digits, past
    # CPython's default limit of 4 300 for int <-> str
    a, b = 2 * 10**2499, 3 * 10**2499
    result = runner.invoke(main, ["classify", "--a", str(a), "--b", str(b), "--c", "1",
                                  "--json"])
    assert result.exit_code == 0, result.output
    data = json.loads(result.output)
    assert (data["a"], data["b"], data["c"]) == (a, b, 1)
    assert data["case"] == "II"
    assert max(len(str(abs(x))) for row in data["certificate"]["matrix"] for x in row) > 4300
    verify_classification(TranscendentalForm(a, b, 1), Classification.from_dict(data))


def test_classify_accepts_a_5000_digit_coefficient(runner):
    result = runner.invoke(main, ["classify", "--a", "1" + "0" * 4999, "--b", "1", "--c", "0"])
    assert result.exit_code == 0, result.output
    assert result.output == "case III-2: covers\n"


def test_scan_records_and_tally(runner, tmp_path):
    out = tmp_path / "scan.jsonl"
    result = runner.invoke(main, [
        "scan", "--a-max", "2", "--b-max", "2", "--c-min", "0", "--c-max", "2",
        "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    expected = list(box_triples(2, 2, 0, 2))
    assert len(lines) == len(expected) == 11
    assert result.stderr.strip() == \
        "scanned 11 forms: I=2 II=3 III-1=0 III-2=0 III-3=5 IV=1"

    for line, triple in zip(lines, expected):
        data = json.loads(line)
        assert (data["a"], data["b"], data["c"]) == triple
        t = TranscendentalForm(*triple)
        label, covers = case_of(t)
        assert data["case"] == label
        assert data["covers"] == covers
        classification = Classification.from_dict(data)
        assert {"a": t.a, "b": t.b, "c": t.c, **classification.to_dict()} == data
        verify_classification(t, classification)


# sha256 of the scan below, recorded before the 2 x 4 block check replaced
# the 12 x 12 matrix algebra; certificates and their order must not move
SCAN_6_SHA256 = "136f7796ac2e6474298d364da374a19a67636bf75ae780c0b5f8d5211d9ee1aa"


def test_scan_output_bytes_are_pinned(runner, tmp_path):
    out = tmp_path / "scan.jsonl"
    result = runner.invoke(main, [
        "scan", "--a-max", "6", "--b-max", "6", "--c-min", "-6", "--c-max", "6",
        "--out", str(out)], env={"K3COVER_THREADS": "1"})
    assert result.exit_code == 0
    assert result.stderr.strip() == \
        "scanned 382 forms: I=55 II=140 III-1=94 III-2=18 III-3=33 IV=42"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_6_SHA256


# sha256 of `k3cover scan --a-max 20 --b-max 20 --c-min -20 --c-max 20`,
# the 12 668-form box whose digest every change to the hot path must keep
SCAN_20_SHA256 = "bc2490feacaa5c3cc5abaab98ed6fcad8ba044aa3c76a859a202c4b4ea586b12"


def test_full_box_scan_lines_are_pinned(runner, tmp_path, monkeypatch):
    # every line is also parsed back and replayed against its own form: the
    # traffic that replay, the one gate for every certificate field, serves
    digest = hashlib.sha256()
    for triple in box_triples(20, 20, -20, 20):
        t = TranscendentalForm(*triple)
        line = cli._scan_line(t, classify(t))
        digest.update((line + "\n").encode())
        parsed = Classification.from_dict(json.loads(line))
        verify_classification(t, parsed)
    assert digest.hexdigest() == SCAN_20_SHA256
    # the same bytes through the command and a pool of two workers, which
    # this box starts once a worker's share of forms is made smaller
    _allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_POOL_FORMS", 4096)
    monkeypatch.delenv("K3COVER_THREADS", raising=False)
    assert cli._worker_count(20, 20, -20, 20) == 2
    out = tmp_path / "scan.jsonl"
    result = runner.invoke(main, [
        "scan", "--a-max", "20", "--b-max", "20", "--c-min", "-20", "--c-max", "20",
        "--out", str(out)], env={"K3COVER_THREADS": "2"})
    assert result.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_20_SHA256


def _json_oracle(form, result) -> str:
    """The scan line as json.dumps writes it: the bytes `_scan_line` must keep."""
    data = {"a": form.a, "b": form.b, "c": form.c, **result.to_dict()}
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# small ints, ints past 10**30, and ints past CPython's 4 300-digit limit
_INTS = st.one_of(st.integers(-10**6, 10**6), st.integers(10**30, 10**40),
                  st.integers(-10**40, -10**30), st.integers(10**4400, 10**4401))


def _int_tuples(size=None):
    sizes = {"min_size": size, "max_size": size} if size else {"max_size": 12}
    return st.lists(_INTS, **sizes).map(tuple)


_CERTIFICATES = st.one_of(
    st.builds(KeumCitation, _int_tuples(3)),
    st.builds(ExplicitEmbedding, st.sampled_from(sorted(classifier.CONSTRUCTIONS)),
              _int_tuples(3), _int_tuples(4), st.lists(_int_tuples(12), max_size=2).map(tuple),
              _INTS, st.lists(_int_tuples(12), max_size=2).map(tuple)),
    st.builds(VinbergWitness, _INTS, _int_tuples(11)),
    st.builds(ExhaustiveAbsence, _INTS, _int_tuples()),
    st.builds(ParityObstruction, _int_tuples(2), _INTS),
)


@given(st.integers(1, 10**4400), st.integers(1, 10**40), st.sampled_from(CASE_ORDER),
       st.booleans(), _INTS, _CERTIFICATES)
def test_scan_line_is_json_dumps_of_the_record_property(a, b, label, covers, delta, certificate):
    sys.set_int_max_str_digits(0)   # restored by the digit_limit fixture
    form = TranscendentalForm(a, b, 1)
    result = Classification(label, covers, delta, certificate)
    assert cli._scan_line(form, result) == _json_oracle(form, result)


def test_scan_line_is_json_dumps_of_classified_forms():
    # every case, at small coefficients and in random SL2 bases past 10**30
    forms = [TranscendentalForm(*triple) for triple in box_triples(6, 6, -6, 6)]
    rng = random.Random(1707)
    for a, b, c in ONE_FORM_PER_CASE:
        g = random_sl2(rng, 10**15)
        forms.append(moved(TranscendentalForm(a, b, c), g))
    assert {case_of(t)[0] for t in forms} == set(CASE_ORDER)
    for t in forms:
        result = classify(t)
        assert cli._scan_line(t, result) == _json_oracle(t, result)


def test_scan_line_writes_no_string_but_the_fixed_ones():
    form = TranscendentalForm(2, 3, 1)
    good = classify(form)
    with pytest.raises(KeyError):
        cli._scan_line(form, Classification('II"', True, 23, good.certificate))
    bad = ExplicitEmbedding(*[getattr(good.certificate, name) if name != "construction"
                              else "c-odd\\" for name in ExplicitEmbedding.__slots__])
    with pytest.raises(KeyError):
        cli._scan_line(form, Classification("II", True, 23, bad))


def _rows_of_every_case(k: int) -> list[tuple[int, int, int, int]]:
    """Rows (a, b, first c, last c) that hold all six cases for any k > 2:
    (1, k^2 + 1) reaches delta = 4 (III-3) at c = 2k and 8k (III-2) at
    c = 2k - 2, its odd c give II or IV by the parity of k, (3, k) and
    (3, k + 1) at c = 0 give III-1 with an even and an odd b, and (2, 2k)
    gives I and II."""
    return [(1, k * k + 1, 2 * k - 3, 2 * k), (2, 2 * k, -2, 2), (3, k, 0, 0),
            (3, k + 1, 0, 0), (1, (k + 1) ** 2 + 1, 2 * k - 1, 2 * k + 2)]


@pytest.mark.parametrize("rows", [
    list(cli._rows(6, 6, -6, 6)), _rows_of_every_case(10**30 + 7),
    _rows_of_every_case(10**4400 + 3)], ids=["small", "past 10**30", "past 4 300 digits"])
def test_scan_rows_write_the_line_of_each_classified_form(rows):
    sys.set_int_max_str_digits(0)   # restored by the digit_limit fixture
    forms = [TranscendentalForm(a, b, c) for a, b, lo, hi in rows for c in range(lo, hi + 1)]
    results = [classify(t) for t in forms]
    assert {result.case_label for result in results} == set(CASE_ORDER)
    counts, block = cli._scan_rows(rows)
    assert block == "".join(cli._scan_line(t, result) + "\n" for t, result in zip(forms, results))
    assert counts == tuple(sum(result.case_label == label for result in results)
                           for label in CASE_ORDER)


def test_scanning_the_witness_box_builds_no_form_certificate_or_classification(monkeypatch):
    def refused(self, *args):
        raise AssertionError(f"{type(self).__name__} built")

    for cls in (TranscendentalForm, Classification, *classifier.Certificate.__args__):
        monkeypatch.setattr(cls, "__init__", refused)
    # the witness box, then the full box, whose III-1 forms are sheared
    for box, forms in (((1, 20000, 0, 0), 20000), ((20, 20, -20, 20), 12668)):
        counts, block = cli._scan_rows(cli._rows(*box))
        assert sum(counts) == block.count("\n") == forms
    with pytest.raises(AssertionError, match="^TranscendentalForm built$"):
        TranscendentalForm(1, 1, 0)


class _CountingPool:
    """A stand-in for a process pool that runs each task at once and records
    how many were submitted and not yet taken."""

    def __init__(self, taken: list[int]) -> None:
        self.submitted, self.taken, self.most = 0, taken, 0

    def submit(self, fn, task):
        self.submitted += 1
        self.most = max(self.most, self.submitted - len(self.taken))
        future = Future()
        future.set_result(fn(task))
        return future


def test_in_order_keeps_a_bounded_window_and_the_task_order():
    taken = []
    pool = _CountingPool(taken)
    for value in cli._in_order(pool, lambda task: -task, range(100), window=8):
        taken.append(value)
    assert taken == [-task for task in range(100)]
    assert pool.most == 8


def _allow_cpus(monkeypatch, count: int) -> None:
    """Let the process run on ``count`` CPUs of a machine that has as many."""
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_scan_streams_more_tasks_than_the_window_holds(runner, tmp_path, monkeypatch):
    # small tasks and a small share of forms a worker, so that a small box
    # starts two workers, even on a one-core machine, and its tasks outnumber
    # the futures the parent keeps in flight several times over
    _allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_TASK_FORMS", 32)
    monkeypatch.setattr(cli, "_POOL_FORMS", 4 * 32)
    box = (12, 12, -12, 12)
    tasks = list(cli._tasks(cli._rows(*box)))
    assert len(tasks) > 3 * cli._TASKS_PER_WORKER * 2
    assert [row for task in tasks for row in task] == list(cli._rows(*box))
    assert cli._worker_count(*box) == 2
    args = ["scan", "--a-max", "12", "--b-max", "12", "--c-min", "-12", "--c-max", "12"]
    outputs, tallies = [], []
    for workers in ("1", "2"):
        out = tmp_path / f"scan-w{workers}.jsonl"
        result = runner.invoke(main, args + ["--out", str(out)],
                               env={"K3COVER_THREADS": workers})
        assert result.exit_code == 0
        outputs.append(out.read_bytes())
        tallies.append(result.stderr)
    assert outputs[0] == outputs[1]
    assert tallies[0] == tallies[1]
    expected = list(box_triples(*box))
    lines = outputs[0].decode().splitlines()
    assert [tuple(json.loads(line)[k] for k in "abc") for line in lines] == expected
    assert tallies[0].startswith(f"scanned {len(expected)} forms:")


def _traced_peak(runner, out, a_max: int) -> int:
    tracemalloc.start()
    try:
        result = runner.invoke(main, [
            "scan", "--a-max", str(a_max), "--b-max", "20", "--c-min", "-20", "--c-max", "20",
            "--out", str(out)], env={"K3COVER_THREADS": "1"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    return peak


def test_scan_memory_does_not_grow_with_the_box(runner, tmp_path):
    # the in-process scan holds one task's block at a time: more than doubling the
    # box's a range (2 626 forms to 6 690) leaves its peak where it was,
    # where a list of the box's triples grows with it
    out = tmp_path / "scan.jsonl"
    _traced_peak(runner, out, 2)    # fills the caches classify keeps
    small, large = _traced_peak(runner, out, 6), _traced_peak(runner, out, 12)
    assert large <= 1.25 * small, (small, large)


def test_scan_stdout_default(runner):
    result = runner.invoke(main, [
        "scan", "--a-max", "1", "--b-max", "1", "--c-min", "0", "--c-max", "1"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["case"] == "III-3"
    assert json.loads(lines[1])["case"] == "IV"


def test_scan_deterministic_across_worker_counts(runner, tmp_path, monkeypatch):
    # K3COVER_THREADS=4 on two allowed CPUs starts two workers for the 55
    # forms, given tasks and shares small enough
    _allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_TASK_FORMS", 8)
    monkeypatch.setattr(cli, "_POOL_FORMS", 16)
    monkeypatch.setenv("K3COVER_THREADS", "4")
    assert cli._worker_count(3, 3, -3, 3) == 2
    args = ["scan", "--a-max", "3", "--b-max", "3", "--c-min", "-3", "--c-max", "3"]
    single = tmp_path / "single.jsonl"
    multi = tmp_path / "multi.jsonl"
    r1 = runner.invoke(main, args + ["--out", str(single)],
                       env={"K3COVER_THREADS": "1"})
    r2 = runner.invoke(main, args + ["--out", str(multi)],
                       env={"K3COVER_THREADS": "4"})
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert single.read_bytes() == multi.read_bytes()
    assert r1.stderr == r2.stderr


@given(st.integers(-1, 8), st.integers(-1, 8), st.integers(-30, 30), st.integers(-30, 30))
@example(8, 8, -1, 1)       # 4ab > 1 on every row: each row is the whole range
@example(2, 2, -30, 30)     # 4ab <= 16 < 30^2 on every row: each row is clipped
@example(8, 8, -3, 7)       # clipped up to ab = 12, the whole range from 4ab > 7^2 on
def test_rows_are_the_non_empty_rows_of_the_box_property(a_max, b_max, c_min, c_max):
    # empty and negative c ranges, ranges off one end and empty a or b ranges
    expected = []
    for a in range(1, a_max + 1):
        for b in range(1, b_max + 1):
            cs = [c for c in range(c_min, c_max + 1) if c * c < 4 * a * b]
            if cs:
                expected.append((a, b, cs[0], cs[-1]))
    assert list(cli._rows(a_max, b_max, c_min, c_max)) == expected


def test_a_box_without_forms_fails_at_once(runner):
    # 9 000 000 rows, every one of them empty: the scan used to walk them
    # all, twice, before it said so
    start = time.perf_counter()
    result = runner.invoke(main, [
        "scan", "--a-max", "3000", "--b-max", "3000", "--c-min", "1000000", "--c-max", "1000000"])
    assert time.perf_counter() - start < 0.2
    assert result.exit_code == 1
    assert "no positive definite forms" in result.stderr


def test_worker_count_stays_within_the_cpus_the_process_may_run_on(monkeypatch):
    # the m = 40 box plans two workers on two CPUs; an affinity mask of one
    # CPU (`taskset -c 0`) on the same two-core machine leaves one, and so
    # does a platform without sched_getaffinity that reports one CPU
    monkeypatch.delenv("K3COVER_THREADS", raising=False)
    box = (40, 40, -40, 40)
    _allow_cpus(monkeypatch, 2)
    assert cli._worker_count(*box) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli._worker_count(*box) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert cli._worker_count(*box) == 1


def _recorded_rows(monkeypatch) -> list:
    """Make `cli._rows` keep each iterator it returns in the list returned."""
    made, rows = [], cli._rows
    monkeypatch.setattr(cli, "_rows", lambda *box: made.append(rows(*box)) or made[-1])
    return made


def test_worker_count_reads_only_the_rows_it_needs(monkeypatch):
    # 10^12 rows of one form each: two workers' shares are 2 * _POOL_FORMS
    # forms, and the count must stop there
    _allow_cpus(monkeypatch, 2)
    monkeypatch.delenv("K3COVER_THREADS", raising=False)
    made = _recorded_rows(monkeypatch)
    assert cli._worker_count(10**6, 10**6, 0, 0) == 2
    [rows] = made
    assert next(rows) == (1, 2 * cli._POOL_FORMS + 1, 0, 0)


# boxes on either side of the break-even: the full box and the witness box
# (a = 1, b <= 20 000, c = 0) are below it, m = 30 and m = 40 past it
_FULL_BOX, _WITNESS_BOX = (20, 20, -20, 20), (1, 20000, 0, 0)
_M30_BOX, _M40_BOX = (30, 30, -30, 30), (40, 40, -40, 40)


def test_worker_count_pools_only_past_the_break_even(monkeypatch):
    # at two CPUs, a pool of two was slower than one worker on the full box
    # (12 668 forms) and the witness box (20 000), and faster from 21 692 on.
    # Neither small box holds two shares' worth of triples, so neither is
    # counted; the sparse box holds 99 million triples but 220 forms, so it is
    # counted and plans one worker; K3COVER_THREADS=1 counts no box
    _allow_cpus(monkeypatch, 2)
    monkeypatch.delenv("K3COVER_THREADS", raising=False)
    made = _recorded_rows(monkeypatch)
    assert [cli._worker_count(*box) for box in (_FULL_BOX, _WITNESS_BOX)] == [1, 1]
    assert made == []
    assert cli._worker_count(3000, 3000, 5990, 6000) == 1
    assert len(made) == 1
    assert [cli._worker_count(*box) for box in (_M30_BOX, _M40_BOX)] == [2, 2]
    assert len(made) == 3
    monkeypatch.setenv("K3COVER_THREADS", "1")
    assert cli._worker_count(*_M40_BOX) == 1
    assert len(made) == 3


def test_worker_count_reads_no_row_at_one_worker(monkeypatch):
    # one worker needs no count: not a row is made, let alone read
    _allow_cpus(monkeypatch, 2)
    monkeypatch.setenv("K3COVER_THREADS", "1")
    made = _recorded_rows(monkeypatch)
    assert cli._worker_count(10**6, 10**6, 0, 0) == 1
    _allow_cpus(monkeypatch, 1)
    monkeypatch.delenv("K3COVER_THREADS")
    assert cli._worker_count(10**6, 10**6, 0, 0) == 1
    assert made == []


def test_scan_of_a_box_whose_rows_are_almost_all_empty(runner, tmp_path):
    # c^2 < 4ab needs a, b > 2 990 here, so every row with a or b below
    # 2 900 is empty, and the brute force needs to look at no other
    assert 4 * 2899 * 3000 < 5990**2
    expected = [(a, b, c) for a in range(2900, 3001) for b in range(2900, 3001)
                for c in range(5990, 6001) if c * c < 4 * a * b]
    out = tmp_path / "sparse.jsonl"
    result = runner.invoke(main, [
        "scan", "--a-max", "3000", "--b-max", "3000", "--c-min", "5990", "--c-max", "6000",
        "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert [tuple(json.loads(line)[k] for k in "abc") for line in lines] == expected
    assert result.stderr.startswith(f"scanned {len(expected)} forms:")


def test_scan_error_paths(runner, tmp_path):
    result = runner.invoke(main, [
        "scan", "--a-max", "1", "--b-max", "1", "--c-min", "2", "--c-max", "2"])
    assert result.exit_code == 1
    assert "no positive definite forms" in result.stderr

    result = runner.invoke(main, [
        "scan", "--a-max", "1", "--b-max", "1", "--c-min", "0", "--c-max", "0",
        "--out", str(tmp_path / "missing" / "out.jsonl")])
    assert result.exit_code == 1
    assert "cannot open" in result.stderr

    result = runner.invoke(main, [
        "scan", "--a-max", "1", "--b-max", "1", "--c-min", "0", "--c-max", "0"],
        env={"K3COVER_THREADS": "abc"})
    assert result.exit_code == 1
    result = runner.invoke(main, [
        "scan", "--a-max", "1", "--b-max", "1", "--c-min", "0", "--c-max", "0"],
        env={"K3COVER_THREADS": "0"})
    assert result.exit_code == 1


def _child_env(unbuffered: bool, **extra: str) -> dict[str, str]:
    """The environment of every child process tier-1 starts, the `python -m
    k3cover.cli` runs and the `-S` child that lists the modules the commands
    load, with its stdout buffered or not whatever PYTHONUNBUFFERED this
    process has.  Buffered, a write may fail only at the flush `main` makes
    before it returns; unbuffered, the write itself fails.  The child runs in
    Python's development mode with warnings as errors, so that a file it
    leaves open, or any other warning, shows on its stderr for `_CI_GATE`;
    this process does not, as it also loads sympy and hypothesis."""
    src = str(Path(k3cover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error",
           **extra}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


# the stderr lines CI's console-script step fails on: a warning, one raised
# at exit or in a finalizer, or a traceback
_CI_GATE = re.compile(r"Warning|Exception ignored|Traceback")


# (workers, unbuffered); an id without a suffix runs with stdout unbuffered
_WORKERS_AND_BUFFERING = [pytest.param(workers, unbuffered, id=workers + suffix)
                          for unbuffered, suffix in ((True, ""), (False, "-buffered"))
                          for workers in ("1", "2")]


def _box_scan(box) -> list[str]:
    """The `scan` arguments of a box (a_max, b_max, c_min, c_max)."""
    a_max, b_max, c_min, c_max = map(str, box)
    return ["scan", "--a-max", a_max, "--b-max", b_max, "--c-min", c_min, "--c-max", c_max]


# the box each worker count scans: the full box runs in process, and m = 30,
# past the break-even, starts two workers
_SCAN_OF_WORKERS = {"1": _box_scan(_FULL_BOX), "2": _box_scan(_M30_BOX)}


@pytest.mark.parametrize("workers, unbuffered", _WORKERS_AND_BUFFERING)
def test_scan_into_a_closed_pipe_exits_1_without_a_traceback(workers, unbuffered):
    # `k3cover scan ... | head -n 1`: the reader takes one line and closes
    # the pipe.  Each box's records (2.9 MB for the full box) overflow the
    # pipe buffer, so the scan's later writes meet the closed end.
    env = _child_env(unbuffered, K3COVER_THREADS=workers)
    args = [sys.executable, "-m", "k3cover.cli", *_SCAN_OF_WORKERS[workers]]
    with subprocess.Popen(args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert json.loads(first)["case"] == "IV"
    assert code == 1, stderr
    assert not _CI_GATE.search(stderr), stderr
    assert stderr.startswith("error: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("workers, unbuffered", _WORKERS_AND_BUFFERING)
@pytest.mark.parametrize("args", [
    ["classify", "--a", "1", "--b", "2", "--c", "1"],
    ["scan"],
    ["scan", "--out", "/dev/full"],
], ids=["classify", "scan", "scan-out"])
def test_a_write_to_a_full_device_exits_1_without_a_traceback(args, workers, unbuffered):
    # every write to /dev/full fails with ENOSPC; a scan covers the box of
    # its worker count, so that "2" starts two workers
    if args[0] == "scan":
        args = _SCAN_OF_WORKERS[workers] + args[1:]
    env = _child_env(unbuffered, K3COVER_THREADS=workers)
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "k3cover.cli", *args], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: ")
    assert not _CI_GATE.search(done.stderr), done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["--help"], ["scan", "--help"]], ids=["main", "scan"])
def test_help_to_a_full_device_exits_1_without_a_traceback(args, unbuffered):
    # buffered, the help text fails only when flushed; unbuffered, when written
    env = _child_env(unbuffered)
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "k3cover.cli", *args], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: ")
    assert not _CI_GATE.search(done.stderr), done.stderr


_NO_SPACE = "error: cannot write the output: No space left on device\n"
_FULL_AND_FDS = pytest.mark.skipif(
    not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
    reason="needs the /dev/full device and /proc/self/fd")


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


def _main_in_process(args, stdout) -> tuple[int, str]:
    """`main(args)` run in this process with the given stdout: its exit code
    and what it wrote to stderr."""
    err = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main(args)
    return exit_.value.code, err.getvalue()


class _FullStream(io.StringIO):
    """A stdout with no descriptor that refuses every write as a full device does."""

    def write(self, text: str) -> int:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@_FULL_AND_FDS
@pytest.mark.parametrize("descriptor", [False, True], ids=["stringio", "file"])
@pytest.mark.parametrize("box", [(1, 1, 0, 0), _FULL_BOX], ids=["at-close", "at-write"])
def test_a_full_out_file_fails_in_process_and_leaves_stdout_as_it_is(box, descriptor, tmp_path):
    # one line fails when the --out file is closed, the full box's 2.9 MB
    # already at a write; stdout, which did not fail, is neither touched nor
    # asked for a descriptor, and no descriptor is left open
    path = tmp_path / "stdout.txt"
    with (open(path, "w") if descriptor else io.StringIO()) as stdout:
        before = _open_fds()
        assert _main_in_process(_box_scan(box) + ["--out", "/dev/full"], stdout) == (1, _NO_SPACE)
        assert _open_fds() == before
        if descriptor:
            assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(path))


@_FULL_AND_FDS
@pytest.mark.parametrize("args", [
    ["classify", "--a", "1", "--b", "2", "--c", "1"],
    _box_scan(_FULL_BOX),
], ids=["classify", "scan"])
def test_a_full_stdout_fails_in_process_and_closes_what_it_opens(args):
    # main's handler: a real descriptor is pointed at the null device, so the
    # exit flush stays silent, and a stream with none is left as it is
    with open("/dev/full", "w") as full:
        before = _open_fds()
        assert _main_in_process(args, full) == (1, _NO_SPACE)
        assert _open_fds() == before
        assert os.path.samestat(os.fstat(full.fileno()), os.stat(os.devnull))
    before = _open_fds()
    assert _main_in_process(args, _FullStream()) == (1, _NO_SPACE)
    assert _open_fds() == before


def test_verify_lemmas_passes(runner):
    result = runner.invoke(main, ["verify-lemmas"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 3
    names = [line.split()[0] for line in lines]
    assert names == ["family-coverage", "small-norm-absence", "max-table"]
    assert names == [name for name, _ in lemmas.ROWS]
    assert all(" pass " in line for line in lines)
    assert lines[1].endswith(f"through slice {vinberg.SLICE_CAP}")
    assert lines[2].endswith(f"slices 4..{vinberg.SLICE_CAP} match the formulas")


def test_verify_lemmas_catches_corrupted_table(runner, monkeypatch):
    min_param, _, runs = vinberg.FAMILIES["Z"]
    monkeypatch.setitem(vinberg.FAMILIES, "Z", (min_param, (4, 1), runs))
    result = runner.invoke(main, ["verify-lemmas"])
    assert result.exit_code == 2
    # the row must fail on the stated norm, not on a row it cannot unpack
    assert "family-coverage      FAIL  family Z(1) is not in P with its norm" in \
        result.stdout.splitlines()


# A family in P with its stated norm for k = 1 .. 25 that leaves P at k = 26,
# where x0 - x1 - x2 - x3 = 51 - 2k turns negative: its first 25 members pass
_LEAVES_P_AT_26 = (1, (576, 4493), ((5, 68, 1), (3, 6, 1), (2, 6, 1), (2, 5, 1), (2, 3, 1),
                                    (2, 3, 1), (0, 3, 1), (0, 2, 1), (0, 1, 1), (0, 1, 1),
                                    (0, 1, 1)))


def test_verify_lemmas_fails_a_family_that_leaves_P_past_its_first_members(runner, monkeypatch):
    monkeypatch.setitem(vinberg.FAMILIES, "T", _LEAVES_P_AT_26)
    members = [lemmas.family_vector("T", k) for k in range(1, 27)]
    assert [vinberg.in_P(v) for v in members] == [True] * 25 + [False]
    assert [vinberg.norm(v) for v in members] == [-(576 * k + 4493) for k in range(1, 27)]
    result = runner.invoke(main, ["verify-lemmas"])
    assert result.exit_code == 2
    assert result.stdout.splitlines()[0] == (
        "family-coverage      FAIL  family T(26) is not in P: condition x0 >= x1 + x2 + x3 fails")


def test_verify_lemmas_fails_a_row_whose_check_breaks_in_any_other_way(runner, monkeypatch):
    # a family row the check cannot unpack raises ValueError, not
    # VerificationError: its row still reads FAIL, the other rows still run
    # and pass, and nothing escapes the command
    monkeypatch.setitem(vinberg.FAMILIES, "Z", vinberg.FAMILIES["Z"][:2])
    result = runner.invoke(main, ["verify-lemmas"])
    assert result.exit_code == 2
    lines = result.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["family-coverage", "FAIL"], ["small-norm-absence", "pass"], ["max-table", "pass"]]
    assert lines[0].startswith("family-coverage      FAIL  not enough values to unpack")
    assert result.stderr == ""


# One wrong fact each, for slice 9 or norm -4 alone, and the row that must
# catch it: a stated maximizer with the right norm that lies outside its
# slice, a maximum formula off by one, a norm -4 in a slice's norm set, and
# a witness for the absent norm -4, which only small-norm-absence checks.
# Then two wrong entries of the maximum table as data: the last run of the
# maximizers of slices 3q + 1 raised from 1 to 2, and slice 8's written-out
# maximizer replaced by a member of its slice of lower norm.  Each row names
# the module it patches: `lemmas` for the maximum table, `vinberg` for what
# classify and replay run, which the rows must reach through that module
_LOWER_IN_SLICE_8 = (8, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2)
_LEMMA_PROBES = {
    "maximizer-outside-slice": (
        "max-table", lemmas, "slice_maximizer",
        lambda real: lambda m: real(m)[:1] + real(m)[:0:-1] if m == 9 else real(m)),
    "max-formula-off-by-one": (
        "max-table", lemmas, "predicted_max_norm",
        lambda real: lambda m: real(m) + 1 if m == 9 else real(m)),
    "minus-4-in-slice-9": (
        "small-norm-absence", vinberg, "slice_norms",
        lambda real: lambda m: real(m) | {-4} if m == 9 else real(m)),
    "witness-for-minus-4": (
        "small-norm-absence", vinberg, "search_norm",
        lambda real: lambda n: real(5) if n == 4 else real(n)),
    "maximizer-run-changed": (
        "max-table", lemmas, "_MAXIMIZER_RUNS",
        lambda real: (real[0], real[1][:-1] + ((0, 2, 1),), real[2])),
    "slice-8-maximizer-lowered": (
        "max-table", lemmas, "_MAXIMIZERS",
        lambda real: {**real, 8: _LOWER_IN_SLICE_8}),
}


@pytest.mark.parametrize("row, module, name, wrong", _LEMMA_PROBES.values(),
                         ids=list(_LEMMA_PROBES))
def test_verify_lemmas_fails_the_row_of_each_wrong_slice_fact(runner, monkeypatch, row, module,
                                                               name, wrong):
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    result = runner.invoke(main, ["verify-lemmas"])
    assert result.exit_code == 2
    rows = {line.split()[0]: line.split()[1] for line in result.stdout.splitlines()}
    assert rows[row] == "FAIL", result.stdout
    assert rows["family-coverage"] == "pass"


# the two raises of family-coverage's witness loop: a norm left without a
# witness, and a witness of another norm
_WITNESS_PROBES = {
    "no-witness-for-minus-7": (lambda real: lambda n: None if n == 7 else real(n),
                               "no witness of norm -7"),
    "minus-8-witness-for-minus-7": (lambda real: lambda n: real(8) if n == 7 else real(n),
                                    "witness for norm -7 fails membership"),
}


@pytest.mark.parametrize("wrong, message", _WITNESS_PROBES.values(), ids=list(_WITNESS_PROBES))
def test_verify_lemmas_fails_family_coverage_on_a_wrong_witness(runner, monkeypatch, wrong,
                                                                message):
    monkeypatch.setattr(vinberg, "search_norm", wrong(vinberg.search_norm))
    result = runner.invoke(main, ["verify-lemmas"])
    assert result.exit_code == 2
    rows = {line.split()[0]: line.split(None, 2)[1:] for line in result.stdout.splitlines()}
    assert rows["family-coverage"] == ["FAIL", message], result.stdout
    assert rows["small-norm-absence"][0] == rows["max-table"][0] == "pass"


def test_verify_lemmas_checks_the_closed_forms_search_norm_runs(runner, monkeypatch):
    # x0 + 1 in the compiled closed form of X2 alone: the rows build members
    # by lemmas' own expansion of FAMILIES, so only family-coverage's
    # comparison with search_norm can see it, at the first such norm, 26
    x2 = vinberg._closed_forms()["X2"]
    monkeypatch.setitem(vinberg._closed_forms(), "X2", lambda k: (x2(k)[0] + 1, *x2(k)[1:]))
    assert vinberg.search_norm(26) != lemmas.family_vector("X2", 1)
    result = runner.invoke(main, ["verify-lemmas"])
    assert result.exit_code == 2
    rows = {line.split()[0]: line.split(None, 2)[1:] for line in result.stdout.splitlines()}
    assert rows["family-coverage"] == ["FAIL", "witness for norm -26 fails membership"]
    assert rows["small-norm-absence"][0] == rows["max-table"][0] == "pass"


def test_the_outside_maximizer_probe_has_the_right_norm():
    top = _LEMMA_PROBES["maximizer-outside-slice"][3](lemmas.slice_maximizer)(9)
    assert vinberg.norm(top) == lemmas.predicted_max_norm(9)
    assert top not in enumerate_P_slice(9)


def test_the_lowered_maximizer_probe_lies_in_its_slice():
    assert _LOWER_IN_SLICE_8 in enumerate_P_slice(8)
    assert vinberg.norm(_LOWER_IN_SLICE_8) < lemmas.predicted_max_norm(8)


def test_case_order_is_complete():
    assert set(CASE_ORDER) == {"I", "II", "III-1", "III-2", "III-3", "IV"}
    assert CASE_ORDER == tuple(classifier.CASES)


# modules no command runs (classify, scan or verify-lemmas): the tests'
# oracle stack, sympy, and the standard library modules that only cost
# start-up.  The child that shows it gets its environment from `_child_env`,
# as every child tier-1 starts does, so it runs in development mode too
OFF_THE_CLASSIFY_PATH = {"click", "dataclasses", "inspect", "fractions", "decimal", "typing",
                         "json", "sympy", "k3cover.intmat", "k3cover.embeddings",
                         "k3cover.shortvec"}

# the child of the test below: after each stage it prints every module
# loaded since start-up, as a list's `repr`, so that printing loads none;
# `-S` keeps `site` from preloading any (it may load `typing`).  Two allowed
# CPUs, as on the 2-core machine whose timings set the break-even
_STAGES = f"""\
import os, sys
os.sched_getaffinity = lambda pid: {{0, 1}}
os.cpu_count = lambda: 2
start = set(sys.modules)
from k3cover import cli
print("modules", sorted(set(sys.modules) - start))
cli.main(['classify', '--a', '1', '--b', '2', '--c', '1', '--json'])
cli.main(['classify', '--a', '2', '--b', '3', '--c', '2', '--json'])
cli.main(['classify', '--a', '1', '--b', '1', '--c', '0'])
cli.main({_box_scan(_FULL_BOX)!r} + ['--out', os.devnull])
print("plan", cli._worker_count(*{_M30_BOX!r}))
print("modules", sorted(set(sys.modules) - start))
cli.main(['verify-lemmas'])
print("modules", sorted(set(sys.modules) - start))
"""


def test_no_command_loads_the_oracle_stack():
    # the classifier's checks are closed forms and binary-form reduction;
    # embeddings, shortvec and the matrix layer under them are the tests'
    # oracle stack, not dependencies of the program.  Importing the CLI, then
    # classify with replay and a full-box scan, leave out the oracle stack,
    # `json`, `random` and the lemma checks; the scan, below the break-even,
    # runs in process, so neither concurrent.futures nor multiprocessing
    # (20-40 ms of start-up) loads, though m = 30 would plan two workers at
    # the same CPUs.  Only verify-lemmas then adds `k3cover.lemmas`.
    env = _child_env(False)
    env.pop("K3COVER_THREADS", None)
    done = subprocess.run([sys.executable, "-S", "-c", _STAGES], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert not _CI_GATE.search(done.stderr), done.stderr
    assert done.stderr.startswith("scanned 12668 forms:")
    lines = done.stdout.splitlines()
    imported, commands, lemma_checks = (set(ast.literal_eval(line[len("modules "):]))
                                        for line in lines if line.startswith("modules "))
    assert "k3cover.classifier" in imported
    assert imported & (OFF_THE_CLASSIFY_PATH | {"k3cover.lemmas"}) == set()
    assert {"k3cover.cli", "k3cover.classifier", "k3cover.vinberg"} <= commands
    assert commands & (OFF_THE_CLASSIFY_PATH | {"random", "k3cover.lemmas",
                                                "concurrent.futures", "multiprocessing"}) == set()
    assert "plan 2" in lines
    assert "k3cover.lemmas" in lemma_checks
    assert lemma_checks & (OFF_THE_CLASSIFY_PATH | {"random"}) == set()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[tuple[str, str]]:
    """Each `$ k3cover ...` line of README.md, with the output shown below it."""
    examples, command, shown = [], None, []
    for line in README.read_text(encoding="utf-8").splitlines() + [""]:
        if command is not None and line and not line.startswith(("$", "```")):
            shown.append(line + "\n")
            continue
        if command is not None:
            examples.append((command, "".join(shown)))
            command = None
        if line.startswith("$ k3cover "):
            command, shown = line[len("$ k3cover "):], []
    return examples


README_COMMANDS = _readme_commands()


def test_readme_library_block_runs_and_shows_its_results():
    block = README.read_text(encoding="utf-8").split("## Library\n\n```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace: dict[str, object] = {}
    exec(block, namespace)
    shown = {code.strip(): comment.strip() for code, _, comment
             in (line.partition("#") for line in block.splitlines())}
    for expression, result in (("result.case_label", "'III-2'"), ("result.covers", "True")):
        assert shown[expression] == result == repr(eval(expression, namespace))
    prefix = "{'kind': 'vinberg-witness', 'n': 3, "
    assert shown["result.certificate.to_dict()"] == prefix + "...}"
    assert repr(eval("result.certificate.to_dict()", namespace)).startswith(prefix)


def test_readme_shows_every_subcommand():
    assert {shlex.split(command)[0] for command, _ in README_COMMANDS} == \
        {"classify", "scan", "verify-lemmas"}


@pytest.mark.parametrize("command, shown", README_COMMANDS,
                         ids=[command for command, _ in README_COMMANDS])
def test_readme_command_prints_what_the_readme_shows(runner, tmp_path, monkeypatch,
                                                      command, shown):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, shlex.split(command))
    assert result.exit_code == 0, result.output
    # scan writes its records to --out and its tally to stderr
    assert (result.stderr if command.startswith("scan") else result.stdout) == shown


CERTIFICATES_DOC = README.parent / "docs" / "certificates.md"

# What README and docs/certificates.md leave to docstrings and CHANGES.md,
# outside fenced blocks: a private name (`_x` or `mod._x`), a timing (a
# number, a space, then s, ms, µs or us) and a line count
_IMPLEMENTATION_FACTS = {
    "private name": re.compile(r"`(?:\w+\.)*_[A-Za-z]\w*"),
    "timing": re.compile(r"\d\s(?:s|ms|µs|us)\b"),
    "line count": re.compile(r"\d\s+lines?\b"),
}


def _implementation_facts(text: str) -> list[tuple[int, str, str]]:
    """(line number, kind, line) of each line outside a fenced block that
    states one of `_IMPLEMENTATION_FACTS`."""
    found, fenced = [], False
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            found += [(number, kind, line) for kind, pattern in _IMPLEMENTATION_FACTS.items()
                      if pattern.search(line)]
    return found


def test_docs_state_no_private_name_timing_or_line_count():
    planted = ["replay moves it by `lattices._moved`", "the root search takes 0.15 s",
               "README has 270 lines"]
    fenced = ["```", "`_moved` took 0.15 s over 270 lines", "```"]
    assert [kind for _, kind, _ in _implementation_facts("\n".join(fenced + planted))] == \
        list(_IMPLEMENTATION_FACTS)
    for doc in (README, CERTIFICATES_DOC):
        assert _implementation_facts(doc.read_text(encoding="utf-8")) == [], doc.name
