"""Tests of the benchmark itself: inputs, digest check, replay isolation.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer
from worker import scan_line

BENCH = Path(run.__file__).resolve().parent


def small_run(name: str, count: int, tmp_path: Path) -> run.Run:
    """A prepared run whose classify and replay phases cover only `count` forms."""
    bench = run.Run(name, seed=7, seconds=10, trace=False)
    bench.work = tmp_path / "work"
    bench.prepare()
    bench.rounds = [bench.rounds[0][:count]]
    pool = bench.workload.pool()
    bench.forms = [pool[i] for i in bench.rounds[0]]
    (bench.work / "forms0.json").write_text(json.dumps(bench.forms))
    return bench


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_forms(name):
    pool = workloads.WORKLOADS[name].pool()
    assert workloads.pool_sha256(pool) == workloads.load_manifest()["pool_sha256"][name]
    records = workloads.load_records(name)
    first = workloads.sample(name, 3, 10, records, 5)
    assert first == workloads.sample(name, 3, 10, records, 5)
    other = workloads.sample(name, 4, 10, records, 5)
    first, other = sum(first, []), sum(other, [])
    assert first != other and set(first) != set(other)
    # p99 needs ten samples beyond it; set-up forms are never measured
    assert len(first) >= 1000
    assert not set(first) & set(workloads.setup_forms(records).values())


def test_one_tampered_line_fails_the_digest_check(tmp_path):
    from k3cover.classifier import classify
    from k3cover.lattices import TranscendentalForm

    bench = small_run("region", 20, tmp_path)
    lines = [scan_line(*f, classify(TranscendentalForm(*f))) for f in bench.forms]
    out = bench.work / "lines0.jsonl"
    out.write_text("\n".join(lines) + "\n")
    assert bench.check_lines(out, bench.rounds[0], {"errors": []}) == set()

    original = lines[5]
    flip = {'"covers":true': '"covers":false', '"covers":false': '"covers":true'}
    lines[5] = next(original.replace(k, v) for k, v in flip.items() if k in original)
    out.write_text("\n".join(lines) + "\n")
    assert bench.check_lines(out, bench.rounds[0], {"errors": []}) == {5}


def test_replay_phase_starts_without_the_classified_blocks(tmp_path):
    bench = small_run("bigcoef", 12, tmp_path)

    def worker(mode: str) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--setup",
               str(bench.setup_file), "--forms", str(bench.work / "forms0.json"),
               "--lines", str(bench.work / "lines.jsonl"), "--dump-cache-keys"]
        done = subprocess.run(cmd, env=run.child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    def blocks(keys) -> set[str]:
        return {json.dumps(k) for k in keys}

    classified = worker("classify")
    replayed = worker("replay")
    enumerated = blocks(classified["cache_keys_end"]) - blocks(classified["cache_keys_start"])
    assert enumerated, "bigcoef forms should enumerate complement blocks of their own"
    assert not blocks(replayed["cache_keys_start"]) & enumerated
    assert enumerated <= blocks(replayed["cache_keys_end"])
    assert replayed["failed"] == []


def test_tracer_wraps_the_names_callers_bind():
    from k3cover import classifier, embeddings, shortvec
    from k3cover.lattices import TranscendentalForm

    originals = (classifier.orthogonal_complement, embeddings.left_kernel,
                 shortvec._level_range)
    tracer = Tracer().install()
    try:
        classifier.classify(TranscendentalForm(123457, 234568, 99999))
    finally:
        tracer.uninstall()
    assert (classifier.orthogonal_complement, embeddings.left_kernel,
            shortvec._level_range) == originals
    assert tracer.calls["embeddings.complement_us"] == 1
    assert tracer.calls["intmat.left_kernel_us"] >= 1
    assert tracer.calls["classifier.certify_us.explicit-embedding"] == 1
    assert tracer.counts["shortvec.nodes"] > 0
    assert tracer.self_ns["embeddings.complement_us"] > 0
    assert tracer.self_ns["intmat.left_kernel_us"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "box",
                           "--seed", "1", "--seconds", "10", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
