"""Record the expected outputs the benchmark checks every run against.

    python3 perfbench/record.py

For each workload it classifies the whole pool once and writes
`digests/<workload>.tsv.gz`, one row per pool form in pool order: the first
8 hex digits of the sha256 of its scan line, its case, and the enumeration
nodes its classification visited.  Every line is replayed before it is
recorded.  It also runs each workload's `scan` box through the CLI and
stores the sha256 of the output file in `digests/manifest.json`, along with
a sha256 of each generated pool, so that a change in the generator is
caught instead of being mistaken for a change in the program.

Re-record only when outputs are meant to change; a change that claims a
speed-up must leave these files alone.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import CASES, DIGEST_DIR, WORKLOADS, line_digest, pool_sha256  # noqa: E402
from worker import replay_line, scan_line  # noqa: E402


def record_pool(name: str) -> tuple[str, dict]:
    from k3cover import shortvec
    from k3cover.classifier import classify
    from k3cover.lattices import TranscendentalForm

    nodes = [0]
    level_range = shortvec._level_range

    def counted(*args):
        nodes[0] += 1
        return level_range(*args)

    shortvec._level_range = counted
    pool = WORKLOADS[name].pool()
    rows = [f"# digest case nodes, one row per {name} pool form in pool order"]
    digests = {}
    try:
        for form in pool:
            nodes[0] = 0
            result = classify(TranscendentalForm(*form))
            line = scan_line(*form, result)
            replay_line(form, line)
            assert result.case_label in CASES
            digests[tuple(form)] = line_digest(line)
            rows.append(f"{digests[tuple(form)]} {result.case_label} {nodes[0]}")
    finally:
        shortvec._level_range = level_range
    # mtime=0 keeps the file byte-identical across re-recordings
    with open(DIGEST_DIR / f"{name}.tsv.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(("\n".join(rows) + "\n").encode())
    return pool_sha256(pool), digests


def record_scan(name: str, digests: dict) -> dict:
    """Scan the workload's box; lines of pool forms must match their digests."""
    workload = WORKLOADS[name]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), K3COVER_THREADS="1")
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp) / "scan.jsonl"
        subprocess.run([sys.executable, "-m", "k3cover.cli", "scan", *workload.scan_args(),
                        "--out", str(out)], env=env, check=True, stderr=subprocess.DEVNULL)
        data = out.read_bytes()
    lines = data.decode().splitlines()
    forms = workload.scan_forms()
    assert len(lines) == len(forms)
    for form, line in zip(forms, lines):
        assert digests.get(form, line_digest(line)) == line_digest(line), form
    return {"args": workload.scan_args(), "forms": len(lines),
            "sha256": hashlib.sha256(data).hexdigest()}


def main() -> int:
    DIGEST_DIR.mkdir(exist_ok=True)
    manifest = {"pool_sha256": {}, "scan": {}}
    for name in WORKLOADS:
        manifest["pool_sha256"][name], digests = record_pool(name)
        manifest["scan"][name] = record_scan(name, digests)
        print(f"{name}: recorded", file=sys.stderr)
    (DIGEST_DIR / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
