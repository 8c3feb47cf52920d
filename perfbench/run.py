"""The k3cover benchmark: scan, classify and replay on one workload.

    python3 perfbench/run.py --workload box|bigcoef|region --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing, `src` is
put on PYTHONPATH for every child process.  The load is a closed loop with
one caller: one form at a time.

The run's forms (see workloads.py) are dealt into three rounds of the same
mix.  With --trace 0 the run makes three passes over the rounds; for each
round it starts, each on a fresh interpreter:
  * classify: set-up (import k3cover, then classify and replay one form of
    each case of the workload), then the round's forms, each classified and
    encoded as a scan line;
  * replay: set-up, then those lines parsed and replayed, so that no
    complement the classifier just enumerated is memoised;
and, as child processes, `scan` at one worker once per pass and
`verify-lemmas` twice per pass.

The machine is a shared 2-core VM whose speed flips every second or so and
sags for minutes at a time, so every timing is divided by the machine's
slowdown at that moment, measured by the fixed kernel in pacing.py:
  * workers run the kernel between forms, every 0.1 s; a form's latency is
    the median over the three passes of its timing over the slowdown
    around it, each pass taking a round's forms in a new order because a
    fresh process runs its first forms slowly;
  * throughput is forms per second of those latencies, as for any closed
    loop with one caller and no think time;
  * each child starts on the core where the kernel just ran faster, and
    its time is divided by the mean slowdown just before and after it; a
    scan figure is the median of three, a verify-lemmas one of six;
  * `setup_s` is the median of the 18 set-up times, each over the
    slowdown measured right after it.
A change to k3cover does not touch the kernel, so it shows in full.

With --trace 1 a single pass runs, per round, classify untraced and traced,
replay traced, and `scan` at one worker and at nproc workers; the run
reports per-layer self time and counts, and scan throughput at nproc
workers, which varies too much between runs here to be a bounded
end-to-end metric.

Every classify line is checked against the digest recorded for its form,
every line must replay, every scan file must match its recorded sha256 and
every child must exit 0; anything else counts as a failed form.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import pacing  # noqa: E402
from workloads import (  # noqa: E402
    CASES,
    WORKLOADS,
    line_digest,
    load_manifest,
    load_records,
    pool_sha256,
    sample,
    setup_forms,
)

ROUNDS = 3
PASSES = 3             # timings of each form; the median is kept
CHILD_TIMEOUT_S = 150
KINDS = ("keum-citation", "explicit-embedding", "vinberg-witness",
         "exhaustive-absence", "parity-obstruction")
SPAN_METRICS = (
    "embeddings.complement_us", "intmat.left_kernel_us", "embeddings.validate_us",
    "embeddings.minor_gcd_us", "shortvec.negdef_check_us", "shortvec.enumerate_norm_us",
    "quadforms.represents_one_us", "vinberg.search_norm_us", "vinberg.in_P_us",
    "vinberg.slice_us", "lattices.standard_lattice_us", "lattices.apply_basis_change_us",
    "classifier.case_of_us", "classifier.from_dict_us", "cli.json_us",
    *(f"classifier.{step}_us.{kind}" for kind in KINDS for step in ("certify", "replay")),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env(threads: int | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if threads is not None:
        env["K3COVER_THREADS"] = str(threads)
    return env


def run_child(cmd: list[str], env: dict[str, str], stderr_path: Path):
    """Run one child to completion: (exit code, wall s, peak RSS MB, stdout)."""
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            # wait4 gives this child's own rusage, not a cumulative RUSAGE_CHILDREN
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024, out.decode()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def forms_per_s(latency_ns: list[float]) -> float:
    return len(latency_ns) / sum(latency_ns) * 1e9


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = WORKLOADS[workload]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.work = HERE / ".work" / f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
        self.nproc = os.cpu_count() or 1
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    # ---- inputs -------------------------------------------------------
    def prepare(self) -> None:
        name = self.workload.name
        manifest = load_manifest()
        pool = self.workload.pool()
        if pool_sha256(pool) != manifest["pool_sha256"][name]:
            raise BenchError(f"{name}: generated pool differs from the recorded one")
        self.records = load_records(name)
        if len(self.records) != len(pool):
            raise BenchError(f"{name}: {len(self.records)} digests for {len(pool)} forms")
        self.scan_expect = manifest["scan"][name]
        self.rounds = sample(name, self.seed, self.seconds, self.records, ROUNDS)
        self.work.mkdir(parents=True)
        self.setup_file = self.work / "setup.json"
        self.setup_file.write_text(json.dumps(
            [pool[i] for i in setup_forms(self.records).values()]))
        self.pool = pool
        for r, indices in enumerate(self.rounds):
            self.write_forms(str(r), indices)

    def write_forms(self, key: str, indices: list[int]) -> None:
        (self.work / f"forms{key}.json").write_text(json.dumps([self.pool[i] for i in indices]))

    @property
    def form_count(self) -> int:
        return sum(map(len, self.rounds))

    # ---- children -----------------------------------------------------
    def child(self, cmd: list[str], env: dict[str, str], stderr_path: Path, pin: bool = True):
        """run_child on the core where the pacing kernel runs fastest now.

        Returns run_child's result and the machine's slowdown: the mean of
        the kernel's slowdown on that core just before and just after.  The
        child inherits this process's affinity; with pin=False it may use
        every core, and the slowdown is averaged over them.
        """
        cores = os.sched_getaffinity(0)
        speed = {}
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            speed[core] = pacing.slowdown()
        best = min(speed, key=speed.get)
        os.sched_setaffinity(0, {best} if pin else cores)
        try:
            result = run_child(cmd, env, stderr_path)
            before = speed[best] if pin else statistics.mean(speed.values())
            return result, (before + pacing.slowdown()) / 2
        finally:
            os.sched_setaffinity(0, cores)

    def worker(self, mode: str, key: str, tag: str, trace: bool = False) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--setup", str(self.setup_file),
               "--forms", str(self.work / f"forms{key}.json"),
               "--lines", str(self.work / f"{tag}{key}.jsonl")]
        if trace:
            cmd.append("--trace")
        err = self.work / f"{mode}.err"
        (code, _, _, out), _ = self.child(cmd, child_env(), err)
        if code != 0:
            raise BenchError(f"{mode} worker exited {code}:\n{err.read_text()[-2000:]}")
        return json.loads(out.splitlines()[-1])

    def check_lines(self, path: Path, indices: list[int], phase: dict) -> set[int]:
        """Positions whose classify line raised or differs from its digest."""
        lines = path.read_text().split("\n")
        bad = {pos for pos, i in enumerate(indices)
               if not lines[pos] or line_digest(lines[pos]) != self.records[i].digest}
        for error in phase["errors"][:5]:
            self.notes.append(f"classify raised: {error}")
        if bad:
            self.notes.append(f"{len(bad)} classify lines differ from their recorded digest")
        return bad

    def classify_and_replay(self, key: str, indices: list[int],
                            trace: bool) -> tuple[dict, dict]:
        """Classify a batch, check its lines, replay them in a fresh process."""
        classified = self.worker("classify", key, "lines", trace)
        bad = self.check_lines(self.work / f"lines{key}.jsonl", indices, classified)
        replayed = self.worker("replay", key, "lines", trace)
        for error in replayed["errors"][:5]:
            self.notes.append(f"replay failed: {error}")
        bad.update(replayed["failed"])
        self.attempted += len(indices)
        self.failed += len(bad)
        return classified, replayed

    def scan(self, threads: int) -> tuple[float, float]:
        """One `scan` child: (forms per wall second, peak RSS MB)."""
        out = self.work / f"scan-w{threads}.jsonl"
        cmd = [sys.executable, "-m", "k3cover.cli", "scan", *self.workload.scan_args(),
               "--out", str(out)]
        (code, wall, rss, _), slow = self.child(cmd, child_env(threads),
                                                self.work / "scan.err", pin=threads == 1)
        forms = self.scan_expect["forms"]
        self.attempted += forms
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        if code != 0 or digest != self.scan_expect["sha256"]:
            self.failed += forms
            self.notes.append(f"scan at {threads} workers: exit {code}, or its output "
                              "differs from the recorded sha256")
        out.unlink(missing_ok=True)
        return forms / wall * slow, rss

    def lemmas(self) -> float:
        cmd = [sys.executable, "-m", "k3cover.cli", "verify-lemmas"]
        (code, wall, _, _), slow = self.child(cmd, child_env(), self.work / "lemmas.err")
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.notes.append(f"verify-lemmas exited {code}")
        return wall / slow

    # ---- metrics ------------------------------------------------------
    def end_to_end(self) -> tuple[dict, dict]:
        flat = sum(self.rounds, [])
        n = len(flat)
        offsets = [0]
        for part in self.rounds:
            offsets.append(offsets[-1] + len(part))
        c_all, r_all = [[] for _ in range(n)], [[] for _ in range(n)]
        setups, w1, rss, lemmas, cases = [], [], [], [], {}
        # a fresh process runs its first forms slowly, so each pass takes a
        # round's forms in a new order
        order = random.Random(f"perfbench:{self.seed}:order")
        for p in range(PASSES):
            for r in range(ROUNDS):
                positions = list(range(offsets[r], offsets[r + 1]))
                order.shuffle(positions)
                indices = [flat[g] for g in positions]
                self.write_forms(str(r), indices)
                classified, replayed = self.classify_and_replay(str(r), indices, trace=False)
                for phase, timings in ((classified, c_all), (replayed, r_all)):
                    for g, t, slow in zip(positions, phase["latency_ns"], phase["slowdown"]):
                        timings[g].append(t / slow)
                    setups.append(phase["setup_s"] / phase["setup_slowdown"])
                if p == 0:
                    for case, count in classified["cases"].items():
                        cases[case] = cases.get(case, 0) + count
                if r == ROUNDS - 1:
                    rate, peak = self.scan(1)
                    w1.append(rate)
                    rss.append(peak)
                if r in (0, ROUNDS - 1):
                    lemmas.append(self.lemmas())
        c_ns = [statistics.median(t) for t in c_all]
        r_ns = [statistics.median(t) for t in r_all]
        metrics = {
            "scan_forms_per_s_w1": (statistics.median(w1), "1/s"),
            "scan_peak_rss_mb": (statistics.median(rss), "MB"),
            "classify_forms_per_s": (forms_per_s(c_ns), "1/s"),
            "classify_p50_us": (statistics.median(c_ns) / 1e3, "us"),
            "classify_p99_us": (percentile(c_ns, 0.99) / 1e3, "us"),
            "replay_forms_per_s": (forms_per_s(r_ns), "1/s"),
            "replay_p50_us": (statistics.median(r_ns) / 1e3, "us"),
            "replay_p99_us": (percentile(r_ns, 0.99) / 1e3, "us"),
            "lemmas_s": (statistics.median(lemmas), "s"),
            "setup_s": (statistics.median(setups), "s"),
        }
        detail = {"latency_samples": n, "samples_beyond_p99": n - ceil(0.99 * n),
                  "timings_per_form": PASSES, "scan_runs": len(w1), "lemmas_runs": len(lemmas),
                  "setup_samples": len(setups), "cases": cases}
        return metrics, detail

    def per_layer(self) -> tuple[dict, dict]:
        self_ns: dict[str, int] = {}
        counts: dict[str, int] = {}
        calls: dict[str, int] = {}
        cases: dict[str, int] = {}
        plain, traced, w1, wn, entries = [], [], [], [], 0
        for r in range(ROUNDS):
            untraced = self.worker("classify", str(r), "untraced")
            self.check_lines(self.work / f"untraced{r}.jsonl", self.rounds[r], untraced)
            classified, replayed = self.classify_and_replay(str(r), self.rounds[r], trace=True)
            plain += [t / k for t, k in zip(untraced["latency_ns"], untraced["slowdown"])]
            traced += [t / k for t, k in zip(classified["latency_ns"], classified["slowdown"])]
            entries = max(entries, classified["cache_entries"])
            for phase in (classified, replayed):
                slow = statistics.median(phase["slowdown"])
                for name, value in phase["self_ns"].items():
                    self_ns[name] = self_ns.get(name, 0) + value / slow
                for key, table in (("counts", counts), ("calls", calls)):
                    for name, value in phase[key].items():
                        table[name] = table.get(name, 0) + value
            for case, count in classified["cases"].items():
                cases[case] = cases.get(case, 0) + count
            w1.append(self.scan(1)[0])
            wn.append(self.scan(self.nproc)[0])
        n = self.form_count
        metrics: dict[str, tuple[float, str]] = {
            name: (self_ns.get(name, 0) / n / 1e3, "us") for name in SPAN_METRICS}
        misses = counts.get("shortvec.cache_misses", 0)
        metrics.update({
            "shortvec.nodes": (counts.get("shortvec.nodes", 0), "count"),
            "shortvec.cache_hits": (counts.get("shortvec.block_lookups", 0) - misses, "count"),
            "shortvec.cache_misses": (misses, "count"),
            "shortvec.cache_entries": (entries, "count"),
            "quadforms.represents_one_calls":
                (calls.get("quadforms.represents_one_us", 0), "count"),
            "lattices.standard_lattice_calls":
                (calls.get("lattices.standard_lattice_us", 0), "count"),
            "vinberg.slice_vectors": (counts.get("vinberg.slice_vectors", 0), "count"),
            "scan_forms_per_s_wN": (statistics.median(wn), "1/s"),
            "cli.parallel_efficiency":
                (statistics.median(wn) / (self.nproc * statistics.median(w1)), "ratio"),
            "trace.delta_forms_per_s": (forms_per_s(traced) - forms_per_s(plain), "1/s"),
        })
        for case in CASES:
            metrics[f"classifier.forms.{case}"] = (cases.get(case, 0), "count")
        detail = {"traced_forms": n, "per_form_times_cover": "classify + replay",
                  "untraced_classify_forms_per_s": forms_per_s(plain),
                  "traced_classify_forms_per_s": forms_per_s(traced)}
        return metrics, detail

    def execute(self) -> dict:
        try:
            self.prepare()
            metrics, detail = self.per_layer() if self.trace else self.end_to_end()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return {
            "workload": self.workload.name, "seed": self.seed, "seconds": self.seconds,
            "trace": int(self.trace), "nproc": self.nproc,
            "python": platform.python_version(), "forms": self.form_count,
            "attempted": self.attempted, "failed": self.failed,
            "failed_ratio": self.failed / self.attempted, "detail": detail,
            "notes": self.notes,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def report(result: dict) -> None:
    print(f"k3cover benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']} nproc={result['nproc']} "
          f"python={result['python']} forms={result['forms']}")
    for key, value in result["detail"].items():
        print(f"  {key}: {value}")
    for note in result["notes"]:
        print(f"  NOTE {note}")
    width = max(map(len, result["metrics"]))
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<{width}}  {result['failed_ratio']:>14.6g} "
          f"({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "k3cover" / "__init__.py").is_file():
        print(f"error: no k3cover sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = HERE / ".work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
