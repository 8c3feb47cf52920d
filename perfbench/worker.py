"""One fresh interpreter of the benchmark: set-up, then classify or replay.

    python3 perfbench/worker.py classify --setup FILE --forms FILE --lines FILE [--trace]
    python3 perfbench/worker.py replay   --setup FILE --forms FILE --lines FILE [--trace]

`src` must be on PYTHONPATH.  Both modes first time their set-up: import
k3cover, then classify and replay one form of each case the workload
produces (this fills the E8(2) memo and the slice caches).  `classify` then
classifies each form and encodes its scan line, exactly the work of one
`scan` line, and writes the lines; `replay` parses each line back with
`Classification.from_dict` and replays it with `verify_classification`
against the form the run asked for.  Between forms, outside the timed
calls, a pacing kernel records how fast the machine runs (pacing.py).  The
result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pacing import Pacer  # noqa: E402


def scan_line(a: int, b: int, c: int, result) -> str:
    """The line `k3cover scan` writes for one form."""
    data = {"a": a, "b": b, "c": c}
    data.update(result.to_dict())
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def replay_line(form, line: str) -> None:
    from k3cover.classifier import Classification, verify_classification
    from k3cover.lattices import TranscendentalForm

    verify_classification(TranscendentalForm(*form), Classification.from_dict(json.loads(line)))


def set_up(setup_forms) -> float:
    """Import k3cover and run one classify and one replay per case; seconds."""
    start = perf_counter()
    from k3cover.classifier import classify
    from k3cover.lattices import TranscendentalForm

    for form in setup_forms:
        replay_line(form, scan_line(*form, classify(TranscendentalForm(*form))))
    return perf_counter() - start


def classify_phase(forms, tracer=None):
    from k3cover.classifier import classify
    from k3cover.lattices import TranscendentalForm

    encode = scan_line if tracer is None else tracer.span("cli.json_us", scan_line)
    lines, latency_ns, cases, errors = [], [], {}, []
    pacer = Pacer()
    for done, (a, b, c) in enumerate(forms):
        pacer.tick(done)
        t0 = perf_counter_ns()
        try:
            result = classify(TranscendentalForm(a, b, c))
            line = encode(a, b, c, result)
        except Exception as exc:  # noqa: BLE001 - a raising form is a counted failure
            line = ""
            errors.append(f"{(a, b, c)}: {exc!r}")
        else:
            cases[result.case_label] = cases.get(result.case_label, 0) + 1
        latency_ns.append(perf_counter_ns() - t0)
        lines.append(line)
    return lines, {"latency_ns": latency_ns, "slowdown": pacer.per_form(len(forms)),
                   "setup_slowdown": pacer.samples[0], "cases": cases, "errors": errors}


def replay_phase(forms, lines, tracer=None):
    from k3cover.classifier import Classification, verify_classification
    from k3cover.lattices import TranscendentalForm

    from_dict = Classification.from_dict
    if tracer is not None:
        from_dict = tracer.span("classifier.from_dict_us", from_dict)
    latency_ns, failed, errors = [], [], []
    pacer = Pacer()
    for i, (form, line) in enumerate(zip(forms, lines)):
        pacer.tick(i)
        t0 = perf_counter_ns()
        try:
            verify_classification(TranscendentalForm(*form), from_dict(json.loads(line)))
        except Exception as exc:  # noqa: BLE001 - a failed replay is a counted failure
            failed.append(i)
            errors.append(f"{tuple(form)}: {exc!r}")
        latency_ns.append(perf_counter_ns() - t0)
    return {"latency_ns": latency_ns, "slowdown": pacer.per_form(len(forms)),
            "setup_slowdown": pacer.samples[0], "failed": failed, "errors": errors}


def cache_keys() -> list:
    from k3cover import shortvec

    return [list(map(list, key[0])) for key in getattr(shortvec, "_CACHE", {})]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("classify", "replay"))
    parser.add_argument("--setup", required=True, help="JSON list of set-up forms")
    parser.add_argument("--forms", required=True, help="JSON list of forms to measure")
    parser.add_argument("--lines", required=True,
                        help="scan lines: written by classify, read by replay")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--dump-cache-keys", action="store_true",
                        help="report the memoised blocks when the phase starts and ends")
    args = parser.parse_args(argv)
    setup_forms = json.loads(Path(args.setup).read_text())
    forms = json.loads(Path(args.forms).read_text())
    lines = (Path(args.lines).read_text().split("\n")[:len(forms)]
             if args.mode == "replay" else None)

    out: dict = {"setup_s": set_up(setup_forms)}
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    if args.dump_cache_keys:
        out["cache_keys_start"] = cache_keys()
    if args.mode == "classify":
        lines, phase = classify_phase(forms, tracer)
        Path(args.lines).write_text("\n".join(lines) + "\n")
        out.update(phase)
    else:
        out.update(replay_phase(forms, lines, tracer))
    if args.dump_cache_keys:
        out["cache_keys_end"] = cache_keys()
    if tracer is not None:
        from k3cover import shortvec

        out["self_ns"] = dict(tracer.self_ns)
        out["calls"] = dict(tracer.calls)
        out["counts"] = dict(tracer.counts)
        out["cache_entries"] = len(getattr(shortvec, "_CACHE", {}))
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
