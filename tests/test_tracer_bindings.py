"""The names that perfbench's tracer rebinds still exist and still run.

perfbench/tracing.py times each layer by rebinding, from outside, the name
that the program's callers look up, and skips a name that is gone.  So a
refactor that drops, renames or inlines such a name sets its per-layer
metric to 0 without an error.  These tests read the tracer's SPANS and
COUNTS tables from the file, without importing or running it, and hold the
program to the bindings that are live; the rows whose metrics already read
0 are listed apart (ROADMAP item 3).
"""

import ast
import importlib
from pathlib import Path

from k3cover import classifier
from k3cover.classifier import Certificate, classify, verify_classification
from k3cover.cli import CASE_ORDER
from k3cover.lattices import TranscendentalForm

from conftest import ONE_FORM_PER_CASE

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (module, attribute): the rows whose metric the program feeds
LIVE = {
    ("k3cover.classifier", "case_of"),
    ("k3cover.classifier", "represents_one"),
    ("k3cover.classifier", "search_norm"),
    ("k3cover.classifier", "in_P"),
    ("k3cover.vinberg", "in_P"),
}

# The rows whose metric reads 0 on every workload: no program path calls
# them, whether or not the name still resolves (the oracle stack's do)
DEAD = {
    ("k3cover.classifier", "orthogonal_complement"),
    ("k3cover.embeddings", "left_kernel"),
    ("k3cover.classifier", "validate"),
    ("k3cover.classifier", "maximal_minor_gcd"),
    ("k3cover.classifier", "enumerate_norm"),
    ("k3cover.shortvec", "_check_negative_definite"),
    ("k3cover.classifier", "enumerate_P_slice"),
    ("k3cover.vinberg", "_slice_members"),
    ("k3cover.classifier", "standard_lattice"),
    ("k3cover.classifier", "apply_basis_change"),
    ("k3cover.shortvec", "_level_range"),
    ("k3cover.shortvec", "_component_groups"),
    ("k3cover.shortvec", "_fp_groups"),
}

def _traced_rows() -> set[tuple[str, str]]:
    """The (module, attribute) of every row of SPANS and COUNTS."""
    rows = set()
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] in (
                ["SPANS"], ["COUNTS"]):
            rows |= {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    return rows


def _replay_classes() -> set[type]:
    """The classes whose replay the tracer wraps, found as it finds them."""
    return {obj for obj in vars(classifier).values()
            if isinstance(obj, type) and isinstance(getattr(obj, "kind", None), str)
            and hasattr(obj, "replay")}


def test_every_traced_row_is_live_or_a_known_dead_metric():
    assert _traced_rows() == LIVE | DEAD
    for module, attr in LIVE:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    assert callable(getattr(classifier, "certify", None))
    assert _replay_classes() == set(Certificate.__args__)


def test_classify_and_replay_call_every_live_binding(monkeypatch):
    called = set()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    bound = {attr for module, attr in LIVE if module == "k3cover.classifier"} | {"certify"}
    for attr in bound:
        monkeypatch.setattr(classifier, attr, counted(attr, getattr(classifier, attr)))
    for cls in _replay_classes():
        monkeypatch.setattr(cls, "replay", counted(cls.kind, cls.replay))
    # one form of each case: classify and replay of these reach every live binding
    for label, triple in zip(CASE_ORDER, ONE_FORM_PER_CASE):
        t = TranscendentalForm(*triple)
        record = classify(t)
        assert record.case_label == label
        verify_classification(t, record)
    assert called == bound | {cls.kind for cls in Certificate.__args__}
