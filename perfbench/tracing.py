"""Spans and counters around calls into k3cover, installed from outside.

Nothing inside `src/` is instrumented.  Instead every function is wrapped
at the name its caller binds: `classifier` imports `validate`,
`orthogonal_complement`, `enumerate_norm`, ... by name, so wrapping only the
defining module would miss those calls.  Each binding is replaced by its
own wrapper around the original function, so a call is never counted
twice.

A span records its duration and subtracts it from its parent's self time,
so `self_ns[name]` is time spent in that layer and not in a traced layer
below it.  Names that a later version of the program no longer binds are
skipped and report zero.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name): one row per binding a caller looks up
SPANS = (
    ("k3cover.classifier", "case_of", "classifier.case_of_us"),
    ("k3cover.classifier", "orthogonal_complement", "embeddings.complement_us"),
    ("k3cover.embeddings", "left_kernel", "intmat.left_kernel_us"),
    ("k3cover.classifier", "validate", "embeddings.validate_us"),
    ("k3cover.classifier", "maximal_minor_gcd", "embeddings.minor_gcd_us"),
    ("k3cover.classifier", "enumerate_norm", "shortvec.enumerate_norm_us"),
    ("k3cover.shortvec", "_check_negative_definite", "shortvec.negdef_check_us"),
    ("k3cover.classifier", "represents_one", "quadforms.represents_one_us"),
    ("k3cover.classifier", "search_norm", "vinberg.search_norm_us"),
    ("k3cover.classifier", "in_P", "vinberg.in_P_us"),
    ("k3cover.vinberg", "in_P", "vinberg.in_P_us"),
    ("k3cover.classifier", "enumerate_P_slice", "vinberg.slice_us"),
    ("k3cover.vinberg", "_slice_members", "vinberg.slice_us"),
    ("k3cover.classifier", "standard_lattice", "lattices.standard_lattice_us"),
    ("k3cover.classifier", "apply_basis_change", "lattices.apply_basis_change_us"),
)

# (module, attribute, counter name): calls counted, not timed
COUNTS = (
    ("k3cover.shortvec", "_level_range", "shortvec.nodes"),
    ("k3cover.shortvec", "_component_groups", "shortvec.block_lookups"),
    ("k3cover.shortvec", "_fp_groups", "shortvec.cache_misses"),
)


class Tracer:
    """Self time and call counts per span name, plus plain counters."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_ns = [0]
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name, fn, name_of=None):
        """Wrap fn in a span; name_of(result) may refine the name per call."""
        stack = self._child_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                took = perf_counter_ns() - start
                label = name if name_of is None or result is None else name_of(result)
                self.self_ns[label] += took - stack.pop()
                self.calls[label] += 1
                stack[-1] += took

        return wrapper

    def counter(self, name, fn, amount=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper_of) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def install(self) -> "Tracer":
        for module, attr, name in SPANS:
            self._patch(importlib.import_module(module), attr,
                        lambda fn, name=name: self.span(name, fn))
        for module, attr, name in COUNTS:
            self._patch(importlib.import_module(module), attr,
                        lambda fn, name=name: self.counter(name, fn))
        vinberg = importlib.import_module("k3cover.vinberg")
        self._patch(vinberg, "_slice_members",
                    lambda fn: self.counter("vinberg.slice_vectors", fn, len))
        classifier = importlib.import_module("k3cover.classifier")
        self._patch(classifier, "certify", lambda fn: self.span(
            "classifier.certify_us", fn, lambda cert: f"classifier.certify_us.{cert.kind}"))
        for obj in vars(classifier).values():
            kind = getattr(obj, "kind", None)
            if isinstance(obj, type) and isinstance(kind, str) and hasattr(obj, "replay"):
                self._patch(obj, "replay",
                            lambda fn, kind=kind: self.span(f"classifier.replay_us.{kind}", fn))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
