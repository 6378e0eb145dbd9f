"""Outside-in span recorder for the traced pass.

Wraps the public functions and methods of every focksim module from the
benchmark's own code; nothing under ``src/`` knows it is being traced.
Module-level functions are replaced in every ``focksim`` namespace that
binds them (``from .kerr import sample_homodyne`` in ``schemes``,
``detector`` and ``cli`` holds its own reference), and methods are
replaced on their class.  :meth:`Recorder.uninstall` restores every
original object.

A span is ``(label, parent, start_ns, end_ns)``; the spans of one pass sit
in one list, indexed by span id, with the pass root at index 0.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

import numpy as np

ROOT_LABEL = "pass"

# per-layer metric -> span labels whose self time it sums
SELF_MS = {
    "fock.ket_init.self_ms": ("fock.ket_init",),
    "fock.project.self_ms": ("fock.project",),
    "fock.restricted.self_ms": ("fock.restricted",),
    "fock.fidelity.self_ms": ("fock.fidelity",),
    "fock.expand_bilinear_power.self_ms": ("fock.expand_bilinear_power",),
    "elements.construct.self_ms": ("elements.construct",),
    "elements.apply.mixing.self_ms": ("elements.apply.mixing",),
    "elements.apply.permutation.self_ms": ("elements.apply.permutation",),
    "kerr.tag.self_ms": ("kerr.attach_probe", "kerr.apply_cross_kerr", "kerr.apply_probe_phase"),
    "kerr.sample_homodyne.self_ms": ("kerr.sample_homodyne",),
    "kerr.homodyne_condition.self_ms": ("kerr.homodyne_condition",),
    "kerr.homodyne_pdf.self_ms": ("kerr.homodyne_pdf",),
    "detector.detect.self_ms": ("detector.detect",),
    "detector.detector_probe_state.self_ms": ("detector.detector_probe_state",),
    "detector.apply_phase_correction.self_ms": ("detector.apply_phase_correction",),
    "detector.cascade_closed_form.self_ms": ("detector.cascade_closed_form",),
    "schemes.build_psi_theta.self_ms": ("schemes.build_psi_theta",),
    "schemes.psi_theta_reference.self_ms": ("schemes.psi_theta_reference",),
    "schemes.tagged_circuit_state.self_ms": ("schemes.tagged_circuit_state",),
    "schemes.sample_ghz_circuit.self_ms": ("schemes.sample_ghz_circuit",),
    "schemes.ghz_circuit.self_ms": ("schemes.ghz_circuit",),
    "schemes.spin_flip.self_ms": ("schemes.spin_flip",),
    "schemes.interval_probabilities.self_ms": ("schemes.interval_probabilities",),
    "cli.main.self_ms": ("cli.main",),
}

# per-layer metric -> span label whose calls it counts
CALLS = {
    "fock.ket_init.calls": "fock.ket_init",
    "elements.construct.calls": "elements.construct",
    "elements.apply.mixing.calls": "elements.apply.mixing",
    "elements.apply.permutation.calls": "elements.apply.permutation",
    "kerr.homodyne_condition.calls": "kerr.homodyne_condition",
    "detector.detect.calls": "detector.detect",
    "schemes.decode_table.calls": "schemes.decode_table",
}

# counters filled by the wrappers' count hooks (and cli.bytes_written by the
# benchmark after each pass), reported as they are
COUNTERS = (
    "elements.apply.mixing.terms_in",
    "elements.apply.mixing.terms_out",
    "elements.apply.permutation.terms_in",
    "kerr.homodyne_condition.empty",
    "kerr.branches",
    "cli.bytes_written",
)


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric the traced pass reports."""
    units = {name: "ms" for name in SELF_MS}
    units.update({name: "count" for name in CALLS})
    units.update({name: "count" for name in COUNTERS})
    units["cli.bytes_written"] = "bytes"
    units["fock.project.kept_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _is_permutation(matrix: np.ndarray) -> bool:
    """Every row has exactly one nonzero entry (a monomial matrix)."""
    return bool(np.all(np.count_nonzero(matrix, axis=1) == 1))


class Recorder:
    """Holds the spans and counters of every traced pass of one run."""

    def __init__(self):
        self.passes: list[list[tuple]] = []
        self._stack: list[int] = []
        self._spans: list = []
        self._counts: dict[str, int] = {}
        self._apply_kind: dict[int, tuple[object, str]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- pass boundaries ---------------------------------------------

    def begin_pass(self) -> None:
        self._spans = [None]
        self._counts = dict.fromkeys(COUNTERS + ("fock.project.terms_in", "fock.project.terms_kept"), 0)
        self._stack = [0]
        self._start = perf_counter_ns()

    def end_pass(self) -> tuple[list[tuple], dict[str, int]]:
        end = perf_counter_ns()
        self._spans[0] = (ROOT_LABEL, -1, self._start, end)
        self.passes.append(self._spans)
        return self._spans, self._counts

    # -- wrapping ------------------------------------------------------

    def _wrap(self, label, fn, count=None):
        def wrapper(*args, **kwargs):
            spans = self._spans
            stack = self._stack
            name = label(args) if callable(label) else label
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (name, parent, start, end)
            if count is not None:
                count(self._counts, name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _classify_apply(self, args) -> str:
        transform = args[0]
        known = self._apply_kind.get(id(transform))
        if known is None:
            kind = "permutation" if _is_permutation(transform.matrix) else "mixing"
            # the transform is kept alive so its id cannot be reused
            known = self._apply_kind[id(transform)] = (transform, "elements.apply." + kind)
        return known[1]

    def install(self) -> None:
        """Replace every traced callable; :meth:`uninstall` puts them back."""
        from focksim import cli, detector, elements, fock, kerr, schemes

        methods = (
            (fock.FockKet, "__init__", "fock.ket_init", None),
            (fock.FockKet, "project", "fock.project", _count_project),
            (fock.FockKet, "restricted", "fock.restricted", None),
            (fock.FockKet, "fidelity", "fock.fidelity", None),
            (elements.ModeTransform, "__init__", "elements.construct", None),
            (elements.ModeTransform, "apply", self._classify_apply, _count_apply),
        )
        functions = (
            (fock, "expand_bilinear_power", None),
            (kerr, "attach_probe", None),
            (kerr, "apply_cross_kerr", None),
            (kerr, "apply_probe_phase", None),
            (kerr, "sample_homodyne", None),
            (kerr, "homodyne_condition", _count_condition),
            (kerr, "homodyne_pdf", None),
            (detector, "detect", None),
            (detector, "detector_probe_state", None),
            (detector, "apply_phase_correction", None),
            (detector, "cascade_closed_form", None),
            (schemes, "build_psi_theta", None),
            (schemes, "psi_theta_reference", None),
            (schemes, "tagged_circuit_state", None),
            (schemes, "sample_ghz_circuit", None),
            (schemes, "ghz_circuit", None),
            (schemes, "spin_flip", None),
            (schemes, "decode_table", None),
            (schemes, "interval_probabilities", None),
            (cli, "main", None),
        )
        for cls, attr, label, count in methods:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(label, original, count))
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "focksim"]
        for module, attr, count in functions:
            original = getattr(module, attr)
            label = module.__name__.rsplit(".", 1)[-1] + "." + attr
            wrapper = self._wrap(label, original, count)
            for namespace in namespaces:
                for bound, value in list(vars(namespace).items()):
                    if value is original:
                        self._restore.append((namespace, bound, original))
                        setattr(namespace, bound, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._apply_kind.clear()


def _count_apply(counts, name, args, result) -> None:
    counts[name + ".terms_in"] += len(args[1])
    if name == "elements.apply.mixing":
        counts[name + ".terms_out"] += len(result)


def _count_project(counts, name, args, result) -> None:
    counts["fock.project.terms_in"] += len(args[0])
    kept = result[0]
    counts["fock.project.terms_kept"] += len(kept) if kept is not None else 0


def _count_condition(counts, name, args, result) -> None:
    counts["kerr.branches"] += len(args[0])
    if result is None:
        counts["kerr.homodyne_condition.empty"] += 1


def self_times(spans: list[tuple]) -> tuple[dict[str, int], dict[str, int]]:
    """Self time in ns and call count per span label (root included)."""
    child = [0] * len(spans)
    for label, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for (label, _, start, end), inner in zip(spans, child):
        self_ns[label] = self_ns.get(label, 0) + (end - start) - inner
        calls[label] = calls.get(label, 0) + 1
    return self_ns, calls


def layer_self_ns(spans: list[tuple]) -> dict[str, int]:
    """Self time per module (the label prefix), plus the pass root's own."""
    by_layer: dict[str, int] = {}
    for label, ns in self_times(spans)[0].items():
        layer = label.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0) + ns
    return by_layer


def layer_metrics(spans: list[tuple], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without the overhead ratio)."""
    self_ns, calls = self_times(spans)
    metrics: dict[str, float] = {
        name: sum(self_ns.get(label, 0) for label in labels) / 1e6
        for name, labels in SELF_MS.items()
    }
    metrics.update({name: calls.get(label, 0) for name, label in CALLS.items()})
    metrics.update({name: counts[name] for name in COUNTERS})
    terms_in = counts["fock.project.terms_in"]
    metrics["fock.project.kept_ratio"] = counts["fock.project.terms_kept"] / terms_in if terms_in else 0.0
    return metrics
