"""In-memory span tracer for the qthresh benchmark.

``Tracer.install`` wraps every public function of the traced layers
(the package modules named in ``LAYERS``) and rebinds each module-level
name that refers to one of them, so calls between layers, and calls the
benchmark makes, pass through a wrapper that records a span
``(id, parent, op, name, start, end)``.  Nothing under ``src/`` is
edited; ``uninstall`` restores the original bindings.  Spans stay in a
list until ``write`` dumps them at the end of a run.

A span's self time is its duration minus the durations of its direct
children.  Calls are synchronous and single-threaded, so children never
overlap and the subtraction is exact.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# ``families`` only builds inputs during set-up and is not traced.
LAYERS = ("sampling", "entropy", "fef", "protocols", "states", "reports", "cli")
OP_SPAN = "bench.op"
OPEN_GAP = 1e-12


def _fef_record(bounds):
    return (bounds.iterations_total, bounds.converged, bounds.upper - bounds.lower)


# Counts read off return values at the layer boundary where they are produced.
RESULT_HOOKS = {
    "fef.fef_lower_bound": _fef_record,
    "fef.fef_certified": _fef_record,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._patched: list[tuple] = []

    def _open(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, end) -> None:
        self._stack.pop()
        self.spans.append((span_id, parent, self._op, name, start, end))

    @contextmanager
    def op(self, index: int):
        """Root span of one benchmark operation; its descendants share ``index``."""
        self._op = index
        span_id, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, OP_SPAN, start, perf_counter())

    def _wrap(self, name, fn):
        hook = RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start, perf_counter())
            if hook is not None:
                self.results[name].append(hook(result))
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Route every public function of ``LAYERS`` through a span wrapper."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qthresh.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and obj not in wrappers
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qthresh" and not mod_name.startswith("qthresh."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[int, float]:
        own = {s[0]: s[5] - s[4] for s in self.spans}
        for span_id, parent, _, _, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                    "names": names,
                    "spans": [
                        [s[0], s[1], s[2], index[s[3]], s[4], s[5]]
                        for s in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, states: int) -> dict[str, float]:
    """Per-layer metrics of one traced window.

    ``states`` is the number of states the window certified.  Layers a
    workload never calls report 0.
    """
    own = tracer.self_times()
    total_ms = defaultdict(list)
    self_ms = defaultdict(list)
    layer_self = defaultdict(float)
    window = 0.0
    for span_id, _, _, name, start, end in tracer.spans:
        if name == OP_SPAN:
            window += end - start
            continue
        total_ms[name].append((end - start) * 1e3)
        self_ms[name].append(own[span_id] * 1e3)
        layer_self[name.split(".", 1)[0]] += own[span_id]

    def ms_p50(name):
        return _median_or_zero(total_ms[name])

    vt_total = sum(total_ms["reports.verify_theorem"])
    fef_records = (
        tracer.results["fef.fef_lower_bound"] + tracer.results["fef.fef_certified"]
    )
    # Werner and extremal states have bounds that meet exactly; the median
    # is taken over the states whose gap is still open.
    gaps = [gap for _, _, gap in tracer.results["fef.fef_certified"] if gap > OPEN_GAP]
    metrics = {
        "fef.fef_lower_bound.ms_p50": ms_p50("fef.fef_lower_bound"),
        "fef.fef_certified.ms_p50": ms_p50("fef.fef_certified"),
        "fef.iterations_per_state": sum(r[0] for r in fef_records) / states,
        "fef.gap_p50": _median_or_zero(gaps),
        "fef.unconverged_frac": (
            sum(1 for r in fef_records if not r[1]) / len(fef_records)
            if fef_records
            else 0.0
        ),
        "reports.verify_theorem.self_frac": (
            sum(self_ms["reports.verify_theorem"]) / vt_total if vt_total else 0.0
        ),
        "sampling.haar_unitary.calls_per_state": (
            len(total_ms["sampling.haar_unitary"]) / states
        ),
        "sampling.sample.ms_p50": ms_p50("sampling.sample"),
        "entropy.von_neumann_entropy.ms_p50": ms_p50("entropy.von_neumann_entropy"),
        "protocols.teleportation_avg_fidelity_mc.ms_p50": ms_p50(
            "protocols.teleportation_avg_fidelity_mc"
        ),
        "protocols.densecoding_chi_standard.ms_p50": ms_p50(
            "protocols.densecoding_chi_standard"
        ),
        "states.load_state.ms_p50": ms_p50("states.load_state"),
        "cli.main.self_ms_p50": _median_or_zero(self_ms["cli.main"]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_frac"] = layer_self[layer] / window if window else 0.0
    return metrics
