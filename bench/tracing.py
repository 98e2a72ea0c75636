"""Spans around the package's layer boundaries, recorded from outside it.

`Tracer.install` replaces each listed public function, in every toricgate
module namespace that holds it (so names imported into `cli` and `render`
are covered too), with a wrapper that records a span; `StateVector.__init__`
is wrapped the same way. `uninstall` puts the originals back. Spans live in
memory as (name, start, end, parent index, bytes) tuples.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

# Layer boundaries: public functions per module. Per-element helpers
# (bits.*, drop_target_bit, orthant_cone, primitive_vector) are left out,
# since a span per vertex or per ray would cost more than the work it times.
LAYERS = {
    "spin_model": ("berry_phases", "cphase_gate"),
    "statevec": ("uniform_superposition", "apply_cphase", "concurrence",
                 "state_to_text", "state_from_text"),
    "phase_partition": ("partition_vertices", "class_graph", "is_hypercube_isomorphic",
                        "intersection_summary", "partition_to_text"),
    "render": ("render_partition_svg", "render_partition_dot"),
    "toric_geometry": ("product_p1_charts", "product_p1_fan", "moment_polytope",
                       "fan_to_text", "polytope_to_text", "dual_cone",
                       "cone_contains", "is_simplicial"),
    "cli": ("main",),
}

# Bytes a span moves. apply_cphase is counted as one read and one write of
# the state, 32 * 2^n bytes: a computed figure, not a measured one.
BYTES = {
    "statevec.apply_cphase": lambda args, result: 2 * args[0].amplitudes.nbytes,
    "statevec.state_from_text": lambda args, result: len(args[0]),
    "statevec.state_to_text": lambda args, result: len(result),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, size = self.spans, self._stack, BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                moved = size(args, result) if size and result is not None else 0
                spans[index] = (name, start, end, parent, moved)
        return traced

    def install(self) -> None:
        package = [m for key, m in sys.modules.items()
                   if key == "toricgate" or key.startswith("toricgate.")]
        for module_name, names in LAYERS.items():
            home = sys.modules[f"toricgate.{module_name}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module_name}.{fname}", original)
                for module in package:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)
                        self._restore.append((module, fname, original))
        cls = sys.modules["toricgate.statevec"].StateVector
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("statevec.StateVector", cls.__init__)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def take(self) -> list:
        """Spans recorded so far, which the tracer then forgets."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def span_stats(spans: list) -> tuple[dict[str, dict[str, float]], float]:
    """Per span name: calls, busy_s, self_s (busy minus direct children) and
    bytes; plus the total duration of top-level spans."""
    stats: dict[str, dict[str, float]] = {}
    child = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent, moved in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            top += end - start
    for (name, start, end, parent, moved), inner in zip(spans, child):
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "bytes": 0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - inner
        entry["bytes"] += moved
    return stats, top
