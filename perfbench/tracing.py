"""Per-layer tracing by wrapping the program's public functions.

Each traced function is wrapped once, and every ``perscoh.*`` module
attribute bound to it is rebound to the wrapper, so calls from ``cli``
and calls between modules (``rips`` -> ``build_complex``, ``pcoh`` ->
``anti_transpose``, ``oracle`` -> ``dense_rank``) are all caught.  A
function that the program no longer has is listed as absent.

Spans are kept in memory and written out once, by :meth:`Tracer.dump`.
A layer's self time is its spans' time minus their child spans.
Counters are read from the values the functions return, by attribute;
a missing attribute leaves its counter at zero, and a result of another
shape is listed as absent.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function, layer); the layer names the per-layer metrics
SPANNED = (
    ("rips", "rips_filtration", "rips"),
    ("complexes", "build_complex", "complexes.build_complex"),
    ("complexes", "load_points", "complexes.load"),
    ("complexes", "load_cell_file", "complexes.load"),
    ("complexes", "load_simplicial_file", "complexes.load"),
    ("complexes", "boundary_matrix", "complexes.boundary_matrix"),
    ("complexes", "anti_transpose", "complexes.anti_transpose"),
    ("reduction", "phcol", "reduction"),
    ("reduction", "phrow", "reduction"),
    ("reduction", "pcoh", "reduction"),
    ("reduction", "verify_decomposition", "reduction.verify"),
    ("persistence", "pairs_to_partition", "persistence.barcode"),
    ("persistence", "barcode_abs_hom", "persistence.barcode"),
    ("persistence", "barcode_rel_hom", "persistence.barcode"),
    ("persistence", "barcode_from_antitranspose", "persistence.barcode"),
    ("persistence", "generators", "persistence.generators"),
    ("persistence", "format_diagram", "persistence.format"),
    ("cli", "render_generators", "persistence.format"),
    ("oracle", "oracle_barcode", "oracle"),
)
# called thousands of times per oracle run: counted, not spanned
COUNTED = (
    ("oracle", "dense_rank", "oracle.dense_rank_calls"),
    ("oracle", "nullspace_basis", "oracle.dense_rank_calls"),
)

# layers named by their module alone report ``<module>.self_s``
WHOLE_MODULE = ("rips", "reduction", "oracle", "cli")

# counters that must repeat exactly when the same inputs are run again
EXACT = ("complexes.cells", "persistence.intervals", "reduction.ops",
         "reduction.peak_terms", "complexes.anti_transpose_calls",
         "oracle.dense_rank_calls")


def _clearable(result) -> tuple[int, int]:
    """(zero columns whose index is a pivot row, n) of a reduction result."""
    low_of, R = getattr(result, "low_of", None), getattr(result, "R", None)
    if low_of is not None and R is not None:
        return sum(1 for row in set(low_of.values()) if not R.cols[row]), R.n
    pairs, essential = getattr(result, "pairs", None), getattr(result, "essential", None)
    if pairs is not None and essential is not None:
        return len({s for s, _ in pairs}), 2 * len(pairs) + len(essential)
    return 0, 0


def _count(counters, layer: str, result) -> None:
    if layer == "complexes.build_complex":
        counters["complexes.cells"] += getattr(result, "n", 0)
    elif layer == "complexes.anti_transpose":
        counters["complexes.anti_transpose_calls"] += 1
    elif layer == "reduction":
        counters["reduction.ops"] += getattr(result, "ops", 0)
        counters["reduction.peak_terms"] = max(counters["reduction.peak_terms"],
                                               getattr(result, "peak_elements", 0))
        cleared, n = _clearable(result)
        counters["reduction.cleared"] += cleared
        counters["reduction.columns"] += n
    elif layer in ("persistence.barcode", "persistence.generators"):
        items = getattr(result, "intervals", None)
        if items is None:
            items = getattr(result, "entries", None)
        if isinstance(items, list):
            counters["persistence.intervals"] += len(items)


class Tracer:
    """Records spans and counters for one labelled invocation at a time."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, label, layer, start, end)
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._label = ""
        self._saved: list[tuple] = []

    def _span(self, layer: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self._label, layer, start, end)

    def call(self, label: str, fn, *args):
        """Run ``fn(*args)`` as the root span (layer ``cli``) of ``label``."""
        self._label = label
        return self._span("cli", fn, args, {})

    def _wrap(self, fn, layer: str, spanned: bool):
        counters = self.counters

        def wrapper(*args, **kwargs):
            if spanned:
                result = self._span(layer, fn, args, kwargs)
                try:
                    _count(counters[self._label], layer, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # a result of another shape: its counters stay at zero
                    if f"{layer} counters" not in self.absent:
                        self.absent.append(f"{layer} counters")
            else:
                counters[self._label][layer] += 1
                result = fn(*args, **kwargs)
            return result
        return wrapper

    def install(self) -> None:
        """Rebind every ``perscoh.*`` attribute that refers to a traced function."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "perscoh" or name.startswith("perscoh.")]
        self.absent = []
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for module, name, layer in table:
                fn = getattr(sys.modules.get(f"perscoh.{module}"), name, None)
                if not callable(fn):
                    self.absent.append(f"{module}.{name}")
                    continue
                wrapper = self._wrap(fn, layer, spanned)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._saved.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved = []

    def take(self, first_span: int, scales: dict[str, float]) -> dict[str, dict[str, float]]:
        """Per-label layer metrics of the spans from ``first_span`` on.

        Times are multiplied by the label's factor in ``scales``.
        Consumes the counters gathered since the previous call.
        """
        spans = self.spans[first_span:]
        child = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, _, label, layer, start, end in spans:
            self_s = end - start - child[sid]
            key = layer + (".self_s" if layer in WHOLE_MODULE else "_s")
            out[label][key] += self_s * scales[label]
        for label, counts in self.counters.items():
            row = out[label]
            for name in EXACT:
                row[name] = counts.get(name, 0)
            row["reduction.ns_per_op"] = (row["reduction.self_s"] * 1e9 / counts["reduction.ops"]
                                          if counts.get("reduction.ops") else 0.0)
            row["reduction.clearable_frac"] = (counts["reduction.cleared"] / counts["reduction.columns"]
                                               if counts.get("reduction.columns") else 0.0)
        self.counters.clear()
        return out

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "invocation", "layer", "start", "end")
        with open(path, "w") as fh:
            json.dump({"absent": self.absent,
                       "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
