"""Spans around the calls into each cartanss module, recorded from outside the program.

The pipeline calls its stages through names imported into other modules
(`cli.page`, `verify.page`, `verify.cartan_filtration`, ...), so a function is
traced by rebinding every module-namespace name that holds it.  `Matrix.rref`
is traced on the class, which also covers `rank()` and the module-level
`rref()`.  Each span records its name, start, end, parent span and model id;
spans live in flat arrays until the run ends.

Counts repeat exactly between runs of one seed; times do not.  Wrapping
hundreds of thousands of tiny `rref` calls inflates the traced times, so read
them beside the counts and `trace.overhead_ratio`, never instead of them.
"""

from __future__ import annotations

import time
from array import array

# (module, function) pairs traced by rebinding; a name that a later version
# of the program removes is reported with zero calls.
FUNCTIONS = (
    ("cli", "load_model_file"),
    ("cli", "build_pipeline_report"),
    ("cli", "machine_document"),
    ("model", "validate_model"),
    ("model", "total_matrix"),
    ("model", "total_cohomology"),
    ("liealg", "validate_lie"),
    ("liealg", "invariant_subcomplex"),
    ("specseq", "cartan_filtration"),
    ("specseq", "page"),
    ("specseq", "limit_page"),
    ("verify", "e2_tensor_check"),
    ("verify", "d2_transgression"),
    ("verify", "basic_cohomology"),
    ("qlinalg", "kernel_basis"),
    ("qlinalg", "image"),
    ("qlinalg", "preimage"),
    ("qlinalg", "sum_and_intersect"),
    ("qlinalg", "quotient_map"),
    ("qlinalg", "inverse"),
)
ROOT = "cli.main"
RREF = "qlinalg.rref"
SPAN_NAMES = (ROOT,) + tuple(f"{m}.{f}" for m, f in FUNCTIONS) + (RREF,)

# Metrics computed at the span boundaries, beside calls / s / self_s of every span.
# name -> (unit, better)
DERIVED = {
    "qlinalg.rref.cells": ("cells", "lower"),
    "qlinalg.rref.work": ("ops", "lower"),
    "qlinalg.rref.distinct_ratio": ("1", "higher"),
    "specseq.cartan_filtration.useful_ratio": ("1", "higher"),
    "specseq.page.useful_ratio": ("1", "higher"),
    "specseq.cells": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.report_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}


def layer_metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    specs = {}
    for name in SPAN_NAMES:
        specs[f"{name}.calls"] = ("count", "lower")
        specs[f"{name}.s"] = ("s", "lower")
        specs[f"{name}.self_s"] = ("s", "lower")
    specs.update(DERIVED)
    return specs


class Recorder:
    """Spans of one traced pass, plus the counters taken where the work happens."""

    def __init__(self):
        self._code = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.model = array("l")
        self._stack = [-1]
        self._model_id = -1
        self._models = 0
        self._seen_matrices: set = set()
        self.rref_cells = 0
        self.rref_work = 0
        self.rref_distinct = 0
        self.page_keys: set = set()
        self.page_cells = 0

    def _open(self, code: int) -> int:
        idx = len(self.name)
        self.name.append(code)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.model.append(self._model_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def report(self, model_id: int, call):
        """Run one report as the root span of model `model_id`."""
        self._model_id = model_id
        self._models += 1
        self._seen_matrices = set()  # a real report is a fresh process
        idx = self._open(self._code[ROOT])
        try:
            return call()
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, after=None):
        code = self._code[name]

        def traced(*args, **kwargs):
            idx = self._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_rref(self, args, result) -> None:
        m = args[0]
        cells = len(m.data) * m.cols
        self.rref_cells += cells
        self.rref_work += len(result[1]) * cells
        if m not in self._seen_matrices:
            self._seen_matrices.add(m)
            self.rref_distinct += 1

    def _after_page(self, args, result) -> None:
        self.page_keys.add((self._model_id, args[1]))
        self.page_cells += len(result.cells)

    def install(self, modules: dict) -> None:
        """Rebind the traced names in freshly imported `modules` (layer -> module)."""
        after = {"specseq.page": self._after_page}
        for layer, fname in FUNCTIONS:
            original = getattr(modules[layer], fname, None)
            if original is None:
                continue
            name = f"{layer}.{fname}"
            wrapper = self._wrap(name, original, after.get(name))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        matrix = modules["qlinalg"].Matrix
        matrix.rref = self._wrap(RREF, matrix.rref, self._after_rref)

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics; self time is a span's duration minus its children's."""
        n_names = len(SPAN_NAMES)
        calls = [0] * n_names
        total = [0.0] * n_names
        child = [0.0] * len(self.name)
        name, start, end, parent = self.name, self.start, self.end, self.parent
        for i in range(len(name)):
            dur = end[i] - start[i]
            calls[name[i]] += 1
            total[name[i]] += dur
            if parent[i] >= 0:
                child[parent[i]] += dur
        self_s = [0.0] * n_names
        for i in range(len(name)):
            self_s[name[i]] += end[i] - start[i] - child[i]
        out = {}
        for code, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = calls[code]
            out[f"{span}.s"] = total[code]
            out[f"{span}.self_s"] = self_s[code]
        rref_calls = calls[self._code[RREF]]
        filt_calls = calls[self._code["specseq.cartan_filtration"]]
        page_calls = calls[self._code["specseq.page"]]
        out["qlinalg.rref.cells"] = self.rref_cells
        out["qlinalg.rref.work"] = self.rref_work
        out["qlinalg.rref.distinct_ratio"] = self.rref_distinct / rref_calls if rref_calls else 1.0
        out["specseq.cartan_filtration.useful_ratio"] = (
            self._models / filt_calls if filt_calls else 1.0
        )
        out["specseq.page.useful_ratio"] = len(self.page_keys) / page_calls if page_calls else 1.0
        out["specseq.cells"] = self.page_cells
        out["trace.spans"] = len(name)
        out["trace.report_s"] = traced_s
        out["trace.overhead_ratio"] = traced_s / untraced_s
        return out

    def write(self, path) -> None:
        """Dump every span as tab-separated text: id, name, parent, model, start, end."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tmodel\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{SPAN_NAMES[self.name[i]]}\t{self.parent[i]}\t{self.model[i]}"
                    f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
