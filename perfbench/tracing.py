"""Spans around calls into proctomo's public functions, recorded from the
benchmark's side.

`Tracer.installed` replaces module attributes such as `tomography.build_frame`
with timing wrappers and restores them on exit. The package calls these
functions through their modules (`tomography.build_frame(...)` in cli.py), so
the wrappers see the calls the CLI makes as well as the ones the benchmark
makes. Nothing inside the package is edited; spans inside the package are left
for a later change.

A span is a dict with layer, name, start, end, parent (index of the enclosing
span or None), op (the unit of work it belongs to) and, for some spans, counts
taken from the call's arguments and return value. Calls that a layer makes into
itself, such as `save_family` calling `operator_to_json` per element, get no
span of their own.
"""

import contextlib
import functools
import json
import os
import time

# /proc/self/statm reports sizes in pages.
_PAGE = os.sysconf("SC_PAGE_SIZE")


def current_rss_mb() -> float:
    """Resident set size of this process now."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 1e6


def _family_counts(result, args, kwargs):
    side = result.elements[0].choi.mat.shape[0]
    return {"elements": len(result), "choi_side": side,
            # computed: one dense complex128 matrix per element
            "dense_mb": len(result) * side * side * 16 / 1e6}


def _sample_counts(result, args, kwargs):
    family = args[1] if len(args) > 1 else kwargs["family"]
    # computed: sample_shots evaluates the Born rule once per element
    return {"born_evals": len(family)}


def _frame_counts(result, args, kwargs):
    m, d = result.tvecs.shape
    return {"frame_dim": d, "frame_rank": result.rank,
            "condition_number": result.condition_number,
            # computed: complex GEMMs at 8 real flops per multiply-add;
            # frame T^T T* (M D^2), pseudo-inverse V S^+ U^H (D^3),
            # duals F^+ T^T (D^2 M). The two SVDs are not counted.
            "frame_flops": 16 * m * d * d + 8 * d ** 3,
            "rss_mb": current_rss_mb()}


# (module, public function, counter); the span is named module.function.
TARGETS = (
    ("cli", "main", None),
    ("process_sim", "preset_process", None),
    ("process_sim", "build_process", None),
    ("process_sim", "interior_only", None),
    ("process_sim", "sample_shots", _sample_counts),
    ("probe_factory", "weyl_ancilla_family", _family_counts),
    ("serialize", "save_family", None),
    ("serialize", "records_to_json", None),
    ("serialize", "records_to_csv", None),
    ("serialize", "operator_to_json", None),
    ("serialize", "load_family", None),
    ("serialize", "records_from_json", None),
    ("serialize", "operator_from_json", None),
    ("tomography", "build_frame", _frame_counts),
    ("tomography", "linear_inversion", None),
    ("tomography", "reconstruction_metrics", None),
    ("tomography", "estimate_functional", None),
)

# Per-layer time metrics: the spans whose durations each one sums. Only
# cli.main spans have children, so each of these is also a self time.
# operator_to_json only builds a dict; cli.py encodes it with json.dump, so
# that text encoding is in cli.self_s.
TIME_METRICS = {
    "process_sim.build_s": ("process_sim.preset_process", "process_sim.build_process",
                            "process_sim.interior_only"),
    "process_sim.sample_s": ("process_sim.sample_shots",),
    "probe_factory.family_s": ("probe_factory.weyl_ancilla_family",),
    "serialize.write_s": ("serialize.save_family", "serialize.records_to_json",
                          "serialize.records_to_csv", "serialize.operator_to_json"),
    "serialize.read_s": ("serialize.load_family", "serialize.records_from_json",
                         "serialize.operator_from_json"),
    "tomography.build_frame_s": ("tomography.build_frame",),
    "tomography.linear_inversion_s": ("tomography.linear_inversion",),
    "tomography.metrics_s": ("tomography.reconstruction_metrics",),
    "tomography.estimate_functional_s": ("tomography.estimate_functional",),
}

# Per-layer counts: metric name -> the count key its spans carry.
COUNT_METRICS = {
    "process_sim.born_evals": "born_evals",
    "probe_factory.elements": "elements",
    "probe_factory.choi_side": "choi_side",
    "probe_factory.dense_mb": "dense_mb",
    "tomography.frame_dim": "frame_dim",
    "tomography.frame_rank": "frame_rank",
    "tomography.condition_number": "condition_number",
    "tomography.frame_flops": "frame_flops",
    "tomography.rss_mb": "rss_mb",
}


class Tracer:
    """Keeps spans in memory; `write` puts them in a JSON-lines file."""

    def __init__(self, package):
        self.package = package
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._unit = None

    def _wrap(self, name, fn, counter):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A call from a layer into itself is not a layer boundary.
            if self._stack and self.spans[self._stack[-1]]["layer"] == layer:
                return fn(*args, **kwargs)
            span = {"layer": layer, "name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "op": self._unit}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(result, args, kwargs))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, unit):
        """Trace every call into TARGETS made inside the block as part of `unit`."""
        saved = []
        self._unit = unit
        try:
            for mod_name, fn_name, counter in TARGETS:
                mod = getattr(self.package, mod_name)
                fn = getattr(mod, fn_name)
                saved.append((mod, fn_name, fn))
                setattr(mod, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn, counter))
            yield
        finally:
            for mod, fn_name, fn in reversed(saved):
                setattr(mod, fn_name, fn)
            self._unit = None

    def figures_by_unit(self) -> dict:
        """Per-layer times and counts of each unit, plus the summed duration
        of its top-level spans (`top_s`)."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        units: dict = {}
        for i, s in enumerate(self.spans):
            out = units.setdefault(s["op"], {})
            dur = s["end"] - s["start"]
            if s["name"] == "cli.main":
                out["cli.self_s"] = out.get("cli.self_s", 0.0) + dur - child_s[i]
            for metric, names in TIME_METRICS.items():
                if s["name"] in names:
                    out[metric] = out.get(metric, 0.0) + dur
            for metric, key in COUNT_METRICS.items():
                if key in s:
                    out[metric] = s[key]
            if s["parent"] is None:
                out["top_s"] = out.get("top_s", 0.0) + dur
        return units

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
