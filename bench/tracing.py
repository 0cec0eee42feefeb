"""Span tracing for the benchmark's traced run.

Spans come from the benchmark's own files only: `install` replaces each
layer's public function in the namespace of the module that calls it with
a transparent wrapper that opens a span around the call. Nothing is
installed in an untraced run, so its timings carry no tracing cost.

Jobs run serially (DETANGLE_THREADS stays unset), so one stack of open
spans gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from contextlib import contextmanager

from detangle import TrainConfig

ROOT_SPAN = "cli.job"


def _probe_steps(fn):
    """Span attributes for train_probe: optimizer steps its arguments imply."""
    signature = inspect.signature(fn)

    def attrs(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        config = bound.arguments["config"] or TrainConfig()
        n = len(bound.arguments["features"])
        batch = min(config.batch_size, n)
        return {"steps": config.epochs * math.ceil(n / batch)}

    return attrs


# (module or class path, attribute, span name, attribute factory or None).
# Each entry is a place where one module calls into another layer.
BOUNDARIES = (
    ("detangle.cli", "load_representation_set", "dataset.load", None),
    ("detangle.infotheory", "discretize_neuron", "dataset.discretize", None),
    ("detangle.metrics", "discretize_neuron", "dataset.discretize", None),
    ("detangle.cli", "importance_matrix", "infotheory.importance", None),
    ("detangle.metrics", "importance_matrix", "infotheory.importance", None),
    ("detangle.infotheory", "mutual_information", "infotheory.mi", None),
    ("detangle.cli", "injective_alignment", "align.injective", None),
    ("detangle.metrics", "injective_alignment", "align.injective", None),
    ("detangle.align", "max_weight_assignment", "align.max_weight", None),
    ("detangle.metrics", "max_weight_assignment", "align.max_weight", None),
    ("detangle.cli", "hinton_text", "align.hinton", None),
    ("detangle.align", "hinton_text", "align.hinton", None),
    ("detangle.align", "hinton_svg", "align.hinton", None),
    ("detangle.metrics", "compute_metric_report", "metrics.report", None),
    ("detangle.metrics", "snc", "metrics.snc", None),
    ("detangle.metrics", "nk", "metrics.nk", None),
    ("detangle.metrics", "sap", "metrics.sap", None),
    ("detangle.metrics", "mig", "metrics.mig", None),
    ("detangle.metrics", "dci", "metrics.dci", None),
    ("detangle.metrics", "train_probe", "classify.train_probe", _probe_steps),
    ("detangle.cgtask", "train_probe", "classify.train_probe", _probe_steps),
    ("detangle.metrics", "accuracy", "classify.predict", None),
    ("detangle.classify.ProbeModel", "predict", "classify.predict", None),
    ("detangle.cgtask", "run_cg", "cgtask.run_cg", None),
    ("detangle.cgtask", "measure_probes", "cgtask.measure_probes", None),
    ("detangle.cli", "atomic_write_json", "util.json_write", None),
)


class Tracer:
    """In-memory span recorder: id, job, name, parent, start, end (+ attrs)."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "job": self.job,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, attr_factory=None):
        attrs = attr_factory(fn) if attr_factory else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)

        return traced


def _resolve(path: str):
    """Import 'pkg.mod' or 'pkg.mod.Class' and return the object."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def install(tracer: Tracer):
    """Wrap every boundary; returns a function that restores the originals."""
    originals = []
    for path, attr, name, attr_factory in BOUNDARIES:
        owner = _resolve(path)
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(fn, name, attr_factory))

    def restore():
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics from one job's spans
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced job (see bench/README.md)."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def duration(s):
        return s["end"] - s["start"]

    def self_time(s):
        return duration(s) - _covered([(c["start"], c["end"]) for c in children[s["id"]]])

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def inclusive(*names):
        """Time inside any of the named spans, nested ones counted once."""
        total = 0.0
        for s in named(*names):
            parent = s["parent"]
            while parent is not None and by_id[parent]["name"] not in names:
                parent = by_id[parent]["parent"]
            if parent is None:
                total += duration(s)
        return total

    def self_sum(*names):
        return sum(self_time(s) for s in named(*names))

    train_s = inclusive("classify.train_probe")
    steps = sum(s["steps"] for s in named("classify.train_probe"))
    measure_s = inclusive("cgtask.measure_probes")
    # run_cg probes the exclusion split first; later calls are its control.
    control_s = sum(
        duration(c)
        for run in named("cgtask.run_cg")
        for c in [c for c in children[run["id"]] if c["name"] == "cgtask.measure_probes"][1:]
    )
    return {
        "dataset.load_s": inclusive("dataset.load"),
        "dataset.discretize_s": inclusive("dataset.discretize"),
        "dataset.discretize_calls": len(named("dataset.discretize")),
        "infotheory.importance_s": self_sum("infotheory.importance", "infotheory.mi"),
        "infotheory.mi_calls": len(named("infotheory.mi")),
        "align.injective_s": inclusive("align.injective"),
        "align.max_weight_calls": len(named("align.max_weight")),
        "align.hinton_s": inclusive("align.hinton"),
        "metrics.snc_s": inclusive("metrics.snc"),
        "metrics.sap_s": inclusive("metrics.sap"),
        "metrics.nk_s": inclusive("metrics.nk"),
        "metrics.report_self_s": self_sum("metrics.report"),
        "classify.train_probe_s": train_s,
        "classify.train_probe_calls": len(named("classify.train_probe")),
        "classify.steps": steps,
        "classify.step_us": 1e6 * train_s / steps if steps else 0.0,
        "classify.predict_s": inclusive("classify.predict"),
        "cgtask.measure_probes_s": measure_s,
        "cgtask.control_share": control_s / measure_s if measure_s else 0.0,
        "cli.self_s": self_sum(ROOT_SPAN),
        "util.json_write_s": inclusive("util.json_write"),
    }
