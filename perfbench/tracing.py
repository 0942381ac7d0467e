"""Layer spans recorded from outside hoif, by wrapping its public functions.

Each instrumented function is replaced, at the module attribute where its
callers look it up, by a wrapper that records a span: name, start, end,
parent span, operation id, thread and a few attributes read from the
arguments or the result.  Spans stay in memory until the benchmark writes
them out.  Parents are tracked per thread; a span opened on a worker thread
with no open span of its own (the ``simulate`` thread pool) takes as parent
the innermost open span of the thread that started the operation.

``rollup`` and ``layer_metrics`` turn the spans of one operation into
per-layer and per-stage numbers.  A span's self time is its duration minus
the part of its interval covered by its children; children running
concurrently on several threads are counted once, as the union of their
intervals.  Layers are hoif's modules.  Stages are the pipeline steps
(ingest, split, nuisance fit, Gram build, inversion, IF22, IFjj, study
runner); basis construction and evaluation count toward the stage that
asked for them, so a nuisance fit includes the evaluation of its design
matrices and a quadrature Gram the evaluation of its grid.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

# (module path, attribute, span name).  A span's layer is the part of its
# name before the first dot; the module path is kept as the span's site.
POINTS = (
    ("hoif.cli", "main", "cli.main"),
    ("hoif.cli", "dataset_from_csv", "data.dataset_from_csv"),
    ("hoif.cli", "estimate", "estimator.estimate"),
    ("hoif.cli", "cross_fit", "estimator.cross_fit"),
    ("hoif.cli", "run_study", "sim.run_study"),
    ("hoif.estimator", "estimate", "estimator.estimate"),
    ("hoif.estimator", "split_sample", "estimator.split_sample"),
    ("hoif.estimator", "build_basis", "basis.build_basis"),
    ("hoif.nuisance", "build_basis", "basis.build_basis"),
    ("hoif.basis", "build_basis", "basis.build_basis"),
    ("hoif.basis.Basis", "evaluate_many", "basis.evaluate_many"),
    ("hoif.estimator", "fit_nuisances", "nuisance.fit_nuisances"),
    ("hoif.estimator", "density_series", "nuisance.density_series"),
    ("hoif.nuisance", "density_series", "nuisance.density_series"),
    ("hoif.estimator", "empirical_gram", "gram.empirical_gram"),
    ("hoif.estimator", "quadrature_gram", "gram.quadrature_gram"),
    ("hoif.sim", "quadrature_gram", "gram.quadrature_gram"),
    ("hoif.estimator", "invert_checked", "gram.invert_checked"),
    ("hoif.estimator", "op_norm_distance", "gram.op_norm_distance"),
    ("hoif.estimator", "if22", "ustat.if22"),
    ("hoif.estimator", "ifjj", "ustat.ifjj"),
    ("hoif.sim", "generate", "sim.generate"),
    ("hoif.sim", "true_psi", "sim.true_psi"),
    ("hoif.sim", "efficiency_bound", "sim.efficiency_bound"),
    ("hoif.sim", "estimate", "estimator.estimate"),
    ("hoif.sim", "cross_fit", "estimator.cross_fit"),
)

LAYERS = ("cli", "data", "estimator", "basis", "nuisance", "gram", "ustat", "sim")


def _owner(path: str):
    """Module object, or the class when the path ends in a class name."""
    head, _, tail = path.rpartition(".")
    try:
        if tail[:1].isupper():
            return getattr(importlib.import_module(head), tail)
        return importlib.import_module(path)
    except (ImportError, AttributeError):
        return None


def current(path: str, attr: str):
    """What callers find at ``path.attr`` now, or None if hoif has no such name.

    A class attribute is read from the class itself, not bound.
    """
    owner = _owner(path)
    if isinstance(owner, type):
        return vars(owner).get(attr)
    return getattr(owner, attr, None)


def _attrs(name: str, args, result) -> dict:
    """Counts read at the boundary: rows, chain order, Gram verdicts."""
    if name == "basis.evaluate_many":
        return {"rows": int(len(args[1]))}
    if name == "data.dataset_from_csv":
        return {"rows": int(result.n)}
    if name == "ustat.ifjj":
        return {"j": int(args[0])}
    if name == "gram.invert_checked":
        return {"invertible": bool(result.invertible),
                "condition_number": float(result.condition_number)}
    if name == "sim.run_study":
        return {"rows_failed": sum(1 for r in result.rows if r["error"]),
                "zero_convention": sum(1 for r in result.rows
                                       if r.get("zero_convention") == 1)}
    return {}


@dataclass
class Span:
    id: int
    name: str
    site: str
    start: float
    parent: int | None
    op: int | None
    thread: int
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with install/remove of the wrappers."""

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op: int | None = None
        self._op_stack: list[int] | None = None
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # instrumented names hoif no longer has
        self._mem_lock = threading.Lock()
        self._mem_users = 0

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, site: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and self._op_stack is not None and self._op_stack is not stack:
            try:
                parent = self._op_stack[-1]
            except IndexError:
                parent = None
        span = Span(next(self._ids), name, site, 0.0, parent, self._op,
                    threading.get_ident())
        stack.append(span.id)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Tag the spans opened while the block runs with ``op_id``."""
        self._op, self._op_stack = op_id, self._stack()
        try:
            yield
        finally:
            self._op, self._op_stack = None, None

    # -- allocation peak inside ifjj -----------------------------------------
    # tracemalloc is process-wide: it runs while any ifjj span is open, so
    # spans that overlap on several threads share one peak.
    def _mem_enter(self) -> int:
        with self._mem_lock:
            if self._mem_users == 0:
                tracemalloc.start()
            self._mem_users += 1
            return tracemalloc.get_traced_memory()[0]

    def _mem_exit(self, base: int) -> int:
        with self._mem_lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._mem_users -= 1
            if self._mem_users == 0:
                tracemalloc.stop()
            return peak - base

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, fn, name: str, site: str):
        tracer = self
        track_memory = self.track_memory and name == "ustat.ifjj"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, site)
            base = tracer._mem_enter() if track_memory else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                if track_memory:
                    span.attrs["peak_alloc_bytes"] = tracer._mem_exit(base)
                tracer._close(span)
            try:
                span.attrs.update(_attrs(name, args, result))
            except (AttributeError, LookupError, TypeError):
                span.attrs["unreadable"] = True  # hoif changed the value's shape
            return result

        return wrapper

    def install(self):
        if self._originals:
            raise RuntimeError("wrappers already installed")
        self.missing = []
        for path, attr, name in POINTS:
            original = current(path, attr)
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            owner = _owner(path)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, path))

    def remove(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "site": s.site, "op": s.op,
                    "parent": s.parent, "thread": s.thread,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


def wrappers_removed() -> list[str]:
    """Names of instrumented attributes that are still wrapped."""
    return [f"{path}.{attr}" for path, attr, _ in POINTS
            if hasattr(current(path, attr), "__wrapped__")]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span], fold: tuple[str, ...] = ()) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Spans of a layer in ``fold`` that have a parent count as part of that
    parent: they are not subtracted from it and get no entry of their own.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None and s.layer not in fold:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end)
            for s in spans if s.parent is None or s.layer not in fold}


def rollup(spans: list[Span]) -> dict:
    """Self time per layer and per stage (span name) of the given spans."""
    by_id = {s.id: s for s in spans}
    layers = dict.fromkeys(LAYERS, 0.0)
    for sid, t in self_times(spans).items():
        layers[by_id[sid].layer] += t
    stages: dict[str, float] = {}
    for sid, t in self_times(spans, fold=("basis",)).items():
        name = by_id[sid].name
        stages[name] = stages.get(name, 0.0) + t
    return {"stage_s": stages, "layer_self_s": layers,
            "slowest_layer": max(layers, key=layers.get),
            "slowest_stage": max(stages, key=stages.get) if stages else None}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced operation.

    ``<stage>.s`` is the summed duration of that stage's spans, children
    included; ``<layer>.self_s`` is the layer's summed self time.
    """
    def pick(name, site=None):
        return [s for s in spans if s.name == name and (site is None or s.site == site)]

    def total(name, site=None):
        return sum(s.duration for s in pick(name, site))

    m = {f"{layer}.self_s": v for layer, v in rollup(spans)["layer_self_s"].items()}
    csv_s = total("data.dataset_from_csv")
    csv_rows = sum(s.attrs.get("rows", 0) for s in pick("data.dataset_from_csv"))
    m["data.dataset_from_csv.s"] = csv_s
    m["data.records_per_s"] = csv_rows / csv_s if csv_s > 0 else 0.0
    m["estimator.split_sample.s"] = total("estimator.split_sample")
    m["estimator.estimate.calls"] = len(pick("estimator.estimate"))
    evals = pick("basis.evaluate_many")
    m["basis.evaluate_many.calls"] = len(evals)
    m["basis.evaluate_many.rows"] = sum(s.attrs.get("rows", 0) for s in evals)
    m["basis.evaluate_many.s"] = total("basis.evaluate_many")
    m["basis.build_basis.calls"] = len(pick("basis.build_basis"))
    m["basis.build_basis.s"] = total("basis.build_basis")
    m["nuisance.fit_nuisances.calls"] = len(pick("nuisance.fit_nuisances"))
    m["nuisance.fit_nuisances.s"] = total("nuisance.fit_nuisances")
    m["nuisance.density_series.s"] = total("nuisance.density_series")
    m["gram.empirical_gram.s"] = total("gram.empirical_gram")
    m["gram.quadrature_gram.calls"] = len(pick("gram.quadrature_gram"))
    m["gram.quadrature_gram.s"] = total("gram.quadrature_gram")
    inverts = pick("gram.invert_checked")
    m["gram.invert_checked.s"] = total("gram.invert_checked")
    m["gram.op_norm_distance.s"] = total("gram.op_norm_distance")
    m["gram.zero_convention"] = sum(1 for s in inverts if not s.attrs.get("invertible", True))
    conds = [s.attrs["condition_number"] for s in inverts
             if math.isfinite(s.attrs.get("condition_number", math.inf))]
    m["gram.condition_number_max"] = max(conds, default=0.0)
    m["ustat.if22.s"] = total("ustat.if22")
    chains = pick("ustat.ifjj")
    for j in (3, 4):
        m[f"ustat.ifjj.j{j}.s"] = sum(s.duration for s in chains if s.attrs.get("j") == j)
    m["ustat.ifjj.peak_alloc_mb"] = max(
        (s.attrs.get("peak_alloc_bytes", 0) for s in chains), default=0) / 2**20
    m["sim.generate.s"] = total("sim.generate")
    m["sim.true_psi.s"] = total("sim.true_psi")
    m["sim.efficiency_bound.s"] = total("sim.efficiency_bound")
    m["sim.reference_gram.s"] = total("gram.quadrature_gram", site="hoif.sim")
    busy = total("estimator.estimate", "hoif.sim") + total("estimator.cross_fit", "hoif.sim")
    study = total("sim.run_study")
    m["sim.estimate.busy_s"] = busy
    m["sim.concurrency"] = busy / study if study > 0 else 0.0
    studies = pick("sim.run_study")
    m["sim.rows_failed"] = sum(s.attrs.get("rows_failed", 0) for s in studies)
    m["sim.zero_convention_count"] = sum(s.attrs.get("zero_convention", 0) for s in studies)
    return m
