"""Spans around fusionkit's public functions, for the benchmark's traced run.

``Tracer.install`` wraps every public function defined in a fusionkit
module, in every fusionkit module that binds it (``cli`` binds
``search_invariants``, ``invariants`` binds ``commutant_basis``, ...), so
calls between layers pass through a wrapper.  Each call records a span:
name (``<module>.<function>``), start, end, parent span and job id, plus the
exception type if it raised.  The marked spans (see ``MEMORY``) also record
their ``tracemalloc`` peak; tracing memory only inside them keeps the
interpreter-heavy layers at their normal speed.  The scalar helpers in
``numerics`` sit below the layer boundaries and are called once per fusion
triple (over 10^5 calls per pass), so they are left unwrapped.
``layer_metrics`` folds the spans of one pass into the per-layer metrics.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field

MIB = float(1 << 20)
PACKAGE = "fusionkit"
UNWRAPPED_MODULES = frozenset({"numerics"})

# spans whose tracemalloc peak is recorded
MEMORY = frozenset({"invariants.commutant_basis", "invariants.search_invariants",
                    "algebras.decompose_semisimple"})

# time of the outermost span of any of these names, summed over the pass
INCLUSIVE = {
    "serialize.parse_s": {"serialize.parse_ring", "serialize.load_json",
                          "serialize.ring_from_dict", "serialize.algebra_from_dict",
                          "serialize.certificate_from_dict", "serialize.z_matrix_from_dict"},
    "serialize.emit_s": {"serialize.invariant_to_dict", "serialize.profile_to_dict",
                         "serialize.z_matrix_to_csv", "serialize.dumps"},
    "rings.validate_s": {"rings.validate_fusion_ring"},
    "rings.qdim_s": {"rings.quantum_dimensions"},
    "modular.matrices_s": {"modular.modular_matrices"},
    "modular.nondeg_s": {"modular.is_nondegenerate"},
    "modular.relations_s": {"modular.check_partial_verlinde", "modular.sl2z_relations"},
    "invariants.commutant_s": {"invariants.commutant_basis"},
    "invariants.classify_s": {"invariants.classify_invariant"},
    "algebras.validate_s": {"algebras.validate_based_algebra"},
    "algebras.decompose_s": {"algebras.decompose_semisimple"},
}
# span duration minus the time its child spans cover
SELF = {
    "cli.self_s": "cli.main",
    "invariants.enumerate_s": "invariants.search_invariants",
    "induction.report_self_s": "induction.full_report",
}
CALLS = {
    "rings.qdim_calls": "rings.quantum_dimensions",
    "modular.matrices_calls": "modular.modular_matrices",
}
RAISED = {"invariants.classify_failed": "invariants.classify_invariant"}
# largest peak over the pass; search_invariants counts only its own stretches
PEAKS = {
    "invariants.commutant_peak_mb": ("invariants.commutant_basis", "peak"),
    "invariants.enumerate_peak_mb": ("invariants.search_invariants", "self_peak"),
    "algebras.decompose_peak_mb": ("algebras.decompose_semisimple", "peak"),
}
# counts read from public results: problem sizes of the invariant pipeline
RESULT_COUNTS = ("invariants.labels", "invariants.mask_cells",
                 "invariants.commutant_dim", "invariants.found")


def _count_commutant(counts: Counter, bound: inspect.BoundArguments, result) -> None:
    counts["invariants.labels"] += int(bound.arguments["S"].shape[0])
    counts["invariants.mask_cells"] += int(bound.arguments["mask"].sum())
    counts["invariants.commutant_dim"] += int(result.shape[0])


def _count_search(counts: Counter, bound: inspect.BoundArguments, result) -> None:
    counts["invariants.found"] += len(result)


OBSERVERS = {"invariants.commutant_basis": _count_commutant,
             "invariants.search_invariants": _count_search}


@dataclass
class Span:
    id: int
    name: str
    job: str | None
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    # marked spans only, in bytes above the traced memory at entry
    base: int = 0
    peak: int = 0
    self_peak: int = 0

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "job": self.job, "parent": self.parent,
                "start": self.start, "end": self.end, "error": self.error,
                "peak_bytes": self.peak if self.name in MEMORY else None}


@dataclass
class Tracer:
    job: str | None = None
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _open: list[Span] = field(default_factory=list)
    _open_marked: list[Span] = field(default_factory=list)
    _patches: list[tuple] = field(default_factory=list)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__.split(".")[0] == PACKAGE
                        and obj not in wrappers):
                    short = obj.__module__.rsplit(".", 1)[-1]
                    if short in UNWRAPPED_MODULES:
                        continue
                    wrappers[obj] = self._wrap(obj, f"{short}.{obj.__name__}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._exit(span)
            if observe:
                observe(self.counts, signature.bind(*args, **kwargs), result)
            return result
        return wrapper

    def _enter(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, self.job, parent)
        self.spans.append(span)
        if name in MEMORY:
            if self._open_marked:
                outer = self._open_marked[-1]
                outer.self_peak = max(outer.self_peak,
                                      tracemalloc.get_traced_memory()[1] - outer.base)
            else:
                tracemalloc.start()
            tracemalloc.reset_peak()
            span.base = tracemalloc.get_traced_memory()[0]
            self._open_marked.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.name not in MEMORY:
            return
        self._open_marked.pop()
        span.self_peak = max(span.self_peak, tracemalloc.get_traced_memory()[1] - span.base)
        span.peak = max(span.peak, span.self_peak)
        if self._open_marked:
            outer = self._open_marked[-1]
            outer.peak = max(outer.peak, span.base + span.peak - outer.base)
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    by_id = {s.id: s for s in spans}
    child_time = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def outermost(s: Span, names: set[str]) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name in names:
                return False
            p = by_id[p].parent
        return True

    out: dict[str, tuple[float, str]] = {}
    for metric, names in INCLUSIVE.items():
        out[metric] = (sum(s.end - s.start for s in spans
                           if s.name in names and outermost(s, names)), "s")
    for metric, name in SELF.items():
        out[metric] = (sum(s.end - s.start - child_time[s.id]
                           for s in spans if s.name == name), "s")
    for metric, name in CALLS.items():
        out[metric] = (sum(1 for s in spans if s.name == name), "count")
    for metric, name in RAISED.items():
        out[metric] = (sum(1 for s in spans if s.name == name and s.error), "count")
    for metric, (name, attr) in PEAKS.items():
        out[metric] = (max((getattr(s, attr) for s in spans if s.name == name),
                           default=0) / MIB, "MiB")
    for metric in RESULT_COUNTS:
        out[metric] = (counts[metric], "count")
    out["trace.spans"] = (len(spans), "count")
    return out
