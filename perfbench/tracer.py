"""Span tracer for the per-layer split of one tandem op.

The tracer wraps the public functions of each tandem module at the place
its caller looks the name up (``from .x import f`` binds ``f`` in the
caller's module, so ``tandem.newton.stamp_system`` is wrapped, not
``tandem.stamping.stamp_system``).  Every call records a span: name, call
site, start, end, the span that caused it, the op it belongs to and the
thread it ran on.  Spans are held in memory; ``layer_metrics`` reduces the
spans of one op to the per-layer metrics listed in ``PER_LAYER``.

A span's self time is its duration minus the part of its interval that
its child spans cover.  GSN worker threads start with an empty stack, so
their first span is parented to the span open on the thread that started
the op (``solve_gsn``); overlapping children are merged before they are
subtracted.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field

# (module, attribute path, span name): one row per name a caller looks up.
WRAPS = (
    ("tandem.cli", "main", "cli.main"),
    ("tandem.cli", "parse_transmission", "ingest.parse"),
    ("tandem.cli", "parse_coupling_map", "ingest.parse"),
    ("tandem.cli", "parse_feeder_doc", "ingest.parse"),
    ("tandem.cli", "build_combined", "ingest.combine"),
    ("tandem.cli", "validate", "netmodel.validate"),
    ("tandem.cli", "build_index_map", "netmodel.index_map"),
    ("tandem.newton", "build_index_map", "netmodel.index_map"),
    ("tandem.gsn", "build_index_map", "netmodel.index_map"),
    ("tandem.newton", "initial_state", "netmodel.initial_state"),
    ("tandem.gsn", "initial_state", "netmodel.initial_state"),
    ("tandem.netmodel", "Network.with_loading_factor", "netmodel.variant"),
    ("tandem.netmodel", "Network.with_der_scale", "netmodel.variant"),
    ("tandem.netmodel", "Network.with_source_voltages", "netmodel.variant"),
    ("tandem.netmodel", "Network.without_elements", "netmodel.variant"),
    ("tandem.netmodel", "Network.without_generators", "netmodel.variant"),
    ("tandem.newton", "stamp_system", "stamping.system"),
    ("tandem.gsn", "stamp_system", "stamping.system"),
    ("tandem.stamping", "stamp_linear", "stamping.linear"),
    ("tandem.stamping", "stamp_nonlinear", "stamping.nonlinear"),
    ("tandem.sparse", "AssemblyPlan.assemble", "sparse.assemble"),
    ("tandem.gsn", "assemble", "sparse.assemble"),
    ("tandem.newton", "factor_solve", "sparse.factor"),
    ("tandem.cli", "solve_direct", "newton.solve"),
    ("tandem.gsn", "solve_direct", "newton.solve"),
    ("tandem.cli", "solve_gsn", "gsn.solve"),
    ("tandem.gsn", "tear", "gsn.tear"),
    ("tandem.cli", "solution_dict", "results.extract"),
    ("tandem.cli", "poi_extremes", "results.extract"),
    ("tandem.cli", "poi_voltages", "results.extract"),
)

# Span names every traced op of a workload must record (the tracer self-test).
CORE_SPANS = frozenset(
    {
        "cli.main",
        "ingest.parse",
        "ingest.combine",
        "netmodel.validate",
        "netmodel.index_map",
        "netmodel.initial_state",
        "stamping.system",
        "stamping.linear",
        "stamping.nonlinear",
        "sparse.assemble",
        "sparse.factor",
        "newton.solve",
        "results.extract",
    }
)
GSN_SPANS = frozenset(
    {"gsn.solve", "gsn.tear", "netmodel.variant", "subsolve.transmission", "subsolve.feeder", "gsn.global_residual"}
)

# (metric, unit): the per-layer metrics of one traced op, in report order.
PER_LAYER = (
    ("ingest.parse_s", "s"),
    ("ingest.combine_s", "s"),
    ("netmodel.validate_s", "s"),
    ("netmodel.index_map_s", "s"),
    ("netmodel.index_map_calls", "count"),
    ("netmodel.initial_state_s", "s"),
    ("netmodel.variant_s", "s"),
    ("netmodel.variant_calls", "count"),
    ("stamping.linear_s", "s"),
    ("stamping.linear_calls", "count"),
    ("stamping.nonlinear_s", "s"),
    ("stamping.nonlinear_calls", "count"),
    ("stamping.other_s", "s"),
    ("sparse.assemble_s", "s"),
    ("sparse.assemble_calls", "count"),
    ("sparse.factor_s", "s"),
    ("sparse.factor_calls", "count"),
    ("newton.self_s", "s"),
    ("newton.solve_calls", "count"),
    ("newton.iterations", "count"),
    ("newton.attempts", "count"),
    ("newton.attempts_converged_ratio", "ratio"),
    ("newton.failed_solve_s", "s"),
    ("gsn.tear_s", "s"),
    ("gsn.subsolve_s.transmission", "s"),
    ("gsn.subsolve_s.feeder", "s"),
    ("gsn.subsolve_calls", "count"),
    ("gsn.critical_path_s", "s"),
    ("gsn.epochs", "count"),
    ("gsn.inner_iterations", "count"),
    ("gsn.exchange_s", "s"),
    ("gsn.global_residual_s", "s"),
    ("gsn.global_residual", "pu"),
    ("results.extract_s", "s"),
    ("cli.self_s", "s"),
)

# span name -> per-layer metric that receives the span's self time
_SELF_TIME = {
    "cli.main": "cli.self_s",
    "ingest.parse": "ingest.parse_s",
    "ingest.combine": "ingest.combine_s",
    "netmodel.validate": "netmodel.validate_s",
    "netmodel.index_map": "netmodel.index_map_s",
    "netmodel.initial_state": "netmodel.initial_state_s",
    "netmodel.variant": "netmodel.variant_s",
    "stamping.system": "stamping.other_s",
    "stamping.linear": "stamping.linear_s",
    "stamping.nonlinear": "stamping.nonlinear_s",
    "sparse.assemble": "sparse.assemble_s",
    "sparse.factor": "sparse.factor_s",
    "newton.solve": "newton.self_s",
    "gsn.solve": "gsn.exchange_s",
    "gsn.tear": "gsn.tear_s",
    "results.extract": "results.extract_s",
}
_CALLS = {
    "netmodel.index_map": "netmodel.index_map_calls",
    "netmodel.variant": "netmodel.variant_calls",
    "stamping.linear": "stamping.linear_calls",
    "stamping.nonlinear": "stamping.nonlinear_calls",
    "sparse.assemble": "sparse.assemble_calls",
    "sparse.factor": "sparse.factor_calls",
    "newton.solve": "newton.solve_calls",
}


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    site: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _newton_attrs(span: Span, args, kwargs, result, exc) -> None:
    report = result[1] if exc is None else getattr(exc, "report", None)
    if report is not None:
        span.attrs["iterations"] = len(report.residual_history)
        span.attrs["attempts"] = len(report.lambda_trajectory)
        span.attrs["converged_attempts"] = sum(1 for a in report.lambda_trajectory if a["converged"])
    span.attrs["failed"] = exc is not None
    if span.site == "tandem.gsn":
        # the transmission block is the only sub-solve driven by port injections
        span.attrs["kind"] = "transmission" if kwargs.get("injections") is not None else "feeder"


def _gsn_attrs(span: Span, args, kwargs, result, exc) -> None:
    if exc is None:
        report = result[1]
        span.attrs["epochs"] = report.epochs
        span.attrs["inner_iterations"] = sum(sum(e.values()) for e in report.inner_iterations)
        span.attrs["global_residual"] = report.global_residual


def _tear_attrs(span: Span, args, kwargs, result, exc) -> None:
    if exc is None:
        span.attrs["subs"] = len(result.subs)


_HOOKS = {"newton.solve": _newton_attrs, "gsn.solve": _gsn_attrs, "gsn.tear": _tear_attrs}


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the wrappers in."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in WRAPS; a missing name raises instead of tracing nothing."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, path, name in WRAPS:
            owner = importlib.import_module(module)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if not callable(fn):
                self.uninstall()
                raise AttributeError(f"traced name {module}.{path} is gone; update perfbench/tracer.py WRAPS")
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, module))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, site: str):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, site)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span)
                if hook:
                    hook(span, args, kwargs, None, exc)
                raise
            tracer._close(span)
            if hook:
                hook(span, args, kwargs, result, None)
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new op on the calling thread; later spans carry its id."""
        self.op += 1
        self._local.stack = self._root_stack = []

    def _open(self, name: str, site: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:  # a GSN worker thread: its first span's parent is the op's open span
            stack = self._local.stack = []
        owner = stack or self._root_stack
        parent = owner[-1].id if owner else None
        span = Span(next(self._ids), parent, self.op, name, site, threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)


# ----------------------------------------------------------------------
# Reduction of one op's spans to per-layer metrics
# ----------------------------------------------------------------------


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of [start, end] covered by the union of the children's intervals."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted((max(c.start, start), min(c.end, end)) for c in children):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _in_global_residual(s: Span) -> bool:
    """solve_gsn stamps and assembles the combined system itself only for its global residual."""
    return s.site == "tandem.gsn" and s.name in ("stamping.system", "sparse.assemble")


def span_names(spans: list[Span]) -> set[str]:
    """Span names plus the derived GSN names the self-test looks for."""
    names = {s.name for s in spans}
    for s in spans:
        if s.name == "newton.solve" and "kind" in s.attrs:
            names.add(f"subsolve.{s.attrs['kind']}")
        if _in_global_residual(s):
            names.add("gsn.global_residual")
    return names


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one op (all PER_LAYER names; absent layers read 0)."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    attempts = converged = 0
    n_subs = 0
    subsolves: list[Span] = []
    for s in spans:
        dur = s.end - s.start
        out[_SELF_TIME[s.name]] += dur - _covered(s.start, s.end, children.get(s.id, []))
        if s.name in _CALLS:
            out[_CALLS[s.name]] += 1
        if s.name == "newton.solve":
            out["newton.iterations"] += s.attrs.get("iterations", 0)
            attempts += s.attrs.get("attempts", 0)
            converged += s.attrs.get("converged_attempts", 0)
            if s.attrs["failed"]:
                out["newton.failed_solve_s"] += dur
            if "kind" in s.attrs:
                out[f"gsn.subsolve_s.{s.attrs['kind']}"] += dur
                subsolves.append(s)
        elif s.name == "gsn.solve":
            out["gsn.epochs"] += s.attrs.get("epochs", 0)
            out["gsn.inner_iterations"] += s.attrs.get("inner_iterations", 0)
            out["gsn.global_residual"] = s.attrs.get("global_residual", 0.0)
        elif s.name == "gsn.tear":
            n_subs = s.attrs.get("subs", 0)
        if _in_global_residual(s):
            out["gsn.global_residual_s"] += dur

    out["newton.attempts"] = attempts
    out["newton.attempts_converged_ratio"] = converged / attempts if attempts else 0.0
    out["gsn.subsolve_calls"] = len(subsolves)
    # every epoch solves each subcircuit once, so start order chunks by epoch
    if n_subs:
        subsolves.sort(key=lambda s: s.start)
        for i in range(0, len(subsolves), n_subs):
            out["gsn.critical_path_s"] += max(s.end - s.start for s in subsolves[i : i + n_subs])
    return out
