"""Span and count wrappers installed around the library's public functions.

A :class:`Tracer` keeps spans in memory as ``[name, start, end, parent,
run_id]`` rows (``parent`` is the index of the enclosing span, -1 at the
top) plus plain counters, and :func:`per_layer_metrics` derives the layer
metrics and self times from them after the run.

Names are wrapped wherever the library looks them up: a function imported
with ``from .x import f`` is a separate binding in every importing module
(``policy_iteration`` binds ``evaluate_policy`` and ``refined_workspace``,
``evaluation`` binds ``refined_workspace``), so every module attribute that
is the original function is replaced by the same wrapper.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import time
from collections import Counter

import numpy as np

# (module, attribute, span name): functions of the public surface
FUNCTIONS = (
    ("model", "load_model", "model.load"),
    ("model", "validate_model", "model.validate"),
    ("model", "audit_assumptions", "model.audit"),
    ("operators", "refined_workspace", "operators.refine"),
    ("evaluation", "evaluate_policy", "evaluation.evaluate"),
    ("evaluation", "invariant_measure", "evaluation.invariant_measure"),
    ("policy_iteration", "run_pia", "policy_iteration.run_pia"),
    ("simulation", "prepare_simulation", "simulation.prepare"),
    ("simulation", "simulate", "simulation.simulate"),
    ("simulation", "mc_validate", "simulation.mc_validate"),
)
# OperatorWorkspace methods
METHODS = (
    ("__init__", "operators.workspace_build"),
    ("assemble", "operators.assemble"),
    ("improve", "operators.improve"),
    ("optimality_residual", "operators.optimality_residual"),
)
MODULES = ("model", "operators", "evaluation", "policy_iteration", "simulation")

# per-layer metric -> (unit, better)
PER_LAYER = {
    "model.load_s": ("s", "lower"),
    "model.validate_s": ("s", "lower"),
    "model.audit_s": ("s", "lower"),
    "model.feasible_mask_calls": ("count", "lower"),
    "operators.refine_s": ("s", "lower"),
    "operators.workspace_builds": ("count", "lower"),
    "operators.workspace_build_s": ("s", "lower"),
    "operators.refine_fill": ("count", "lower"),
    "operators.mesh_nodes": ("count", "lower"),
    "operators.mesh_bytes": ("bytes", "lower"),
    "operators.assemble_s": ("s", "lower"),
    "operators.assemble_calls": ("count", "lower"),
    "operators.assemble_cache_hit_ratio": ("ratio", "higher"),
    "operators.improve_s": ("s", "lower"),
    "operators.improve_calls": ("count", "lower"),
    "operators.optimality_residual_s": ("s", "lower"),
    "evaluation.evaluate_self_s": ("s", "lower"),
    "evaluation.evaluate_calls": ("count", "lower"),
    "evaluation.invariant_measure_s": ("s", "lower"),
    "policy_iteration.run_pia_self_s": ("s", "lower"),
    "policy_iteration.iterations": ("count", "lower"),
    "simulation.prepare_s": ("s", "lower"),
    "simulation.replication_s_p50": ("s", "lower"),
    "simulation.replication_s_p90": ("s", "lower"),
    "simulation.us_per_jump": ("us", "lower"),
    # fixed by the model and seed; fewer means simulated work went missing
    "simulation.jumps": ("count", "higher"),
    "simulation.boundary_hits": ("count", "higher"),
    # traced total_s minus untraced total_s, measured by run.py
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """In-memory spans and counters of one benchmark process."""

    def __init__(self, spans: bool = True):
        self.record_spans = spans
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self.refine_fill = 0

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, result)`` sees each result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id])
            self._stack.append(idx)
            self.spans[idx][1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def tally(self, fn, after):
        """``fn`` with only ``after(args, result)`` run on each result, no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(args, out)
            return out

        return counted

    # -- per-result hooks -----------------------------------------------------

    def _after_simulate(self, args, out):
        _, summary = out
        self.counts["simulation.jumps"] += int(summary.jumps)
        self.counts["simulation.boundary_hits"] += int(summary.boundary_hits)

    def _after_run_pia(self, args, out):
        self.counts["policy_iteration.iterations"] += len(out[2].records)

    def _after_refine(self, args, ws):
        self.refine_fill = max(self.refine_fill, int(getattr(ws, "fill", 0)))
        for geom in getattr(ws, "geometry", ()):
            arrays = [getattr(geom, f.name) for f in dataclasses.fields(geom)]
            self.counts["operators.mesh_nodes"] += int(geom.times.size)
            self.counts["operators.mesh_bytes"] += sum(
                a.nbytes for a in arrays if isinstance(a, np.ndarray))

    # -- installation ---------------------------------------------------------

    def install(self, pa) -> None:
        """Wrap the package ``pa`` in place (once per process).

        With spans off only the simulated-jump tally is installed, which the
        untraced run needs for its jumps/s figure.  A name the library no
        longer has is skipped, so its metrics read 0 rather than the run
        failing: the changes this benchmark measures (a cached feasible
        mask, a segment-based mesh) may not edit it.
        """
        modules = [pa] + [getattr(pa, m) for m in MODULES]
        targets = FUNCTIONS if self.record_spans else (
            ("simulation", "simulate", "simulation.simulate"),)
        hooks = {"simulation.simulate": self._after_simulate,
                 "policy_iteration.run_pia": self._after_run_pia,
                 "operators.refine": self._after_refine}
        for mod_name, attr, span in targets:
            original = getattr(getattr(pa, mod_name), attr, None)
            if original is None:
                continue
            after = hooks.get(span)
            wrapper = (self.wrap(span, original, after) if self.record_spans
                       else self.tally(original, after))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        if not self.record_spans:
            return

        ws_cls = pa.operators.OperatorWorkspace
        for attr, span in METHODS:
            if hasattr(ws_cls, attr):
                setattr(ws_cls, attr, self.wrap(span, getattr(ws_cls, attr)))
        assemble = getattr(ws_cls, "assemble", None)

        def assemble_counted(ws, policy, alpha=0.0):
            # a hit is a call whose (policy, alpha) the workspace already holds
            if (policy.key(), float(alpha)) in getattr(ws, "_assembled", {}):
                self.counts["operators.assemble_cache_hits"] += 1
            return assemble(ws, policy, alpha)

        if assemble is not None:
            ws_cls.assemble = assemble_counted

        model_cls = pa.model.PdmpModel
        mask = inspect.getattr_static(model_cls, "feasible_mask", None)
        if hasattr(mask, "__get__"):
            setattr(model_cls, "feasible_mask", _CountedReads(mask, self.counts, "model.feasible_mask_calls"))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


class _CountedReads:
    """Counts the reads a class attribute's descriptor serves.

    Only a non-data descriptor: a value cached on the instance (as
    ``functools.cached_property`` stores it) is read without being counted,
    so the count is that of evaluations.
    """

    def __init__(self, inner, counts: Counter, key: str):
        self.inner, self.counts, self.key = inner, counts, key

    def __get__(self, obj, objtype=None):
        if obj is not None:
            self.counts[self.key] += 1
        return self.inner.__get__(obj, objtype)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append(max((end - start) - covered, 0.0))  # clamp subtraction rounding
    return out


def per_layer_metrics(tracer: Tracer, seconds=lambda t0, t1: t1 - t0) -> dict[str, float]:
    """Layer metrics of one traced workload run (without ``trace.overhead_s``).

    ``seconds(t0, t1)`` converts a span's wall interval into the reported
    seconds (``SpeedProbe.seconds``: reference seconds); a self time is
    scaled by the same factor as its span.
    """
    spans = tracer.spans
    own = self_times(spans)
    total: Counter = Counter()
    self_total: Counter = Counter()
    calls: Counter = Counter()
    durations: dict[str, list[float]] = {}
    for (name, start, end, _, _), s in zip(spans, own):
        ref = seconds(start, end)
        total[name] += ref
        self_total[name] += s * ref / (end - start) if end > start else 0.0
        calls[name] += 1
        durations.setdefault(name, []).append(ref)
    c = tracer.counts
    reps = np.array(durations.get("simulation.simulate", [0.0]))
    jumps = c["simulation.jumps"]
    return {
        "model.load_s": total["model.load"],
        "model.validate_s": total["model.validate"],
        "model.audit_s": total["model.audit"],
        "model.feasible_mask_calls": c["model.feasible_mask_calls"],
        "operators.refine_s": total["operators.refine"],
        "operators.workspace_builds": calls["operators.workspace_build"],
        "operators.workspace_build_s": total["operators.workspace_build"],
        "operators.refine_fill": tracer.refine_fill,
        "operators.mesh_nodes": c["operators.mesh_nodes"],
        "operators.mesh_bytes": c["operators.mesh_bytes"],
        "operators.assemble_s": total["operators.assemble"],
        "operators.assemble_calls": calls["operators.assemble"],
        "operators.assemble_cache_hit_ratio":
            c["operators.assemble_cache_hits"] / max(calls["operators.assemble"], 1),
        "operators.improve_s": total["operators.improve"],
        "operators.improve_calls": calls["operators.improve"],
        "operators.optimality_residual_s": total["operators.optimality_residual"],
        "evaluation.evaluate_self_s": self_total["evaluation.evaluate"],
        "evaluation.evaluate_calls": calls["evaluation.evaluate"],
        "evaluation.invariant_measure_s": total["evaluation.invariant_measure"],
        "policy_iteration.run_pia_self_s": self_total["policy_iteration.run_pia"],
        "policy_iteration.iterations": c["policy_iteration.iterations"],
        "simulation.prepare_s": total["simulation.prepare"],
        "simulation.replication_s_p50": float(np.percentile(reps, 50)),
        "simulation.replication_s_p90": float(np.percentile(reps, 90)),
        "simulation.us_per_jump": 1e6 * total["simulation.simulate"] / max(jumps, 1),
        "simulation.jumps": jumps,
        "simulation.boundary_hits": c["simulation.boundary_hits"],
    }
