"""Per-layer spans recorded from outside the program.

A traced round replaces selected heavykin functions at the module attribute
where their caller looks them up: ``run_kinetic_det`` reads
``transport_apply`` from ``heavykin.kinetic_fv``'s globals, ``run_sweep``
reads ``corrector_term_qplus`` from ``heavykin.harness``'s globals, and so
on.  The program itself runs unmodified.  Each call becomes a span with its
name, start, end, thread and parent span; spans stay in memory and are
written out once the round ends.  Layers are heavykin's module names.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _chi_points(bound) -> dict:
    # (x, v, node) triples one chi call evaluates: the broadcast (x, v) shape
    # times the Gauss-Laguerre node count
    xv = np.broadcast(np.asarray(bound["x"]), np.asarray(bound["v"])).size
    return {"points": int(xv * bound["nodes"])}


def _cells(bound) -> dict:
    return {"cells": int(bound["fld"].values.size)}


def _collisions(result) -> dict:
    # mc_cross_check advances a fresh ensemble once, so its running count is
    # the number of collisions of this call
    return {"collisions": int(result.collision_count)}


# (module, attribute, what to record from the bound arguments, and from the
# result).  The attribute is the one the caller reads; the span is named
# after the module that defines the function.
TRACE_POINTS = [
    ("heavykin.harness", "run_sweep", None, None),
    ("heavykin.harness", "_kinetic_row", None, None),
    ("heavykin.harness", "run_kinetic_det", None, None),
    ("heavykin.kinetic_fv", "run_kinetic_det", None, None),
    ("heavykin.kinetic_fv", "transport_apply", None, None),
    ("heavykin.kinetic_fv", "collision_apply", _cells, None),
    ("heavykin.harness", "corrector_term_qplus", None, None),
    ("heavykin.harness", "corrector_term_drift_g", None, None),
    ("heavykin.harness", "corrector_term_drift_rho", None, None),
    ("heavykin.corrector", "chi_eval", _chi_points, None),
    ("heavykin.corrector", "chi_dx", _chi_points, None),
    ("heavykin.harness", "check_correctors", None, None),
    ("heavykin.harness", "check_coercivity", None, None),
    ("heavykin.harness", "assemble", None, None),
    ("heavykin.harness", "solve_macro", None, None),
    ("heavykin.harness", "mc_cross_check", None, None),
    ("heavykin.harness", "init_ensemble", None, None),
    ("heavykin.harness", "advance", None, _collisions),
    ("heavykin.outputs", "write_outputs", None, None),
]


class Tracer:
    """Wraps module attributes in place and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, on_args=None, on_result=None) -> None:
        original = getattr(module, attr)
        name = (f"{original.__module__.removeprefix('heavykin.')}."
                f"{original.__name__}")
        signature = inspect.signature(original) if on_args else None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = {}
            if on_args is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs.update(on_args(bound.arguments))
            if on_result is not None:
                attrs.update(on_result(result))
            tracer.spans.append(Span(span_id, name, start, end,
                                     threading.get_ident(), parent, attrs))
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, original))

    def install(self) -> "Tracer":
        for module_name, attr, on_args, on_result in TRACE_POINTS:
            self.wrap(importlib.import_module(module_name), attr, on_args,
                      on_result)
        return self

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """The per-layer metrics of one traced round, keyed by metric name."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum((s.duration for s in by_name.get(name, [])), 0.0)

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs[key] for s in by_name.get(name, []))

    selfs = self_times(spans)
    transport = total("kinetic_fv.transport_apply")
    collision = total("kinetic_fv.collision_apply")
    chi_eval = total("corrector.chi_eval")
    chi_dx = total("corrector.chi_dx")
    rows = by_name.get("harness._kinetic_row", [])
    rows_wall = (max(s.end for s in rows) - min(s.start for s in rows)
                 if rows else 0.0)
    advance = total("kinetic_mc.advance")
    return {
        "kinetic_fv.transport_s": transport,
        "kinetic_fv.collision_s": collision,
        "kinetic_fv.steps": len(by_name.get("kinetic_fv.collision_apply", [])),
        "kinetic_fv.cell_steps_per_s": _rate(
            attr_sum("kinetic_fv.collision_apply", "cells"),
            transport + collision),
        "kinetic_fv.run_self_s": sum(
            selfs[s.id] for s in by_name.get("kinetic_fv.run_kinetic_det", [])),
        "corrector.chi_dx_s": chi_dx,
        "corrector.chi_dx_calls": len(by_name.get("corrector.chi_dx", [])),
        "corrector.chi_eval_s": chi_eval,
        "corrector.chi_eval_calls": len(by_name.get("corrector.chi_eval", [])),
        "corrector.chi_points_per_s": _rate(
            attr_sum("corrector.chi_eval", "points")
            + attr_sum("corrector.chi_dx", "points"), chi_eval + chi_dx),
        "corrector.remainder_s": sum(
            total(f"corrector.corrector_term_{t}")
            for t in ("qplus", "drift_g", "drift_rho")),
        "harness.check_correctors_s": total("harness.check_correctors"),
        "harness.check_coercivity_s": total("harness.check_coercivity"),
        "harness.rows_s": rows_wall,
        "harness.row_overlap": _rate(sum(s.duration for s in rows), rows_wall),
        "nonlocal_op.assemble_s": total("nonlocal_op.assemble"),
        "nonlocal_op.solve_macro_s": total("nonlocal_op.solve_macro"),
        "kinetic_mc.init_s": total("kinetic_mc.init_ensemble"),
        "kinetic_mc.advance_s": advance,
        "kinetic_mc.collisions_per_s": _rate(
            attr_sum("kinetic_mc.advance", "collisions"), advance),
        "outputs.write_s": total("outputs.write_outputs"),
    }


# Counts that must repeat exactly between traced rounds of one workload.
EXACT_COUNTS = ("kinetic_fv.steps", "corrector.chi_dx_calls",
                "corrector.chi_eval_calls")
