"""Span tracing of scatter1d from outside the package.

The tracer replaces each public function of the package's modules with a
wrapper, at every name a module binds it under (``scatter1d.analytic.
bessel_j``, ``scatter1d.singularity.transfer_matrix``, ...), so calls
between layers are seen without touching the program.  Each wrapper
records one span: function, start, end, parent span and the benchmark
operation it ran under.  Spans stay in flat arrays in memory and are
written out when the run ends.

One boundary is counted instead of spanned, because a span there would
cost as much as the call: ``evaluate_potential``, the potential evaluator
behind every slab built by ``SampledPotential.from_spec`` (one call per
right-hand-side evaluation of evolution or shooting).  Each call adds to
the enclosing span's evaluator count and records the slab's cell count.
Newton solves are spanned at the private ``singularity._newton``, the one
routine every singularity solver and the scan go through.

A wrapper only sees calls made through the name it replaced: code that
calls ``scipy.special.jv`` directly, or a renamed function, drops out of
the counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("bessel", "potential", "analytic", "transfer", "shooting",
          "invisibility", "singularity", "validate", "cli")

_EXTRA = {"singularity": ("_newton",)}
_COUNTED = ("potential", "evaluate_potential")


class Tracer:
    """Installs span-recording wrappers into the scatter1d modules."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"scatter1d.{name}") for name in LAYERS}
        self.package = importlib.import_module("scatter1d")
        self.names: list[tuple[str, str]] = []   # function id -> (layer, name)
        self.func = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.evals = array("q")
        self.cells = array("i")
        self.stack = [-1]
        self.current_op = -1
        self.det_drift_max = 0.0
        self.scan_seeds = 0
        self.scan_roots = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or name in _EXTRA.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(layer, name, obj))
        holders = list(self.modules.values()) + [self.package]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._undo.append((holder, attr, obj))
                    setattr(holder, attr, originals[id(obj)][1])

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._undo):
            setattr(holder, attr, obj)
        self._undo.clear()

    def _wrap(self, layer: str, name: str, fn):
        if (layer, name) == _COUNTED:
            return self._wrap_counted(fn)
        fid = len(self.names)
        self.names.append((layer, name))
        hook = {"transfer_matrix": self._transfer_hook,
                "scan_singularities": self._scan_hook}.get(name)
        stack, start, end, func, parent, op = (self.stack, self.start, self.end,
                                               self.func, self.parent, self.op)
        evals, cells = self.evals, self.cells
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            func.append(fid)
            parent.append(stack[-1])
            op.append(self.current_op)
            evals.append(0)
            cells.append(0)
            end.append(math.nan)
            after = hook(signature.bind(*args, **kwargs)) if hook else None
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _wrap_counted(self, fn):
        stack, evals, cells = self.stack, self.evals, self.cells

        @functools.wraps(fn)
        def counted(spec, x):
            idx = stack[-1]
            if idx >= 0:
                evals[idx] += 1
                cells[idx] = spec.m
            return fn(spec, x)
        return counted

    # Hooks run before the call (a scan that raises still spent its seeds)
    # and return what to run on the result.

    def _transfer_hook(self, bound):
        def after(result):
            self.det_drift_max = max(self.det_drift_max, abs(result.determinant() - 1.0))
        return after

    def _scan_hook(self, bound):
        bound.apply_defaults()
        n_re, n_im = bound.arguments["grid"]
        self.scan_seeds += n_re * n_im

        def after(result):
            self.scan_roots += len(result)
        return after

    # -- analysis -----------------------------------------------------

    def arrays(self) -> dict:
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "func": np.array(self.func, dtype=np.int64), "start": start, "end": end,
            "parent": parent, "op": np.array(self.op, dtype=np.int64),
            "evals": np.array(self.evals, dtype=np.int64),
            "cells": np.array(self.cells, dtype=np.int64),
            "dur": dur, "self": dur - child,
        }

    def save(self, path: str) -> None:
        data = self.arrays()
        np.savez_compressed(path, names=np.array([f"{l}.{n}" for l, n in self.names]),
                            **{k: v for k, v in data.items() if k not in ("dur", "self")})

    def layer_metrics(self, rounds: int, cli_bytes: int) -> dict:
        """Per-layer counts and self times, per traced round."""
        d = self.arrays()
        layer_of = np.array([LAYERS.index(l) for l, _ in self.names] or [0])[d["func"]]
        ids = {f"{l}.{n}": i for i, (l, n) in enumerate(self.names)}

        def is_fn(*qualnames):
            mask = np.zeros(len(d["func"]), dtype=bool)
            for q in qualnames:
                if q in ids:
                    mask |= d["func"] == ids[q]
            return mask

        def in_layer(layer):
            return layer_of == LAYERS.index(layer)

        def per_round(x):
            return float(x) / rounds

        def ratio(num, den, scale=1.0):
            return float(num) * scale / float(den) if den else 0.0

        self_t, evals, cells = d["self"], d["evals"], d["cells"]
        out = {}
        for layer in ("bessel", "analytic"):
            mask = in_layer(layer)
            out[f"{layer}.calls"] = per_round(mask.sum())
            out[f"{layer}.self_s"] = per_round(self_t[mask].sum())
            out[f"{layer}.us_per_call"] = ratio(self_t[mask].sum(), mask.sum(), 1e6)

        out["potential.wave_context_calls"] = per_round(is_fn("potential.wave_context").sum())
        out["potential.evals"] = per_round(evals.sum())

        for layer in ("transfer", "shooting"):
            mask = in_layer(layer)
            integrating = mask & (evals > 0)
            out[f"{layer}.calls"] = per_round(mask.sum())
            out[f"{layer}.self_s"] = per_round(self_t[mask].sum())
            out[f"{layer}.evals_per_cell"] = ratio(evals[integrating].sum(), cells[integrating].sum())
            if layer == "transfer":
                out["transfer.ms_per_cell"] = ratio(self_t[mask].sum(), cells[integrating].sum(), 1e3)
                out["transfer.det_drift_max"] = self.det_drift_max

        sweep = is_fn("invisibility.wavelength_sweep", "invisibility.fig1_sweep")
        classify = is_fn("invisibility.classify")
        design = is_fn("invisibility.design_unidirectional", "invisibility.fig1_design_point")
        out["invisibility.sweep_self_s"] = per_round(self_t[sweep].sum())
        out["invisibility.classify_calls"] = per_round(classify.sum())
        out["invisibility.classify_self_s"] = per_round(self_t[classify].sum())
        out["invisibility.design_calls"] = per_round(design.sum())
        out["invisibility.design_self_s"] = per_round(self_t[design].sum())

        newton = is_fn("singularity._newton")
        under_newton = _descends_from(d["parent"], newton)
        bessel_in_newton = (in_layer("bessel") & under_newton).sum()
        out["singularity.solve_calls"] = per_round(newton.sum())
        out["singularity.solve_self_s"] = per_round(self_t[in_layer("singularity")].sum())
        out["singularity.bessel_calls_per_solve"] = ratio(bessel_in_newton, newton.sum())
        out["singularity.scan_seeds"] = per_round(self.scan_seeds)
        out["singularity.roots_per_seed"] = ratio(self.scan_roots, self.scan_seeds)
        out["singularity.validate_calls"] = per_round(is_fn("singularity.validate_root_ode").sum())

        for suite in ("bessel", "transfer", "analytic"):
            mask = is_fn(f"validate.{suite}_suite")
            out[f"validate.{suite}_suite_s"] = per_round(d["dur"][mask].sum())

        out["cli.calls"] = per_round(is_fn("cli.main").sum())
        out["cli.self_s"] = per_round(self_t[in_layer("cli")].sum())
        out["cli.bytes_out"] = per_round(cli_bytes)
        out["trace.spans"] = per_round(len(d["func"]))
        return out


def _descends_from(parent: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Mask of spans with an ancestor in ``roots`` (parents precede children)."""
    inside = np.zeros(len(parent), dtype=bool)
    for i, p in enumerate(parent.tolist()):
        if p >= 0 and (roots[p] or inside[p]):
            inside[i] = True
    return inside


#: Units of the per-layer metrics, in the order they are reported.
UNITS = {
    "bessel.calls": "count/round", "bessel.self_s": "s/round", "bessel.us_per_call": "us",
    "potential.wave_context_calls": "count/round", "potential.evals": "count/round",
    "analytic.calls": "count/round", "analytic.self_s": "s/round", "analytic.us_per_call": "us",
    "transfer.calls": "count/round", "transfer.self_s": "s/round",
    "transfer.evals_per_cell": "count", "transfer.ms_per_cell": "ms",
    "transfer.det_drift_max": "abs",
    "shooting.calls": "count/round", "shooting.self_s": "s/round",
    "shooting.evals_per_cell": "count",
    "invisibility.sweep_self_s": "s/round", "invisibility.classify_calls": "count/round",
    "invisibility.classify_self_s": "s/round", "invisibility.design_calls": "count/round",
    "invisibility.design_self_s": "s/round",
    "singularity.solve_calls": "count/round", "singularity.solve_self_s": "s/round",
    "singularity.bessel_calls_per_solve": "count", "singularity.scan_seeds": "count/round",
    "singularity.roots_per_seed": "ratio", "singularity.validate_calls": "count/round",
    "validate.bessel_suite_s": "s/round", "validate.transfer_suite_s": "s/round",
    "validate.analytic_suite_s": "s/round",
    "cli.calls": "count/round", "cli.self_s": "s/round", "cli.bytes_out": "bytes/round",
    "trace.spans": "count/round", "trace.overhead_pct": "%",
}
