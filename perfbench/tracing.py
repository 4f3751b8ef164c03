"""Per-layer tracing by wrapping the program's public functions from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span (layer, start, end, parent span) and its counts; the
program's source is not touched.  Spans are kept in memory, in flat
arrays, and written out at the end of the run.  A layer's self time is its
spans' durations minus the time covered by their child spans.

Layers and what they wrap:

* setdyn.compare: ``PointCloud.__eq__``, ``difference``, ``intersection``,
  ``subset_of``, ``contains_points``
* setdyn.snap: ``PointCloud`` construction and ``union``
* setdyn.residual: ``hausdorff``, ``directed_distance``
* setdyn.escape: ``ModelSpec.escape_check``
* setdyn.map: the model's vectorised maps
* setdyn.loop: ``compute_K``, ``individual_attractor``
* setdyn.chaos: ``chaos_game``
* restricted.sweep / enumerate / decomposition: ``vertex_limits``,
  ``enumerate_slices``, ``verify_decomposition``
* sofic.start_vertices: ``start_vertices``
* setdyn.csv, svgplot.write: ``PointCloud.to_csv``, ``write_scatter``
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

from choicedyn import models, restricted, setdyn, sofic, svgplot

TIME_LAYERS = (
    "setdyn.compare", "setdyn.snap", "setdyn.residual", "setdyn.escape", "setdyn.map",
    "setdyn.loop", "setdyn.chaos", "restricted.sweep", "restricted.enumerate",
    "restricted.decomposition", "sofic.start_vertices", "setdyn.csv", "svgplot.write",
)
COUNTS = (
    "setdyn.compare_rows", "setdyn.snap_rows_in", "setdyn.snap_rows_out", "setdyn.max_cloud_rows",
    "setdyn.residual_calls", "setdyn.residual_rows", "setdyn.escape_rows", "setdyn.map_rows",
    "setdyn.k_iterations", "setdyn.orbit_steps", "setdyn.chaos_steps", "restricted.sweeps",
    "restricted.strategies", "sofic.start_vertices_calls", "io.bytes",
)


def _add(key, value):
    def count(counts, args, kwargs, out):
        counts[key] += value(args, kwargs, out)
    return count


def _argument(fn, name):
    """Read argument `name` of fn from a call's args and kwargs."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    """Spans and per-layer totals of the calls made while installed."""

    def __init__(self):
        self.layers = list(TIME_LAYERS)
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.self_s = dict.fromkeys(TIME_LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._undo = []

    def reset_totals(self):
        for key in self.self_s:
            self.self_s[key] = 0.0
        for key in self.counts:
            self.counts[key] = 0

    def wrap(self, layer, fn, count=None):
        """fn, recording one span of `layer` per call and applying `count`."""
        lid = self.layers.index(layer)
        stack, self_s, counts = self._stack, self.self_s, self.counts
        lay, start, end, parent = self.span_layer, self.span_start, self.span_end, self.span_parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(lay)
            lay.append(lid)
            start.append(0.0)
            end.append(0.0)
            parent.append(stack[-1][1] if stack else -1)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if stack:
                    stack[-1][0] += t1 - t0
                self_s[layer] += t1 - t0 - frame[0]
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return traced

    def wrap_model(self, model):
        """A copy of model whose vectorised maps are traced."""
        rows = _add("setdyn.map_rows", lambda a, k, out: len(a[0]))
        return dataclasses.replace(model, maps=tuple(self.wrap("setdyn.map", fn, rows) for fn in model.maps))

    def _patch(self, owner, name, new):
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, new)

    def _patch_function(self, fn, layer, count=None):
        """Replace fn under every name the package's modules bind it to."""
        traced = self.wrap(layer, fn, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "choicedyn" or mod_name.startswith("choicedyn."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, traced)

    def install(self):
        PC = setdyn.PointCloud

        def snap_count(counts, args, kwargs, out):
            n_out = len(args[0].points)
            counts["setdyn.snap_rows_in"] += len(args[1])
            counts["setdyn.snap_rows_out"] += n_out
            if n_out > counts["setdyn.max_cloud_rows"]:
                counts["setdyn.max_cloud_rows"] = n_out

        self._patch(PC, "__init__", self.wrap("setdyn.snap", PC.__init__, snap_count))
        self._patch(PC, "union", staticmethod(self.wrap("setdyn.snap", PC.union)))
        compare_rows = _add("setdyn.compare_rows", lambda a, k, out: len(a[0].points) + len(a[1]))
        for name in ("__eq__", "difference", "intersection", "subset_of", "contains_points"):
            self._patch(PC, name, self.wrap("setdyn.compare", getattr(PC, name), compare_rows))
        self._patch(PC, "to_csv", self.wrap("setdyn.csv", PC.to_csv, _add("io.bytes", lambda a, k, out: len(out))))
        escape_rows = _add("setdyn.escape_rows", lambda a, k, out: len(a[1]))
        self._patch(setdyn.ModelSpec, "escape_check",
                    self.wrap("setdyn.escape", setdyn.ModelSpec.escape_check, escape_rows))

        self._patch_function(setdyn.hausdorff, "setdyn.residual")

        def residual_count(counts, args, kwargs, out):
            counts["setdyn.residual_calls"] += 1
            counts["setdyn.residual_rows"] += len(args[0]) + len(args[1])

        self._patch_function(setdyn.directed_distance, "setdyn.residual", residual_count)
        self._patch_function(setdyn.compute_K, "setdyn.loop",
                             _add("setdyn.k_iterations", lambda a, k, out: out.iterations))
        self._patch_function(setdyn.individual_attractor, "setdyn.loop",
                             _add("setdyn.orbit_steps", lambda a, k, out: out.iterations))
        steps = _argument(setdyn.chaos_game, "steps")
        self._patch_function(setdyn.chaos_game, "setdyn.chaos",
                             _add("setdyn.chaos_steps", lambda a, k, out: steps(a, k)))
        self._patch_function(restricted.vertex_limits, "restricted.sweep",
                             _add("restricted.sweeps", lambda a, k, out: out.iterations))
        self._patch_function(restricted.enumerate_slices, "restricted.enumerate",
                             _add("restricted.strategies", lambda a, k, out: len(out.representatives)))
        self._patch_function(restricted.verify_decomposition, "restricted.decomposition")
        self._patch_function(sofic.start_vertices, "sofic.start_vertices",
                             _add("sofic.start_vertices_calls", lambda a, k, out: 1))
        path = _argument(svgplot.write_scatter, "path")
        self._patch_function(svgplot.write_scatter, "svgplot.write",
                             _add("io.bytes", lambda a, k, out: os.path.getsize(path(a, k))))
        # models built by the CLI get traced maps too
        build = models.build_model
        self._patch(models, "build_model", functools.wraps(build)(lambda *a, **k: self.wrap_model(build(*a, **k))))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def round_metrics(self) -> dict:
        """This round's self seconds per layer and counts, as metric values."""
        out = {f"{layer}_s": secs for layer, secs in self.self_s.items()}
        out.update(self.counts)
        rows_in = self.counts["setdyn.snap_rows_in"]
        out["setdyn.snap_keep_ratio"] = self.counts["setdyn.snap_rows_out"] / rows_in if rows_in else 0.0
        return out

    def save(self, path: str):
        """Write the recorded spans as flat arrays (layer ids index `layers`)."""
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
