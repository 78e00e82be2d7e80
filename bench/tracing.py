"""Per-layer tracing for the benchmark's traced run.

Each public layer function is wrapped at every ``taskaxes`` module
attribute (or class attribute) that holds it, so the wrapper sits where
callers resolve the name. A wrapper records one span per call: calls,
self time (its duration minus the time its traced children covered),
optionally every call's duration for a median, and layer-specific work
counters computed from the call's arguments and result. Counter work is
charged to neither the layer nor its parent.

Spans live in memory; ``Tracer.metrics()`` folds them into the flat
per-layer metric dict the benchmark prints.
"""

from __future__ import annotations

import functools
import gc
import os
import statistics
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_render(stats, args, kwargs, result):
    scene = _arg(args, kwargs, 0, "scene", None)
    stats.add("points", sum(int(obj.cloud.shape[0]) for obj in scene.objects))
    stats.add("pixels", int(np.count_nonzero(result[1].valid)))


def _count_cosine(stats, args, kwargs, result):
    target = _arg(args, kwargs, 1, "target", None)
    stats.add("bytes", int(np.count_nonzero(result.valid)) * target.dim * 8)


def _count_cloud(stats, args, kwargs, result):
    stats.add("points", int(result.shape[0]))


def _count_pca(stats, args, kwargs, result):
    points = np.asarray(_arg(args, kwargs, 0, "points", None), dtype=np.float64)
    at = np.asarray(_arg(args, kwargs, 1, "at", None), dtype=np.float64)
    radius = float(_arg(args, kwargs, 2, "radius", 0.02))
    stats.add("scanned", int(points.shape[0]))
    stats.add("used", int(np.count_nonzero(np.linalg.norm(points - at, axis=1) <= radius)))


def _count_phase(stats, args, kwargs, result):
    stats.add("ticks", int(result.ticks))


def _count_log_write(stats, args, kwargs, result):
    log, path = args[0], _arg(args, kwargs, 1, "path", None)
    stats.add("bytes", os.path.getsize(path))
    stats.add("ticks", len(log.records))


# (layer name, defining module, attribute, keep per-call durations, counter)
# Layer names are "<module>.<function>" or "<module>.<Class>.<method>".
LAYERS = (
    ("simulator.render_synthetic_features", "taskaxes.simulator",
     "render_synthetic_features", False, _count_render),
    ("grounding.ground_spec", "taskaxes.grounding", "ground_spec", False, None),
    ("features.match_keypoint", "taskaxes.features", "match_keypoint", True, None),
    ("features.cosine_map", "taskaxes.features", "cosine_map", True, _count_cosine),
    ("features.hard_match", "taskaxes.features", "hard_match", True, None),
    ("features.soft_match", "taskaxes.features", "soft_match", True, None),
    ("grounding.cloud_from_depth", "taskaxes.grounding", "cloud_from_depth", False,
     _count_cloud),
    ("grounding.surface_normal", "taskaxes.grounding", "surface_normal", False,
     _count_pca),
    ("grounding.edge_direction", "taskaxes.grounding", "edge_direction", False,
     _count_pca),
    ("evaluation.run_validation", "taskaxes.evaluation", "run_validation", False, None),
    ("skill.run_phase", "taskaxes.skill", "run_phase", False, _count_phase),
    ("simulator.SkillRunner.observe", "taskaxes.simulator", "SkillRunner.observe",
     True, None),
    ("controllers.step_controller", "taskaxes.controllers", "step_controller", True,
     None),
    ("skill.project_axes", "taskaxes.skill", "project_axes", True, None),
    ("skill.project_actions", "taskaxes.skill", "project_actions", True, None),
    ("skill.compose_twist", "taskaxes.skill", "compose_twist", True, None),
    ("simulator.step_sim", "taskaxes.simulator", "step_sim", True, None),
    ("simulator.SimLog.write", "taskaxes.simulator", "SimLog.write", False,
     _count_log_write),
    ("cli.main", "taskaxes.cli", "main", False, None),
    ("scenes.load_scene", "taskaxes.scenes", "load_scene", False, None),
    ("skill.parse_skill", "taskaxes.skill", "parse_skill", False, None),
)

# counters that must repeat exactly between two traced runs of one seed
DETERMINISTIC_SUFFIXES = (".calls", ".ticks", ".points", ".scanned")


class LayerStats:
    def __init__(self, keep_durations):
        self.calls = 0
        self.self_s = 0.0
        self.durations = [] if keep_durations else None
        self.counters = {}

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value


class Tracer:
    """Wraps the layer functions while installed and accumulates spans."""

    def __init__(self):
        self.layers = {name: LayerStats(keep) for name, _, _, keep, _ in LAYERS}
        self.missing = []
        self.op_s = []
        self.root_self_s = 0.0
        self.gc_counts = [0, 0, 0]
        self.gc_pause_s = 0.0
        self.gc_max_pause_s = 0.0
        self._stack = []
        self._patches = []
        self._gc_start = None

    # -- wrapping

    def _wrap(self, fn, stats, counter):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                _close(t0, t1, t1)
                raise
            t1 = clock()
            if counter is not None:
                counter(stats, args, kwargs, result)
            _close(t0, t1, clock())
            return result

        def _close(t0, t1, t2):
            child = stack.pop()
            stats.calls += 1
            stats.self_s += (t1 - t0) - child
            if stats.durations is not None:
                stats.durations.append(t1 - t0)
            if stack:
                stack[-1] += t2 - t0

        return traced

    def install(self):
        """Replace each layer function at every attribute that holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "taskaxes" or name.startswith("taskaxes.")]
        self.missing = []
        for layer, module_name, attr, _, counter in LAYERS:
            owner = sys.modules.get(module_name)
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.missing.append(layer)
                continue
            wrapped = self._wrap(original, self.layers[layer], counter)
            if cls_name:
                self._patch(owner, fn_name, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is None:
            return
        pause = time.perf_counter() - self._gc_start
        self._gc_start = None
        self.gc_counts[info["generation"]] += 1
        self.gc_pause_s += pause
        self.gc_max_pause_s = max(self.gc_max_pause_s, pause)

    def op(self, fn):
        """Run one traced op as the root span; returns fn's result."""
        self.install()
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - t0
            child = self._stack.pop()
            self.uninstall()
            self.op_s.append(elapsed)
            self.root_self_s += elapsed - child

    # -- results

    def metrics(self) -> dict:
        """Flat per-layer metrics: {name: (value, unit)}."""
        out = {}
        for layer, stats in self.layers.items():
            out[f"{layer}.calls"] = (stats.calls, "count")
            out[f"{layer}.self_s"] = (stats.self_s, "s")
            if stats.durations is not None:
                p50 = statistics.median(stats.durations) * 1e6 if stats.durations else 0.0
                out[f"{layer}.p50_us"] = (p50, "us")
        render = self.layers["simulator.render_synthetic_features"].counters
        out["simulator.render_synthetic_features.points"] = (render.get("points", 0), "count")
        out["simulator.render_synthetic_features.pixels_per_point"] = (
            _ratio(render.get("pixels", 0), render.get("points", 0)), "ratio")
        out["features.cosine_map.bytes"] = (
            self.layers["features.cosine_map"].counters.get("bytes", 0), "B")
        out["grounding.cloud_from_depth.points"] = (
            self.layers["grounding.cloud_from_depth"].counters.get("points", 0), "count")
        for layer in ("grounding.surface_normal", "grounding.edge_direction"):
            c = self.layers[layer].counters
            out[f"{layer}.scanned"] = (c.get("scanned", 0), "count")
            out[f"{layer}.used_ratio"] = (_ratio(c.get("used", 0), c.get("scanned", 0)),
                                          "ratio")
        out["skill.run_phase.ticks"] = (
            self.layers["skill.run_phase"].counters.get("ticks", 0), "count")
        log = self.layers["simulator.SimLog.write"].counters
        out["simulator.SimLog.write.bytes_per_tick"] = (
            _ratio(log.get("bytes", 0), log.get("ticks", 0)), "B")
        for gen in range(3):
            out[f"python.gc.collections.gen{gen}"] = (self.gc_counts[gen], "count")
        out["python.gc.pause_s"] = (self.gc_pause_s, "s")
        out["python.gc.max_pause_us"] = (self.gc_max_pause_s * 1e6, "us")
        return out

    def shares(self) -> dict:
        """Each layer's self time as a share of total traced op time."""
        total = sum(self.op_s)
        shares = {layer: stats.self_s / total for layer, stats in self.layers.items()
                  if stats.calls}
        shares["unwrapped"] = self.root_self_s / total
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def _ratio(num, den):
    return num / den if den else 0.0
