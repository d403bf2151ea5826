"""Per-function timing wrappers for the traced benchmark run.

Every public function of the gatesafe package gets one wrapper, keyed by the
original function object, and that wrapper is bound in every ``gatesafe.*``
namespace that holds the original. Calls the package makes to itself
(``sim -> exact_distance``, ``barrier -> sample``,
``run_experiment -> run_trial``) therefore pass through the wrappers without
any change to the package source.

Only aggregates are kept: calls, inclusive time, self time (inclusive time
minus the inclusive time of traced children), calls that raised, and an
optional work size (points, rows) per function.
"""
from __future__ import annotations

import functools
import inspect
import os
import statistics
import time


class Stat:
    """Aggregates for one traced function."""

    __slots__ = ("calls", "total", "self_time", "raised", "size")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = 0
        self.size = 0


class Tracer:
    """Installs and removes the wrappers and holds their aggregates.

    ``sizes`` maps a traced name (``"field.sample_batch"``) to a function of
    ``(args, kwargs)`` returning the work size of one call; ``results`` maps
    a traced name to a callback ``(args, kwargs, result)`` run after each
    successful call.
    """

    def __init__(self, sizes=None, results=None) -> None:
        self.stats: dict[str, Stat] = {}
        self._sizes = sizes or {}
        self._results = results or {}
        # Child-time accumulators, one per open traced call plus the root.
        self._stack = [0.0]
        self._bound: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        """Wrap every public gatesafe function in every gatesafe namespace."""
        modules = [package] + [
            m for name, m in vars(package).items() if inspect.ismodule(m) and m.__name__.startswith(package.__name__ + ".")
        ]
        wrappers = {}
        for module in modules:
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__.startswith(package.__name__ + ".")
                    and obj not in wrappers
                ):
                    key = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(key, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._bound.append((module, name, obj))

    def uninstall(self) -> None:
        """Put every original function back."""
        for module, name, obj in reversed(self._bound):
            setattr(module, name, obj)
        self._bound.clear()

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter
        size = self._sizes.get(key)
        on_result = self._results.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                stack[-1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - children
            if size is not None:
                stat.size += size(args, kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def layer_self(self, layer: str) -> float:
        """Summed self seconds of every traced function of one module."""
        return sum(s.self_time for k, s in self.stats.items() if k.startswith(layer + "."))

    def get(self, key: str) -> Stat:
        return self.stats.get(key) or Stat()


def _first_len(index: int):
    return lambda args, kwargs: len(args[index])


class LayerCounters:
    """Outcome counters read off traced calls' results (not timings)."""

    def __init__(self) -> None:
        self.status = {"unchanged": 0, "projected": 0, "infeasible_fallback": 0, "degenerate_safe": 0}
        self.projected_useful = 0
        self.trial_steps = 0
        self.filtered_steps = 0
        self.off_map_steps = 0
        self.in_obstacle_steps = 0
        self.node_dirs = 0
        self.saved_bytes = []

    def on_filter_action(self, args, kwargs, decision) -> None:
        label = decision.status.value
        self.status[label] += 1
        if label == "projected" and decision.deviation > 1e-12:
            self.projected_useful += 1

    def on_run_trial(self, args, kwargs, result) -> None:
        self.trial_steps += result.steps
        if result.mode != "baseline":
            self.filtered_steps += result.steps
            self.off_map_steps += result.off_map_steps
            self.in_obstacle_steps += result.in_obstacle_steps

    def on_action_field(self, args, kwargs, fld) -> None:
        samples = kwargs.get("angular_samples", args[5] if len(args) > 5 else 72)
        self.node_dirs += int(fld.unsafe.size) * int(samples)

    def on_save_field(self, args, kwargs, result) -> None:
        self.saved_bytes.append(os.path.getsize(args[1]))

    def tracer(self) -> Tracer:
        return Tracer(
            sizes={
                "geometry.exact_distance_batch": _first_len(0),
                "field.sample_batch": _first_len(1),
                "qp.filter_action_batch": _first_len(0),
            },
            results={
                "qp.filter_action": self.on_filter_action,
                "sim.run_trial": self.on_run_trial,
                "qp.safest_action_field": self.on_action_field,
                "field.save_field": self.on_save_field,
            },
        )


def per_layer(tracer: Tracer, counters: LayerCounters, wl, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics of a traced run, per traced pass unless named per call.

    ``.calls``, ``.points``, ``.rows``, counts, ``.s`` and bytes are per pass;
    ``.self_us`` is self time per call, ``ns_per_point``/``ns_per_row`` divide
    inclusive time by the work size.
    """
    out = {}
    passes = len(traced_walls)

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def per_call_us(stat):
        return 1e6 * stat.self_time / stat.calls if stat.calls else 0.0

    def per_unit_ns(stat):
        return 1e9 * stat.total / stat.size if stat.size else 0.0

    for name in ("exact_distance", "world_to_gate", "segment_hits_frame"):
        s = tracer.get(f"geometry.{name}")
        put(f"geometry.{name}.calls", s.calls / passes, "count")
        put(f"geometry.{name}.self_us", per_call_us(s), "us")
    s = tracer.get("geometry.exact_distance_batch")
    put("geometry.exact_distance_batch.points", s.size / passes, "count")
    put("geometry.exact_distance_batch.ns_per_point", per_unit_ns(s), "ns")

    for name in ("build_field", "inflate_field", "save_field", "load_field"):
        put(f"field.{name}.s", tracer.get(f"field.{name}").total / passes, "s")
    saved = counters.saved_bytes
    put("field.file_bytes", sum(saved) / len(saved) if saved else 0, "bytes")
    s = tracer.get("field.sample")
    put("field.sample.calls", s.calls / passes, "count")
    put("field.sample.self_us", per_call_us(s), "us")
    put("field.sample.raised", s.raised / passes, "count")
    s = tracer.get("field.sample_batch")
    put("field.sample_batch.points", s.size / passes, "count")
    put("field.sample_batch.ns_per_point", per_unit_ns(s), "ns")

    for name in ("eval_barrier_world", "assemble_constraint"):
        s = tracer.get(f"barrier.{name}")
        put(f"barrier.{name}.calls", s.calls / passes, "count")
        put(f"barrier.{name}.self_us", per_call_us(s), "us")

    s = tracer.get("qp.filter_action")
    put("qp.filter_action.calls", s.calls / passes, "count")
    put("qp.filter_action.self_us", per_call_us(s), "us")
    s = tracer.get("qp.filter_action_batch")
    put("qp.filter_action_batch.rows", s.size / passes, "count")
    put("qp.filter_action_batch.ns_per_row", per_unit_ns(s), "ns")
    for label, count in counters.status.items():
        put(f"qp.status.{label}", count / passes, "count")
    projected = counters.status["projected"]
    put("qp.projected_useful_ratio", counters.projected_useful / projected if projected else 0.0, "ratio")
    disagree = getattr(wl, "disagree", {})
    put("qp.status_disagree", sum(disagree.values()), "count")
    put("qp.status_compared", getattr(wl, "compared_rows", 0), "count")
    s = tracer.get("qp.safest_action_field")
    put("qp.safest_action_field.s", s.total / passes, "s")
    put("qp.safest_action_field.node_dirs_per_s", counters.node_dirs / s.total if s.total else 0.0, "1/s")

    steps = counters.trial_steps
    put("sim.run_trial.calls", tracer.get("sim.run_trial").calls / passes, "count")
    put("sim.steps", steps / passes, "count")
    put("sim.self_us_per_step", 1e6 * tracer.layer_self("sim") / steps if steps else 0.0, "us")
    filtered = counters.filtered_steps
    put("sim.status.off_map_ratio", counters.off_map_steps / filtered if filtered else 0.0, "ratio")
    put("sim.status.in_obstacle_ratio", counters.in_obstacle_steps / filtered if filtered else 0.0, "ratio")

    put("cli.self_s", tracer.layer_self("cli") / passes, "s")
    put("cli.bytes_written", getattr(wl, "bytes_written", 0), "bytes")
    put("report.write_report.s", tracer.get("report.write_report").total / passes, "s")
    put("config.load_config.s", tracer.get("config.load_config").total / passes, "s")
    put("config.dump_manifest.s", tracer.get("config.dump_manifest").total / passes, "s")

    traced_wall = statistics.median(traced_walls)
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_share", traced_wall / statistics.median(untraced_walls) - 1.0, "ratio")
    return out
