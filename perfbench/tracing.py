"""Outside-in tracing: wrap ratecost's layer functions where they are
looked up, record one span per call, and keep the spans in memory.

``install`` patches module attributes and class methods from outside the
program; nothing under ``src/`` changes.  A span is (name, start, end,
parent, error); the parent is the span open on the same thread when the call
began.  Spans are written once, at the end, with ``Tracer.save``.
``summarize`` turns a saved trace into per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from array import array

import numpy as np

# label -> (owners to patch, attribute).  Owners are dotted module names or
# "module:Class"; a name imported by another module is patched there too,
# because that is where the caller looks it up.
TARGETS = {
    "sysmodel.sample": (["ratecost.sysmodel:NoiseModel"], "sample"),
    "sysmodel.validate": (["ratecost.sysmodel", "ratecost.cli"], "validate"),
    "riccati.solve_control": (["ratecost.riccati", "ratecost.simloop",
                               "ratecost.cli"], "solve_control"),
    "riccati.solve_filter": (["ratecost.riccati", "ratecost.simloop",
                              "ratecost.cli"], "solve_filter"),
    "quantizer.lattice_for_dimension": (["ratecost.quantizer",
                                         "ratecost.simloop"],
                                        "lattice_for_dimension"),
    "quantizer.encode_step": (["ratecost.quantizer:DpcmCodec"], "encode_step"),
    "quantizer.nearest": (["ratecost.quantizer:Lattice"], "nearest"),
    "quantizer.index_of": (["ratecost.quantizer:Lattice"], "index_of"),
    "quantizer.empirical_entropy": (["ratecost.quantizer", "ratecost.simloop"],
                                    "empirical_entropy"),
    "simloop.run": (["ratecost.simloop", "ratecost.cli"], "run"),
    "simloop.sweep": (["ratecost.simloop", "ratecost.cli"], "sweep"),
    "simloop.tradeoff_point": (["ratecost.simloop", "ratecost.cli"],
                               "tradeoff_point"),
    "bounds.lower_bound_full": (["ratecost.bounds", "ratecost.simloop"],
                                "lower_bound_full"),
    "bounds.lower_bound_partial": (["ratecost.bounds", "ratecost.simloop"],
                                   "lower_bound_partial"),
    "bounds.lower_bound_projected": (["ratecost.bounds"],
                                     "lower_bound_projected"),
    "bounds.lower_bound_partial_projected": (["ratecost.bounds"],
                                             "lower_bound_partial_projected"),
    "bounds.lower_bound_lowrank": (["ratecost.bounds"], "lower_bound_lowrank"),
    "bounds.lower_bound_partial_lowrank": (["ratecost.bounds"],
                                           "lower_bound_partial_lowrank"),
    "bounds.entropy_cost_upper": (["ratecost.bounds", "ratecost.simloop"],
                                  "entropy_cost_upper"),
    "bounds.unstable_floor": (["ratecost.bounds"], "unstable_floor"),
    "cli.main": (["ratecost.cli"], "main"),
    "cli.load_config": (["ratecost.cli"], "load_config"),
    "cli.render_svg": (["ratecost.cli"], "render_svg"),
    "cli.emit_points": (["ratecost.cli"], "_emit_points"),
    "cli.write": (["ratecost.cli"], "_write"),
}


def _plant_key(plant) -> str:
    h = hashlib.sha256()
    for mat in (plant.A, plant.B, plant.Q, plant.R, plant.C):
        h.update(np.ascontiguousarray(mat).tobytes())
    return h.hexdigest()


class Tracer:
    """In-memory span store plus the counters read off call results."""

    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.error = array("b")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.plants: set[str] = set()
        self.points: list[tuple] = []   # (plant, ctrl, filt, d, SimResult, TradeoffPoint)
        self.originals: dict[str, object] = {}

    def _count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _on_result(self, label: str, args, kwargs, out) -> None:
        """Counters that only the call's arguments or result can give."""
        if label == "sysmodel.sample":
            size = args[2] if len(args) > 2 else kwargs["size"]
            self._count("draws", int(size) * args[0].dim)
        elif label == "riccati.solve_control":
            self.plants.add(_plant_key(args[0]))
            self._count("control_iters", out.iterations)
            self.counters["control_iters_max"] = max(
                self.counters.get("control_iters_max", 0), out.iterations)
        elif label == "riccati.solve_filter":
            self._count("filter_iters", out.iterations)
        elif label == "quantizer.empirical_entropy":
            self._count("entropy_samples", out.samples)
        elif label == "simloop.run":
            self._count("steps", out.steps)
        elif label in ("bounds.lower_bound_lowrank",
                       "bounds.lower_bound_partial_lowrank"):
            self._count("lowrank_unconverged", 0 if out.converged else 1)
        elif label == "simloop.tradeoff_point":
            plant, ctrl, filt, _bmin, d, res = args[:6]
            self.points.append((plant, ctrl, filt, d, res, out))

    def wrap(self, label: str, fn):
        name_id = len(self.labels)
        self.labels.append(label)
        clock = time.perf_counter
        names, starts, ends = self.name, self.start, self.end
        parents, errors, stack = self.parent, self.error, self._stack
        on_result = self._on_result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            errors.append(0)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            on_result(label, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        import importlib
        for label, (owners, attr) in TARGETS.items():
            resolved = []
            for owner in owners:
                mod_name, _, cls_name = owner.partition(":")
                obj = importlib.import_module(mod_name)
                resolved.append(getattr(obj, cls_name) if cls_name else obj)
            original = resolved[0].__dict__[attr]
            self.originals[label] = original
            wrapper = self.wrap(label, original)
            for obj in resolved:
                if obj.__dict__.get(attr) is original:
                    setattr(obj, attr, wrapper)

    def save(self, path) -> None:
        np.savez(path, name=np.asarray(self.name), start=np.asarray(self.start),
                 end=np.asarray(self.end), parent=np.asarray(self.parent),
                 error=np.asarray(self.error))


# ---------------------------------------------------------------------------
# analysis (parent side)

class SpanTable:
    """Loaded spans with per-span duration and self time."""

    def __init__(self, path, labels: list[str]):
        with np.load(path) as data:
            self.name = data["name"]
            self.start = data["start"]
            self.end = data["end"]
            self.parent = data["parent"]
            self.error = data["error"]
        self.labels = labels
        self.dur = self.end - self.start
        child_sum = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child_sum, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child_sum

    def _mask(self, *labels: str) -> np.ndarray:
        ids = [self.labels.index(lb) for lb in labels if lb in self.labels]
        return np.isin(self.name, ids)

    def calls(self, *labels: str) -> int:
        return int(self._mask(*labels).sum())

    def errors(self, *labels: str) -> int:
        return int(self.error[self._mask(*labels)].sum())

    def total(self, *labels: str) -> float:
        """Time inside any of ``labels``, counting nested spans once."""
        mask = self._mask(*labels)
        outer = mask.copy()
        for idx in np.flatnonzero(mask):
            p = self.parent[idx]
            while p >= 0:
                if mask[p]:
                    outer[idx] = False
                    break
                p = self.parent[p]
        return float(self.dur[outer].sum())

    def self_total(self, *labels: str) -> float:
        return float(self.self_time[self._mask(*labels)].sum())


def _per_call_us(table: SpanTable, *labels: str) -> float:
    calls = table.calls(*labels)
    return table.total(*labels) / calls * 1e6 if calls else 0.0


def summarize(table: SpanTable, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced session (units: run.PER_LAYER)."""
    t, c = table, counters

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    sample_s = t.total("sysmodel.sample")
    control_calls = t.calls("riccati.solve_control")
    encode_calls = t.calls("quantizer.encode_step")
    entropy_s = t.total("quantizer.empirical_entropy")
    run_s = t.total("simloop.run")
    lower = ("bounds.lower_bound_full", "bounds.lower_bound_partial")
    projected = ("bounds.lower_bound_projected",
                 "bounds.lower_bound_partial_projected")
    lowrank = ("bounds.lower_bound_lowrank", "bounds.lower_bound_partial_lowrank")
    return {
        "sysmodel.sample_s": sample_s,
        "sysmodel.sample_calls": t.calls("sysmodel.sample"),
        "sysmodel.sample_ns_per_draw": ratio(sample_s, c.get("draws", 0), 1e9),
        "sysmodel.validate_s": t.total("sysmodel.validate"),
        "riccati.control_s": t.total("riccati.solve_control"),
        "riccati.control_calls": control_calls,
        "riccati.control_iters": c.get("control_iters", 0),
        "riccati.control_iters_max": c.get("control_iters_max", 0),
        "riccati.control_failed": t.errors("riccati.solve_control"),
        "riccati.control_calls_per_plant": ratio(control_calls,
                                                 c.get("plants", 0)),
        "riccati.filter_s": t.total("riccati.solve_filter"),
        "riccati.filter_calls": t.calls("riccati.solve_filter"),
        "riccati.filter_iters": c.get("filter_iters", 0),
        "quantizer.encode_calls": encode_calls,
        "quantizer.encode_us_per_step": ratio(t.total("quantizer.encode_step"),
                                              encode_calls, 1e6),
        "quantizer.nearest_s": t.total("quantizer.nearest"),
        "quantizer.index_of_s": t.total("quantizer.index_of"),
        "quantizer.entropy_s": entropy_s,
        "quantizer.entropy_ns_per_sample": ratio(
            entropy_s, c.get("entropy_samples", 0), 1e9),
        "simloop.run_calls": t.calls("simloop.run"),
        "simloop.run_s": run_s,
        "simloop.run_self_s": t.self_total("simloop.run"),
        "simloop.us_per_step": ratio(run_s, c.get("steps", 0), 1e6),
        "simloop.sweep_self_s": t.self_total("simloop.sweep"),
        "simloop.tradeoff_point_s": t.total("simloop.tradeoff_point"),
        "bounds.lower_calls": t.calls(*lower),
        "bounds.lower_us": _per_call_us(t, *lower),
        "bounds.upper_calls": t.calls("bounds.entropy_cost_upper"),
        "bounds.upper_us": _per_call_us(t, "bounds.entropy_cost_upper"),
        "bounds.projected_us": _per_call_us(t, *projected),
        "bounds.lowrank_us": _per_call_us(t, *lowrank),
        "bounds.lowrank_unconverged": c.get("lowrank_unconverged", 0),
        "cli.load_config_s": t.total("cli.load_config"),
        "cli.command_self_s": t.self_total("cli.main"),
        "cli.render_svg_s": t.total("cli.render_svg"),
        "cli.emit_s": t.total("cli.emit_points", "cli.write"),
    }
