"""In-memory spans around the public functions of each minmaxloc layer.

A :class:`Tracer` replaces module attributes with wrappers that record one
span per call: name, start, end and the span that was open when the call
began.  Nothing inside the package is edited; every caller that looks the
function up through its module (``central.solve``, ``dist.iterate_node``,
...) goes through the wrapper while the tracer is installed.  A hook whose
attribute no longer exists is reported as absent and the run goes on, so the
benchmark keeps working when a later change removes or renames a function.

``sdp.solve`` is also timed phase by phase through its public ``callback``
argument, which the solver calls once at the start of every iteration: the
time to the first callback covers compilation and the initial residuals, and
the gaps between callbacks are Newton steps.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import defaultdict
from typing import Callable, Dict, List

# (module, attribute, span name).  The same function is often reachable
# under several names (``central.solve`` and ``dist.solve`` are both
# ``sdp.solve``); each binding is wrapped so every call site is seen.
HOOKS = (
    ("minmaxloc.model", "generate_scenario", "model.generate_scenario"),
    ("minmaxloc.model", "apply_errors", "model.apply_errors"),
    ("minmaxloc.experiment", "generate_scenario", "model.generate_scenario"),
    ("minmaxloc.experiment", "apply_errors", "model.apply_errors"),
    ("minmaxloc.sdp", "solve", "sdp.solve"),
    ("minmaxloc.central", "solve", "sdp.solve"),
    ("minmaxloc.dist", "solve", "sdp.solve"),
    ("minmaxloc.central", "solve_minmax_sdp", "central.solve_minmax_sdp"),
    ("minmaxloc.central", "assemble_dual_sdp", "central.assemble_dual_sdp"),
    ("minmaxloc.central", "recover_estimate", "central.recover_estimate"),
    ("minmaxloc.dist", "run_dis_minmax", "dist.run_dis_minmax"),
    ("minmaxloc.dist", "propagate_distance_bounds", "dist.propagate_distance_bounds"),
    ("minmaxloc.dist", "initial_estimate", "dist.initial_estimate"),
    ("minmaxloc.dist", "iterate_node", "dist.iterate_node"),
    ("minmaxloc.geom", "grid_chebyshev_center", "geom.grid_chebyshev_center"),
    ("minmaxloc.geom", "project_to_region", "geom.project_to_region"),
    ("minmaxloc.geom", "grid_max_distance", "geom.grid_max_distance"),
    ("minmaxloc.geom", "relaxed_center_value", "geom.relaxed_center_value"),
    ("minmaxloc.experiment", "run_experiment", "experiment.run_experiment"),
    ("minmaxloc.experiment", "baseline_least_squares", "experiment.baseline_least_squares"),
)

# Per-layer metrics: name -> (unit, better).  Times are seconds per pass,
# counts are per pass; see README.md for what each one should move.
LAYER_METRICS = {
    "model.scenario_s": ("s", "lower"),
    "central.assemble_s": ("s", "lower"),
    "central.recover_s": ("s", "lower"),
    "sdp.solve_calls": ("count", "lower"),
    "sdp.iterations": ("count", "lower"),
    "sdp.solve_s": ("s", "lower"),
    "sdp.setup_s": ("s", "lower"),
    "sdp.iter_s": ("s", "lower"),
    "dist.propagate_s": ("s", "lower"),
    "dist.initial_s": ("s", "lower"),
    "dist.iterate_s": ("s", "lower"),
    "dist.rounds": ("count", "lower"),
    "dist.iterate_calls": ("count", "lower"),
    "dist.updated_nodes": ("count", "higher"),
    "dist.messages": ("count", "lower"),
    "geom.chebyshev_s": ("s", "lower"),
    "geom.project_s": ("s", "lower"),
    "geom.max_distance_s": ("s", "lower"),
    "geom.relaxed_s": ("s", "lower"),
    "geom.grid_points": ("count", "lower"),
    "experiment.trial_s": ("s", "lower"),
    "experiment.baseline_s": ("s", "lower"),
    "experiment.baseline_iterations": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.absent_hooks": ("count", "lower"),
}

COUNT_METRICS = tuple(k for k, (unit, _) in LAYER_METRICS.items() if unit == "count")

# Inclusive span time per pass that each timed layer metric reports.
_INCLUSIVE = {
    "central.assemble_s": "central.assemble_dual_sdp",
    "central.recover_s": "central.recover_estimate",
    "dist.propagate_s": "dist.propagate_distance_bounds",
    "dist.initial_s": "dist.initial_estimate",
    "dist.iterate_s": "dist.iterate_node",
    "geom.chebyshev_s": "geom.grid_chebyshev_center",
    "geom.project_s": "geom.project_to_region",
    "geom.max_distance_s": "geom.grid_max_distance",
    "geom.relaxed_s": "geom.relaxed_center_value",
    "experiment.baseline_s": "experiment.baseline_least_squares",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "attrs")

    def __init__(self, name: str, start: float, parent: int, phase: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.attrs: Dict[str, float] = {}

    def to_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "phase": self.phase,
            **self.attrs,
        }


class Tracer:
    """Span recorder plus the module patches that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self.phase = "setup"
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for mod_name, attr, span_name in HOOKS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self._mark_absent(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def _mark_absent(self, label: str) -> None:
        if label not in self.absent:
            self.absent.append(label)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, parent, self.phase)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, original: Callable) -> Callable:
        if name == "sdp.solve":
            if "callback" in inspect.signature(original).parameters:
                return self._wrap_solve(original)
            self._mark_absent("sdp.solve(callback)")
        extra = _ATTRS.get(name)
        signature = inspect.signature(original) if extra is not None else None

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if extra is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra(span, result, bound.arguments)
                except (AttributeError, KeyError, TypeError):
                    # A changed signature or result type: the span stays,
                    # its counts are reported absent.
                    self._mark_absent(f"{name}(counts)")
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_solve(self, original: Callable) -> Callable:
        def wrapper(problem, config=None, callback=None):
            stamps: List[float] = []

            def timed(info):
                stamps.append(time.perf_counter())
                if callback is not None:
                    callback(info)

            span = self._open("sdp.solve")
            try:
                sol = original(problem, config, callback=timed)
            finally:
                self._close(span)
            span.attrs["iterations"] = getattr(sol, "iterations", 0)
            if stamps:
                span.attrs["setup_s"] = stamps[0] - span.start
                span.attrs["steps"] = len(stamps) - 1
                span.attrs["steps_s"] = stamps[-1] - stamps[0]
            return sol

        wrapper.__wrapped__ = original
        return wrapper

    # -- analysis -------------------------------------------------------

    def self_times(self) -> List[float]:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def summary(self) -> Dict[str, dict]:
        """Calls, inclusive and self seconds per span name, per phase."""
        out: Dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            rec = out.setdefault(f"{s.phase}/{s.name}", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += s.end - s.start
            rec["self_s"] += own
        return out

    def phase_metrics(self, phase: str) -> Dict[str, float]:
        """Per-layer metrics of the spans recorded in one phase."""
        own = self.self_times()
        total: Dict[str, float] = defaultdict(float)
        selfs: Dict[str, float] = defaultdict(float)
        attrs: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for s, t_self in zip(self.spans, own):
            if s.phase != phase:
                continue
            total[s.name] += s.end - s.start
            selfs[s.name] += t_self
            calls[s.name] += 1
            for k, v in s.attrs.items():
                attrs[f"{s.name}.{k}"] += v
        m: Dict[str, float] = {k: total[v] for k, v in _INCLUSIVE.items()}
        m["model.scenario_s"] = total["model.generate_scenario"] + total["model.apply_errors"]
        m["sdp.solve_calls"] = calls["sdp.solve"]
        m["sdp.iterations"] = attrs["sdp.solve.iterations"]
        m["sdp.solve_s"] = selfs["sdp.solve"]
        m["sdp.setup_s"] = attrs["sdp.solve.setup_s"]
        steps = attrs["sdp.solve.steps"]
        m["sdp.iter_s"] = attrs["sdp.solve.steps_s"] / steps if steps else 0.0
        m["dist.rounds"] = attrs["dist.run_dis_minmax.rounds"]
        m["dist.messages"] = attrs["dist.run_dis_minmax.messages"]
        m["dist.iterate_calls"] = calls["dist.iterate_node"]
        m["dist.updated_nodes"] = attrs["dist.iterate_node.updated"]
        m["geom.grid_points"] = sum(
            attrs[f"{name}.grid_points"] for name in _GEOM_NAMES
        )
        trials = attrs["experiment.run_experiment.trials"]
        m["experiment.trial_s"] = total["experiment.run_experiment"] / trials if trials else 0.0
        m["experiment.baseline_iterations"] = attrs[
            "experiment.baseline_least_squares.iterations"
        ]
        return {k: int(v) if k in COUNT_METRICS else v for k, v in m.items()}

    def to_json(self) -> dict:
        return {
            "absent": list(self.absent),
            "summary": self.summary(),
            "spans": [s.to_dict(i) for i, s in enumerate(self.spans)],
        }


# -- per-call attributes read from arguments and results ---------------------


def _iterate_attrs(span, result, arguments):
    own = arguments.get("own")
    changed = own is None or (
        result.estimate != own.estimate or result.radius_sq != own.radius_sq
    )
    span.attrs["updated"] = 1 if changed else 0


def _run_attrs(span, result, arguments):
    span.attrs["rounds"] = len(result.rounds) - 1
    span.attrs["messages"] = sum(r.messages for r in result.rounds)


def _baseline_attrs(span, result, arguments):
    span.attrs["iterations"] = result.iterations


def _experiment_attrs(span, result, arguments):
    span.attrs["trials"] = len(result.trials)


def _grid_attrs(span, result, arguments):
    span.attrs["grid_points"] = grid_points(
        arguments["reg"], arguments.get("bbox"), arguments["resolution"]
    )


def grid_points(reg, bbox, resolution: float) -> int:
    """Points of the grid a geom call enumerates, from its box and step."""
    from minmaxloc import geom

    if bbox is None:
        bbox = geom.default_bbox(reg, resolution)
    (xlo, xhi), (ylo, yhi) = bbox
    nx = int(math.floor((xhi - xlo) / resolution + 1e-9)) + 1
    ny = int(math.floor((yhi - ylo) / resolution + 1e-9)) + 1
    return nx * ny


_GEOM_NAMES = (
    "geom.grid_chebyshev_center",
    "geom.project_to_region",
    "geom.grid_max_distance",
    "geom.relaxed_center_value",
)

_ATTRS = {
    "dist.iterate_node": _iterate_attrs,
    "dist.run_dis_minmax": _run_attrs,
    "experiment.baseline_least_squares": _baseline_attrs,
    "experiment.run_experiment": _experiment_attrs,
    **{name: _grid_attrs for name in _GEOM_NAMES},
}
