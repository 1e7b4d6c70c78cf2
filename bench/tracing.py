"""In-memory span tracing of geonav's layers, installed from outside the package.

A traced run replaces public functions at the module attributes their callers
look up (``geonav.harness.predict_cost``, ``geonav.navigation.nearest_in_sector``
and so on) with wrappers that record one span per call: name, start, end,
parent span and op id, plus a few per-call counts taken from the arguments or
the result.  Spans stay in memory until the run ends; ``layer_metrics`` turns
them into the per-layer figures and ``self_time_shares`` into each span's
share of the timed ops' wall time.

``DensitySpec.at`` is not wrapped: it runs once per Euler step, so a wrapper
would cost more than the call it measures.  Density work shows up inside the
``limits`` spans instead.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field

# (module, attribute, span name): every place a caller looks a layer up.
# harness imports its collaborators by name, so the harness copies are the
# ones a sweep calls; the benchmark itself calls through the defining module.
PATCH_POINTS = [
    ("geonav.points", "GridIndex", "points.grid_index"),
    ("geonav.points", "sample_ppp", "points.sample_ppp"),
    ("geonav.harness", "sample_ppp", "points.sample_ppp"),
    ("geonav.navigation", "nearest_in_sector", "points.nearest_in_sector"),
    ("geonav.points", "navmax", "points.navmax"),
    ("geonav.harness", "navmax", "points.navmax"),
    ("geonav.points", "maxball", "points.maxball"),
    ("geonav.points", "r_min", "points.r_min"),
    ("geonav.navigation", "run", "navigation.run"),
    ("geonav.harness", "run", "navigation.run"),
    ("geonav.navigation", "run_directed", "navigation.run_directed"),
    ("geonav.harness", "predict_straight", "limits.predict_path"),
    ("geonav.harness", "predict_cross", "limits.predict_path"),
    ("geonav.harness", "predict_cost", "limits.predict_cost"),
    ("geonav.limits", "euler_solve", "limits.euler_solve"),
    ("geonav.limits", "hit_time", "limits.hit_time"),
    ("geonav.harness", "hausdorff_distance", "geometry.hausdorff_distance"),
    ("geonav.harness", "run_experiment", "harness.run_experiment"),
    ("geonav.harness", "write_csv", "harness.write_csv"),
]


def _lattice_len(lo: float, hi: float, step: float) -> int:
    # the diagnostics' lattice: arange(lo, hi + 1e-9, step)
    return int(math.floor((hi + 1e-9 - lo) / step)) + 1 if hi + 1e-9 > lo else 0


def _counts(name: str, args, kwargs, out) -> dict:
    """Work done by one call, read from its arguments and result."""
    if name == "points.sample_ppp":
        return {"points": len(out)}
    if name == "points.nearest_in_sector":
        half = kwargs.get("half_angle", args[3] if len(args) > 3 else None)
        shape = kwargs.get("shape", args[4] if len(args) > 4 else None)
        # a triangle query with a half-pi half-angle is the half-plane: the
        # ring scan has no early exit there and reads every point
        return {"halfplane": int(shape == "triangle" and half >= 0.5 * math.pi - 1e-12)}
    if name in ("navigation.run", "navigation.run_directed"):
        return {"hops": out.nb}
    if name == "limits.euler_solve":
        return {"steps": len(out.times) - 1}
    if name == "points.navmax":
        ps = args[0]
        step = kwargs.get("grid_step", args[2] if len(args) > 2 else None)
        inset = ps.density.domain.inset(ps.density.inset_a)
        return {"apexes": _lattice_len(inset.x0, inset.x1, step)
                * _lattice_len(inset.y0, inset.y1, step)}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int | None
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds the spans of one run and the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: int | None = None     # None during set-up
        self._undo = []

    def install(self) -> None:
        for mod_name, attr, name in PATCH_POINTS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            setattr(mod, attr, self._wrap(orig, name))
            self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            span.counts = _counts(name, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (calls are sequential, so children never overlap)."""
        out = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.dur
        return out

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.op, s.counts] for s in self.spans]


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """The per-layer figures of one traced run (0 where the workload never
    enters the layer)."""
    spans = tracer.spans
    selfs = tracer.self_times()
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)

    def durs(name, pred=lambda s: True):
        return [spans[i].dur for i in by.get(name, []) if pred(spans[i])]

    def count(name, key, pred=lambda s: True):
        return sum(spans[i].counts.get(key, 0) for i in by.get(name, []) if pred(spans[i]))

    def in_op(s):
        return s.op is not None

    def ratio(a, b):
        return a / b if b else 0.0

    halfplane = lambda s: s.counts.get("halfplane", 0) == 1  # noqa: E731
    regular = lambda s: s.counts.get("halfplane", 0) == 0    # noqa: E731
    pairs = len(by.get("limits.predict_path", []))
    run_hops = count("navigation.run", "hops")
    run_time = sum(durs("navigation.run"))
    # run's own work: its span minus the nearest_in_sector calls under it
    run_query = sum(s.dur for s in spans if s.name == "points.nearest_in_sector"
                    and s.parent >= 0 and spans[s.parent].name == "navigation.run")
    euler_steps = count("limits.euler_solve", "steps")
    euler_time = sum(durs("limits.euler_solve"))
    sample_time = sum(durs("points.sample_ppp"))
    navmax_time = sum(durs("points.navmax"))
    predict = durs("limits.predict_path") + durs("limits.predict_cost")
    return {
        "points.sample_ppp.ms": 1e3 * _mean(durs("points.sample_ppp")),
        "points.sample_ppp.points_per_s": ratio(count("points.sample_ppp", "points"), sample_time),
        "points.grid_index.ms": 1e3 * _mean(durs("points.grid_index")),
        "points.nearest_in_sector.calls": ratio(
            len(durs("points.nearest_in_sector", in_op)), n_ops),
        "points.nearest_in_sector.us": 1e6 * _mean(durs("points.nearest_in_sector", regular)),
        "points.nearest_in_sector.halfplane_ms": 1e3 * _mean(
            durs("points.nearest_in_sector", halfplane)),
        "points.navmax.ms": 1e3 * _mean(durs("points.navmax")),
        "points.navmax.apexes_per_s": ratio(count("points.navmax", "apexes"), navmax_time),
        "points.maxball.ms": 1e3 * _mean(durs("points.maxball")),
        "points.r_min.ms": 1e3 * _mean(durs("points.r_min")),
        "navigation.run.hops": ratio(run_hops, n_ops),
        "navigation.run.us_per_hop": 1e6 * ratio(run_time, run_hops),
        "navigation.run.self_us_per_hop": 1e6 * ratio(run_time - run_query, run_hops),
        "navigation.run_directed.us_per_hop": 1e6 * ratio(
            sum(durs("navigation.run_directed")), count("navigation.run_directed", "hops")),
        "limits.predict.ms_per_pair": 1e3 * ratio(sum(predict), pairs),
        "limits.euler_solve.calls_per_pair": ratio(len(durs("limits.euler_solve")), pairs),
        "limits.euler_solve.steps_per_pair": ratio(euler_steps, pairs),
        "limits.euler_solve.us_per_step": 1e6 * ratio(euler_time, euler_steps),
        "limits.hit_time.calls_per_pair": ratio(len(durs("limits.hit_time")), pairs),
        "limits.hit_time.ms": 1e3 * _mean(durs("limits.hit_time")),
        "geometry.hausdorff_distance.ms": 1e3 * _mean(durs("geometry.hausdorff_distance")),
        "harness.run_experiment.self_ms": 1e3 * _mean(
            [selfs[i] for i in by.get("harness.run_experiment", [])]),
        "harness.write_csv.ms": 1e3 * _mean(durs("harness.write_csv")),
    }


def self_time_shares(tracer: Tracer, op_total: float) -> dict:
    """Share of the timed ops' wall time spent in each span's own code, by
    span name.  What no span covers (the benchmark's loop and whatever the
    ops do between traced calls) is ``untraced``."""
    shares: dict[str, float] = {}
    covered = 0.0
    for s, own in zip(tracer.spans, tracer.self_times()):
        if s.op is None:
            continue
        shares[s.name] = shares.get(s.name, 0.0) + own
        if s.parent < 0:
            covered += s.dur
    shares["untraced"] = op_total - covered
    return {k: v / op_total for k, v in sorted(shares.items())} if op_total else {}
