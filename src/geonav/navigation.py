"""Navigation engines: repeated sector-nearest hops from a start toward a
target (or in a fixed direction), over one immutable point set.

Eight kinds are supported.  The cross kinds (``yao``/``t``) aim each hop
along the bisector of the fixed global sector containing the target; the
straight kinds re-aim the sector axis at the target from every stop; the
directed kinds keep a constant axis and ignore any target; the random-north
kinds are cross kinds whose sector axes are rotated by a per-point random
offset.  Yao-family decision domains are disk-capped (hop = closest point),
T-family domains are projection-capped (hop = smallest advance along the
axis).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import EPS, TWO_PI, as_point, sector_of_angle, whole_number
from .points import PointSet, nearest_in_sector

__all__ = [
    "NavKind", "NavSpec", "PathRecord", "CostReport",
    "next_stop", "run", "run_directed", "costs", "stage_samples", "in_guarded_range",
]


class NavKind(str, Enum):
    YAO = "yao"
    THETA = "t"
    STRAIGHT_YAO = "straight-yao"
    STRAIGHT_THETA = "straight-t"
    DIRECTED_THETA = "directed-t"
    DIRECTED_YAO = "directed-y"
    RANDOM_NORTH_THETA = "random-north-t"
    RANDOM_NORTH_YAO = "random-north-y"


CROSS_KINDS = {NavKind.YAO, NavKind.THETA}
STRAIGHT_KINDS = {NavKind.STRAIGHT_YAO, NavKind.STRAIGHT_THETA}
DIRECTED_KINDS = {NavKind.DIRECTED_THETA, NavKind.DIRECTED_YAO}
NORTH_KINDS = {NavKind.RANDOM_NORTH_THETA, NavKind.RANDOM_NORTH_YAO}
DISK_KINDS = {NavKind.YAO, NavKind.STRAIGHT_YAO, NavKind.DIRECTED_YAO,
              NavKind.RANDOM_NORTH_YAO}

# Angle ranges with a guaranteed strictly-approaching, terminating run on
# point sets in general position, as (upper end, closed).  A closed end
# tolerates hand-rounded angles such as 1.5708 (a relative 1e-5); the open
# end stops EPS short.  Outside these, runs are permitted but flagged
# unguaranteed, and limits.check_theta refuses the angle.
_GUARDED_RANGES = {
    NavKind.YAO: (math.pi / 3.0, True),
    NavKind.THETA: (math.pi / 3.0, True),
    NavKind.STRAIGHT_YAO: (math.pi / 2.0, False),
    NavKind.STRAIGHT_THETA: (math.pi / 2.0, True),
    NavKind.DIRECTED_THETA: (math.pi, True),
    NavKind.DIRECTED_YAO: (math.pi / 2.0, True),
    NavKind.RANDOM_NORTH_THETA: (math.pi / 3.0, True),
    NavKind.RANDOM_NORTH_YAO: (math.pi / 3.0, True),
}


def in_guarded_range(kind: NavKind, theta: float) -> bool:
    """Whether ``theta`` lies in the guarded angle range of ``kind``."""
    lim, closed = _GUARDED_RANGES[kind]
    return 0.0 < theta <= lim * (1.0 + 1e-5) if closed else 0.0 < theta < lim - EPS


@dataclass(frozen=True)
class NavSpec:
    """Navigation kind plus its sector angle.

    Cross and random-north kinds take ``p_theta`` (the angle is
    ``2*pi/p_theta``); straight and directed kinds take ``theta`` directly
    and refuse a ``p_theta``.
    ``alpha`` (finite) is the constant axis of directed kinds; ``north_seed``
    (whole, >= 0) seeds the per-point axis offsets of random-north kinds;
    ``max_steps`` (whole, >= 1) overrides the point set's step budget.
    """

    kind: NavKind
    theta: float | None = None
    p_theta: int | None = None
    alpha: float = 0.0
    north_seed: int | None = None
    max_steps: int | None = None

    def __post_init__(self):
        kind = NavKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in CROSS_KINDS or kind in NORTH_KINDS:
            object.__setattr__(self, "p_theta", whole_number("p_theta", self.p_theta, 3))
            object.__setattr__(self, "theta", TWO_PI / self.p_theta)
        else:
            if self.theta is None or not 0.0 < self.theta < TWO_PI:
                raise ValueError(f"{kind.value} needs theta in (0, 2*pi)")
            if self.p_theta is not None:
                raise ValueError(f"{kind.value} takes theta, not p_theta")
            if kind not in DISK_KINDS and not self.theta <= math.pi + EPS:
                # the projection cap needs tan(theta/2) >= 0
                raise ValueError(f"{kind.value} needs theta <= pi")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if kind in NORTH_KINDS and self.north_seed is None:
            object.__setattr__(self, "north_seed", 0)
        for name, minimum in (("north_seed", 0), ("max_steps", 1)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, whole_number(name, getattr(self, name), minimum))

    @property
    def shape(self) -> str:
        return "disk" if self.kind in DISK_KINDS else "triangle"

    @property
    def guarded(self) -> bool:
        return in_guarded_range(self.kind, self.theta)


@dataclass
class PathRecord:
    """All stops of one run, start first.

    ``success`` means the target was reached; directed runs carry an
    ``exit_reason`` instead (``step-limit``, ``sector-empty``,
    ``left-inset``); targeted failures use ``max-steps`` or ``cycle``.
    """

    stops: np.ndarray            # (m, 2)
    target: complex | None
    success: bool
    exit_reason: str
    stop_ids: list = field(default_factory=list)   # point ids, -1 = target/start

    def __post_init__(self):
        self.stops = np.asarray(self.stops, dtype=float).reshape(-1, 2)

    @property
    def nb(self) -> int:
        return len(self.stops) - 1

    @property
    def stages(self) -> np.ndarray:
        return np.diff(self.stops, axis=0)

    @property
    def stage_lengths(self) -> np.ndarray:
        st = self.stages
        return np.hypot(st[:, 0], st[:, 1])

    @property
    def length(self) -> float:
        return float(self.stage_lengths.sum())

    @property
    def max_stage(self) -> float:
        ls = self.stage_lengths
        return float(ls.max()) if len(ls) else 0.0

    def dist_to_target(self) -> np.ndarray:
        if self.target is None:
            raise ValueError("directed record has no target")
        return np.hypot(self.stops[:, 0] - self.target.real,
                        self.stops[:, 1] - self.target.imag)

    def monotone_approach(self) -> bool:
        d = self.dist_to_target()
        return bool((np.diff(d) < 0.0).all())


@dataclass(frozen=True)
class CostReport:
    exponents: tuple
    values: tuple


def norths_for(ps: PointSet, seed: int) -> np.ndarray:
    """Per-point axis offsets, drawn once per (point set, seed) and cached.

    One extra draw at the end: the offset used at a start position that is
    not itself a stored point.
    """
    cache = ps.__dict__.setdefault("_north_cache", {})
    if seed not in cache:
        cache[seed] = np.random.default_rng(seed).uniform(0.0, TWO_PI, len(ps) + 1)
    return cache[seed]


def _aim(spec: NavSpec, pos: complex, pos_id: int, t: complex | None,
         norths: np.ndarray | None) -> float:
    """Bisector direction of the decision domain at the current stop."""
    kind = spec.kind
    if kind in DIRECTED_KINDS:
        return spec.alpha
    d = t - pos
    if kind in STRAIGHT_KINDS:
        return cmath.phase(d)
    theta = spec.theta
    offset = 0.0
    if kind in NORTH_KINDS:
        offset = float(norths[pos_id] if pos_id >= 0 else norths[-1])
    return offset + sector_of_angle(cmath.phase(d) - offset, theta, spec.p_theta) * theta


def _hop(spec: NavSpec, pos: complex, pos_id: int, t: complex | None,
         ps: PointSet, norths: np.ndarray | None):
    nu = _aim(spec, pos, pos_id, t, norths)
    extra = None if spec.kind in DIRECTED_KINDS else t
    got = nearest_in_sector(ps, pos, nu, spec.theta / 2.0, spec.shape, extra=extra)
    if got is None:
        return pos, pos_id          # empty sector: directed navigation halts
    point, _, pid = got
    return point, pid


def next_stop(spec: NavSpec, s, t, ps: PointSet, norths=None) -> complex:
    """Single decision from ``s``: the point the traveller hops to next.

    For targeted kinds the target takes part in the decision set, so an empty
    point set simply yields ``t``; directed kinds return ``s`` itself when
    their sector is empty.
    """
    s = as_point(s)
    t = None if t is None else as_point(t)
    if spec.kind in NORTH_KINDS and norths is None:
        norths = norths_for(ps, spec.north_seed)
    pos_id = ps.id_of(s)
    point, _ = _hop(spec, s, pos_id, t, ps, norths)
    return point


def _default_max_steps(ps: PointSet) -> int:
    return max(64, math.ceil(50.0 * math.sqrt(ps.rate) * ps.density.domain.diameter))


def run(spec: NavSpec, s, t, ps: PointSet) -> PathRecord:
    """Full targeted run from ``s`` until ``t`` is reached or the engine
    detects failure (step budget exhausted, or a position revisited)."""
    if spec.kind in DIRECTED_KINDS:
        raise ValueError("use run_directed for directed kinds")
    s = as_point(s)
    t = as_point(t)
    norths = norths_for(ps, spec.north_seed) if spec.kind in NORTH_KINDS else None
    stops = [s]
    ids = [ps.id_of(s)]
    if s == t:
        return PathRecord(np.array([[s.real, s.imag]]), t, True, "reached", ids)
    limit = spec.max_steps or _default_max_steps(ps)
    seen = {(s.real, s.imag)}
    pos, pos_id = s, ids[0]
    reason = "max-steps"
    success = False
    for _ in range(limit):
        pos, pos_id = _hop(spec, pos, pos_id, t, ps, norths)
        stops.append(pos)
        ids.append(pos_id)
        if pos == t:
            success = True
            reason = "reached"
            break
        key = (pos.real, pos.imag)
        if key in seen:
            reason = "cycle"
            break
        seen.add(key)
    arr = np.array([[z.real, z.imag] for z in stops])
    return PathRecord(arr, t, success, reason, ids)


def run_directed(spec: NavSpec, s, ps: PointSet, stop_after: int | None = None) -> PathRecord:
    """Directed run: fixed axis, no target.  Stops at the step budget, on an
    empty sector, or upon leaving the inset domain."""
    if spec.kind not in DIRECTED_KINDS:
        raise ValueError("run_directed is only for directed kinds")
    s = as_point(s)
    budget = stop_after if stop_after is not None else (spec.max_steps or _default_max_steps(ps))
    inset = ps.density.inset_a
    stops = [s]
    ids = [ps.id_of(s)]
    pos, pos_id = s, ids[0]
    reason = "step-limit"
    for _ in range(budget):
        nxt, nxt_id = _hop(spec, pos, pos_id, None, ps, None)
        if nxt == pos:
            reason = "sector-empty"
            break
        pos, pos_id = nxt, nxt_id
        stops.append(pos)
        ids.append(pos_id)
        if not ps.density.domain.contains(pos, inset):
            reason = "left-inset"
            break
    arr = np.array([[z.real, z.imag] for z in stops])
    return PathRecord(arr, None, False, reason, ids)


def costs(record: PathRecord, exponents) -> CostReport:
    """Per-exponent power costs sum(|stage|^g); g=0 counts stages, g=1 is the
    path length."""
    ls = record.stage_lengths
    vals = []
    for g in exponents:
        if g < 0:
            raise ValueError("exponents must be >= 0")
        if g == 0:
            vals.append(float(len(ls)))
        elif g == 1:
            vals.append(float(ls.sum()))
        else:
            vals.append(float((ls ** g).sum()))
    return CostReport(tuple(exponents), tuple(vals))


def stage_samples(kind: NavKind, theta: float, count: int, seed: int,
                  intensity: float = 1.0) -> np.ndarray:
    """Direct sampler of the single-hop law of a directed navigation on a
    homogeneous process, bypassing point sets.

    T-family: the advance along the axis satisfies
    P(x > r) = exp(-intensity * r^2 * tan(theta/2)) and the offset is
    x * U(-tan(theta/2), tan(theta/2)).  Yao-family: the hop length satisfies
    P(l > r) = exp(-intensity * r^2 * theta / 2) with a uniform angle in
    [-theta/2, theta/2].  Returns (count, 2) hops in the axis frame.
    """
    kind = NavKind(kind)
    if count < 1:
        raise ValueError("count must be >= 1")
    if intensity <= 0.0:
        raise ValueError("intensity must be > 0")
    rng = np.random.default_rng(seed)
    e = rng.exponential(size=count)
    if kind in DISK_KINDS:
        l = np.sqrt(2.0 * e / theta)
        ang = rng.uniform(-theta / 2.0, theta / 2.0, size=count)
        x = l * np.cos(ang)
        y = l * np.sin(ang)
    else:
        tb = math.tan(theta / 2.0)
        x = np.sqrt(e / tb)
        y = x * rng.uniform(-tb, tb, size=count)
    out = np.column_stack([x, y])
    return out / math.sqrt(intensity)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def record_to_dict(record: PathRecord) -> dict:
    return {
        "nb": record.nb,
        "length": record.length,
        "max_stage": record.max_stage,
        "success": record.success,
        "exit_reason": record.exit_reason,
        "stops": [[float(x), float(y)] for x, y in record.stops],
    }
