"""Closed-form limit constants and numerically integrated limit curves.

At intensity ``n*f`` every hop shrinks like ``1/sqrt(n*f(z))``, so after
rescaling time by ``sqrt(n)`` the traveller position follows the flow

    rho'(x) = lam * e^{i*nu} / sqrt(f(rho(x)))

for a speed constant ``lam`` that depends on the navigation kind, and an
accumulated power cost follows the coupled equation
``C'(x) = q / f(rho(x))^{g/2}`` with ``q`` the mean ``|hop|^g`` at unit
intensity.  This module evaluates the speed/stretch constants, solves the
flow with an explicit Euler scheme, and combines both into per-pair
predictions of path length, stage count, and power costs.  Every Euler walk
has one stop, its target: ``euler_solve(spec, target)`` integrates until the
walk crosses it.  Every walk has a budget of ten million steps, and one
whose length alone shows it cannot end within that is refused before its
first step.

Every constant a prediction uses is exact: closed forms, and for the hop
moments ``q`` of the projection-capped family at g outside {0, 1, 2} a
fixed Gauss-Legendre rule (``hop_moment``).  No prediction samples.
``mc_constants`` estimates the same hop laws by Monte Carlo from
``navigation.stage_samples``, with standard errors; it is kept as an
independent oracle for the closed forms.

One leg rule (``_legs``) gives the shape of every limit trajectory: the
segment ``[s, t]`` for straight and random-north kinds, or the two legs
through the corner for cross kinds, each leg with its own ``(lam, q)``
constants.  ``predict_straight`` and ``predict_cross`` share one body over
those legs: the length is the sum of ``q * |leg|``, the stage count the sum
of the legs' hitting times, and the curve the legs' Euler walks glued end to
end.  ``predict_cost`` walks the same legs once for all exponents.
``euler_solve`` and ``predict_cost`` step through one kernel (``_walk``),
which records the density at each iterate and builds the position curve only
for ``euler_solve``; each exponent's cost is folded from those densities
after the walk, in the order an accumulator carried through the steps would
add them, so it is the same float.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .density import DensitySpec
from .errors import (GammaLeavesInset, OutOfRangeTheta, SegmentLeavesDomain,
                     StepOutOfDomain)
from .geometry import CrossParams, as_point, corner_point, gamma_path
from .navigation import NavKind, stage_samples

__all__ = [
    "ConstantsRow", "constants", "McConstants", "mc_constants",
    "OdeSpec", "LimitCurve", "euler_solve", "hit_time", "predict_straight",
    "predict_cross", "predict_cost", "check_theta",
    "limit_path_in_inset",
]


# -- closed forms (unit-intensity hop laws) ---------------------------------

def _c_bis_t(theta: float) -> float:
    """Mean advance along the axis, projection-capped domain."""
    return 0.5 * math.sqrt(math.pi / math.tan(theta / 2.0))


def _q_bis_t(theta: float) -> float:
    """Mean |hop| / mean advance along the axis, projection-capped domain."""
    b = theta / 2.0
    return 0.5 * (1.0 / math.cos(b) + math.asinh(math.tan(b)) / math.tan(b))


def _c_bor_t(theta: float) -> float:
    """Mean advance along the first border, projection-capped domain."""
    b = theta / 2.0
    return math.sqrt(math.pi * math.cos(b) ** 3 / (4.0 * math.sin(b)))


def _q_bor_t(theta: float) -> float:
    b = theta / 2.0
    return 0.5 * (1.0 / math.cos(b) ** 2 + math.asinh(math.tan(b)) / math.sin(b))


def _e_l_dy(theta: float) -> float:
    """Mean hop length, disk-capped domain."""
    return math.sqrt(math.pi / (2.0 * theta))


def _c_bis_y(theta: float) -> float:
    return math.sqrt(2.0 * math.pi) * math.sin(theta / 2.0) / theta ** 1.5


def _c_bor_y(theta: float) -> float:
    return math.sqrt(math.pi / 2.0) * math.sin(theta) / theta ** 1.5


def _q_bis_y(theta: float) -> float:
    return (theta / 2.0) / math.sin(theta / 2.0)


def _q_bor_y(theta: float) -> float:
    return theta / math.sin(theta)


_T_FAMILY = {NavKind.THETA, NavKind.STRAIGHT_THETA, NavKind.DIRECTED_THETA,
             NavKind.RANDOM_NORTH_THETA}


@functools.cache
def _gauss_legendre() -> tuple:
    """The fixed 40-node Gauss-Legendre rule on [-1, 1] (Golub & Welsch
    1969), built on first use: numpy imports ``numpy.polynomial`` lazily, and
    that import costs about 2 MB of memory."""
    return np.polynomial.legendre.leggauss(40)


def hop_moment(kind, theta: float, g: float) -> float:
    """E(|hop|^g) at unit intensity from the exact hop law, never sampled.

    Disk-capped hops have ``|hop| = sqrt(2*E/theta)`` for an Exp(1) variable
    E, giving ``(2/theta)^{g/2} * Gamma(1 + g/2)`` for every g >= 0.
    Projection-capped hops advance ``x`` with ``P(x > r) = exp(-r^2 tan b)``,
    ``b = theta/2``, and step aside ``x*U(-tan b, tan b)``, so
    ``E|hop|^g = Gamma(1 + g/2) * tan(b)^{-g/2} * I`` with
    ``I = int_0^1 (1 + tan^2(b) u^2)^{g/2} du = 2F1(-g/2, 1/2; 3/2; -tan^2 b)``
    (Abramowitz & Stegun 15.1).  The family has simple closed forms at g in
    {0, 1, 2}; at any other g a fixed 40-node Gauss-Legendre rule takes
    ``I``, within 1e-13 relative of the exact value for g <= 30 and
    theta <= pi/2.  Raises ValueError unless g is finite and >= 0 and the
    moment is a finite float.
    """
    if not 0.0 <= g < math.inf:
        raise ValueError(f"g must be finite and >= 0, got {g!r}")
    if g == 0:
        return 1.0
    try:
        if NavKind(kind) not in _T_FAMILY:
            val = (2.0 / theta) ** (g / 2.0) * math.gamma(1.0 + g / 2.0)
        elif g == 1:
            val = _c_bis_t(theta) * _q_bis_t(theta)
        elif g == 2:
            b = theta / 2.0
            val = (1.0 + math.tan(b) ** 2 / 3.0) / math.tan(b)
        else:
            tb = math.tan(theta / 2.0)
            nodes, weights = _gauss_legendre()
            # the integrand is even in u: I is half the rule's sum on [-1, 1]
            stretch = 0.5 * float(weights @ (1.0 + tb * tb * nodes ** 2) ** (g / 2.0))
            val = math.gamma(1.0 + g / 2.0) * tb ** (-g / 2.0) * stretch
    except (OverflowError, ZeroDivisionError):
        val = math.inf
    if not math.isfinite(val):
        raise ValueError(f"E(|hop|^{g:g}) is not a finite float at theta={theta:g}")
    return val


_RANGES = {
    NavKind.YAO: ("closed", math.pi / 3.0),
    NavKind.THETA: ("closed", math.pi / 3.0),
    NavKind.STRAIGHT_YAO: ("open", math.pi / 2.0),
    NavKind.STRAIGHT_THETA: ("closed", math.pi / 2.0),
    NavKind.RANDOM_NORTH_THETA: ("closed", math.pi / 3.0),
    NavKind.RANDOM_NORTH_YAO: ("closed", math.pi / 3.0),
}


@dataclass(frozen=True)
class ConstantsRow:
    """Limit constants of one navigation kind at one angle.

    ``c_bis`` is the limiting speed along the sector bisector, ``c_bor``
    along the sector border (cross kinds only); ``q_bis``/``q_bor`` are the
    corresponding length-to-progress ratios; ``e_l``/``e_x``/``e_xi`` are the
    unit-intensity hop moments they derive from (``q_bis = e_l / e_x``).
    """

    kind: NavKind
    theta: float
    c_bis: float
    q_bis: float
    e_l: float
    e_x: float
    c_bor: float | None = None
    q_bor: float | None = None
    e_xi: float | None = None

    def as_dict(self) -> dict:
        d = {"kind": self.kind.value, "theta": self.theta,
             "c_bis": self.c_bis, "q_bis": self.q_bis,
             "e_l": self.e_l, "e_x": self.e_x}
        if self.c_bor is not None:
            d.update(c_bor=self.c_bor, q_bor=self.q_bor, e_xi=self.e_xi)
        return d


def check_theta(kind, theta: float) -> None:
    """Raise OutOfRangeTheta unless ``constants`` has a row for the kind at
    this angle."""
    kind = NavKind(kind)
    if kind not in _RANGES:
        raise OutOfRangeTheta(f"no constants table for {kind.value}; "
                              "use mc_constants for directed kinds")
    mode, lim = _RANGES[kind]
    # the closed bounds tolerate hand-rounded angles such as 1.5708
    ok = theta < lim - 1e-15 if mode == "open" else theta <= lim * (1.0 + 1e-5)
    if not (theta > 0.0 and ok):
        raise OutOfRangeTheta(f"theta={theta:g} outside the {kind.value} range")


def constants(kind, theta: float) -> ConstantsRow:
    """Exact constants row; raises OutOfRangeTheta outside the kind's
    admissible angle range."""
    kind = NavKind(kind)
    check_theta(kind, theta)
    b = theta / 2.0
    if kind in (NavKind.THETA, NavKind.STRAIGHT_THETA):
        c_bis = _c_bis_t(theta)
        q_bis = _q_bis_t(theta)
        border = {}
        if kind is NavKind.THETA:
            c_bor = _c_bor_t(theta)
            border = dict(c_bor=c_bor, q_bor=_q_bor_t(theta), e_xi=c_bor)
        return ConstantsRow(kind, theta, c_bis=c_bis, q_bis=q_bis, e_l=c_bis * q_bis,
                            e_x=c_bis, **border)
    if kind in (NavKind.YAO, NavKind.STRAIGHT_YAO):
        c_bis = _c_bis_y(theta)
        border = {}
        if kind is NavKind.YAO:
            c_bor = _c_bor_y(theta)
            border = dict(c_bor=c_bor, q_bor=_q_bor_y(theta), e_xi=c_bor)
        return ConstantsRow(kind, theta, c_bis=c_bis, q_bis=_q_bis_y(theta),
                            e_l=_e_l_dy(theta), e_x=c_bis, **border)
    if kind is NavKind.RANDOM_NORTH_THETA:
        e_l = _c_bis_t(theta) * _q_bis_t(theta)
        e_x = _c_bis_t(theta) * math.sin(b) / b
        return ConstantsRow(kind, theta, c_bis=e_x, q_bis=e_l / e_x, e_l=e_l, e_x=e_x)
    e_l = _e_l_dy(theta)
    e_x = e_l * (2.0 - 2.0 * math.cos(theta)) / theta ** 2
    return ConstantsRow(kind, theta, c_bis=e_x, q_bis=e_l / e_x, e_l=e_l, e_x=e_x)


# -- Monte Carlo oracle ------------------------------------------------------

@dataclass(frozen=True)
class McConstants:
    kind: NavKind
    theta: float
    samples: int
    e_l: float
    e_x: float
    e_xi: float
    q_bis: float
    q_bor: float
    se_e_l: float
    se_e_x: float
    se_e_xi: float
    se_q_bis: float
    se_q_bor: float
    e_l_pow: dict
    se_e_l_pow: dict


def _ratio_se(num, den, n):
    """Delta-method standard error of mean(num)/mean(den)."""
    r = num.mean() / den.mean()
    resid = num - r * den
    return float(np.sqrt(resid.var(ddof=1) / n) / den.mean())


def mc_constants(kind, theta: float, samples: int, seed: int,
                 pow_gs=()) -> McConstants:
    """Monte Carlo hop moments of a directed navigation at unit intensity.

    Estimates the bisector and border speeds, the length-to-progress ratios,
    and optionally E(|hop|^g) for each g in ``pow_gs``, all with standard
    errors.  An oracle for ``constants`` and ``hop_moment``: no prediction
    calls it.
    """
    kind = NavKind(kind)
    if kind not in (NavKind.DIRECTED_THETA, NavKind.DIRECTED_YAO):
        raise ValueError("mc_constants estimates directed-kind hop laws")
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    hops = stage_samples(kind, theta, samples, seed)
    x = hops[:, 0]
    y = hops[:, 1]
    l = np.hypot(x, y)
    b = theta / 2.0
    xi = x * math.cos(b) - y * math.sin(b)   # advance along the first border
    n = samples
    pow_means = {float(g): float((l ** g).mean()) for g in pow_gs}
    pow_ses = {float(g): float((l ** g).std(ddof=1) / math.sqrt(n)) for g in pow_gs}
    return McConstants(
        kind=kind, theta=theta, samples=n,
        e_l=float(l.mean()), e_x=float(x.mean()), e_xi=float(xi.mean()),
        q_bis=float(l.mean() / x.mean()), q_bor=float(l.mean() / xi.mean()),
        se_e_l=float(l.std(ddof=1) / math.sqrt(n)),
        se_e_x=float(x.std(ddof=1) / math.sqrt(n)),
        se_e_xi=float(xi.std(ddof=1) / math.sqrt(n)),
        se_q_bis=_ratio_se(l, x, n), se_q_bor=_ratio_se(l, xi, n),
        e_l_pow=pow_means, se_e_l_pow=pow_ses,
    )


# -- explicit Euler integration ----------------------------------------------

@dataclass(frozen=True)
class OdeSpec:
    """Flow parameters: speed ``lam`` along direction ``nu`` from ``start``,
    over the given density; optional coupled power costs, one per exponent
    ``cost_g[k]`` with rate constant ``cost_q[k]``."""

    lam: float
    nu: float
    start: complex
    density: DensitySpec
    h: float
    cost_q: tuple = ()
    cost_g: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "start", as_point(self.start))
        object.__setattr__(self, "cost_q", tuple(self.cost_q))
        object.__setattr__(self, "cost_g", tuple(self.cost_g))
        if not self.lam > 0.0:
            raise ValueError("lam must be > 0")
        if not self.h > 0.0:
            raise ValueError("step h must be > 0")
        if len(self.cost_q) != len(self.cost_g):
            raise ValueError("cost_q and cost_g go together")


def default_step(density: DensitySpec) -> float:
    return 1e-4 * density.domain.diameter


@dataclass
class LimitCurve:
    times: np.ndarray
    positions: np.ndarray        # (m, 2)
    hit_time: float              # time at which the curve reaches its target
    end_costs: tuple = ()        # accumulated cost per exponent of the spec

    def position_at(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        px = np.interp(x, self.times, self.positions[:, 0])
        py = np.interp(x, self.times, self.positions[:, 1])
        return np.column_stack([px, py])

    @property
    def end_position(self) -> complex:
        return complex(self.positions[-1, 0], self.positions[-1, 1])


def _point_curve(z: complex, end_costs: tuple = ()) -> LimitCurve:
    return LimitCurve(np.zeros(1), np.array([[z.real, z.imag]]), 0.0, end_costs)


# Every walk stops after this many steps.  The margin keeps rounding in a
# walk's lower bound on its step count from refusing a walk that would end.
_STEP_BUDGET = 10_000_000
_BUDGET_MARGIN = 1.01


def _check_step_budget(arc: float, lam: float, h: float, density: DensitySpec) -> None:
    """Raise StepOutOfDomain when a walk of length ``arc`` at speed ``lam``
    cannot end within the step budget.

    No step from a point of the domain is longer than ``h*lam/sqrt(m_f)``, so
    the walk takes at least ``arc*sqrt(m_f)/(lam*h)`` steps.
    """
    if arc * math.sqrt(density.m_f) > _STEP_BUDGET * _BUDGET_MARGIN * (lam * h):
        raise StepOutOfDomain(f"a walk of length {arc:g} at step {h:g} needs more "
                              f"than {_STEP_BUDGET} steps")


def _walk(spec: OdeSpec, target, curve: bool):
    """The explicit Euler walk of the flow from ``spec.start`` to ``target``.

    Returns ``(fs, frac, end, pos)``: the density at every iterate the walk
    steps from, the crossing step's last one included; the fraction of that
    step that reaches the target; the end point; and, with ``curve``, the
    iterates before the crossing step (else None).  Each full step lasts
    ``h`` and the crossing step ``frac*h``.  A zero-length walk has no step:
    ``fs`` is empty.  Raises StepOutOfDomain when an iterate leaves the
    domain before the target, or when the walk cannot end within the step
    budget.
    """
    f_at = spec.density.scalar()
    dom = spec.density.domain
    start = spec.start
    e = complex(math.cos(spec.nu), math.sin(spec.nu))
    lam = spec.lam
    h = spec.h
    arc_goal = abs(as_point(target) - start)
    fs = []
    pos = [start] if curve else None
    if arc_goal == 0.0:
        return fs, 0.0, start, pos
    # the bound holds for steps from the domain; a start outside it is left
    # to the domain test below
    if dom.contains(start):
        _check_step_budget(arc_goal, lam, h, spec.density)
    x0, y0, x1, y1 = dom.x0, dom.y0, dom.x1, dom.y1
    record = fs.append
    keep = pos.append if curve else None
    z = start
    for _ in itertools.repeat(None, _STEP_BUDGET):
        f = f_at(z.real, z.imag)
        record(f)
        speed = lam / math.sqrt(f)
        znew = z + h * speed * e
        arc_new = abs(znew - start)
        if arc_new >= arc_goal:
            arc_old = abs(z - start)
            frac = 1.0 if arc_new == arc_old else \
                (arc_goal - arc_old) / (arc_new - arc_old)
            frac = min(max(frac, 0.0), 1.0)
            return fs, frac, z + frac * h * speed * e, pos
        if not (x0 <= znew.real <= x1 and y0 <= znew.imag <= y1):
            t = 0.0
            for _ in fs:
                t += h
            raise StepOutOfDomain(f"iterate left the domain at t={t:g}")
        z = znew
        if curve:
            keep(z)
    raise StepOutOfDomain("target not reached within the iteration budget")


def _walk_cost(fs: list, frac: float, h: float, q: float, g: float) -> float:
    """The cost equation's Euler sum over a walk's densities ``fs``.

    Adds ``h*q / f**(g/2)`` for each full step, then ``frac`` of the
    crossing step's term, one float operation at a time in walk order, so it
    equals the accumulator carried through the steps bit for bit.  The sum is
    a plain left fold: compensated or pairwise summation (``math.fsum``,
    numpy, ``sum`` on Python 3.12+) rounds differently.  ``f**0.0 == 1.0``
    and ``f**1.0 == f`` exactly, so g = 0 and g = 2 skip ``pow``.
    """
    if not fs:
        return 0.0
    hq = h * q
    half_g = g / 2.0
    full = itertools.islice(fs, len(fs) - 1)
    cost = 0.0
    if half_g == 0.0:
        for _ in full:
            cost += hq
    elif half_g == 1.0:
        for f in full:
            cost += hq / f
    else:
        for f in full:
            cost += hq / f ** half_g
    return cost + frac * (hq / fs[-1] ** half_g)


def euler_solve(spec: OdeSpec, target) -> LimitCurve:
    """Explicit Euler iterates of the flow from ``spec.start`` up to
    ``target``, with every cost of the spec.

    The direction is constant, so hitting the target reduces to crossing its
    arc-length offset; the crossing step is shortened by linear
    interpolation, which keeps the g=0 and g=1 cost identities exact.  The
    walk records the density at each iterate, and each exponent's cost is
    folded from those densities after it (``_walk_cost``), equal bit for bit
    to an accumulator carried through the steps.  The global error is O(h).
    Raises StepOutOfDomain when an iterate leaves the domain before the
    target, or when the walk cannot end within ten million steps.
    """
    fs, frac, end, pos = _walk(spec, target, curve=True)
    h = spec.h
    costs = tuple(_walk_cost(fs, frac, h, q, g) for q, g in zip(spec.cost_q, spec.cost_g))
    if not fs:
        return _point_curve(end, costs)
    pos.append(end)
    times = list(itertools.accumulate(itertools.repeat(h, len(fs) - 1), initial=0.0))
    t = times[-1] + frac * h
    times.append(t)
    arr = np.array(pos, dtype=np.complex128).view(np.float64).reshape(-1, 2)
    return LimitCurve(np.asarray(times), arr, t, costs)


def hit_time(lam: float, s, t, density: DensitySpec, h: float) -> float:
    """Time for the flow at speed ``lam`` to traverse the segment [s, t].

    Solves the 1-D reduction along the segment with explicit Euler and one
    linear interpolation of the crossing step.  Raises StepOutOfDomain when
    the walk cannot end within ten million steps.
    """
    if not h > 0.0:
        raise ValueError("step h must be > 0")
    s = as_point(s)
    t = as_point(t)
    if s == t:
        return 0.0
    if not (density.domain.contains(s) and density.domain.contains(t)):
        raise SegmentLeavesDomain("segment endpoints must lie in the domain")
    f_at = density.scalar()
    e = (t - s) / abs(t - s)
    goal = abs(t - s)
    _check_step_budget(goal, lam, h, density)
    arc = 0.0
    time = 0.0
    for _ in itertools.repeat(None, _STEP_BUDGET):
        p = s + arc * e
        speed = lam / math.sqrt(f_at(p.real, p.imag))
        step = h * speed
        if arc + step >= goal:
            return time + h * (goal - arc) / step
        arc += step
        time += h
    raise StepOutOfDomain("target not reached within the iteration budget")


# -- per-pair predictions ----------------------------------------------------

# Corners computed from pairs that sit exactly on a sector border carry
# float dust; the inset rule allows this much of it.
INSET_SLACK = 1e-9


def limit_path_in_inset(density: DensitySpec, kind, p_theta: int | None, s, t) -> bool:
    """The inset rule for a start/target pair: the limit trajectory (the
    segment ``[s, t]``, or the two-leg polyline through the corner for cross
    kinds) stays in the inset domain, up to ``INSET_SLACK``.

    Pair generation filters with it and the leg rule refuses pairs that fail
    it, so every generated pair can be predicted.
    """
    s = as_point(s)
    t = as_point(t)
    if NavKind(kind) in (NavKind.YAO, NavKind.THETA):
        path = gamma_path(s, t, CrossParams(p_theta))
    else:
        path = (s, t)
    a = density.inset_a - INSET_SLACK
    return all(density.domain.contains(p, a) for p in path)


def _legs(kind, theta, p_theta, s, t, density: DensitySpec) -> list:
    """The limit trajectory from ``s`` to ``t`` as legs ``(a, b, lam, q)``.

    Straight and random-north kinds have the one leg ``[s, t]`` at the
    bisector constants of ``theta``.  Cross kinds go along the bisector to
    the corner at ``(c_bis, q_bis)``, then along the border direction to
    ``t`` at ``(c_bor, q_bor)``, with the sector angle ``2*pi/p_theta``;
    they raise GammaLeavesInset when that polyline fails the inset rule.
    Zero-length legs are dropped, so ``s == t`` has none.
    """
    kind = NavKind(kind)
    s = as_point(s)
    t = as_point(t)
    if kind not in (NavKind.YAO, NavKind.THETA):
        row = constants(kind, theta)
        return [(s, t, row.c_bis, row.q_bis)] if s != t else []
    if p_theta is None:
        raise ValueError("cross kinds need p_theta")
    cross = CrossParams(p_theta)
    row = constants(kind, cross.theta)
    if s == t:
        return []
    if not limit_path_in_inset(density, kind, p_theta, s, t):
        raise GammaLeavesInset("limit polyline exits the inset domain")
    i = corner_point(s, t, cross)
    legs = [(s, i, row.c_bis, row.q_bis), (i, t, row.c_bor, row.q_bor)]
    return [leg for leg in legs if leg[0] != leg[1]]


def _leg_spec(leg, density: DensitySpec, h: float, **cost) -> OdeSpec:
    a, b, lam, _ = leg
    return OdeSpec(lam, math.atan2((b - a).imag, (b - a).real), a, density, h, **cost)


def _predict_path(legs, s, density: DensitySpec, h: float | None):
    if not legs:
        return 0.0, 0.0, _point_curve(as_point(s))
    h = h if h is not None else default_step(density)
    length = sum(q * abs(b - a) for a, b, _, q in legs)
    nb = sum(hit_time(lam, a, b, density, h) for a, b, lam, _ in legs)
    curves = [euler_solve(_leg_spec(leg, density, h), leg[1]) for leg in legs]
    return length, nb, _glue(curves)


def predict_straight(kind, theta: float, s, t, density: DensitySpec,
                     h: float | None = None):
    """Limit length, stage count over sqrt(n), and position curve for the
    kinds whose limit trajectory is the segment [s, t] (straight and
    random-north kinds)."""
    if NavKind(kind) in (NavKind.YAO, NavKind.THETA):
        raise ValueError("cross kinds use predict_cross")
    return _predict_path(_legs(kind, theta, None, s, t, density), s, density, h)


def predict_cross(kind, p_theta: int, s, t, density: DensitySpec,
                  h: float | None = None):
    """Limit length, stage count over sqrt(n), and glued two-phase position
    curve for the cross kinds (first leg along the sector bisector, second
    along the border direction through the corner)."""
    if NavKind(kind) not in (NavKind.YAO, NavKind.THETA):
        raise ValueError("predict_cross is only for cross kinds")
    return _predict_path(_legs(kind, None, p_theta, s, t, density), s, density, h)


def _glue(curves) -> LimitCurve:
    if len(curves) == 1:
        return curves[0]
    a, b = curves
    shift = a.times[-1]
    times = np.concatenate([a.times, shift + b.times[1:]])
    positions = np.vstack([a.positions, b.positions[1:]])
    return LimitCurve(times, positions, shift + b.hit_time)


def predict_cost(kind, theta: float, exponents, s, t, density: DensitySpec,
                 h: float | None = None, p_theta: int | None = None) -> tuple:
    """Limiting ``sum |hop|^g`` over ``n^{(1-g)/2}`` for one pair, one value
    per exponent g in ``exponents``.

    Walks each leg once, integrating the coupled cost equation of every
    exponent with ``q = E(|hop|^g)`` at unit intensity (at the sector angle
    ``2*pi/p_theta`` when ``p_theta`` is given); reduces exactly to the
    stage-count prediction at g=0 and to the length prediction at g=1.
    """
    exponents = tuple(float(g) for g in exponents)
    legs = _legs(kind, theta, p_theta, s, t, density)
    if not (legs and exponents):
        return (0.0,) * len(exponents)
    h = h if h is not None else default_step(density)
    angle = theta if p_theta is None else 2.0 * math.pi / p_theta
    qs = tuple(hop_moment(kind, angle, g) for g in exponents)
    totals = [0.0] * len(exponents)
    for leg in legs:
        fs, frac, _, _ = _walk(_leg_spec(leg, density, h), leg[1], curve=False)
        totals = [c + _walk_cost(fs, frac, h, q, g)
                  for c, q, g in zip(totals, qs, exponents)]
    return tuple(totals)
