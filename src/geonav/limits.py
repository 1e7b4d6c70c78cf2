"""Closed-form limit constants and numerically integrated limit curves.

At intensity ``n*f`` every hop shrinks like ``1/sqrt(n*f(z))``, so after
rescaling time by ``sqrt(n)`` the traveller position follows the flow

    rho'(x) = lam * e^{i*nu} / sqrt(f(rho(x)))

for a speed constant ``lam`` that depends on the navigation kind, and an
accumulated power cost follows the coupled equation
``C'(x) = q / f(rho(x))^{g/2}`` with ``q`` the mean ``|hop|^g`` at unit
intensity.  This module evaluates the speed/stretch constants, solves the
flow with an explicit Euler scheme, and combines both into per-pair
predictions of path length, stage count, and power costs.  Both Euler walks
take one leg the same way, ``(lam, s, t, density, h)``: ``euler_solve`` for
the curve and costs and ``hit_time`` for the stage count, each stopping at
the leg's target ``t``.  One rule (``_check_leg``) refuses a leg for both,
before any density call: a speed or step that is not finite and > 0, an end
outside the domain, or a walk too long for the budget of ten million steps.

Every constant a prediction uses is exact: closed forms, and for the hop
moments ``q`` of the projection-capped family at g outside {0, 1, 2} a
fixed Gauss-Legendre rule (``hop_moment``).  No prediction samples.
``mc_constants`` estimates the same hop laws by Monte Carlo from
``navigation.stage_samples``, with standard errors; it is kept as an
independent oracle for the closed forms.

One leg rule (``_legs``) gives the shape of every limit trajectory: the
segment ``[s, t]`` for straight and random-north kinds, or the two legs
through the corner for cross kinds, each leg with its own ``(lam, q)``
constants; it refuses, for every kind, a pair whose trajectory leaves the
inset (``limit_path_in_inset``).  ``predict_straight`` and
``predict_cross`` share one body over those legs: the length is the sum of
``q * |leg|``, the stage count the sum of the legs' hitting times, and the
curve the legs' Euler walks glued end to end.  Given ``exponents``, each
leg's curve walk also carries the coupled cost equation of every exponent,
and the glued curve's ``end_costs`` adds the legs' costs in leg order; so a
prediction walks each leg twice, once for its hitting time and once for the
curve and the costs.  ``predict_cost`` returns the ``end_costs`` of the
same glued curve walk.  ``euler_solve`` holds the one 2-D Euler loop: it
records the density at each iterate, and each exponent's cost is folded
from those densities after the walk, in the order an accumulator carried
through the steps would add them.
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
from .navigation import (CROSS_KINDS, DIRECTED_KINDS, DISK_KINDS, NavKind, in_guarded_range,
                         stage_samples)

__all__ = [
    "ConstantsRow", "constants", "McConstants", "mc_constants",
    "LimitCurve", "euler_solve", "hit_time", "predict_straight",
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
        if NavKind(kind) in DISK_KINDS:
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
    this angle: a targeted kind in its guarded range
    (``navigation.in_guarded_range``)."""
    kind = NavKind(kind)
    if kind in DIRECTED_KINDS:
        raise OutOfRangeTheta(f"no constants table for {kind.value}; "
                              "use mc_constants for directed kinds")
    if not in_guarded_range(kind, theta):
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
    if kind not in DIRECTED_KINDS:
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

def default_step(density: DensitySpec) -> float:
    return 1e-4 * density.domain.diameter


@dataclass
class LimitCurve:
    times: np.ndarray
    positions: np.ndarray        # (m, 2)
    hit_time: float              # time at which the curve reaches its target
    # each exponent's cost, folded from the curve's own walk (a glued curve
    # adds its legs' costs in leg order)
    end_costs: tuple = ()

    def position_at(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        px = np.interp(x, self.times, self.positions[:, 0])
        py = np.interp(x, self.times, self.positions[:, 1])
        return np.column_stack([px, py])

    @property
    def end_position(self) -> complex:
        return complex(self.positions[-1, 0], self.positions[-1, 1])


def _point_curve(z: complex, end_costs: tuple) -> LimitCurve:
    return LimitCurve(np.zeros(1), np.array([[z.real, z.imag]]), 0.0, end_costs)


# Every walk stops after this many steps.  The margin keeps rounding in a
# walk's lower bound on its step count from refusing a walk that would end.
_STEP_BUDGET = 10_000_000
_BUDGET_MARGIN = 1.01


def _check_leg(lam: float, s: complex, t: complex, density: DensitySpec, h: float) -> None:
    """The one rule both Euler walks of the leg [s, t] keep, checked before
    their first density call.

    Raises ValueError unless ``lam`` and ``h`` are finite and > 0.  For
    ``s != t``, raises SegmentLeavesDomain when an end lies outside the
    domain, and StepOutOfDomain when the walk cannot end within the step
    budget: no step from a point of the domain is longer than
    ``h*lam/sqrt(m_f)``, so the walk takes at least
    ``|t - s|*sqrt(m_f)/(lam*h)`` steps.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be finite and > 0, got {lam!r}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be finite and > 0, got {h!r}")
    if s == t:
        return
    if not (density.domain.contains(s) and density.domain.contains(t)):
        raise SegmentLeavesDomain("leg ends must lie in the domain")
    arc = abs(t - s)
    if arc * math.sqrt(density.m_f) > _STEP_BUDGET * _BUDGET_MARGIN * (lam * h):
        raise StepOutOfDomain(f"a walk of length {arc:g} at step {h:g} needs more "
                              f"than {_STEP_BUDGET} steps")


def _walk_cost(fs: list, frac: float, h: float, q: float, g: float) -> float:
    """The cost equation's Euler sum over the densities ``fs`` of a walk of
    at least one step.

    Adds ``h*q / f**(g/2)`` for each full step, then ``frac`` of the
    crossing step's term, one float operation at a time in walk order, so it
    equals the accumulator carried through the steps bit for bit.  The sum is
    a plain left fold: compensated or pairwise summation (``math.fsum``,
    numpy, ``sum`` on Python 3.12+) rounds differently.  ``f**0.0 == 1.0``
    and ``f**1.0 == f`` exactly, so g = 0 and g = 2 skip ``pow``.
    """
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


def euler_solve(lam: float, s, t, density: DensitySpec, h: float,
                cost_q=(), cost_g=()) -> LimitCurve:
    """Explicit Euler iterates of the flow at speed ``lam`` along the leg
    from ``s`` up to ``t``, with the coupled cost of each exponent
    ``cost_g[k]`` at rate ``cost_q[k]``.

    The leg's direction ``nu = atan2`` of ``t - s`` is constant, so hitting
    the target reduces to crossing its arc-length offset; the crossing step
    is shortened by linear interpolation, which keeps the g=0 and g=1 cost
    identities exact.  Every iterate before it lies on [s, t], inside the
    domain.  The walk records the density at each iterate it steps from,
    and each exponent's cost is folded from those densities after it
    (``_walk_cost``), equal bit for bit to an accumulator carried through
    the steps.  The global error is O(h).  Raises ValueError when the cost
    lists differ in length, and refuses a leg by ``_check_leg`` before its
    first density call.
    """
    if len(cost_q) != len(cost_g):
        raise ValueError("cost_q and cost_g go together")
    s = as_point(s)
    t = as_point(t)
    _check_leg(lam, s, t, density, h)
    if s == t:
        return _point_curve(s, (0.0,) * len(cost_g))
    f_at = density.scalar()
    nu = math.atan2((t - s).imag, (t - s).real)
    e = complex(math.cos(nu), math.sin(nu))
    arc_goal = abs(t - s)
    fs = []
    pos = [s]
    record = fs.append
    keep = pos.append
    z = s
    for _ in itertools.repeat(None, _STEP_BUDGET):
        f = f_at(z.real, z.imag)
        record(f)
        speed = lam / math.sqrt(f)
        znew = z + h * speed * e
        arc_new = abs(znew - s)
        if arc_new >= arc_goal:
            arc_old = abs(z - s)
            frac = 1.0 if arc_new == arc_old else \
                (arc_goal - arc_old) / (arc_new - arc_old)
            frac = min(max(frac, 0.0), 1.0)
            keep(z + frac * h * speed * e)
            break
        z = znew
        keep(z)
    else:
        raise StepOutOfDomain("target not reached within the iteration budget")
    costs = tuple(_walk_cost(fs, frac, h, q, g) for q, g in zip(cost_q, cost_g))
    times = list(itertools.accumulate(itertools.repeat(h, len(fs) - 1), initial=0.0))
    end = times[-1] + frac * h
    times.append(end)
    arr = np.array(pos, dtype=np.complex128).view(np.float64).reshape(-1, 2)
    return LimitCurve(np.asarray(times), arr, end, costs)


def hit_time(lam: float, s, t, density: DensitySpec, h: float) -> float:
    """Time for the flow at speed ``lam`` to traverse the leg [s, t].

    Solves the 1-D reduction along the leg with explicit Euler and one
    linear interpolation of the crossing step.  Refuses a leg by
    ``_check_leg``, the rule of ``euler_solve``, before its first density
    call.
    """
    s = as_point(s)
    t = as_point(t)
    _check_leg(lam, s, t, density, h)
    if s == t:
        return 0.0
    f_at = density.scalar()
    e = (t - s) / abs(t - s)
    goal = abs(t - s)
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
    if NavKind(kind) in CROSS_KINDS:
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
    ``t`` at ``(c_bor, q_bor)``, with the sector angle ``2*pi/p_theta``.
    Every kind raises GammaLeavesInset when its trajectory fails the inset
    rule.  Zero-length legs are dropped, so ``s == t`` has none.
    """
    kind = NavKind(kind)
    s = as_point(s)
    t = as_point(t)
    cross = CrossParams(p_theta) if kind in CROSS_KINDS else None
    row = constants(kind, theta if cross is None else cross.theta)
    if s == t:
        return []
    if not limit_path_in_inset(density, kind, p_theta, s, t):
        raise GammaLeavesInset("limit trajectory exits the inset domain")
    if cross is None:
        return [(s, t, row.c_bis, row.q_bis)]
    i = corner_point(s, t, cross)
    legs = [(s, i, row.c_bis, row.q_bis), (i, t, row.c_bor, row.q_bor)]
    return [leg for leg in legs if leg[0] != leg[1]]


def _legs_curve(kind, angle: float, legs, density: DensitySpec, h: float,
                exponents: tuple) -> LimitCurve:
    """The legs' Euler walks glued end to end; the curve's ``end_costs``
    holds one cost per exponent, at the rates ``hop_moment(kind, angle, g)``."""
    qs = tuple(hop_moment(kind, angle, g) for g in exponents)
    return _glue([euler_solve(lam, a, b, density, h, qs, exponents) for a, b, lam, _ in legs])


def _predict_path(kind, angle: float, legs, s, density: DensitySpec, h: float | None,
                  exponents):
    """Length, stage count and curve over ``legs``, with the costs of
    ``exponents`` in the curve's ``end_costs``."""
    exponents = tuple(float(g) for g in exponents)
    if not legs:
        return 0.0, 0.0, _point_curve(as_point(s), (0.0,) * len(exponents))
    h = h if h is not None else default_step(density)
    curve = _legs_curve(kind, angle, legs, density, h, exponents)
    length = sum(q * abs(b - a) for a, b, _, q in legs)
    nb = sum(hit_time(lam, a, b, density, h) for a, b, lam, _ in legs)
    return length, nb, curve


def predict_straight(kind, theta: float, s, t, density: DensitySpec,
                     h: float | None = None, exponents=()):
    """Limit length, stage count over sqrt(n), and position curve for the
    kinds whose limit trajectory is the segment [s, t] (straight and
    random-north kinds).

    The curve's ``end_costs`` holds the limiting cost of each exponent in
    ``exponents``, folded from the curve's own walk; it equals
    ``predict_cost(kind, theta, exponents, s, t, density, h)``."""
    if NavKind(kind) in CROSS_KINDS:
        raise ValueError("cross kinds use predict_cross")
    return _predict_path(kind, theta, _legs(kind, theta, None, s, t, density), s, density,
                         h, exponents)


def predict_cross(kind, p_theta: int, s, t, density: DensitySpec,
                  h: float | None = None, exponents=()):
    """Limit length, stage count over sqrt(n), and glued two-phase position
    curve for the cross kinds (first leg along the sector bisector, second
    along the border direction through the corner).

    The curve's ``end_costs`` holds the limiting cost of each exponent in
    ``exponents`` at the sector angle ``2*pi/p_theta``, folded from the legs'
    own walks; it equals ``predict_cost(kind, None, exponents, s, t, density,
    h, p_theta)``."""
    if NavKind(kind) not in CROSS_KINDS:
        raise ValueError("predict_cross is only for cross kinds")
    legs = _legs(kind, None, p_theta, s, t, density)
    return _predict_path(kind, 2.0 * math.pi / p_theta, legs, s, density, h, exponents)


def _glue(curves) -> LimitCurve:
    if len(curves) == 1:
        return curves[0]
    a, b = curves
    shift = a.times[-1]
    times = np.concatenate([a.times, shift + b.times[1:]])
    positions = np.vstack([a.positions, b.positions[1:]])
    costs = tuple(ca + cb for ca, cb in zip(a.end_costs, b.end_costs))
    return LimitCurve(times, positions, shift + b.hit_time, costs)


def predict_cost(kind, theta: float, exponents, s, t, density: DensitySpec,
                 h: float | None = None, p_theta: int | None = None) -> tuple:
    """Limiting ``sum |hop|^g`` over ``n^{(1-g)/2}`` for one pair, one value
    per exponent g in ``exponents``.

    The ``end_costs`` of the legs' glued curve walk, as ``predict_straight``
    and ``predict_cross`` give it: each leg is walked once, integrating the
    coupled cost equation of every exponent with ``q = E(|hop|^g)`` at unit
    intensity (at the sector angle ``2*pi/p_theta`` when ``p_theta`` is
    given); reduces exactly to the stage-count prediction at g=0 and to the
    length prediction at g=1.  No exponents, or ``s == t``, walk nothing.
    """
    exponents = tuple(float(g) for g in exponents)
    legs = _legs(kind, theta, p_theta, s, t, density)
    if not (legs and exponents):
        return (0.0,) * len(exponents)
    h = h if h is not None else default_step(density)
    angle = theta if p_theta is None else 2.0 * math.pi / p_theta
    return _legs_curve(kind, angle, legs, density, h, exponents).end_costs
