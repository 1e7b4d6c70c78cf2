import cmath
import math
import random

import numpy as np
import pytest
from scipy import integrate

from geonav import (DensitySpec, GammaLeavesInset, NavKind, OdeSpec,
                    OutOfRangeTheta, Rect, StepOutOfDomain, constants,
                    euler_solve, hit_time, mc_constants, predict_cost,
                    predict_cross, predict_straight)
from geonav import limits
from geonav.limits import hop_moment

DEG = math.pi / 180.0
UNIT = DensitySpec.constant(1.0)
WIDE = DensitySpec.constant(1.0, domain=Rect(-2, -2, 2, 2), inset_a=0.05)


# -- quadrature oracles for the hop-law moments --------------------------------

def oracle_e_x_t(theta):
    b = theta / 2.0
    val, _ = integrate.quad(lambda r: math.exp(-r * r * math.tan(b)), 0, np.inf)
    return val


def oracle_e_l_t(theta):
    b = theta / 2.0
    stretch, _ = integrate.quad(
        lambda v: math.sqrt(1.0 + math.tan(b) ** 2 * v * v), 0, 1)
    return oracle_e_x_t(theta) * stretch


def oracle_e_xi_t(theta):
    return oracle_e_x_t(theta) * math.cos(theta / 2.0)


def oracle_e_l_y(theta):
    val, _ = integrate.quad(lambda r: math.exp(-r * r * theta / 2.0), 0, np.inf)
    return val


def oracle_e_x_y(theta):
    ang, _ = integrate.quad(math.cos, -theta / 2.0, theta / 2.0)
    return oracle_e_l_y(theta) * ang / theta


def oracle_e_xi_y(theta):
    ang, _ = integrate.quad(lambda a: math.cos(a + theta / 2.0),
                            -theta / 2.0, theta / 2.0)
    return oracle_e_l_y(theta) * ang / theta


def oracle_affine_hit(lam, x0, x1):
    """Time to traverse [x0, x1] at speed lam/sqrt(1+x): quadrature of the
    reciprocal speed."""
    val, _ = integrate.quad(lambda u: math.sqrt(1.0 + u), x0, x1)
    return val / lam


def affine_solution(lam, s0, x):
    """Closed-form flow for f = 1 + x along the x axis."""
    return ((1.0 + s0) ** 1.5 + 1.5 * lam * x) ** (2.0 / 3.0) - 1.0


# -- constants ------------------------------------------------------------------

def test_constants_straight_t_values():
    row = constants("straight-t", math.pi / 2)
    assert row.q_bis == pytest.approx(1.147794, abs=1e-6)
    assert row.q_bis == pytest.approx(0.5 * (math.sqrt(2) + math.asinh(1.0)))
    assert row.c_bis == pytest.approx(0.5 * math.sqrt(math.pi))


def test_constants_yao_pi3_values():
    row = constants("yao", math.pi / 3)
    assert row.q_bis == pytest.approx(1.047198, abs=1e-6)
    assert row.q_bor == pytest.approx(1.209200, abs=1e-6)
    assert row.e_l == pytest.approx(math.sqrt(1.5), rel=1e-12)
    # sqrt(1.5) * 2 sin(pi/6) / (pi/3); quadrature oracle gives 1.1695453
    assert row.e_x == pytest.approx(oracle_e_x_y(math.pi / 3), rel=1e-9)
    assert row.e_x == pytest.approx(1.169545, abs=1e-6)
    assert row.q_bis == pytest.approx(row.e_l / row.e_x)


def test_constants_theta_pi3_values():
    row = constants("t", math.pi / 3)
    assert row.q_bis == pytest.approx(1.053063, abs=2e-6)
    assert row.q_bor == pytest.approx(1.215973, abs=1e-6)


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_constants_match_quadrature_oracles(theta):
    t_row = constants("t", theta)
    assert t_row.c_bis == pytest.approx(oracle_e_x_t(theta), rel=1e-9)
    assert t_row.e_l == pytest.approx(oracle_e_l_t(theta), rel=1e-9)
    assert t_row.c_bor == pytest.approx(oracle_e_xi_t(theta), rel=1e-9)
    assert t_row.q_bis == pytest.approx(oracle_e_l_t(theta) / oracle_e_x_t(theta), rel=1e-9)
    assert t_row.q_bor == pytest.approx(oracle_e_l_t(theta) / oracle_e_xi_t(theta), rel=1e-9)
    y_row = constants("yao", theta)
    assert y_row.e_l == pytest.approx(oracle_e_l_y(theta), rel=1e-9)
    assert y_row.c_bis == pytest.approx(oracle_e_x_y(theta), rel=1e-9)
    assert y_row.c_bor == pytest.approx(oracle_e_xi_y(theta), rel=1e-9)


def test_constants_random_north():
    theta = math.pi / 3
    rnt = constants("random-north-t", theta)
    # the aim offset is uniform within the sector, so the mean progress is
    # the aligned progress damped by the mean cosine of the offset
    damp, _ = integrate.quad(math.cos, 0, theta / 2.0)
    damp /= theta / 2.0
    assert rnt.e_x == pytest.approx(oracle_e_x_t(theta) * damp, rel=1e-9)
    assert rnt.q_bis == pytest.approx(oracle_e_l_t(theta) / (oracle_e_x_t(theta) * damp),
                                      rel=1e-9)
    rny = constants("random-north-y", theta)
    assert rny.q_bis == pytest.approx(theta ** 2 / (2.0 - 2.0 * math.cos(theta)),
                                      rel=1e-12)


def test_constants_theta_ranges():
    with pytest.raises(OutOfRangeTheta):
        constants("t", math.pi / 2)
    with pytest.raises(OutOfRangeTheta):
        constants("straight-yao", math.pi / 2)
    with pytest.raises(OutOfRangeTheta):
        constants("straight-t", 1.8)
    constants("straight-t", math.pi / 2)
    constants("straight-yao", math.pi / 2 - 1e-6)


# -- Monte Carlo consistency -------------------------------------------------------

def test_mc_constants_match_closed_forms():
    mc = mc_constants("directed-t", math.pi / 3, 200_000, seed=70)
    row = constants("t", math.pi / 3)
    assert abs(mc.e_x - row.c_bis) <= 3 * mc.se_e_x
    assert abs(mc.e_xi - row.c_bor) <= 3 * mc.se_e_xi
    assert abs(mc.q_bis - row.q_bis) <= 3 * mc.se_q_bis
    assert abs(mc.q_bor - row.q_bor) <= 3 * mc.se_q_bor
    mcy = mc_constants("directed-y", math.pi / 3, 200_000, seed=71, pow_gs=(2.0,))
    rowy = constants("yao", math.pi / 3)
    assert abs(mcy.e_l - rowy.e_l) <= 3 * mcy.se_e_l
    assert abs(mcy.e_l_pow[2.0] - 2.0 / (math.pi / 3)) <= 3 * mcy.se_e_l_pow[2.0]


def test_hop_moment_closed_forms_and_mc():
    # projection-capped g=2 closed form and g=1.5 quadrature, checked
    # against sampling
    val = hop_moment(NavKind.STRAIGHT_THETA, math.pi / 2, 2.0)
    assert type(val) is float and val == pytest.approx(4.0 / 3.0)
    mc = mc_constants("directed-t", math.pi / 2, 400_000, seed=72, pow_gs=(2.0, 1.5))
    assert abs(mc.e_l_pow[2.0] - val) <= 3 * mc.se_e_l_pow[2.0]
    val = hop_moment(NavKind.STRAIGHT_THETA, math.pi / 2, 1.5)
    assert abs(mc.e_l_pow[1.5] - val) <= 4 * mc.se_e_l_pow[1.5]
    # disk-capped closed form at any g
    val_y = hop_moment(NavKind.YAO, math.pi / 3, 3.0)
    assert type(val_y) is float
    assert val_y == pytest.approx((2.0 / (math.pi / 3)) ** 1.5 * math.gamma(2.5))


def oracle_hop_moment_t(theta, g):
    """E(|hop|^g) of the projection-capped law by quadrature: the advance
    has E(x^g) = Gamma(1 + g/2) tan(b)^{-g/2}, and |hop| = x sqrt(1 + v^2)
    with v uniform on (-tan b, tan b)."""
    b = theta / 2.0
    e_x_pow = math.gamma(1.0 + g / 2.0) / math.tan(b) ** (g / 2.0)
    stretch, _ = integrate.quad(
        lambda v: (1.0 + math.tan(b) ** 2 * v * v) ** (g / 2.0), 0, 1)
    return e_x_pow * stretch


@pytest.mark.parametrize("theta", [1e-4, 0.2, math.pi / 6, math.pi / 3, 0.7, math.pi / 2])
def test_hop_moment_matches_quadrature_oracle(theta):
    for g in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 10.0):
        for kind in ("straight-t", "t", "random-north-t", "directed-t"):
            got = hop_moment(kind, theta, g)
            assert type(got) is float
            assert got == pytest.approx(oracle_hop_moment_t(theta, g), rel=1e-12, abs=0)


@pytest.mark.parametrize("theta", [0.2, math.pi / 3, 0.7, math.pi / 2])
def test_hop_moment_keeps_the_closed_forms(theta):
    # bit for bit the closed forms the harness CSVs were written with
    b = theta / 2.0
    for kind in ("straight-t", "t", "random-north-t"):
        assert hop_moment(kind, theta, 0.0) == 1.0
        c_bis = 0.5 * math.sqrt(math.pi / math.tan(theta / 2.0))
        q_bis = 0.5 * (1.0 / math.cos(b) + math.asinh(math.tan(b)) / math.tan(b))
        assert hop_moment(kind, theta, 1.0) == c_bis * q_bis
        assert hop_moment(kind, theta, 2.0) == (1.0 + math.tan(b) ** 2 / 3.0) / math.tan(b)
    for kind in ("straight-yao", "yao", "random-north-y"):
        for g in (0.0, 0.5, 1.0, 2.0, 3.0, 10.0):
            assert hop_moment(kind, theta, g) == \
                (2.0 / theta) ** (g / 2.0) * math.gamma(1.0 + g / 2.0)


@pytest.mark.parametrize("kind,theta,g", [
    ("straight-t", math.pi / 2, -1.0), ("straight-t", math.pi / 2, math.nan),
    ("straight-t", math.pi / 2, math.inf), ("straight-t", math.pi / 2, 400.0),
    ("straight-yao", 1.2, 400.0), ("t", 1e-300, 3.0)])
def test_hop_moment_refuses_what_is_not_a_finite_float(kind, theta, g):
    with pytest.raises(ValueError):
        hop_moment(kind, theta, g)


# -- Euler solver -------------------------------------------------------------------

def test_euler_exact_for_constant_density():
    dens = DensitySpec.constant(4.0)
    lam, nu = 0.7, 0.3
    speed = lam / 2.0
    spec = OdeSpec(lam, nu, 0.2 + 0.2j, dens, h=0.01)
    # the target the flow reaches at time 0.5
    curve = euler_solve(spec, 0.2 + 0.2j + 0.5 * speed * cmath.exp(1j * nu))
    for t, (x, y) in zip(curve.times, curve.positions):
        assert x == pytest.approx(0.2 + t * speed * math.cos(nu), abs=1e-12)
        assert y == pytest.approx(0.2 + t * speed * math.sin(nu), abs=1e-12)
    assert curve.times[-1] == pytest.approx(0.5)
    assert curve.hit_time == curve.times[-1]


def test_euler_cost_linear_identity_constant_density():
    # with g=1 the accumulated cost is q/lam times the distance travelled,
    # and with g=0 it is q times the elapsed time, at every target: the
    # points the flow reaches at four times, within and beyond one step
    dens = DensitySpec.constant(2.5)
    lam, q0, q1 = 0.9, 0.6, 1.7
    speed = lam / math.sqrt(2.5)
    spec = OdeSpec(lam, 0.0, 0.1 + 0.5j, dens, h=0.01, cost_q=(q0, q1), cost_g=(0.0, 1.0))
    for t_end in (0.005, 0.01, 0.37, 0.8):
        curve = euler_solve(spec, 0.1 + speed * t_end + 0.5j)
        trav = curve.positions[-1, 0] - 0.1
        assert curve.hit_time == pytest.approx(t_end, abs=1e-12)
        assert curve.end_costs[0] == pytest.approx(q0 * t_end, abs=1e-12)
        assert curve.end_costs[1] == pytest.approx(q1 / lam * trav, abs=1e-12)


def test_ode_spec_costs_pair_up():
    assert OdeSpec(1.0, 0.0, 0.5j, UNIT, h=0.1).cost_q == ()
    with pytest.raises(ValueError):
        OdeSpec(1.0, 0.0, 0.5j, UNIT, h=0.1, cost_q=(1.0, 2.0), cost_g=(1.0,))


def test_euler_affine_hit_time_matches_quadrature():
    dens = DensitySpec.affine(1.0, 1.0, 0.0)
    spec = OdeSpec(1.0, 0.0, 0.0 + 0.5j, dens, h=1e-4)
    curve = euler_solve(spec, 0.5 + 0.5j)
    want = oracle_affine_hit(1.0, 0.0, 0.5)
    assert want == pytest.approx((2.0 / 3.0) * (1.5 ** 1.5 - 1.0), rel=1e-10)
    assert curve.hit_time == pytest.approx(want, abs=1e-3)


def test_euler_error_linear_in_step():
    # global error against the closed-form affine flow shrinks like h, on
    # the walk to where that flow is at time 1
    dens = DensitySpec.affine(1.0, 1.0, 0.0)
    target = affine_solution(1.0, 0.0, 1.0) + 0.5j
    errs = []
    hs = [1e-2, 1e-3, 1e-4]
    for h in hs:
        spec = OdeSpec(1.0, 0.0, 0.0 + 0.5j, dens, h=h)
        curve = euler_solve(spec, target)
        assert curve.hit_time == pytest.approx(1.0, abs=h)
        exact = affine_solution(1.0, 0.0, curve.times)
        errs.append(float(np.abs(curve.positions[:, 0] - exact).max()))
    x = np.log(hs)
    y = np.log(errs)
    slope = float(np.polyfit(x, y, 1)[0])
    assert slope == pytest.approx(1.0, abs=0.1)


def test_euler_perturbation_stability():
    # bounded per-step slope perturbations (worst case: a constant push)
    # move the iterates by at most a stable multiple of max(h, c)
    h = 1e-4
    lam = 1.0

    def f(x):
        return lam / math.sqrt(1.0 + x)

    ratios = {}
    for c in (1e-3, 1e-4):
        z = 0.0
        zp = 0.0
        dev = 0.0
        for _ in range(10_000):
            z = z + h * f(z)
            zp = zp + h * (f(zp) + c)
            dev = max(dev, abs(zp - z))
        ratios[c] = dev / max(h, c)
    assert 0.0 < ratios[1e-3] < 5.0
    assert 0.0 < ratios[1e-4] < 5.0
    assert max(ratios.values()) / min(ratios.values()) <= 3.0


def reference_costs(spec, target):
    """The cost walk as one accumulator per exponent, rebuilt at every Euler
    step: the rule each folded cost must equal bit for bit."""
    f_at = spec.density.scalar()
    start = spec.start
    e = complex(math.cos(spec.nu), math.sin(spec.nu))
    h = spec.h
    rates = [(q, g / 2.0) for q, g in zip(spec.cost_q, spec.cost_g)]
    cost = [0.0] * len(rates)
    arc_goal = abs(target - start)
    z = start
    while True:
        f = f_at(z.real, z.imag)
        speed = spec.lam / math.sqrt(f)
        znew = z + h * speed * e
        arc_new = abs(znew - start)
        if arc_new >= arc_goal:
            arc_old = abs(z - start)
            frac = 1.0 if arc_new == arc_old else \
                (arc_goal - arc_old) / (arc_new - arc_old)
            frac = min(max(frac, 0.0), 1.0)
            return tuple(c + frac * (h * q / f ** half_g)
                         for c, (q, half_g) in zip(cost, rates))
        z = znew
        cost = [c + h * q / f ** half_g for c, (q, half_g) in zip(cost, rates)]


FOLD_DENSITIES = [DensitySpec.constant(1.7), DensitySpec.affine(1.0, 0.8, -0.3),
                  DensitySpec.radial_bump((0.5, 0.5), 0.5, 1.5, 0.3)]
FOLD_EXPONENTS = (0.0, 0.5, 1.0, 2.0, 3.0, 7.5)


@pytest.mark.parametrize("dens", FOLD_DENSITIES, ids=lambda d: d.kind)
@pytest.mark.parametrize("h", [None, 1e-3])
def test_folded_costs_equal_the_per_step_accumulator(dens, h):
    # random legs in the inset (through the bump's disk and across its rim),
    # random speeds and rates: every cost equal bit for bit, so a fold that
    # sums in another order (math.fsum, numpy's pairwise sum) or rounds the
    # crossing term otherwise fails
    h = h if h is not None else limits.default_step(dens)
    rng = random.Random(75)
    # long legs, then legs a few steps long, where the crossing step's term
    # is much of each cost
    for reach in (None, 1.0, 1.0, 2.0, 2.0, 3.0):
        a = complex(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        b = complex(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)) if reach is None \
            else a + cmath.rect(rng.uniform(0.1, reach) * h, rng.uniform(0, 2 * math.pi))
        qs = tuple(rng.uniform(0.5, 2.0) for _ in FOLD_EXPONENTS)
        spec = OdeSpec(rng.uniform(0.6, 1.4), cmath.phase(b - a), a, dens, h,
                       cost_q=qs, cost_g=FOLD_EXPONENTS)
        assert euler_solve(spec, b).end_costs == reference_costs(spec, b)
    # predict_cost folds the same sums over each leg of a cross pair
    s, t = 0.2 + 0.25j, 0.75 + 0.6j
    legs = limits._legs("t", None, 6, s, t, dens)
    qs = tuple(hop_moment("t", math.pi / 3, g) for g in FOLD_EXPONENTS)
    want = [0.0] * len(FOLD_EXPONENTS)
    for leg in legs:
        spec = limits._leg_spec(leg, dens, h, cost_q=qs, cost_g=FOLD_EXPONENTS)
        want = [c + leg_cost for c, leg_cost in zip(want, reference_costs(spec, leg[1]))]
    assert len(legs) == 2
    assert predict_cost("t", math.pi / 3, FOLD_EXPONENTS, s, t, dens, h=h, p_theta=6) \
        == tuple(want)


WALKS = {
    "hit_time": lambda lam, s, t, dens, h: hit_time(lam, s, t, dens, h),
    "euler_solve": lambda lam, s, t, dens, h: euler_solve(
        OdeSpec(lam, cmath.phase(t - s), s, dens, h, cost_q=(1.0,), cost_g=(2.0,)), t),
}


@pytest.mark.parametrize("walk", WALKS)
def test_walks_refuse_a_step_count_over_the_budget_before_stepping(count_density_calls,
                                                                 walk):
    # f >= 1 here, so a walk of length 0.6 at lam 1.2 takes at least
    # 0.6/(1.2*h) steps: 5e11 at h = 1e-12, where the budget is 1e7
    calls = count_density_calls(5000)
    dens = DensitySpec.affine(1.0, 0.8, 0.3)
    with pytest.raises(StepOutOfDomain, match="steps"):
        WALKS[walk](1.2, 0.2 + 0.5j, 0.8 + 0.5j, dens, 1e-12)
    assert calls == []


@pytest.mark.parametrize("walk", WALKS)
def test_walks_within_the_budget_are_not_refused(count_density_calls, walk):
    # at f = 1 and lam 1 a walk of length 0.6 takes 0.6/h steps: just under
    # the budget it must start stepping
    calls = count_density_calls(50)
    h = 0.6 / (limits._STEP_BUDGET - 10)
    with pytest.raises(RuntimeError, match="first steps"):
        WALKS[walk](1.0, 0.2 + 0.5j, 0.8 + 0.5j, UNIT, h)
    assert len(calls) == 51


def test_predictions_refuse_a_step_too_fine_for_the_budget(count_density_calls):
    calls = count_density_calls(5000)
    dens = DensitySpec.affine(1.0, 0.8, -0.3)
    s, t = 0.2 + 0.3j, 0.7 + 0.6j
    with pytest.raises(StepOutOfDomain):
        predict_straight("straight-t", math.pi / 2, s, t, dens, h=1e-12)
    with pytest.raises(StepOutOfDomain):
        predict_cross("t", 6, s, t, dens, h=1e-12)
    with pytest.raises(StepOutOfDomain):
        predict_cost("t", math.pi / 3, (0.0, 1.0), s, t, dens, h=1e-12, p_theta=6)
    assert calls == []


# -- hitting times -------------------------------------------------------------------

def test_hit_time_constant_density():
    dens = DensitySpec.constant(4.0)
    got = hit_time(2.0, 0.2 + 0.5j, 0.8 + 0.5j, dens, h=1e-4)
    assert got == pytest.approx(0.6 * 2.0 / 2.0, abs=1e-6)
    assert hit_time(1.0, 0.3 + 0.3j, 0.3 + 0.3j, dens, h=1e-4) == 0.0


@pytest.mark.parametrize("h", [0.0, -1e-3])
def test_hit_time_rejects_non_positive_step(h):
    # a step that is not > 0 would never reach the target
    with pytest.raises(ValueError):
        hit_time(1.0, 0.2 + 0.5j, 0.8 + 0.5j, UNIT, h=h)
    with pytest.raises(ValueError):
        hit_time(1.0, 0.3 + 0.3j, 0.3 + 0.3j, UNIT, h=h)


def test_hit_time_affine_matches_quadrature():
    dens = DensitySpec.affine(1.0, 1.0, 0.0)
    got = hit_time(1.0, 0.0 + 0.5j, 0.5 + 0.5j, dens, h=1e-4)
    assert got == pytest.approx(oracle_affine_hit(1.0, 0.0, 0.5), abs=1e-3)


# -- predictions ---------------------------------------------------------------------

def test_predict_straight_constant_example():
    length, nb, curve = predict_straight("straight-t", math.pi / 2,
                                         0.2 + 0.5j, 0.8 + 0.5j, UNIT)
    assert length == pytest.approx(0.688676, abs=1e-6)
    assert nb == pytest.approx(0.677028, abs=1e-4)
    assert curve.end_position == pytest.approx(0.8 + 0.5j, abs=1e-6)


def test_predict_straight_degenerate():
    length, nb, curve = predict_straight("straight-t", math.pi / 2,
                                         0.4 + 0.4j, 0.4 + 0.4j, UNIT)
    assert length == 0.0 and nb == 0.0
    assert len(curve.times) == 1


def test_predict_straight_affine_matches_quadrature():
    dens = DensitySpec.affine(1.0, 1.0, 0.0)
    row = constants("straight-t", math.pi / 2)
    length, nb, _ = predict_straight("straight-t", math.pi / 2,
                                     0.05 + 0.5j, 0.55 + 0.5j, dens)
    want = integrate.quad(lambda u: math.sqrt(1.0 + u), 0.05, 0.55)[0] / row.c_bis
    assert nb == pytest.approx(want, abs=1e-3)
    assert length == pytest.approx(row.q_bis * 0.5)


def test_predict_cross_bisector_reduces_to_single_leg():
    t = cmath.rect(0.8, 2.0 * math.pi / 6)
    row = constants("t", math.pi / 3)
    length, nb, curve = predict_cross("t", 6, 0j, t, WIDE)
    assert length == pytest.approx(row.q_bis * 0.8)
    assert nb == pytest.approx(0.8 / row.c_bis, abs=1e-4)


def test_predict_cross_example_20_degrees():
    t = cmath.rect(1.0, 20 * DEG)
    length, nb, curve = predict_cross("t", 6, 0j, t, WIDE)
    corner_x = math.cos(20 * DEG) - math.sin(20 * DEG) / math.tan(30 * DEG)
    leg2 = abs(t - corner_x)
    want_len = (oracle_e_l_t(math.pi / 3) / oracle_e_x_t(math.pi / 3)) * corner_x \
        + (oracle_e_l_t(math.pi / 3) / oracle_e_xi_t(math.pi / 3)) * leg2
    want_nb = corner_x / oracle_e_x_t(math.pi / 3) + leg2 / oracle_e_xi_t(math.pi / 3)
    assert length == pytest.approx(want_len, rel=1e-9)
    assert length == pytest.approx(1.19750, abs=5e-5)
    assert nb == pytest.approx(want_nb, abs=1e-3)
    # glued curve is continuous, passes through the corner, and its range
    # equals the two-leg polyline up to the step resolution
    steps = np.hypot(*np.diff(curve.positions, axis=0).T)
    assert steps.max() < 2e-3
    mid = curve.position_at([curve.times[-1]])[0]
    assert complex(*mid) == pytest.approx(t, abs=1e-6)
    dists = np.hypot(curve.positions[:, 0] - corner_x, curve.positions[:, 1])
    assert dists.min() < 1e-6
    from geonav import CrossParams, gamma_path, hausdorff_distance
    poly = gamma_path(0j, t, CrossParams(6))
    curve_pts = [complex(x, y) for x, y in curve.positions]
    assert hausdorff_distance(curve_pts, poly, 1e-4) < 1e-3


def test_predict_cross_degenerate_and_range():
    assert predict_cross("t", 6, 1j, 1j, WIDE)[0] == 0.0
    with pytest.raises(OutOfRangeTheta):
        predict_cross("t", 5, 0j, 1 + 0j, WIDE)
    # at p_theta 7 the bisector leg of this pair bends out of the inset
    # before the border leg comes back to t, which is inside it
    s, t = 0.06 + 0.1j, 0.147 + 0.592j
    assert UNIT.domain.contains(t, UNIT.inset_a)
    with pytest.raises(GammaLeavesInset):
        predict_cross("t", 7, s, t, UNIT)
    with pytest.raises(GammaLeavesInset):
        predict_cost("t", 2 * math.pi / 7, (1.0,), s, t, UNIT, p_theta=7)


def test_predict_cost_identities():
    cases = [
        ("straight-t", math.pi / 2, None, UNIT, 0.2 + 0.5j, 0.8 + 0.5j),
        ("straight-t", math.pi / 2, None, DensitySpec.affine(1.0, 1.0, 0.0),
         0.05 + 0.5j, 0.55 + 0.5j),
        ("random-north-y", math.pi / 3, 6, UNIT, 0.2 + 0.3j, 0.7 + 0.6j),
        ("t", math.pi / 3, 6, WIDE, 0j, cmath.rect(1.0, 20 * DEG)),
    ]
    for kind, theta, p, dens, s, t in cases:
        if kind == "t":
            length, nb, _ = predict_cross(kind, p, s, t, dens)
        else:
            length, nb, _ = predict_straight(kind, theta, s, t, dens)
        c0, c1 = predict_cost(kind, theta, (0.0, 1.0), s, t, dens, p_theta=p)
        assert c0 == pytest.approx(nb, rel=1e-9)
        assert c1 == pytest.approx(length, rel=1e-9)


def test_predict_cost_quadratic_cross():
    # disk-capped family, g=2: per-unit-time cost rate is E(l^2) = 2/theta
    theta = math.pi / 3
    t = cmath.rect(1.0, 20 * DEG)
    _, nb, _ = predict_cross("yao", 6, 0j, t, WIDE)
    (got,) = predict_cost("yao", theta, (2.0,), 0j, t, WIDE, p_theta=6)
    assert got == pytest.approx((2.0 / theta) * nb, rel=1e-6)


def test_predict_cost_walks_each_leg_once(monkeypatch):
    # one cost walk per leg carries every exponent: one walk for a segment,
    # two for a cross pair with a corner, none without exponents or for s == t
    walks = []
    walk = limits._walk
    monkeypatch.setattr(limits, "_walk", lambda *a, **k: walks.append(a) or walk(*a, **k))
    cases = [("straight-t", math.pi / 2, None, 0.2 + 0.5j, 0.8 + 0.5j, 1),
             ("t", math.pi / 3, 6, 0j, cmath.rect(1.0, 20 * DEG), 2)]
    for kind, theta, p, s, t, legs in cases:
        walks.clear()
        got = predict_cost(kind, theta, (0.0, 1.0, 2.0, 0.5), s, t, WIDE, p_theta=p)
        assert len(got) == 4 and len(walks) == legs
        walks.clear()
        assert predict_cost(kind, theta, (), s, t, WIDE, p_theta=p) == ()
        assert predict_cost(kind, theta, (0.0, 1.0), s, s, WIDE, p_theta=p) == (0.0, 0.0)
        assert walks == []


def test_predict_cost_never_samples(monkeypatch):
    # every cost rate is exact: no prediction draws from the hop law, at
    # exponents off the closed forms too
    def refuse(*args, **kwargs):
        raise AssertionError("a prediction sampled the hop law")

    monkeypatch.setattr(limits, "stage_samples", refuse)
    cases = [("straight-t", math.pi / 2, None, 0.2 + 0.5j, 0.8 + 0.5j),
             ("t", math.pi / 3, 6, 0j, cmath.rect(1.0, 20 * DEG))]
    for kind, theta, p, s, t in cases:
        got = predict_cost(kind, theta, (0.5, 1.5, 3.0), s, t, WIDE, p_theta=p)
        assert len(got) == 3
        assert all(type(c) is float and math.isfinite(c) and c > 0.0 for c in got)


def test_predict_cost_cross_needs_p_theta():
    with pytest.raises(ValueError):
        predict_cost("t", math.pi / 3, (1.0,), 0j, 0.5 + 0j, WIDE)


def test_weighted_length_equality_iff_on_bisector():
    # the legs' polyline is as long as the segment only when t lies on a
    # bisector, where one leg at the bisector constants remains
    row = constants("t", math.pi / 3)
    on = cmath.rect(0.5, 2 * math.pi / 6)
    off = cmath.rect(0.5, 2 * math.pi / 6 + 0.2)
    legs = limits._legs("t", None, 6, 0j, on, WIDE)
    assert [(lam, q) for _, _, lam, q in legs] == [(row.c_bis, row.q_bis)]
    assert sum(abs(b - a) for a, b, _, _ in legs) == pytest.approx(0.5)
    assert sum(q * abs(b - a) for a, b, _, q in legs) == pytest.approx(row.q_bis * 0.5)
    legs = limits._legs("t", None, 6, 0j, off, WIDE)
    assert sum(abs(b - a) for a, b, _, _ in legs) > 0.5 + 1e-6


# -- golden predictions ----------------------------------------------------------------
# The values below were recorded before the Euler loops were rewritten on
# scalar floats; every later rewrite of the prediction path (such as fusing
# the walks of one pair) must reproduce them exactly, since the harness CSV
# prints them with repr.

GOLDEN_DENSITIES = {
    "affine": DensitySpec.affine(1.0, 0.8, -0.3),
    "bump": DensitySpec.radial_bump((0.5, 0.5), 0.5, 1.5, 0.3),
}
GOLDEN_PAIRS = {
    "affine": [(0.2 + 0.3j, 0.7 + 0.6j), (0.8 + 0.2j, 0.35 + 0.75j),
               (0.6 + 0.85j, 0.25 + 0.15j)],
    "bump": [(0.15 + 0.5j, 0.85 + 0.55j), (0.3 + 0.2j, 0.6 + 0.8j),
             (0.8 + 0.7j, 0.2 + 0.3j)],
}


def golden_record(dens, s, t, kind):
    """repr of every number the harness takes from one pair's predictions,
    at the library's default Euler step: length, nb, the curve's end point,
    step count, end time and hit time, and the costs at g = 0, 1, 2."""
    if kind == "t":
        length, nb, curve = predict_cross(kind, 6, s, t, dens)
    else:
        length, nb, curve = predict_straight(kind, math.pi / 3, s, t, dens)
    costs = predict_cost(kind, math.pi / 3, (0.0, 1.0, 2.0), s, t, dens,
                         p_theta=6 if kind == "t" else None)
    return (repr(float(length)), repr(float(nb)), repr(curve.end_position),
            len(curve.times), repr(float(curve.times[-1])),
            repr(float(curve.hit_time)), tuple(repr(float(c)) for c in costs))


GOLDEN = {
    ("affine", 0, "straight-t"): (
        "0.6140361704807901", "0.5529482663153547", "(0.7000000000000008+0.5999999999999984j)",
        3911, "0.5529482663153567", "0.5529482663153567",
        ("0.5529482663153567", "0.6140361704807915", "0.8710554384839718")),
    ("affine", 0, "t"): (
        "0.7089275939690075", "0.637562945066474", "(0.7000000000000002+0.5999999999999995j)",
        4511, "0.6375629450664759", "0.6375629450664759",
        ("0.6375629450664759", "0.7089275939690107", "1.0070443918200227")),
    ("affine", 1, "straight-t"): (
        "0.7483421115699506", "0.6982006618779538", "(0.35000000000000125+0.7500000000000011j)",
        4939, "0.6982006618779536", "0.6982006618779536",
        ("0.6982006618779536", "0.7483421115699526", "1.0266963193897591")),
    ("affine", 1, "t"): (
        "0.8082710281122079", "0.7558759970491009", "(0.3499999999999998+0.7499999999999997j)",
        5347, "0.7558759970490987", "0.7558759970490987",
        ("0.7558759970490987", "0.8082710281122045", "1.106269636328893")),
    ("affine", 2, "straight-t"): (
        "0.8241524281281922", "0.7319591609974003", "(0.24999999999999695+0.15000000000000147j)",
        5177, "0.7319591609973993", "0.7319591609973993",
        ("0.7319591609973993", "0.8241524281281926", "1.1839085874725348")),
    ("affine", 2, "t"): (
        "0.8511809677005052", "0.7499521687646987", "(0.25+0.15j)",
        5305, "0.7499521687646991", "0.7499521687646991",
        ("0.7499521687646991", "0.8511809677005082", "1.2326379365928164")),
    ("bump", 0, "straight-t"): (
        "0.7390224190450688", "0.6318248092312478", "(0.8499999999999985+0.5500000000000209j)",
        4469, "0.6318248092312393", "0.6318248092312393",
        ("0.6318248092312393", "0.7390224190450758", "1.1800527142775656")),
    ("bump", 0, "t"): (
        "0.7675436615214771", "0.6514224129374898", "(0.8499999999999953+0.5500000000000081j)",
        4608, "0.6514224129374866", "0.6514224129374866",
        ("0.6514224129374866", "0.7675436615214704", "1.2379478404572337")),
    ("bump", 1, "straight-t"): (
        "0.706416366967022", "0.6064931716412308", "(0.5999999999999978+0.8000000000000013j)",
        4290, "0.606493171641227", "0.606493171641227",
        ("0.606493171641227", "0.7064163669670286", "1.118035718019401")),
    ("bump", 1, "t"): (
        "0.7295836866004329", "0.6273466540845992", "(0.6+0.8j)",
        4438, "0.6273466540846018", "0.6273466540846018",
        ("0.6273466540846018", "0.7295836866004382", "1.1565839272065335")),
    ("bump", 2, "straight-t"): (
        "0.7593747770806379", "0.6465318703005697", "(0.20000000000000007+0.2999999999999998j)",
        4573, "0.6465318703005605", "0.6465318703005605",
        ("0.6465318703005605", "0.7593747770806429", "1.2205362839648155")),
    ("bump", 2, "t"): (
        "0.8750325689828237", "0.7425178227987255", "(0.19999999999999715+0.3000000000000048j)",
        5252, "0.7425178227987254", "0.7425178227987254",
        ("0.7425178227987254", "0.8750325689828421", "1.4099228999051425")),
}


@pytest.mark.parametrize("name,k", [(name, k) for name in GOLDEN_PAIRS for k in range(3)])
def test_predictions_match_golden_values(name, k):
    s, t = GOLDEN_PAIRS[name][k]
    for kind in ("straight-t", "t"):
        assert golden_record(GOLDEN_DENSITIES[name], s, t, kind) == GOLDEN[(name, k, kind)]
