"""Acceptance suite: desk-scale reproduction of the limiting laws.

One test per criterion (A1..A11); each prints a PASS/FAIL line with the
measured quantities before asserting, so a red criterion still reports its
numbers.  Run with ``pytest tests/test_acceptance.py -s`` to see every line.
"""

import cmath
import math

import numpy as np
import pytest

from geonav import (CrossParams, DensitySpec, NavKind, NavSpec, constants,
                    costs, gamma_path, hausdorff_distance, mc_constants,
                    predict_cost, predict_cross, predict_straight, run,
                    sample_ppp, stage_samples)
from geonav.limits import hop_moment

DEG = math.pi / 180.0
UNIT = DensitySpec.constant(1.0)

N_MAIN = 1e5
SEEDS = 20


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared simulation batches
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def straight_runs():
    """A1/A2/A7 batch: straight-t, theta=pi/2, f=1, n=1e5, 20 seeds."""
    spec = NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2)
    s, t = 0.2 + 0.5j, 0.8 + 0.5j
    recs = [run(spec, s, t, sample_ppp(UNIT, N_MAIN, seed=11000 + i))
            for i in range(SEEDS)]
    return s, t, recs


@pytest.fixture(scope="module")
def cross_runs():
    """A3 batch: six-sector T navigation, f=1, n=1e5, 20 seeds."""
    spec = NavSpec(kind=NavKind.THETA, p_theta=6)
    s = 0.15 + 0.15j
    t = s + 0.7 * cmath.rect(1.0, 20 * DEG)
    recs = [run(spec, s, t, sample_ppp(UNIT, N_MAIN, seed=13000 + i))
            for i in range(SEEDS)]
    return s, t, recs


def test_A1_straight_length_law(straight_runs):
    s, t, recs = straight_runs
    q = constants("straight-t", math.pi / 2).q_bis
    ratios = np.array([r.length / abs(t - s) for r in recs])
    mean_dev = abs(ratios.mean() / q - 1.0)
    worst_dev = float(np.abs(ratios / q - 1.0).max())
    ok = mean_dev <= 0.01 and worst_dev <= 0.05
    assert report("A1", ok,
                  f"mean |path|/|s-t| = {ratios.mean():.6f} vs {q:.6f} "
                  f"(mean dev {100 * mean_dev:.2f}% <= 1%, "
                  f"worst dev {100 * worst_dev:.2f}% <= 5%)")


def test_A2_straight_stage_count(straight_runs):
    s, t, recs = straight_runs
    c = constants("straight-t", math.pi / 2).c_bis
    target = abs(t - s) / c
    nbs = np.array([r.nb / math.sqrt(N_MAIN) for r in recs])
    dev = abs(nbs.mean() / target - 1.0)
    ok = dev <= 0.02
    assert report("A2", ok,
                  f"mean nb/sqrt(n) = {nbs.mean():.6f} vs {target:.6f} "
                  f"(dev {100 * dev:.2f}% <= 2%)")


def test_A3_cross_weighted_length(cross_runs):
    s, t, recs = cross_runs
    pred_len, pred_nb, _ = predict_cross("t", 6, s, t, UNIT)
    lens = np.array([r.length for r in recs])
    nbs = np.array([r.nb / math.sqrt(N_MAIN) for r in recs])
    dev_len = abs(lens.mean() / pred_len - 1.0)
    dev_nb = abs(nbs.mean() / pred_nb - 1.0)
    ok = dev_len <= 0.02 and dev_nb <= 0.03
    assert report("A3", ok,
                  f"mean length {lens.mean():.5f} vs {pred_len:.5f} "
                  f"(dev {100 * dev_len:.2f}% <= 2%); mean nb/sqrt(n) "
                  f"{nbs.mean():.5f} vs {pred_nb:.5f} (dev {100 * dev_nb:.2f}% <= 3%)")


def test_A4_trajectory_geometry(straight_runs, cross_runs):
    # mean Hausdorff to the limit polyline at the A1/A3 scale, plus a sweep
    # across n that must decrease with log-log slope <= -0.2
    s1, t1, recs1 = straight_runs
    s3, t3, recs3 = cross_runs
    poly1 = [s1, t1]
    poly3 = gamma_path(s3, t3, CrossParams(6))
    dh1 = float(np.mean([hausdorff_distance([complex(x, y) for x, y in r.stops],
                                            poly1, 1e-3) for r in recs1]))
    dh3 = float(np.mean([hausdorff_distance([complex(x, y) for x, y in r.stops],
                                            poly3, 1e-3) for r in recs3]))
    sweep = {}
    spec1 = NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2)
    spec3 = NavSpec(kind=NavKind.THETA, p_theta=6)
    for n in (1e4, 4e4, 1.6e5):
        vals = []
        for i in range(12):
            ps = sample_ppp(UNIT, n, seed=int(14000 + n / 1e3) + i)
            ra = run(spec1, s1, t1, ps)
            rb = run(spec3, s3, t3, ps)
            vals.append(hausdorff_distance([complex(x, y) for x, y in ra.stops],
                                           poly1, 1e-3))
            vals.append(hausdorff_distance([complex(x, y) for x, y in rb.stops],
                                           poly3, 1e-3))
        sweep[n] = float(np.mean(vals))
    ns = sorted(sweep)
    means = [sweep[n] for n in ns]
    x = np.log(ns)
    y = np.log(means)
    slope = float(np.polyfit(x, y, 1)[0])
    monotone = means[0] > means[1] > means[2]
    ok = dh1 <= 0.01 and dh3 <= 0.01 and monotone and slope <= -0.2
    assert report("A4", ok,
                  f"mean d_H straight {dh1:.4f} / cross {dh3:.4f} (<= 0.01); "
                  f"sweep {', '.join(f'n={n:g}: {sweep[n]:.4f}' for n in ns)}; "
                  f"monotone={monotone}, slope {slope:.3f} <= -0.2")


def test_A5_position_law_nonconstant_density():
    dens = DensitySpec.affine(1.0, 1.0, 0.0)
    spec = NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2)
    s, t = 0.05 + 0.5j, 0.55 + 0.5j
    pred_len, pred_nb, curve = predict_straight("straight-t", math.pi / 2, s, t, dens)
    sups, nbs = [], []
    for i in range(SEEDS):
        ps = sample_ppp(dens, N_MAIN, seed=15000 + i)
        rec = run(spec, s, t, ps)
        ts = np.arange(len(rec.stops)) / math.sqrt(N_MAIN)
        sups.append(float(np.hypot(*(rec.stops - curve.position_at(ts)).T).max()))
        nbs.append(rec.nb / math.sqrt(N_MAIN))
    sup_mean = float(np.mean(sups))
    dev_nb = abs(np.mean(nbs) / pred_nb - 1.0)
    ok = sup_mean <= 0.02 and dev_nb <= 0.02
    assert report("A5", ok,
                  f"mean sup position error {sup_mean:.4f} <= 0.02; "
                  f"mean nb/sqrt(n) {np.mean(nbs):.5f} vs {pred_nb:.5f} "
                  f"(dev {100 * dev_nb:.2f}% <= 2%)")


def test_A6_moment_constant_consistency():
    thetas = [math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]
    checks = []
    for j, theta in enumerate(thetas):
        mct = mc_constants("directed-t", theta, 10 ** 6, seed=16000 + j)
        row_st = constants("straight-t", theta)
        checks.append(("c_bis[t]", theta, mct.e_x, row_st.c_bis, mct.se_e_x))
        checks.append(("q_bis[t]", theta, mct.q_bis, row_st.q_bis, mct.se_q_bis))
        if theta <= math.pi / 3 + 1e-12:
            row_t = constants("t", theta)
            checks.append(("c_bor[t]", theta, mct.e_xi, row_t.c_bor, mct.se_e_xi))
            checks.append(("q_bor[t]", theta, mct.q_bor, row_t.q_bor, mct.se_q_bor))
        mcy = mc_constants("directed-y", theta, 10 ** 6, seed=16500 + j,
                           pow_gs=(2.0,))
        checks.append(("e_l2[y]", theta, mcy.e_l_pow[2.0], 2.0 / theta,
                       mcy.se_e_l_pow[2.0]))
        if theta < math.pi / 2 - 1e-12:
            row_sy = constants("straight-yao", theta)
            checks.append(("c_bis[y]", theta, mcy.e_x, row_sy.c_bis, mcy.se_e_x))
            checks.append(("q_bis[y]", theta, mcy.q_bis, row_sy.q_bis, mcy.se_q_bis))
        if theta <= math.pi / 3 + 1e-12:
            row_y = constants("yao", theta)
            checks.append(("c_bor[y]", theta, mcy.e_xi, row_y.c_bor, mcy.se_e_xi))
            checks.append(("q_bor[y]", theta, mcy.q_bor, row_y.q_bor, mcy.se_q_bor))
    worst = 0.0
    bad = []
    for name, theta, est, want, se in checks:
        z = abs(est - want) / se
        worst = max(worst, z)
        if z > 3.0:
            bad.append(f"{name}@{theta:.3f}: z={z:.2f}")
    ok = not bad
    assert report("A6", ok,
                  f"{len(checks)} closed-form comparisons at 1e6 samples, "
                  f"worst z = {worst:.2f} (<= 3)"
                  + (f"; failed: {bad}" if bad else ""))


def test_A7_quadratic_cost(straight_runs):
    s, t, recs = straight_runs
    # validate the closed-form quadratic hop moment by sampling first
    q = hop_moment(NavKind.STRAIGHT_THETA, math.pi / 2, 2.0)
    mc = mc_constants("directed-t", math.pi / 2, 10 ** 6, seed=17000, pow_gs=(2.0,))
    z = abs(mc.e_l_pow[2.0] - q) / mc.se_e_l_pow[2.0]
    (pred,) = predict_cost("straight-t", math.pi / 2, (2.0,), s, t, UNIT)
    vals = np.array([costs(r, (2.0,)).values[0] * math.sqrt(N_MAIN) for r in recs])
    dev = abs(vals.mean() / pred - 1.0)
    ok = q == pytest.approx(4.0 / 3.0) and z <= 3.0 and dev <= 0.03
    assert report("A7", ok,
                  f"hop moment q = {q:.6f} (= 4/3, MC z = {z:.2f}); mean "
                  f"cost*sqrt(n) = {vals.mean():.5f} vs {pred:.5f} "
                  f"(dev {100 * dev:.2f}% <= 3%)")


def test_A8_termination_and_monotonicity():
    rng = np.random.default_rng(18500)
    ps = sample_ppp(UNIT, 2000, seed=18000)
    specs = [NavSpec(kind=NavKind.THETA, p_theta=6),
             NavSpec(kind=NavKind.YAO, p_theta=6),
             NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2),
             NavSpec(kind=NavKind.STRAIGHT_YAO, theta=2 * math.pi / 5)]
    cross = CrossParams(6)
    c = 2.0 - math.sqrt(3.0)
    a = UNIT.inset_a
    pairs = []
    while len(pairs) < 1000:
        s = complex(rng.uniform(a, 1 - a), rng.uniform(a, 1 - a))
        t = complex(rng.uniform(a, 1 - a), rng.uniform(a, 1 - a))
        if abs(s - t) < 0.05:
            continue
        if all(UNIT.domain.contains(p, a) for p in gamma_path(s, t, cross)):
            pairs.append((s, t))
    failures = 0
    runs = 0
    for s, t in pairs:
        for spec in specs:
            rec = run(spec, s, t, ps)
            runs += 1
            d = rec.dist_to_target()
            stage = rec.stage_lengths
            drop = -np.diff(d)
            # minimal progress applies to hops short relative to the
            # traveller's current distance to the target
            small = stage <= d[:-1] / 2.0
            good = (rec.success
                    and (drop > 0.0).all()
                    and (d <= abs(t - s) + 1e-12).all()
                    and (drop[small] >= c * stage[small] - 1e-12).all())
            if not good:
                failures += 1
    ok = failures == 0
    assert report("A8", ok,
                  f"{runs} runs over 1000 pairs x 4 kinds: "
                  f"{failures} violations of success/monotone/containment/"
                  f"minimal-progress")


def test_A9_euler_scheme():
    dens = DensitySpec.affine(1.0, 1.0, 0.0)
    lam = 1.0

    def exact(x):
        return (1.0 + 1.5 * lam * x) ** (2.0 / 3.0) - 1.0

    hs = [1e-2, 1e-3, 1e-4]
    errs = []
    for h in hs:
        z = 0.0
        t = 0.0
        worst = 0.0
        while t < 1.0:
            z += h * lam / math.sqrt(1.0 + z)
            t += h
            worst = max(worst, abs(z - exact(t)))
        errs.append(worst)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    # worst-case bounded slope perturbation: a constant push of size c
    h = 1e-4
    big_c = {}
    for cpert in (1e-3, 1e-4):
        z = zp = 0.0
        dev = 0.0
        for _ in range(10_000):
            z += h * lam / math.sqrt(1.0 + z)
            zp += h * (lam / math.sqrt(1.0 + zp) + cpert)
            dev = max(dev, abs(zp - z))
        big_c[cpert] = dev / max(h, cpert)
    stable = max(big_c.values()) / min(big_c.values()) <= 3.0
    ok = abs(slope - 1.0) <= 0.1 and all(v <= 5.0 for v in big_c.values()) and stable
    assert report("A9", ok,
                  f"euler error slope {slope:.3f} (1.0 +- 0.1); perturbation "
                  f"constants {', '.join(f'c={c:g}: {v:.3f}' for c, v in big_c.items())}"
                  f" (bounded, stable)")


def test_A10_equivariance():
    rng = np.random.default_rng(20000)
    from geonav import PointSet, Rect
    wide = DensitySpec.constant(1.0, domain=Rect(-3, -3, 3, 3), inset_a=0.1)
    p = 6
    theta = 2 * math.pi / p
    bad = 0
    for trial in range(100):
        pts = rng.uniform(-1.2, 1.2, size=(120, 2))
        s = complex(rng.uniform(-0.8, -0.3), rng.uniform(-0.4, 0.4))
        t = complex(rng.uniform(0.3, 0.8), rng.uniform(-0.4, 0.4))
        kind = [NavKind.THETA, NavKind.YAO, NavKind.STRAIGHT_THETA,
                NavKind.STRAIGHT_YAO][trial % 4]
        if kind in (NavKind.THETA, NavKind.YAO):
            spec = NavSpec(kind=kind, p_theta=p)
        else:
            spec = NavSpec(kind=kind, theta=1.3)
        base = PointSet(pts, wide, 0, ("iid", len(pts)))
        rec = run(spec, s, t, base)
        if trial % 2 == 0:
            lam = float(rng.uniform(0.4, 1.6))
            other = PointSet(pts * lam, wide, 0, ("iid", len(pts)))
            rec2 = run(spec, lam * s, lam * t, other)
        else:
            # cross kinds rotate by a sector multiple, straight by any angle
            ang = theta * int(rng.integers(0, p)) if kind in (NavKind.THETA, NavKind.YAO) \
                else float(rng.uniform(0, 2 * math.pi))
            rot = cmath.exp(1j * ang)
            rpts = np.column_stack([pts[:, 0] * rot.real - pts[:, 1] * rot.imag,
                                    pts[:, 0] * rot.imag + pts[:, 1] * rot.real])
            other = PointSet(rpts, wide, 0, ("iid", len(pts)))
            rec2 = run(spec, rot * s, rot * t, other)
        if rec.stop_ids != rec2.stop_ids or rec.nb != rec2.nb:
            bad += 1
    ok = bad == 0
    assert report("A10", ok,
                  f"100 scale/rotation fixtures, {bad} stop-sequence mismatches")


def test_A11_random_north_length_law():
    p = 6
    theta = 2 * math.pi / p
    row = constants("random-north-t", theta)
    # cross-validate the closed form by direct sampling before the runs
    rng = np.random.default_rng(21500)
    hops = stage_samples(NavKind.DIRECTED_THETA, theta, 10 ** 6, seed=21600)
    eta = rng.uniform(-theta / 2, theta / 2, size=10 ** 6)
    prog = hops[:, 0] * np.cos(eta) - hops[:, 1] * np.sin(eta)
    l = np.hypot(hops[:, 0], hops[:, 1])
    ratio = l.mean() / prog.mean()
    resid = l - ratio * prog
    se = float(np.sqrt(resid.var(ddof=1) / 10 ** 6) / prog.mean())
    z = abs(ratio - row.q_bis) / se
    spec = NavSpec(kind=NavKind.RANDOM_NORTH_THETA, p_theta=p, north_seed=77)
    s, t = 0.2 + 0.5j, 0.8 + 0.5j
    ratios = []
    for i in range(SEEDS):
        ps = sample_ppp(UNIT, N_MAIN, seed=21000 + i)
        rec = run(spec, s, t, ps)
        assert rec.success
        ratios.append(rec.length / abs(t - s))
    dev = abs(np.mean(ratios) / row.q_bis - 1.0)
    ok = z <= 3.0 and dev <= 0.02
    assert report("A11", ok,
                  f"Q_rn = {row.q_bis:.6f} (MC z = {z:.2f}); mean ratio "
                  f"{np.mean(ratios):.5f} (dev {100 * dev:.2f}% <= 2%)")
