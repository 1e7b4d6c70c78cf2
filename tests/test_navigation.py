import cmath
import hashlib
import math

import numpy as np
import pytest

from geonav import (DensitySpec, NavKind, NavSpec, PointSet, Rect, costs, load_points,
                    nearest_in_sector, next_stop, run, run_directed, sample_ppp, save_points,
                    stage_samples)
from geonav.geometry import sector_of_angle
from geonav.navigation import PathRecord, norths_for

DEG = math.pi / 180.0
UNIT = DensitySpec.constant(1.0)
BIG = DensitySpec.constant(1.0, domain=Rect(-3, -3, 11, 11), inset_a=0.5)


def make_set(points, density=UNIT):
    return PointSet(np.asarray(points, dtype=float).reshape(-1, 2),
                    density, 0, ("iid", len(points)))


EMPTY = make_set(np.empty((0, 2)))


# -- next_stop -----------------------------------------------------------------

def test_next_stop_empty_set_goes_to_target():
    for kind, kw in [(NavKind.STRAIGHT_THETA, dict(theta=math.pi / 2)),
                     (NavKind.STRAIGHT_YAO, dict(theta=math.pi / 2)),
                     (NavKind.THETA, dict(p_theta=6)),
                     (NavKind.YAO, dict(p_theta=6)),
                     (NavKind.RANDOM_NORTH_THETA, dict(p_theta=6, north_seed=1))]:
        spec = NavSpec(kind=kind, **kw)
        assert next_stop(spec, 0.2 + 0.2j, 0.8 + 0.7j, EMPTY) == 0.8 + 0.7j


def test_next_stop_straight_triangle_example():
    ps = make_set([(1.0, 0.5), (2.0, -0.1), (0.5, 2.0)], BIG)
    spec = NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2)
    assert next_stop(spec, 0j, 10 + 0j, ps) == 1.0 + 0.5j


def test_next_stop_target_precedence_cross():
    # target sits just in front of the start; all points lie beyond it
    t = 0.001 * cmath.rect(1.0, 20 * DEG)
    ps = make_set([(0.9, 0.3), (0.8, 0.1), (0.7, 0.4)], BIG)
    spec = NavSpec(kind=NavKind.THETA, p_theta=6)
    assert next_stop(spec, 0j, t, ps) == t


def test_next_stop_directed_halts_on_empty_sector():
    spec = NavSpec(kind=NavKind.DIRECTED_THETA, theta=math.pi / 2, alpha=0.0)
    ps = make_set([(-1.0, 0.0)], BIG)   # behind the axis
    assert next_stop(spec, 0j, None, ps) == 0j


# -- run -----------------------------------------------------------------------

def test_run_empty_set():
    spec = NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2)
    rec = run(spec, 0.2 + 0.5j, 0.8 + 0.5j, EMPTY)
    assert rec.success and rec.nb == 1
    assert rec.length == pytest.approx(0.6)
    assert rec.exit_reason == "reached"


def test_run_start_equals_target():
    spec = NavSpec(kind=NavKind.THETA, p_theta=6)
    rec = run(spec, 0.4 + 0.4j, 0.4 + 0.4j, EMPTY)
    assert rec.success and rec.nb == 0 and rec.length == 0.0


def test_run_monotone_many_seeds():
    # strict approach on every stage, full-scale point sets
    spec = NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2)
    s, t = 0.2 + 0.5j, 0.8 + 0.5j
    for seed in range(100):
        ps = sample_ppp(UNIT, 1e5, seed=5000 + seed)
        rec = run(spec, s, t, ps)
        assert rec.success
        assert rec.monotone_approach()


def test_run_termination_guard_flag():
    assert NavSpec(kind=NavKind.THETA, p_theta=6).guarded
    assert not NavSpec(kind=NavKind.THETA, p_theta=5).guarded
    assert NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2).guarded
    assert NavSpec(kind=NavKind.STRAIGHT_YAO, theta=math.pi / 2 - 0.01).guarded
    assert not NavSpec(kind=NavKind.STRAIGHT_YAO, theta=math.pi / 2).guarded
    assert NavSpec(kind=NavKind.DIRECTED_YAO, theta=math.pi / 2).guarded
    assert not NavSpec(kind=NavKind.DIRECTED_YAO, theta=2.0).guarded


def test_run_invariants_batch():
    """Containment in B(t,|s-t|), length bound, and the minimal-progress
    inequality for early big hops, over many pairs and all targeted kinds."""
    rng = np.random.default_rng(30)
    ps = sample_ppp(UNIT, 3000, seed=31)
    specs = [NavSpec(kind=NavKind.THETA, p_theta=6),
             NavSpec(kind=NavKind.YAO, p_theta=6),
             NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2),
             NavSpec(kind=NavKind.STRAIGHT_YAO, theta=2 * math.pi / 5)]
    c = 2.0 - math.sqrt(3.0)
    for _ in range(60):
        s = complex(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
        t = complex(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
        if abs(s - t) < 0.05:
            continue
        dist0 = abs(t - s)
        n_ball = int((np.hypot(ps.xs - t.real, ps.ys - t.imag) < dist0).sum())
        for spec in specs:
            rec = run(spec, s, t, ps)
            assert rec.success
            d = rec.dist_to_target()
            assert (np.diff(d) < 0).all()
            assert (d <= dist0 + 1e-12).all()
            assert rec.length <= 2.0 * dist0 * max(n_ball, 1)
            first = rec.stage_lengths[0]
            if first <= dist0 / 2.0:
                assert dist0 - d[1] >= c * first - 1e-12


def test_run_cycle_guard_terminates():
    # an unguarded wide-angle run on a crafted set must still terminate
    spec = NavSpec(kind=NavKind.STRAIGHT_YAO, theta=1.9 * math.pi, max_steps=50)
    ps = make_set([(0.45, 0.52), (0.55, 0.48)], UNIT)
    rec = run(spec, 0.2 + 0.5j, 0.8 + 0.5j, ps)
    assert rec.exit_reason in ("reached", "cycle", "max-steps")


# -- directed runs ----------------------------------------------------------------

def test_run_directed_empty_sector():
    spec = NavSpec(kind=NavKind.DIRECTED_THETA, theta=math.pi / 2, alpha=0.0)
    ps = make_set([(-1.0, 0.0)], BIG)
    rec = run_directed(spec, 0j, ps, stop_after=10)
    assert rec.nb == 0 and rec.exit_reason == "sector-empty"


def test_run_directed_mean_progress():
    # mean hop projections match the homogeneous hop law over 50 seeds
    spec = NavSpec(kind=NavKind.DIRECTED_THETA, theta=math.pi / 2, alpha=0.0)
    n = 1e5
    b = math.pi / 4
    xs, xis = [], []
    for seed in range(50):
        ps = sample_ppp(UNIT, n, seed=6000 + seed)
        rec = run_directed(spec, 0.1 + 0.5j, ps, stop_after=100)
        st = rec.stages
        xs.append(st[:, 0].mean())
        xis.append((st[:, 0] * math.cos(b) - st[:, 1] * math.sin(b)).mean())
    e_x = 0.5 * math.sqrt(math.pi / math.tan(b))
    e_xi = e_x * math.cos(b)
    assert np.mean(xs) * math.sqrt(n) == pytest.approx(e_x, rel=0.10)
    assert np.mean(xis) * math.sqrt(n) == pytest.approx(e_xi, rel=0.10)


def test_run_directed_leaves_inset():
    spec = NavSpec(kind=NavKind.DIRECTED_THETA, theta=math.pi / 2, alpha=0.0)
    ps = sample_ppp(UNIT, 2e4, seed=33)
    rec = run_directed(spec, 0.5 + 0.5j, ps)
    assert rec.exit_reason == "left-inset"
    assert rec.stops[-1, 0] > 1.0 - UNIT.inset_a - 1e-12


# -- costs -------------------------------------------------------------------------

def test_costs_identities():
    rec = PathRecord(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]),
                     3 + 4j, True, "reached")
    rep = costs(rec, (0.0, 1.0, 2.0))
    assert rep.values[0] == rec.nb == 2
    assert rep.values[1] == pytest.approx(rec.length) == pytest.approx(7.0)
    assert rep.values[2] == pytest.approx(3.0 ** 2 + 4.0 ** 2) == 25.0


# -- stage sampler -----------------------------------------------------------------

def test_stage_samples_directed_theta_mean():
    s = stage_samples(NavKind.DIRECTED_THETA, math.pi / 2, 10 ** 6, seed=40)
    assert s[:, 0].mean() == pytest.approx(0.5 * math.sqrt(math.pi), abs=2e-3)
    assert s[:, 1].mean() == pytest.approx(0.0, abs=2e-3)


def test_stage_samples_directed_yao_mean_length():
    theta = math.pi / 3
    s = stage_samples(NavKind.DIRECTED_YAO, theta, 10 ** 6, seed=41)
    l = np.hypot(s[:, 0], s[:, 1])
    assert l.mean() == pytest.approx(math.sqrt(math.pi / (2 * theta)), abs=3e-3)


def test_stage_samples_intensity_rescaling():
    from scipy import stats
    c = 7.3
    a = stage_samples(NavKind.DIRECTED_THETA, math.pi / 2, 40_000, seed=42,
                      intensity=c)
    b = stage_samples(NavKind.DIRECTED_THETA, math.pi / 2, 40_000, seed=43)
    la = np.hypot(a[:, 0], a[:, 1]) * math.sqrt(c)
    lb = np.hypot(b[:, 0], b[:, 1])
    assert stats.ks_2samp(la, lb).pvalue > 0.001


# -- symmetry and locality -----------------------------------------------------------

def test_scale_equivariance_runs():
    rng = np.random.default_rng(50)
    wide = DensitySpec.constant(1.0, domain=Rect(0, 0, 3, 3), inset_a=0.1)
    for trial in range(40):
        pts = rng.uniform(0.1, 0.9, size=(60, 2))
        lam = float(rng.uniform(0.5, 3.0))
        base = make_set(pts, wide)
        scaled = make_set(pts * lam, wide)
        s = complex(rng.uniform(0.2, 0.4), rng.uniform(0.2, 0.4))
        t = complex(rng.uniform(0.6, 0.8), rng.uniform(0.6, 0.8))
        spec = NavSpec(kind=NavKind.THETA, p_theta=6) if trial % 2 else \
            NavSpec(kind=NavKind.STRAIGHT_YAO, theta=1.2)
        rec = run(spec, s, t, base)
        rec2 = run(spec, lam * s, lam * t, scaled)
        assert rec.stop_ids == rec2.stop_ids
        assert rec2.nb == rec.nb
        assert np.allclose(rec2.stops, lam * rec.stops, atol=1e-9)


def test_rotation_equivariance_runs():
    rng = np.random.default_rng(51)
    wide = DensitySpec.constant(1.0, domain=Rect(-2, -2, 2, 2), inset_a=0.1)
    p = 6
    theta = 2 * math.pi / p
    for trial in range(40):
        pts = rng.uniform(-0.9, 0.9, size=(80, 2))
        m = int(rng.integers(0, p))
        rot = cmath.exp(1j * m * theta)
        rpts = np.column_stack([pts[:, 0] * rot.real - pts[:, 1] * rot.imag,
                                pts[:, 0] * rot.imag + pts[:, 1] * rot.real])
        s = complex(rng.uniform(-0.5, -0.2), rng.uniform(-0.2, 0.2))
        t = complex(rng.uniform(0.2, 0.5), rng.uniform(-0.2, 0.2))
        spec = NavSpec(kind=NavKind.THETA, p_theta=p) if trial % 2 else \
            NavSpec(kind=NavKind.YAO, p_theta=p)
        rec = run(spec, s, t, make_set(pts, wide))
        rec2 = run(spec, rot * s, rot * t, make_set(rpts, wide))
        assert rec.stop_ids == rec2.stop_ids


def test_straight_matches_directed_far_from_target():
    # far from the target the first straight hop equals the directed hop
    # with the axis aimed at the target
    rng = np.random.default_rng(52)
    for seed in range(20):
        ps = sample_ppp(UNIT, 5e4, seed=7000 + seed)
        s = complex(rng.uniform(0.2, 0.4), rng.uniform(0.2, 0.4))
        t = complex(rng.uniform(0.6, 0.9), rng.uniform(0.6, 0.9))
        st = NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2)
        dt = NavSpec(kind=NavKind.DIRECTED_THETA, theta=math.pi / 2,
                     alpha=cmath.phase(t - s))
        assert next_stop(st, s, t, ps) == next_stop(dt, s, None, ps)


def test_norths_cached_and_deterministic():
    ps = sample_ppp(UNIT, 100, seed=60)
    a = norths_for(ps, 5)
    b = norths_for(ps, 5)
    assert a is b
    assert len(a) == len(ps) + 1
    ps2 = sample_ppp(UNIT, 100, seed=60)
    assert np.array_equal(norths_for(ps2, 5), a)


def test_random_north_run_reaches_target():
    spec = NavSpec(kind=NavKind.RANDOM_NORTH_THETA, p_theta=6, north_seed=9)
    ps = sample_ppp(UNIT, 2e4, seed=61)
    rec = run(spec, 0.2 + 0.5j, 0.8 + 0.5j, ps)
    assert rec.success
    assert rec.monotone_approach()


def test_random_north_run_from_a_stored_point():
    # a run from a stored point aims its first hop with that point's own
    # axis offset, not with the offset kept for other starts
    spec = NavSpec(kind=NavKind.RANDOM_NORTH_THETA, p_theta=6, north_seed=4)
    ps = sample_ppp(UNIT, 2e3, seed=62)
    norths = norths_for(ps, 4)
    t = 0.9 + 0.9j
    pid = next(i for i in range(len(ps))
               if 0.2 < ps.xs[i] < 0.5 and 0.2 < ps.ys[i] < 0.5
               and _first_hop(spec, ps, i, t, norths[i]) != _first_hop(spec, ps, i, t, norths[-1]))
    rec = run(spec, complex(*ps.points[pid]), t, ps)
    assert rec.stop_ids[0] == pid
    assert complex(*rec.stops[1]) == _first_hop(spec, ps, pid, t, norths[pid])


def _first_hop(spec, ps, pid, t, offset):
    s = complex(*ps.points[pid])
    nu = offset + sector_of_angle(cmath.phase(t - s) - offset, spec.theta, 6) * spec.theta
    return nearest_in_sector(ps, s, nu, spec.theta / 2.0, spec.shape, extra=t)[0]


def test_id_of_reads_one_cell(tmp_path):
    rng = np.random.default_rng(63)
    # stored points on the far borders x == x1 and y == y1 are filed in the
    # last column or row, whose cells end short of them or at them
    pts = np.vstack([rng.random((60, 2)), [(1.0, 0.5), (0.3, 1.0), (1.0, 1.0), (0.0, 0.0)]])
    ps = make_set(pts)
    assert ps.index.nx == 8 and ps.index.cell_of(1.0, 1.0) == (7, 7)
    assert [ps.id_of(complex(x, y)) for x, y in pts.tolist()] == list(range(len(pts)))
    for p in (0.5 + 0.5j, 1.0 + 0.7j, complex(pts[3, 0], np.nextafter(pts[3, 1], 2.0))):
        assert ps.id_of(p) == -1
    assert EMPTY.id_of(0.5 + 0.5j) == -1
    # a loaded set keeps duplicate rows: the smallest id of equal rows wins
    path = tmp_path / "dup.csv"
    save_points(make_set([(0.6, 0.6), (0.61, 0.6), (0.1, 0.1), (0.6, 0.6), (0.1, 0.1),
                          (0.6, 0.6)]), path)
    dup = load_points(path)
    assert len(dup) == 6
    assert [dup.id_of(p) for p in (0.6 + 0.6j, 0.61 + 0.6j, 0.1 + 0.1j)] == [0, 1, 2]


def test_path_record_svg(tmp_path):
    from geonav.harness import render_svg
    spec = NavSpec(kind=NavKind.YAO, p_theta=6)
    ps = sample_ppp(UNIT, 800, seed=63)
    rec = run(spec, 0.2 + 0.2j, 0.8 + 0.6j, ps)
    out = tmp_path / "path.svg"
    render_svg(out, ps=ps, paths=[rec], limit_polylines=[[0.2 + 0.2j, 0.8 + 0.6j]])
    text = out.read_text()
    assert text.startswith("<svg") and text.count("<polyline") == 2


# -- golden navigation records -----------------------------------------------------
# One SHA-256 over the stops (by repr), the stop ids and the exit reason of
# runs of all eight kinds, plus one-hop half-plane runs (directed-t at
# theta = pi), on fixed sets at n = 2e3 and 1e5.  Recorded before sector
# queries picked their winner by key alone and computed border distances only
# on ties: any change to which point a hop picks shows here.

GOLDEN_RECORDS_SHA256 = "4e18d59dda44f103868352b088bebd0bc278e7047507ca6c81ba92c16e8724c0"


def golden_records():
    targeted = [NavSpec(kind=NavKind.YAO, p_theta=8), NavSpec(kind=NavKind.THETA, p_theta=6),
                NavSpec(kind=NavKind.STRAIGHT_YAO, theta=math.pi / 3),
                NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2),
                NavSpec(kind=NavKind.RANDOM_NORTH_YAO, p_theta=8, north_seed=3),
                NavSpec(kind=NavKind.RANDOM_NORTH_THETA, p_theta=6, north_seed=4),
                NavSpec(kind=NavKind.THETA, p_theta=6, max_steps=5),
                NavSpec(kind=NavKind.STRAIGHT_YAO, theta=1.9 * math.pi)]   # cycles
    directed = [NavSpec(kind=NavKind.DIRECTED_YAO, theta=math.pi / 2, alpha=0.7),
                NavSpec(kind=NavKind.DIRECTED_THETA, theta=math.pi / 2, alpha=2.9)]
    halfplane = [NavSpec(kind=NavKind.DIRECTED_THETA, theta=math.pi, alpha=a)
                 for a in (0.0, 0.25 * math.pi, 4.0)]
    pairs = [(0.2 + 0.3j, 0.7 + 0.6j), (0.8 + 0.2j, 0.35 + 0.75j)]
    for n, seed in ((2e3, 61), (1e5, 62)):
        ps = sample_ppp(UNIT, n, seed)
        stored = complex(*ps.points[len(ps) // 2])     # a start on a stored point
        for spec in targeted:
            for s, t in pairs + [(stored, 0.5 + 0.5j)]:
                yield run(spec, s, t, ps)
        for spec in directed:
            for s in (0.5 + 0.5j, stored):
                yield run_directed(spec, s, ps, stop_after=40)
        for spec in halfplane:
            for s in (0.5 + 0.5j, stored, 0.05 + 0.95j, 1.0 + 0.5j):
                yield run_directed(spec, s, ps, stop_after=1)


def test_navigation_records_match_golden_hash():
    h = hashlib.sha256()
    reasons = set()
    for rec in golden_records():
        h.update(repr(rec.stops.tolist()).encode())
        h.update(repr([int(i) for i in rec.stop_ids]).encode())
        h.update(rec.exit_reason.encode())
        reasons.add(rec.exit_reason)
    assert reasons == {"reached", "cycle", "max-steps", "step-limit", "left-inset",
                       "sector-empty"}
    assert h.hexdigest() == GOLDEN_RECORDS_SHA256
