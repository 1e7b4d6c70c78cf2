import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonav import (DensitySpec, EmptyPointSet, NavSpec, PointSet, Rect, TooFewPoints,
                    load_points, maxball, navmax, nearest_in_sector, next_stop, r_min,
                    sample_iid, sample_ppp, save_points)
from geonav.geometry import EPS
from geonav.points import _dedupe

UNIT = DensitySpec.constant(1.0)
BUMP = DensitySpec.radial_bump((0.5, 0.5), 0.5, 1.5, 0.3)


def make_set(points, density=UNIT):
    return PointSet(np.asarray(points, dtype=float).reshape(-1, 2),
                    density, 0, ("iid", len(points)))


# -- brute-force oracle for sector queries ------------------------------------

def brute_nearest(ps, apex, nu, half, shape, extra=None):
    ch = math.cos(half)
    sh = math.sin(half)

    def key_of(px, py, pid):
        dx, dy = px - apex.real, py - apex.imag
        c, s = math.cos(nu), math.sin(nu)
        x = dx * c + dy * s
        y = -dx * s + dy * c
        r = math.hypot(x, y)
        if r == 0.0 or x < r * (math.cos(half) - EPS):
            return None
        key = x if shape == "triangle" else r
        along = x * ch - y * sh
        border = abs(x * sh + y * ch) if along >= 0.0 else r
        return (key, border, pid)

    cands = []
    for i, (px, py) in enumerate(ps.points):
        k = key_of(px, py, i)
        if k is not None:
            cands.append(k)
    if extra is not None:
        k = key_of(extra.real, extra.imag, -1)
        if k is not None:
            cands.append(k)
    return min(cands) if cands else None


# -- sampling ------------------------------------------------------------------

def test_ppp_mean_count_constant():
    counts = [len(sample_ppp(UNIT, 1000, seed=s)) for s in range(200)]
    # 3 sigma band for the mean of 200 Poisson(1000) draws
    assert abs(np.mean(counts) - 1000.0) <= 3.0 * math.sqrt(1000.0 / 200.0)


def test_ppp_mean_count_affine():
    dens = DensitySpec.affine(1.0, 1.0, 0.0)
    assert dens.integral == pytest.approx(1.5)
    counts = [len(sample_ppp(dens, 1000, seed=s)) for s in range(200)]
    assert abs(np.mean(counts) - 1500.0) <= 3.0 * math.sqrt(1500.0 / 200.0)


def test_ppp_tiny_n_empty():
    assert len(sample_ppp(UNIT, 1e-9, seed=4)) == 0


def test_ppp_points_inside_domain_no_duplicates():
    dens = DensitySpec.radial_bump(0.5 + 0.5j, 1.0, 3.0, 0.3)
    ps = sample_ppp(dens, 2000, seed=5)
    assert (ps.xs >= 0).all() and (ps.xs <= 1).all()
    assert (ps.ys >= 0).all() and (ps.ys <= 1).all()
    assert len(np.unique(ps.points, axis=0)) == len(ps)


def test_iid_exact_count_and_quadrants():
    n = 10_000
    ps = sample_iid(UNIT, n, seed=6)
    assert len(ps) == n
    q = [((ps.xs < 0.5) & (ps.ys < 0.5)).sum(),
         ((ps.xs >= 0.5) & (ps.ys < 0.5)).sum(),
         ((ps.xs < 0.5) & (ps.ys >= 0.5)).sum(),
         ((ps.xs >= 0.5) & (ps.ys >= 0.5)).sum()]
    sigma = math.sqrt(n * 0.25 * 0.75)
    for c in q:
        assert abs(c - n / 4) <= 3.0 * sigma


def test_iid_zero():
    assert len(sample_iid(UNIT, 0, seed=1)) == 0


def test_sampling_determinism():
    a = sample_ppp(UNIT, 500, seed=42)
    b = sample_ppp(UNIT, 500, seed=42)
    assert np.array_equal(a.points, b.points)
    c = sample_iid(UNIT, 500, seed=42)
    d = sample_iid(UNIT, 500, seed=42)
    assert np.array_equal(c.points, d.points)


def test_ppp_disjoint_counts_independent_poisson():
    """Counts in the 4 quadrants over 500 seeds behave like independent
    Poisson variables: per-quadrant dispersion within chi-square bounds and
    pairwise correlations within normal bounds, all at overall level 1e-3."""
    from scipy import stats
    n = 200.0
    seeds = 500
    counts = np.empty((seeds, 4))
    for s in range(seeds):
        ps = sample_ppp(UNIT, n, seed=9000 + s)
        counts[s] = [((ps.xs < 0.5) & (ps.ys < 0.5)).sum(),
                     ((ps.xs >= 0.5) & (ps.ys < 0.5)).sum(),
                     ((ps.xs < 0.5) & (ps.ys >= 0.5)).sum(),
                     ((ps.xs >= 0.5) & (ps.ys >= 0.5)).sum()]
    # Poisson dispersion: (k-1) * var / mean ~ chi2(k-1); 10 comparisons total
    level = 0.001 / 10.0
    lo, hi = stats.chi2.ppf([level / 2, 1 - level / 2], seeds - 1)
    for j in range(4):
        d = (seeds - 1) * counts[:, j].var(ddof=1) / counts[:, j].mean()
        assert lo < d < hi
    z = stats.norm.ppf(1 - level / 2) / math.sqrt(seeds)
    for a in range(4):
        for b in range(a + 1, 4):
            assert abs(np.corrcoef(counts[:, a], counts[:, b])[0, 1]) < z


def unique_rule_dedupe(pts, draw_one):
    """Reference: redraw every row that ``np.unique`` does not report as the
    first occurrence of its value, in index order, until none is left."""
    while len(pts) > 1:
        _, first = np.unique(pts, axis=0, return_index=True)
        if len(first) == len(pts):
            break
        for i in np.setdiff1d(np.arange(len(pts)), first):
            pts[i] = draw_one(None)
    return pts


def test_dedupe_matches_unique_rule():
    rng = np.random.default_rng(8)
    pts = rng.random((60, 2))
    pts[[7, 19, 33]] = pts[3]
    pts[41] = pts[19]
    pts[50] = pts[2]
    pts[11, 0] = pts[10, 0]          # same x, other y: not a duplicate
    pts[12, 1] = pts[13, 1]          # same y, other x: not a duplicate

    def scripted():
        # the first redraw collides with row 0 again, so a second round runs
        rows = iter([tuple(pts[0])] + [(2.0 + k, 3.0 - k) for k in range(10)])
        return lambda _rng: next(rows)

    want = unique_rule_dedupe(pts.copy(), scripted())
    got = _dedupe(rng, pts.copy(), scripted())
    assert np.array_equal(got, want)
    assert len(np.unique(got, axis=0)) == len(got)
    assert np.array_equal(np.delete(got, [7, 19, 33, 41, 50], axis=0),
                          np.delete(pts, [7, 19, 33, 41, 50], axis=0))


def test_dedupe_keeps_rows_that_share_only_x():
    # equal x values pass the one-key screen, and the two-key rule then finds
    # that their y values differ, so nothing is redrawn
    rng = np.random.default_rng(9)
    pts = rng.random((40, 2))
    pts[[5, 17, 30], 0] = pts[2, 0]
    pts[21, 0] = pts[8, 0]

    def never(_rng):
        raise AssertionError("no row should be redrawn")

    got = _dedupe(rng, pts.copy(), never)
    assert np.array_equal(got, pts)


# -- grid index -----------------------------------------------------------------

def test_index_partitions_ids():
    ps = sample_ppp(UNIT, 3000, seed=7)
    seen = []
    for i in range(ps.index.nx):
        for j in range(ps.index.ny):
            seen.extend(ps.index.ids_in_cell(i, j).tolist())
    assert sorted(seen) == list(range(len(ps)))
    # and each id sits in the cell that geometrically contains it
    for i in range(0, ps.index.nx, 7):
        for j in range(0, ps.index.ny, 7):
            for pid in ps.index.ids_in_cell(i, j):
                assert ps.index.cell_of(ps.xs[pid], ps.ys[pid]) == (i, j)


# -- sector queries ---------------------------------------------------------------

BIG = DensitySpec.constant(1.0, domain=Rect(-3, -3, 11, 11), inset_a=0.5)


def test_nearest_in_sector_triangle_example():
    ps = make_set([(1.0, 0.5), (2.0, -0.1), (0.5, 2.0)], BIG)
    got = nearest_in_sector(ps, 0j, 0.0, math.pi / 4, "triangle")
    assert got is not None and got[0] == 1.0 + 0.5j and got[2] == 0


def test_nearest_in_sector_disk_example():
    ps = make_set([(1.0, 0.5), (2.0, -0.1), (0.5, 2.0)], BIG)
    got = nearest_in_sector(ps, 0j, 0.0, math.pi / 4, "disk")
    assert got is not None and got[0] == 1.0 + 0.5j
    assert got[1] == pytest.approx(math.hypot(1.0, 0.5))


def test_nearest_in_sector_empty_with_target():
    ps = make_set(np.empty((0, 2)), BIG)
    got = nearest_in_sector(ps, 0j, 0.0, math.pi / 4, "triangle", extra=10 + 0j)
    assert got == (10 + 0j, 10.0, -1)
    assert nearest_in_sector(ps, 0j, 0.0, math.pi / 4, "triangle") is None


def test_nearest_in_sector_far_point_near_a_border():
    # the sector is uncapped: at distance 50 with half-angle 0.4, a point at
    # angle 0.39 is inside and one at 0.41 is not
    far = DensitySpec.constant(1.0, domain=Rect(-5, -5, 55, 55), inset_a=0.5)
    inside, outside = 1j + cmath.rect(50.0, 0.39), 1j + cmath.rect(50.0, 0.41)
    for shape in ("disk", "triangle"):
        ps = make_set([(outside.real, outside.imag), (inside.real, inside.imag)], far)
        assert nearest_in_sector(ps, 1j, 0.0, 0.4, shape)[2] == 1
        assert_matches_brute(ps, 1j, 0.0, 0.4, shape, None)
        ps = make_set([(outside.real, outside.imag)], far)
        assert nearest_in_sector(ps, 1j, 0.0, 0.4, shape) is None


def test_nearest_in_sector_matches_brute_force():
    rng = np.random.default_rng(12)
    ps = sample_ppp(UNIT, 1000, seed=13)
    for q in range(10_000):
        apex = complex(rng.uniform(0, 1), rng.uniform(0, 1))
        shape = "disk" if q % 2 else "triangle"
        nu = rng.uniform(0, 2 * math.pi)
        # the triangle key needs a half-angle of at most pi/2
        half = rng.uniform(0.05, 1.57 if shape == "triangle" else 2.8)
        extra = complex(rng.uniform(0, 1), rng.uniform(0, 1)) if q % 3 == 0 else None
        got = nearest_in_sector(ps, apex, nu, half, shape, extra=extra)
        want = brute_nearest(ps, apex, nu, half, shape, extra)
        if want is None:
            assert got is None
        else:
            assert got is not None and got[2] == want[2]
            assert got[1] == pytest.approx(want[0])


def test_nearest_in_sector_exact_tie_break():
    # two points with identical key: the one closer to the first border wins
    big = DensitySpec.constant(1.0, domain=Rect(-2, -2, 2, 2), inset_a=0.1)
    ps = make_set([(1.0, 0.5), (1.0, -0.5)], big)
    got = nearest_in_sector(ps, 0j, 0.0, math.pi / 4, "triangle")
    assert got[0] == 1.0 - 0.5j    # first border sits at angle -pi/4


# -- the half-plane: directed-t at theta = pi ------------------------------------

def halfplane_hop(points, apex):
    """``directed-t`` at ``theta = pi`` with axis 0 from ``apex``: the sector
    is the half-plane right of the vertical line through the apex."""
    ps = make_set(points)
    got = nearest_in_sector(ps, apex, 0.0, math.pi / 2, "triangle")
    assert got == _as_hop(brute_nearest(ps, apex, 0.0, math.pi / 2, "triangle"), ps)
    spec = NavSpec(kind="directed-t", theta=math.pi, alpha=0.0)
    assert next_stop(spec, apex, None, ps) == (apex if got is None else got[0])
    return got


def _as_hop(want, ps):
    return None if want is None else (complex(*ps.points[want[2]]), want[0], want[2])


def test_halfplane_point_on_border_line_has_key_zero():
    # (0.5, 0.8) sits on the border line, (0.6, 0.5) ahead of it
    got = halfplane_hop([(0.6, 0.5), (0.5, 0.8), (0.2, 0.5)], 0.5 + 0.5j)
    assert got == (0.5 + 0.8j, 0.0, 1)


def test_halfplane_point_just_behind_border_line_is_inside():
    # at r = 0.3 the slack is EPS * r = 3e-13: a point 1e-13 behind the line
    # is inside with a key of about -1e-13, one 3 * EPS * r behind is outside
    behind = 1e-13
    got = halfplane_hop([(0.7, 0.5), (0.5 - 3 * EPS * 0.3, 0.2), (0.5 - behind, 0.8)],
                        0.5 + 0.5j)
    assert got[2] == 2 and -2 * behind < got[1] < 0.0
    got = halfplane_hop([(0.5 - 3 * EPS * 0.3, 0.2)], 0.5 + 0.5j)
    assert got is None


def test_halfplane_apex_is_never_a_candidate():
    # the apex is a stored point with key 0; the hop skips it
    got = halfplane_hop([(0.5, 0.5), (0.8, 0.6)], 0.5 + 0.5j)
    assert got == (0.8 + 0.6j, pytest.approx(0.3), 1)
    assert halfplane_hop([(0.5, 0.5), (0.1, 0.6)], 0.5 + 0.5j) is None


# -- pruned sector scans against the brute force --------------------------------

def assert_matches_brute(ps, apex, nu, half, shape, extra):
    got = nearest_in_sector(ps, apex, nu, half, shape, extra=extra)
    want = brute_nearest(ps, apex, nu, half, shape, extra)
    if want is None:
        assert got is None
    else:
        assert got is not None and got[2] == want[2]
        assert got[1] == pytest.approx(want[0])


def cell_apexes(ps, rng, count):
    """Apexes on cell corners, on vertical and on horizontal cell borders."""
    idx = ps.index
    rect = ps.density.domain
    out = []
    for q in range(count):
        x = rect.x0 + int(rng.integers(0, idx.nx + 1)) * idx.cell
        y = rect.y0 + int(rng.integers(0, idx.ny + 1)) * idx.cell
        if q % 3 == 1:
            y = rng.uniform(rect.y0, rect.y1)
        elif q % 3 == 2:
            x = rng.uniform(rect.x0, rect.x1)
        out.append(complex(min(x, rect.x1), min(y, rect.y1)))
    return out


def test_nearest_in_sector_pruning_matches_brute_force():
    """Half-plane triangles, non-convex disks and apexes on the grid lines,
    on a clustered set and on a sparse one (cells sized for 250 times more
    points, so the scan reads wide annuli of empty cells)."""
    rng = np.random.default_rng(14)
    sparse = PointSet(rng.random((40, 2)), UNIT, 0, ("iid", 250_000))
    assert sparse.index.nx == 500
    for ps in (sample_ppp(BUMP, 1500, seed=15), sparse):
        for q, apex in enumerate(cell_apexes(ps, rng, 48)):
            nu = rng.uniform(0, 2 * math.pi) if q % 4 else (q // 4 % 4) * math.pi / 2
            if q % 2:
                shape, half = "disk", rng.uniform(math.pi / 2, 3.0)
            else:
                shape, half = "triangle", math.pi / 2
            for extra in (None, complex(*rng.random(2))):
                assert_matches_brute(ps, apex, nu, half, shape, extra)


def test_nearest_in_sector_tie_in_pruned_batch_survives():
    # cells of 0.01; both points have key 0.53 - 0.5 in the half-plane ahead
    # of x = 0.5.  The first is 40 rings out, in a cell whose lower key
    # bound (its left edge) equals the key found in the first rings, so the
    # pruning must keep it; it wins the tie on its border distance.
    x = 53 * 0.01
    ps = PointSet(np.array([(x, 0.1), (x, 0.49)]), UNIT, 0, ("iid", 10_000))
    assert ps.index.cell == 0.01 and ps.index.cell_of(x, 0.1) == (53, 10)
    got = nearest_in_sector(ps, 0.5 + 0.5j, 0.0, math.pi / 2, "triangle")
    want = brute_nearest(ps, 0.5 + 0.5j, 0.0, math.pi / 2, "triangle")
    assert want[2] == 0 and got == (x + 0.1j, want[0], 0)


def test_nearest_in_sector_stop_rule_ring_by_ring_within_a_batch():
    # half-plane ahead of x = 0.505, cells of 0.01: A (ring 0) sits 1e-15
    # behind the line, B (ring 2, the same batch) 1e-14 behind, both within
    # EPS * r.  The stop rule reads the best key of the rings before each
    # ring; after ring 0 it is negative, so the scan ends before ring 1 and
    # returns A, as a ring-at-a-time scan does.
    ps = PointSet(np.array([(0.505 - 1e-15, 0.507), (0.505 - 1e-14, 0.525)]), UNIT, 0,
                  ("iid", 10_000))
    apex = 0.505 + 0.505j
    assert ps.index.cell_of(apex.real, apex.imag) == (50, 50)
    assert [ps.index.cell_of(x, y)[1] for x, y in ps.points] == [50, 52]
    got = nearest_in_sector(ps, apex, 0.0, math.pi / 2, "triangle")
    assert got[2] == 0 and got[1] < 0.0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(pts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=60),
       rate=st.sampled_from([1, 100, 10_000]),
       apex=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       nu=st.floats(0.0, 2 * math.pi),
       query=st.one_of(
           st.tuples(st.just("triangle"), st.just(math.pi / 2) | st.floats(0.01, math.pi / 2)),
           st.tuples(st.just("disk"), st.floats(0.01, 3.0))),
       extra=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_nearest_in_sector_property(pts, rate, apex, nu, query, extra):
    # the cell is sized for ``rate`` points, so sets are dense or sparse
    ps = PointSet(np.array(pts, dtype=float).reshape(-1, 2), UNIT, 0, ("iid", rate))
    shape, half = query
    assert_matches_brute(ps, complex(*apex), nu, half, shape,
                         None if extra is None else complex(*extra))


# -- diagnostics ----------------------------------------------------------------

def test_navmax_single_point():
    ps = make_set([(0.5, 0.6)])
    got = navmax(ps, math.pi / 2, grid_step=0.1)
    lattice = [complex(x, y) for x in np.arange(0.05, 0.951, 0.1)
               for y in np.arange(0.05, 0.951, 0.1)]
    assert got == pytest.approx(max(abs(complex(0.5, 0.6) - a) for a in lattice))


def test_navmax_lattice_scale():
    d = 0.05
    pts = [(x, y) for x in np.arange(0.0, 1.001, d) for y in np.arange(0.0, 1.001, d)]
    ps = make_set(pts)
    got = navmax(ps, math.pi / 2, grid_step=0.03)
    assert d / 2 <= got <= 3 * d


def test_navmax_empty_raises():
    ps = make_set(np.empty((0, 2)))
    with pytest.raises(EmptyPointSet):
        navmax(ps, math.pi / 2, 0.1)


def test_navmax_bound_form_many_seeds():
    # the largest hop of any run is below n^(-1/2+0.15) in almost every seed
    n = 1e5
    bound = n ** (-0.5 + 0.15)
    bad = 0
    for seed in range(100):
        ps = sample_ppp(UNIT, n, seed=2000 + seed)
        if navmax(ps, math.pi / 2, grid_step=0.03) > bound:
            bad += 1
    assert bad <= 1


def brute_navmax(ps, theta, grid_step, directions=64):
    """navmax reading every point for every apex and aim: an aim catches a
    point when the point's angle, in bins, lies within half of the aim up
    to a whole turn."""
    inset = ps.density.domain.inset(ps.density.inset_a)
    bin_w = 2.0 * math.pi / directions
    width = theta / 2.0 / bin_w
    aims = np.arange(directions)[:, None, None] + np.array([-directions, 0, directions])[:, None]
    worst = 0.0
    for ax in np.arange(inset.x0, inset.x1 + 1e-9, grid_step):
        for ay in np.arange(inset.y0, inset.y1 + 1e-9, grid_step):
            dx = ps.xs - ax
            dy = ps.ys - ay
            r = np.hypot(dx, dy)
            ctr = np.arctan2(dy, dx) / bin_w
            caught = ((ctr - width <= aims) & (aims <= ctr + width)).any(axis=1) & (r > 0.0)
            per_aim = np.where(caught, r, np.inf).min(axis=1)
            finite = per_aim[np.isfinite(per_aim)]
            if len(finite):
                worst = max(worst, float(finite.max()))
    return worst


@pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2, math.pi])
def test_navmax_matches_brute_force(theta):
    const = sample_ppp(UNIT, 100, seed=31)
    # cells of 0.1 and a lattice 0.05, 0.10, ...: every other apex column and
    # row sits on a cell border
    assert const.index.cell == 0.1
    bump = sample_ppp(BUMP, 150, seed=32)
    for ps, step in ((const, 0.05), (bump, 0.07)):
        assert navmax(ps, theta, step) == brute_navmax(ps, theta, step)


def test_maxball_trivial():
    assert maxball(make_set(np.empty((0, 2))), 0.1, 0.1) == 0
    pts = 0.5 + 0.01 * np.random.default_rng(3).random((40, 2))
    assert maxball(make_set(pts), 0.5, 0.2) == 40


def test_maxball_matches_direct_count():
    ps = sample_ppp(UNIT, 500, seed=21)
    r, step = 0.11, 0.05
    inset = UNIT.domain.inset(UNIT.inset_a)
    want = 0
    for cx in np.arange(inset.x0, inset.x1 + 1e-9, step):
        for cy in np.arange(inset.y0, inset.y1 + 1e-9, step):
            want = max(want, int(((ps.xs - cx) ** 2 + (ps.ys - cy) ** 2 < r * r).sum()))
    assert maxball(ps, r, step) == want


def test_maxball_bound_form_many_seeds():
    # ball radius half the navmax scale keeps the count below n^0.35 in
    # almost every seed (the full n^(-0.35) radius already has mean count
    # pi*n^0.3 > n^0.35, so the bound-form check needs the smaller ball)
    n = 1e5
    r = 0.0089
    bound = n ** 0.35
    bad = 0
    for seed in range(100):
        ps = sample_ppp(UNIT, n, seed=3000 + seed)
        if maxball(ps, r, grid_step=0.01) > bound:
            bad += 1
    assert bad <= 1


def test_r_min_two_points_and_lattice():
    big = DensitySpec.constant(1.0, domain=Rect(0, 0, 4, 4), inset_a=0.5)
    ps = make_set([(0.5, 0.5), (3.5, 2.5)], big)
    assert r_min(ps) == pytest.approx(math.hypot(3.0, 2.0))
    lattice = [(float(x), float(y)) for x in range(5) for y in range(5)]
    assert r_min(make_set(lattice, big)) == 1.0


def brute_r_min(ps):
    dx = ps.xs[:, None] - ps.xs[None, :]
    dy = ps.ys[:, None] - ps.ys[None, :]
    d2 = dx * dx + dy * dy
    np.fill_diagonal(d2, np.inf)
    return math.sqrt(d2.min())


def test_r_min_matches_brute_force():
    ps = sample_ppp(UNIT, 1000, seed=22)
    assert r_min(ps) == brute_r_min(ps)


def test_r_min_clustered_many_per_cell():
    # cells of 0.1 sized for 100 points, holding 1500: dozens share a cell
    rng = np.random.default_rng(23)
    pts = np.vstack([c + 0.03 * rng.standard_normal((500, 2))
                     for c in ((0.3, 0.3), (0.7, 0.4), (0.5, 0.75))])
    ps = PointSet(np.clip(pts, 0.0, 1.0), UNIT, 0, ("iid", 100))
    assert np.diff(ps.index.starts).max() >= 20
    assert r_min(ps) == brute_r_min(ps)


def test_r_min_sparse_widens_reach():
    # cells of 0.01 sized for 1e4 points, holding 25 whose closest pair is
    # farther apart than any two points of neighbouring cells: the first pass
    # finds nothing, so the reach doubles and then jumps to the best distance
    rng = np.random.default_rng(24)
    ps = PointSet(rng.random((25, 2)), UNIT, 0, ("iid", 10_000))
    assert ps.index.cell == 0.01 and brute_r_min(ps) > 0.03
    assert r_min(ps) == brute_r_min(ps)


def test_r_min_needs_two_points():
    with pytest.raises(TooFewPoints):
        r_min(make_set([(0.5, 0.5)]))


def test_density_spec_invariants():
    with pytest.raises(ValueError):
        DensitySpec.affine(0.0, -1.0, 0.0)           # infimum not positive
    with pytest.raises(ValueError):
        DensitySpec.constant(1.0, inset_a=0.6)       # inset over half a side
    with pytest.raises(ValueError):
        DensitySpec.radial_bump(0.1 + 0.1j, 1.0, 2.0, 0.3)   # disk exits domain
    bump = DensitySpec.radial_bump(0.5 + 0.5j, 1.0, 2.0, 0.3)
    assert bump.m_f == 1.0 and bump.M_f == 3.0
    assert bump.at(0.5 + 0.5j) == pytest.approx(3.0)
    assert bump.at(0.5 + 0.85j) == pytest.approx(1.0)
    assert bump.lipschitz > 0.0
    # normalized profile integrates to 1
    norm = bump.normalized()
    assert norm.integral == pytest.approx(1.0)


def _scalar_matches_value(dens, x, y):
    got = dens.scalar()(x, y)
    assert type(got) is float
    assert got == float(dens.value(x, y))
    assert got == dens.at(complex(x, y))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(c=st.floats(1e-3, 1e3), x=st.floats(-1.0, 2.0), y=st.floats(-1.0, 2.0))
def test_scalar_density_constant(c, x, y):
    _scalar_matches_value(DensitySpec.constant(c), x, y)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(margin=st.floats(1e-3, 5.0), b=st.floats(-5.0, 5.0), c=st.floats(-5.0, 5.0),
       x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
def test_scalar_density_affine(margin, b, c, x, y):
    # a is chosen so the profile stays positive on the unit square
    a = margin + max(0.0, -b) + max(0.0, -c)
    _scalar_matches_value(DensitySpec.affine(a, b, c), x, y)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cx=st.floats(0.3, 0.7), cy=st.floats(0.3, 0.7), rad=st.floats(1e-3, 0.3),
       base=st.floats(0.1, 5.0), amp_frac=st.floats(-0.99, 5.0),
       # the centre, the rim and outside the disk: both sides of the clip
       u=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 2.0)),
       ang=st.floats(0.0, 2.0 * math.pi))
def test_scalar_density_bump(cx, cy, rad, base, amp_frac, u, ang):
    dens = DensitySpec.radial_bump((cx, cy), base, amp_frac * base, rad)
    x = cx + u * rad * math.cos(ang)
    y = cy + u * rad * math.sin(ang)
    _scalar_matches_value(dens, x, y)


def test_scalar_density_bump_dense():
    # where libm pow and a product round a square differently (a few in 1e4
    # on some platforms), only the 0-d rule of ``value`` is matched
    rng = np.random.default_rng(3)
    f = BUMP.scalar()
    for x, y in (0.5 + rng.uniform(-0.31, 0.31, (20_000, 2))).tolist():
        assert f(x, y) == float(BUMP.value(x, y))


def test_scalar_density_leaves_spec_picklable_and_equal():
    import pickle
    for dens in (UNIT, BUMP, DensitySpec.affine(1.0, -0.5, 0.25)):
        twin = DensitySpec.from_dict(dens.to_dict())
        dens.scalar()
        dens.at(0.5 + 0.5j)
        back = pickle.loads(pickle.dumps(dens))
        assert back == dens == twin
        assert hash(back) == hash(dens) == hash(twin)


# -- serialization -----------------------------------------------------------------

def test_points_roundtrip(tmp_path):
    dens = DensitySpec.affine(1.0, 0.5, -0.25, inset_a=0.1)
    ps = sample_ppp(dens, 300, seed=23)
    path = tmp_path / "pts.csv"
    save_points(ps, path)
    back = load_points(path)
    assert np.array_equal(back.points, ps.points)
    assert back.model == ps.model
    assert back.seed == ps.seed
    assert back.density.kind == "affine"
    assert back.density.params == dens.params
