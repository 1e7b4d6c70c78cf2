import cmath
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geonav import (DensitySpec, EmptyPointSet, NavSpec, PointSet, Rect, TooFewPoints,
                    load_points, maxball, navmax, nearest_in_sector, next_stop, r_min,
                    sample_iid, sample_ppp, save_points)
from geonav import points
from geonav.geometry import EPS
from geonav.points import _NAVMAX_BLOCK, NAVMAX_DIRECTIONS, _dedupe

UNIT = DensitySpec.constant(1.0)
BUMP = DensitySpec.radial_bump((0.5, 0.5), 0.5, 1.5, 0.3)


def make_set(points, density=UNIT):
    return PointSet(np.asarray(points, dtype=float).reshape(-1, 2),
                    density, 0, ("iid", len(points)))


# -- brute-force oracle for sector queries ------------------------------------

def brute_nearest(ps, apex, nu, half, shape, extra=None):
    ch = math.cos(half)
    sh = math.sin(half)
    c, s = math.cos(nu), math.sin(nu)
    inside = math.cos(half) - EPS

    def key_of(px, py, pid):
        dx, dy = px - apex.real, py - apex.imag
        x = dx * c + dy * s
        y = -dx * s + dy * c
        r = math.hypot(x, y)
        if r == 0.0 or x < r * inside:
            return None
        key = x if shape == "triangle" else r
        along = x * ch - y * sh
        border = abs(x * sh + y * ch) if along >= 0.0 else r
        return (key, border, pid)

    cands = []
    for i, (px, py) in enumerate(ps.points.tolist()):
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

    def ids_in_cell(i, j):
        return ps.index.runs(np.array([i]), np.array([j]), np.array([j + 1]))

    seen = []
    for i in range(ps.index.nx):
        for j in range(ps.index.ny):
            seen.extend(ids_in_cell(i, j).tolist())
    assert sorted(seen) == list(range(len(ps)))
    # and each id sits in the cell that geometrically contains it
    for i in range(0, ps.index.nx, 7):
        for j in range(0, ps.index.ny, 7):
            for pid in ids_in_cell(i, j):
                assert ps.index.cell_of(ps.xs[pid], ps.ys[pid]) == (i, j)


def oracle_index(xs, ys, rect, cell, nx, ny):
    """``order``, ``starts`` and ``box`` by their definition: each point's
    cell (the upper edges clipped into the last cell), the ids stably sorted
    by cell id, and the running count of points per cell."""
    ix = np.clip(np.floor((xs - rect.x0) / cell), 0, nx - 1).astype(np.int64)
    iy = np.clip(np.floor((ys - rect.y0) / cell), 0, ny - 1).astype(np.int64)
    flat = ix * ny + iy
    starts = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=nx * ny))])
    box = (ix.min(), ix.max(), iy.min(), iy.max()) if len(xs) else (0, -1, 0, -1)
    return np.argsort(flat, kind="stable"), starts, box


def index_cases():
    rng = np.random.default_rng(17)
    unit = Rect(0, 0, 1, 1)
    edges = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    ex, ey = (np.repeat(np.meshgrid(edges, edges)[k].ravel(), 3) for k in (0, 1))
    shuffle = rng.permutation(len(ex))
    yield "empty", unit, 0.1, np.empty(0), np.empty(0), (10, 10)
    yield "one point", unit, 0.1, np.array([0.37]), np.array([0.81]), (10, 10)
    yield ("one cell", unit, 0.25, rng.uniform(0.55, 0.7, 40), rng.uniform(0.3, 0.45, 40),
           (4, 4))
    yield "cell borders", unit, 0.25, ex[shuffle], ey[shuffle], (4, 4)
    # 2^16 cells take one 16-bit digit, 256 x 257 cells two
    for rect in (unit, Rect(0, 0, 1, 257 / 256)):
        xs = np.concatenate([rng.random(50_000), [1.0, 0.5, 1.0]])
        ys = np.concatenate([rng.random(50_000) * rect.y1, [rect.y1, rect.y1, 0.0]])
        ny = round(rect.y1 * 256)
        yield f"256x{ny} cells", rect, 1 / 256, xs, ys, (256, ny)


@pytest.mark.parametrize("case", list(index_cases()), ids=lambda case: case[0])
def test_index_matches_stable_sort_by_cell(case):
    _, rect, cell, xs, ys, shape = case
    idx = points.GridIndex(xs, ys, rect, cell)
    assert (idx.nx, idx.ny) == shape
    order, starts, box = oracle_index(xs, ys, rect, cell, idx.nx, idx.ny)
    assert idx.order.dtype == np.int32 and idx.starts.dtype == np.int32
    assert np.array_equal(idx.order, order) and np.array_equal(idx.starts, starts)
    assert idx.box == box


def test_index_memory_per_point():
    # int32 ids and offsets keep about 8 bytes a point at about one point a
    # cell, and the build drops its temporaries before its sort passes
    rng = np.random.default_rng(5)
    n = 200_000
    xs, ys = rng.random(n), rng.random(n)
    tracemalloc.start()
    try:
        idx = points.GridIndex(xs, ys, Rect(0, 0, 1, 1), 1 / math.sqrt(n))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(idx.order) == n
    assert kept <= 8.5 * n and peak <= 32 * n


def reference_runs(ps, i0, j0, di, lo, hi):
    """The sorted ``(id, apex)`` pairs of the runs ``(di, lo, hi)`` around
    each apex cell, read one cell at a time from the points' own cells."""
    ci, cj = ps.index.cells_of(ps.xs, ps.ys)
    by_cell = {}
    for pid, cell in enumerate(zip(ci.tolist(), cj.tolist())):
        by_cell.setdefault(cell, []).append(pid)
    pairs = []
    for a, (i, j) in enumerate(zip(i0.tolist(), j0.tolist())):
        for d, l, h in zip(di.tolist(), lo.tolist(), hi.tolist()):
            for row in range(j + l, j + h):
                pairs += [(pid, a) for pid in by_cell.get((i + d, row), [])]
    return sorted(pairs)


@settings(max_examples=150)
@given(pts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=60),
       scale=st.sampled_from([1.0, 0.1]),
       rate=st.sampled_from([1, 100, 10_000]),
       apexes=st.lists(st.tuples(st.floats(-0.3, 1.3), st.floats(-0.3, 1.3)), max_size=5),
       runs=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 9)),
                     min_size=1, max_size=8),
       cap=st.sampled_from([1, 3, 16, 1 << 14]))
def test_gather_around_matches_cell_by_cell_reads(pts, scale, rate, apexes, runs, cap):
    """Runs read the ids a cell-by-cell read finds, each once, on dense
    (rate 1: one cell), sparse, corner (scale 0.1) and empty sets.  Apex
    cells lie on and off the grid, at its edges and at the box's corners;
    runs are empty (length 0), clipped, or longer than a pass.  Every run
    handed to the reader lies in the box, and a pass reads at most ``cap``
    cells or one longer run."""
    ps = PointSet(scale * np.array(pts, dtype=float).reshape(-1, 2), UNIT, 0, ("iid", rate))
    idx = ps.index
    ilo, ihi, jlo, jhi = idx.box
    cells = [(int(math.floor(x * idx.nx)), int(math.floor(y * idx.ny))) for x, y in apexes]
    cells += [(0, 0), (idx.nx - 1, idx.ny - 1), (ilo, jlo), (ihi, jhi)]
    i0, j0 = (np.array(c, dtype=np.int64) for c in zip(*cells))
    di, lo, length = (np.array(c, dtype=np.int64) for c in zip(*runs))
    hi = lo + length
    reads = []
    runs_of = idx.runs
    idx.runs = lambda cols, lo, end, owners=None: (reads.append((cols, lo, end))
                                                   or runs_of(cols, lo, end, owners))
    with mock.patch.object(points, "_PASS_CELLS", cap):
        passes = list(points._gather_around(idx, i0, j0, di, lo, hi))
    got = sorted((int(pid), int(a)) for ids, apex in passes for pid, a in zip(ids, apex))
    assert got == reference_runs(ps, i0, j0, di, lo, hi)
    for cols, rlo, end in reads:
        assert ((cols >= ilo) & (cols <= ihi)).all()
        assert ((jlo <= rlo) & (rlo < end) & (end <= jhi + 1)).all()
        assert (end - rlo).sum() <= max(cap, int(length.max()))


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


# -- exact key ties ------------------------------------------------------------
# Axis 0 makes the rotation exact (cos 0 = 1, sin 0 = 0), and the offsets
# from the apex 0.5 + 0.5j are dyadic, so equal keys are bit-equal.  The
# cells are 0.1 for "first" (every point within ring 2: the first batch)
# and 0.01 for "annulus" (rings 12 to 25: later batches).

def tie_set(offsets, rate):
    return PointSet(np.array([(0.5 + u, 0.5 + v) for u, v in offsets]), UNIT, 0,
                    ("iid", rate))


def assert_tie_answer(ps, apex, nu, half, shape, extra, want_id, batch):
    want = brute_nearest(ps, apex, nu, half, shape, extra)
    got = nearest_in_sector(ps, apex, nu, half, shape, extra=extra)
    assert want[2] == want_id and got[2] == want_id
    # the same key, down to the sign of a zero
    assert (got[1], math.copysign(1.0, got[1])) == (want[0], math.copysign(1.0, want[0]))
    i0, j0 = ps.index.cell_of(apex.real, apex.imag)
    rings = [max(abs(i - i0), abs(j - j0)) for i, j in zip(*ps.index.cells_of(ps.xs, ps.ys))]
    assert (max(rings) <= 3) if batch == "first" else (min(rings) >= 4)


TIE_RATES = {"first": 100, "annulus": 10_000}


@pytest.mark.parametrize("batch", sorted(TIE_RATES))
def test_nearest_in_sector_ties_decided_by_border(batch):
    """Three candidates share the smallest key; the one nearest the first
    border (the lower border line) wins, for both shapes, also when it
    comes after the others in its batch (a later grid column, or the
    target's last slot)."""
    rate = TIE_RATES[batch]
    # triangle: key x = 0.125 for all three, borders |x sh + y ch|
    ps = tie_set([(0.25, 0.0), (0.125, 0.0625), (0.125, 0.0), (0.125, -0.0625)], rate)
    assert_tie_answer(ps, 0.5 + 0.5j, 0.0, math.pi / 4, "triangle", None, 3, batch)
    ps = tie_set([(0.25, 0.0), (0.125, 0.0625), (0.125, 0.0)], rate)
    assert_tie_answer(ps, 0.5 + 0.5j, 0.0, math.pi / 4, "triangle", 0.625 + 0.4375j, -1,
                      batch)
    # disk: r = 0.15625 for all three (3-4-5 offsets); id 3, in a later
    # grid column than id 1, is nearest the first border at angle -1.2
    assert math.hypot(0.125, 0.09375) == np.hypot(0.09375, -0.125) == 0.15625
    ps = tie_set([(0.25, 0.0), (0.09375, 0.125), (0.15625, 0.0), (0.125, -0.09375)], rate)
    assert_tie_answer(ps, 0.5 + 0.5j, 0.0, 1.2, "disk", None, 3, batch)


@pytest.mark.parametrize("batch", sorted(TIE_RATES))
def test_nearest_in_sector_ties_decided_by_id(batch):
    """Candidates with equal keys and equal borders: the smallest id wins,
    and the target (id -1) wins over a stored point in its place."""
    rate = TIE_RATES[batch]
    # disk at half-angle 1.2: both points lie past the first border's
    # normal (along < 0), so their border is r, the key.  The winner, id 1,
    # sits in a later grid column than id 2, so it is not first in its batch.
    ps = tie_set([(0.25, 0.0), (0.125, 0.09375), (0.09375, 0.125)], rate)
    assert_tie_answer(ps, 0.5 + 0.5j, 0.0, 1.2, "disk", None, 1, batch)
    assert_tie_answer(ps, 0.5 + 0.5j, 0.0, 1.2, "disk", 0.59375 + 0.625j, -1, batch)
    # triangle: the target on the winning stored point
    ps = tie_set([(0.25, 0.0), (0.125, 0.0625), (0.125, -0.0625)], rate)
    assert_tie_answer(ps, 0.5 + 0.5j, 0.0, math.pi / 4, "triangle", None, 2, batch)
    assert_tie_answer(ps, 0.5 + 0.5j, 0.0, math.pi / 4, "triangle", 0.625 + 0.4375j, -1,
                      batch)


@pytest.mark.parametrize("rate", [25, 40_000], ids=["first", "annulus"])
def test_nearest_in_sector_signed_zero_keys_on_the_halfplane_border(rate):
    """The half-plane ahead of x = 0 from the apex 0, axis 0: a point at
    x = -0.0 below the apex has key -0.0 (-0.0 - 0.0 is -0.0), one at
    x = 0.0 has key 0.0.  The keys tie; the border decides, and the answer
    carries the winner's signed key, as the brute force does."""
    square = DensitySpec.constant(1.0, domain=Rect(-1, -1, 1, 1), inset_a=0.1)
    batch = "first" if rate == 25 else "annulus"
    # the point below the apex lies nearer the first border (direction -pi/2)
    ps = PointSet(np.array([(0.5, 0.125), (0.0, 0.25), (-0.0, -0.25)]), square, 0,
                  ("iid", rate))
    assert_tie_answer(ps, 0j, 0.0, math.pi / 2, "triangle", None, 2, batch)
    assert math.copysign(1.0, nearest_in_sector(ps, 0j, 0.0, math.pi / 2, "triangle")[1]) < 0
    ps = PointSet(np.array([(0.5, 0.125), (-0.0, -0.5), (0.0, -0.25)]), square, 0,
                  ("iid", rate))
    assert_tie_answer(ps, 0j, 0.0, math.pi / 2, "triangle", None, 2, batch)


@pytest.mark.parametrize("target, want", [(0.7 + 0.5j, 0), (0.55 + 0.5j, -1)])
def test_nearest_in_sector_scores_target_with_first_batch(monkeypatch, target, want):
    # the target is scored in the same _candidate_key call as the first
    # batch of points, whether it wins or not
    calls = []
    score = points._candidate_key
    monkeypatch.setattr(points, "_candidate_key", lambda *a: calls.append(a) or score(*a))
    ps = sample_ppp(UNIT, 1000, seed=13)
    ps = make_set([(0.6, 0.5)] + [p for p in ps.points.tolist() if abs(p[0] - 0.5) > 0.2])
    got = nearest_in_sector(ps, 0.5 + 0.5j, 0.0, math.pi / 4, "disk", extra=target)
    assert got[2] == want and len(calls) == 1
    assert_matches_brute(ps, 0.5 + 0.5j, 0.0, math.pi / 4, "disk", target)


def edge_apexes(ps, rng):
    """A random apex in every cell whose 7 x 7 block the grid clips (the
    three cells next to each edge, corners included), plus apexes on the
    far borders ``x1`` and ``y1`` of the domain, filed in the last cells."""
    idx, rect = ps.index, ps.density.domain

    def near_edges(n):
        return sorted({k for k in (0, 1, 2, n - 3, n - 2, n - 1, n // 2) if 0 <= k < n})

    out = [complex(rect.x1, rect.y1), complex(rect.x1, rect.y0 + 0.5 * rect.height),
           complex(rect.x0 + 0.5 * rect.width, rect.y1)]
    for i in near_edges(idx.nx):
        for j in near_edges(idx.ny):
            u, v = rng.random(2)
            out.append(complex(min(rect.x0 + (i + u) * idx.cell, rect.x1),
                               min(rect.y0 + (j + v) * idx.cell, rect.y1)))
    return out


def first_batch(monkeypatch, ps, apex, extra):
    """The candidates ``(dx, dy)`` of a query's first ``_candidate_key`` call,
    sorted, and those of the points in the 7 x 7 block of cells around the
    apex cell, clipped to the grid, plus ``extra``."""
    calls = []
    score = points._candidate_key
    monkeypatch.setattr(points, "_candidate_key", lambda *a: calls.append(a) or score(*a))
    nearest_in_sector(ps, apex, 0.3, 1.0, "disk", extra=extra)
    monkeypatch.setattr(points, "_candidate_key", score)
    i0, j0 = ps.index.cell_of(apex.real, apex.imag)
    ci, cj = ps.index.cells_of(ps.xs, ps.ys)
    block = (np.abs(ci - i0) <= 3) & (np.abs(cj - j0) <= 3)
    xs, ys = ps.xs[block], ps.ys[block]
    if extra is not None:
        xs, ys = np.append(xs, extra.real), np.append(ys, extra.imag)
    return (sorted(zip(calls[0][0].tolist(), calls[0][1].tolist())),
            sorted(zip((xs - apex.real).tolist(), (ys - apex.imag).tolist())))


# four grids: 20 x 20 cells of 0.05; a 3 x 1 and a 1 x 3 domain of 1-cells,
# narrower than the block on one axis; and the 3 x 1 domain in 0.25-cells
NARROW = DensitySpec.constant(1.0, domain=Rect(0, 0, 3, 1), inset_a=0.1)
TALL = DensitySpec.constant(1.0, domain=Rect(0, 0, 1, 3), inset_a=0.1)


def edge_sets():
    rng = np.random.default_rng(16)
    wide = rng.random((7, 2)) * (3.0, 1.0)
    return [sample_ppp(UNIT, 400, seed=17),
            PointSet(wide, NARROW, 0, ("iid", 1)),
            PointSet(rng.random((7, 2)) * (1.0, 3.0), TALL, 0, ("iid", 1)),
            PointSet(wide, NARROW, 0, ("iid", 48))]


@pytest.mark.parametrize("which", range(4), ids=["20x20", "3x1", "1x3", "12x4"])
def test_nearest_in_sector_first_batch_is_the_clipped_block(monkeypatch, which):
    ps = edge_sets()[which]
    shape = (ps.index.nx, ps.index.ny)
    assert shape == [(20, 20), (3, 1), (1, 3), (12, 4)][which]
    rng = np.random.default_rng(18)
    for apex in edge_apexes(ps, rng):
        for extra in (None, complex(*rng.random(2))):
            got, want = first_batch(monkeypatch, ps, apex, extra)
            assert got == want


@pytest.mark.parametrize("which", range(4), ids=["20x20", "3x1", "1x3", "12x4"])
def test_nearest_in_sector_at_grid_edges_matches_brute_force(which):
    """Apexes in every cell next to a grid edge or corner, on the usual grid
    and on grids narrower than the first batch's block, with no target, a
    target in the block and a target across the domain."""
    ps = edge_sets()[which]
    rect = ps.density.domain
    rng = np.random.default_rng(19)
    for apex in edge_apexes(ps, rng):
        near = apex + complex(*rng.uniform(-1.5, 1.5, 2)) * ps.index.cell
        far = complex(rect.x0 + rect.x1 - apex.real, rect.y0 + rect.y1 - apex.imag)
        for nu in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, rng.uniform(0, 2 * math.pi)):
            for shape, half in (("triangle", math.pi / 6), ("triangle", math.pi / 2),
                                ("disk", math.pi / 4), ("disk", 2.5)):
                for extra in (None, near, far):
                    assert_matches_brute(ps, apex, nu, half, shape, extra)


def later_batch_firsts(monkeypatch):
    """The list that ``points._later_batch`` appends the first ring ``a`` of
    each later batch it reads to."""
    firsts = []
    read = points._later_batch
    monkeypatch.setattr(points, "_later_batch",
                        lambda idx, ax, ay, i0, j0, a, *rest:
                        firsts.append(a) or read(idx, ax, ay, i0, j0, a, *rest))
    return firsts


def test_nearest_in_sector_later_batches_start_at_the_box(monkeypatch):
    """On the sparse corner set, a query far from every point reads its
    first later batch from the first ring that meets the box of cells that
    hold a point, and still matches the brute force."""
    firsts = later_batch_firsts(monkeypatch)
    idx = CORNER.index
    ilo, ihi, jlo, jhi = idx.box
    cases = [(0.9 + 0.9j, 1.2 * math.pi, math.pi / 6, "triangle", 0.1 + 0.9j),
             (0.9 + 0.9j, 1.25 * math.pi, math.pi / 6, "triangle", None),
             (0.5 + 0.05j, math.pi, math.pi / 4, "disk", 0.95 + 0.95j),
             (0.05 + 0.7j, 1.5 * math.pi, math.pi / 2, "triangle", None),
             (0.3 + 0.3j, 0.0, 2.5, "disk", None)]
    for apex, nu, half, shape, extra in cases:
        firsts.clear()
        assert_matches_brute(CORNER, apex, nu, half, shape, extra)
        i0, j0 = idx.cell_of(apex.real, apex.imag)
        gap = max(ilo - i0, i0 - ihi, jlo - j0, j0 - jhi)
        assert gap > 100 and firsts[0] == gap
    i0, j0 = idx.cell_of(0.9, 0.9)
    assert idx.ring_span(i0, j0) == (min(i0 - ihi, j0 - jhi), max(i0 - ilo, j0 - jlo))


def test_nearest_in_sector_cone_that_misses_the_box_reads_no_later_batch(monkeypatch):
    """A convex cone wholly outside one border half-plane of the box of
    cells that hold a point (by more than the cone test's slack) ends the
    scan after the first batch; a box that meets the cone within the slack
    alone is still read, and both equal the brute force."""
    firsts = later_batch_firsts(monkeypatch)
    # the corner set lies in [0, 0.15]^2, wholly behind a cone aimed at +x
    for apex, nu, half, shape, extra in [(0.9 + 0.9j, 0.0, math.pi / 6, "triangle", 0.1 + 0.9j),
                                         (0.9 + 0.9j, 0.0, math.pi / 6, "triangle", None),
                                         (0.5 + 0.9j, 0.5 * math.pi, math.pi / 4, "disk", None),
                                         (0.9 + 0.3j, 0.0, math.pi / 2, "triangle", None)]:
        firsts.clear()
        assert_matches_brute(CORNER, apex, nu, half, shape, extra)
        assert firsts == []
    # the cone from 0.2 + (0.5 + 1e-13)j between the directions 0 and pi/2;
    # its one point, 500 cells out, sits 1e-13 below the lower border line
    # (inside, within the inside test's slack), in a row of cells whose top
    # edge is 1e-13 below that line too: the box meets the cone only
    # within the cone test's slack, and the scan must read it
    apex = 0.2 + (0.5 + 1e-13) * 1j
    ps = PointSet(np.array([(0.7005, 0.4999999999999999)]), UNIT, 0, ("iid", 1e6))
    idx = ps.index
    assert idx.box == (700, 700, 499, 499) and idx.cell_of(apex.real, apex.imag) == (200, 500)
    assert -1e-12 < idx.rect.y0 + 499 * idx.cell - apex.imag + idx.cell < 0.0
    firsts.clear()
    assert brute_nearest(ps, apex, math.pi / 4, math.pi / 4, "disk")[2] == 0
    assert_matches_brute(ps, apex, math.pi / 4, math.pi / 4, "disk", None)
    assert_matches_brute(ps, apex, math.pi / 4, math.pi / 4, "triangle", None)
    assert firsts == [500, 500]


@pytest.mark.parametrize("near", [0.0986j, 0.0986], ids=["chord-end", "side"])
def test_nearest_in_sector_disk_bound_keeps_the_cells_at_its_edge(monkeypatch, near):
    """Cells of 0.01 and a non-convex disk sector from 0.5015 + 0.5015j: the
    first later batch (rings 4-7) finds P at distance 0.099 on the diagonal;
    Q, 0.0986 straight up or right, lies in ring 10, in a cell whose edge
    is 0.0985 from the apex, just within the best radius, and wins.  A point
    straight behind the apex, outside the sector, widens the box."""
    firsts = later_batch_firsts(monkeypatch)
    apex = 0.5015 + 0.5015j
    p, q = apex + 0.07 + 0.07j, apex + near
    ps = PointSet(np.array([(p.real, p.imag), (q.real, q.imag), (0.0, apex.imag)]), UNIT, 0,
                  ("iid", 10_000))
    assert ps.index.cell == 0.01 and abs(p - apex) > 0.0989
    assert brute_nearest(ps, apex, 0.0, 3.0, "disk")[2] == 1
    assert_matches_brute(ps, apex, 0.0, 3.0, "disk", None)
    assert firsts == [4, 8]


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
    points, so the scan's later batches span wide rings of empty cells)."""
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
    # EPS * r.  B has the smaller key, and a negative best key must not end
    # the scan before ring 2: the stop rule takes a point of ring k to have a
    # key as low as (k-1)*cell*key_factor - EPS * far, and key_factor is 0 in
    # a half-plane
    ps = PointSet(np.array([(0.505 - 1e-15, 0.507), (0.505 - 1e-14, 0.525)]), UNIT, 0,
                  ("iid", 10_000))
    apex = 0.505 + 0.505j
    assert ps.index.cell_of(apex.real, apex.imag) == (50, 50)
    assert [ps.index.cell_of(x, y)[1] for x, y in ps.points] == [50, 52]
    got = nearest_in_sector(ps, apex, 0.0, math.pi / 2, "triangle")
    want = brute_nearest(ps, apex, 0.0, math.pi / 2, "triangle")
    assert want[2] == 1 and want[0] == pytest.approx(-1e-14, rel=0.01)
    assert got == (complex(*ps.points[1]), want[0], 1)


def _halfplane_far_pair():
    # the half-plane ahead of x + y = 1 from the corner (0, 1) of the unit
    # square, cells of 0.001: P (ring 848) sits 1.1e-12 behind the line at
    # r = 1.2, Q (ring 989, a later batch) 1.3e-12 behind it at r = 1.4, both
    # within EPS * r and by more than the rounding slack of the bounds
    along, normal = np.array([1.0, -1.0]) / math.sqrt(2), np.array([1.0, 1.0]) / math.sqrt(2)
    p = np.array([0.0, 1.0]) + 1.2 * along - 1.1e-12 * normal
    q = np.array([0.0, 1.0]) + 1.4 * along - 1.3e-12 * normal
    return PointSet(np.array([p, q]), UNIT, 0, ("iid", 1_000_000))


@pytest.mark.parametrize("ps, apex, nu, half, shapes, want_id", [
    # cone test: (0.7, 0.5 - 1e-14) is inside, 1e-14 below the lower border
    # line, in a cell that lies wholly below that line
    (PointSet(np.array([(0.7, 0.5 - 1e-14), (0.75, 0.6)]), UNIT, 0, ("iid", 10_000)),
     0.505 + 0.5j, math.pi / 4, math.pi / 4, ("disk", "triangle"), 0),
    # stop rule: after P the best key is below minus the rounding slack, yet
    # Q, farther out, has a smaller key still
    (_halfplane_far_pair(), 1j, math.pi / 4, math.pi / 2, ("triangle",), 1),
], ids=["cone-test", "halfplane-far-stop"])
def test_nearest_in_sector_slack_beyond_a_border_matches_brute_force(ps, apex, nu, half,
                                                                     shapes, want_id):
    for shape in shapes:
        assert brute_nearest(ps, apex, nu, half, shape)[2] == want_id
        assert_matches_brute(ps, apex, nu, half, shape, None)


@settings(max_examples=200)
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


BORDER = DensitySpec.constant(1.0, domain=Rect(-1, -1, 2, 2), inset_a=0.1)


@st.composite
def near_border_sets(draw):
    """A sector query plus points planted on its border lines and within
    +-2 * EPS * r / sin(half) of them (an angular offset of at most
    2 * EPS / sin(half)), around the inside test's limit."""
    apex = complex(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))
    nu = draw(st.floats(0.0, 2 * math.pi))
    shape, half = draw(st.one_of(
        st.tuples(st.just("triangle"), st.just(math.pi / 2) | st.floats(0.01, math.pi / 2)),
        st.tuples(st.just("disk"), st.just(math.pi / 2) | st.floats(0.01, 3.0))))
    offset = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]) | st.floats(-2.0, 2.0)
    planted = draw(st.lists(st.tuples(st.floats(1e-3, 1.0), st.sampled_from([-1, 1]), offset),
                            min_size=1, max_size=12))
    pts = [apex + cmath.rect(r, nu + side * (half + t * EPS / math.sin(half)))
           for r, side, t in planted]
    others = draw(st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)), max_size=8))
    # the cell is sized for ``rate`` points: one cell, or cells of 0.3 or 0.03
    rate = draw(st.sampled_from([1, 100, 10_000]))
    xy = np.array([(p.real, p.imag) for p in pts] + others, dtype=float)
    return PointSet(xy, BORDER, 0, ("iid", rate)), apex, nu, half, shape


@settings(max_examples=300)
@given(case=near_border_sets())
def test_nearest_in_sector_near_border_property(case):
    ps, apex, nu, half, shape = case
    assert_matches_brute(ps, apex, nu, half, shape, None)


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


def brute_navmax(ps, theta, grid_step, directions=NAVMAX_DIRECTIONS):
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
    # at theta = pi one apex of this set lowers a bin from the last ring the
    # stop rule reads; a stop one ring earlier returns a larger radius
    tight = sample_ppp(BUMP, 150, seed=58)
    # points in one corner only: the aims away from it stay empty, so their
    # apexes retire at those aims' reach, or after the block's last ring
    corner = make_set(0.15 * np.random.default_rng(33).random((30, 2)))
    # 23 x 23 apexes: the lattice is no whole number of blocks, and the first
    # block ends inside a column
    rows = len(np.arange(0.05, 0.95 + 1e-9, 0.04))
    assert rows * rows % _NAVMAX_BLOCK and _NAVMAX_BLOCK % rows and rows * rows > _NAVMAX_BLOCK
    for ps, step in ((const, 0.05), (bump, 0.07), (tight, 0.07), (corner, 0.05),
                     (const, 0.04)):
        assert navmax(ps, theta, step) == brute_navmax(ps, theta, step)


def test_navmax_small_blocks_and_passes_match_brute_force(monkeypatch):
    # which apexes share a block or a ring pass changes no radius; at a cap
    # of 1 a pass reads one run for one apex
    monkeypatch.setattr(points, "_NAVMAX_BLOCK", 7)
    ps = sample_ppp(BUMP, 150, seed=32)
    for cap in (50, 1):
        monkeypatch.setattr(points, "_PASS_CELLS", cap)
        assert navmax(ps, math.pi / 2, 0.07) == brute_navmax(ps, math.pi / 2, 0.07)


# a whole turn, and angles down to the smallest float above 0
THETAS = st.one_of(st.just(2 * math.pi), st.floats(0.0, 2 * math.pi, exclude_min=True))


def carve(pts, how, side, width):
    """``pts`` less a square of side ``width`` at corner ``side`` of the unit
    square (``how`` "corner"), or less a strip of that width along side
    ``side`` (``how`` "strip"), which empties the inset's edge when
    ``width`` is at least the inset, 0.05."""
    x, y = pts[:, 0], pts[:, 1]
    near = (x if side % 2 == 0 else 1.0 - x) < width, (y if side < 2 else 1.0 - y) < width
    if how == "corner":
        return pts[~(near[0] & near[1])]
    if how == "strip":
        return pts[~near[side % 2]]
    return pts


@settings(max_examples=80)
@given(pts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1,
                    max_size=40),
       rate=st.sampled_from([1, 100, 10_000]),
       density=st.sampled_from([UNIT, BUMP]),
       step=st.floats(0.05, 0.2),
       theta=THETAS,
       how=st.sampled_from(["none", "corner", "strip"]),
       side=st.integers(0, 3),
       width=st.floats(0.05, 0.6))
def test_navmax_property(pts, rate, density, step, theta, how, side, width):
    # the cell is sized for ``rate`` points, so sets are dense or sparse; a
    # carved corner or strip leaves aims that catch no point
    kept = carve(np.array(pts, dtype=float).reshape(-1, 2), how, side, width)
    assume(len(kept))
    ps = PointSet(kept, density, 0, ("iid", rate))
    assert navmax(ps, theta, step) == brute_navmax(ps, theta, step)


def catches(dx, dy, aim, half, directions=NAVMAX_DIRECTIONS):
    """The aim bins' catch rule of navmax: bin ``aim`` catches an offset
    whose angle, in bins, lies within ``half`` of it up to a whole turn."""
    bin_w = 2.0 * math.pi / directions
    ctr = np.arctan2(dy, dx) / bin_w
    turns = aim + np.array([-directions, 0, directions])[:, None]
    return ((np.ceil(ctr - half / bin_w) <= turns) & (turns <= np.floor(ctr + half / bin_w))
            ).any(axis=0) & (np.hypot(dx, dy) > 0.0)


@settings(max_examples=300)
@given(pts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1,
                    max_size=20),
       rate=st.sampled_from([1, 100, 10_000]),
       aim=st.one_of(st.sampled_from([0, 16, 32, 48]), st.integers(0, 63)),
       theta=THETAS,
       apex=st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)),
       ray=st.tuples(st.sampled_from([-1, 1]), st.sampled_from([0.0, 0.01, 1.0, 1e3, 1e5, 1e6]),
                     st.integers(-40, 40)),
       seed=st.integers(0, 2 ** 16))
# 1e5 out, 9.5e-12 off the border ray through the box's corner (0, 1): with
# no widening of the angle the reach misses that corner
@example(pts=[(0.5, 0.5)], rate=1, aim=13, theta=math.pi / 3, apex=(0.0, 0.0),
         ray=(-1, 1e5, 19), seed=0)
def test_aim_reach_bounds_every_caught_point(pts, rate, aim, theta, apex, ray, seed):
    """No point of the box of cells that hold a point that the aim catches,
    with offsets and angles as navmax computes them, lies beyond the reach.

    The points tried are the box's corners, random points of the box and
    the points where each border line of the sector meets each edge line,
    moved by a few ulps along the edge.  The apex lies inside or outside
    the box, or ``far`` out on a border ray through the box corner nearest
    the sector, moved off the ray by ``nudge * far * 5e-18``, towards the
    sector when positive, so that the box lies just outside it: 1e5 and
    more out, the catch rule's rounding of the angle reaches farther from
    the ray than the box's widening by ``idx.slack``, and only
    ``_AIM_DELTA`` covers it."""
    ps = PointSet(np.array(pts, dtype=float).reshape(-1, 2), UNIT, 0, ("iid", rate))
    idx = ps.index
    ilo, ihi, jlo, jhi = idx.box
    xs = (idx.rect.x0 + ilo * idx.cell, idx.rect.x0 + (ihi + 1) * idx.cell)
    ys = (idx.rect.y0 + jlo * idx.cell, idx.rect.y0 + (jhi + 1) * idx.cell)
    half, bin_w = theta / 2.0, 2.0 * math.pi / 64
    borders = (aim * bin_w - half, aim * bin_w + half)
    side, far, nudge = ray
    ax, ay = apex
    if far:
        # the normal of the border ray towards the sector
        phi = borders[side > 0]
        nx, ny = side * math.sin(phi), -side * math.cos(phi)
        cx, cy = max(((x, y) for x in xs for y in ys), key=lambda c: c[0] * nx + c[1] * ny)
        ax = cx - far * math.cos(phi) + nudge * far * 5e-18 * nx
        ay = cy - far * math.sin(phi) + nudge * far * 5e-18 * ny
    rng = np.random.default_rng(seed)
    px = [xs[0], xs[1], xs[0], xs[1], *rng.uniform(*xs, 20)]
    py = [ys[0], ys[0], ys[1], ys[1], *rng.uniform(*ys, 20)]
    for phi in borders:
        c, s = math.cos(phi), math.sin(phi)
        for k in range(-4, 5):
            if abs(s) > 1e-300:
                for y in ys:
                    px.append(min(max(ax + (y - ay) / s * c, xs[0]), xs[1]) * (1 + k * 2.2e-16))
                    py.append(y)
            if abs(c) > 1e-300:
                for x in xs:
                    px.append(x)
                    py.append(min(max(ay + (x - ax) / c * s, ys[0]), ys[1]) * (1 + k * 2.2e-16))
    px, py = np.clip(px, *xs), np.clip(py, *ys)
    dx, dy = px - ax, py - ay
    reach = points._aim_reach(idx, np.array([ax]), np.array([ay]), np.array([aim * bin_w]), half)
    caught = catches(dx, dy, aim, half)
    assert (np.hypot(dx, dy)[caught] <= reach[0]).all()


def strip_set():
    """2500 uniform points on the unit square less those of the strip x <
    0.05 (the inset's edge), 0.4 < y < 0.6; cells of 0.02."""
    pts = np.random.default_rng(5).random((2500, 2))
    ps = PointSet(pts[(pts[:, 0] >= 0.05) | (np.abs(pts[:, 1] - 0.5) >= 0.1)], UNIT, 0,
                  ("iid", 2500))
    assert ps.index.cell == 0.02 and ps.index.box == (0, 49, 0, 49)
    return ps


def test_navmax_retires_apexes_held_by_empty_aims(monkeypatch):
    """On the inset's edge next to the empty strip, the aims out of the
    domain catch no point.  Their apexes retire at the reach of those aims,
    once their other radii are settled, not after ring 47, the last that
    meets the box (48 ring passes): at most 20 ring passes a navmax."""
    ps = strip_set()
    passes, reaches = [], []
    gather, aim_reach = points._gather_around, points._aim_reach
    monkeypatch.setattr(points, "_gather_around",
                        lambda *args: passes.append(None) or gather(*args))
    monkeypatch.setattr(points, "_aim_reach",
                        lambda idx, ax, *args: reaches.append(ax) or aim_reach(idx, ax, *args))
    for theta in (math.pi / 3, math.pi / 2):
        passes.clear()
        reaches.clear()
        assert navmax(ps, theta, 0.1) == brute_navmax(ps, theta, 0.1)
        assert len(passes) <= 20
        # the one block's tail holds apexes on the strip's edge
        (ax,) = reaches
        assert 0.05 in ax


def test_aim_reach_waits_for_every_apex_to_find_a_point(monkeypatch):
    """The reach is computed once a block, for apexes that have found a
    point: an apex whose aims all stay empty keeps the others waiting.  At
    theta 0.02 an aim catches only the points within 0.01 rad of it, so
    about half the apexes of this set find none."""
    pts = np.random.default_rng(36).random((3, 2))
    ps = PointSet(pts, UNIT, 0, ("iid", 100))
    theta, step = 0.02, 0.1
    calls = []
    aim_reach = points._aim_reach
    monkeypatch.setattr(points, "_NAVMAX_BLOCK", 9)
    monkeypatch.setattr(points, "_aim_reach",
                        lambda idx, ax, ay, *args: calls.append((ax, ay))
                        or aim_reach(idx, ax, ay, *args))
    assert navmax(ps, theta, step) == brute_navmax(ps, theta, step)
    blocks = math.ceil(len(points._lattice(ps, step)[0]) / 9)
    assert 0 < len(calls) <= blocks
    for ax, ay in calls:
        for x, y in set(zip(ax.tolist(), ay.tolist())):
            assert any(catches(ps.xs - x, ps.ys - y, aim, theta / 2).any()
                       for aim in range(NAVMAX_DIRECTIONS))


def test_navmax_maxball_argument_ranges():
    ps = sample_ppp(UNIT, 100, seed=31)
    # a whole turn is the widest sector; each point then meets every aim
    assert navmax(ps, 2 * math.pi, 0.1) == brute_navmax(ps, 2 * math.pi, 0.1)
    for theta in (0.0, -1.0, math.nan, math.inf, 2 * math.pi + 1e-9):
        with pytest.raises(ValueError, match="theta"):
            navmax(ps, theta, 0.1)
    for step in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="grid_step"):
            navmax(ps, math.pi / 2, step)
        with pytest.raises(ValueError, match="grid_step"):
            maxball(ps, 0.1, step)
    for r in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="r must"):
            maxball(ps, r, 0.1)


def test_maxball_trivial():
    assert maxball(make_set(np.empty((0, 2))), 0.1, 0.1) == 0
    pts = 0.5 + 0.01 * np.random.default_rng(3).random((40, 2))
    assert maxball(make_set(pts), 0.5, 0.2) == 40


def direct_maxball(ps, r, step):
    inset = ps.density.domain.inset(ps.density.inset_a)
    want = 0
    for cx in np.arange(inset.x0, inset.x1 + 1e-9, step):
        for cy in np.arange(inset.y0, inset.y1 + 1e-9, step):
            want = max(want, int(((ps.xs - cx) ** 2 + (ps.ys - cy) ** 2 < r * r).sum()))
    return want


def border_set():
    """Cells of 0.1 with points on every cell border and one ulp to each
    side of it, in both coordinates."""
    at = [v for k in range(11)
          for v in (np.nextafter(0.1 * k, -1.0), 0.1 * k, np.nextafter(0.1 * k, 2.0))
          if 0.0 <= v <= 1.0]
    ps = PointSet(np.array([(x, y) for x in at for y in at]), UNIT, 0, ("iid", 100))
    assert ps.index.cell == 0.1
    return ps


def offset_border_set():
    """Cells of 0.01 on a domain from x = 0.3: the lattice column at
    0.9999999999999999 falls in cell 70 and a point at 0.98 in cell 67, two
    cells' gap, yet their distance rounds below 0.02.  One such point a
    lattice row."""
    shifted = DensitySpec.constant(1.0, domain=Rect(0.3, 0.7, 1.3, 1.7), inset_a=0.05)
    rows = np.arange(0.75, 1.65 + 1e-9, 0.05)
    ps = PointSet(np.array([(0.98, y) for y in rows]), shifted, 0, ("iid", 1e4))
    assert ps.index.cell == 0.01
    return ps


# the corner set: 200 points in [0, 0.15]^2, indexed for 1e6 points
CORNER = PointSet(0.15 * np.random.default_rng(34).random((200, 2)), UNIT, 0, ("iid", 1e6))


@pytest.mark.parametrize("ps, r, step, cap", [
    (sample_ppp(UNIT, 500, seed=21), 0.11, 0.05, None),
    # r a whole number of cells, centres on cell borders and between them
    (border_set(), 0.1, 0.05, None),
    (border_set(), 0.2, 0.05, None),
    (border_set(), 0.3, 0.1, None),
    (offset_border_set(), 0.02, 0.05, None),
    # about 500 points a cell
    (PointSet(np.random.default_rng(22).random((2000, 2)), UNIT, 0, ("iid", 4)),
     0.07, 0.05, None),
    (CORNER, 0.01, 0.1, None),
    (CORNER, 0.05, 0.05, None),
    # r below one cell (cells of about 0.045)
    (sample_ppp(UNIT, 500, seed=23), 0.02, 0.03, None),
    # passes smaller than one centre's cells (45 and 405)
    (sample_ppp(UNIT, 500, seed=21), 0.11, 0.05, 7),
    (CORNER, 0.01, 0.1, 50),
    # one run for one centre a pass
    (sample_ppp(UNIT, 500, seed=21), 0.11, 0.05, 1),
    (CORNER, 0.05, 0.05, 1)],
    ids=["ppp", "border-1-cell", "border-2-cells", "border-3-cells", "offset-border", "crowded",
         "corner-0.01", "corner-0.05", "below-a-cell", "tiny-passes", "tiny-passes-corner",
         "one-run-passes", "one-run-passes-corner"])
def test_maxball_matches_direct_count(monkeypatch, ps, r, step, cap):
    if cap is not None:
        monkeypatch.setattr(points, "_PASS_CELLS", cap)
    assert maxball(ps, r, step) == direct_maxball(ps, r, step)


def whole_stencil(idx, r):
    """maxball's runs from the whole ``(2m+1)^2`` stencil of gap hypots:
    one run per column from its first kept row to its last."""
    m = min(math.ceil(r / idx.cell) + 1, max(idx.nx, idx.ny))
    gap = np.maximum(np.abs(np.arange(-m, m + 1)) - 1, 0) * idx.cell
    keep = np.hypot(gap[:, None], gap) < r * (1.0 + 1e-12) + idx.slack
    di = np.flatnonzero(keep.any(axis=1))
    lo, hi = keep[di].argmax(axis=1), 2 * m + 1 - keep[di, ::-1].argmax(axis=1)
    return di - m, lo - m, hi - m


@pytest.mark.parametrize("ps", [CORNER, offset_border_set(), sample_ppp(UNIT, 100, seed=21)],
                         ids=["cells-0.001", "offset-cells-0.01", "cells-0.1"])
def test_maxball_runs_match_the_whole_stencil(monkeypatch, ps):
    """The bisection over the gaps keeps the rows the whole stencil keeps,
    for r/cell from 0.01 to 300, on whole numbers of cells and on the
    hypots of Pythagorean gaps (ties with r up to rounding), one ulp to
    each side of them too.  On 10 x 10 cells, m is clipped at 10 once r/cell
    exceeds 9, and on the offset domain's 100 x 100 cells once it exceeds 99;
    on 1000 x 1000 cells it reaches 301 unclipped."""
    idx = ps.index
    seen = []
    monkeypatch.setattr(points, "_gather_around", lambda idx, i0, j0, *runs: seen.append(runs)
                        or iter(()))
    ratios = [*np.geomspace(0.01, 300, 40), *range(1, 12), 5 * math.sqrt(2), 99.5, 300]
    ratios += [math.hypot(a, b) for a, b in ((3, 4), (5, 12), (8, 15), (7, 24), (20, 21))]
    for q in ratios:
        for r in (q * idx.cell, np.nextafter(q * idx.cell, 0.0), np.nextafter(q * idx.cell, 1e9)):
            seen.clear()
            maxball(ps, r, 0.5)
            (runs,) = seen
            for got, want in zip(runs, whole_stencil(idx, r)):
                np.testing.assert_array_equal(got, want)


def test_maxball_skips_centres_far_from_every_point(monkeypatch):
    """Only the centres whose cell lies within the window's half-width
    ``m = ceil(r / cell) + 1`` of the box of cells that hold a point are
    gathered; a set that no centre reaches counts 0.  In the opposite
    corner, at r 0.049, lattice centres lie exactly m cells below the box."""
    seen = []
    gather = points._gather_around
    monkeypatch.setattr(points, "_gather_around",
                        lambda idx, i0, j0, *runs: seen.append(i0) or gather(idx, i0, j0, *runs))
    opposite = PointSet(1.0 - CORNER.points, UNIT, 0, ("iid", 1e6))
    for ps, r in ((CORNER, 0.05), (opposite, 0.049)):
        seen.clear()
        assert maxball(ps, r, 0.05) == direct_maxball(ps, r, 0.05)
        (i0,) = seen
        m = math.ceil(r / ps.index.cell) + 1
        _, _, ci, cj = points._lattice(ps, 0.05)
        ilo, ihi, jlo, jhi = ps.index.box
        reach = np.maximum.reduce([ilo - ci, ci - ihi, jlo - cj, cj - jhi])
        assert m in reach
        assert 0 < len(i0) == (reach <= m).sum() < len(ci)
    seen.clear()
    tiny = PointSet(0.02 * np.random.default_rng(35).random((20, 2)), UNIT, 0, ("iid", 1e6))
    assert maxball(tiny, 0.002, 0.1) == direct_maxball(tiny, 0.002, 0.1) == 0
    assert len(seen[0]) == 0


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


@pytest.mark.parametrize("layout", ["one-cell", "one-column", "tied-pairs"])
def test_r_min_cell_layouts_match_brute_force(layout):
    rng = np.random.default_rng(36)
    if layout == "one-cell":
        # a cell of 1: a point's later ids are the rest of the one cell, whose
        # ids ascend but whose points are not in x order
        ps = PointSet(rng.random((40, 2)), UNIT, 0, ("iid", 1))
        assert ps.index.nx == ps.index.ny == 1 and (np.diff(ps.xs) < 0).any()
    elif layout == "one-column":
        # cells of 0.1 and every point in one column of them, about six a cell
        pts = np.column_stack([0.42 + 0.07 * rng.random(60), rng.random(60)])
        ps = PointSet(pts, UNIT, 0, ("iid", 100))
        assert ps.index.cell == 0.1 and len(set(ps.index.cells_of(ps.xs, ps.ys)[0])) == 1
    else:
        # a dyadic lattice 1/16 apart in cells of 0.1: exact ties inside
        # cells, up a column and across columns
        pts = [(i / 16, j / 16) for i in range(17) for j in range(17)]
        ps = PointSet(np.array(pts), UNIT, 0, ("iid", 100))
        assert brute_r_min(ps) == 1 / 16
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
    # normalized profile integrates to 1
    norm = bump.normalized()
    assert norm.integral == pytest.approx(1.0)


def _scalar_matches_value(dens, x, y):
    got = dens.scalar()(x, y)
    assert type(got) is float
    assert got == float(dens.value(x, y))
    assert got == dens.at(complex(x, y))


@settings(max_examples=200)
@given(c=st.floats(1e-3, 1e3), x=st.floats(-1.0, 2.0), y=st.floats(-1.0, 2.0))
def test_scalar_density_constant(c, x, y):
    _scalar_matches_value(DensitySpec.constant(c), x, y)


@settings(max_examples=200)
@given(margin=st.floats(1e-3, 5.0), b=st.floats(-5.0, 5.0), c=st.floats(-5.0, 5.0),
       x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
def test_scalar_density_affine(margin, b, c, x, y):
    # a is chosen so the profile stays positive on the unit square
    a = margin + max(0.0, -b) + max(0.0, -c)
    _scalar_matches_value(DensitySpec.affine(a, b, c), x, y)


@settings(max_examples=300)
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
