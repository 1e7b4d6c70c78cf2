import cmath
import math

import numpy as np
import pytest

from geonav import (CrossParams, DegeneratePair, DensitySpec, NavSpec, PointSet, Rect,
                    constants, nearest_in_sector)
from geonav.geometry import (corner_point, gamma_path, hausdorff_distance,
                             norm_angle, sample_polyline, sector_index, sector_of_angle)
from geonav.limits import _legs

DEG = math.pi / 180.0
# a domain wide enough that no limit polyline below leaves its inset
PLANE = DensitySpec.constant(1.0, domain=Rect(-100, -100, 100, 100))


def leg_length(s, t, p, weighted=True):
    """The limit length rule: ``sum(q * |b - a|)`` over the legs of the
    ``t`` kind, or their plain length with ``weighted=False``."""
    return sum((q if weighted else 1.0) * abs(b - a)
               for a, b, _, q in _legs("t", None, p, s, t, PLANE))


# -- independent oracles -----------------------------------------------------

def sector_contains(s, t, k, p_theta):
    """Membership oracle: is t in the k-th sector around s (border included)?"""
    theta = 2.0 * math.pi / p_theta
    rel = (cmath.phase(t - s) - k * theta) % (2.0 * math.pi)
    if rel > math.pi:
        rel -= 2.0 * math.pi
    return abs(rel) <= theta / 2.0 + 1e-12


def corner_oracle(s, t, p_theta):
    """Analytic line intersection: both border parallels through t against the
    bisector, keep the hit closer to s."""
    theta = 2.0 * math.pi / p_theta
    k = sector_index(s, t, CrossParams(p_theta))
    bis = cmath.exp(1j * k * theta)
    hits = []
    for border_angle in (k * theta - theta / 2.0, k * theta + theta / 2.0):
        u = cmath.exp(1j * border_angle)
        # solve s + x*bis = t + r*u  for real x, r
        a = np.array([[bis.real, -u.real], [bis.imag, -u.imag]])
        b = np.array([(t - s).real, (t - s).imag])
        x, _ = np.linalg.solve(a, b)
        hits.append(s + x * bis)
    return min(hits, key=lambda z: abs(z - s))


# -- sector_index ------------------------------------------------------------

def test_sector_index_axis_point():
    assert sector_index(0j, 1 + 0j, CrossParams(6)) == 0


def test_sector_index_inside_central_sector():
    t = cmath.rect(1.0, 0.5)
    assert 0.5 < math.pi / 6  # stays below the first border
    assert sector_index(0j, t, CrossParams(6)) == 0


def test_sector_index_vertical_p4():
    assert sector_index(0j, 1j, CrossParams(4)) == 1


def test_sector_index_border_tie_prefers_smaller():
    # exactly on the shared border of sectors 0 and 1 (p=6: angle pi/6)
    t = cmath.rect(2.0, math.pi / 6)
    k = sector_index(0j, t, CrossParams(6))
    assert k == 0
    assert sector_contains(0j, t, 0, 6) and sector_contains(0j, t, 1, 6)
    # on the wrap border (angle 2*pi - theta/2) the smaller index is 0
    t = cmath.rect(2.0, 2.0 * math.pi - math.pi / 6)
    assert sector_index(0j, t, CrossParams(6)) == 0


def test_sector_of_angle_takes_any_angle():
    # the rule the cross kinds aim with: angles are reduced to [0, 2*pi)
    # first, and a border angle goes to the smaller index
    theta = math.pi / 3
    assert sector_of_angle(math.pi / 6, theta, 6) == 0
    assert sector_of_angle(math.pi / 6 + 1e-9, theta, 6) == 1
    assert sector_of_angle(-math.pi / 6, theta, 6) == 0
    assert sector_of_angle(-math.pi / 6 - 1e-9, theta, 6) == 5
    assert sector_of_angle(4 * math.pi + 2 * theta, theta, 6) == 2
    rng = np.random.default_rng(5)
    for z in rng.normal(size=50) + 1j * rng.normal(size=50):
        assert sector_of_angle(cmath.phase(z), theta, 6) == sector_index(0j, z, CrossParams(6))


@pytest.mark.parametrize("p_theta", [3.5, None, "6"])
def test_cross_params_refuse_what_nav_spec_refuses(p_theta):
    # one whole-number rule: the p_theta NavSpec refuses, CrossParams refuses
    with pytest.raises(ValueError, match="p_theta"):
        CrossParams(p_theta)
    with pytest.raises(ValueError, match="p_theta"):
        NavSpec("t", p_theta=p_theta)


def test_cross_params_read_an_integral_float():
    assert CrossParams(6.0) == CrossParams(6) and type(CrossParams(6.0).p_theta) is int


def test_sector_index_degenerate():
    with pytest.raises(DegeneratePair):
        sector_index(1j, 1j, CrossParams(6))


def test_sector_index_membership_random():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        p = int(rng.integers(3, 13))
        s = complex(rng.normal(), rng.normal())
        t = complex(rng.normal(), rng.normal())
        if s == t:
            continue
        k = sector_index(s, t, CrossParams(p))
        assert 0 <= k < p
        assert sector_contains(s, t, k, p)


def test_sector_index_rotation_equivariance():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        p = int(rng.integers(3, 10))
        theta = 2.0 * math.pi / p
        m = int(rng.integers(0, p))
        rot = cmath.exp(1j * m * theta)
        s = complex(rng.normal(), rng.normal())
        t = complex(rng.normal(), rng.normal())
        if s == t:
            continue
        k = sector_index(s, t, CrossParams(p))
        k_rot = sector_index(rot * s, rot * t, CrossParams(p))
        assert k_rot == (k + m) % p


# -- sector membership and tie-break (the rule of nearest_in_sector) ----------

BIG = DensitySpec.constant(1.0, domain=Rect(-3, -3, 11, 11), inset_a=0.5)


def point_set(points):
    return PointSet(np.asarray(points, dtype=float).reshape(-1, 2), BIG, 0,
                    ("iid", len(points)))


def test_apex_excluded():
    # the apex alone is never returned, as a stored point or as the extra one
    apex = 0.3 + 0.4j
    ps = point_set([(0.3, 0.4)])
    for shape in ("disk", "triangle"):
        for extra in (None, apex):
            assert nearest_in_sector(ps, apex, 1.0, 0.6, shape, extra=extra) is None


def test_triangle_boundary_inclusive():
    # a point exactly on a border (|y| = x*tan(pi/4)) is inside, one just
    # past it is not
    ps = point_set([(0.5, 0.51), (0.5, 0.5)])
    assert nearest_in_sector(ps, 0j, 0.0, math.pi / 4, "triangle") == (0.5 + 0.5j, 0.5, 1)
    assert nearest_in_sector(point_set([(0.5, 0.51)]), 0j, 0.0, math.pi / 4,
                             "triangle") is None


def test_disk_membership():
    p = 0.8 + 0.5j
    assert abs(cmath.phase(p)) <= math.pi / 4
    ps = point_set([(0.8, 0.9), (0.8, 0.5)])    # 0.8 + 0.9j: angle too wide
    got = nearest_in_sector(ps, 0j, 0.0, math.pi / 4, "disk")
    assert got[0] == p and got[1] == pytest.approx(abs(p)) and got[2] == 1
    assert nearest_in_sector(point_set([(0.8, 0.9)]), 0j, 0.0, math.pi / 4, "disk") is None
    # a border point under the radius key
    ps = point_set([(0.5, 0.51), (0.5, -0.5)])
    got = nearest_in_sector(ps, 0j, 0.0, math.pi / 4, "disk")
    assert got[0] == 0.5 - 0.5j and got[1] == pytest.approx(math.sqrt(0.5))


def test_border_distance_symmetric_pair():
    # mirror images at angles +-0.25 under half-angle 0.6 have equal radius
    # and projection; the one below the axis is nearer the first border, at
    # -0.6, and wins in either storage order
    a, b = cmath.rect(1.3, 0.25), cmath.rect(1.3, -0.25)
    for order in ((a, b), (b, a)):
        ps = point_set([(z.real, z.imag) for z in order])
        for shape in ("disk", "triangle"):
            assert nearest_in_sector(ps, 0j, 0.0, 0.6, shape)[0] == b


# -- corner point and the limit polyline ---------------------------------------

def test_corner_on_bisector_is_t():
    t = cmath.rect(0.7, 2.0 * math.pi / 6)   # on the bisector of sector 1
    assert corner_point(0j, t, CrossParams(6)) == pytest.approx(t)


def test_corner_example_20_degrees():
    t = cmath.rect(1.0, 20 * DEG)
    i = corner_point(0j, t, CrossParams(6))
    expect = math.cos(20 * DEG) - math.sin(20 * DEG) / math.tan(30 * DEG)
    assert i.real == pytest.approx(expect, abs=1e-12)
    assert i.imag == pytest.approx(0.0, abs=1e-12)
    assert i == pytest.approx(corner_oracle(0j, t, 6))
    # mirror symmetry
    i2 = corner_point(0j, t.conjugate(), CrossParams(6))
    assert i2 == pytest.approx(i)


def test_corner_matches_analytic_oracle_random():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        p = int(rng.integers(3, 13))
        s = complex(rng.normal(), rng.normal())
        t = complex(rng.normal(), rng.normal())
        if abs(s - t) < 1e-9:
            continue
        i = corner_point(s, t, CrossParams(p))
        assert i == pytest.approx(corner_oracle(s, t, p), abs=1e-9)
        # the corner lies on the bisector, no farther from s than t
        assert abs(i - s) <= abs(t - s) + 1e-12


def test_gamma_path_degenerate_and_bisector():
    assert gamma_path(1j, 1j, CrossParams(6)) == [1j]
    t = cmath.rect(0.5, 0.0)
    assert gamma_path(0j, t, CrossParams(6)) == [0j, t]


def test_gamma_path_two_legs():
    t = cmath.rect(1.0, 20 * DEG)
    poly = gamma_path(0j, t, CrossParams(6))
    assert len(poly) == 3
    assert poly[0] == 0j and poly[2] == t
    assert poly[1] == pytest.approx(corner_oracle(0j, t, 6))


def test_weighted_length_collapses_to_euclidean():
    rng = np.random.default_rng(10)
    for _ in range(200):
        s = complex(rng.normal(), rng.normal())
        t = complex(rng.normal(), rng.normal())
        if s == t:
            continue
        w = leg_length(s, t, 6, weighted=False)
        i = corner_point(s, t, CrossParams(6))
        assert w == pytest.approx(abs(i - s) + abs(t - i))
        assert w >= abs(t - s) - 1e-12


def test_weighted_length_zero_and_example():
    assert _legs("t", None, 6, 2j, 2j, PLANE) == []
    assert leg_length(2j, 2j, 6) == 0.0
    t = cmath.rect(1.0, 20 * DEG)
    i = corner_oracle(0j, t, 6)
    row = constants("t", math.pi / 3)
    expect = row.q_bis * abs(i) + row.q_bor * abs(t - i)
    got = leg_length(0j, t, 6)
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(1.19750, abs=5e-5)


def test_scale_equivariance():
    rng = np.random.default_rng(11)
    for _ in range(500):
        lam = float(rng.uniform(0.1, 5.0))
        s = complex(rng.normal(), rng.normal())
        t = complex(rng.normal(), rng.normal())
        if s == t:
            continue
        p = int(rng.integers(3, 10))
        cross = CrossParams(p)
        assert sector_index(lam * s, lam * t, cross) == sector_index(s, t, cross)
        i = corner_point(s, t, cross)
        assert corner_point(lam * s, lam * t, cross) == pytest.approx(lam * i)
        if p >= 6:   # the t kind's constants need theta <= pi/3
            assert leg_length(lam * s, lam * t, p) == \
                pytest.approx(lam * leg_length(s, t, p))


# -- Hausdorff distance ---------------------------------------------------------

def test_hausdorff_identical():
    poly = [0j, 1 + 0j, 1 + 1j]
    assert hausdorff_distance(poly, poly, 1e-3) == 0.0


def test_hausdorff_parallel_segments():
    a = [0j, 1 + 0j]
    b = [0.3j, 1 + 0.3j]
    assert hausdorff_distance(a, b, 1e-3) == pytest.approx(0.3, abs=1e-3)


def test_hausdorff_apex_example():
    a = [0j, 1 + 0j]
    b = [0j, 0.5 + 0.1j, 1 + 0j]
    # dense brute-force oracle at much finer resolution
    fine = hausdorff_distance(a, b, 1e-4)
    got = hausdorff_distance(a, b, 1e-3)
    assert fine == pytest.approx(0.1, abs=1e-4)
    assert got == pytest.approx(0.1, abs=1e-3)


def two_pass_hausdorff(poly_a, poly_b, resolution):
    """The reference: each directed max-min from its own blocks of 512 rows."""
    a = sample_polyline(poly_a, resolution)
    b = sample_polyline(poly_b, resolution)

    def directed(p, q):
        worst = 0.0
        for lo in range(0, len(p), 512):
            blk = p[lo:lo + 512]
            d2 = (blk[:, None, 0] - q[None, :, 0]) ** 2 + (blk[:, None, 1] - q[None, :, 1]) ** 2
            worst = max(worst, float(np.sqrt(d2.min(axis=1)).max()))
        return worst

    return max(directed(a, b), directed(b, a))


def test_hausdorff_one_pass_equals_two_directed_passes():
    # up to about 1400 samples a polyline, so both sides cross a block
    # boundary; single vertices and repeated vertices included
    rng = np.random.default_rng(41)
    cases = [([0.2 + 0.2j], [0.7 + 0.1j, 0.7 + 0.1j, 0.3 + 0.9j], 0.01)]
    for _ in range(60):
        a, b = ([complex(*p) for p in rng.random((int(rng.integers(1, 4)), 2))] for _ in "ab")
        cases.append((a, b, float(rng.choice([3e-3, 1e-2, 0.1]))))
    for a, b, res in cases:
        assert hausdorff_distance(a, b, res) == two_pass_hausdorff(a, b, res)


def test_as_point_rejects_non_finite():
    from geonav import as_point
    assert as_point((0.5, -1.0)) == 0.5 - 1j
    assert as_point(2j) == 2j
    for bad in (float("nan") + 0j, (math.inf, 0.0), (0.0, float("nan"))):
        with pytest.raises(ValueError):
            as_point(bad)


def test_norm_angle_range():
    for a in (-7.0, -0.1, 0.0, 3.0, 6.5, 100.0):
        v = norm_angle(a)
        assert 0.0 <= v < 2.0 * math.pi
        assert cmath.exp(1j * v) == pytest.approx(cmath.exp(1j * a))
