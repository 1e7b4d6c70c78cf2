import cmath
import math

import numpy as np
import pytest

from geonav import CrossParams, DegeneratePair
from geonav.geometry import (SectorFrame, border_distance, corner_point,
                             gamma_path, hausdorff_distance,
                             in_decision_domain, norm_angle, sector_index,
                             sector_of_angle, weighted_gamma_length)

DEG = math.pi / 180.0


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


# -- decision-domain membership -----------------------------------------------

def test_apex_excluded():
    for shape in ("disk", "triangle"):
        frame = SectorFrame(apex=0.3 + 0.4j, direction=1.0, half_angle=0.6,
                            shape=shape, h=2.0)
        assert not in_decision_domain(0.3 + 0.4j, frame)


def test_triangle_boundary_inclusive():
    frame = SectorFrame(apex=0j, direction=0.0, half_angle=math.pi / 4,
                        shape="triangle", h=1.0)
    assert in_decision_domain(0.5 + 0.5j, frame)   # |y| = x*tan(pi/4)
    assert in_decision_domain(1.0 + 0.0j, frame)   # cap boundary
    assert not in_decision_domain(1.0001 + 0.0j, frame)
    assert not in_decision_domain(0.5 + 0.51j, frame)


def test_disk_membership():
    frame = SectorFrame(apex=0j, direction=0.0, half_angle=math.pi / 4,
                        shape="disk", h=1.0)
    p = 0.8 + 0.5j
    assert abs(p) <= 1.0 and abs(cmath.phase(p)) <= math.pi / 4
    assert in_decision_domain(p, frame)
    assert not in_decision_domain(0.8 + 0.9j, frame)     # angle too wide
    assert not in_decision_domain(1.2 + 0.1j, frame)     # beyond the cap


def test_uncapped_sector_membership():
    frame = SectorFrame(apex=1j, direction=0.0, half_angle=0.4)
    assert in_decision_domain(1j + cmath.rect(50.0, 0.39), frame)
    assert not in_decision_domain(1j + cmath.rect(50.0, 0.41), frame)


# -- border distance -----------------------------------------------------------

def test_border_distance_on_border_is_zero():
    frame = SectorFrame(apex=0j, direction=0.0, half_angle=0.5)
    p = cmath.rect(2.0, -0.5)   # on the first border
    assert border_distance(p, frame) == pytest.approx(0.0, abs=1e-12)


def test_border_distance_axis_point():
    frame = SectorFrame(apex=0j, direction=0.0, half_angle=math.pi / 4)
    assert border_distance(1.0 + 0j, frame) == pytest.approx(math.sin(math.pi / 4))


def test_border_distance_symmetric_pair():
    # mirror-image points are equidistant from their respective borders but
    # not from the same (first) border
    frame = SectorFrame(apex=0j, direction=0.0, half_angle=0.6)
    a = cmath.rect(1.3, 0.25)
    b = cmath.rect(1.3, -0.25)
    d_first_a = border_distance(a, frame)
    d_first_b = border_distance(b, frame)
    assert d_first_a != pytest.approx(d_first_b)
    # distance of a to the LAST border equals distance of b to the first
    mirrored = SectorFrame(apex=0j, direction=0.0, half_angle=0.6)
    assert border_distance(a.conjugate(), mirrored) == pytest.approx(d_first_b)


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
        w = weighted_gamma_length(s, t, 1.0, 1.0, CrossParams(6))
        i = corner_point(s, t, CrossParams(6))
        assert w == pytest.approx(abs(i - s) + abs(t - i))
        assert w >= abs(t - s) - 1e-12


def test_weighted_length_zero_and_example():
    assert weighted_gamma_length(2j, 2j, 1.0, 2.0, CrossParams(6)) == 0.0
    t = cmath.rect(1.0, 20 * DEG)
    i = corner_oracle(0j, t, 6)
    c1, c2 = 1.053063, 1.215973
    expect = c1 * abs(i) + c2 * abs(t - i)
    got = weighted_gamma_length(0j, t, c1, c2, CrossParams(6))
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
        assert weighted_gamma_length(lam * s, lam * t, 1.3, 0.7, cross) == \
            pytest.approx(lam * weighted_gamma_length(s, t, 1.3, 0.7, cross))


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
