"""Planar primitives for sector navigation.

The plane is identified with the complex numbers: a point is a python
``complex`` (helpers accept ``(x, y)`` pairs too).  Angles follow the
``[0, 2*pi)`` convention.  The cross around a point ``x`` is the family of
``p`` half-lines ``HL_j(x) = x + {r*e^{i*theta*(j-1/2)}, r > 0}`` bounding the
``p`` angular sectors ``x + e^{i*k*theta}*Sect(theta)``.  This module indexes
those sectors, builds the two-leg limit polyline, and measures polylines
against each other (Hausdorff distance).

A decision domain is a sector truncated by a disk cap (radius key) or by a
line orthogonal to the bisector (projection key).  Which of its points may be
chosen (the apex never) and which of them wins is one rule, the sector
query's ``points._candidate_key`` behind ``nearest_in_sector``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair

TWO_PI = 2.0 * math.pi

# Boundary tolerance of the sector rules (``sector_of_angle`` here, the
# sector query's membership test in ``points``) on hand-built fixtures.
# Randomly sampled points never sit on a boundary, so this only guards
# deliberately degenerate inputs.
EPS = 1e-12


def as_point(p) -> complex:
    """Coerce ``complex`` or ``(x, y)`` to a finite complex point."""
    if isinstance(p, complex):
        z = p
    elif isinstance(p, (int, float)):
        z = complex(p, 0.0)
    else:
        x, y = p
        z = complex(x, y)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"point has non-finite coordinates: {p!r}")
    return z


def norm_angle(a: float) -> float:
    """Reduce an angle to ``[0, 2*pi)``."""
    a = math.fmod(a, TWO_PI)
    return a + TWO_PI if a < 0.0 else a


@dataclass(frozen=True)
class CrossParams:
    """Sector count ``p_theta >= 3``; the sector angle is ``2*pi/p_theta``."""

    p_theta: int

    def __post_init__(self):
        if self.p_theta < 3:
            raise ValueError("p_theta must be >= 3")

    @property
    def theta(self) -> float:
        return TWO_PI / self.p_theta


def sector_index(s, t, cross: CrossParams) -> int:
    """Index ``k`` of the fixed angular sector around ``s`` containing ``t``.

    When ``t`` sits exactly on a border half-line it belongs to two sectors;
    the smaller valid index is returned so repeated runs are reproducible.
    """
    s = as_point(s)
    t = as_point(t)
    if s == t:
        raise DegeneratePair("sector_index needs s != t")
    return sector_of_angle(cmath.phase(t - s), cross.theta, cross.p_theta)


def sector_of_angle(ang: float, theta: float, p_theta: int) -> int:
    """Index ``k`` of the sector of angle ``theta`` (bisector ``k*theta``,
    ``0 <= k < p_theta``) containing the direction ``ang``, the sector
    rule of ``sector_index`` and of the cross kinds' aim."""
    ang = norm_angle(ang)
    k = math.floor(ang / theta + 0.5)
    if k >= p_theta:
        k = 0
    # Exactly on the first border of sector k: the point is shared with
    # sector k-1, which has the smaller index (except across the 0 wrap,
    # handled above since angles near 2*pi map to k = p and then 0).
    if k >= 1 and abs(ang - (k - 0.5) * theta) <= EPS:
        k -= 1
    return k


def corner_point(s, t, cross: CrossParams) -> complex:
    """Corner of the two-leg limit polyline between ``s`` and ``t``.

    Of the two lines through ``t`` parallel to the borders of the sector of
    ``s`` containing ``t``, each meets the bisecting half-line once; the
    intersection closer to ``s`` is returned.
    """
    s = as_point(s)
    t = as_point(t)
    if s == t:
        raise DegeneratePair("corner_point needs s != t")
    theta = cross.theta
    k = sector_index(s, t, cross)
    z = (t - s) * cmath.exp(-1j * k * theta)   # bisector becomes the +x axis
    x = z.real - abs(z.imag) / math.tan(theta / 2.0)
    return s + x * cmath.exp(1j * k * theta)


def gamma_path(s, t, cross: CrossParams) -> list[complex]:
    """Two-leg limit polyline ``[s, corner] + [corner, t]``.

    Collapses to ``[s]`` when ``s == t`` and to the single segment ``[s, t]``
    when ``t`` lies on the bisector (corner == t).
    """
    s = as_point(s)
    t = as_point(t)
    if s == t:
        return [s]
    i = corner_point(s, t, cross)
    if i == t:
        return [s, t]
    return [s, i, t]


def sample_polyline(poly, step: float) -> np.ndarray:
    """Points along a polyline at arc-length spacing <= ``step`` (vertices kept).

    Returns an ``(m, 2)`` array; a single-vertex polyline yields one row.
    """
    if step <= 0.0:
        raise ValueError("step must be > 0")
    pts = [as_point(p) for p in poly]
    if not pts:
        raise ValueError("empty polyline")
    out = [pts[0]]
    for a, b in zip(pts, pts[1:]):
        seg = abs(b - a)
        if seg == 0.0:
            continue
        m = max(1, math.ceil(seg / step))
        for j in range(1, m + 1):
            out.append(a + (b - a) * (j / m))
    arr = np.empty((len(out), 2))
    arr[:, 0] = [z.real for z in out]
    arr[:, 1] = [z.imag for z in out]
    return arr


def hausdorff_distance(poly_a, poly_b, resolution: float) -> float:
    """Symmetric Hausdorff distance between two polylines.

    Both polylines are sampled at arc-length step <= ``resolution`` and the
    max of the two directed max-min distances over the samples is returned;
    the approximation differs from the exact value by at most ``resolution``.
    Each block of squared distances (512 rows of ``a`` against all of ``b``,
    to keep it small) is built once: its row minima serve ``a`` and a running
    minimum down its columns serves ``b``.
    """
    a = sample_polyline(poly_a, resolution)
    b = sample_polyline(poly_b, resolution)
    worst = 0.0
    col = np.full(len(b), np.inf)
    for lo in range(0, len(a), 512):
        blk = a[lo:lo + 512]
        d2 = (blk[:, None, 0] - b[None, :, 0]) ** 2 + (blk[:, None, 1] - b[None, :, 1]) ** 2
        worst = max(worst, float(d2.min(axis=1).max()))
        np.minimum(col, d2.min(axis=0), out=col)
    return math.sqrt(max(worst, float(col.max())))
