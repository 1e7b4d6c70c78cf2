"""Random stopping-place sets with a uniform-grid index for sector queries.

Sampling is deterministic given a seed.  The grid index stores point ids in
CSR layout as int32: ids sorted by cell (stable radix passes over the
16-bit digits of the cell id), plus per-cell offsets.  A sector query
first reads the 7 x 7 block of cells around the apex cell as one run of ids
per grid column, with no cone test, with its target in the last slot, as id
-1.  One scorer call per batch (``_candidate_key``) returns the batch's
smallest ``(key, border, id)``: the smallest key among the inside
candidates, with the border distance computed only to break exact key
ties.  Most queries stop there.  Otherwise the query reads later rings as
column runs too, from the first ring that meets the box of cells that hold
a point (none when a convex cone misses the whole box), one interval of
rows per column holding the cells that may meet the cone and beat the best
key so far, until no unvisited ring can beat it.

The diagnostics read column runs through one reader, ``GridIndex.runs``.
``navmax`` and ``maxball`` share one lattice of the inset domain and one
kernel, ``_gather_around``, which reads runs at given offsets around each
lattice point: ``navmax`` moves each block of ``_NAVMAX_BLOCK`` apexes ring
by ring in lockstep until no later ring can lower a radius or reach an
empty aim (``_aim_reach``), and ``maxball`` reads one run per column of the
cells that can meet a ball, for every centre at once.  ``r_min`` pairs every
point with its forward half-neighbourhood, read as column runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import DensitySpec, Rect
from .errors import ConfigError, EmptyPointSet, TooFewPoints
from .geometry import EPS, as_point, norm_angle

__all__ = [
    "GridIndex", "PointSet", "Diagnostics",
    "sample_ppp", "sample_iid", "nearest_in_sector",
    "navmax", "NAVMAX_DIRECTIONS", "maxball", "r_min", "save_points", "load_points",
]


class GridIndex:
    """Uniform grid over the domain rectangle mapping cells to point ids."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray, rect: Rect, cell: float):
        self.rect = rect
        self.cell = cell
        self.nx = max(1, math.ceil(rect.width / cell))
        self.ny = max(1, math.ceil(rect.height / cell))
        ix, iy = self.cells_of(xs, ys)
        # the box of cells that hold a point: (i_lo, i_hi, j_lo, j_hi)
        self.box = ((int(ix.min()), int(ix.max()), int(iy.min()), int(iy.max()))
                    if len(ix) else (0, -1, 0, -1))
        flat = ix * self.ny + iy
        del ix, iy
        cells = self.nx * self.ny
        dtype = np.int32 if len(flat) < 2**31 else np.int64
        self.starts = np.zeros(cells + 1, dtype=dtype)
        np.cumsum(np.bincount(flat, minlength=cells), out=self.starts[1:])
        # stable passes over the cell id's 16-bit digits, lowest first
        digits = [(flat >> s).astype(np.uint16)
                  for s in range(0, max(cells - 1, 1).bit_length(), 16)]
        del flat
        self.order = np.argsort(digits.pop(0), kind="stable").astype(dtype)
        while digits:
            self.order = self.order[np.argsort(digits.pop(0)[self.order], kind="stable")]
        # bounds from cell corners and exact distances may round this far apart
        self.slack = 1e-12 * (cell + max(abs(rect.x0), abs(rect.x1), abs(rect.y0), abs(rect.y1)))

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        i = min(self.nx - 1, max(0, int((x - self.rect.x0) / self.cell)))
        j = min(self.ny - 1, max(0, int((y - self.rect.y0) / self.cell)))
        return i, j

    def cells_of(self, xs: np.ndarray, ys: np.ndarray):
        """``cell_of`` for arrays: the columns of ``xs`` and the rows of ``ys``."""
        return (np.clip(((xs - self.rect.x0) / self.cell).astype(np.int64), 0, self.nx - 1),
                np.clip(((ys - self.rect.y0) / self.cell).astype(np.int64), 0, self.ny - 1))

    def runs(self, cols: np.ndarray, lo: np.ndarray, end: np.ndarray,
             owners: np.ndarray | None = None):
        """Point ids in rows ``lo`` to ``end - 1`` (in ``0..ny``) of each
        column ``cols``, one slice of ``order`` a run, in run order; a run
        with ``end <= lo`` is empty.  With ``owners`` (one per run), returns
        ``(ids, owner)``, each id paired with the owner of its run."""
        base = cols * self.ny
        s = self.starts[base + lo]
        cnt = np.maximum(self.starts[base + end] - s, 0)
        ids = self.order[_ranges(s, cnt)]
        return ids if owners is None else (ids, np.repeat(owners, cnt))

    def ring_span(self, i0: int, j0: int) -> tuple[int, int]:
        """The first and the last ring around ``(i0, j0)`` that meet ``box``
        (``(1, 0)`` if it is empty)."""
        ilo, ihi, jlo, jhi = self.box
        if ilo > ihi:
            return 1, 0
        return (max(ilo - i0, i0 - ihi, jlo - j0, j0 - jhi, 0),
                max(i0 - ilo, ihi - i0, j0 - jlo, jhi - j0))


def _ranges(lo: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """``lo[0], ..., lo[0] + cnt[0] - 1, lo[1], ...`` as one array.

    The offsets are repeated first and the count added in place, so no more
    than two arrays of the output's length are held at once."""
    out = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    out += np.arange(len(out))
    return out


@dataclass(eq=False)
class PointSet:
    """Immutable sampled point set plus its grid index.

    ``model`` is ``("ppp", n)`` or ``("iid", n)``; the intensity actually
    sampled is ``n * f`` for the first and ``n`` i.i.d. draws from the
    normalized profile for the second.
    """

    points: np.ndarray            # (N, 2) float64
    density: DensitySpec
    seed: int
    model: tuple
    index: GridIndex = field(repr=False, default=None)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)
        self.points.setflags(write=False)
        if self.index is None:
            self.index = GridIndex(self.points[:, 0], self.points[:, 1],
                                   self.density.domain, self._default_cell())
        self.xs = self.points[:, 0]
        self.ys = self.points[:, 1]
        # the points as complex numbers, a view of ``points`` when it is
        # C-contiguous: a sector scan gathers and shifts both coordinates at once
        self.zs = np.ascontiguousarray(self.points).view(np.complex128).reshape(-1)

    def _default_cell(self) -> float:
        # about one expected point per cell at the densest spot
        kind, n = self.model
        rate = max(n * self.density.M_f if kind == "ppp"
                   else n * self.density.normalized().M_f, 1.0)
        cell = 1.0 / math.sqrt(rate)
        side = min(self.density.domain.width, self.density.domain.height)
        return float(min(max(cell, side / 2048.0), side))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def n(self) -> float:
        return self.model[1]


def _dedupe(rng, pts: np.ndarray, draw_one) -> np.ndarray:
    """Redraw rows until all points are distinct (float-collision guard).

    The sort is stable, so of equal rows the one with the smallest index
    stays and the others are redrawn in index order.  A round first sorts x
    alone: if no two x values are equal, no two rows are, and the two-key
    sort is skipped.
    """
    while len(pts) > 1:
        xs = np.sort(pts[:, 0])
        if not (xs[1:] == xs[:-1]).any():
            break
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        x = pts[order, 0]
        y = pts[order, 1]
        same = (x[1:] == x[:-1]) & (y[1:] == y[:-1])
        if not same.any():
            break
        for i in np.sort(order[1:][same]):
            pts[i] = draw_one(rng)
    return pts


def _thinned_uniform(rng, density: DensitySpec, count: int) -> np.ndarray:
    d = density.domain
    xs = rng.uniform(d.x0, d.x1, count)
    ys = rng.uniform(d.y0, d.y1, count)
    keep = rng.random(count) * density.M_f < density.value(xs, ys)
    return np.column_stack([xs[keep], ys[keep]])


def _draw_one_accepted(density: DensitySpec):
    d = density.domain

    def draw(rng):
        while True:
            x = rng.uniform(d.x0, d.x1)
            y = rng.uniform(d.y0, d.y1)
            if rng.random() * density.M_f < density.at(complex(x, y)):
                return (x, y)
    return draw


def sample_ppp(density: DensitySpec, n: float, seed: int) -> PointSet:
    """Poisson process with intensity ``n * f``: Poisson count, then thinning
    of uniform candidates against the constant envelope ``n * M_f``."""
    if not n > 0.0:
        raise ValueError("n must be > 0")
    rng = np.random.default_rng(seed)
    envelope = rng.poisson(n * density.M_f * density.domain.area)
    pts = _thinned_uniform(rng, density, envelope)
    pts = _dedupe(rng, pts, _draw_one_accepted(density))
    return PointSet(pts, density, seed, ("ppp", float(n)))


def sample_iid(density: DensitySpec, n: int, seed: int) -> PointSet:
    """Exactly ``n`` i.i.d. points with the normalized profile as density."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    out = np.empty((0, 2))
    d = density.domain
    while len(out) < n:
        want = n - len(out)
        batch = max(32, int(1.2 * want * density.M_f * d.area / max(density.integral, 1e-300)))
        got = _thinned_uniform(rng, density, batch)
        out = np.vstack([out, got])
    pts = _dedupe(rng, out[:n].copy(), _draw_one_accepted(density))
    return PointSet(pts, density, seed, ("iid", int(n)))


# ---------------------------------------------------------------------------
# sector queries
# ---------------------------------------------------------------------------

def _candidate_key(dx, dy, nu: float, half: float, triangle: bool, ids):
    """Smallest ``(key, border, id)`` of the candidates ``ids`` at offsets
    ``(dx, dy)`` from the apex that lie inside the sector, or ``None``.

    A candidate at distance ``r > 0`` is inside when its projection ``x`` on
    the bisector is at least ``r * (cos(half) - EPS)``; its key is ``x``
    (triangle) or ``r`` (disk).  The border, the distance to the first
    border half-line, only breaks exact key ties, so it is computed for the
    candidates with the smallest key alone.
    """
    c = math.cos(nu)
    s = math.sin(nu)
    x = dx * c + dy * s
    y = dy * c - dx * s
    r = np.hypot(x, y)
    ch = math.cos(half)
    sh = math.sin(half)
    inside = (r > 0.0) & (x >= r * (ch - EPS))
    k = np.where(inside, x if triangle else r, np.inf)
    if not len(k):
        return None
    j = int(k.argmin())
    if not inside[j]:
        return None
    kj = k[j]
    k[j] = np.inf                   # a tie shows as a second smallest key
    if k[k.argmin()] != kj:
        xj, yj = float(x[j]), float(y[j])
        # first border half-line: direction -half in this frame
        border = abs(xj * sh + yj * ch) if xj * ch - yj * sh >= 0.0 else float(r[j])
        return float(kj), border, int(ids[j])
    k[j] = kj
    tied = np.flatnonzero(k == kj)
    xt, yt = x[tied], y[tied]
    border = np.where(xt * ch - yt * sh >= 0.0, np.abs(xt * sh + yt * ch), r[tied])
    m = np.lexsort((ids[tied], border))[0]
    w = tied[m]
    return float(k[w]), float(border[m]), int(ids[w])


# rings 0-3 around the apex cell are a sector scan's first batch.  A pass
# of _gather_around reads runs of at most _PASS_CELLS cells in all (or one
# longer run), which bounds the temporary arrays of the diagnostics
_FIRST_RINGS = 4
_PASS_CELLS = 1 << 14
# navmax walks its lattice in blocks of _NAVMAX_BLOCK apexes (blocks of 128
# to 512 measured faster than whole lattices of 1000 apexes and more)
_NAVMAX_BLOCK = 512
# navmax aims this many evenly spaced directions from every apex
NAVMAX_DIRECTIONS = 64
# an aim's reach widens its sector far past the catch rule's rounding (rad)
_AIM_DELTA = 1e-9


def _sector_scan(ps: PointSet, apex: complex, nu: float, half: float,
                 triangle: bool, extra: complex | None):
    """Best (key, border, id) over indexed points and ``extra`` (id -1, in
    the first batch) in the infinite sector.

    Each batch is scored by one ``_candidate_key`` call; the answer is the
    smallest over all batches read.  The first batch is the block of rings
    0-3 around the apex cell, clipped to the grid, read as one run of
    ``GridIndex.order`` per grid column with the target in the last slot
    and no cone test (extra candidates that fail the inside test cannot
    change the answer).  Each later batch reads rings ``a`` to ``b - 1`` as
    column runs (``_later_batch``), from the first ring that meets the box
    of cells that hold a point; a query that the stop rule ends after the
    first batch sets up no line.  The bounds allow for the inside test's
    slack (a projection on the axis of at least ``r * (cos(half) - EPS)``,
    with ``r`` at most ``far``, the apex's distance to the grid's farthest
    corner), so the scan returns what a pass over every point would:

    - a point of ring ``k`` or beyond has a key of at least
      ``(k-1)*cell*key_factor - EPS*far``; the scan stops before ring ``k``
      once that exceeds the best key by more than rounding;
    - an inside point lies at most ``far * (acos(cos(half) - EPS) - half)``
      (about ``EPS * far / sin(half)``) outside a border line, so the border
      lines of a convex cone are moved out by that plus rounding, and no
      later batch is read when the box lies wholly beyond one of them;
    - once a best key exists, a later batch reads only the cells whose lower
      key bound (smallest corner projection on the axis, or distance to the
      apex) is at most the best key plus rounding.
    """
    idx = ps.index
    rect = idx.rect
    ax, ay = apex.real, apex.imag
    i0, j0 = idx.cell_of(ax, ay)
    # the first batch, clipped to the grid: rows jlo to jhi - 1 of each of
    # its columns, whose flat cells start at ``cols``, are one run of ``order``
    r, ny, starts, order = _FIRST_RINGS - 1, idx.ny, idx.starts, idx.order
    jlo, jhi = max(j0 - r, 0), min(j0 + r, ny - 1) + 1
    cols = range(max(i0 - r, 0) * ny, min(i0 + r, idx.nx - 1) * ny + 1, ny)
    runs = [order[starts[c + jlo]:starts[c + jhi]] for c in cols]
    if extra is not None:
        runs.append((-1,))
    ids = np.concatenate(runs)
    # the gather copies, so the target's slot is overwritten in place; an
    # empty set has no point to gather there
    zs = ps.zs[ids] if len(ps) else np.empty(len(ids), dtype=np.complex128)
    if extra is not None:
        zs[-1] = extra
    d = zs - apex
    best = _candidate_key(d.real, d.imag, nu, half, triangle, ids)
    first, kmax = idx.ring_span(i0, j0)
    a = max(_FIRST_RINGS, first)    # rings between hold no point
    cell = idx.cell
    key_factor = max(math.cos(half) - EPS, 0.0) if triangle else 1.0
    slack = idx.slack               # the bounds and the keys round differently
    # no indexed point is farther than ``far`` from the apex, so no key is
    # more than EPS * far below the bound of its ring
    far = math.hypot(max(ax - rect.x0, rect.x0 + idx.nx * cell - ax),
                     max(ay - rect.y0, rect.y0 + idx.ny * cell - ay))
    low = slack + EPS * far

    def stopped(a):
        # past the box, or the stop rule
        return a > kmax or (best is not None and (a - 1) * cell * key_factor - low > best[0])

    if stopped(a):
        return best
    cone = []
    if half <= 0.5 * math.pi:
        # the moved border lines as half-planes p*x + q*y <= r of offsets
        # from the apex, and the same corner test on the whole box
        out = slack + far * (math.acos(math.cos(half) - EPS) - half)
        cone = [(math.sin(nu - half), -math.cos(nu - half), out),
                (-math.sin(nu + half), math.cos(nu + half), out)]
        bi_lo, bi_hi, bj_lo, bj_hi = idx.box
        x_lo, y_lo = rect.x0 + bi_lo * cell - ax, rect.y0 + bj_lo * cell - ay
        x_hi, y_hi = rect.x0 + bi_hi * cell - ax + cell, rect.y0 + bj_hi * cell - ay + cell
        if any(p * (x_lo if p >= 0.0 else x_hi) + q * (y_lo if q >= 0.0 else y_hi) > r
               for p, q, r in cone):
            return best
    while True:
        b = min(2 * a, kmax + 1)
        lines, radius = cone, None
        if best is not None and triangle:
            lines = cone + [(math.cos(nu), math.sin(nu), best[0] + slack)]
        elif best is not None:
            radius = best[0] + slack
        ids = _later_batch(idx, ax, ay, i0, j0, a, b, lines, radius)
        d = ps.zs[ids] - apex
        cand = _candidate_key(d.real, d.imag, nu, half, triangle, ids)
        if cand is not None and (best is None or cand < best):
            best = cand
        a = b
        if stopped(a):
            return best


def _later_batch(idx: GridIndex, ax: float, ay: float, i0: int, j0: int, a: int, b: int,
                 lines: list, radius: float | None) -> np.ndarray:
    """Ids of the points in the box cells of rings ``a`` to ``b - 1`` around
    ``(i0, j0)`` whose smallest corner (offset from ``(ax, ay)``) lies in
    every half-plane ``p*x + q*y <= r`` of ``lines``, and whose nearest
    point lies within ``radius`` unless it is None.

    The region is convex, so it meets each box column in one interval of
    rows, as a scan line meets a convex polygon: in each column a line keeps
    a ray of rows (all or none when it is parallel to the columns), and the
    disk, cut to its columns by two such lines, keeps a chord.  Less the
    rows of rings below ``a``, an interval is at most two runs of ``order``.
    """
    ilo, ihi, jlo, jhi = idx.box
    ilo, ihi = max(i0 - b + 1, ilo), min(i0 + b - 1, ihi)
    jlo, jhi = max(j0 - b + 1, jlo), min(j0 + b - 1, jhi) + 1     # rows jlo to jhi - 1
    cell = idx.cell
    ii = np.arange(ilo, ihi + 1)
    xs = idx.rect.x0 - ax + ii * cell       # the columns' left edges
    y0 = idx.rect.y0 - ay                   # the grid's lower edge
    lo, hi = np.full(len(ii), float(jlo)), np.full(len(ii), float(jhi))
    if radius is not None:
        # the disk's two sides, then its chord of half-height h per column
        gap = np.maximum(np.maximum(xs, -xs - cell), 0.0)
        h = np.sqrt(np.maximum(radius * radius - gap * gap, 0.0))
        lines = lines + [(1.0, 0.0, radius), (-1.0, 0.0, radius), (0.0, 1.0, h), (0.0, -1.0, h)]
    # a line near the columns' direction puts its rays of rows out to +-inf
    with np.errstate(over="ignore"):
        for p, q, r in lines:
            # cell (i, j)'s smallest corner is in it when q*cell*j <= room[i]
            room = r - q * y0 - (min(p, 0.0) + min(q, 0.0)) * cell - p * xs
            qc = q * cell
            if qc > 0.0:
                hi = np.minimum(hi, np.floor(room / qc + 1.0))
            elif qc < 0.0:
                lo = np.maximum(lo, np.ceil(room / qc))
            else:           # parallel to the columns, up to rounding
                hi = np.where(room >= 0.0, hi, -np.inf)
    lo = np.minimum(lo, jhi).astype(np.int64)
    hi = np.maximum(hi, lo).astype(np.int64)      # an empty interval is [lo, lo)
    # the rows of rings below ``a`` in the columns they cross were read
    inner = np.abs(ii - i0) < a
    end = np.where(inner, np.minimum(hi, max(j0 - a + 1, jlo)), hi)
    start = np.where(inner, np.maximum(lo, min(j0 + a, jhi)), hi)
    return idx.runs(np.concatenate([ii, ii]), np.concatenate([lo, start]),
                    np.concatenate([end, hi]))


def nearest_in_sector(ps: PointSet, apex, direction: float, half_angle: float,
                      shape: str, extra=None):
    """Minimal-key element of the point set (plus optional ``extra`` point)
    inside the infinite sector anchored at ``apex``.

    The key is the distance to the apex for ``shape="disk"`` and the
    projection on the bisector for ``shape="triangle"``; ties break on the
    distance to the first border, then on point id (``extra`` wins last
    resort ties).  Returns ``(point, key, id)`` with ``id = -1`` for the
    extra point, or ``None`` when the sector is empty.  The grid is read in
    batches of column runs, as ``_sector_scan`` describes.

    A point at distance ``r > 0`` from the apex is inside when its
    projection on the bisector is at least ``r * (cos(half_angle) - EPS)``.
    At ``half_angle = pi/2`` the triangle sector (``directed-t`` at
    ``theta = pi``) is the closed half-plane ahead of the border line
    through the apex:

    - a point on that line is inside, with key 0 (up to the rounding of
      the bisector's direction);
    - a point up to ``EPS * r`` behind it is inside too, with a small
      negative key;
    - the apex itself is never a candidate.
    """
    apex = as_point(apex)
    nu = norm_angle(direction)
    triangle = shape == "triangle"
    if shape not in ("disk", "triangle"):
        raise ValueError(f"shape must be 'disk' or 'triangle', got {shape!r}")
    # beyond a half-pi half-angle the projection cap degenerates (the key
    # would be unbounded below); the triangle family stops there
    if triangle and half_angle > 0.5 * math.pi + EPS:
        raise ValueError("triangle queries need half_angle <= pi/2")
    extra = None if extra is None else as_point(extra)
    best = _sector_scan(ps, apex, nu, half_angle, triangle, extra)
    if best is None:
        return None
    key, _, pid = best
    if pid == -1:
        return extra, key, -1
    return complex(ps.zs[pid]), key, pid


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnostics:
    navmax: float
    maxball: int
    r_min: float
    grid_step: float


def navmax(ps: PointSet, theta: float, grid_step: float) -> float:
    """Discretized sup, over apexes on a lattice of the inset domain and over
    ``NAVMAX_DIRECTIONS`` evenly spaced aim directions, of the minimal
    disk-sector radius containing a point.

    A lattice lower bound of the true continuum sup; reported as a
    diagnostic, not a certified bound.  ``theta`` must lie in (0, 2*pi] and
    ``grid_step`` must be finite and > 0.  An aim that catches no point is
    left out; its apex stops at the aim's reach (``_sector_radii``).
    """
    if not 0.0 < theta <= 2.0 * math.pi:
        raise ValueError(f"theta must be in (0, 2*pi], got {theta!r}")
    if not 0.0 < grid_step < math.inf:
        raise ValueError(f"grid_step must be finite and > 0, got {grid_step!r}")
    if len(ps) == 0:
        raise EmptyPointSet("navmax needs a non-empty point set")
    ax, ay, ai, aj = _lattice(ps, grid_step)
    worst = 0.0
    for lo in range(0, len(ax), _NAVMAX_BLOCK):
        blk = slice(lo, lo + _NAVMAX_BLOCK)
        per_dir = _sector_radii(ps, ax[blk], ay[blk], ai[blk], aj[blk],
                                theta / 2.0, NAVMAX_DIRECTIONS)
        finite = per_dir[np.isfinite(per_dir)]
        if len(finite):
            worst = max(worst, float(finite.max()))
    return worst


def _lattice(ps: PointSet, grid_step: float):
    """The diagnostics' lattice of the inset domain, column by column:
    arrays ``(x, y, i, j)`` of its points and their cells."""
    inset = ps.density.domain.inset(ps.density.inset_a)
    xs = np.arange(inset.x0, inset.x1 + 1e-9, grid_step)
    ys = np.arange(inset.y0, inset.y1 + 1e-9, grid_step)
    i, j = ps.index.cells_of(xs, ys)
    return (np.repeat(xs, len(ys)), np.tile(ys, len(xs)),
            np.repeat(i, len(ys)), np.tile(j, len(xs)))


def _gather_around(idx: GridIndex, i0: np.ndarray, j0: np.ndarray, di: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray):
    """Per pass, ``(ids, apex)``: the ids in the runs ``(di, lo, hi)`` (rows
    ``j0[a] + lo`` to ``j0[a] + hi - 1`` of column ``i0[a] + di``) around each
    apex cell ``(i0[a], j0[a])``, clipped to ``idx.box``, each paired with its
    apex's index ``a``.  A pass reads at most ``_PASS_CELLS`` cells before
    clipping: every run, or one run (for one apex if it is longer)."""
    ilo, ihi, jlo, jhi = idx.box
    cells = np.maximum(hi - lo, 1)      # an empty run still costs a lookup
    for g in [slice(None)] if cells.sum() <= _PASS_CELLS else np.arange(len(di))[:, None]:
        per = max(_PASS_CELLS // int(cells[g].sum()), 1)
        for a in range(0, len(i0), per):
            ci = i0[a:a + per, None] + di[g]
            rlo = np.maximum(j0[a:a + per, None] + lo[g], jlo)
            rhi = np.minimum(j0[a:a + per, None] + hi[g], jhi + 1)
            ok = (ci >= ilo) & (ci <= ihi) & (rlo < rhi)
            yield idx.runs(ci[ok], rlo[ok], rhi[ok], np.nonzero(ok)[0] + a)


def _sector_radii(ps: PointSet, ax: np.ndarray, ay: np.ndarray, i0: np.ndarray,
                  j0: np.ndarray, half: float, nbins: int) -> np.ndarray:
    """Per apex ``(ax[a], ay[a])``, in cell ``(i0[a], j0[a])``, and aim bin:
    the distance to the nearest point within ``half`` of the aim (inf where
    the sector is empty).

    The apexes read the square rings of cells around their own cells in
    lockstep: ring ``k`` for every active apex (through ``_gather_around``)
    before ring ``k + 1``.  No point of ring ``k`` or beyond is nearer than
    ``(k - 1) * cell``: an apex retires before ring ``k`` once that is at least
    each aim's radius or, for an empty aim, its reach, and after its last
    ring that meets the box.  The reach is computed once a block, for its
    tail: when an apex has retired and every active one has found a point
    and is held by empty aims alone.  Blocks and passes change no radius.
    """
    idx = ps.index
    bin_w = 2.0 * math.pi / nbins
    width = half / bin_w
    # the aims a point catches run from bin lo % nbins for cnt <= nbins + 1
    # bins (half <= pi); each apex row holds two turns of bins, folded on read
    turns = np.full((len(ax), 2 * nbins), np.inf)
    flat = turns.reshape(-1)
    active = np.arange(len(ax))
    tail = None                       # the apexes whose empty aims have a reach
    ilo, ihi, jlo, jhi = idx.box      # no ring past ``last`` meets the box
    last = np.maximum(np.maximum(i0 - ilo, ihi - i0), np.maximum(j0 - jlo, jhi - j0))
    for k in range(int(last.max()) + 1):
        radii = np.minimum(turns[active, :nbins], turns[active, nbins:])
        if tail is not None:
            radii = np.where(radii < np.inf, radii, reach[np.searchsorted(tail, active)])
        # an empty aim without a reach makes the largest radius inf
        hold, settled = radii.max(axis=1), (k - 1) * idx.cell
        keep = (settled < hold) & (k <= last[active])
        if tail is None and 0 < keep.sum() < len(ax) and (hold[keep] == np.inf).all():
            held = radii[keep]
            if ((held <= settled) | (held == np.inf)).all() and (held < np.inf).any(axis=1).all():
                tail, (row, aim) = active[keep], np.nonzero(held == np.inf)
                reach = np.full(held.shape, -np.inf)
                reach[row, aim] = _aim_reach(idx, ax[tail[row]], ay[tail[row]], aim * bin_w, half)
                keep[keep] = settled < reach.max(axis=1)
        active = active[keep]
        del radii, hold                 # not held through the ring's gather
        if not len(active):
            break
        for ids, owner in _gather_around(idx, i0[active], j0[active], *_ring_runs(k)):
            if not len(ids):
                continue
            owner = active[owner]
            dx = ps.xs[ids] - ax[owner]
            dy = ps.ys[ids] - ay[owner]
            r = np.hypot(dx, dy)
            r[r == 0.0] = np.inf        # a point on its apex is no candidate
            # a point at angle phi is caught by every aim within half
            ctr = np.arctan2(dy, dx) / bin_w
            lo = np.ceil(ctr - width).astype(np.int64)
            cnt = np.floor(ctr + width).astype(np.int64) - lo + 1
            first = owner * (2 * nbins) + lo % nbins
            np.minimum.at(flat, _ranges(first, cnt), np.repeat(r, cnt))
    return np.minimum(turns[:, :nbins], turns[:, nbins:])


def _aim_reach(idx: GridIndex, ax: np.ndarray, ay: np.ndarray, aims: np.ndarray, half: float):
    """Per apex ``(ax[p], ay[p])`` and aim angle ``aims[p]``: a bound on the
    distance of every point of the box that the aim catches, for any ``half``
    in (0, pi]: the farthest vertex (a box corner within ``half + 2 *
    _AIM_DELTA`` of it, or a border ray's exit) of the sector ``aim +- (half +
    _AIM_DELTA)`` cut to the box widened by ``slack``, plus ``slack``."""
    ilo, ihi, jlo, jhi = idx.box
    x0, y0, cell, slack = idx.rect.x0, idx.rect.y0, idx.cell, idx.slack
    xs = np.stack([x0 + ilo * cell - slack - ax, x0 + (ihi + 1) * cell + slack - ax])
    ys = np.stack([y0 + jlo * cell - slack - ay, y0 + (jhi + 1) * cell + slack - ay])
    cx, cy = xs[[0, 1, 0, 1]], ys[[0, 0, 1, 1]]
    off = np.abs(np.remainder(np.arctan2(cy, cx) - aims + math.pi, 2.0 * math.pi) - math.pi)
    far = np.where(off <= half + 2.0 * _AIM_DELTA, np.hypot(cx, cy), 0.0).max(axis=0)
    for phi in (aims - half - _AIM_DELTA, aims + half + _AIM_DELTA):
        # slab test (an exit behind the apex is < 0); a zero step turns 1e-200 rad
        c, s = np.cos(phi), np.sin(phi)
        tx, ty = xs / np.where(c == 0.0, 1e-200, c), ys / np.where(s == 0.0, 1e-200, s)
        t_in = np.maximum(tx.min(axis=0), ty.min(axis=0))
        t_out = np.minimum(tx.max(axis=0), ty.max(axis=0))
        far = np.maximum(far, np.where(t_in <= t_out, t_out, 0.0))
    return far + slack


def _ring_runs(k: int):
    """Runs ``(di, lo, hi)`` of the cells at Chebyshev distance ``k``: two side
    columns whole (ring 0 has one), one cell below and above each between."""
    inner = np.arange(1 - k, k)
    lo = np.repeat([-k, k], [2 * k + 1, len(inner)])
    hi = np.repeat([k + 1, 1 - k, k + 1], [2, len(inner), len(inner)])[:len(lo)]
    return np.concatenate([[-k, k], inner, inner])[:len(lo)], lo, hi


def maxball(ps: PointSet, r: float, grid_step: float) -> int:
    """Max number of points in an open ball of radius ``r`` centered on a
    lattice of the inset domain; ``r`` and ``grid_step`` must be finite and
    > 0."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"r must be finite and > 0, got {r!r}")
    if not 0.0 < grid_step < math.inf:
        raise ValueError(f"grid_step must be finite and > 0, got {grid_step!r}")
    if len(ps) == 0:
        return 0
    idx = ps.index
    cx, cy, ci, cj = _lattice(ps, grid_step)
    # the cells that can meet a ball centred in cell (0, 0): rings out to a
    # one-cell margin, less those whose axis gaps of |d| - 1 cells already reach
    # r by more than rounding (a point or a centre within an ulp of a border may
    # sit in the next cell).  Gaps grow with |d|: column d keeps rows |e| < cnt[|d|]
    m = min(math.ceil(r / idx.cell) + 1, max(idx.nx, idx.ny))
    gap = np.maximum(np.arange(m + 1) - 1, 0) * idx.cell
    cnt, top = np.zeros(m + 1, dtype=np.int64), np.full(m + 1, m + 1)
    while (cnt < top).any():
        mid = (cnt + top) // 2
        ok = np.hypot(gap, gap[np.minimum(mid, m)]) < r * (1.0 + 1e-12) + idx.slack
        cnt, top = np.where(ok & (cnt < top), mid + 1, cnt), np.where(ok, top, mid)
    di = np.arange(1 - np.count_nonzero(cnt), np.count_nonzero(cnt))
    # a centre whose cell is more than m cells from the box gathers nothing
    ilo, ihi, jlo, jhi = idx.box
    near = (ci >= ilo - m) & (ci <= ihi + m) & (cj >= jlo - m) & (cj <= jhi + m)
    cx, cy, ci, cj = cx[near], cy[near], ci[near], cj[near]
    counts = np.zeros(len(cx), dtype=np.int64)
    for ids, c in _gather_around(idx, ci, cj, di, 1 - cnt[np.abs(di)], cnt[np.abs(di)]):
        d2 = (ps.xs[ids] - cx[c]) ** 2 + (ps.ys[ids] - cy[c]) ** 2
        counts += np.bincount(c[d2 < r * r], minlength=len(cx))
    return int(counts.max(initial=0))


def r_min(ps: PointSet) -> float:
    """Exact minimal pairwise distance, via widening grid neighbourhoods.

    Each pair is read once: a point in cell ``(i, j)`` reads the rest of its
    column from its CSR position + 1 up to row ``j + reach``, then rows ``j -
    reach`` to ``j + reach`` of each of the ``reach`` columns to its right.
    A chunk of points reads at most ``max(len(ps), _PASS_CELLS)`` cells a
    column offset."""
    if len(ps) < 2:
        raise TooFewPoints("r_min needs at least two points")
    idx = ps.index
    ilo, ihi, jlo, jhi = idx.box
    # every point, in CSR order, with the cell it sits in
    pts = idx.order
    ci, cj = np.divmod(np.repeat(np.arange(idx.nx * idx.ny), np.diff(idx.starts)), idx.ny)
    reach = 1
    while True:
        best2 = math.inf
        step = max(max(len(pts), _PASS_CELLS) // (2 * reach + 1), 1)
        for a in range(0, len(pts), step):
            own, i, j = pts[a:a + step], ci[a:a + step], cj[a:a + step]
            for di in range(reach + 1):
                if di == 0:
                    q = np.arange(a + 1, a + 1 + len(own))
                    cnt = idx.starts[i * idx.ny + np.minimum(j + reach, jhi) + 1] - q
                    ids, o = pts[_ranges(q, cnt)], np.repeat(own, cnt)
                else:
                    ok = i + di <= ihi
                    ids, o = idx.runs(i[ok] + di, np.maximum(j[ok] - reach, jlo),
                                      np.minimum(j[ok] + reach, jhi) + 1, own[ok])
                dx = ps.xs[o] - ps.xs[ids]
                dy = ps.ys[o] - ps.ys[ids]
                best2 = min(best2, float((dx * dx + dy * dy).min(initial=math.inf)))
        best = math.sqrt(best2)
        if best <= reach * idx.cell or reach >= max(idx.nx, idx.ny):
            return best
        reach = 2 * reach if math.isinf(best) else max(reach + 1, math.ceil(best / idx.cell))


def diagnose(ps: PointSet, theta: float, grid_step: float, r: float) -> Diagnostics:
    return Diagnostics(navmax=navmax(ps, theta, grid_step),
                       maxball=maxball(ps, r, grid_step),
                       r_min=r_min(ps), grid_step=grid_step)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_points(ps: PointSet, path) -> None:
    d = ps.density
    with open(path, "w") as fh:
        fh.write(f"# model={ps.model[0]} n={ps.model[1]!r} seed={ps.seed}\n")
        fh.write(f"# domain={d.domain.x0!r},{d.domain.y0!r},{d.domain.x1!r},{d.domain.y1!r}"
                 f" inset_a={d.inset_a!r}\n")
        fh.write(f"# density={d.kind}:{','.join(repr(p) for p in d.params)}\n")
        fh.write("x,y\n")
        for x, y in ps.points:
            fh.write(f"{float(x)!r},{float(y)!r}\n")


def load_points(path) -> PointSet:
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        meta[k] = v
            elif line != "x,y":
                x, y = line.split(",")
                rows.append((float(x), float(y)))
    try:
        kind, params = meta["density"].split(":")
        dens = DensitySpec(kind, tuple(float(p) for p in params.split(",")),
                           Rect(*(float(v) for v in meta["domain"].split(","))),
                           float(meta["inset_a"]))
        n, seed, model = float(meta["n"]), int(meta["seed"]), meta["model"]
    except KeyError as exc:
        raise ConfigError(f"{path}: header has no {exc} field") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad header: {exc}") from exc
    model = ("ppp", n) if model == "ppp" else ("iid", int(n))
    return PointSet(np.array(rows, dtype=float).reshape(-1, 2), dens, seed, model)


