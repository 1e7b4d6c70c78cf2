"""Output checks for the benchmark workloads, written apart from geonav.

Each check recomputes what the program claims by another route: a
brute-force scan of every point for a hop, closed-form integrals for the
limit predictions, ``scipy.spatial.cKDTree`` for pair distances and ball
counts, and properties a correct run must have.  None of them compares
against stored output.  A failed check raises ``Mismatch``.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
# sector-boundary tolerance of the navigation rule (borders belong to the sector)
BORDER_EPS = 1e-12
CHUNK = 1 << 16


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def _require(ok, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# navigation
# ---------------------------------------------------------------------------

def brute_next(xs, ys, apex: complex, nu: float, half: float, triangle: bool,
               extra: complex | None = None):
    """Minimal (key, first-border distance, id) over every point inside the
    infinite sector at ``apex`` with bisector ``nu``; ``extra`` takes part
    with id -1.  Returns ``(id, point)`` or ``None`` for an empty sector."""
    def frame(dx, dy):
        u = dx * math.cos(nu) + dy * math.sin(nu)        # along the bisector
        v = -dx * math.sin(nu) + dy * math.cos(nu)
        r = np.hypot(u, v)
        inside = (r > 0.0) & (u >= r * (math.cos(half) - BORDER_EPS))
        return inside, (u if triangle else r), u, v, r

    def border(u, v, r):
        # distance to the first border: the half-line at angle -half here
        along = u * math.cos(half) - v * math.sin(half)
        return np.where(along >= 0.0, np.abs(u * math.sin(half) + v * math.cos(half)), r)

    xs = np.asarray(xs)
    ys = np.asarray(ys)
    best = None
    # in chunks, so the check's temporaries stay far below the program's
    # own memory peak (which the benchmark reports)
    for lo in range(0, len(xs), CHUNK):
        inside, key, u, v, r = frame(xs[lo:lo + CHUNK] - apex.real, ys[lo:lo + CHUNK] - apex.imag)
        ids = np.flatnonzero(inside)
        if len(ids):
            # exact ties on the key are settled on the tied points only
            ids = ids[key[ids] == key[ids].min()]
            cand = min(zip(key[ids].tolist(), border(u[ids], v[ids], r[ids]).tolist(),
                           (ids + lo).tolist()))
            best = cand if best is None else min(best, cand)
    if extra is not None:
        e_in, e_key, u, v, r = frame(np.array([extra.real - apex.real]),
                                     np.array([extra.imag - apex.imag]))
        cand = (float(e_key[0]), float(border(u, v, r)[0]), -1)
        if e_in[0] and (best is None or cand < best):
            best = cand
    if best is None:
        return None
    pid = best[2]
    return pid, (complex(xs[pid], ys[pid]) if pid >= 0 else extra)


def _cross_axis(ang: float, theta: float, p: int) -> int:
    """Index of the fixed sector (bisectors k*theta) that contains ``ang``."""
    return int(math.floor(ang / theta + 0.5)) % p


def aim(kind: str, theta: float, p_theta, pos: complex, pos_id: int,
        target, alpha: float, norths) -> float:
    """Bisector of the decision domain at ``pos`` for each navigation kind."""
    if kind.startswith("directed"):
        return alpha
    d = target - pos
    phase = math.atan2(d.imag, d.real)
    if kind.startswith("straight"):
        return phase
    offset = 0.0
    if kind.startswith("random-north"):
        offset = float(norths[pos_id])         # pos_id -1 is the start's own draw
    k = _cross_axis((phase - offset) % TWO_PI, theta, p_theta)
    return offset + k * theta


def north_offsets(north_seed: int, n_points: int) -> np.ndarray:
    """Per-point axis offsets of the random-north kinds: one uniform angle per
    point, then one for a start that is not a stored point."""
    return np.random.default_rng(north_seed).uniform(0.0, TWO_PI, n_points + 1)


def check_hop(xs, ys, kind: str, theta: float, p_theta, record, k: int,
              target=None, alpha: float = 0.0, norths=None) -> None:
    """Hop ``k`` of ``record`` is the point the brute-force scan picks."""
    pos = complex(*record.stops[k])
    pos_id = record.stop_ids[k]
    if pos_id >= 0:
        _require(complex(xs[pos_id], ys[pos_id]) == pos, f"stop {k} is not point {pos_id}")
    nu = aim(kind, theta, p_theta, pos, pos_id, target, alpha, norths)
    triangle = not (kind in ("yao", "straight-yao", "directed-y", "random-north-y"))
    got = brute_next(xs, ys, pos, nu, theta / 2.0, triangle, target)
    _require(got is not None, f"hop {k}: brute force finds an empty sector")
    pid, point = got
    _require(record.stop_ids[k + 1] == pid and complex(*record.stops[k + 1]) == point,
             f"hop {k}: program went to id {record.stop_ids[k + 1]}, brute force to {pid}")


def check_targeted(record, s: complex, t: complex) -> None:
    """The run starts at s, reaches t and gets strictly closer at every hop."""
    stops = record.stops
    _require(record.success and record.exit_reason == "reached", "targeted run failed")
    _require(complex(*stops[0]) == s and complex(*stops[-1]) == t, "run does not join s to t")
    dist = np.hypot(stops[:, 0] - t.real, stops[:, 1] - t.imag)
    _require(bool((np.diff(dist) < 0.0).all()), "run does not approach t monotonically")


def check_directed(record, s: complex, alpha: float, budget: int, inset) -> None:
    """Every hop advances along alpha; the run ends on its budget or on
    leaving the inset domain."""
    stops = record.stops
    _require(complex(*stops[0]) == s, "directed run does not start at s")
    step = np.diff(stops, axis=0)
    advance = step[:, 0] * math.cos(alpha) + step[:, 1] * math.sin(alpha)
    _require(record.nb >= 1 and bool((advance > 0.0).all()), "a directed hop does not advance")
    x, y = stops[-1]
    left = not (inset.x0 <= x <= inset.x1 and inset.y0 <= y <= inset.y1)
    _require((record.exit_reason == "step-limit" and record.nb == budget)
             or (record.exit_reason == "left-inset" and left),
             f"directed run ended with {record.exit_reason} after {record.nb} hops")


# ---------------------------------------------------------------------------
# limit predictions on an affine density
# ---------------------------------------------------------------------------

def t_family_constants(theta: float) -> dict:
    """Projection-capped hop law at unit intensity (advance x with
    P(x > r) = exp(-r^2 tan b), offset uniform within +-x tan b, b = theta/2):
    bisector and border speeds, length-to-progress ratios, E|hop|^2."""
    b = theta / 2.0
    tb = math.tan(b)
    c_bis = 0.5 * math.sqrt(math.pi / tb)
    return {
        "c_bis": c_bis,
        "q_bis": 0.5 * (1.0 / math.cos(b) + math.asinh(tb) / tb),
        "c_bor": math.sqrt(math.pi * math.cos(b) ** 3 / (4.0 * math.sin(b))),
        "q_bor": 0.5 * (1.0 / math.cos(b) ** 2 + math.asinh(tb) / math.sin(b)),
        "m2": (1.0 + tb * tb / 3.0) / tb,
    }


def cross_corner(s: complex, t: complex, p_theta: int) -> complex:
    """Corner of the two-leg limit path: along the bisector of s's sector
    holding t, up to the border-parallel line through t nearer to s."""
    theta = TWO_PI / p_theta
    d = t - s
    k = _cross_axis(math.atan2(d.imag, d.real) % TWO_PI, theta, p_theta)
    e = complex(math.cos(k * theta), math.sin(k * theta))
    z = d / e
    return s + (z.real - abs(z.imag) / math.tan(theta / 2.0)) * e


def _affine(params, z: complex) -> float:
    a, b, c = params
    return a + b * z.real + c * z.imag


def leg_integrals(params, a: complex, b: complex, lam: float, q2: float, h: float) -> dict:
    """Flow time and g=2 cost of a straight leg at speed ``lam/sqrt(f)`` over
    the affine density, in closed form, with the explicit-Euler error bounds
    for time step ``h``.

    Along the leg f is linear in arc length u, so with F = sqrt(f):
    time = (1/lam) int F du and cost = (q2/lam) int du/F.  Euler is a left
    Riemann sum in u with pieces of at most h*lam/F_min, which bounds its
    error by (L/2) * piece * max|d integrand/du|.
    """
    length = abs(b - a)
    fa, fb = _affine(params, a), _affine(params, b)
    sa, sb = math.sqrt(fa), math.sqrt(fb)
    slope = abs(fb - fa) / length if length else 0.0
    fmin = min(fa, fb)
    piece = h * lam / math.sqrt(fmin)
    return {
        "time": length * (fa + sa * sb + fb) / (sa + sb) * (2.0 / 3.0) / lam,
        "time_err": 0.5 * length * piece * slope / (2.0 * lam * math.sqrt(fmin)),
        "cost2": q2 / lam * 2.0 * length / (sa + sb),
        "cost2_err": 0.5 * length * piece * q2 * slope / (2.0 * lam * fmin ** 1.5),
    }


def expected_prediction(kind: str, theta: float, p_theta, params, s: complex,
                        t: complex, h: float) -> dict:
    """Closed-form length, flow time (nb/sqrt(n)) and g=2 cost of one pair,
    for ``straight-t`` (one leg) and ``t`` (bisector leg, then border leg)."""
    k = t_family_constants(theta)
    if kind == "straight-t":
        legs = [(s, t, k["c_bis"], k["q_bis"])]
    elif kind == "t":
        i = cross_corner(s, t, p_theta)
        legs = [(s, i, k["c_bis"], k["q_bis"]), (i, t, k["c_bor"], k["q_bor"])]
    else:
        raise ValueError(f"no closed form for {kind}")
    out = {"length": 0.0, "time": 0.0, "time_err": 0.0, "cost2": 0.0, "cost2_err": 0.0}
    for a, b, lam, q in legs:
        out["length"] += q * abs(b - a)
        for key, v in leg_integrals(params, a, b, lam, k["m2"], h).items():
            out[key] += v
    return out


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol + 1e-12 * abs(want)


def check_sweep_rows(rows, n_cells: int, pairs, kind: str, theta: float, p_theta,
                     params, h: float) -> None:
    """A sweep's rows against the run properties and the closed forms."""
    _require(len(rows) == n_cells * len(pairs),
             f"{len(rows)} rows for {n_cells} cells x {len(pairs)} pairs")
    for j, row in enumerate(rows):
        s, t = pairs[j % len(pairs)]
        _require(row.s == s and row.t == t, f"row {j} is not pair {j % len(pairs)}")
        _require(row.success and row.monotone, f"row {j}: run failed or is not monotone")
        sqrt_n = math.sqrt(row.n)
        _require(_close(row.cost_values[0.0], row.nb / sqrt_n, 0.0),
                 f"row {j}: scaled g=0 cost is not nb/sqrt(n)")
        _require(_close(row.cost_values[1.0], row.length, 0.0),
                 f"row {j}: scaled g=1 cost is not the path length")
        want = expected_prediction(kind, theta, p_theta, params, s, t, h)
        time_tol = 2.0 * want["time_err"]
        _require(_close(row.pred_length, want["length"], 0.0),
                 f"row {j}: predicted length {row.pred_length} != {want['length']}")
        _require(_close(row.pred_nb / sqrt_n, want["time"], time_tol),
                 f"row {j}: predicted nb/sqrt(n) {row.pred_nb / sqrt_n} != {want['time']}")
        _require(_close(row.pred_costs[0.0], want["time"], time_tol),
                 f"row {j}: predicted g=0 cost {row.pred_costs[0.0]} != {want['time']}")
        _require(_close(row.pred_costs[1.0], want["length"], 1e-9 * want["length"]),
                 f"row {j}: predicted g=1 cost {row.pred_costs[1.0]} != {want['length']}")
        _require(_close(row.pred_costs[2.0], want["cost2"], 2.0 * want["cost2_err"]),
                 f"row {j}: predicted g=2 cost {row.pred_costs[2.0]} != {want['cost2']}")


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def check_sample(points: np.ndarray, n: float, integral: float, rect) -> None:
    """Poisson count within 5 sigma of n * int f; distinct points in the domain."""
    mean = n * integral
    _require(abs(len(points) - mean) <= 5.0 * math.sqrt(mean),
             f"{len(points)} points, Poisson mean {mean:.1f}")
    x, y = points[:, 0], points[:, 1]
    _require(bool(((x >= rect.x0) & (x <= rect.x1) & (y >= rect.y0) & (y <= rect.y1)).all()),
             "a point lies outside the domain")
    order = np.lexsort((y, x))
    same = (np.diff(x[order]) == 0.0) & (np.diff(y[order]) == 0.0)
    _require(not same.any(), "two points coincide")


def lattice(lo: float, hi: float, step: float) -> np.ndarray:
    return np.arange(lo, hi + 1e-9, step)


def check_r_min(points: np.ndarray, got: float) -> None:
    from scipy.spatial import cKDTree
    dist, _ = cKDTree(points).query(points, k=2)
    want = float(dist[:, 1].min())
    _require(abs(got - want) <= 1e-12 * want, f"r_min {got!r} != cKDTree {want!r}")


def check_maxball(points: np.ndarray, got: int, r: float, step: float, inset) -> None:
    from scipy.spatial import cKDTree
    cx, cy = np.meshgrid(lattice(inset.x0, inset.x1, step), lattice(inset.y0, inset.y1, step))
    centres = np.column_stack([cx.ravel(), cy.ravel()])
    tree = cKDTree(points)
    best = 0
    for c, near in zip(centres, tree.query_ball_point(centres, r)):
        # the ball is open: drop points at distance exactly r
        d2 = ((points[near] - c) ** 2).sum(axis=1)
        best = max(best, int((d2 < r * r).sum()))
    _require(got == best, f"maxball {got} != cKDTree count {best}")


def brute_navmax(points: np.ndarray, theta: float, step: float, inset,
                 directions: int = 64) -> float:
    """Max over lattice apexes and evenly spaced aims of the nearest point
    within theta/2 of the aim (aims with no such point are skipped)."""
    worst = 0.0
    aims = np.arange(directions) * (TWO_PI / directions)
    for ax in lattice(inset.x0, inset.x1, step):
        for ay in lattice(inset.y0, inset.y1, step):
            dx = points[:, 0] - ax
            dy = points[:, 1] - ay
            r = np.hypot(dx, dy)
            phi = np.arctan2(dy, dx)
            off = np.abs((phi[None, :] - aims[:, None] + math.pi) % TWO_PI - math.pi)
            caught = (off <= theta / 2.0) & (r[None, :] > 0.0)
            near = np.where(caught, r[None, :], np.inf).min(axis=1)
            near = near[np.isfinite(near)]
            if len(near):
                worst = max(worst, float(near.max()))
    return worst


def check_navmax(points: np.ndarray, got: float, theta: float, step: float, inset) -> None:
    want = brute_navmax(points, theta, step, inset)
    _require(abs(got - want) <= 1e-12 * want, f"navmax {got!r} != brute force {want!r}")
