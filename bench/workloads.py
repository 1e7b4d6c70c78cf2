"""The three benchmark workloads: ``sweep``, ``navigate`` and ``diagnose``.

A workload builds the state it reuses in ``setup`` (timed, repeated), then
hands out rounds of operations.  Every round holds the same operations in
the same order, so a run attempts whole rounds.  An operation is one call
into the library (``fn``, timed), the number of items it completed, and a
check of its output against ``oracles`` (not timed).

Library functions are looked up on their modules at call time, so a traced
run sees the calls the benchmark makes itself.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import geonav.harness as harness
import geonav.limits as limits
import geonav.navigation as navigation
import geonav.points as points
from geonav import DensitySpec, ExperimentConfig, NavSpec

import oracles

INSET = 0.05


@dataclass
class Op:
    name: str
    fn: Callable[[], Any]
    items: Callable[[Any], int]
    check: Callable[[Any], None]


class Workload:
    """Hooks that a workload may leave as they are."""

    def final_check(self) -> None:
        """Checks made once, after the timed phase."""

    def close(self) -> None:
        """Release what set-up made."""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _in_inset(z: complex, margin: float = 0.0) -> bool:
    lo, hi = INSET + margin, 1.0 - INSET - margin
    return lo <= z.real <= hi and lo <= z.imag <= hi


def draw_pair(rng, length: float, p_theta=None, margin: float = 0.01):
    """A start/target pair at a fixed distance, uniform position and
    direction, whose limit path (the segment, or the two legs through the
    corner for cross kinds) stays ``margin`` inside the inset."""
    while True:
        s = complex(*rng.uniform(INSET + margin, 1.0 - INSET - margin, 2))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        t = s + length * complex(math.cos(phi), math.sin(phi))
        if not _in_inset(t, margin):
            continue
        if p_theta is None or _in_inset(oracles.cross_corner(s, t, p_theta), margin):
            return s, t


class Sweep(Workload):
    """One op is one ``run_experiment`` call on a fixed small config, the
    ``straight-t`` and the ``t`` config in turn.  The seed sets the master
    seed of each config, hence its point set.  The Euler step and the navmax
    lattice step are the library's defaults; n = 4e3 and pairs about 0.33
    long keep an op near 0.4 s, so a run holds 100 ops."""

    name = "sweep"
    density_params = (1.0, 1.0, 0.5)           # f = 1 + x + y/2 on the unit square
    exponents = (0.0, 1.0, 2.0)
    # (kind, theta, p_theta, explicit pairs); every limit path stays well
    # inside the inset, so no pair sits on the admissibility edge
    navs = (("straight-t", math.pi / 2.0, None, ((0.24 + 0.3j, 0.51 + 0.45j),
                                                 (0.77 + 0.37j, 0.53 + 0.58j))),
            ("t", None, 6, ((0.3 + 0.36j, 0.6 + 0.54j), (0.71 + 0.27j, 0.44 + 0.48j))))

    def __init__(self, seed: int, out_dir: str, n: float = 4e3, euler_h: float | None = None,
                 navmax_step: float | None = None):
        self.seed = seed
        self.out_dir = out_dir
        self.n = n
        self.euler_h = euler_h
        self.navmax_step = navmax_step
        self.first_csv: dict[str, bytes] = {}
        self.tmp = None

    def setup(self) -> None:
        rng = _rng(self.seed, 0)
        density = DensitySpec.affine(*self.density_params)
        if self.tmp is None:
            self.tmp = tempfile.mkdtemp(prefix="sweep-", dir=self.out_dir)
        self.configs = []
        for kind, theta, p_theta, pairs in self.navs:
            nav = NavSpec(kind=kind, theta=theta, p_theta=p_theta)
            self.configs.append(ExperimentConfig(
                density=density, nav=nav, n_values=(self.n,), seeds_per_n=1,
                pairs=pairs, exponents=self.exponents,
                master_seed=int(rng.integers(2**31)), euler_h=self.euler_h,
                navmax_grid_step=self.navmax_step,
                csv_path=os.path.join(self.tmp, f"{kind}.csv")))

    def round(self, r: int) -> list:
        return [Op(cfg.nav.kind.value, lambda cfg=cfg: harness.run_experiment(cfg, workers=1),
                   len, lambda rows, cfg=cfg: self._check(cfg, rows))
                for cfg in self.configs]

    def _check(self, cfg: ExperimentConfig, rows) -> None:
        nav = cfg.nav
        oracles.check_sweep_rows(rows, len(cfg.n_values) * cfg.seeds_per_n, cfg.pairs,
                                 nav.kind.value, nav.theta, nav.p_theta, self.density_params,
                                 cfg.euler_h or limits.default_step(cfg.density))
        with open(cfg.csv_path, "rb") as fh:
            data = fh.read()
        first = self.first_csv.setdefault(nav.kind.value, data)
        if data != first:
            raise oracles.Mismatch(f"{nav.kind.value}: CSV bytes differ between two "
                                   "runs of the same config")

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)


class Navigate(Workload):
    """One op is one run on a constant-density point set sampled in set-up:
    the six targeted kinds and two directed kinds at each size, then a few
    one-hop half-plane runs (``directed-t`` at theta = pi)."""

    name = "navigate"
    targeted = (("yao", None, 8), ("t", None, 6), ("straight-yao", math.pi / 3.0, None),
                ("straight-t", math.pi / 2.0, None), ("random-north-y", None, 8),
                ("random-north-t", None, 6))
    directed = (("directed-y", math.pi / 2.0), ("directed-t", math.pi / 2.0))
    pair_length = 0.5
    # directed runs start in the centre square and stop after about this
    # distance (mean advance per hop is about 0.89/sqrt(n) for both kinds),
    # so they end on their hop budget, well inside the inset
    directed_reach = 0.28
    # Op times fall in groups: every run at 1e5 (16-55 ms), the directed runs
    # at 1e6 (about 60 ms), the targeted runs at 1e6 (80-200 ms) and the
    # half-plane hops (about 280 ms).  A percentile on the edge between two
    # groups jumps between them from run to run, and the targeted 1e6 group
    # overlaps the others at its low end.  So the counts put op_ms_p50 40% of
    # the way into the targeted 1e6 group (three pairs per kind there) and
    # op_ms_p90 in the middle of the half-plane group: a round of 34 ops.
    targeted_pairs = (1, 3)        # pairs per targeted kind, for each size
    # A half-plane hop reads every point on its side; from the centre that is
    # half the set.  Its cost moves by +-20% with the start and the direction
    # (how the border cuts the grid), so both are fixed.
    halfplane_ops = 6
    halfplane_alpha = 0.25 * math.pi
    halfplane_budget = 1

    def __init__(self, seed: int, out_dir: str, sizes=(1e5, 1e6), halfplane_n: float = 1e5):
        self.seed = seed
        self.sizes = sizes
        self.halfplane_n = halfplane_n
        self.rng = _rng(seed, 0)
        self.check_rng = _rng(seed, 1)
        self.norths: dict[float, np.ndarray] = {}

    def setup(self) -> None:
        self.sets = None           # drop the previous build before sampling again
        density = DensitySpec.constant(1.0)
        seeds = np.random.SeedSequence([self.seed, 2]).generate_state(len(self.sizes))
        self.sets = {n: points.sample_ppp(density, n, int(sd))
                     for n, sd in zip(self.sizes, seeds)}

    def round(self, r: int) -> list:
        ops = []
        for n, pairs in zip(self.sizes, self.targeted_pairs):
            ps = self.sets[n]
            for kind, theta, p_theta in self.targeted * pairs:
                spec = NavSpec(kind=kind, theta=theta, p_theta=p_theta)
                s, t = draw_pair(self.rng, self.pair_length, p_theta)
                ops.append(Op(f"{kind}@{n:g}",
                              lambda spec=spec, s=s, t=t, ps=ps: navigation.run(spec, s, t, ps),
                              _hops, lambda rec, spec=spec, s=s, t=t, ps=ps:
                              self._check_targeted(spec, s, t, ps, rec)))
            budget = max(1, round(self.directed_reach * math.sqrt(n) / 0.89))
            for kind, theta in self.directed:
                ops.append(self._directed_op(kind, theta, ps, budget))
        for _ in range(self.halfplane_ops):
            ops.append(self._directed_op("directed-t", math.pi, self.sets[self.halfplane_n],
                                         self.halfplane_budget, self.halfplane_alpha, 0.5 + 0.5j))
        return ops

    def _directed_op(self, kind, theta, ps, budget, alpha=None, s=None) -> Op:
        # starts in the centre square, so a run never reaches the inset edge
        if alpha is None:
            alpha = float(self.rng.uniform(0.0, 2.0 * math.pi))
        if s is None:
            s = complex(*self.rng.uniform(0.45, 0.55, 2))
        spec = NavSpec(kind=kind, theta=theta, alpha=alpha)
        return Op(f"{kind}@{theta:.4g}@{ps.n:g}",
                  lambda: navigation.run_directed(spec, s, ps, stop_after=budget),
                  _hops, lambda rec: self._check_directed(spec, s, ps, budget, rec))

    def _sample_hop(self, rec) -> int:
        return int(self.check_rng.integers(rec.nb))

    def _check_targeted(self, spec, s, t, ps, rec) -> None:
        oracles.check_targeted(rec, s, t)
        norths = None
        if spec.kind.value.startswith("random-north"):
            if ps.n not in self.norths:
                self.norths[ps.n] = oracles.north_offsets(spec.north_seed, len(ps))
            norths = self.norths[ps.n]
        oracles.check_hop(ps.xs, ps.ys, spec.kind.value, spec.theta, spec.p_theta, rec,
                          self._sample_hop(rec), target=t, norths=norths)

    def _check_directed(self, spec, s, ps, budget, rec) -> None:
        oracles.check_directed(rec, s, spec.alpha, budget, ps.density.domain.inset(INSET))
        oracles.check_hop(ps.xs, ps.ys, spec.kind.value, spec.theta, None, rec,
                          self._sample_hop(rec), alpha=spec.alpha)


def _hops(rec) -> int:
    return rec.nb


class Diagnose(Workload):
    """One op samples a fresh radial-bump point set and runs ``navmax``,
    ``maxball`` and ``r_min`` on it, as ``geonav sample`` then ``geonav
    diagnose`` do.  The lattice step is 0.05, not the CLI's 0.02: at 0.02 an
    op takes about 1.15 s (navmax 85% of it), too long for 100 ops a run."""

    name = "diagnose"
    theta = math.pi / 3.0
    grid_step = 0.05
    ball_r = 0.05

    def __init__(self, seed: int, out_dir: str, n: float = 1e4, navmax_check_n: float = 300.0,
                 navmax_check_step: float = 0.1):
        self.seed = seed
        self.n = n
        self.navmax_check_n = navmax_check_n
        self.navmax_check_step = navmax_check_step

    def setup(self) -> None:
        # a bump of height 1.5 over a floor of 0.5: int f = 0.5 + 1.5*pi*0.3^2/3
        self.density = DensitySpec.radial_bump((0.5, 0.5), 0.5, 1.5, 0.3)
        self.inset = self.density.domain.inset(self.density.inset_a)

    def _op_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, 3, i]).generate_state(1)[0])

    def round(self, r: int) -> list:
        seed = self._op_seed(r)

        def op():
            ps = points.sample_ppp(self.density, self.n, seed)
            return (ps, points.navmax(ps, self.theta, self.grid_step),
                    points.maxball(ps, self.ball_r, self.grid_step), points.r_min(ps))

        return [Op("diagnose", op, lambda out: len(out[0]), self._check)]

    def _check(self, out) -> None:
        ps, nm, mb, rm = out
        pts = np.asarray(ps.points)
        oracles.check_sample(pts, self.n, self.density.integral, self.density.domain)
        oracles.check_r_min(pts, rm)
        oracles.check_maxball(pts, mb, self.ball_r, self.grid_step, self.inset)
        if not 0.0 < nm < math.inf:
            raise oracles.Mismatch(f"navmax {nm} is not a positive radius")

    def final_check(self) -> None:
        """navmax against the brute force on a small set of the same density
        (the brute force reads every point for every apex and aim)."""
        seed = int(np.random.SeedSequence([self.seed, 4]).generate_state(1)[0])
        ps = points.sample_ppp(self.density, self.navmax_check_n, seed)
        got = points.navmax(ps, self.theta, self.navmax_check_step)
        oracles.check_navmax(np.asarray(ps.points), got, self.theta,
                             self.navmax_check_step, self.inset)


WORKLOADS = {w.name: w for w in (Sweep, Navigate, Diagnose)}
