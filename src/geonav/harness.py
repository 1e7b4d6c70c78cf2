"""Configuration-driven convergence experiments.

An experiment sweeps point-set sizes and seeds, runs one navigation over a
set of start/target pairs, attaches the limit predictions to every run, and
emits CSV rows, a JSON summary, and optional SVG scenes.  Identical config
and master seed give byte-identical outputs; per-cell RNG streams are derived
with spawn keys so cells can execute in any order or in parallel.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .density import DensitySpec
from .errors import ConfigError, EmptyInput, NoValidPairs, StepOutOfDomain, config_errors
from .geometry import as_point, hausdorff_distance, whole_number
# bench/tracing.py wraps harness.predict_cost by name, so the import stays
from .limits import (_check_leg, _legs, check_theta, default_step, hop_moment, limit_path,
                     limit_path_in_inset, predict_cost, predict_cross, predict_straight)
from .navigation import CROSS_KINDS, DIRECTED_KINDS, NavSpec, costs, run
from .points import navmax, sample_ppp

__all__ = [
    "ExperimentConfig", "ResultRow", "generate_pairs", "run_experiment",
    "summarize", "render_svg", "CSV_COLUMNS",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep's inputs.  Every rule is checked here, before any sampling,
    and every default is the field's own: ``from_dict`` only converts."""

    density: DensitySpec
    nav: NavSpec
    n_values: tuple
    seeds_per_n: int
    pairs: tuple | None = None           # explicit ((s, t), ...) as complex
    grid_step: float | None = None       # lattice pair source
    max_pairs: int = 16
    exponents: tuple = (0.0, 1.0)
    master_seed: int = 0
    euler_h: float | None = None
    hausdorff_resolution: float = 1e-3
    navmax_grid_step: float | None = None
    csv_path: str | None = None
    json_path: str | None = None
    svg_path: str | None = None

    def __post_init__(self):
        for name in ("euler_h", "hausdorff_resolution", "navmax_grid_step", "grid_step"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        object.__setattr__(self, "n_values", tuple(self.n_values))
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if not all(math.isfinite(n) and n > 0.0 for n in self.n_values):
            raise ConfigError(f"n_values must be finite and > 0, got {self.n_values!r}")
        with config_errors():
            for name, minimum in (("seeds_per_n", 0), ("max_pairs", 1), ("master_seed", 0)):
                object.__setattr__(self, name, whole_number(name, getattr(self, name), minimum))
        # max_pairs is not refused beside explicit pairs: its default 16
        # cannot be told apart from an explicit 16
        if (self.pairs is None) == (self.grid_step is None):
            raise ConfigError("a config needs one pair source: explicit pairs or a grid_step")
        if self.pairs is not None:
            with config_errors("pairs: "):
                object.__setattr__(self, "pairs", tuple((as_point(s), as_point(t))
                                                        for s, t in self.pairs))
        if self.json_path or self.svg_path:
            self.check_cells()
        if self.nav.kind in DIRECTED_KINDS:
            raise ConfigError("nav: a sweep needs a targeted kind; directed kinds have no target")
        with config_errors("nav: "):
            check_theta(self.nav.kind, self.nav.theta)
        # every cost rate must be a finite float: g finite and >= 0, not Gamma(201)
        with config_errors("exponents: "):
            for g in self.exponents:
                hop_moment(self.nav.kind, self.nav.theta, g)

    def check_cells(self) -> None:
        """Refuse a config with no (n, seed) cell: no rows to summarize or draw."""
        if not (self.n_values and self.seeds_per_n):
            raise ConfigError(f"the config has no cells: n_values {list(self.n_values)!r}, "
                              f"seeds_per_n {self.seeds_per_n!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        with config_errors("bad config value: "):
            _check_keys(obj, cls, "")
            for key, spec in (("density", DensitySpec), ("nav", NavSpec)):
                _check_keys(obj[key], spec, f"{key} ")
            with config_errors("density: "):
                density = DensitySpec.from_dict(obj["density"])
            with config_errors("nav: "):
                nav = NavSpec(**obj["nav"])
            return cls(**dict(obj, density=density, nav=nav))

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _check_keys(obj: dict, spec, where: str) -> None:
    """Refuse an ``obj`` with a key that names no init field of the dataclass
    ``spec`` (a misspelled optional key is not dropped) or without a required one."""
    init = [f for f in fields(spec) if f.init]
    unknown = sorted(set(obj) - {f.name for f in init})
    if unknown:
        raise ConfigError(f"unknown {where}config key {', '.join(map(repr, unknown))}")
    missing = [f.name for f in init if f.default is MISSING and f.name not in obj]
    if missing:
        raise ConfigError(f"config is missing {where}key {missing[0]!r}")


def generate_pairs(config: ExperimentConfig) -> list:
    """Start/target pairs, either the validated explicit list or lattice
    pairs filtered by the inset predicate and truncated in lattice order."""
    dens = config.density
    nav = config.nav

    def admissible(s, t):
        return limit_path_in_inset(dens, nav.kind, nav.p_theta, s, t)

    if config.pairs is not None:
        pairs = [p for p in config.pairs if admissible(*p)]
        if not pairs:
            raise NoValidPairs("pairs: no explicit pair passes the inset filter")
        return pairs
    dom = dens.domain
    a = dens.inset_a
    # accumulated float error must not push border lattice points outside
    xs = np.clip(np.arange(dom.x0 + a, dom.x1 - a + 1e-12, config.grid_step),
                 dom.x0 + a, dom.x1 - a)
    ys = np.clip(np.arange(dom.y0 + a, dom.y1 - a + 1e-12, config.grid_step),
                 dom.y0 + a, dom.y1 - a)
    lattice = [complex(x, y) for x in xs for y in ys]
    out = []
    for s in lattice:
        for t in lattice:
            if s == t:
                continue
            if admissible(s, t):
                out.append((s, t))
                if len(out) >= config.max_pairs:
                    return out
    if not out:
        raise NoValidPairs("grid_step: the inset filter removed every lattice pair")
    return out


# exit_reason and wall_time stay on the in-memory row only: the CSV must be
# byte-identical for identical config and master seed, and keeps its columns
CSV_COLUMNS = ["n", "seed", "s_x", "s_y", "t_x", "t_y", "kind", "theta",
               "success", "monotone", "nb", "length", "pred_nb", "pred_length",
               "hausdorff", "sup_pos_err", "navmax"]


@dataclass
class ResultRow:
    n: float
    seed: int
    s: complex
    t: complex
    kind: str
    theta: float
    success: bool
    exit_reason: str
    monotone: bool
    nb: int
    length: float
    pred_nb: float
    pred_length: float
    cost_values: dict
    pred_costs: dict
    hausdorff: float
    sup_pos_err: float
    navmax: float
    wall_time: float

    def csv_cells(self, exponents) -> list:
        base = [repr(self.n), str(self.seed),
                repr(self.s.real), repr(self.s.imag),
                repr(self.t.real), repr(self.t.imag),
                self.kind, repr(self.theta),
                str(int(self.success)), str(int(self.monotone)),
                str(self.nb), repr(self.length),
                repr(self.pred_nb), repr(self.pred_length),
                repr(self.hausdorff), repr(self.sup_pos_err),
                repr(self.navmax)]
        for g in exponents:
            base.append(repr(self.cost_values[float(g)]))
            base.append(repr(self.pred_costs[float(g)]))
        return base


def _predictions(config: ExperimentConfig, pairs):
    """Per-pair limit predictions; independent of n and seed.

    Raises ConfigError before the first walk when ``euler_h`` is too fine
    for some pair's walks to end within the step budget."""
    nav = config.nav
    dens = config.density
    h = config.euler_h if config.euler_h is not None else default_step(dens)
    for s, t in pairs:
        for a, b, lam, _ in _legs(nav.kind, nav.theta, nav.p_theta, s, t, dens):
            try:
                _check_leg(lam, a, b, dens, h)
            except StepOutOfDomain as exc:
                raise ConfigError(f"euler_h: {exc}") from exc
    exponents = tuple(float(g) for g in config.exponents)
    preds = []
    for s, t in pairs:
        if nav.kind in CROSS_KINDS:
            length, nb, curve = predict_cross(nav.kind, nav.p_theta, s, t, dens,
                                              h=config.euler_h, exponents=exponents)
        else:
            length, nb, curve = predict_straight(nav.kind, nav.theta, s, t, dens,
                                                 h=config.euler_h, exponents=exponents)
        preds.append((length, nb, curve, limit_path(nav.kind, nav.p_theta, s, t),
                      dict(zip(exponents, curve.end_costs))))
    return preds


def _cell_seed(config: ExperimentConfig, n_idx: int, seed_idx: int) -> int:
    """Sampling seed of one (n, seed) cell, from its spawn key alone, so a
    cell draws the same points in any execution order."""
    return int(np.random.SeedSequence(config.master_seed,
                                      spawn_key=(n_idx, seed_idx)).generate_state(1)[0])


def _run_cell(config: ExperimentConfig, n_idx: int, seed_idx: int,
              pairs, preds) -> list:
    """One (n, seed) cell's rows.  The last cell also draws its own point
    set, runs and limit paths to ``config.svg_path``."""
    n = config.n_values[n_idx]
    ps = sample_ppp(config.density, n, _cell_seed(config, n_idx, seed_idx))
    nm_step = config.navmax_grid_step or max(4.0 / math.sqrt(ps.rate), 0.02)
    nm = navmax(ps, config.nav.theta, nm_step) if len(ps) else float("nan")
    rows = []
    recs = []
    sqrt_n = math.sqrt(n)
    for (s, t), (p_len, p_nb, curve, poly, p_costs) in zip(pairs, preds):
        t0 = time.perf_counter()
        rec = run(config.nav, s, t, ps)
        wall = time.perf_counter() - t0
        recs.append(rec)
        cost_vals = {}
        for g, v in zip(config.exponents, costs(rec, config.exponents)):
            # observed costs rescaled to the n-free limit normalization
            cost_vals[float(g)] = v * sqrt_n ** (float(g) - 1.0)
        dh = hausdorff_distance([complex(x, y) for x, y in rec.stops], poly,
                                config.hausdorff_resolution)
        ts = np.arange(len(rec.stops)) / sqrt_n
        sup_err = float(np.hypot(*(rec.stops - curve.position_at(ts)).T).max())
        rows.append(ResultRow(
            n=n, seed=seed_idx, s=s, t=t, kind=config.nav.kind.value,
            theta=config.nav.theta, success=rec.success, exit_reason=rec.exit_reason,
            monotone=rec.monotone_approach() if rec.nb > 0 else True,
            nb=rec.nb, length=rec.length,
            pred_nb=p_nb * sqrt_n, pred_length=p_len,
            cost_values=cost_vals, pred_costs=p_costs,
            hausdorff=dh, sup_pos_err=sup_err, navmax=nm, wall_time=wall))
    if config.svg_path and (n_idx, seed_idx) == (len(config.n_values) - 1,
                                                 config.seeds_per_n - 1):
        render_svg(config.svg_path, ps, recs, [p[3] for p in preds])
    return rows


def run_experiment(config: ExperimentConfig, workers: int = 1):
    """All (n, seed) cells over the generated pairs, rows in deterministic
    (n, seed, pair) order regardless of execution order.

    ``workers`` (a whole number >= 1, else ConfigError) processes run the
    cells; the CSV and JSON are written once every cell is done, and the
    SVG by the last cell's own run (``_run_cell``)."""
    with config_errors():
        workers = whole_number("workers", workers, 1)
    cells = [(i, j) for i in range(len(config.n_values))
             for j in range(config.seeds_per_n)]
    pairs = generate_pairs(config)
    preds = _predictions(config, pairs) if cells else []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_cell,
                                   *zip(*[(config, i, j, pairs, preds)
                                          for i, j in cells])))
    else:
        chunks = [_run_cell(config, i, j, pairs, preds) for i, j in cells]
    rows = [row for chunk in chunks for row in chunk]
    if config.csv_path:
        write_csv(rows, config, config.csv_path)
    if config.json_path:
        with open(config.json_path, "w") as fh:
            json.dump(summarize(rows), fh, indent=2, sort_keys=True)
    return rows


def write_csv(rows, config: ExperimentConfig, path) -> None:
    cols = list(CSV_COLUMNS)
    for g in config.exponents:
        cols.append(f"cost_g{g:g}_scaled")
        cols.append(f"pred_cost_g{g:g}")
    with open(path, "w") as fh:
        fh.write(f"# geonav-results v{SCHEMA_VERSION}\n")
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(row.csv_cells(config.exponents)) + "\n")


def _slope(ns, errs):
    """Least-squares slope of log(err) against log(n); 'exact' when some
    error vanishes."""
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if len(ns) < 2:
        return None
    if (errs <= 0.0).any():
        return "exact"
    x = np.log(ns)
    y = np.log(errs)
    x = x - x.mean()
    return float((x * y).sum() / (x * x).sum())


def summarize(rows) -> dict:
    """Per-n aggregates, with a count of runs per exit reason, plus fitted
    log-log convergence slopes."""
    if not rows:
        raise EmptyInput("no rows to summarize")
    by_n: dict = {}
    for r in rows:
        by_n.setdefault(r.n, []).append(r)
    per_n = []
    for n in sorted(by_n):
        group = by_n[n]
        rel_len = [abs(r.length - r.pred_length) / r.pred_length
                   for r in group if r.pred_length > 0.0]
        rel_nb = [abs(r.nb - r.pred_nb) / r.pred_nb
                  for r in group if r.pred_nb > 0.0]
        monotone_ok = all(r.monotone for r in group if r.success)
        per_n.append({
            "n": n,
            "runs": len(group),
            "successes": sum(r.success for r in group),
            "exit_reasons": dict(sorted(Counter(r.exit_reason for r in group).items())),
            "monotone_ok": monotone_ok,
            "mean_rel_len_err": float(np.mean(rel_len)) if rel_len else 0.0,
            "max_rel_len_err": float(np.max(rel_len)) if rel_len else 0.0,
            "mean_rel_nb_err": float(np.mean(rel_nb)) if rel_nb else 0.0,
            "max_rel_nb_err": float(np.max(rel_nb)) if rel_nb else 0.0,
            "mean_hausdorff": float(np.mean([r.hausdorff for r in group])),
            "mean_sup_pos_err": float(np.mean([r.sup_pos_err for r in group])),
        })
    ns = [g["n"] for g in per_n]
    return {
        "per_n": per_n,
        "slope_hausdorff": _slope(ns, [g["mean_hausdorff"] for g in per_n]),
        "slope_max_len_err": _slope(ns, [g["max_rel_len_err"] for g in per_n]),
        "slope_max_nb_err": _slope(ns, [g["max_rel_nb_err"] for g in per_n]),
    }


# ---------------------------------------------------------------------------
# SVG scenes
# ---------------------------------------------------------------------------

SVG_SIZE = 640      # the scene's width and height in pixels


def render_svg(path, ps, paths=(), limit_polylines=()) -> None:
    """Deterministic SVG scene framed by the point set's domain: the points
    as dots, runs as solid polylines, limit polylines dashed."""
    dom = ps.density.domain
    scale = min(SVG_SIZE / dom.width, SVG_SIZE / dom.height)

    def tx(x, y):
        return ((x - dom.x0) * scale, (dom.y1 - y) * scale)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
           f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
           f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="#ffffff"/>']
    if len(ps):
        dots = []
        r = max(0.6, 1.6 - len(ps) / 40000.0)
        for x, y in ps.points:
            px, py = tx(x, y)
            dots.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r:.2f}"/>')
        out.append('<g fill="#9aa7b0">' + "".join(dots) + "</g>")
    for poly in limit_polylines:
        pts = " ".join(f"{tx(p.real, p.imag)[0]:.3f},{tx(p.real, p.imag)[1]:.3f}"
                       for p in (as_point(q) for q in poly))
        out.append(f'<polyline points="{pts}" fill="none" stroke="#c03428" '
                   f'stroke-width="1.4" stroke-dasharray="7,5"/>')
    for rec in paths:
        pts = " ".join(f"{tx(x, y)[0]:.3f},{tx(x, y)[1]:.3f}" for x, y in rec.stops)
        out.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" '
                   f'stroke-width="1.1"/>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
