import hashlib
import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonav import (ConfigError, CrossParams, DensitySpec, EmptyInput, NavKind, NavSpec,
                    NoValidPairs, Rect, gamma_path, harness, limits)
from geonav.geometry import sample_polyline
from geonav.harness import (ExperimentConfig, ResultRow, _predictions,
                            generate_pairs, render_svg, run_experiment,
                            summarize, write_csv)

UNIT = DensitySpec.constant(1.0)


def small_config(**overrides):
    base = dict(
        density=UNIT,
        nav=NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2),
        n_values=(500.0,),
        seeds_per_n=2,
        pairs=((0.2 + 0.5j, 0.8 + 0.5j), (0.3 + 0.3j, 0.7 + 0.7j)),
        exponents=(0.0, 1.0, 2.0),
        master_seed=77,
        euler_h=1e-3,
        hausdorff_resolution=5e-3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -- pair generation -------------------------------------------------------------

def test_generate_pairs_lattice_too_sparse():
    dens = DensitySpec.constant(1.0, inset_a=0.45)
    cfg = small_config(density=dens, pairs=None, grid_step=0.2)
    with pytest.raises(NoValidPairs):
        generate_pairs(cfg)


def test_generate_pairs_straight_all_inside():
    dens = DensitySpec.constant(1.0, inset_a=0.1)
    cfg = small_config(density=dens, pairs=None, grid_step=0.2, max_pairs=10_000)
    pairs = generate_pairs(cfg)
    lattice = np.clip(np.arange(0.1, 0.9 + 1e-12, 0.2), 0.1, 0.9)
    m = len(lattice) ** 2
    assert m == 25
    assert len(pairs) == m * (m - 1)
    for s, t in pairs:
        assert 0.1 <= s.real <= 0.9 and 0.1 <= s.imag <= 0.9
        assert 0.1 <= t.real <= 0.9 and 0.1 <= t.imag <= 0.9


def test_generate_pairs_cross_filters_by_polyline():
    dens = DensitySpec.constant(1.0, inset_a=0.1)
    nav = NavSpec(kind=NavKind.THETA, p_theta=6)
    cfg = small_config(density=dens, nav=nav, pairs=None, grid_step=0.26,
                       max_pairs=10_000)
    pairs = generate_pairs(cfg)
    assert pairs
    # oracle: containment of the densely sampled limit polyline
    ticks = np.clip(np.arange(0.1, 0.9 + 1e-12, 0.26), 0.1, 0.9)
    lattice = [complex(x, y) for x in ticks for y in ticks]
    want = []
    for s in lattice:
        for t in lattice:
            if s == t:
                continue
            samples = sample_polyline(gamma_path(s, t, CrossParams(6)),
                                      dens.inset_a / 10.0)
            if ((samples >= 0.1 - 1e-9) & (samples <= 0.9 + 1e-9)).all():
                want.append((s, t))
    assert pairs == want


def test_generate_pairs_explicit_filtered():
    cfg = small_config(pairs=((0.2 + 0.5j, 0.8 + 0.5j), (0.01 + 0.5j, 0.5 + 0.5j)))
    pairs = generate_pairs(cfg)
    assert pairs == [(0.2 + 0.5j, 0.8 + 0.5j)]
    with pytest.raises(NoValidPairs):
        generate_pairs(small_config(pairs=((0.01 + 0.5j, 0.5 + 0.5j),)))


@pytest.mark.parametrize("p_theta", [6, 8])
def test_generated_lattice_pairs_all_predict(p_theta):
    # on the 0.1 lattice hundreds of pairs have a corner on the inset border
    # up to float dust; the pair filter and the predictors must agree on them
    cfg = small_config(nav=NavSpec(kind=NavKind.THETA, p_theta=p_theta), pairs=None,
                       grid_step=0.1, max_pairs=10_000, exponents=(0.0,), euler_h=0.5)
    pairs = generate_pairs(cfg)
    assert len(pairs) > 9000
    assert len(_predictions(cfg, pairs)) == len(pairs)


@settings(max_examples=100)
@given(x0=st.floats(-2.0, 2.0), y0=st.floats(-2.0, 2.0), w=st.floats(0.5, 2.0),
       h=st.floats(0.5, 2.0), inset=st.floats(0.02, 0.3),
       cols=st.integers(1, 5) | st.floats(1.0, 5.0),
       kind=st.sampled_from([NavKind.THETA, NavKind.YAO]), p_theta=st.integers(3, 8))
def test_generated_pairs_all_predict_property(x0, y0, w, h, inset, cols, kind, p_theta):
    """On a random rectangle and lattice step, every generated pair of a
    cross kind predicts; a sector angle 2*pi/p_theta above the kinds' pi/3
    is refused when the config is built."""
    a = inset * min(w, h)
    dens = DensitySpec.constant(1.0, domain=Rect(x0, y0, x0 + w, y0 + h), inset_a=a)
    overrides = dict(density=dens, nav=NavSpec(kind=kind, p_theta=p_theta), pairs=None,
                     grid_step=(max(w, h) - 2.0 * a) / cols, max_pairs=10_000,
                     exponents=(0.0, 1.0, 2.0), euler_h=0.5)
    if p_theta < 6:
        with pytest.raises(ConfigError):
            small_config(**overrides)
        return
    cfg = small_config(**overrides)
    try:
        pairs = generate_pairs(cfg)
    except NoValidPairs:
        return
    assert len(_predictions(cfg, pairs)) == len(pairs)


# -- config reading --------------------------------------------------------------

# every key a config may hold, at each level, but explicit pairs (the other
# pair source, in place of grid_step) and the nav's alpha (directed kinds
# only, and a sweep takes none)
CONFIG = {
    "density": {"kind": "constant", "params": [1.0], "domain": [0, 0, 1, 1], "inset_a": 0.04},
    "nav": {"kind": "random-north-t", "theta": 2 * math.pi / 6, "p_theta": 6,
            "north_seed": 3, "max_steps": 900},
    "n_values": [400.0],
    "seeds_per_n": 1,
    "grid_step": 0.2,
    "max_pairs": 3,
    "exponents": [0.0, 2.0],
    "master_seed": 9,
    "euler_h": 1e-3,
    "hausdorff_resolution": 2e-3,
    "navmax_grid_step": 0.05,
    "csv_path": "a.csv",
    "json_path": "a.json",
    "svg_path": "a.svg",
}


def test_config_from_dict_reads_every_known_key():
    cfg = ExperimentConfig.from_dict(CONFIG)
    assert (cfg.density.inset_a, cfg.nav.p_theta, cfg.nav.north_seed, cfg.nav.max_steps) == (
        0.04, 6, 3, 900)
    assert (cfg.grid_step, cfg.max_pairs, cfg.exponents, cfg.master_seed, cfg.euler_h,
            cfg.hausdorff_resolution, cfg.navmax_grid_step) == (
        0.2, 3, (0.0, 2.0), 9, 1e-3, 2e-3, 0.05)
    assert (cfg.csv_path, cfg.json_path, cfg.svg_path) == ("a.csv", "a.json", "a.svg")
    obj = {k: v for k, v in CONFIG.items() if k != "grid_step"}
    cfg = ExperimentConfig.from_dict(dict(obj, pairs=[[[0.2, 0.5], [0.8, 0.5]]]))
    assert (cfg.pairs, cfg.grid_step) == (((0.2 + 0.5j, 0.8 + 0.5j),), None)
    with pytest.raises(ConfigError, match="takes no alpha"):
        ExperimentConfig.from_dict(dict(CONFIG, nav=dict(CONFIG["nav"], alpha=0.25)))


@pytest.mark.parametrize("where,key", [
    (None, "max_pair"), (None, "euler_step"), ("nav", "thetta"), ("density", "inset")])
def test_config_from_dict_refuses_unknown_keys(where, key):
    # a misspelled optional key is refused, not read as its default
    obj = json.loads(json.dumps(CONFIG))
    (obj if where is None else obj[where])[key] = 1
    with pytest.raises(ConfigError, match=f"unknown {where or ''}.*'{key}'"):
        ExperimentConfig.from_dict(obj)


def test_config_from_dict_defaults_are_the_fields_defaults():
    # a key left out reads as its field's default, at every level
    cfg = ExperimentConfig.from_dict({
        "density": {"kind": "constant", "params": [1.0]},
        "nav": {"kind": "straight-t", "theta": 1.5},
        "n_values": [400.0], "seeds_per_n": 1, "grid_step": 0.2})
    for obj, given in ((cfg, {"density", "nav", "n_values", "seeds_per_n", "grid_step"}),
                       (cfg.density, {"kind", "params"}), (cfg.nav, {"kind", "theta"})):
        for f in fields(obj):
            if f.init and f.name not in given:
                assert getattr(obj, f.name) == f.default, f.name
    assert cfg.density == DensitySpec.constant(1.0)


def test_whole_number_fields_read_integral_floats():
    cfg = small_config(seeds_per_n=2.0, max_pairs=3.0, master_seed=5.0,
                       nav=NavSpec(kind=NavKind.RANDOM_NORTH_THETA, p_theta=6.0,
                                   max_steps=40.0, north_seed=1.0))
    got = (cfg.seeds_per_n, cfg.max_pairs, cfg.master_seed, cfg.nav.p_theta,
           cfg.nav.max_steps, cfg.nav.north_seed)
    assert got == (2, 3, 5, 6, 40, 1) and all(type(v) is int for v in got)
    for bad in (dict(seeds_per_n=1.5), dict(max_pairs=True), dict(master_seed=-1)):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            small_config(**bad)


# -- experiment sweep --------------------------------------------------------------

def test_run_experiment_empty_n_values():
    cfg = small_config(n_values=())
    assert run_experiment(cfg) == []


def test_run_experiment_no_cell_predicts_nothing(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a pair was predicted")
    monkeypatch.setattr(harness, "predict_straight", refuse)
    assert run_experiment(small_config(seeds_per_n=0)) == []
    # no row to summarize or draw
    for out in ("json_path", "svg_path"):
        with pytest.raises(ConfigError, match="no cells"):
            run_experiment(small_config(seeds_per_n=0, **{out: str(tmp_path / out)}))
        assert not (tmp_path / out).exists()


def test_run_experiment_tiny_n_direct_hop():
    cfg = small_config(n_values=(1e-9,), seeds_per_n=1,
                       pairs=((0.2 + 0.5j, 0.8 + 0.5j),))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].nb == 1
    assert rows[0].length == pytest.approx(0.6)


def test_run_experiment_deterministic_csv(tmp_path):
    cfg = small_config()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(run_experiment(cfg), cfg, a)
    write_csv(run_experiment(cfg), cfg, b)
    assert a.read_bytes() == b.read_bytes()
    # a different master seed must change the simulated columns
    cfg2 = small_config(master_seed=78)
    c = tmp_path / "c.csv"
    write_csv(run_experiment(cfg2), cfg2, c)
    assert a.read_bytes() != c.read_bytes()


def test_run_experiment_predictions_constant_across_seeds():
    rows = run_experiment(small_config(seeds_per_n=3))
    by_pair = {}
    for r in rows:
        by_pair.setdefault((r.s, r.t), set()).add(
            (r.pred_nb, r.pred_length, tuple(sorted(r.pred_costs.items()))))
    for preds in by_pair.values():
        assert len(preds) == 1


@pytest.mark.parametrize("nav,legs", [
    (NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2), 1),
    (NavSpec(kind=NavKind.THETA, p_theta=6), 2),
])
def test_predictions_walk_each_leg_twice(monkeypatch, nav, legs):
    # hit_time for nb, and one Euler walk for the curve and every cost;
    # predict_cost is never called
    walks, hits = [], []
    walk, hit = limits.euler_solve, limits.hit_time
    monkeypatch.setattr(limits, "euler_solve", lambda *a, **k: walks.append(a) or walk(*a, **k))
    monkeypatch.setattr(limits, "hit_time", lambda *a, **k: hits.append(a) or hit(*a, **k))

    def refuse(*args, **kwargs):
        raise AssertionError("predict_cost walked the legs again")

    monkeypatch.setattr(harness, "predict_cost", refuse)
    s, t = 0.2 + 0.3j, 0.7 + 0.6j
    cfg = small_config(nav=nav, pairs=((s, t),), exponents=(0.0, 0.5, 1.0, 2.0))
    assert len(limits._legs(nav.kind, nav.theta, nav.p_theta, s, t, UNIT)) == legs
    ((_, _, curve, _, pred_costs),) = _predictions(cfg, generate_pairs(cfg))
    assert len(walks) == legs and len(hits) == legs
    assert pred_costs == dict(zip(cfg.exponents, curve.end_costs))
    assert len(pred_costs) == 4


def test_run_experiment_parallel_matches_serial(tmp_path):
    cfg = small_config()
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    a = tmp_path / "s.csv"
    b = tmp_path / "p.csv"
    write_csv(serial, cfg, a)
    write_csv(parallel, cfg, b)
    assert a.read_bytes() == b.read_bytes()


def test_run_experiment_cost_columns_consistent():
    rows = run_experiment(small_config(seeds_per_n=1))
    for r in rows:
        # scaled g=0 cost is nb/sqrt(n); scaled g=1 cost is the raw length
        assert r.cost_values[0.0] == pytest.approx(r.nb / math.sqrt(r.n))
        assert r.cost_values[1.0] == pytest.approx(r.length)


# -- summaries ----------------------------------------------------------------------

def _synthetic_row(n, hausdorff, length=1.0, pred=1.0):
    return ResultRow(n=n, seed=0, s=0j, t=1 + 0j, kind="straight-t",
                     theta=math.pi / 2, success=True, exit_reason="reached",
                     monotone=True, nb=10,
                     length=length, pred_nb=10.0, pred_length=pred,
                     cost_values={}, pred_costs={}, hausdorff=hausdorff,
                     sup_pos_err=0.0, navmax=0.0, wall_time=0.0)


def test_summarize_exact_sentinel():
    rows = [_synthetic_row(n, hausdorff=0.0) for n in (1e3, 1e4)]
    assert summarize(rows)["slope_hausdorff"] == "exact"


def test_summarize_synthetic_slope():
    rows = [_synthetic_row(n, hausdorff=n ** -0.25)
            for n in (1e3, 1e4, 1e5) for _ in range(3)]
    s = summarize(rows)
    assert s["slope_hausdorff"] == pytest.approx(-0.25, abs=1e-6)


def test_summarize_empty_raises():
    with pytest.raises(EmptyInput):
        summarize([])


def test_summarize_per_n_fields():
    rows = run_experiment(small_config(seeds_per_n=1))
    s = summarize(rows)
    assert len(s["per_n"]) == 1
    g = s["per_n"][0]
    assert g["runs"] == 2 and g["successes"] == 2 and g["monotone_ok"]
    assert g["mean_rel_len_err"] >= 0.0
    assert g["exit_reasons"] == {"reached": 2}


def test_summarize_counts_exit_reasons(tmp_path):
    """Runs cut by their step budget count as max-steps, apart from those
    that reach the target; the CSV is the same as without the count."""
    nav = NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2, max_steps=12)
    pairs = ((0.2 + 0.5j, 0.8 + 0.5j), (0.3 + 0.3j, 0.7 + 0.7j), (0.45 + 0.5j, 0.5 + 0.5j))
    cfg = small_config(nav=nav, pairs=pairs, json_path=str(tmp_path / "summary.json"))
    rows = run_experiment(cfg)
    assert [r.exit_reason for r in rows] == ["max-steps", "max-steps", "reached"] * 2
    assert [r.nb for r in rows if r.exit_reason == "max-steps"] == [12] * 4
    summary = json.loads((tmp_path / "summary.json").read_text())
    g = summary["per_n"][0]
    assert g["runs"] == 6 and g["successes"] == 2
    assert g["exit_reasons"] == {"max-steps": 4, "reached": 2}
    header = (",".join(harness.CSV_COLUMNS) + ",cost_g0_scaled,pred_cost_g0,cost_g1_scaled,"
              "pred_cost_g1,cost_g2_scaled,pred_cost_g2")
    write_csv(rows, cfg, tmp_path / "rows.csv")
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    assert lines[1] == header and "max-steps" not in "".join(lines)


# -- rendering ----------------------------------------------------------------------

def test_render_svg_deterministic(tmp_path):
    from geonav import sample_ppp
    from geonav.navigation import run
    ps = sample_ppp(UNIT, 500, seed=80)
    rec = run(NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2),
              0.2 + 0.5j, 0.8 + 0.5j, ps)
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    render_svg(a, ps=ps, paths=[rec], limit_polylines=[[0.2 + 0.5j, 0.8 + 0.5j]])
    render_svg(b, ps=ps, paths=[rec], limit_polylines=[[0.2 + 0.5j, 0.8 + 0.5j]])
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg") and "<polyline" in text


def test_render_svg_points_only(tmp_path):
    from geonav import sample_ppp
    ps = sample_ppp(UNIT, 100, seed=81)
    out = tmp_path / "pts.svg"
    render_svg(out, ps=ps)
    assert "<circle" in out.read_text()
    assert "<polyline" not in out.read_text()


def test_render_svg_figure_style_scene(tmp_path):
    # unit square, 5000 points, one six-sector run: a by-eye inspection
    # artifact; here only structural checks
    from geonav import sample_ppp
    from geonav.navigation import run
    ps = sample_ppp(UNIT, 5000, seed=82)
    nav = NavSpec(kind=NavKind.THETA, p_theta=6)
    s, t = 0.1 + 0.1j, 0.85 + 0.6j
    rec = run(nav, s, t, ps)
    out = tmp_path / "scene.svg"
    render_svg(out, ps=ps, paths=[rec],
               limit_polylines=[gamma_path(s, t, CrossParams(6))])
    text = out.read_text()
    assert rec.success
    assert text.count("<circle") == len(ps)
    assert text.count("<polyline") == 2


# -- config io ----------------------------------------------------------------------

def test_run_experiment_writes_outputs(tmp_path):
    cfg = small_config(seeds_per_n=1,
                       csv_path=str(tmp_path / "rows.csv"),
                       json_path=str(tmp_path / "summary.json"),
                       svg_path=str(tmp_path / "scene.svg"))
    run_experiment(cfg)
    assert (tmp_path / "rows.csv").read_text().startswith("# geonav-results")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["per_n"][0]["runs"] == 2
    assert (tmp_path / "scene.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("nav", [NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 2),
                                 NavSpec(kind=NavKind.THETA, p_theta=6)])
def test_sweep_svg_is_the_last_cell_it_ran(tmp_path, monkeypatch, nav, workers):
    # each cell samples once and runs each pair once, and the scene is the
    # last cell's own sample and runs; worker processes inherit the counting
    # wrappers by fork (the pool's start method on Linux) and log their calls
    # to the same file
    from geonav import sample_ppp
    from geonav.navigation import run
    log = tmp_path / "calls.log"

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "run", counted("run", run))
    monkeypatch.setattr(harness, "sample_ppp", counted("sample_ppp", sample_ppp))
    cfg = small_config(nav=nav, n_values=(300.0, 500.0), svg_path=str(tmp_path / "sweep.svg"))
    run_experiment(cfg, workers=workers)
    calls = [line.split() for line in log.read_text().splitlines()]
    cells = len(cfg.n_values) * cfg.seeds_per_n
    assert [name for name, _ in calls].count("run") == cells * len(cfg.pairs)
    assert [name for name, _ in calls].count("sample_ppp") == cells
    assert (str(os.getpid()) in {pid for _, pid in calls}) == (workers == 1)
    i, j = len(cfg.n_values) - 1, cfg.seeds_per_n - 1
    ps = sample_ppp(cfg.density, cfg.n_values[i], harness._cell_seed(cfg, i, j))
    render_svg(tmp_path / "direct.svg", ps, [run(nav, s, t, ps) for s, t in cfg.pairs],
               [limits.limit_path(nav.kind, nav.p_theta, s, t) for s, t in cfg.pairs])
    assert (tmp_path / "sweep.svg").read_bytes() == (tmp_path / "direct.svg").read_bytes()


@pytest.mark.parametrize("workers", [0, -3, 1.5])
def test_run_experiment_refuses_workers_below_one(monkeypatch, workers):
    # refused before any pair is generated or any process started
    def refuse(*args, **kwargs):
        raise AssertionError("pairs were generated")

    monkeypatch.setattr(harness, "generate_pairs", refuse)
    with pytest.raises(ConfigError, match="workers"):
        run_experiment(small_config(), workers=workers)


def test_run_experiment_rejects_directed_kinds():
    # the config refuses the kind when it is built, before any run
    with pytest.raises(ConfigError):
        run_experiment(small_config(nav=NavSpec(kind=NavKind.DIRECTED_THETA, theta=1.0)))


def test_config_roundtrip_from_json(tmp_path):
    obj = {
        "density": {"kind": "affine", "params": [1.0, 1.0, 0.0],
                    "domain": [0, 0, 1, 1], "inset_a": 0.05},
        "nav": {"kind": "straight-t", "theta": math.pi / 2},
        "n_values": [1000.0],
        "seeds_per_n": 1,
        "pairs": [[[0.2, 0.5], [0.8, 0.5]]],
        "exponents": [0.0, 1.0],
        "master_seed": 5,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.nav.kind is NavKind.STRAIGHT_THETA
    assert cfg.density.kind == "affine"
    rows = run_experiment(cfg)
    assert len(rows) == 1 and rows[0].success


# -- golden CSVs ----------------------------------------------------------------------
# SHA-256 of harness CSVs recorded before each limit prediction walked its
# legs once for all exponents.  The CSV prints every simulated and predicted
# number with repr, so any change to sampling, runs or the Euler walks shows.
# "t-bump-exponents" (two-leg pairs, exponents off the closed forms) was
# recorded while predict_cost still walked the legs apart from the curve,
# before the curve walk folded the costs.

AFFINE = DensitySpec.affine(1.0, 0.8, -0.3)
BUMP = DensitySpec.radial_bump((0.5, 0.5), 0.5, 1.5, 0.3)
GOLDEN_CSV_CONFIGS = {
    "straight-t-affine": dict(
        density=AFFINE, nav=NavSpec(kind=NavKind.STRAIGHT_THETA, theta=math.pi / 3),
        pairs=((0.2 + 0.3j, 0.7 + 0.6j), (0.8 + 0.2j, 0.35 + 0.75j)), euler_h=None),
    "t-affine": dict(
        density=AFFINE, nav=NavSpec(kind=NavKind.THETA, p_theta=6),
        pairs=((0.2 + 0.3j, 0.7 + 0.6j), (0.8 + 0.2j, 0.35 + 0.75j)), euler_h=None),
    "yao-bump-grid": dict(
        density=BUMP, nav=NavSpec(kind=NavKind.YAO, p_theta=6), pairs=None,
        grid_step=0.1, max_pairs=6, euler_h=None),
    "random-north-t-bump-grid": dict(
        density=BUMP, nav=NavSpec(kind=NavKind.RANDOM_NORTH_THETA, p_theta=6), pairs=None,
        grid_step=0.1, max_pairs=6, euler_h=None),
    "t-bump-exponents": dict(
        density=BUMP, nav=NavSpec(kind=NavKind.THETA, p_theta=6),
        pairs=((0.15 + 0.5j, 0.85 + 0.55j), (0.3 + 0.2j, 0.6 + 0.8j), (0.8 + 0.7j, 0.2 + 0.3j)),
        exponents=(0.0, 0.5, 1.0, 2.0, 3.0), euler_h=None),
}
GOLDEN_CSV_SHA256 = {
    "random-north-t-bump-grid":
        "8efeee341b3c5af2462f8346bcd4dc1487211b5a6439149f63d27b10fd16e273",
    "straight-t-affine":
        "6ff3b4f29998671cd54a9e47df64f0f5e30905101db208d82a51856559e590df",
    "t-affine":
        "4497e6a011e254676891ca3af76a73dccdc92975490390f03c19fc43ec66177e",
    "t-bump-exponents":
        "5d9c7a0e0276a94409da1da04fca4afc2d74e4098facfd10a5e5be55970c7d5b",
    "yao-bump-grid":
        "f0adb4783f5c459d1b80d2d2de2466899d027412227735c2ce2270b0570d126d",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_CONFIGS))
def test_run_experiment_csv_matches_golden_hash(name, tmp_path):
    cfg = small_config(n_values=(800.0,), **GOLDEN_CSV_CONFIGS[name])
    path = tmp_path / "rows.csv"
    write_csv(run_experiment(cfg), cfg, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[name]
