"""Tests of the benchmark itself: every workload at tiny sizes with all its
checks, and each oracle failing on a planted wrong answer.

    python -m pytest bench
"""

import dataclasses
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run._import_package()

import geonav.harness as harness  # noqa: E402
import geonav.limits as limits  # noqa: E402
import geonav.navigation as navigation  # noqa: E402
import geonav.points as points  # noqa: E402
from geonav import DensitySpec, NavSpec  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

Mismatch = oracles.Mismatch


def tiny(name, out_dir, seed=5):
    if name == "sweep":
        return workloads.Sweep(seed, out_dir, n=2000, euler_h=1e-3, navmax_step=0.2)
    if name == "navigate":
        return workloads.Navigate(seed, out_dir, sizes=(2000, 8000), halfplane_n=2000)
    return workloads.Diagnose(seed, out_dir, n=1000, navmax_check_n=150, navmax_check_step=0.2)


@pytest.mark.parametrize("name", ["sweep", "navigate", "diagnose"])
def test_workload_runs_clean(name, tmp_path):
    w = tiny(name, str(tmp_path))
    try:
        tally = run.measure(w, seconds=0.0, min_ops=20)
        per_round = len(w.round(0))
    finally:
        w.close()
    assert tally["problems"] == [] and tally["failed"] == 0
    assert tally["attempted"] >= 20 and len(tally["durations"]) == tally["attempted"]
    assert tally["attempted"] % per_round == 0          # whole rounds only
    metrics = run.summarize(tally, 0.1)
    assert set(metrics) == set(run.metric_units()[0]) and all(v > 0 for v in metrics.values())


class AlwaysFails(workloads.Workload):
    def setup(self):
        pass

    def round(self, r):
        def boom():
            raise RuntimeError("planted failure")
        return [workloads.Op("boom", boom, len, lambda out: None)] * 2


def test_ops_that_always_fail_end_the_run():
    # failed ops count towards the run's time, and the wall-clock cap ends a
    # run whose ops fail too fast to add up
    for seconds, max_wall in ((1e-3, 60.0), (1e9, 0.2)):
        tally = run.measure(AlwaysFails(), seconds=seconds, min_ops=10, max_wall=max_wall)
        assert tally["attempted"] >= 2 and tally["failed"] == tally["attempted"]
        assert tally["attempted"] % 2 == 0 and tally["durations"] == []
        metrics = run.summarize(tally, 0.1)
        assert set(metrics) == {"setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("name", ["sweep", "navigate", "diagnose"])
def test_traced_run_reports_every_layer(name, tmp_path):
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.PATCH_POINTS}
    w = tiny(name, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tally = run.measure(w, seconds=0.0, min_ops=20, tracer=tracer)
    finally:
        tracer.uninstall()
        w.close()
    assert tally["problems"] == []
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in originals.items())
    layers = tracing.layer_metrics(tracer, len(tally["durations"]))
    assert set(layers) == set(run.metric_units()[1])
    shares = tracing.self_time_shares(tracer, tally["op_time"])
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    # the layer each workload is built to load carries the largest self time
    layer = {"sweep": "limits.", "navigate": "points.nearest_in_sector",
             "diagnose": "points."}[name]
    by_layer = {}
    for span, share in shares.items():
        key = layer if span.startswith(layer) else span
        by_layer[key] = by_layer.get(key, 0.0) + share
    assert max(by_layer, key=by_layer.get) == layer


def test_same_seed_same_inputs(tmp_path):
    a, b = tiny("navigate", str(tmp_path)), tiny("navigate", str(tmp_path))
    a.setup()
    b.setup()
    assert np.array_equal(a.sets[2000].points, b.sets[2000].points)
    assert [op.name for op in a.round(0)] == [op.name for op in b.round(0)]
    assert a.rng.random() == b.rng.random()


# -- planted wrong answers -----------------------------------------------------

@pytest.fixture(scope="module")
def point_set():
    return points.sample_ppp(DensitySpec.constant(1.0), 3000, 11)


def test_hop_oracle_catches_a_moved_hop(point_set):
    ps = point_set
    spec = NavSpec(kind="random-north-t", p_theta=6)
    s, t = 0.2 + 0.3j, 0.7 + 0.6j
    rec = navigation.run(spec, s, t, ps)
    norths = oracles.north_offsets(spec.north_seed, len(ps))
    for k in range(rec.nb):
        oracles.check_hop(ps.xs, ps.ys, "random-north-t", spec.theta, 6, rec, k,
                          target=t, norths=norths)
    # send hop 3 to the point after the one the rule picks
    k = 3
    other = (rec.stop_ids[k + 1] + 1) % len(ps)
    rec.stop_ids[k + 1] = other
    rec.stops[k + 1] = ps.points[other]
    with pytest.raises(Mismatch):
        oracles.check_hop(ps.xs, ps.ys, "random-north-t", spec.theta, 6, rec, k,
                          target=t, norths=norths)


def test_targeted_oracle_catches_a_failed_run(point_set):
    s, t = 0.2 + 0.3j, 0.7 + 0.6j
    rec = navigation.run(NavSpec(kind="straight-t", theta=math.pi / 2), s, t, point_set)
    oracles.check_targeted(rec, s, t)
    short = dataclasses.replace(rec, stops=rec.stops[:-1], success=False, exit_reason="cycle")
    with pytest.raises(Mismatch):
        oracles.check_targeted(short, s, t)
    back = dataclasses.replace(rec, stops=np.vstack([rec.stops[:2], rec.stops[:1], rec.stops[2:]]))
    with pytest.raises(Mismatch):
        oracles.check_targeted(back, s, t)


def test_directed_oracle_catches_a_backward_hop(point_set):
    ps = point_set
    inset = ps.density.domain.inset(0.05)
    spec = NavSpec(kind="directed-t", theta=math.pi, alpha=1.0)
    s = 0.5 + 0.5j
    rec = navigation.run_directed(spec, s, ps, stop_after=1)
    oracles.check_directed(rec, s, 1.0, 1, inset)
    oracles.check_hop(ps.xs, ps.ys, "directed-t", math.pi, None, rec, 0, alpha=1.0)
    spec = NavSpec(kind="directed-y", theta=math.pi / 2, alpha=0.0)
    rec = navigation.run_directed(spec, 0.3 + 0.5j, ps, stop_after=10)
    oracles.check_directed(rec, 0.3 + 0.5j, 0.0, 10, inset)
    rec.stops[5] = rec.stops[4] - (rec.stops[5] - rec.stops[4])
    with pytest.raises(Mismatch):
        oracles.check_directed(rec, 0.3 + 0.5j, 0.0, 10, inset)


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    w = tiny("sweep", str(tmp_path_factory.mktemp("sweep")))
    w.setup()
    out = [(cfg, harness.run_experiment(cfg)) for cfg in w.configs]
    yield w, out
    w.close()


def _check_rows(w, cfg, rows):
    nav = cfg.nav
    oracles.check_sweep_rows(rows, 1, cfg.pairs, nav.kind.value, nav.theta, nav.p_theta,
                             w.density_params, cfg.euler_h)


@pytest.mark.parametrize("plant", ["pred_nb", "cost2", "cost0", "length", "drop_row"])
def test_sweep_oracle_catches_planted_errors(sweep_rows, plant):
    w, out = sweep_rows
    for cfg, rows in out:
        _check_rows(w, cfg, rows)
        bad = [dataclasses.replace(r, cost_values=dict(r.cost_values),
                                   pred_costs=dict(r.pred_costs)) for r in rows]
        if plant == "pred_nb":
            bad[0].pred_nb *= 1.001
        elif plant == "cost2":
            bad[0].pred_costs[2.0] *= 1.001
        elif plant == "cost0":
            bad[0].cost_values[0.0] += 1.0 / math.sqrt(bad[0].n)
        elif plant == "length":
            bad[1].pred_length *= 1.0 + 1e-6
        else:
            bad = bad[:-1]
        with pytest.raises(Mismatch):
            _check_rows(w, cfg, bad)


def test_sweep_check_catches_changed_csv_bytes(sweep_rows):
    w, out = sweep_rows
    cfg, rows = out[0]
    w._check(cfg, rows)
    with open(cfg.csv_path, "r+b") as fh:
        data = bytearray(fh.read())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        fh.seek(0)
        fh.write(data)
    with pytest.raises(Mismatch):
        w._check(cfg, rows)


def test_euler_tolerance_is_tight_enough_to_matter():
    # the Euler bound at the library's default step is far below a 0.1% error
    h = limits.default_step(DensitySpec.affine(*workloads.Sweep.density_params))
    want = oracles.expected_prediction("t", 2 * math.pi / 6, 6, workloads.Sweep.density_params,
                                       0.3 + 0.36j, 0.6 + 0.54j, h)
    assert want["time_err"] < 1e-4 * want["time"]
    assert want["cost2_err"] < 1e-4 * want["cost2"]


@pytest.fixture(scope="module")
def diag_set():
    d = DensitySpec.radial_bump((0.5, 0.5), 0.5, 1.5, 0.3)
    ps = points.sample_ppp(d, 1000, 3)
    return ps, np.asarray(ps.points), d.domain.inset(d.inset_a)


def test_r_min_oracle_catches_a_scaled_answer(diag_set):
    ps, pts, _ = diag_set
    got = points.r_min(ps)
    oracles.check_r_min(pts, got)
    with pytest.raises(Mismatch):
        oracles.check_r_min(pts, got * 1.001)


def test_maxball_oracle_catches_an_off_by_one(diag_set):
    ps, pts, inset = diag_set
    got = points.maxball(ps, 0.08, 0.1)
    oracles.check_maxball(pts, got, 0.08, 0.1, inset)
    with pytest.raises(Mismatch):
        oracles.check_maxball(pts, got + 1, 0.08, 0.1, inset)


def test_navmax_oracle_catches_a_scaled_answer(diag_set):
    ps, pts, inset = diag_set
    got = points.navmax(ps, math.pi / 3, 0.2)
    oracles.check_navmax(pts, got, math.pi / 3, 0.2, inset)
    with pytest.raises(Mismatch):
        oracles.check_navmax(pts, got * 1.001, math.pi / 3, 0.2, inset)


def test_sample_oracle_catches_bad_sets(diag_set):
    ps, pts, _ = diag_set
    d = ps.density
    oracles.check_sample(pts, 1000, d.integral, d.domain)
    with pytest.raises(Mismatch):
        oracles.check_sample(pts, 2000, d.integral, d.domain)
    with pytest.raises(Mismatch):
        oracles.check_sample(np.vstack([pts, pts[:1]]), 1000, d.integral, d.domain)
    with pytest.raises(Mismatch):
        oracles.check_sample(np.vstack([pts[1:], [[1.5, 0.5]]]), 1000, d.integral, d.domain)


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "oracles.py", "tracing.py"):
        shutil.copy(os.path.join(run.BENCH_DIR, name), bench / name)
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""
