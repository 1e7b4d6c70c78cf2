import json
import math
import time

import pytest

from geonav import ConfigError, DensitySpec, cli, load_points
from geonav.cli import main
from geonav.points import NAVMAX_DIRECTIONS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_limits_straight_t(capsys):
    code, out, _ = run_cli(capsys, "limits", "--kind", "straight-t",
                           "--theta", "1.5708")
    assert code == 0
    obj = json.loads(out)
    assert obj["q_bis"] == pytest.approx(1.147794, abs=1e-4)
    assert "c_bor" not in obj and "q_bor" not in obj   # one leg: no border row


def test_limits_with_pair_prediction(capsys):
    code, out, _ = run_cli(capsys, "limits", "--kind", "t", "--p-theta", "6",
                           "--s", "0.15,0.15", "--t", "0.8,0.39",
                           "--domain", "0,0,1,1", "--density", "constant:1")
    assert code == 0
    obj = json.loads(out)
    assert "pred_length" in obj and "pred_nb_over_sqrt_n" in obj
    assert obj["q_bor"] == pytest.approx(1.215973, abs=1e-5)


def test_limits_out_of_range_theta(capsys):
    code, _, err = run_cli(capsys, "limits", "--kind", "t", "--p-theta", "5")
    assert code == 2
    assert "range" in err


def test_navigate_degenerate_pair(capsys):
    code, out, _ = run_cli(capsys, "navigate", "--kind", "straight-t",
                           "--theta", "1.5708", "--n", "200", "--seed", "3",
                           "--s", "0.5,0.5", "--t", "0.5,0.5")
    assert code == 0
    obj = json.loads(out)
    assert obj["nb"] == 0 and obj["success"]


def test_navigate_missing_target(capsys):
    code, _, err = run_cli(capsys, "navigate", "--kind", "straight-t",
                           "--theta", "1.5708", "--s", "0.5,0.5")
    assert code == 1
    assert "needs --t" in err


def test_sample_navigate_diagnose_pipeline(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    code, out, _ = run_cli(capsys, "sample", "--n", "800", "--seed", "5",
                           "--density", "affine:1,1,0", "--out", str(pts))
    assert code == 0 and pts.exists()

    code, out, _ = run_cli(capsys, "navigate", "--points", str(pts),
                           "--kind", "yao", "--p-theta", "6",
                           "--s", "0.2,0.2", "--t", "0.8,0.6")
    assert code == 0
    obj = json.loads(out)
    assert obj["success"]
    assert obj["stops"][0] == [0.2, 0.2] and obj["stops"][-1] == [0.8, 0.6]

    code, out, _ = run_cli(capsys, "diagnose", "--points", str(pts),
                           "--theta", str(math.pi / 2), "--grid-step", "0.05",
                           "--r", "0.08")
    assert code == 0
    d = json.loads(out)
    assert d["navmax"] > 0 and d["maxball"] >= 1 and d["r_min"] > 0
    assert d["directions"] == NAVMAX_DIRECTIONS


def test_navigate_directed_with_svg(tmp_path, capsys):
    svg = tmp_path / "run.svg"
    code, out, _ = run_cli(capsys, "navigate", "--kind", "directed-t",
                           "--theta", "1.0", "--alpha", "0.0",
                           "--n", "2000", "--seed", "9",
                           "--s", "0.1,0.5", "--steps", "20",
                           "--svg", str(svg))
    assert code == 0
    obj = json.loads(out)
    assert obj["exit_reason"] in ("step-limit", "left-inset", "sector-empty")
    assert svg.exists() and svg.read_text().startswith("<svg")


def test_experiment_with_seed_override(tmp_path, capsys):
    cfg = {
        "density": {"kind": "constant", "params": [1.0],
                    "domain": [0, 0, 1, 1], "inset_a": 0.05},
        "nav": {"kind": "straight-t", "theta": math.pi / 2},
        "n_values": [400.0],
        "seeds_per_n": 2,
        "pairs": [[[0.2, 0.5], [0.8, 0.5]]],
        "exponents": [0.0, 1.0],
        "master_seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a = tmp_path / "a.csv"
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg_path),
                           "--csv", str(a))
    assert code == 0
    summary = json.loads(out)
    assert summary["per_n"][0]["runs"] == 2
    b = tmp_path / "b.csv"
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg_path),
                         "--seed", "2", "--csv", str(b))
    assert code == 0
    assert a.read_bytes() != b.read_bytes()


def write_config(tmp_path, **changes):
    cfg = {
        "density": {"kind": "constant", "params": [1.0],
                    "domain": [0, 0, 1, 1], "inset_a": 0.05},
        "nav": {"kind": "straight-t", "theta": math.pi / 2},
        "n_values": [400.0],
        "seeds_per_n": 1,
        "pairs": [[[0.2, 0.5], [0.8, 0.5]]],
    }
    cfg.update(changes)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    return str(path)


def test_experiment_kind_without_constants_is_config_error(tmp_path, capsys):
    # theta = pi/2 is outside the t range (pi/3)
    cfg = write_config(tmp_path, nav={"kind": "t", "p_theta": 4})
    code, _, err = run_cli(capsys, "experiment", "--config", cfg)
    assert code == 1
    assert "range" in err


def test_experiment_missing_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, n_values=None)
    code, _, err = run_cli(capsys, "experiment", "--config", cfg)
    assert code == 1
    assert "n_values" in err


@pytest.mark.parametrize("change", [
    {"euler_h": 0.0}, {"euler_h": -0.001}, {"hausdorff_resolution": 0.0},
    {"navmax_grid_step": -0.1}, {"grid_step": 0.0, "pairs": None},
    {"exponents": [0.0, -1.0]}, {"max_pairs": 0},
    {"n_values": [-5.0]}, {"n_values": [400.0, math.nan]}, {"seeds_per_n": -2},
    {"n_values": []}, {"seeds_per_n": 0},
    {"exponents": [400.0]},
    {"exponents": [400.0], "nav": {"kind": "straight-yao", "theta": 1.2}},
    {"exponents": [math.inf]}, {"euler_h": math.inf}, {"hausdorff_resolution": math.inf},
    {"navmax_grid_step": math.inf}, {"grid_step": math.inf, "pairs": None},
    {"nav": {"kind": "straight-t", "theta": math.pi / 2, "p_theta": 6}},
    # no pair source, or no pair that stays in the inset
    {"pairs": None}, {"pairs": [[[0.01, 0.5], [0.5, 0.5]]]},
    # a bump of radius 0, a bump disk over the edge, a NaN param, an infinite corner
    {"density": {"kind": "bump", "params": [0.5, 0.5, 1, 1, 0], "domain": [0, 0, 1, 1]}},
    {"density": {"kind": "bump", "params": [0.9, 0.5, 1, 1, 0.3], "domain": [0, 0, 1, 1]}},
    {"density": {"kind": "constant", "params": [math.nan], "domain": [0, 0, 1, 1]}},
    {"density": {"kind": "constant", "params": [1.0], "domain": [0, 0, 1e400, 1]}},
    {"master_seed": -1},
    {"nav": {"kind": "straight-t", "theta": math.pi / 2, "north_seed": -1}},
    {"nav": {"kind": "straight-t", "theta": math.pi / 2, "max_steps": -5}},
    {"nav": {"kind": "straight-t", "theta": math.pi / 2, "max_steps": 0}},
    {"seeds_per_n": 1.5}])
def test_experiment_invalid_value_is_config_error(tmp_path, capsys, change):
    # refused before any sampling or prediction
    cfg = write_config(tmp_path, **change)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "experiment", "--config", cfg)
    assert time.perf_counter() - t0 < 5.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and next(iter(change)) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("change,key", [
    ({"max_pair": 3}, "max_pair"),
    ({"nav": {"kind": "straight-t", "theta": 1.5, "alpah": 0.1}}, "alpah")])
def test_experiment_unknown_key_is_config_error(tmp_path, capsys, change, key):
    cfg = write_config(tmp_path, **change)
    code, out, err = run_cli(capsys, "experiment", "--config", cfg)
    assert code == 1 and out == ""
    assert err.startswith("error:") and repr(key) in err


def test_experiment_step_too_fine_for_the_budget_fails_fast(tmp_path, capsys,
                                                           count_density_calls):
    # at euler_h 1e-12 the pair's walks need about 1e11 steps, far over the
    # budget: a config error, refused before any walk's first step, not
    # after hours of stepping
    calls = count_density_calls(5000)
    cfg = write_config(tmp_path, euler_h=1e-12)
    code, out, err = run_cli(capsys, "experiment", "--config", cfg)
    assert code == 1 and out == ""
    assert "steps" in err and calls == []


@pytest.mark.parametrize("argv,flag", [
    (["limits", "--kind", "straight-t", "--theta", "1.5708", "--s", "0.2,0.2"], "--t"),
    (["limits", "--kind", "straight-t", "--theta", "1.5708", "--t", "0.8,0.8"], "--s"),
    (["navigate", "--kind", "directed-t", "--theta", "1.0", "--s", "0.1,0.5",
      "--t", "0.9,0.5"], "--t"),
    (["navigate", "--kind", "straight-t", "--theta", "1.5708", "--s", "0.2,0.5",
      "--t", "0.8,0.5", "--steps", "1"], "--steps"),
    (["navigate", "--kind", "directed-t", "--theta", "1.0", "--s", "0.1,0.5",
      "--steps", "0"], "max_steps"),
    (["navigate", "--kind", "random-north-t", "--p-theta", "6", "--north-seed", "-1",
      "--s", "0.2,0.5", "--t", "0.8,0.5"], "north_seed")])
def test_argument_the_command_would_drop_is_config_error(monkeypatch, capsys, argv, flag):
    # refused before any point is sampled
    def refuse(*args, **kwargs):
        raise AssertionError("points were sampled")
    monkeypatch.setattr(cli, "sample_ppp", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and flag in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("params", [
    (0.5, 0.5, 1.0, 1.0, 0.0),          # radius 0
    (0.9, 0.5, 1.0, 1.0, 0.3),          # disk over the domain's edge
    (0.5, 0.5, math.nan, 1.0, 0.3)])
def test_every_density_reader_refuses_the_same_bump(tmp_path, capsys, params):
    """The constructor, radial_bump, from_dict, a point-file header and
    ``--density`` hold one rule: the one DensitySpec checks."""
    cx, cy, base, amp, radius = params
    text = ",".join(map(repr, params))
    with pytest.raises(ValueError):
        DensitySpec("bump", params)
    with pytest.raises(ValueError):
        DensitySpec.radial_bump((cx, cy), base, amp, radius)
    with pytest.raises(ValueError):
        DensitySpec.from_dict({"kind": "bump", "params": list(params)})
    pts = tmp_path / "pts.csv"
    pts.write_text("# model=ppp n=100.0 seed=0\n# domain=0.0,0.0,1.0,1.0 inset_a=0.05\n"
                   f"# density=bump:{text}\nx,y\n0.5,0.5\n")
    with pytest.raises(ConfigError, match="header"):
        load_points(pts)
    code, out, err = run_cli(capsys, "sample", "--n", "100", "--density", f"bump:{text}",
                             "--out", str(tmp_path / "out.csv"))
    assert code == 1 and out == "" and err.startswith("error:")
    assert not (tmp_path / "out.csv").exists()


def test_diagnose_points_without_header_is_config_error(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.1,0.2\n0.3,0.4\n")
    code, _, err = run_cli(capsys, "diagnose", "--points", str(pts))
    assert code == 1
    assert "header" in err


@pytest.mark.parametrize("flag,value", [
    ("--theta", "0"), ("--theta", "nan"), ("--theta", "-1"), ("--theta", "7"),
    ("--grid-step", "0"), ("--grid-step", "nan"), ("--r", "0"), ("--r", "nan")])
def test_diagnose_invalid_argument_is_config_error(capsys, flag, value):
    # refused before the points file is read: this one does not exist
    code, out, err = run_cli(capsys, "diagnose", "--points", "/nonexistent.csv",
                             f"{flag}={value}")
    assert code == 1 and out == ""
    assert err.startswith("error:") and flag in err


def test_experiment_missing_config(capsys):
    code, _, err = run_cli(capsys, "experiment", "--config", "/nonexistent.json")
    assert code == 1
    assert err
