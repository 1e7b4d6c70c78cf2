"""Command-line front end.

Subcommands: ``sample`` (write a point-set file), ``navigate`` (one run,
prints the path record as JSON), ``limits`` (constants and per-pair
predictions), ``experiment`` (full sweep from a JSON config), ``diagnose``
(navmax / maxball / r_min of a point-set file).

Arguments are checked by the types they build (``DensitySpec``, ``NavSpec``,
``ExperimentConfig``); one a command would drop (``--t`` of a directed kind,
``--steps`` of a targeted one, a lone ``--s`` or ``--t`` of ``limits``) is
refused.  Exit codes: 0 success, 1 configuration error (before any
sampling), 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .density import DensitySpec, Rect
from .errors import ConfigError, GeonavError, config_errors
from .harness import ExperimentConfig, render_svg, run_experiment, summarize
from .limits import constants, predict_cross, predict_straight
from .navigation import (CROSS_KINDS, DIRECTED_KINDS, NavKind, NavSpec,
                         record_to_dict, run, run_directed)
from .points import (NAVMAX_DIRECTIONS, diagnose, load_points, sample_iid, sample_ppp,
                     save_points)


def _parse_point(text: str) -> complex:
    with config_errors(f"expected 'x,y', got {text!r}: "):
        x, y = (float(v) for v in text.split(","))
    return complex(x, y)


def _parse_density(text: str, domain: str, inset: float) -> DensitySpec:
    """``kind:p1,p2,...`` lists the spec's ``params`` in order."""
    kind, _, rest = text.partition(":")
    with config_errors(f"bad --density {text!r} on --domain {domain!r}: "):
        params = tuple(float(v) for v in rest.split(",")) if rest else ()
        return DensitySpec(kind, params, Rect(*(float(v) for v in domain.split(","))), inset)


def _nav_spec(args) -> NavSpec:
    with config_errors():
        return NavSpec(kind=args.kind, theta=args.theta, p_theta=args.p_theta,
                       alpha=args.alpha, north_seed=args.north_seed,
                       max_steps=getattr(args, "steps", None))


def _add_density_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--density", default="constant:1",
                   help="constant:c | affine:a,b,c | bump:cx,cy,base,amp,radius")
    p.add_argument("--domain", default="0,0,1,1", help="x0,y0,x1,y1")
    p.add_argument("--inset", type=float, default=0.05)


def _add_nav_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in NavKind])
    p.add_argument("--theta", type=float, help="sector angle (straight/directed kinds)")
    p.add_argument("--p-theta", dest="p_theta", type=int,
                   help="sector count (cross / random-north kinds)")
    p.add_argument("--alpha", type=float, default=0.0, help="directed axis angle")
    p.add_argument("--north-seed", dest="north_seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="geonav", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a point set and write it to CSV")
    _add_density_args(p)
    p.add_argument("--model", choices=["ppp", "iid"], default="ppp")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("navigate", help="run one navigation, print the record as JSON")
    _add_density_args(p)
    _add_nav_args(p)
    p.add_argument("--points", help="point-set CSV (else sampled from --n/--seed)")
    p.add_argument("--n", type=float, default=1000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--s", required=True, help="start 'x,y'")
    p.add_argument("--t", help="target 'x,y' (omit for directed kinds)")
    p.add_argument("--steps", type=int, default=None, help="directed step budget")
    p.add_argument("--svg", help="also draw the run to this SVG file")

    p = sub.add_parser("limits", help="print constants (and pair predictions) as JSON")
    _add_density_args(p)
    _add_nav_args(p)
    p.add_argument("--s", help="start 'x,y' for predictions")
    p.add_argument("--t", help="target 'x,y' for predictions")

    p = sub.add_parser("experiment", help="run a sweep from a JSON config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", default=None)
    p.add_argument("--json", dest="json_out", default=None)
    p.add_argument("--svg", default=None)

    p = sub.add_parser("diagnose", help="navmax / maxball / r_min of a point set")
    p.add_argument("--points", required=True)
    p.add_argument("--theta", type=float, default=math.pi / 3.0)
    p.add_argument("--grid-step", dest="grid_step", type=float, default=0.02)
    p.add_argument("--r", type=float, default=0.05, help="ball radius for maxball")
    return ap


def _cmd_sample(args) -> int:
    dens = _parse_density(args.density, args.domain, args.inset)
    if args.model == "ppp":
        ps = sample_ppp(dens, args.n, args.seed)
    else:
        ps = sample_iid(dens, int(args.n), args.seed)
    save_points(ps, args.out)
    print(f"wrote {len(ps)} points to {args.out}")
    return 0


def _get_points(args):
    if args.points:
        return load_points(args.points)
    dens = _parse_density(args.density, args.domain, args.inset)
    return sample_ppp(dens, args.n, args.seed)


def _cmd_navigate(args) -> int:
    spec = _nav_spec(args)
    directed = spec.kind in DIRECTED_KINDS
    # an argument the kind would drop is refused, not ignored
    if (args.t is None) != directed:
        raise ConfigError(f"{spec.kind.value} {'takes no' if directed else 'needs'} --t")
    if args.steps is not None and not directed:
        raise ConfigError(f"{spec.kind.value} takes no --steps (a directed step budget)")
    s = _parse_point(args.s)
    t = None if directed else _parse_point(args.t)
    ps = _get_points(args)
    rec = run_directed(spec, s, ps) if directed else run(spec, s, t, ps)
    print(json.dumps(record_to_dict(rec), indent=2))
    if args.svg:
        render_svg(args.svg, ps=ps, paths=[rec])
    return 0


def _cmd_limits(args) -> int:
    spec = _nav_spec(args)
    if spec.kind in DIRECTED_KINDS:
        raise ConfigError("constants tables cover targeted kinds; "
                          "directed laws are estimated by mc_constants")
    if (args.s is None) != (args.t is None):
        raise ConfigError("a pair prediction needs both --s and --t")
    out = constants(spec.kind, spec.theta).as_dict()
    if args.s is not None:
        dens = _parse_density(args.density, args.domain, args.inset)
        s, t = _parse_point(args.s), _parse_point(args.t)
        if spec.kind in CROSS_KINDS:
            length, nb, _ = predict_cross(spec.kind, spec.p_theta, s, t, dens)
        else:
            length, nb, _ = predict_straight(spec.kind, spec.theta, s, t, dens)
        out["pred_length"] = length
        out["pred_nb_over_sqrt_n"] = nb
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_experiment(args) -> int:
    overrides = {"master_seed": args.seed, "csv_path": args.csv,
                 "json_path": args.json_out, "svg_path": args.svg}
    cfg = replace(ExperimentConfig.from_json(args.config),
                  **{k: v for k, v in overrides.items() if v is not None})
    cfg.check_cells()        # the summary printed below needs rows
    rows = run_experiment(cfg, workers=args.workers)
    print(json.dumps(summarize(rows), indent=2, sort_keys=True))
    return 0


def _cmd_diagnose(args) -> int:
    # the ranges navmax and maxball accept, checked before the file is read
    if not 0.0 < args.theta <= 2.0 * math.pi:
        raise ConfigError(f"--theta must be in (0, 2*pi], got {args.theta!r}")
    for flag, value in (("--grid-step", args.grid_step), ("--r", args.r)):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{flag} must be finite and > 0, got {value!r}")
    ps = load_points(args.points)
    d = diagnose(ps, args.theta, args.grid_step, args.r)
    print(json.dumps({"navmax": d.navmax, "maxball": d.maxball,
                      "r_min": d.r_min, "grid_step": d.grid_step,
                      "directions": NAVMAX_DIRECTIONS}, indent=2))
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "navigate": _cmd_navigate,
    "limits": _cmd_limits,
    "experiment": _cmd_experiment,
    "diagnose": _cmd_diagnose,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract here is 1
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GeonavError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
