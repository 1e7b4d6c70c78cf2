"""geonav benchmark: one workload per process, timed in-process.

    python3 bench/run.py --workload {sweep,navigate,diagnose} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The run times three fresh interpreters importing geonav and three
builds of the workload's reused state (``setup_s`` adds the two medians),
then attempts whole rounds of operations until ``--seconds`` of operation
time have passed and at least 100 operations have run (or the timed phase
has lasted two minutes).  Every output is checked against ``oracles``.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``items_per_s``, ``op_ms_p50``, ``op_ms_p90``, ``peak_rss_mb``).  With
``--trace 1`` the library's layers are wrapped with spans (see
``tracing``) and the metrics are the per-layer ones; the spans, each
layer's self-time share and the traced run's end-to-end figures go to
``bench/out/trace-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 3
MIN_OPS = 100
# the timed phase ends after this long even short of MIN_OPS, so a run whose
# ops all fail or crawl still exits well within three minutes
MAX_WALL = 120.0


def metric_units() -> tuple[dict, dict]:
    """Units of the end-to-end and the per-layer metrics, as BENCHMARK.json
    declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _import_package() -> None:
    """Import geonav from this checkout's ``src``; nothing installed elsewhere
    may stand in for it."""
    if not os.path.isfile(os.path.join(SRC, "geonav", "__init__.py")):
        raise SystemExit(f"error: no geonav sources under {SRC}; run from a source checkout")
    # one process, one thread: keep native libraries from starting pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import geonav  # noqa: F401


def measure(workload, seconds: float, tracer=None, min_ops: int = MIN_OPS,
            max_wall: float = MAX_WALL) -> dict:
    """Set up ``workload``, run whole rounds of its ops and check them.

    Rounds go on until the ops, failed ones included, have taken ``seconds``
    and at least ``min_ops`` have run, or until the timed phase has lasted
    ``max_wall`` seconds, checks included.  Returns the tallies and the raw
    timings; ``summarize`` turns them into the end-to-end metrics.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    durations = []                    # ops that returned
    op_time = 0.0                     # every op, failed ones too
    items = 0
    attempted = failed = 0
    problems = []
    reported = set()
    start = time.perf_counter()
    r = 0
    while ((op_time < seconds or attempted < min_ops)
           and time.perf_counter() - start < max_wall):
        for op in workload.round(r):
            attempted += 1
            if tracer is not None:
                tracer.op = attempted
            t0 = time.perf_counter()
            try:
                out = op.fn()
            except Exception:                 # an op that fails is counted, not fatal
                failed += 1
                if op.name not in reported:   # one traceback per op name
                    reported.add(op.name)
                    traceback.print_exc()
                continue
            finally:
                dt = time.perf_counter() - t0
                op_time += dt
                if tracer is not None:
                    tracer.op = None
            durations.append(dt)
            items += op.items(out)
            try:
                op.check(out)
            except Exception as exc:  # a wrong answer or a crash in a check
                problems.append(f"{op.name}: {exc!r}")
        r += 1
    try:
        workload.final_check()
    except Exception as exc:
        problems.append(f"final check: {exc!r}")
    return {"setups": setups, "durations": durations, "op_time": op_time, "items": items,
            "attempted": attempted, "failed": failed, "problems": problems}


def import_seconds(repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter that imports geonav: what a
    user pays before the first call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                        "import geonav", SRC], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def summarize(tally: dict, import_s: float) -> dict:
    """The end-to-end metrics.  The op timings are left out when no op
    returned, since there is nothing to time."""
    d = tally["durations"]
    metrics = {
        "setup_s": import_s + statistics.median(tally["setups"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if d:
        metrics["items_per_s"] = tally["items"] / tally["op_time"]
        metrics["op_ms_p50"] = 1e3 * statistics.median(d)
        # quantiles needs two points; a single op is its own 90th percentile
        metrics["op_ms_p90"] = 1e3 * (statistics.quantiles(d, n=10)[8] if len(d) > 1 else d[0])
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "navigate", "diagnose"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    import tracing
    import workloads
    import_s = import_seconds()

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        tally = measure(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    for p in tally["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    end_to_end = summarize(tally, import_s)
    units, layer_units = metric_units()
    if tracer is None:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in units.items()
                   if k in end_to_end}
    else:
        n_ops = len(tally["durations"])
        layers = tracing.layer_metrics(tracer, n_ops)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in layer_units.items()}
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "ops": n_ops,
                       "end_to_end": end_to_end,
                       "self_share": tracing.self_time_shares(tracer, tally["op_time"]),
                       "spans": tracer.dump()}, fh)
    result = {"correct": not tally["problems"], "attempted": tally["attempted"],
              "failed": tally["failed"], "metrics": metrics}
    line = json.dumps(result)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        fh.write(line + "\n")
    print(line)
    if not tally["durations"]:
        print("error: every operation failed; nothing was timed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
