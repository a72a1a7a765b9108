"""Run one workload of the modsym benchmark and print its metrics.

    python3 perfbench/run.py --workload spectrum-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; modsym is imported from ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Workloads, metrics and seeds are described in perfbench/README.md.
"""

import os

# One BLAS and OpenMP thread: the single-threaded baseline.  Set before
# numpy is first loaded, which happens inside the timed modsym import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 4   # fresh processes timed for setup_s, besides the run's own


def import_modsym() -> float:
    """Import modsym.cli (the whole package, scipy included) from the checkout."""
    if not (SRC / "modsym" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no modsym sources at {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import modsym.cli
    elapsed = time.perf_counter() - t0
    if Path(modsym.cli.__file__).resolve().parent != SRC / "modsym":
        raise SystemExit(f"run.py: modsym was imported from {modsym.cli.__file__}, not {SRC}")
    return elapsed


def setup_probe(workload: str) -> float:
    """Seconds this fresh process spends importing modsym and setting up the workload."""
    elapsed = import_modsym()
    import workloads

    wl = workloads.WORKLOADS[workload]()
    t0 = time.perf_counter()
    wl.setup()
    return elapsed + time.perf_counter() - t0


def probe(workload: str) -> float:
    """setup_probe in a fresh process that inherits the pinned thread counts."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("spectrum-sweep", "moments-wide", "exact-levels"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time import and set-up in this process, print the seconds, exit")
    return p.parse_args(argv)


def measure(wl, run, seed: int, seconds: float) -> None:
    """Whole rounds until their operations took ``seconds`` and the main operation
    has its minimum sample count."""
    import numpy as np

    r = 0
    while True:
        before = len(run.ops)
        wl.round(np.random.default_rng([seed, r]), run)
        run.rounds.append(sum(s for _, s, _ in run.ops[before:]))
        r += 1
        if sum(run.rounds) >= seconds and len(run.times(wl.main_op)) >= wl.min_main_ops:
            return


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    seed = args.seed % (1 << 63)
    if args.setup_probe:
        print(repr(setup_probe(args.workload)))
        return 0

    import_s = import_modsym()
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    run = workloads.Run()
    with tracing.installed(tracer) if tracer else nullcontext():
        t0 = time.perf_counter()
        wl.setup()
        level_data_s = time.perf_counter() - t0
        setup = [import_s + level_data_s]
        if not tracer:
            setup += [probe(args.workload) for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        measure(wl, run, seed, args.seconds)

    main_times = run.times(wl.main_op)
    wall_s = statistics.median(run.rounds)
    if tracer:
        records = tracer.records()
        layers = tracing.layer_totals(records, start, len(run.rounds))
        layers["import_s"] = (import_s, "s")
        layers["thermo.level_data_s"] = (
            sum((r["seconds"] for r in records
                 if r["name"] == "thermo.level_data" and r["start"] < start), 0.0), "s")
        layers["trace.wall_s"] = (wall_s, "s")
        metrics = {k: metric(v, u) for k, (v, u) in layers.items()}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": len(run.rounds), "measure_start": start,
                       "spans": records}, fh)
    else:
        metrics = {
            "wall_s": metric(wall_s, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "op_s.p50": metric(statistics.median(main_times) if main_times else 0.0, "s"),
        }

    failed = sum(1 for _, _, ok in run.ops if not ok)
    print(f"{args.workload}: {len(run.rounds)} rounds, {len(main_times)} x {wl.main_op}, "
          f"{failed} of {len(run.ops)} operations failed", file=sys.stderr)
    for line in (run.errors[:1] + run.problems)[:20]:
        print("  " + line, file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems and bool(main_times),
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
