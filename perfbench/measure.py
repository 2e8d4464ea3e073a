"""Timed path walks of one workload, in a process of their own.

    python3 perfbench/measure.py --workload NAME --seconds S --trace 0|1 DIR...

Each DIR is a dataset directory in the ``mtl21`` CSV format. A cycle loads
each dataset afresh (so the ``col_norms`` and ``lambda_max`` caches are
filled inside the walk, as ``mtl21 path`` users pay them) and walks it once;
with ``--trace 1`` it then loads and walks it a second time under the
tracer. Cycles repeat until about S seconds have passed. After them the
datasets are loaded in turn for ``SETUP_SECONDS``, and often enough that
the run has ``SETUP_SAMPLES`` set-up times even when one cycle fills the
budget. The process's peak resident memory is read at the end, so it
covers loads and walks only. The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import env  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

# loads made only to time set-up, beside the one before each walk: at least
# SETUP_SECONDS' worth, and enough that a run has SETUP_SAMPLES in all
SETUP_SAMPLES = 3
SETUP_SECONDS = 2.0


def load(mtl21, path):
    """``(dataset, {"load_s", "setup_s"})``: load, then validate, as ``mtl21 path`` does."""
    t0 = time.perf_counter()
    ds, _ = mtl21.load_dataset(path)
    t1 = time.perf_counter()
    mtl21.validate_dataset(ds)
    return ds, {"load_s": t1 - t0, "setup_s": time.perf_counter() - t0}


def sample(mtl21, wl, path, traced):
    from spans import Tracer
    from workloads import level_key, ok_levels, walk

    ds, setup = load(mtl21, path)
    t0 = time.perf_counter()
    if traced:
        with Tracer() as tr:
            records = walk(wl, ds)
    else:
        records = walk(wl, ds)
    out = {
        "setup": setup,
        "path_s": time.perf_counter() - t0,
        "timers_s": [sum(r.t_screen for r in records), sum(r.t_solve for r in records)],
        "ok": ok_levels(wl, records),
        "keys": [level_key(r) for r in records],
        "ref_fallbacks": sum(r.ref_fallback for r in records),
        "screened": sum(r.n_screened for r in records[1:]),
        "truly_inactive": sum(r.n_truly_inactive for r in records[1:] if r.status == "ok"),
    }
    if traced:
        out["self_s"] = tr.self_times()
        out["root_s"] = tr.root_seconds()
        out["min_self_s"] = tr.min_self()
        out["counts"] = dict(tr.counts)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("dirs", nargs="+")
    args = p.parse_args(argv)

    mtl21 = env.import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    plain, traced = [], []  # one list per cycle, one sample per dataset
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        plain.append([])
        traced.append([])
        for d in args.dirs:
            plain[-1].append(sample(mtl21, wl, d, False))
            if args.trace:
                traced[-1].append(sample(mtl21, wl, d, True))
        now = time.perf_counter()
        # stop at the cycle count whose total lands closest to the budget
        if now - start + 0.5 * (now - c0) > args.seconds:
            break
    setups = [s["setup"] for cycle in plain + traced for s in cycle]
    start = time.perf_counter()
    extra = 0
    while len(setups) < SETUP_SAMPLES or time.perf_counter() - start < SETUP_SECONDS:
        setups.append(load(mtl21, args.dirs[extra % len(args.dirs)])[1])
        extra += 1
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "csv_bytes": statistics.fmean(
            sum(f.stat().st_size for f in Path(d).glob("task_*.csv")) for d in args.dirs
        ),
        "setup": setups,
        "plain": plain,
        "traced": traced if args.trace else [],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
