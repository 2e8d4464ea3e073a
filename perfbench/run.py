"""Path benchmark of mtl21: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {wide,uneven-s2,plain} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src``.
The run generates the workload's datasets from the seed and writes them in
the ``mtl21`` CSV format under ``.perfbench-data/`` while one process per
dataset makes the correctness pass's walk (``check.py``); only then does it time
path walks in a child process pinned to one BLAS thread (``measure.py``),
alone on the machine. It then judges the check walks against the timed
ones and removes the data. The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer split. ``attempted``
and ``failed`` count path levels over the timed walks and the check pass.
The lines before it record the environment (``env``), the exact counts
(``counts``) and the raw samples (``samples``).

Exits 2 without a result when the checkout holds no ``src/mtl21``.
"""

from __future__ import annotations

import env  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# a run must end within 180 s; its child processes are stopped by then
DEADLINE_S = 170
# tolerance on |sum of layer self times - traced walk| / traced walk
SELF_SUM_RTOL = 1e-9


def cycle_mean(cycle, fn):
    """Mean over the datasets walked in one cycle."""
    return statistics.fmean(fn(s) for s in cycle)


def path_s(cycles):
    """Median over cycles of the mean walk time."""
    return statistics.median(cycle_mean(c, lambda s: s["path_s"]) for c in cycles)


def end_to_end(meas, ok_frac):
    return {
        "path_s": (path_s(meas["plain"]), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in meas["setup"]), "s"),
        "peak_rss_mb": (meas["peak_rss_mb"], "MB"),
        "ok_frac": (ok_frac, "ratio"),
    }


def per_layer(meas, wl):
    from spans import SPAN_NAMES

    # the median traced cycle, so that its layers add up exactly
    cycles = sorted(meas["traced"], key=lambda c: cycle_mean(c, lambda s: s["root_s"]))
    traced = cycles[(len(cycles) - 1) // 2]

    def count(name):
        return cycle_mean(traced, lambda s: s["counts"].get(name, 0))

    # counts from the records repeat exactly across cycles
    first = meas["plain"][0]
    iters = cycle_mean(first, lambda s: sum(k[1] for k in s["keys"]))
    screened = cycle_mean(first, lambda s: s["screened"])
    inactive = cycle_mean(first, lambda s: s["truly_inactive"])
    fit_calls = count("solver.fit_calls")
    scored = count("qp1qc.scored")
    contested = count("qp1qc.contested")
    load_s = statistics.median(s["load_s"] for s in meas["setup"])
    traced_s = cycle_mean(traced, lambda s: s["root_s"])

    def timers(fn):
        return statistics.median(cycle_mean(c, fn) for c in meas["plain"])

    m = {f"{name}_s": (cycle_mean(traced, lambda s: s["self_s"][name]), "s") for name in SPAN_NAMES}
    m.update({
        "solver.fit_calls": (fit_calls, "count"),
        "solver.iters": (iters, "count"),
        "solver.s_per_iter": (m["solver.fit_s"][0] / iters if iters else 0.0, "s"),
        "solver.width_mean": (count("solver.width_sum") / fit_calls if fit_calls else 0.0, "count"),
        "qp1qc.contested": (contested, "count"),
        "qp1qc.coarse_settled_ratio": ((scored - contested) / scored if scored else 0.0, "ratio"),
        "qp1qc.newton_rows": (count("qp1qc.newton_rows"), "count"),
        "qp1qc.newton_iters": (count("qp1qc.newton_iters"), "count"),
        "qp1qc.newton_iters_max": (count("qp1qc.newton_iters_max"), "count"),
        "qp1qc.nonconverged": (count("qp1qc.nonconverged"), "count"),
        "dual.ref_fallbacks": (cycle_mean(first, lambda s: s["ref_fallbacks"]), "count"),
        "screening.untimed_s": (timers(lambda s: s["path_s"] - sum(s["timers_s"])), "s"),
        "screening.t_screen_s": (timers(lambda s: s["timers_s"][0]), "s"),
        "screening.t_solve_s": (timers(lambda s: s["timers_s"][1]), "s"),
        "screening.screened_frac": (screened / ((wl.levels - 1) * wl.d), "ratio"),
        "screening.rejection_ratio": (screened / inactive if inactive else 0.0, "ratio"),
        "core.load_s": (load_s, "s"),
        "core.load_mb_per_s": (meas["csv_bytes"] / 1e6 / load_s, "MB/s"),
        "trace.path_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - path_s(meas["plain"]), "s"),
    })
    return m


def trace_problems(meas):
    """Layer self times must be non-negative and add up to the traced walk."""
    problems = []
    for cycle in meas["traced"]:
        for s in cycle:
            total = sum(s["self_s"].values())
            if abs(total - s["root_s"]) > SELF_SUM_RTOL * s["root_s"]:
                problems.append(f"self times sum to {total!r}, traced walk {s['root_s']!r}")
            if s["min_self_s"] < 0.0:
                problems.append(f"a span has negative self time {s['min_self_s']!r}")
    return problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_start = time.perf_counter()
    try:
        mtl21 = env.import_program()
    except env.MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import check
    from workloads import WORKLOADS, make_dataset

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be a non-negative integer", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    def time_left():
        return max(1.0, DEADLINE_S - (time.perf_counter() - t_start))

    data_root = env.ROOT / ".perfbench-data" / f"{wl.name}-{os.getpid()}"
    checks = []
    try:
        for k in range(wl.datasets):
            checks.append(subprocess.Popen(
                [sys.executable, str(HERE / "check.py"), wl.name, str(args.seed), str(k)],
                stdout=subprocess.PIPE, text=True))
        dirs = [str(mtl21.save_dataset(make_dataset(wl, args.seed, k), data_root / str(k)))
                for k in range(wl.datasets)]
        check_out = [proc.communicate(timeout=time_left())[0] for proc in checks]
        if any(proc.returncode != 0 for proc in checks):
            print("error: a correctness-pass process failed", file=sys.stderr)
            return 1
        checked = [json.loads(out.strip().splitlines()[-1]) for out in check_out]
        prep_s = time.perf_counter() - t_start
        cmd = [sys.executable, str(HERE / "measure.py"), "--workload", wl.name,
               "--seconds", str(args.seconds), "--trace", str(args.trace), *dirs]
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=time_left())
    finally:
        for proc in checks:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(data_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run uses it
            data_root.parent.rmdir()
    if child.returncode != 0:
        print(child.stderr, file=sys.stderr)
        print(f"error: measuring process exited with {child.returncode}", file=sys.stderr)
        return 1
    meas = json.loads(child.stdout.strip().splitlines()[-1])

    attempted = failed = 0
    problems = []
    kkt_maxes = []
    for k in range(wl.datasets):
        walks = [c[k] for c in meas["plain"] + meas["traced"]]
        attempted += wl.levels * len(walks)
        failed += sum(wl.levels - s["ok"] for s in walks)
        if any(s["keys"] != walks[0]["keys"] for s in walks):
            problems.append(f"dataset {k}: repeated walks of the same data differ")
        f, msgs, kkt_max = check.judge(wl, checked[k], walks[0]["keys"])
        attempted += wl.levels
        failed += f
        problems += [f"dataset {k}: {msg}" for msg in msgs]
        kkt_maxes.append(kkt_max)
    if args.trace:
        problems += trace_problems(meas)
        metrics = per_layer(meas, wl)
    else:
        metrics = end_to_end(meas, 1.0 - failed / attempted)

    counts = [
        {
            "iters": [key[1] for key in s["keys"]],
            "screened": [key[2] for key in s["keys"]],
            "traced": meas["traced"][0][k]["counts"] if meas["traced"] else None,
            "check": checked[k]["counts"],
        }
        for k, s in enumerate(meas["plain"][0])
    ]
    samples = {
        "path_s": [[s["path_s"] for s in c] for c in meas["plain"]],
        "setup_s": [s["setup_s"] for s in meas["setup"]],
        "traced_path_s": [[s["path_s"] for s in c] for c in meas["traced"]],
        "kkt_max": kkt_maxes,
        "prep_s": prep_s,
        "run_s": time.perf_counter() - t_start,
    }
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    print("env " + json.dumps(env.describe(args.seed)))
    print("counts " + json.dumps(counts))
    print("samples " + json.dumps(samples))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
