"""Command-line front end.

Subcommands: ``synth`` (write a benchmark dataset), ``path`` (fit a
regularization path with or without screening, CSV out), ``bench`` (timed
with/without comparison plus JSON summary), ``verify`` (run the invariant
suites). Exit codes: 0 ok, 1 verification failure, 2 usage or data-format
error, 3 solver failure.

Thread control: ``--threads`` (or the MTFL_THREADS environment variable)
caps BLAS threads. The cap must be installed before numpy is first imported;
the package resolves its names lazily, and this module imports numpy and the
numerical modules only inside the command handlers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

PATH_COLUMNS = [
    "lambda",
    "lambda_rel",
    "n_screened",
    "n_inactive_true",
    "rejection_ratio",
    "objective",
    "kkt_residual",
    "n_iters",
    "t_screen_s",
    "t_solve_s",
    "status",
]

BENCH_COLUMNS = [
    "lambda_rel",
    "n_screened",
    "n_inactive_true",
    "rejection_ratio",
    "t_screen_s",
    "t_solve_s",
]


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return f"{v:.12g}"


def _set_threads(args):
    n = getattr(args, "threads", None)
    if n is None:
        env = os.environ.get("MTFL_THREADS")
        if env is not None:
            try:
                n = int(env)
            except ValueError:
                raise ValueError(f"MTFL_THREADS must be an integer, got {env!r}")
    if n is not None:
        if n < 1:
            raise ValueError("thread count must be >= 1")
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = str(n)
    return n


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def build_parser():
    p = argparse.ArgumentParser(
        prog="mtl21",
        description="Row-sparse multi-task regression with safe feature screening.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # the walk settings that ``path`` and ``bench`` share
    walk = argparse.ArgumentParser(add_help=False)
    walk.add_argument("--grid-points", type=int, default=100, help="levels on the grid")
    walk.add_argument("--grid-min", type=float, default=0.01,
                      help="smallest level as a fraction of the all-zero threshold")
    walk.add_argument("--kkt-tol", type=float, default=1e-6,
                      help="stationarity certificate each solve must reach")
    walk.add_argument("--max-iters", type=int, default=20000,
                      help="iteration budget of each solve")
    walk.add_argument("--threads", type=int, default=None, help="BLAS thread cap")

    ps = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    ps.add_argument("--kind", choices=["s1", "s2"], required=True,
                    help="s1: independent features; s2: AR(1)-correlated features")
    ps.add_argument("--tasks", type=int, required=True)
    ps.add_argument("--n", type=int, required=True, help="samples per task")
    ps.add_argument("--d", type=int, required=True, help="feature count")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--support-fraction", type=float, default=0.10)
    ps.add_argument("--noise-scale", type=float, default=0.01)
    ps.add_argument("--support-mode", choices=["shared", "per-task"], default="shared")
    ps.add_argument("--out", required=True, help="output dataset directory")

    pp = sub.add_parser("path", parents=[walk],
                        help="fit a regularization path, CSV per level")
    pp.add_argument("dataset", help="dataset directory")
    pp.add_argument("--out", required=True, help="output CSV file")
    pp.add_argument("--screen", choices=["dpc", "none"], default="dpc")

    pb = sub.add_parser("bench", parents=[walk],
                        help="timed with/without-screening comparison")
    pb.add_argument("dataset")
    pb.add_argument("--out", required=True, help="output CSV file")
    pb.add_argument("--json", dest="json_out", default=None, help="summary JSON file")
    pb.add_argument("--reps", type=int, default=1,
                    help="repetitions; timings are elementwise medians")

    pv = sub.add_parser("verify", help="run the invariant suites")
    pv.add_argument("dataset")
    pv.add_argument("--suite", choices=["all", "safety", "containment", "qp1qc", "gap"],
                    default="all")
    pv.add_argument("--cases", type=int, default=200)
    pv.add_argument("--kkt-tol", type=float, default=1e-8)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--threads", type=int, default=None)
    return p


def _check_writable(path):
    """Raise OSError unless the file ``path`` can be written; an existing
    file is left as it is, and no new one is left behind."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _load_validated(path):
    from .core import load_dataset, validate_dataset

    ds, meta = load_dataset(path)
    validate_dataset(ds)
    return ds, meta


def cmd_synth(args):
    from .synth import SynthConfig, write_benchmark

    try:
        cfg = SynthConfig(
            kind=args.kind,
            tasks=args.tasks,
            n_per_task=args.n,
            d=args.d,
            support_fraction=args.support_fraction,
            noise_scale=args.noise_scale,
            seed=args.seed,
            support_mode=args.support_mode,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        ds, _ = write_benchmark(cfg, args.out)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}: T={ds.T}, d={ds.d}, n={ds.n_per_task[0]} per task")
    return 0


def _write_csv(path, columns, rows):
    with open(path, "w") as fh:
        for row in [columns, *rows]:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_path_csv(path, records):
    _write_csv(path, PATH_COLUMNS, (
        (r.lam, r.lambda_rel, r.n_screened, r.n_truly_inactive, r.rejection_ratio,
         r.objective, r.kkt_residual, r.n_iters, r.t_screen, r.t_solve, r.status)
        for r in records
    ))


def _path_inputs(args):
    """Validated dataset, grid and solver config of a path run.

    Every bad-input error (unreadable or invalid data, a dataset with no
    all-zero threshold, out-of-range grid or solver settings, an output
    file that cannot be written) raises here, before any fitting starts.
    """
    from .core import LambdaGrid
    from .dual import lambda_max
    from .solver import SolverConfig

    ds, meta = _load_validated(args.dataset)
    lmax, _ = lambda_max(ds)
    grid = LambdaGrid.log_spaced(lmax, n_points=args.grid_points, min_ratio=args.grid_min)
    cfg = SolverConfig(kkt_tol=args.kkt_tol, max_iters=args.max_iters)
    for out in (args.out, getattr(args, "json_out", None)):
        if out is not None:
            _check_writable(out)
    return ds, meta, grid, cfg


def _run_path(ds, grid, cfg, screen):
    from .screening import sequential_path, unscreened_path

    if screen:
        return sequential_path(ds, grid, cfg)
    return unscreened_path(ds, grid, cfg)


def cmd_path(args):
    from .errors import MtlError, SolverFailure

    try:
        ds, _, grid, cfg = _path_inputs(args)
    except (MtlError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        report = _run_path(ds, grid, cfg, screen=(args.screen == "dpc"))
    except SolverFailure as e:
        _write_path_csv(args.out, e.report.records)
        print(f"error: {e}", file=sys.stderr)
        print(f"partial results in {args.out}", file=sys.stderr)
        return 3
    _write_path_csv(args.out, report.records)
    print(f"wrote {args.out}: {len(report.records)} levels")
    return 0


def cmd_bench(args):
    import numpy as np

    from . import __version__
    from .errors import MtlError, SolverFailure

    try:
        ds, meta, grid, cfg = _path_inputs(args)
    except (MtlError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.reps < 1:
        print("error: --reps must be >= 1", file=sys.stderr)
        return 2
    if args.grid_points < 2:
        # the head level is closed form, so one level times no screening or solve
        print("error: bench needs --grid-points >= 2", file=sys.stderr)
        return 2
    runs = []
    try:
        for _ in range(args.reps):
            runs.append((_run_path(ds, grid, cfg, True), _run_path(ds, grid, cfg, False)))
    except SolverFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    rep_dpc, rep_plain = runs[-1]
    k = len(rep_dpc.records)
    screen_times = np.median(
        [[r.t_screen for r in dpc.records] for dpc, _ in runs], axis=0
    )
    solve_times = np.median(
        [[r.t_solve for r in dpc.records] for dpc, _ in runs], axis=0
    )
    plain_times = np.median(
        [[r.t_solve for r in plain.records] for _, plain in runs], axis=0
    )
    _write_csv(args.out, BENCH_COLUMNS, (
        (r.lambda_rel, r.n_screened, r.n_truly_inactive, r.rejection_ratio,
         float(screen_times[i]), float(solve_times[i]))
        for i, r in enumerate(rep_dpc.records)
    ))
    t_with = float(screen_times.sum() + solve_times.sum())
    t_without = float(plain_times.sum())
    summary = {
        "t_total_with_dpc": t_with,
        "t_total_without_dpc": t_without,
        "speedup": t_without / t_with if t_with > 0 else float("inf"),
        "screen_overhead_fraction": float(screen_times.sum()) / t_with if t_with > 0 else 0.0,
        "grid_points": args.grid_points,
        "grid_min": args.grid_min,
        "kkt_tol": args.kkt_tol,
        "reps": args.reps,
        "levels": k,
        "dataset_meta": meta,
        "cpu_model": _cpu_model(),
        "threads": getattr(args, "_resolved_threads", None),
        "numpy_version": np.__version__,
        "package_version": __version__,
    }
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    print(
        f"with screening {t_with:.3f}s, without {t_without:.3f}s, "
        f"speedup {summary['speedup']:.4g}"
    )
    return 0


def cmd_verify(args):
    from .checks import SUITES, run_suites
    from .dual import lambda_max
    from .errors import MtlError
    from .solver import SolverConfig

    suites = SUITES if args.suite == "all" else (args.suite,)
    try:
        SolverConfig(kkt_tol=args.kkt_tol)
        if args.cases < 1:
            raise ValueError(f"--cases must be >= 1, got {args.cases}")
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        ds = None
        if suites != ("qp1qc",):
            # every other suite reads the dataset and walks a grid down from
            # the all-zero threshold
            ds, _ = _load_validated(args.dataset)
            lambda_max(ds)
    except (MtlError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    ok = run_suites(ds, suites=suites, seed=args.seed, cases=args.cases, kkt_tol=args.kkt_tol)
    return 0 if ok else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = _set_threads(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    args._resolved_threads = resolved
    handlers = {
        "synth": cmd_synth,
        "path": cmd_path,
        "bench": cmd_bench,
        "verify": cmd_verify,
    }
    return handlers[args.command](args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
