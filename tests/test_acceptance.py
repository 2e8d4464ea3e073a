"""End-to-end acceptance battery: one test per criterion, each printing a
single pass/fail summary line (run with ``-s`` to see them on success).

The expensive shared work is a ten-dataset path fixture: desk-scale
benchmarks from both generators, each solved twice along a 100-point grid,
once through the screening walk and once as full-problem certification
solves at the same tight tolerance. Criteria 1, 2, 3, 7, and 8 all read
from it. The speedup criterion runs the benchmark CLI end to end at a
larger width, three repetitions, and reads the per-level medians in its
JSON summary.
"""

import json
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from mtl21.checks import random_instance, sphere_oracle
from mtl21.cli import main as cli_main
from mtl21.core import LambdaGrid, MultiTaskDataset, WeightMatrix
from mtl21.dual import (
    ReferenceSolution,
    dual_ball,
    dual_feasibility_violation,
    dual_from_primal,
    feature_constraint,
    feature_constraint_grad,
    lambda_max,
)
from mtl21.errors import NoConvergence
from mtl21.qp1qc import solve
from mtl21.screening import ROW_ZERO_TOL, sequential_path
from mtl21.solver import (
    SolverConfig,
    fit,
    frobenius_objective,
    objective,
    reduce_frobenius,
    reduce_weighted,
    weighted_objective,
)
from mtl21.synth import SynthConfig, generate

GRID_POINTS = 100
GRID_MIN = 0.01
TIGHT = 1e-8


def report(num, name, passed, details):
    line = f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({details})"
    print(line)
    assert passed, line


@dataclass
class DeskRun:
    kind: str
    seed: int
    ds: MultiTaskDataset
    grid: LambdaGrid
    screened: object
    certified: list  # per-level FitResult, None at the grid head


@pytest.fixture(scope="module")
def desk_runs():
    runs = []
    t0 = time.perf_counter()
    for seed in range(10):
        kind = "s1" if seed < 5 else "s2"
        cfg = SynthConfig(kind=kind, tasks=10, n_per_task=30, d=1000, seed=seed)
        ds, _ = generate(cfg)
        lmax, _ = lambda_max(ds)
        grid = LambdaGrid.log_spaced(lmax, n_points=GRID_POINTS, min_ratio=GRID_MIN)
        screened = sequential_path(
            ds, grid, SolverConfig(kkt_tol=TIGHT), keep_weights=True
        )
        certified = [None]
        for k in range(1, len(grid)):
            cfg_k = SolverConfig(
                kkt_tol=TIGHT, warm_start=screened.records[k].weights
            )
            certified.append(fit(ds, float(grid.values[k]), cfg_k))
        runs.append(
            DeskRun(
                kind=kind,
                seed=seed,
                ds=ds,
                grid=grid,
                screened=screened,
                certified=certified,
            )
        )
    elapsed = time.perf_counter() - t0
    return runs, elapsed


@pytest.fixture(scope="module")
def bench_summary(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    ds_dir = base / "s1_wide"
    rc = cli_main(
        [
            "synth",
            "--kind",
            "s1",
            "--tasks",
            "10",
            "--n",
            "30",
            "--d",
            "5000",
            "--seed",
            "0",
            "--out",
            str(ds_dir),
        ]
    )
    assert rc == 0
    out = base / "bench.csv"
    jout = base / "bench.json"
    # three repetitions, so the gates read per-level medians, not one run
    rc = cli_main(
        ["bench", str(ds_dir), "--out", str(out), "--json", str(jout), "--reps", "3"]
    )
    assert rc == 0
    return json.loads(jout.read_text())


def test_criterion_01_safety(desk_runs):
    runs, elapsed = desk_runs
    violations = 0
    flags = 0
    for run in runs:
        for k in range(1, len(run.grid)):
            rec = run.screened.records[k]
            rn = run.certified[k].weights.row_norms()
            active = rn > ROW_ZERO_TOL
            violations += int((rec.mask.inactive & active).sum())
            flags += rec.n_screened
    report(
        1,
        "safety",
        violations == 0,
        f"{violations} violations over {flags} screened flags on 10 runs, "
        f"fixture {elapsed / 60:.1f} min",
    )


def test_criterion_02_equivalence(desk_runs):
    runs, _ = desk_runs
    worst = 0.0
    for run in runs:
        head = run.screened.records[0].objective
        y = run.ds.y_stack.ravel()
        half_ysq = 0.5 * float(np.dot(y, y))
        worst = max(worst, abs(head - half_ysq) / max(1.0, abs(half_ysq)))
        for k in range(1, len(run.grid)):
            a = run.screened.records[k].objective
            b = run.certified[k].objective
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    report(2, "solution equivalence", worst <= 1e-6, f"worst rel gap {worst:.3e}")


def test_criterion_03_rejection(desk_runs):
    runs, _ = desk_runs
    worst_full = 1.0
    worst_early = 1.0
    for run in runs[:5]:  # the independent-feature generator
        rej = np.array([r.rejection_ratio for r in run.screened.records])
        rel = np.array([r.lambda_rel for r in run.screened.records])
        full = float(np.nanmean(rej))
        early = float(np.nanmean(rej[rel >= 0.3 - 1e-12]))
        worst_full = min(worst_full, full)
        worst_early = min(worst_early, early)
    passed = worst_full >= 0.7 and worst_early >= 0.9
    report(
        3,
        "rejection ratio",
        passed,
        f"grid mean >= {worst_full:.4f}, early-grid mean >= {worst_early:.4f}",
    )


@pytest.mark.skipif(
    os.environ.get("MTL21_FULL_SCALE") != "1",
    reason="hour-scale run; set MTL21_FULL_SCALE=1 to enable",
)
def test_criterion_03_rejection_full_scale():
    cfg = SynthConfig(kind="s1", tasks=50, n_per_task=50, d=10000, seed=0)
    ds, _ = generate(cfg)
    lmax, _ = lambda_max(ds)
    grid = LambdaGrid.log_spaced(lmax, n_points=GRID_POINTS, min_ratio=GRID_MIN)
    rep = sequential_path(ds, grid, SolverConfig(kkt_tol=1e-6))
    rej = float(np.nanmean([r.rejection_ratio for r in rep.records]))
    report(3, "rejection ratio, full scale", rej >= 0.9, f"grid mean {rej:.4f}")


def test_criterion_04_speedup(bench_summary):
    speedup = bench_summary["speedup"]
    overhead = bench_summary["screen_overhead_fraction"]
    passed = speedup > 1.0 and overhead < 0.05
    report(
        4,
        "speedup",
        passed,
        f"speedup {speedup:.2f}x, screening overhead {overhead:.4f} "
        f"({bench_summary['t_total_with_dpc']:.2f}s vs "
        f"{bench_summary['t_total_without_dpc']:.2f}s)",
    )


def test_criterion_05_qp1qc_oracle():
    rng = np.random.default_rng(2024)
    worst_under = 0.0
    worst_over = 0.0
    worst_t1 = 0.0
    for _ in range(1000):
        t = int(rng.choice([1, 2, 3, 5]))
        inst = random_instance(rng, T=t)
        sol = solve(inst)
        ref = sphere_oracle(inst, 100000, rng)
        worst_under = max(worst_under, ref - sol.s_value)
        worst_over = max(worst_over, sol.s_value - ref - 1e-2 * (1.0 + ref))
        if t == 1:
            exact = (inst.delta * np.sqrt(inst.a[0]) + abs(inst.c[0])) ** 2
            worst_t1 = max(worst_t1, abs(sol.s_value - exact) / (1.0 + exact))
    passed = worst_under <= 1e-9 and worst_over <= 0.0 and worst_t1 <= 1e-12
    report(
        5,
        "bound vs sampling oracle",
        passed,
        f"worst undershoot {worst_under:.2e}, overshoot slack {worst_over:.2e}, "
        f"single-task error {worst_t1:.2e}",
    )


def test_criterion_06_newton_convergence():
    rng = np.random.default_rng(2025)
    within_10 = 0
    within_50 = 0
    total = 1000
    for _ in range(total):
        t = int(rng.integers(1, 51))
        inst = random_instance(rng, T=t, newton_only=True)
        try:
            sol = solve(inst)
        except NoConvergence:
            continue
        if sol.converged:
            within_50 += 1
            if sol.newton_iters <= 10:
                within_10 += 1
    passed = within_10 >= 990 and within_50 == total
    report(
        6,
        "newton convergence",
        passed,
        f"{within_10}/{total} within 10 iterations, {within_50}/{total} within 50",
    )


def test_criterion_07_closed_form_regime(desk_runs):
    runs, _ = desk_runs
    worst_viol = 0.0
    all_zero_ok = True
    nonzero_ok = True
    for run in runs:
        lmax, _ = lambda_max(run.ds)
        y = run.ds.y_stack
        for factor in (1.0, 1.5):
            res = fit(run.ds, factor * lmax, SolverConfig(kkt_tol=TIGHT))
            all_zero_ok = all_zero_ok and not np.any(res.weights.values)
            worst_viol = max(
                worst_viol, dual_feasibility_violation(run.ds, y / (factor * lmax))
            )
        res = fit(run.ds, 0.99 * lmax, SolverConfig(kkt_tol=TIGHT))
        nonzero_ok = nonzero_ok and bool(np.any(res.weights.values))
    passed = all_zero_ok and worst_viol <= 1e-12 and nonzero_ok
    report(
        7,
        "closed-form regime",
        passed,
        f"all-zero at/above threshold {all_zero_ok}, worst feasibility "
        f"violation {worst_viol:.2e}, nonzero at 0.99x {nonzero_ok}",
    )


def test_criterion_08_ball_containment(desk_runs):
    runs, _ = desk_runs
    worst = 0.0
    for run in runs:
        ref_max = ReferenceSolution.at_lambda_max(run.ds)
        ref_seq = ref_max
        for k in range(1, len(run.grid)):
            lam = float(run.grid.values[k])
            theta = dual_from_primal(run.ds, run.certified[k].weights, lam)
            for ref in (ref_max, ref_seq):
                ball = dual_ball(run.ds, ref, lam)
                dist = float(np.linalg.norm(theta - ball.center))
                if ball.radius > 0:
                    worst = max(worst, dist / ball.radius)
                elif dist > 0:
                    worst = np.inf
            ref_seq = ReferenceSolution.from_primal(
                run.ds, run.certified[k].weights, lam
            )
    report(
        8,
        "ball containment",
        worst <= 1.0 + 1e-6,
        f"worst distance/radius {worst:.12f}",
    )


def test_criterion_09_reduction_identities():
    rng = np.random.default_rng(2026)
    worst_w = 0.0
    worst_f = 0.0
    for _ in range(20):
        T = int(rng.integers(1, 5))
        d = int(rng.integers(3, 9))
        blocks = []
        for _ in range(T):
            n_t = int(rng.integers(4, 10))
            blocks.append(
                (rng.standard_normal((n_t, d)), rng.standard_normal(n_t))
            )
        ds = MultiTaskDataset(blocks)
        lam = float(rng.uniform(0.1, 2.0))
        W = WeightMatrix(rng.standard_normal((d, T)))
        w_t = rng.uniform(0.2, 3.0, T)
        reduced = reduce_weighted(ds, w_t)
        worst_w = max(
            worst_w,
            abs(objective(reduced, W, lam) - weighted_objective(ds, W, lam, w_t))
            / max(1.0, abs(weighted_objective(ds, W, lam, w_t))),
        )
        rho = float(rng.uniform(0.05, 1.0))
        reduced_f = reduce_frobenius(ds, rho)
        worst_f = max(
            worst_f,
            abs(objective(reduced_f, W, lam) - frobenius_objective(ds, W, lam, rho))
            / max(1.0, abs(frobenius_objective(ds, W, lam, rho))),
        )
    passed = worst_w <= 1e-12 and worst_f <= 1e-12
    report(
        9,
        "reduction identities",
        passed,
        f"worst weighted rel {worst_w:.2e}, worst ridge-absorbing rel {worst_f:.2e}",
    )


def test_criterion_10_gradient_and_homogeneity():
    rng = np.random.default_rng(2027)
    worst_grad = 0.0
    worst_hom = 0.0
    for _ in range(3):
        ds = MultiTaskDataset(
            [(rng.standard_normal((8, 6)), rng.standard_normal(8)) for _ in range(3)]
        )
        theta = rng.standard_normal(ds.y_stack.shape)
        for ell in range(ds.d):
            grad = feature_constraint_grad(ds, theta, ell)
            fd = np.zeros(theta.shape)
            h = 1e-6
            for i in np.ndindex(theta.shape):
                e = np.zeros(theta.shape)
                e[i] = h
                fd[i] = (
                    feature_constraint(ds, theta + e, ell)
                    - feature_constraint(ds, theta - e, ell)
                ) / (2.0 * h)
            denom = max(1.0, float(np.linalg.norm(grad)))
            worst_grad = max(worst_grad, float(np.linalg.norm(grad - fd)) / denom)
            base = feature_constraint(ds, theta, ell)
            for c in (0.5, 2.0, -3.0):
                scaled = feature_constraint(ds, c * theta, ell)
                worst_hom = max(
                    worst_hom, abs(scaled - c * c * base) / max(1.0, abs(base))
                )
    passed = worst_grad <= 1e-5 and worst_hom <= 1e-12
    report(
        10,
        "gradient and homogeneity",
        passed,
        f"worst gradient rel {worst_grad:.2e}, worst homogeneity rel {worst_hom:.2e}",
    )
