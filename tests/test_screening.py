import math

import numpy as np
import pytest

from mtl21.core import LambdaGrid, MultiTaskDataset, ScreeningMask
from mtl21.dual import (
    ReferenceSolution,
    dual_from_primal,
    feature_constraint_all,
    lambda_max,
)
from mtl21.errors import LambdaOutOfRange, SolverFailure
from mtl21.screening import (
    REF_FEASIBILITY_TOL,
    ROW_ZERO_TOL,
    PathScreeningReport,
    screen_at,
    sequential_path,
    unscreened_path,
)
from mtl21.solver import FitResult, SolverConfig, fit, kkt_residual, objective


def random_dataset(rng, T=3, d=30, n=20):
    return MultiTaskDataset(
        [(rng.standard_normal((n, d)), rng.standard_normal(n)) for _ in range(T)]
    )


def sparse_dataset(rng, T=3, d=40, n=25, k=5, noise=0.01):
    # planted shared support makes plenty of rows genuinely inactive
    support = rng.choice(d, size=k, replace=False)
    pairs = []
    for _ in range(T):
        X = rng.standard_normal((n, d))
        w = np.zeros(d)
        w[support] = rng.standard_normal(k)
        pairs.append((X, X @ w + noise * rng.standard_normal(n)))
    return MultiTaskDataset(pairs)


def grid_for(ds, points=20, floor=0.05):
    return LambdaGrid.log_spaced(lambda_max(ds)[0], points, floor)


class TestScreenAt:
    def test_target_must_lie_below_reference(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng)
        ref = ReferenceSolution.at_lambda_max(ds)
        with pytest.raises(LambdaOutOfRange):
            screen_at(ds, ref, ref.lambda0)
        with pytest.raises(LambdaOutOfRange):
            screen_at(ds, ref, 2.0 * ref.lambda0)

    def test_mask_matches_scores(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng)
        ref = ReferenceSolution.at_lambda_max(ds)
        mask = screen_at(ds, ref, 0.5 * ref.lambda0)
        assert isinstance(mask, ScreeningMask)
        assert mask.inactive.shape == (ds.d,)
        assert np.array_equal(mask.inactive, mask.scores < 1.0)

    def test_shrinking_ball_near_threshold(self):
        # just under lambda_max the ball collapses, so the mask approaches
        # the set of features whose constraint value at y/lambda_max is < 1
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, T=2, d=25, n=15)
        lmax, ell = lambda_max(ds)
        ref = ReferenceSolution.at_lambda_max(ds)
        mask = screen_at(ds, ref, 0.999 * lmax)
        y = np.concatenate([ds.y[t] for t in range(ds.T)])
        g = feature_constraint_all(ds, y / lmax)
        assert not mask.inactive[ell]
        clear = g < 0.99
        assert mask.inactive[clear].all()

    def test_zero_feature_always_screened(self):
        rng = np.random.default_rng(3)
        ds0 = random_dataset(rng, T=2, d=10, n=12)
        pairs = []
        for t in range(2):
            X = ds0.X[t].copy()
            X[:, 4] = 0.0
            pairs.append((X, ds0.y[t]))
        ds = MultiTaskDataset(pairs)
        ref = ReferenceSolution.at_lambda_max(ds)
        mask = screen_at(ds, ref, 0.4 * ref.lambda0)
        assert mask.inactive[4]
        assert mask.scores[4] == 0.0

    def test_screened_features_are_zero_in_full_solve(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            ds = sparse_dataset(rng, T=5, d=60, n=20)
            lmax = lambda_max(ds)[0]
            ref = ReferenceSolution.at_lambda_max(ds)
            for frac in (0.8, 0.5, 0.3):
                lam = frac * lmax
                mask = screen_at(ds, ref, lam)
                res = fit(ds, lam, SolverConfig(kkt_tol=1e-8, max_iters=100000))
                rn = res.weights.row_norms()
                assert not (mask.inactive & (rn > 1e-6)).any()


class TestSequentialPath:
    def test_head_record(self):
        rng = np.random.default_rng(5)
        ds = sparse_dataset(rng)
        rep = sequential_path(ds, grid_for(ds), SolverConfig(kkt_tol=1e-8))
        head = rep.records[0]
        assert head.lambda_rel == 1.0
        assert head.n_screened == ds.d
        assert head.rejection_ratio == 1.0
        assert head.n_iters == 0
        assert head.kkt_residual == 0.0
        y = np.concatenate([ds.y[t] for t in range(ds.T)])
        assert math.isclose(head.objective, 0.5 * float(y @ y), rel_tol=1e-12)
        assert np.all(head.mask.scores == 0.0)

    def test_single_point_grid(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng)
        lmax = lambda_max(ds)[0]
        rep = sequential_path(ds, LambdaGrid([lmax]), SolverConfig())
        assert len(rep.records) == 1
        assert rep.records[0].n_truly_inactive == ds.d

    def test_matches_unscreened_path(self):
        rng = np.random.default_rng(7)
        ds = sparse_dataset(rng, T=4, d=50, n=20)
        grid = grid_for(ds, points=15)
        cfg = SolverConfig(kkt_tol=1e-8, max_iters=100000)
        scr = sequential_path(ds, grid, cfg, keep_weights=True)
        plain = unscreened_path(ds, grid, cfg, keep_weights=True)
        assert len(scr.records) == len(plain.records) == 15
        for a, b in zip(scr.records, plain.records):
            assert a.lam == b.lam
            rel = abs(a.objective - b.objective) / max(1.0, abs(b.objective))
            assert rel <= 1e-6
        assert scr.screened and not plain.screened

    def test_reembedded_rows_exact_zero(self):
        rng = np.random.default_rng(8)
        ds = sparse_dataset(rng)
        rep = sequential_path(
            ds, grid_for(ds), SolverConfig(kkt_tol=1e-8), keep_weights=True
        )
        saw_screened = False
        for rec in rep.records[1:]:
            V = rec.weights.values
            screened = rec.mask.inactive
            if screened.any():
                saw_screened = True
                assert np.all(V[screened] == 0.0)
        assert saw_screened

    def test_no_weights_kept_by_default(self):
        rng = np.random.default_rng(9)
        ds = sparse_dataset(rng, d=25)
        rep = sequential_path(ds, grid_for(ds, points=6), SolverConfig())
        assert all(r.weights is None for r in rep.records)

    def test_rejection_and_counts(self):
        rng = np.random.default_rng(10)
        ds = sparse_dataset(rng, T=4, d=80, n=25)
        rep = sequential_path(
            ds, grid_for(ds, points=12), SolverConfig(kkt_tol=1e-8, max_iters=100000)
        )
        for rec in rep.records[1:]:
            assert 0 <= rec.n_screened <= ds.d
            if rec.n_truly_inactive > 0:
                assert rec.rejection_ratio == rec.n_screened / rec.n_truly_inactive
                # safety on converged solves: screened is a subset of inactive
                assert rec.n_screened <= rec.n_truly_inactive
        rej = [r.rejection_ratio for r in rep.records[1:]]
        assert np.nanmean(rej) > 0.5

    def test_reference_modes(self):
        # basic DPC screens every level against the threshold reference; the
        # walk's first step is exactly that, and both references are safe
        rng = np.random.default_rng(11)
        ds = sparse_dataset(rng, T=3, d=40, n=20)
        grid = grid_for(ds, points=10)
        cfg = SolverConfig(kkt_tol=1e-8, max_iters=100000)
        seq = sequential_path(ds, grid, cfg)
        plain = unscreened_path(ds, grid, cfg, keep_weights=True)
        ref_max = ReferenceSolution.at_lambda_max(ds)
        basic = [screen_at(ds, ref_max, lam) for lam in grid.values[1:]]
        np.testing.assert_array_equal(basic[0].scores, seq.records[1].mask.scores)
        assert basic[0].n_inactive > 0
        for mask, rec_s, rec_u in zip(basic, seq.records[1:], plain.records[1:]):
            active = rec_u.weights.row_norms() > ROW_ZERO_TOL
            assert not (mask.inactive & active).any()
            assert not (rec_s.mask.inactive & active).any()

    def test_determinism(self):
        rng = np.random.default_rng(12)
        ds = sparse_dataset(rng)
        grid = grid_for(ds, points=8)
        a = sequential_path(ds, grid, SolverConfig(kkt_tol=1e-8))
        b = sequential_path(ds, grid, SolverConfig(kkt_tol=1e-8))
        for ra, rb in zip(a.records[1:], b.records[1:]):
            assert np.array_equal(ra.mask.inactive, rb.mask.inactive)
            assert ra.objective == rb.objective

    def test_solver_failure_carries_partial_report(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, T=3, d=40, n=15)
        grid = grid_for(ds, points=10, floor=0.01)
        with pytest.raises(SolverFailure) as ei:
            sequential_path(ds, grid, SolverConfig(max_iters=2, kkt_tol=1e-12))
        err = ei.value
        assert err.report is not None
        assert err.failed_lambda is not None
        last = err.report.records[-1]
        assert last.status == "solver-failure"
        assert last.lam == err.failed_lambda

    def test_loose_solves_rescale_reference_without_fallback(self):
        # a 1e-6-certificate solve leaves its dual point slightly infeasible;
        # that is ordinary slack and must not collapse screening
        rng = np.random.default_rng(14)
        ds = sparse_dataset(rng, T=4, d=60, n=20)
        rep = sequential_path(ds, grid_for(ds, points=15), SolverConfig(kkt_tol=1e-6))
        assert not any(r.ref_fallback for r in rep.records)
        rej = [r.rejection_ratio for r in rep.records[1:]]
        assert np.nanmean(rej) > 0.5

    def test_unexplained_violation_falls_back(self):
        # a handle that under-reports its certificate leaves a dual point far
        # more infeasible than the claimed residual allows; the next step must
        # distrust that reference and use the threshold one instead
        rng = np.random.default_rng(15)
        ds = sparse_dataset(rng, T=3, d=30, n=20)

        def lying_solver(sub_ds, lam, warm):
            res = fit(sub_ds, lam, SolverConfig(kkt_tol=5e-3, max_iters=100000))
            return FitResult(
                weights=res.weights,
                n_iters=res.n_iters,
                kkt_residual=1e-12,
                objective=res.objective,
                converged=True,
                wall_time=res.wall_time,
            )

        rep = sequential_path(ds, grid_for(ds, points=8), lying_solver)
        tail = rep.records[2:]
        assert any(r.ref_fallback for r in tail)


class TestUnscreenedPath:
    def test_record_shape(self):
        rng = np.random.default_rng(16)
        ds = sparse_dataset(rng, d=25)
        rep = unscreened_path(ds, grid_for(ds, points=8), SolverConfig(kkt_tol=1e-8))
        assert isinstance(rep, PathScreeningReport)
        assert not rep.screened
        assert math.isnan(rep.records[0].rejection_ratio)
        for rec in rep.records:
            assert rec.mask is None
            assert rec.n_screened == 0
            assert rec.t_screen == 0.0
        assert rep.total_screen_time == 0.0
        assert rep.total_solve_time > 0.0
        for rec in rep.records[1:]:
            assert rec.kkt_residual <= 1e-8
            assert rec.n_iters >= 1

    def test_truly_inactive_counts_near_zero_rows(self):
        rng = np.random.default_rng(17)
        ds = sparse_dataset(rng, T=3, d=30, n=20, k=4)
        rep = unscreened_path(
            ds, grid_for(ds, points=6), SolverConfig(kkt_tol=1e-8), keep_weights=True
        )
        for rec in rep.records[1:]:
            rn = rec.weights.row_norms()
            assert rec.n_truly_inactive == int((rn <= ROW_ZERO_TOL).sum())
