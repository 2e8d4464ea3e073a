import dataclasses
import math
import time

import numpy as np
import pytest

import mtl21.screening
from mtl21.core import LambdaGrid, MultiTaskDataset, ScreeningMask, WeightMatrix
from mtl21.dual import (
    ReferenceSolution,
    ScoreBounds,
    dual_ball,
    feature_constraint_all,
    lambda_max,
)
from mtl21.errors import (
    DimensionMismatch,
    LambdaOutOfRange,
    MaxItersExceeded,
    NonFinite,
    SolverFailure,
)
from mtl21.qp1qc import screening_scores
from mtl21.screening import (
    ROW_ZERO_TOL,
    PathScreeningReport,
    screen_at,
    sequential_path,
    unscreened_path,
)
from mtl21.solver import FitResult, SolverConfig, fit, objective
from mtl21.synth import SynthConfig, generate

from exact_scores import screening_bounds


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
        g = feature_constraint_all(ds, ds.y_stack / lmax)
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

    @pytest.mark.parametrize("path", [sequential_path, unscreened_path])
    @pytest.mark.parametrize("bad, error", [
        (lambda W: W[:1], DimensionMismatch),  # one row would broadcast onto every feature
        (lambda W: np.full_like(W, np.nan), NonFinite),
    ], ids=["one-row", "nan"])
    def test_solver_weights_are_checked(self, path, bad, error):
        # the last level has no next reference to catch the weights, so the
        # walk checks them where it embeds them
        ds, _ = generate(SynthConfig(kind="s1", tasks=3, n_per_task=20, d=60, seed=3))
        grid = LambdaGrid.log_spaced(lambda_max(ds)[0], 3, 0.5)

        def bad_last_level(sub_ds, lam, warm):
            res = fit(sub_ds, lam, SolverConfig(warm_start=warm))
            if lam == grid.values[-1]:
                assert sub_ds.d > 1
                res = FitResult(WeightMatrix(bad(res.weights.values)), 1, 0.0, res.objective)
            return res

        with pytest.raises(error):
            path(ds, grid, bad_last_level)

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
        records = ei.value.report.records
        last = records[-1]
        assert last.status == "solver-failure"
        assert last.lam == grid.values[len(records) - 1]

    def test_loose_solves_rescale_reference_without_fallback(self):
        # a 1e-6-certificate solve leaves its dual point slightly infeasible;
        # the ball scales it back into the feasible set, and screening must
        # not collapse
        rng = np.random.default_rng(14)
        ds = sparse_dataset(rng, T=4, d=60, n=20)
        rep = sequential_path(ds, grid_for(ds, points=15), SolverConfig(kkt_tol=1e-6))
        assert not any(r.ref_fallback for r in rep.records)
        rej = [r.rejection_ratio for r in rep.records[1:]]
        assert np.nanmean(rej) > 0.5

    def test_unexplained_violation_stays_safe(self):
        # a handle that under-reports its certificate leaves a dual point far
        # more infeasible than the claimed residual allows; the walk reads no
        # certificate, so it builds every ball from that reference all the
        # same, and every mask stays safe against 1e-9 solves
        rng = np.random.default_rng(15)
        ds = sparse_dataset(rng, T=3, d=30, n=20)

        def lying_solver(sub_ds, lam, warm):
            res = fit(sub_ds, lam, SolverConfig(kkt_tol=5e-3, max_iters=100000))
            return FitResult(
                weights=res.weights,
                n_iters=res.n_iters,
                kkt_residual=1e-12,
                objective=res.objective,
            )

        grid = grid_for(ds, points=8)
        rep = sequential_path(ds, grid, lying_solver)
        tight = unscreened_path(ds, grid, SolverConfig(kkt_tol=1e-9), keep_weights=True)
        for a, b in zip(rep.records, tight.records, strict=True):
            assert not a.ref_fallback
            assert not (a.mask.inactive & (b.weights.row_norms() > ROW_ZERO_TOL)).any()
        assert sum(r.n_screened for r in rep.records[2:]) > 0

    @pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e8])
    def test_screening_does_not_depend_on_column_scale(self, scale):
        # X -> s X scales lambda_max by s and every dual point by 1/s, so the
        # constraint values and masks stay; the threshold's witness normal
        # scales by s^2 but is never zero (<n, y> = 2 lambda_max)
        ds, _ = generate(SynthConfig(kind="s1", tasks=3, n_per_task=20, d=200, seed=1))
        scaled = MultiTaskDataset([(X * scale, y) for X, y in zip(ds.X, ds.y)])
        counts = []
        for data in (ds, scaled):
            grid = LambdaGrid.log_spaced(lambda_max(data)[0], n_points=40, min_ratio=0.01)
            counts.append([r.n_screened for r in sequential_path(data, grid).records])
        assert counts[0] == counts[1]


class TestUnscreenedPath:
    def test_record_shape(self):
        rng = np.random.default_rng(16)
        ds = sparse_dataset(rng, d=25)
        rep = unscreened_path(ds, grid_for(ds, points=8), SolverConfig(kkt_tol=1e-8))
        assert isinstance(rep, PathScreeningReport)
        assert math.isnan(rep.records[0].rejection_ratio)
        for rec in rep.records:
            assert rec.mask is None
            assert rec.n_screened == 0
            assert rec.t_screen == 0.0
        assert sum(r.t_screen for r in rep.records) == 0.0
        assert sum(r.t_solve for r in rep.records) > 0.0
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


class TestFailedLevel:
    @pytest.mark.parametrize("walk", [sequential_path, unscreened_path])
    def test_failed_level_reports_the_iterations_it_spent(self, walk):
        # every field of the failed level's one record, the last of the report
        rng = np.random.default_rng(18)
        ds = random_dataset(rng, T=3, d=40, n=15)
        grid = grid_for(ds, points=6)
        cfg = SolverConfig(max_iters=3, kkt_tol=1e-12)
        with pytest.raises(SolverFailure) as ei:
            walk(ds, grid, cfg, keep_weights=True)
        cause = ei.value.__cause__
        assert isinstance(cause, MaxItersExceeded)
        records = ei.value.report.records
        # the walk stops at the level that failed: the head, then level 1
        assert len(records) == 2 and records[0].weights is not None
        last = records[-1]
        assert last.lam == grid.values[1]
        assert last.status == "solver-failure"
        assert last.n_iters == 3
        assert last.kkt_residual == cause.residual and last.kkt_residual > cfg.kkt_tol
        assert math.isnan(last.objective) and math.isnan(last.rejection_ratio)
        assert last.n_truly_inactive == 0
        assert last.weights is None
        assert last.ref_fallback is False
        assert last.t_solve > 0.0
        if walk is unscreened_path:
            assert last.mask is None and last.n_screened == 0 and last.t_screen == 0.0
        else:
            # level 1 screens against the threshold reference
            mask = screen_at(ds, ReferenceSolution.at_lambda_max(ds), grid.values[1])
            assert last.mask.scores.tobytes() == mask.scores.tobytes()
            assert last.mask.lam == last.lam
            assert last.n_screened == mask.n_inactive
            assert last.t_screen > 0.0

    def test_custom_solver_without_a_count_reports_zero(self):
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, T=2, d=20, n=12)

        def failing(sub_ds, lam, warm):
            raise MaxItersExceeded("no certificate", residual=0.5)

        with pytest.raises(SolverFailure) as ei:
            sequential_path(ds, grid_for(ds, points=4), failing)
        last = ei.value.report.records[-1]
        assert (last.n_iters, last.kkt_residual) == (0, 0.5)


class TestScreenTime:
    def test_reference_is_charged_to_the_level_it_serves(self, monkeypatch):
        delay = 0.05
        built = []
        from_primal = ReferenceSolution.from_primal

        def slow(ds_, W, lam, **kwargs):
            built.append(lam)
            time.sleep(delay)
            return from_primal(ds_, W, lam, **kwargs)

        monkeypatch.setattr(mtl21.screening.ReferenceSolution, "from_primal", staticmethod(slow))
        rng = np.random.default_rng(20)
        ds = sparse_dataset(rng, T=3, d=30, n=20)
        grid = grid_for(ds, points=6)
        records = sequential_path(ds, grid, SolverConfig()).records
        # level 1 screens against the threshold reference; level k+1 builds
        # its reference from level k's solve, so none follows the last
        assert built == [r.lam for r in records[1:-1]]
        assert records[1].t_screen < delay
        assert all(r.t_screen >= delay for r in records[2:])
        assert sum(r.t_screen for r in records) < (len(built) + 1) * delay
        plain = unscreened_path(ds, grid, SolverConfig())
        assert len(built) == len(records) - 2
        assert all(r.t_screen == 0.0 for r in plain.records)


def checked_walk(monkeypatch, ds, grid, solver):
    """A screened walk in which every carried bound is held against the
    exact maximum over its ball, and every reference's uncovered features
    against their constraint values at its dual point. A ball carries
    bounds when they are all finite; one that carries nothing has every
    bound +inf and every feature on its rows."""
    seen = {"balls": 0, "carried": 0}
    scores = mtl21.screening.screening_scores
    from_primal = ReferenceSolution.from_primal

    def checked_scores(ds_, ball):
        if not np.isfinite(ball.bound).all():
            assert np.isinf(ball.bound).all()
            assert np.array_equal(ball.rows, np.arange(ds_.d))
        else:
            full = dataclasses.replace(
                ball,
                image=ds_.adjoint(ball.center),
                rows=np.arange(ds_.d),
                bound=np.full(ds_.d, np.inf),
            )
            carried = np.ones(ds_.d, dtype=bool)
            carried[ball.rows] = False
            exact = screening_bounds(ds_, full)
            assert np.all(ball.bound[carried] ** 2 >= exact[carried])
            assert np.all(ball.bound[carried] < 1.0)
            seen["balls"] += 1
            seen["carried"] += int(carried.sum())
        return scores(ds_, ball)

    def checked_reference(ds_, W, lam, **kwargs):
        ref = from_primal(ds_, W, lam, **kwargs)
        uncovered = np.ones(ds_.d, dtype=bool)
        uncovered[ref.rows] = False
        assert np.all(feature_constraint_all(ds_, ref.theta0)[uncovered] < 1.0)
        return ref

    monkeypatch.setattr(mtl21.screening, "screening_scores", checked_scores)
    monkeypatch.setattr(
        mtl21.screening.ReferenceSolution, "from_primal", staticmethod(checked_reference)
    )
    report = sequential_path(ds, grid, solver)
    # every ball after the first carries bounds, and some stay unrefreshed
    assert seen["balls"] == len(grid) - 2 and seen["carried"] > 0
    return report


class TestCarriedBounds:
    @pytest.mark.parametrize("kkt_tol", [1e-6, 1e-3])
    @pytest.mark.parametrize("sizes", [None, (20, 11, 16, 7)], ids=["equal", "unequal"])
    @pytest.mark.parametrize("kind", ["s1", "s2"])
    def test_unrefreshed_bounds_dominate_the_exact_maximum(
        self, monkeypatch, kind, sizes, kkt_tol
    ):
        ds, _ = generate(SynthConfig(kind=kind, tasks=4, n_per_task=20, d=150, seed=21))
        if sizes is not None:
            ds = MultiTaskDataset([(X[:n], y[:n]) for X, y, n in zip(ds.X, ds.y, sizes)])
        report = checked_walk(monkeypatch, ds, grid_for(ds, points=20), SolverConfig(kkt_tol=kkt_tol))
        assert sum(r.n_screened for r in report.records[1:]) > 0

    def test_lying_and_fully_screened_levels(self, monkeypatch):
        # at level 1 the solver returns weights that fit (1 - beta) y exactly
        # and claims a tight certificate: its dual point beta y / lam1 is
        # deep inside the feasible set, far from the optimum, and the walk
        # builds level 2's ball from it like any other; every carried bound
        # and mask stays valid. The last level is made to screen every
        # feature, which below the threshold no valid ball does: it solves
        # nothing and records the zero weights' objective
        rng = np.random.default_rng(22)
        ds = sparse_dataset(rng, T=3, d=60, n=8, k=4)
        lmax, _ = lambda_max(ds)
        grid = LambdaGrid(lmax * np.array([1.0, 0.5, 0.45, 0.4, 0.38, 0.36, 0.34, 0.32, 0.3]))
        beta = 0.1

        def lying_solver(sub_ds, lam, warm):
            if lam != grid.values[1]:
                return fit(sub_ds, lam, SolverConfig(warm_start=warm))
            W = np.column_stack(
                [np.linalg.lstsq(X, (1.0 - beta) * y, rcond=None)[0] for X, y in zip(sub_ds.X, sub_ds.y)]
            )
            return FitResult(
                weights=WeightMatrix(W),
                n_iters=1,
                kkt_residual=1e-12,
                objective=objective(sub_ds, W, lam),
            )

        scores = mtl21.screening.screening_scores

        def none_kept_last(ds_, ball):
            s = scores(ds_, ball)
            return np.zeros_like(s) if ball.lam == grid.values[-1] else s

        monkeypatch.setattr(mtl21.screening, "screening_scores", none_kept_last)
        records = checked_walk(monkeypatch, ds, grid, lying_solver).records
        tight = unscreened_path(
            ds, grid, SolverConfig(kkt_tol=1e-9, max_iters=200000), keep_weights=True
        )
        for a, b in zip(records[:-1], tight.records[:-1], strict=True):
            assert not a.ref_fallback
            assert not (a.mask.inactive & (b.weights.row_norms() > ROW_ZERO_TOL)).any()
        assert records[2].n_screened < ds.d
        assert sum(r.n_screened for r in records[3:-1]) > 0
        last = records[-1]
        assert (last.n_screened, last.n_truly_inactive, last.n_iters) == (ds.d, ds.d, 0)
        # the head takes the same branch, so the two objectives are one value
        assert last.objective == records[0].objective

    def test_bound_just_below_one_is_refreshed(self):
        # a bound a few ulps below 1 may be a rounded value of 1 or more:
        # the forward-error margin sends it to the exact pass
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, T=3, d=30, n=20)
        ref = ReferenceSolution.at_lambda_max(ds)
        lam = 0.7 * ref.lambda0
        ball = dual_ball(ds, ref, lam)
        scores = screening_scores(ds, ball)
        ell = int(np.argmax(np.where(scores < 1.0, scores, -1.0)))
        assert 0.0 < scores[ell] < 1.0
        u = np.sqrt(scores)
        u[ell] = np.nextafter(np.nextafter(1.0, 0.0), 0.0)
        # the same ball again: no move, so only the margin can lift it
        again = dual_ball(ds, ref, lam, ScoreBounds(ball.center, ball.radius, u))
        assert ell in again.rows
        assert screening_scores(ds, again)[ell] == scores[ell]
