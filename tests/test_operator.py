"""The stacked forward/adjoint operator on tasks of unequal size.

Every reference below is a per-task loop over ``ds.X[t]`` and the length-N
dual vector split at the task offsets, so a padded row that leaks into a
product or a dual vector shows up as a mismatch.
"""

import numpy as np

from mtl21.core import DualPoint, LambdaGrid, MultiTaskDataset
from mtl21.dual import (
    DualBall,
    dual_from_primal,
    feature_constraint_all,
    lambda_max,
)
from mtl21.qp1qc import Qp1qcInstance, screening_scores, solve
from mtl21.screening import ROW_ZERO_TOL, sequential_path, unscreened_path
from mtl21.solver import SolverConfig, fit, kkt_residual

SIZES = (3, 5, 2, 8)


def uneven_dataset(rng, d=7, sizes=SIZES):
    return MultiTaskDataset(
        [(rng.standard_normal((n, d)), rng.standard_normal(n)) for n in sizes]
    )


def blocks(ds, theta):
    ends = np.cumsum(ds.n_per_task)
    return np.split(np.asarray(theta), ends[:-1])


def assert_rel(a, b, tol):
    assert np.linalg.norm(np.asarray(a) - np.asarray(b)) <= tol * np.linalg.norm(b)


class TestStack:
    def test_layout_and_padding(self):
        ds = uneven_dataset(np.random.default_rng(0))
        assert ds.X_stack.shape == (4, 8, 7)
        assert ds.y_stack.shape == (4, 8)
        for t, n in enumerate(SIZES):
            assert ds.X[t].shape == (n, 7)
            assert np.shares_memory(ds.X[t], ds.X_stack)
            assert not ds.X[t].flags.writeable
            assert np.all(ds.X_stack[t, n:] == 0.0)
            assert np.all(ds.y_stack[t, n:] == 0.0)

    def test_pad_round_trip(self):
        rng = np.random.default_rng(1)
        ds = uneven_dataset(rng)
        theta = rng.standard_normal(ds.N)
        R = ds.pad(theta)
        for t, (n, b) in enumerate(zip(SIZES, blocks(ds, theta))):
            assert np.array_equal(R[t, :n], b)
            assert np.all(R[t, n:] == 0.0)
        assert np.array_equal(ds.unpad(R), theta)
        assert np.array_equal(ds.pad(DualPoint(theta, ds.n_per_task)), R)


class TestProducts:
    def test_forward_matches_loop(self):
        rng = np.random.default_rng(2)
        ds = uneven_dataset(rng)
        W = rng.standard_normal((ds.d, ds.T))
        F = ds.forward(W)
        for t, n in enumerate(SIZES):
            assert_rel(F[t, :n], ds.X[t] @ W[:, t], 1e-14)
            assert np.all(F[t, n:] == 0.0)

    def test_adjoint_matches_loop(self):
        rng = np.random.default_rng(3)
        ds = uneven_dataset(rng)
        theta = rng.standard_normal(ds.N)
        M = ds.adjoint(ds.pad(theta))
        assert M.shape == (ds.d, ds.T)
        for t, b in enumerate(blocks(ds, theta)):
            assert_rel(M[:, t], ds.X[t].T @ b, 1e-14)


class TestCallers:
    def test_dual_from_primal(self):
        rng = np.random.default_rng(4)
        ds = uneven_dataset(rng)
        W = rng.standard_normal((ds.d, ds.T))
        lam = 0.7
        th = dual_from_primal(ds, W, lam)
        assert th.block_sizes == SIZES
        for t, b in enumerate(blocks(ds, th.theta)):
            assert_rel(b, (ds.y[t] - ds.X[t] @ W[:, t]) / lam, 1e-14)

    def test_feature_constraint_all(self):
        rng = np.random.default_rng(5)
        ds = uneven_dataset(rng)
        theta = rng.standard_normal(ds.N)
        expected = sum((X.T @ b) ** 2 for X, b in zip(ds.X, blocks(ds, theta)))
        assert_rel(feature_constraint_all(ds, theta), expected, 1e-14)

    def test_kkt_residual(self):
        rng = np.random.default_rng(6)
        ds = uneven_dataset(rng, d=12)
        lam = 0.4 * lambda_max(ds)[0]
        # a loose fit leaves both zero and nonzero rows with visible residuals
        W = fit(ds, lam, SolverConfig(kkt_tol=1e-2)).weights.values
        M = np.column_stack(
            [X.T @ (y - X @ W[:, t]) / lam for t, (X, y) in enumerate(zip(ds.X, ds.y))]
        )
        worst = 0.0
        for m, w in zip(M, W):
            nw = np.linalg.norm(w)
            if nw > 0:
                worst = max(worst, np.linalg.norm(m - w / nw))
            else:
                worst = max(worst, np.linalg.norm(m) - 1.0)
        assert (np.linalg.norm(W, axis=1) == 0).any()
        assert abs(kkt_residual(ds, W, lam) - worst) <= 1e-12 * max(worst, 1.0)

    def test_screening_scores(self):
        rng = np.random.default_rng(7)
        ds = uneven_dataset(rng, d=25)
        ball = DualBall(
            center=rng.standard_normal(ds.N) * 0.2, radius=0.05, lam=1.0, lambda0=2.0
        )
        centers = blocks(ds, ball.center)
        scores = screening_scores(ds, ball)
        settled = 0
        for ell in range(ds.d):
            a = np.array([X[:, ell] @ X[:, ell] for X in ds.X])
            c = np.array([X[:, ell] @ o for X, o in zip(ds.X, centers)])
            coarse = (np.linalg.norm(c) + np.sqrt(a.max()) * ball.radius) ** 2
            if coarse < 1.0:
                settled += 1
                expected = coarse
            else:
                inst = Qp1qcInstance(a=a, b=np.sqrt(a) * np.abs(c), c=c, delta=ball.radius)
                expected = solve(inst).s_value
            assert abs(scores[ell] - expected) <= 1e-12 * max(expected, 1.0)
        assert 0 < settled < ds.d


def test_paths_agree_on_unequal_sizes():
    rng = np.random.default_rng(8)
    d, k = 40, 5
    support = rng.choice(d, size=k, replace=False)
    tasks = []
    for n in (12, 20, 9, 25):
        X = rng.standard_normal((n, d))
        w = np.zeros(d)
        w[support] = rng.standard_normal(k)
        tasks.append((X, X @ w + 0.01 * rng.standard_normal(n)))
    ds = MultiTaskDataset(tasks)
    grid = LambdaGrid.log_spaced(lambda_max(ds)[0], 12, 0.05)
    cfg = SolverConfig(kkt_tol=1e-10, max_iters=100000)
    scr = sequential_path(ds, grid, cfg)
    plain = unscreened_path(ds, grid, cfg, keep_weights=True)
    assert sum(r.n_screened for r in scr.records[1:]) > 0
    for a, b in zip(scr.records, plain.records):
        assert a.lam == b.lam
        assert abs(a.objective - b.objective) <= 1e-8 * max(1.0, abs(b.objective))
        active = b.weights.row_norms() > ROW_ZERO_TOL
        assert not (a.mask.inactive & active).any()
