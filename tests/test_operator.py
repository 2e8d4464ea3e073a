"""The stacked forward/adjoint operator on tasks of unequal size, and the
budget of products the solver and the path walk make with it.

Every reference below is a per-task loop over ``ds.X[t]`` and the length-N
dual vector split at the task offsets, so a padded row that leaks into a
product or a dual vector shows up as a mismatch. The carried adjoint images
of references and balls are checked against fresh products.
"""

import dataclasses

import numpy as np
import pytest

import mtl21.screening
from mtl21.core import DualPoint, LambdaGrid, MultiTaskDataset
from mtl21.dual import (
    DualBall,
    ReferenceSolution,
    dual_ball,
    dual_from_primal,
    feature_constraint_all,
    lambda_max,
)
from mtl21.qp1qc import Qp1qcInstance, screening_scores, solve
from mtl21.screening import (
    ROW_ZERO_TOL,
    _boundary_reference,
    sequential_path,
    unscreened_path,
)
from mtl21.solver import SolverConfig, fit, kkt_residual
from mtl21.synth import SynthConfig, generate

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

    def test_forward_of_row_sparse_weights(self):
        # few nonzero rows take the column-gathering product; none gives zeros
        rng = np.random.default_rng(9)
        ds = uneven_dataset(rng, d=20)
        W = np.zeros((ds.d, ds.T))
        assert np.array_equal(ds.forward(W), np.zeros((ds.T, max(SIZES))))
        W[[3, 11]] = rng.standard_normal((2, ds.T))
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
        center = rng.standard_normal(ds.N) * 0.2
        ball = DualBall(
            center=center,
            radius=0.05,
            lam=1.0,
            lambda0=2.0,
            image=ds.adjoint(ds.pad(center)),
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


class Counter:
    """Counts the calls of ``forward`` and ``adjoint`` on one dataset."""

    def __init__(self, ds):
        self.calls = {"forward": 0, "adjoint": 0}
        for name in self.calls:
            setattr(ds, name, self._counted(name, getattr(ds, name)))

    def _counted(self, name, fn):
        def counted(*args):
            self.calls[name] += 1
            return fn(*args)

        return counted


class TestProductBudget:
    def test_fit_makes_one_adjoint_per_iteration(self):
        ds, _ = generate(SynthConfig(kind="s1", tasks=4, n_per_task=20, d=80, seed=5))
        lam = 0.2 * lambda_max(ds)[0]
        count = Counter(ds)
        res = fit(ds, lam, SolverConfig(kkt_tol=1e-8))
        assert res.n_iters > 10
        # the start point's gradient, then one per accepted iterate
        assert count.calls["adjoint"] == res.n_iters + 1

    @pytest.mark.parametrize("sizes", [(6, 6, 6, 6), SIZES], ids=["equal", "unequal"])
    def test_threshold_reference_makes_one_adjoint(self, sizes):
        ds = uneven_dataset(np.random.default_rng(3), d=30, sizes=sizes)
        lambda_max(ds)  # caches X'y, as the walk does before its head
        count = Counter(ds)
        ref = ReferenceSolution.at_lambda_max(ds)
        # the witness normal is one forward product; its image the one adjoint
        assert count.calls == {"forward": 1, "adjoint": 1}
        assert_image(ds, ref.n0_image, ref.n0)

    def test_screened_walk_makes_one_full_adjoint_per_level(self):
        ds, _ = generate(SynthConfig(kind="s1", tasks=5, n_per_task=30, d=300, seed=4))
        grid = LambdaGrid.log_spaced(lambda_max(ds)[0], 20, 0.05)
        count = Counter(ds)
        ReferenceSolution.at_lambda_max(ds)
        head = count.calls["adjoint"]
        count.calls["adjoint"] = 0
        report = sequential_path(ds, grid, SolverConfig())
        # every level screens something, so fit only ever sees copied subsets
        assert all(r.n_screened > 0 for r in report.records[1:])
        # the threshold reference once, then one per sequential reference:
        # every level but the head and the last
        assert count.calls["adjoint"] == head + len(report.records) - 2


def assert_image(ds, image, v):
    fresh = ds.adjoint(ds.pad(v))
    assert image.shape == fresh.shape
    assert np.abs(image - fresh).max() <= 1e-12 * max(1.0, np.abs(fresh).max())


@pytest.mark.parametrize("sizes", [(6, 6, 6, 6), SIZES], ids=["equal", "unequal"])
def test_carried_images_match_fresh_products(sizes):
    rng = np.random.default_rng(10)
    ds = uneven_dataset(rng, d=30, sizes=sizes)
    lmax, _ = lambda_max(ds)
    W0 = fit(ds, 0.6 * lmax, SolverConfig(kkt_tol=1e-8)).weights
    seq = ReferenceSolution.from_primal(ds, W0, 0.6 * lmax)
    refs = {
        "threshold": ReferenceSolution.at_lambda_max(ds),
        "zero weights at the threshold": ReferenceSolution.from_primal(
            ds, np.zeros((ds.d, ds.T)), lmax
        ),
        "sequential": seq,
        "boundary": _boundary_reference(ds, seq, 0.25),
    }
    for name, ref in refs.items():
        assert ref.n0 is not None, name
        assert_image(ds, ref.image, ref.theta0)
        assert_image(ds, ref.n0_image, ref.n0)
        ball = dual_ball(ds, ref, 0.4 * lmax)
        assert_image(ds, ball.image, ball.center)


def test_s2_walk_masks_match_fresh_images(monkeypatch):
    ds, _ = generate(SynthConfig(kind="s2", tasks=4, n_per_task=20, d=150, seed=6))
    grid = LambdaGrid.log_spaced(lambda_max(ds)[0], 15, 0.05)
    scored = []

    def scores_both_ways(ds, ball):
        carried = screening_scores(ds, ball)
        fresh_ball = dataclasses.replace(ball, image=ds.adjoint(ds.pad(ball.center)))
        fresh = screening_scores(ds, fresh_ball)
        assert np.array_equal(carried < 1.0, fresh < 1.0)
        scored.append(int((carried < 1.0).sum()))
        return carried

    monkeypatch.setattr(mtl21.screening, "screening_scores", scores_both_ways)
    report = sequential_path(ds, grid, SolverConfig())
    assert len(scored) == len(grid) - 1 and sum(scored) > 0
    tight = unscreened_path(ds, grid, SolverConfig(kkt_tol=1e-9), keep_weights=True)
    for a, b in zip(report.records, tight.records):
        active = b.weights.row_norms() > ROW_ZERO_TOL
        assert not (a.mask.inactive & active).any()
