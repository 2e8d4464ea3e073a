"""The stacked forward/adjoint operator on tasks of unequal size, and the
budget of products the solver and the path walk make with it.

Every reference below is a per-task loop over ``ds.X[t]`` and the real
entries of each task's row of a (T, n_max) dual vector, so a padded entry
that leaks into a product or a dual vector shows up as a mismatch. The carried adjoint images
of references and balls are checked against fresh products on the rows they
form, and a walk that carries score bounds against one that scores every
ball on every feature.
"""

import dataclasses

import numpy as np
import pytest

import mtl21.screening
from mtl21.core import LambdaGrid, MultiTaskDataset, WeightMatrix
from mtl21.dual import (
    DualBall,
    ReferenceSolution,
    ScoreBounds,
    dual_ball,
    dual_from_primal,
    feature_constraint_all,
    lambda_max,
)
from mtl21.qp1qc import screening_scores, solve_batch
from mtl21.screening import (
    ROW_ZERO_TOL,
    screen_at,
    sequential_path,
    unscreened_path,
)
from mtl21.solver import FitResult, SolverConfig, fit, kkt_residual, objective
from mtl21.synth import SynthConfig, generate

SIZES = (3, 5, 2, 8)


def uneven_dataset(rng, d=7, sizes=SIZES):
    return MultiTaskDataset(
        [(rng.standard_normal((n, d)), rng.standard_normal(n)) for n in sizes]
    )


def random_rows(ds, rng):
    """N standard normals laid task by task into the (T, n_max) dual layout,
    zero on the padding."""
    R = np.zeros(ds.y_stack.shape)
    v = rng.standard_normal(ds.N)
    for t, b in enumerate(np.split(v, np.cumsum(ds.n_per_task)[:-1])):
        R[t, : len(b)] = b
    return R


def blocks(ds, R):
    """The real entries of each task's row of (T, n_max) dual rows."""
    return [R[t, :n] for t, n in enumerate(ds.n_per_task)]


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
        theta = random_rows(ds, rng)
        M = ds.adjoint(theta)
        assert M.shape == (ds.d, ds.T)
        for t, b in enumerate(blocks(ds, theta)):
            assert_rel(M[:, t], ds.X[t].T @ b, 1e-14)

    @pytest.mark.parametrize("n_rows", [0, 3, 12], ids=["none", "gathered", "batched"])
    def test_adjoint_on_given_rows(self, n_rows):
        # up to a quarter of d rows are gathered, more take the full product;
        # both give those rows of the full image, in the order given
        rng = np.random.default_rng(11)
        ds = uneven_dataset(rng, d=20)
        rows = rng.choice(ds.d, size=n_rows, replace=False)
        R = random_rows(ds, rng)
        image = ds.adjoint(R, rows)
        assert image.shape == (n_rows, ds.T)
        assert np.abs(image - ds.adjoint(R)[rows]).max(initial=0.0) <= 1e-14 * np.abs(R).sum()


class TestCallers:
    def test_dual_from_primal(self):
        rng = np.random.default_rng(4)
        ds = uneven_dataset(rng)
        W = rng.standard_normal((ds.d, ds.T))
        lam = 0.7
        th = dual_from_primal(ds, W, lam)
        for t, b in enumerate(blocks(ds, th)):
            assert_rel(b, (ds.y[t] - ds.X[t] @ W[:, t]) / lam, 1e-14)

    def test_dual_points_are_read_only_rows_with_zero_padding(self):
        rng = np.random.default_rng(12)
        ds = uneven_dataset(rng, d=12)
        lmax, _ = lambda_max(ds)
        res = fit(ds, 0.5 * lmax, SolverConfig(kkt_tol=1e-8))
        W = res.weights
        ref = ReferenceSolution.from_primal(ds, W, 0.5 * lmax)
        threshold = ReferenceSolution.at_lambda_max(ds)
        points = {
            "dual_from_primal": dual_from_primal(ds, W, 0.5 * lmax),
            "from_primal": ref.theta0,
            "from_primal of a solve": ReferenceSolution.from_primal(
                ds, W, 0.5 * lmax, solve=res
            ).theta0,
            "at_lambda_max": threshold.theta0,
            "dual_ball": dual_ball(ds, ref, 0.3 * lmax).center,
            "dual_ball at the threshold": dual_ball(ds, threshold, 0.3 * lmax).center,
        }
        for name, theta in points.items():
            assert theta.shape == ds.y_stack.shape, name
            assert not theta.flags.writeable, name
            for t, n in enumerate(SIZES):
                assert np.all(theta[t, n:] == 0.0), name

    def test_feature_constraint_all(self):
        rng = np.random.default_rng(5)
        ds = uneven_dataset(rng)
        theta = random_rows(ds, rng)
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
        center = random_rows(ds, rng) * 0.2
        ball = DualBall(
            center=center,
            radius=0.25,
            lam=1.0,
            lambda0=2.0,
            image=ds.adjoint(center),
            rows=np.arange(ds.d),
            bound=np.full(ds.d, np.inf),
        )
        centers = blocks(ds, ball.center)
        scores = screening_scores(ds, ball)
        delta = ball.radius
        bracketed = exact = tighter = 0
        for ell in range(ds.d):
            a = np.array([X[:, ell] @ X[:, ell] for X in ds.X])
            c = np.array([X[:, ell] @ o for X, o in zip(ds.X, centers)])
            b = np.sqrt(a) * np.abs(c)
            coarse = (np.linalg.norm(c) + np.sqrt(a.max()) * delta) ** 2
            q = np.linalg.norm(b)
            lower = c @ c + 2 * delta * q + delta**2 * (a @ b**2) / q**2
            alpha = 2 * a.max() + 2 * q / delta
            upper = c @ c + 0.5 * alpha * delta**2 + np.sum(2 * b**2 / (alpha - 2 * a))
            # the bracket's upper end never exceeds the triangle-inequality
            # bound, and sometimes settles a feature that bound would not
            assert upper <= coarse * (1.0 + 1e-12)
            tighter += upper < 1.0 <= coarse
            if lower > 1.0 + 1e-9 or upper < 1.0 - 1e-9:
                bracketed += 1
                expected = upper
            else:
                exact += 1
                expected = solve_batch(a[None], b[None], c[None], delta)[0][0]
            assert abs(scores[ell] - expected) <= 1e-12 * max(expected, 1.0)
        assert 0 < bracketed < ds.d
        assert exact > 0 and tighter > 0


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
    """Counts the calls of ``forward`` and ``adjoint`` on one dataset and
    logs the rows each call was given (None for every row). By the
    operator's switch, a call given at most a quarter of d rows reads just
    their columns, and any other call reads all d."""

    def __init__(self, ds):
        self.ds = ds
        self.calls = {"forward": 0, "adjoint": 0}
        self.rows = {"forward": [], "adjoint": []}
        for name in self.calls:
            setattr(ds, name, self._counted(name, getattr(ds, name)))

    def _counted(self, name, fn):
        def counted(*args):
            self.calls[name] += 1
            rows = args[1] if len(args) > 1 else None
            self.rows[name].append(None if rows is None else np.array(rows))
            return fn(*args)

        return counted


class TestProductBudget:
    def test_fit_makes_one_adjoint_per_iteration(self, monkeypatch):
        ds, _ = generate(SynthConfig(kind="s1", tasks=4, n_per_task=20, d=80, seed=5))
        lam = 0.2 * lambda_max(ds)[0]
        count = Counter(ds)
        blocks = []  # a counter on each block of live rows fit builds
        columns = ds._columns

        def counted_columns(rows):
            blocks.append(Counter(columns(rows)))
            return blocks[-1].ds

        monkeypatch.setattr(ds, "_columns", counted_columns)
        res = fit(ds, lam, SolverConfig(kkt_tol=1e-8))
        assert res.n_iters > 10 and blocks
        # the start point's full-width gradient, one per accepted iterate on
        # its live block or full-width, and the full-width certificate
        full = sum(rows is None for rows in count.rows["adjoint"])
        assert full + sum(b.calls["adjoint"] for b in blocks) == res.n_iters + 2

    @pytest.mark.parametrize("sizes", [(6, 6, 6, 6), SIZES], ids=["equal", "unequal"])
    def test_threshold_reference_makes_one_adjoint(self, sizes):
        ds = uneven_dataset(np.random.default_rng(3), d=30, sizes=sizes)
        lambda_max(ds)  # caches X'y, as the walk does before its head
        count = Counter(ds)
        lmax, _ = lambda_max(ds)
        balls = [
            dual_ball(ds, ReferenceSolution.at_lambda_max(ds), f * lmax) for f in (0.8, 0.5)
        ]
        # the witness normal is one forward product and its image the one
        # adjoint, once per dataset however many references and balls use them
        assert count.calls == {"forward": 1, "adjoint": 1}
        for ball in balls:
            assert_image(ds, ball.image, ball.center, ball.rows)

    def test_basic_dpc_makes_no_product_after_the_reference(self):
        ds, _ = generate(SynthConfig(kind="s1", tasks=4, n_per_task=20, d=400, seed=5))
        grid = LambdaGrid.log_spaced(lambda_max(ds)[0], 20, 0.05)
        count = Counter(ds)
        ref = ReferenceSolution.at_lambda_max(ds)
        masks = [screen_at(ds, ref, lam) for lam in grid.values[1:]]
        # every ball takes its rows from the reference and the cached images
        assert count.calls == {"forward": 1, "adjoint": 1}
        assert len(masks) == 19 and sum(m.n_inactive for m in masks) > 0

    def test_screened_walk_reads_refreshed_and_kept_columns(self, monkeypatch):
        ds, _ = generate(SynthConfig(kind="s1", tasks=4, n_per_task=20, d=2000, seed=4))
        grid = LambdaGrid.log_spaced(lambda_max(ds)[0], 40, 0.05)
        levels = []  # per sequential reference: its rows, its ball's, the kept
        from_primal = ReferenceSolution.from_primal

        def logged_from_primal(ds_, W, lam, **kwargs):
            start = len(count.rows["adjoint"])
            ref = from_primal(ds_, W, lam, **kwargs)
            levels.append({"ref": ref.rows, "kept": kwargs["support"], "start": start})
            return ref

        def logged_ball(ds_, ref, lam, bounds=None):
            ball = dual_ball(ds_, ref, lam, bounds)
            if levels:
                levels[-1]["ball"] = ball.rows
            return ball

        lambda_max(ds)
        count = Counter(ds)
        monkeypatch.setattr(
            mtl21.screening.ReferenceSolution, "from_primal", staticmethod(logged_from_primal)
        )
        monkeypatch.setattr(mtl21.screening, "dual_ball", logged_ball)
        report = sequential_path(ds, grid, SolverConfig())
        # every level screens something, so fit only ever sees copied subsets
        assert all(r.n_screened > 0 for r in report.records[1:])
        # the threshold reference's witness normal is the one full-width
        # product; a sequential dual point and its kept rows come from the
        # solve's last residual and gradient
        assert count.calls["forward"] == 1 and count.rows["adjoint"][0] is None
        assert len(levels) == len(report.records) - 2
        small = 0
        for k, level in enumerate(levels):
            kept = level["kept"]
            assert np.array_equal(kept, np.flatnonzero(~report.records[1 + k].mask.inactive))
            assert np.isin(kept, level["ref"]).all()
            # the reference's refreshed columns, then its ball's missing ones,
            # each read once, and no kept column
            end = levels[k + 1]["start"] if k + 1 < len(levels) else None
            read = count.rows["adjoint"][level["start"]:end]
            assert all(rows is not None for rows in read)
            joined = np.sort(np.concatenate(read)) if read else np.zeros(0, dtype=int)
            refreshed = np.union1d(level["ref"], level["ball"])
            assert np.array_equal(joined, np.setdiff1d(refreshed, kept))
            if 4 * len(refreshed) <= ds.d:
                # so no adjoint of this level reads all d columns
                small += 1
                assert all(4 * len(rows) <= ds.d for rows in read)
        assert small > len(levels) // 2


def lying_solver(lam_lie, beta=0.1):
    """A solver that at ``lam_lie`` returns the least-squares fit of
    (1 - beta) y and claims a tight certificate, and solves elsewhere.

    The lie leaves a dual point near beta y / lam_lie, deep inside the
    feasible set, far from the optimum there, with weights of large l2,1
    norm; the next ball is built from it all the same.
    """

    def solve_or_lie(sub_ds, lam, warm):
        if lam != lam_lie:
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

    return solve_or_lie


def assert_image(ds, image, v, rows=None):
    fresh = ds.adjoint(v)
    if rows is not None:
        fresh = fresh[rows]
    assert image.shape == fresh.shape
    assert np.abs(image - fresh).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(fresh).max(initial=0.0))


@pytest.mark.parametrize("sizes", [(6, 6, 6, 6), SIZES], ids=["equal", "unequal"])
def test_carried_images_match_fresh_products(sizes):
    rng = np.random.default_rng(10)
    ds = uneven_dataset(rng, d=30, sizes=sizes)
    lmax, _ = lambda_max(ds)
    W0 = fit(ds, 0.6 * lmax, SolverConfig(kkt_tol=1e-8)).weights
    seq = ReferenceSolution.from_primal(ds, W0, 0.6 * lmax)
    # score bounds of a ball at the reference level, carried to the next one
    first = dual_ball(ds, ReferenceSolution.at_lambda_max(ds), 0.6 * lmax)
    bounds = ScoreBounds(first.center, first.radius, np.sqrt(screening_scores(ds, first)))
    support = np.flatnonzero(W0.values.any(axis=1))
    partial = ReferenceSolution.from_primal(
        ds, W0.values[support], 0.6 * lmax, bounds=bounds, support=support
    )
    assert len(partial.rows) < ds.d and np.array_equal(partial.theta0, seq.theta0)
    # a solve on the kept columns, whose last products give the dual point
    # and the kept rows of its image
    kept = np.flatnonzero(screening_scores(ds, first) >= 1.0)
    sub = MultiTaskDataset([(X[:, kept], y) for X, y in zip(ds.X, ds.y)])
    solve = fit(sub, 0.6 * lmax, SolverConfig(kkt_tol=1e-8))
    solved = ReferenceSolution.from_primal(
        ds, solve.weights.values, 0.6 * lmax, bounds=bounds, support=kept, solve=solve
    )
    W_full = np.zeros((ds.d, ds.T))
    W_full[kept] = solve.weights.values
    assert_rel(solved.theta0, dual_from_primal(ds, W_full, 0.6 * lmax), 1e-12)
    assert np.isin(kept, solved.rows).all()

    refs = {
        "threshold": ReferenceSolution.at_lambda_max(ds),
        "zero weights at the threshold": ReferenceSolution.from_primal(
            ds, np.zeros((ds.d, ds.T)), lmax
        ),
        "sequential": seq,
        "carried": partial,
        "from a solve": solved,
        # weights halved: a dual point outside the feasible set, which the
        # ball scales back into it
        "halved": ReferenceSolution.from_primal(ds, 0.5 * W0.values, 0.6 * lmax),
    }
    assert feature_constraint_all(ds, refs["halved"].theta0).max() > 1.0
    for name, ref in refs.items():
        assert_image(ds, ref.image, ref.theta0, ref.rows)
        for carried in (None, bounds):
            ball = dual_ball(ds, ref, 0.4 * lmax, carried)
            # the radius is below the uncut one, so the center's image
            # holds a nonzero multiple of the normal's
            uncut = dual_ball(ds, dataclasses.replace(ref, offset=np.inf), 0.4 * lmax, carried)
            assert ball.radius < uncut.radius * (1.0 - 1e-9), name
            assert np.isfinite(ball.bound).all() == (carried is not None)
            if carried is None:
                assert np.array_equal(ball.rows, np.arange(ds.d))
            assert_image(ds, ball.image, ball.center, ball.rows)


def test_s2_walk_masks_match_fresh_images(monkeypatch):
    ds, _ = generate(SynthConfig(kind="s2", tasks=4, n_per_task=20, d=150, seed=6))
    grid = LambdaGrid.log_spaced(lambda_max(ds)[0], 15, 0.05)
    scored = []

    def scores_both_ways(ds, ball):
        carried = screening_scores(ds, ball)
        assert_image(ds, ball.image, ball.center, ball.rows)
        fresh_ball = dataclasses.replace(
            ball,
            image=ds.adjoint(ball.center),
            rows=np.arange(ds.d),
            bound=np.full(ds.d, np.inf),
        )
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


@pytest.mark.parametrize(
    "kind,sizes,lie",
    [("s1", None, False), ("s2", SIZES, False), ("s1", None, True)],
    ids=["s1-equal", "s2-unequal", "s1-lying"],
)
def test_carried_walk_matches_full_pass(monkeypatch, kind, sizes, lie):
    # the same walk with every reference and ball formed on every feature,
    # and so every ball scored afresh on every feature, as before bounds were
    # carried: the masks, references and solves must not change. A lying
    # solver's level is a reference like any other: no record falls back,
    # and every mask stays safe against 1e-9 solves.
    ds, _ = generate(SynthConfig(kind=kind, tasks=4, n_per_task=20, d=200, seed=7))
    if sizes is not None:
        ds = MultiTaskDataset([(X[:n], y[:n]) for X, y, n in zip(ds.X, ds.y, (20, 13, 17, 9))])
    grid = LambdaGrid.log_spaced(lambda_max(ds)[0], 25, 0.02)
    solver = lying_solver(grid.values[1]) if lie else SolverConfig()
    carried = sequential_path(ds, grid, solver)
    assert not any(r.ref_fallback for r in carried.records)
    from_primal = ReferenceSolution.from_primal

    def full_reference(ds_, W, lam, bounds=None, **kwargs):
        return from_primal(ds_, W, lam, **kwargs)

    monkeypatch.setattr(
        mtl21.screening.ReferenceSolution, "from_primal", staticmethod(full_reference)
    )
    monkeypatch.setattr(
        mtl21.screening, "dual_ball", lambda ds_, ref, lam, bounds=None: dual_ball(ds_, ref, lam)
    )
    full = sequential_path(ds, grid, solver)
    assert sum(r.n_screened for r in carried.records[1:]) > 0
    for a, b in zip(carried.records, full.records, strict=True):
        assert np.array_equal(a.mask.inactive, b.mask.inactive)
        assert (a.n_iters, a.objective) == (b.n_iters, b.objective)
    if lie:
        tight = unscreened_path(ds, grid, SolverConfig(kkt_tol=1e-9), keep_weights=True)
        for a, b in zip(carried.records, tight.records):
            assert not (a.mask.inactive & (b.weights.row_norms() > ROW_ZERO_TOL)).any()
