import math

import numpy as np
import pytest

from mtl21.core import MultiTaskDataset
from mtl21.dual import DualBall, feature_constraint, lambda_max
from mtl21.errors import DimensionMismatch, NoConvergence
from mtl21.qp1qc import (
    BRACKET_RTOL,
    Qp1qcInstance,
    _bracket,
    screening_scores,
    solve,
    solve_batch,
)

from exact_scores import build_instances, screening_bounds

# the Newton example frozen from a high-precision bisection run:
# a=(1,4), b=(1,1), delta=0.1 has its multiplier at this root
FROZEN_ALPHA = 33.750865384478814


def secular_gap(inst, alpha):
    """1/||u(alpha)|| - 1/delta, the root function of the Newton branch."""
    den = alpha - 2.0 * inst.a
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(inst.b == 0.0, 0.0, 2.0 * inst.b / np.where(den == 0.0, 1.0, den))
    nu = float(np.linalg.norm(u))
    if nu == 0.0:
        return float("inf")
    return 1.0 / nu - 1.0 / inst.delta


def instance_of(ds, ball, ell):
    """Reduced data of one feature: row ``ell`` of the batched build."""
    A, B, C, delta = build_instances(ds, ball)
    return Qp1qcInstance(a=A[ell], b=B[ell], c=C[ell], delta=delta)


def sphere_max_oracle(inst, n_samples, rng):
    """Boundary sampling lower bound on the maximum; exact for T=1."""
    a, b, c, delta = inst.a, inst.b, inst.c, inst.delta
    csum = float(np.dot(c, c))
    if len(a) == 1:
        vals = []
        for u in (delta, -delta):
            vals.append(u * u * a[0] + 2.0 * u * b[0] + csum)
        return max(vals)
    U = rng.standard_normal((n_samples, len(a)))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    U *= delta
    vals = (U * U) @ a + 2.0 * U @ b + csum
    return float(vals.max())


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            Qp1qcInstance(a=np.array([-1.0]), b=np.array([0.0]), c=np.array([0.0]), delta=1.0)
        with pytest.raises(ValueError):
            Qp1qcInstance(a=np.array([1.0]), b=np.array([-0.5]), c=np.array([0.5]), delta=1.0)
        with pytest.raises(ValueError):
            # b must vanish with a: a zero column cannot carry weight
            Qp1qcInstance(a=np.array([0.0]), b=np.array([1.0]), c=np.array([0.0]), delta=1.0)
        with pytest.raises(ValueError):
            Qp1qcInstance(a=np.array([1.0]), b=np.array([1.0]), c=np.array([1.0]), delta=-0.1)

    def test_rho_and_top_set(self):
        inst = Qp1qcInstance(
            a=np.array([1.0, 4.0, 4.0]),
            b=np.array([1.0, 0.0, 0.0]),
            c=np.array([1.0, 0.0, 0.0]),
            delta=0.5,
        )
        assert inst.rho == 4.0
        np.testing.assert_array_equal(inst.top_set, [False, True, True])


class TestBuildInstance:
    def ball(self, ds, center, radius):
        class _B:
            pass

        b = _B()
        b.center = np.asarray(center, dtype=float)
        b.radius = float(radius)
        b.image = ds.adjoint(b.center)
        b.rows = np.arange(ds.d)
        return b

    def test_hand_value(self):
        ds = MultiTaskDataset([(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))])
        inst = instance_of(ds, self.ball(ds, [[0.5, 7.0]], 0.3), 0)
        np.testing.assert_allclose(inst.a, [1.0])
        np.testing.assert_allclose(inst.b, [0.5])
        np.testing.assert_allclose(inst.c, [0.5])
        assert inst.delta == 0.3

    def test_zero_feature(self):
        ds = MultiTaskDataset([(np.array([[0.0, 1.0], [0.0, 2.0]]), np.zeros(2))])
        inst = instance_of(ds, self.ball(ds, [[0.5, 7.0]], 0.3), 0)
        assert inst.a[0] == 0.0
        assert inst.b[0] == 0.0
        assert inst.c[0] == 0.0

    def test_batch_matches_per_feature(self):
        rng = np.random.default_rng(17)
        ds = MultiTaskDataset(
            [(rng.standard_normal((5, 6)), rng.standard_normal(5)) for _ in range(3)]
        )
        center = rng.standard_normal(ds.y_stack.shape)
        A, B, C, delta = build_instances(ds, self.ball(ds, center, 0.7))
        assert A.shape == B.shape == C.shape == (6, 3)
        assert delta == 0.7
        for ell in range(6):
            inst = Qp1qcInstance(a=A[ell], b=B[ell], c=C[ell], delta=delta)
            # direct dot-product recomputation, no shared code path
            for t in range(3):
                col = ds.X[t][:, ell]
                o_t = center[t]
                assert math.isclose(inst.a[t], float(col @ col), rel_tol=1e-14)
                assert math.isclose(inst.c[t], float(col @ o_t), rel_tol=1e-12, abs_tol=1e-14)
                assert math.isclose(
                    inst.b[t],
                    math.sqrt(float(col @ col)) * abs(float(col @ o_t)),
                    rel_tol=1e-12,
                    abs_tol=1e-14,
                )


class TestSolve:
    def test_frozen_newton_example(self):
        inst = Qp1qcInstance(
            a=np.array([1.0, 4.0]),
            b=np.array([1.0, 1.0]),
            c=np.array([1.0, 1.0]),
            delta=0.1,
        )
        sol = solve(inst)
        assert sol.branch == "newton"
        assert sol.converged
        assert math.isclose(sol.alpha_star, FROZEN_ALPHA, rel_tol=1e-10)
        # the multiplier sits between the coarse bounds of the bracketing run
        assert 33.7 < sol.alpha_star < 33.81
        # root certificate: the secular function changes sign around alpha*
        delta_a = 1e-6 * sol.alpha_star
        assert secular_gap(inst, sol.alpha_star - delta_a) < 0.0
        assert secular_gap(inst, sol.alpha_star + delta_a) > 0.0

    def test_t1_closed_value(self):
        inst = Qp1qcInstance(
            a=np.array([1.0]), b=np.array([0.5]), c=np.array([0.5]), delta=0.3
        )
        sol = solve(inst)
        assert math.isclose(sol.s_value, 0.64, rel_tol=1e-12)

    def test_unit_ball_closed_form(self):
        inst = Qp1qcInstance(
            a=np.array([1.0, 1.0]),
            b=np.array([0.0, 0.0]),
            c=np.array([0.0, 0.0]),
            delta=1.0,
        )
        sol = solve(inst)
        assert sol.branch == "closed_form"
        assert sol.alpha_star == 2.0
        assert math.isclose(sol.s_value, 1.0, rel_tol=1e-14)
        # the completion puts all mass on the first top index
        np.testing.assert_allclose(sol.u_star, [1.0, 0.0])
        assert math.isclose(float(np.linalg.norm(sol.u_star)), 1.0, rel_tol=1e-12)

    def test_point_ball_collapse(self):
        inst = Qp1qcInstance(
            a=np.array([1.0, 4.0]),
            b=np.array([1.0, 2.0]),
            c=np.array([1.0, -0.5]),
            delta=0.0,
        )
        sol = solve(inst)
        assert math.isclose(sol.s_value, 1.25, rel_tol=1e-15)
        np.testing.assert_array_equal(sol.u_star, [0.0, 0.0])

    def test_all_zero_feature(self):
        inst = Qp1qcInstance(
            a=np.array([0.0, 0.0]),
            b=np.array([0.0, 0.0]),
            c=np.array([0.0, 0.0]),
            delta=0.5,
        )
        sol = solve(inst)
        assert sol.s_value == 0.0

    def test_boundary_norm_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            T = int(rng.integers(1, 6))
            a = rng.uniform(0.0, 2.0, T) ** 2
            c = rng.standard_normal(T) * rng.uniform(0.1, 2.0)
            c[a == 0.0] = 0.0
            b = np.sqrt(a) * np.abs(c)
            delta = 10.0 ** rng.uniform(-3, 1)
            inst = Qp1qcInstance(a=a, b=b, c=c, delta=delta)
            sol = solve(inst)
            if sol.alpha_star > 0.0 and a.max() > 0.0:
                assert abs(float(np.linalg.norm(sol.u_star)) - delta) <= 1e-10 * max(
                    delta, 1.0
                )
            # PSD certificate for the shifted curvature
            assert float((-2.0 * a + sol.alpha_star).min()) >= -1e-12

    def test_dominates_interior_samples(self):
        # the returned value must bound the constraint value everywhere inside
        rng = np.random.default_rng(4)
        for _ in range(100):
            T = int(rng.integers(1, 6))
            a = rng.uniform(0.0, 2.0, T) ** 2
            c = rng.standard_normal(T) * rng.uniform(0.1, 2.0)
            c[a == 0.0] = 0.0
            b = np.sqrt(a) * np.abs(c)
            delta = 10.0 ** rng.uniform(-3, 1)
            inst = Qp1qcInstance(a=a, b=b, c=c, delta=delta)
            sol = solve(inst)
            U = rng.standard_normal((100, T))
            norms = np.linalg.norm(U, axis=1, keepdims=True)
            U *= rng.uniform(0.0, 1.0, (100, 1)) * delta / np.maximum(norms, 1e-300)
            vals = (U * U) @ a + 2.0 * U @ b + float(c @ c)
            assert float(vals.max()) <= sol.s_value + 1e-9 * max(1.0, sol.s_value)

    def test_matches_sphere_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            T = int(rng.integers(1, 6))
            a = rng.uniform(0.0, 2.0, T) ** 2
            c = rng.standard_normal(T) * rng.uniform(0.1, 2.0)
            c[a == 0.0] = 0.0
            b = np.sqrt(a) * np.abs(c)
            delta = 10.0 ** rng.uniform(-3, 1)
            inst = Qp1qcInstance(a=a, b=b, c=c, delta=delta)
            sol = solve(inst)
            oracle = sphere_max_oracle(inst, 20000, rng)
            assert sol.s_value >= oracle - 1e-9 * max(1.0, abs(oracle))
            assert sol.s_value <= oracle + 1e-2 * (1.0 + abs(oracle))

    def test_t1_exactness(self):
        # one task: s = (delta*norm + |center correlation|)^2 to nearly machine
        rng = np.random.default_rng(13)
        for _ in range(100):
            nx = rng.uniform(0.1, 3.0)
            cc = rng.standard_normal() * 2.0
            delta = 10.0 ** rng.uniform(-4, 1)
            inst = Qp1qcInstance(
                a=np.array([nx * nx]),
                b=np.array([nx * abs(cc)]),
                c=np.array([cc]),
                delta=delta,
            )
            sol = solve(inst)
            expect = (delta * nx + abs(cc)) ** 2
            assert math.isclose(sol.s_value, expect, rel_tol=1e-12)


class TestSolveBatch:
    def test_matches_single_solver(self):
        rng = np.random.default_rng(31)
        T = 4
        m = 50
        A = rng.uniform(0.0, 2.0, (m, T)) ** 2
        C = rng.standard_normal((m, T))
        C[A == 0.0] = 0.0
        B = np.sqrt(A) * np.abs(C)
        delta = 0.25
        s, alpha, u, iters, newton_mask, converged = solve_batch(A, B, C, delta)
        for i in range(m):
            inst = Qp1qcInstance(a=A[i], b=B[i], c=C[i], delta=delta)
            sol = solve(inst)
            assert math.isclose(s[i], sol.s_value, rel_tol=1e-10, abs_tol=1e-12)
            assert newton_mask[i] == (sol.branch == "newton")

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            solve_batch(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 3)), 1.0)

    def test_empty_batch(self):
        s, alpha, u, iters, nm, conv = solve_batch(
            np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)), 1.0
        )
        assert s.shape == (0,)

    def test_newton_iteration_budget(self):
        # the distributional claim: fast on randomly drawn curvatures
        rng = np.random.default_rng(41)
        total = 0
        worst = 0
        within10 = 0
        for _ in range(500):
            T = int(rng.integers(1, 6))
            a = rng.uniform(0.0, 2.0, T) ** 2
            c = rng.standard_normal(T) * rng.uniform(0.1, 2.0)
            c[a == 0.0] = 0.0
            b = np.sqrt(a) * np.abs(c)
            delta = 10.0 ** rng.uniform(-3, 1)
            sol = solve(Qp1qcInstance(a=a, b=b, c=c, delta=delta))
            if sol.branch != "newton":
                continue
            total += 1
            worst = max(worst, sol.newton_iters)
            within10 += sol.newton_iters <= 10
            assert sol.converged
        assert total > 300
        assert within10 / total >= 0.99
        assert worst <= 50

    def test_strict_failure_mode_still_bounds(self):
        # a boundary layer thinner than float64 spacing: the root is not
        # representable, but the dual value must still dominate the maximum
        a = np.array([[1.0, 0.25]])
        c = np.array([[1e-11, 0.8]])
        b = np.sqrt(a) * np.abs(c)
        delta = 1e-3
        try:
            s, alpha, u, iters, nm, conv = solve_batch(a, b, c, delta, strict=False)
        except NoConvergence:
            pytest.fail("non-strict mode must not raise")
        inst = Qp1qcInstance(a=a[0], b=b[0], c=c[0], delta=delta)
        rng = np.random.default_rng(0)
        oracle = sphere_max_oracle(inst, 50000, rng)
        assert s[0] >= oracle - 1e-9


def uncut_ball(ds, theta0):
    """The uncut ball at lam = 1 of a reference point theta0 at level 2:
    center theta0 + r/2 and radius ||r||/2 with r = y - theta0, its image
    X' center on every feature."""
    r = ds.y_stack - theta0
    center = theta0 + 0.5 * r
    return DualBall(center, 0.5 * float(np.linalg.norm(r)), 1.0, 2.0, ds.adjoint(center))


class TestScreeningBounds:
    def test_batch_matches_per_feature_path(self):
        rng = np.random.default_rng(55)
        ds = MultiTaskDataset(
            [(rng.standard_normal((6, 9)), rng.standard_normal(6)) for _ in range(2)]
        )
        ball = uncut_ball(ds, rng.standard_normal(ds.y_stack.shape) * 0.1)
        s_all = screening_bounds(ds, ball)
        assert s_all.shape == (9,)
        for ell in range(9):
            assert math.isclose(
                s_all[ell],
                solve(instance_of(ds, ball, ell)).s_value,
                rel_tol=1e-10,
                abs_tol=1e-12,
            )

    def test_bounds_dominate_ball_samples(self):
        rng = np.random.default_rng(56)
        ds = MultiTaskDataset(
            [(rng.standard_normal((5, 7)), rng.standard_normal(5)) for _ in range(3)]
        )
        ball = uncut_ball(ds, rng.standard_normal(ds.y_stack.shape) * 0.1)
        s_all = screening_bounds(ds, ball)
        for _ in range(200):
            z = rng.standard_normal(ds.y_stack.shape)
            z = ball.center + z / np.linalg.norm(z) * ball.radius * rng.uniform(0, 1)
            for ell in range(ds.d):
                val = feature_constraint(ds, z, ell)
                assert val <= s_all[ell] * (1.0 + 1e-9) + 1e-12


class TestBracket:
    def test_encloses_the_exact_maximum(self):
        rng = np.random.default_rng(700)
        for _ in range(300):
            T = int(rng.choice([1, 2, 3, 5]))
            a = rng.uniform(0.0, 4.0, T) * (rng.random(T) > 0.2)
            c = rng.standard_normal(T) * (a > 0) * (rng.random(T) > 0.2)
            b = np.sqrt(a) * np.abs(c)
            delta = float(rng.uniform(0.0, 1.5))
            lower, upper = _bracket(a[None], b[None], np.array([c @ c]), delta)
            exact = solve(Qp1qcInstance(a=a, b=b, c=c, delta=delta)).s_value
            assert lower[0] <= exact * (1.0 + 1e-12) + 1e-15
            assert upper[0] >= exact * (1.0 - 1e-12) - 1e-15
            # the ends differ by at most about rho * delta^2
            assert upper[0] - lower[0] <= a.max() * delta * delta * (1.0 + 1e-9) + 1e-12

    def test_closed_cases_are_exact(self):
        a = np.array([[1.0, 3.0], [2.0, 0.5]])
        b = np.array([[0.0, 0.0], [0.4, 0.1]])
        c = np.array([[0.0, 0.0], [np.sqrt(0.08), np.sqrt(0.02)]])
        csum = (c * c).sum(axis=1)
        # a point ball is its center; a row without b is csum + rho delta^2
        lower, upper = _bracket(a, b, csum, 0.0)
        np.testing.assert_array_equal(lower, csum)
        np.testing.assert_array_equal(upper, csum)
        lower, upper = _bracket(a, b, csum, 0.5)
        assert lower[0] == upper[0] == 3.0 * 0.25


class TestScreeningScores:
    def make_ball(self, rng, ds, scale):
        return uncut_ball(ds, rng.standard_normal(ds.y_stack.shape) * scale)

    def test_same_mask_as_exact_and_never_below(self):
        # masks must coincide with exact thresholding; each score must
        # dominate the exact maximum, and a contested entry must be the top
        # of its bracket, or the exact maximum where the bracket straddles 1
        for trial in range(10):
            rng = np.random.default_rng(600 + trial)
            ds = MultiTaskDataset(
                [
                    (rng.standard_normal((6, 25)), rng.standard_normal(6))
                    for _ in range(3)
                ]
            )
            ball = self.make_ball(rng, ds, rng.uniform(0.02, 0.3))
            scores = screening_scores(ds, ball)
            exact = screening_bounds(ds, ball)
            assert scores.shape == exact.shape
            assert np.all(scores >= exact * (1.0 - 1e-12) - 1e-15)
            assert np.array_equal(scores < 1.0, exact < 1.0)
            hot = scores >= 1.0
            A, B, C, delta = build_instances(ds, ball)
            lower, upper = _bracket(A, B, np.einsum("ij,ij->i", C, C), delta)
            tight = BRACKET_RTOL * (ds.T + 4)
            straddles = (lower <= 1.0 + tight) & (upper >= 1.0 - tight)
            expected = np.where(straddles, exact, upper)
            if hot.any():
                np.testing.assert_allclose(scores[hot], expected[hot], rtol=1e-12)

    def test_zero_column_screened(self):
        rng = np.random.default_rng(610)
        blocks = []
        for _ in range(2):
            X = rng.standard_normal((5, 6))
            X[:, 2] = 0.0
            blocks.append((X, rng.standard_normal(5)))
        ds = MultiTaskDataset(blocks)
        ball = self.make_ball(rng, ds, 0.1)
        scores = screening_scores(ds, ball)
        assert scores[2] == 0.0

    def test_point_ball_matches_constraint_values(self):
        # radius zero: both stages collapse to the constraint value itself
        rng = np.random.default_rng(611)
        ds = MultiTaskDataset(
            [(rng.standard_normal((5, 8)), rng.standard_normal(5)) for _ in range(2)]
        )
        lmax, _ = lambda_max(ds)
        center = ds.y_stack / (0.5 * lmax)
        ball = DualBall(center, 0.0, 0.5 * lmax, 0.8 * lmax, ds.adjoint(center))
        scores = screening_scores(ds, ball)
        for ell in range(ds.d):
            val = feature_constraint(ds, ball.center, ell)
            assert math.isclose(scores[ell], val, rel_tol=1e-12, abs_tol=1e-15)
