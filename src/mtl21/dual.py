"""The dual side of the row-sparse multi-task model.

The dual problem is a projection: the optimal dual point at level lam is the
Euclidean projection of y/lam onto the feasible set
F = {theta : sum_t <x_l_t, theta_t>^2 <= 1 for every feature l}. This module
evaluates the per-feature constraint, the smallest all-zero regularization
level ``lambda_max``, dual recovery from a primal iterate, and a certified
ball that contains the exact dual optimum at a target level given a solved
reference level.

Geometry of the ball: a reference is its level lambda0 and its solved dual
point theta0. Its outward normal n0 follows from those and the dataset
(y/lambda0 - theta0, or the witness feature's constraint gradient at the
threshold) and is derived where the ball is cut. The residual
r = y/lam - theta0 is split into the component along n0 and the orthogonal
remainder r_perp; the exact dual optimum lies in the ball centered at
theta0 + r_perp/2 with radius ``norm(r_perp)/2``.

Carried images: a reference holds the adjoint image X't theta0, and a ball
X't center, on an increasing index array ``rows`` of features, one row each
holding the per-task inner products of that feature with the vector.
Screening needs only these rows, and the adjoint is linear, so each image is
formed with the same linear combination as its vector, from the cached
response image X't y, the reference's image and, at the threshold, the
witness normal's image, a per-dataset constant.

Carried bounds: along a path, :class:`ScoreBounds` carries for every feature
an upper bound on the largest ||X_l' theta|| over the last ball, and moves it
to the next ball (or to a point) by the triangle inequality, inflated by a
forward-error margin. Only the features whose moved bound reaches 1 need
image rows; with nothing carried every bound is +inf, so every feature is
refreshed. A sequential reference takes its dual point, and the image rows
of the features its solve kept, from the solve's last residual and gradient;
the other rows it and its ball need take one column-gathered adjoint each,
so a level reads the columns of the features that can still matter and no
others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LAMBDA_EQ_RTOL,
    DualPoint,
    MultiTaskDataset,
    as_dual_vector,
    as_weight_values,
    stack_response,
)
from .errors import (
    DegenerateData,
    DimensionMismatch,
    IndexOutOfRange,
    LambdaOutOfRange,
    NegativeInnerProduct,
    NonPositiveLambda,
    ZeroNormal,
)

__all__ = [
    "feature_constraint",
    "feature_constraint_all",
    "feature_constraint_grad",
    "dual_feasibility_violation",
    "lambda_max",
    "dual_from_primal",
    "normal_vector",
    "ScoreBounds",
    "ReferenceSolution",
    "DualBall",
    "dual_ball",
]

# below this (times ||y||/lambda0) a normal vector counts as zero
ZERO_NORMAL_RTOL = 1e-14
# sign checks tolerate this times the product of operand norms
SIGN_RTOL = 1e-9
EPS = float(np.finfo(np.float64).eps)


def _norm(v):
    """Euclidean norm of a vector, as np.linalg.norm computes it."""
    return math.sqrt(float(np.dot(v, v)))


def _check_ell(ds, ell):
    ell = int(ell)
    if not 0 <= ell < ds.d:
        raise IndexOutOfRange(f"feature index {ell} outside [0, {ds.d})")
    return ell


def feature_constraint(ds, theta, ell):
    """Constraint value of one feature: sum_t <x_l_t, theta_t>^2."""
    ell = _check_ell(ds, ell)
    return float(feature_constraint_all(ds, theta)[ell])


def feature_constraint_all(ds, theta):
    """Constraint values of every feature at once; returns a (d,) array."""
    return (ds.adjoint(ds.pad(theta)) ** 2).sum(axis=1)


def feature_constraint_grad(ds, theta, ell):
    """Gradient of one feature's constraint value; block t is
    2 <x_l_t, theta_t> x_l_t."""
    ell = _check_ell(ds, ell)
    return _one_row_image(ds, ell, 2.0 * ds.adjoint(ds.pad(theta))[ell])


def _one_row_image(ds, ell, row):
    """Length-N forward image of the weights whose only nonzero row, ell, is row."""
    W = np.zeros((ds.d, ds.T))
    W[ell] = row
    return ds.unpad(ds.forward(W))


def dual_feasibility_violation(ds, theta):
    """max(0, max_l constraint_l - 1); zero means theta is dual feasible."""
    g = feature_constraint_all(ds, theta)
    return float(max(0.0, float(g.max(initial=0.0)) - 1.0))


def lambda_max(ds):
    """Smallest level at which the solution is all-zero, with its witness.

    Returns ``(value, ell_star)`` where value = max_l sqrt(sum_t
    <x_l_t, y_t>^2) and ell_star is the smallest maximizing feature index.
    Cached on the dataset (the inputs are immutable).
    """
    key = "lambda_max"
    if key not in ds._cache:
        vals = np.sqrt((ds.response_image**2).sum(axis=1))
        ell_star = int(np.argmax(vals))
        value = float(vals[ell_star])
        if value == 0.0:
            raise DegenerateData(
                "every feature is orthogonal to every response; no all-zero threshold"
            )
        ds._cache[key] = (value, ell_star)
    return ds._cache[key]


def _witness_normal(ds):
    """The threshold's normal (see :func:`normal_vector`) and its image
    X't n: one forward product and one adjoint per dataset, cached."""
    key = "witness_normal"
    if key not in ds._cache:
        lmax, ell_star = lambda_max(ds)
        n = _one_row_image(ds, ell_star, 2.0 * ds.response_image[ell_star] / lmax)
        image = ds.adjoint(ds.pad(n))
        n.setflags(write=False)
        image.setflags(write=False)
        ds._cache[key] = (n, image)
    return ds._cache[key]


def dual_from_primal(ds, W, lam, support=None):
    """Dual point induced by a primal iterate: block t is (y_t - X_t w_t)/lam.

    With ``support`` (feature indices), W holds just those features' rows;
    every other row is zero.
    """
    lam = float(lam)
    if lam <= 0:
        raise NonPositiveLambda(f"lam must be positive, got {lam}")
    if support is None:
        V = as_weight_values(W, ds.d, ds.T)
    else:
        V = np.zeros((ds.d, ds.T))
        V[support] = as_weight_values(W, len(support), ds.T)
    theta = ds.unpad((ds.y_stack - ds.forward(V)) / lam)
    return DualPoint(theta, ds.n_per_task)


def _at_threshold(ds, lambda0):
    return math.isclose(lambda0, lambda_max(ds)[0], rel_tol=LAMBDA_EQ_RTOL, abs_tol=0.0)


def normal_vector(ds, theta0, lambda0):
    """Outward normal at a solved reference dual point.

    Below the all-zero threshold this is y/lambda0 - theta0. At the threshold
    itself that difference vanishes, so the constraint gradient of the witness
    feature at y/lambda_max is used instead (its t-th block is
    2 <x_w_t, y_t/lambda_max> x_w_t), computed once per dataset. That normal
    is never zero: its inner product with y is 2 lambda_max > 0.

    Errors
    ------
    LambdaOutOfRange : lambda0 outside (0, lambda_max], or a threshold-level
        call whose theta0 is not y/lambda_max to 1e-8 relative.
    ZeroNormal : below the threshold, the normal is too small to define a
        direction (below 1e-14 * ||y|| / lambda0).
    """
    lambda0 = float(lambda0)
    lmax, _ = lambda_max(ds)
    if lambda0 <= 0 or lambda0 > lmax * (1 + LAMBDA_EQ_RTOL):
        raise LambdaOutOfRange(
            f"reference level {lambda0} outside (0, {lmax}]"
        )
    y = stack_response(ds)
    th = as_dual_vector(theta0, ds.N)
    if _at_threshold(ds, lambda0):
        expected = y / lmax
        if _norm(th - expected) > 1e-8 * _norm(expected):
            raise LambdaOutOfRange(
                "at the all-zero threshold the reference dual point must be y/lambda_max"
            )
        return _witness_normal(ds)[0]
    n = y / lambda0 - th
    if _norm(n) < ZERO_NORMAL_RTOL * _norm(y) / lambda0:
        raise ZeroNormal("reference normal vector is numerically zero")
    return n


def _normal_or_none(ds, theta0, lambda0):
    """:func:`normal_vector`, or None when it is numerically zero."""
    try:
        return normal_vector(ds, theta0, lambda0)
    except ZeroNormal:
        return None


def _image_rows(ds, theta, rows, held, image):
    """Rows ``rows`` of X't theta, given its rows ``held`` in ``image`` (both
    increasing index arrays); the rows not held take one column-gathered
    adjoint."""
    pos = np.searchsorted(held, rows)
    have = pos < len(held)
    have[have] = held[pos[have]] == rows[have]
    if have.all():
        return image[pos]
    out = np.empty((len(rows), ds.T))
    out[have] = image[pos[have]]
    out[~have] = ds.adjoint(ds.pad(theta), rows[~have])
    return out


def _carry_rtol(ds):
    """Relative forward-error margin of one move of the carried bounds.

    A move rounds an N-term norm (the center shift), the n_max-term column
    norms behind sqrt(rho), a few additions whose terms, times sqrt(rho_l),
    are each at most the moved bound (a valid u_l is at least sqrt(rho_l)
    times the old radius), and the square root the next bound is read back
    through; by the standard summation bound (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1) their relative error
    stays below (N + n_max + 16) eps, and the margin is four times that.
    """
    return 4.0 * (ds.N + ds.X_stack.shape[1] + 16) * EPS


@dataclass(frozen=True)
class ScoreBounds:
    """Per-feature upper bounds carried from one ball to the next.

    ``u[l]`` bounds the largest ||X_l' theta|| over the ball (``center``,
    ``radius``), the square root of feature l's largest constraint value
    there; a feature whose bound stays below 1 is inactive there.
    """

    center: np.ndarray
    radius: float
    u: np.ndarray

    def over(self, ds, center, radius=0.0):
        """The bounds moved onto the ball (``center``, ``radius``); a point
        when the radius is 0.

        Every point of the new ball lies within ||center - self.center|| +
        radius of the old center, so within the positive part s of that minus
        self.radius of the old ball, and theta -> X_l' theta has norm
        sqrt(rho_l) = max_t ||x_l_t||: u_l + sqrt(rho_l) * s bounds the new
        ball. The result is inflated by :func:`_carry_rtol`, so a bound that
        rounds to just below 1 still reaches it.
        """
        dist = _norm(center - self.center) + radius - self.radius
        u = self.u + ds.col_norm_max * max(0.0, dist)
        u *= 1.0 + _carry_rtol(ds)
        return u


@dataclass(frozen=True)
class ReferenceSolution:
    """A solved reference level: the dual point ``theta0`` there and the
    adjoint image ``image`` = X't theta0 on the features ``rows``, an
    increasing index array with one image row per feature (every feature
    when built without ``rows``). The rows cover every feature whose
    constraint value at theta0 can reach 1. Its normal is not stored: it is
    fixed by theta0, lambda0 and the dataset (:func:`normal_vector`).
    """

    lambda0: float
    theta0: DualPoint
    image: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self):
        if self.lambda0 <= 0:
            raise LambdaOutOfRange(f"reference level must be positive, got {self.lambda0}")
        if self.rows is None:
            object.__setattr__(self, "rows", np.arange(len(self.image)))
        elif len(self.image) != len(self.rows):
            raise DimensionMismatch("an image needs one row per feature it covers")

    @property
    def violation(self):
        """max(0, max_l g_l(theta0) - 1), read from the image rows; zero
        means theta0 is dual feasible."""
        g_max = float((self.image**2).sum(axis=1).max(initial=0.0))
        return max(0.0, g_max - 1.0)

    def on_boundary(self, ds):
        """The reference with its dual point, and image rows, divided by
        sqrt(1 + violation) = sqrt(max_l g_l): the constraints are
        quadratically homogeneous, so an infeasible point lands exactly on
        the feasible boundary. A feasible one is divided by exactly 1.0, so
        it stays as it is."""
        scale = 1.0 / np.sqrt(1.0 + self.violation)
        theta0 = DualPoint(self.theta0.theta * scale, ds.n_per_task)
        return ReferenceSolution(self.lambda0, theta0, self.image * scale, self.rows)

    @classmethod
    def at_lambda_max(cls, ds):
        """Reference at the all-zero threshold, where the dual point is known
        in closed form (y/lambda_max)."""
        lmax, _ = lambda_max(ds)
        theta0 = DualPoint(stack_response(ds) / lmax, ds.n_per_task)
        return cls(lmax, theta0, ds.response_image / lmax)

    @classmethod
    def from_primal(cls, ds, W, lambda0, bounds=None, support=None, solve=None):
        """Reference built from a solved primal iterate at ``lambda0``.

        Raises NegativeInnerProduct when the normal points away from the
        response: at an optimum <y, n0> >= 0, so such weights are no solve.
        ``support`` is as in :func:`dual_from_primal`. When ``solve``, the
        :class:`~mtl21.solver.FitResult` the weights come from, kept its
        last products, the dual point is its residual rows over -lambda0 and
        the support's image rows are its gradient over -lambda0; otherwise
        the dual point comes from :func:`dual_from_primal` and no row is
        held.

        The image covers the held rows and the features whose bound, moved
        to theta0, reaches 1 (every feature without ``bounds``, the
        :class:`ScoreBounds` of the last ball): every other feature has a
        constraint value below 1 there. Rows not held take one
        column-gathered adjoint.
        """
        lambda0 = float(lambda0)
        if solve is not None and solve.residual is not None and solve.gradient is not None:
            theta0 = DualPoint(ds.unpad(solve.residual / -lambda0), ds.n_per_task)
            held = np.arange(ds.d) if support is None else np.asarray(support)
            held_image = solve.gradient / -lambda0
        else:
            theta0 = dual_from_primal(ds, W, lambda0, support)
            held, held_image = np.zeros(0, dtype=int), np.zeros((0, ds.T))
        moved = np.full(ds.d, np.inf) if bounds is None else bounds.over(ds, theta0.theta)
        refresh = moved >= 1.0
        refresh[held] = True
        rows = np.flatnonzero(refresh)
        image = _image_rows(ds, theta0, rows, held, held_image)
        n0 = _normal_or_none(ds, theta0, lambda0)
        if n0 is not None:
            y = stack_response(ds)
            inner = float(np.dot(y, n0))
            bound = SIGN_RTOL * _norm(y) * _norm(n0)
            if inner < -bound:
                raise NegativeInnerProduct(
                    f"<response, normal> = {inner:.3e} below -{bound:.3e}; "
                    "reference solution looks inconsistent"
                )
        return cls(lambda0, theta0, image, rows)


@dataclass(frozen=True)
class DualBall:
    """Certified region containing the exact dual optimum at level ``lam``.

    ``image`` holds the adjoint image X't center on the features ``rows``
    (as in :class:`ReferenceSolution`), and ``bound`` for every feature an
    upper bound on its largest ||X_l' theta|| over the ball, below 1 off
    ``rows``: carried from the last ball, or +inf. Built without both, the
    image covers every feature and every bound is +inf.
    """

    center: np.ndarray
    radius: float
    lam: float
    lambda0: float
    image: np.ndarray
    rows: np.ndarray | None = None
    bound: np.ndarray | None = None

    def __post_init__(self):
        if self.radius < 0:
            raise LambdaOutOfRange(f"radius must be nonnegative, got {self.radius}")
        if not 0 < self.lam < self.lambda0:
            raise LambdaOutOfRange(
                f"need 0 < lam < lambda0, got lam={self.lam}, lambda0={self.lambda0}"
            )
        if (self.rows is None) != (self.bound is None):
            raise DimensionMismatch("image rows and carried bounds come together")
        if self.rows is None:
            object.__setattr__(self, "rows", np.arange(len(self.image)))
            object.__setattr__(self, "bound", np.full(len(self.image), np.inf))
        elif len(self.image) != len(self.rows):
            raise DimensionMismatch("an image needs one row per feature it covers")


def dual_ball(ds, ref, lam, bounds=None):
    """Ball containing the exact dual optimum at ``lam`` given a reference.

    With r = y/lam - theta0 and n0 the reference's normal
    (:func:`normal_vector`): the component of r along n0 is removed
    (coefficient clamped at zero), and the ball is centered at
    theta0 + r_perp/2 with radius ||r_perp||/2. A near-orthogonal violation of
    the sign condition <r, n0> >= 0 beyond -1e-9*||r||*||n0|| raises
    NegativeInnerProduct. Where the normal is numerically zero (theta0 at
    y/lambda0 below the threshold) the un-projected ball (center
    theta0 + r/2, radius ||r||/2) is returned.

    The ball's bounds are the :class:`ScoreBounds` of the last ball moved
    onto it, or +inf without ``bounds``. Its image covers the features whose
    bound reaches 1, formed like the center from X't y and the reference's
    image; rows the reference lacks take one column-gathered adjoint.
    """
    lam = float(lam)
    if lam <= 0:
        raise NonPositiveLambda(f"lam must be positive, got {lam}")
    if lam >= ref.lambda0:
        raise LambdaOutOfRange(
            f"target level {lam} must be below the reference level {ref.lambda0}"
        )
    y = stack_response(ds)
    th0 = as_dual_vector(ref.theta0, ds.N)
    r = y / lam - th0
    n0 = _normal_or_none(ds, ref.theta0, ref.lambda0)
    coef = 0.0
    if n0 is None:
        r_perp = r
    else:
        inner = float(np.dot(n0, r))
        bound = SIGN_RTOL * _norm(r) * _norm(n0)
        if inner < -bound:
            raise NegativeInnerProduct(
                f"<residual, normal> = {inner:.3e} below -{bound:.3e}; "
                "reference solution looks inconsistent"
            )
        coef = max(0.0, inner) / float(np.dot(n0, n0))
        r_perp = r - coef * n0
    center = th0 + 0.5 * r_perp
    radius = 0.5 * _norm(r_perp)
    moved = np.full(ds.d, np.inf) if bounds is None else bounds.over(ds, center, radius)
    rows = np.flatnonzero(moved >= 1.0)
    image0 = _image_rows(ds, ref.theta0, rows, ref.rows, ref.image)
    response = ds.response_image[rows]
    # X't center = 0.5 X't y / lam + 0.5 X't theta0 - 0.5 coef X't n0
    image = response * (0.5 / lam)
    image += 0.5 * image0
    if n0 is not None:
        # X't n0: below the threshold n0 = y/lambda0 - theta0, at it the
        # witness normal
        if _at_threshold(ds, ref.lambda0):
            n0_image = _witness_normal(ds)[1][rows]
        else:
            n0_image = response / ref.lambda0 - image0
        image -= (0.5 * coef) * n0_image
    return DualBall(center, radius, lam, ref.lambda0, image, rows, moved)
