"""The dual side of the row-sparse multi-task model.

The dual problem is a projection: the optimal dual point at level lam is the
Euclidean projection of y/lam onto the feasible set
F = {theta : sum_t <x_l_t, theta_t>^2 <= 1 for every feature l}. This module
evaluates the per-feature constraint, the smallest all-zero regularization
level ``lambda_max``, dual recovery from a primal iterate, and a certified
ball that contains the exact dual optimum at a target level given a solved
reference level.

Geometry of the ball: with reference point theta0 at level lambda0 and its
outward normal n0, the residual r = y/lam - theta0 is split into the
component along n0 and the orthogonal remainder r_perp; the exact dual
optimum lies in the ball centered at theta0 + r_perp/2 with radius
``norm(r_perp)/2``.

Carried images: a reference also holds the adjoint images X't theta0 and
X't n0, and a ball holds X't center, each a (d, T) array whose row l is the
per-task inner products of feature l with that vector. Screening needs only
these rows, and the adjoint is linear, so each image is formed with the same
linear combination as its vector, from the cached response image X't y and
the reference's own images: a sequential reference costs one full-width
adjoint (of its dual point), and a ball costs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
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
    "ReferenceSolution",
    "DualBall",
    "dual_ball",
]

# lambda0 == lambda_max is detected to this relative tolerance
LAMBDA_EQ_RTOL = 1e-12
# below this (times ||y||/lambda0) a normal vector counts as zero
ZERO_NORMAL_RTOL = 1e-14
# sign checks tolerate this times the product of operand norms
SIGN_RTOL = 1e-9


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


def dual_from_primal(ds, W, lam):
    """Dual point induced by a primal iterate: block t is (y_t - X_t w_t)/lam."""
    lam = float(lam)
    if lam <= 0:
        raise NonPositiveLambda(f"lam must be positive, got {lam}")
    V = as_weight_values(W, ds.d, ds.T)
    theta = ds.unpad((ds.y_stack - ds.forward(V)) / lam)
    return DualPoint(theta, ds.n_per_task)


def _at_threshold(ds, lambda0):
    return math.isclose(lambda0, lambda_max(ds)[0], rel_tol=LAMBDA_EQ_RTOL, abs_tol=0.0)


def normal_vector(ds, theta0, lambda0):
    """Outward normal at a solved reference dual point.

    Below the all-zero threshold this is y/lambda0 - theta0. At the threshold
    itself that difference vanishes, so the constraint gradient of the witness
    feature at y/lambda_max is used instead (its t-th block is
    2 <x_w_t, y_t/lambda_max> x_w_t).

    Errors
    ------
    LambdaOutOfRange : lambda0 outside (0, lambda_max], or a threshold-level
        call whose theta0 is not y/lambda_max.
    ZeroNormal : the normal is too small to define a direction
        (below 1e-14 * ||y|| / lambda0).
    """
    lambda0 = float(lambda0)
    lmax, ell_star = lambda_max(ds)
    if lambda0 <= 0 or lambda0 > lmax * (1 + LAMBDA_EQ_RTOL):
        raise LambdaOutOfRange(
            f"reference level {lambda0} outside (0, {lmax}]"
        )
    y = stack_response(ds)
    th = as_dual_vector(theta0, ds.N)
    if _at_threshold(ds, lambda0):
        expected = y / lmax
        scale = float(np.linalg.norm(expected))
        if float(np.linalg.norm(th - expected)) > 1e-8 * max(scale, 1.0):
            raise LambdaOutOfRange(
                "at the all-zero threshold the reference dual point must be y/lambda_max"
            )
        # the witness's constraint gradient, with its row of X't y/lambda_max
        # read from the cached response image
        n = _one_row_image(ds, ell_star, 2.0 * ds.response_image[ell_star] / lmax)
    else:
        n = y / lambda0 - th
    if float(np.linalg.norm(n)) < ZERO_NORMAL_RTOL * float(np.linalg.norm(y)) / lambda0:
        raise ZeroNormal("reference normal vector is numerically zero")
    return n


def _normal_with_image(ds, theta0, lambda0, image):
    """:func:`normal_vector` and its image X't n0, given image = X't theta0.

    Below the threshold n0 = y/lambda0 - theta0, so its image is the same
    combination of the cached X't y and ``image``; the threshold's witness
    normal takes one adjoint product.
    """
    n0 = normal_vector(ds, theta0, lambda0)
    if _at_threshold(ds, lambda0):
        return n0, ds.adjoint(ds.pad(n0))
    n0_image = ds.response_image / lambda0
    n0_image -= image
    return n0, n0_image


@dataclass(frozen=True)
class ReferenceSolution:
    """A solved reference level: the dual point there and its normal, with
    their adjoint images ``image`` = X't theta0 and ``n0_image`` = X't n0,
    each (d, T).

    ``n0`` (and with it ``n0_image``) is None when the normal was numerically
    zero; ball construction then falls back to the un-projected (larger but
    still valid) ball.
    """

    lambda0: float
    theta0: DualPoint
    n0: np.ndarray | None
    image: np.ndarray
    n0_image: np.ndarray | None

    def __post_init__(self):
        if self.lambda0 <= 0:
            raise LambdaOutOfRange(f"reference level must be positive, got {self.lambda0}")
        if self.n0 is not None and len(self.n0) != len(self.theta0.theta):
            raise LambdaOutOfRange("normal and dual point lengths differ")
        if (self.n0 is None) != (self.n0_image is None):
            raise DimensionMismatch("a normal and its image come together")

    @classmethod
    def at_lambda_max(cls, ds):
        """Reference at the all-zero threshold, where the dual point is known
        in closed form (y/lambda_max)."""
        lmax, _ = lambda_max(ds)
        y = stack_response(ds)
        theta0 = DualPoint(y / lmax, ds.n_per_task)
        image = ds.response_image / lmax
        n0, n0_image = _normal_with_image(ds, theta0, lmax, image)
        return cls(lambda0=lmax, theta0=theta0, n0=n0, image=image, n0_image=n0_image)

    @classmethod
    def _at_dual_point(cls, ds, lambda0, theta0, image):
        """Reference at a dual point whose image is known; no normal (None)
        when it is numerically zero."""
        try:
            n0, n0_image = _normal_with_image(ds, theta0, lambda0, image)
        except ZeroNormal:
            n0 = n0_image = None
        return cls(lambda0=lambda0, theta0=theta0, n0=n0, image=image, n0_image=n0_image)

    @classmethod
    def from_primal(cls, ds, W, lambda0):
        """Reference built from a solved primal iterate at ``lambda0``.

        Raises NegativeInnerProduct when the normal points away from the
        response: at an optimum <y, n0> >= 0, so such weights are no solve.
        Below the threshold the one adjoint product made here is the dual
        point's image; the normal's image is X't y / lambda0 minus it.
        """
        lambda0 = float(lambda0)
        theta0 = dual_from_primal(ds, W, lambda0)
        ref = cls._at_dual_point(ds, lambda0, theta0, ds.adjoint(ds.pad(theta0)))
        n0 = ref.n0
        if n0 is not None:
            y = stack_response(ds)
            inner = float(np.dot(y, n0))
            bound = SIGN_RTOL * float(np.linalg.norm(y)) * float(np.linalg.norm(n0))
            if inner < -bound:
                raise NegativeInnerProduct(
                    f"<response, normal> = {inner:.3e} below -{bound:.3e}; "
                    "reference solution looks inconsistent"
                )
        return ref


@dataclass(frozen=True)
class DualBall:
    """Certified region containing the exact dual optimum at level ``lam``;
    ``image`` is the (d, T) adjoint image X't center."""

    center: np.ndarray
    radius: float
    lam: float
    lambda0: float
    image: np.ndarray

    def __post_init__(self):
        if self.radius < 0:
            raise LambdaOutOfRange(f"radius must be nonnegative, got {self.radius}")
        if not 0 < self.lam < self.lambda0:
            raise LambdaOutOfRange(
                f"need 0 < lam < lambda0, got lam={self.lam}, lambda0={self.lambda0}"
            )


def dual_ball(ds, ref, lam):
    """Ball containing the exact dual optimum at ``lam`` given a reference.

    With r = y/lam - theta0: the component of r along the reference normal is
    removed (coefficient clamped at zero), and the ball is centered at
    theta0 + r_perp/2 with radius ||r_perp||/2. A near-orthogonal violation of
    the sign condition <r, n0> >= 0 beyond -1e-9*||r||*||n0|| raises
    NegativeInnerProduct. Without a usable normal (ref.n0 is None) the
    un-projected ball (center theta0 + r/2, radius ||r||/2) is returned.
    The center's image is the same combination of X't y and the reference's
    images, so no product is made here.
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
    # X't center = 0.5 X't y / lam + 0.5 X't theta0 - 0.5 coef X't n0
    image = ds.response_image * (0.5 / lam)
    image += 0.5 * ref.image
    if ref.n0 is None:
        r_perp = r
    else:
        n0 = ref.n0
        inner = float(np.dot(n0, r))
        bound = SIGN_RTOL * float(np.linalg.norm(r)) * float(np.linalg.norm(n0))
        if inner < -bound:
            raise NegativeInnerProduct(
                f"<residual, normal> = {inner:.3e} below -{bound:.3e}; "
                "reference solution looks inconsistent"
            )
        coef = max(0.0, inner) / float(np.dot(n0, n0))
        r_perp = r - coef * n0
        image -= (0.5 * coef) * ref.n0_image
    center = th0 + 0.5 * r_perp
    radius = 0.5 * float(np.linalg.norm(r_perp))
    return DualBall(
        center=center,
        radius=radius,
        lam=lam,
        lambda0=ref.lambda0,
        image=image,
    )
