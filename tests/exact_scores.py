"""Exact per-feature maxima over a ball, for checking the staged scores.

``mtl21.qp1qc.screening_scores`` solves the QP1QC exactly only where its
bracket leaves a feature undecided; these helpers solve every feature of a
ball whose image covers every feature.
"""

import numpy as np

from mtl21.errors import DimensionMismatch
from mtl21.qp1qc import solve_batch


def build_instances(ds, ball):
    """Reduced data of every feature at once: (d, T) arrays A, B, C and delta."""
    if len(ball.rows) != ds.d:
        raise DimensionMismatch("the ball's image does not cover every feature")
    cn = ds.col_norms
    return cn**2, cn * np.abs(ball.image), ball.image, float(ball.radius)


def screening_bounds(ds, ball):
    """Maximum constraint value of every feature over the ball; (d,) array.

    Non-strict: a feature whose boundary equation stalls keeps its dual-value
    bound, which can only overestimate.
    """
    A, B, C, delta = build_instances(ds, ball)
    return solve_batch(A, B, C, delta, strict=False)[0]
