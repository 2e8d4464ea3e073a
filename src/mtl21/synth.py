"""Synthetic benchmark generators.

Two designs: independent standard Gaussian features ("s1"), and features
forming a stationary first-order autoregressive chain with coefficient 0.5
and unit marginal variance ("s2"), giving population correlation 0.5^|i-j|
between feature columns. A random subset of features (default 10%, shared
across tasks) carries standard Gaussian true weights; responses are the
noiseless model output plus scaled Gaussian noise.

Draw order is fixed so a seed pins the dataset bit-for-bit: per-task design
matrices first, then the support, then per-task true weights, then per-task
noise.

Each task's design is drawn into a temporary array and copied at once into
its slice of the dataset's stack, so a generated dataset is held once, with
at most one task's draw beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MultiTaskDataset, WeightMatrix, _zero_stacks, save_dataset

__all__ = ["SynthConfig", "generate", "write_benchmark"]

RNG_NAME = "numpy-default_rng-PCG64"


@dataclass(frozen=True)
class SynthConfig:
    kind: str  # "s1" or "s2"
    tasks: int
    n_per_task: int
    d: int
    support_fraction: float = 0.10
    noise_scale: float = 0.01
    seed: int = 0
    support_mode: str = "shared"  # or "per-task"

    def __post_init__(self):
        if self.kind not in ("s1", "s2"):
            raise ValueError(f"kind must be 's1' or 's2', got {self.kind!r}")
        if self.tasks < 1 or self.n_per_task < 1 or self.d < 1:
            raise ValueError("tasks, n_per_task, and d must all be >= 1")
        if not 0.0 < self.support_fraction <= 1.0:
            raise ValueError(
                f"support_fraction must be in (0, 1], got {self.support_fraction}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        if self.support_mode not in ("shared", "per-task"):
            raise ValueError(f"support_mode must be 'shared' or 'per-task', got {self.support_mode!r}")


def _draw_design(rng, kind, n, d):
    X = rng.standard_normal((n, d))
    if kind == "s2":
        # column j of the chain from column j - 1 and the j-th draw, in place
        c = math.sqrt(0.75)
        for j in range(1, d):
            X[:, j] = 0.5 * X[:, j - 1] + c * X[:, j]
    return X


def generate(cfg):
    """Build one synthetic problem; returns ``(dataset, true_weights)``.

    Zero rows of the returned true weight matrix are exactly the complement
    of the drawn support (per-task mode: of the union of supports).
    """
    rng = np.random.default_rng(cfg.seed)
    T, n, d = cfg.tasks, cfg.n_per_task, cfg.d
    X_stack, y_stack = _zero_stacks([n] * T, d)
    for t in range(T):
        X_stack[t] = _draw_design(rng, cfg.kind, n, d)
    k = math.ceil(cfg.support_fraction * d)
    W = np.zeros((d, T))
    if cfg.support_mode == "shared":
        support = np.sort(rng.choice(d, size=k, replace=False))
        for t in range(T):
            W[support, t] = rng.standard_normal(k)
    else:
        for t in range(T):
            support = np.sort(rng.choice(d, size=k, replace=False))
            W[support, t] = rng.standard_normal(k)
    for t in range(T):
        # on a row-major copy: the stack's column layout would take another
        # BLAS call, which rounds y differently
        y = np.ascontiguousarray(X_stack[t]) @ W[:, t]
        if cfg.noise_scale > 0:
            y = y + cfg.noise_scale * rng.standard_normal(n)
        y_stack[t] = y
    return MultiTaskDataset._from_stacks(X_stack, y_stack, [n] * T), WeightMatrix(W)


def write_benchmark(cfg, out_dir):
    """Generate and write the dataset directory plus the true weights.

    The metadata records the generator settings and the RNG algorithm so a
    reader can reproduce the files exactly.
    """
    ds, truth = generate(cfg)
    extra = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "support_fraction": cfg.support_fraction,
        "noise_scale": cfg.noise_scale,
        "support_mode": cfg.support_mode,
        "rng": RNG_NAME,
    }
    out = save_dataset(ds, out_dir, extra_meta=extra)
    truth.to_csv(out / "truth.csv")
    return ds, truth
