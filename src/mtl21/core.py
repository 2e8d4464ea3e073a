"""Domain types, validation, and serialization shared by all other modules.

The central object is :class:`MultiTaskDataset`: the per-task design matrices
and responses, stored as one zero-padded stack of shape (T, n_max, d) (and
(T, n_max) for the responses), where n_max is the largest task size. Each
task block keeps contiguous columns, because every screening pass touches
every column of every task. A task with fewer rows is padded with zero rows
and zero responses; zero rows change neither a product nor a norm, and the
padded entries of every dual quantity stay zero.

The dataset holds the only implementation of the two products every layer is
built from, ``forward`` (every X_t w_t) and ``adjoint`` (every X_t' theta_t,
or just the rows of given features), the cached image of the responses
(``response_image``, every X_t' y_t), and the one check of a dual vector
(``dual_rows``). A dual vector has one layout, the (T, n_max) rows of
``y_stack`` with zero padding. Construction rejects tasks that cannot be
stacked (different column counts) but is otherwise permissive, so that
invalid data can be held and then reported by :func:`validate_dataset`;
numerical code is expected to validate first.

:func:`load_dataset` holds each dataset once: it allocates the stack from
the counts in ``meta.json``, after checking that every task file is large
enough to hold its rows, and reads the tasks one at a time into their
slices, so at most one task's parsed table sits beside the stack.

All arrays are float64 and frozen (read-only) after construction; the types
are safe to share across concurrent readers.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import (
    DatasetFormatError,
    DimensionMismatch,
    EmptyDataset,
    LambdaOutOfRange,
    NonFinite,
    NonPositiveLambda,
)

__all__ = [
    "MultiTaskDataset",
    "WeightMatrix",
    "LambdaGrid",
    "ScreeningMask",
    "validate_dataset",
    "load_dataset",
    "save_dataset",
    "l21_norm",
]

# a level counts as the all-zero threshold to this relative tolerance
LAMBDA_EQ_RTOL = 1e-12


def _zero_stacks(n, d):
    """Zeroed stacks (T, n_max, d) and (T, n_max) for tasks of ``n[t]`` rows.

    Every task block keeps contiguous columns, as screening reads every
    column of every task: the design stack is a (T, d, n_max) buffer seen
    with swapped axes.
    """
    n_max = max(n, default=0)
    return np.zeros((len(n), d, n_max)).swapaxes(1, 2), np.zeros((len(n), n_max))


class MultiTaskDataset:
    """Per-task design matrices ``X[t]`` (N_t x d) and responses ``y[t]``.

    Parameters
    ----------
    tasks : sequence of (array_like, array_like)
        One ``(X_t, y_t)`` pair per task. Each ``X_t`` must be 2-D, each
        ``y_t`` 1-D with one entry per row of ``X_t``, and all tasks must
        have the same column count; these are enforced here, because the
        tasks are copied into one read-only float64 stack ``X_stack`` of
        shape (T, n_max, d), zero rows padding the shorter tasks (responses
        likewise in ``y_stack``, (T, n_max)). ``X[t]`` and ``y[t]`` are
        read-only (N_t, d) and (N_t,) views into the stacks. Finiteness and
        non-emptiness are checked later by :func:`validate_dataset`, so a
        malformed dataset can be constructed and then diagnosed.
    """

    def __init__(self, tasks):
        xs = []
        ys = []
        for i, (X, y) in enumerate(tasks):
            X = np.asarray(X, dtype=np.float64)
            y = np.asarray(y, dtype=np.float64)
            if X.ndim != 2:
                raise DimensionMismatch(f"task {i}: design matrix must be 2-D, got {X.ndim}-D")
            if y.ndim != 1:
                raise DimensionMismatch(f"task {i}: response must be 1-D, got {y.ndim}-D")
            if y.shape[0] != X.shape[0]:
                raise DimensionMismatch(
                    f"task {i}: {X.shape[0]} rows but {y.shape[0]} responses"
                )
            if xs and X.shape[1] != xs[0].shape[1]:
                raise DimensionMismatch(
                    f"task {i} has {X.shape[1]} columns, task 0 has {xs[0].shape[1]}"
                )
            xs.append(X)
            ys.append(y)
        n = [X.shape[0] for X in xs]
        X_stack, y_stack = _zero_stacks(n, xs[0].shape[1] if xs else 0)
        for t, (X, y) in enumerate(zip(xs, ys)):
            X_stack[t, : n[t]] = X
            y_stack[t, : n[t]] = y
        self._adopt(X_stack, y_stack, n)

    @classmethod
    def _from_stacks(cls, X_stack, y_stack, n):
        """A dataset that takes over stacks from :func:`_zero_stacks`, filled
        with tasks of ``n[t]`` rows, without copying them."""
        ds = cls.__new__(cls)
        ds._adopt(X_stack, y_stack, n)
        return ds

    def _adopt(self, X_stack, y_stack, n):
        X_stack.setflags(write=False)
        y_stack.setflags(write=False)
        self.X_stack = X_stack
        self.y_stack = y_stack
        self.X = tuple(X_stack[t, : n[t]] for t in range(len(n)))
        self.y = tuple(y_stack[t, : n[t]] for t in range(len(n)))
        self.n_per_task = tuple(n)
        self.N = sum(n)
        # True on the padding of the (T, n_max) layout
        self._padding = np.arange(y_stack.shape[1]) >= np.array(n, dtype=int)[:, None]
        self._cache = {}

    @property
    def T(self):
        return self.X_stack.shape[0]

    @property
    def d(self):
        return self.X_stack.shape[2]

    def forward(self, W):
        """(T, n_max) rows X_t w_t of a (d, T) weight matrix; padding rows are 0.

        Only the columns of W's nonzero rows contribute, so when at most a
        quarter of W's entries are nonzero (a screened path's weights, or a
        row-sparse iterate) the product reads just those columns of every
        task; gathering them costs more than it saves above about that share.
        """
        if 4 * np.count_nonzero(W) > W.size:
            return np.matmul(self.X_stack, W.T[:, :, None])[:, :, 0]
        rows = np.flatnonzero(W.any(axis=1))
        cols = np.take(np.swapaxes(self.X_stack, 1, 2), rows, axis=1)
        return np.matmul(W[rows].T[:, None, :], cols)[:, 0, :]

    def adjoint(self, R, rows=None):
        """(d, T) matrix with columns X_t' R[t] of (T, n_max) padded rows.

        With ``rows`` (feature indices) only those rows of the image, in that
        order; at most a quarter of d of them are formed from their gathered
        columns alone, more from the full product, which is cheaper there.
        """
        XT = np.swapaxes(self.X_stack, 1, 2)
        if rows is not None and 4 * len(rows) <= self.d:
            return np.matmul(np.take(XT, rows, axis=1), R[:, :, None])[:, :, 0].T
        image = np.matmul(XT, R[:, :, None])[:, :, 0].T
        return image if rows is None else image[rows]

    def dual_rows(self, theta):
        """A dual vector as float64 (T, n_max) rows, checked to have the shape
        of ``y_stack`` and exact zeros on the padding; raises
        DimensionMismatch otherwise."""
        R = np.asarray(theta, dtype=np.float64)
        if R.shape != self.y_stack.shape:
            raise DimensionMismatch(
                f"dual vector shape {R.shape}, expected {self.y_stack.shape}"
            )
        if R[self._padding].any():
            raise DimensionMismatch("dual vector is nonzero on the padding of a shorter task")
        return R

    @property
    def col_norms(self):
        """(d, T) array of per-task column norms, computed once and cached."""
        key = "col_norms"
        if key not in self._cache:
            cn = np.sqrt(np.einsum("tij,tij->jt", self.X_stack, self.X_stack, order="C"))
            cn.setflags(write=False)
            self._cache[key] = cn
        return self._cache[key]

    @property
    def col_norm_max(self):
        """(d,) largest per-task column norm of each feature, sqrt(rho_l): the
        norm of the map theta -> (<x_l_t, theta_t>)_t."""
        key = "col_norm_max"
        if key not in self._cache:
            cm = self.col_norms.max(axis=1)
            cm.setflags(write=False)
            self._cache[key] = cm
        return self._cache[key]

    @property
    def response_image(self):
        """(d, T) array X_t' y_t of the responses, computed once and cached."""
        key = "response_image"
        if key not in self._cache:
            img = self.adjoint(self.y_stack)
            img.setflags(write=False)
            self._cache[key] = img
        return self._cache[key]

    def __eq__(self, other):
        if not isinstance(other, MultiTaskDataset):
            return NotImplemented
        return (
            self.T == other.T
            and all(np.array_equal(a, b) for a, b in zip(self.X, other.X))
            and all(np.array_equal(a, b) for a, b in zip(self.y, other.y))
        )

    def __repr__(self):
        return f"MultiTaskDataset(T={self.T}, d={self.d}, n={list(self.n_per_task)})"


def validate_dataset(ds):
    """Raise unless every dataset invariant holds.

    Errors
    ------
    EmptyDataset : no tasks, a task with zero rows, or zero features.
    NonFinite : some matrix or response entry is NaN or infinite.

    Tasks with different column counts never get this far: the constructor
    cannot stack them and raises DimensionMismatch itself.
    """
    if ds.T == 0:
        raise EmptyDataset("dataset has no tasks")
    for t, (X, y) in enumerate(zip(ds.X, ds.y)):
        if X.shape[0] == 0:
            raise EmptyDataset(f"task {t} has no samples")
        if not np.isfinite(X).all():
            raise NonFinite(f"task {t}: design matrix has a non-finite entry")
        if not np.isfinite(y).all():
            raise NonFinite(f"task {t}: response has a non-finite entry")
    if ds.d == 0:
        raise EmptyDataset("dataset has no features")


class WeightMatrix:
    """A d x T coefficient matrix; column t belongs to task t, rows are the
    unit of sparsity."""

    def __init__(self, values):
        v = np.array(values, dtype=np.float64, copy=True)
        if v.ndim != 2:
            raise DimensionMismatch(f"weights must be 2-D, got {v.ndim}-D")
        v.setflags(write=False)
        self.values = v

    @property
    def d(self):
        return self.values.shape[0]

    @property
    def T(self):
        return self.values.shape[1]

    def row_norms(self):
        return _row_norms(self.values)

    def __eq__(self, other):
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"WeightMatrix(d={self.d}, T={self.T})"

    def to_csv(self, path):
        _write_table(path, self.values)

    @classmethod
    def from_csv(cls, path):
        table = _read_table(path)
        if not len(table):
            raise DatasetFormatError(f"{path}: no rows")
        return cls(table)


def as_weight_values(W, d=None, T=None):
    """Coerce a WeightMatrix or array to a finite (d, T) float64 ndarray."""
    v = W.values if isinstance(W, WeightMatrix) else np.asarray(W, dtype=np.float64)
    if v.ndim != 2:
        raise DimensionMismatch(f"weights must be 2-D, got {v.ndim}-D")
    if d is not None and v.shape != (d, T):
        raise DimensionMismatch(f"weights shape {v.shape}, expected {(d, T)}")
    if not np.isfinite(v).all():
        raise NonFinite("weights contain a non-finite value")
    return v


def _row_norms(V):
    """Euclidean norm of every row of a 2-D array."""
    return np.sqrt(np.einsum("ij,ij->i", V, V))


def l21_norm(W):
    """Sum of the row norms of a WeightMatrix or 2-D array."""
    return float(_row_norms(as_weight_values(W)).sum())


def _check_lambda(lam):
    """``lam`` as a float, raising NonFinite for NaN or an infinity and
    NonPositiveLambda for lam <= 0."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise NonFinite(f"lam must be finite, got {lam}")
    if lam <= 0:
        raise NonPositiveLambda(f"lam must be positive, got {lam}")
    return lam


class LambdaGrid:
    """A strictly decreasing sequence of positive regularization values whose
    head is the all-zero threshold of the attached dataset."""

    def __init__(self, values):
        v = np.array(values, dtype=np.float64, copy=True)
        if v.ndim != 1 or v.shape[0] == 0:
            raise LambdaOutOfRange("grid must be a non-empty 1-D sequence")
        if not np.isfinite(v).all():
            raise NonFinite("grid contains a non-finite value")
        if (v <= 0).any():
            raise LambdaOutOfRange("grid values must be positive")
        if v.shape[0] > 1 and not (np.diff(v) < 0).all():
            raise LambdaOutOfRange("grid must be strictly decreasing")
        v.setflags(write=False)
        self.values = v

    @classmethod
    def log_spaced(cls, lambda_max, n_points=100, min_ratio=0.01):
        """Log-equispaced ratios from 1.0 down to ``min_ratio`` inclusive.

        Endpoints are exact: the head is ``lambda_max`` itself and the tail is
        ``lambda_max * min_ratio``; consecutive ratios are constant.
        """
        if lambda_max <= 0:
            raise LambdaOutOfRange(f"lambda_max must be positive, got {lambda_max}")
        if n_points < 1:
            raise LambdaOutOfRange(f"need at least one grid point, got {n_points}")
        if not 0 < min_ratio <= 1:
            raise LambdaOutOfRange(f"min_ratio must be in (0, 1], got {min_ratio}")
        if n_points == 1:
            return cls([lambda_max])
        if min_ratio == 1.0:
            raise LambdaOutOfRange("min_ratio 1.0 needs n_points == 1")
        k = np.arange(n_points)
        ratios = min_ratio ** (k / (n_points - 1))
        ratios[0] = 1.0
        ratios[-1] = min_ratio
        return cls(lambda_max * ratios)

    def validate_head(self, lambda_max):
        """Check the head equals the given threshold to LAMBDA_EQ_RTOL."""
        head = self.values[0]
        if not math.isclose(head, lambda_max, rel_tol=LAMBDA_EQ_RTOL, abs_tol=0.0):
            raise LambdaOutOfRange(
                f"grid head {head!r} does not match the all-zero threshold {lambda_max!r}"
            )

    def __len__(self):
        return self.values.shape[0]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if not isinstance(other, LambdaGrid):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"LambdaGrid(K={len(self)}, head={self.values[0]!r}, tail={self.values[-1]!r})"


class ScreeningMask:
    """Per-feature certified-inactive flags at one regularization value.

    ``inactive[l]`` is derived from ``scores[l] < 1`` (strict), so the
    coupling between flags and scores can never drift.
    """

    def __init__(self, scores, lam):
        scores = np.array(scores, dtype=np.float64, copy=True)
        if scores.ndim != 1:
            raise DimensionMismatch(f"scores must be 1-D, got {scores.ndim}-D")
        if not np.isfinite(scores).all():
            raise NonFinite("scores contain a non-finite value")
        scores.setflags(write=False)
        self.scores = scores
        self.lam = float(lam)
        inactive = scores < 1.0
        inactive.setflags(write=False)
        self.inactive = inactive

    @property
    def d(self):
        return self.scores.shape[0]

    @property
    def n_inactive(self):
        return int(self.inactive.sum())

    def __eq__(self, other):
        if not isinstance(other, ScreeningMask):
            return NotImplemented
        return self.lam == other.lam and np.array_equal(self.scores, other.scores)

    def __repr__(self):
        return f"ScreeningMask(d={self.d}, n_inactive={self.n_inactive}, lam={self.lam!r})"


# ------------------------------ file format ------------------------------
#
# A dataset directory holds meta.json with {"T": int, "d": int,
# "n": [N_1, ..., N_T]} plus task_<t>.csv (0-based t), each row d feature
# values followed by the response as the last column. Extra meta keys are
# kept in meta.json and returned in the meta dict that load_dataset gives.


def _write_table(path, rows):
    """Write a 2-D float array as CSV, each cell the shortest decimal string
    that reads back to the same float64."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _read_table(path, width=None):
    """A numeric CSV as a 2-D float64 array, each row ``width`` fields wide
    (or as wide as the first); a malformed file raises DatasetFormatError
    naming the file, the 1-based line and, for a bad cell, its field."""
    try:
        with warnings.catch_warnings():
            # a file with no rows reads as shape (0, 1); callers count rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2)
        if len(table) and width not in (None, table.shape[1]):
            raise ValueError(f"rows of {table.shape[1]} fields, expected {width}")
    except (FileNotFoundError, IsADirectoryError):
        raise DatasetFormatError(f"{path}: file not found") from None
    except ValueError as e:
        # numpy's errors skip blank lines and count rows from 1 or from 0 by
        # fault, so the lines are read again to name the first bad one
        with open(path, errors="replace") as fh:
            for i, line in enumerate(fh, 1):
                fields = line.rstrip("\r\n").split(",")
                if fields == [""]:
                    continue
                width = len(fields) if width is None else width
                if len(fields) != width:
                    raise DatasetFormatError(
                        f"{path} line {i}: expected {width} fields, got {len(fields)}"
                    ) from None
                if _parses(line):
                    continue
                for j, field in enumerate(fields, 1):
                    if not (field and _parses(field)):
                        raise DatasetFormatError(
                            f"{path} line {i} field {j}: not a number: {field!r}"
                        ) from None
        raise DatasetFormatError(f"{path}: {e}") from None
    return table.reshape(len(table), width or table.shape[1])


def _parses(text):
    """True when numpy's table parser reads the non-empty ``text`` as a row."""
    try:
        np.loadtxt([text], delimiter=",", comments=None)
    except ValueError:
        return False
    return True


def save_dataset(ds, out_dir, extra_meta=None):
    """Write the dataset directory format; floats round-trip bit-exactly."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"T": ds.T, "d": ds.d, "n": list(ds.n_per_task)}
    if extra_meta:
        for k, v in extra_meta.items():
            meta.setdefault(k, v)
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    for t, (X, y) in enumerate(zip(ds.X, ds.y)):
        _write_table(out / f"task_{t}.csv", np.column_stack((X, y)))
    return out


def _is_count(v):
    """True for a JSON integer >= 0 (a bool is not one)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def load_dataset(in_dir):
    """Read a dataset directory; returns (dataset, meta dict)."""
    root = Path(in_dir)
    meta_path = root / "meta.json"
    if not meta_path.is_file():
        raise DatasetFormatError(f"{meta_path}: file not found")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(f"{meta_path}: invalid JSON ({e})") from None
    for key in ("T", "d", "n"):
        if key not in meta:
            raise DatasetFormatError(f"{meta_path}: missing key {key!r}")
    T, d, n = meta["T"], meta["d"], meta["n"]
    if not isinstance(n, list) or not all(_is_count(v) for v in (T, d, *n)):
        raise DatasetFormatError(
            f"{meta_path}: T, d and every entry of the list n must be ints >= 0"
        )
    if len(n) != T:
        raise DatasetFormatError(f"{meta_path}: n has {len(n)} entries, T is {T}")
    paths = [root / f"task_{t}.csv" for t in range(T)]
    # the stack is allocated from the counts, so each file must be able to
    # hold its rows first: n rows of d + 1 one-character cells are its
    # smallest form, the last newline optional
    for path, rows in zip(paths, n):
        if not path.is_file():
            raise DatasetFormatError(f"{path}: file not found")
        size = path.stat().st_size
        if size < rows * (2 * d + 2) - 1:
            raise DatasetFormatError(
                f"{path}: {size} bytes cannot hold the {rows} rows of {d + 1} fields meta.json gives"
            )
    # with no tasks the stack has no columns, as MultiTaskDataset([]) has
    X_stack, y_stack = _zero_stacks(n, d if T else 0)
    for t, path in enumerate(paths):
        table = _read_table(path, width=d + 1)
        if len(table) != n[t]:
            raise DatasetFormatError(
                f"task_{t}.csv: {len(table)} rows, meta says {n[t]}"
            )
        X_stack[t, : n[t]] = table[:, :d]
        y_stack[t, : n[t]] = table[:, d]
        del table  # one task's table at a time beside the stack
    return MultiTaskDataset._from_stacks(X_stack, y_stack, n), meta
