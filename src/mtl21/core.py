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
or just the rows of given features), the constants every level reads, each
formed on first read (``col_norms``, ``col_norm_max``, ``response_image`` =
every X_t' y_t, ``threshold`` and ``witness_normal``), and the one check of a
dual vector (``dual_rows``), whose one layout is the (T, n_max) rows of
``y_stack`` with zero padding. Construction rejects tasks that cannot be
stacked (different column counts) but is otherwise permissive, so that
invalid data can be held and then reported by :func:`validate_dataset`;
numerical code is expected to validate first.

:func:`load_dataset` holds each dataset once: it allocates the stack from
the counts in ``meta.json``, after checking that every task file is large
enough to hold its rows, and reads each task file once, one line at a time,
into its slice, so at most one parsed row sits beside the stack. A line made
only of JSON numbers and commas is parsed by orjson; any other line is
parsed alone by numpy's table parser, which reads every other spelling, and
a bad line is named where it is found.

All arrays are float64 and frozen (read-only) after construction; the types
are safe to share across concurrent readers.
"""

from __future__ import annotations

import json
import math
import operator
from functools import cached_property
from pathlib import Path

import numpy as np
import orjson

from .errors import (
    DatasetFormatError,
    DegenerateData,
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


def _frozen(a):
    a.setflags(write=False)
    return a


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
        """A dataset that takes over stacks laid out as :func:`_zero_stacks`
        lays them out, filled with tasks of ``n[t]`` rows, without copying
        them."""
        ds = cls.__new__(cls)
        ds._adopt(X_stack, y_stack, n)
        return ds

    def _columns(self, rows):
        """The dataset of the given features' columns, in that order, with
        the same responses: one gathered copy of those columns, laid out
        like every stack, that shares ``y_stack``."""
        XT = np.take(np.swapaxes(self.X_stack, 1, 2), rows, axis=1)
        return MultiTaskDataset._from_stacks(XT.swapaxes(1, 2), self.y_stack, self.n_per_task)

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
        of ``y_stack`` and exact zeros on the padding, else raising
        DimensionMismatch, and finite entries, else raising NonFinite."""
        R = np.asarray(theta, dtype=np.float64)
        if R.shape != self.y_stack.shape:
            raise DimensionMismatch(
                f"dual vector shape {R.shape}, expected {self.y_stack.shape}"
            )
        if R[self._padding].any():
            raise DimensionMismatch("dual vector is nonzero on the padding of a shorter task")
        if not np.isfinite(R).all():
            raise NonFinite("dual vector has a non-finite entry")
        return R

    @cached_property
    def col_norms(self):
        """(d, T) array of per-task column norms."""
        return _frozen(np.sqrt(np.einsum("tij,tij->jt", self.X_stack, self.X_stack, order="C")))

    @cached_property
    def col_norm_max(self):
        """(d,) largest per-task column norm of each feature, sqrt(rho_l): the
        norm of the map theta -> (<x_l_t, theta_t>)_t."""
        return _frozen(self.col_norms.max(axis=1))

    @cached_property
    def response_image(self):
        """(d, T) array X_t' y_t of the responses."""
        return _frozen(self.adjoint(self.y_stack))

    @cached_property
    def threshold(self):
        """``(lambda_max, ell_star)``: the smallest level at which the
        solution is all-zero, max_l sqrt(sum_t <x_l_t, y_t>^2), and the
        smallest feature index attaining it. Raises DegenerateData, on every
        read, when every feature is orthogonal to every response."""
        vals = np.sqrt((self.response_image**2).sum(axis=1))
        ell_star = int(np.argmax(vals))
        value = float(vals[ell_star])
        if value == 0.0:
            raise DegenerateData(
                "every feature is orthogonal to every response; no all-zero threshold"
            )
        return value, ell_star

    @cached_property
    def witness_normal(self):
        """``(n, image)``: the threshold's normal, the witness feature's
        constraint gradient at y/lambda_max (row t is 2 <x_l*_t, y_t> x_l*_t /
        lambda_max, the forward image of the weights whose only nonzero row
        is l*), and its image X't n; one forward product and one adjoint."""
        lmax, ell_star = self.threshold
        W = np.zeros((self.d, self.T))
        W[ell_star] = 2.0 * self.response_image[ell_star] / lmax
        n = self.forward(W)
        return _frozen(n), _frozen(self.adjoint(n))

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
        rows = list(_read_rows(path))
        if not rows:
            raise DatasetFormatError(f"{path}: no rows")
        return cls(rows)


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
        try:
            operator.index(n_points)
        except TypeError:
            raise LambdaOutOfRange(f"n_points must be an integer, got {n_points!r}") from None
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


# the bytes of a line of JSON numbers and commas, its line end stripped
_JSON_NUMBER_BYTES = b"0123456789.eE+-,"


def _read_rows(path, width=None):
    """Yield the rows of a numeric CSV, each a float64 array of ``width``
    fields (or as many as the first row has), reading the file once.

    Lines end where numpy's table parser ends them, at ``\\n``, ``\\r\\n`` or
    a lone ``\\r``, and blank ones are skipped as numpy skips them. A line of
    JSON numbers and commas is parsed by orjson, which rounds each number
    correctly as numpy does; any other line goes to :func:`_numpy_row` alone.
    A missing file, a row of another width or a cell that is not a number
    raises DatasetFormatError naming the file and the 1-based line.
    """
    try:
        # latin-1 maps each byte to one character and back
        fh = open(path, encoding="latin-1")
    except (FileNotFoundError, IsADirectoryError):
        raise DatasetFormatError(f"{path}: file not found") from None
    with fh:
        for i, text in enumerate(fh, 1):
            line = text.rstrip("\n").encode("latin-1")
            if not line:
                continue
            row = _json_row(line)
            if row is None:
                row = _numpy_row(path, i, line, width)
            width = width or len(row)
            if len(row) != width:
                raise DatasetFormatError(
                    f"{path} line {i}: expected {width} fields, got {len(row)}"
                )
            yield row


def _json_row(line):
    """A line of JSON numbers and commas as a float64 row; None for any other."""
    if line.translate(None, _JSON_NUMBER_BYTES):
        return None
    try:
        row = np.array(orjson.loads(b"[" + line + b"]"), dtype=np.float64)
    except orjson.JSONDecodeError:
        return None
    # orjson reads the integer -0 as +0.0 where numpy keeps the sign, so only
    # a row holding a zero can hold one
    if not row.all() and (b"-0," in line or line.endswith(b"-0")):
        return None
    return row


def _numpy_row(path, i, line, width):
    """Line ``i`` of ``path`` as a float64 row read by numpy's table parser,
    which takes every spelling orjson declines (``+1``, ``.5``, ``nan``, ...).
    A line it refuses raises DatasetFormatError naming the line and either
    its field count, when that is not ``width``, or its first bad field."""
    try:
        return np.loadtxt([line.decode()], delimiter=",", comments=None, ndmin=1)
    except ValueError as e:  # UnicodeDecodeError is one too
        error = e
    fields = line.decode(errors="replace").split(",")
    width = width or len(fields)
    if len(fields) != width:
        raise DatasetFormatError(f"{path} line {i}: expected {width} fields, got {len(fields)}")
    for j, field in enumerate(fields, 1):
        if not (field and _parses(field)):
            raise DatasetFormatError(f"{path} line {i} field {j}: not a number: {field!r}")
    raise DatasetFormatError(f"{path} line {i}: {error}")


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
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as e:  # a JSONDecodeError or a UnicodeDecodeError
        raise DatasetFormatError(f"{meta_path}: invalid JSON ({e})") from None
    if not isinstance(meta, dict):
        raise DatasetFormatError(f"{meta_path}: not a JSON object")
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
        rows = 0
        for row in _read_rows(path, d + 1):
            if rows < n[t]:  # the rows past n[t] are only counted
                X_stack[t, rows], y_stack[t, rows] = row[:d], row[d]
            rows += 1
        if rows != n[t]:
            raise DatasetFormatError(f"task_{t}.csv: {rows} rows, meta says {n[t]}")
    return MultiTaskDataset._from_stacks(X_stack, y_stack, n), meta
