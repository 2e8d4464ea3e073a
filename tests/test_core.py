import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import mtl21
from mtl21.core import (
    LambdaGrid,
    MultiTaskDataset,
    ScreeningMask,
    WeightMatrix,
    as_weight_values,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from mtl21.errors import (
    DatasetFormatError,
    DimensionMismatch,
    EmptyDataset,
    LambdaOutOfRange,
    NonFinite,
)
from mtl21.synth import SynthConfig, generate


def tiny_dataset():
    X0 = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
    y0 = np.array([1.0, -1.0, 0.5])
    X1 = np.array([[2.0, -1.0], [0.5, 0.25]])
    y1 = np.array([0.0, 4.0])
    return MultiTaskDataset([(X0, y0), (X1, y1)])


def random_dataset(rng, T=3, d=7, ns=None):
    ns = ns or [5] * T
    tasks = [
        (rng.standard_normal((n, d)), rng.standard_normal(n)) for n in ns
    ]
    return MultiTaskDataset(tasks)


class TestMultiTaskDataset:
    def test_shapes_and_counts(self):
        ds = tiny_dataset()
        assert ds.T == 2
        assert ds.d == 2
        assert ds.n_per_task == (3, 2)
        assert ds.N == 5

    def test_arrays_are_float64_and_read_only(self):
        ds = MultiTaskDataset([(np.array([[1, 2]], dtype=int), [3])])
        assert ds.X[0].dtype == np.float64
        assert ds.y[0].dtype == np.float64
        with pytest.raises(ValueError):
            ds.X[0][0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.y[0][0] = 9.0

    def test_input_arrays_are_copied(self):
        X = np.array([[1.0, 2.0]])
        y = np.array([3.0])
        ds = MultiTaskDataset([(X, y)])
        X[0, 0] = 77.0
        y[0] = 77.0
        assert ds.X[0][0, 0] == 1.0
        assert ds.y[0][0] == 3.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatch):
            MultiTaskDataset([(np.zeros(3), np.zeros(3))])
        with pytest.raises(DimensionMismatch):
            MultiTaskDataset([(np.zeros((3, 2)), np.zeros((3, 1)))])
        with pytest.raises(DimensionMismatch):
            MultiTaskDataset([(np.zeros((3, 2)), np.zeros(4))])

    def test_column_accessor(self):
        # a task view holds only that task's rows, not the stack's padding
        ds = tiny_dataset()
        np.testing.assert_array_equal(ds.X[0][:, 1], [0.0, 2.0, 1.0])
        np.testing.assert_array_equal(ds.X[1][:, 0], [2.0, 0.5])

    def test_col_norms_against_loop(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, T=4, d=6, ns=[3, 5, 2, 8])
        cn = ds.col_norms
        assert cn.shape == (6, 4)
        for t in range(4):
            for j in range(6):
                assert math.isclose(
                    cn[j, t], float(np.linalg.norm(ds.X[t][:, j])), rel_tol=1e-15
                )

    def test_equality(self):
        assert tiny_dataset() == tiny_dataset()
        other = random_dataset(np.random.default_rng(0))
        assert tiny_dataset() != other


class TestValidateDataset:
    def test_accepts_well_formed(self):
        validate_dataset(tiny_dataset())

    def test_no_tasks(self):
        with pytest.raises(EmptyDataset):
            validate_dataset(MultiTaskDataset([]))

    def test_zero_row_task(self):
        ds = MultiTaskDataset([(np.zeros((0, 2)), np.zeros(0))])
        with pytest.raises(EmptyDataset):
            validate_dataset(ds)

    def test_zero_features(self):
        ds = MultiTaskDataset([(np.zeros((3, 0)), np.zeros(3))])
        with pytest.raises(EmptyDataset):
            validate_dataset(ds)

    def test_column_count_mismatch(self):
        # tasks that cannot be stacked are rejected by the constructor itself
        with pytest.raises(DimensionMismatch):
            MultiTaskDataset(
                [(np.zeros((2, 3)), np.zeros(2)), (np.zeros((2, 4)), np.zeros(2))]
            )

    def test_non_finite_entries(self):
        X = np.ones((2, 2))
        X[0, 1] = np.nan
        with pytest.raises(NonFinite):
            validate_dataset(MultiTaskDataset([(X, np.ones(2))]))
        y = np.array([1.0, np.inf])
        with pytest.raises(NonFinite):
            validate_dataset(MultiTaskDataset([(np.ones((2, 2)), y)]))


def test_dual_rows_check_the_padded_layout():
    # a dual vector is the (T, n_max) rows of y_stack, zero on the padding
    ds = tiny_dataset()
    np.testing.assert_array_equal(ds.y_stack, [[1.0, -1.0, 0.5], [0.0, 4.0, 0.0]])
    rows = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, -0.0]])
    assert np.array_equal(ds.dual_rows(rows), rows)
    leaky = rows.copy()
    leaky[1, 2] = 1e-300
    for bad in (np.arange(5.0), rows.T, rows[:, :2], leaky):
        with pytest.raises(DimensionMismatch):
            ds.dual_rows(bad)
    for value in (np.nan, np.inf, -np.inf):
        bad = rows.copy()
        bad[0, 1] = value
        with pytest.raises(NonFinite):
            ds.dual_rows(bad)


def test_package_exports_resolve():
    # every exported name resolves through the package's lazy lookup, and
    # the names of the removed flat dual layout and single-feature
    # constraint are gone
    for name in mtl21.__all__:
        if name != "__version__":
            mtl21.__getattr__(name)
    for name in ("DualPoint", "stack_response", "feature_constraint"):
        assert name not in mtl21.__all__
        with pytest.raises(AttributeError):
            getattr(mtl21, name)


class TestWeightMatrix:
    def test_row_norms(self):
        W = WeightMatrix([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(W.row_norms(), [5.0, 0.0, 1.0], rtol=0, atol=0)

    def test_rejects_one_dimensional(self):
        with pytest.raises(DimensionMismatch):
            WeightMatrix([0.5, 0.0])

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        W = WeightMatrix(rng.standard_normal((9, 4)) * 10.0 ** rng.integers(-8, 9, (9, 4)))
        p = tmp_path / "w.csv"
        W.to_csv(p)
        W2 = WeightMatrix.from_csv(p)
        assert np.array_equal(W.values, W2.values)

    def test_csv_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        W = WeightMatrix(rng.standard_normal((6, 3)) * 10.0 ** rng.integers(-300, 300, (6, 3)))
        W.to_csv(tmp_path / "a.csv")
        WeightMatrix.from_csv(tmp_path / "a.csv").to_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_from_csv_ragged_rows(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DatasetFormatError):
            WeightMatrix.from_csv(p)

    def test_as_weight_values_checks_shape(self):
        with pytest.raises(DimensionMismatch):
            as_weight_values(np.zeros((2, 3)), d=3, T=3)
        v = as_weight_values(WeightMatrix(np.ones((2, 3))), d=2, T=3)
        assert v.shape == (2, 3)


class TestLambdaGrid:
    def test_log_spaced_frozen_ratios(self):
        # 5 points from 1.0 down to 0.01: ratios are 0.01**(k/4)
        grid = LambdaGrid.log_spaced(2.0, n_points=5, min_ratio=0.01)
        ratios = grid.values / 2.0
        expected = [
            1.0,
            0.31622776601683794,
            0.1,
            0.03162277660168379,
            0.01,
        ]
        np.testing.assert_allclose(ratios, expected, rtol=1e-15, atol=0)

    def test_log_spaced_endpoints_exact(self):
        lmax = 0.7321456
        grid = LambdaGrid.log_spaced(lmax, n_points=100, min_ratio=0.01)
        assert grid.values[0] == lmax
        assert grid.values[-1] == lmax * 0.01
        assert len(grid) == 100

    def test_log_spaced_constant_ratio(self):
        grid = LambdaGrid.log_spaced(1.0, n_points=50, min_ratio=0.01)
        r = grid.values[1:] / grid.values[:-1]
        np.testing.assert_allclose(r, r[0], rtol=1e-12)

    def test_single_point(self):
        grid = LambdaGrid.log_spaced(3.0, n_points=1, min_ratio=0.01)
        np.testing.assert_array_equal(grid.values, [3.0])

    def test_log_spaced_rejects_non_integer_points(self):
        # 2.5 points would give ratios 1, 0.215, 0.1, which are not constant
        for n_points in (2.5, 3.0, math.nan, "3"):
            with pytest.raises(LambdaOutOfRange, match="integer"):
                LambdaGrid.log_spaced(1.0, n_points=n_points)
        assert len(LambdaGrid.log_spaced(1.0, n_points=np.int64(3))) == 3

    def test_rejects_non_decreasing(self):
        with pytest.raises(LambdaOutOfRange):
            LambdaGrid([1.0, 1.0, 0.5])
        with pytest.raises(LambdaOutOfRange):
            LambdaGrid([1.0, 2.0])

    def test_rejects_non_positive(self):
        with pytest.raises(LambdaOutOfRange):
            LambdaGrid([1.0, 0.0])
        with pytest.raises(LambdaOutOfRange):
            LambdaGrid([])

    def test_validate_head(self):
        grid = LambdaGrid([2.0, 1.0])
        grid.validate_head(2.0)
        grid.validate_head(2.0 * (1 + 1e-13))
        with pytest.raises(LambdaOutOfRange):
            grid.validate_head(2.0001)


class TestScreeningMask:
    def test_inactive_derived_from_scores(self):
        m = ScreeningMask([0.5, 1.0, 0.999999, 2.0], lam=0.3)
        np.testing.assert_array_equal(m.inactive, [True, False, True, False])
        assert m.n_inactive == 2
        assert m.d == 4

    def test_score_exactly_one_is_kept(self):
        m = ScreeningMask([1.0], lam=1.0)
        assert not m.inactive[0]

    def test_rejects_non_finite_scores(self):
        with pytest.raises(NonFinite):
            ScreeningMask([np.nan], lam=1.0)


class TestDatasetIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, T=3, d=4, ns=[5, 2, 7])
        out = tmp_path / "ds"
        save_dataset(ds, out)
        ds2, meta = load_dataset(out)
        assert ds == ds2
        assert meta["T"] == 3
        assert meta["d"] == 4
        assert meta["n"] == [5, 2, 7]

    def test_extreme_values_round_trip(self, tmp_path):
        X = np.array([[1e-308, -1.2345678901234567e300], [math.pi, -0.1]])
        y = np.array([1.7976931348623157e308, 5e-324])
        ds = MultiTaskDataset([(X, y)])
        out = tmp_path / "ds"
        save_dataset(ds, out)
        ds2, _ = load_dataset(out)
        assert ds == ds2

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, T=3, d=5, ns=[4, 1, 6])
        save_dataset(ds, tmp_path / "a", extra_meta={"seed": 4})
        ds2, meta = load_dataset(tmp_path / "a")
        save_dataset(ds2, tmp_path / "b", extra_meta=meta)
        for name in ["meta.json", "task_0.csv", "task_1.csv", "task_2.csv"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_task_with_no_rows_loads_then_fails_validation(self, tmp_path, recwarn):
        # a task of zero rows is written as an empty file and read back as
        # (0, d) without a warning; validation then reports the empty task
        ds = MultiTaskDataset([(np.ones((2, 3)), np.ones(2)), (np.zeros((0, 3)), np.zeros(0))])
        out = save_dataset(ds, tmp_path / "ds")
        assert (out / "task_1.csv").read_bytes() == b""
        ds2, meta = load_dataset(out)
        assert meta["n"] == [2, 0]
        assert ds2 == ds
        assert len(recwarn) == 0
        with pytest.raises(EmptyDataset):
            validate_dataset(ds2)

    def test_extra_meta_preserved(self, tmp_path):
        ds = tiny_dataset()
        out = tmp_path / "ds"
        save_dataset(ds, out, extra_meta={"kind": "s1", "seed": 12})
        _, meta = load_dataset(out)
        assert meta["kind"] == "s1"
        assert meta["seed"] == 12

    def test_missing_meta(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n", ["3", "2"]),
            ("n", [True, 2]),
            ("n", [-1, 2]),
            ("n", [3.0, 2]),
            ("T", True),
            ("d", 2.0),
        ],
        ids=["quoted-n", "bool-n", "negative-n", "float-n", "bool-T", "float-d"],
    )
    def test_meta_counts_must_be_ints(self, tmp_path, key, value):
        # a quoted count used to fail as "3 rows, meta says 3"
        out = save_dataset(tiny_dataset(), tmp_path / "ds")
        meta = json.loads((out / "meta.json").read_text())
        meta[key] = value
        (out / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetFormatError, match="meta.json"):
            load_dataset(out)

    @pytest.mark.parametrize(
        "text",
        [b"5", b"null", b'"TdnX"', b'["T", "d", "n"]', b'{"T": 1, "d": 2, "n": [3]}\xff', b"\xff"],
        ids=["number", "null", "string", "list", "bad-utf8-tail", "bad-utf8"],
    )
    def test_meta_json_must_be_a_utf8_object(self, tmp_path, text):
        meta_path = tmp_path / "meta.json"
        meta_path.write_bytes(text)
        with pytest.raises(DatasetFormatError) as ei:
            load_dataset(tmp_path)
        assert str(ei.value).startswith(f"{meta_path}: ")

    @pytest.mark.parametrize(
        "key,value", [("n", [3, 10**12]), ("d", 10**9)], ids=["huge-n", "huge-d"]
    )
    def test_oversized_meta_counts_allocate_nothing(self, tmp_path, key, value):
        # the stack is sized from meta.json only once the files can hold it
        out = save_dataset(tiny_dataset(), tmp_path / "ds")
        meta = json.loads((out / "meta.json").read_text())
        meta[key] = value
        (out / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetFormatError, match="bytes cannot hold"):
            load_dataset(out)

    def test_missing_task_file(self, tmp_path):
        out = save_dataset(tiny_dataset(), tmp_path / "ds")
        (out / "task_1.csv").unlink()
        with pytest.raises(DatasetFormatError, match="task_1.csv: file not found"):
            load_dataset(out)

    def test_no_tasks_load_as_the_empty_dataset(self, tmp_path):
        (tmp_path / "meta.json").write_text(json.dumps({"T": 0, "d": 5, "n": []}))
        ds, _ = load_dataset(tmp_path)
        assert ds == MultiTaskDataset([])
        assert (ds.T, ds.d, ds.N) == (0, 0, 0)

    def test_load_holds_one_task_table_beside_the_stack(self, tmp_path):
        T, n, d = 4, 50, 3000
        ds, _ = generate(SynthConfig(kind="s1", tasks=T, n_per_task=n, d=d, seed=1))
        out = save_dataset(ds, tmp_path / "ds")
        del ds
        load_dataset(save_dataset(tiny_dataset(), tmp_path / "warm"))  # lazy imports

        def load_peak():
            tracemalloc.start()
            try:
                back, _ = load_dataset(out)
                return back.X_stack.nbytes, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        stack, peak = load_peak()
        table = n * (d + 1) * 8
        # the tasks read one by one straight into the stack: not a second
        # copy of every task beside it
        assert peak < stack + 2 * table
        # a cell only numpy reads costs its line, not a read of its whole file
        for t in range(T):
            task = out / f"task_{t}.csv"
            lines = task.read_bytes().splitlines()
            lines[-1] = lines[-1].rsplit(b",", 1)[0] + b",+1"
            task.write_bytes(b"\n".join(lines) + b"\n")
        stack, peak = load_peak()
        assert peak < stack + table
        # a file whose lines end in a lone \r is still read line by line
        for t in range(T):
            task = out / f"task_{t}.csv"
            task.write_bytes(task.read_bytes().replace(b"\n", b"\r"))
        stack, peak = load_peak()
        assert peak < stack + table

    def test_meta_count_mismatch(self, tmp_path):
        ds = tiny_dataset()
        out = tmp_path / "ds"
        save_dataset(ds, out)
        meta = json.loads((out / "meta.json").read_text())
        meta["n"] = [3, 99]
        (out / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetFormatError):
            load_dataset(out)
        # fewer rows than the file has pass the size check and fail the count
        meta["n"] = [3, 1]
        (out / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetFormatError, match="task_1.csv: 2 rows, meta says 1"):
            load_dataset(out)

    def test_bad_field_count_names_line(self, tmp_path):
        ds = tiny_dataset()
        out = tmp_path / "ds"
        save_dataset(ds, out)
        task = out / "task_0.csv"
        lines = task.read_text().splitlines()
        lines[1] = "1.0,2.0"
        task.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError) as ei:
            load_dataset(out)
        assert "line 2" in str(ei.value)

    def test_non_numeric_field_is_diagnosed(self, tmp_path):
        ds = tiny_dataset()
        out = tmp_path / "ds"
        save_dataset(ds, out)
        task = out / "task_1.csv"
        lines = task.read_text().splitlines()
        lines[0] = lines[0].replace(lines[0].split(",")[0], "abc", 1)
        task.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(out)

    def test_bad_cell_names_file_line_and_field(self, tmp_path):
        # lines are counted in the file, blank ones too, and a cell is a
        # number only if numpy parses it: Python's float() would take "1_0"
        ds = tiny_dataset()
        out = save_dataset(ds, tmp_path / "ds")
        task = out / "task_0.csv"
        lines = task.read_text().splitlines()
        lines[1] = "1_0," + lines[1].split(",", 1)[1]
        task.write_text("\n".join([lines[0], ""] + lines[1:]) + "\n")
        with pytest.raises(DatasetFormatError) as ei:
            load_dataset(out)
        assert str(ei.value) == f"{task} line 3 field 1: not a number: '1_0'"


def test_written_cells_are_shortest_round_trip(tmp_path):
    values = [0.1, 1 / 3, math.pi, 1e-300, -2.5, 0.0]
    ds = MultiTaskDataset([(np.array([values[:-1]]), values[-1:])])
    out = save_dataset(ds, tmp_path / "ds")
    cells = (out / "task_0.csv").read_text().rstrip("\n").split(",")
    assert cells[0] == "0.1"
    assert [float(c) for c in cells] == values


def _repr_bits_lines():
    # 10**5 random finite float64 bit patterns, written as the writer does
    rng = np.random.default_rng(20)
    values = rng.integers(0, 2**64, size=10**5, dtype=np.uint64).view(np.float64)
    values = np.where(np.isfinite(values), values, 1.5).reshape(100, 1000)
    return [",".join(map(repr, row.tolist())) for row in values]


# each fixture: the lines of one file, and whether orjson reads all of them
# (True) or some line sends the file to numpy (False)
READER_FIXTURES = {
    "repr-bits": (_repr_bits_lines(), True),
    "subnormal-zero-int": (
        ["5e-324,-0.0,0.0,0,123,9007199254740993", "1e-310,2.225073858507201e-308,-5e-324,7,0.5,-1.0"],
        True,
    ),
    "long-int": (["123456789012345678901234567890,18446744073709551616,-9223372036854775809"], True),
    "exponents": (["1e+05,1E5,1e-400", "1e-05,2E-3,3e+300"], True),
    "int-minus-zero": (["1.0,-0", "-0,1.0", "2.5,3.5"], False),
    "exponent-minus-zero": (["1e-0,2", "3,1e-0"], True),
    "overflow": (["1.5,2.5", "1e400,-1e400"], False),
    "numpy-spellings": (["1.5,2.5,3.5", "+1,.5,1.", "nan,inf, 1.5", "-inf,-nan,1e3"], False),
    "crlf": (["1.5,-2.5\r", "3e2,4\r"], True),
    "lone-cr": (["1.5,-2.5\r3e2,4\r\r-1e-3,5", "6,7.25"], True),
    "blank-lines": (["", "1.5,2", "", "3,4", ""], True),
}


@pytest.mark.parametrize("name", list(READER_FIXTURES))
def test_reader_matches_loadtxt_bit_for_bit(tmp_path, monkeypatch, name):
    lines, fast = READER_FIXTURES[name]
    task = tmp_path / "task_0.csv"
    task.write_bytes(("\n".join(lines) + "\n").encode())
    oracle = np.loadtxt(task, delimiter=",", comments=None, ndmin=2)
    if fast:
        # numpy's parser must not be reached
        monkeypatch.setattr("mtl21.core._numpy_row", None)
    n, width = oracle.shape
    (tmp_path / "meta.json").write_text(json.dumps({"T": 1, "d": width - 1, "n": [n]}))
    ds, _ = load_dataset(tmp_path)
    assert np.array_equal(ds.X_stack[0].view(np.int64), oracle[:, :-1].view(np.int64))
    assert np.array_equal(ds.y_stack[0].view(np.int64), oracle[:, -1].view(np.int64))
    W = WeightMatrix.from_csv(task)
    assert np.array_equal(W.values.view(np.int64), oracle.view(np.int64))


MALFORMED_TASKS = {
    # after a line orjson reads
    "short-row": ("1.0,2.0,3.0\n1.0,2.0\n", "{task} line 2: expected 3 fields, got 2"),
    "long-row": ("1.0,2.0,3.0\n1,2,3,4\n", "{task} line 2: expected 3 fields, got 4"),
    "word": ("1.0,2.0,3.0\n\nabc,2.0,3.0\n", "{task} line 3 field 1: not a number: 'abc'"),
    "underscore": ("1.0,2.0,3.0\n1_0,2.0,3.0\n", "{task} line 2 field 1: not a number: '1_0'"),
    "empty-cell": ("1.0,2.0,3.0\n1.0,,3.0\n", "{task} line 2 field 2: not a number: ''"),
    "lone-cr": ("1.0,2.0,3.0\r4,5,6\rabc,2.0,3.0\r", "{task} line 3 field 1: not a number: 'abc'"),
    "more-rows": ("1.0,2.0,3.0\n4,5,6\n7,8,9\n", "task_0.csv: 3 rows, meta says 2"),
    "fewer-rows": ("1.0,2.0,3.0\n\n", "task_0.csv: 1 rows, meta says 2"),
    # numpy reads the same rows when a line sends the file to it
    "more-rows-numpy": ("1.0,2.0,3.0\n4,5,6\nnan,8,9\n", "task_0.csv: 3 rows, meta says 2"),
}


@pytest.mark.parametrize("name", list(MALFORMED_TASKS))
def test_malformed_task_file_messages(tmp_path, name):
    text, message = MALFORMED_TASKS[name]
    task = tmp_path / "task_0.csv"
    task.write_text(text)
    (tmp_path / "meta.json").write_text(json.dumps({"T": 1, "d": 2, "n": [2]}))
    with pytest.raises(DatasetFormatError) as ei:
        load_dataset(tmp_path)
    assert str(ei.value) == message.format(task=task)
    if " line " in message:
        with pytest.raises(DatasetFormatError) as ei:
            WeightMatrix.from_csv(task)
        assert str(ei.value) == message.format(task=task)


def _random_task_bytes(rng):
    """A small task file of JSON numbers and numpy-only, bad or empty cells,
    with ragged rows, blank lines and every line end numpy splits at."""
    cells = [b"-0", b"+1", b".5", b"nan", b"1e400", b"1_0", b"\xff", b"  ", b"", b"-0.0", b"-inf"]
    width = int(rng.integers(1, 5))
    out = []
    for _ in range(rng.integers(1, 6)):
        if rng.random() < 0.15:
            line = b""
        else:
            row = []
            for _ in range(width + (rng.random() < 0.05) * int(rng.choice([-1, 1]))):
                if rng.random() < 0.15:
                    row.append(cells[rng.integers(len(cells))])
                else:
                    value = rng.standard_normal() * 10.0 ** rng.integers(-5, 6)
                    row.append(repr(float(value)).encode())
            line = b",".join(row)
        out.append(line + [b"\n", b"\r\n", b"\r"][rng.integers(3)])
    if rng.random() < 0.3:
        out[-1] = out[-1].rstrip(b"\r\n")
    return b"".join(out)


def test_reader_agrees_with_loadtxt_on_random_files(tmp_path):
    # numpy is the oracle: what it reads, both readers return bit for bit;
    # what it refuses, both refuse naming the file and a line
    rng = np.random.default_rng(21)
    task = tmp_path / "task_0.csv"
    accepted = refused = 0
    for _ in range(2000):
        data = _random_task_bytes(rng)
        task.write_bytes(data)
        try:
            with warnings.catch_warnings():
                # a file of blank lines holds no data, which numpy warns of
                warnings.simplefilter("ignore", UserWarning)
                oracle = np.loadtxt(task, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            refused += 1
            first = next(line for line in data.splitlines() if line)
            meta = {"T": 1, "d": first.count(b","), "n": [0]}
            (tmp_path / "meta.json").write_text(json.dumps(meta))
            for read in (lambda: load_dataset(tmp_path), lambda: WeightMatrix.from_csv(task)):
                with pytest.raises(DatasetFormatError) as ei:
                    read()
                assert str(ei.value).startswith(f"{task} line "), data
            continue
        accepted += 1
        n, width = oracle.shape
        (tmp_path / "meta.json").write_text(json.dumps({"T": 1, "d": width - 1, "n": [n]}))
        ds, _ = load_dataset(tmp_path)
        got = np.column_stack((ds.X_stack[0], ds.y_stack[0]))
        assert np.array_equal(got.view(np.int64), oracle.view(np.int64)), data
        if n == 0:
            with pytest.raises(DatasetFormatError, match="no rows"):
                WeightMatrix.from_csv(task)
        else:
            W = WeightMatrix.from_csv(task)
            assert np.array_equal(W.values.view(np.int64), oracle.view(np.int64)), data
    assert min(accepted, refused) > 500
