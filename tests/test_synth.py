import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from mtl21.core import WeightMatrix, load_dataset
from mtl21.synth import RNG_NAME, SynthConfig, generate, write_benchmark


def cfg(**kw):
    base = dict(kind="s1", tasks=3, n_per_task=10, d=20, seed=0)
    base.update(kw)
    return SynthConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(kind="s3")
        with pytest.raises(ValueError):
            cfg(tasks=0)
        with pytest.raises(ValueError):
            cfg(n_per_task=0)
        with pytest.raises(ValueError):
            cfg(d=0)
        with pytest.raises(ValueError):
            cfg(support_fraction=0.0)
        with pytest.raises(ValueError):
            cfg(support_fraction=1.5)
        with pytest.raises(ValueError):
            cfg(noise_scale=-0.1)
        with pytest.raises(ValueError):
            cfg(support_mode="union")


class TestGenerate:
    def test_shapes_and_types(self):
        ds, W = generate(cfg(tasks=4, n_per_task=7, d=15))
        assert ds.T == 4 and ds.d == 15
        assert ds.n_per_task == (7, 7, 7, 7)
        assert isinstance(W, WeightMatrix)
        assert W.values.shape == (15, 4)

    def test_deterministic_per_seed(self):
        a_ds, a_W = generate(cfg(seed=11))
        b_ds, b_W = generate(cfg(seed=11))
        c_ds, _ = generate(cfg(seed=12))
        for t in range(a_ds.T):
            assert np.array_equal(a_ds.X[t], b_ds.X[t])
            assert np.array_equal(a_ds.y[t], b_ds.y[t])
        assert np.array_equal(a_W.values, b_W.values)
        assert not np.array_equal(a_ds.X[0], c_ds.X[0])

    def test_support_size_and_sharing(self):
        ds, W = generate(cfg(d=50, support_fraction=0.10))
        rn = W.row_norms()
        assert int((rn > 0).sum()) == 5  # ceil(0.10 * 50)
        # shared mode: each supported row is nonzero in every task
        nz = W.values != 0.0
        assert np.array_equal(nz.any(axis=1), nz.all(axis=1))

    def test_support_rounding_up(self):
        _, W = generate(cfg(d=11, support_fraction=0.10))
        assert int((W.row_norms() > 0).sum()) == 2  # ceil(1.1)

    def test_full_support(self):
        _, W = generate(cfg(support_fraction=1.0))
        assert (W.row_norms() > 0).all()

    def test_per_task_mode(self):
        ds, W = generate(
            cfg(d=60, tasks=5, support_fraction=0.10, support_mode="per-task", seed=3)
        )
        nz = W.values != 0.0
        assert (nz.sum(axis=0) == 6).all()
        # with 5 independent draws of 6 of 60, identical supports are
        # essentially impossible; the union is what stays row-nonzero
        assert not np.array_equal(nz.any(axis=1), nz.all(axis=1))

    def test_noiseless_responses(self):
        ds, W = generate(cfg(noise_scale=0.0))
        for t in range(ds.T):
            assert np.allclose(ds.y[t], ds.X[t] @ W.values[:, t], rtol=0, atol=1e-12)

    def test_noise_scale(self):
        base, W = generate(cfg(noise_scale=0.0, seed=21))
        noisy, W2 = generate(cfg(noise_scale=0.5, seed=21))
        # same seed and draw order: designs and weights coincide, only the
        # noise draw differs
        assert np.array_equal(W.values, W2.values)
        for t in range(base.T):
            assert np.array_equal(base.X[t], noisy.X[t])
            resid = noisy.y[t] - base.y[t]
            assert 0.05 < float(np.std(resid)) < 2.0

    def test_s1_columns_uncorrelated(self):
        ds, _ = generate(cfg(kind="s1", tasks=4, n_per_task=2500, d=20, seed=5))
        pooled = np.vstack([ds.X[t] for t in range(ds.T)])
        C = np.corrcoef(pooled, rowvar=False)
        off = C[~np.eye(20, dtype=bool)]
        assert np.abs(off).max() < 0.05

    def test_s2_autoregressive_correlation(self):
        ds, _ = generate(cfg(kind="s2", tasks=4, n_per_task=2500, d=50, seed=6))
        pooled = np.vstack([ds.X[t] for t in range(ds.T)])
        C = np.corrcoef(pooled, rowvar=False)
        for lag in range(1, 6):
            emp = np.diagonal(C, offset=lag)
            assert np.abs(emp - 0.5**lag).max() < 0.05

    def test_s2_unit_marginal_variance(self):
        ds, _ = generate(cfg(kind="s2", tasks=2, n_per_task=5000, d=30, seed=7))
        pooled = np.vstack([ds.X[t] for t in range(ds.T)])
        v = pooled.var(axis=0)
        assert np.abs(v - 1.0).max() < 0.08

    def test_builds_the_stack_without_a_second_copy(self):
        T, n, d = 4, 50, 3000
        generate(cfg())  # lazy imports
        tracemalloc.start()
        try:
            ds, _ = generate(cfg(tasks=T, n_per_task=n, d=d, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = n * (d + 1) * 8
        assert peak < ds.X_stack.nbytes + 2 * table

    # SHA-1 of every task's X and y bytes and of W, for seed 5 and the
    # small config; computed with the generator that drew each task into a
    # list of arrays and stacked them afterwards. y is a BLAS product, so a
    # BLAS that rounds it differently changes these values too.
    DIGESTS = {
        ("s1", "shared"): "05e9087531fb050abde87e8cf9054e57b82c0eda",
        ("s1", "per-task"): "209b11b747ee8830b241d4600cd1e183c7f4b348",
        ("s2", "shared"): "8a9d200bc231b2a01331d1b22ed2efabb21aabeb",
        ("s2", "per-task"): "dad39cc7d30cede610a4865fd6daaa4f9a40a610",
    }

    @pytest.mark.parametrize("kind,mode", sorted(DIGESTS))
    def test_output_bytes_are_pinned(self, kind, mode):
        ds, W = generate(cfg(kind=kind, support_mode=mode, seed=5))
        h = hashlib.sha1()
        for X, y in zip(ds.X, ds.y):
            h.update(X.tobytes())
            h.update(y.tobytes())
        h.update(W.values.tobytes())
        assert h.hexdigest() == self.DIGESTS[kind, mode]


class TestWriteBenchmark:
    def test_round_trip_with_truth(self, tmp_path):
        c = cfg(kind="s2", seed=9, noise_scale=0.02)
        ds, truth = write_benchmark(c, tmp_path / "bench")
        back, meta = load_dataset(tmp_path / "bench")
        assert meta["noise_scale"] == 0.02
        for t in range(ds.T):
            assert np.array_equal(back.X[t], ds.X[t])
            assert np.array_equal(back.y[t], ds.y[t])
        W = WeightMatrix.from_csv(tmp_path / "bench" / "truth.csv")
        assert np.array_equal(W.values, truth.values)

    def test_metadata_records_generator(self, tmp_path):
        c = cfg(seed=13, support_fraction=0.25)
        write_benchmark(c, tmp_path / "b")
        meta = json.loads((tmp_path / "b" / "meta.json").read_text())
        assert meta["kind"] == "s1"
        assert meta["seed"] == 13
        assert meta["support_fraction"] == 0.25
        assert meta["rng"] == RNG_NAME
