"""Multi-task regression with row sparsity and safe feature screening.

The solver fits all tasks jointly under a grouped penalty that zeroes
entire feature rows. Before each solve along a regularization path, a
screening step bounds every feature's dual correlation over a ball that
provably contains the dual optimum; features whose bound stays below the
activation threshold are discarded exactly, never approximately.

The names below are resolved on first use, so importing the package (or
``mtl21.cli``) loads no numerics: the command line can still cap BLAS
threads before numpy is first imported.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports at package level
_EXPORTS = {
    "core": (
        "LambdaGrid",
        "MultiTaskDataset",
        "ScreeningMask",
        "WeightMatrix",
        "load_dataset",
        "save_dataset",
        "validate_dataset",
    ),
    "dual": (
        "DualBall",
        "ReferenceSolution",
        "dual_ball",
        "dual_feasibility_violation",
        "dual_from_primal",
        "feature_constraint",
        "feature_constraint_all",
        "lambda_max",
        "normal_vector",
    ),
    "errors": (
        "DatasetFormatError",
        "DegenerateData",
        "DimensionMismatch",
        "EmptyDataset",
        "LambdaOutOfRange",
        "MaxItersExceeded",
        "MtlError",
        "NoConvergence",
        "NonFinite",
        "NonPositiveLambda",
        "SolverFailure",
        "ZeroNormal",
    ),
    "qp1qc": (
        "Qp1qcInstance",
        "Qp1qcSolution",
        "screening_scores",
        "solve",
        "solve_batch",
    ),
    "screening": (
        "PathRecord",
        "PathScreeningReport",
        "screen_at",
        "sequential_path",
        "unscreened_path",
    ),
    "solver": (
        "FitResult",
        "SolverConfig",
        "duality_gap",
        "fit",
        "kkt_residual",
        "objective",
        "reduce_frobenius",
        "reduce_weighted",
    ),
    "synth": ("SynthConfig", "generate", "write_benchmark"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
