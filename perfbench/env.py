"""Process set-up shared by the benchmark's entry points.

Importing this module pins every BLAS/OpenMP pool to one thread (numpy reads
the pins only when it is first imported, so import this module first) and
puts the checkout's ``src`` at the front of ``sys.path``. :func:`describe`
records the environment a result was measured in.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


class MissingProgram(RuntimeError):
    pass


def import_program():
    """Import ``mtl21`` from this checkout's ``src``, or raise MissingProgram."""
    if not (SRC / "mtl21" / "__init__.py").is_file():
        raise MissingProgram(f"no mtl21 package under {SRC}")
    import mtl21

    if Path(mtl21.__file__).resolve().parent != SRC / "mtl21":
        raise MissingProgram(f"mtl21 was imported from {mtl21.__file__}, not from {SRC}")
    return mtl21


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout, read from ``.git`` without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {f: deps[k].get(f) for f in ("name", "version")} for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        return None


def describe(seed):
    import mtl21
    import numpy as np

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "git_commit": _git_commit(),
        "mtl21_file": mtl21.__file__,
    }
