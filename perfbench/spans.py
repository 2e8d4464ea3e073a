"""Spans and counts around the calls a path walk makes into each layer.

The program has no trace of its own yet, so :class:`Tracer` wraps, for the
duration of one walk, the public names the walk looks up at call time, and
restores them afterwards:

- ``mtl21.lambda_max`` (the walk's own threshold call);
- in ``mtl21.screening``: ``fit``, ``objective``, ``dual_ball``,
  ``screening_scores``, ``dual_feasibility_violation``,
  ``ReferenceSolution.from_primal``, ``lambda_max``, ``validate_dataset`` and
  ``MultiTaskDataset`` (the per-level feature subset);
- in ``mtl21.qp1qc``: ``solve_batch``.

A span is named ``<module>.<operation>``; the root span ``screening.self``
covers the whole walk. Counts are taken only from the values these calls
return. A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the root span.
"""

from __future__ import annotations

import time
from collections import defaultdict

import mtl21
import mtl21.qp1qc
import mtl21.screening

ROOT = "screening.self"


def _count_fit(tr, res):
    tr.counts["solver.fit_calls"] += 1
    tr.counts["solver.fit_iters"] += res.n_iters
    tr.counts["solver.width_sum"] += res.weights.values.shape[0]


def _count_scores(tr, scores):
    tr.counts["qp1qc.scored"] += len(scores)


def _count_solve_batch(tr, out):
    s, _, _, iters, newton_mask, converged = out
    tr.counts["qp1qc.contested"] += len(s)
    tr.counts["qp1qc.newton_rows"] += int(newton_mask.sum())
    tr.counts["qp1qc.newton_iters"] += int(iters.sum())
    tr.counts["qp1qc.newton_iters_max"] = max(
        tr.counts["qp1qc.newton_iters_max"], int(iters.max(initial=0))
    )
    tr.counts["qp1qc.nonconverged"] += int((~converged).sum())


# (module, attribute, span name, count hook)
TARGETS = (
    (mtl21, "lambda_max", "dual.lambda_max", None),
    (mtl21.screening, "lambda_max", "dual.lambda_max", None),
    (mtl21.screening, "validate_dataset", "core.validate", None),
    (mtl21.screening, "MultiTaskDataset", "core.subset", None),
    (mtl21.screening, "fit", "solver.fit", _count_fit),
    (mtl21.screening, "objective", "solver.objective", None),
    (mtl21.screening, "dual_ball", "dual.ball", None),
    (mtl21.screening, "dual_feasibility_violation", "dual.viol", None),
    (mtl21.screening, "screening_scores", "qp1qc.scores", _count_scores),
    (mtl21.qp1qc, "solve_batch", "qp1qc.solve_batch", _count_solve_batch),
)
SPAN_NAMES = (ROOT,) + tuple(dict.fromkeys(t[2] for t in TARGETS)) + ("dual.from_primal",)


class Tracer:
    """Records spans ``[name, start, end, parent]`` and counts in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(self, out)
            return out

        return traced

    def __enter__(self):
        for mod, attr, name, hook in TARGETS:
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, hook))
        ref_cls = mtl21.screening.ReferenceSolution
        orig = ref_cls.__dict__["from_primal"]
        self._saved.append((ref_cls, "from_primal", orig))
        ref_cls.from_primal = classmethod(self._wrap(orig.__func__, "dual.from_primal", None))
        self._open(ROOT)
        return self

    def __exit__(self, *exc):
        self._close()
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False

    def _span_selfs(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(name, (end - start) - child[i]) for i, (name, start, end, _) in enumerate(self.spans)]

    def self_times(self):
        """Self seconds per span name, over every span recorded."""
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, s in self._span_selfs():
            out[name] += s
        return out

    def min_self(self):
        """Smallest self time of any single span; negative means bad nesting."""
        return min(s for _, s in self._span_selfs())

    def root_seconds(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)
