"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N] [--seconds S]

For each workload (all by default) it runs ``run.py`` twice with ``--trace
1`` and once with ``--trace 0`` on one seed, and fails unless:

- every run reports ``correct`` and no failed level;
- the three runs record identical exact counts (iterations and screened
  features per level, the traced walk's QP1QC counts, the check pass's
  counts), so non-determinism is an error rather than noise;
- each run prints exactly the metrics BENCHMARK.json names for its mode,
  with the units it names;
- the per-layer self times add up to the traced walk within
  ``run.SELF_SUM_RTOL``.

The tracing overhead (traced minus untraced walk) is printed per run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

env.import_program()
from run import SELF_SUM_RTOL  # noqa: E402
from spans import SPAN_NAMES  # noqa: E402


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    if out.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    counts = next(json.loads(ln[len("counts "):]) for ln in lines if ln.startswith("counts "))
    return json.loads(lines[-1]), counts, out.stderr


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args(argv)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in args.workload or names:
        runs = [(t, *bench(workload, args.seed, args.seconds, t)) for t in (1, 1, 0)]
        for trace, res, counts, stderr in runs:
            tag = f"{workload} trace={trace}"
            if not res["correct"] or res["failed"]:
                errors.append(f"{tag}: correct={res['correct']} failed={res['failed']}\n{stderr}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{tag}: metrics {sorted(got)} differ from BENCHMARK.json")
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                total = sum(m[f"{name}_s"] for name in SPAN_NAMES)
                if abs(total - m["trace.path_s"]) > SELF_SUM_RTOL * m["trace.path_s"]:
                    errors.append(f"{tag}: self times sum to {total!r}, traced walk {m['trace.path_s']!r}")
                print(f"{tag}: traced walk {m['trace.path_s']:.4f} s, "
                      f"tracing overhead {m['trace.overhead_s']:+.4f} s", flush=True)
        first = runs[0][2]
        for trace, _, counts, _ in runs[1:]:
            if not trace:  # trace 0 has no traced walk
                counts = [dict(c, traced=f["traced"]) for c, f in zip(counts, first)]
            if counts != first:
                errors.append(f"{workload} trace={trace}: counts differ from the first run")
        print(f"{workload}: checked", flush=True)
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
