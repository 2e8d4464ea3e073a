"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 0|1]

For every metric: the median over the runs and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from BENCHMARK.json. Runs one
seed at a time, in a child process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=HERE.parent)
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        counts = next(json.loads(ln[len("counts "):]) for ln in lines if ln.startswith("counts "))
        # solver iterations per walk: the seed's share of the spread, free of machine noise
        iters = statistics.fmean(sum(c["iters"]) for c in counts)
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} iters={iters:g} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        values.setdefault("iters", []).append(iters)
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = f"{(q3 - q1) / abs(med):.4f}"
        else:
            spread = "n/a"
        print(f"{k}: median {med:.6g} spread {spread} bound {bounds.get(k)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
