"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Every run measures the end-to-end metrics (``--trace 0``).  For every
metric prints the median of the per-run values and the distance between
their first and third quartiles as a share of the median, the figure the
end-to-end bounds in BENCHMARK.json are set against.  Each result line
is appended to ``.bench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    for seed in args.seeds:
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        with open(os.path.join(ROOT, ".bench_out", "spread.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, "result": json.loads(line)}) + "\n")
        result = json.loads(line)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = f"  bound {bound}, a third is {bound / 3:.4f}" if bound is not None else ""
        print(f"{name:44s} median {med:.6g}  iqr/median {share:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
