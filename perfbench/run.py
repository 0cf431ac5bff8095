"""Pricing benchmark for ratespde: one closed-loop client, one pricing at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from its
``src/`` directory.  The workloads are defined in ``workloads.py``, the
metrics and the layers they belong to in ``LAYERS.md``.

``--trace 0`` measures the end-to-end metrics with tracing off: in one
fresh pricing process, one untimed warm-up and timed pricings for S
seconds, with set-up times of fresh processes taken between them.
``--trace 1`` gives the per-layer metrics from a separate run that
times every call into the operator from outside the engine.

Every pricing is checked: finite and positive, bitwise equal across the
run, equal to the frozen seed-0 golden at 1e-12 relative, and for a
caplet within a band of the Black price.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (environment, samples,
failures) goes to ``.bench_out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from workloads import BLACK_BAND, GOLDEN_RTOL, WORKLOADS, Workload  # noqa: E402

TRACE_SETUP_REPS = 5
WORKER_TIMEOUT_S = 150
COVERAGE_FLOOR = 0.95
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
# One BLAS/OpenMP thread per process: with at most two pool workers the
# run never asks for more threads than the machine has cores.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(*args: str) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, text=True
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} timed out after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker {args[0]} printed no result") from None


def golden_ok(price: float, golden: float) -> bool:
    return abs(price - golden) <= GOLDEN_RTOL * abs(golden)


def sanity_problem(price: float | None, err: str | None) -> str | None:
    """Why a pricing raised or gave no finite positive price, or None."""
    if err is not None:
        return err
    if not (math.isfinite(price) and price > 0.0):
        return f"price {price!r} is not finite and positive"
    return None


def price_problem(w: Workload, seed: int, price: float | None, err: str | None, black: float | None) -> str | None:
    """Why one pricing fails its output checks, or None when it passes."""
    problem = sanity_problem(price, err)
    if problem is not None:
        return problem
    if seed == 0 and not golden_ok(price, w.golden_bps):
        return f"price {price!r} misses the seed-0 golden {w.golden_bps!r}"
    if black is not None and abs(price / black - 1.0) > BLACK_BAND:
        return f"caplet price {price!r} outside {BLACK_BAND:.0%} of Black {black!r}"
    return None


def self_check() -> list[str]:
    """Checks on the benchmark's own gates; each entry is a broken gate."""
    broken = []
    for w in WORKLOADS.values():
        if not golden_ok(w.golden_bps, w.golden_bps) or golden_ok(w.golden_bps * (1 + 1e-9), w.golden_bps):
            broken.append(f"golden gate of {w.name} does not trip at 1e-9 relative")
    return broken


def check_names(metrics: dict) -> list[str]:
    return [f"bad metric name {n!r}" for n in metrics if not METRIC_NAME.fullmatch(n)]


def environment(versions: dict | None) -> dict:
    sha = None
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    thread_vars = {k: os.environ.get(k) for k in THREAD_ENV}
    return {
        "versions": versions,
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "thread_env_inherited": thread_vars,
        "thread_env_workers": THREAD_ENV,
    }


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def fastest(samples: list[dict], key: str) -> float:
    """The least of a set-up time over fresh processes.

    Set-up is a fixed amount of CPU work with no disk reads, and the
    host's speed swings, which last from seconds to minutes, only ever
    add to it; the least of samples spread through the run is the
    figure they disturb least.
    """
    return min(s[key] for s in samples)


def timing_run(w: Workload, seed: int, seconds: int) -> tuple[dict, dict]:
    out = run_worker("price", w.name, str(seed), str(seconds))
    setups = out["setups"]
    black = out["black"]
    timed = out["pricings"]
    problems = [price_problem(w, seed, p, err, black) for p, _, _, err in timed]
    first = timed[0][0]
    for k, (p, _, _, _) in enumerate(timed):
        if problems[k] is None and p != first:
            problems[k] = f"price {p!r} differs bitwise from the first {first!r}"
    # the one-step warm-up prices differently, so only its sanity is checked
    problems.append(sanity_problem(out["warmup"][0], out["warmup"][3]))
    pricings = timed + [out["warmup"]]
    walls = [wall for _, wall, _, _ in timed]
    metrics = {
        "price_s": statistics.median(walls),
        "setup_s": fastest(setups, "setup_s"),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    record = {
        "environment": environment(out["versions"]),
        "setup_samples": setups,
        "setup_sample_count": len(setups),
        "price_samples_s": walls,
        "price_sample_count": len(walls),
        "prices": [p for p, _, _, _ in pricings],
        "black_bps": black,
        "problems": [x for x in problems if x is not None],
        "failed_share": sum(x is not None for x in problems) / len(pricings),
    }
    return metrics, {"record": record, "attempted": len(pricings), "problems": problems}


def trace_metrics(w: Workload, out: dict, setups: list[dict]) -> dict:
    traced = out["traced"]
    comps = traced["components"]
    steps = traced["steps"]
    apply_calls, apply_s, apply_nodes = out["apply"]
    solve = out["solve"]
    solve_calls = sum(v[0] for v in solve.values())
    solve_s = sum(v[1] for v in solve.values())
    solve_nodes = sum(v[2] for v in solve.values())
    node_steps = sum(c["nodes"] for c in comps) * steps
    integrate_s = sum(c["integrate_s"] for c in comps)
    covered = sum(c["build_s"] + c["integrate_s"] for c in comps)
    comp_s = out["component_s"]
    serial_s = statistics.median(out["serial_walls"])
    m = {
        "cli.import_s": fastest(setups, "import_s"),
        "cli.parse_config_s": fastest(setups, "parse_config_s"),
        "operator.apply.calls": apply_calls,
        "operator.apply.s": apply_s,
        "operator.apply.ns_per_node": apply_s * 1e9 / apply_nodes,
        "operator.solve.calls": solve_calls,
        "operator.solve.s": solve_s,
        "operator.solve.ns_per_node": solve_s * 1e9 / solve_nodes,
    }
    for d in (1, 2, 3):
        # 0 where the product has no direction d (the 2D caplets have no d3)
        _, s, nodes = solve.get(str(d), (0, 0.0, 0))
        m[f"operator.solve.d{d}.ns_per_node"] = s * 1e9 / nodes if nodes else 0.0
    m.update(
        {
            "operator.solve.long_line_share": out["long_line_s"] / solve_s,
            "operator.first_solve.s": out["first_solve_s"],
            "operator.build.s": sum(c["build_s"] for c in comps),
            "stepper.steps": steps * len(comps),
            "stepper.rhs_evals": sum(c["rhs_evals"] for c in comps),
            "stepper.directional_solves": sum(c["directional_solves"] for c in comps),
            "stepper.tridiagonal_lines": sum(c["tridiagonal_lines"] for c in comps),
            "stepper.self.s": sum(c["stepper_self_s"] for c in comps),
            "stepper.step.ns_per_node": integrate_s * 1e9 / node_steps,
            "sparse.components": len(comps),
            "sparse.node_steps": node_steps,
            "sparse.grid_points": out["grid_points"],
            "sparse.component_s.p50": statistics.median(comp_s),
            "sparse.component_s.max": max(comp_s),
            "sparse.serial_s": serial_s,
            "sparse.pool_efficiency": serial_s / (w.threads * statistics.median(out["pooled_walls"])),
            "sparse.cores_busy": statistics.median(out["pooled_cores_busy"]),
            "sparse.imbalance": max(comp_s) / (sum(comp_s) / w.threads),
            "sparse.children_rss_mb": out["children_rss_mb"],
            # the traced pricing is serial, so it is compared with the serial untraced ones
            "trace.overhead_s": statistics.median(out["traced_walls"]) - serial_s,
            "trace.coverage": covered / traced["wall"],
        }
    )
    for shape, probe in out["probes"].items():
        for part in ("apply", "solve", "step"):
            m[f"probe.{shape}.{part}.ns_per_node"] = probe[part]
    return m


def cost_law_problems(w: Workload, out: dict) -> list[str]:
    """Per step: 4 rhs evaluations and 4N directional solves, every component."""
    traced = out["traced"]
    steps = traced["steps"]
    problems = []
    for c in traced["components"]:
        want = (4 * steps, 4 * w.dims * steps, 4 * steps * c["lines"])
        got = (c["rhs_evals"], c["directional_solves"], c["tridiagonal_lines"])
        if got != want:
            problems.append(f"component {c['levels']}: counts {got} break the cost law {want}")
    if out["apply"][0] != sum(c["rhs_evals"] for c in traced["components"]):
        problems.append("traced apply calls differ from counted rhs evaluations")
    if sum(v[0] for v in out["solve"].values()) != sum(c["directional_solves"] for c in traced["components"]):
        problems.append("traced solve calls differ from counted directional solves")
    return problems


def traced_run(w: Workload, seed: int) -> tuple[dict, dict]:
    setups = [run_worker("setup", w.name, str(seed)) for _ in range(TRACE_SETUP_REPS)]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{w.name}-seed{seed}-spans.json")
    out = run_worker("trace", w.name, str(seed), spans_path)
    untraced_price, _, _, err = out["untraced"]
    problems = [price_problem(w, seed, untraced_price, err, out["black"])]
    problems.append(sanity_problem(out["warmup"][0], out["warmup"][3]))
    others = [("traced pricing", v) for v in out["traced_values"]]
    others += [("serial combine", v) for v in out["serial_values"]]
    if w.threads > 1:
        others += [("pooled combine", v) for v in out["pooled_values"]]
    for label, value in others:
        problems.append(
            None if value == untraced_price else f"{label} {value!r} differs bitwise from untraced {untraced_price!r}"
        )
    metrics = trace_metrics(w, out, setups) if err is None else {}
    gate = cost_law_problems(w, out)
    if metrics and metrics["trace.coverage"] < COVERAGE_FLOOR:
        gate.append(f"layer spans cover {metrics['trace.coverage']:.3f} of traced wall, under {COVERAGE_FLOOR}")
    record = {
        "environment": environment(out["versions"]),
        "setup_samples": setups,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "untraced_wall_s": out["untraced"][1],
        "pooled_walls_s": out["pooled_walls"],
        "serial_walls_s": out["serial_walls"],
        "traced_walls_s": out["traced_walls"],
        "components": out["traced"]["components"],
        "problems": [x for x in problems if x is not None],
        "failed_share": sum(x is not None for x in problems) / len(problems),
    }
    return metrics, {"record": record, "attempted": len(problems), "problems": problems, "gate": gate}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ratespde", "__init__.py")):
        print(f"error: no engine source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, info = traced_run(w, args.seed)
        else:
            metrics, info = timing_run(w, args.seed, args.seconds)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    units = metric_units(args.trace)
    gate = info.get("gate", []) + self_check() + check_names(metrics)
    gate += [f"metric {n!r} is not listed in BENCHMARK.json" for n in metrics if n not in units]
    gate += [f"metric {n!r} of BENCHMARK.json was not measured" for n in units if n not in metrics]
    failed = sum(p is not None for p in info["problems"])
    record = dict(info["record"], workload=w.name, seed=args.seed, trace=args.trace,
                  gate_problems=gate, metrics=metrics, run_wall_s=time.perf_counter() - started)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{w.name}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in record["problems"] + gate:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not gate,
        "attempted": info["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units.get(n, "?")} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
