"""One benchmark process: set-up probe, timed pricings, or a traced pricing.

Run by ``run.py`` as ``python3 perfbench/worker.py MODE WORKLOAD SEED
[SECONDS]`` with BLAS and OpenMP pinned to one thread; prints one JSON
object on stdout.  Modes:

``setup``  time ``import ratespde``, ``parse_config`` and the plan build
           in this fresh process, up to before the first solve.
``price``  one untimed warm-up pricing, then timed pricings until
           SECONDS have passed; every pricing is ``parse_config`` plus
           ``run(cfg, quiet=True)``, the path of the ``price`` command.
           The warm-up prices the same product on the same plan over
           one time step: it runs every code path and grid shape of
           the timed pricings, at a fraction of their cost.  Between
           pricings, ``setup`` samples in fresh child processes take
           about a fifth of the run, so that they span the run as the
           pricings do.
``trace``  pooled, serial and traced pricings in turn, the traced one
           timed layer by layer from outside the engine, then shape
           probes.  It starts no child process, so the peak RSS of its
           children is that of a process pool.

The engine is imported from ``src/`` of the checkout this file sits in,
never from an installed copy.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, Workload, config_text  # noqa: E402

# Interval counts per direction of the shape probes, named as the roadmap
# names them; LAYERS.md says which workload's regime each represents.
PROBE_SHAPES = {
    "512x512": (512, 512),
    "64x64": (64, 64),
    "2x4096": (2, 4096),
    "64x64x64": (64, 64, 64),
    "2x2x1024": (2, 2, 1024),
}
PROBE_SECONDS = 0.25  # minimum timed wall per probed call kind
PROBE_MIN_REPS = 3
# Host speed drifts within seconds, so set-up samples are spread through
# the timed run instead of taken in one burst before it.
SETUP_SHARE = 0.2
SETUP_TIMEOUT_S = 60
# Pooled, serial and traced pricings alternate this many times, and the
# ratios and differences between them are taken of their medians.
TRACE_REPS = 3


def _plan(rp, cfg, level: int):
    """The combination plan a pricing solves; a full grid is a one-term plan."""
    dims = cfg.product.dimension
    if cfg.technique == "sparse":
        return rp.standard_plan(level, dims)
    if cfg.technique == "modified":
        return rp.modified_plan(level, dims, cfg.psi, allow_large_psi=True)
    term = rp.CombinationTerm((level,) * dims, 1)
    return rp.CombinationPlan("full", level, dims, 0, (term,))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _price_once(rp, text: str) -> tuple[float | None, float, float, str | None]:
    """(price, wall s, cpu s, error) of one pricing the way ``price`` runs it."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        rows = rp.run(rp.parse_config(text), quiet=True)
        price, err = rows[0].solution_bps, None
    except Exception as exc:  # a failed pricing is counted, not fatal
        price, err = None, f"{type(exc).__name__}: {exc}"
    return price, time.perf_counter() - wall0, time.process_time() - cpu0, err


def mode_setup(w: Workload, seed: int) -> dict:
    text = config_text(w, seed)
    t0 = time.perf_counter()
    import ratespde as rp

    t1 = time.perf_counter()
    cfg = rp.parse_config(text)
    t2 = time.perf_counter()
    _plan(rp, cfg, cfg.levels[0])
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "parse_config_s": t2 - t1, "plan_s": t3 - t2, "setup_s": t3 - t0}


def _engine_info(rp, cfg) -> dict:
    """Library versions and, for a caplet, the Black price it is banded against."""
    import numpy
    import scipy

    black = None
    if cfg.product.kind == rp.CAPLET:
        black = rp.black_caplet_price(cfg.market, cfg.product.expiry_index)
    return {
        "black": black,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }


def _setup_sample(w: Workload, seed: int) -> dict:
    """One ``setup`` measurement, in a fresh child process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "setup", w.name, str(seed)],
        stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout)


def mode_price(w: Workload, seed: int, seconds: float) -> dict:
    import ratespde as rp

    text = config_text(w, seed)
    warm = _price_once(rp, config_text(w, seed, steps=1))
    pricings, setups = [], []
    setup_wall = 0.0
    started = time.perf_counter()
    while not pricings or time.perf_counter() - started < seconds:
        pricings.append(_price_once(rp, text))
        while setup_wall < SETUP_SHARE * (time.perf_counter() - started):
            t0 = time.perf_counter()
            setups.append(_setup_sample(w, seed))
            setup_wall += time.perf_counter() - t0
    return {
        "warmup": warm,
        "pricings": pricings,
        "setups": setups,
        "peak_rss_mb": _peak_rss_mb(),
        **_engine_info(rp, rp.parse_config(text)),
    }


class Tracer:
    """In-memory spans (name, start, end, parent index) plus layer totals."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.apply = [0, 0.0, 0]  # calls, seconds, nodes touched
        self.solve = {}  # direction -> [calls, seconds, nodes touched]
        self.first_solve_s = 0.0
        self.long_line_s = 0.0

    def open(self, name: str, parent: int) -> int:
        self.spans.append((name, time.perf_counter(), math.nan, parent))
        return len(self.spans) - 1

    def operator_s(self) -> float:
        """Seconds spent inside ``apply`` and ``solve_directional`` so far."""
        return self.apply[1] + sum(acc[1] for acc in self.solve.values())

    def close(self, index: int) -> float:
        name, start, _, parent = self.spans[index]
        end = time.perf_counter()
        self.spans[index] = (name, start, end, parent)
        return end - start


class TimedOperator:
    """A ``SplitOperator`` that times every call into the wrapped operator."""

    def __init__(self, op, tracer: Tracer, parent: int):
        self.n_directions = op.n_directions
        self._op = op
        self._tracer = tracer
        self._parent = parent
        self._nodes = op.shape.total_points
        self._seen: set[tuple[int, float]] = set()
        shape = op.shape
        self._long = {
            i: shape.line_count(i) < shape.interior_counts[i - 1]
            for i in range(1, shape.ndim + 1)
        }

    def apply(self, y):
        t = self._tracer
        span = t.open("operator.apply", self._parent)
        out = self._op.apply(y)
        dt = t.close(span)
        t.apply[0] += 1
        t.apply[1] += dt
        t.apply[2] += self._nodes
        return out

    def solve_directional(self, i, w, g):
        t = self._tracer
        span = t.open(f"operator.solve.d{i}", self._parent)
        out = self._op.solve_directional(i, w, g)
        dt = t.close(span)
        acc = t.solve.setdefault(i, [0, 0.0, 0])
        acc[0] += 1
        acc[1] += dt
        acc[2] += self._nodes
        if (i, w) not in self._seen:
            self._seen.add((i, w))
            t.first_solve_s += dt
        if self._long[i]:
            t.long_line_s += dt
        return out

    def lines_in_direction(self, i):
        return self._op.lines_in_direction(i)


def _traced_pricing(rp, cfg, tracer: Tracer) -> dict:
    """Price term by term, serially, with a span at every layer boundary.

    Mirrors ``solve_component_grid`` and the plan-order reduction of
    ``combine`` step for step, so the value must equal the untraced
    price bitwise.
    """
    level, steps = cfg.levels[0], cfg.steps[0]
    int_cfg = rp.AmfrW2Config(num_steps=steps, theta=cfg.theta, nu=cfg.nu)
    market, product, domain = cfg.market, cfg.product, cfg.domain
    root = tracer.open("pricing", -1)
    plan = _plan(rp, cfg, level)
    value = 0.0
    components = []
    for term in plan.terms:
        comp = tracer.open("sparse.component", root)
        build = tracer.open("operator.build", comp)
        shape = rp.shape_for_levels(term.levels, product, domain)
        state = rp.initial_state(market, product, shape)
        op = rp.GridOperator(market, product, shape)
        build_s = tracer.close(build)
        counters = rp.StepCounters()
        integ = tracer.open("stepper.integrate", comp)
        operator_before = tracer.operator_s()
        final = rp.integrate(
            TimedOperator(op, tracer, integ), state.values, domain.horizon, int_cfg, counters
        )
        integrate_s = tracer.close(integ)
        interp = tracer.open("operator.build", comp)
        v = rp.interpolate(rp.StateVector(shape, final), domain.eval_point)
        price = 1.0e4 * rp.product_discount(market, product) * v
        build_s += tracer.close(interp)
        value += term.weight * price
        tracer.close(comp)
        components.append(
            {
                "levels": list(term.levels),
                "nodes": shape.total_points,
                "lines": sum(shape.line_count(i) for i in range(1, shape.ndim + 1)),
                "rhs_evals": counters.rhs_evals,
                "directional_solves": counters.directional_solves,
                "tridiagonal_lines": counters.tridiagonal_lines,
                "build_s": build_s,
                "integrate_s": integrate_s,
                "stepper_self_s": integrate_s - (tracer.operator_s() - operator_before),
            }
        )
    wall = tracer.close(root)
    return {"value": value, "wall": wall, "steps": steps, "components": components}


def _median_call(fn, nodes: int) -> float:
    """Median ns per node of ``fn()`` over at least PROBE_SECONDS of calls."""
    times = []
    started = time.perf_counter()
    while len(times) < PROBE_MIN_REPS or time.perf_counter() - started < PROBE_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e9 / nodes


def _probe(rp, cfg, counts: tuple[int, ...]) -> dict:
    """apply, one directional solve (mean over directions) and one step on one grid."""
    market = cfg.market
    product = rp.ProductSpec(rp.CAPLET, 1, 2) if len(counts) == 2 else rp.ProductSpec(rp.SWAPTION, 1, 3)
    domain = rp.DomainSpec.for_product(market, product, cfg.domain.f_max, cfg.domain.v_max)
    shape = rp.GridShape(counts, domain.grid_bounds(product.dimension))
    op = rp.GridOperator(market, product, shape)
    y = rp.initial_state(market, product, shape).values
    step_cfg = rp.AmfrW2Config(num_steps=16)
    dt = domain.horizon / step_cfg.num_steps
    w = step_cfg.resolved_nu(op.n_directions) * dt
    g = dt * op.apply(y)
    nodes = shape.total_points
    for i in range(1, op.n_directions + 1):
        op.solve_directional(i, w, g)  # factor builds stay out of the probe
    solves = [
        _median_call(lambda i=i: op.solve_directional(i, w, g), nodes)
        for i in range(1, op.n_directions + 1)
    ]
    return {
        "apply": _median_call(lambda: op.apply(y), nodes),
        "solve": statistics.fmean(solves),
        "step": _median_call(lambda: rp.amfrw2_step(op, y, dt, step_cfg), nodes),
    }


def mode_trace(w: Workload, seed: int, spans_path: str) -> dict:
    import ratespde as rp

    text = config_text(w, seed)
    cfg = rp.parse_config(text)
    level, steps = cfg.levels[0], cfg.steps[0]
    plan = _plan(rp, cfg, level)
    int_cfg = rp.AmfrW2Config(num_steps=steps, theta=cfg.theta, nu=cfg.nu)

    def timed_combine(threads: int) -> dict:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        res = rp.combine(plan, cfg.market, cfg.product, cfg.domain, int_cfg, threads=threads)
        wall = time.perf_counter() - wall0
        return {"result": res, "wall": wall, "cpu": time.process_time() - cpu0}

    warm = _price_once(rp, config_text(w, seed, steps=1))
    untraced = _price_once(rp, text)
    pooled, serial, traced = [], [], []
    for _ in range(TRACE_REPS):
        if w.threads > 1:
            pooled.append(timed_combine(w.threads))
        serial.append(timed_combine(1))
        # the spans and layer totals kept are those of the last traced pricing
        tracer = Tracer()
        traced.append(_traced_pricing(rp, cfg, tracer))
    if w.threads == 1:
        pooled = serial  # at one worker combine bypasses the pool
    probes = {name: _probe(rp, cfg, counts) for name, counts in PROBE_SHAPES.items()}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    last = pooled[-1]["result"]
    return {
        "warmup": warm,
        "untraced": untraced,
        "pooled_values": [c["result"].value_bps for c in pooled],
        "pooled_walls": [c["wall"] for c in pooled],
        "pooled_cores_busy": [c["cpu"] / c["wall"] for c in pooled],
        "serial_values": [c["result"].value_bps for c in serial],
        "serial_walls": [c["wall"] for c in serial],
        "component_s": [c.seconds for c in last.components],
        # run() reports the union grid of a plan and the node count of a full grid
        "grid_points": (
            (2**level + 1) ** cfg.product.dimension if cfg.technique == "full" else last.total_points
        ),
        "traced_values": [t["value"] for t in traced],
        "traced_walls": [t["wall"] for t in traced],
        "traced": traced[-1],
        "apply": tracer.apply,
        "solve": {str(k): v for k, v in tracer.solve.items()},
        "first_solve_s": tracer.first_solve_s,
        "long_line_s": tracer.long_line_s,
        "probes": probes,
        "children_rss_mb": _children_rss_mb(),
        **_engine_info(rp, cfg),
    }


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    w = WORKLOADS[name]
    if mode == "setup":
        out = mode_setup(w, seed)
    elif mode == "price":
        out = mode_price(w, seed, float(argv[3]))
    elif mode == "trace":
        out = mode_trace(w, seed, argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
