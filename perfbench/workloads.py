"""Workload definitions: the run configuration each workload prices.

Seed 0 is the published stochastic-volatility market of the test suite
(sigma 0.3, phi 0.4, lambda 0.1, beta 1, strike 0.011).  Any other seed
scales every forward, every alpha and the strike by an independent
factor in [0.97, 1.03].  Scaling keeps each nonzero alpha nonzero and
sigma and phi are left alone, so no stencil term is skipped and the
work per pricing does not depend on the seed.

This module imports nothing from the engine, so the orchestrator can
read it without numpy or scipy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TENOR_DATES = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
FORWARDS = (0.0112, 0.0118, 0.0122, 0.0126, 0.0130, 0.0135)
ALPHAS = (0.0, 0.2366, 0.2145, 0.2221, 0.2068, 0.1932)
STRIKE = 0.011
SIGMA = 0.3
PHI = 0.4
LAMBDA = 0.1
BETA = 1.0
F_MAX = 0.04
V_MAX = 3.5
JITTER = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    a: int
    b: int
    technique: str
    level: int
    steps: int
    psi: int | None
    threads: int
    golden_bps: float  # seed-0 price, frozen

    @property
    def dims(self) -> int:
        return self.b - self.a + 1


# Why each workload is in the benchmark: BENCHMARK.json and LAYERS.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("full2d", "caplet", 1, 2, "full", level=9, steps=32, psi=None, threads=1,
                 golden_bps=6.023662035379411),
        Workload("sparse2d", "caplet", 1, 2, "sparse", level=10, steps=256, psi=None, threads=1,
                 golden_bps=6.021834153711509),
        Workload("modified3d", "swaption", 1, 3, "modified", level=7, steps=16, psi=1, threads=2,
                 golden_bps=13.202681425293086),
    )
}

GOLDEN_RTOL = 1e-12
# The stochastic-volatility caplet must land within this relative band
# of the lognormal Black price at the same alpha.  Seed-0 prices sit
# 0.6% below it and jittered seeds within 1%, so the band catches a
# gross error with room for the seeds.
BLACK_BAND = 0.02


@dataclass(frozen=True)
class Inputs:
    forwards: tuple[float, ...]
    alphas: tuple[float, ...]
    strike: float


def make_inputs(seed: int) -> Inputs:
    if seed == 0:
        return Inputs(FORWARDS, ALPHAS, STRIKE)
    rng = random.Random(seed)

    def jitter(x: float) -> float:
        return x * (1.0 + rng.uniform(-JITTER, JITTER))

    return Inputs(
        tuple(jitter(f) for f in FORWARDS),
        tuple(jitter(a) for a in ALPHAS),
        jitter(STRIKE),
    )


def _numbers(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def config_text(w: Workload, seed: int, *, steps: int | None = None) -> str:
    """The run configuration, in the format ``parse_config`` reads."""
    inp = make_inputs(seed)
    lines = [
        "[market]",
        f"tenor_dates = {_numbers(TENOR_DATES)}",
        f"initial_forwards = {_numbers(inp.forwards)}",
        f"alphas = {_numbers(inp.alphas)}",
        f"phi = {PHI!r}",
        f"sigma = {SIGMA!r}",
        f"lambda = {LAMBDA!r}",
        f"beta = {BETA!r}",
        "[product]",
        f"kind = {w.kind}",
        f"a = {w.a}",
        f"b = {w.b}",
        f"strike = {inp.strike!r}",
        "[domain]",
        f"f_max = {F_MAX!r}",
        f"v_max = {V_MAX!r}",
        "[solver]",
        f"technique = {w.technique}",
        f"levels = {w.level}",
        f"steps = {steps if steps is not None else w.steps}",
        f"threads = {w.threads}",
        "[output]",
        "reference = none",
    ]
    if w.psi is not None:
        lines.insert(lines.index("[output]"), f"psi = {w.psi}")
    return "\n".join(lines) + "\n"
