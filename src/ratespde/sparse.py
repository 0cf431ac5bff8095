"""Sparse-grid combination technique over anisotropic component grids.

A plan at refinement level n in d dimensions solves the PDE on every
anisotropic grid whose level vector l (grid spacing 2^{-l_i} per unit
box) satisfies |l|_1 = n - q for q = 0..d-1, weighting layer q by
(-1)^q * C(d-1, q).  The combined price is the weighted sum of the
per-grid prices evaluated at one point, so no union grid is ever built.

The modified variant shifts every level vector by a constant psi >= 1,
forcing a minimum resolution per direction; degenerate grids otherwise
approximate the upper-boundary condition too poorly and drag down the
combined accuracy.  Keep psi at 1 or 2: the point count grows by 2^(d*psi).

A full isotropic grid is the degenerate plan: one term of weight 1.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator

from .errors import ComponentSolveError, GridTooLargeError
from .indexing import GridShape
from .market import DomainSpec, MarketData, ProductSpec, product_discount
from .operator import GridOperator, StateVector, initial_state, interpolate
from .stepper import AmfrW2Config, integrate

FULL = "full"
STANDARD = "standard"
MODIFIED = "modified"


@dataclass(frozen=True)
class CombinationTerm:
    levels: tuple[int, ...]
    weight: int


@dataclass(frozen=True)
class CombinationPlan:
    technique: str
    level: int
    dims: int
    psi: int
    terms: tuple[CombinationTerm, ...]

    def weight_sum(self) -> int:
        return sum(t.weight for t in self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def _level_vectors(total: int, dims: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer vectors with the given sum, first component descending."""
    if dims == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _level_vectors(total - head, dims - 1):
            yield (head,) + tail


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def full_plan(level: int, dims: int) -> CombinationPlan:
    """The isotropic full grid as the degenerate plan: one term of weight 1."""
    level, dims = _integer("level", level), _integer("dims", dims)
    if dims < 1:
        raise ValueError("need at least one dimension")
    if level < 0:
        raise ValueError("level must be nonnegative")
    return CombinationPlan(FULL, level, dims, 0, (CombinationTerm((level,) * dims, 1),))


def standard_plan(level: int, dims: int) -> CombinationPlan:
    """Level vectors and signed binomial weights of the plain combination."""
    level, dims = _integer("level", level), _integer("dims", dims)
    if dims < 1:
        raise ValueError("need at least one dimension")
    if level < dims - 1:
        raise ValueError(f"level {level} too small for dimension {dims} (need >= {dims - 1})")
    terms = []
    for q in range(dims):
        weight = (-1) ** q * math.comb(dims - 1, q)
        for levels in _level_vectors(level - q, dims):
            terms.append(CombinationTerm(levels, weight))
    return CombinationPlan(STANDARD, level, dims, 0, tuple(terms))


def modified_plan(
    level: int, dims: int, psi: int, *, allow_large_psi: bool = False
) -> CombinationPlan:
    """Same index set as the standard plan with every level shifted by psi."""
    psi = _integer("psi", psi)
    if psi < 0:
        raise ValueError("psi must be nonnegative")
    if psi > 2 and not allow_large_psi:
        raise ValueError("psi > 2 re-introduces the dimensionality blow-up; pass allow_large_psi to override")
    base = standard_plan(level, dims)
    terms = tuple(
        CombinationTerm(tuple(l + psi for l in t.levels), t.weight) for t in base.terms
    )
    return CombinationPlan(MODIFIED if psi else STANDARD, base.level, base.dims, psi, terms)


def count_points(plan: CombinationPlan) -> int:
    """Distinct grid points in the union of the component grids.

    A full plan is its one isotropic grid.  Otherwise count by the
    per-direction refinement excess u = max(level - psi, 0) of a dyadic
    point: the union holds exactly the points with |u|_1 <= n, and
    direction-wise there are 2^psi + 1 points of excess 0 and
    2^(psi+u-1) of excess u >= 1.  The sum of the product counts over
    every such excess vector stays in exact integer arithmetic.
    """
    n, psi = plan.level, plan.psi
    if plan.technique == FULL:
        return (2**n + 1) ** plan.dims
    weights = [2**psi + 1] + [2 ** (psi + u - 1) for u in range(1, n + 1)]
    return sum(
        math.prod(weights[u] for u in excess)
        for total in range(n + 1)
        for excess in _level_vectors(total, plan.dims)
    )


def shape_for_levels(
    levels: tuple[int, ...], product: ProductSpec, domain: DomainSpec
) -> GridShape:
    """The anisotropic grid of one level vector: 2^{l_i} intervals per direction."""
    if len(levels) != product.dimension:
        raise ValueError(
            f"level vector has {len(levels)} entries, product needs {product.dimension}"
        )
    counts = tuple(2**l for l in levels)
    return GridShape(counts, domain.grid_bounds(product.dimension))


def solve_component_grid(
    levels: tuple[int, ...],
    market: MarketData,
    product: ProductSpec,
    domain: DomainSpec,
    config: AmfrW2Config,
) -> float:
    """Price from one full anisotropic grid, in basis points.

    Pipeline: payoff initial state, time integration over the horizon,
    multilinear evaluation at the domain's evaluation point, then the
    product's discount factor and the basis-point scale.
    """
    shape = shape_for_levels(levels, product, domain)
    state = initial_state(market, product, shape)
    op = GridOperator(market, product, shape)
    final = integrate(op, state.values, domain.horizon, config)
    value = interpolate(StateVector(shape, final), domain.eval_point)
    return 1.0e4 * product_discount(market, product) * value


@dataclass(frozen=True)
class ComponentResult:
    levels: tuple[int, ...]
    weight: int
    value_bps: float
    seconds: float
    points: int


@dataclass(frozen=True)
class SparseResult:
    value_bps: float
    components: tuple[ComponentResult, ...]
    total_points: int
    seconds: float


def _solve_term(
    term: CombinationTerm,
    points: int,
    market: MarketData,
    product: ProductSpec,
    domain: DomainSpec,
    config: AmfrW2Config,
) -> ComponentResult:
    """One component solve; module-level so a worker process can run it."""
    started = time.perf_counter()
    value = solve_component_grid(term.levels, market, product, domain, config)
    return ComponentResult(term.levels, term.weight, value, time.perf_counter() - started, points)


def combine(
    plan: CombinationPlan,
    market: MarketData,
    product: ProductSpec,
    domain: DomainSpec,
    config: AmfrW2Config,
    *,
    threads: int | None = None,
    max_nodes: int | None = None,
) -> SparseResult:
    """Solve every component grid and reduce the weighted prices.

    ``threads`` is the number of worker processes (default: the cpu
    count), capped at the cpu count and the number of components, since
    the pool starts every worker at once; with one worker the
    components are solved in this process.  Every component is checked
    against ``max_nodes`` before any solve starts.  Workers are forked,
    so they see the engine exactly as this process does.  The first
    component to fail in plan order raises ``ComponentSolveError`` and
    cancels the solves not yet started.  The reduction happens in plan
    order, so the combined value does not depend on the worker count.
    """
    if plan.dims != product.dimension:
        raise ValueError(f"plan is {plan.dims}-dimensional, product needs {product.dimension}")
    if threads is not None and _integer("threads", threads) < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    points = [shape_for_levels(t.levels, product, domain).total_points for t in plan.terms]
    if max_nodes is not None:
        for term, count in zip(plan.terms, points):
            if count > max_nodes:
                raise ComponentSolveError(term.levels) from GridTooLargeError(count, max_nodes)

    started = time.perf_counter()
    cpus = os.cpu_count() or 1
    workers = min(threads or cpus, cpus, len(plan))
    jobs = [(t, count, market, product, domain, config) for t, count in zip(plan.terms, points)]
    pool = None
    try:
        if workers > 1:
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            pending = [pool.submit(_solve_term, *job).result for job in jobs]
        else:
            pending = [functools.partial(_solve_term, *job) for job in jobs]
        components = []
        for term, result in zip(plan.terms, pending):
            try:
                components.append(result())
            except Exception as err:
                raise ComponentSolveError(term.levels) from err
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    value = 0.0
    for comp in components:
        value += comp.weight * comp.value_bps
    return SparseResult(
        value, tuple(components), count_points(plan), time.perf_counter() - started
    )
