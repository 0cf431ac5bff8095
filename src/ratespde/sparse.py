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

import math
import operator
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ComponentSolveError, GridTooLargeError
from .indexing import GridShape
from .market import DomainSpec, MarketData, ProductSpec, product_discount
from .operator import (
    CSR_MAX_NODES,
    GridOperator,
    StateVector,
    _cores,
    _pool,
    initial_state,
    interpolate,
)
from .stepper import AmfrW2Config, integrate

FULL = "full"
STANDARD = "standard"
MODIFIED = "modified"

# A batch is cut before its CSR matrix could hold more nonzeros than this
# (12 bytes each), which bounds the memory of one batch solve
MAX_BATCH_NONZEROS = 2**17


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


def solve_component_grids(
    levels: Sequence[tuple[int, ...]],
    market: MarketData,
    product: ProductSpec,
    domain: DomainSpec,
    config: AmfrW2Config,
) -> list[float]:
    """Prices from a batch of full anisotropic grids, in basis points, in order.

    Pipeline: payoff initial states, time integration over the horizon,
    multilinear evaluation of each grid at the domain's evaluation point,
    then the product's discount factor and the basis-point scale.  The
    grids are integrated together through one ``GridOperator`` over their
    concatenated states, which holds either a single grid of any size or
    grids of at most ``CSR_MAX_NODES`` nodes; a grid's price is bitwise
    the same alone or in any batch.
    """
    shapes = [shape_for_levels(l, product, domain) for l in levels]
    y0 = np.concatenate([initial_state(market, product, s).values for s in shapes])
    op = GridOperator(market, product, *shapes)
    final = integrate(op, y0, domain.horizon, config)
    scale = 1.0e4 * product_discount(market, product)
    values, start = [], 0
    for shape in shapes:
        stop = start + shape.total_points
        values.append(scale * interpolate(StateVector(shape, final[start:stop]), domain.eval_point))
        start = stop
    return values


@dataclass(frozen=True)
class ComponentResult:
    """One component's price.  ``seconds`` is its node share of the wall
    time of the batch it was solved in: the batch's seconds times its
    points over the batch's points (every grid of a batch takes the same
    steps); a component solved alone gets the whole wall time."""

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


def _solve_batch(
    terms: Sequence[CombinationTerm],
    points: Sequence[int],
    market: MarketData,
    product: ProductSpec,
    domain: DomainSpec,
    config: AmfrW2Config,
) -> list[ComponentResult]:
    """One batch of component solves; module-level so a worker process can run it."""
    started = time.perf_counter()
    values = solve_component_grids([t.levels for t in terms], market, product, domain, config)
    share = (time.perf_counter() - started) / sum(points)
    return [
        ComponentResult(t.levels, t.weight, v, share * count, count)
        for t, v, count in zip(terms, values, points)
    ]


def _batches(points: Sequence[int], dims: int, workers: int) -> list[range]:
    """Split plan indices, in plan order, into runs each solved through
    one ``GridOperator``.

    A grid over ``CSR_MAX_NODES`` nodes is a batch of its own, since an
    operator holds no other grid with it.  The small grids are dealt to
    ``workers`` runs of about equal node count, hence equal node-steps:
    a grid joins the run its middle node falls in.  A
    run is also cut before its CSR matrix could pass
    ``MAX_BATCH_NONZEROS``, counting 2*dims**2 + 3*dims entries per node,
    4 more than a row holds at most (3 per diffusion, 4 per cross and 2
    per drift term: 10 in 2D, 23 in 3D).
    """
    small = sum(p for p in points if p <= CSR_MAX_NODES)
    per_node = 2 * dims * dims + 3 * dims
    batches: list[range] = []
    start, nodes, done, slot = 0, 0, 0, 0
    for k, count in enumerate(points):
        if count > CSR_MAX_NODES:
            if k > start:
                batches.append(range(start, k))
            batches.append(range(k, k + 1))
            start, nodes = k + 1, 0
            continue
        here = min(int((done + count / 2) * workers / small), workers - 1)
        done += count
        if k > start and (here != slot or (nodes + count) * per_node > MAX_BATCH_NONZEROS):
            batches.append(range(start, k))
            start, nodes = k, 0
        slot, nodes = here, nodes + count
    if start < len(points):
        batches.append(range(start, len(points)))
    return batches


def admit(
    plan: CombinationPlan, product: ProductSpec, domain: DomainSpec, max_nodes: int | None
) -> list[int]:
    """The node count of every component, in plan order, once the plan is
    checked against the product and every component against ``max_nodes``.

    An oversized component raises ``ComponentSolveError`` naming its
    levels, caused by ``GridTooLargeError``.
    """
    if plan.dims != product.dimension:
        raise ValueError(f"plan is {plan.dims}-dimensional, product needs {product.dimension}")
    points = [shape_for_levels(t.levels, product, domain).total_points for t in plan.terms]
    if max_nodes is not None:
        for term, count in zip(plan.terms, points):
            if count > max_nodes:
                raise ComponentSolveError(term.levels) from GridTooLargeError(count, max_nodes)
    return points


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

    ``threads`` is the number of worker processes (default: the cores
    this process may run on), capped at that core count and the number
    of components, since the pool starts every worker at once.  A grid
    over ``CSR_MAX_NODES`` nodes splits its work between threads, one per
    core in this process and cores // workers in a pool's worker, so
    threads times workers stays within the cores.  Every component is
    checked against ``max_nodes`` before any solve starts.  The plan is
    split, in plan order, into batches (see ``_batches``): the grids of at
    most ``CSR_MAX_NODES`` nodes are solved together through one
    ``GridOperator`` per batch, every larger grid alone, and each
    component's price is bitwise what it is alone.  The batches run on
    ``operator._pool``: here at one worker or one batch, else on forked
    workers, and no fork copies a thread, by the one rule that
    ``operator._before_fork`` keeps.  A batch that fails is solved again
    one component at a time, so the first component to fail in plan
    order raises ``ComponentSolveError``; that cancels the batches not yet
    started.  The reduction happens in plan order, so the combined value
    does not depend on the worker count.
    """
    if threads is not None and _integer("threads", threads) < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    points = admit(plan, product, domain, max_nodes)

    started = time.perf_counter()
    cpus = _cores()
    workers = min(threads or cpus, cpus, len(plan))
    jobs = [
        ([plan.terms[k] for k in batch], [points[k] for k in batch], market, product, domain, config)
        for batch in _batches(points, plan.dims, workers)
    ]
    components = []
    with _pool(workers, len(jobs)) as submit:
        pending = [submit(_solve_batch, *job) for job in jobs]
        for (terms, counts, *rest), result in zip(jobs, pending):
            try:
                components += result()
            except Exception as err:
                if len(terms) == 1:
                    raise ComponentSolveError(terms[0].levels) from err
                for term, count in zip(terms, counts):  # find the first failing component
                    try:
                        components += _solve_batch([term], [count], *rest)
                    except Exception as cause:
                        raise ComponentSolveError(term.levels) from cause
    value = 0.0
    for comp in components:
        value += comp.weight * comp.value_bps
    return SparseResult(
        value, tuple(components), count_points(plan), time.perf_counter() - started
    )
