"""Matrix-free spatial operator, directional tridiagonal solver, grid states.

The semi-discrete system keeps every grid node in one flat vector.  Nodes
with any zero component ("outer": the lower Dirichlet faces) are frozen
at their payoff values and have identically zero rows; all other nodes
("inner") carry second-order central differences.  On the upper faces
j_i = M_i the homogeneous Neumann condition is imposed by a mirrored
ghost node Y[J+E_i] = Y[J-E_i], so the second difference there reads

    (2 Y[J-E_i] - 2 Y[J]) / h_i^2,

while first differences and cross differences are dropped there.

Implementation notes: the flat vector of a shape reshapes (C order) to an
ndarray whose *last* axis is direction 1, so all stencils are evaluated
with numpy slice arithmetic.  The discretisation does not change in
time, so each operator builds it once.  A grid of at most
``CSR_MAX_NODES`` nodes becomes one CSR matrix (scipy.sparse, imported on
first use); a larger grid becomes a flat program of ufunc calls on
prebuilt views of one padded copy of the input, extended by the ghost
layer, which a call runs without per-term decisions.  Every term runs on
the same contiguous slab: the inner nodes' outer-axis rows, taken as
whole rows of the extended grid.  Each directional solve chains the
direction's distinct lines into one system, scales its rows by 1/d_j,
fixed at construction, to a symmetric positive definite tridiagonal
matrix and makes one LAPACK solve, from a plan cached per (direction,
shift).  ``BlockOperator`` runs a batch of small grids as one system:
one product with their block-diagonal CSR matrix and one LAPACK solve
per direction over all their lines, each row computed as its own grid's
operator computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import lapack

from .indexing import GridShape
from .market import MarketData, PdeModel, ProductSpec, payoff

# Grids of at most this many nodes apply the operator as one CSR matrix
# product, and only they can join a BlockOperator.  Below it CSR beats the
# program on the small and thin grids of a plan; above it the program is
# as fast and a CSR matrix (about 120 B/node in 2D, 240 in 3D) costs
# memory and build time
CSR_MAX_NODES = 2**14


@dataclass
class StateVector:
    """Flat solution values over every node of one grid, outer faces included."""

    shape: GridShape
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (self.shape.total_points,):
            raise ValueError(
                f"state length {self.values.size} does not match grid "
                f"({self.shape.total_points} nodes)"
            )

    def view(self) -> np.ndarray:
        """ndarray view with direction 1 on the last axis."""
        return self.values.reshape(self.shape.reversed_points)


class GridOperator:
    """Semi-discrete right-hand side F(Y) and its directional resolvents.

    The discretisation is time independent, so the constructor lists its
    stencil terms once, each a scaled coefficient over the same slab of
    the ghost-extended grid and its signed inputs; a cross or drift
    coefficient is zero on the upper faces of its directions.  A grid of
    at most ``CSR_MAX_NODES`` nodes assembles them into one CSR matrix
    (see ``_assemble``) and ``apply`` is one product with it.  A larger
    grid compiles them into one flat program of ufunc calls on prebuilt
    views (see ``_compile``); ``apply`` mirrors the ghosts, runs the
    program and copies the slab's inner nodes out.  After construction
    no PDE coefficient is evaluated again.  ``solve_directional(i, w, g)``
    returns K with (I - w*A_i) K = g, A_i the direction-i second
    differences, by eliminating the tridiagonal lines of direction i,
    built from the same diffusion coefficients; it requires the frozen
    rows of g to vanish, which holds for every stage right-hand side and
    is asserted when ``check_rhs`` is set.  Both return a new array; an
    instance must not serve concurrent calls, because every call works in
    arrays the instance owns.
    """

    def __init__(
        self,
        market: MarketData,
        product: ProductSpec,
        shape: GridShape,
        *,
        check_rhs: bool = False,
    ):
        if shape.ndim != product.dimension:
            raise ValueError(
                f"grid has {shape.ndim} directions, product needs {product.dimension}"
            )
        self.model = model = PdeModel(market, product)
        self.shape = shape
        self.n_directions = n = shape.ndim
        self.check_rhs = check_rhs
        self._rev = rev = shape.reversed_points
        # solve plan per validated (i, w), see solve_directional
        self._factors: dict[tuple[int, float], tuple] = {}
        h = shape.spacings

        # The extended grid adds a ghost hyperplane past every upper face;
        # the slab is its rows 1..M_N of view axis 0
        ext = tuple(m + 1 for m in rev)
        slab = (rev[0] - 1,) + ext[1:]
        small = shape.total_points <= CSR_MAX_NODES
        # the right-hand sides of every solve; a large grid's program works
        # in the same array, its accumulator first, then its term buffer
        scratch = np.empty(shape.interior_points if small else 2 * math.prod(slab))

        def x(r: int) -> np.ndarray:
            """Direction-r coordinates over the slab, ghost included, along view axis n - r."""
            vals = np.append(shape.axis_coordinates(r), shape.bounds[r - 1] + h[r - 1])
            vals = vals[1:-1] if r == n else vals
            return vals.reshape([vals.size if a == n - r else 1 for a in range(n)])

        xs = {r: x(r) for r in range(1, n + 1)}
        # True where 0 < j_r < M_r: cross and drift terms skip the upper
        # faces; index 0 and the ghost are never copied out, so zero there
        # lets a one-interval direction drop its terms
        below = {r: (0.0 < v) & (v < shape.bounds[r - 1]) for r, v in xs.items()}

        # the stencil terms, in order: coef * (in_1 +- in_2 +- ...) over the
        # slab (the coefficient carries the 1/h^2, 1/(2h) or 1/(4 h_i h_k)
        # scale), inputs as (sign, {direction: row shift}) relative to it
        terms = []

        def add(coef, *inputs) -> None:
            if np.any(coef):  # a vanishing coefficient contributes nothing
                terms.append((coef, inputs))

        self._interior = (slice(1, None),) * n
        # per diffusive direction i, the layout of its chained lines: the
        # interior view's axis order that chains them (the axes that repeat
        # the line, then the V row for i < N, then the line), the row scales
        # r, 1/d_j and 1/(2 d_M) on the Neumann row, and the right-hand
        # sides in the work array, in chain order and Fortran-ordered
        self._lines: dict[int, tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]] = {}
        for i in range(1, n + 1):
            # d_i/h_i^2 over the slab, and over its inner rows 1..M_i
            d = model.diffusion(i, xs[i], xs[n]) / h[i - 1] ** 2
            inner = d[(slice(None),) * (n - i) + (slice(1, -1),)] if i < n else d
            if not np.any(inner):
                continue
            if inner.min() < np.finfo(float).tiny:  # the solve divides each row by it
                raise ValueError(f"diffusion coefficient of direction {i} underflows on some rows")
            chain = (0,) if i == n else (0, n - i)
            order = tuple(a for a in range(n) if a not in chain) + chain
            r = 1.0 / inner.transpose(order)[(0,) * (n - len(chain))]
            r[..., -1] *= 0.5
            b = scratch[: shape.interior_points].reshape([rev[a] - 1 for a in order])
            self._lines[i] = (order, r, b, b.reshape(-1, r.size).T)
            # on the Neumann face the ghost doubles the lower neighbour
            add(d, (1, {i: 1}), (1, {i: -1}), (-1, {}), (-1, {}))
        for i in range(1, n):
            for k in range(i + 1, n + 1):
                coef = model.mixed(i, k, xs[i], xs[k], xs[n]) / (4.0 * h[i - 1] * h[k - 1])
                add(coef * (below[i] & below[k]), (1, {i: 1, k: 1}), (1, {i: -1, k: -1}),
                    (-1, {i: 1, k: -1}), (-1, {i: -1, k: 1}))
        for i in range(2, n):
            coef = model.advection(i, [xs[j] for j in range(2, i + 1)], xs[n])
            add(coef / (2.0 * h[i - 1]) * below[i], (1, {i: 1}), (-1, {i: -1}))
        if small:
            self._matrix = self._assemble(slab, terms)
        else:
            self._matrix = None
            self._compile(ext, slab, terms, scratch)

    def _assemble(self, slab: tuple[int, ...], terms: list):
        """The terms as one CSR matrix over every node, frozen rows empty.

        Row p holds, term after term, weight * coef at p at the node that
        each distinct shift of the term's inputs reaches from p, a ghost
        mirrored onto its node M_i - 1; the weight sums the signs of the
        inputs with that shift (the centre's -2).  On a Neumann face the
        +1 and -1 shifts reach one node as two entries.  Exact zeros are
        dropped.  A term's entries are +-coef and -2 coef summing to zero,
        so on a constant the row sum returns exactly to zero after every
        term and the product annihilates constants, as the program does.
        """
        n, rev, size = self.n_directions, self._rev, self.shape.total_points
        if not terms:
            return _sparse().csr_array((size, size))
        nodes = np.arange(size, dtype=np.int32).reshape(rev)
        # node index over the ghost-extended grid, the ghost mirrored onto
        # M - 1, and the extended grid's flat index of each interior node
        ext = nodes[np.ix_(*[np.append(np.arange(m), m - 2) for m in rev])]
        at = np.ravel_multi_index(np.ix_(*[np.arange(1, m) for m in rev]), ext.shape)
        shifts, of_term, weights = [], [], []
        for t, (_, inputs) in enumerate(terms):
            merged: dict[tuple[int, ...], int] = {}  # equal shifts merge: the centre's -2
            for sign, moves in inputs:
                shift = tuple(moves.get(n - a, 0) for a in range(n))
                merged[shift] = merged.get(shift, 0) + sign
            shifts += merged
            of_term += [t] * len(merged)
            weights += merged.values()
        steps = [math.prod(ext.shape[a + 1 :]) for a in range(n)]
        cols = ext.reshape(-1)[at.reshape(-1, 1) + np.array(shifts) @ steps]
        inner = (slice(None),) + (slice(1, -1),) * (n - 1)  # the slab's interior nodes
        coefs = np.stack([np.broadcast_to(coef, slab)[inner] for coef, _ in terms], -1)
        vals = coefs.reshape(-1, len(terms))[:, of_term] * weights
        keep = vals != 0.0
        indptr = np.zeros(size + 1, dtype=np.int32)
        indptr[nodes[self._interior].reshape(-1) + 1] = keep.sum(1)
        indptr = np.cumsum(indptr, dtype=np.int32)
        return _sparse().csr_array((vals[keep], cols[keep], indptr), shape=(size, size))

    def _compile(self, ext: tuple[int, ...], slab: tuple[int, ...], terms: list, scratch) -> None:
        """The terms as one flat program of (ufunc, in1, in2, out) steps.

        Each term sums its inputs into a work buffer and multiplies by its
        coefficient; the first term works in the accumulator, every later
        one adds its product to it.  An input is the slab shifted by a
        fixed flat offset in one padded copy of the extended grid.
        """
        n, rev = self.n_directions, self._rev
        # view axis a has flat stride step[a]; shifts along the inner axes
        # reach at most ``pad`` nodes past either end of the padded copy
        step = [math.prod(ext[a + 1 :]) for a in range(n)]
        pad = sum(step[1:])
        padded = np.zeros(math.prod(ext) + 2 * pad)
        grid = padded[pad : pad + math.prod(ext)].reshape(ext)
        self._nodes = grid[tuple(slice(m) for m in rev)]
        # ghost M_a + 1 mirrors M_a - 1, corners included, axis after axis
        self._ghosts = [
            (grid[(slice(None),) * a + (m,)], grid[(slice(None),) * a + (m - 2,)])
            for a, m in enumerate(rev)
        ]
        lo, size = pad + step[0], math.prod(slab)
        acc, buf = scratch[:size].reshape(slab), scratch[size:].reshape(slab)
        self._steps = steps = []
        for coef, inputs in terms:
            work = buf if steps else acc  # the first term sums in the accumulator
            views = []
            for sign, moves in inputs:
                at = lo + sum(s * step[n - r] for r, s in moves.items())
                views.append((sign, padded[at : at + size].reshape(slab)))
            (_, first), *rest = views
            steps.extend(
                (np.add if sign > 0 else np.subtract, work if j else first, view, work)
                for j, (sign, view) in enumerate(rest)
            )
            steps.append((np.multiply, work, coef, work))
            if work is buf:
                steps.append((np.add, acc, buf, acc))
        # the slab's inner nodes, or nothing when every term vanishes
        self._result = acc[(slice(None),) + (slice(1, -1),) * (n - 1)] if steps else 0.0

    # -- operator application --------------------------------------------

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.shape.total_points,):
            raise ValueError(
                f"vector length {y.size} does not match grid ({self.shape.total_points} nodes)"
            )
        if self._matrix is not None:
            return self._matrix @ y
        self._nodes[...] = y.reshape(self._rev)
        for ghost, mirror in self._ghosts:
            ghost[...] = mirror
        for ufunc, a, b, o in self._steps:
            ufunc(a, b, o)
        out = np.zeros(y.size)
        out.reshape(self._rev)[self._interior] = self._result
        return out

    # -- directional resolvent -----------------------------------------

    def solve_directional(self, i: int, w: float, g: np.ndarray) -> np.ndarray:
        """Solve (I - w*A_i) K = g, one tridiagonal system per line.

        Frozen rows are identities, so K = g there.  Lines with equal
        coefficients share one factorisation: direction N has a single
        distinct line, a direction i < N one per V row.  The distinct
        lines are chained, uncoupled, into one tridiagonal system whose
        rows are scaled by 1/d_j, built once per direction, to make it
        symmetric positive definite.  The first call for each (i, w)
        checks them and caches a plan (see ``_factor``); every call then
        copies g, scales its interior rows into the plan's Fortran-ordered
        right-hand sides, makes one ``dpttrs`` solve whose columns are the
        repeats of the chain, and writes the solution back.
        """
        plan = self._factors.get((i, w))
        if plan is None:  # only a valid (i, w) is ever cached
            _check_solve(self.n_directions, i, w)
            plan = ()
            if w != 0.0 and i in self._lines:
                r = self._lines[i][1]
                m = self.shape.interior_counts[i - 1]
                plan = _factor(r.reshape(-1), np.arange(r.size) % m == m - 1, w)
            self._factors[(i, w)] = plan
        if self.check_rhs:
            self._assert_frozen_rows_zero(g)
        out = np.asarray(g, dtype=float).copy()
        if plan:
            order, r, b, bt = self._lines[i]
            lines = out.reshape(self._rev)[self._interior].transpose(order)
            np.multiply(lines, r, b)
            _pttrs(*plan, bt)
            lines[...] = b
        return out

    def lines_in_direction(self, i: int) -> int:
        return self.shape.line_count(i)

    # -- plumbing --------------------------------------------------------

    def _assert_frozen_rows_zero(self, g: np.ndarray) -> None:
        if np.any(np.asarray(g)[~self.shape.inner_mask()]):
            raise ValueError("right-hand side must vanish on frozen (outer) rows")


def _sparse():
    """``scipy.sparse``, imported on first use, so ``import ratespde`` does not load it."""
    from scipy import sparse

    return sparse


def _check_solve(n: int, i: int, w: float) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"direction {i} outside 1..{n}")
    if not 0.0 <= w < math.inf:
        raise ValueError("directional solve needs a finite nonnegative shift")


def _factor(r: np.ndarray, ends: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``dpttrf`` factor (d, e) of chained lines of I - w*A_i, rows scaled by r.

    ``ends`` marks the last row of each line, its Neumann row.  Row j,
    (1 + 2wd_j) x_j - wd_j (x_{j-1} + x_{j+1}), times r_j = 1/d_j has
    diagonal r_j + 2w and off-diagonals -w; the Neumann row (-2wd_M on its
    lower neighbour) times r_M = 1/(2d_M) has diagonal r_M + w.
    """
    diag = r + 2.0 * w
    diag[ends] = r[ends] + w
    # scipy's dpttrf wants one off-diagonal entry even for a single row
    e = np.full(max(r.size - 1, 1), -w)
    e[ends[:-1]] = 0.0  # a row couples to its neighbours on the same line only
    d, e, info = lapack.dpttrf(diag, e, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise FloatingPointError(f"tridiagonal factorisation failed (info={info})")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise FloatingPointError("non-finite tridiagonal factor")
    return d, e


def _pttrs(d: np.ndarray, e: np.ndarray, b: np.ndarray) -> None:
    """Overwrite the Fortran-ordered right-hand sides b with the solution."""
    info = lapack.dpttrs(d, e, b, overwrite_b=True)[1]
    if info != 0:
        raise FloatingPointError(f"tridiagonal solve failed (info={info})")


class BlockOperator:
    """A batch of small grids as one ``SplitOperator`` over their flat
    vectors, concatenated in order.

    ``apply`` is one product with the block-diagonal CSR matrix made of
    the components' matrices, their rows unchanged.  For each direction
    i the constructor lists, component by component, the interior rows
    of every direction-i line and their row scales;
    ``solve_directional(i, w, g)`` gathers those rows from a copy of g,
    scales them, solves every line in one ``dpttrs`` chain whose lines
    couple with zeros, from a factor built once per (i, w), and scatters
    the solution back.  A component whose distinct lines chain to a
    single row, which LAPACK solves as b * (1/d), comes after the chain
    and is multiplied by that reciprocal instead.  So every row is
    computed as the component's own ``GridOperator`` computes it, and a
    component's values do not depend on its batch.
    """

    def __init__(self, ops: Iterable[GridOperator]):
        # each operator is read and let go in turn, so only the pieces of the
        # block and one component's operator are held at once
        data, indices, indptr = [], [], [np.zeros(1, dtype=np.int32)]
        lines: dict[int, tuple[list, list]] = {}  # direction: (chained, single) pieces
        counts = None  # lines per direction
        size = 0
        for op in ops:
            if op._matrix is None:
                raise ValueError(f"a block holds grids of at most {CSR_MAX_NODES} nodes")
            own = [op.lines_in_direction(i) for i in range(1, op.n_directions + 1)]
            if counts is not None and len(own) != len(counts):
                raise ValueError("the grids of a block need one dimension")
            counts = own if counts is None else [a + b for a, b in zip(counts, own)]
            m = op._matrix
            data.append(m.data)
            indices.append(m.indices + np.int32(size))
            indptr.append(m.indptr[1:] + indptr[-1][-1])
            for i, (order, r, *_) in op._lines.items():
                nodes = np.arange(size, size + op.shape.total_points).reshape(op._rev)
                rows = nodes[op._interior].transpose(order)
                line = rows.shape[-1]
                piece = (rows.reshape(-1), np.broadcast_to(r, rows.shape).reshape(-1),
                         np.arange(rows.size) % line == line - 1)
                lines.setdefault(i, ([], []))[r.size == 1].append(piece)
            size += op.shape.total_points
        if counts is None:
            raise ValueError("a block needs at least one grid")
        self.size = size
        self.n_directions = len(counts)
        self._line_counts = counts
        self._matrix = _sparse().csr_array(
            (np.concatenate(data), np.concatenate(indices), np.concatenate(indptr)), shape=(size, size)
        )
        self._factors: dict[tuple[int, float], tuple] = {}
        # per diffusive direction: the gathered rows and their scales, the
        # chained lines first, and how many rows are chained, with the last
        # row of each line marked
        self._lines: dict[int, tuple[np.ndarray, np.ndarray, int, np.ndarray]] = {}
        for i, (chained, single) in lines.items():
            parts = chained + single
            self._lines[i] = (
                np.concatenate([rows for rows, _, _ in parts]),
                np.concatenate([scales for _, scales, _ in parts]),
                sum(rows.size for rows, _, _ in chained),
                np.concatenate([ends for _, _, ends in chained] or [np.zeros(0, dtype=bool)]),
            )

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.size,):
            raise ValueError(f"vector length {y.size} does not match block ({self.size} nodes)")
        return self._matrix @ y

    def solve_directional(self, i: int, w: float, g: np.ndarray) -> np.ndarray:
        plan = self._factors.get((i, w))
        if plan is None:  # only a valid (i, w) is ever cached
            _check_solve(self.n_directions, i, w)
            plan = ()
            if w != 0.0 and i in self._lines:
                rows, scales, chained, ends = self._lines[i]
                factor = _factor(scales[:chained], ends, w) if chained else ()
                plan = (rows, scales, chained, factor, 1.0 / (scales[chained:] + w))
            self._factors[(i, w)] = plan
        out = np.asarray(g, dtype=float).copy()
        if plan:
            rows, scales, chained, factor, inverse = plan
            x = out[rows]
            x *= scales
            if chained:
                _pttrs(*factor, x[:chained])
            x[chained:] *= inverse
            out[rows] = x
        return out

    def lines_in_direction(self, i: int) -> int:
        return self._line_counts[i - 1]


def initial_state(market: MarketData, product: ProductSpec, shape: GridShape) -> StateVector:
    """Payoff values at every node; this is the PDE initial condition.

    The payoff depends on the forward coordinates only, so values are
    constant along the volatility axis, and the zero faces automatically
    hold the payoff as their frozen boundary values.
    """
    if shape.ndim != product.dimension:
        raise ValueError(
            f"grid has {shape.ndim} directions, product needs {product.dimension}"
        )
    n = shape.ndim
    forwards = []
    for loc in range(1, n):
        vals = shape.axis_coordinates(loc)
        shp = [1] * n
        shp[shape.axis_of(loc)] = vals.size
        forwards.append(vals.reshape(shp))
    g = np.asarray(payoff(market, product, forwards), dtype=float)
    full = np.broadcast_to(g, shape.reversed_points)
    return StateVector(shape, np.ascontiguousarray(full).reshape(-1))


def interpolate(state: StateVector, point) -> float:
    """Multilinear interpolation of a grid state at an interior point.

    Blends the enclosing cell linearly along one direction at a time.
    Exact on grid nodes and on any function that is affine per direction.
    """
    shape = state.shape
    if len(point) != shape.ndim:
        raise ValueError(f"point needs {shape.ndim} coordinates")
    value = state.view()
    for r in range(shape.ndim, 0, -1):  # direction N is the view's first axis
        x = float(point[r - 1])
        bound = shape.bounds[r - 1]
        if not 0.0 <= x <= bound:
            raise ValueError(f"coordinate {x} outside [0, {bound}]")
        t = x / shape.spacings[r - 1]
        cell = min(int(math.floor(t)), shape.interior_counts[r - 1] - 1)
        t -= cell
        value = (1.0 - t) * value[cell] + t * value[cell + 1]
    return float(value)
