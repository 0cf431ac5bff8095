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
time, so each operator compiles it once into a flat program of ufunc
calls on prebuilt views of one padded copy of the input, extended by the
ghost layer, which a call runs without per-term decisions.  Every term
runs on the same contiguous slab: the inner nodes' outer-axis rows, taken
as whole rows of the extended grid.  Each directional solve chains the
direction's distinct lines into one system, scales its rows by 1/d_j,
fixed at construction, to a symmetric positive definite tridiagonal
matrix and makes one LAPACK solve, from a plan cached per (direction,
shift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .indexing import GridShape
from .market import MarketData, PdeModel, ProductSpec, payoff


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

    The discretisation is time independent, so the constructor compiles
    it once into one flat program of ufunc calls on prebuilt views: per
    stencil term, the signed sum of its inputs into a work buffer and one
    multiply by the scaled coefficient; the first term works in the
    accumulator, every later term adds its product to it.  Each term
    spans the same slab of the ghost-extended grid; a cross or drift
    coefficient is zero on the upper faces of its directions.
    ``apply`` mirrors the ghosts, runs the program and copies the slab's
    inner nodes out; after construction no PDE coefficient is evaluated
    again.  ``solve_directional(i, w, g)`` returns K with
    (I - w*A_i) K = g, A_i the direction-i second differences, by
    eliminating the tridiagonal lines of direction i, built from the same
    diffusion coefficients; it requires the frozen rows of g to vanish,
    which holds for every stage right-hand side and is asserted when
    ``check_rhs`` is set.  Both return a new array; an instance must not
    serve concurrent calls, because every call works in arrays the
    instance owns.
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
        # view axis a (direction n - a) has flat stride step[a].  Shifts
        # along the inner axes reach at most ``pad`` nodes past either end
        # of the padded copy of it.
        ext = tuple(m + 1 for m in rev)
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
        # the slab: the extended grid's rows 1..M_N of view axis 0
        slab = (rev[0] - 1,) + ext[1:]
        lo, size = pad + step[0], math.prod(slab)
        # the accumulator and term buffer of apply, and the right-hand
        # sides of every solve
        scratch = np.empty(2 * size)
        acc, buf = scratch[:size].reshape(slab), scratch[size:].reshape(slab)

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

        # the program: flat (ufunc, in1, in2, out) steps that leave each
        # term's coef * (in_1 +- in_2 +- ...) in the accumulator (the
        # coefficient carries the 1/h^2, 1/(2h) or 1/(4 h_i h_k) scale)
        self._steps = steps = []

        def add(coef, *inputs) -> None:
            # inputs are (sign, {direction: row shift}) relative to the slab
            if not np.any(coef):  # a vanishing coefficient contributes nothing
                return
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
        # the slab's inner nodes, or nothing when every term vanishes
        self._result = acc[(slice(None),) + (slice(1, -1),) * (n - 1)] if steps else 0.0

    # -- operator application --------------------------------------------

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.shape.total_points,):
            raise ValueError(
                f"vector length {y.size} does not match grid ({self.shape.total_points} nodes)"
            )
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
        checks them and caches a plan (see ``_plan``); every call then
        copies g, scales its interior rows into the plan's Fortran-ordered
        right-hand sides, makes one ``dpttrs`` solve whose columns are the
        repeats of the chain, and writes the solution back.
        """
        plan = self._factors.get((i, w))
        if plan is None:  # only a valid (i, w) is ever cached
            plan = self._plan(i, w)
        if self.check_rhs:
            self._assert_frozen_rows_zero(g)
        out = np.asarray(g, dtype=float).copy()
        if plan:
            d, e, order, r, b, bt = plan
            lines = out.reshape(self._rev)[self._interior].transpose(order)
            np.multiply(lines, r, b)
            info = lapack.dpttrs(d, e, bt, overwrite_b=True)[1]
            if info != 0:
                raise FloatingPointError(f"tridiagonal solve failed (info={info})")
            lines[...] = b
        return out

    def _plan(self, i: int, w: float) -> tuple:
        """Check (i, w) and cache its solve plan: empty for the identity,
        else the ``dpttrf`` factor (d, e) of the chained distinct lines of
        I - w*A_i, then the direction's line layout.

        Row j, (1 + 2wd_j) x_j - wd_j (x_{j-1} + x_{j+1}), times r_j = 1/d_j
        has diagonal r_j + 2w and off-diagonals -w; the Neumann row (-2wd_M
        on its lower neighbour) times r_M = 1/(2d_M) has diagonal r_M + w.
        """
        self.shape.axis_of(i)  # rejects a direction outside 1..N
        if not 0.0 <= w < math.inf:
            raise ValueError("directional solve needs a finite nonnegative shift")
        plan: tuple = ()
        if w != 0.0 and i in self._lines:
            order, r, b, bt = self._lines[i]
            m = self.shape.interior_counts[i - 1]
            diag = r + 2.0 * w
            diag[..., -1] = r[..., -1] + w
            # scipy's dpttrf wants one off-diagonal entry even for a single row
            e = np.full(max(r.size - 1, 1), -w)
            e[m - 1 :: m] = 0.0  # a row couples to its neighbours on the same line only
            d, e, info = lapack.dpttrf(diag.reshape(-1), e, overwrite_d=1, overwrite_e=1)
            if info != 0:
                raise FloatingPointError(f"tridiagonal factorisation failed (info={info})")
            if not (np.isfinite(d).all() and np.isfinite(e).all()):
                raise FloatingPointError("non-finite tridiagonal factor")
            plan = (d, e, order, r, b, bt)
        self._factors[(i, w)] = plan
        return plan

    def lines_in_direction(self, i: int) -> int:
        return self.shape.line_count(i)

    # -- plumbing --------------------------------------------------------

    def _assert_frozen_rows_zero(self, g: np.ndarray) -> None:
        if np.any(np.asarray(g)[~self.shape.inner_mask()]):
            raise ValueError("right-hand side must vanish on frozen (outer) rows")


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
