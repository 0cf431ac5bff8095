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
with numpy slice arithmetic, each operator building the time-independent
discretisation once.  Each directional solve scales the rows of its
lines by 1/d_j to a symmetric positive definite tridiagonal system and
makes one LAPACK solve over the lines chained, from a factor cached per
(direction, shift).  One ``GridOperator`` serves one grid or a batch of
small grids, and the grids' size picks one of two regimes.  Grids of at
most ``CSR_MAX_NODES`` nodes, alone or batched, are one block-diagonal
CSR matrix (scipy.sparse, imported on first use) and one gathered chain
of all their lines.  A larger grid, always alone, is a flat program of
ufunc calls on prebuilt views of one padded copy of the input, extended
by the ghost layer, and one chain of its distinct lines whose repeats
are the solve's columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .indexing import GridShape
from .market import MarketData, PdeModel, ProductSpec, payoff

# Grids of at most this many nodes apply the operator as one CSR matrix
# product, and only they can share an operator.  Below it CSR beats the
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
    """Semi-discrete right-hand side F(Y) and its directional resolvents
    over one grid, or over a batch of small grids whose flat vectors are
    concatenated in order.

    For each grid the constructor lists the stencil terms once, each a
    scaled coefficient over one slab of the ghost-extended grid and its
    inputs, each a sign and a flat offset in that grid; a cross or drift
    coefficient is zero on the upper faces of its directions.
    ``solve_directional(i, w, g)`` returns K with (I - w*A_i) K = g, A_i
    the direction-i second differences; it requires the frozen rows of g
    to vanish, which holds for every stage right-hand side and is
    asserted when ``check_rhs`` is set.  Grids of at most
    ``CSR_MAX_NODES`` nodes, one or many, are assembled one after another
    into one block-diagonal CSR matrix and one chain of lines per
    direction (see ``_assemble``), each grid's rows offset by the nodes
    before it.  A larger grid compiles its terms into one flat program
    (see ``_compile``) and is never batched.  Both methods return a new
    array; an instance must not serve concurrent calls, because every
    call works in arrays the instance owns.
    """

    def __init__(
        self,
        market: MarketData,
        product: ProductSpec,
        *shapes: GridShape,
        check_rhs: bool = False,
    ):
        for shape in shapes:
            if shape.ndim != product.dimension:
                raise ValueError(
                    f"grid has {shape.ndim} directions, product needs {product.dimension}"
                )
        if not shapes:
            raise ValueError("an operator needs at least one grid")
        small = all(s.total_points <= CSR_MAX_NODES for s in shapes)
        if not small and len(shapes) > 1:
            raise ValueError(f"a batch holds grids of at most {CSR_MAX_NODES} nodes")
        self.model = model = PdeModel(market, product)
        self.shapes = shapes
        self.shape = shapes[0] if len(shapes) == 1 else None  # a batch has no one shape
        self.n_directions = n = product.dimension
        self.size = sum(s.total_points for s in shapes)
        self.check_rhs = check_rhs
        # per diffusive direction i: the row scales and line ends of its
        # chain, and where the chain's rows are (see solve_directional)
        self._lines: dict[int, tuple] = {}
        self._factors: dict[tuple[int, float], tuple] = {}  # factor per valid (i, w)
        self._matrix = None  # the small grids' CSR matrix
        pieces, start = [], 0  # each small grid's part (see _assemble), its first node
        for shape in shapes:  # each grid's discretisation is let go before the next
            rev, h = shape.reversed_points, shape.spacings
            # The extended grid adds a ghost hyperplane past every upper
            # face; the slab is its rows 1..M_N of view axis 0.  View axis a
            # has flat stride step[a] in it
            ext = tuple(m + 1 for m in rev)
            slab = (rev[0] - 1,) + ext[1:]
            step = [math.prod(ext[a + 1 :]) for a in range(n)]

            def x(r: int) -> np.ndarray:
                """Direction-r coordinates over the slab, ghost included, along view axis n - r."""
                vals = np.append(shape.axis_coordinates(r), shape.bounds[r - 1] + h[r - 1])
                vals = vals[1:-1] if r == n else vals
                return vals.reshape([vals.size if a == n - r else 1 for a in range(n)])

            xs = {r: x(r) for r in range(1, n + 1)}
            # True where 0 < j_r < M_r: cross and drift terms skip the upper
            # faces; index 0 and the ghost are never copied out, so zero
            # there lets a one-interval direction drop its terms
            below = {r: (0.0 < v) & (v < shape.bounds[r - 1]) for r, v in xs.items()}

            # the stencil terms, in order: coef * (in_1 +- in_2 +- ...) over
            # the slab (the coefficient carries the 1/h^2, 1/(2h) or
            # 1/(4 h_i h_k) scale), inputs as (sign, flat offset in the
            # extended grid)
            terms = []

            def add(coef, *inputs) -> None:
                if np.any(coef):  # a vanishing coefficient contributes nothing
                    terms.append((coef, [(sign, sum(s * step[n - r] for r, s in moves.items()))
                                         for sign, moves in inputs]))

            # per diffusive direction i, its distinct lines: the interior
            # view's axis order that chains them (the axes that repeat the
            # line, then the V row for i < N, then the line) and their row
            # scales r, 1/d_j and 1/(2 d_M) on the Neumann row
            lines: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
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
                lines[i] = (order, r)
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
                nodes = np.arange(start, start + shape.total_points, dtype=np.int32).reshape(rev)
                pieces.append(_assemble(nodes, slab, terms, lines))
                start += shape.total_points
            else:
                self._compile(shape, ext, slab, step, terms, lines)
        if small:
            # one block-diagonal matrix, and per direction one chain of the
            # lines of every grid, grid after grid
            values, columns, counts, chains = zip(*pieces)
            indptr = np.concatenate([np.zeros(1, dtype=np.int32),
                                     np.cumsum(np.concatenate(counts), dtype=np.int32)])
            self._matrix = _sparse().csr_array(
                (np.concatenate(values), np.concatenate(columns), indptr), shape=(self.size, self.size)
            )
            for i in range(1, n + 1):
                if own := [grid[i] for grid in chains if i in grid]:
                    self._lines[i] = tuple(map(np.concatenate, zip(*own)))

    def _compile(self, shape: GridShape, ext: tuple, slab: tuple, step: list, terms: list,
                 lines: dict) -> None:
        """The terms as one flat program of (ufunc, in1, in2, out) steps.

        Each term sums its inputs into a work buffer and multiplies by its
        coefficient; the first term works in the accumulator, every later
        one adds its product to it.  An input is the slab shifted by its
        flat offset in one padded copy of the extended grid.  The solves'
        right-hand sides share the work array of the accumulator.
        """
        n, rev = shape.ndim, shape.reversed_points
        self._rev, self._interior = rev, (slice(1, None),) * n
        # shifts along the inner axes reach at most ``pad`` nodes past
        # either end of the padded copy
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
        scratch = np.empty(2 * size)
        acc, buf = scratch[:size].reshape(slab), scratch[size:].reshape(slab)
        self._steps = steps = []
        for coef, inputs in terms:
            work = buf if steps else acc  # the first term sums in the accumulator
            (_, first), *rest = [(sign, padded[lo + at : lo + at + size].reshape(slab))
                                 for sign, at in inputs]
            steps.extend(
                (np.add if sign > 0 else np.subtract, work if j else first, view, work)
                for j, (sign, view) in enumerate(rest)
            )
            steps.append((np.multiply, work, coef, work))
            if work is buf:
                steps.append((np.add, acc, buf, acc))
        # the slab's inner nodes, or nothing when every term vanishes
        self._result = acc[(slice(None),) + (slice(1, -1),) * (n - 1)] if steps else 0.0
        # per diffusive direction, its distinct lines (see __init__) and their
        # right-hand sides in the work array, in chain order and Fortran-ordered
        for i, (order, r) in lines.items():
            b = scratch[: shape.interior_points].reshape([rev[a] - 1 for a in order])
            m = r.shape[-1]  # a line's rows; every line ends alike, so hold one line's ends
            ends = np.broadcast_to(np.arange(m) == m - 1, r.shape)
            self._lines[i] = (r, ends, (order, b, b.reshape(-1, r.size).T))

    # -- operator application --------------------------------------------

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = _vector(y, self.size)
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

        Frozen rows are identities, so K = g there.  Each call copies g,
        scales the interior rows of the direction-i chain, makes one
        ``dpttrs`` solve from the factor built once per (i, w), and writes
        the solution back.  Small grids gather the rows of every line of
        every grid, chained with zero couplings, and scatter the solution
        back; a zero coupling leaves each line's arithmetic unchanged, so
        a grid's values are bitwise the same alone and in any batch.  A
        large grid chains only its distinct lines, as lines with equal
        coefficients share one factor: direction N has a single distinct
        line, a direction i < N one per V row.  It scales them into
        Fortran-ordered right-hand sides whose columns are the repeats of
        the chain.
        """
        g = _vector(g, self.size)
        if self.check_rhs and np.any(g[~np.concatenate([s.inner_mask() for s in self.shapes])]):
            raise ValueError("right-hand side must vanish on frozen (outer) rows")
        factor = self._factors.get((i, w))
        if factor is None:  # only a valid (i, w) is ever cached
            _check_solve(self.n_directions, i, w)
            factor = ()
            if w != 0.0 and i in self._lines:
                r, ends, _ = self._lines[i]
                factor = _factor(r.reshape(-1), ends.reshape(-1), w)
            self._factors[(i, w)] = factor
        out = g.copy()
        if not factor:
            return out
        r, _, at = self._lines[i]
        if self._matrix is not None:  # ``at`` indexes the chained rows
            x = out[at]
            x *= r
            _pttrs(*factor, x)
            out[at] = x
        else:  # ``at`` is the axis order and the right-hand sides
            order, b, bt = at
            lines = out.reshape(self._rev)[self._interior].transpose(order)
            np.multiply(lines, r, b)
            _pttrs(*factor, bt)
            lines[...] = b
        return out

    def lines_in_direction(self, i: int) -> int:
        return sum(s.line_count(i) for s in self.shapes)


def _sparse():
    """``scipy.sparse``, imported on first use, so ``import ratespde`` does not load it."""
    from scipy import sparse

    return sparse


def _assemble(nodes: np.ndarray, slab: tuple[int, ...], terms: list, lines: dict) -> tuple:
    """One small grid's part: (values, columns, counts, chains).

    ``nodes`` numbers the grid's nodes in view layout, after the nodes of
    the grids before it.  The CSR entries hold the terms over every node,
    ``counts`` giving each node's number of entries, none on a frozen row.
    Row p holds, term after term, weight * coef at p at the node that each
    distinct offset of the term's inputs reaches from p, a ghost mirrored
    onto its node M_i - 1; the weight sums the signs of the inputs with
    that offset (the centre's -2).  On a Neumann face the +1 and -1 shifts
    reach one node as two entries.  Exact zeros are dropped.  A term's
    entries are +-coef and -2 coef summing to zero, so on a constant the
    row sum returns exactly to zero after every term and the product
    annihilates constants, as the program does.

    Per diffusive direction i, the chain is (scales, ends, rows): each
    row's scale, True on the last row of each line, and the interior rows
    of every direction-i line, line after line in the axis order of
    ``lines``.
    """
    rev = nodes.shape
    interior, chains = nodes[(slice(1, None),) * len(rev)], {}
    for i, (order, r) in lines.items():
        rows = interior.transpose(order)
        m = rows.shape[-1]
        chains[i] = (np.broadcast_to(r, rows.shape).reshape(-1), np.arange(rows.size) % m == m - 1,
                     rows.reshape(-1).astype(np.intp))
    counts = np.zeros(rev, dtype=np.int32)
    if not terms:
        return np.zeros(0), np.zeros(0, dtype=np.int32), counts.reshape(-1), chains
    # node index over the ghost-extended grid, the ghost mirrored onto
    # M - 1, and the extended grid's flat index of each interior node
    ext = nodes[np.ix_(*[np.append(np.arange(m), m - 2) for m in rev])]
    at = np.ravel_multi_index(np.ix_(*[np.arange(1, m) for m in rev]), ext.shape)
    offsets, of_term, weights = [], [], []
    for t, (_, inputs) in enumerate(terms):
        merged: dict[int, int] = {}  # equal offsets merge: the centre's -2
        for sign, offset in inputs:
            merged[offset] = merged.get(offset, 0) + sign
        offsets += merged
        of_term += [t] * len(merged)
        weights += merged.values()
    reach = ext.reshape(-1)[at.reshape(-1, 1) + np.array(offsets)]
    inner = (slice(None),) + (slice(1, -1),) * (len(rev) - 1)  # the slab's interior nodes
    coefs = np.stack([np.broadcast_to(coef, slab)[inner] for coef, _ in terms], -1)
    vals = coefs.reshape(-1, len(terms))[:, of_term] * weights
    keep = vals != 0.0
    counts[(slice(1, None),) * len(rev)] = keep.sum(1).reshape(interior.shape)
    return vals[keep], reach[keep], counts.reshape(-1), chains


def _vector(y, size: int) -> np.ndarray:
    """``y`` as a float array, checked to hold one value per node of the operator."""
    y = np.asarray(y, dtype=float)
    if y.shape != (size,):
        raise ValueError(f"vector length {y.size} does not match the operator ({size} nodes)")
    return y


def _check_solve(n: int, i: int, w: float) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"direction {i} outside 1..{n}")
    if not 0.0 <= w < math.inf:
        raise ValueError("directional solve needs a finite nonnegative shift")


def _factor(r: np.ndarray, ends: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray]:
    """The factor (d, e) of chained lines of I - w*A_i, rows scaled by r.

    ``ends`` marks the last row of each line, its Neumann row.  Row j,
    (1 + 2wd_j) x_j - wd_j (x_{j-1} + x_{j+1}), times r_j = 1/d_j has
    diagonal r_j + 2w and off-diagonals -w; the Neumann row (-2wd_M on its
    lower neighbour) times r_M = 1/(2d_M) has diagonal r_M + w.  A chain
    of one row is its own factor.
    """
    d = r + 2.0 * w
    d[ends] = r[ends] + w
    e = np.full(r.size - 1, -w)
    e[ends[:-1]] = 0.0  # a row couples to its neighbours on the same line only
    if r.size > 1:
        d, e, info = lapack.dpttrf(d, e, overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise FloatingPointError(f"tridiagonal factorisation failed (info={info})")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise FloatingPointError("non-finite tridiagonal factor")
    return d, e


def _pttrs(d: np.ndarray, e: np.ndarray, b: np.ndarray) -> None:
    """Overwrite the Fortran-ordered right-hand sides b with the solution.

    A chain of one row is divided here, as ``dpttrs`` divides each row of
    a longer chain (it would multiply this one by 1/d).
    """
    if d.size == 1:
        b /= d
        return
    info = lapack.dpttrs(d, e, b, overwrite_b=True)[1]
    if info != 0:
        raise FloatingPointError(f"tridiagonal solve failed (info={info})")


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
