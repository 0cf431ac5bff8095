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
makes one LAPACK solve over the lines chained, from a plan cached per
(direction, shift).  The grid's size picks one of two paths.  A grid of
at most ``CSR_MAX_NODES`` nodes is one CSR matrix (scipy.sparse,
imported on first use) and one chain of all its lines, and runs as a
``BlockOperator`` of one, the same system that solves a batch of small
grids.  A larger grid is a flat program of ufunc calls on prebuilt views
of one padded copy of the input, extended by the ghost layer, and one
chain of its distinct lines whose repeats are the solve's columns.
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

    The constructor lists the stencil terms once, each a scaled
    coefficient over one slab of the ghost-extended grid and its inputs,
    each a sign and a flat offset in that grid; a cross or drift
    coefficient is zero on the upper faces of its directions.
    ``solve_directional(i, w, g)`` returns K with (I - w*A_i) K = g, A_i
    the direction-i second differences; it requires the frozen rows of g
    to vanish, which holds for every stage right-hand side and is
    asserted when ``check_rhs`` is set.  A grid of at most
    ``CSR_MAX_NODES`` nodes is a block of one: it builds its part of a
    ``BlockOperator`` (see ``_assemble``) and both methods run through the
    ``BlockOperator`` of that part alone, built on first use.  A larger
    grid compiles the terms into one flat program (see ``_compile``).
    Both return a new array; an instance must not serve concurrent calls,
    because every call works in arrays the instance owns.
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
        h = shape.spacings

        # The extended grid adds a ghost hyperplane past every upper face;
        # the slab is its rows 1..M_N of view axis 0.  View axis a has flat
        # stride step[a] in it
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
        # faces; index 0 and the ghost are never copied out, so zero there
        # lets a one-interval direction drop its terms
        below = {r: (0.0 < v) & (v < shape.bounds[r - 1]) for r, v in xs.items()}

        # the stencil terms, in order: coef * (in_1 +- in_2 +- ...) over the
        # slab (the coefficient carries the 1/h^2, 1/(2h) or 1/(4 h_i h_k)
        # scale), inputs as (sign, flat offset in the extended grid)
        terms = []

        def add(coef, *inputs) -> None:
            if np.any(coef):  # a vanishing coefficient contributes nothing
                terms.append((coef, [(sign, sum(s * step[n - r] for r, s in moves.items()))
                                     for sign, moves in inputs]))

        self._interior = (slice(1, None),) * n
        # per diffusive direction i, its distinct lines: the interior view's
        # axis order that chains them (the axes that repeat the line, then
        # the V row for i < N, then the line) and their row scales r, 1/d_j
        # and 1/(2 d_M) on the Neumann row
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
        if shape.total_points <= CSR_MAX_NODES:
            self._part = self._assemble(slab, terms, lines)
            self._block = None  # the BlockOperator of the part, see _one
        else:
            self._part = None
            self._compile(ext, slab, step, terms, lines)

    def _assemble(self, slab: tuple[int, ...], terms: list, lines: dict) -> tuple:
        """This grid's part of a ``BlockOperator``: (CSR matrix, chains).

        The matrix holds the terms over every node, frozen rows empty.  Row
        p holds, term after term, weight * coef at p at the node that each
        distinct offset of the term's inputs reaches from p, a ghost
        mirrored onto its node M_i - 1; the weight sums the signs of the
        inputs with that offset (the centre's -2).  On a Neumann face the
        +1 and -1 shifts reach one node as two entries.  Exact zeros are
        dropped.  A term's entries are +-coef and -2 coef summing to zero,
        so on a constant the row sum returns exactly to zero after every
        term and the product annihilates constants, as the program does.

        Per diffusive direction i, the chain is (rows, scales, ends): the
        interior rows of every direction-i line, line after line in the
        axis order of ``lines``, each row's scale, and True on the last
        row of each line.
        """
        n, rev, size = self.n_directions, self._rev, self.shape.total_points
        nodes = np.arange(size, dtype=np.int32).reshape(rev)
        interior, chains = nodes[self._interior], {}
        for i, (order, r) in lines.items():
            rows = interior.transpose(order)
            m = rows.shape[-1]
            chains[i] = (rows.reshape(-1).astype(np.intp), np.broadcast_to(r, rows.shape).reshape(-1),
                         np.arange(rows.size) % m == m - 1)
        if not terms:
            return _sparse().csr_array((size, size)), chains
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
        cols = ext.reshape(-1)[at.reshape(-1, 1) + np.array(offsets)]
        inner = (slice(None),) + (slice(1, -1),) * (n - 1)  # the slab's interior nodes
        coefs = np.stack([np.broadcast_to(coef, slab)[inner] for coef, _ in terms], -1)
        vals = coefs.reshape(-1, len(terms))[:, of_term] * weights
        keep = vals != 0.0
        indptr = np.zeros(size + 1, dtype=np.int32)
        indptr[interior.reshape(-1) + 1] = keep.sum(1)
        indptr = np.cumsum(indptr, dtype=np.int32)
        return _sparse().csr_array((vals[keep], cols[keep], indptr), shape=(size, size)), chains

    def _compile(self, ext: tuple, slab: tuple, step: list, terms: list, lines: dict) -> None:
        """The terms as one flat program of (ufunc, in1, in2, out) steps.

        Each term sums its inputs into a work buffer and multiplies by its
        coefficient; the first term works in the accumulator, every later
        one adds its product to it.  An input is the slab shifted by its
        flat offset in one padded copy of the extended grid.  The solves'
        right-hand sides share the work array of the accumulator.
        """
        n, rev = self.n_directions, self._rev
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
        self._lines = {}
        for i, (order, r) in lines.items():
            b = scratch[: self.shape.interior_points].reshape([rev[a] - 1 for a in order])
            self._lines[i] = (order, r, b, b.reshape(-1, r.size).T)
        self._factors: dict[tuple[int, float], tuple] = {}  # solve plan per valid (i, w)

    def _one(self) -> BlockOperator:
        """The ``BlockOperator`` of this small grid's part alone, built on first use."""
        if self._block is None:
            self._block = BlockOperator([self])
        return self._block

    # -- operator application --------------------------------------------

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = _vector(y, self.shape.total_points, "grid")
        if self._part is not None:
            return self._one().apply(y)
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

        Frozen rows are identities, so K = g there.  A small grid solves
        every line (see ``BlockOperator``).  A large grid chains only its
        distinct lines, as lines with equal coefficients share one factor:
        direction N has a single distinct line, a direction i < N one per
        V row.  Each call copies g, scales its interior rows into the
        plan's Fortran-ordered right-hand sides, makes one ``dpttrs``
        solve whose columns are the repeats of the chain, and writes the
        solution back.
        """
        g = _vector(g, self.shape.total_points, "grid")
        if self.check_rhs and np.any(g[~self.shape.inner_mask()]):
            raise ValueError("right-hand side must vanish on frozen (outer) rows")
        if self._part is not None:
            return self._one().solve_directional(i, w, g)
        plan = self._factors.get((i, w))
        if plan is None:  # only a valid (i, w) is ever cached
            _check_solve(self.n_directions, i, w)
            plan = ()
            if w != 0.0 and i in self._lines:
                r = self._lines[i][1]
                m = self.shape.interior_counts[i - 1]
                plan = _factor(r.reshape(-1), np.arange(r.size) % m == m - 1, w)
            self._factors[(i, w)] = plan
        out = g.copy()
        if plan:
            order, r, b, bt = self._lines[i]
            lines = out.reshape(self._rev)[self._interior].transpose(order)
            np.multiply(lines, r, b)
            _pttrs(*plan, bt)
            lines[...] = b
        return out

    def lines_in_direction(self, i: int) -> int:
        return self.shape.line_count(i)


def _sparse():
    """``scipy.sparse``, imported on first use, so ``import ratespde`` does not load it."""
    from scipy import sparse

    return sparse


def _vector(y, size: int, what: str) -> np.ndarray:
    """``y`` as a float array, checked to hold one value per node of the grid or block."""
    y = np.asarray(y, dtype=float)
    if y.shape != (size,):
        raise ValueError(f"vector length {y.size} does not match {what} ({size} nodes)")
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


class BlockOperator:
    """A batch of small grids as one ``SplitOperator`` over their flat
    vectors, concatenated in order.

    The block concatenates the grids' parts (see
    ``GridOperator._assemble``), each grid's rows offset by the nodes
    before it.  ``apply`` is one product with the block-diagonal CSR
    matrix of their matrices, their rows unchanged.
    ``solve_directional(i, w, g)`` gathers the chained direction-i rows
    of every grid from a copy of g, scales them, solves every line in one
    ``dpttrs`` chain whose lines couple with zeros, from a factor built
    once per (i, w), and scatters the solution back.  A zero coupling
    leaves each line's arithmetic unchanged, so a grid's values are
    bitwise the same alone, where it is a block of one, and in any batch.
    """

    def __init__(self, ops: Iterable[GridOperator]):
        # each operator is read and let go in turn, so only the pieces of the
        # block and one component's operator are held at once
        data, indices, indptr = [], [], [np.zeros(1, dtype=np.int32)]
        chains: dict[int, list] = {}  # direction: each grid's (rows, scales, ends)
        counts = None  # lines per direction
        size = 0
        for op in ops:
            if op._part is None:
                raise ValueError(f"a block holds grids of at most {CSR_MAX_NODES} nodes")
            own = [op.lines_in_direction(i) for i in range(1, op.n_directions + 1)]
            if counts is not None and len(own) != len(counts):
                raise ValueError("the grids of a block need one dimension")
            counts = own if counts is None else [a + b for a, b in zip(counts, own)]
            matrix, own_chains = op._part
            data.append(matrix.data)
            indices.append(matrix.indices + np.int32(size))
            indptr.append(matrix.indptr[1:] + indptr[-1][-1])
            for i, (rows, scales, ends) in own_chains.items():
                chains.setdefault(i, []).append((rows + size, scales, ends))
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
        # per diffusive direction: the chained rows, their scales and line ends
        self._chains = {i: tuple(map(np.concatenate, zip(*parts))) for i, parts in chains.items()}

    def apply(self, y: np.ndarray) -> np.ndarray:
        return self._matrix @ _vector(y, self.size, "block")

    def solve_directional(self, i: int, w: float, g: np.ndarray) -> np.ndarray:
        g = _vector(g, self.size, "block")
        plan = self._factors.get((i, w))
        if plan is None:  # only a valid (i, w) is ever cached
            _check_solve(self.n_directions, i, w)
            plan = ()
            if w != 0.0 and i in self._chains:
                rows, scales, ends = self._chains[i]
                plan = (rows, scales, _factor(scales, ends, w))
            self._factors[(i, w)] = plan
        out = g.copy()
        if plan:
            rows, scales, factor = plan
            x = out[rows]
            x *= scales
            _pttrs(*factor, x)
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
