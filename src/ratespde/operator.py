"""Matrix-free spatial operator, directional tridiagonal solver, grid states.

The semi-discrete system keeps every grid node in one flat vector.  Nodes
with any zero component ("outer": the lower Dirichlet faces) are frozen
at their payoff values and have identically zero rows; all other nodes
("inner") carry second-order central differences with two modifications
on the upper faces j_i = M_i, where the homogeneous Neumann condition is
imposed: the second difference mirrors the lower neighbour,

    (2 Y[J-E_i] - 2 Y[J]) / h_i^2,

while first differences and cross differences are dropped there.

Implementation notes: the flat vector of a shape reshapes (C order) to an
ndarray whose *last* axis is direction 1, so all stencils are evaluated
with numpy slice arithmetic.  The discretisation does not change in
time, so each operator compiles it once into a table of terms (output
box, signed input boxes, scaled coefficient array).  A coefficient array
spans only the axes its PDE coefficient depends on and broadcasts over
the rest.  Each directional solve is one LAPACK tridiagonal solve over
the direction's distinct lines chained into a single system.
"""

from __future__ import annotations

import itertools
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

    def copy(self) -> "StateVector":
        return StateVector(self.shape, self.values.copy())


@dataclass(frozen=True)
class _Term:
    """One stencil piece: out[out] += coef * (v[in_1] +- v[in_2] +- ...).

    The inputs are summed left to right with their signs, the first one
    positive; ``coef`` already carries the 1/h^2, 1/(2h) or 1/(4 h_i h_k)
    scale and broadcasts over the output box.
    """

    kind: tuple  # ("diffusion", i), ("mixed", i, k) or ("advection", i)
    out: tuple[slice, ...]
    inputs: tuple[tuple[int, tuple[slice, ...]], ...]
    coef: np.ndarray
    shape: tuple[int, ...]


class GridOperator:
    """Semi-discrete right-hand side F(Y) and its directional resolvents.

    The discretisation is time independent, so the constructor compiles
    it once into a term table: per term its kind, output box, signed
    input boxes and scaled coefficient array.  ``apply`` sums every term
    and ``apply_diffusion(i, .)`` only the direction-i second differences
    (the block A_i); after construction no PDE coefficient is evaluated
    again.  ``solve_directional(i, w, g)`` returns K with
    (I - w*A_i) K = g by eliminating the tridiagonal lines of direction
    i, built from the same direction-i diffusion coefficients; it
    requires the frozen rows of g to vanish, which holds for every stage
    right-hand side and is asserted when ``check_rhs`` is set.
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
        self._rev = shape.reversed_points
        self._outer_mask: np.ndarray | None = None
        self._factors: dict[tuple[int, float], tuple[np.ndarray, ...]] = {}
        self._scratch: np.ndarray | None = None

        counts = shape.interior_counts
        h = shape.spacings
        coords = [shape.axis_coordinates(r) for r in range(1, n + 1)]

        def box(rows: dict[int, slice]) -> tuple[slice, ...]:
            """Active-node box in view axis order (direction r on axis n - r)."""
            return tuple(rows.get(r, slice(1, counts[r - 1] + 1)) for r in range(n, 0, -1))

        def x(r: int, out: tuple[slice, ...]) -> np.ndarray:
            """Direction-r coordinates over a box, broadcasting along their own axis."""
            vals = coords[r - 1][out[n - r]]
            return vals.reshape([vals.size if a == n - r else 1 for a in range(n)])

        terms: list[_Term] = []

        def add(kind, out, coef, *inputs) -> None:
            # inputs are (sign, {direction: row shift}) relative to the output box
            if not np.any(coef):  # a vanishing coefficient contributes nothing
                return
            boxes = []
            for sign, moves in inputs:
                sl = list(out)
                for r, s in moves.items():
                    sl[n - r] = slice(out[n - r].start + s, out[n - r].stop + s)
                boxes.append((sign, tuple(sl)))
            shp = tuple(s.stop - s.start for s in out)
            terms.append(_Term(kind, out, tuple(boxes), coef, shp))

        self._interior = box({})
        # axis order of the interior view that solve_directional chains
        # direction i along: right-hand-side columns first, then the V row
        # (i < N only) and the line itself; split counts the column axes
        self._chains = []
        for i in range(1, n + 1):
            chain = (0,) if i == n else (0, n - i)
            cols = tuple(a for a in range(n) if a not in chain)
            self._chains.append((cols + chain, len(cols)))
        # d_i/h_i^2 over rows 1..M_i of each direction; None where it vanishes
        self._line_coefs: list[np.ndarray | None] = []
        for i in range(1, n + 1):
            m = counts[i - 1]
            d = model.diffusion(i, x(i, self._interior), x(n, self._interior)) / h[i - 1] ** 2
            d = d if np.any(d) else None
            self._line_coefs.append(d)
            if d is None:
                continue
            rows = (slice(None),) * (n - i)
            if m >= 2:
                c = box({i: slice(1, m)})
                add(("diffusion", i), c, d[rows + (slice(0, m - 1),)],
                    (1, {i: 1}), (1, {i: -1}), (-1, {}), (-1, {}))
            # Neumann face: the second difference mirrors the lower neighbour
            top = box({i: slice(m, m + 1)})
            add(("diffusion", i), top, 2.0 * d[rows + (slice(m - 1, m),)], (1, {i: -1}), (-1, {}))
        for i in range(1, n):
            for k in range(i + 1, n + 1):
                mi, mk = counts[i - 1], counts[k - 1]
                if mi < 2 or mk < 2:
                    continue
                c = box({i: slice(1, mi), k: slice(1, mk)})
                coef = model.mixed(i, k, x(i, c), x(k, c), x(n, c)) / (4.0 * h[i - 1] * h[k - 1])
                add(("mixed", i, k), c, coef, (1, {i: 1, k: 1}), (1, {i: -1, k: -1}),
                    (-1, {i: 1, k: -1}), (-1, {i: -1, k: 1}))
        for i in range(2, n):
            mi = counts[i - 1]
            if mi < 2:
                continue
            c = box({i: slice(1, mi)})
            coef = model.advection(i, [x(j, c) for j in range(2, i + 1)], x(n, c))
            coef = coef / (2.0 * h[i - 1])
            add(("advection", i), c, coef, (1, {i: 1}), (-1, {i: -1}))
        self._terms = tuple(terms)

    def _buffer(self, shape: tuple[int, ...]) -> np.ndarray:
        """Reusable stencil work array; spares the allocator on big grids.

        One operator instance must therefore not be shared by concurrent
        ``apply`` calls; component-grid solves each build their own.
        """
        if self._scratch is None:
            self._scratch = np.empty(self.shape.total_points)
        return self._scratch[: math.prod(shape)].reshape(shape)

    # -- operator application --------------------------------------------

    def apply(self, y: np.ndarray) -> np.ndarray:
        return self._sum_terms(self._terms, y)

    def apply_diffusion(self, i: int, y: np.ndarray) -> np.ndarray:
        """Only the direction-i diffusion block A_i applied to y."""
        self.shape.axis_of(i)  # rejects a direction outside 1..N
        return self._sum_terms([t for t in self._terms if t.kind == ("diffusion", i)], y)

    def _sum_terms(self, terms, y: np.ndarray) -> np.ndarray:
        v = self._as_view(y)
        out = np.zeros(self.shape.total_points)
        ov = out.reshape(self._rev)
        for term in terms:
            buf = self._buffer(term.shape)
            (_, first), (sign, second), *rest = term.inputs
            (np.add if sign > 0 else np.subtract)(v[first], v[second], out=buf)
            for sign, inp in rest:
                (np.add if sign > 0 else np.subtract)(buf, v[inp], out=buf)
            buf *= term.coef
            ov[term.out] += buf
        return out

    # -- directional resolvent -----------------------------------------

    def solve_directional(self, i: int, w: float, g: np.ndarray) -> np.ndarray:
        """Solve (I - w*A_i) K = g, one tridiagonal system per line.

        Frozen rows are identities, so K = g there.  Lines with equal
        coefficients share one factorisation: direction N has a single
        distinct line, a direction i < N one per V row.  The distinct
        lines are chained, uncoupled, into one tridiagonal system that
        LAPACK factors with partial pivoting once per (i, w); the factor
        is cached, and each call is one ``dgttrs`` solve whose
        right-hand-side columns are the repeats of that chain.
        """
        self.shape.axis_of(i)  # rejects a direction outside 1..N
        if not 0.0 <= w < math.inf:
            raise ValueError("directional solve needs a finite nonnegative shift")
        if self.check_rhs:
            self._assert_frozen_rows_zero(g)
        out = np.asarray(g, dtype=float).copy()
        if w == 0.0 or self._line_coefs[i - 1] is None:
            return out
        factor = self._factors.get((i, w))
        if factor is None:
            factor = self._factors[(i, w)] = self._build_factor(i, w)
        order, split = self._chains[i - 1]
        lines = out.reshape(self._rev)[self._interior].transpose(order)
        rows = math.prod(lines.shape[split:])
        # Fortran-ordered right-hand sides, so dgttrs solves them in place
        b = np.empty((lines.size // rows, factor[1].size))
        b[:, rows:] = 0.0  # the identity rows that pad a short chain
        b[:, :rows].reshape(lines.shape)[...] = lines
        x, info = lapack.dgttrs(*factor, b.T, overwrite_b=True)
        if info != 0:
            raise FloatingPointError(f"tridiagonal solve failed (info={info})")
        lines[...] = x.T[:, :rows].reshape(lines.shape)
        return out

    def lines_in_direction(self, i: int) -> int:
        return self.shape.line_count(i)

    def _build_factor(self, i: int, w: float) -> tuple[np.ndarray, ...]:
        """``dgttrf`` factors of the chained distinct lines of I - w*A_i."""
        order, split = self._chains[i - 1]
        m = self.shape.interior_counts[i - 1]
        counts = tuple(s.stop - s.start for s in self._interior)
        # w*d_i/h_i^2 with one row per distinct line
        coefs = np.broadcast_to(self._line_coefs[i - 1], counts).transpose(order)
        wd = w * coefs[(0,) * split].reshape(-1, m)
        # scipy's dgttrf needs three rows; a shorter chain gets identity rows
        size = max(wd.size, 3)
        d, low, up = np.ones(size), np.zeros(size), np.zeros(size)
        d_v, low_v, up_v = (a[: wd.size].reshape(wd.shape) for a in (d, low, up))
        d_v += 2.0 * wd
        # a row couples to its neighbours on the same line only
        low_v[:, 1:] = -wd[:, 1:]
        low_v[:, -1] *= 2.0  # the Neumann face mirrors its lower neighbour
        up_v[:, :-1] = -wd[:, :-1]
        *factor, info = lapack.dgttrf(
            low[1:], d, up[:-1], overwrite_dl=1, overwrite_d=1, overwrite_du=1
        )
        if info != 0:
            raise FloatingPointError(f"tridiagonal factorisation failed (info={info})")
        if not all(np.isfinite(a).all() for a in factor[:4]):
            raise FloatingPointError("non-finite tridiagonal factor")
        return tuple(factor)

    # -- plumbing --------------------------------------------------------

    def _as_view(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.shape.total_points,):
            raise ValueError(
                f"vector length {y.size} does not match grid ({self.shape.total_points} nodes)"
            )
        return y.reshape(self._rev)

    def _assert_frozen_rows_zero(self, g: np.ndarray) -> None:
        if self._outer_mask is None:
            self._outer_mask = ~self.shape.inner_mask()
        bad = np.flatnonzero(np.asarray(g)[self._outer_mask])
        if bad.size:
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

    Exact on grid nodes and on any function that is affine per direction.
    """
    shape = state.shape
    if len(point) != shape.ndim:
        raise ValueError(f"point needs {shape.ndim} coordinates")
    cells: list[int] = []
    weights: list[float] = []
    for r in range(1, shape.ndim + 1):
        x = float(point[r - 1])
        bound = shape.bounds[r - 1]
        if not 0.0 <= x <= bound:
            raise ValueError(f"coordinate {x} outside [0, {bound}]")
        t = x / shape.spacings[r - 1]
        cell = min(int(math.floor(t)), shape.interior_counts[r - 1] - 1)
        cells.append(cell)
        weights.append(t - cell)
    offsets = shape.offsets
    value = 0.0
    for corner in itertools.product((0, 1), repeat=shape.ndim):
        wgt = 1.0
        for bit, w in zip(corner, weights):
            wgt *= w if bit else 1.0 - w
        if wgt == 0.0:
            continue
        flat = sum((c + bit) * e for c, bit, e in zip(cells, corner, offsets))
        value += wgt * float(state.values[flat])
    return value


def dump_state(state: StateVector, path) -> None:
    """Write a state as CSV lines ``index,x_1,...,x_N,value`` for inspection."""
    shape = state.shape
    header = "index," + ",".join(f"x_{r}" for r in range(1, shape.ndim + 1)) + ",value"
    node_map = shape.node_map
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for flat in range(shape.total_points):
            coords = shape.coordinate(node_map.decode(flat))
            coord_txt = ",".join(f"{c:.17g}" for c in coords)
            fh.write(f"{flat},{coord_txt},{state.values[flat]:.17g}\n")
