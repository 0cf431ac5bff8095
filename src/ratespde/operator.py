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
rows, signed input views, scaled coefficient array).  A term that spans
every node of its outer-axis rows (all but the Neumann faces of the
inner axes) runs on contiguous slabs of a padded copy of the input; its
coefficient is zero outside its box.  Each directional solve scales the
direction's distinct lines, chained into one system, to a symmetric
positive definite tridiagonal matrix and makes one LAPACK solve.
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
    """One stencil piece: view[out] += coef * (in_1 +- in_2 +- ...).

    The inputs are views of the operator's padded copy of y, summed left
    to right with their signs, the first one positive; ``coef`` already
    carries the 1/h^2, 1/(2h) or 1/(4 h_i h_k) scale and broadcasts over
    ``buf``, the slice of the work array that holds the sum.
    """

    kind: tuple  # ("diffusion", i), ("mixed", i, k) or ("advection", i)
    out: tuple[slice, ...]
    inputs: tuple[tuple[int, np.ndarray], ...]
    coef: np.ndarray
    buf: np.ndarray


class GridOperator:
    """Semi-discrete right-hand side F(Y) and its directional resolvents.

    The discretisation is time independent, so the constructor compiles
    it once into a term table: per term its kind, output rows, signed
    input views and scaled coefficient array.  ``apply`` sums every term
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
        # Work arrays reused by every call: an instance must not serve
        # concurrent ``apply`` calls.  Shifts along the inner axes reach at
        # most ``pad`` nodes past either end of the padded copy of y.
        rev = self._rev
        strides = [math.prod(rev[a + 1 :]) for a in range(len(rev))]
        pad = sum(strides[1:])
        self._padded = np.zeros(shape.total_points + 2 * pad)
        self._y = self._padded[pad : pad + shape.total_points].reshape(rev)
        scratch = np.empty(shape.total_points)

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
            views = []
            if all(sl.start == 1 for sl in out[1:]):
                # a slab: the box's outer-axis rows times every inner node,
                # so each input is one contiguous run of the padded copy
                lo, hi = out[0].start * strides[0], out[0].stop * strides[0]
                shp = (out[0].stop - out[0].start,) + rev[1:]
                for sign, moves in inputs:
                    at = pad + sum(s * strides[n - r] for r, s in moves.items())
                    views.append((sign, self._padded[lo + at : hi + at].reshape(shp)))
                # the coefficient is zero outside the box on the inner axes,
                # except where it is constant and the box reaches the top face
                keep = [a == 0 or (coef.shape[a] == 1 and out[a].stop == rev[a]) for a in range(n)]
                padded = np.zeros([coef.shape[a] if k else rev[a] for a, k in enumerate(keep)])
                padded[tuple(slice(None) if k else sl for sl, k in zip(out, keep))] = coef
                coef, out = padded, out[:1]
            else:  # a Neumann face of an inner axis keeps its box
                for sign, moves in inputs:
                    sl = list(out)
                    for r, s in moves.items():
                        sl[n - r] = slice(out[n - r].start + s, out[n - r].stop + s)
                    views.append((sign, self._y[tuple(sl)]))
                shp = tuple(sl.stop - sl.start for sl in out)
            buf = scratch[: math.prod(shp)].reshape(shp)
            terms.append(_Term(kind, out, tuple(views), coef, buf))

        self._interior = box({})
        # axis order of the interior view that solve_directional chains
        # direction i along: right-hand-side columns first, then the V row
        # (i < N only) and the line itself; split counts the column axes
        self._chains = []
        for i in range(1, n + 1):
            chain = (0,) if i == n else (0, n - i)
            cols = tuple(a for a in range(n) if a not in chain)
            self._chains.append((cols + chain, len(cols)))
        for i in range(1, n + 1):
            m = counts[i - 1]
            # d_i/h_i^2 over rows 1..M_i; _build_factor reads it back from the terms
            d = model.diffusion(i, x(i, self._interior), x(n, self._interior)) / h[i - 1] ** 2
            if not np.any(d):
                continue
            if d.min() < np.finfo(float).tiny:  # the solve divides each row by it
                raise ValueError(f"diffusion coefficient of direction {i} underflows on some rows")
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
        self._diffusive = {t.kind[1] for t in terms if t.kind[0] == "diffusion"}

    # -- operator application --------------------------------------------

    def apply(self, y: np.ndarray) -> np.ndarray:
        return self._sum_terms(self._terms, y)

    def apply_diffusion(self, i: int, y: np.ndarray) -> np.ndarray:
        """Only the direction-i diffusion block A_i applied to y."""
        self.shape.axis_of(i)  # rejects a direction outside 1..N
        return self._sum_terms([t for t in self._terms if t.kind == ("diffusion", i)], y)

    def _sum_terms(self, terms, y: np.ndarray) -> np.ndarray:
        self._y[...] = self._as_view(y)
        out = np.zeros(self.shape.total_points)
        ov = out.reshape(self._rev)
        for term in terms:
            buf = term.buf
            (_, first), (sign, second), *rest = term.inputs
            (np.add if sign > 0 else np.subtract)(first, second, out=buf)
            for sign, inp in rest:
                (np.add if sign > 0 else np.subtract)(buf, inp, out=buf)
            buf *= term.coef
            ov[term.out] += buf
        # slabs also wrote the frozen lower faces of the inner axes
        for a in range(1, self.n_directions):
            ov[(slice(None),) * a + (0,)] = 0.0
        return out

    # -- directional resolvent -----------------------------------------

    def solve_directional(self, i: int, w: float, g: np.ndarray) -> np.ndarray:
        """Solve (I - w*A_i) K = g, one tridiagonal system per line.

        Frozen rows are identities, so K = g there.  Lines with equal
        coefficients share one factorisation: direction N has a single
        distinct line, a direction i < N one per V row.  The distinct
        lines are chained, uncoupled, into one tridiagonal system, scaled
        row by row to be symmetric positive definite and factored once per
        (i, w).  Each call scales g's rows as it copies them out and makes
        one ``dpttrs`` solve whose columns are the repeats of that chain.
        """
        self.shape.axis_of(i)  # rejects a direction outside 1..N
        if not 0.0 <= w < math.inf:
            raise ValueError("directional solve needs a finite nonnegative shift")
        if self.check_rhs:
            self._assert_frozen_rows_zero(g)
        out = np.asarray(g, dtype=float).copy()
        if w == 0.0 or i not in self._diffusive:
            return out
        factor = self._factors.get((i, w))
        if factor is None:
            factor = self._factors[(i, w)] = self._build_factor(i, w)
        d, e, s = factor
        order, _ = self._chains[i - 1]
        lines = out.reshape(self._rev)[self._interior].transpose(order)
        # Fortran-ordered right-hand sides, so dpttrs solves them in place
        b = np.empty((lines.size // s.size, s.size))
        np.multiply(lines, s, out=b.reshape(lines.shape))
        x, info = lapack.dpttrs(d, e, b.T, overwrite_b=True)
        if info != 0:
            raise FloatingPointError(f"tridiagonal solve failed (info={info})")
        lines[...] = x.T.reshape(lines.shape)
        return out

    def lines_in_direction(self, i: int) -> int:
        return self.shape.line_count(i)

    def _build_factor(self, i: int, w: float) -> tuple[np.ndarray, ...]:
        """``dpttrf`` factor of the chained distinct lines of I - w*A_i, and row scales s.

        Row j, (1 + 2wd_j) x_j - wd_j (x_{j-1} + x_{j+1}), times s_j = 1/(w d_j)
        has diagonal 2 + s_j and off-diagonals -1; the Neumann row (-2wd_M on
        its lower neighbour) times s_M = 1/(2w d_M) has diagonal 1 + s_M.
        """
        order, split = self._chains[i - 1]
        m = self.shape.interior_counts[i - 1]
        counts = tuple(sl.stop - sl.start for sl in self._interior)
        # d_i/h_i^2 on rows 1..M: the interior term's coefficient (on an inner
        # axis padded by one zero at either end), then the halved Neumann face
        axis = self.n_directions - i
        *inner, face = (t.coef for t in self._terms if t.kind == ("diffusion", i))
        rows = [c[(slice(None),) * axis + (slice(1, m),)] if axis else c for c in inner]
        line = np.concatenate(rows + [0.5 * face], axis=axis)
        # one row per distinct line, in the chain's axis order
        coefs = np.broadcast_to(line, counts).transpose(order)
        s = 1.0 / (w * coefs[(0,) * split])
        s[..., -1] *= 0.5
        diag = s + 2.0
        diag[..., -1] = s[..., -1] + 1.0
        # scipy's dpttrf wants one off-diagonal entry even for a single row
        e = np.full(max(s.size - 1, 1), -1.0)
        e[m - 1 :: m] = 0.0  # a row couples to its neighbours on the same line only
        d, e, info = lapack.dpttrf(diag.reshape(-1), e, overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise FloatingPointError(f"tridiagonal factorisation failed (info={info})")
        if not all(np.isfinite(a).all() for a in (d, e, s)):
            raise FloatingPointError("non-finite tridiagonal factor")
        return d, e, s

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
