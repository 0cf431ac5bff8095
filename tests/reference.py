"""Reference implementations that tests compare the engine against.

None is on the pricing path.  They live next to the tests, outside
the ``ratespde`` package, so ``import ratespde`` loads neither them nor
``scipy.sparse``:

* ``inner_mask`` marks a grid's active nodes from its shape alone;
* ``assemble_operator_matrix`` / ``assemble_directional_matrix`` build
  the operator, or one diffusion block A_i, entry by entry with plain
  loops over the stencil rules, independently of the compiled program behind
  ``GridOperator.apply``;
* ``ThetaGsIntegrator`` is a theta-method driven by a fixed number of
  Gauss-Seidel sweeps, a second-order reference integrator that works on
  the assembled matrix and is gated to small grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ratespde.errors import GridTooLargeError


def _assemble(op, node_cap: int | None, directions, coupling: bool) -> sp.csr_matrix:
    shape = op.shape
    model = op.model
    if node_cap is not None and shape.total_points > node_cap:
        raise GridTooLargeError(shape.total_points, node_cap)
    n = shape.ndim
    counts = shape.interior_counts
    h = shape.spacings
    offs = shape.offsets
    node_map = shape.node_map
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def add(r: int, c: int, v: float) -> None:
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for flat in range(shape.total_points):
        j = node_map.decode(flat)
        if any(c == 0 for c in j):
            continue
        x = shape.coordinate(j)
        v_state = x[n - 1]
        for i in directions:
            d = model.diffusion(i, x[i - 1], v_state)
            if d == 0.0:
                continue
            scale = d / h[i - 1] ** 2
            e = offs[i - 1]
            if j[i - 1] != counts[i - 1]:
                add(flat, flat + e, scale)
                add(flat, flat, -2.0 * scale)
                add(flat, flat - e, scale)
            else:
                add(flat, flat - e, 2.0 * scale)
                add(flat, flat, -2.0 * scale)
        if not coupling:
            continue
        for i in range(1, n):
            for k in range(i + 1, n + 1):
                if j[i - 1] == counts[i - 1] or j[k - 1] == counts[k - 1]:
                    continue
                m = model.mixed(i, k, x[i - 1], x[k - 1], v_state)
                if m == 0.0:
                    continue
                scale = m / (4.0 * h[i - 1] * h[k - 1])
                ei, ek = offs[i - 1], offs[k - 1]
                add(flat, flat + ei + ek, scale)
                add(flat, flat - ei - ek, scale)
                add(flat, flat + ei - ek, -scale)
                add(flat, flat - ei + ek, -scale)
        for i in range(2, n):
            if j[i - 1] == counts[i - 1]:
                continue
            a = model.advection(i, [x[r - 1] for r in range(2, i + 1)], v_state)
            if a == 0.0:
                continue
            scale = a / (2.0 * h[i - 1])
            e = offs[i - 1]
            add(flat, flat + e, scale)
            add(flat, flat - e, -scale)

    size = shape.total_points
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


def inner_mask(shape) -> np.ndarray:
    """Boolean flat mask of the active nodes; True count equals interior_points."""
    mask = np.zeros(shape.reversed_points, dtype=bool)
    mask[(slice(1, None),) * shape.ndim] = True
    return mask.reshape(-1)


def assemble_operator_matrix(op, node_cap: int | None = 200_000) -> sp.csr_matrix:
    """The full operator as an explicit sparse matrix (frozen rows are zero).

    Assembled entry by entry with plain loops over the stencil rules, so
    it doubles as an independent cross-check of the vectorized ``apply``.
    """
    return _assemble(op, node_cap, range(1, op.shape.ndim + 1), True)


def assemble_directional_matrix(op, i: int, node_cap: int | None = 200_000) -> sp.csr_matrix:
    """The single diffusion block A_i as an explicit sparse matrix."""
    return _assemble(op, node_cap, (i,), False)


@dataclass(frozen=True)
class ThetaGsConfig:
    """theta-method with ``sweeps`` Gauss-Seidel iterations per step.

    Second order in time for theta = 1/2 and at least two sweeps.  The
    triangular solves act on the full flat vector, so the scheme is kept
    behind a node cap.
    """

    num_steps: int
    theta: float = 0.5
    sweeps: int = 3
    node_cap: int = 120_000

    def __post_init__(self) -> None:
        if self.num_steps < 1:
            raise ValueError("need at least one time step")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.sweeps < 1:
            raise ValueError("need at least one sweep")


class ThetaGsIntegrator:
    """Reference integrator: assembled operator, lower-triangular splits.

    Each step computes W_{n+1} = W_n + sum_r Khat_r where

        (I - theta*dt*P) Khat_r = dt*A*(W_n + theta*sum_{j<r} Khat_j)
                                  - sum_{j<r} Khat_j

    and P is the lower-triangular part of A including its diagonal.  As
    sweeps grow the iterates converge to the exact theta-method update.
    """

    def __init__(self, op, horizon: float, config: ThetaGsConfig):
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        self.config = config
        self.dt = horizon / config.num_steps
        self.matrix = assemble_operator_matrix(op, config.node_cap)
        if config.theta != 0.0:
            lower = sp.tril(self.matrix, k=0, format="csc")
            system = sp.identity(self.matrix.shape[0], format="csc") - (
                config.theta * self.dt
            ) * lower
            self._factor = splu(system.tocsc(), permc_spec="NATURAL")
        else:
            self._factor = None

    def step(self, w_n: np.ndarray) -> np.ndarray:
        cfg = self.config
        fw = self.dt * (self.matrix @ w_n)
        acc = np.zeros_like(fw)
        for _ in range(cfg.sweeps):
            b = fw + (cfg.theta * self.dt) * (self.matrix @ acc) - acc
            k = self._factor.solve(b) if self._factor is not None else b
            acc = acc + k
        return w_n + acc

    def run(self, y0: np.ndarray) -> np.ndarray:
        y = np.asarray(y0, dtype=float)
        for _ in range(self.config.num_steps):
            y = self.step(y)
        return y
