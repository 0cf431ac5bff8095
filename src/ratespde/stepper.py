"""Time integration for the semi-discrete linear system Y' = F(Y).

The workhorse is a two-stage linearly implicit step whose stage systems
(I - theta*dt*W) K = rhs are never formed: W is chosen so that its
resolvent factors into the directional resolvents (I - nu*dt*A_i)^{-1},
applied twice per stage with an explicit correction in between,

    K^(0)    = dt*F(Y_n + A21*K_1) + Q21*K_1
    K^(i)    = (I - nu*dt*A_i)^{-1} K^(i-1),      i = 1..N
    Khat^(0) = 2 K^(0) - K^(N) + theta*dt*F(K^(N))
    Khat^(i) = (I - nu*dt*A_i)^{-1} Khat^(i-1),   i = 1..N
    K_r      = Khat^(N),

and Y_{n+1} = Y_n + B1*K_1 + B2*K_2.  A21, Q21, B1 and B2 are fixed
module constants; theta and nu are settable.  With theta = (3+sqrt(3))/6
the step is third-order accurate.  Per step this costs exactly four
right-hand-side evaluations and two sweeps of N directional solves per
stage (so 4N solves per step), which the counters below record.  Each
directional solve is one symmetric positive definite LAPACK tridiagonal
solve (see ``GridOperator.solve_directional``).  The stage and step
arithmetic runs in place, in arrays that the step made or that ``apply``
and the solves returned, one operation at a time in the order the
formulas above give, so the result is bitwise that of the plain
expressions; the inputs Y_n and K_1 are never written.

The explicit matrix assembly and the theta/Gauss-Seidel integrator that
the tests compare against live in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

THETA_ORDER3 = (3.0 + math.sqrt(3.0)) / 6.0

# Fixed coefficients of the two-stage method (see the module docstring).
A21 = 2.0 / 3.0
Q21 = -4.0 / 3.0
B1 = 1.25
B2 = 0.75


class SplitOperator(Protocol):
    """What the stepper needs from a spatial operator: the full right-hand
    side F(Y) and the directional resolvents (I - w*A_i)^{-1}; a step never
    applies a diffusion block A_i on its own.

    ``apply`` returns a new array, which the caller may overwrite; so
    does ``solve_directional``, and never ``g`` itself, because a stage
    reuses the input of a sweep after the sweep.
    """

    n_directions: int

    def apply(self, y: np.ndarray) -> np.ndarray: ...

    def solve_directional(self, i: int, w: float, g: np.ndarray) -> np.ndarray: ...

    def lines_in_direction(self, i: int) -> int: ...


@dataclass(frozen=True)
class AmfrW2Config:
    """The time-step count and the two settable method parameters.

    ``nu`` scales the directional resolvents; stability grows with it
    and the usual choice is proportional to the number of split
    directions, so ``None`` resolves to N*theta at integration time.
    """

    num_steps: int
    theta: float = THETA_ORDER3
    nu: float | None = None

    def __post_init__(self) -> None:
        try:
            operator.index(self.num_steps)
        except TypeError:
            raise ValueError(f"num_steps must be an integer, got {self.num_steps!r}") from None
        if self.num_steps < 1:
            raise ValueError("need at least one time step")
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if self.nu is not None and not 0.0 < self.nu < math.inf:
            raise ValueError("nu must be positive and finite when given")

    def resolved_nu(self, n_directions: int) -> float:
        return self.nu if self.nu is not None else n_directions * self.theta


@dataclass
class StepCounters:
    """Work accounting: right-hand-side evaluations and directional solves."""

    rhs_evals: int = 0
    directional_solves: int = 0
    tridiagonal_lines: int = 0


def _sweep(op: SplitOperator, w: float, x: np.ndarray, counters: StepCounters | None) -> np.ndarray:
    for i in range(1, op.n_directions + 1):
        x = op.solve_directional(i, w, x)
        if counters is not None:
            counters.directional_solves += 1
            counters.tridiagonal_lines += op.lines_in_direction(i)
    return x


def _ensure_finite(x: np.ndarray, where: str) -> None:
    if not np.isfinite(x).all():
        raise FloatingPointError(f"non-finite values in {where}")


def amfrw2_stage(
    op: SplitOperator,
    y_n: np.ndarray,
    stages: Sequence[np.ndarray],
    dt: float,
    config: AmfrW2Config,
    counters: StepCounters | None = None,
    *,
    checked: bool = True,
) -> np.ndarray:
    """One stage vector K_r; ``stages`` holds the previously computed ones.

    ``checked`` raises on a non-finite value, naming the stage part.
    """
    if len(stages) > 1:
        raise ValueError("the method has two stages")
    r = len(stages) + 1
    check = _ensure_finite if checked else lambda x, where: None
    w = config.resolved_nu(op.n_directions) * dt
    if stages:
        x = A21 * stages[0]
        x += y_n
        k0 = op.apply(x)
        k0 *= dt
        k0 += np.multiply(stages[0], Q21, x)
    else:
        k0 = op.apply(y_n)
        k0 *= dt
    if counters is not None:
        counters.rhs_evals += 1
    check(k0, f"stage {r}, explicit part")
    k_n = _sweep(op, w, k0, counters)
    check(k_n, f"stage {r}, first sweep")
    khat = op.apply(k_n)
    khat *= config.theta * dt
    k0 *= 2.0
    k0 -= k_n
    # K-hat, summed into k0 (x + y is y + x, bitwise) so that the second
    # sweep reuses the memory of k_n and of apply's output
    k0 += khat
    del khat, k_n
    if counters is not None:
        counters.rhs_evals += 1
    k = _sweep(op, w, k0, counters)
    check(k, f"stage {r}, second sweep")
    return k


def amfrw2_step(
    op: SplitOperator,
    y_n: np.ndarray,
    dt: float,
    config: AmfrW2Config,
    counters: StepCounters | None = None,
) -> np.ndarray:
    """Y_{n+1}, checked once: a NaN or inf in any stage reaches it through
    the linear updates, and a failing step is rerun with per-stage checks."""
    k1 = amfrw2_stage(op, y_n, (), dt, config, counters, checked=False)
    k2 = amfrw2_stage(op, y_n, (k1,), dt, config, counters, checked=False)
    y = k1
    y *= B1
    y += y_n
    k2 *= B2
    y += k2
    if not np.isfinite(y).all():
        k1 = amfrw2_stage(op, y_n, (), dt, config)
        amfrw2_stage(op, y_n, (k1,), dt, config)
        _ensure_finite(y, "the step update")
    return y


def integrate(
    op: SplitOperator,
    y0: np.ndarray,
    horizon: float,
    config: AmfrW2Config,
    counters: StepCounters | None = None,
) -> np.ndarray:
    """Advance y0 over [0, horizon] with uniform steps; returns the final state."""
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    dt = horizon / config.num_steps
    y = np.asarray(y0, dtype=float)
    for _ in range(config.num_steps):
        y = amfrw2_step(op, y, dt, config, counters)
    return y
