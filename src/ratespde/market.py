"""Market data, model coefficients, payoffs and closed-form references.

The pricing PDE lives on coordinates (F_1, ..., F_{N-1}, F_N) where the
first N-1 axes are consecutive forward LIBOR rates and the last axis is
the common stochastic-volatility state V.  A product selects a block of
forwards out of the tenor structure; "local" direction i maps to tenor
index a + i - 1 for a product exercising at T_a.

Everything here is a pure function of immutable inputs and accepts numpy
arrays wherever a rate appears, so the grid operator can broadcast the
same formulas over coordinate axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CAPLET = "caplet"
SWAPTION = "swaption"


@dataclass(frozen=True)
class MarketData:
    """Tenor structure, initial curve and model parameters.

    ``initial_forwards[i]`` is F_i(0), the rate fixed at T_i covering
    [T_i, T_{i+1}]; ``alphas`` and ``phis`` are indexed the same way.
    ``lam`` controls the inter-forward correlation exp(-lam*|T_i - T_j|)
    and ``beta`` the elasticity of variance.
    """

    tenor_dates: tuple[float, ...]
    initial_forwards: tuple[float, ...]
    alphas: tuple[float, ...]
    strike: float
    sigma: float
    phis: tuple[float, ...]
    lam: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenor_dates", tuple(float(t) for t in self.tenor_dates))
        object.__setattr__(self, "initial_forwards", tuple(float(f) for f in self.initial_forwards))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))
        for name in ("tenor_dates", "initial_forwards", "alphas", "phis", "strike", "sigma", "lam"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if len(self.tenor_dates) < 2:
            raise ValueError("need at least two tenor dates")
        if any(b - a <= 0.0 for a, b in zip(self.tenor_dates, self.tenor_dates[1:])):
            raise ValueError("tenor dates must be strictly increasing")
        n = self.n_forwards
        if not len(self.initial_forwards) == len(self.alphas) == len(self.phis):
            raise ValueError("initial_forwards, alphas and phis must align")
        if len(self.initial_forwards) > n:
            raise ValueError("more forwards than tenor gaps")
        if any(abs(p) > 1.0 for p in self.phis):
            raise ValueError("|phi_i| must not exceed 1")
        if self.lam < 0.0 or self.sigma < 0.0 or any(a < 0.0 for a in self.alphas):
            raise ValueError("lam, sigma and alphas must be nonnegative")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")

    @property
    def n_forwards(self) -> int:
        return len(self.tenor_dates) - 1

    @cached_property
    def taus(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.tenor_dates, self.tenor_dates[1:]))

    def correlation(self, i: int, j: int) -> float:
        """Inter-forward correlation exp(-lam*|T_i - T_j|); 1 on the diagonal."""
        self._check_forward(i)
        self._check_forward(j)
        return math.exp(-self.lam * abs(self.tenor_dates[i] - self.tenor_dates[j]))

    def discount_factor(self, j: int) -> float:
        """Zero-coupon price P(0, T_j) = prod_{k<j} 1/(1 + tau_k F_k(0))."""
        if j < 0 or j >= len(self.tenor_dates):
            raise IndexError(f"tenor index {j} out of range")
        out = 1.0
        for k in range(j):
            out /= 1.0 + self.taus[k] * self.initial_forwards[k]
        return out

    def _check_forward(self, i: int) -> None:
        if not 0 <= i < len(self.initial_forwards):
            raise IndexError(f"forward index {i} out of range")


@dataclass(frozen=True)
class ProductSpec:
    """A caplet on F_a paid at T_{a+1}, or a T_a x (T_b - T_a) swaption.

    The participating forwards are F_a, ..., F_{b-1}; together with the
    volatility state they set the PDE dimension b - a + 1.
    """

    kind: str
    expiry_index: int
    end_index: int

    def __post_init__(self) -> None:
        if self.kind not in (CAPLET, SWAPTION):
            raise ValueError(f"unknown product kind {self.kind!r}")
        if not 0 < self.expiry_index < self.end_index:
            raise ValueError("need 0 < expiry_index < end_index")
        if self.kind == CAPLET and self.end_index != self.expiry_index + 1:
            raise ValueError("a caplet covers exactly one forward")

    @property
    def n_forwards(self) -> int:
        return self.end_index - self.expiry_index

    @property
    def dimension(self) -> int:
        return self.n_forwards + 1

    def forward_indices(self) -> range:
        return range(self.expiry_index, self.end_index)

    def check_against(self, market: MarketData) -> None:
        if self.end_index > len(market.tenor_dates) - 1:
            raise ValueError("product references tenor dates beyond the structure")
        if self.end_index - 1 >= len(market.initial_forwards):
            raise ValueError("product references forwards without market data")


@dataclass(frozen=True)
class DomainSpec:
    """Truncated PDE box, integration horizon and evaluation point."""

    f_max: float
    v_max: float
    horizon: float
    eval_point: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(0.0 < x < math.inf for x in (self.f_max, self.v_max, self.horizon)):
            raise ValueError("f_max, v_max and horizon must be positive and finite")
        bounds = (self.f_max,) * (len(self.eval_point) - 1) + (self.v_max,)
        for x, b in zip(self.eval_point, bounds):
            if not 0.0 < x < b:
                raise ValueError(f"evaluation coordinate {x} not strictly inside (0, {b})")

    @classmethod
    def for_product(
        cls,
        market: MarketData,
        product: ProductSpec,
        f_max: float,
        v_max: float,
        v_eval: float = 1.0,
        eval_forwards: tuple[float, ...] | None = None,
    ) -> "DomainSpec":
        product.check_against(market)
        if eval_forwards is None:
            eval_forwards = tuple(market.initial_forwards[i] for i in product.forward_indices())
        if len(eval_forwards) != product.n_forwards:
            raise ValueError("eval_forwards length must match the product")
        horizon = market.tenor_dates[product.expiry_index]
        return cls(f_max, v_max, horizon, tuple(eval_forwards) + (float(v_eval),))

    def grid_bounds(self, dimension: int) -> tuple[float, ...]:
        return (self.f_max,) * (dimension - 1) + (self.v_max,)


def drift_weight(x, tau: float, beta: float):
    """The weight tau*x^beta / (1 + tau*x) entering the forward-rate drifts."""
    x = np.asarray(x, dtype=float)
    out = tau * x**beta / (1.0 + tau * x)
    return out if out.ndim else float(out)


class PdeModel:
    """Coefficient functions of the pricing PDE for one product.

    Local direction i in 1..N-1 is forward F_{a+i-1}; direction N is the
    volatility state.  All evaluators broadcast over numpy inputs.
    """

    def __init__(self, market: MarketData, product: ProductSpec):
        product.check_against(market)
        self.market = market
        self.product = product
        self.n_dims = product.dimension
        idx = list(product.forward_indices())
        self._alpha = [market.alphas[i] for i in idx]
        self._tau = [market.taus[i] for i in idx]
        self._phi = [market.phis[i] for i in idx]

    def alpha(self, i: int) -> float:
        return self._alpha[i - 1]

    def tau(self, i: int) -> float:
        return self._tau[i - 1]

    def phi(self, i: int) -> float:
        return self._phi[i - 1]

    def rho(self, i: int, j: int) -> float:
        a = self.product.expiry_index
        return self.market.correlation(a + i - 1, a + j - 1)

    def diffusion(self, i: int, f_i, v):
        """Second-derivative coefficient along direction i.

        d_i = alpha_i^2/2 * F_i^(2 beta) * V^2 for a forward direction and
        d_N = sigma^2/2 * V^2 for the volatility direction.
        """
        self._check_direction(i)
        if i == self.n_dims:
            out = 0.5 * self.market.sigma**2 * np.asarray(v, dtype=float) ** 2
            return out if out.ndim else float(out)
        beta = self.market.beta
        f_i = np.asarray(f_i, dtype=float)
        v = np.asarray(v, dtype=float)
        out = 0.5 * self.alpha(i) ** 2 * f_i ** (2.0 * beta) * v**2
        return out if out.ndim else float(out)

    def mixed(self, i: int, k: int, f_i, f_k, v):
        """Cross-derivative coefficient for directions i < k.

        m_ik = alpha_i alpha_k rho_ik F_i^beta F_k^beta V^2 between two
        forwards, and alpha_i sigma phi_i F_i^beta V^2 against volatility.
        """
        self._check_direction(i)
        self._check_direction(k)
        if not i < k:
            raise ValueError("mixed coefficient requires i < k")
        beta = self.market.beta
        f_i = np.asarray(f_i, dtype=float)
        v = np.asarray(v, dtype=float)
        if k == self.n_dims:
            out = self.alpha(i) * self.market.sigma * self.phi(i) * f_i**beta * v**2
        else:
            f_k = np.asarray(f_k, dtype=float)
            out = self.alpha(i) * self.alpha(k) * self.rho(i, k) * f_i**beta * f_k**beta * v**2
        return out if out.ndim else float(out)

    def advection(self, i: int, forwards, v):
        """First-derivative coefficient along direction i = 2..N-1.

        a_i = (sum_{j=2..i} alpha_i alpha_j rho_ij w(F_j, tau_j)) F_i^beta V^2
        with the drift weight w; ``forwards`` supplies F_2..F_i in order.
        """
        if self.n_dims < 3:
            raise ValueError("advection requires at least two forwards")
        if not 2 <= i <= self.n_dims - 1:
            raise ValueError(f"advection direction {i} outside 2..{self.n_dims - 1}")
        if len(forwards) != i - 1:
            raise ValueError(f"expected forwards F_2..F_{i}, got {len(forwards)} values")
        beta = self.market.beta
        v = np.asarray(v, dtype=float)
        f_i = np.asarray(forwards[-1], dtype=float)
        acc = 0.0
        for j in range(2, i + 1):
            w = drift_weight(forwards[j - 2], self.tau(j), beta)
            acc = acc + self.alpha(i) * self.alpha(j) * self.rho(i, j) * w
        out = acc * f_i**beta * v**2
        out = np.asarray(out)
        return out if out.ndim else float(out)

    def _check_direction(self, i: int) -> None:
        if not 1 <= i <= self.n_dims:
            raise ValueError(f"direction {i} outside 1..{self.n_dims}")


def payoff(market: MarketData, product: ProductSpec, forwards):
    """Exercise value as a function of the participating forwards.

    ``forwards`` is a sequence of N-1 broadcastable values, local order.
    A caplet pays tau_a (F_a - K)^+ in units of the T_{a+1} bond; the
    swaption pays the positive part of the swap annuity sum

        sum_i tau_i (F_i - K) / prod_{l<=i} (1 + tau_l F_l).
    """
    product.check_against(market)
    if len(forwards) != product.n_forwards:
        raise ValueError("payoff needs one value per participating forward")
    strike = market.strike
    taus = [market.taus[i] for i in product.forward_indices()]
    if product.kind == CAPLET:
        f = np.asarray(forwards[0], dtype=float)
        out = taus[0] * np.maximum(f - strike, 0.0)
        return out if out.ndim else float(out)
    annuity = 1.0
    acc = 0.0
    for tau, f in zip(taus, forwards):
        f = np.asarray(f, dtype=float)
        annuity = annuity * (1.0 + tau * f)
        acc = acc + tau * (f - strike) / annuity
    out = np.maximum(acc, 0.0)
    return out if out.ndim else float(out)


def product_discount(market: MarketData, product: ProductSpec) -> float:
    """Bond price converting the PDE solution into a time-0 price.

    Caplet values are quoted per unit of the T_{a+1} bond (the payoff is
    paid at T_{a+1}); swaption values per unit of the T_a bond.
    """
    if product.kind == CAPLET:
        return market.discount_factor(product.expiry_index + 1)
    return market.discount_factor(product.expiry_index)


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_caplet_price(market: MarketData, expiry_index: int = 1) -> float:
    """Lognormal closed-form caplet price in basis points.

    Valid as a reference only in the deterministic-volatility regime
    (sigma = 0, V frozen at 1), where F_a is lognormal with volatility
    alpha_a:  price = 1e4 * P(0,T_{a+1}) * tau_a * (F N(d1) - K N(d2)).
    """
    a = expiry_index
    market._check_forward(a)
    f = market.initial_forwards[a]
    strike = market.strike
    alpha = market.alphas[a]
    expiry = market.tenor_dates[a]
    if f <= 0.0 or strike <= 0.0:
        raise ValueError("Black formula needs positive forward and strike")
    if alpha <= 0.0:
        raise ValueError("Black formula needs positive volatility")
    stdev = alpha * math.sqrt(expiry)
    d1 = (math.log(f / strike) + 0.5 * stdev**2) / stdev
    d2 = d1 - stdev
    undiscounted = f * _normal_cdf(d1) - strike * _normal_cdf(d2)
    return 1.0e4 * market.discount_factor(a + 1) * market.taus[a] * undiscounted


def validate_domain(market: MarketData, domain: DomainSpec, product: ProductSpec) -> list[str]:
    """Check the truncated domain against the outflow-boundary conditions.

    For beta in (0, 1] the upper boundaries are provably outflow when
    tau_i F^max <= beta/(2-beta) for the interior forwards and
    tau_last F^max <= beta/(1-beta) for the last one (the latter holds
    automatically at beta = 1 and both are vacuous at beta = 0).  Returns
    the violated conditions; advisory only, pricing proceeds regardless.
    """
    beta = market.beta
    if beta == 0.0:
        return []
    idx = product.forward_indices()
    interior, last = idx[1:-1], idx[-1]
    violations = []
    bound = beta / (2.0 - beta)
    for i in interior:
        lhs = market.taus[i] * domain.f_max
        if lhs > bound:
            violations.append(
                f"tau_{i}*F_max = {lhs:.6g} exceeds beta/(2-beta) = {bound:.6g}"
            )
    if beta < 1.0:
        bound_last = beta / (1.0 - beta)
        lhs = market.taus[last] * domain.f_max
        if lhs > bound_last:
            violations.append(
                f"tau_{last}*F_max = {lhs:.6g} exceeds beta/(1-beta) = {bound_last:.6g}"
            )
    return violations
