import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratespde import (
    CAPLET,
    SWAPTION,
    DomainSpec,
    MarketData,
    PdeModel,
    ProductSpec,
    black_caplet_price,
    drift_weight,
    product_discount,
    validate_domain,
)

from conftest import make_market

MARKET_KWARGS = dict(
    tenor_dates=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
    initial_forwards=(0.0112, 0.0118, 0.0122, 0.0126, 0.0130, 0.0135),
    alphas=(0.0, 0.2366, 0.2145, 0.2221, 0.2068, 0.1932),
    strike=0.011,
    sigma=0.0,
    phis=(0.0,) * 6,
    lam=0.1,
    beta=1.0,
)


class TestMarketData:
    def test_taus_constant_half_year(self, market_flat):
        assert market_flat.taus == (0.5,) * 10

    def test_correlation_diagonal(self, market_flat):
        assert market_flat.correlation(1, 1) == 1.0

    def test_correlation_worked_example(self, market_flat):
        # lam=0.1, |T_1 - T_2| = 0.5
        assert market_flat.correlation(1, 2) == pytest.approx(math.exp(-0.05), rel=1e-15)
        assert market_flat.correlation(1, 2) == pytest.approx(0.9512294, abs=5e-8)

    @given(st.floats(0.0, 10.0), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_correlation_symmetric_unit_diagonal(self, lam, i, j):
        market = make_market(lam=lam)
        assert market.correlation(i, j) == market.correlation(j, i)
        assert market.correlation(i, i) == 1.0
        assert 0.0 < market.correlation(i, j) <= 1.0

    def test_correlation_index_checked(self, market_flat):
        with pytest.raises(IndexError):
            market_flat.correlation(0, 6)

    def test_discount_factor_empty_product(self, market_flat):
        assert market_flat.discount_factor(0) == 1.0

    def test_discount_factor_worked_example(self, market_flat):
        expected = 1.0 / ((1 + 0.5 * 0.0112) * (1 + 0.5 * 0.0118))
        assert market_flat.discount_factor(2) == pytest.approx(expected, rel=1e-15)
        assert market_flat.discount_factor(2) == pytest.approx(0.9886, abs=5e-5)

    def test_discount_factor_monotone(self, market_flat):
        factors = [market_flat.discount_factor(j) for j in range(7)]
        assert all(b < a for a, b in zip(factors, factors[1:]))

    @pytest.mark.parametrize(
        "patch",
        [
            dict(tenor_dates=(0.0, 0.5, 0.5)),
            dict(phis=(1.5, 0.0, 0.0, 0.0, 0.0, 0.0)),
            dict(lam=-0.1),
            dict(sigma=-0.3),
            dict(beta=1.2),
            dict(alphas=(-1.0, 0.2, 0.2, 0.2, 0.2, 0.2)),
        ],
    )
    def test_invariants_rejected(self, patch):
        base = dict(MARKET_KWARGS, **patch)
        with pytest.raises(ValueError):
            MarketData(**base)

    @pytest.mark.parametrize(
        "patch",
        [
            dict(tenor_dates=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, math.inf)),
            dict(tenor_dates=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, math.nan)),
            dict(initial_forwards=(0.0112, math.nan, 0.0122, 0.0126, 0.0130, 0.0135)),
            dict(alphas=(0.0, 0.2366, math.nan, 0.2221, 0.2068, 0.1932)),
            dict(alphas=(0.0, 0.2366, math.inf, 0.2221, 0.2068, 0.1932)),
            dict(phis=(0.0, math.nan, 0.0, 0.0, 0.0, 0.0)),
            dict(strike=math.nan),
            dict(sigma=math.nan),
            dict(sigma=math.inf),
            dict(lam=math.nan),
            dict(lam=math.inf),
        ],
    )
    def test_nonfinite_rejected(self, patch):
        base = dict(MARKET_KWARGS, **patch)
        (name,) = patch
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MarketData(**base)

    # each call, on the flat market, and the error that names its fault
    @pytest.mark.parametrize("call, error, cause", [
        (lambda m: MarketData(**dict(MARKET_KWARGS, tenor_dates=(0.0,))), ValueError,
         "at least two tenor dates"),
        (lambda m: MarketData(**dict(MARKET_KWARGS, alphas=(0.0, 0.2))), ValueError, "must align"),
        (lambda m: MarketData(**dict(MARKET_KWARGS, tenor_dates=(0.0, 0.5))), ValueError,
         "more forwards than tenor gaps"),
        (lambda m: m.discount_factor(11), IndexError, "tenor index 11 out of range"),
        (lambda m: ProductSpec(SWAPTION, 9, 11).check_against(m), ValueError,
         "beyond the structure"),
        (lambda m: DomainSpec.for_product(m, ProductSpec(CAPLET, 1, 2), 0.04, 3.5,
                                          eval_forwards=(0.01, 0.02)), ValueError,
         "eval_forwards length"),
        (lambda m: PdeModel(m, ProductSpec(SWAPTION, 1, 3)).advection(1, (0.01, 0.01, 1.0)),
         ValueError, r"advection direction 1 outside 2\.\.2"),
        (lambda m: PdeModel(m, ProductSpec(SWAPTION, 1, 3)).mixed(0, 2, (0.01, 0.01, 1.0)),
         ValueError, r"direction 0 outside 1\.\.3"),
        # a point has one coordinate per direction, V included
        (lambda m: PdeModel(m, ProductSpec(CAPLET, 1, 2)).diffusion(1, (0.01,)), ValueError,
         "a point has 2 coordinates, got 1"),
        (lambda m: PdeModel(m, ProductSpec(SWAPTION, 1, 3)).mixed(1, 2, (0.01, 0.01, 0.01, 1.0)),
         ValueError, "a point has 3 coordinates, got 4"),
        (lambda m: PdeModel(m, ProductSpec(SWAPTION, 1, 3)).advection(2, (0.01, 1.0)), ValueError,
         "expected forwards F_1..F_2 and V, one value per direction: a point has 3 coordinates, got 2"),
        (lambda m: PdeModel(m, ProductSpec(CAPLET, 1, 2)).payoff((0.01, 0.02, 1.0)), ValueError,
         "one value per direction: a point has 2 coordinates, got 3"),
    ])
    def test_bad_call_rejected_with_cause(self, market_flat, call, error, cause):
        with pytest.raises(error, match=cause):
            call(market_flat)


class TestProductSpec:
    def test_caplet_shape(self, caplet):
        assert caplet.n_forwards == 1
        assert caplet.dimension == 2
        assert list(caplet.forward_indices()) == [1]

    def test_swaption_shape(self, swaption3):
        assert swaption3.n_forwards == 2
        assert swaption3.dimension == 3
        assert list(swaption3.forward_indices()) == [1, 2]

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            ProductSpec(CAPLET, 0, 1)
        with pytest.raises(ValueError):
            ProductSpec(SWAPTION, 3, 3)
        with pytest.raises(ValueError):
            ProductSpec(CAPLET, 1, 3)
        with pytest.raises(ValueError):
            ProductSpec("swap", 1, 3)

    def test_check_against_market(self, market_flat):
        ProductSpec(SWAPTION, 1, 6).check_against(market_flat)
        with pytest.raises(ValueError):
            ProductSpec(SWAPTION, 1, 7).check_against(market_flat)


class TestCoefficients:
    def test_diffusion_zero_forward(self, market_sv):
        model = PdeModel(market_sv, ProductSpec(CAPLET, 1, 2))
        assert model.diffusion(1, (0.0, 1.0)) == 0.0

    def test_diffusion_vol_direction(self, market_sv, caplet):
        model = PdeModel(market_sv, caplet)
        assert model.diffusion(2, (0.0118, 1.0)) == pytest.approx(0.045, rel=1e-14)

    def test_diffusion_worked_example(self, market_sv, caplet):
        model = PdeModel(market_sv, caplet)
        expected = 0.5 * 0.2366**2 * 0.0118**2
        assert model.diffusion(1, (0.0118, 1.0)) == pytest.approx(expected, rel=1e-14)

    def test_diffusion_vanishes_with_vol_state(self, market_sv, swaption3):
        model = PdeModel(market_sv, swaption3)
        for i in (1, 2, 3):
            assert model.diffusion(i, (0.02, 0.02, 0.0)) == 0.0

    def test_mixed_zero_volofvol(self, market_flat, caplet):
        model = PdeModel(market_flat, caplet)
        assert model.mixed(1, 2, (0.0118, 1.0)) == 0.0

    def test_mixed_against_vol_worked_example(self, market_sv, caplet):
        model = PdeModel(market_sv, caplet)
        expected = 0.2366 * 0.3 * 0.4 * 0.0118
        assert model.mixed(1, 2, (0.0118, 1.0)) == pytest.approx(expected, rel=1e-14)

    def test_mixed_between_forwards(self, market_sv, swaption3):
        model = PdeModel(market_sv, swaption3)
        expected = 0.2366 * 0.2145 * math.exp(-0.05) * 0.0118 * 0.0122
        assert model.mixed(1, 2, (0.0118, 0.0122, 1.0)) == pytest.approx(expected, rel=1e-14)
        assert model.mixed(1, 2, (0.0, 0.0, 1.0)) == 0.0

    def test_mixed_requires_ordered_directions(self, market_sv, swaption3):
        model = PdeModel(market_sv, swaption3)
        with pytest.raises(ValueError):
            model.mixed(2, 1, (0.01, 0.01, 1.0))

    def test_advection_zero_vol_state(self, market_sv, swaption3):
        model = PdeModel(market_sv, swaption3)
        assert model.advection(2, (0.0118, 0.0122, 0.0)) == 0.0

    def test_advection_zero_forward(self, market_sv, swaption3):
        model = PdeModel(market_sv, swaption3)
        assert model.advection(2, (0.0118, 0.0, 1.0)) == 0.0

    def test_advection_worked_example(self, market_sv, swaption3):
        # direction 2 of the 0.5x1 swaption is the tenor-2 forward
        model = PdeModel(market_sv, swaption3)
        expected = 0.2145**2 * (0.5 * 0.0122 / (1 + 0.5 * 0.0122)) * 0.0122
        assert model.advection(2, (0.0118, 0.0122, 1.0)) == pytest.approx(expected, rel=1e-14)

    def test_advection_needs_enough_directions(self, market_sv, caplet):
        model = PdeModel(market_sv, caplet)
        with pytest.raises(ValueError):
            model.advection(2, (0.0122, 1.0))

    def test_drift_weight_formula(self):
        assert drift_weight(0.0122, 0.5, 1.0) == pytest.approx(
            0.5 * 0.0122 / (1 + 0.5 * 0.0122), rel=1e-15
        )
        assert drift_weight(0.0, 0.5, 1.0) == 0.0
        # beta = 0 keeps a nonzero weight at zero rate
        assert drift_weight(0.0, 0.5, 0.0) == pytest.approx(0.5)

    def test_local_indexing_offsets_by_expiry(self, market_sv):
        # the 1 x 1.5 swaption starts at tenor 2, so direction 1 is alpha_2
        model = PdeModel(market_sv, ProductSpec(SWAPTION, 2, 5))
        assert model.alpha(1) == 0.2145
        assert model.tau(2) == 0.5
        assert model.rho(1, 3) == pytest.approx(math.exp(-0.1 * 1.0), rel=1e-15)


class TestPayoff:
    def test_caplet_at_the_money(self, market_flat, caplet):
        assert PdeModel(market_flat, caplet).payoff((0.011, 1.0)) == 0.0

    def test_caplet_worked_example(self, market_flat, caplet):
        assert PdeModel(market_flat, caplet).payoff((0.0118, 1.0)) == pytest.approx(0.0004, rel=1e-12)

    def test_caplet_never_negative(self, market_flat, caplet):
        rates = np.linspace(0.0, 0.04, 101)
        values = PdeModel(market_flat, caplet).payoff((rates, 1.0))
        assert values.min() == 0.0
        assert np.all(values >= 0.0)

    def test_swaption_at_strike_everywhere(self, market_sv, swaption3):
        assert PdeModel(market_sv, swaption3).payoff((0.011, 0.011, 1.0)) == 0.0

    def test_swaption_zero_rates_clipped(self, market_sv, swaption3):
        assert PdeModel(market_sv, swaption3).payoff((0.0, 0.0, 1.0)) == 0.0

    def test_swaption_annuity_sum(self, market_sv, swaption3):
        f1, f2 = 0.02, 0.03
        p1 = 1 + 0.5 * f1
        p2 = p1 * (1 + 0.5 * f2)
        expected = 0.5 * (f1 - 0.011) / p1 + 0.5 * (f2 - 0.011) / p2
        assert PdeModel(market_sv, swaption3).payoff((f1, f2, 1.0)) == pytest.approx(expected, rel=1e-14)

    def test_product_discount_conventions(self, market_flat, caplet, swaption3):
        assert product_discount(market_flat, caplet) == market_flat.discount_factor(2)
        assert product_discount(market_flat, swaption3) == market_flat.discount_factor(1)


class TestBlackCaplet:
    def test_published_value(self, market_flat):
        assert black_caplet_price(market_flat, 1) == pytest.approx(6.058877, abs=5e-6)

    def test_deep_in_the_money_limit(self, market_flat):
        market = make_market()
        tiny = MarketData(
            market.tenor_dates,
            market.initial_forwards,
            market.alphas,
            1e-12,
            0.0,
            market.phis,
            market.lam,
            market.beta,
        )
        expected = 1e4 * tiny.discount_factor(2) * 0.5 * 0.0118
        assert black_caplet_price(tiny, 1) == pytest.approx(expected, rel=1e-9)

    def test_zero_volatility_limit_is_intrinsic(self):
        market = MarketData(
            tenor_dates=(0.0, 0.5, 1.0),
            initial_forwards=(0.0112, 0.0118),
            alphas=(0.0, 1e-9),
            strike=0.011,
            sigma=0.0,
            phis=(0.0, 0.0),
            lam=0.1,
            beta=1.0,
        )
        expected = 1e4 * market.discount_factor(2) * 0.5 * (0.0118 - 0.011)
        assert black_caplet_price(market, 1) == pytest.approx(expected, rel=1e-9)

    def test_rejects_degenerate_inputs(self, market_flat):
        bad = make_market()
        with pytest.raises(ValueError):
            black_caplet_price(bad, 0)  # alpha_0 = 0


class TestValidateDomain:
    def test_lognormal_market_clean(self, market_flat, caplet):
        domain = DomainSpec.for_product(market_flat, caplet, 0.04, 3.5)
        assert validate_domain(market_flat, domain, caplet) == []

    def test_beta_one_second_condition_never_reported(self, swaption3):
        market = make_market(beta=1.0)
        domain = DomainSpec.for_product(market, swaption3, 0.04, 3.5, eval_forwards=(0.0118, 0.0122))
        # even with a huge box only the interior condition can fire at beta=1
        wide = DomainSpec(1.9, 3.5, 0.5, (0.0118, 0.0122, 1.0))
        violations = validate_domain(market, wide, swaption3)
        assert all("beta/(1-beta)" not in v for v in violations)

    def test_beta_half_violation_detected(self):
        market = make_market(beta=0.5)
        product = ProductSpec(SWAPTION, 1, 5)
        domain = DomainSpec(10.0, 3.5, 0.5, (0.0118, 0.0122, 0.0126, 0.0130, 1.0))
        violations = validate_domain(market, domain, product)
        assert violations
        assert any("beta/(2-beta)" in v for v in violations)

    def test_beta_zero_vacuous(self):
        market = make_market(beta=0.0)
        product = ProductSpec(SWAPTION, 1, 5)
        domain = DomainSpec(10.0, 3.5, 0.5, (0.0118, 0.0122, 0.0126, 0.0130, 1.0))
        assert validate_domain(market, domain, product) == []


class TestDomainSpec:
    def test_for_product_defaults(self, market_flat, caplet):
        domain = DomainSpec.for_product(market_flat, caplet, 0.04, 3.5)
        assert domain.horizon == 0.5
        assert domain.eval_point == (0.0118, 1.0)
        assert domain.grid_bounds(2) == (0.04, 3.5)

    def test_eval_point_must_be_interior(self, market_flat, caplet):
        with pytest.raises(ValueError):
            DomainSpec.for_product(market_flat, caplet, 0.01, 3.5)  # 0.0118 > f_max
        with pytest.raises(ValueError):
            DomainSpec.for_product(market_flat, caplet, 0.04, 0.5)  # v_eval = 1 > v_max

    @pytest.mark.parametrize(
        "f_max, v_max, horizon",
        [
            (math.inf, 3.5, 0.5),
            (math.nan, 3.5, 0.5),
            (0.04, math.inf, 0.5),
            (0.04, math.nan, 0.5),
            (0.04, 3.5, math.inf),
            (0.04, 3.5, math.nan),
        ],
    )
    def test_nonfinite_rejected(self, f_max, v_max, horizon):
        with pytest.raises(ValueError, match="positive and finite"):
            DomainSpec(f_max, v_max, horizon, (0.0118, 1.0))
