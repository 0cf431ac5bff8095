import dataclasses
import math
import warnings

import numpy as np
import pytest

from ratespde import (
    AmfrW2Config,
    GridOperator,
    GridShape,
    GridTooLargeError,
    ProductSpec,
    StepCounters,
    THETA_ORDER3,
    amfrw2_stage,
    amfrw2_step,
    initial_state,
    integrate,
)
from ratespde.stepper import A21, B1, B2, Q21

from conftest import make_market
from reference import (
    ThetaGsConfig,
    ThetaGsIntegrator,
    assemble_directional_matrix,
    assemble_operator_matrix,
)
from test_operator import make_operator


class ScalarOp:
    """Single-direction surrogate y' = lam*y with exact resolvent."""

    n_directions = 1

    def __init__(self, lam: float):
        self.lam = lam

    def apply(self, y):
        return self.lam * y

    def solve_directional(self, i, w, y):
        return y / (1.0 - w * self.lam)


def scalar_step_exact(y, lam, dt, cfg: AmfrW2Config) -> float:
    """Hand-expanded rational update of one two-stage step on y' = lam*y."""
    z = lam * dt
    s = 1.0 / (1.0 - cfg.resolved_nu(1) * z)
    resolvent = s * (2.0 - (1.0 - cfg.theta * z) * s)
    k1 = resolvent * z * y
    k2 = resolvent * (z * y + (A21 * z + Q21) * k1)
    return y + B1 * k1 + B2 * k2


class TestScalarSurrogate:
    def test_stage_matches_closed_form(self):
        lam, dt = -3.1, 0.21
        cfg = AmfrW2Config(num_steps=1, nu=0.9)
        op = ScalarOp(lam)
        y = np.array([1.7])
        z = lam * dt
        s = 1.0 / (1.0 - 0.9 * z)
        expected_k1 = s * (2.0 - (1.0 - cfg.theta * z) * s) * z * 1.7
        k1 = amfrw2_stage(op, y, (), dt, cfg)
        assert k1[0] == pytest.approx(expected_k1, rel=1e-14)

    @pytest.mark.parametrize("lam,dt", [(-1.0, 0.1), (-40.0, 0.05), (0.7, 0.02)])
    def test_step_matches_closed_form(self, lam, dt):
        cfg = AmfrW2Config(num_steps=1)
        y = np.array([0.83])
        stepped = amfrw2_step(ScalarOp(lam), y, dt, cfg)
        assert stepped[0] == pytest.approx(scalar_step_exact(0.83, lam, dt, cfg), rel=1e-14)

    def test_one_step_error_is_fourth_order(self):
        cfg = AmfrW2Config(num_steps=1)
        op = ScalarOp(1.0)
        errs = []
        for dt in (0.1, 0.05, 0.025):
            y1 = amfrw2_step(op, np.array([1.0]), dt, cfg)
            errs.append(abs(y1[0] - math.exp(dt)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.25)

    def test_global_order_three_on_exponential(self):
        op = ScalarOp(1.0)
        errs = []
        for steps in (8, 16, 32):
            y = integrate(op, np.array([1.0]), 1.0, AmfrW2Config(num_steps=steps))
            errs.append(abs(y[0] - math.e))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) > 2.7

    def test_default_nu_counts_directions(self):
        cfg = AmfrW2Config(num_steps=1)
        assert cfg.resolved_nu(1) == pytest.approx(THETA_ORDER3)
        assert cfg.resolved_nu(4) == pytest.approx(4 * THETA_ORDER3)
        assert AmfrW2Config(num_steps=1, nu=2.0).resolved_nu(4) == 2.0


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AmfrW2Config(num_steps=0)
        with pytest.raises(ValueError):
            AmfrW2Config(num_steps=1, theta=0.0)
        with pytest.raises(ValueError):
            AmfrW2Config(num_steps=1, nu=-1.0)
        with pytest.raises(ValueError):
            ThetaGsConfig(num_steps=1, theta=1.5)
        with pytest.raises(ValueError):
            ThetaGsConfig(num_steps=1, sweeps=0)

    @pytest.mark.parametrize("steps", [2.5, 4.0, "4"])
    def test_rejects_noninteger_steps(self, steps):
        with pytest.raises(ValueError, match="num_steps"):
            AmfrW2Config(num_steps=steps)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_theta_and_nu(self, value):
        with pytest.raises(ValueError, match="finite"):
            AmfrW2Config(num_steps=1, theta=value)
        with pytest.raises(ValueError, match="finite"):
            AmfrW2Config(num_steps=1, nu=value)

    def test_only_steps_theta_and_nu_are_settable(self):
        names = tuple(f.name for f in dataclasses.fields(AmfrW2Config))
        assert names == ("num_steps", "theta", "nu")


class TestGridStage:
    def test_zero_dynamics_step_is_identity(self, caplet):
        market = make_market(sigma=0.0)
        dead = market.__class__(
            market.tenor_dates,
            market.initial_forwards,
            (0.0,) * 6,
            market.strike,
            0.0,
            market.phis,
            market.lam,
            market.beta,
        )
        shape = GridShape((5, 4), (0.04, 3.5))
        op = GridOperator(dead, caplet, shape)
        y0 = initial_state(dead, caplet, shape).values
        cfg = AmfrW2Config(num_steps=3)
        k1 = amfrw2_stage(op, y0, (), 0.1, cfg)
        assert np.all(k1 == 0.0)
        assert np.array_equal(integrate(op, y0, 0.5, cfg), y0)

    def test_stage_matches_dense_resolvent_formula(self):
        op, *_ = make_operator((4, 3, 4))
        size = op.shape.total_points
        y = initial_state(make_market(sigma=0.3, phi=0.4), ProductSpec("swaption", 1, 3), op.shape).values
        dt = 0.05
        cfg = AmfrW2Config(num_steps=1)
        w = cfg.resolved_nu(3) * dt

        eye = np.eye(size)
        full = assemble_operator_matrix(op).toarray()
        chain = eye
        for i in (1, 2, 3):
            a_i = assemble_directional_matrix(op, i).toarray()
            chain = np.linalg.solve(eye - w * a_i, chain)
        resolvent = chain @ (2.0 * eye - (eye - cfg.theta * dt * full) @ chain)

        k1_dense = resolvent @ (dt * (full @ y))
        k1 = amfrw2_stage(op, y, (), dt, cfg)
        scale = max(1.0, np.abs(k1_dense).max())
        assert np.abs(k1 - k1_dense).max() <= 1e-11 * scale

        rhs2 = dt * (full @ (y + A21 * k1_dense)) + Q21 * k1_dense
        k2_dense = resolvent @ rhs2
        k2 = amfrw2_stage(op, y, (k1,), dt, cfg)
        assert np.abs(k2 - k2_dense).max() <= 1e-11 * max(1.0, np.abs(k2_dense).max())

        stepped = amfrw2_step(op, y, dt, cfg)
        dense = y + B1 * k1_dense + B2 * k2_dense
        assert np.abs(stepped - dense).max() <= 1e-11 * max(1.0, np.abs(dense).max())

    @pytest.mark.parametrize("kind", ["grid", "scalar"])
    def test_inputs_left_untouched(self, kind):
        # the stage and step arithmetic runs in place, but only in arrays
        # that the step made or that apply and the solves returned
        if kind == "grid":
            op, market, product, shape = make_operator((4, 3, 4))
            y = initial_state(market, product, shape).values
        else:
            op, y = ScalarOp(-2.3), np.array([0.83])
        cfg = AmfrW2Config(num_steps=1)
        y_before = y.copy()
        k1 = amfrw2_stage(op, y, (), 0.05, cfg)
        k1_before = k1.copy()
        amfrw2_stage(op, y, (k1,), 0.05, cfg)
        assert k1.tobytes() == k1_before.tobytes()
        amfrw2_step(op, y, 0.05, cfg)
        assert y.tobytes() == y_before.tobytes()

    def test_outer_components_frozen_over_integration(self, market_sv, caplet):
        shape = GridShape((8, 8), (0.04, 3.5))
        op = GridOperator(market_sv, caplet, shape)
        y0 = initial_state(market_sv, caplet, shape).values
        yT = integrate(op, y0, 0.5, AmfrW2Config(num_steps=4))
        outer = ~shape.inner_mask()
        assert np.abs(yT[outer] - y0[outer]).max() == 0.0

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -0.5])
    def test_bad_horizon_rejected_before_any_step(self, market_sv, caplet, horizon):
        shape = GridShape((4, 4), (0.04, 3.5))
        op = GridOperator(market_sv, caplet, shape)
        y0 = initial_state(market_sv, caplet, shape).values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"horizon must be positive and finite, got {horizon}"):
                integrate(op, y0, horizon, AmfrW2Config(num_steps=2))

    def test_too_many_stages_rejected(self):
        op = ScalarOp(-1.0)
        cfg = AmfrW2Config(num_steps=1)
        k1 = amfrw2_stage(op, np.array([1.0]), (), 0.1, cfg)
        with pytest.raises(ValueError):
            amfrw2_stage(op, np.array([1.0]), (k1, k1), 0.1, cfg)

    def test_nonfinite_reported_with_position(self):
        class BadOp(ScalarOp):
            def apply(self, y):
                return np.array([math.nan])

        with pytest.raises(FloatingPointError, match="stage 1"):
            amfrw2_step(BadOp(1.0), np.array([1.0]), 0.1, AmfrW2Config(num_steps=1))

    @pytest.mark.parametrize(
        "bad_call, where",
        [
            (1, "stage 1, first sweep"),
            (2, "stage 1, second sweep"),
            (3, "stage 2, first sweep"),
            (0, "stage 2, second sweep"),
        ],
    )
    def test_late_nonfinite_value_named_by_stage(self, bad_call, where):
        # the step is checked once; the failing step is recomputed with
        # per-stage checks, so the same solve of the rerun fails again
        class LateBadOp(ScalarOp):
            calls = 0

            def solve_directional(self, i, w, y):
                self.calls += 1
                return np.array([math.nan]) if self.calls % 4 == bad_call else y.copy()

        with pytest.raises(FloatingPointError, match=where):
            amfrw2_step(LateBadOp(1.0), np.array([1.0]), 0.1, AmfrW2Config(num_steps=1))

    def test_finite_check_once_per_step(self, monkeypatch):
        import ratespde.stepper as stepper_mod

        calls = []
        real = np.isfinite
        monkeypatch.setattr(stepper_mod.np, "isfinite", lambda x: calls.append(1) or real(x))
        integrate(ScalarOp(-1.0), np.array([1.0]), 1.0, AmfrW2Config(num_steps=3))
        assert len(calls) == 3


class TestCounters:
    def test_per_step_accounting(self):
        op, *_ = make_operator((4, 3, 4))
        y = np.zeros(op.shape.total_points)
        counters = StepCounters()
        amfrw2_step(op, y, 0.1, AmfrW2Config(num_steps=1), counters)
        n = op.n_directions
        assert counters.rhs_evals == 4
        assert counters.directional_solves == 4 * n  # two sweeps of N per stage
        expected_lines = 4 * sum(op.lines_in_direction(i) for i in range(1, n + 1))
        assert counters.tridiagonal_lines == expected_lines

    def test_integration_scales_with_steps(self):
        op, *_ = make_operator((4, 4))
        y = np.zeros(op.shape.total_points)
        counters = StepCounters()
        integrate(op, y, 0.5, AmfrW2Config(num_steps=5), counters)
        assert counters.rhs_evals == 20
        assert counters.directional_solves == 40


def test_single_step_integration_equals_step(market_sv, caplet):
    shape = GridShape((6, 6), (0.04, 3.5))
    op = GridOperator(market_sv, caplet, shape)
    y0 = initial_state(market_sv, caplet, shape).values
    cfg = AmfrW2Config(num_steps=1)
    assert np.array_equal(integrate(op, y0, 0.5, cfg), amfrw2_step(op, y0, 0.5, cfg))


class TestStabilitySmoke:
    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_huge_steps_stay_finite(self, market_flat, caplet, kappa):
        shape = GridShape((64, 64), (0.04, 3.5))
        op = GridOperator(market_flat, caplet, shape)
        y0 = initial_state(market_flat, caplet, shape).values
        for steps in (4, 2, 1):
            cfg = AmfrW2Config(num_steps=steps, nu=2 * THETA_ORDER3 * kappa)
            yT = integrate(op, y0, 0.5, cfg)
            assert np.all(np.isfinite(yT))


class TestThetaGs:
    def test_theta_zero_is_explicit_euler_any_sweeps(self, market_sv, caplet):
        shape = GridShape((6, 6), (0.04, 3.5))
        op = GridOperator(market_sv, caplet, shape)
        y0 = initial_state(market_sv, caplet, shape).values
        matrix = assemble_operator_matrix(op)
        dt = 0.5 / 4
        explicit = y0 + dt * (matrix @ y0)
        for sweeps in (1, 3):
            stepper = ThetaGsIntegrator(op, 0.5, ThetaGsConfig(num_steps=4, theta=0.0, sweeps=sweeps))
            assert np.abs(stepper.step(y0) - explicit).max() <= 1e-15 * np.abs(explicit).max()

    def test_many_sweeps_converge_to_theta_method(self, market_sv, caplet):
        shape = GridShape((5, 5), (0.04, 3.5))
        op = GridOperator(market_sv, caplet, shape)
        y0 = initial_state(market_sv, caplet, shape).values
        num_steps = 512
        dt = 0.5 / num_steps
        matrix = assemble_operator_matrix(op).toarray()
        size = matrix.shape[0]
        exact = np.linalg.solve(
            np.eye(size) - 0.5 * dt * matrix, y0 + 0.5 * dt * (matrix @ y0)
        )
        stepper = ThetaGsIntegrator(op, 0.5, ThetaGsConfig(num_steps=num_steps, theta=0.5, sweeps=40))
        got = stepper.step(y0)
        assert np.abs(got - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())

    def test_node_cap_enforced(self, market_sv, caplet):
        shape = GridShape((64, 64), (0.04, 3.5))
        op = GridOperator(market_sv, caplet, shape)
        with pytest.raises(GridTooLargeError):
            ThetaGsIntegrator(op, 0.5, ThetaGsConfig(num_steps=2, node_cap=1000))
