import dataclasses
import hashlib
import math

import numpy as np
import pytest

from ratespde import (
    CAPLET,
    SWAPTION,
    GridOperator,
    GridShape,
    PdeModel,
    ProductSpec,
    StateVector,
    initial_state,
    interpolate,
    payoff,
)

from conftest import make_market
from reference import assemble_directional_matrix, assemble_operator_matrix


def rng():
    return np.random.default_rng(20240214)


def make_operator(shape_counts, *, sigma=0.3, phi=0.4, beta=1.0, n_forwards=None, **kw):
    dims = len(shape_counts)
    n_forwards = dims - 1 if n_forwards is None else n_forwards
    market = make_market(sigma=sigma, phi=phi, beta=beta)
    kind = CAPLET if n_forwards == 1 else SWAPTION
    product = ProductSpec(kind, 1, 1 + n_forwards)
    bounds = (0.04,) * (dims - 1) + (3.5,)
    shape = GridShape(shape_counts, bounds)
    return GridOperator(market, product, shape, **kw), market, product, shape


class TestInitialState:
    def test_caplet_values_are_clipped_payoff(self, market_flat, caplet):
        shape = GridShape((4, 4), (0.04, 3.5))
        state = initial_state(market_flat, caplet, shape)
        h = 0.01
        view = state.view()
        for j1 in range(5):
            expected = 0.5 * max(j1 * h - 0.011, 0.0)
            for jv in range(5):
                assert view[jv, j1] == pytest.approx(expected, abs=1e-16)

    def test_constant_along_vol_axis(self, market_sv, swaption3):
        shape = GridShape((4, 5, 6), (0.04, 0.04, 3.5))
        state = initial_state(market_sv, swaption3, shape)
        view = state.view()
        assert np.all(view == view[:1])

    def test_zero_rate_corner_is_zero(self, market_sv, swaption3):
        shape = GridShape((4, 5, 6), (0.04, 0.04, 3.5))
        state = initial_state(market_sv, swaption3, shape)
        assert state.values[0] == 0.0

    def test_dimension_mismatch(self, market_flat, caplet):
        with pytest.raises(ValueError):
            initial_state(market_flat, caplet, GridShape((4, 4, 4), (0.04, 0.04, 3.5)))


class TestApply:
    @pytest.mark.parametrize(
        "counts", [(4, 4), (5, 3), (1, 4), (4, 1), (3, 4, 5), (1, 1, 4), (2, 3, 2, 3)]
    )
    def test_constants_annihilated(self, counts):
        op, *_ = make_operator(counts)
        y = np.full(op.shape.total_points, 3.7)
        assert np.abs(op.apply(y)).max() == 0.0

    def test_quadratic_second_difference_exact(self):
        # sigma = 0, beta = 0: the only term is d_1(v) * second difference,
        # exact on quadratics away from the upper boundary row
        op, market, product, shape = make_operator((8, 6), sigma=0.0, phi=0.0, beta=0.0)
        f = shape.axis_coordinates(1)
        v = shape.axis_coordinates(2)
        y = np.broadcast_to(f**2, shape.reversed_points).reshape(-1).copy()
        out = op.apply(y).reshape(shape.reversed_points)
        alpha = market.alphas[1]
        for jv in range(1, 7):
            d = 0.5 * alpha**2 * v[jv] ** 2
            assert out[jv, 1:8] == pytest.approx(np.full(7, 2.0 * d), rel=1e-11)

    def test_outer_rows_identically_zero(self):
        op, *_ = make_operator((4, 5, 3))
        y = rng().normal(size=op.shape.total_points)
        out = op.apply(y)
        assert np.all(out[~op.shape.inner_mask()] == 0.0)

    def test_linearity(self):
        op, *_ = make_operator((5, 4, 3))
        g = rng()
        y, z = g.normal(size=(2, op.shape.total_points))
        a, b = 1.37, -2.11
        lhs = op.apply(a * y + b * z)
        rhs = a * op.apply(y) + b * op.apply(z)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-13 * scale

    @pytest.mark.parametrize(
        "counts,sigma,beta",
        [
            ((4, 4), 0.3, 1.0),
            ((4, 4), 0.0, 1.0),
            ((6, 3), 0.3, 0.5),
            ((3, 4, 5), 0.3, 1.0),
            ((4, 3, 4), 0.3, 0.5),
            ((1, 5, 4), 0.3, 1.0),
            ((2, 3, 2, 3), 0.3, 1.0),
            ((3, 2, 3, 2), 0.3, 0.0),
        ],
    )
    def test_matches_assembled_matrix(self, counts, sigma, beta):
        op, *_ = make_operator(counts, sigma=sigma, beta=beta)
        matrix = assemble_operator_matrix(op)
        y = rng().normal(size=op.shape.total_points)
        reference = matrix @ y
        scale = np.abs(matrix).max() * np.abs(y).max()
        assert np.abs(op.apply(y) - reference).max() <= 1e-13 * scale

    @pytest.mark.parametrize("counts", [(4, 5, 3), (2, 3, 2, 3)])
    def test_split_pieces_sum_to_full(self, counts):
        # the coupling left after removing every diffusion block agrees
        # with the loop-assembled cross and drift entries
        op, *_ = make_operator(counts)
        y = rng().normal(size=op.shape.total_points)
        coupling = op.apply(y)
        matrix = assemble_operator_matrix(op)
        for i in range(1, op.n_directions + 1):
            coupling = coupling - op.apply_diffusion(i, y)
            matrix = matrix - assemble_directional_matrix(op, i)
        reference = matrix @ y
        scale = np.abs(assemble_operator_matrix(op)).max() * np.abs(y).max()
        assert np.abs(reference).max() > 1e-3 * scale
        assert np.abs(coupling - reference).max() <= 1e-13 * scale

    def test_coefficients_evaluated_once(self, monkeypatch):
        calls = {"diffusion": 0, "mixed": 0, "advection": 0}
        for name in calls:
            original = getattr(PdeModel, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(PdeModel, name, counted)
        op, *_ = make_operator((4, 5, 3))
        built = dict(calls)
        assert all(built.values())
        g = rng().normal(size=op.shape.total_points) * op.shape.inner_mask()
        for _ in range(2):
            op.apply(g)
            for i in range(1, op.n_directions + 1):
                op.apply_diffusion(i, g)
                for w in (0.05, 1.3):
                    op.solve_directional(i, w, g)
        assert calls == built

    def test_single_active_direction_equals_full(self):
        # sigma = 0 silences the vol direction and every coupling term of a caplet
        op, *_ = make_operator((6, 5), sigma=0.0, phi=0.0)
        y = rng().normal(size=op.shape.total_points)
        assert np.array_equal(op.apply(y), op.apply_diffusion(1, y))

    def test_vol_only_dynamics_equals_full(self):
        # dead forwards leave the volatility diffusion as the only term
        market = make_market(sigma=0.3, phi=0.4)
        dead = market.__class__(
            market.tenor_dates,
            market.initial_forwards,
            (0.0,) * 6,
            market.strike,
            market.sigma,
            market.phis,
            market.lam,
            market.beta,
        )
        shape = GridShape((5, 6), (0.04, 3.5))
        op = GridOperator(dead, ProductSpec(CAPLET, 1, 2), shape)
        y = rng().normal(size=shape.total_points)
        assert np.array_equal(op.apply(y), op.apply_diffusion(2, y))

    # sha256 prefixes of apply(y), then apply_diffusion(i, y) for each i,
    # recorded before terms ran on contiguous slabs; beta = 1 keeps every
    # coefficient to exactly rounded arithmetic, so the bytes are portable
    FROZEN_DIGESTS = {
        (4, 256): ("eb6fb5deb97dced2", "e817176b82770527", "9a2e3de100cdb1e2"),
        (256, 4): ("6a6a6492cd6abf07", "d7d64ce77f046870", "e7d19342817e8881"),
        (1, 1024): ("11d09293e25e6e30", "48617af0a1b0440e", "ba7abb0e97f444fd"),
        (2, 2, 64): ("af773c52d79212b3", "4ba30038419812e5", "b24786d6c577d826",
                     "9be482dd4c6dd01d"),
        (8, 4, 2): ("5688b6b36bbf3087", "79252d031dfd0ec8", "9ec80cacf69e4d98",
                    "5e870e344648bd1d"),
        (1, 1, 1): ("403d175a06a53ec2", "0999ac880c41fd7a", "66477182265d57a7",
                    "ae20ef5cd58e7e06"),
        (2, 3, 2, 3): (
            "9192fdfa6e2c8b30", "b49c9ba7ff8f886b", "44ffd26c1131d2c3", "d7322a5397a942e1",
            "b5ccf69e6e7ab9ad",
        ),
    }

    @pytest.mark.parametrize("counts", list(FROZEN_DIGESTS))
    def test_bitwise_equal_to_frozen_outputs(self, counts):
        op, *_ = make_operator(counts)
        y = np.random.default_rng(7).normal(size=op.shape.total_points)
        outs = [op.apply(y)] + [op.apply_diffusion(i, y) for i in range(1, op.n_directions + 1)]
        digests = tuple(hashlib.sha256(o.tobytes()).hexdigest()[:16] for o in outs)
        assert digests == self.FROZEN_DIGESTS[counts]

    def test_length_checked(self):
        op, *_ = make_operator((4, 4))
        with pytest.raises(ValueError):
            op.apply(np.zeros(7))

    @pytest.mark.parametrize("i", [0, 3])
    def test_direction_checked(self, i):
        op, *_ = make_operator((4, 4))
        y = np.zeros(op.shape.total_points)
        with pytest.raises(ValueError):
            op.apply_diffusion(i, y)
        with pytest.raises(ValueError):
            op.solve_directional(i, 0.1, y)


class TestDirectionalSolve:
    def test_zero_shift_is_identity(self):
        op, *_ = make_operator((4, 4))
        g = rng().normal(size=op.shape.total_points) * op.shape.inner_mask()
        assert np.array_equal(op.solve_directional(1, 0.0, g), g)

    def test_negative_shift_rejected(self):
        op, *_ = make_operator((4, 4))
        with pytest.raises(ValueError):
            op.solve_directional(1, -0.1, np.zeros(op.shape.total_points))

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    def test_nonfinite_shift_rejected(self, w):
        for counts in [(16, 2), (2, 16)]:
            op, *_ = make_operator(counts)
            for i in (1, 2):
                with pytest.raises(ValueError, match="finite"):
                    op.solve_directional(i, w, np.zeros(op.shape.total_points))

    @pytest.mark.parametrize(
        "counts",
        [(6, 5), (5, 6, 4), (16, 2), (2, 16), (1, 8), (12, 1, 3), (2, 1), (1, 2), (2, 1, 1)],
    )
    def test_residual_all_directions(self, counts):
        # one long chain (thin shapes), many columns (fat ones) and chains
        # of one and two rows
        op, *_ = make_operator(counts)
        g = rng().normal(size=op.shape.total_points) * op.shape.inner_mask()
        for i in range(1, op.n_directions + 1):
            for w in (0.05, 1.3):
                k = op.solve_directional(i, w, g)
                residual = k - w * op.apply_diffusion(i, k) - g
                assert np.abs(residual).max() <= 1e-12 * np.abs(g).max()

    @pytest.mark.parametrize(
        "counts",
        [(6, 5), (4, 3, 5), (16, 2), (2, 1), (1, 2), (2, 1, 1), (1, 1), (2, 2), (1, 1, 1), (32, 32)],
    )
    def test_matches_dense_solve(self, counts):
        # chains of one and two rows, and on 32 x 32 a forward direction
        # whose d_j span six orders of magnitude
        op, *_ = make_operator(counts)
        g = rng().normal(size=op.shape.total_points) * op.shape.inner_mask()
        eye = np.eye(op.shape.total_points)
        if counts == (32, 32):
            f, v = op.shape.axis_coordinates(1)[1:], op.shape.axis_coordinates(2)[1:]
            d = op.model.diffusion(1, f[:, None], v[None, :])
            assert d.max() / d.min() >= 1e6
        for i in range(1, op.n_directions + 1):
            a_i = assemble_directional_matrix(op, i).toarray()
            for w in (0.07, 1.3):
                dense = np.linalg.solve(eye - w * a_i, g)
                k = op.solve_directional(i, w, g)
                assert np.abs(k - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_outer_rows_pass_through(self):
        op, *_ = make_operator((5, 4))
        g = rng().normal(size=op.shape.total_points) * op.shape.inner_mask()
        k = op.solve_directional(2, 0.4, g)
        outer = ~op.shape.inner_mask()
        assert np.all(k[outer] == 0.0)

    def test_frozen_rows_checked_in_debug_mode(self):
        op, *_ = make_operator((4, 4), check_rhs=True)
        bad = np.ones(op.shape.total_points)
        with pytest.raises(ValueError):
            op.solve_directional(1, 0.1, bad)
        good = bad * op.shape.inner_mask()
        op.solve_directional(1, 0.1, good)

    def test_factor_cache_reused_and_consistent(self):
        op, *_ = make_operator((8, 8))
        g = rng().normal(size=op.shape.total_points) * op.shape.inner_mask()
        first = op.solve_directional(1, 0.2, g)
        assert (1, 0.2) in op._factors
        second = op.solve_directional(1, 0.2, g)
        assert np.array_equal(first, second)


class TestCoefficientGuard:
    # an alpha near 1e-160 is rejected (see test_cli); 1e-140 still solves
    def test_small_normal_diffusion_accepted(self):
        market = make_market(sigma=0.3, phi=0.4)
        small = dataclasses.replace(market, alphas=(0.0, 1e-140) + market.alphas[2:])
        shape = GridShape((16, 16), (0.04, 3.5))
        op = GridOperator(small, ProductSpec(CAPLET, 1, 2), shape)
        g = rng().normal(size=shape.total_points) * shape.inner_mask()
        assert np.all(np.isfinite(op.solve_directional(1, 0.3, g)))


class TestInterpolate:
    def test_on_node_returns_nodal_value(self, market_flat, caplet):
        shape = GridShape((8, 8), (0.04, 3.5))
        state = initial_state(market_flat, caplet, shape)
        j = (3, 5)
        point = shape.coordinate(j)
        flat = shape.node_map.encode(j)
        assert interpolate(state, point) == pytest.approx(state.values[flat], rel=1e-15)

    def test_midpoint_average_one_dimension(self):
        shape = GridShape((4, 1), (1.0, 1.0))
        values = np.arange(shape.total_points, dtype=float)
        state = StateVector(shape, values)
        v0 = interpolate(state, (0.125, 0.0))
        left = values[shape.node_map.encode((0, 0))]
        right = values[shape.node_map.encode((1, 0))]
        assert v0 == pytest.approx(0.5 * (left + right), rel=1e-15)

    def test_reproduces_bilinear_function(self):
        shape = GridShape((7, 5), (2.0, 3.0))
        x = shape.axis_coordinates(1)
        v = shape.axis_coordinates(2)
        values = (v[:, None] * x[None, :]).reshape(-1)
        state = StateVector(shape, values)
        for px, pv in [(0.31, 2.17), (1.999, 0.001), (2.0, 3.0), (0.0, 0.0)]:
            assert interpolate(state, (px, pv)) == pytest.approx(px * pv, abs=1e-13)

    def test_outside_domain_rejected(self, market_flat, caplet):
        shape = GridShape((4, 4), (0.04, 3.5))
        state = initial_state(market_flat, caplet, shape)
        with pytest.raises(ValueError):
            interpolate(state, (0.05, 1.0))
        with pytest.raises(ValueError):
            interpolate(state, (0.01, -0.1))


class TestStateVector:
    def test_length_validated(self):
        with pytest.raises(ValueError):
            StateVector(GridShape((4, 4), (1.0, 1.0)), np.zeros(7))
