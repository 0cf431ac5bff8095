import copy
import dataclasses
import gc
import hashlib
import math
import os
import pickle
import threading
import time
import types

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import lapack

import ratespde.operator as operator_mod
from ratespde import (
    CAPLET,
    SWAPTION,
    AmfrW2Config,
    GridOperator,
    GridShape,
    PdeModel,
    ProductSpec,
    StateVector,
    initial_state,
    integrate,
    interpolate,
)

from conftest import make_market, threads_at_forks
from reference import assemble_directional_matrix, assemble_operator_matrix, inner_mask


def rng():
    return np.random.default_rng(20240214)


def make_operator(shape_counts, *, sigma=0.3, phi=0.4, beta=1.0, n_forwards=None):
    dims = len(shape_counts)
    n_forwards = dims - 1 if n_forwards is None else n_forwards
    market = make_market(sigma=sigma, phi=phi, beta=beta)
    kind = CAPLET if n_forwards == 1 else SWAPTION
    product = ProductSpec(kind, 1, 1 + n_forwards)
    bounds = (0.04,) * (dims - 1) + (3.5,)
    shape = GridShape(shape_counts, bounds)
    return GridOperator(market, product, shape), market, product, shape


class FrozenRowsChecked:
    """A ``SplitOperator`` that passes every call to ``op`` and first checks
    the precondition of each directional solve: its right-hand side
    vanishes on the frozen rows of every grid."""

    def __init__(self, op):
        self.op, self.n_directions, self.solves = op, op.n_directions, 0
        self.frozen = ~np.concatenate([inner_mask(s) for s in op.shapes])

    def apply(self, y):
        return self.op.apply(y)

    def solve_directional(self, i, w, g):
        if np.any(g[self.frozen]):
            raise AssertionError(f"the right-hand side of a direction-{i} solve is nonzero on a frozen row")
        self.solves += 1
        return self.op.solve_directional(i, w, g)

    def lines_in_direction(self, i):
        return self.op.lines_in_direction(i)


def record_factors(monkeypatch):
    """The shift and row count of every tridiagonal chain factored from now on, in order."""
    factors = []
    build = operator_mod._chain_parts

    def recorded(r, w, b, *cut):
        factors.append((w, r.size))
        return build(r, w, b, *cut)

    monkeypatch.setattr(operator_mod, "_chain_parts", recorded)
    return factors


def assert_only_diffusion_block(op, i):
    """The operator is its direction-i diffusion block A_i alone."""
    a_i = assemble_directional_matrix(op, i)
    assert (assemble_operator_matrix(op) != a_i).nnz == 0
    y = rng().normal(size=op.shape.total_points)
    scale = np.abs(a_i).max() * np.abs(y).max()
    assert np.abs(op.apply(y) - a_i @ y).max() <= 1e-13 * scale


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

    @pytest.mark.parametrize("counts", [(4, 5, 6), (3, 4, 5, 2)])
    def test_every_node_holds_the_payoff_at_its_point(self, market_sv, counts):
        # a different count per direction, so a node that read another
        # direction's coordinates would hold another value
        product = ProductSpec(SWAPTION, 1, len(counts))
        shape = GridShape(counts, (0.04,) * (len(counts) - 1) + (3.5,))
        state = initial_state(market_sv, product, shape)
        model = PdeModel(market_sv, product)
        assert state.values.max() > 0.0
        for flat in range(shape.total_points):
            assert state.values[flat] == model.payoff(shape.coordinate(shape.node_map.decode(flat)))

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
        assert np.all(out[~inner_mask(op.shape)] == 0.0)

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
        g = rng().normal(size=op.shape.total_points) * inner_mask(op.shape)
        for _ in range(2):
            op.apply(g)
            for i in range(1, op.n_directions + 1):
                for w in (0.05, 1.3):
                    op.solve_directional(i, w, g)
        assert calls == built

    def test_single_active_direction_equals_full(self):
        # sigma = 0 silences the vol direction and every coupling term of a caplet
        op, *_ = make_operator((6, 5), sigma=0.0, phi=0.0)
        assert_only_diffusion_block(op, 1)

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
        assert_only_diffusion_block(op, 2)

    # sha256 prefixes of apply(y); beta = 1 keeps every coefficient to
    # exactly rounded arithmetic, so the bytes are portable.  Grids of at
    # most CSR_MAX_NODES nodes apply a CSR matrix, whose row sums round
    # differently from the program's term sums; (128, 128) is over the
    # budget and keeps the program's bytes
    FROZEN_DIGESTS = {
        (4, 256): "5898f2ae3d326c84",
        (256, 4): "0e075736c39a592c",
        (1, 1024): "e2a4596f3b3dbe80",
        (2, 2, 64): "7b9079c38a6c5f61",
        (8, 4, 2): "81d22986d9d69f50",
        (1, 1, 1): "55f32a409fe6d66d",
        (2, 3, 2, 3): "40c7097268f7e48c",
        (128, 128): "fb0e6f1887c39c87",
    }

    @pytest.mark.parametrize("counts", list(FROZEN_DIGESTS))
    def test_bitwise_equal_to_frozen_outputs(self, counts):
        op, *_ = make_operator(counts)
        y = np.random.default_rng(7).normal(size=op.shape.total_points)
        assert hashlib.sha256(op.apply(y).tobytes()).hexdigest()[:16] == self.FROZEN_DIGESTS[counts]

    # the same outputs with every upper-face node (some j_i = M_i) zeroed;
    # (1, 1024) and (1, 1, 1) have no interior node off the faces
    OFF_FACE_DIGESTS = {
        (4, 256): "525a4e8fcee85120",
        (256, 4): "bf299e8b7f9d3aec",
        (1, 1024): "fe0a87de3d96b843",
        (2, 2, 64): "7bb9e43922d01806",
        (8, 4, 2): "b10b5376edab2d6f",
        (1, 1, 1): "f5a5fd42d16a2030",
        (2, 3, 2, 3): "8174f8d92b82d89e",
        (128, 128): "9bda4b0aaf8c8ed6",
    }

    @pytest.mark.parametrize("counts", list(OFF_FACE_DIGESTS))
    def test_bitwise_equal_off_neumann_faces(self, counts):
        op, *_ = make_operator(counts)
        y = np.random.default_rng(7).normal(size=op.shape.total_points)
        out = op.apply(y).reshape(op.shape.reversed_points)
        for axis in range(op.shape.ndim):
            out[(slice(None),) * axis + (-1,)] = 0.0
        assert hashlib.sha256(out.tobytes()).hexdigest()[:16] == self.OFF_FACE_DIGESTS[counts]

    def test_length_checked(self):
        op, *_ = make_operator((4, 4))
        with pytest.raises(ValueError):
            op.apply(np.zeros(7))

    @pytest.mark.parametrize("i", [0, 3])
    def test_direction_checked(self, i):
        op, *_ = make_operator((4, 4))
        with pytest.raises(ValueError):
            op.solve_directional(i, 0.1, np.zeros(op.shape.total_points))


class TestDirectionalSolve:
    def test_zero_shift_is_identity(self):
        op, *_ = make_operator((4, 4))
        g = rng().normal(size=op.shape.total_points) * inner_mask(op.shape)
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
        g = rng().normal(size=op.shape.total_points) * inner_mask(op.shape)
        for i in range(1, op.n_directions + 1):
            a_i = assemble_directional_matrix(op, i)
            for w in (0.05, 1.3):
                k = op.solve_directional(i, w, g)
                residual = k - w * (a_i @ k) - g
                assert np.abs(residual).max() <= 1e-12 * np.abs(g).max()

    @pytest.mark.parametrize(
        "counts",
        [(6, 5), (4, 3, 5), (16, 2), (2, 1), (1, 2), (2, 1, 1), (1, 1), (2, 2), (1, 1, 1), (32, 32)],
    )
    def test_matches_dense_solve(self, counts):
        # chains of one and two rows, and on 32 x 32 a forward direction
        # whose d_j span six orders of magnitude
        op, *_ = make_operator(counts)
        g = rng().normal(size=op.shape.total_points) * inner_mask(op.shape)
        eye = np.eye(op.shape.total_points)
        if counts == (32, 32):
            f, v = op.shape.axis_coordinates(1)[1:], op.shape.axis_coordinates(2)[1:]
            d = op.model.diffusion(1, (f[None, :], v[:, None]))
            assert d.max() / d.min() >= 1e6
        for i in range(1, op.n_directions + 1):
            a_i = assemble_directional_matrix(op, i).toarray()
            for w in (0.07, 1.3):
                dense = np.linalg.solve(eye - w * a_i, g)
                k = op.solve_directional(i, w, g)
                assert np.abs(k - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_outer_rows_pass_through(self):
        op, *_ = make_operator((5, 4))
        g = rng().normal(size=op.shape.total_points) * inner_mask(op.shape)
        k = op.solve_directional(2, 0.4, g)
        outer = ~inner_mask(op.shape)
        assert np.all(k[outer] == 0.0)

    # sha256 prefixes of solve_directional(i, w, g) for i = 1..N and
    # w = 0.07, 1.3, on the shapes of TestApply.FROZEN_DIGESTS and
    # (32, 32, 16), recorded before the solves ran from cached plans and,
    # for the two large grids, before a solve wrote its output in its
    # parts; the factor and the solve run in LAPACK, so the bytes assume
    # an x86-64 build like scipy's bundled OpenBLAS
    FROZEN_DIGESTS = {
        (4, 256): ("a61f93a613dbc642", "1e42a5055a59632b", "74916b806828474c", "dd926de7a5b68cb8"),
        (256, 4): ("04edc4c0585a8e3d", "2de799bd228a0875", "c82654a49c56a76d", "7b412060565e5d68"),
        (1, 1024): ("cc9ecf8203ee72d3", "9bddbef64f897a8e", "b46a9ebc991c0ad4", "d67246b40b0cd342"),
        (2, 2, 64): ("e64f1681c9b1c3b8", "950cb549a04e4753", "b2c33ee4f75cfdde",
                     "c7dd3a0e5381ef9d", "69acd6f8129d8da9", "76a0d844bc94b5a5"),
        (8, 4, 2): ("bcf0b2f0eeb82e8c", "7dc46c1032aef22d", "3cc02d0c535cfd5e",
                    "292a93ac2b31566a", "a12f2d90a953441d", "56831fb83a2b6bad"),
        (1, 1, 1): ("3cfb251076465b1d", "52247c84e3d545b8", "79dd48f239d5073c",
                    "c4a62a11f8750397", "476a6a95a6f96260", "6037c0c6b6852771"),
        (2, 3, 2, 3): (
            "b46dd2c3a03c827d", "61f1b92cf34142f0", "dbff40e6a74ba0e5", "6154a40c9544f749",
            "e41a5fa29b0aa9bd", "34f672a2a8f508cf", "41511ac38385f117", "35c5eba5070fa775",
        ),
        # over CSR_MAX_NODES: the distinct lines of one grid, solved in parts
        (128, 128): ("c7db7e0e2bb179c9", "72c3ff9bbf239d3a", "d6ef0505eb38333b", "d13c136e3095844b"),
        (32, 32, 16): ("128b67957184ef56", "2e70bf668a7e033f", "56ed542aab61131d",
                       "4ca0364281e759d2", "be0fb780e2d83d1a", "23c3b4da1ac48bcc"),
    }

    @pytest.mark.parametrize("counts", list(FROZEN_DIGESTS))
    def test_bitwise_equal_to_frozen_outputs(self, counts):
        op, *_ = make_operator(counts)
        g = np.random.default_rng(7).normal(size=op.shape.total_points) * inner_mask(op.shape)
        for _ in range(2):  # the second round runs from the cached plans
            outs = [
                op.solve_directional(i, w, g)
                for i in range(1, op.n_directions + 1)
                for w in (0.07, 1.3)
            ]
            digests = tuple(hashlib.sha256(o.tobytes()).hexdigest()[:16] for o in outs)
            assert digests == self.FROZEN_DIGESTS[counts]

    # the next two tests run a small grid, whose solve gathers its rows,
    # and (128, 128), over CSR_MAX_NODES, whose solve runs in parts
    def test_bad_input_rejected_after_valid_call_cached(self, monkeypatch):
        factors = record_factors(monkeypatch)
        for counts in [(5, 4), (128, 128)]:
            factors.clear()
            op, *_ = make_operator(counts)
            g = rng().normal(size=op.shape.total_points) * inner_mask(op.shape)
            for i in (1, 2):
                op.solve_directional(i, 0.3, g)
            for _ in range(2):  # a rejected (i, w) is never cached, so it fails again
                for i in (0, 3):
                    with pytest.raises(ValueError, match="direction"):
                        op.solve_directional(i, 0.3, g)
                for w in (math.nan, -0.1, math.inf):
                    with pytest.raises(ValueError, match="shift"):
                        op.solve_directional(1, w, g)
            for i in (1, 2):
                op.solve_directional(i, 0.3, g)
            assert [w for w, _ in factors] == [0.3, 0.3]  # one factor per valid (i, w), then reused
            with pytest.raises(ValueError):
                op.solve_directional(1, 0.3, g[:-1])

    def test_factor_cache_reused_and_consistent(self, monkeypatch):
        factors = record_factors(monkeypatch)
        for counts in [(8, 8), (128, 128)]:
            factors.clear()
            op, *_ = make_operator(counts)
            g = rng().normal(size=op.shape.total_points) * inner_mask(op.shape)
            first = op.solve_directional(1, 0.2, g)
            assert factors == [(0.2, op.shape.interior_points)]  # direction 1: no repeated line
            second = op.solve_directional(1, 0.2, g)
            assert factors == [(0.2, op.shape.interior_points)]
            assert np.array_equal(first, second)

    def test_operator_refuses_copying(self):
        # a copy would share the work arrays its chains point at
        for counts in [(5, 4), (128, 128)]:
            op, *_ = make_operator(counts)
            op.solve_directional(1, 0.3, rng().normal(size=op.size) * inner_mask(op.shape))
            for duplicate in (copy.copy, copy.deepcopy, pickle.dumps):
                with pytest.raises(TypeError, match="copied or pickled"):
                    duplicate(op)

    def test_length_checked_before_any_work(self):
        small, market, product, shape = make_operator((4, 4))
        large, *_ = make_operator((128, 128))
        block = GridOperator(market, product, shape, shape)
        for op, size in ((small, 25), (large, 129 * 129), (block, 50)):
            for n in (size + 3, size - 1):
                for w in (0.0, 0.3):
                    with pytest.raises(ValueError, match=f"vector length {n} does not match"):
                        op.solve_directional(1, w, np.zeros(n))

    def test_one_row_chain_divides(self):
        # over CSR_MAX_NODES, direction 2 has one distinct line of one row,
        # repeated on 16384 columns: each row is its scaled value over the
        # diagonal r + w, with r = 1/(2 d_M) on the Neumann row
        op, *_ = make_operator((16384, 1))
        assert op.shape.total_points == 32_770
        g = np.random.default_rng(7).normal(size=op.shape.total_points) * inner_mask(op.shape)
        f, v = op.shape.axis_coordinates(1)[1:], op.shape.axis_coordinates(2)[1:]
        r = 1.0 / (op.model.diffusion(2, (f, v)) / op.shape.spacings[1] ** 2)
        r *= 0.5
        w = 0.3
        rows = g.reshape(op.shape.reversed_points)[1:, 1:]
        expected = g.copy()
        expected.reshape(op.shape.reversed_points)[1:, 1:] = rows * r / (r + w)
        assert np.array_equal(op.solve_directional(2, w, g), expected)

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("counts", [(16384, 1), (1, 16384), (128, 129), (20, 25, 31), (8, 8, 16, 16)])
    def test_large_grid_writes_every_frozen_node(self, monkeypatch, counts, strided):
        # over CSR_MAX_NODES the outputs are allocated uninitialised; NaN
        # fills every new float array, so a node that a call skips shows
        op, *_ = make_operator(counts)
        assert op.size > operator_mod.CSR_MAX_NODES
        empty = np.empty

        def filled(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", filled)
        # nonzero frozen rows, which the solve passes through as identities
        base = np.random.default_rng(7).normal(size=2 * op.size)
        kept = base.copy()
        g = base[::2] if strided else base[: op.size]
        outer = ~inner_mask(op.shape)
        out = op.apply(g)[outer]
        assert np.all(out == 0.0) and not np.signbit(out).any()
        for i in range(1, op.n_directions + 1):
            assert np.array_equal(op.solve_directional(i, 0.3, g)[outer], g[outer])
        assert np.array_equal(base, kept)


class TestFrozenRows:
    """Every stage right-hand side vanishes on the frozen rows, as the
    directional solves, which chain the interior rows only, require."""

    # a small grid, a batch of small grids and a grid over CSR_MAX_NODES
    @pytest.mark.parametrize("grids", [[(8, 6)], [(4, 4), (3, 5), (2, 6)], [(128, 130)]],
                             ids=["small", "batch", "large"])
    def test_integrate_meets_the_solve_precondition(self, grids):
        market, product = make_market(sigma=0.3, phi=0.4), ProductSpec(CAPLET, 1, 2)
        shapes = [GridShape(counts, (0.04, 3.5)) for counts in grids]
        op = GridOperator(market, product, *shapes)
        y0 = np.concatenate([initial_state(market, product, s).values for s in shapes])
        checked = FrozenRowsChecked(op)
        cfg = AmfrW2Config(num_steps=3)
        y = integrate(checked, y0, 0.5, cfg)
        assert checked.solves == 3 * 2 * 2 * op.n_directions  # steps, stages, sweeps, directions
        assert np.array_equal(y, integrate(op, y0, 0.5, cfg))
        bad = np.zeros(op.size)
        bad[np.flatnonzero(checked.frozen)[-1]] = 1.0
        with pytest.raises(AssertionError, match="frozen"):
            checked.solve_directional(1, 0.1, bad)


class TestBlockOperator:
    """Small grids batched in one ``GridOperator``: a block-diagonal system."""

    # one-interval directions give lines of one row; (1, 1) and (1, 1, 1)
    # alone chain a single row, which the solve divides like every row of a
    # longer chain
    SHAPES = {
        2: [(4, 1), (1, 4), (1, 1), (3, 5), (2, 2), (6, 3), (16, 1)],
        3: [(1, 1, 1), (2, 1, 3), (1, 2, 1), (3, 2, 2), (4, 4, 1)],
    }

    @staticmethod
    def parts(dims):
        """Each grid's own operator, and one operator over all of them."""
        built = [make_operator(counts) for counts in TestBlockOperator.SHAPES[dims]]
        _, market, product, _ = built[0]
        return [op for op, *_ in built], GridOperator(market, product, *(s for *_, s in built))

    @staticmethod
    def split(ops, x):
        cuts = np.cumsum([op.shape.total_points for op in ops])[:-1]
        return np.split(x, cuts)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_apply_bitwise_per_component(self, dims):
        ops, block = self.parts(dims)
        y = rng().normal(size=block.size)
        expected = [op.apply(part) for op, part in zip(ops, self.split(ops, y))]
        assert np.array_equal(block.apply(y), np.concatenate(expected))

    @pytest.mark.parametrize("dims", [2, 3])
    def test_solves_bitwise_per_component(self, dims):
        ops, block = self.parts(dims)
        masks = np.concatenate([inner_mask(op.shape) for op in ops])
        g = rng().normal(size=block.size) * masks
        for _ in range(2):  # the second round runs from the cached plans
            for i in range(1, dims + 1):
                for w in (0.0, 0.07, 1.3):
                    parts = zip(ops, self.split(ops, g))
                    expected = np.concatenate([op.solve_directional(i, w, part) for op, part in parts])
                    assert np.array_equal(block.solve_directional(i, w, g), expected)

    def test_each_grid_factors_its_distinct_lines(self, monkeypatch):
        # direction 2's lines repeat along direction 1: each grid factors
        # one line, its repeats the columns of its right-hand sides
        factors = record_factors(monkeypatch)
        market, product = make_market(sigma=0.3, phi=0.4), ProductSpec(CAPLET, 1, 2)
        shapes = [GridShape(counts, (0.04, 3.5)) for counts in [(64, 8), (8, 64)]]
        block = GridOperator(market, product, *shapes)
        g = rng().normal(size=block.size) * np.concatenate([inner_mask(s) for s in shapes])
        block.solve_directional(2, 0.3, g)
        assert factors == [(0.3, 8), (0.3, 64)]

    def test_line_counts_add_up(self):
        ops, block = self.parts(3)
        for i in (1, 2, 3):
            assert block.lines_in_direction(i) == sum(op.lines_in_direction(i) for op in ops)

    def test_bad_blocks_and_inputs_rejected(self):
        _, market, product, small = make_operator((4, 4))
        large = make_operator((128, 128))[3]
        solid = make_operator((2, 2, 2))[3]
        for shapes in ((), (small, large), (large, small), (small, solid)):
            with pytest.raises(ValueError):
                GridOperator(market, product, *shapes)
        block = GridOperator(market, product, small, small)
        with pytest.raises(ValueError):
            block.apply(np.zeros(small.total_points))
        g = np.zeros(block.size)
        with pytest.raises(ValueError, match="direction"):
            block.solve_directional(3, 0.1, g)
        for w in (math.nan, -0.1, math.inf):
            with pytest.raises(ValueError, match="shift"):
                block.solve_directional(1, w, g)


class TestParts:
    """A grid over CSR_MAX_NODES cuts ``apply`` and each solve into parts
    along its outer axis, run by the calling thread and helper threads;
    each part does the arithmetic of the uncut call."""

    # an odd outer count in 2D, whose direction-1 chain is cut at line
    # ends, and a 3D grid, whose solves are cut by columns; one part per
    # thread, then parts of at most about 2**12 nodes on one or two threads
    @pytest.mark.parametrize("counts", [(128, 129), (20, 25, 31)])
    def test_bitwise_equal_to_one_part(self, monkeypatch, counts):
        outputs = []
        for threads, part_nodes in ((1, math.inf), (2, math.inf), (3, math.inf),
                                    (1, 2**12), (2, 2**12)):
            monkeypatch.setattr(operator_mod, "_threads", lambda: threads)
            monkeypatch.setattr(operator_mod, "_PART_NODES", part_nodes)
            parts = threads if part_nodes == math.inf else 5  # of 16,770 and 16,926 slab nodes
            op, market, product, shape = make_operator(counts)
            assert len(op._programs) == parts
            y = np.random.default_rng(7).normal(size=op.size)
            g = y * inner_mask(op.shape)
            outs = [op.apply(y)]
            for i in range(1, op.n_directions + 1):
                for w in (0.07, 1.3):
                    outs.append(op.solve_directional(i, w, g))
                    assert len(op._factors[(i, w)]) >= threads
            y0 = initial_state(market, product, shape).values
            outs.append(integrate(op, y0, 0.5, AmfrW2Config(num_steps=2)))
            outputs.append([o.tobytes() for o in outs])
        assert all(out == outputs[0] for out in outputs[1:])

    def test_failing_part_raises_after_every_part_finished(self, monkeypatch):
        monkeypatch.setattr(operator_mod, "_threads", lambda: 2)
        op, *_ = make_operator((128, 129))
        g = rng().normal(size=op.size) * inner_mask(op.shape)
        expected = op.solve_directional(2, 0.3, g)
        dpttrs, started, finished = operator_mod._dpttrs, threading.Event(), []

        def helper_fails(*args):
            if threading.current_thread() is threading.main_thread():
                started.wait(10)  # so the caller leaves the second part to the helper
                return dpttrs(*args)
            started.set()
            args[-1].value = 3  # the part's own info

        def caller_fails(*args):
            if threading.current_thread() is threading.main_thread():
                args[-1].value = 4
                return
            time.sleep(0.2)  # the caller's part fails first
            dpttrs(*args)
            finished.append(True)

        monkeypatch.setattr(operator_mod, "_dpttrs", helper_fails)
        with pytest.raises(FloatingPointError, match="info=3"):
            op.solve_directional(2, 0.3, g)
        assert started.is_set()
        monkeypatch.setattr(operator_mod, "_dpttrs", caller_fails)
        with pytest.raises(FloatingPointError, match="info=4"):
            op.solve_directional(2, 0.3, g)
        assert finished == [True]
        monkeypatch.setattr(operator_mod, "_dpttrs", dpttrs)
        assert np.array_equal(op.solve_directional(2, 0.3, g), expected)

    def test_threads_share_the_cores(self, monkeypatch):
        monkeypatch.setattr(operator_mod, "_cores", lambda: 4)
        for processes, threads in ((1, 4), (2, 2), (3, 1), (8, 1)):
            monkeypatch.setattr(operator_mod, "_processes", processes)
            assert operator_mod._threads() == threads

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="no thread count here")
    def test_no_helper_left_at_a_fork(self):
        # a helper that Python has joined can still be an OS thread for a
        # moment; the engine's before-fork hook waits until it is gone, so
        # every fork finds this process on its one thread
        counts = threads_at_forks("""
import numpy as np
import ratespde.operator as operator_mod
from ratespde import CAPLET, GridOperator, GridShape, ProductSpec
from conftest import make_market
operator_mod._threads = lambda: 2
shape = GridShape((256, 256), (0.04, 3.5))
op = GridOperator(make_market(sigma=0.3, phi=0.4), ProductSpec(CAPLET, 1, 2), shape)
y = np.ones(op.size)
for _ in range(200):
    op.apply(y)  # on two threads, which makes the helpers again
    assert operator_mod._helpers is not None
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
""")
        assert counts == [1] * 200

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_one_part_when_confined_to_one_core(self):
        # as under ``taskset -c 0``: the affinity set, not the machine, counts
        cores = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cores)})
        try:
            assert operator_mod._cores() == 1 and operator_mod._threads() == 1
        finally:
            os.sched_setaffinity(0, cores)


class TestCompiledRoutines:
    """``dpttrf`` and ``dpttrs`` as ``_chain_parts`` binds them, and
    ``csr_matvec`` as the operator calls it, against scipy's own wrappers."""

    @staticmethod
    def chain(lines, rows, seed=3):
        """Row scales of a chain of ``lines`` lines of ``rows`` rows."""
        return np.random.default_rng(seed).uniform(0.5, 4.0, (lines, rows))

    @staticmethod
    def solve(parts):
        """Overwrite a chain's right-hand sides with the solution, part after part."""
        for part in parts:
            operator_mod._solve(*part[2:])

    # 40 lines of three rows and 40 of one row, zero couplings between
    # them, with one and with seven right-hand sides; one line of two rows
    @pytest.mark.parametrize("lines, columns", [(40, 1), (40, 7), (0, 3)])
    def test_bitwise_equal_to_scipy(self, lines, columns):
        w = 0.37
        for r in [self.chain(lines, 3), self.chain(lines, 1)] if lines else [np.array([1.5, 0.8])]:
            rows = r.shape[-1]
            ends = np.arange(r.size) % rows == rows - 1
            flat = r.reshape(-1)
            b = np.asfortranarray(np.random.default_rng(5).normal(size=(r.size, columns)))
            d0 = flat + 2.0 * w
            d0[ends] = flat[ends] + w
            e0 = np.where(ends[:-1], 0.0, -w)
            assert (e0 == 0.0).any() == (lines > 0)
            d1, e1, info = lapack.dpttrf(d0, e0)
            assert info == 0
            x1, info = lapack.dpttrs(d1, e1, b)
            assert info == 0
            rhs = b.T.reshape(columns, *r.shape)  # chain layout: the rows on the trailing axes
            parts = operator_mod._chain_parts(r, w, rhs)  # one part: the whole factor
            assert np.shares_memory(parts[0][2], b)
            assert np.array_equal(parts[0][3], d1) and np.array_equal(parts[0][4], e1)
            self.solve(parts)
            assert rhs.flags.c_contiguous and np.array_equal(rhs.reshape(columns, -1), x1.T)
            x = rhs[0].copy()
            self.solve(operator_mod._chain_parts(r, w, x))
            assert np.array_equal(x.reshape(-1), lapack.dpttrs(d1, e1, rhs[0].reshape(-1))[0])

    def test_parts_outlive_their_chain(self):
        # a part passes bare addresses to LAPACK, so it must hold every
        # array behind them; arrays this small are reused once freed
        r, w = self.chain(4, 3), 0.37
        b = np.random.default_rng(5).normal(size=(5, *r.shape))
        expected = b.copy()
        self.solve(operator_mod._chain_parts(r, w, expected))
        parts = operator_mod._chain_parts(r, w, b)
        gc.collect()
        litter = [np.full(size, 1e300) for size in (r.size, r.size - 1, 2 * r.size) for _ in range(8)]
        for part in parts:
            operator_mod._solve(*part[2:])
        assert len(litter) == 24 and np.array_equal(b, expected)

    @staticmethod
    def forbid_lapack(monkeypatch):
        def called(*args):
            raise AssertionError("LAPACK was called")

        monkeypatch.setattr(operator_mod, "_dpttrs", called)
        monkeypatch.setattr(operator_mod, "_dpttrf", called)

    def test_bad_arguments_rejected_before_lapack(self, monkeypatch):
        self.forbid_lapack(monkeypatch)
        r, b = np.full(4, 3.0), np.ones((2, 4))
        frozen = np.ones(4)
        frozen.flags.writeable = False
        big = 2**31  # broadcast views: sizes past a C int without the memory
        bad = {  # (r, b) at w = 0.5, or (r, b, w)
            "float64": [(r.astype(np.float32), b), (r, b.astype(np.float32)),
                        (r, b, np.float32(0.5)), (r, b, 1)],  # e takes the type of w
            "shape": [(r, b[:, :3]), (r, np.ones(())), (r, np.ones((4, 2), order="F"))],
            "32-bit": [(np.broadcast_to(3.0, big), np.broadcast_to(1.0, big)),
                       (r, np.broadcast_to(1.0, (big, 4)))],
            "contiguous": [(r, np.ones((2, 4), order="F")), (r, np.ones((2, 8))[:, ::2])],
            "writable": [(r, frozen)],
        }
        for match, cases in bad.items():
            for r_, b_, *w in cases:
                with pytest.raises(ValueError, match=match):
                    operator_mod._chain_parts(r_, *(w or [0.5]), b_)

    def test_indefinite_chain_raises(self):
        with pytest.raises(FloatingPointError, match="info=2"):
            operator_mod._chain_parts(np.array([1.0, -1.0]), 0.0, np.ones(2))

    @pytest.mark.parametrize("shape", [(1,), (3, 1)])
    def test_one_row_chain_divides(self, monkeypatch, shape):
        self.forbid_lapack(monkeypatch)
        r, w = np.array([0.8]), 0.37
        b = np.random.default_rng(5).normal(size=shape)
        expected = b / (r[0] + w)
        self.solve(operator_mod._chain_parts(r, w, b))
        assert np.array_equal(b, expected)

    def test_csr_product_equal_to_scipy(self):
        op, *_ = make_operator((6, 5))
        indptr, columns, values = op._matrix
        matrix = scipy.sparse.csr_array((values, columns, indptr), shape=(op.size, op.size))
        y = rng().normal(size=op.size)
        assert np.array_equal(op.apply(y), matrix @ y)
        assert np.array_equal(op.apply(y[::-1]), matrix @ y[::-1])  # a strided input

    def test_bad_csr_arrays_rejected(self):
        op, *_ = make_operator((6, 5))
        indptr, columns, values = op._matrix
        size = op.size
        assert all(x is y for x, y in zip(operator_mod._csr(values, columns, indptr, size), op._matrix))
        shifted = indptr.copy()
        shifted[0] = 1
        falling = indptr.copy()
        falling[10], falling[11] = falling[11], falling[10]
        assert falling[10] > falling[11]
        for col in (-1, size):
            wrong = columns.copy()
            wrong[7] = col
            with pytest.raises(ValueError, match="column"):
                operator_mod._csr(values, wrong, indptr, size)
        for args in ((values, columns, indptr[:-1], size), (values, columns, shifted, size),
                     (values[:-1], columns[:-1], indptr, size), (values, columns[:-1], indptr, size)):
            with pytest.raises(ValueError, match="frame"):
                operator_mod._csr(*args)
        with pytest.raises(ValueError, match="decrease"):
            operator_mod._csr(values, columns, falling, size)

    def test_capsule_signature_checked(self):
        assert operator_mod._routine("dpttrf", "void (int *, d *, d *, int *)")
        for wrong in ("void (int *, d *, d *)", "void (long *, d *, d *, int *)"):
            with pytest.raises(ImportError, match="dpttrf"):
                operator_mod._routine("dpttrf", wrong)

    def test_loader_falls_back_to_a_normal_import(self, monkeypatch):
        from scipy.linalg import cython_lapack
        from scipy.sparse import _sparsetools

        monkeypatch.setattr(operator_mod, "PathFinder", types.SimpleNamespace(find_spec=lambda *a: None))
        assert operator_mod._extension("linalg", "cython_lapack") is cython_lapack
        assert operator_mod._extension("sparse", "_sparsetools") is _sparsetools


class TestCoefficientGuard:
    # an alpha near 1e-160 is rejected (see test_cli); 1e-140 still solves
    def test_small_normal_diffusion_accepted(self):
        market = make_market(sigma=0.3, phi=0.4)
        small = dataclasses.replace(market, alphas=(0.0, 1e-140) + market.alphas[2:])
        shape = GridShape((16, 16), (0.04, 3.5))
        op = GridOperator(small, ProductSpec(CAPLET, 1, 2), shape)
        g = rng().normal(size=shape.total_points) * inner_mask(shape)
        assert np.all(np.isfinite(op.solve_directional(1, 0.3, g)))
        # w*d_j is subnormal here, d_j itself is not
        a_1 = assemble_directional_matrix(op, 1).toarray()
        dense = np.linalg.solve(np.eye(shape.total_points) - 1e-30 * a_1, g)
        k = op.solve_directional(1, 1e-30, g)
        assert np.abs(k - dense).max() <= 1e-13 * np.abs(dense).max()


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
        # affine in each direction on 3D and 4D grids: 1 + x_1 x_2 ... x_N + x_N
        for counts, bounds in [((3, 4, 5), (1.0, 2.0, 3.0)), ((2, 3, 2, 3), (0.5, 1.0, 1.5, 2.0))]:
            shape = GridShape(counts, bounds)
            axes = np.ix_(*(shape.axis_coordinates(r) for r in range(shape.ndim, 0, -1)))
            state = StateVector(shape, (1.0 + math.prod(axes) + axes[0]).reshape(-1))
            for point in [[0.37 * b for b in bounds], list(bounds), [0.0] * len(bounds)]:
                expected = 1.0 + math.prod(point) + point[-1]
                assert interpolate(state, point) == pytest.approx(expected, abs=1e-13)

    def test_outside_domain_rejected(self, market_flat, caplet):
        shape = GridShape((4, 4), (0.04, 3.5))
        state = initial_state(market_flat, caplet, shape)
        with pytest.raises(ValueError):
            interpolate(state, (0.05, 1.0))
        with pytest.raises(ValueError):
            interpolate(state, (0.01, -0.1))

    @pytest.mark.parametrize("point", [(0.01,), (0.01, 1.0, 1.0)])
    def test_point_length_checked(self, market_flat, caplet, point):
        state = initial_state(market_flat, caplet, GridShape((4, 4), (0.04, 3.5)))
        with pytest.raises(ValueError, match="point needs 2 coordinates"):
            interpolate(state, point)


class TestStateVector:
    def test_length_validated(self):
        with pytest.raises(ValueError):
            StateVector(GridShape((4, 4), (1.0, 1.0)), np.zeros(7))
