"""End-to-end acceptance checks for the pricing engine.

Each test exercises one exit criterion at its stated tolerance and leaves
one PASS/FAIL line in the terminal summary.  The reference prices are
frozen convergence-table values for the hypothetical market data of
``conftest`` (strike 0.011, F_max = 0.04, V_max = 3.5, expiries at half
years); the caplet block additionally has the closed-form lognormal
price as an absolute anchor.  Runtime of the whole module is a few
minutes, dominated by the full-grid swaption consistency check.
"""

import functools
import math

import numpy as np
import pytest

import ratespde.sparse as sparse_mod
from ratespde import (
    AmfrW2Config,
    ComponentSolveError,
    DomainSpec,
    FlatIndexMap,
    GridOperator,
    GridShape,
    GridTooLargeError,
    ProductSpec,
    StepCounters,
    amfrw2_step,
    black_caplet_price,
    combine,
    full_plan,
    initial_state,
    integrate,
    modified_plan,
    solve_component_grid,
    standard_plan,
)

from conftest import make_market, record_acceptance
from reference import (
    ThetaGsConfig,
    ThetaGsIntegrator,
    assemble_directional_matrix,
    assemble_operator_matrix,
)
from test_operator import make_operator

CAPLET = ProductSpec("caplet", 1, 2)
SWAPTION_05X1 = ProductSpec("swaption", 1, 3)

BLACK_REFERENCE = 6.058877

FULL_GRID_16_STEPS = {
    6: 6.082540,
    7: 6.064109,
    8: 6.061870,
    9: 6.058832,
    10: 6.058975,
}

SPARSE_256_STEPS = {8: (6.058984, 1793), 10: (6.058998, 8193), 13: (6.058822, 77825)}

MODIFIED_256_STEPS = {(12, 1): 6.058867, (10, 2): 6.058870}

# The same prices at full precision, frozen from this engine; a 1e-9
# relative match catches regressions far below the convergence gates.
FULL_GRID_16_STEPS_FROZEN = {
    6: 6.082452580466241,
    7: 6.064014380685044,
    8: 6.061774148733998,
    9: 6.0587357925057885,
    10: 6.058878401245231,
}

SPARSE_256_STEPS_FROZEN = {8: 6.058984253985074, 10: 6.05899813575013, 13: 6.058821918141248}

MODIFIED_256_STEPS_FROZEN = {(12, 1): 6.058867097034906, (10, 2): 6.058869950518735}

FROZEN_RTOL = 1e-9

SV_CAPLET_LEVEL9 = 6.023665

SV_CAPLET_LEVEL9_FROZEN = 6.023665398706121

SWAPTION_LEVEL6 = 13.002003

# criterion 6a's price per correlation-decay candidate, full precision
SWAPTION_LEVEL6_FROZEN = {0.05: 13.040035416304372, 0.1: 13.002115624927344, 0.2: 12.928628094999791}

# criterion 6b's full level-8 and sparse level-14 prices, full precision
SWAPTION_FULL_VS_SPARSE_FROZEN = (12.981397428827634, 12.972694881395661)


def check(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    record_acceptance(f"{criterion}: {status} — {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def flat_market():
    return make_market(sigma=0.0)


@pytest.fixture(scope="module")
def sv_market():
    return make_market(sigma=0.3, phi=0.4)


def caplet_domain(market):
    return DomainSpec.for_product(market, CAPLET, f_max=0.04, v_max=3.5)


def test_criterion_1_black_oracle(flat_market):
    price = black_caplet_price(flat_market, 1)
    gap = abs(price - BLACK_REFERENCE)
    check(
        "criterion 1 (closed-form caplet anchor)",
        gap <= 5e-6,
        f"price {price:.7f} bps vs {BLACK_REFERENCE} (|diff| {gap:.2e} <= 5e-06)",
    )


def test_criterion_2_full_grid_caplet_table():
    # exercised through the batch front end so the whole artifact is on the hook
    from ratespde import parse_config, run

    config = parse_config(
        """
[market]
tenor_dates = 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0
initial_forwards = 0.0112, 0.0118, 0.0122, 0.0126, 0.0130, 0.0135
alphas = 0.0, 0.2366, 0.2145, 0.2221, 0.2068, 0.1932
sigma = 0.0
beta = 1.0
[product]
kind = caplet
a = 1
strike = 0.011
[domain]
f_max = 0.04
v_max = 3.5
[solver]
technique = full
levels = 6, 7, 8, 9, 10
steps = 16
[output]
reference = black
"""
    )
    rows = run(config, quiet=True)
    worst = 0.0
    cells = []
    for row in rows:
        expected = FULL_GRID_16_STEPS[row.level]
        worst = max(worst, abs(row.solution_bps - expected))
        assert row.grid_points == (2**row.level + 1) ** 2
        assert row.error_bps is not None
        cells.append(f"L{row.level}={row.solution_bps:.6f}")
    check(
        "criterion 2 (full-grid caplet, 16 steps, levels 6-10)",
        worst <= 1e-3,
        f"{' '.join(cells)}; worst |diff| {worst:.2e} <= 1e-03",
    )
    for row in rows:
        frozen = FULL_GRID_16_STEPS_FROZEN[row.level]
        assert row.solution_bps == pytest.approx(frozen, rel=FROZEN_RTOL, abs=0.0)


def test_criterion_3_standard_sparse_caplet(flat_market):
    domain = caplet_domain(flat_market)
    cfg = AmfrW2Config(num_steps=256)
    worst = 0.0
    points_ok = True
    rows = []
    values = {}
    for level, (expected, expected_points) in SPARSE_256_STEPS.items():
        plan = standard_plan(level, 2)
        result = combine(plan, flat_market, CAPLET, domain, cfg, threads=2)
        values[level] = result.value_bps
        gap = abs(result.value_bps - expected)
        worst = max(worst, gap)
        points_ok = points_ok and result.total_points == expected_points
        rows.append(f"L{level}={result.value_bps:.6f}/{result.total_points}pts")
    check(
        "criterion 3 (standard combination caplet, 256 steps)",
        worst <= 1e-3 and points_ok,
        f"{' '.join(rows)}; worst |diff| {worst:.2e} <= 1e-03, point counts exact: {points_ok}",
    )
    for level, frozen in SPARSE_256_STEPS_FROZEN.items():
        assert values[level] == pytest.approx(frozen, rel=FROZEN_RTOL, abs=0.0)


def test_criterion_4_modified_sparse_caplet(flat_market):
    domain = caplet_domain(flat_market)
    cfg = AmfrW2Config(num_steps=256)
    worst = 0.0
    rows = []
    values = {}
    for (level, psi), expected in MODIFIED_256_STEPS.items():
        plan = modified_plan(level, 2, psi)
        result = combine(plan, flat_market, CAPLET, domain, cfg, threads=2)
        values[level, psi] = result.value_bps
        gap = abs(result.value_bps - expected)
        worst = max(worst, gap)
        rows.append(f"L{level}/psi{psi}={result.value_bps:.6f}")
    check(
        "criterion 4 (modified combination caplet, 256 steps)",
        worst <= 5e-4,
        f"{' '.join(rows)}; worst |diff| {worst:.2e} <= 5e-04",
    )
    for key, frozen in MODIFIED_256_STEPS_FROZEN.items():
        assert values[key] == pytest.approx(frozen, rel=FROZEN_RTOL, abs=0.0)


def test_criterion_5_stochastic_vol_caplet(sv_market):
    domain = caplet_domain(sv_market)
    value = solve_component_grid(
        (9, 9), sv_market, CAPLET, domain, AmfrW2Config(num_steps=256)
    )
    gap = abs(value - SV_CAPLET_LEVEL9)
    check(
        "criterion 5 (stochastic-vol caplet, level 9, 256 steps)",
        gap <= 2e-3,
        f"value {value:.6f} bps vs {SV_CAPLET_LEVEL9} (|diff| {gap:.2e} <= 2e-03)",
    )
    assert value == pytest.approx(SV_CAPLET_LEVEL9_FROZEN, rel=FROZEN_RTOL, abs=0.0)


@functools.lru_cache(maxsize=1)
def _swaption_lambda_calibration() -> dict[float, float]:
    """Level-6 full-grid 0.5x1 swaption price per correlation-decay candidate."""
    values = {}
    for lam in (0.05, 0.1, 0.2):
        market = make_market(sigma=0.3, phi=0.4, lam=lam)
        domain = DomainSpec.for_product(market, SWAPTION_05X1, 0.04, 3.5)
        values[lam] = solve_component_grid(
            (6, 6, 6), market, SWAPTION_05X1, domain, AmfrW2Config(num_steps=32)
        )
    return values


def test_criterion_6a_swaption_lambda_convention():
    values = _swaption_lambda_calibration()
    gaps = {lam: abs(v - SWAPTION_LEVEL6) for lam, v in values.items()}
    best = min(gaps, key=gaps.get)
    check(
        "criterion 6a (swaption correlation-decay calibration)",
        gaps[best] <= 2e-2,
        f"lambda={best} gives {values[best]:.6f} bps vs {SWAPTION_LEVEL6} "
        f"(|diff| {gaps[best]:.2e} <= 2e-02; candidates {sorted(gaps)})",
    )
    for lam, frozen in SWAPTION_LEVEL6_FROZEN.items():
        assert values[lam] == pytest.approx(frozen, rel=FROZEN_RTOL, abs=0.0)


@pytest.mark.slow
def test_criterion_6b_swaption_full_vs_sparse():
    values = _swaption_lambda_calibration()
    best = min(values, key=lambda lam: abs(values[lam] - SWAPTION_LEVEL6))
    market = make_market(sigma=0.3, phi=0.4, lam=best)
    domain = DomainSpec.for_product(market, SWAPTION_05X1, 0.04, 3.5)
    cfg = AmfrW2Config(num_steps=16)
    full = solve_component_grid((8, 8, 8), market, SWAPTION_05X1, domain, cfg)
    sparse = combine(
        standard_plan(14, 3), market, SWAPTION_05X1, domain, cfg, threads=2
    ).value_bps
    gap = abs(full - sparse)
    check(
        "criterion 6b (swaption full level 8 vs sparse level 14)",
        gap <= 2e-2,
        f"full {full:.6f} vs sparse {sparse:.6f} bps (|diff| {gap:.2e} <= 2e-02, lambda={best})",
    )
    frozen_full, frozen_sparse = SWAPTION_FULL_VS_SPARSE_FROZEN
    assert full == pytest.approx(frozen_full, rel=FROZEN_RTOL, abs=0.0)
    assert sparse == pytest.approx(frozen_sparse, rel=FROZEN_RTOL, abs=0.0)


def test_criterion_7_temporal_orders(sv_market, flat_market):
    # third-order stepper, self-convergence on a fixed level-8 grid
    domain = caplet_domain(sv_market)
    shape = GridShape((256, 256), domain.grid_bounds(2))
    op = GridOperator(sv_market, CAPLET, shape)
    y0 = initial_state(sv_market, CAPLET, shape).values
    reference = integrate(op, y0, 0.5, AmfrW2Config(num_steps=256))
    errors = []
    for steps in (2, 4, 8):
        state = integrate(op, y0, 0.5, AmfrW2Config(num_steps=steps))
        errors.append(np.abs(state - reference).max())
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]

    # second-order reference integrator on a small grid
    shape5 = GridShape((32, 32), domain.grid_bounds(2))
    op5 = GridOperator(flat_market, CAPLET, shape5)
    z0 = initial_state(flat_market, CAPLET, shape5).values
    zref = ThetaGsIntegrator(
        op5, 0.5, ThetaGsConfig(num_steps=2048, theta=0.5, sweeps=3)
    ).run(z0)
    gs_errors = []
    for steps in (64, 128, 256):
        z = ThetaGsIntegrator(
            op5, 0.5, ThetaGsConfig(num_steps=steps, theta=0.5, sweeps=3)
        ).run(z0)
        gs_errors.append(np.abs(z - zref).max())
    gs_slope = math.log2(gs_errors[0] / gs_errors[-1]) / 2.0

    ok = min(orders) >= 2.7 and 1.7 <= gs_slope <= 2.3
    check(
        "criterion 7 (temporal orders)",
        ok,
        f"two-stage stepper orders {[f'{o:.2f}' for o in orders]} (need >= 2.7); "
        f"theta/Gauss-Seidel slope {gs_slope:.2f} (need within [1.7, 2.3])",
    )


def test_criterion_8a_index_round_trips():
    shapes = [
        (3,),
        (99,),
        (4, 4),
        (1, 63),
        (19, 23),
        (3, 4, 5),
        (15, 1, 31),
        (9, 9, 9),
        (2, 3, 2, 3),
        (7, 3, 5, 2),
        (2, 2, 2, 2, 2),
        (5, 2, 3, 2, 5),
    ]
    total = 0
    for counts in shapes:
        for lower in (0, 1):
            fm = FlatIndexMap((lower,) * len(counts), tuple(c + lower for c in counts))
            assert fm.size <= 10_000
            flats = np.arange(fm.start, fm.stop)
            assert np.array_equal(fm.encode_array(fm.decode_array(flats)), flats)
            total += fm.size
    check(
        "criterion 8a (encode/decode round-trips)",
        True,
        f"exhaustive over {len(shapes)} shapes x 2 lower bounds, {total} indices, N <= 5",
    )


def test_criterion_8b_operator_vs_assembled_matrix():
    worst = 0.0
    for counts in [(6, 6), (4, 5, 3), (2, 3, 2, 3)]:
        op, *_ = make_operator(counts)
        matrix = assemble_operator_matrix(op)
        y = np.random.default_rng(7).normal(size=op.shape.total_points)
        scale = np.abs(matrix).max() * np.abs(y).max()
        gap = np.abs(op.apply(y) - matrix @ y).max() / scale
        worst = max(worst, gap)
    check(
        "criterion 8b (stencils vs assembled matrix, N in {2,3,4})",
        worst <= 1e-13,
        f"worst relative deviation {worst:.2e} <= 1e-13",
    )


def test_criterion_8c_directional_residuals():
    worst = 0.0
    for counts in [(6, 5), (5, 6, 4), (16, 2), (1, 12)]:
        op, *_ = make_operator(counts)
        g = np.random.default_rng(11).normal(size=op.shape.total_points)
        g *= op.shape.inner_mask()
        for i in range(1, op.n_directions + 1):
            k = op.solve_directional(i, 0.8, g)
            residual = np.abs(k - 0.8 * (assemble_directional_matrix(op, i) @ k) - g).max()
            worst = max(worst, residual / np.abs(g).max())
    check(
        "criterion 8c (directional solve residuals)",
        worst <= 1e-12,
        f"worst relative residual {worst:.2e} <= 1e-12",
    )


def test_criterion_8d_weight_normalisation():
    checked = 0
    ok = True
    for dims in range(1, 7):
        for level in range(dims - 1, 13):
            for psi in (0, 1, 2):
                ok = ok and modified_plan(level, dims, psi).weight_sum() == 1
                checked += 1
    check(
        "criterion 8d (combination weights sum to 1)",
        ok,
        f"{checked} plans over d <= 6, n <= 12, psi <= 2",
    )


def test_criterion_8e_constant_stub_exact(flat_market, monkeypatch):
    domain = caplet_domain(flat_market)
    constant = 123.4375  # dyadic so weighted sums are exact in binary
    monkeypatch.setattr(
        sparse_mod, "solve_component_grids", lambda levels, *a, **k: [constant] * len(levels)
    )
    result = combine(standard_plan(9, 2), flat_market, CAPLET, domain, AmfrW2Config(num_steps=1))
    check(
        "criterion 8e (constant-solution stub combines exactly)",
        result.value_bps == constant,
        f"combined {result.value_bps!r} == stub {constant!r}",
    )


def test_criterion_8f_thread_determinism(flat_market):
    domain = caplet_domain(flat_market)
    cfg = AmfrW2Config(num_steps=8)
    plan = standard_plan(7, 2)
    values = {
        workers: combine(plan, flat_market, CAPLET, domain, cfg, threads=workers).value_bps
        for workers in (1, 4, None)
    }
    distinct = set(values.values())
    check(
        "criterion 8f (thread-count determinism)",
        len(distinct) == 1,
        f"combined value bitwise identical across 1/4/max workers: {distinct}",
    )


def test_criterion_9_cost_accounting(sv_market):
    details = []
    ok = True
    for counts in [(8, 8), (4, 4, 4)]:
        op, *_ = make_operator(counts)
        n = op.n_directions
        counters = StepCounters()
        amfrw2_step(op, np.zeros(op.shape.total_points), 0.1, AmfrW2Config(num_steps=1), counters)
        ok = ok and counters.rhs_evals == 4
        ok = ok and counters.directional_solves == 4 * n
        details.append(
            f"N={n}: {counters.rhs_evals} evals, {counters.directional_solves} solves"
        )
    check(
        "criterion 9 (per-step cost accounting)",
        ok,
        "; ".join(details) + " (4 evaluations and 2N directional sweeps per stage, "
        "i.e. 4N per two-stage step)",
    )


def test_high_dimensional_run_starts_and_admits():
    market = make_market(sigma=0.3, phi=0.4, lam=0.1)
    product = ProductSpec("swaption", 1, 6)  # five forwards plus volatility
    domain = DomainSpec.for_product(market, product, 0.04, 3.5)
    cfg = AmfrW2Config(num_steps=2)

    with pytest.raises(ComponentSolveError) as err:
        combine(full_plan(7, 6), market, product, domain, cfg, max_nodes=50_000_000)
    assert isinstance(err.value.__cause__, GridTooLargeError)

    plan = standard_plan(8, 6)
    result = combine(plan, market, product, domain, cfg, threads=2, max_nodes=1_000_000)
    ok = math.isfinite(result.value_bps) and len(result.components) == len(plan)
    check(
        "high-dimensional smoke (6-dimensional plan runs, full grid admission-controlled)",
        ok,
        f"d=6 n=8 combination: {result.value_bps:.6f} bps from {len(plan)} grids, "
        "price not checked (the plain plan is pre-asymptotic at d >= 4); "
        "isotropic level-7 full grid rejected by the node cap",
    )
