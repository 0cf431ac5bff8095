import concurrent.futures
import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ratespde.sparse as sparse_mod
from ratespde import (
    CAPLET,
    SWAPTION,
    AmfrW2Config,
    ComponentSolveError,
    DomainSpec,
    GridTooLargeError,
    ProductSpec,
    combine,
    count_points,
    full_plan,
    modified_plan,
    shape_for_levels,
    solve_component_grids,
    standard_plan,
)

from conftest import make_market


def union_count_bruteforce(plan) -> int:
    """Independent oracle: materialise every grid's points as exact fractions."""
    points = set()
    for term in plan.terms:
        axes = [
            tuple(Fraction(j, 2**level) for j in range(2**level + 1))
            for level in term.levels
        ]
        stack = [()]
        for axis in axes:
            stack = [prefix + (x,) for prefix in stack for x in axis]
        points.update(stack)
    return len(points)


class TestPlans:
    def test_single_dimension_is_one_grid(self):
        plan = standard_plan(7, 1)
        assert [(t.levels, t.weight) for t in plan.terms] == [((7,), 1)]

    def test_two_dimensional_worked_example(self):
        plan = standard_plan(2, 2)
        expected = [
            ((2, 0), 1),
            ((1, 1), 1),
            ((0, 2), 1),
            ((1, 0), -1),
            ((0, 1), -1),
        ]
        assert [(t.levels, t.weight) for t in plan.terms] == expected

    def test_modified_shift_worked_example(self):
        plan = modified_plan(2, 2, 1)
        expected = [
            ((3, 1), 1),
            ((2, 2), 1),
            ((1, 3), 1),
            ((2, 1), -1),
            ((1, 2), -1),
        ]
        assert [(t.levels, t.weight) for t in plan.terms] == expected

    def test_full_plan_is_one_isotropic_term(self):
        plan = full_plan(5, 3)
        assert plan.technique == "full"
        assert [(t.levels, t.weight) for t in plan.terms] == [((5, 5, 5), 1)]

    def test_modified_zero_shift_equals_standard(self):
        assert modified_plan(5, 3, 0) == standard_plan(5, 3)

    def test_level_too_small_rejected(self):
        with pytest.raises(ValueError):
            standard_plan(1, 3)
        standard_plan(2, 3)

    def test_psi_capped_by_default(self):
        with pytest.raises(ValueError):
            modified_plan(8, 2, 3)
        assert modified_plan(8, 2, 3, allow_large_psi=True).psi == 3

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: full_plan(2.5, 2), "level"),
            (lambda: full_plan(3, 2.0), "dims"),
            (lambda: standard_plan(2.5, 2), "level"),
            (lambda: standard_plan(3, 1.5), "dims"),
            (lambda: modified_plan(3, 2, 1.5), "psi"),
            (lambda: modified_plan(3.0, 2, 1), "level"),
            (lambda: modified_plan(8, 2, 3.0, allow_large_psi=True), "psi"),
        ],
    )
    def test_fractional_sizes_rejected(self, build, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            build()

    @pytest.mark.parametrize("dims", range(1, 7))
    def test_weights_sum_to_one_and_counts_match(self, dims):
        for level in range(dims - 1, 13):
            for psi in (0, 1, 2):
                plan = modified_plan(level, dims, psi)
                assert plan.weight_sum() == 1
                expected_grids = sum(
                    math.comb(level - q + dims - 1, dims - 1) for q in range(dims)
                )
                assert len(plan) == expected_grids


class TestCountPoints:
    @pytest.mark.parametrize(
        "plan",
        [
            pytest.param(modified_plan(level, dims, psi), id=f"{level}-{dims}-{psi}")
            for level, dims, psi in [
                (2, 1, 0),
                (4, 1, 1),
                (3, 2, 0),
                (5, 2, 0),
                (4, 2, 1),
                (3, 2, 2),
                (3, 3, 0),
                (5, 3, 0),
                (4, 3, 1),
                (4, 4, 0),
                (5, 4, 1),
            ]
        ]
        + [
            pytest.param(full_plan(level, dims), id=f"full-{level}-{dims}")
            for level, dims in [(0, 2), (3, 1), (4, 2), (3, 3), (2, 4)]
        ],
    )
    def test_matches_bruteforce_union(self, plan):
        assert count_points(plan) == union_count_bruteforce(plan)

    def test_one_dimension_closed_form(self):
        for n in range(0, 12):
            assert count_points(standard_plan(n, 1)) == 2**n + 1

    @pytest.mark.parametrize(
        "level,dims,psi,published",
        [
            (6, 2, 0, 385),
            (8, 2, 0, 1793),
            (10, 2, 0, 8193),
            (13, 2, 0, 77825),
            (14, 2, 0, 163841),
            (8, 3, 0, 8705),
            (15, 3, 0, 2318337),
            (12, 4, 0, 1064961),
            (17, 4, 0, 63242241),
            (7, 2, 1, 2817),
            (12, 2, 1, 131073),
            (10, 2, 2, 106497),
            (14, 2, 2, 2228225),
        ],
    )
    def test_published_grid_point_columns(self, level, dims, psi, published):
        assert count_points(modified_plan(level, dims, psi)) == published


class TestComponentSolve:
    def test_full_grid_equals_isotropic_component(self, market_flat, caplet, caplet_domain):
        cfg = AmfrW2Config(num_steps=4)
        value = solve_component_grids([(5, 5)], market_flat, caplet, caplet_domain, cfg)[0]
        again = solve_component_grids([(5, 5)], market_flat, caplet, caplet_domain, cfg)[0]
        assert value == again  # bitwise deterministic

    def test_degenerate_direction_runs(self, market_sv, caplet):
        domain = DomainSpec.for_product(market_sv, caplet, 0.04, 3.5)
        cfg = AmfrW2Config(num_steps=2)
        for levels in [(0, 3), (3, 0), (0, 0)]:
            value = solve_component_grids([levels], market_sv, caplet, domain, cfg)[0]
            assert math.isfinite(value)

    def test_admission_control(self, market_flat, caplet, caplet_domain):
        cfg = AmfrW2Config(num_steps=2)
        with pytest.raises(ComponentSolveError) as err:
            combine(full_plan(6, 2), market_flat, caplet, caplet_domain, cfg, max_nodes=1000)
        assert isinstance(err.value.__cause__, GridTooLargeError)

    def test_level_vector_length_checked(self, market_flat, caplet, caplet_domain):
        cfg = AmfrW2Config(num_steps=2)
        with pytest.raises(ValueError):
            solve_component_grids([(3, 3, 3)], market_flat, caplet, caplet_domain, cfg)[0]

    def test_zero_dynamics_price_is_discounted_interpolated_payoff(self, caplet):
        dead = make_market(sigma=0.0)
        dead = dead.__class__(
            dead.tenor_dates,
            dead.initial_forwards,
            (0.0,) * 6,
            dead.strike,
            0.0,
            dead.phis,
            dead.lam,
            dead.beta,
        )
        domain = DomainSpec.for_product(dead, caplet, 0.04, 3.5)
        from ratespde import initial_state, interpolate

        shape = shape_for_levels((4, 2), caplet, domain)
        frozen = initial_state(dead, caplet, shape)
        expected = 1e4 * dead.discount_factor(2) * interpolate(frozen, domain.eval_point)
        got = solve_component_grids([(4, 2)], dead, caplet, domain, AmfrW2Config(num_steps=3))[0]
        assert got == pytest.approx(expected, rel=1e-15)


class TestCombine:
    def test_constant_solution_stub_reduces_exactly(self, market_flat, caplet, caplet_domain, monkeypatch):
        constant = 41.25
        monkeypatch.setattr(
            sparse_mod, "solve_component_grids", lambda levels, *a, **k: [constant] * len(levels)
        )
        for dims, level in [(2, 6), (3, 7)]:
            plan = standard_plan(level, dims)
            # product dimension must match the plan; reuse the caplet for d=2 only
            if dims != 2:
                continue
            result = combine(plan, market_flat, caplet, caplet_domain, AmfrW2Config(num_steps=1))
            assert result.value_bps == constant

    def test_dimension_one_collapses_to_full_grid(self, market_flat, caplet, caplet_domain):
        cfg = AmfrW2Config(num_steps=4)
        # build a one-dimensional plan over the caplet's 2-d space is not
        # meaningful; instead check that the level-n plan in 2 dims with a
        # single-layer budget reproduces the isotropic grid when d = 1 is
        # emulated by an explicit single-term plan
        full = solve_component_grids([(4, 4)], market_flat, caplet, caplet_domain, cfg)[0]
        single = sparse_mod.CombinationPlan(
            "standard", 4, 2, 0, (sparse_mod.CombinationTerm((4, 4), 1),)
        )
        result = combine(single, market_flat, caplet, caplet_domain, cfg)
        assert result.value_bps == full

    def test_two_row_components_price(self, market_sv, caplet):
        # (1, 0) and (0, 1) are 2 x 1 and 1 x 2 interval grids, whose
        # single-line directions are chains shorter than three rows
        domain = DomainSpec.for_product(market_sv, caplet, 0.04, 3.5)
        result = combine(standard_plan(2, 2), market_sv, caplet, domain, AmfrW2Config(num_steps=2))
        assert math.isfinite(result.value_bps)

    def test_thread_count_does_not_change_bits(self, market_flat, caplet, caplet_domain):
        cfg = AmfrW2Config(num_steps=4)
        plan = standard_plan(5, 2)
        values = [
            combine(plan, market_flat, caplet, caplet_domain, cfg, threads=k).value_bps
            for k in (1, 4, None)
        ]
        assert values[0] == values[1] == values[2]

    def test_component_failure_identified(self, market_flat, caplet, caplet_domain):
        cfg = AmfrW2Config(num_steps=2)
        plan = standard_plan(8, 2)
        with pytest.raises(ComponentSolveError) as err:
            combine(plan, market_flat, caplet, caplet_domain, cfg, max_nodes=200)
        assert err.value.levels in {t.levels for t in plan.terms}
        assert isinstance(err.value.__cause__, GridTooLargeError)

    def test_oversized_component_rejected_before_any_solve(
        self, market_flat, caplet, caplet_domain, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            sparse_mod,
            "solve_component_grids",
            lambda levels, *a, **k: calls.append(levels) or [1.0] * len(levels),
        )
        plan = standard_plan(8, 2)
        cap = 200
        oversized = [
            t.levels
            for t in plan.terms
            if shape_for_levels(t.levels, caplet, caplet_domain).total_points > cap
        ]
        assert 0 < len(oversized) < len(plan)
        with pytest.raises(ComponentSolveError) as err:
            combine(
                plan, market_flat, caplet, caplet_domain, AmfrW2Config(num_steps=1),
                threads=1, max_nodes=cap,
            )
        assert calls == []
        assert err.value.levels == oversized[0]
        assert isinstance(err.value.__cause__, GridTooLargeError)
        assert err.value.__cause__.cap == cap

    def test_first_failure_cancels_pending_solves(
        self, market_flat, caplet, caplet_domain, monkeypatch, tmp_path
    ):
        # workers are forked, so they run this stub; each component it is
        # called with leaves a line in a shared log because the workers'
        # memory is not the test's.  A nonzero cap of 1 makes every
        # component a batch of its own, so there is pending work to cancel
        plan = standard_plan(8, 2)
        failing = plan.terms[0].levels
        log = tmp_path / "calls.log"

        def stub(levels, *args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.writelines(f"{one}\n" for one in levels)
            if failing in levels:
                raise FloatingPointError("non-finite stage value")
            time.sleep(0.2)
            return [1.0] * len(levels)

        monkeypatch.setattr(sparse_mod, "solve_component_grids", stub)
        monkeypatch.setattr(sparse_mod, "MAX_BATCH_NONZEROS", 1)
        with pytest.raises(ComponentSolveError) as err:
            combine(plan, market_flat, caplet, caplet_domain, AmfrW2Config(num_steps=1), threads=2)
        assert err.value.levels == failing
        assert isinstance(err.value.__cause__, FloatingPointError)
        assert len(log.read_text().splitlines()) < len(plan)

    def test_workers_capped_at_cpu_count(self, market_flat, caplet, caplet_domain, monkeypatch):
        # a recording stand-in for the pool runs each solve at submit, so
        # no process starts
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
                sizes.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(sparse_mod, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(
            sparse_mod, "solve_component_grids", lambda levels, *a, **k: [1.0] * len(levels)
        )
        monkeypatch.setattr(sparse_mod, "_cores", lambda: 2)
        plan = standard_plan(6, 2)
        assert len(plan) == 13
        for threads in (3, 10_000, None):
            combine(plan, market_flat, caplet, caplet_domain, AmfrW2Config(num_steps=1), threads=threads)
        assert sizes == [2, 2, 2]

    def test_pool_forked_after_helper_threads(self):
        # pricing a large grid in-process starts the helper threads; the
        # pool forked next must finish, its workers making their own
        # helpers for the large grids of the plan, and match one worker
        # bitwise.  A fresh interpreter bounds a hang by its timeout
        script = """
import ratespde.operator as operator_mod
from ratespde import CAPLET, AmfrW2Config, DomainSpec, ProductSpec, combine, standard_plan
from ratespde import solve_component_grids
from conftest import make_market
operator_mod._threads = lambda: 2
market, caplet = make_market(sigma=0.3, phi=0.4), ProductSpec(CAPLET, 1, 2)
domain = DomainSpec.for_product(market, caplet, f_max=0.04, v_max=3.5)
cfg = AmfrW2Config(num_steps=1)
solve_component_grids([(8, 8)], market, caplet, domain, cfg)
assert operator_mod._helpers[1] is not None
plan = standard_plan(14, 2)  # every grid of its finest layer is over CSR_MAX_NODES
print(*(combine(plan, market, caplet, domain, cfg, threads=k).value_bps.hex() for k in (2, 1)))
"""
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        pooled, alone = run.stdout.split()
        assert pooled == alone

    def test_nonpositive_threads_rejected(self, market_flat, caplet, caplet_domain):
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads"):
                combine(
                    standard_plan(4, 2), market_flat, caplet, caplet_domain,
                    AmfrW2Config(num_steps=1), threads=threads,
                )

    def test_noninteger_threads_rejected(self, market_flat, caplet, caplet_domain, monkeypatch):
        monkeypatch.setattr(
            sparse_mod, "solve_component_grids", lambda levels, *a, **k: [1.0] * len(levels)
        )
        for threads in (1.5, 2.5, "2"):
            with pytest.raises(ValueError, match="threads must be an integer"):
                combine(
                    standard_plan(4, 2), market_flat, caplet, caplet_domain,
                    AmfrW2Config(num_steps=1), threads=threads,
                )

    def test_result_bookkeeping(self, market_flat, caplet, caplet_domain):
        cfg = AmfrW2Config(num_steps=2)
        plan = standard_plan(4, 2)
        result = combine(plan, market_flat, caplet, caplet_domain, cfg, threads=2)
        assert len(result.components) == len(plan)
        assert result.total_points == count_points(plan)
        reduced = sum(c.weight * c.value_bps for c in result.components)
        assert result.value_bps == pytest.approx(reduced, rel=1e-15)
        for comp, term in zip(result.components, plan.terms):
            assert comp.levels == term.levels
            assert comp.weight == term.weight
            assert comp.points == shape_for_levels(term.levels, caplet, caplet_domain).total_points

    def test_plan_dimension_checked(self, market_flat, caplet, caplet_domain):
        with pytest.raises(ValueError):
            combine(standard_plan(4, 3), market_flat, caplet, caplet_domain, AmfrW2Config(num_steps=1))


class TestBatches:
    def test_batch_layout_does_not_change_bits(self, market_sv, caplet):
        # (l, 0) and (0, l) grids have directions of one-row lines, which
        # every batch chains and divides row by row
        domain = DomainSpec.for_product(market_sv, caplet, 0.04, 3.5)
        cfg = AmfrW2Config(num_steps=3)
        levels = [t.levels for t in standard_plan(5, 2).terms]
        assert (5, 0) in levels and (0, 5) in levels
        alone = [solve_component_grids([l], market_sv, caplet, domain, cfg)[0] for l in levels]
        for cuts in ([], [4], [3, 7]):
            values = []
            for lo, hi in zip([0] + cuts, cuts + [len(levels)]):
                values += sparse_mod.solve_component_grids(levels[lo:hi], market_sv, caplet, domain, cfg)
            assert values == alone

    # the all-ones grid chains a single row when alone and joins longer
    # chains in a batch; both divide each row by its pivot.  At most step
    # counts the stage sums absorb a one-ulp change in that row's solve;
    # at these the price shows it
    @pytest.mark.parametrize("dims, steps", [(2, 32), (3, 26)])
    def test_one_row_grid_same_bits_in_every_split(self, market_sv, dims, steps):
        product = ProductSpec(CAPLET, 1, 2) if dims == 2 else ProductSpec(SWAPTION, 1, 3)
        domain = DomainSpec.for_product(market_sv, product, 0.04, 3.5)
        cfg = AmfrW2Config(num_steps=steps)
        levels = [t.levels for t in standard_plan(dims - 1, dims).terms]
        assert (0,) * dims in levels
        alone = [solve_component_grids([l], market_sv, product, domain, cfg)[0] for l in levels]
        for k in range(3):  # 1, 2 and 3 batches
            for cuts in itertools.combinations(range(1, len(levels)), k):
                values = []
                for lo, hi in zip((0,) + cuts, cuts + (len(levels),)):
                    values += sparse_mod.solve_component_grids(levels[lo:hi], market_sv, product, domain, cfg)
                assert values == alone

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nonfinite_component_named_from_inside_a_batch(self, market_sv, caplet, monkeypatch, threads):
        domain = DomainSpec.for_product(market_sv, caplet, 0.04, 3.5)
        plan = standard_plan(5, 2)
        failing = plan.terms[4]
        real = sparse_mod.initial_state

        def poisoned(market, product, shape):
            state = real(market, product, shape)
            if shape == shape_for_levels(failing.levels, product, domain):
                state.values[-1] = math.inf
            return state

        monkeypatch.setattr(sparse_mod, "initial_state", poisoned)
        # forked workers inherit the patch; the failing grid shares its batch
        points = [shape_for_levels(t.levels, caplet, domain).total_points for t in plan.terms]
        assert len(sparse_mod._batches(points, 2, threads)[0]) > 4
        with pytest.raises(ComponentSolveError) as err:
            combine(plan, market_sv, caplet, domain, AmfrW2Config(num_steps=2), threads=threads)
        assert err.value.levels == failing.levels
        assert isinstance(err.value.__cause__, FloatingPointError)

    def test_batches_follow_plan_order_and_balance_nodes(self):
        big = sparse_mod.CSR_MAX_NODES + 1
        assert sparse_mod._batches([10, 20, 30, 40], 2, 1) == [range(0, 4)]
        assert sparse_mod._batches([10, 20, 30, 40], 2, 2) == [range(0, 3), range(3, 4)]
        assert sparse_mod._batches([5] * 9, 2, 3) == [range(0, 3), range(3, 6), range(6, 9)]
        # a grid over the node budget is a batch of its own and cuts the run
        assert sparse_mod._batches([10, big, 30, 40], 2, 1) == [range(0, 1), range(1, 2), range(2, 4)]
        assert sparse_mod._batches([big], 2, 1) == [range(0, 1)]

    def test_batches_respect_the_nonzero_cap(self, monkeypatch):
        monkeypatch.setattr(sparse_mod, "MAX_BATCH_NONZEROS", 14 * 100)  # 100 nodes in 2D
        batches = sparse_mod._batches([40] * 7, 2, 1)
        assert batches == [range(0, 2), range(2, 4), range(4, 6), range(6, 7)]

    def test_component_seconds_split_by_nodes(self, market_flat, caplet, caplet_domain):
        result = combine(standard_plan(4, 2), market_flat, caplet, caplet_domain,
                         AmfrW2Config(num_steps=2), threads=1)
        seconds = [c.seconds for c in result.components]
        assert all(s > 0.0 for s in seconds)
        per_node = {c.seconds / c.points for c in result.components}
        assert max(per_node) <= min(per_node) * (1 + 1e-12)


def test_refinement_improves_caplet_accuracy(market_flat, caplet, caplet_domain):
    # two-level refinement must pay off once the plan resolves the kink;
    # adjacent levels are allowed to wobble
    from ratespde import black_caplet_price

    reference = black_caplet_price(market_flat, 1)
    cfg = AmfrW2Config(num_steps=16)
    errors = {}
    for level in (11, 12, 13, 14):
        result = combine(standard_plan(level, 2), market_flat, caplet, caplet_domain, cfg, threads=2)
        errors[level] = abs(result.value_bps - reference)
    assert errors[13] < errors[11]
    assert errors[14] < errors[12]
