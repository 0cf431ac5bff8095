"""Regression goldens: frozen prices and operator values.

Kept apart from the acceptance criteria, whose bounds are fixed by the
specification.  The values were computed by the engine as it stood and
are compared at 1e-12 relative, tight enough to notice a tenfold growth
of the discretisation error on any of them.  A change that alters them
on purpose must say why and refreeze them.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ratespde import SWAPTION, GridOperator, GridShape, ProductSpec, parse_config, run

from conftest import make_market

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REL = 1e-12


@pytest.mark.parametrize(
    "name,level,steps,price_bps",
    [
        ("caplet_full", 6, 16, 6.082452580466241),
        ("caplet_sparse", 6, 16, 6.052661316829315),
        ("swaption_modified", 6, 16, 12.658886972169505),
    ],
)
def test_config_first_level_price(name, level, steps, price_bps):
    cfg = parse_config((CONFIGS / f"{name}.txt").read_text())
    cfg = replace(cfg, levels=cfg.levels[:1], steps=cfg.steps[:1], csv_path=None)
    (row,) = run(cfg, quiet=True)
    assert (row.level, row.steps) == (level, steps)
    assert row.solution_bps == pytest.approx(price_bps, rel=REL, abs=0.0)


def test_sv_operator_apply():
    market = make_market(sigma=0.3, phi=0.4)
    shape = GridShape((5, 4, 3), (0.04, 0.04, 3.5))
    op = GridOperator(market, ProductSpec(SWAPTION, 1, 3), shape)
    y = np.random.default_rng(20240214).normal(size=shape.total_points)
    out = op.apply(y)
    assert np.linalg.norm(out) == pytest.approx(120.91827766469738, rel=REL, abs=0.0)
    frozen = {
        (1, 1, 1): 0.06504229582516306,
        (2, 3, 1): 0.08295727845908843,
        (5, 4, 3): 55.134916398672964,
        (3, 2, 2): 2.376283891599099,
        (4, 1, 3): 26.515424599496175,
    }
    for j, value in frozen.items():
        assert out[shape.node_map.encode(j)] == pytest.approx(value, rel=REL, abs=0.0)
