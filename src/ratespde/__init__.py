"""PDE pricing engine for interest-rate derivatives.

Prices caplets and European swaptions under a LIBOR market model with a
common SABR-type stochastic volatility by solving the pricing PDE with
second-order finite differences, a third-order two-stage linearly
implicit time stepper built on directional tridiagonal solves, and
optionally a sparse-grid combination of anisotropic component grids.
"""

from .errors import ComponentSolveError, ConfigError, GridTooLargeError
from .indexing import FlatIndexMap, GridShape
from .market import (
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
from .operator import (
    GridOperator,
    StateVector,
    initial_state,
    interpolate,
)
from .sparse import (
    CombinationPlan,
    CombinationTerm,
    ComponentResult,
    SparseResult,
    combine,
    count_points,
    full_plan,
    modified_plan,
    shape_for_levels,
    solve_component_grids,
    standard_plan,
)
from .stepper import (
    THETA_ORDER3,
    AmfrW2Config,
    StepCounters,
    amfrw2_stage,
    amfrw2_step,
    integrate,
)

__version__ = "0.1.0"

_CLI_NAMES = {"RunConfig", "TableRow", "parse_config", "run", "serialize_config"}


def __getattr__(name: str):
    # the front end loads on first use, so ``python -m ratespde.cli`` does
    # not find the module already imported by its own package
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
