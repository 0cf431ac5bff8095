"""Batch pricing front end.

Reads a sectioned key=value run configuration, prices a combination
plan (a full grid being the one-term plan) for every level and step
count, prints a convergence table and optionally writes it as CSV.  The config grammar
is documented in the README; unknown sections or keys are hard errors so
typos never pass silently.  ``_SECTION_KEYS`` is the one place that
states each key's value type: parsing converts by it and
``serialize_config`` writes by it.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace

from .errors import ComponentSolveError, ConfigError
from .market import (
    CAPLET,
    SWAPTION,
    DomainSpec,
    MarketData,
    ProductSpec,
    black_caplet_price,
    validate_domain,
)
from .sparse import (
    FULL, MODIFIED, CombinationPlan, CombinationTerm, admit, combine, full_plan, modified_plan,
    standard_plan,
)
from .stepper import THETA_ORDER3, AmfrW2Config

SPARSE = "sparse"

DEFAULT_LAMBDA = 0.1
DEFAULT_MAX_NODES = 50_000_000


def _reference(text: str) -> str | float | None:
    """The ``reference`` value: 'black', None for 'none', or a number."""
    return None if text == "none" else text if text == "black" else float(text)


# Each key's value type: a number (float), an integer (int), a
# comma-separated list of either ([float], [int]), text (str) or the
# reference.  Key names are unique across sections, so ``_Raw.lines``
# is keyed by name alone.
_SECTION_KEYS = {
    "market": {
        "tenor_dates": [float],
        "initial_forwards": [float],
        "alphas": [float],
        "phis": [float],
        "phi": float,
        "sigma": float,
        "lambda": float,
        "beta": float,
    },
    "product": {"kind": str, "a": int, "b": int, "strike": float},
    "domain": {"f_max": float, "v_max": float, "v_eval": float, "eval_forwards": [float]},
    "solver": {
        "technique": str,
        "levels": [int],
        "steps": [int],
        "psi": int,
        "theta": float,
        "nu": float,
        "threads": int,
        "max_nodes": int,
    },
    "output": {"csv": str, "reference": _reference},
}
# What a value that fails to convert should have been, alone or listed
_WHAT = {float: "a number", int: "an integer", _reference: "'black', 'none' or a number"}
_WHAT_LISTED = {float: "numbers", int: "integers"}


@dataclass(frozen=True)
class RunConfig:
    market: MarketData
    product: ProductSpec
    domain: DomainSpec
    technique: str
    levels: tuple[int, ...]
    steps: tuple[int, ...]
    psi: int
    theta: float
    nu: float | None
    threads: int | None
    max_nodes: int
    csv_path: str | None
    reference: str | float | None


@dataclass(frozen=True)
class TableRow:
    level: int
    steps: int
    solution_bps: float
    error_bps: float | None
    seconds: float
    grid_points: int


class _Raw:
    """Parsed key=value texts and their line numbers, converted key by key."""

    def __init__(self) -> None:
        self.values: dict[str, dict[str, str]] = {s: {} for s in _SECTION_KEYS}
        self.lines: dict[str, int] = {}

    def take(self, section: str, key: str, default=None):
        """The value of ``key`` as its ``_SECTION_KEYS`` type, or ``default`` if absent."""
        text = self.values[section].pop(key, None)
        if text is None:
            return default
        kind, line = _SECTION_KEYS[section][key], self.lines[key]
        if not isinstance(kind, list):
            try:
                return kind(text)
            except ValueError:
                raise ConfigError(f"expected {_WHAT[kind]}, got {text!r}", line) from None
        what = f"a comma-separated list of {_WHAT_LISTED[kind[0]]}"
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"expected {what}", line)
        try:
            return tuple(kind[0](p) for p in parts)
        except ValueError:
            raise ConfigError(f"expected {what}, got {text!r}", line) from None

    def require(self, section: str, key: str):
        if key not in self.values[section]:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")
        return self.take(section, key)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run configuration; errors carry line numbers."""
    raw = _Raw()
    section: str | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("malformed section header", line_no)
            name = stripped[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise ConfigError(f"unknown section [{name}]", line_no)
            section = name
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line_no)
        if section is None:
            raise ConfigError("key outside any section", line_no)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SECTION_KEYS[section]:
            raise ConfigError(f"unknown key '{key}' in section [{section}]", line_no)
        if key in raw.values[section]:
            raise ConfigError(f"duplicate key '{key}' in section [{section}]", line_no)
        if not value:
            raise ConfigError(f"empty value for '{key}'", line_no)
        raw.values[section][key] = value
        raw.lines[key] = line_no

    market = _build_market(raw)
    product = _build_product(raw)
    domain = _build_domain(raw, market, product)
    return _build_solver_output(raw, market, product, domain)


def _build_market(raw: _Raw) -> MarketData:
    dates = raw.require("market", "tenor_dates")
    forwards = raw.require("market", "initial_forwards")
    alphas = raw.require("market", "alphas")
    sigma = raw.require("market", "sigma")
    beta = raw.require("market", "beta")
    lam = raw.take("market", "lambda", DEFAULT_LAMBDA)
    if "phis" in raw.lines and "phi" in raw.lines:
        raise ConfigError("give either 'phi' or 'phis', not both", raw.lines["phi"])
    phis = raw.take("market", "phis") or (raw.take("market", "phi", 0.0),) * len(forwards)
    strike = raw.require("product", "strike")
    try:
        return MarketData(dates, forwards, alphas, strike, sigma, phis, lam, beta)
    except ValueError as err:
        raise ConfigError(f"invalid market data: {err}") from None


def _build_product(raw: _Raw) -> ProductSpec:
    kind = raw.require("product", "kind")
    if kind not in (CAPLET, SWAPTION):
        raise ConfigError(f"unknown product kind {kind!r}", raw.lines["kind"])
    a = raw.require("product", "a")
    b = raw.take("product", "b", a + 1 if kind == CAPLET else None)
    if b is None:
        raise ConfigError("swaptions need 'b' in section [product]")
    try:
        return ProductSpec(kind, a, b)
    except ValueError as err:
        raise ConfigError(f"invalid product: {err}") from None


def _build_domain(raw: _Raw, market: MarketData, product: ProductSpec) -> DomainSpec:
    f_max = raw.require("domain", "f_max")
    v_max = raw.require("domain", "v_max")
    v_eval = raw.take("domain", "v_eval", 1.0)
    eval_forwards = raw.take("domain", "eval_forwards")
    try:
        return DomainSpec.for_product(market, product, f_max, v_max, v_eval, eval_forwards)
    except ValueError as err:
        raise ConfigError(f"invalid domain: {err}") from None


def _plan(technique: str, level: int, dims: int, psi: int) -> CombinationPlan:
    """One level's plan; the plan builders own the level-range rules."""
    if technique == FULL:
        return full_plan(level, dims)
    if technique == SPARSE:
        return standard_plan(level, dims)
    return modified_plan(level, dims, psi, allow_large_psi=True)


def _build_solver_output(
    raw: _Raw, market: MarketData, product: ProductSpec, domain: DomainSpec
) -> RunConfig:
    technique = raw.require("solver", "technique")
    if technique not in (FULL, SPARSE, MODIFIED):
        raise ConfigError(f"unknown technique {technique!r}", raw.lines["technique"])
    levels = raw.require("solver", "levels")
    steps = raw.require("solver", "steps")
    if any(s < 1 for s in steps):
        raise ConfigError("steps must be positive", raw.lines["steps"])
    if technique != MODIFIED and "psi" in raw.lines:
        raise ConfigError("'psi' only applies to technique 'modified'", raw.lines["psi"])
    psi = raw.take("solver", "psi", None if technique == MODIFIED else 0)
    if psi is None:
        raise ConfigError("technique 'modified' needs 'psi' in section [solver]")
    if psi < 0:
        raise ConfigError("psi must be nonnegative", raw.lines["psi"])
    dims = product.dimension
    for level in levels:  # a level of at least dims - 1 is in range: build no larger plan
        try:
            _plan(technique, min(level, dims - 1), dims, psi)
        except ValueError as err:
            raise ConfigError(str(err), raw.lines["levels"]) from None
    theta = raw.take("solver", "theta", THETA_ORDER3)
    if not 0.0 < theta < math.inf:
        raise ConfigError("theta must be positive and finite", raw.lines["theta"])
    nu = raw.take("solver", "nu")
    if nu is not None and not 0.0 < nu < math.inf:
        raise ConfigError("nu must be positive and finite", raw.lines["nu"])
    threads = raw.take("solver", "threads")
    if threads is not None and threads < 1:
        raise ConfigError("threads must be at least 1", raw.lines["threads"])
    max_nodes = raw.take("solver", "max_nodes", DEFAULT_MAX_NODES)
    if max_nodes < 1:
        raise ConfigError("max_nodes must be at least 1", raw.lines["max_nodes"])
    csv_path = raw.take("output", "csv")
    reference = raw.take("output", "reference")
    if reference == "black":
        if product.kind != CAPLET or market.sigma != 0.0:
            raise ConfigError(
                "reference 'black' is only valid for caplets with sigma = 0", raw.lines["reference"]
            )
        try:  # the price must exist, not only the product
            black_caplet_price(market, product.expiry_index)
        except ValueError as err:
            raise ConfigError(str(err), raw.lines["reference"]) from None
    elif reference is not None and not math.isfinite(reference):
        raise ConfigError("reference must be finite", raw.lines["reference"])
    return RunConfig(
        market,
        product,
        domain,
        technique,
        levels,
        steps,
        psi,
        theta,
        nu,
        threads,
        max_nodes,
        csv_path,
        reference,
    )


def _write(value, kind) -> str:
    """``value`` as text that its ``_SECTION_KEYS`` type ``kind`` converts back to it."""
    if isinstance(kind, list):
        return ", ".join(_write(v, kind[0]) for v in value)
    return repr(float(value)) if kind is float else str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back reproduces the config exactly.

    A key whose value is None is left out, so it takes its default.
    """
    m, p, d = cfg.market, cfg.product, cfg.domain
    sections = {
        "market": {
            "tenor_dates": m.tenor_dates,
            "initial_forwards": m.initial_forwards,
            "alphas": m.alphas,
            "phis": m.phis,
            "sigma": m.sigma,
            "lambda": m.lam,
            "beta": m.beta,
        },
        "product": {"kind": p.kind, "a": p.expiry_index, "b": p.end_index, "strike": m.strike},
        "domain": {
            "f_max": d.f_max,
            "v_max": d.v_max,
            "v_eval": d.eval_point[-1],
            "eval_forwards": d.eval_point[:-1],
        },
        "solver": {
            "technique": cfg.technique,
            "levels": cfg.levels,
            "steps": cfg.steps,
            "psi": cfg.psi if cfg.technique == MODIFIED else None,
            "theta": cfg.theta,
            "nu": cfg.nu,
            "threads": cfg.threads,
            "max_nodes": cfg.max_nodes,
        },
        "output": {
            "csv": cfg.csv_path,
            "reference": "none" if cfg.reference is None else cfg.reference,
        },
    }
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if value is not None:
                lines.append(f"{key} = {_write(value, _SECTION_KEYS[section][key])}")
        lines.append("")
    return "\n".join(lines)


def _resolve_reference(cfg: RunConfig) -> float | None:
    if cfg.reference is None:
        return None
    if cfg.reference == "black":
        return black_caplet_price(cfg.market, cfg.product.expiry_index)
    return float(cfg.reference)


_COLUMNS = (("level", 6), ("steps", 6), ("solution", 12), ("error", 13), ("time", 9), ("grid points", 12))
_HEADER = " ".join(f"{name:>{width}}" for name, width in _COLUMNS)


def _cells(row: TableRow) -> list[str]:
    """The six cells of a row; the table right-aligns them, the CSV writes them."""
    err = f"{row.error_bps:.6e}" if row.error_bps is not None else ""
    return [
        str(row.level),
        str(row.steps),
        f"{row.solution_bps:.6f}",
        err,
        f"{row.seconds:.2f}",
        str(row.grid_points),
    ]


def _format_row(row: TableRow) -> str:
    return " ".join(f"{cell or '-':>{width}}" for cell, (_, width) in zip(_cells(row), _COLUMNS))


def run(cfg: RunConfig, *, quiet: bool = False) -> list[TableRow]:
    """Execute every (steps, level) cell of the schedule and tabulate.

    Every level is admitted (see ``admit``) before the first is priced,
    and each before its plan is built: a plan's first term is its
    largest, so a level is admitted by that term alone.
    """
    for violation in validate_domain(cfg.market, cfg.domain, cfg.product):
        print(f"warning: {violation}", file=sys.stderr)
    reference = _resolve_reference(cfg)
    dims, psi = cfg.product.dimension, cfg.psi
    plans = []
    for level in cfg.levels:
        first = (level,) * dims if cfg.technique == FULL else (level + psi,) + (psi,) * (dims - 1)
        head = CombinationPlan(cfg.technique, level, dims, psi, (CombinationTerm(first, 1),))
        admit(head, cfg.product, cfg.domain, cfg.max_nodes)
        plans.append(_plan(cfg.technique, level, dims, psi))
    rows: list[TableRow] = []
    if not quiet:
        print(_HEADER)
    for steps in cfg.steps:
        int_cfg = AmfrW2Config(num_steps=steps, theta=cfg.theta, nu=cfg.nu)
        for level, plan in zip(cfg.levels, plans):
            result = combine(plan, cfg.market, cfg.product, cfg.domain, int_cfg, threads=cfg.threads)
            value = result.value_bps
            error = abs(value - reference) if reference is not None else None
            row = TableRow(level, steps, value, error, result.seconds, result.total_points)
            rows.append(row)
            if not quiet:
                print(_format_row(row))
    if cfg.csv_path is not None:
        _write_csv(cfg.csv_path, rows)
    return rows


def _write_csv(path: str, rows: list[TableRow]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["level", "steps", "solution_bps", "error_bps", "time_s", "grid_points"]
            )
            writer.writerows(_cells(row) for row in rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_problem(path: str) -> str | None:
    """Why the table could not be written to ``path``, or None."""
    if not path:
        return "the path is empty"
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        return "is a directory"
    if not os.path.isdir(directory):
        return f"directory {directory} does not exist"
    if not os.access(directory, os.W_OK | os.X_OK):
        return "directory not writable"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="price",
        description="Batch interest-rate derivative pricer emitting convergence tables.",
    )
    parser.add_argument("config", help="path to a run configuration file")
    parser.add_argument("--csv", metavar="PATH", help="override the CSV output path")
    parser.add_argument(
        "--threads",
        type=int,
        metavar="K",
        help="worker processes for component-grid solves (default: core count; 1 solves in-process)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the text table")
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")

    try:
        with open(args.config, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is dropped
            text = fh.read()
    except OSError as err:
        print(f"error: cannot read {args.config}: {err}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as err:
        print(f"error: {args.config}: {err}", file=sys.stderr)
        return 2
    if args.csv is not None:
        cfg = replace(cfg, csv_path=args.csv)
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    problem = _csv_problem(cfg.csv_path) if cfg.csv_path is not None else None
    if problem is not None:
        print(f"error: cannot write {cfg.csv_path!r}: {problem}", file=sys.stderr)
        return 2
    try:
        run(cfg, quiet=args.quiet)
    except (ComponentSolveError, FloatingPointError, ConfigError, ValueError, OSError) as err:
        cause = f" ({err.__cause__})" if err.__cause__ is not None else ""
        print(f"error: {err}{cause}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
