"""Batch pricing front end.

Reads a sectioned key=value run configuration, prices a combination
plan (a full grid being the one-term plan) for every level and step
count, prints a convergence table and optionally writes it as CSV.  The config grammar
is documented in the README; unknown sections or keys are hard errors so
typos never pass silently.
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
    DomainSpec,
    MarketData,
    ProductSpec,
    black_caplet_price,
    validate_domain,
)
from .sparse import (
    FULL, MODIFIED, CombinationPlan, admit, combine, full_plan, modified_plan, standard_plan,
)
from .stepper import THETA_ORDER3, AmfrW2Config

SPARSE = "sparse"

DEFAULT_LAMBDA = 0.1
DEFAULT_MAX_NODES = 50_000_000

_SECTION_KEYS = {
    "market": {
        "tenor_dates",
        "initial_forwards",
        "alphas",
        "phis",
        "phi",
        "sigma",
        "lambda",
        "beta",
    },
    "product": {"kind", "a", "b", "strike"},
    "domain": {"f_max", "v_max", "v_eval", "eval_forwards"},
    "solver": {
        "technique",
        "levels",
        "steps",
        "psi",
        "theta",
        "nu",
        "threads",
        "max_nodes",
    },
    "output": {"csv", "reference"},
}


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
    """Parsed key=value pairs with their line numbers, consumed key by key."""

    def __init__(self) -> None:
        self.values: dict[str, dict[str, tuple[str, int]]] = {s: {} for s in _SECTION_KEYS}

    def take(self, section: str, key: str) -> tuple[str, int] | None:
        return self.values[section].pop(key, None)

    def require(self, section: str, key: str) -> tuple[str, int]:
        item = self.take(section, key)
        if item is None:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")
        return item


def _parse_scalar(raw: tuple[str, int], conv, what: str):
    text, line = raw
    try:
        return conv(text)
    except ValueError:
        raise ConfigError(f"expected {what}, got {text!r}", line) from None


def _parse_positive(raw: tuple[str, int], name: str) -> float:
    value = _parse_scalar(raw, float, "a number")
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite", raw[1])
    return value


def _parse_list(raw: tuple[str, int], conv, what: str) -> tuple:
    text, line = raw
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"expected a comma-separated list of {what}", line)
    try:
        return tuple(conv(p) for p in parts)
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of {what}, got {text!r}", line) from None


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
        raw.values[section][key] = (value, line_no)

    market = _build_market(raw)
    product = _build_product(raw)
    domain = _build_domain(raw, market, product)
    return _build_solver_output(raw, market, product, domain)


def _build_market(raw: _Raw) -> MarketData:
    dates = _parse_list(raw.require("market", "tenor_dates"), float, "numbers")
    forwards = _parse_list(raw.require("market", "initial_forwards"), float, "numbers")
    alphas = _parse_list(raw.require("market", "alphas"), float, "numbers")
    sigma = _parse_scalar(raw.require("market", "sigma"), float, "a number")
    beta = _parse_scalar(raw.require("market", "beta"), float, "a number")
    lam_raw = raw.take("market", "lambda")
    lam = _parse_scalar(lam_raw, float, "a number") if lam_raw else DEFAULT_LAMBDA
    phis_raw = raw.take("market", "phis")
    phi_raw = raw.take("market", "phi")
    if phis_raw and phi_raw:
        raise ConfigError("give either 'phi' or 'phis', not both", phi_raw[1])
    if phis_raw:
        phis = _parse_list(phis_raw, float, "numbers")
    elif phi_raw:
        phis = (_parse_scalar(phi_raw, float, "a number"),) * len(forwards)
    else:
        phis = (0.0,) * len(forwards)
    strike = _parse_scalar(raw.require("product", "strike"), float, "a number")
    try:
        return MarketData(dates, forwards, alphas, strike, sigma, phis, lam, beta)
    except ValueError as err:
        raise ConfigError(f"invalid market data: {err}") from None


def _build_product(raw: _Raw) -> ProductSpec:
    kind = raw.require("product", "kind")[0]
    a = _parse_scalar(raw.require("product", "a"), int, "an integer")
    b_raw = raw.take("product", "b")
    if b_raw is not None:
        b = _parse_scalar(b_raw, int, "an integer")
    elif kind == CAPLET:
        b = a + 1
    else:
        raise ConfigError("swaptions need 'b' in section [product]")
    try:
        return ProductSpec(kind, a, b)
    except ValueError as err:
        raise ConfigError(f"invalid product: {err}") from None


def _build_domain(raw: _Raw, market: MarketData, product: ProductSpec) -> DomainSpec:
    f_max = _parse_scalar(raw.require("domain", "f_max"), float, "a number")
    v_max = _parse_scalar(raw.require("domain", "v_max"), float, "a number")
    v_eval_raw = raw.take("domain", "v_eval")
    v_eval = _parse_scalar(v_eval_raw, float, "a number") if v_eval_raw else 1.0
    ef_raw = raw.take("domain", "eval_forwards")
    eval_forwards = _parse_list(ef_raw, float, "numbers") if ef_raw else None
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
    technique_raw = raw.require("solver", "technique")
    technique = technique_raw[0]
    if technique not in (FULL, SPARSE, MODIFIED):
        raise ConfigError(f"unknown technique {technique!r}", technique_raw[1])
    levels_raw = raw.require("solver", "levels")
    levels = _parse_list(levels_raw, int, "integers")
    steps_raw = raw.require("solver", "steps")
    steps = _parse_list(steps_raw, int, "integers")
    if any(s < 1 for s in steps):
        raise ConfigError("steps must be positive", steps_raw[1])
    psi_raw = raw.take("solver", "psi")
    if technique == MODIFIED:
        if psi_raw is None:
            raise ConfigError("technique 'modified' needs 'psi' in section [solver]")
        psi = _parse_scalar(psi_raw, int, "an integer")
        if psi < 0:
            raise ConfigError("psi must be nonnegative", psi_raw[1])
    else:
        if psi_raw is not None:
            raise ConfigError("'psi' only applies to technique 'modified'", psi_raw[1])
        psi = 0
    for level in levels:
        try:
            _plan(technique, level, product.dimension, psi)
        except ValueError as err:
            raise ConfigError(str(err), levels_raw[1]) from None
    theta_raw = raw.take("solver", "theta")
    theta = _parse_positive(theta_raw, "theta") if theta_raw else THETA_ORDER3
    nu_raw = raw.take("solver", "nu")
    nu = _parse_positive(nu_raw, "nu") if nu_raw else None
    threads_raw = raw.take("solver", "threads")
    threads = _parse_scalar(threads_raw, int, "an integer") if threads_raw else None
    if threads is not None and threads < 1:
        raise ConfigError("threads must be at least 1", threads_raw[1])
    cap_raw = raw.take("solver", "max_nodes")
    max_nodes = _parse_scalar(cap_raw, int, "an integer") if cap_raw else DEFAULT_MAX_NODES
    if max_nodes < 1:
        raise ConfigError("max_nodes must be at least 1", cap_raw[1])
    csv_raw = raw.take("output", "csv")
    csv_path = csv_raw[0] if csv_raw else None
    ref_raw = raw.take("output", "reference")
    reference: str | float | None
    if ref_raw is None or ref_raw[0] == "none":
        reference = None
    elif ref_raw[0] == "black":
        if product.kind != CAPLET or market.sigma != 0.0:
            raise ConfigError(
                "reference 'black' is only valid for caplets with sigma = 0", ref_raw[1]
            )
        try:  # the price must exist, not only the product
            black_caplet_price(market, product.expiry_index)
        except ValueError as err:
            raise ConfigError(str(err), ref_raw[1]) from None
        reference = "black"
    else:
        reference = _parse_scalar(ref_raw, float, "'black', 'none' or a number")
        if not math.isfinite(reference):
            raise ConfigError("reference must be finite", ref_raw[1])
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


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back reproduces the config exactly."""
    m, p, d = cfg.market, cfg.product, cfg.domain

    def numbers(values) -> str:
        return ", ".join(repr(float(v)) for v in values)

    lines = [
        "[market]",
        f"tenor_dates = {numbers(m.tenor_dates)}",
        f"initial_forwards = {numbers(m.initial_forwards)}",
        f"alphas = {numbers(m.alphas)}",
        f"phis = {numbers(m.phis)}",
        f"sigma = {m.sigma!r}",
        f"lambda = {m.lam!r}",
        f"beta = {m.beta!r}",
        "",
        "[product]",
        f"kind = {p.kind}",
        f"a = {p.expiry_index}",
        f"b = {p.end_index}",
        f"strike = {m.strike!r}",
        "",
        "[domain]",
        f"f_max = {d.f_max!r}",
        f"v_max = {d.v_max!r}",
        f"v_eval = {d.eval_point[-1]!r}",
        f"eval_forwards = {numbers(d.eval_point[:-1])}",
        "",
        "[solver]",
        f"technique = {cfg.technique}",
        f"levels = {', '.join(str(l) for l in cfg.levels)}",
        f"steps = {', '.join(str(s) for s in cfg.steps)}",
    ]
    if cfg.technique == MODIFIED:
        lines.append(f"psi = {cfg.psi}")
    lines.append(f"theta = {cfg.theta!r}")
    if cfg.nu is not None:
        lines.append(f"nu = {cfg.nu!r}")
    if cfg.threads is not None:
        lines.append(f"threads = {cfg.threads}")
    lines.append(f"max_nodes = {cfg.max_nodes}")
    lines.append("")
    lines.append("[output]")
    if cfg.csv_path is not None:
        lines.append(f"csv = {cfg.csv_path}")
    if cfg.reference is None:
        lines.append("reference = none")
    elif cfg.reference == "black":
        lines.append("reference = black")
    else:
        lines.append(f"reference = {cfg.reference!r}")
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

    Every level's plan is admitted (see ``admit``) before the first is priced.
    """
    for violation in validate_domain(cfg.market, cfg.domain, cfg.product):
        print(f"warning: {violation}", file=sys.stderr)
    reference = _resolve_reference(cfg)
    plans = [_plan(cfg.technique, level, cfg.product.dimension, cfg.psi) for level in cfg.levels]
    for plan in plans:
        admit(plan, cfg.product, cfg.domain, cfg.max_nodes)
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
