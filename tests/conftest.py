import os
import subprocess
import sys
from pathlib import Path

import pytest

from ratespde import CAPLET, SWAPTION, DomainSpec, MarketData, ProductSpec

TENOR_DATES = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
FORWARDS = (0.0112, 0.0118, 0.0122, 0.0126, 0.0130, 0.0135)
ALPHAS = (0.0, 0.2366, 0.2145, 0.2221, 0.2068, 0.1932)
STRIKE = 0.011


def make_market(sigma=0.0, phi=0.0, lam=0.1, beta=1.0) -> MarketData:
    return MarketData(
        tenor_dates=TENOR_DATES,
        initial_forwards=FORWARDS,
        alphas=ALPHAS,
        strike=STRIKE,
        sigma=sigma,
        phis=(phi,) * len(FORWARDS),
        lam=lam,
        beta=beta,
    )


@pytest.fixture(scope="session")
def market_flat():
    """Deterministic-volatility market: classical lognormal caplet regime."""
    return make_market(sigma=0.0)


@pytest.fixture(scope="session")
def market_sv():
    """Stochastic-volatility market used by the published experiments."""
    return make_market(sigma=0.3, phi=0.4)


@pytest.fixture(scope="session")
def caplet():
    return ProductSpec(CAPLET, 1, 2)


@pytest.fixture(scope="session")
def swaption3():
    """0.5 x 1 swaption: two forwards plus the volatility state."""
    return ProductSpec(SWAPTION, 1, 3)


@pytest.fixture(scope="session")
def caplet_domain(market_flat, caplet):
    return DomainSpec.for_product(market_flat, caplet, f_max=0.04, v_max=3.5)


def threads_at_forks(body: str) -> list[int]:
    """Run ``body`` in a fresh interpreter, OpenBLAS held to one thread, and
    return the OS thread count of that process at each of its forks.

    The count is read by a before-fork hook registered before ``body``
    imports the engine, so it runs after the engine's own hook: before-fork
    hooks run in reverse order of registration.
    """
    script = """
import os
counts = []

def count():
    with open("/proc/self/stat") as f:
        counts.append(f.read().rsplit(")", 1)[1].split()[17])  # field 20, num_threads

os.register_at_fork(before=count)
""" + body + "\nprint(*counts)\n"
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return [int(c) for c in run.stdout.split()]


_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
