"""Shared fixtures plus a one-line-per-criterion acceptance summary."""
import math
import re

import numpy as np
import pytest

import phasesde as ps

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)_(\w+)", report.nodeid)
    if m:
        _ACCEPTANCE[int(m.group(1))] = (m.group(2), report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        label, outcome = _ACCEPTANCE[num]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(
            f"criterion {num:2d}  {label.replace('_', ' '):<48s} {status}")


@pytest.fixture
def kerr_params():
    """The coupled-oscillator parameters used throughout: chi=g=1, omega=0."""
    return ps.SystemParams(
        omega_a=0.0, omega_b=0.0, chi_a=1.0, chi_b=1.0,
        coupling=ps.CouplingSchedule.constant(1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def ndtri_grid():
    """Uniforms that reach each branch and edge of Cephes ndtri: ulps near 0
    and 1, a logspace sweep, 64 ulps on each side of exp(-2), 1 - exp(-2),
    exp(-32) and 1 - exp(-32), the smallest normal double (the zero
    uniform's stand-in) and above, and 1M seeded values."""
    ulps = np.arange(1, 4097, dtype=float) * 2.0 ** -53
    steps = np.arange(-64, 65)

    def around(v):
        """v and its 64 neighbours on each side."""
        return (np.float64(v).view(np.int64) + steps).view(np.float64)

    tiny = np.finfo(float).tiny
    u = np.concatenate([
        ulps, 1.0 - ulps,
        np.logspace(-308, math.log10(0.5), 20001),
        around(math.exp(-2)), around(1.0 - math.exp(-2)),
        around(math.exp(-32)), around(1.0 - math.exp(-32)),
        around(tiny)[64:],  # the zero uniform's stand-in and above
        np.random.default_rng(20261019).random(1_000_000),
    ])
    assert (u < math.exp(-32)).sum() > 1000
    return u
