"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.config import DTMConfig, MachineConfig, ThermalConfig
from repro.sim import lanestep
from repro.thermal.floorplan import Floorplan


def pytest_addoption(parser):
    parser.addoption(
        "--no-compiled-step",
        action="store_true",
        help="run the lane kernel as on a host that cannot build its "
        "compiled step: the loader reports no library",
    )


def pytest_configure(config):
    if config.getoption("--no-compiled-step", default=False):
        # Pool workers fork from this process and inherit the switch.
        lanestep._kernel = None


@pytest.fixture(scope="session")
def floorplan() -> Floorplan:
    """The paper's default seven-structure floorplan."""
    return Floorplan.default()


@pytest.fixture(scope="session")
def machine() -> MachineConfig:
    """The Table 2 machine configuration."""
    return MachineConfig()


@pytest.fixture(scope="session")
def thermal_config() -> ThermalConfig:
    """The default thermal operating point."""
    return ThermalConfig()


@pytest.fixture(scope="session")
def dtm_config() -> DTMConfig:
    """The default DTM configuration."""
    return DTMConfig()
