import dataclasses

import pytest

import trace_digests
from wsncluster.model import RadioParams, ScenarioConfig, table1_scenario


@pytest.fixture
def radio():
    return RadioParams()


@pytest.fixture
def default_config():
    return table1_scenario()


@pytest.fixture
def small_config():
    """A 20-node scenario that runs a round in well under a millisecond:
    the `small` field of the trace-identity grid."""
    return trace_digests.SMALL


@pytest.fixture
def rda_config():
    """Half the nodes on fixed schedules, a tenth of them malfunctioning."""
    return dataclasses.replace(
        ScenarioConfig(), frac_rda=0.5, frac_malfunction=0.1)
