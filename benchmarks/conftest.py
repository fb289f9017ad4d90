"""Shared fixtures for the benchmark suite.

Knobs (environment variables):

* ``REPRO_FIG4_ROUTES`` — table size fed through the DUT (default 2500;
  the paper used 724k routes on a C testbed — scale accordingly when
  you have the time budget);
* ``REPRO_FIG4_RUNS``  — measurement repetitions per arm (default 7;
  the paper used 15).
"""

import os

import pytest

from repro.bgp.roa import make_roas_for_prefixes
from repro.workload import RibGenerator, origins_of

FIG4_ROUTES = int(os.environ.get("REPRO_FIG4_ROUTES", "2500"))
FIG4_RUNS = int(os.environ.get("REPRO_FIG4_RUNS", "7"))
SEED = 20200604


@pytest.fixture(scope="session")
def fig4_routes():
    return RibGenerator(n_routes=FIG4_ROUTES, seed=SEED).generate()


@pytest.fixture(scope="session")
def fig4_roas(fig4_routes):
    return make_roas_for_prefixes(origins_of(fig4_routes), valid_fraction=0.75, seed=SEED)


@pytest.fixture(scope="session")
def fig4_params():
    return {"routes": FIG4_ROUTES, "runs": FIG4_RUNS}
