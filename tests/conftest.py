import os

import pytest

import qpolicy
from qpolicy import experiments
from qpolicy.mdp import build_frozenlake, build_gridworld

from oracles import grid_rows, lake_rows


@pytest.fixture(scope="session")
def grid4():
    return build_gridworld(4, 4, 0.2, (3, 3), 0.95)


@pytest.fixture(scope="session")
def frozen8():
    return build_frozenlake(8, True, 0.95)


@pytest.fixture(scope="session")
def grid4_rows():
    """Raw rows of grid4, enumerated by the oracle, not read off the model."""
    return grid_rows(4, 4, 0.2, (3, 3))


@pytest.fixture(scope="session")
def frozen8_rows():
    """Raw rows of frozen8, enumerated by the oracle, not read off the model."""
    return lake_rows(8, True)


@pytest.fixture(scope="session")
def subprocess_env():
    """os.environ with this checkout's qpolicy first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(qpolicy.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.fixture()
def cpus(monkeypatch):
    """Set the usable CPU count that experiments._in_chunks splits runs by."""
    return lambda k: monkeypatch.setattr(experiments, "_usable_cpus", lambda: k)


@pytest.fixture()
def one_config_per_call(monkeypatch, cpus):
    """Make the sweeps run each engine config through a lockstep call of its
    own; the list holds the member count of each call the sweeps make. The
    sweeps run in this process (one usable CPU), where the list is kept."""
    cpus(1)
    lockstep, sizes = experiments.run_qpolicy_lockstep, []

    def one_per_call(mdp, configs):
        sizes.append(len(configs))
        return [run for config in configs for run in lockstep(mdp, [config])]
    monkeypatch.setattr(experiments, "run_qpolicy_lockstep", one_per_call)
    return sizes
