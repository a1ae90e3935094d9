import os

import pytest

import qpolicy
from qpolicy.mdp import build_frozenlake, build_gridworld


@pytest.fixture(scope="session")
def grid4():
    return build_gridworld(4, 4, 0.2, (3, 3), 0.95)


@pytest.fixture(scope="session")
def frozen8():
    return build_frozenlake(8, True, 0.95)


@pytest.fixture(scope="session")
def subprocess_env():
    """os.environ with this checkout's qpolicy first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(qpolicy.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
