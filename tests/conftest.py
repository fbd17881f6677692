import pytest

from qram.agent import train
from qram.core import DEFAULT_CONFIG_SPACE
from qram.env import DEFAULT_ENV_BOUNDS, TrackingEnv

#: Step budget for the shared desk-scale training run.
DESK_TRAIN_STEPS = 30_000


def train_agent(seed: int, steps: int = DESK_TRAIN_STEPS):
    env = TrackingEnv(DEFAULT_CONFIG_SPACE, DEFAULT_ENV_BOUNDS, seed=seed)
    return train(env, steps, seed=seed)


@pytest.fixture(scope="session")
def trained_agent():
    """One desk-scale training run shared by every test that needs a
    competent network (seed 1, 30k steps, 7-8 s)."""
    params, curve = train_agent(seed=1)
    return params, curve
