import math

import pytest
from hypothesis import settings

from chermnykh.model import SystemParams

# Property tests draw the same examples on every run, and a loaded machine
# cannot fail them on time.
settings.register_profile("chermnykh", deadline=None, derandomize=True)
settings.load_profile("chermnykh")

# The reference configuration used throughout the published tables:
# mu = 0.025, rc = 0.8, T = 0.01.
CLASSICAL = SystemParams(mu=0.025, q1=1.0, a2=0.0, mb=0.0, t_belt=0.01, rc=0.8)

# Classical L4 for mu = 0.025: exact equilateral configuration.
L4_X = 0.5 - 0.025
L4_Y = math.sqrt(3.0) / 2.0


@pytest.fixture
def classical():
    return CLASSICAL
