import os
import sys

import pytest
from hypothesis import settings

# CI runs the property tests from a fixed seed, so that a failure there reproduces with CI=1
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, SRC)

from choicedyn import verify  # noqa: E402


@pytest.fixture(scope="session")
def ctx():
    """The acceptance context with the default malaria parameter sets."""
    return verify.Context()
