import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, SRC)

from choicedyn import verify  # noqa: E402


@pytest.fixture(scope="session")
def ctx():
    """The acceptance context with the default malaria parameter sets."""
    return verify.Context()
