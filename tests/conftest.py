import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from annulus import engine  # noqa: E402


@pytest.fixture(autouse=True)
def empty_label_tables():
    """Start and end every test with empty process-wide label tables, so a
    test that fakes `act` or an `edges` entry is not answered from an
    earlier test's verdicts."""
    engine._SYMBOLIC.clear()
    engine._CYCLIC.clear()
    yield
    engine._SYMBOLIC.clear()
    engine._CYCLIC.clear()
