import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from annulus import defects, engine, structures  # noqa: E402


def _clear_label_tables():
    engine._SYMBOLIC.clear()
    engine._AFFINE.clear()
    engine._CANDIDATES.clear()
    engine._GRADE_DIMS.clear()
    defects.phase_terms.cache_clear()
    structures._SHAPES.clear()


@pytest.fixture(autouse=True)
def empty_label_tables():
    """Start and end every test with empty process-wide label and shape
    tables, so a test that fakes `act`, an `edges` entry or a defect's data
    is not answered from an earlier test's forms, a test that counts the
    builds of a defect's data sees every one, and a test's structures are
    validated and traced afresh."""
    _clear_label_tables()
    yield
    _clear_label_tables()
