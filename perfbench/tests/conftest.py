import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)


@pytest.fixture(scope="session")
def program():
    import harness

    return harness.load_program(ROOT)
