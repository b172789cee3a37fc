import pytest
from hypothesis import settings

import helpers

# Property tests draw the same examples on every run, so a failure
# reproduces; no per-example deadline, since timings vary by machine.
settings.register_profile("cellcomplex", deadline=None, derandomize=True)
settings.load_profile("cellcomplex")


@pytest.fixture
def toy():
    return helpers.toy()


@pytest.fixture
def toy_minus():
    return helpers.toy_minus_triangle()


@pytest.fixture
def toy_graph():
    return helpers.toy_graph()
