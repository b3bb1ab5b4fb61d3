"""Fixtures shared by every test module."""

import pytest

from ellselberg import quadrature


@pytest.fixture(autouse=True)
def cold_rungs():
    """Each test starts and ends with the rung cache empty, so a test that
    counts grid evaluations does not see rungs an earlier test computed."""
    quadrature._rung.cache_clear()
    yield
    quadrature._rung.cache_clear()
