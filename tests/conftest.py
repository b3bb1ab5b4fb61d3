"""Fixtures shared by every test module."""

import pytest

from ellselberg import kernel, qseries, quadrature


@pytest.fixture(autouse=True)
def cold_rungs():
    """Each test starts and ends with the rung cache empty, so a test that
    counts grid evaluations does not see rungs an earlier test computed."""
    quadrature._rung.cache_clear()
    yield
    quadrature._rung.cache_clear()


def _clear_truncated():
    # a _Ring and a _Base hold their levels, shifts and powers: emptying
    # _ring and _base drops them
    for cache in (qseries._scalar, qseries._ring, qseries._base, qseries._den,
                  kernel._factor, kernel._layout, kernel._root_powers, quadrature._nodes):
        cache.cache_clear()


@pytest.fixture
def truncation_rule(monkeypatch):
    """set_rule(tail_tol, max_terms) sets qseries.TAIL_TOL and MAX_TERMS for
    one test; the caches, which are keyed without them, are emptied then and
    at the end of the test."""

    def set_rule(tail_tol=qseries.TAIL_TOL, max_terms=qseries.MAX_TERMS):
        monkeypatch.setattr(qseries, "TAIL_TOL", tail_tol)
        monkeypatch.setattr(qseries, "MAX_TERMS", max_terms)
        _clear_truncated()

    yield set_rule
    _clear_truncated()
