"""Shared fixtures and Hypothesis settings for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings

from quasimap.checks import check_properties

# Every property test is derandomized and untimed.  The explain phase is left
# out: on a failing example it formats tracebacks for minutes, while shrinking
# (kept) gives the minimal failing example.
settings.register_profile(
    "quasimap", derandomize=True, deadline=None, phases=[p for p in Phase if p is not Phase.explain]
)
settings.load_profile("quasimap")


@pytest.fixture(scope="session")
def property_results():
    """The seeded property suite, run once and shared by the tests that read it."""
    return check_properties()
