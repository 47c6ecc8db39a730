"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from quasimap.checks import check_properties


@pytest.fixture(scope="session")
def property_results():
    """The seeded property suite, run once and shared by the tests that read it."""
    return check_properties()
