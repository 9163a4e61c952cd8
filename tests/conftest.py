"""Shared fixtures for the tier-1 tests."""

import pytest

from helpers import empty_tables


@pytest.fixture(autouse=True)
def empty_process_tables():
    """Every test starts and ends with the process-wide tables empty (the
    eval_product memo and bailey's pair, kernel and seed-row tables), so no
    test sees a series, pair or row an earlier one built, or one it
    patched."""
    empty_tables()
    yield
    empty_tables()
