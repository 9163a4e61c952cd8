"""Shared fixtures for the tier-1 tests."""

import pytest

from qident import products


@pytest.fixture(autouse=True)
def empty_product_memo():
    """Every test starts and ends with an empty eval_product memo, so no
    test sees a series an earlier one evaluated, or one it patched."""
    products._memo_product.cache_clear()
    yield
    products._memo_product.cache_clear()
