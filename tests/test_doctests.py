"""The docstring examples of the modules that carry them."""

import doctest

import pytest

from howecorr import partitions, symmetric


@pytest.mark.parametrize("module, examples", [(partitions, 6), (symmetric, 2)])
def test_docstring_examples(module, examples):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted == examples
