import math

import pytest

from howecorr.partitions import Partition, partitions_of
from howecorr.symmetric import _mn, border_strip_removals


def hook_length_degree(shape) -> int:
    """Independent degree formula: n! over the product of hook lengths."""
    shape = Partition(shape)
    conj = shape.conjugate()
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(shape.size) // hooks


def sn_centralizer_order(cycle_type) -> int:
    out = 1
    for part in set(cycle_type):
        m = list(cycle_type).count(part)
        out *= part**m * math.factorial(m)
    return out


class TestBorderStrips:
    def test_single_row(self):
        assert border_strip_removals(Partition((3,)), 3) == [(Partition(()), 0)]

    def test_hook_choices(self):
        # removing 3 cells from (2,2): the strip spans both rows, height 1
        assert border_strip_removals(Partition((2, 2)), 3) == [(Partition((1,)), 1)]

    def test_no_removal(self):
        assert border_strip_removals(Partition((2, 2)), 4) == []

    @pytest.mark.parametrize("length", [0, -1, -5])
    def test_lengths_below_one_are_rejected(self, length):
        # no strip has a length below 1; read as one, -1 would add a cell
        with pytest.raises(ValueError, match=f"at least 1, got {length}$"):
            border_strip_removals(Partition((2, 1)), length)


class TestCharacterValues:
    def test_pinned(self):
        assert _mn(Partition((2, 1)), Partition((1, 1, 1))) == 2
        assert _mn(Partition((1, 1, 1)), Partition((3,))) == 1

    def test_trivial_character(self):
        for n in range(1, 7):
            for cls in partitions_of(n):
                assert _mn(Partition((n,)), cls) == 1

    def test_sign_character(self):
        for n in range(1, 7):
            sign_label = Partition((1,) * n)
            for cls in partitions_of(n):
                assert _mn(sign_label, cls) == (-1) ** (n - len(cls))

    def test_degrees_match_hook_lengths(self):
        for n in range(1, 7):
            identity = Partition((1,) * n)
            for shape in partitions_of(n):
                assert _mn(shape, identity) == hook_length_degree(shape)

    def test_column_orthogonality(self):
        for n in range(1, 6):
            classes = partitions_of(n)
            shapes = partitions_of(n)
            for c1 in classes:
                for c2 in classes:
                    total = sum(_mn(s, c1) * _mn(s, c2) for s in shapes)
                    want = sn_centralizer_order(c1) if c1 == c2 else 0
                    assert total == want

    def test_norm_mismatch(self):
        with pytest.raises(ValueError, match="^label and class live in different groups: 2 != 3$"):
            _mn(Partition((2,)), Partition((3,)))
        # a larger label once reached the empty class and read as 1
        with pytest.raises(ValueError, match="^label and class live in different groups: 3 != 2$"):
            _mn((3,), (2,))
