"""Symmetric group character values via the Murnaghan-Nakayama rule.

Characters of S_n enter the hyperoctahedral tables as building blocks: an
irreducible of W_n labelled (alpha, beta) is induced from characters of
symmetric groups pulled back through W_m -> S_m.  Only individual values are
needed, so no S_n table is ever materialised.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition


def border_strip_removals(shape, length):
    """All ways to remove a border strip of the given length from ``shape``.

    Returns (smaller shape, height) pairs, where height is the number of
    rows the strip spans minus one.  Uses beta-numbers: with ``B`` the set
    of first-column hook lengths, removable strips correspond to ``b in B``
    with ``b - length`` outside ``B``, and the height is the number of
    elements of ``B`` strictly between the two.  A strip has length >= 1.
    """
    if length < 1:
        raise ValueError(f"border strip length must be at least 1, got {length}")
    shape = Partition(shape)
    rows = len(shape)
    beta = [shape[i] + (rows - 1 - i) for i in range(rows)]
    beta_set = set(beta)
    out = []
    for b in beta:
        c = b - length
        if c < 0 or c in beta_set:
            continue
        height = sum(1 for x in beta if c < x < b)
        new_beta = sorted((beta_set - {b}) | {c}, reverse=True)
        parts = [new_beta[i] - (rows - 1 - i) for i in range(rows)]
        out.append((Partition(parts), height))
    return out


# Unbounded on purpose: the package calls it only from the W_n oracle, on
# partitions of size m <= ORACLE_BOUND: at most sum p(m)^2 keys, 210 at 6.
@lru_cache(maxsize=None)
def _mn(label: tuple, cycle_type: tuple) -> int:
    """chi_label of S_n on the class of the given cycle type, both tuples.
    A label and a class of different sizes raise ValueError.

    >>> _mn((2, 1), (1, 1, 1))
    2
    >>> _mn((1, 1, 1), (3,))
    1
    """
    if sum(label) != sum(cycle_type):
        raise ValueError(
            f"label and class live in different groups: {sum(label)} != {sum(cycle_type)}"
        )
    if not cycle_type:
        return 1
    k = cycle_type[0]
    rest = cycle_type[1:]
    total = 0
    for smaller, height in border_strip_removals(label, k):
        total += (-1) ** height * _mn(tuple(smaller), rest)
    return total
