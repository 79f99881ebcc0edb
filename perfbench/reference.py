"""Independent combinatorics used to check the library's outputs.

Nothing here imports ``howecorr``: partitions, degrees, dominance, the
first-occurrence rule and the sharp row law are recomputed from their
textbook definitions so that a check can fail when the code under test is
wrong.  Labels are plain ``(alpha, beta)`` pairs of tuples.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple:
    """Partitions of n as tuples, decreasing lexicographic."""
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        out.extend((first,) + rest for rest in partitions(n - first, first))
    return tuple(out)


@lru_cache(maxsize=None)
def bipartitions(n: int) -> tuple:
    """Bipartitions of n, ``|alpha|`` descending, then partition order."""
    return tuple(
        (alpha, beta)
        for a in range(n, -1, -1)
        for alpha in partitions(a)
        for beta in partitions(n - a)
    )


def conjugate(p: tuple) -> tuple:
    return tuple(sum(1 for part in p if part > j) for j in range(p[0])) if p else ()


@lru_cache(maxsize=None)
def hook_dimension(p: tuple) -> int:
    """Degree f^p of the S_n irreducible, by the hook-length formula."""
    cols = conjugate(p)
    hooks = 1
    for i, row in enumerate(p):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(p)) // hooks


@lru_cache(maxsize=None)
def bipartition_degree(label: tuple) -> int:
    """deg chi_(alpha|beta) of W_n = C(n, |alpha|) f^alpha f^beta."""
    alpha, beta = label
    a, b = sum(alpha), sum(beta)
    return comb(a + b, a) * hook_dimension(alpha) * hook_dimension(beta)


def degree_sum(r: int, r_prime: int) -> int:
    """sum over l of C(r,l) C(r',l) 2^l l!, the degree of the coupling."""
    return sum(
        comb(r, l) * comb(r_prime, l) * 2**l * factorial(l)
        for l in range(min(r, r_prime) + 1)
    )


def triangular(k: int) -> int:
    return k * (k + 1) // 2


def witt_index(k: int) -> int:
    """m(k): Witt index of the group carrying the k-th cuspidal unipotent."""
    return triangular(k) // 2


def partner_index(k: int, parity: int) -> int:
    """k' in the tower of the given parity: 0 -> parity, else the one of
    k - 1, k + 1 whose triangular number has that parity."""
    if k == 0:
        return parity
    return k - 1 if triangular(k - 1) % 2 == parity else k + 1


def first_kind(k: int, k_prime: int) -> bool:
    return k % 2 == 1 or (k == 0 and k_prime == 0)


def row_nonempty(label: tuple, r: int, r_prime: int, first: bool, convention: str) -> bool:
    """The sharp row law of the README for a nonzero table."""
    alpha, beta = label
    need = r - r_prime
    if need <= 0:
        return True
    if first:
        return (alpha[0] if alpha else 0) >= need
    if convention == "coxeter_sign":
        return len(beta) >= need
    return (beta[0] if beta else 0) >= need


def dominance_leq(x: tuple, y: tuple) -> bool:
    """Dominance of bipartitions of equal size on the zero-padded
    concatenation alpha, beta."""
    n = sum(x[0]) + sum(x[1])

    def flat(label):
        alpha, beta = label
        return [*alpha, *[0] * (n - len(alpha)), *beta, *[0] * (n - len(beta))]

    tx = ty = 0
    for u, v in zip(flat(x), flat(y)):
        tx += u
        ty += v
        if tx > ty:
            return False
    return True
