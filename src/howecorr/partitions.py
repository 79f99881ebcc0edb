"""Integer partitions, bipartitions and strip combinatorics.

Partitions are value-semantic: a :class:`Partition` is an immutable tuple of
weakly decreasing positive integers, equal to any other sequence with the
same entries.  Bipartitions are ordered pairs of partitions; they index both
the irreducible characters of the hyperoctahedral group W_n (with
``|alpha| + |beta| = n``) and its conjugacy classes (positive and negative
cycle type).

Enumeration orders are fixed once and used everywhere:

* partitions of n in decreasing lexicographic order, ``(n)`` first and
  ``(1, ..., 1)`` last;
* bipartitions of n by ``|alpha|`` descending, then each component in the
  partition order above.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, partial
from itertools import accumulate, chain, product, repeat
from operator import index, le
from typing import Iterable, Iterator, NamedTuple


def _integer(value, what: str) -> int:
    """``value`` read as an int by `operator.index`, as ints, bools and
    numpy ints are (an exact int is returned at once); anything else, such
    as a float or a string, raises ValueError naming it."""
    if type(value) is int:
        return value
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Parts are read by `operator.index`, so a float or a string is rejected,
    not rounded or parsed.  Trailing zeros are trimmed on construction,
    anything else that is not weakly decreasing and positive is rejected.

    >>> Partition([3, 1, 0])
    (3, 1)
    >>> Partition([1, 2])
    Traceback (most recent call last):
        ...
    ValueError: parts must be weakly decreasing: (1, 2)
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if type(parts) is cls:
            return parts  # immutable and validated when it was built
        parts = tuple(parts)
        try:
            parts = tuple(map(index, parts))
        except TypeError:
            parts = tuple(_integer(p, "a partition part") for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"parts must be positive: {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """The i-th part (0-based), zero past the end."""
        return self[i] if i < len(self) else 0

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram.

        >>> Partition([3, 1]).conjugate()
        (2, 1, 1)
        """
        if not self:
            return self
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return _trusted(cols)

    def contains(self, other: "Partition") -> bool:
        """Containment of Young diagrams: every row of ``other`` fits."""
        other = Partition(other)
        return len(other) <= len(self) and all(
            self[i] >= other[i] for i in range(len(other))
        )


# Builds a Partition from parts already known to be weakly decreasing and
# positive (generated here, or transformed from a validated partition).
_trusted = partial(tuple.__new__, Partition)


class Bipartition(NamedTuple):
    """An ordered pair of partitions."""

    alpha: Partition
    beta: Partition

    @property
    def size(self) -> int:
        return sum(self.alpha) + sum(self.beta)


# Builds a Bipartition from an (alpha, beta) pair of Partitions without the
# Python-level __new__ of a named tuple.
_bipartition = partial(tuple.__new__, Bipartition)


def bipartition(alpha: Iterable[int], beta: Iterable[int]) -> Bipartition:
    """Coerce two part sequences into a :class:`Bipartition`."""
    return Bipartition(Partition(alpha), Partition(beta))


# One entry per rank, built bottom-up: the partitions of n with first part k
# are (k,) followed by the partitions of n - k with first part at most k,
# which in decreasing lexicographic order are a suffix of that rank's list.
# Building rank n reads, and so fills, every lower rank's entry, lowest
# first, so no call recurses deeper than one rank.  All ranks below n
# together hold at most 3.7 times the items of rank n (n <= 24), and any
# caller at rank n holds rank n's list anyway, so the cache stays a small
# multiple of the largest rank in use; a bound would only evict lists that
# the next call at that rank rebuilds.  The same holds for _bipartitions_of
# and _bipartition_index.
@lru_cache(maxsize=None)
def _partitions_of(n: int) -> tuple:
    if n == 0:
        return (_trusted(()),)
    lower = [_partitions_of(m) for m in range(n)]
    out = []
    for k in range(n, 0, -1):
        rest = lower[n - k]
        # first parts fall along the list, so those at most k start where
        # the negated first part reaches -k
        start = bisect_left(rest, -k, key=lambda p: -p[0]) if n - k > k else 0
        out.extend(map(_trusted, map((k,).__add__, rest[start:])))
    return tuple(out)


def partitions_of(n: int) -> list:
    """All partitions of n, decreasing lexicographic.

    >>> partitions_of(3)
    [(3,), (2, 1), (1, 1, 1)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_partitions_of(n))


# Unbounded for the reason given at _partitions_of.
@lru_cache(maxsize=None)
def _bipartitions_of(n: int) -> tuple:
    pairs = (product(_partitions_of(a), _partitions_of(n - a)) for a in range(n, -1, -1))
    return tuple(map(_bipartition, chain.from_iterable(pairs)))


# Unbounded for the reason given at _partitions_of.
@lru_cache(maxsize=None)
def _bipartition_index(n: int) -> dict:
    """Position of each bipartition of n in the canonical order."""
    return {bp: i for i, bp in enumerate(_bipartitions_of(n))}


# Unbounded for the reason given at _partitions_of.
@lru_cache(maxsize=None)
def _partition_position(n: int) -> dict:
    """Position of each partition of n in the canonical order."""
    return {p: i for i, p in enumerate(_partitions_of(n))}


# Unbounded for the reason given at _partitions_of.
@lru_cache(maxsize=None)
def _bipartition_radix(n: int) -> tuple:
    """(starts, counts) with counts[j] the number of partitions of j <= n and
    starts[a] the position of the first bipartition of n with |alpha| = a.

    The canonical order makes a position a mixed-radix number: (alpha, beta)
    with |alpha| = a sits at starts[a] + pos(alpha) * counts[n - a] +
    pos(beta), pos being :func:`_partition_position` of each size.
    """
    counts = tuple(len(_partitions_of(j)) for j in range(n + 1))
    starts = [0] * (n + 1)
    total = 0
    for a in range(n, -1, -1):
        starts[a] = total
        total += counts[a] * counts[n - a]
    return tuple(starts), counts


def bipartitions_of(n: int) -> list:
    """All bipartitions of total size n in the canonical order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_bipartitions_of(n))


# Unbounded for the reason given at _partitions_of.
@lru_cache(maxsize=None)
def _strip_relation(n: int) -> tuple:
    """Horizontal strips of size n in index space: entry m holds, for each
    mu of m in canonical order, the ascending positions among the
    partitions of n of the lam with lam/mu a horizontal strip.

    One pass over the lam of n runs through every mu with
    lam_{i+1} <= mu_i <= lam_i (Macdonald I §5); only the last part of mu
    can be 0.  Ascending position is the order of :func:`_horizontal_strips`.
    The omega sum (``unipotent._strip_indices``) reads entry m directly for
    its trivial lists and twists those for sgn, so index space has no
    vertical strips.
    """
    positions = [_partition_position(m) for m in range(n + 1)]
    out = [[[] for _ in _partitions_of(m)] for m in range(n + 1)]
    for j, lam in enumerate(_partitions_of(n)):
        for mu in product(*map(range, lam[1:] + (0,), [p + 1 for p in lam])):
            if mu and not mu[-1]:
                mu = mu[:-1]
            m = sum(mu)
            out[m][positions[m][mu]].append(j)
    return tuple(tuple(map(tuple, rows)) for rows in out)


# Horizontal strip additions and removals of one partition are memoised per
# (partition, size), one cache each, each result an immutable tuple in
# decreasing lexicographic order; vertical additions are conjugates of
# horizontal ones.  They serve single coupling rows, pieri_induction and the
# public strip functions; the omega sum reads _strip_relation instead.
# Every row of r = r' = 18 touches 6,179 addition and 11,284 removal keys,
# about 11 MiB together (tracemalloc); the bound keeps all of them resident.
# Past it the least recently used entries go, which only costs
# recomputation.
STRIP_CACHE_SIZE = 16384


def _capped_compositions(caps: list, total: int) -> Iterator[list]:
    """Every composition of ``total`` whose i-th part is at most caps[i], in
    decreasing lexicographic order, yielded as one list updated in place.

    Start from the greedy fill, then repeatedly take one cell off the last
    part that can pass it to the parts after it and refill those greedily.
    """
    parts = len(caps)
    room = [0] * (parts + 1)  # room[i]: most cells parts i.. can take
    for i in range(parts - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    if not 0 <= total <= room[0]:
        return
    gain = [0] * parts

    def fill(start, remaining):
        for i in range(start, parts):
            gain[i] = min(caps[i], remaining)
            remaining -= gain[i]

    fill(0, total)
    while True:
        yield gain
        below = 0  # cells in parts j + 1 ..
        for j in range(parts - 2, -1, -1):
            below += gain[j + 1]
            if gain[j] and below < room[j + 1]:
                gain[j] -= 1
                fill(j + 1, below + 1)
                break
        else:
            return


@lru_cache(maxsize=STRIP_CACHE_SIZE)
def _horizontal_strips(p: Partition, size: int) -> tuple:
    """Horizontal strip additions of a valid partition ``p``.

    Row i of the result is p_i + d_i with d_0 free and d_i <= p_{i-1} - p_i
    below it (no two new cells in one column).  The gains d run over the
    compositions of ``size`` under those caps in decreasing lexicographic
    order, which is decreasing lexicographic order on the results.
    """
    base = p + (0,)
    caps = [size] + [base[i - 1] - base[i] for i in range(1, len(base))]
    out = []
    for gain in _capped_compositions(caps, size):
        lam = [b + d for b, d in zip(base, gain)]
        if not lam[-1]:
            lam.pop()
        out.append(_trusted(lam))
    return tuple(out)


@lru_cache(maxsize=STRIP_CACHE_SIZE)
def _horizontal_strip_removals(p: Partition, size: int) -> tuple:
    """Every nu with p/nu a horizontal strip of ``size`` cells, for a valid
    partition ``p``, in decreasing lexicographic order.

    These are the nu with p_{i+1} <= nu_i <= p_i in every row.  Row i keeps
    p_{i+1} + d_i cells with d_i <= p_i - p_{i+1}, and the kept gains sum to
    p_0 - size, so they run over capped compositions as in
    :func:`_horizontal_strips`.  Only the last row can empty.
    """
    lower = p[1:] + (0,)
    caps = [a - b for a, b in zip(p, lower)]
    out = []
    for keep in _capped_compositions(caps, p.part(0) - size):
        nu = [b + d for b, d in zip(lower, keep)]
        if nu and not nu[-1]:
            nu.pop()
        out.append(_trusted(nu))
    return tuple(out)


def horizontal_strip_additions(p: Iterable[int], size: int) -> list:
    """All partitions obtained from ``p`` by adding a horizontal strip.

    A horizontal strip places ``size`` new cells with no two in the same
    column; equivalently the result interleaves with ``p``.  Output is in
    decreasing lexicographic order and duplicate-free.

    >>> horizontal_strip_additions((2, 1), 2)
    [(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)]
    """
    p = Partition(p)
    size = _integer(size, "strip size")
    if size < 0:
        raise ValueError("strip size must be nonnegative")
    return list(_horizontal_strips(p, size))


def vertical_strip_additions(p: Iterable[int], size: int) -> list:
    """All partitions obtained from ``p`` by adding a vertical strip
    (no two new cells in the same row, so each row grows by at most one).

    Conjugate-dual to :func:`horizontal_strip_additions`: the conjugates of
    the horizontal strip additions of p', put back in decreasing
    lexicographic order.

    >>> vertical_strip_additions((2,), 2)
    [(3, 1), (2, 1, 1)]
    """
    p = Partition(p)
    size = _integer(size, "strip size")
    if size < 0:
        raise ValueError("strip size must be nonnegative")
    conjugates = _horizontal_strips(p.conjugate(), size)
    return sorted((lam.conjugate() for lam in conjugates), reverse=True)


def _dominance_vector(bp: Bipartition, width: int) -> tuple:
    """Prefix sums of the zero-padded concatenation of ``bp``: alpha padded
    to ``width`` parts, then beta padded to ``width`` parts, for a
    ``width`` at least the length of both components.

    The vector determines ``bp``: its successive differences are the
    padded parts.  Dominance is defined on these vectors: at one common
    width, x is below y exactly when every entry of x's vector is at most
    the same entry of y's.  Past the end of a component a prefix sum stays
    put, so any width at least the longest component gives the same order.
    """
    alpha, beta = bp
    return tuple(
        accumulate(
            chain(alpha, repeat(0, width - len(alpha)), beta, repeat(0, width - len(beta)))
        )
    )


def bipartition_dominance_leq(x: Bipartition, y: Bipartition) -> bool:
    """Dominance on bipartitions of equal total size, computed on the
    zero-padded concatenation (alpha then beta): the entrywise order of
    their :func:`_dominance_vector` at a common width.

    This is a genuine partial order; incomparable pairs stay incomparable,
    there is no lexicographic tie-break.
    """
    width = max(map(len, (*x, *y)))
    vx, vy = _dominance_vector(x, width), _dominance_vector(y, width)
    # the last prefix sum is the total size (no entries: both are empty)
    if vx[-1:] != vy[-1:]:
        raise ValueError(f"dominance needs equal sizes: {x.size} != {y.size}")
    return all(map(le, vx, vy))
