"""The correspondence between unipotent Harish-Chandra series of a unitary
dual pair, computed at the level of Weyl group characters.

Fix a series index k (the cuspidal unipotent representation lives on a group
of Witt index ``witt_index_of_cuspidal(k)``) and two tower contexts with Witt
indices m, m'.  The restriction of the Weil character couples the series of
k on one side with the series of k' = ``theta_cuspidal(k, parity')`` on the
other, and the coupling decomposes over Irr(W_r) x Irr(W_r') with
r = m - m(k), r' = m' - m(k'):

    sum over l = 0 .. min(r, r'), chi in Irr(W_l) of
        Ind(chi x 1) tensor Ind(sgn chi x 1)          (first kind)
    sum over l, chi of
        Ind(chi x sgn) tensor Ind(sgn chi x 1)        (second kind)

where the first kind applies when k is odd or k = k' = 0 and the second kind
otherwise.  Everything here expands these sums combinatorially through the
Pieri rules; no group is ever enumerated.  The brute-force oracle in
:mod:`howecorr.hyperoctahedral` recomputes the same tables independently and
the two must agree (see :mod:`howecorr.verify`).  A whole table runs the
l-sum over bipartition indices; one row (``theta_images``,
``extremal_images``) collapses the sum to a closed form and builds no table.

Which linear character plays "sgn" is a convention; both the determinant
character (``coxeter_sign``, the default) and the sign-change character
(``sign_changes``) are supported, threaded through as ``convention``.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from collections import Counter
from collections.abc import ItemsView, Mapping
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain, repeat
from operator import ge, le, sub
from typing import NamedTuple

from .errors import EmptyImageError, NonUniqueExtremeError
from .partitions import (
    STRIP_CACHE_SIZE,
    Bipartition,
    Partition,
    _bipartition,
    _bipartition_index,
    _bipartition_radix,
    _bipartitions_of,
    _horizontal_strip_removals,
    _horizontal_strips,
    _partition_position,
    _partitions_of,
    _strip_relation,
    _dominance_vector,
    _integer,
    bipartition,
)

DEFAULT_SGN_CONVENTION = "coxeter_sign"
SGN_CONVENTIONS = ("coxeter_sign", "sign_changes")


def triangular(k: int) -> int:
    return k * (k + 1) // 2


def witt_index_of_cuspidal(k: int) -> int:
    """Witt index of the unitary group carrying the k-th cuspidal unipotent
    representation, which has dimension k(k+1)/2."""
    k = k if type(k) is int else _integer(k, "k")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return triangular(k) // 2


def theta_cuspidal(k: int, target_dim_parity: int) -> int:
    """First-occurrence index of the k-th cuspidal unipotent representation
    in the tower of the given dimension parity.

    For k >= 1 exactly one of k - 1, k + 1 has triangular number of the
    required parity (their triangular numbers differ by the odd number
    2k + 1): k + 1 when T(k + 1) has it, else k - 1.  k = 0 goes to 0 in
    the even tower and to 1 in the odd tower.  Both arguments are read by
    `operator.index`, so a bool parity gives an int and a float raises
    ValueError.
    """
    k = k if type(k) is int else _integer(k, "k")
    if type(target_dim_parity) is not int:
        target_dim_parity = _integer(target_dim_parity, "parity")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if target_dim_parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if k == 0:
        return target_dim_parity
    return k + 1 if triangular(k + 1) % 2 == target_dim_parity else k - 1


def is_first_kind(k: int, k_prime: int) -> bool:
    """Whether the coupling of the k-series with the k'-series takes the
    first-kind formula (k odd, or k = k' = 0) rather than the second."""
    return k % 2 == 1 or k == k_prime == 0


# Trial division decides each q below this bound in at most 2^11 divisions.
FIELD_SIZE_BOUND = 2**24


def is_odd_prime_power(q: int) -> bool:
    """Whether q is a power of an odd prime (the admissible field sizes),
    by trial division by the odd p with p^2 <= q.  Raises ValueError when q
    is at least FIELD_SIZE_BOUND = 2^24, where no field size is accepted."""
    if q >= FIELD_SIZE_BOUND:
        raise ValueError(
            f"q = {q} is too large: field sizes must be below 2^24 = {FIELD_SIZE_BOUND}"
        )
    if q < 3 or q % 2 == 0:
        return False
    p = 3
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 2
    return True  # q itself is prime


class _DataclassView:
    """One of the two class attributes through which ``dataclasses`` (and
    ``pprint``) read a dataclass, built on first read from a frozen
    dataclass with the record's ``__init__`` signature and then stored on
    the record's class.  Only code that has imported ``dataclasses`` reads
    them, so ``dataclasses.fields``, ``replace`` and ``asdict`` take every
    ``_Record`` as they took the dataclass it replaced, and start-up pays
    nothing for it.  Every field it reports compares, even
    ``GenericCuspidal.partner_label``, which the record itself leaves out
    of equality."""

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, record, cls):
        import inspect
        from dataclasses import field, make_dataclass

        spec = [
            (p.name, p.annotation)
            if p.default is p.empty
            else (p.name, p.annotation, field(default=p.default))
            for p in list(inspect.signature(cls.__init__).parameters.values())[1:]
        ]
        shadow = make_dataclass(cls.__name__, spec, frozen=True)
        for name in ("__dataclass_fields__", "__dataclass_params__"):
            setattr(cls, name, getattr(shadow, name))
        return getattr(shadow, self._name)


class _Record:
    """A frozen record whose fields are its ``__slots__``, in order: equal
    to a record of the same class with equal fields, hashed, printed and
    pickled or copied (through the constructor) as that tuple of fields.
    A subclass's ``__init__`` validates and normalises its arguments and
    sets the fields by one ``_set`` call; any later assignment raises
    AttributeError.  This is what a frozen dataclass gives, without
    importing ``dataclasses``, which loads ``inspect`` and would be the
    largest cost of a CLI process's start-up.  ``TowerContext``,
    ``MultiplicityTable``, the records of :mod:`howecorr.lusztig` and
    ``verify.CheckResult`` are records; only the oracle's
    ``CharacterTable`` is still a dataclass."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassView()
    __dataclass_params__ = _DataclassView()

    def _set(self, *values) -> None:
        """Set the fields, one value each in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TowerContext(_Record):
    """A member of a Witt tower of unitary groups: Witt index m and the
    parity of the underlying dimension n = 2m + parity.  The field size q is
    optional, and nothing computed here depends on it; when given it must be
    an odd prime power below FIELD_SIZE_BOUND = 2^24.  All three are read by
    `operator.index` and stored as exact ints, so that a bool or a numpy int
    reaches no output and no cache key."""

    __slots__ = ("witt_index", "dim_parity", "q")

    def __init__(self, witt_index: int, dim_parity: int, q: int | None = None):
        if type(witt_index) is not int:
            witt_index = _integer(witt_index, "Witt index")
        if type(dim_parity) is not int:
            dim_parity = _integer(dim_parity, "dimension parity")
        if type(q) is not int and q is not None:
            q = _integer(q, "q")
        if witt_index < 0:
            raise ValueError("Witt index must be nonnegative")
        if dim_parity not in (0, 1):
            raise ValueError("dimension parity must be 0 or 1")
        if q is not None and not is_odd_prime_power(q):
            raise ValueError(f"q = {q} is not an odd prime power")
        self._set(witt_index, dim_parity, q)

    @property
    def dimension(self) -> int:
        return 2 * self.witt_index + self.dim_parity


class SeriesLabel(NamedTuple):
    """A member of the unipotent Harish-Chandra series attached to k:
    a bipartition of r = m - m(k) labelling a character of W_r."""

    k: int
    char_label: Bipartition


# Build labels from (first, second) pairs without the Python-level __new__
# of a named tuple; a theta row makes one per cell (partitions._bipartition
# does the same for bipartitions).
_series_label = partial(tuple.__new__, SeriesLabel)


def _check_convention(convention: str) -> None:
    if convention not in SGN_CONVENTIONS:
        raise ValueError(f"unknown sgn convention {convention!r}")


def _star(p: Partition, convention: str) -> Partition:
    """x* of the sgn rule: the conjugate under the determinant convention,
    x itself under the sign-change convention."""
    return p.conjugate() if convention == "coxeter_sign" else p


def pieri_induction(
    bp: Bipartition, s: int, second: str, convention: str = DEFAULT_SGN_CONVENTION
) -> list:
    """Labels in Ind from W_l x W_s to W_{l+s} of (chi_bp tensor 1) or
    (chi_bp tensor sgn), each with multiplicity one, in canonical order.

    This is the Pieri rule (Macdonald I §5): the trivial character adds a
    horizontal strip to alpha.  sgn of W_{l+s} restricts to W_l x W_s as
    sgn x sgn, so Ind(chi x sgn) = sgn Ind(sgn chi x 1), the identity that
    _strip_indices relies on: sgn gives (alpha, mu*) for each horizontal
    strip mu added to beta*.
    """
    alpha, beta = Partition(bp.alpha), Partition(bp.beta)
    if second == "sgn":
        _check_convention(convention)
    elif second != "trivial":
        raise ValueError(f"second factor must be 'trivial' or 'sgn', got {second!r}")
    if type(s) is not int:
        s = _integer(s, "strip size")
    if s < 0:
        raise ValueError("strip size must be nonnegative")
    if second == "trivial":
        return list(map(_bipartition, zip(_horizontal_strips(alpha, s), repeat(beta))))
    return list(map(_bipartition, zip(repeat(alpha), _starred_strips(beta, s, convention))))


# One entry per (beta, strip size, convention) that pieri_induction's sgn
# branch meets, bounded as the strip caches are: a repeat skips conjugating
# beta and every strip.
@lru_cache(maxsize=STRIP_CACHE_SIZE)
def _starred_strips(beta: Partition, s: int, convention: str) -> tuple:
    """mu* for each horizontal strip mu of ``s`` cells added to beta*, in
    canonical (decreasing lexicographic) order."""
    mus = (_star(mu, convention) for mu in _horizontal_strips(_star(beta, convention), s))
    return tuple(sorted(mus, reverse=True))


def _uncollected(build, cells):
    """build(cells) with the cyclic garbage collector paused, and left as
    it was found: each cell is a new tuple or list, which the collector
    tracks, and none can be part of a reference cycle."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return build(cells)
    finally:
        if collecting:
            gc.enable()


def _label_index(labels: tuple) -> dict:
    """Position of each label of ``labels``: Irr(W_n) in canonical order
    for some n, or nothing."""
    return _bipartition_index(labels[0].size) if labels else {}


def _label_position(index: dict, label):
    """index.get(label), where a label with list parts reads as the label
    of Partitions it names."""
    try:
        return index.get(label)
    except TypeError:
        return index.get(bipartition(*label))


_MISSING = object()


class _Entries(Mapping):
    """The nonzero cells of a coupling table, stored as indices into its
    row and column labels: a read-only mapping from (row label, column
    label) to multiplicity, iterated by row and then by column.

    A table of the omega sum stores the sum's blocks (see _blocks): the row
    and the column tuple of each chi, cached tuples of indices, and, in a
    second-kind table, the permutation its rows are read through.  Each chi
    gives each pair of its two tuples once, so a cell's multiplicity is the
    number of blocks that give it; no first-kind cell exceeds 1 (see
    _coupling_row).  Every read goes through one copy of the cells sorted
    by row, made from the blocks on first use (_csr); a mapping passed in
    is stored as that copy.
    """

    def __init__(self, rows: tuple, cols: tuple, blocks=((), ()), row_twist=None, csr=None):
        self._rows, self._cols = rows, cols
        self._blocks, self._row_twist = blocks, row_twist
        if csr is not None:
            self._csr = csr

    def __iter__(self):
        starts, columns, _ = self._csr
        return zip(
            map(self._rows.__getitem__, _cell_rows(starts)),
            map(self._cols.__getitem__, columns),
        )

    def __len__(self) -> int:
        return len(self._csr[1])

    def get(self, key, default=None):
        row_index, col_index = self._label_indices
        try:
            row, col = key
            i, j = _label_position(row_index, row), _label_position(col_index, col)
        except (TypeError, ValueError):  # not a pair of labels
            return default
        if i is None or j is None:
            return default
        starts, columns, mults = self._csr
        at = bisect_left(columns, j, starts[i], starts[i + 1])
        return mults[at] if at < starts[i + 1] and columns[at] == j else default

    def __getitem__(self, key):
        mult = self.get(key, _MISSING)
        if mult is _MISSING:
            raise KeyError(key)
        return mult

    def __contains__(self, key) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def items(self):
        return _EntryItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    @cached_property
    def _label_indices(self) -> tuple:
        return _label_index(self._rows), _label_index(self._cols)

    @cached_property
    def _csr(self) -> tuple:
        """(starts, columns, multiplicities): the cells of row i, in column
        order, sit at starts[i]:starts[i + 1].  One bucket per row takes the
        columns its blocks give, and is then sorted, or, in a second-kind
        table, counted and moved: row i is the bucket of twist[i]."""
        buckets = [[] for _ in self._rows]
        for row_tuple, col_tuple in zip(*self._blocks):
            for i in row_tuple:
                buckets[i].extend(col_tuple)
        if self._row_twist is not None:
            return _row_sorted(list(map(Counter, map(buckets.__getitem__, self._row_twist))))
        for bucket in buckets:
            bucket.sort()
        starts = tuple(accumulate(map(len, buckets), initial=0))
        columns = tuple(chain.from_iterable(buckets))
        return starts, columns, b"\x01" * len(columns)

    def _row(self, i: int):
        """(column index, multiplicity) of each cell of row i, in column
        order."""
        starts, columns, mults = self._csr
        start, end = starts[i], starts[i + 1]
        return zip(columns[start:end], mults[start:end])


def _row_sorted(counts: list) -> tuple:
    """The row-sorted copy (see _Entries._csr) of the cells whose row i
    maps each column index to its multiplicity in counts[i]."""
    columns, mults = [], []
    for row in counts:
        cols = sorted(row)
        columns.extend(cols)
        mults.extend(map(row.__getitem__, cols))
    return tuple(accumulate(map(len, counts), initial=0)), tuple(columns), tuple(mults)


def _cell_rows(starts: tuple):
    """The row index of each cell of a table whose row i holds the cells
    starts[i]:starts[i + 1]."""
    return chain.from_iterable(map(repeat, range(len(starts) - 1), map(sub, starts[1:], starts)))


class _EntryItems(ItemsView):
    """The items of an _Entries, by row and then by column."""

    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping._csr[2])


class MultiplicityTable(_Record):
    """The coupling table of one pair of unipotent series.

    Rows are labelled by Irr(W_r) for the k-series on the first group,
    columns by Irr(W_r') for the k'-series on the second; ``entries`` holds
    the nonzero multiplicities, a read-only mapping from (row label, column
    label) pairs (see _Entries).  A table below the first occurrence of the
    partner cuspidal (m' < m(k')) is empty: no columns, no entries,
    ``formula`` is None.
    """

    __slots__ = (
        "m", "m_prime", "k", "k_prime", "formula", "convention",
        "row_labels", "col_labels", "entries",
    )

    def __init__(
        self,
        m: int,
        m_prime: int,
        k: int,
        k_prime: int,
        formula: str | None,
        convention: str,
        row_labels: tuple,
        col_labels: tuple,
        entries: Mapping,
    ):
        if not isinstance(entries, _Entries):
            # a mapping passed in is stored in index space once, sorted by row
            rows, cols = _label_index(row_labels), _label_index(col_labels)
            counts = [{} for _ in row_labels]
            try:
                for (r, c), mult in entries.items():
                    counts[rows[r]][cols[c]] = mult
            except KeyError as err:
                raise ValueError(f"{err.args[0]} is not a label of this table") from None
            entries = _Entries(row_labels, col_labels, csr=_row_sorted(counts))
        self._set(m, m_prime, k, k_prime, formula, convention, row_labels, col_labels, entries)

    @property
    def is_zero(self) -> bool:
        return self.formula is None

    def entry(self, row: Bipartition, col: Bipartition) -> int:
        return self.entries.get((row, col), 0)

    def row(self, label: Bipartition) -> list:
        i = _label_position(self.entries._label_indices[0], label)
        if i is None:
            raise ValueError(f"{label} is not a row label of this table")
        cols = self.col_labels
        return [(cols[j], mult) for j, mult in self.entries._row(i)]

    def to_json_dict(self) -> dict:
        starts, columns, mults = self.entries._csr
        return {
            "m": self.m,
            "m_prime": self.m_prime,
            "k": self.k,
            "k_prime": self.k_prime,
            "formula": self.formula,
            "sgn_convention": self.convention,
            "row_labels": [[list(bp.alpha), list(bp.beta)] for bp in self.row_labels],
            "col_labels": [[list(bp.alpha), list(bp.beta)] for bp in self.col_labels],
            "entries": _uncollected(list, map(list, zip(_cell_rows(starts), columns, mults))),
        }

    def to_text(self) -> str:
        if self.is_zero:
            return (
                f"omega[m={self.m}, m'={self.m_prime}, k={self.k}]: zero "
                f"(below first occurrence: m' < {witt_index_of_cuspidal(self.k_prime)} = m({self.k_prime}))"
            )
        head = (
            f"omega[m={self.m}, m'={self.m_prime}, k={self.k} -> k'={self.k_prime}] "
            f"({self.formula}, sgn={self.convention})"
        )
        cols = [_label_str(c) for c in self.col_labels]
        rows = [_label_str(r) for r in self.row_labels]
        width = max([len(s) for s in cols + rows] + [3]) + 1
        lines = [head, "".rjust(width) + "".join(c.rjust(width) for c in cols)]
        blank = [".".rjust(width)] * len(cols)
        for i, rname in enumerate(rows):
            cells = blank.copy()
            for j, m in self.entries._row(i):
                cells[j] = str(m).rjust(width)
            lines.append(rname.rjust(width) + "".join(cells))
        return "\n".join(lines)


def _label_str(bp: Bipartition) -> str:
    a = ",".join(map(str, bp.alpha)) or "-"
    b = ",".join(map(str, bp.beta)) or "-"
    return f"{a}|{b}"


def _validate_series(m: int, parity: int, k: int) -> int:
    """The k-series lives in the tower of parity T(k) mod 2; return
    r = m - m(k) for the member of Witt index m and parity ``parity``."""
    if triangular(k) % 2 != parity:
        raise ValueError(
            f"series k={k} does not live in a tower of dimension parity {parity}"
        )
    r = m - witt_index_of_cuspidal(k)
    if r < 0:
        raise ValueError(
            f"Witt index {m} is below the cuspidal support m({k}) = "
            f"{witt_index_of_cuspidal(k)}; the k={k} series is empty there"
        )
    return r


def _series_ranks(m: int, parity: int, m_prime: int, parity_prime: int, k: int) -> tuple:
    """(r, k', r') for the k-series at Witt index m and parity ``parity``
    and its partner k'-series at Witt index m' and parity ``parity_prime``;
    r' < 0 below first occurrence."""
    r = _validate_series(m, parity, k)
    k_prime = theta_cuspidal(k, parity_prime)
    return r, k_prime, m_prime - witt_index_of_cuspidal(k_prime)


# Keys are (n, l), n + 1 of them at rank n.  All keys of rank 16 hold about
# 2.0 MiB, of rank 18 about 5.5 MiB (tracemalloc), an int per index; one
# table reads only 2(l_max + 1).  Rank n's keys hold about 1.6 times rank
# n - 1's, so all ranks below n together hold less than twice rank n's (1.65
# times at n = 18), and the cache stays a small multiple of the largest rank
# in use, as partitions._partitions_of's does; a bound would only evict
# lists that the next table at that rank rebuilds.
@lru_cache(maxsize=None)
def _strip_indices(n: int, l: int) -> tuple:
    """One tuple per chi in Irr(W_l), in canonical order: the indices in
    Irr(W_n) of the labels of Ind(chi x 1) from W_l x W_{n-l}, as
    pieri_induction gives them, ascending, which is canonical order.

    Positions are mixed-radix numbers (_bipartition_radix), so the
    horizontal strip additions to alpha are read as positions
    (partitions._strip_relation), and beta only adds its own position and
    stride.  No sgn list is kept: sgn of W_n restricts to W_l x W_{n-l} as
    sgn x sgn, so Ind(chi x sgn) = sgn Ind(sgn chi x 1), the list of
    sgn chi read through the twist permutation of rank n (see _sum_entries).
    """
    s = n - l
    starts, counts = _bipartition_radix(n)
    out = []
    for a in range(l, -1, -1):
        # (lam, beta), |lam| = a + s: start + pos(lam) * p(l - a) + pos(beta)
        start, stride = starts[a + s], counts[l - a]
        rows = _strip_relation(a + s)[a]
        if stride == 1:
            # |beta| <= 1: one beta, so each row is the relation's row shifted
            out.extend(map(tuple, map(map, repeat(start.__add__), rows)))
        else:
            for lams in rows:
                heads = [start + stride * i for i in lams]
                out.extend(zip(*[range(h, h + stride) for h in heads]))
    return tuple(out)


# One entry per size and convention, like the enumeration caches in
# partitions, so it needs no bound.
@lru_cache(maxsize=None)
def _star_permutation(n: int, convention: str) -> tuple:
    """Position of x* (see _star) of each partition x of n, in canonical
    order: the conjugation permutation of partitions, or the identity."""
    position = _partition_position(n)
    return tuple(position[_star(p, convention)] for p in _partitions_of(n))


# One entry per rank and convention, like the enumeration caches in
# partitions, so it needs no bound.
@lru_cache(maxsize=None)
def _twist_permutation(n: int, convention: str) -> tuple:
    """The sgn twist: entry i is the index of sgn tensor chi_i in Irr(W_n),
    canonical order.  (alpha, beta) with |alpha| = a goes to (beta*, alpha*),
    at starts[n - a] + pos(beta*) * p(a) + pos(alpha*)."""
    starts, counts = _bipartition_radix(n)
    out = []
    for a in range(n, -1, -1):
        start, stride = starts[n - a], counts[a]
        heads = [start + stride * j for j in _star_permutation(n - a, convention)]
        for i in _star_permutation(a, convention):
            out.extend(map(i.__add__, heads))
    return tuple(out)


# A certify pass builds 426 distinct tables; the bound keeps all of them.
# A table of either kind holds references to cached index tuples and no
# cell of its own until it is first read (_Entries._csr).  Tables that
# differ only in k share these (_sum_entries).
OMEGA_CACHE_SIZE = 1024


def _blocks(r: int, r_prime: int, convention: str | None) -> tuple:
    """The row and the column tuples of the chi of the sum over l and chi
    in Irr(W_l) of Ind(chi x 1) x Ind(chi' x 1), read from _strip_indices:
    chi' is sgn chi under ``convention``, chi itself when it is None."""
    rows, cols = [], []
    for l in range(min(r, r_prime) + 1):
        rows.extend(_strip_indices(r, l))
        cols_of = _strip_indices(r_prime, l)
        if convention is not None:
            cols_of = map(cols_of.__getitem__, _twist_permutation(l, convention))
        cols.extend(cols_of)
    return tuple(rows), tuple(cols)


# A table depends on k only through its kind, so the tables of one kind,
# ranks and convention share their cells; the bound of the table cache
# keeps them.
@lru_cache(maxsize=OMEGA_CACHE_SIZE)
def _sum_entries(r: int, r_prime: int, first_kind: bool, convention: str) -> _Entries:
    """The cells of the omega sum of ranks r, r' >= 0 (see _Entries).  The
    second-kind rows Ind(chi x sgn) = sgn Ind(sgn chi x 1) are summed over
    sgn chi in place of chi: each block pairs the trivial lists of one chi,
    and the rows are read through the twist (an involution) of rank r."""
    rows, cols = _bipartitions_of(r), _bipartitions_of(r_prime)
    if first_kind:
        return _Entries(rows, cols, _blocks(r, r_prime, convention))
    return _Entries(rows, cols, _blocks(r, r_prime, None), _twist_permutation(r, convention))


@lru_cache(maxsize=OMEGA_CACHE_SIZE)
def _omega_cached(m, parity, m_prime, parity_prime, k, convention):
    r, k_prime, r_prime = _series_ranks(m, parity, m_prime, parity_prime, k)
    row_labels = _bipartitions_of(r)
    if r_prime < 0:
        entries = _Entries(row_labels, ())
        return MultiplicityTable(
            m, m_prime, k, k_prime, None, convention, row_labels, (), entries
        )
    first_kind = is_first_kind(k, k_prime)
    return MultiplicityTable(
        m,
        m_prime,
        k,
        k_prime,
        "first-kind" if first_kind else "second-kind",
        convention,
        row_labels,
        _bipartitions_of(r_prime),
        _sum_entries(r, r_prime, first_kind, convention),
    )


def omega_unipotent(
    ctx: TowerContext,
    ctx_prime: TowerContext,
    k: int,
    *,
    convention: str = DEFAULT_SGN_CONVENTION,
) -> MultiplicityTable:
    """Decomposition of the Weil character coupling between the k-series on
    ``ctx`` and its partner series on ``ctx_prime``, with the partner index
    k' from :func:`theta_cuspidal`.  Requires m >= m(k); returns an empty
    table when m' < m(k').
    """
    _check_convention(convention)
    k = k if type(k) is int else _integer(k, "k")  # for the key: True == 1 == 1.0
    return _omega_cached(
        ctx.witt_index, ctx.dim_parity, ctx_prime.witt_index, ctx_prime.dim_parity, k, convention
    )


def row_nonempty(
    label: Bipartition, r: int, r_prime: int, first_kind: bool, convention: str
) -> bool:
    """Whether row ``label`` of a nonzero coupling table of ranks r, r' is
    nonempty.  Its closed form removes a horizontal strip of at least
    r - r' cells from alpha (first kind) or from beta* (second kind), and a
    horizontal strip has at most as many cells as the first part it leaves
    from."""
    need = r - r_prime
    if need <= 0:
        return True
    if first_kind:
        return Partition(label.alpha).part(0) >= need
    return _star(Partition(label.beta), convention).part(0) >= need


# Rows at r = r' = 16 average 23 cells, about 6 KiB with their strips: 24 MiB.
ROW_CACHE_SIZE = 4096


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _coupling_row(
    alpha: Partition,
    beta: Partition,
    r: int,
    r_prime: int,
    first_kind: bool,
    convention: str,
) -> tuple:
    """Row (alpha, beta) of the coupling table of ranks r, r' >= 0 in
    closed form: (column label, multiplicity) pairs in canonical column
    order.

    A term chi = (a, b) of the l-sum reaches the row by a horizontal strip
    added to a (first kind) or a strip added to b, which is a horizontal
    strip added to b* (second kind), and reaches the columns by a
    horizontal strip added to the alpha of sgn chi = (b*, a*) (Pieri
    rule; Macdonald, Symmetric Functions and Hall Polynomials, I §5).  So
    the first-kind cell (gamma, delta) is 1 when alpha/delta* and gamma/beta*
    are horizontal strips and 0 otherwise; the second-kind cell is 0 unless
    delta = alpha*, and then counts the nu with beta*/nu and gamma/nu
    horizontal strips.
    """
    beta_star = _star(beta, convention)
    if first_kind:
        row = []
        # s cells leave alpha (at most alpha_1 of them) and l = r - s <= r'
        for s in range(alpha.part(0), max(0, r - r_prime) - 1, -1):
            deltas = sorted(
                (_star(nu, convention) for nu in _horizontal_strip_removals(alpha, s)),
                reverse=True,
            )
            for gamma in _horizontal_strips(beta_star, s + r_prime - r):
                row.extend((_bipartition((gamma, delta)), 1) for delta in deltas)
        return tuple(row)
    delta = _star(alpha, convention)
    n_gamma = r_prime - alpha.size
    if n_gamma < 0:
        return ()
    counts = Counter()
    # s cells leave beta*, so |nu| = |beta| - s <= n_gamma
    for s in range(max(0, beta.size - n_gamma), beta_star.part(0) + 1):
        for nu in _horizontal_strip_removals(beta_star, s):
            counts.update(_horizontal_strips(nu, n_gamma - nu.size))
    return tuple(
        (_bipartition((gamma, delta)), counts[gamma])
        for gamma in sorted(counts, reverse=True)
    )


def theta_images(
    pi: SeriesLabel,
    ctx: TowerContext,
    ctx_prime: TowerContext,
    *,
    convention: str = DEFAULT_SGN_CONVENTION,
) -> list:
    """Image of one series member under the correspondence: the labelled
    columns of its table row, with multiplicities, in canonical column
    order.  Empty below the partner's first occurrence, and for a row that
    is empty in a nonzero table (see row_nonempty).  The row is computed in
    closed form; no table is built."""
    # every check of omega_unipotent, in the same order, then the label size
    _check_convention(convention)
    k = pi.k if type(pi.k) is int else _integer(pi.k, "k")
    r, k_prime, r_prime = _series_ranks(
        ctx.witt_index, ctx.dim_parity, ctx_prime.witt_index, ctx_prime.dim_parity, k
    )
    if pi.char_label.size != r:
        raise ValueError(
            f"label {pi.char_label} has size {pi.char_label.size}, expected r = {r}"
        )
    alpha, beta = Partition(pi.char_label.alpha), Partition(pi.char_label.beta)
    if r_prime < 0:
        return []
    row = _coupling_row(alpha, beta, r, r_prime, is_first_kind(k, k_prime), convention)
    return [(_series_label((k_prime, col)), mult) for col, mult in row]


def extremal_images(
    pi: SeriesLabel,
    ctx: TowerContext,
    ctx_prime: TowerContext,
    *,
    convention: str = DEFAULT_SGN_CONVENTION,
) -> tuple:
    """The least and greatest image labels under dominance on the padded
    concatenation (:func:`~howecorr.partitions.bipartition_dominance_leq`),
    certified in one pass over the images (see _image_extremes).

    Raises :class:`EmptyImageError` (a ValueError) on an empty image set,
    and :class:`NonUniqueExtremeError` with the offending antichain if there
    is no unique least or greatest element.
    """
    images = theta_images(pi, ctx, ctx_prime, convention=convention)
    if not images:
        r, k_prime, r_prime = _series_ranks(
            ctx.witt_index, ctx.dim_parity, ctx_prime.witt_index, ctx_prime.dim_parity, pi.k
        )
        if r_prime < 0:
            first = ctx_prime.witt_index - r_prime
            reason = f"below first occurrence: m' < {first} = m({k_prime})"
        else:
            reason = f"its row of the nonzero table at r={r}, r'={r_prime} is empty"
        raise EmptyImageError(f"image of {pi} is empty ({reason})")
    return _image_extremes(pi, images[0][0].k, [sl.char_label for sl, _ in images])


def _image_extremes(pi: SeriesLabel, k_prime: int, labels: list) -> tuple:
    """The least and greatest of ``labels``, as k'-series labels: the
    distinct column labels, in column order, of the nonempty row of ``pi``.
    Raises :class:`NonUniqueExtremeError` as ``extremal_images`` does.

    A single label is both.  Otherwise one pass certifies each extreme.
    Each label maps to the prefix sums of its concatenation, both
    components padded to the longest component among the labels
    (``partitions._dominance_vector``).  The vector
    determines the label, and x is below y in dominance exactly when x's
    vector is at most y's entry by entry.  So a label is below every image
    exactly when its vector equals the entrywise minimum over all images,
    and at most one label can; this reads every image, so a label found is
    the unique least image, and if none is found there is none.  The
    greatest image takes the entrywise maximum the same way.  Without a
    unique extreme, the minimal (maximal) labels are found pairwise from the
    same vectors and raised as the antichain, in row order.
    """
    if len(labels) == 1:
        end = _series_label((k_prime, labels[0]))
        return end, end
    width = max(map(len, chain.from_iterable(labels)))
    vectors = [_dominance_vector(x, width) for x in labels]
    ends = []
    for bound, beyond, extreme, kind in (
        (min, ge, "minimum", "minimal"),
        (max, le, "maximum", "maximal"),
    ):
        target = tuple(map(bound, *vectors))
        if target not in vectors:
            # x is minimal (maximal) when no other vector is below (above) its own
            antichain = [
                x
                for x, v in zip(labels, vectors)
                if not any(w != v and all(map(beyond, v, w)) for w in vectors)
            ]
            raise NonUniqueExtremeError(
                f"no unique {extreme} among images of {pi}: "
                f"{kind} antichain {antichain}",
                antichain=antichain,
            )
        ends.append(_series_label((k_prime, labels[vectors.index(target)])))
    return tuple(ends)
