"""Exact character theory of the hyperoctahedral groups W_n.

W_n is the group of signed permutations of {1, ..., n} (the Weyl group of
type B_n), of order 2^n n!.  Conjugacy classes are signed cycle types: a
pair of partitions (positive cycle type, negative cycle type) of total size
n.  Irreducible characters are indexed by bipartitions (alpha, beta) of n,
realised here by the classical construction

    chi_(alpha, beta) = Ind from W_a x W_b of
        (chi_alpha pulled back through W_a -> S_a)
        tensor (chi_beta pulled back through W_b -> S_b, twisted by the
                sign-change linear character of W_b),

with a = |alpha|, b = |beta|.

This module is deliberately brute force and self-certifying; it is the
oracle against which the strip combinatorics elsewhere in the package is
checked.  The conjugacy classes are read off the bipartitions of n as
signed cycle types, each of size |W_n| / (centralizer order); the tests
cross-check them against an enumeration of all 2^n n! elements.  Character
tables are certified orthonormal before they are returned; ``verify``
certifies the column relations, whose diagonal is |W_n| / |C|, and the
class-size sum as well.

A class function is the sequence of its values in canonical class order,
the order of the labels in :func:`_classes`: the one record, cached per
rank, of what is read off the classes of W_n (labels and their positions,
centralizer orders, sizes, the identity's position, S_n cycle types, linear
character values).  A class of W_a x W_b is a pair (class of W_a, class of
W_b), and *product class order* lists the pairs by the canonical order of
W_a, then by that of W_b, the W_b class varying fastest: a class function
on W_a x W_b is its values in that order.  A :class:`CharacterTable`
holds one value tuple per irreducible; class labels are read only to work
out class fusion and to name a class in a message.

Everything is exact.  Character values are integers.  Induction
(:func:`_induce_values`) runs over the class-fusion map
(:func:`_induction_matrix`): each class of W_a x W_b fuses into exactly one
class of W_{a+b}, so each value is added, weighted, to one sum, and one
exact division per class follows.  Only an induced value that is not
integral is a `Fraction`; `Fraction` inputs are summed as they come.  The
certification sums, the column relations in ``verify`` and the
decompositions of induced characters are integer dot products, all
computed by one packed-integer kernel, :class:`_IntMatrix`, whose
docstring proves its slot width; a table keeps one packed view,
``CharacterTable._columns``.  The induced characters Ind(chi x lambda)
from W_a x W_b, lambda a linear character of W_b, are decomposed without
being induced, in one cached family (every chi in Irr(W_a)) per (a, b,
values of lambda), :func:`_induced`: by Frobenius reciprocity,
<Ind(chi x lambda), psi> = <chi x lambda, Res psi>, so one packed sum over
the classes of W_a gives all of chi's multiplicities.  The width proof also
shows that a packed sum >= 0 with no slot's top bit set has no negative slot
and that its digits are its slots; the multiplicities of a character are
all >= 0, so only the nonzero digits of its sum are read.  This is
induce-then-decompose, reordered; the tests require the two orders to
agree.  It is the only decomposition here, and a multiplicity is integral
exactly when its reciprocity sum is divisible by |W_a x W_b|.  Tensoring
with a linear character permutes Irr(W_n), so :func:`_tensor_label_map`
decomposes nothing: it finds each row times the linear character among
the rows of the certified table and gives the permutation by position.

The price is the rank bound: nothing here is meant to run past
``ORACLE_BOUND`` (default 6, |W_6| = 46080).  Every rank-keyed cache checks
its rank against the bound on each call, before it is read.
"""

from __future__ import annotations

import itertools
import struct
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from math import factorial
from operator import add, floordiv, mod, mul
from typing import NamedTuple

from .errors import InternalCheckError, RankBoundError
from .partitions import Partition, _trusted, bipartitions_of
from .symmetric import _mn

#: Largest rank the brute-force machinery will accept.  May be raised by the
#: caller, at the cost of an exponential blow-up.
ORACLE_BOUND = 6

#: The four linear characters of W_n, n >= 2.
LINEAR_CHARACTERS = ("trivial", "sign_changes", "permutation_sign", "coxeter_sign")


def _check_rank(n: int) -> None:
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if n > ORACLE_BOUND:
        raise RankBoundError(
            f"rank {n} exceeds the oracle bound {ORACLE_BOUND}; "
            "raise howecorr.hyperoctahedral.ORACLE_BOUND to force it"
        )


def _rank_checked(rank=None):
    """Put a rank check in front of an `lru_cache`: ``rank`` maps the
    arguments to the rank they ask for (by default the first argument), and
    that rank is checked against ORACLE_BOUND on every call, before the
    cache is read.  An entry cached under a raised bound then raises again
    once the bound is lowered, and the cache, keyed by ranks within the
    bound, needs no size bound.  The wrapper keeps the cache's
    ``cache_clear`` and ``cache_info`` and the uncached ``__wrapped__``."""

    def decorate(cached):
        @wraps(cached.__wrapped__)
        def checked(*args):
            n = rank(*args) if rank else args[0]
            if not 0 <= n <= ORACLE_BOUND:
                _check_rank(n)
            return cached(*args)

        checked.cache_clear, checked.cache_info = cached.cache_clear, cached.cache_info
        return checked

    return decorate


class SignedCycleType(NamedTuple):
    """Conjugacy class label of W_n: positive and negative cycle types."""

    positive: Partition
    negative: Partition


def group_order(n: int) -> int:
    return 2**n * factorial(n)


def _part_centralizer(p: Partition) -> int:
    z = 1
    for part, mult in Counter(p).items():
        z *= (2 * part) ** mult * factorial(mult)
    return z


def centralizer_order(label: SignedCycleType) -> int:
    """Order of the centralizer of an element of signed cycle type ``label``,
    by the wreath-product formula: a product over cycle lengths i of
    (2i)^(multiplicity) * multiplicity!, separately for each sign."""
    return _part_centralizer(label.positive) * _part_centralizer(label.negative)


def _merge(p: Partition, q: Partition) -> Partition:
    """The parts of two partitions, sorted: a partition, built unchecked."""
    return _trusted(sorted(p + q, reverse=True))


class _Classes(NamedTuple):
    """The classes of W_n and what the oracle reads off them, each tuple in
    canonical class order: the labels, the position of each label, the
    centralizer orders |W_n| / |C|, the class sizes, the position of the
    identity class, the cycle type in S_n of each class (the merge of its
    positive and negative cycle types), and the values of each linear
    character by name.  On a class with cycle types (pi, nu) they are:

    * ``trivial``          -> 1
    * ``sign_changes``     -> (-1)^(number of negative cycles)
    * ``permutation_sign`` -> sign of the underlying permutation
    * ``coxeter_sign``     -> their product, the determinant character
    """

    labels: tuple
    position: dict
    centralizers: tuple
    sizes: tuple
    identity: int
    cycle_types: tuple
    linear: dict


@_rank_checked()
@lru_cache(maxsize=None)
def _classes(n: int) -> _Classes:
    """The classes of W_n, the one cache of per-rank class data.

    The classes are read off the bipartitions (alpha, beta) of n as signed
    cycle types (positive type alpha, negative type beta), each of size
    |W_n| / :func:`centralizer_order` (Macdonald I, Appendix B).  The tests
    cross-check these sizes against an enumeration of all 2^n n! elements,
    and ``verify.check_character_tables`` certifies them through the column
    relations and their sum.
    """
    order = group_order(n)
    labels = tuple(SignedCycleType(bp.alpha, bp.beta) for bp in bipartitions_of(n))
    position = {label: i for i, label in enumerate(labels)}
    centralizers = tuple(map(centralizer_order, labels))
    negative = [(-1) ** len(c.negative) for c in labels]
    permutation = [(-1) ** (n - len(c.positive) - len(c.negative)) for c in labels]
    return _Classes(
        labels,
        position,
        centralizers,
        tuple(order // z for z in centralizers),
        position[SignedCycleType(Partition([1] * n), Partition())],
        tuple(_merge(c.positive, c.negative) for c in labels),
        {
            "trivial": (1,) * len(labels),
            "sign_changes": tuple(negative),
            "permutation_sign": tuple(permutation),
            "coxeter_sign": tuple(map(mul, negative, permutation)),
        },
    )


def _outer(xs, ys) -> list:
    """Values of the outer product of two class functions, given as value
    lists, in product class order."""
    return [x * y for x in xs for y in ys]


@_rank_checked(add)
@lru_cache(maxsize=None)
def _induction_matrix(a: int, b: int) -> tuple:
    """Class fusion for the embedding W_a x W_b <= W_{a+b}: per product
    class D, in product class order, the position in canonical class
    order of the class C of W_{a+b} that D fuses into, and the weight
    |D| |W_{a+b}| / |C|; and the number of classes of W_{a+b}.  Fusion
    concatenates the positive cycle types and the negative cycle types, so
    each D fuses into exactly one C, and this sparse map is the whole
    induction matrix.

    No label is built per product class: each pair of cycle types of W_a
    and W_b is merged once per call, whether the pair is positive or
    negative (:func:`_merges`), and the two merges, as a plain tuple, find C
    in a dict keyed by the labels of W_{a+b}, which hash and compare as
    tuples."""
    classes, left, right = _classes(a + b), _classes(a), _classes(b)
    positive, negative = _merges(left.labels, right.labels)
    chain = itertools.chain.from_iterable
    keys = zip(
        chain(positive[c.positive] for c in left.labels),
        chain(negative[c.negative] for c in left.labels),
    )
    fused = list(map(classes.position.__getitem__, keys))
    sizes = _outer(left.sizes, right.sizes)
    fusion = tuple(zip(fused, map(mul, sizes, map(classes.centralizers.__getitem__, fused))))
    return fusion, len(classes.labels)


def _merges(firsts: tuple, seconds: tuple) -> tuple:
    """Two dicts from each partition p in a label of ``firsts``: to the list
    of p merged (:func:`_merge`) with the positive cycle type of each label
    of ``seconds`` in turn, and to that list for their negative cycle types.
    Each pair of partitions is merged once."""
    distinct = dict.fromkeys(itertools.chain.from_iterable(seconds))
    positives, negatives = [c.positive for c in seconds], [c.negative for c in seconds]
    positive, negative = {}, {}
    for p in dict.fromkeys(itertools.chain.from_iterable(firsts)):
        merged = {q: _merge(p, q) for q in distinct}
        positive[p] = list(map(merged.__getitem__, positives))
        negative[p] = list(map(merged.__getitem__, negatives))
    return positive, negative


def _induce_values(a: int, b: int, values: list) -> list:
    """Induction from W_a x W_b to W_{a+b} of the class function with these
    values in product class order, as values in canonical class
    order: on a class C, the sum over the product classes D fusing into C
    of |D| |W_{a+b}| / |C| times the value on D, divided by |W_a x W_b|.  A
    value is a `Fraction` exactly when it is not an integer; when every sum
    divides, as it does for a character, all the quotients are taken by one
    ``map``.  Raises ValueError unless there is one value per product
    class."""
    fusion, size = _induction_matrix(a, b)
    if len(values) != len(fusion):
        raise ValueError(f"W_{a} x W_{b} has {len(fusion)} classes, got {len(values)} values")
    den = group_order(a) * group_order(b)
    nums = [0] * size
    for (c, weight), v in zip(fusion, values):
        nums[c] += weight * v
    dens = itertools.repeat(den)
    if not any(map(mod, nums, dens)):
        return list(map(floordiv, nums, dens))
    return [Fraction(num, den) if num % den else num // den for num in nums]


def _linear_values(n: int, which: str) -> tuple:
    """Values of the linear character ``which`` of W_n (see :class:`_Classes`)
    in canonical class order."""
    try:
        return _classes(n).linear[which]
    except KeyError:
        raise ValueError(f"unknown linear character {which!r}") from None


def _irreducible_seeds(labels):
    """For each label (alpha, beta) in turn, the label and the values, in
    product class order, of the character of W_a x W_b whose
    induction is chi_(alpha, beta): chi_alpha and chi_beta pulled back to
    W_a and W_b, the second twisted by the sign-change character.  The S_n
    values come straight from the Murnaghan-Nakayama recursion on canonical
    partitions, one value list per partition, however many labels it is
    in."""
    parts = dict.fromkeys(itertools.chain.from_iterable(labels))
    pulled = {p: [_mn(p, t) for t in _classes(p.size).cycle_types] for p in parts}
    twisted = {
        p: list(map(mul, values, _classes(p.size).linear["sign_changes"]))
        for p, values in pulled.items()
    }
    for bp in labels:
        yield bp, _outer(pulled[bp.alpha], twisted[bp.beta])


#: memoryview and struct formats of the unsigned machine integers of 8, 16,
#: 32 and 64 bits (``struct`` reads them little-endian, at standard sizes).
_SLOT_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _digits(total: int, width: int, count: int):
    """The ``count`` lowest base-2^width digits of ``total`` >= 0, lowest
    first; ``width`` is a power of two >= 8.  At widths of 8 to 64 bits a
    digit is an unsigned machine integer, so all of them are read at once,
    as the bytes of ``total`` in native order cast to that integer type; a
    wider digit is read by a shift and a mask."""
    if width <= 64:
        data = total.to_bytes(width // 8 * count, sys.byteorder)
        return memoryview(data).cast(_SLOT_FORMATS[width])
    mask = (1 << width) - 1
    return [total >> shift & mask for shift in range(0, width * count, width)]


def _read_slots(total: int, width: int, count: int) -> list:
    """The ``count`` lowest base-2^width digits of ``total`` >= 0, lowest
    first, each minus 2^(width - 1) (:func:`_digits`)."""
    return list(map((1 << (width - 1)).__rsub__, _digits(total, width, count)))


def _slot_width(norm_bits: int, largest: int) -> int:
    """The slot width that :class:`_IntMatrix` proves for rows whose L1
    norms have at most ``norm_bits`` bits and vectors with max|v_i| at most
    ``largest``."""
    bound = norm_bits + largest.bit_length() + 1
    return max(8, 1 << (bound - 1).bit_length())


class _IntMatrix:
    """An integer matrix whose products with integer vectors are computed
    exactly by one packed-integer dot product.

    Column c is packed into one int, the entry of row b at bit width * b,
    so that for a vector v, ``sum(map(mul, columns, v))`` is the sum over b
    of d_b 2^(width * b), where d_b = row_b . v.  The width is proven per
    call: |d_b| <= |row_b|_1 max|v_i| < 2^(bound - 1) with bound = (bit
    length of the largest row L1 norm) + (bit length of max|v_i|) + 1, and
    the width is the least power of two >= max(bound, 8).  Adding
    2^(width - 1) to every slot therefore puts slot b at d_b + 2^(width - 1),
    inside [0, 2^width): the sum plus that offset has exactly these
    base-2^width digits, no carry crosses a slot boundary, and unpacking
    (:func:`_read_slots`) is exact.  For the same reason the sum fixes its
    slots, so one comparison with the sum that the slots wanted would give
    checks all of them (:meth:`orthogonality_defect`).  Nor can a slot hide
    a negative value: a sum T >= 0 with no slot's top bit set (T & offset
    == 0, offset as :meth:`packed` returns it) has base-2^width digits in
    [0, 2^(width - 1)), and since a representation with digits of absolute
    value below 2^(width - 1) is unique, those digits are the d_b
    themselves, all of them >= 0; such a sum can be read digit by digit,
    with no offset, and its zero digits skipped (:func:`_induced`).  Any
    other sum has a negative slot.  The floor of 8 bits
    makes every slot of up to 64 bits an unsigned machine integer, so that
    a column's slots are packed by one ``struct`` call and a sum's are read
    by one cast of its bytes.  The packed columns are kept per width;
    rounding the width up to a power of two keeps that to one packing for
    all the calls whose bounds share it.
    """

    def __init__(self, rows):
        self.rows = rows
        self._count = len(rows)
        self._norm_bits = max(sum(map(abs, row)) for row in rows).bit_length()
        self._packed = {}

    def _pack(self, width: int) -> tuple:
        """The packed columns and the offset 2^(width - 1) in every slot.
        Each column is packed in one step: its entries plus the offset are
        its unsigned slots, laid out as little-endian bytes (by one
        ``struct`` call at 8 to 64 bits, by ``int.to_bytes`` per slot
        above) and read back by ``int.from_bytes``, less the offset."""
        half, size, count = 1 << (width - 1), width // 8, self._count
        columns = zip(*self.rows)
        if width <= 64:
            pack = struct.Struct(f"<{count}{_SLOT_FORMATS[width]}").pack
            data = (pack(*map(half.__add__, column)) for column in columns)
        else:
            data = (
                b"".join((half + x).to_bytes(size, "little") for x in column) for column in columns
            )
        offset = int.from_bytes(half.to_bytes(size, "little") * count, "little")
        return [int.from_bytes(packed, "little") - offset for packed in data], offset

    def packed(self, width: int) -> tuple:
        """The packed columns and the offset at ``width``, packed on first
        use."""
        packed = self._packed.get(width)
        if packed is None:
            packed = self._packed[width] = self._pack(width)
        return packed

    def orthogonality_defect(self, vectors, diagonal):
        """The first pair (i, j), i <= j, in lexicographic order at which
        row_i . vectors[j] is not diagonal[i] (for i == j) or 0 (else), or
        None when there is none; one diagonal entry per row and per vector.

        One width, the largest that any vector needs, serves the call.
        Vector j passes when its packed sum is diagonal[j] 2^(width * j):
        the sum fixes its slots, so that one comparison checks them all (a
        diagonal entry that no slot can hold never passes).  Only a vector
        that fails it has its slots read, and the least i <= j at which one
        is wrong is kept, as the plain scan would; a vector wrong only below
        its diagonal gives none."""
        largest = max(max(map(abs, vector)) for vector in vectors)
        width = _slot_width(self._norm_bits, largest)
        columns, offset = self.packed(width)
        half = 1 << (width - 1)
        first = None
        for j, (vector, want) in enumerate(zip(vectors, diagonal)):
            total = sum(map(mul, columns, vector))
            if -half < want < half and total == want << (width * j):
                continue
            slots = _read_slots(total + offset, width, self._count)
            wrong = [i for i in range(j + 1) if slots[i] != (want if i == j else 0)]
            if wrong and (first is None or wrong[0] < first[0]):
                first = wrong[0], j
        return first


@dataclass(frozen=True)
class CharacterTable:
    """Certified character table of W_n.

    ``labels`` fixes the row order (canonical bipartition order), and
    ``rows`` holds, in that order, the values of each irreducible as a
    tuple in canonical class order; the classes, their sizes and the
    identity's position are read off ``_classes(rank)``.  Construction via
    :func:`build_character_table` is the only supported entry point.
    """

    rank: int
    labels: tuple
    rows: tuple

    @cached_property
    def _columns(self) -> _IntMatrix:
        """The rows as one matrix, the one packed view of the table: packed
        at a width, its column C holds chi(C) in the slot of each
        irreducible chi.  Its dot products with the rows weighted by the
        class sizes certify the table (:func:`build_character_table`), and
        :func:`_induced` combines its packed columns."""
        return _IntMatrix(self.rows)


@_rank_checked()
@lru_cache(maxsize=None)
def build_character_table(n: int) -> CharacterTable:
    """Build and certify the character table of W_n.

    Every irreducible is induced from the two-partition construction
    (:func:`_irreducible_seeds`, which computes the S_a values of each
    partition once for the table), checked to be integer valued, and the
    full table is certified orthonormal with
    respect to the exact inner product: |W_n| <chi, psi> is the dot product
    of chi's row with psi's row weighted by the class sizes, |C| psi(C), one
    packed comparison per psi (``_IntMatrix.orthogonality_defect``).  A failed
    certification raises :class:`InternalCheckError` rather than returning
    a bad table.
    """
    labels = tuple(bipartitions_of(n))
    rows = []
    for bp, seed in _irreducible_seeds(labels):
        row = _induce_values(bp.alpha.size, bp.beta.size, seed)
        bad = [v for v in row if not isinstance(v, int)]
        if bad:
            raise InternalCheckError(
                f"W_{n}: character {bp} has non-integral values {bad[:3]}"
            )
        rows.append(tuple(row))
    table = CharacterTable(n, labels, tuple(rows))
    sizes = _classes(n).sizes
    weighted = [list(map(mul, sizes, row)) for row in rows]
    defect = table._columns.orthogonality_defect(weighted, [group_order(n)] * len(rows))
    if defect:
        i, j = defect
        raise InternalCheckError(
            f"W_{n}: orthonormality fails at ({labels[i]}, {labels[j]})"
        )
    return table


def _multiplicities(labels, totals, den: int) -> dict:
    """The inner products total / den, by label, zeros omitted.  Raises
    ValueError if one is not integral: the class function is then not a
    virtual character."""
    mults = {}
    for bp, total in zip(labels, totals):
        if total:
            mult, rest = divmod(total, den)
            if rest:
                raise ValueError(f"not a virtual character: <f, chi_{bp}> = {Fraction(total, den)}")
            mults[bp] = mult
    return mults


@_rank_checked(lambda l, s, second: l + s)
@lru_cache(maxsize=None)
def _induced(l: int, s: int, second: tuple) -> tuple:
    """Ind from W_l x W_s to W_{l+s} of chi x lambda for every chi in
    Irr(W_l), lambda the class function of W_s with integer values
    ``second`` (a linear character's, :func:`_linear_values`, so names that
    agree on W_s share the entry): per chi, in canonical label order, its
    multiplicities against Irr(W_{l+s}) by label, zeros omitted (shared,
    read only), and its degree [W_{l+s} : W_l x W_s] chi(1)
    lambda(1), since only the identity product class fuses into the
    identity.  Raises ValueError unless ``second`` has one value per class
    of W_s, or if a multiplicity is not integral.

    By Frobenius reciprocity (the characters of W_n are rational),
    |W_l||W_s| <Ind(chi x lambda), psi> is the sum over the product classes
    D of |D| (chi x lambda)(D) psi(fuse(D)) (:func:`_induction_matrix`),
    that is the sum over the classes c of W_l of chi(c) P_c(psi), where
    P_c(psi) = |c| times the sum over the classes c' of W_s of |c'|
    lambda(c') psi(fuse(c, c')): induce-then-decompose, reordered; the tests
    require the two orders to agree.  Each P_c is packed once for the
    family, psi in slot psi, as that sum over the packed columns of the
    table of W_{l+s} (``CharacterTable._columns``), and one packed
    ``sum(map(mul))`` per chi gives a sum T whose slots are all of chi's
    multiplicities times |W_l||W_s|.  The slot width is :class:`_IntMatrix`'s:
    the L1 norm of row psi is at most |W_l||W_s| max|lambda| psi(1), since
    |psi(C)| <= psi(1) and the sizes |D| sum to |W_l||W_s|, and max|v| is
    the largest degree in Irr(W_l), since |chi(c)| <= chi(1).  By the same
    proof, when T >= 0 and T & offset == 0 no slot is negative and every
    digit of T is its slot, so only the nonzero digits are read, picked out
    by ``itertools.compress`` and ``filter``: 825 of the 22,634 slots of
    the 64 families that ``check_induction(6)`` reads.  Any other T, such
    as one with a negative multiplicity, takes the signed read,
    :func:`_read_slots`.  The packed P_c are dropped once the family is
    built.
    """
    left, right = _classes(l), _classes(s)
    if len(second) != len(right.labels):
        raise ValueError(f"W_{s} has {len(right.labels)} classes, got {len(second)} values")
    n, order = l + s, group_order(l) * group_order(s)
    table, rows = build_character_table(n), build_character_table(l).rows
    identity = _classes(n).identity
    norm = order * max(map(abs, second)) * max(row[identity] for row in table.rows)
    width = _slot_width(norm.bit_length(), max(row[left.identity] for row in rows))
    columns, offset = table._columns.packed(width)
    fused = [columns[c] for c, _ in _induction_matrix(l, s)[0]]  # fuse(D), D in pair order
    weights = list(map(mul, right.sizes, second))  # |c'| lambda(c')
    step = len(weights)
    packed = [
        size * sum(map(mul, weights, fused[i : i + step]))
        for size, i in zip(left.sizes, range(0, len(fused), step))
    ]
    degree = group_order(n) // order * second[right.identity]
    labels, count = table.labels, len(table.labels)
    family = []
    for row in rows:
        total = sum(map(mul, packed, row))
        if total >= 0 and not total & offset:  # every slot is its digit
            digits = _digits(total, width, count)
            nonzero = itertools.compress(labels, digits), filter(None, digits)
            mults = _multiplicities(*nonzero, order)
        else:
            mults = _multiplicities(labels, _read_slots(total + offset, width, count), order)
        family.append((mults, degree * row[left.identity]))
    return tuple(family)


@_rank_checked()
@lru_cache(maxsize=None)
def _tensor_label_map(n: int, which: str) -> tuple:
    """The permutation of Irr(W_n) that tensoring with the linear character
    ``which`` induces, by position in canonical label order: entry i is the
    position of the row that equals row i times the linear character's
    values.  Such a product is again irreducible (Macdonald I, Appendix B),
    so it is one row of the certified table; raises InternalCheckError if
    it is none."""
    table = build_character_table(n)
    linear = _linear_values(n, which)
    position = {row: i for i, row in enumerate(table.rows)}
    twist = []
    for bp, row in zip(table.labels, table.rows):
        i = position.get(tuple(map(mul, row, linear)))
        if i is None:
            raise InternalCheckError(
                f"W_{n}: tensoring {bp} with {which} gives no row of the table"
            )
        twist.append(i)
    return tuple(twist)
