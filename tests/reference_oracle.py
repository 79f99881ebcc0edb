"""Frozen references for the oracle, all label-keyed: a class function is
a dict from class labels (pairs of labels on W_a x W_b) to values.

The first is the oracle omega path as it stood before it was factored per
group, kept as the reference that ``verify._oracle_omega`` must reproduce.
Everything that decides an entry is frozen here: the class function on
W_r x W_r' summed over l and chi in Irr(W_l), with the sgn twist taken as
an actual pointwise product, and its two-step contraction against the
irreducible pairs.  It is built on the second reference.

The second is the label-keyed class enumeration, tensor product, induction
and table construction that the library's value-list versions must
reproduce; only the partition enumeration, the label types and the S_n
character values come from the library.

Beside its label-keyed decomposition sits one of value lists in the
library's class order (``decompose_value_list``): plain integer sums
against the rows of the library's certified table, without its packed
kernel, for ranks whose element enumeration is out of reach.

The third, at the end, is the enumeration of all 2^n n! elements of W_n in
window notation, with the signed cycle type of each.
"""

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul

from howecorr.hyperoctahedral import (
    SignedCycleType,
    _classes,
    build_character_table,
    group_order,
)
from howecorr.partitions import Partition, bipartitions_of
from howecorr.symmetric import _mn


def _add(f, g):
    return {c: v + g[c] for c, v in f.items()}


def decompose_product(f, a, b) -> dict:
    """Multiplicity of chi_pi x chi_pi' in a class function on W_a x W_b,
    for all label pairs, by exact inner products (two-step contraction)."""
    ta, tb = character_table(a), character_table(b)
    # half[bp_b][i]: sum over classes cb of W_b of |cb| chi_bp_b(cb) f(ca_i, cb)
    half = {
        bp: [sum(size * chi[cb] * f[ca, cb] for cb, size in classes(b)) for ca, _ in classes(a)]
        for bp, chi in tb.items()
    }
    denom = group_order(a) * group_order(b)
    out = {}
    for bp_a, chi in ta.items():
        row = [size * chi[ca] for ca, size in classes(a)]
        for bp_b in tb:
            total = sum(map(mul, row, half[bp_b]))
            if total % denom:
                raise ValueError("product class function is not a character")
            if total:
                out[(bp_a, bp_b)] = total // denom
    return out


@lru_cache(maxsize=None)
def oracle_omega(r, r_prime, first_kind, convention):
    """The decomposition of the coupling and the coupling itself, a class
    function on W_r x W_r'."""
    total = None
    for l in range(min(r, r_prime) + 1):
        sgn_l = linear_values(l, convention)
        second = linear_values(r - l, "trivial" if first_kind else convention)
        one = linear_values(r_prime - l, "trivial")
        for f in character_table(l).values():
            twisted = {c: v * sgn_l[c] for c, v in f.items()}
            left = induce_values(tensor_values(f, second), l, r - l)
            right = induce_values(tensor_values(twisted, one), l, r_prime - l)
            term = tensor_values(left, right)
            total = term if total is None else _add(total, term)
    return decompose_product(total, r, r_prime), total


# ---------------------------------------------------------------------------
# The label-keyed oracle, frozen as it stood before its inner loops moved to
# value lists in canonical class order.  Class functions are plain dicts
# keyed by class labels (pairs of labels on W_a x W_b); only the partition
# enumeration, the label types and the S_n character values come from the
# library.


def _cycles(perm):
    seen = 0
    out = []
    for start in range(len(perm)):
        if seen >> start & 1:
            continue
        length, mask, j = 0, 0, start
        while not mask >> j & 1:
            mask |= 1 << j
            j = perm[j]
            length += 1
        seen |= mask
        out.append((length, mask))
    out.sort(key=lambda cycle: -cycle[0])
    return out


@lru_cache(maxsize=None)
def classes(n):
    """Pairs (label, class size) in canonical label order, counted by
    visiting every element, one sign mask at a time."""
    raw = Counter()
    for perm in itertools.permutations(range(n)):
        cycles = _cycles(perm)
        for signs in range(1 << n):
            pos, neg = [], []
            for length, mask in cycles:
                if (signs & mask).bit_count() & 1:
                    neg.append(length)
                else:
                    pos.append(length)
            raw[tuple(pos), tuple(neg)] += 1
    counts = {
        SignedCycleType(Partition(pos), Partition(neg)): count
        for (pos, neg), count in raw.items()
    }
    return tuple(
        (label, counts.pop(label))
        for label in (SignedCycleType(bp.alpha, bp.beta) for bp in bipartitions_of(n))
    )


def tensor_values(f, g):
    """Outer tensor product of two label-keyed class functions."""
    return {(c1, c2): v1 * v2 for c1, v1 in f.items() for c2, v2 in g.items()}


def _merge(p, q):
    return Partition(sorted(tuple(p) + tuple(q), reverse=True))


def _fuse(l1, l2):
    return SignedCycleType(
        _merge(l1.positive, l2.positive), _merge(l1.negative, l2.negative)
    )


@lru_cache(maxsize=None)
def _fusion_groups(a, b):
    groups = {}
    for (l1, s1), (l2, s2) in itertools.product(classes(a), classes(b)):
        groups.setdefault(_fuse(l1, l2), []).append(((l1, l2), s1 * s2))
    return tuple(
        (label, size, tuple(groups.get(label, ()))) for label, size in classes(a + b)
    )


def induce_values(f, a, b):
    """Induction from W_a x W_b to W_{a+b} by the class sum formula, one
    fusion group per class; a value is a Fraction exactly when it is not an
    integer."""
    sub_order = group_order(a) * group_order(b)
    out = {}
    for label, csize, fused in _fusion_groups(a, b):
        acc = sum(size * f[pair] for pair, size in fused)
        num, den = group_order(a + b) * acc, sub_order * csize
        quotient, rest = divmod(num, den)
        out[label] = quotient if not rest else Fraction(num, den)
    return out


def linear_values(n, which):
    out = {}
    for label, _ in classes(n):
        lp, ln = len(label.positive), len(label.negative)
        if which == "trivial":
            v = 1
        elif which == "sign_changes":
            v = (-1) ** ln
        elif which == "permutation_sign":
            v = (-1) ** (n - lp - ln)
        else:
            v = (-1) ** (n - lp)
        out[label] = v
    return out


def _sn_pullback(label, cls):
    return _mn(tuple(label), tuple(_merge(cls.positive, cls.negative)))


def irreducible_seed(alpha, beta):
    """The character of W_a x W_b whose induction is chi_(alpha, beta)."""
    second = [
        (l2, _sn_pullback(beta, l2) * (-1) ** len(l2.negative))
        for l2, _ in classes(beta.size)
    ]
    return {
        (l1, l2): _sn_pullback(alpha, l1) * v2
        for l1, _ in classes(alpha.size)
        for l2, v2 in second
    }


@lru_cache(maxsize=None)
def character_table(n):
    """{bipartition: {class: value}} in canonical label order."""
    return {
        bp: induce_values(
            irreducible_seed(bp.alpha, bp.beta), bp.alpha.size, bp.beta.size
        )
        for bp in bipartitions_of(n)
    }


def decompose_values(f, n):
    """Multiplicities of a label-keyed class function on W_n by exact inner
    products, zeros omitted."""
    weighted = [size * f[label] for label, size in classes(n)]
    out = {}
    for bp, chi in character_table(n).items():
        total = sum(map(mul, chi.values(), weighted))
        m, rest = divmod(total, group_order(n))
        if rest:
            raise ValueError("not a virtual character")
        if m:
            out[bp] = m
    return out


def decompose_value_list(values, n):
    """Multiplicities, by label and zeros omitted, of a class function on
    W_n given as values in the library's canonical class order, by plain
    integer sums against the rows of ``build_character_table(n)``."""
    table = build_character_table(n)
    weighted = list(map(mul, _classes(n).sizes, values))
    out = {}
    for bp, row in zip(table.labels, table.rows):
        m, rest = divmod(sum(map(mul, row, weighted)), group_order(n))
        if rest:
            raise ValueError("not a virtual character")
        if m:
            out[bp] = m
    return out


def identity(n):
    """The class of the identity of W_n: n positive 1-cycles."""
    return SignedCycleType(Partition([1] * n), Partition())


def induced(chi, s, which):
    """The decomposition and degree of Ind(chi_chi x linear character)."""
    l = chi.size
    f = tensor_values(character_table(l)[chi], linear_values(s, which))
    values = induce_values(f, l, s)
    return decompose_values(values, l + s), values[identity(l + s)]


# ---------------------------------------------------------------------------
# Every element of W_n, for cross-checking the classes and the linear
# characters read off the bipartitions.


def signed_permutations(n):
    """All elements of W_n in window notation: tuples w with w[i] = +-sigma(i+1)."""
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * v for s, v in zip(signs, perm))


def signed_cycle_type(window):
    """Signed cycle type of an element in window notation.  A cycle of the
    underlying permutation is positive or negative according to the product
    of the signs picked up along it."""
    n = len(window)
    seen = [False] * n
    pos, neg = [], []
    for start in range(n):
        if seen[start]:
            continue
        length, sign, j = 0, 1, start
        while not seen[j]:
            seen[j] = True
            v = window[j]
            if v < 0:
                sign = -sign
            j = abs(v) - 1
            length += 1
        (pos if sign > 0 else neg).append(length)
    return SignedCycleType(
        Partition(sorted(pos, reverse=True)), Partition(sorted(neg, reverse=True))
    )
