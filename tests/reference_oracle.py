"""Two frozen references for the oracle.

The first is the oracle omega path as it stood before it was factored per
group, kept as the reference that ``verify._oracle_omega`` must reproduce.
Everything that decides an entry is frozen here: the product class function
on W_r x W_r' summed over l and chi in Irr(W_l), with the sgn twist taken as
an actual pointwise product, and its two-step contraction against the
irreducible pairs.  Only the certified character tables, the linear
characters and induction come from the library.

The second, at the end, is the label-keyed class enumeration, tensor
product, induction and table construction that the library's value-list
versions must reproduce.
"""

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul

from howecorr.hyperoctahedral import (
    ClassFunction,
    ProductClassFunction,
    SignedCycleType,
    build_character_table,
    group_order,
    identity_class,
    induce_class_function,
    linear_character,
)
from howecorr.partitions import Partition, bipartitions_of
from howecorr.symmetric import sn_character_value


def tensor(f, g):
    """Outer tensor product of two class functions, on W_a x W_b."""
    return ProductClassFunction((f.rank, g.rank), tensor_values(f.values, g.values))


def _pointwise(f, g):
    """Pointwise product of two class functions on W_n."""
    return ClassFunction(f.rank, {c: v * g.values[c] for c, v in f.values.items()})


def _add(f, g):
    return ProductClassFunction(
        f.ranks, {c: v + g.values[c] for c, v in f.values.items()}
    )


def decompose_product(f) -> dict:
    """Multiplicity of chi_pi x chi_pi' in a product class function, for
    all label pairs, by exact inner products (two-step contraction)."""
    a, b = f.ranks
    ta, tb = build_character_table(a), build_character_table(b)
    classes_b = tb.class_labels()
    # half[bp_b][i]: sum over classes cb of W_b of |cb| chi_bp_b(cb) f(ca_i, cb)
    half = {bp: [] for bp in tb.labels}
    for ca in ta.class_sizes:
        values = [f.values[(ca, cb)] for cb in classes_b]
        for bp, row in tb.weighted_rows:
            half[bp].append(sum(map(mul, row, values)))
    denom = group_order(a) * group_order(b)
    out = {}
    for bp_a, row in ta.weighted_rows:
        for bp_b in tb.labels:
            total = sum(map(mul, row, half[bp_b]))
            if total % denom:
                raise ValueError("product class function is not a character")
            if total:
                out[(bp_a, bp_b)] = total // denom
    return out


@lru_cache(maxsize=None)
def oracle_omega(r, r_prime, first_kind, convention):
    """The decomposition of the coupling and the coupling itself, a
    :class:`ProductClassFunction` on W_r x W_r'."""
    total = None
    for l in range(min(r, r_prime) + 1):
        table_l = build_character_table(l)
        sgn_l = linear_character(l, convention)
        second = linear_character(r - l, "trivial" if first_kind else convention)
        one = linear_character(r_prime - l, "trivial")
        for chi in bipartitions_of(l):
            f = table_l.character(chi)
            left = induce_class_function(tensor(f, second))
            right = induce_class_function(tensor(_pointwise(f, sgn_l), one))
            term = tensor(left, right)
            total = term if total is None else _add(total, term)
    return decompose_product(total), total


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
    return sn_character_value(label, _merge(cls.positive, cls.negative))


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


def induced(chi, s, which):
    """The decomposition and degree of Ind(chi_chi x linear character)."""
    l = chi.size
    f = tensor_values(character_table(l)[chi], linear_values(s, which))
    values = induce_values(f, l, s)
    return decompose_values(values, l + s), values[identity_class(l + s)]
