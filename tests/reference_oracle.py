"""The oracle omega path as it stood before it was factored per group, kept
as the reference that ``verify._oracle_omega`` must reproduce.

Everything that decides an entry is frozen here: the product class function
on W_r x W_r' summed over l and chi in Irr(W_l), with the sgn twist taken as
an actual pointwise product, and its two-step contraction against the
irreducible pairs.  Only the certified character tables, the linear
characters, induction and the outer tensor product come from the library.
"""

from functools import lru_cache
from operator import mul

from howecorr.hyperoctahedral import (
    ProductClassFunction,
    build_character_table,
    group_order,
    induce_class_function,
    linear_character,
    tensor,
)
from howecorr.partitions import bipartitions_of


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
            right = induce_class_function(tensor(f * sgn_l, one))
            term = tensor(left, right)
            total = term if total is None else _add(total, term)
    return decompose_product(total), total
