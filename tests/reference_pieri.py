"""The Pieri omega path as it stood before the strip operators were
memoised, kept as the reference that the current tables must reproduce.

Everything that decides an entry is frozen here: the recursive strip
generators (validating every partition they build), ``pieri_induction`` per
bipartition, the sgn twist and the assembly loop of ``omega_unipotent``.
Only the enumeration of (bi)partitions, the cuspidal bookkeeping and the
:class:`MultiplicityTable` container come from the library.

The index lists of the omega sum are frozen too, as they were built by
hashing each label into the canonical order (``strip_indices``,
``twist_permutation``).  ``strip_indices`` reads the ``pieri_induction``
frozen here and ``twist_permutation`` the ``sgn_twist`` frozen here, so
they share no strip or twist code with the library.
"""

from functools import lru_cache

from howecorr.partitions import (
    Bipartition,
    Partition,
    _bipartition_index,
    _bipartitions_of,
    bipartitions_of,
)
from howecorr.unipotent import (
    MultiplicityTable,
    _validate_series,
    theta_cuspidal,
    witt_index_of_cuspidal,
)


def _conjugate(p):
    p = Partition(p)
    if not p:
        return p
    cols = [0] * p[0]
    for part in p:
        for j in range(part):
            cols[j] += 1
    return Partition(cols)


def horizontal_strip_additions(p, size):
    p = Partition(p)
    if size < 0:
        raise ValueError("strip size must be nonnegative")
    rows = len(p) + 1
    results = []

    def extend(i, remaining, prev, acc):
        if i == rows:
            if remaining == 0:
                results.append(Partition(acc))
            return
        base = p.part(i)
        hi = min(base + remaining, prev)
        if i >= 1:
            hi = min(hi, p.part(i - 1))
        for val in range(hi, base - 1, -1):
            extend(i + 1, remaining - (val - base), val, acc + [val])

    extend(0, size, p.part(0) + size, [])
    return results


def vertical_strip_additions(p, size):
    p = Partition(p)
    if size < 0:
        raise ValueError("strip size must be nonnegative")
    rows = len(p) + size
    results = []

    def extend(i, remaining, prev, acc):
        if remaining > rows - i:
            return
        if i == rows:
            if remaining == 0:
                results.append(Partition(acc))
            return
        base = p.part(i)
        hi = min(base + 1, prev, base + remaining)
        for val in range(hi, base - 1, -1):
            extend(i + 1, remaining - (val - base), val, acc + [val])

    extend(0, size, p.part(0) + 1, [])
    return results


def sgn_twist(bp, convention):
    if convention == "sign_changes":
        return Bipartition(Partition(bp.beta), Partition(bp.alpha))
    if convention == "coxeter_sign":
        return Bipartition(_conjugate(bp.beta), _conjugate(bp.alpha))
    raise ValueError(f"unknown sgn convention {convention!r}")


def pieri_induction(bp, s, second, convention):
    alpha, beta = Partition(bp.alpha), Partition(bp.beta)
    if second == "trivial":
        return [Bipartition(lam, beta) for lam in horizontal_strip_additions(alpha, s)]
    if convention == "coxeter_sign":
        additions = vertical_strip_additions(beta, s)
    else:
        additions = horizontal_strip_additions(beta, s)
    return [Bipartition(alpha, mu) for mu in additions]


@lru_cache(maxsize=None)
def _entries(r, r_prime, second, convention):
    """The assembly loop; it depends on nothing but these four arguments."""
    entries = {}
    for l in range(min(r, r_prime) + 1):
        for chi in bipartitions_of(l):
            rows = pieri_induction(chi, r - l, second, convention)
            cols = pieri_induction(sgn_twist(chi, convention), r_prime - l, "trivial", convention)
            for row in rows:
                for col in cols:
                    key = (row, col)
                    entries[key] = entries.get(key, 0) + 1
    return entries


def omega_table(m, parity, m_prime, parity_prime, k, convention):
    """The table ``omega_unipotent`` returned for these contexts.  The
    table derives its labels and kind from its ranks and (k, k'), so
    equality of tables does not compare them; they are stated here and
    compared with the derived ones."""
    r = _validate_series(m, parity, k)
    k_prime = theta_cuspidal(k, parity_prime)
    r_prime = m_prime - witt_index_of_cuspidal(k_prime)
    row_labels = tuple(bipartitions_of(r))
    if r_prime < 0:
        formula, col_labels, cells = None, (), {}
    else:
        first_kind = k % 2 == 1 or (k == 0 and k_prime == 0)
        formula = "first-kind" if first_kind else "second-kind"
        col_labels = tuple(bipartitions_of(r_prime))
        cells = dict(_entries(r, r_prime, "trivial" if first_kind else "sgn", convention))
    table = MultiplicityTable(m, m_prime, k, k_prime, convention, cells)
    derived = (table.formula, table.is_zero, table.row_labels, table.col_labels)
    if derived != (formula, r_prime < 0, row_labels, col_labels):
        raise AssertionError(f"derived kind or labels {derived} differ from the stated ones")
    return table


def strip_indices(n, l, second, convention="coxeter_sign"):
    """The indices in Irr(W_n) of the labels of Ind(chi x second), one tuple
    per chi in Irr(W_l), each label hashed into the canonical order."""
    index = _bipartition_index(n)
    return tuple(
        tuple(map(index.__getitem__, pieri_induction(chi, n - l, second, convention)))
        for chi in _bipartitions_of(l)
    )


def twist_permutation(n, convention):
    """The index in Irr(W_n) of the sgn twist of each bipartition of n."""
    index = _bipartition_index(n)
    return tuple(
        index[sgn_twist(chi, convention)] for chi in _bipartitions_of(n)
    )
