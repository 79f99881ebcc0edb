"""Cross-checks between the combinatorial formulas and the brute-force
character-theory oracle, plus the structural laws of the reduction layer.

Every function returns a :class:`CheckResult` instead of raising on
mathematical disagreement, so a driver can report all failures in one run;
genuine usage errors still raise: a negative size argument (rank, b-rank,
``k_max``, ``count``) raises ValueError, as does a malformed descriptor,
and an oracle rank past the bound raises RankBoundError.

The oracle side works only with :mod:`howecorr.hyperoctahedral` and never
calls the Pieri code it checks.  Its induced characters, Ind(chi x linear
character) decomposed on W_{l+s}, come from one packed Frobenius
reciprocity sum each, with no induced class function built, one cached
family per (l, s, values of the linear character)
(``hyperoctahedral._induced``).  The induction check and the oracle
coupling both read them by chi's position in Irr(W_l); the coupling
decomposes each term factor by factor, on W_r and on W_r' separately, and
accumulates the outer products into positions of Irr(W_r) x Irr(W_r')
instead of contracting a class function on W_r x W_r'.

The three table checks certify each cell store once: tables of one kind,
ranks and convention share one (``unipotent._sum_entries``), so one sweep
(``_stores``) lists the stores, keyed by store, ranks and kind, and a check
counts a store's result for every table that holds it.  The extremal check reads
each image set as a row, by index, of a store's cells and certifies its
extremes in one pass over it (``unipotent._image_extremes``).
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import product

from . import hyperoctahedral
from .errors import NonUniqueExtremeError
from .hyperoctahedral import (
    _check_rank,
    _classes,
    _induced,
    _IntMatrix,
    _linear_values,
    _tensor_label_map,
    build_character_table,
    group_order,
)
from .lusztig import (
    TRIVIAL_GL,
    CuspidalPair,
    CuspidalSupport,
    EigenvalueOrbit,
    GLCuspidal,
    GenericCuspidal,
    SemisimpleDescriptor,
    UnipotentCuspidal,
    _closure,
    centralizer_decomposition,
    match_semisimple,
    omega_full,
    orbit_closure,
    transport_series,
    transport_support,
)
from .partitions import _bipartition_index, bipartition, bipartitions_of
from .unipotent import (
    DEFAULT_SGN_CONVENTION,
    SGN_CONVENTIONS,
    SeriesLabel,
    TowerContext,
    _cell_rows,
    _image_extremes,
    _Record,
    is_first_kind,
    omega_unipotent,
    pieri_induction,
    row_nonempty,
    theta_cuspidal,
    theta_images,
    triangular,
    witt_index_of_cuspidal,
)


class CheckResult(_Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        self._set(name, passed, detail)

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _ok(name, detail) -> CheckResult:
    return CheckResult(name, True, detail)


def _fail(name, detail) -> CheckResult:
    return CheckResult(name, False, detail)


def _check_sizes(**sizes) -> None:
    """Raise ValueError on a negative size argument of a check; oracle ranks
    go through ``_check_rank``, which bounds them as well."""
    for arg, size in sizes.items():
        if size < 0:
            raise ValueError(f"{arg} must be nonnegative, got {size}")


# ---------------------------------------------------------------------------
# induction: Pieri rule vs explicit induced class functions


def check_induction(max_rank: int = 5) -> CheckResult:
    """Compare pieri_induction against the oracle's decomposition of the
    induced character (``hyperoctahedral._induced``) for every chi in
    Irr(W_l), every split l + s = r <= max_rank, and both choices of the
    second factor (trivial, and sgn in both conventions).  The oracle's
    families are keyed by the values of the linear character, not its name:
    on W_0 all names agree, and on W_1 sign_changes and coxeter_sign do, so
    check_induction(6) compares 843 names against 64 families."""
    name = "induction-oracle equivalence"
    _check_rank(max_rank)
    compared = 0
    cases = [("trivial", "trivial", DEFAULT_SGN_CONVENTION)]
    cases += [("sgn", conv, conv) for conv in SGN_CONVENTIONS]
    for r in range(max_rank + 1):
        for l in range(r + 1):
            s = r - l
            families = [_induced(l, s, _linear_values(s, which)) for _, which, _ in cases]
            for i, chi in enumerate(bipartitions_of(l)):
                for (second, which, conv), family in zip(cases, families):
                    got = family[i][0]
                    want = {bp: 1 for bp in pieri_induction(chi, s, second, conv)}
                    if got != want:
                        return _fail(
                            name,
                            f"Ind(chi_{chi} x {which}) to W_{r}: rule gives "
                            f"{want}, oracle gives {got}",
                        )
                    compared += 1
    return _ok(name, f"{compared} induced characters matched (rank <= {max_rank})")


# ---------------------------------------------------------------------------
# character tables: orthogonality and class-size certification


def check_character_tables(max_rank: int = 6) -> CheckResult:
    """Column orthogonality, whose diagonal |W_n| / |C| certifies each
    class size read off the bipartitions, and the class-size sum.  Row
    orthogonality and integrality already run inside build_character_table."""
    name = "character-table certification"
    _check_rank(max_rank)
    for n in range(max_rank + 1):
        classes = _classes(n)
        order = group_order(n)
        if sum(classes.sizes) != order:
            return _fail(name, f"W_{n}: class sizes do not sum to {order}")
        columns = _IntMatrix(list(zip(*build_character_table(n).rows)))
        diagonal = [order // size for size in classes.sizes]
        defect = columns.orthogonality_defect(columns.rows, diagonal)
        if defect:
            i, j = defect
            labels = classes.labels
            return _fail(name, f"W_{n}: column orthogonality fails at {labels[i]}, {labels[j]}")
    return _ok(name, f"tables W_0..W_{max_rank} certified both ways")


# ---------------------------------------------------------------------------
# omega: combinatorial tables vs oracle inner products


# Keys are (r, r', kind, convention) with r, r' <= ORACLE_BOUND (checked by check_omega).
@lru_cache(maxsize=None)
def _oracle_omega(r: int, r_prime: int, first_kind: bool, convention: str) -> tuple:
    """Oracle-side coupling: the sum over l and chi in Irr(W_l) of
    Ind(chi x second) tensor Ind(sgn_l chi x 1), second the trivial
    character (first kind) or sgn (second kind), decomposed into
    irreducible pairs.  Depends only on (r, r', formula kind, convention).

    No class function on W_r x W_r' is built: since
    <L tensor R, chi_a x chi_b> = <L, chi_a> <R, chi_b>, each term
    contributes the outer product of the decompositions of its two induced
    factors, on W_r and on W_r' separately (``hyperoctahedral._induced``,
    one family per l and side).  The position of sgn_l chi in Irr(W_l) is
    read off the twist permutation (``hyperoctahedral._tensor_label_map``),
    which finds the actual pointwise product among the rows of the table.
    Returns the cells as sorted (row, column, multiplicity) triples of
    positions in Irr(W_r) x Irr(W_r'), canonical order (the order of a
    table's row-sorted copy, unipotent._Entries._csr), and the degree of the
    coupling, its value at the identity pair: the sum over the terms of the
    products of the two induced degrees."""
    which = "trivial" if first_kind else convention
    rows, cols = _bipartition_index(r), _bipartition_index(r_prime)
    counts = Counter()
    degree = 0
    for l in range(min(r, r_prime) + 1):
        twist = _tensor_label_map(l, convention)
        left = _induced(l, r - l, _linear_values(r - l, which))
        right = _induced(l, r_prime - l, _linear_values(r_prime - l, "trivial"))
        for (left_mults, left_degree), t in zip(left, twist):
            right_mults, right_degree = right[t]
            for a, mult_a in left_mults.items():
                for b, mult_b in right_mults.items():
                    counts[rows[a], cols[b]] += mult_a * mult_b
            degree += left_degree * right_degree
    return tuple(sorted((i, j, mult) for (i, j), mult in counts.items())), degree


def _series_context(k: int, r: int) -> TowerContext:
    """The group of the k-series at b-rank r: Witt index m(k) + r and
    dimension parity T(k) mod 2."""
    return TowerContext(witt_index_of_cuspidal(k) + r, triangular(k) % 2)


def _table_sweep(max_b_rank: int, k_max: int):
    """(k, parity', k', r, r') for every k <= k_max, both partner parities
    and all b-ranks r, r' <= max_b_rank, in the order the checks report."""
    ranks = range(max_b_rank + 1)
    for k, parity_prime, r, r_prime in product(range(k_max + 1), (0, 1), ranks, ranks):
        yield k, parity_prime, theta_cuspidal(k, parity_prime), r, r_prime


def _stores(max_b_rank: int, k_max: int, convention: str) -> list:
    """[sweep entry, table, count] per cell store of _table_sweep, in order
    of first appearance, with the first table that holds it.  Every table is
    built through omega_unipotent.  The key is the store, kept alive by its
    table so that its id is not reused, its labels, and the ranks and kind
    that the checks read it with."""
    found = {}
    # each context once (k' <= k_max + 1), where every entry reads two
    context = {
        (j, r): _series_context(j, r)
        for j, r in product(range(k_max + 2), range(max_b_rank + 1))
    }
    for entry in _table_sweep(max_b_rank, k_max):
        k, _, k_prime, r, r_prime = entry
        table = omega_unipotent(context[k, r], context[k_prime, r_prime], k, convention=convention)
        labels = table.row_labels, table.col_labels
        key = (id(table.entries), *labels, r, r_prime, is_first_kind(k, k_prime))
        found.setdefault(key, [entry, table, 0])[2] += 1
    return list(found.values())


def check_omega(
    max_b_rank: int = 4, k_max: int = 3, convention: str = DEFAULT_SGN_CONVENTION
) -> CheckResult:
    """Entrywise equality of omega_unipotent with the oracle decomposition,
    plus the degree identity, over all k <= k_max, both partner parities,
    and all b-ranks r, r' <= max_b_rank."""
    name = "omega-oracle equivalence"
    _check_rank(max_b_rank)
    _check_sizes(k_max=k_max)
    tables = 0
    labels = [tuple(bipartitions_of(n)) for n in range(max_b_rank + 1)]
    degrees = []
    for n in range(max_b_rank + 1):
        identity = _classes(n).identity
        degrees.append([row[identity] for row in build_character_table(n).rows])
    for entry, got, count in _stores(max_b_rank, k_max, convention):
        k, parity_prime, k_prime, r, r_prime = entry
        first_kind = is_first_kind(k, k_prime)
        # the row-sorted copy that rows, lookups and both renderers read
        starts, columns, mults = got.entries._csr
        cells = tuple(zip(_cell_rows(starts), columns, mults))
        want, oracle_degree = _oracle_omega(r, r_prime, first_kind, convention)
        if (got.row_labels, got.col_labels, cells) != (labels[r], labels[r_prime], want):
            return _fail(
                name,
                f"entry mismatch at k={k}, parity'={parity_prime}, r={r}, r'={r_prime}",
            )
        deg_r, deg_rp = degrees[r], degrees[r_prime]
        degree = sum(mult * deg_r[i] * deg_rp[j] for i, j, mult in cells)
        if degree != oracle_degree:
            return _fail(name, f"degree identity fails at k={k}, r={r}, r'={r_prime}")
        tables += count
    return _ok(
        name,
        f"{tables} tables equal the oracle entrywise "
        f"(k <= {k_max}, b-rank <= {max_b_rank}, {convention})",
    )


# ---------------------------------------------------------------------------
# zero law and row persistence


def check_zero_law(k_max: int = 4) -> CheckResult:
    """omega_unipotent is empty exactly when m' < m(k'); theta_images is
    empty there as well."""
    name = "first-occurrence zero law"
    _check_sizes(k_max=k_max)
    checked = 0
    for k, parity_prime in product(range(k_max + 1), (0, 1)):
        k_prime = theta_cuspidal(k, parity_prime)
        first = witt_index_of_cuspidal(k_prime)
        ctx = TowerContext(witt_index_of_cuspidal(k) + 2, triangular(k) % 2)
        for m_prime in range(first + 3):
            ctx_p = TowerContext(m_prime, parity_prime)
            table = omega_unipotent(ctx, ctx_p, k)
            if table.is_zero != (m_prime < first):
                return _fail(
                    name, f"k={k}, m'={m_prime}: zero iff m' < {first} violated"
                )
            pi = SeriesLabel(k, bipartition((2,), ()))
            images = theta_images(pi, ctx, ctx_p)
            if (m_prime < first) and images:
                return _fail(
                    name, f"k={k}, m'={m_prime}: images below first occurrence"
                )
            checked += 1
    return _ok(name, f"{checked} (k, m') pairs obey the zero law (k <= {k_max})")


def check_row_persistence(
    max_b_rank: int = 4, k_max: int = 3, convention: str = DEFAULT_SGN_CONVENTION
) -> CheckResult:
    """Rows of a nonzero table are nonempty exactly as the strip-removal
    bound predicts; in particular every row is nonempty once r' >= r.  (The
    unconditional version of the second statement is false: see the witness
    pinned by acceptance criterion 5b, the label -|1 of U_2 against U_0.)"""
    name = "row-nonemptiness characterization"
    _check_sizes(max_b_rank=max_b_rank, k_max=k_max)
    rows = 0
    for (k, _, k_prime, r, r_prime), table, count in _stores(max_b_rank, k_max, convention):
        first_kind = is_first_kind(k, k_prime)
        starts = table.entries._csr[0]  # row i holds the cells starts[i]:starts[i + 1]
        for i, bp in enumerate(table.row_labels):
            nonempty = starts[i] < starts[i + 1]
            predicted = row_nonempty(bp, r, r_prime, first_kind, convention)
            if nonempty != predicted:
                return _fail(
                    name,
                    f"k={k}, r={r}, r'={r_prime}, row {bp}: "
                    f"nonempty={nonempty}, predicted={predicted}",
                )
        rows += count * len(table.row_labels)
    return _ok(name, f"{rows} rows match the strip-removal bound")


# ---------------------------------------------------------------------------
# extremal images


def check_extremal(max_b_rank: int = 4, k_max: int = 3) -> CheckResult:
    """Unique minimum and maximum under dominance in every nonempty image
    set, for both sgn conventions.  Each row is read by index from its
    store's cells and certified in one pass over it
    (``unipotent._image_extremes``)."""
    name = "extremal uniqueness"
    _check_sizes(max_b_rank=max_b_rank, k_max=k_max)
    checked = 0
    for convention in SGN_CONVENTIONS:
        for (k, _, k_prime, r, r_prime), table, count in _stores(max_b_rank, k_max, convention):
            entries, cols = table.entries, table.col_labels
            sets = 0
            for i, bp in enumerate(table.row_labels):
                labels = [cols[j] for j, _ in entries._row(i)]
                if not labels:
                    continue
                try:
                    _image_extremes(SeriesLabel(k, bp), k_prime, labels)
                except NonUniqueExtremeError as err:
                    return _fail(
                        name,
                        f"antichain at k={k}, r={r}, r'={r_prime}, "
                        f"row {bp}: {err.antichain}",
                    )
                sets += 1
            checked += count * sets
    return _ok(name, f"{checked} image sets have unique extremes (both conventions)")


# ---------------------------------------------------------------------------
# randomized semisimple bookkeeping


def random_descriptor(rng: random.Random, max_dim: int = 8) -> SemisimpleDescriptor:
    q = rng.choice((3, 5))
    degree = rng.choice((1, 2))
    modulus = q ** (2 * degree) - 1
    remaining = rng.randint(1, max_dim)
    mults = {}  # exponent set -> summed multiplicity, in first-drawn order
    while remaining:
        exponents = _closure(q, modulus, rng.randrange(modulus))
        if len(exponents) > remaining:
            exponents = _closure(q, modulus, 0)
        mult = rng.randint(1, remaining // len(exponents))
        mults[exponents] = mults.get(exponents, 0) + mult
        remaining -= len(exponents) * mult
    orbits = (EigenvalueOrbit(q, modulus, e, m) for e, m in mults.items())
    return SemisimpleDescriptor(q, modulus, tuple(orbits))


def check_centralizers(count: int = 200, seed: int = 20260825) -> CheckResult:
    """Randomized descriptors: rank conservation, unitary classification of
    the +-1 orbits, and factor equality after match_semisimple."""
    name = "centralizer bookkeeping"
    _check_sizes(count=count)
    rng = random.Random(seed)
    for trial in range(count):
        s = random_descriptor(rng)
        n = s.dimension
        ctx = TowerContext(n // 2, n % 2, s.q)
        factors, block, l = centralizer_decomposition(s, ctx)
        conserved = sum(f.rank_contribution for f in factors) + block.dimension
        if conserved != n:
            return _fail(name, f"trial {trial}: rank sum {conserved} != {n}")
        if l != ctx.witt_index - block.witt_index:
            return _fail(name, f"trial {trial}: drop l miscomputed")
        for orbit, factor in zip(s.non_unit_orbits, factors):
            if orbit.is_minus_one and factor.kind != "unitary":
                return _fail(name, f"trial {trial}: -1 orbit not unitary")
        n_prime = s.non_unit_dimension + rng.randint(0, 6)
        ctx_p = TowerContext(n_prime // 2, n_prime % 2, s.q)
        s_prime = match_semisimple(s, ctx, ctx_p)
        if s_prime.dimension != n_prime:
            return _fail(name, f"trial {trial}: matched dimension wrong")
        got = centralizer_decomposition(s_prime, ctx_p).factors
        if got != factors:
            return _fail(name, f"trial {trial}: factor lists differ after match")
    return _ok(name, f"{count} random descriptors verified (seed {seed})")


# ---------------------------------------------------------------------------
# reduction and transport


def _unipotent_pair(k: int, r: int, extra_minus_one: int = 0, q: int = 3):
    """A cuspidal pair in a tower sized so that the reduced block has
    b-rank r; optionally with a -1-eigenvalue block of the given size."""
    nu1 = 2 * r + triangular(k)
    n = nu1 + extra_minus_one
    modulus = q * q - 1
    orbits = []
    if nu1:
        orbits.append(orbit_closure(q, modulus, 0, nu1))
    if extra_minus_one:
        orbits.append(orbit_closure(q, modulus, modulus // 2, extra_minus_one))
    s = SemisimpleDescriptor(q, modulus, tuple(orbits))
    ctx = TowerContext(n // 2, n % 2, q)
    return CuspidalPair((TRIVIAL_GL,) * r, k, s), ctx


def check_reduction_consistency(max_b_rank: int = 3, k_max: int = 2) -> CheckResult:
    """omega_full over a trivial semisimple class must reproduce
    omega_unipotent: an equal table, field for field."""
    name = "reduction consistency"
    _check_sizes(max_b_rank=max_b_rank, k_max=k_max)
    compared = 0
    for k, parity_prime, k_prime, r, r_prime in _table_sweep(max_b_rank, k_max):
        pair, ctx = _unipotent_pair(k, r)
        ctx_p = TowerContext(witt_index_of_cuspidal(k_prime) + r_prime, parity_prime, 3)
        full = omega_full(pair, ctx, ctx_p)
        direct = omega_unipotent(ctx, ctx_p, k)
        if full.hash_descriptor or full.l or full.l_prime:
            return _fail(name, f"k={k}, r={r}: nonempty hash part")
        if full.unipotent_table != direct:
            return _fail(name, f"k={k}, r={r}, r'={r_prime}: tables differ")
        compared += 1
    return _ok(name, f"{compared} tables byte-identical to omega_unipotent")


def check_membership(max_b_rank: int = 3) -> CheckResult:
    """Full-correspondence membership agrees with table linkage,
    exhaustively over all label pairs at drop l <= 1."""
    name = "membership bijection"
    _check_sizes(max_b_rank=max_b_rank)
    checked = 0
    hash_labels = {0: [()], 1: [("2",), ("1,1",)]}
    ranks = range(max_b_rank + 1)
    for extra, k, r, r_prime in product((0, 2), (0, 1), ranks, ranks):
        l = extra // 2
        pair, ctx = _unipotent_pair(k, r, extra_minus_one=extra)
        k_prime = theta_cuspidal(k, (ctx.dim_parity + extra) % 2)
        n_prime = 2 * r_prime + triangular(k_prime) + extra
        ctx_p = TowerContext(n_prime // 2, n_prime % 2, 3)
        full = omega_full(pair, ctx, ctx_p)
        table = full.unipotent_table
        for h, h_p in product(hash_labels[l], repeat=2):
            for u in table.row_labels:
                linked = {c for c, _ in table.row(u)}
                for u_p in table.col_labels:
                    member = full.contains((h, u), (h_p, u_p))
                    expected = h == h_p and u_p in linked
                    if member != expected:
                        return _fail(
                            name,
                            f"l={l}, k={k}, r={r}, r'={r_prime}: "
                            f"({h},{u}) vs ({h_p},{u_p})",
                        )
                    checked += 1
    return _ok(name, f"{checked} label pairs agree with table linkage (l <= 1)")


def check_transport() -> CheckResult:
    """Support and series transport: growth padding, verbatim nontrivial
    blocks, round trips, the zero case, and the underflow error."""
    name = "transport laws"
    sigma = GLCuspidal(2, "rho")
    phi = GenericCuspidal("phi", first_occurrence=1, partner_label="phi'")
    sup = CuspidalSupport((sigma, TRIVIAL_GL), phi)
    ctx, ctx_p = TowerContext(4, 0), TowerContext(5, 1)
    out = transport_support(sup, ctx, ctx_p)
    if out is None or out.phi.label != "phi'":
        return _fail(name, "growth transport lost the anchor")
    if tuple(e for e in out.entries if not e.is_trivial) != (sigma,):
        return _fail(name, "nontrivial block not verbatim")
    if out.trivial_count != 2:
        return _fail(name, f"expected 2 trivial entries, got {out.trivial_count}")
    if transport_support(out, ctx_p, ctx) != sup:
        return _fail(name, "grow-then-shrink round trip broken")
    if transport_support(
        CuspidalSupport((), UnipotentCuspidal(2)), TowerContext(1, 1), TowerContext(2, 0)
    ) is not None:
        return _fail(name, "image below first occurrence not zero")
    try:
        transport_support(
            CuspidalSupport((GLCuspidal(1, "st"),), GenericCuspidal("phi", 0)),
            TowerContext(1, 0),
            TowerContext(0, 1),
        )
        return _fail(name, "underflow did not raise")
    except ValueError:
        pass
    pair, ctx = _unipotent_pair(1, 2, extra_minus_one=2)
    ctx_p = TowerContext(ctx.witt_index + 2, 1 - ctx.dim_parity, 3)
    moved = transport_series(pair, ctx, ctx_p)
    if moved is None or transport_series(moved, ctx_p, ctx) != pair:
        return _fail(name, "series round trip broken")
    return _ok(name, "padding, verbatim blocks, round trips, zero and underflow")


def check_pinned_table() -> CheckResult:
    """The hand-expanded (m, m', k) = (1, 1, 0) table."""
    name = "pinned (1,1,0) table"
    table = omega_unipotent(TowerContext(1, 0), TowerContext(1, 0), 0)
    triv, sgn = bipartition((1,), ()), bipartition((), (1,))
    want = {(triv, triv): 1, (triv, sgn): 1, (sgn, triv): 1}
    if dict(table.entries) != want:
        return _fail(name, f"got {table.entries}")
    return _ok(name, "exactly (triv,triv), (triv,sgn), (sgn,triv), each once")


# ---------------------------------------------------------------------------
# driver


def run_verification(max_rank: int = 3, seed: int = 20260825) -> list:
    """The full suite at a size budget set by max_rank (tables and
    induction use it directly; the quadratic sweeps are capped lower).
    max_rank runs up to hyperoctahedral.ORACLE_BOUND, read at each call."""
    bound = hyperoctahedral.ORACLE_BOUND
    if not 1 <= max_rank <= bound:
        raise ValueError(f"max_rank must be between 1 and {bound}")
    b_rank = min(max_rank, 4)
    return [
        check_induction(max_rank),
        check_character_tables(max_rank),
        check_omega(min(b_rank, 3)),
        check_zero_law(),
        check_row_persistence(min(b_rank, 3)),
        check_extremal(b_rank),
        check_centralizers(count=60, seed=seed),
        check_reduction_consistency(min(b_rank, 2)),
        check_membership(min(b_rank, 2)),
        check_transport(),
        check_pinned_table(),
    ]
