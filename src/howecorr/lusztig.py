"""Reduction of the correspondence to the unipotent case: semisimple
bookkeeping, cuspidal-support transport, and the assembled decomposition.

A semisimple class of a unitary group over F_q is described by its
eigenvalues in the algebraic closure.  Working with a fixed ambient modulus
M = q^(2d) - 1, an eigenvalue is an exponent e (the eigenvalue is g^e for a
generator g of the order-M cyclic group) and rationality groups exponents
into orbits of e -> -q e mod M.  A :class:`SemisimpleDescriptor` is a list
of such orbits with multiplicities.

The centralizer of such a class inside U_n splits as a product of one group
per orbit; the eigenvalue-1 block is again a unitary group and carries the
unipotent part of the correspondence, while the remaining factors transport
untouched between the two members of a dual pair ("hash" factors below, the
part of the centralizer away from eigenvalue 1).  This module never
instantiates those factors; it tracks kinds, degrees and ranks, and reduces
every question to the tables of :mod:`howecorr.unipotent`.

Supports and series cross the pair by one GL_1 law (``_transported_gl``):
nontrivial GL entries move verbatim, trivial GL_1 entries fill the partner
torus size t', and a partner exists only when the nontrivial entries fit in t'.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalCheckError
from .unipotent import (
    DEFAULT_SGN_CONVENTION,
    MultiplicityTable,
    TowerContext,
    _Record,
    _validate_series,
    is_odd_prime_power,
    omega_unipotent,
    theta_cuspidal,
    triangular,
    witt_index_of_cuspidal,
)


def _check_field(q: int, modulus: int) -> None:
    """q must be an odd prime power below unipotent.FIELD_SIZE_BOUND = 2^24
    (a larger q raises ValueError) and the modulus q^(2d) - 1, d >= 1."""
    if not is_odd_prime_power(q):
        raise ValueError(f"q = {q} is not an odd prime power")
    m = q * q - 1
    while m < modulus:
        m = (m + 1) * q * q - 1
    if m != modulus:
        raise ValueError(f"modulus {modulus} is not q^2d - 1 for q = {q}")


class EigenvalueOrbit(_Record):
    """An orbit of eigenvalue exponents under e -> -q e mod M, with a
    multiplicity.  The orbit size is the degree of the eigenvalue over the
    fixed field; the orbits of 1 and -1 are the singletons {0} and {M/2}."""

    __slots__ = ("q", "modulus", "exponents", "multiplicity")

    def __init__(self, q: int, modulus: int, exponents: frozenset, multiplicity: int = 1):
        _check_field(q, modulus)
        if multiplicity < 1:
            raise ValueError("orbit multiplicity must be positive")
        if not exponents:
            raise ValueError("orbit must contain at least one exponent")
        for e in exponents:
            if not 0 <= e < modulus:
                raise ValueError(f"exponent {e} not reduced mod {modulus}")
            if (-q * e) % modulus not in exponents:
                raise ValueError(f"exponent set {set(exponents)} is not closed")
        self._set(q, modulus, exponents, multiplicity)

    @property
    def size(self) -> int:
        return len(self.exponents)

    @property
    def is_one(self) -> bool:
        return self.exponents == frozenset({0})

    @property
    def is_minus_one(self) -> bool:
        return self.modulus % 2 == 0 and self.exponents == frozenset({self.modulus // 2})


def orbit_closure(q: int, modulus: int, exponent: int, multiplicity: int = 1) -> EigenvalueOrbit:
    """Close a single exponent under e -> -q e mod M.

    ``modulus`` must be q^(2d) - 1 for some ambient degree d >= 1.  The zero
    eigenvalue has no exponent and is not representable (semisimple classes
    of a unitary group are invertible)."""
    if exponent is None:
        raise ValueError("the zero eigenvalue has no exponent")
    _check_field(q, modulus)
    return EigenvalueOrbit(q, modulus, _closure(q, modulus, exponent), multiplicity)


def _closure(q: int, modulus: int, exponent: int) -> frozenset:
    exps = set()
    e = exponent % modulus
    while e not in exps:
        exps.add(e)
        e = (-q * e) % modulus
    return frozenset(exps)


def _orbit_sort_key(orbit: EigenvalueOrbit):
    return (not orbit.is_one, orbit.size, sorted(orbit.exponents))


class SemisimpleDescriptor(_Record):
    """A semisimple class given by disjoint eigenvalue orbits with
    multiplicities.  The ambient dimension it can live in is
    ``dimension`` = sum of orbit size times multiplicity."""

    __slots__ = ("q", "modulus", "orbits")

    def __init__(self, q: int, modulus: int, orbits: tuple):
        _check_field(q, modulus)
        seen = set()
        for orbit in orbits:
            if orbit.q != q or orbit.modulus != modulus:
                raise ValueError("orbit and descriptor disagree on q or modulus")
            if seen & orbit.exponents:
                raise ValueError("orbits must be pairwise disjoint")
            seen |= orbit.exponents
        self._set(q, modulus, tuple(sorted(orbits, key=_orbit_sort_key)))

    @property
    def dimension(self) -> int:
        return sum(o.size * o.multiplicity for o in self.orbits)

    @property
    def unit_multiplicity(self) -> int:
        """Multiplicity of the eigenvalue 1."""
        for o in self.orbits:
            if o.is_one:
                return o.multiplicity
        return 0

    @property
    def non_unit_orbits(self) -> tuple:
        return tuple(o for o in self.orbits if not o.is_one)

    @property
    def non_unit_dimension(self) -> int:
        return sum(o.size * o.multiplicity for o in self.non_unit_orbits)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "modulus": self.modulus,
            "orbits": [
                {"exponents": sorted(o.exponents), "multiplicity": o.multiplicity}
                for o in self.orbits
            ],
        }


class CentralizerFactor(_Record):
    """One factor of the centralizer away from eigenvalue 1: a general
    linear or unitary group of degree ``size`` over the extension of degree
    ``field_degree``.  Odd orbits give unitary factors (the orbits of 1 and
    -1 in particular), even orbits give linear ones."""

    __slots__ = ("kind", "size", "field_degree")

    def __init__(self, kind: str, size: int, field_degree: int):
        if kind not in ("unitary", "linear"):
            raise ValueError(f"unknown factor kind {kind!r}")
        self._set(kind, size, field_degree)

    @property
    def rank_contribution(self) -> int:
        return self.size * self.field_degree

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "size": self.size, "field_degree": self.field_degree}


class CentralizerDecomposition(NamedTuple):
    """Result of :func:`centralizer_decomposition`: the factors away from
    eigenvalue 1, the unitary block on the 1-eigenspace as a tower context,
    and the Witt-index drop l from the ambient group to that block."""

    factors: tuple
    unipotent_block: TowerContext
    l: int


def _check_dimension(s: SemisimpleDescriptor, n: int) -> None:
    if s.dimension != n:
        raise ValueError(
            f"descriptor has dimension {s.dimension}, ambient group needs {n}"
        )


def _factor_of(orbit: EigenvalueOrbit) -> CentralizerFactor:
    kind = "unitary" if orbit.size % 2 == 1 else "linear"
    return CentralizerFactor(kind, orbit.multiplicity, orbit.size)


def centralizer_decomposition(
    s: SemisimpleDescriptor, ctx: TowerContext
) -> CentralizerDecomposition:
    """Split the centralizer of ``s`` inside the group of ``ctx``.

    Rank bookkeeping: the orbit degrees times multiplicities must add up to
    the ambient dimension 2m + parity.  The 1-eigenspace has dimension nu_1
    and Witt index floor(nu_1 / 2); the drop is l = m - floor(nu_1 / 2).
    """
    n = ctx.dimension
    _check_dimension(s, n)
    nu1 = s.unit_multiplicity
    factors = tuple(_factor_of(o) for o in s.non_unit_orbits)
    conserved = sum(f.rank_contribution for f in factors) + nu1
    if conserved != n:
        raise InternalCheckError(
            f"rank conservation failed: {conserved} != {n}"
        )
    if ctx.q is not None and ctx.q != s.q:
        raise ValueError(f"descriptor is over q = {s.q}, the group over q = {ctx.q}")
    block = TowerContext(nu1 // 2, nu1 % 2, ctx.q)
    return CentralizerDecomposition(factors, block, ctx.witt_index - nu1 // 2)


def match_semisimple(
    s: SemisimpleDescriptor, ctx: TowerContext, ctx_prime: TowerContext
) -> SemisimpleDescriptor:
    """The partner class on the other side of the dual pair: identical away
    from eigenvalue 1, with the 1-multiplicity adjusted to fill the partner
    dimension.  Fails if the partner group is too small to hold the
    non-unit part."""
    _check_dimension(s, ctx.dimension)
    n_prime = ctx_prime.dimension
    carried = s.non_unit_dimension
    if carried > n_prime:
        raise ValueError(
            f"non-unit eigenvalues span {carried} dimensions, more than the "
            f"partner dimension {n_prime}"
        )
    orbits = list(s.non_unit_orbits)
    nu1 = n_prime - carried
    if nu1:
        orbits.append(orbit_closure(s.q, s.modulus, 0, nu1))
    return SemisimpleDescriptor(s.q, s.modulus, tuple(orbits))


TRIVIAL_GL_LABEL = "1"


class GLCuspidal(_Record):
    """A cuspidal datum on a general linear factor of a Levi: an opaque
    label and the factor size t.  The label "1" is reserved for the trivial
    character of GL_1, the entries that transport adds and removes."""

    __slots__ = ("size", "label")

    def __init__(self, size: int, label: str):
        if size < 1:
            raise ValueError("GL factor size must be positive")
        if label == TRIVIAL_GL_LABEL and size != 1:
            raise ValueError("the trivial cuspidal lives on GL_1 only")
        self._set(size, label)

    @property
    def is_trivial(self) -> bool:
        return self.label == TRIVIAL_GL_LABEL and self.size == 1

    def to_json_dict(self) -> dict:
        return {"size": self.size, "label": self.label}


TRIVIAL_GL = GLCuspidal(1, TRIVIAL_GL_LABEL)


class UnipotentCuspidal(_Record):
    """The k-th cuspidal unipotent representation as the cuspidal datum on
    the unitary factor; its first occurrence data is computable."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("k must be nonnegative")
        self._set(k)

    def to_json_dict(self) -> dict:
        return {"unipotent": True, "k": self.k}


class GenericCuspidal(_Record):
    """An opaque cuspidal datum on the unitary factor.  Its first
    occurrence index in the partner tower cannot be computed from the label
    alone, so it travels with the datum; ``partner_label`` names its
    first-occurrence image (defaults to a derived tag) and takes no part
    in equality or the hash."""

    __slots__ = ("label", "first_occurrence", "partner_label")

    def __init__(self, label: str, first_occurrence: int, partner_label: str | None = None):
        if first_occurrence < 0:
            raise ValueError("first occurrence index must be nonnegative")
        self._set(label, first_occurrence, partner_label)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values()[:2] == other._values()[:2]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values()[:2])

    def to_json_dict(self) -> dict:
        return {
            "unipotent": False,
            "label": self.label,
            "first_occurrence": self.first_occurrence,
        }


def _sorted_entries(entries) -> tuple:
    return tuple(sorted(entries, key=lambda e: (e.size, e.label)))


class CuspidalSupport(_Record):
    """A cuspidal support (L, rho) in flattened form: the multiset of GL
    cuspidal entries and the cuspidal datum phi on the unitary factor."""

    __slots__ = ("entries", "phi")

    def __init__(self, entries: tuple, phi: object):
        self._set(_sorted_entries(entries), phi)

    @property
    def gl_size(self) -> int:
        return sum(e.size for e in self.entries)

    @property
    def trivial_count(self) -> int:
        return sum(1 for e in self.entries if e.is_trivial)

    def to_json_dict(self) -> dict:
        return {
            "entries": [e.to_json_dict() for e in self.entries],
            "phi": self.phi.to_json_dict(),
        }


def _anchor_image(phi, home_witt: int, ctx_prime: TowerContext) -> tuple:
    """First occurrence of the anchor ``phi`` in the partner tower, and its image."""
    if isinstance(phi, UnipotentCuspidal):
        k_prime = theta_cuspidal(phi.k, ctx_prime.dim_parity)
        return witt_index_of_cuspidal(k_prime), UnipotentCuspidal(k_prime)
    label = phi.partner_label or f"theta({phi.label})"
    return phi.first_occurrence, GenericCuspidal(label, home_witt, phi.label)


def _transported_gl(entries, t_prime: int, kind: str) -> tuple:
    """The GL part of a ``kind`` ("support" or "series") across the pair,
    by the GL_1 law of the module docstring, for partner torus size t'."""
    kept = tuple(e for e in entries if not e.is_trivial)
    fill = t_prime - sum(e.size for e in kept)
    trivial = len(entries) - len(kept)
    if fill < 0:
        raise ValueError(
            f"no partner {kind} exists: transport must remove {trivial - fill} "
            f"trivial GL_1 entries but only {trivial} are present"
        )
    return kept + (TRIVIAL_GL,) * fill


def transport_support(
    support: CuspidalSupport, ctx: TowerContext, ctx_prime: TowerContext
) -> CuspidalSupport | None:
    """Carry a cuspidal support across the dual pair: zero (None) below the
    first occurrence of phi, else by the GL_1 law.  A cuspidal unipotent
    anchor must sit in its home tower, Witt index m(k) and parity T(k) mod 2."""
    m = ctx.witt_index
    home = m - support.gl_size
    if home < 0:
        raise ValueError(
            f"GL part of size {support.gl_size} does not fit in Witt index {m}"
        )
    if isinstance(support.phi, UnipotentCuspidal):
        k = support.phi.k
        if home != witt_index_of_cuspidal(k):
            raise ValueError(
                f"cuspidal unipotent k={k} lives at Witt index "
                f"{witt_index_of_cuspidal(k)}, not {home}"
            )
        _validate_series(home, ctx.dim_parity, k)
    first, phi_prime = _anchor_image(support.phi, home, ctx_prime)
    if ctx_prime.witt_index < first:
        return None
    gl = _transported_gl(support.entries, ctx_prime.witt_index - first, "support")
    return CuspidalSupport(gl, phi_prime)


class CuspidalPair(_Record):
    """A Harish-Chandra series: the multiset of GL cuspidal entries with
    trivial GL_1 entries listed explicitly, the cuspidal unipotent index k
    of the unitary part in reduced coordinates, and the semisimple class of
    the whole series.  The torus rank is the count of trivial entries."""

    __slots__ = ("gl_part", "base_k", "semisimple")

    def __init__(self, gl_part: tuple, base_k: int, semisimple: SemisimpleDescriptor):
        if base_k < 0:
            raise ValueError("base k must be nonnegative")
        self._set(_sorted_entries(gl_part), base_k, semisimple)

    @property
    def torus_rank(self) -> int:
        return sum(1 for e in self.gl_part if e.is_trivial)

    @property
    def nontrivial_part(self) -> tuple:
        return tuple(e for e in self.gl_part if not e.is_trivial)

    @property
    def gl_size(self) -> int:
        return sum(e.size for e in self.gl_part)


def _check_pair(pair: CuspidalPair, ctx: TowerContext) -> int:
    """Check ``pair`` against the group of ``ctx``; return the non-unit
    dimensions that belong to the unitary part."""
    s = pair.semisimple
    _check_dimension(s, ctx.dimension)
    nu1 = s.unit_multiplicity
    expected = 2 * pair.torus_rank + triangular(pair.base_k)
    if nu1 != expected:
        raise ValueError(
            f"eigenvalue-1 multiplicity {nu1} is inconsistent with torus rank "
            f"{pair.torus_rank} and base k = {pair.base_k} (needs {expected})"
        )
    if pair.gl_size > ctx.witt_index:
        raise ValueError(
            f"GL part of size {pair.gl_size} does not fit in Witt index {ctx.witt_index}"
        )
    carried = s.non_unit_dimension
    gl_carried = 2 * sum(e.size for e in pair.nontrivial_part)
    if carried < gl_carried:
        raise ValueError(
            "descriptor carries fewer non-unit dimensions than the nontrivial "
            f"GL entries require ({carried} < {gl_carried})"
        )
    return carried - gl_carried


def transport_series(
    pair: CuspidalPair, ctx: TowerContext, ctx_prime: TowerContext
) -> CuspidalPair | None:
    """Transport a series across the dual pair in reduced coordinates.

    The nontrivial GL entries and the non-unit eigenvalue data move
    verbatim; the unitary part goes to its first occurrence and the torus
    rank absorbs the difference.  None below the first occurrence; raises
    when shrinking would need to remove nontrivial entries."""
    carried_phi = _check_pair(pair, ctx)
    p_prime = ctx_prime.dim_parity
    reduced_parity = (p_prime + pair.semisimple.non_unit_dimension) % 2
    k_prime = theta_cuspidal(pair.base_k, reduced_parity)
    first_num = carried_phi + triangular(k_prime) - p_prime
    if first_num % 2:
        raise InternalCheckError("first occurrence index is not integral")
    first = first_num // 2
    if ctx_prime.witt_index < first:
        return None
    gl_part = _transported_gl(pair.gl_part, ctx_prime.witt_index - first, "series")
    s_prime = match_semisimple(pair.semisimple, ctx, ctx_prime)
    return CuspidalPair(gl_part, k_prime, s_prime)


class OmegaFullDecomposition(_Record):
    """The decomposition of the full coupling for one pair of series: the
    factors away from eigenvalue 1 pair diagonally (each label with itself;
    all Weyl-level characters here are rational, so the pairing involution
    is the identity), tensored with the unipotent table of the reduced
    contexts."""

    __slots__ = ("hash_descriptor", "pairing", "l", "l_prime", "unipotent_table")

    def __init__(
        self,
        hash_descriptor: tuple,
        pairing: str,
        l: int,
        l_prime: int,
        unipotent_table: MultiplicityTable,
    ):
        self._set(hash_descriptor, pairing, l, l_prime, unipotent_table)

    def contains(self, member, member_prime) -> bool:
        """Membership test for a pair of labels.  Each label is a pair
        (hash label, bipartition); hash labels are opaque and must match
        exactly, the bipartitions must be linked by the table."""
        h, u = member
        h_prime, u_prime = member_prime
        return h == h_prime and self.unipotent_table.entry(u, u_prime) > 0

    def to_json_dict(self) -> dict:
        return {
            "hash_descriptor": [f.to_json_dict() for f in self.hash_descriptor],
            "pairing": self.pairing,
            "l": self.l,
            "l_prime": self.l_prime,
            "unipotent_table": self.unipotent_table.to_json_dict(),
        }


def omega_full(
    pair: CuspidalPair,
    ctx: TowerContext,
    ctx_prime: TowerContext,
    *,
    convention: str = DEFAULT_SGN_CONVENTION,
) -> OmegaFullDecomposition:
    """Assemble the coupling for an arbitrary series: transport the series,
    split both centralizers, check that the factors away from eigenvalue 1
    agree, and delegate the rest to the unipotent table of the reduced
    contexts (Witt indices m - l and m' - l')."""
    transported = transport_series(pair, ctx, ctx_prime)
    if transported is None:
        raise ValueError(
            "the series has zero image here (below the first occurrence); "
            "no decomposition exists"
        )
    dec = centralizer_decomposition(pair.semisimple, ctx)
    dec_prime = centralizer_decomposition(transported.semisimple, ctx_prime)
    if dec.factors != dec_prime.factors:
        raise InternalCheckError(
            "transported series has different factors away from eigenvalue 1"
        )
    table = omega_unipotent(
        dec.unipotent_block, dec_prime.unipotent_block, pair.base_k, convention=convention
    )
    if table.k_prime != transported.base_k:
        raise InternalCheckError(
            f"reduced table pairs k={pair.base_k} with k'={table.k_prime}, but "
            f"transport produced k'={transported.base_k}"
        )
    return OmegaFullDecomposition(dec.factors, "diagonal", dec.l, dec_prime.l, table)
