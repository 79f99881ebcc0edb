"""Semisimple bookkeeping: orbits, centralizers, transport, full coupling."""

import dataclasses
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from howecorr.errors import InternalCheckError
from howecorr.lusztig import (
    TRIVIAL_GL,
    CentralizerFactor,
    CuspidalPair,
    CuspidalSupport,
    EigenvalueOrbit,
    GenericCuspidal,
    GLCuspidal,
    OmegaFullDecomposition,
    SemisimpleDescriptor,
    UnipotentCuspidal,
    centralizer_decomposition,
    match_semisimple,
    omega_full,
    orbit_closure,
    transport_series,
    transport_support,
)
from howecorr.partitions import Bipartition, bipartition
from howecorr.unipotent import (
    TowerContext,
    omega_unipotent,
    triangular,
    witt_index_of_cuspidal,
)


class Index:
    """An integer type that is not int, as numpy's are."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


def descriptor(*orbits, q=3, modulus=8):
    return SemisimpleDescriptor(q, modulus, tuple(orbits))


def identity_class(q, n, modulus=None):
    """The identity class in dimension n: eigenvalue 1 with multiplicity n."""
    modulus = modulus or q * q - 1
    return SemisimpleDescriptor(q, modulus, (orbit_closure(q, modulus, 0, n),) if n else ())


class TestOrbits:
    def test_closure_q3_mod8(self):
        # e -> -3e mod 8
        assert orbit_closure(3, 8, 0).exponents == frozenset({0})
        assert orbit_closure(3, 8, 4).exponents == frozenset({4})
        assert orbit_closure(3, 8, 2).exponents == frozenset({2})
        assert orbit_closure(3, 8, 1).exponents == frozenset({1, 5})
        assert orbit_closure(3, 8, 5).exponents == frozenset({1, 5})

    def test_closure_higher_degree(self):
        orbit = orbit_closure(3, 80, 1)
        assert orbit.exponents == frozenset({1, 77, 9, 53})
        assert orbit.size == 4

    def test_special_eigenvalues(self):
        assert orbit_closure(3, 8, 0).is_one
        assert orbit_closure(3, 8, 4).exponents == {8 // 2}
        assert not orbit_closure(3, 8, 1).is_one

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            orbit_closure(3, 9, 1)  # not q^2d - 1
        with pytest.raises(ValueError):
            orbit_closure(4, 15, 1)  # not an odd prime power
        with pytest.raises(ValueError):
            orbit_closure(2, 3, 1)
        with pytest.raises(ValueError):
            orbit_closure(3, 8, None)
        with pytest.raises(ValueError):
            orbit_closure(3, 8, 1, 0)

    def test_direct_construction_checks_closure(self):
        # the orbit has no field; its descriptor checks it against its own
        with pytest.raises(ValueError, match=r"exponent set \{1\} is not closed"):
            descriptor(EigenvalueOrbit(frozenset({1})))
        with pytest.raises(ValueError, match="exponent 9 not reduced mod 8"):
            descriptor(EigenvalueOrbit(frozenset({9})))
        with pytest.raises(ValueError, match="at least one exponent"):
            EigenvalueOrbit(frozenset())

    def test_direct_construction_checks_the_field(self):
        unit = EigenvalueOrbit(frozenset({0}))
        with pytest.raises(ValueError, match="not an odd prime power"):
            descriptor(unit, q=4, modulus=15)
        with pytest.raises(ValueError, match="is not q\\^2d - 1"):
            descriptor(unit, q=3, modulus=9)
        with pytest.raises(TypeError):
            EigenvalueOrbit(3, 8, frozenset({0}))  # an orbit takes no field

    def test_with_multiplicity(self):
        orbit = orbit_closure(3, 8, 4, 3)
        assert orbit.multiplicity == 3
        assert orbit.exponents == frozenset({4})
        assert orbit == EigenvalueOrbit(frozenset({4}), 3)

    @pytest.mark.parametrize("container", [list, set])
    def test_exponents_are_kept_as_a_frozenset(self, container):
        """The orbit keeps its own frozenset: a caller's list or set can
        neither leave it unhashable nor change it afterwards."""
        unit = EigenvalueOrbit(container([0]), 2)
        assert type(unit.exponents) is frozenset and unit.is_one
        assert hash(unit) == hash((frozenset({0}), 2))
        given = container([1, 5])
        s = descriptor(EigenvalueOrbit(given), unit)
        (given.append if container is list else given.add)(2)
        assert s.dimension == 4 and s.non_unit_orbits[0].exponents == {1, 5}


class TestDescriptors:
    def test_dimension(self):
        s = descriptor(orbit_closure(3, 8, 0, 3), orbit_closure(3, 8, 1, 2))
        assert s.dimension == 3 + 2 * 2
        assert s.unit_multiplicity == 3
        assert s.non_unit_dimension == 4
        assert len(s.non_unit_orbits) == 1

    def test_unit_orbit_sorted_first(self):
        s = descriptor(orbit_closure(3, 8, 1), orbit_closure(3, 8, 0, 2))
        assert s.orbits[0].is_one

    def test_disjointness(self):
        with pytest.raises(ValueError):
            descriptor(orbit_closure(3, 8, 1), orbit_closure(3, 8, 5))

    def test_orbit_descriptor_mismatch(self):
        # an orbit closed over another field is checked against this one:
        # {1, 9, 53, 77} is not an orbit mod 8, while {4} is the -1 class
        with pytest.raises(ValueError, match="is not closed|not reduced mod 8"):
            descriptor(orbit_closure(3, 80, 1))
        s = descriptor(orbit_closure(5, 24, 4), q=3, modulus=8)
        assert s.orbits == (orbit_closure(3, 8, 4),) and s.dimension == 1

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), q=st.sampled_from((3, 5, 7)), d=st.sampled_from((1, 2)))
    def test_each_orbit_is_checked_against_the_field(self, data, q, d):
        """Exponent sets drawn as closures, closures with one exponent added
        or removed, and closures holding a value >= M: the descriptor
        accepts exactly when every set is reduced, closed and pairwise
        disjoint, and otherwise names the first fault, orbits in order."""
        modulus = q ** (2 * d) - 1
        sets = []
        for _ in range(data.draw(st.integers(1, 3), label="orbits")):
            start = data.draw(st.integers(0, modulus - 1), label="exponent")
            exponents = set(orbit_closure(q, modulus, start).exponents)
            change = data.draw(st.sampled_from(("none", "add", "remove", "unreduced")))
            if change == "add":
                exponents.add(data.draw(st.integers(0, modulus - 1), label="added"))
            elif change == "remove" and len(exponents) > 1:
                exponents.remove(data.draw(st.sampled_from(sorted(exponents)), label="removed"))
            elif change == "unreduced":
                exponents.add(data.draw(st.integers(modulus, 2 * modulus), label="unreduced"))
            sets.append(exponents)
        orbits = tuple(EigenvalueOrbit(x) for x in sets)
        message = None
        for x in sets:
            unreduced = [e for e in x if not 0 <= e < modulus]
            if unreduced:
                message = f"^exponent {unreduced[0]} not reduced mod {modulus}$"
            elif any((-q * e) % modulus not in x for e in x):
                message = r"^exponent set \{.*\} is not closed$"
            if message:
                break
        else:
            if sum(map(len, sets)) != len(set().union(*sets)):
                message = "^orbits must be pairwise disjoint$"
        if message:
            with pytest.raises(ValueError, match=message):
                SemisimpleDescriptor(q, modulus, orbits)
        else:
            s = SemisimpleDescriptor(q, modulus, orbits)
            assert s.dimension == sum(map(len, sets))
            assert {o.exponents for o in s.orbits} == set(map(frozenset, sets))

    def test_empty_descriptor_checks_the_field(self):
        with pytest.raises(ValueError, match="modulus 0 is not q\\^2d - 1"):
            SemisimpleDescriptor(3, 0, ())
        with pytest.raises(ValueError, match="not an odd prime power"):
            SemisimpleDescriptor(4, 15, ())

    def test_json(self):
        s = descriptor(orbit_closure(3, 8, 4, 2), orbit_closure(3, 8, 0))
        got = s.to_json_dict()
        assert got == {
            "q": 3,
            "modulus": 8,
            "orbits": [
                {"exponents": [0], "multiplicity": 1},
                {"exponents": [4], "multiplicity": 2},
            ],
        }


class TestCentralizers:
    def test_trivial_class(self):
        dec = centralizer_decomposition(identity_class(3, 5), TowerContext(2, 1, 3))
        factors, block, l = dec
        assert factors == ()
        assert block == TowerContext(2, 1, 3)
        assert l == 0

    def test_minus_one_gives_unitary_factor(self):
        s = descriptor(orbit_closure(3, 8, 0), orbit_closure(3, 8, 4, 2))
        dec = centralizer_decomposition(s, TowerContext(1, 1, 3))
        assert dec.factors == (CentralizerFactor(2, 1),)
        assert dec.factors[0].kind == "unitary"
        assert dec.unipotent_block.dimension == 1
        assert dec.l == 1

    def test_even_orbit_gives_linear_factor(self):
        s = descriptor(orbit_closure(3, 8, 0), orbit_closure(3, 8, 1))
        dec = centralizer_decomposition(s, TowerContext(1, 1, 3))
        assert dec.factors == (CentralizerFactor(1, 2),)
        assert dec.factors[0].kind == "linear"
        assert dec.factors[0].rank_contribution == 2
        assert dec.l == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            centralizer_decomposition(identity_class(3, 4), TowerContext(2, 1, 3))

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            centralizer_decomposition(identity_class(3, 5), TowerContext(2, 1, 5))

    def test_factor_kind_validation(self):
        """The kind follows from the field degree, so no factor names
        another kind; both integers must be positive."""
        assert [CentralizerFactor(2, d).kind for d in (1, 2, 3, 4)] == [
            "unitary", "linear", "unitary", "linear",
        ]
        for size, degree in ((0, 1), (1, 0), (-1, 2)):
            with pytest.raises(ValueError, match="must be positive"):
                CentralizerFactor(size, degree)
        with pytest.raises(TypeError):
            CentralizerFactor("linear", 1, 2)


class TestMatching:
    def test_grows_unit_eigenspace(self):
        s = descriptor(orbit_closure(3, 8, 4, 2), orbit_closure(3, 8, 0))
        matched = match_semisimple(s, TowerContext(1, 1, 3), TowerContext(2, 1, 3))
        assert matched.dimension == 5
        assert matched.unit_multiplicity == 3
        assert matched.non_unit_orbits == s.non_unit_orbits

    def test_shrinks_to_exact_fit(self):
        s = descriptor(orbit_closure(3, 8, 4, 2), orbit_closure(3, 8, 0))
        matched = match_semisimple(s, TowerContext(1, 1, 3), TowerContext(1, 0, 3))
        assert matched.unit_multiplicity == 0
        assert matched.dimension == 2

    def test_partner_too_small(self):
        s = descriptor(orbit_closure(3, 8, 4, 4))
        with pytest.raises(ValueError):
            match_semisimple(s, TowerContext(2, 0, 3), TowerContext(1, 0, 3))

    def test_wrong_ambient_dimension(self):
        with pytest.raises(ValueError):
            match_semisimple(identity_class(3, 3), TowerContext(2, 0, 3), TowerContext(2, 1, 3))


class TestCuspidalData:
    def test_trivial_gl_label_reserved(self):
        with pytest.raises(ValueError):
            GLCuspidal(2, "1")
        with pytest.raises(ValueError):
            GLCuspidal(0, "a")
        assert TRIVIAL_GL.is_trivial
        assert not GLCuspidal(1, "st").is_trivial

    def test_unipotent_cuspidal(self):
        with pytest.raises(ValueError):
            UnipotentCuspidal(-1)
        assert UnipotentCuspidal(2).to_json_dict() == {"unipotent": True, "k": 2}

    def test_generic_cuspidal(self):
        with pytest.raises(ValueError):
            GenericCuspidal("c", -1)
        # the partner tag is bookkeeping, not identity
        assert GenericCuspidal("c", 1) == GenericCuspidal("c", 1, partner_label="x")

    @pytest.mark.parametrize(
        "build, read, value, want, inexact",
        [
            (
                lambda v: orbit_closure(v, 8, 1),
                lambda o: sorted(o.exponents), Index(3), [1, 5], 3.0,
            ),
            (
                lambda v: orbit_closure(3, v, 1),
                lambda o: sorted(o.exponents), Index(8), [1, 5], 8.0,
            ),
            (lambda v: orbit_closure(3, 8, v), lambda o: sorted(o.exponents), True, [1, 5], 1.5),
            (lambda v: orbit_closure(3, 8, 0, v), lambda o: [o.multiplicity], True, [1], 2.0),
            (
                lambda v: EigenvalueOrbit(frozenset({v, 5})),
                lambda o: sorted(o.exponents), Index(1), [1, 5], 1.0,
            ),
            (
                lambda v: EigenvalueOrbit(frozenset({0}), v),
                lambda o: [o.multiplicity], Index(2), [2], 2.0,
            ),
            (
                lambda v: SemisimpleDescriptor(v, Index(8), ()),
                lambda s: [s.q, s.modulus], Index(3), [3, 8], 3.0,
            ),
            (lambda v: GLCuspidal(v, "rho"), lambda g: [g.size], Index(2), [2], 2.0),
            (lambda v: UnipotentCuspidal(v), lambda u: [u.k], True, [1], 1.5),
            (lambda v: GenericCuspidal("c", v), lambda g: [g.first_occurrence], True, [1], 1.0),
            (
                lambda v: CuspidalPair((), v, identity_class(3, 1)),
                lambda p: [p.base_k], True, [1], 1.0,
            ),
            (lambda v: CentralizerFactor(v, 1), lambda f: [f.size], Index(2), [2], 2.0),
            (lambda v: CentralizerFactor(1, v), lambda f: [f.field_degree], True, [1], 1.0),
        ],
        ids=[
            "orbit q", "orbit modulus", "orbit_closure exponent",
            "orbit_closure multiplicity", "orbit exponents", "orbit multiplicity",
            "descriptor field", "GL size", "unipotent k", "generic first occurrence",
            "pair base k", "factor size", "factor field degree",
        ],
    )
    def test_integers_are_read_exactly(self, build, read, value, want, inexact):
        """A bool or another integer type is stored as its int, so that
        none reaches an output, and a float raises ValueError instead of
        being kept."""
        got = read(build(value))
        assert got == want and all(type(x) is int for x in got)
        with pytest.raises(ValueError, match="must be an integer"):
            build(inexact)

    def test_support_sorted_multiset(self):
        support = CuspidalSupport(
            (GLCuspidal(2, "b"), TRIVIAL_GL, GLCuspidal(1, "z")), UnipotentCuspidal(0)
        )
        assert [e.label for e in support.entries] == ["1", "z", "b"]
        assert support.gl_size == 4
        assert support.trivial_count == 1


class TestTransportSupport:
    def test_unipotent_anchor_grows(self):
        support = CuspidalSupport((TRIVIAL_GL, TRIVIAL_GL), UnipotentCuspidal(0))
        image = transport_support(support, TowerContext(2, 0), TowerContext(3, 1))
        assert image.phi == UnipotentCuspidal(1)
        assert image.trivial_count == 3
        assert image.gl_size == 3

    def test_zero_below_first_occurrence(self):
        support = CuspidalSupport((), UnipotentCuspidal(2))
        assert transport_support(support, TowerContext(1, 1), TowerContext(0, 0)) is None

    def test_wrong_home_witt_index(self):
        support = CuspidalSupport((TRIVIAL_GL,), UnipotentCuspidal(0))
        with pytest.raises(ValueError):
            transport_support(support, TowerContext(2, 0), TowerContext(2, 1))

    def test_gl_part_does_not_fit(self):
        support = CuspidalSupport((GLCuspidal(3, "a"),), GenericCuspidal("c", 0))
        with pytest.raises(ValueError):
            transport_support(support, TowerContext(2, 0), TowerContext(2, 1))

    def test_shrink_needs_trivial_entries(self):
        support = CuspidalSupport((GLCuspidal(1, "a"),), GenericCuspidal("c", 0))
        with pytest.raises(ValueError, match="trivial GL_1"):
            transport_support(support, TowerContext(1, 0), TowerContext(0, 0))

    def test_unipotent_anchor_needs_its_home_parity(self):
        # k = 1 lives at Witt index 0 of the odd tower only
        support = CuspidalSupport((), UnipotentCuspidal(1))
        with pytest.raises(ValueError, match="dimension parity 0"):
            transport_support(support, TowerContext(0, 0), TowerContext(2, 0))
        assert transport_support(support, TowerContext(0, 1), TowerContext(2, 0))

    @settings(max_examples=200, deadline=None)
    @given(
        gl=st.lists(
            st.tuples(st.integers(1, 3), st.sampled_from(["1", "a", "b"])).filter(
                lambda e: e[1] != "1" or e[0] == 1
            ),
            max_size=4,
        ),
        first=st.integers(0, 3),
        spare=st.integers(0, 2),
        m_prime=st.integers(0, 8),
    )
    def test_gl1_law_against_a_reference(self, gl, first, spare, m_prime):
        # the partner keeps the nontrivial entries and has t' - (their size)
        # trivial GL_1 entries; when that is negative no partner exists
        entries = tuple(GLCuspidal(size, label) for size, label in gl)
        t = sum(e.size for e in entries)
        ctx, ctx_prime = TowerContext(t + spare, 0), TowerContext(m_prime, 1)
        support = CuspidalSupport(entries, GenericCuspidal("c", first))
        if m_prime < first:
            assert transport_support(support, ctx, ctx_prime) is None
            return
        t_prime = m_prime - first
        kept = tuple(e for e in entries if not e.is_trivial)
        fill = t_prime - sum(e.size for e in kept)
        if fill < 0:
            trivial = len(entries) - len(kept)
            with pytest.raises(
                ValueError,
                match=f"must remove {t - t_prime} trivial GL_1 entries but only "
                f"{trivial} are present",
            ):
                transport_support(support, ctx, ctx_prime)
            return
        want = CuspidalSupport(kept + (TRIVIAL_GL,) * fill, GenericCuspidal("theta(c)", spare))
        assert transport_support(support, ctx, ctx_prime) == want

    def test_generic_round_trip(self):
        support = CuspidalSupport((GLCuspidal(1, "a"),), GenericCuspidal("c", 1))
        ctx, ctx_prime = TowerContext(2, 0), TowerContext(3, 1)
        image = transport_support(support, ctx, ctx_prime)
        assert image.phi.first_occurrence == 1
        assert image.phi.partner_label == "c"
        back = transport_support(image, ctx_prime, ctx)
        assert back.entries == support.entries
        assert back.phi.label == "c"


def unipotent_pair(torus_rank, k, q=3):
    gl = (TRIVIAL_GL,) * torus_rank
    n = 2 * torus_rank + (k * (k + 1)) // 2
    return CuspidalPair(gl, k, identity_class(q, n))


class TestCuspidalPairs:
    def test_torus_rank_counts_trivials(self):
        pair = CuspidalPair(
            (TRIVIAL_GL, GLCuspidal(1, "a"), TRIVIAL_GL), 0,
            descriptor(orbit_closure(3, 8, 0, 4), orbit_closure(3, 8, 4, 2)),
        )
        assert pair.torus_rank == 2
        assert pair.gl_size == 3
        assert [e.label for e in pair.nontrivial_part] == ["a"]

    # the three ways a pair can disagree with its group, met by transport
    def test_unit_multiplicity_consistency(self):
        s = identity_class(3, 3)  # needs 2*torus + T(k) = 3
        pair = CuspidalPair((TRIVIAL_GL,), 0, s)
        with pytest.raises(ValueError, match="is inconsistent with torus rank 1 and base k = 0"):
            transport_series(pair, TowerContext(1, 1, 3), TowerContext(1, 0, 3))

    def test_gl_part_does_not_fit(self):
        # no eigenvalue 1, as torus rank 0 and k = 0 need; a GL_2 entry in U_2
        pair = CuspidalPair((GLCuspidal(2, "a"),), 0, descriptor(orbit_closure(3, 8, 4, 2)))
        with pytest.raises(ValueError, match="GL part of size 2 does not fit in Witt index 1"):
            transport_series(pair, TowerContext(1, 0, 3), TowerContext(1, 1, 3))

    def test_non_unit_part_too_small(self):
        # k = 1 takes one eigenvalue 1; the -1 left is one dimension, GL_1 needs two
        s = descriptor(orbit_closure(3, 8, 0), orbit_closure(3, 8, 4))
        pair = CuspidalPair((GLCuspidal(1, "a"),), 1, s)
        with pytest.raises(ValueError, match=r"fewer non-unit dimensions .* \(1 < 2\)"):
            transport_series(pair, TowerContext(1, 0, 3), TowerContext(1, 1, 3))


# non-unit parts of a series: none, -1 twice, one degree-2 orbit, and a
# degree-2 orbit that a GL_1 entry takes up
NON_UNIT_PARTS = [
    ((), ()),
    ((orbit_closure(3, 8, 4, 2),), ()),
    ((orbit_closure(3, 8, 1),), ()),
    ((orbit_closure(3, 8, 1),), (GLCuspidal(1, "a"),)),
]


class TestTypeBRank:
    """The relative Weyl group of a series has type-B rank m - l - m(k).
    The eigenvalue-1 multiplicity 2 * torus rank + T(k) that transport
    checks makes that rank the torus rank, on both sides of the pair."""

    @staticmethod
    def type_b_rank(pair, ctx):
        l = centralizer_decomposition(pair.semisimple, ctx).l
        return ctx.witt_index - l - witt_index_of_cuspidal(pair.base_k)

    @pytest.mark.parametrize("k", range(4))
    def test_type_b_rank_is_the_torus_rank(self, k):
        images = 0
        for t, (orbits, gl) in product(range(3), NON_UNIT_PARTS):
            nu1 = 2 * t + triangular(k)
            s = descriptor(*orbits, *([orbit_closure(3, 8, 0, nu1)] if nu1 else []))
            ctx = TowerContext(s.dimension // 2, s.dimension % 2, 3)
            pair = CuspidalPair((TRIVIAL_GL,) * t + gl, k, s)
            assert self.type_b_rank(pair, ctx) == t
            for m_prime, parity_p in product(range(ctx.witt_index + 3), (0, 1)):
                ctx_p = TowerContext(m_prime, parity_p, 3)
                try:
                    image = transport_series(pair, ctx, ctx_p)
                except ValueError as err:
                    # the nontrivial GL entries outgrow the partner's torus
                    assert str(err).startswith("no partner series exists")
                    continue
                if image is not None:
                    assert self.type_b_rank(image, ctx_p) == image.torus_rank
                    images += 1
        assert images


class TestTransportSeries:
    def test_unipotent_round_trip(self):
        pair = unipotent_pair(2, 0)
        ctx, ctx_prime = TowerContext(2, 0, 3), TowerContext(2, 1, 3)
        image = transport_series(pair, ctx, ctx_prime)
        assert image.base_k == 1
        assert image.torus_rank == 2
        assert transport_series(image, ctx_prime, ctx) == pair

    def test_zero_below_first_occurrence(self):
        pair = CuspidalPair((), 2, identity_class(3, 3))
        assert transport_series(pair, TowerContext(1, 1, 3), TowerContext(0, 0, 3)) is None

    def test_shrink_needs_trivial_entries(self):
        s = descriptor(orbit_closure(3, 8, 4, 2))
        pair = CuspidalPair((GLCuspidal(1, "a"),), 0, s)
        with pytest.raises(ValueError, match="no partner series"):
            transport_series(pair, TowerContext(1, 0, 3), TowerContext(0, 0, 3))

    def test_nontrivial_entries_move_verbatim(self):
        s = descriptor(orbit_closure(3, 8, 0, 2), orbit_closure(3, 8, 4, 2))
        pair = CuspidalPair((TRIVIAL_GL, GLCuspidal(1, "a")), 0, s)
        image = transport_series(pair, TowerContext(2, 0, 3), TowerContext(3, 0, 3))
        assert image.nontrivial_part == pair.nontrivial_part
        assert image.semisimple.non_unit_orbits == s.non_unit_orbits


class TestOmegaFull:
    def test_trivial_class_degrades_to_unipotent_table(self):
        pair = unipotent_pair(2, 0)
        ctx, ctx_prime = TowerContext(2, 0, 3), TowerContext(2, 1, 3)
        dec = omega_full(pair, ctx, ctx_prime)
        table = omega_unipotent(TowerContext(2, 0), TowerContext(2, 1), 0)
        assert dec.hash_descriptor == ()
        assert dec.l == 0 and dec.l_prime == 0
        assert dec.unipotent_table.to_json_dict() == table.to_json_dict()

    def test_below_first_occurrence_raises(self):
        pair = CuspidalPair((), 2, identity_class(3, 3))
        with pytest.raises(ValueError, match="zero image"):
            omega_full(pair, TowerContext(1, 1, 3), TowerContext(0, 0, 3))

    def test_membership(self):
        s = descriptor(orbit_closure(3, 8, 0, 2), orbit_closure(3, 8, 4, 2))
        pair = CuspidalPair((TRIVIAL_GL,), 0, s)
        dec = omega_full(pair, TowerContext(2, 0, 3), TowerContext(2, 1, 3))
        assert len(dec.hash_descriptor) == 1
        row = bipartition((1,), ())
        linked = [
            col for col in dec.unipotent_table.col_labels
            if dec.unipotent_table.entry(row, col) > 0
        ]
        assert linked
        assert dec.contains((("2",), row), (("2",), linked[0]))
        assert not dec.contains((("2",), row), (("1,1",), linked[0]))
        unlinked = [
            col for col in dec.unipotent_table.col_labels
            if dec.unipotent_table.entry(row, col) == 0
        ]
        if unlinked:
            assert not dec.contains((("2",), row), (("2",), unlinked[0]))

    @pytest.mark.parametrize(
        "alpha, beta", [([1], []), ((), [1]), ([1], ())], ids=["lists", "mixed", "list_alpha"]
    )
    def test_membership_with_plain_sequence_parts(self, alpha, beta):
        # at m = m' = 1, k = 0 every label of W_1 is linked to the trivial one
        dec = omega_full(unipotent_pair(1, 0), TowerContext(1, 0, 3), TowerContext(1, 0, 3))
        plain, triv = Bipartition(alpha, beta), bipartition((1,), ())
        assert dec.contains(((), plain), ((), triv))
        assert dec.contains(((), triv), ((), plain))

    def test_json_shape(self):
        dec = omega_full(unipotent_pair(1, 0), TowerContext(1, 0, 3), TowerContext(1, 1, 3))
        got = dec.to_json_dict()
        assert set(got) == {"hash_descriptor", "pairing", "l", "l_prime", "unipotent_table"}
        assert got["pairing"] == "diagonal"

    def test_the_pairing_is_a_constant(self):
        dec = omega_full(unipotent_pair(1, 0), TowerContext(1, 0, 3), TowerContext(1, 1, 3))
        assert dec.pairing == OmegaFullDecomposition.pairing == "diagonal"
        assert [f.name for f in dataclasses.fields(dec)] == [
            "hash_descriptor", "l", "l_prime", "unipotent_table",
        ]


FIELDS = (3, 5, 7, 9)
# k = 2 opposite the even tower has k' = 3, first occurring at m' = 3: with
# m' < 3 transport_series returns None when no group has a q
_BELOW_FIRST_OCCURRENCE = dict(q=3, k=2, torus_rank=0, minus_one=0, parity_prime=0)


class TestFieldRule:
    """A descriptor meets the groups of a pair by one rule: a group given
    with q, on either side, is over the descriptor's q.  Every function
    that takes a descriptor and a group raises the same ValueError when it
    is not, and before it returns anything, None included."""

    @staticmethod
    def _assert_rule(call, q, groups):
        wrong = [g for g in groups if g is not None and g != q]
        if wrong:
            message = f"^descriptor is over q = {q}, the group over q = {wrong[0]}$"
            with pytest.raises(ValueError, match=message):
                call()
            return
        try:
            call()
        except ValueError as err:  # another rule, such as no image below first occurrence
            assert "descriptor is over" not in str(err)

    @settings(max_examples=300, deadline=None)
    @given(
        q=st.sampled_from(FIELDS),
        q_group=st.sampled_from(FIELDS + (None,)),
        q_partner=st.sampled_from(FIELDS + (None,)),
        k=st.integers(0, 2),
        torus_rank=st.integers(0, 2),
        minus_one=st.sampled_from((0, 2)),
        m_prime=st.integers(0, 4),
        parity_prime=st.integers(0, 1),
    )
    @example(q_group=5, q_partner=None, m_prime=0, **_BELOW_FIRST_OCCURRENCE)
    @example(q_group=None, q_partner=7, m_prime=2, **_BELOW_FIRST_OCCURRENCE)
    def test_every_function_applies_the_field_rule(
        self, q, q_group, q_partner, k, torus_rank, minus_one, m_prime, parity_prime
    ):
        modulus = q * q - 1
        nu1 = 2 * torus_rank + triangular(k)
        orbits = [orbit_closure(q, modulus, 0, nu1)] if nu1 else []
        if minus_one:
            orbits.append(orbit_closure(q, modulus, modulus // 2, minus_one))
        s = SemisimpleDescriptor(q, modulus, tuple(orbits))
        pair = CuspidalPair((TRIVIAL_GL,) * torus_rank, k, s)
        n = s.dimension
        bare, bare_p = TowerContext(n // 2, n % 2), TowerContext(m_prime, parity_prime)
        ctx = TowerContext(n // 2, n % 2, q_group)
        ctx_p = TowerContext(m_prime, parity_prime, q_partner)
        self._assert_rule(lambda: centralizer_decomposition(s, ctx), q, [q_group])
        if s.non_unit_dimension <= ctx_p.dimension:
            partner = match_semisimple(s, bare, bare_p)
            self._assert_rule(lambda: centralizer_decomposition(partner, ctx_p), q, [q_partner])
        for function in (match_semisimple, transport_series, omega_full):
            arguments = (s if function is match_semisimple else pair, ctx, ctx_p)
            self._assert_rule(lambda: function(*arguments), q, [q_group, q_partner])
