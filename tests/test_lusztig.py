"""Semisimple bookkeeping: orbits, centralizers, transport, full coupling."""

from itertools import product

import pytest
from hypothesis import given, settings
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
        assert orbit_closure(3, 8, 4).is_minus_one
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
        with pytest.raises(ValueError):
            EigenvalueOrbit(3, 8, frozenset({1}))
        with pytest.raises(ValueError):
            EigenvalueOrbit(3, 8, frozenset({9}))
        with pytest.raises(ValueError):
            EigenvalueOrbit(3, 8, frozenset())

    def test_direct_construction_checks_the_field(self):
        with pytest.raises(ValueError, match="not an odd prime power"):
            EigenvalueOrbit(4, 15, frozenset({0}))
        with pytest.raises(ValueError, match="is not q\\^2d - 1"):
            EigenvalueOrbit(3, 9, frozenset({0}))

    def test_with_multiplicity(self):
        orbit = orbit_closure(3, 8, 4, 3)
        assert orbit.multiplicity == 3
        assert orbit.exponents == frozenset({4})
        assert orbit == EigenvalueOrbit(3, 8, frozenset({4}), 3)


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
        with pytest.raises(ValueError):
            descriptor(orbit_closure(3, 80, 1))
        with pytest.raises(ValueError):
            descriptor(orbit_closure(5, 24, 4), q=3, modulus=8)

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
        assert dec.factors == (CentralizerFactor("unitary", 2, 1),)
        assert dec.unipotent_block.dimension == 1
        assert dec.l == 1

    def test_even_orbit_gives_linear_factor(self):
        s = descriptor(orbit_closure(3, 8, 0), orbit_closure(3, 8, 1))
        dec = centralizer_decomposition(s, TowerContext(1, 1, 3))
        assert dec.factors == (CentralizerFactor("linear", 1, 2),)
        assert dec.factors[0].rank_contribution == 2
        assert dec.l == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            centralizer_decomposition(identity_class(3, 4), TowerContext(2, 1, 3))

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            centralizer_decomposition(identity_class(3, 5), TowerContext(2, 1, 5))

    def test_factor_kind_validation(self):
        with pytest.raises(ValueError):
            CentralizerFactor("orthogonal", 1, 1)


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
