from itertools import accumulate

import pytest
import reference_pieri
from hypothesis import given, settings
from hypothesis import strategies as st

from howecorr import unipotent
from howecorr.partitions import (
    Bipartition,
    Partition,
    _bipartition_index,
    _bipartition_radix,
    _bipartitions_of,
    _horizontal_strip_removals,
    _partition_position,
    _partitions_of,
    _strip_relation,
    bipartition,
    bipartition_dominance_leq,
    bipartitions_of,
    horizontal_strip_additions,
    partitions_of,
    vertical_strip_additions,
)
from howecorr.unipotent import SGN_CONVENTIONS


def P(*parts):
    return Partition(parts)


class TestPartition:
    def test_trims_zeros(self):
        assert Partition((3, 1, 0, 0)) == (3, 1)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_a_partition_is_returned_as_it_is(self):
        p = P(3, 1)
        assert Partition(p) is p
        # other sequences are copied and validated as before
        assert type(Partition([3, 1])) is Partition
        assert Partition((3, 1, 0)) == p and Partition((3, 1, 0)) is not p
        with pytest.raises(ValueError, match=r"weakly decreasing: \(1, 2\)"):
            Partition((1, 2))
        with pytest.raises(ValueError, match=r"positive: \(2, -1\)"):
            Partition([2, -1])

    def test_parts_are_read_as_integers(self):
        class Two:  # an integer type that is not int, as numpy's are
            def __index__(self):
                return 2

        assert Partition([Two(), True]) == (2, 1)
        assert list(map(type, Partition([Two(), True]))) == [int, int]
        # a float or a string is rejected, not rounded or parsed
        for bad in (2.7, 1.0, "3", None):
            with pytest.raises(ValueError, match=f"^a partition part must be an integer, got {bad!r}$"):
                Partition([bad, 1])
        with pytest.raises(ValueError, match="^a partition part must be an integer, got 1.5$"):
            bipartition([1.5], [])

    def test_part_past_end_is_zero(self):
        assert P(3, 1).part(5) == 0

    def test_size(self):
        assert P().size == 0
        assert P(4, 2, 1).size == 7

    def test_contains(self):
        assert P(3, 2).contains(P(2, 2))
        assert not P(3, 2).contains(P(1, 1, 1))


class TestEnumeration:
    def test_partitions_of_small(self):
        assert partitions_of(0) == [P()]
        assert partitions_of(1) == [P(1)]

    def test_partitions_of_five_decreasing_lex(self):
        assert partitions_of(5) == [
            P(5),
            P(4, 1),
            P(3, 2),
            P(3, 1, 1),
            P(2, 2, 1),
            P(2, 1, 1, 1),
            P(1, 1, 1, 1, 1),
        ]

    def test_partition_counts(self):
        # p(n) for n = 0..9
        counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        for n, c in enumerate(counts):
            assert len(partitions_of(n)) == c

    def test_bipartitions_of_small(self):
        assert bipartitions_of(0) == [bipartition((), ())]
        assert bipartitions_of(1) == [bipartition((1,), ()), bipartition((), (1,))]

    def test_bipartitions_of_two_order(self):
        assert bipartitions_of(2) == [
            bipartition((2,), ()),
            bipartition((1, 1), ()),
            bipartition((1,), (1,)),
            bipartition((), (2,)),
            bipartition((), (1, 1)),
        ]

    def test_bipartition_counts(self):
        for n in range(9):
            want = sum(
                len(partitions_of(a)) * len(partitions_of(n - a))
                for a in range(n + 1)
            )
            got = bipartitions_of(n)
            assert len(got) == want
            assert len(set(got)) == want



def _reference_partitions(n, max_part):
    """The partitions of n with parts at most max_part, decreasing
    lexicographic, by recursion on the first part."""
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, max_part), 0, -1)
        for rest in _reference_partitions(n - first, first)
    ]


def _clear_per_rank_caches():
    """The per-rank caches behind the strip-index lists."""
    for cached in (
        _partitions_of,
        _bipartitions_of,
        _bipartition_index,
        _partition_position,
        _bipartition_radix,
        _strip_relation,
        unipotent._strip_indices,
        unipotent._star_permutation,
        unipotent._twist_permutation,
    ):
        cached.cache_clear()


def _assert_partitions_of_match_the_reference(n):
    got = _partitions_of(n)
    assert got == tuple(_reference_partitions(n, n)), n
    for p in got:
        assert type(p) is Partition and p == Partition(list(p)), (n, p)


class TestBulkEnumeration:
    def test_partitions_of_equal_a_recursive_reference(self):
        for n in range(21):
            _assert_partitions_of_match_the_reference(n)

    def test_a_high_rank_built_first_fills_the_lower_ranks_identically(self):
        _clear_per_rank_caches()
        _partitions_of(20)
        assert _partitions_of.cache_info().currsize == 21
        for n in range(21):
            _assert_partitions_of_match_the_reference(n)
        assert _partitions_of.cache_info().currsize == 21

    def test_bipartitions_of_equal_the_nested_loop_reference(self):
        for n in range(17):
            want = tuple(
                Bipartition(alpha, beta)
                for a in range(n, -1, -1)
                for alpha in partitions_of(a)
                for beta in partitions_of(n - a)
            )
            got = _bipartitions_of(n)
            assert got == want, n
            for bp in got:
                assert type(bp) is Bipartition, (n, bp)
                assert type(bp.alpha) is Partition and type(bp.beta) is Partition, (n, bp)

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(0, 14).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.sampled_from(SGN_CONVENTIONS),
    )
    def test_cold_strip_indices_equal_the_label_hashing_reference(self, case, convention):
        n, l = case
        _clear_per_rank_caches()
        got = unipotent._strip_indices(n, l)
        twist = unipotent._twist_permutation(n, convention)
        assert got == reference_pieri.strip_indices(n, l, "trivial"), (n, l)
        assert twist == reference_pieri.twist_permutation(n, convention), (n, convention)


class TestConjugate:
    def test_examples(self):
        assert P().conjugate() == P()
        assert P(3, 1).conjugate() == P(2, 1, 1)
        assert P(2, 2).conjugate() == P(2, 2)

    def test_involution(self):
        for n in range(7):
            for p in partitions_of(n):
                assert p.conjugate().conjugate() == p


class TestStrips:
    def test_horizontal_examples(self):
        assert horizontal_strip_additions(P(), 2) == [P(2)]
        assert horizontal_strip_additions(P(1), 1) == [P(2), P(1, 1)]
        assert horizontal_strip_additions(P(2, 1), 2) == [
            P(4, 1),
            P(3, 2),
            P(3, 1, 1),
            P(2, 2, 1),
        ]

    def test_vertical_examples(self):
        assert vertical_strip_additions(P(), 2) == [P(1, 1)]
        assert vertical_strip_additions(P(1), 1) == [P(2), P(1, 1)]
        assert vertical_strip_additions(P(2), 2) == [P(3, 1), P(2, 1, 1)]

    def test_zero_strip_is_identity(self):
        assert horizontal_strip_additions(P(3, 1), 0) == [P(3, 1)]
        assert vertical_strip_additions(P(3, 1), 0) == [P(3, 1)]

    def test_conjugate_duality(self):
        for n in range(6):
            for p in partitions_of(n):
                for s in range(4):
                    vert = set(vertical_strip_additions(p, s))
                    dual = {
                        lam.conjugate()
                        for lam in horizontal_strip_additions(p.conjugate(), s)
                    }
                    assert vert == dual

    def test_no_duplicates_and_containment(self):
        for n in range(6):
            for p in partitions_of(n):
                for s in range(4):
                    for op in (horizontal_strip_additions, vertical_strip_additions):
                        out = op(p, s)
                        assert len(out) == len(set(out))
                        for lam in out:
                            assert lam.size == p.size + s
                            assert lam.contains(p)

    def test_horizontal_strip_condition(self):
        # interleaving: p_i between lam_i and lam_{i+1}
        for lam in horizontal_strip_additions(P(3, 2, 2), 3):
            for i in range(len(lam)):
                assert lam.part(i + 1) <= P(3, 2, 2).part(i) <= lam.part(i)


    def test_deep_strips_do_not_recurse(self):
        # generation depth used to be len(p) + size for vertical strips and
        # len(p) for horizontal ones, past the interpreter's recursion limit
        assert vertical_strip_additions((), 1200) == [P(*[1] * 1200)]
        long = P(*[1] * 1500)
        assert horizontal_strip_additions(long, 1) == [P(2, *[1] * 1499), P(*[1] * 1501)]
        assert vertical_strip_additions(long, 2) == [
            P(2, 2, *[1] * 1498),
            P(2, *[1] * 1500),
            P(*[1] * 1502),
        ]

    def test_removal_examples(self):
        assert _horizontal_strip_removals(P(2, 1), 1) == (P(2), P(1, 1))
        assert _horizontal_strip_removals(P(2, 1), 2) == (P(1),)
        assert _horizontal_strip_removals(P(1, 1), 2) == ()  # one column
        assert _horizontal_strip_removals(P(), 0) == (P(),)
        assert _horizontal_strip_removals(P(), 1) == ()

    def test_deep_removals_do_not_recurse(self):
        long = P(*[1] * 1500)
        assert _horizontal_strip_removals(long, 1) == (P(*[1] * 1499),)
        assert _horizontal_strip_removals(P(*range(1500, 0, -1)), 0) == (
            P(*range(1500, 0, -1)),
        )

    def test_validation_is_kept(self):
        with pytest.raises(ValueError):
            horizontal_strip_additions((1, 2), 1)
        with pytest.raises(ValueError):
            vertical_strip_additions((2, 1), -1)

    def test_a_non_integer_strip_size_is_refused(self):
        # a float size would share the cache key of the equal int and leave
        # float parts in the strip caches for both
        for strips in (horizontal_strip_additions, vertical_strip_additions):
            for bad, shown in ((1.0, "1.0"), (1.5, "1.5"), ("1", "'1'")):
                with pytest.raises(ValueError, match=f"^strip size must be an integer, got {shown}$"):
                    strips((1,), bad)
            assert all(type(part) is int for lam in strips((1,), 1) for part in lam)
            assert strips((1,), True) == strips((1,), 1)


partitions = st.integers(0, 9).flatmap(lambda n: st.sampled_from(partitions_of(n)))
strip_sizes = st.integers(0, 5)
STRIPS = {
    "horizontal": horizontal_strip_additions,
    "vertical": vertical_strip_additions,
}


def is_strip(kind, lam, p):
    """Brute-force skew shape test: lam/p has no two cells in one column
    (horizontal) or in one row (vertical)."""
    if kind == "horizontal":
        return all(lam.part(i + 1) <= p.part(i) <= lam.part(i) for i in range(len(lam)))
    return all(0 <= lam.part(i) - p.part(i) <= 1 for i in range(len(lam)))


class TestStripProperties:
    @settings(deadline=None)
    @given(p=partitions, size=strip_sizes, kind=st.sampled_from(sorted(STRIPS)))
    def test_equals_brute_force_filter(self, p, size, kind):
        want = [
            lam
            for lam in partitions_of(p.size + size)
            if lam.contains(p) and is_strip(kind, lam, p)
        ]
        assert STRIPS[kind](p, size) == want

    @settings(deadline=None)
    @given(p=partitions, size=strip_sizes, kind=st.sampled_from(sorted(STRIPS)))
    def test_returned_list_does_not_alias_the_cache(self, p, size, kind):
        op = STRIPS[kind]
        first = op(p, size)
        want = list(first)
        first.append(P(99))
        first.reverse()
        first[0] = P()
        assert op(tuple(p), size) == want
        op(p, size).clear()
        assert op(p, size) == want


def test_strip_relation_equals_the_interlacing_definition():
    """Every pair mu, lam with |mu| <= |lam| <= 12, tested one by one."""
    for n in range(13):
        lams = partitions_of(n)
        for m in range(n + 1):
            want = tuple(
                tuple(
                    j
                    for j, lam in enumerate(lams)
                    if lam.contains(mu) and is_strip("horizontal", lam, mu)
                )
                for mu in partitions_of(m)
            )
            assert _strip_relation(n)[m] == want, (m, n)


@settings(deadline=None)
@given(p=partitions, size=st.integers(0, 10))
def test_strip_removals_equal_brute_force_filter(p, size):
    want = [
        nu
        for nu in (partitions_of(p.size - size) if size <= p.size else [])
        if p.contains(nu) and is_strip("horizontal", p, nu)
    ]
    assert _horizontal_strip_removals(p, size) == tuple(want)


bipartitions = st.builds(Bipartition, partitions, partitions)
equal_size_pairs = st.integers(0, 10).flatmap(
    lambda n: st.tuples(*[st.sampled_from(bipartitions_of(n))] * 2)
)


@settings(deadline=None)
@given(bp=bipartitions, convention=st.sampled_from(SGN_CONVENTIONS))
def test_sgn_twist_is_an_involution(bp, convention):
    # the sgn twist by index, read back as labels: (alpha, beta) -> (beta*, alpha*)
    n = bp.size
    labels, i = _bipartitions_of(n), _bipartition_index(n)[bp]
    twist = unipotent._twist_permutation(n, convention)
    twisted = labels[twist[i]]
    assert (twisted.alpha.size, twisted.beta.size) == (bp.beta.size, bp.alpha.size)
    assert labels[twist[twist[i]]] == bp


@settings(deadline=None, max_examples=200)
@given(
    st.integers(0, 16).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from(bipartitions_of(n)))
    )
)
def test_radix_position_is_the_canonical_index(case):
    n, (alpha, beta) = case
    starts, counts = _bipartition_radix(n)
    a = alpha.size
    position = (
        starts[a]
        + _partition_position(a)[alpha] * counts[n - a]
        + _partition_position(n - a)[beta]
    )
    assert position == _bipartition_index(n)[Bipartition(alpha, beta)]


def _partition_leq(a, b):
    """Dominance on partitions: the bipartition order on (a, ()) against (b, ())."""
    return bipartition_dominance_leq(bipartition(a, ()), bipartition(b, ()))


class TestDominance:
    def test_examples(self):
        assert _partition_leq((1, 1, 1, 1), (4,))
        assert _partition_leq((2, 2), (3, 1))
        assert not _partition_leq((3, 1), (2, 2))

    def test_rejects_unequal_norms(self):
        with pytest.raises(ValueError):
            _partition_leq((2,), (1,))

    def test_partition_order_is_padded_prefix_sums(self):
        for n in range(8):
            parts = partitions_of(n)
            for a in parts:
                for b in parts:
                    width = max(len(a), len(b))
                    sums_a = accumulate((*a, *[0] * (width - len(a))))
                    sums_b = accumulate((*b, *[0] * (width - len(b))))
                    want = all(x <= y for x, y in zip(sums_a, sums_b))
                    assert _partition_leq(a, b) == want, (a, b)

    def test_partition_order_messages(self):
        with pytest.raises(ValueError, match="^dominance needs equal sizes: 2 != 1$"):
            _partition_leq((2,), (1,))
        with pytest.raises(ValueError, match=r"^parts must be weakly decreasing: \(1, 2\)$"):
            _partition_leq((1, 2), (3,))
        with pytest.raises(ValueError, match=r"^parts must be positive: \(-1, 2\)$"):
            _partition_leq((1,), (-1, 2))

    def test_partial_order_axioms(self):
        bps = bipartitions_of(5)
        for x in bps:
            assert bipartition_dominance_leq(x, x)
            for y in bps:
                if bipartition_dominance_leq(x, y) and bipartition_dominance_leq(y, x):
                    assert x == y

    def test_bipartition_order_is_padded_concatenation(self):
        for n in range(7):
            bps = bipartitions_of(n)
            for x in bps:
                for y in bps:
                    assert bipartition_dominance_leq(x, y) == _padded_leq(x, y), (x, y)

    @given(pair=equal_size_pairs)
    @settings(deadline=None, max_examples=300)
    def test_bipartition_order_property(self, pair):
        x, y = pair
        assert bipartition_dominance_leq(x, y) == _padded_leq(x, y)

    def test_bipartition_rejects_unequal_sizes(self):
        with pytest.raises(ValueError, match="^dominance needs equal sizes: 3 != 2$"):
            bipartition_dominance_leq(bipartition((2,), (1,)), bipartition((), (2,)))


def _padded_leq(x, y):
    """Dominance read off its definition: every prefix sum of the
    concatenation alpha + beta, each padded with zeros to length n."""
    n = x.size
    assert y.size == n

    def padded(bp):
        return [*bp.alpha, *[0] * (n - len(bp.alpha)), *bp.beta, *[0] * (n - len(bp.beta))]

    cx, cy = padded(x), padded(y)
    return all(sum(cx[: i + 1]) <= sum(cy[: i + 1]) for i in range(2 * n))


class TestBipartitionHelpers:
    def test_swaps(self):
        # the sgn twist (alpha, beta) -> (beta*, alpha*), read by position
        labels, index = _bipartitions_of(6), _bipartition_index(6)
        i = index[bipartition((2, 1), (3,))]
        twist = unipotent._twist_permutation
        assert labels[twist(6, "sign_changes")[i]] == bipartition((3,), (2, 1))
        assert labels[twist(6, "coxeter_sign")[i]] == bipartition((1, 1, 1), (2, 1))

    def test_size(self):
        assert bipartition((2, 1), (3,)).size == 6

    def test_named_fields(self):
        bp = Bipartition(P(2), P(1))
        assert bp.alpha == P(2) and bp.beta == P(1)
