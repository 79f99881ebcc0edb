import dataclasses
import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import reference_oracle

from howecorr import hyperoctahedral, verify
from howecorr.errors import InternalCheckError, RankBoundError
from howecorr.hyperoctahedral import (
    LINEAR_CHARACTERS,
    CharacterTable,
    SignedCycleType,
    _classes,
    _induce_values,
    _linear_values,
    _outer,
    build_character_table,
    centralizer_order,
    group_order,
)
from howecorr.partitions import Partition, _bipartition_index, bipartition, bipartitions_of
from howecorr.unipotent import SGN_CONVENTIONS, _twist_permutation


def cls(pos, neg):
    return SignedCycleType(Partition(pos), Partition(neg))


# Class functions in the tests are value sequences in canonical class order,
# as in the library.


def _sizes(n):
    """The classes of W_n as an ordered mapping label -> class size."""
    classes = _classes(n)
    return dict(zip(classes.labels, classes.sizes))


def _at(n, values, label):
    """The value on the class ``label`` of a class function on W_n."""
    return values[_classes(n).labels.index(label)]


def _degree(n, values):
    return values[_classes(n).identity]


def _row(n, bp):
    table = build_character_table(n)
    return table.rows[table.labels.index(bp)]


def _scaled(values, c):
    return [c * v for v in values]


def _combination(table, coeffs):
    """The values of the sum of c chi_bp over the table's labels bp."""
    return [sum(map(mul, coeffs, column)) for column in zip(*table.rows)]


def _decompose(n, values):
    """The label-keyed reference decomposition of a class function on W_n
    given as values in canonical class order."""
    return reference_oracle.decompose_values(dict(zip(_classes(n).labels, values)), n)


def _weighted(n, values):
    """The values times the class sizes, |C| f(C): a table's dot products
    with them are |W_n| times the inner products with f."""
    return list(map(mul, _classes(n).sizes, values))


def _plain_dots(rows, values):
    return [sum(map(mul, row, values)) for row in rows]


def _packed_dots(matrix, values):
    """[row . values for row in matrix.rows] read off the packed columns,
    as orthogonality_defect reads the slots of a vector that fails: the
    width the proof gives, the columns packed at it, and the slots of the
    sum plus the offset."""
    width = hyperoctahedral._slot_width(matrix._norm_bits, max(map(abs, values)))
    columns, offset = matrix.packed(width)
    total = sum(map(mul, columns, values)) + offset
    return hyperoctahedral._read_slots(total, width, len(matrix.rows))


def _inner(n, f, g):
    """The exact inner product (1/|W_n|) sum |C| f(C) g(C) on W_n."""
    total = sum(size * x * y for size, x, y in zip(_classes(n).sizes, f, g))
    return Fraction(total, group_order(n))


def _merge(p, q):
    return Partition(sorted(p + q, reverse=True))


def _pullback(n, a, values):
    """The restriction of a class function on W_n to W_a x W_{n-a}, as
    values in label-pair order: each pair of labels takes the value on the
    class whose positive and negative cycle types merge theirs.  Written
    here, not read off the induction's fusion map, so that the two can
    disagree."""
    position = {label: i for i, label in enumerate(_classes(n).labels)}
    pairs = itertools.product(_classes(a).labels, _classes(n - a).labels)
    return [values[position[SignedCycleType(*map(_merge, l1, l2))]] for l1, l2 in pairs]


@pytest.fixture
def oracle_bound_8(monkeypatch):
    """ORACLE_BOUND raised to 8, with the class cache cleared afterwards to
    drop the classes of ranks 7 and 8 (the restored bound holds for them
    either way)."""
    monkeypatch.setattr(hyperoctahedral, "ORACLE_BOUND", 8)
    yield
    hyperoctahedral._classes.cache_clear()


class TestClasses:
    def test_rank_one(self):
        assert _sizes(1) == {cls((1,), ()): 1, cls((), (1,)): 1}

    def test_rank_two(self):
        sizes = _sizes(2)
        assert len(sizes) == 5
        assert sum(sizes.values()) == 8

    def test_rank_five_total(self):
        assert sum(_classes(5).sizes) == 3840

    def test_class_count_matches_bipartitions(self, oracle_bound_8):
        for n in (*range(6), 7, 8):
            want = {SignedCycleType(bp.alpha, bp.beta) for bp in bipartitions_of(n)}
            assert set(_classes(n).labels) == want

    def test_sizes_against_centralizers(self, oracle_bound_8):
        for n in (*range(5), 7, 8):
            order = group_order(n)
            sizes = _sizes(n)
            for label, size in sizes.items():
                assert size * centralizer_order(label) == order
            assert sum(sizes.values()) == order

    def test_positions_and_centralizers_follow_the_labels(self):
        # _induction_matrix reads both off the rank's record
        for n in range(7):
            classes = _classes(n)
            assert classes.position == {c: i for i, c in enumerate(classes.labels)}
            assert classes.centralizers == tuple(map(centralizer_order, classes.labels))
            assert classes.identity == classes.position[cls([1] * n, [])]

    def test_oracle_bound(self):
        with pytest.raises(RankBoundError):
            _classes(7)

    def test_negative_rank(self):
        with pytest.raises(ValueError, match="^rank must be nonnegative$"):
            _classes(-1)

    def test_lowered_bound_holds_for_cached_ranks(self, monkeypatch):
        # entries cached at rank 7 under a raised bound must not outlive it
        monkeypatch.setattr(hyperoctahedral, "ORACLE_BOUND", 7)
        hyperoctahedral._tensor_label_map(7, "trivial")
        _linear_values(7, "sign_changes")
        hyperoctahedral._induced(6, 1, (1, 1))
        verify._oracle_omega(7, 0, True, "coxeter_sign")
        monkeypatch.setattr(hyperoctahedral, "ORACLE_BOUND", 6)
        hyperoctahedral._classes.cache_clear()
        calls = [
            lambda: hyperoctahedral._tensor_label_map(7, "trivial"),
            lambda: build_character_table(7),
            lambda: _classes(7),
            lambda: _linear_values(7, "sign_changes"),
            lambda: hyperoctahedral._induction_matrix(6, 1),
            lambda: hyperoctahedral._induced(6, 1, (1, 1)),
            lambda: verify.check_induction(7),
            lambda: verify.check_omega(7),
        ]
        for call in calls:
            with pytest.raises(RankBoundError, match="^rank 7 exceeds the oracle bound 6;"):
                call()

    def test_signed_cycle_type_involutions(self):
        # the diagonal sign change (-1, -2) splits into two negative 1-cycles
        assert reference_oracle.signed_cycle_type((-1, -2)) == cls((), (1, 1))
        # the signed transposition has one negative 2-cycle
        assert reference_oracle.signed_cycle_type((-2, 1)) == cls((), (2,))
        assert reference_oracle.signed_cycle_type((2, 1)) == cls((2,), ())

    def test_per_permutation_enumeration_matches_windows(self):
        # the classes come from the bipartitions with analytic sizes;
        # counting the signed cycle types of all elements, window by window,
        # must give the same class sizes
        for n in range(6):
            windows = reference_oracle.signed_permutations(n)
            assert _sizes(n) == Counter(map(reference_oracle.signed_cycle_type, windows))

    def test_enumeration_count(self):
        assert sum(1 for _ in reference_oracle.signed_permutations(3)) == 48

    def test_identity_class(self):
        classes = _classes(3)
        assert classes.labels[classes.identity] == cls((1, 1, 1), ())


class TestCharacterTable:
    def test_rank_zero(self):
        table = build_character_table(0)
        assert table.labels == (bipartition((), ()),)
        assert table.rows == ((1,),)

    def test_rank_one_matrix(self):
        table = build_character_table(1)
        assert _classes(1).labels == (cls((1,), ()), cls((), (1,)))
        assert table.labels == (bipartition((1,), ()), bipartition((), (1,)))
        assert table.rows == ((1, 1), (1, -1))

    def test_rank_two_degrees(self):
        table = build_character_table(2)
        assert [_degree(2, row) for row in table.rows] == [1, 1, 2, 1, 1]

    def test_values_are_integers(self):
        for n in range(5):
            for row in build_character_table(n).rows:
                assert all(type(v) is int for v in row)

    def test_orthonormality(self):
        for n in range(5):
            rows = build_character_table(n).rows
            for i, f in enumerate(rows):
                for j, g in enumerate(rows):
                    assert _inner(n, f, g) == (1 if i == j else 0)

    def test_degree_sum_of_squares(self):
        for n in range(6):
            rows = build_character_table(n).rows
            assert sum(_degree(n, row) ** 2 for row in rows) == group_order(n)

    def test_rows_follow_the_class_record(self):
        # one row per label, one value per class of _classes(n), and the
        # one packed view holds the rows themselves
        assert [f.name for f in dataclasses.fields(CharacterTable)] == ["rank", "labels", "rows"]
        for n in range(6):
            table, classes = build_character_table(n), _classes(n)
            assert table.rank == n and table.labels == tuple(bipartitions_of(n))
            assert len(table.rows) == len(table.labels) == len(classes.labels)
            assert all(type(row) is tuple and len(row) == len(classes.labels) for row in table.rows)
            assert table._columns.rows is table.rows

    def test_bipartition_index_is_the_row_order(self):
        # verify._oracle_omega finds an induced family's entry by
        # _bipartition_index, not labels.index
        for n in range(7):
            labels = build_character_table(n).labels
            assert _bipartition_index(n) == {bp: i for i, bp in enumerate(labels)}


class TestClassFunctions:
    def test_requires_full_support(self):
        # a value list short of or past the classes of W_a x W_b would be
        # cut by the fusion loop's zip; it is refused instead
        count = len(_classes(1).labels) ** 2
        for values in ([1] * (count - 1), [1] * (count + 1), []):
            message = f"^W_1 x W_1 has {count} classes, got {len(values)} values$"
            with pytest.raises(ValueError, match=message):
                _induce_values(1, 1, values)

    def test_induced_requires_full_support(self):
        # the second factor on W_1, one value short of or past its classes;
        # zip would cut it
        for second in ((1,), (1, 1, 1)):
            message = f"^W_1 has 2 classes, got {len(second)} values$"
            with pytest.raises(ValueError, match=message):
                hyperoctahedral._induced(2, 1, second)

    def test_induced_rejects_non_virtual(self, monkeypatch):
        # a wrong class size of W_1 under the reciprocity sum: Ind from
        # W_0 x W_1 of the trivial character, weighted (2, 1) instead of
        # (1, 1), has <f, chi> = 3/2 against the trivial character of W_1
        build_character_table(1)  # built and certified with the real sizes
        real = hyperoctahedral._classes
        wrong = real(1)._replace(sizes=(2, 1))
        monkeypatch.setattr(hyperoctahedral, "_classes", lambda n: wrong if n == 1 else real(n))
        message = r"^not a virtual character: <f, chi_Bipartition\(alpha=\(1,\), beta=\(\)\)> = 3/2$"
        with pytest.raises(ValueError, match=message):
            hyperoctahedral._induced.__wrapped__(0, 1, (1, 1))


class TestInduction:
    def test_identity_induction(self):
        triv = _row(1, bipartition((1,), ()))
        induced = _induce_values(0, 1, _outer(_row(0, bipartition((), ())), triv))
        assert induced == list(triv)

    def test_trivial_from_w1_squared(self):
        triv = _row(1, bipartition((1,), ()))
        induced = _induce_values(1, 1, _outer(triv, triv))
        assert _degree(2, induced) == 2
        mults = _decompose(2, induced)
        assert mults and all(m == 1 for m in mults.values())

    def test_induced_degree_is_index_times_degree(self):
        for a, b in ((1, 2), (2, 2), (0, 3)):
            fa = build_character_table(a).rows[-1]
            fb = build_character_table(b).rows[0]
            induced = _induce_values(a, b, _outer(fa, fb))
            index = group_order(a + b) // (group_order(a) * group_order(b))
            assert _degree(a + b, induced) == index * _degree(a, fa) * _degree(b, fb)

    def test_frobenius_reciprocity(self):
        # <Ind f, chi> on W_n against <f, Res chi> on W_a x W_b, with the
        # restriction pulled back through the merged cycle types
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 5)
            a = rng.randint(0, n)
            b = n - a
            f = _outer(
                rng.choice(build_character_table(a).rows),
                rng.choice(build_character_table(b).rows),
            )
            chi = rng.choice(build_character_table(n).rows)
            lhs = _inner(n, _induce_values(a, b, f), chi)
            sizes = _outer(_classes(a).sizes, _classes(b).sizes)
            total = sum(map(lambda s, x, y: s * x * y, sizes, f, _pullback(n, a, chi)))
            assert lhs == Fraction(total, group_order(a) * group_order(b))

    def test_fractional_values_stay_fractions(self):
        # a third of a character of W_1 x W_1: the class sum quotients are
        # 2/3, -2/3 and 0 on W_2, so the nonzero values stay Fractions
        sign = _row(1, bipartition((), (1,)))
        whole = _induce_values(1, 1, _outer(sign, sign))
        third = _induce_values(1, 1, _outer(_scaled(sign, Fraction(1, 3)), sign))
        assert third == [Fraction(v, 3) for v in whole]
        for v in third:
            assert isinstance(v, Fraction) if v else isinstance(v, int)
        assert _degree(2, third) == Fraction(2, 3)

    def test_induction_past_the_bound_builds_no_matrix(self):
        hyperoctahedral._induction_matrix.cache_clear()
        values = [1] * (len(_classes(4).labels) * len(_classes(3).labels))
        with pytest.raises(RankBoundError):
            _induce_values(4, 3, values)
        assert hyperoctahedral._induction_matrix.cache_info().currsize == 0

    def test_restriction_norm(self):
        # the induction's fusion map, read as a gather, is the pullback
        # through the merged cycle types
        chi = _row(3, bipartition((2,), (1,)))
        identity = _classes(2).identity * len(_classes(1).labels) + _classes(1).identity
        assert _pullback(3, 2, chi)[identity] == _degree(3, chi)
        for n in range(6):
            for chi in build_character_table(n).rows:
                for a in range(n + 1):
                    fusion, _ = hyperoctahedral._induction_matrix(a, n - a)
                    assert [chi[c] for c, _ in fusion] == _pullback(n, a, chi)


wide = st.integers(-(10**30), 10**30)
value_kinds = (wide, wide | st.builds(Fraction, wide, st.integers(1, 12)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_induction_matches_the_fusion_loop(data):
    # wide integers and fractions against the label-keyed class sum formula;
    # a value must be an int or a Fraction exactly where the reference's is
    a = data.draw(st.integers(0, 5), label="a")
    b = data.draw(st.integers(0, 5 - a), label="b")
    pairs = list(
        itertools.product(reference_oracle.classes(a), reference_oracle.classes(b))
    )
    value = data.draw(st.sampled_from(value_kinds), label="value kind")
    values = data.draw(
        st.lists(value, min_size=len(pairs), max_size=len(pairs)), label="values"
    )
    f = {(l1, l2): v for ((l1, _), (l2, _)), v in zip(pairs, values)}
    got = list(zip(_classes(a + b).labels, _induce_values(a, b, values)))
    want = list(reference_oracle.induce_values(f, a, b).items())
    assert got == want
    assert [type(v) for _, v in got] == [type(v) for _, v in want]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_induced_characters_decompose_as_the_label_keyed_reference(data):
    # Ind(chi_alpha x chi_beta lambda) from W_a x W_b for each linear
    # character lambda of W_b, induced, and decomposed by the reciprocity
    # sum with chi_beta lambda as the second factor, against the
    # label-keyed loops; a fraction of it keeps its non-integral values
    # as Fractions
    a = data.draw(st.integers(0, 5), label="a")
    b = data.draw(st.integers(0, 5 - a), label="b")
    alpha = data.draw(st.sampled_from(bipartitions_of(a)), label="alpha")
    beta = data.draw(st.sampled_from(bipartitions_of(b)), label="beta")
    d = data.draw(st.integers(2, 12), label="d")
    chi_a = reference_oracle.character_table(a)[alpha]
    chi_b = reference_oracle.character_table(b)[beta]
    for which in LINEAR_CHARACTERS:
        linear = reference_oracle.linear_values(b, which)
        f = reference_oracle.tensor_values(chi_a, {c: v * linear[c] for c, v in chi_b.items()})
        want = reference_oracle.induce_values(f, a, b)
        twisted = list(map(mul, _row(b, beta), _linear_values(b, which)))
        values = _outer(_row(a, alpha), twisted)
        got = _induce_values(a, b, values)
        assert got == list(want.values())
        family = hyperoctahedral._induced.__wrapped__(a, b, tuple(twisted))
        mults, degree = family[bipartitions_of(a).index(alpha)]
        assert mults == reference_oracle.decompose_values(want, a + b)
        assert degree == _degree(a + b, got)
        fraction = {c: Fraction(v, d) for c, v in f.items()}
        got = _induce_values(a, b, [Fraction(v, d) for v in values])
        want = list(reference_oracle.induce_values(fraction, a, b).values())
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
        assert all(isinstance(v, Fraction) == (Fraction(v).denominator > 1) for v in got)


def test_reciprocity_matches_induce_then_decompose():
    # every family of packed reciprocity sums against induction over the
    # class-fusion map followed by the label-keyed reference decomposition
    # on W_{l+s}: the same finite sum, reordered; every chi, l + s <= 6,
    # every linear character of W_s
    compared = 0
    for l in range(7):
        for s, which in itertools.product(range(7 - l), LINEAR_CHARACTERS):
            linear = _linear_values(s, which)
            family = hyperoctahedral._induced(l, s, linear)
            for row, got in zip(build_character_table(l).rows, family, strict=True):
                induced = _induce_values(l, s, _outer(row, linear))
                assert got == (_decompose(l + s, induced), _degree(l + s, induced))
                compared += 1
    assert compared == 1124


def _reference_family(l, s, second):
    """Ind from W_l x W_s of chi x f for every chi in Irr(W_l), f the class
    function on W_s with values ``second``, by the label-keyed reference:
    per chi its multiplicities (``reference_oracle.decompose_values``) and
    degree, or, at the first chi with a non-integral multiplicity, the
    message that names the first label with one."""
    f = {label: v for (label, _), v in zip(reference_oracle.classes(s), second)}
    n, family = l + s, []
    for chi in reference_oracle.character_table(l).values():
        induced = reference_oracle.induce_values(reference_oracle.tensor_values(chi, f), l, s)
        try:
            mults = reference_oracle.decompose_values(induced, n)
        except ValueError:
            classes = reference_oracle.classes(n)
            for bp, psi in reference_oracle.character_table(n).items():
                total = sum(size * psi[c] * induced[c] for c, size in classes)
                if total % group_order(n):
                    return f"not a virtual character: <f, chi_{bp}> = {Fraction(total, group_order(n))}"
            raise
        family.append((mults, induced[reference_oracle.identity(n)]))
    return tuple(family)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_induced_families_match_the_reference_for_integer_class_functions(data):
    # the second factor an integer class function on W_s: a virtual
    # character (an integer combination of irreducibles, so multiplicities
    # may be negative) or any integer values (so they may be non-integral);
    # a negative multiplicity takes the signed read, a non-integral one
    # raises on either read
    l = data.draw(st.integers(0, 5), label="l")
    s = data.draw(st.integers(0, 5 - l), label="s")
    count = len(_classes(s).labels)
    if data.draw(st.booleans(), label="virtual"):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=count, max_size=count))
        second = tuple(_combination(build_character_table(s), coeffs))
    else:
        second = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count)))
    want = _reference_family(l, s, second)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            hyperoctahedral._induced.__wrapped__(l, s, second)
    else:
        assert hyperoctahedral._induced.__wrapped__(l, s, second) == want


class TestFamilyRead:
    # the nonzero digits of a reciprocity sum are read only when every slot
    # is its digit (the sum is >= 0 and no slot's top bit is set); any other
    # sum goes through the signed read, _read_slots

    @pytest.fixture
    def signed_reads(self, monkeypatch):
        calls = []
        real = hyperoctahedral._read_slots

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hyperoctahedral, "_read_slots", spy)
        return calls

    def test_characters_read_only_nonzero_digits(self, signed_reads):
        for which in LINEAR_CHARACTERS:
            hyperoctahedral._induced.__wrapped__(3, 2, _linear_values(2, which))
        assert signed_reads == []

    def test_a_negative_multiplicity_takes_the_signed_read(self, signed_reads):
        # 1 - sign_changes on W_1: Ind(chi x 1) - Ind(chi x sign_changes)
        family = hyperoctahedral._induced.__wrapped__(1, 1, (0, 2))
        assert signed_reads
        assert family == (
            ({bipartition((2,), ()): 1, bipartition((1, 1), ()): 1, bipartition((1,), (1,)): -1}, 0),
            ({bipartition((1,), (1,)): 1, bipartition((), (2,)): -1, bipartition((), (1, 1)): -1}, 0),
        )
        assert family == _reference_family(1, 1, (0, 2))

    @pytest.mark.parametrize(
        "second, signed, value",
        [((-2, 2, -1, 1, 2), False, "1/2"), ((-2, -2, -2, 1, 0), True, "-1/2")],
    )
    def test_a_non_integral_multiplicity_names_its_label(self, signed_reads, second, signed, value):
        # integral against chi_((2), ()), not against chi_((1, 1), ()), the
        # second label: the message names it on either read
        message = f"not a virtual character: <f, chi_Bipartition(alpha=(1, 1), beta=())> = {value}"
        assert _reference_family(0, 2, second) == message
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hyperoctahedral._induced.__wrapped__(0, 2, second)
        assert bool(signed_reads) == signed


class TestDecompose:
    # a table's packed dot products with the size-weighted values of a class
    # function are |W_n| times its multiplicities: against plain sums and
    # against the multiplicities known in advance
    def _dots(self, n, values):
        table = build_character_table(n)
        got = _packed_dots(table._columns, _weighted(n, values))
        assert got == _plain_dots(table.rows, _weighted(n, values))
        return got

    def test_irreducible(self):
        table = build_character_table(2)
        for t, row in enumerate(table.rows):
            want = [group_order(2) if i == t else 0 for i in range(len(table.rows))]
            assert self._dots(2, row) == want

    def test_regular_character(self):
        table = build_character_table(2)
        values = [0] * len(_classes(2).labels)
        values[_classes(2).identity] = group_order(2)
        assert self._dots(2, values) == [group_order(2) * _degree(2, row) for row in table.rows]

    def test_zero_function(self):
        assert self._dots(2, [0] * len(_classes(2).labels)) == [0] * len(_classes(2).labels)

    def test_reconstruction(self):
        table = build_character_table(3)
        f = _induce_values(
            2, 1, _outer(_row(2, bipartition((1,), (1,))), _row(1, bipartition((), (1,))))
        )
        mults = [total // group_order(3) for total in self._dots(3, f)]
        assert _combination(table, mults) == f
        assert {bp: m for bp, m in zip(table.labels, mults) if m} == _decompose(3, f)


# (width, bit length of the largest row L1 norm, bit length of max|v_i|):
# each proof bound norm + value + 1 is the largest one rounded up to the
# width, so the results reach the largest magnitude the proof admits
WIDTH_CLASSES = [(8, 3, 4), (16, 7, 8), (32, 15, 16), (64, 31, 32), (128, 63, 64)]


class TestPackedDots:
    @pytest.mark.parametrize("width, norm_bits, value_bits", WIDTH_CLASSES)
    def test_every_width_class_matches_the_plain_dot(self, width, norm_bits, value_bits):
        rng = random.Random(width)
        norm, top = 2**norm_bits - 1, 2**value_bits - 1
        # the largest positive and negative results, zero twice, then rows
        # of random entries with L1 norm at most ``norm``
        rows = [[norm, 0, 0, 0], [0, 0, -norm, 0], [0, 0, 0, 0], [1, -1, 0, 0]]
        for _ in range(6):
            cut = sorted(rng.randint(0, norm) for _ in range(3))
            parts = [cut[0], cut[1] - cut[0], cut[2] - cut[1], norm - cut[2]]
            rows.append([rng.choice((1, -1)) * p for p in parts])
        matrix = hyperoctahedral._IntMatrix(rows)
        vectors = [[top, top, top, -top], [-top, -top, -top, top]]
        vectors += [[rng.randint(-top, top) for _ in range(4)] for _ in range(4)]
        for v in vectors:
            want = [sum(x * y for x, y in zip(row, v)) for row in rows]
            assert _packed_dots(matrix, v) == want
        assert set(matrix._packed) == {width}
        assert _packed_dots(matrix, vectors[0])[:4] == [norm * top, -norm * top, 0, 0]

    def test_small_bounds_use_eight_bit_slots(self):
        matrix = hyperoctahedral._IntMatrix([[1, 0], [0, -1]])
        assert _packed_dots(matrix, [1, 1]) == [1, -1]
        assert set(matrix._packed) == {8}

    @pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
    def test_slots_read_back_at_their_extremes(self, width):
        half = 2 ** (width - 1)
        slots = [half - 1, -(half - 1), 0, -half, -1, 1, half - 1]
        total = sum((d + half) << (width * b) for b, d in enumerate(slots))
        assert hyperoctahedral._read_slots(total, width, len(slots)) == slots

    def test_a_diagonal_outside_the_slots_is_not_matched_by_a_carry(self):
        # 8-bit slots: vector 0 packs to 5 + 1 * 2^8 = 261, the packing of a
        # diagonal entry 261 that no slot can hold, so only the slot scan
        # sees that row 0 . vector 0 is 5
        matrix = hyperoctahedral._IntMatrix([[1, 0], [0, 1]])
        assert matrix.orthogonality_defect([[5, 1], [0, 1]], [261, 1]) == (0, 0)
        assert set(matrix._packed) == {8}

    @pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
    def test_packing_is_exact(self, width):
        # the extreme entries the proof admits at this width, zeros, and an
        # all-zero column: each packed column is the signed sum of its
        # entries at bit width * b, and the offset puts 2^(width - 1) in
        # every slot
        top = 2 ** (width - 1) - 1
        rows = [[top, -top, 0, 0], [-top, 0, top, 0], [0, top, -top, 0], [1, -1, top, 0]]
        columns, offset = hyperoctahedral._IntMatrix(rows)._pack(width)
        want = [sum(row[c] << (width * b) for b, row in enumerate(rows)) for c in range(4)]
        assert columns == want
        assert offset == sum(2 ** (width - 1) << (width * b) for b in range(len(rows)))


coefficient = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decompose_recovers_integer_combinations(data):
    # large coefficients widen the packed slots past 64 bits: the table's
    # packed dots with the size-weighted combination are |W_n| times the
    # coefficients, as plain sums give them; with each weighted row scaled
    # by its coefficient, orthogonality_defect names the first coefficient
    # that is not 1, as the plain loop does
    n = data.draw(st.integers(0, 5), label="n")
    table = build_character_table(n)
    coeffs = data.draw(
        st.lists(coefficient, min_size=len(table.labels), max_size=len(table.labels)),
        label="coefficients",
    )
    weighted = _weighted(n, _combination(table, coeffs))
    got = _packed_dots(table._columns, weighted)
    assert got == _plain_dots(table.rows, weighted)
    assert got == [group_order(n) * c for c in coeffs]
    scaled = [_scaled(row, c) for row, c in zip(table.rows, coeffs)]
    diagonal = [group_order(n)] * len(coeffs)
    want = _first_orthonormality_failure(n, table.rows, scaled)
    vectors = [_weighted(n, vector) for vector in scaled]
    assert table._columns.orthogonality_defect(vectors, diagonal) == want
    assert want == next(((i, i) for i, c in enumerate(coeffs) if c != 1), None)


def _planted_gram_cases():
    """(n, hits, scale) per rank n <= 5: each hit (i, j) adds scale times
    row i to vector j, which moves the weighted dot of row i with vector j
    by scale |W_n| and leaves every other slot alone."""
    for n in range(6):
        k = len(bipartitions_of(n))
        cases = {"first slot": [(0, k - 1)], "last slot": [(k - 1, k - 1)]}
        if k > 1:
            cases.update({"upper": [(k // 3, 2 * k // 3)], "lower only": [(k - 1, 0)]})
        if k > 2:
            # vector 1 fails first, but (0, k - 1) comes first in order
            cases["two vectors"] = [(1, 1), (0, k - 1)]
        for case, hits in cases.items():
            yield pytest.param(n, hits, 1, id=f"{n}-{case}")
    yield pytest.param(5, [(3, 20)], 2**90, id="5-upper-128-bit slots")


@pytest.mark.parametrize("n, hits, scale", _planted_gram_cases())
def test_planted_gram_faults_match_the_plain_loop(n, hits, scale):
    # the size-weighted rows pass by one comparison per vector; a planted
    # fault must send its vector to the slot scan, and the pair returned
    # must be the plain loop's, None when every fault lies below the
    # diagonal
    rows = build_character_table(n).rows
    vectors = [list(row) for row in rows]
    for i, j in hits:
        vectors[j] = [v + scale * x for v, x in zip(vectors[j], rows[i])]
    matrix = hyperoctahedral._IntMatrix(rows)
    weighted = [_weighted(n, vector) for vector in vectors]
    got = matrix.orthogonality_defect(weighted, [group_order(n)] * len(rows))
    assert got == _first_orthonormality_failure(n, rows, vectors)
    assert got == min(((i, j) for i, j in hits if i <= j), default=None)
    assert len(matrix._packed) == 1  # one width serves the call
    if scale > 1:
        assert set(matrix._packed) == {128}


@pytest.fixture
def fresh_tables():
    build_character_table.cache_clear()
    yield
    build_character_table.cache_clear()


def _first_orthonormality_failure(n, rows, vectors=None):
    """The plain-loop reference: the first pair (i, j), i <= j, in
    lexicographic order whose weighted dot product of rows[i] with
    vectors[j] (by default rows[j]) is wrong."""
    sizes, vectors = _classes(n).sizes, rows if vectors is None else vectors
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            total = sum(s * x * y for s, x, y in zip(sizes, rows[i], vectors[j]))
            if total != (group_order(n) if i == j else 0):
                return i, j
    return None


# (rank, {irreducible: (C1, C2)}): irreducible t gains |C2| e_C1 - |C1| e_C2,
# orthogonal to the trivial character.  Two rows are hit, chosen so that
# the first failing pair in row order differs from the first in column order.
@pytest.mark.parametrize(
    "n, hits",
    [
        (2, {2: (0, 3), 4: (4, 0)}),
        (3, {8: (3, 8), 9: (6, 7)}),
        (4, {16: (1, 12), 19: (6, 11)}),
        (5, {13: (17, 6), 27: (24, 35)}),
    ],
)
def test_corrupted_table_fails_orthonormality(fresh_tables, monkeypatch, n, hits):
    table = build_character_table(n)
    sizes = _classes(n).sizes
    deltas = {t: {c1: sizes[c2], c2: -sizes[c1]} for t, (c1, c2) in hits.items()}
    rows = [list(row) for row in table.rows]
    for t, delta in deltas.items():
        rows[t] = [v + delta.get(c, 0) for c, v in enumerate(rows[t])]
    i, j = _first_orthonormality_failure(n, rows)
    build_character_table.cache_clear()

    induce = hyperoctahedral._induce_values
    calls = itertools.count()

    def corrupted(a, b, values):
        row = induce(a, b, values)
        delta = deltas.get(next(calls), {}) if a + b == n else {}
        return [v + delta.get(c, 0) for c, v in enumerate(row)]

    monkeypatch.setattr(hyperoctahedral, "_induce_values", corrupted)
    message = f"W_{n}: orthonormality fails at ({table.labels[i]}, {table.labels[j]})"
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        build_character_table(n)


class TestLinearCharacters:
    def test_pinned_values(self):
        assert _at(1, _linear_values(1, "coxeter_sign"), cls((), (1,))) == -1
        assert _at(2, _linear_values(2, "sign_changes"), cls((2,), ())) == 1

    def test_product_rule(self):
        for n in range(5):
            linear = _classes(n).linear
            assert set(linear) == set(LINEAR_CHARACTERS)
            assert linear["trivial"] == (1,) * len(_classes(n).labels)
            product = map(mul, linear["sign_changes"], linear["permutation_sign"])
            assert tuple(product) == linear["coxeter_sign"]

    def test_values_from_window_notation(self):
        for n in range(1, 4):
            cx = _linear_values(n, "coxeter_sign")
            sc = _linear_values(n, "sign_changes")
            for window in reference_oracle.signed_permutations(n):
                label = reference_oracle.signed_cycle_type(window)
                negatives = sum(1 for x in window if x < 0)
                assert _at(n, sc, label) == (-1) ** negatives
                # determinant of the signed permutation matrix
                det = (-1) ** negatives
                seen = [abs(x) for x in window]
                visited = [False] * n
                for i in range(n):
                    if visited[i]:
                        continue
                    j, length = i, 0
                    while not visited[j]:
                        visited[j] = True
                        j = seen[j] - 1
                        length += 1
                    det *= (-1) ** (length - 1)
                assert _at(n, cx, label) == det

    def test_unknown_character(self):
        with pytest.raises(ValueError, match="^unknown linear character 'nope'$"):
            _linear_values(2, "nope")


def label_map(n, which):
    """The oracle's permutation of Irr(W_n) under tensoring with ``which``,
    as a label dict."""
    labels = bipartitions_of(n)
    twist = hyperoctahedral._tensor_label_map(n, which)
    return {bp: labels[i] for bp, i in zip(labels, twist)}


class TestTensorLabelMap:
    def test_trivial_is_identity(self):
        for n in range(4):
            assert hyperoctahedral._tensor_label_map(n, "trivial") == tuple(
                range(len(bipartitions_of(n)))
            )

    def test_pinned_rank_two(self):
        assert label_map(2, "sign_changes")[bipartition((2,), ())] == bipartition((), (2,))
        assert label_map(2, "coxeter_sign")[bipartition((2,), ())] == bipartition((), (1, 1))

    def test_involution(self):
        for n in range(4):
            for which in ("sign_changes", "permutation_sign", "coxeter_sign"):
                twist = hyperoctahedral._tensor_label_map(n, which)
                assert all(twist[j] == i for i, j in enumerate(twist))

    def test_closed_forms_certified(self):
        # the omega tables read the sgn twist as this permutation; the
        # oracle decides it at every rank it reaches
        for n in range(hyperoctahedral.ORACLE_BOUND + 1):
            for convention in SGN_CONVENTIONS:
                assert hyperoctahedral._tensor_label_map(n, convention) == _twist_permutation(
                    n, convention
                ), (n, convention)

    def test_matches_the_label_keyed_reference(self):
        # each label's image is the one irreducible, of multiplicity 1, in
        # the reference decomposition of the pointwise product
        for n in range(7):
            table = reference_oracle.character_table(n)
            for which in LINEAR_CHARACTERS:
                linear = reference_oracle.linear_values(n, which)
                want = {}
                for bp, chi in table.items():
                    product = {c: v * linear[c] for c, v in chi.items()}
                    [(want[bp], mult)] = reference_oracle.decompose_values(product, n).items()
                    assert mult == 1
                assert label_map(n, which) == want

    @pytest.mark.parametrize("n, t", [(2, 0), (3, 4), (4, 10), (5, 20)])
    @pytest.mark.parametrize("which", ["sign_changes", "permutation_sign", "coxeter_sign"])
    def test_a_perturbed_row_fails(self, monkeypatch, n, t, which):
        # row t gains 1 on one class: neither row t nor the row that
        # tensoring maps onto row t then maps onto a row of the table, and
        # the first of the two in row order is named
        table = build_character_table(n)
        rows = [list(row) for row in table.rows]
        rows[t][0] += 1
        perturbed = dataclasses.replace(table, rows=tuple(map(tuple, rows)))
        first = min(t, hyperoctahedral._tensor_label_map(n, which).index(t))
        build = hyperoctahedral.build_character_table
        monkeypatch.setattr(
            hyperoctahedral, "build_character_table", lambda m: perturbed if m == n else build(m)
        )
        message = f"W_{n}: tensoring {table.labels[first]} with {which} gives no row of the table"
        with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
            hyperoctahedral._tensor_label_map.__wrapped__(n, which)

    def test_bounds(self):
        # the rank is checked before the character name
        for which in ("trivial", "bogus"):
            with pytest.raises(RankBoundError, match="^rank 7 exceeds the oracle bound 6;"):
                hyperoctahedral._tensor_label_map(7, which)
        with pytest.raises(ValueError, match="^rank must be nonnegative$"):
            hyperoctahedral._tensor_label_map(-1, "trivial")
        with pytest.raises(ValueError, match="^unknown linear character 'bogus'$"):
            hyperoctahedral._tensor_label_map(2, "bogus")
