import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import reference_oracle

from howecorr import hyperoctahedral, verify
from howecorr.errors import InternalCheckError, RankBoundError
from howecorr.hyperoctahedral import (
    ClassFunction,
    ProductClassFunction,
    SignedCycleType,
    build_character_table,
    centralizer_order,
    conjugacy_classes,
    decompose,
    group_order,
    identity_class,
    induce_class_function,
    linear_character,
    restrict_class_function,
    signed_cycle_type,
    signed_permutations,
    tensor_label_map,
)
from howecorr.partitions import Partition, bipartition, bipartitions_of
from howecorr.unipotent import sgn_twist


def cls(pos, neg):
    return SignedCycleType(Partition(pos), Partition(neg))


# Class-function arithmetic for the tests, over the ``.values`` dicts.


def _tensor(f, g):
    """The outer tensor product of two class functions, on W_a x W_b."""
    values = {
        (c1, c2): v1 * v2 for c1, v1 in f.values.items() for c2, v2 in g.values.items()
    }
    return ProductClassFunction((f.rank, g.rank), values)


def _scaled(f, c):
    return ClassFunction(f.rank, {label: c * v for label, v in f.values.items()})


def _combination(table, coeffs):
    """The class function sum of c chi_bp over the table's labels bp."""
    values = dict.fromkeys(table.class_labels(), 0)
    for bp, c in zip(table.labels, coeffs):
        for label, v in table.character(bp).values.items():
            values[label] += c * v
    return ClassFunction(table.rank, values)


def _inner(f, g):
    """The exact inner product (1/|W_n|) sum |C| f(C) g(C) on W_n."""
    sizes = conjugacy_classes(f.rank)
    total = sum(size * f.at(c) * g.at(c) for c, size in sizes.items())
    return Fraction(total, group_order(f.rank))


def _product_inner(f, g):
    """The exact inner product of two class functions on W_a x W_b."""
    a, b = f.ranks
    pairs = itertools.product(conjugacy_classes(a).items(), conjugacy_classes(b).items())
    total = sum(s1 * s2 * f.at((l1, l2)) * g.at((l1, l2)) for (l1, s1), (l2, s2) in pairs)
    return Fraction(total, group_order(a) * group_order(b))


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
        assert conjugacy_classes(1) == {cls((1,), ()): 1, cls((), (1,)): 1}

    def test_rank_two(self):
        sizes = conjugacy_classes(2)
        assert len(sizes) == 5
        assert sum(sizes.values()) == 8

    def test_rank_five_total(self):
        assert sum(conjugacy_classes(5).values()) == 3840

    def test_class_count_matches_bipartitions(self, oracle_bound_8):
        for n in (*range(6), 7, 8):
            labels = set(conjugacy_classes(n))
            want = {
                SignedCycleType(bp.alpha, bp.beta) for bp in bipartitions_of(n)
            }
            assert labels == want

    def test_sizes_against_centralizers(self, oracle_bound_8):
        for n in (*range(5), 7, 8):
            order = group_order(n)
            sizes = conjugacy_classes(n)
            for label, size in sizes.items():
                assert size * centralizer_order(label) == order
            assert sum(sizes.values()) == order

    def test_oracle_bound(self):
        with pytest.raises(RankBoundError):
            conjugacy_classes(7)
        # the support check reads the classes, so it hits the bound too
        with pytest.raises(RankBoundError):
            ClassFunction(7, {})

    def test_negative_rank(self):
        with pytest.raises(ValueError, match="^rank must be nonnegative$"):
            conjugacy_classes(-1)

    def test_lowered_bound_holds_for_cached_ranks(self, monkeypatch):
        # entries cached at rank 7 under a raised bound must not outlive it
        monkeypatch.setattr(hyperoctahedral, "ORACLE_BOUND", 7)
        tensor_label_map(7, "trivial")
        linear_character(7, "sign_changes")
        chi = bipartition((3,), (2, 1))
        verify._induced(chi, 1, hyperoctahedral._linear_values(1, "trivial"))
        verify._oracle_omega(7, 0, True, "coxeter_sign")
        monkeypatch.setattr(hyperoctahedral, "ORACLE_BOUND", 6)
        hyperoctahedral._classes.cache_clear()
        calls = [
            lambda: tensor_label_map(7, "trivial"),
            lambda: build_character_table(7),
            lambda: linear_character(7, "sign_changes"),
            lambda: ClassFunction(7, {}),
            lambda: identity_class(7),
            lambda: conjugacy_classes(7),
            lambda: hyperoctahedral._linear_values(7, "sign_changes"),
            lambda: hyperoctahedral._pair_labels(0, 7),
            lambda: hyperoctahedral._induction_matrix(6, 1),
            lambda: verify.check_induction(7),
            lambda: verify.check_omega(7),
        ]
        for call in calls:
            with pytest.raises(RankBoundError, match="^rank 7 exceeds the oracle bound 6;"):
                call()

    def test_signed_cycle_type_involutions(self):
        # the diagonal sign change (-1, -2) splits into two negative 1-cycles
        assert signed_cycle_type((-1, -2)) == cls((), (1, 1))
        # the signed transposition has one negative 2-cycle
        assert signed_cycle_type((-2, 1)) == cls((), (2,))
        assert signed_cycle_type((2, 1)) == cls((2,), ())

    def test_per_permutation_enumeration_matches_windows(self):
        # the classes come from the bipartitions with analytic sizes;
        # counting the signed cycle types of all elements, window by window,
        # must give the same class sizes
        for n in range(6):
            windows = Counter(signed_cycle_type(w) for w in signed_permutations(n))
            assert conjugacy_classes(n) == windows

    def test_enumeration_count(self):
        assert sum(1 for _ in signed_permutations(3)) == 48

    def test_identity_class(self):
        assert identity_class(3) == cls((1, 1, 1), ())


class TestCharacterTable:
    def test_rank_zero(self):
        table = build_character_table(0)
        assert table.labels == (bipartition((), ()),)
        assert table.degree(bipartition((), ())) == 1

    def test_rank_one_matrix(self):
        table = build_character_table(1)
        order = [cls((1,), ()), cls((), (1,))]
        triv, sign = bipartition((1,), ()), bipartition((), (1,))
        assert [table.character(triv).at(c) for c in order] == [1, 1]
        assert [table.character(sign).at(c) for c in order] == [1, -1]

    def test_rank_two_degrees(self):
        table = build_character_table(2)
        assert [table.degree(bp) for bp in table.labels] == [1, 1, 2, 1, 1]

    def test_values_are_integers(self):
        for n in range(5):
            table = build_character_table(n)
            for bp in table.labels:
                for c in table.class_labels():
                    assert isinstance(table.character(bp).at(c), int)

    def test_orthonormality(self):
        for n in range(5):
            table = build_character_table(n)
            chars = [table.character(bp) for bp in table.labels]
            for i, f in enumerate(chars):
                for j, g in enumerate(chars):
                    assert _inner(f, g) == (1 if i == j else 0)

    def test_degree_sum_of_squares(self):
        for n in range(6):
            table = build_character_table(n)
            assert sum(table.degree(bp) ** 2 for bp in table.labels) == group_order(n)

    def test_json_export(self):
        d = build_character_table(2).to_json_dict()
        assert set(d) >= {
            "rank",
            "class_labels",
            "class_sizes",
            "irreducible_labels",
            "values",
        }
        assert len(d["values"]) == 5 and all(len(row) == 5 for row in d["values"])


class TestClassFunctions:
    def test_requires_full_support(self):
        with pytest.raises(ValueError):
            ClassFunction(1, {cls((1,), ()): 1})


class TestInduction:
    def test_identity_induction(self):
        t0, t1 = build_character_table(0), build_character_table(1)
        f = _tensor(t0.character(bipartition((), ())), t1.character(bipartition((1,), ())))
        induced = induce_class_function(f)
        triv = t1.character(bipartition((1,), ()))
        assert induced.values == triv.values

    def test_trivial_from_w1_squared(self):
        t1 = build_character_table(1)
        triv = t1.character(bipartition((1,), ()))
        induced = induce_class_function(_tensor(triv, triv))
        assert induced.degree() == 2
        mults = decompose(induced)
        assert mults and all(m == 1 for m in mults.values())

    def test_induced_degree_is_index_times_degree(self):
        for a, b in ((1, 2), (2, 2), (0, 3)):
            ta, tb = build_character_table(a), build_character_table(b)
            fa = ta.character(bipartitions_of(a)[-1])
            fb = tb.character(bipartitions_of(b)[0])
            induced = induce_class_function(_tensor(fa, fb))
            index = group_order(a + b) // (group_order(a) * group_order(b))
            assert induced.degree() == index * fa.degree() * fb.degree()

    def test_frobenius_reciprocity(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 5)
            a = rng.randint(0, n)
            b = n - a
            ta, tb, tn = (build_character_table(x) for x in (a, b, n))
            f = _tensor(
                ta.character(rng.choice(bipartitions_of(a))),
                tb.character(rng.choice(bipartitions_of(b))),
            )
            chi = tn.character(rng.choice(bipartitions_of(n)))
            lhs = _inner(induce_class_function(f), chi)
            rhs = _product_inner(f, restrict_class_function(chi, a, b))
            assert lhs == rhs

    def test_fractional_values_stay_fractions(self):
        # a third of a character of W_1 x W_1: the class sum quotients are
        # 2/3, -2/3 and 0 on W_2, so the nonzero values stay Fractions
        sign = build_character_table(1).character(bipartition((), (1,)))
        whole = induce_class_function(_tensor(sign, sign))
        third = induce_class_function(_tensor(_scaled(sign, Fraction(1, 3)), sign))
        assert third.values == {c: Fraction(v, 3) for c, v in whole.values.items()}
        for v in third.values.values():
            assert isinstance(v, Fraction) if v else isinstance(v, int)
        assert third.degree() == Fraction(2, 3)

    def test_induction_past_the_bound_builds_no_matrix(self):
        hyperoctahedral._induction_matrix.cache_clear()
        pairs = itertools.product(conjugacy_classes(4), conjugacy_classes(3))
        f = ProductClassFunction((4, 3), {pair: 1 for pair in pairs})
        with pytest.raises(RankBoundError):
            induce_class_function(f)
        assert hyperoctahedral._induction_matrix.cache_info().currsize == 0

    def test_restriction_norm(self):
        chi = build_character_table(3).character(bipartition((2,), (1,)))
        res = restrict_class_function(chi, 2, 1)
        assert res.at((cls((1, 1), ()), cls((1,), ()))) == chi.degree()
        # restriction reads induction's fusion map, so Frobenius reciprocity
        # cannot tell the two apart: compare with the pullback, written here
        # by merging the cycle types of each label pair
        def merge(p, q):
            return Partition(sorted(p + q, reverse=True))

        for n in range(6):
            for chi in build_character_table(n).irreducibles.values():
                for a in range(n + 1):
                    pairs = itertools.product(conjugacy_classes(a), conjugacy_classes(n - a))
                    want = {
                        (l1, l2): chi.at(SignedCycleType(*map(merge, l1, l2)))
                        for l1, l2 in pairs
                    }
                    assert restrict_class_function(chi, a, n - a).values == want


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
    if data.draw(st.booleans(), label="reversed"):
        f = dict(reversed(f.items()))
    got = induce_class_function(ProductClassFunction((a, b), f)).values
    want = reference_oracle.induce_values(f, a, b)
    assert list(got.items()) == list(want.items())
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


class TestDecompose:
    def test_irreducible(self):
        table = build_character_table(2)
        lbl = bipartition((2,), ())
        assert decompose(table.character(lbl)) == {lbl: 1}

    def test_regular_character(self):
        table = build_character_table(2)
        values = {c: 0 for c in table.class_labels()}
        values[identity_class(2)] = group_order(2)
        regular = ClassFunction(2, values)
        mults = decompose(regular)
        assert mults == {bp: table.degree(bp) for bp in table.labels}

    def test_zero_function(self):
        zero = ClassFunction(2, {c: 0 for c in conjugacy_classes(2)})
        assert decompose(zero) == {}

    def test_reconstruction(self):
        table = build_character_table(3)
        f = induce_class_function(
            _tensor(
                build_character_table(2).character(bipartition((1,), (1,))),
                build_character_table(1).character(bipartition((), (1,))),
            )
        )
        mults = decompose(f)
        rebuilt = _combination(table, [mults.get(bp, 0) for bp in table.labels])
        assert rebuilt.values == f.values

    def test_rejects_non_virtual(self):
        half = _scaled(
            build_character_table(2).character(bipartition((2,), ())), Fraction(1, 2)
        )
        # the regular character of W_3 over 3: <f, chi> = deg(chi) / 3
        values = {c: 0 for c in conjugacy_classes(3)}
        values[identity_class(3)] = Fraction(group_order(3), 3)
        for f, ip in ((half, "1/2"), (ClassFunction(3, values), "1/3")):
            with pytest.raises(ValueError, match=f"not a virtual character: .* = {ip}$"):
                decompose(f)


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
            assert matrix.dots(v) == want
        assert set(matrix._packed) == {width}
        assert matrix.dots(vectors[0])[:4] == [norm * top, -norm * top, 0, 0]

    def test_small_bounds_use_eight_bit_slots(self):
        matrix = hyperoctahedral._IntMatrix([[1, 0], [0, -1]])
        assert matrix.dots([1, 1]) == [1, -1]
        assert set(matrix._packed) == {8}

    @pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
    def test_slots_read_back_at_their_extremes(self, width):
        half = 2 ** (width - 1)
        slots = [half - 1, -(half - 1), 0, -half, -1, 1, half - 1]
        total = sum((d + half) << (width * b) for b, d in enumerate(slots))
        assert hyperoctahedral._read_slots(total, width, len(slots)) == slots


coefficient = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decompose_recovers_integer_combinations(data):
    # large coefficients widen the packed slots; dividing by d must name the
    # first row whose multiplicity is not an integer, with its exact value
    n = data.draw(st.integers(0, 5), label="n")
    table = build_character_table(n)
    coeffs = data.draw(
        st.lists(coefficient, min_size=len(table.labels), max_size=len(table.labels)),
        label="coefficients",
    )
    combination = _combination(table, coeffs)
    assert decompose(combination) == {
        bp: c for bp, c in zip(table.labels, coeffs) if c
    }
    d = data.draw(st.integers(2, 10**12), label="d")
    divided = _scaled(combination, Fraction(1, d))
    fractional = [(bp, c) for bp, c in zip(table.labels, coeffs) if c % d]
    if not fractional:
        assert decompose(divided) == {
            bp: c // d for bp, c in zip(table.labels, coeffs) if c
        }
        return
    bp, c = fractional[0]
    message = f"not a virtual character: <f, chi_{bp}> = {Fraction(c, d)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        decompose(divided)


@pytest.fixture
def fresh_tables():
    build_character_table.cache_clear()
    yield
    build_character_table.cache_clear()


def _first_orthonormality_failure(n, rows):
    """The plain-loop reference: the first pair (i, j), i <= j, in
    lexicographic order whose weighted dot product is wrong."""
    sizes = list(conjugacy_classes(n).values())
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            total = sum(s * x * y for s, x, y in zip(sizes, rows[i], rows[j]))
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
    classes = table.class_labels()
    deltas = {
        t: {
            classes[c1]: table.class_sizes[classes[c2]],
            classes[c2]: -table.class_sizes[classes[c1]],
        }
        for t, (c1, c2) in hits.items()
    }
    rows = [[table.character(bp).at(c) for c in classes] for bp in table.labels]
    for t, delta in deltas.items():
        rows[t] = [v + delta.get(c, 0) for v, c in zip(rows[t], classes)]
    i, j = _first_orthonormality_failure(n, rows)
    build_character_table.cache_clear()

    induce = hyperoctahedral._induce_values
    calls = itertools.count()

    def corrupted(a, b, values):
        row = induce(a, b, values)
        delta = deltas.get(next(calls), {}) if a + b == n else {}
        return [v + delta.get(c, 0) for v, c in zip(row, classes)]

    monkeypatch.setattr(hyperoctahedral, "_induce_values", corrupted)
    message = f"W_{n}: orthonormality fails at ({table.labels[i]}, {table.labels[j]})"
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        build_character_table(n)


class TestLinearCharacters:
    def test_pinned_values(self):
        assert linear_character(1, "coxeter_sign").at(cls((), (1,))) == -1
        assert linear_character(2, "sign_changes").at(cls((2,), ())) == 1

    def test_product_rule(self):
        for n in range(5):
            sc = linear_character(n, "sign_changes")
            ps = linear_character(n, "permutation_sign")
            cx = linear_character(n, "coxeter_sign")
            assert {c: v * ps.at(c) for c, v in sc.values.items()} == cx.values

    def test_values_from_window_notation(self):
        for n in range(1, 4):
            cx = linear_character(n, "coxeter_sign")
            sc = linear_character(n, "sign_changes")
            for window in signed_permutations(n):
                label = signed_cycle_type(window)
                negatives = sum(1 for x in window if x < 0)
                assert sc.at(label) == (-1) ** negatives
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
                assert cx.at(label) == det

    def test_unknown_character(self):
        with pytest.raises(ValueError):
            linear_character(2, "nope")


class TestTensorLabelMap:
    def test_trivial_is_identity(self):
        for n in range(4):
            assert tensor_label_map(n, "trivial") == {
                bp: bp for bp in bipartitions_of(n)
            }

    def test_pinned_rank_two(self):
        assert tensor_label_map(2, "sign_changes")[bipartition((2,), ())] == bipartition(
            (), (2,)
        )
        assert tensor_label_map(2, "coxeter_sign")[bipartition((2,), ())] == bipartition(
            (), (1, 1)
        )

    def test_involution(self):
        for n in range(4):
            for which in ("sign_changes", "permutation_sign", "coxeter_sign"):
                m = tensor_label_map(n, which)
                assert all(m[m[bp]] == bp for bp in m)

    def test_closed_forms_certified(self):
        # the combinatorial module relies on these two; the oracle decides
        for n in range(6):
            for bp in bipartitions_of(n):
                assert tensor_label_map(n, "sign_changes")[bp] == sgn_twist(
                    bp, "sign_changes"
                )
                assert tensor_label_map(n, "coxeter_sign")[bp] == sgn_twist(
                    bp, "coxeter_sign"
                )

    def test_bounds(self):
        # the rank is checked before the character name
        for which in ("trivial", "bogus"):
            with pytest.raises(RankBoundError, match="^rank 7 exceeds the oracle bound 6;"):
                tensor_label_map(7, which)
        with pytest.raises(ValueError, match="^rank must be nonnegative$"):
            tensor_label_map(-1, "trivial")
        with pytest.raises(ValueError, match="^unknown linear character 'bogus'$"):
            tensor_label_map(2, "bogus")
