"""The verification suite must agree with itself at small rank."""

import dataclasses

import pytest
import reference_oracle

from howecorr import partitions, unipotent, verify
from howecorr.hyperoctahedral import (
    ClassFunction,
    build_character_table,
    conjugacy_classes,
    group_order,
    identity_class,
)
from howecorr.partitions import bipartitions_of
from howecorr.unipotent import SGN_CONVENTIONS
from howecorr.verify import (
    CheckResult,
    _oracle_omega,
    check_character_tables,
    check_omega,
    check_pinned_table,
    run_verification,
)


def test_suite_passes_at_small_rank():
    results = run_verification(max_rank=2)
    assert len(results) == 11
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)


def test_rank_validation():
    with pytest.raises(ValueError):
        run_verification(max_rank=0)
    with pytest.raises(ValueError):
        run_verification(max_rank=7)


def test_result_lines():
    assert CheckResult("x", True, "ok").line() == "PASS x: ok"
    assert CheckResult("x", False, "bad").line() == "FAIL x: bad"


def test_pinned_table_is_a_check():
    result = check_pinned_table()
    assert result.passed
    assert result.name == "pinned (1,1,0) table"


@pytest.mark.parametrize("convention", SGN_CONVENTIONS)
@pytest.mark.parametrize("first_kind", (True, False))
def test_oracle_omega_matches_the_product_reference(first_kind, convention):
    for r in range(4):
        for r_prime in range(4):
            want, product = reference_oracle.oracle_omega(
                r, r_prime, first_kind, convention
            )
            got, degree = _oracle_omega(r, r_prime, first_kind, convention)
            assert got == want, (r, r_prime)
            assert degree == product.at((identity_class(r), identity_class(r_prime)))


def test_oracle_matches_the_label_keyed_reference():
    # class sizes, table values and the induced characters shared by the
    # induction check and the oracle coupling, against the frozen loops
    for n in range(7):
        assert list(conjugacy_classes(n).items()) == list(reference_oracle.classes(n))
        table = build_character_table(n)
        want = reference_oracle.character_table(n)
        assert list(table.irreducibles) == list(want)
        for bp, chi in table.irreducibles.items():
            assert chi.values == want[bp]
            assert all(type(v) is int for v in chi.values.values())
    keys = [
        (chi, r - chi.size, which)
        for r in range(7)
        for l in range(r + 1)
        for chi in bipartitions_of(l)
        for which in ("trivial",) + SGN_CONVENTIONS
    ]
    assert len(keys) == 843
    for key in keys:
        assert verify._induced.__wrapped__(*key) == reference_oracle.induced(*key), key


@pytest.mark.parametrize("convention", SGN_CONVENTIONS)
def test_omega_certified_to_b_rank_six(convention):
    result = check_omega(6, convention=convention)
    assert result.passed, result.line()
    assert result.detail.startswith("392 tables equal the oracle")


def test_oracle_never_calls_pieri_code(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called Pieri code")

    names = (
        "pieri_induction",
        "_pieri_labels",
        "horizontal_strip_additions",
        "vertical_strip_additions",
        "_horizontal_strips",
        "_vertical_strips",
        "_horizontal_strip_removals",
        "_pieri_rule",
        "_strip_indices",
        "_twist_permutation",
        "_star_permutation",
        "_partition_position",
        "_bipartition_radix",
        "_coupling_row",
        "omega_unipotent",
    )
    for module in (partitions, unipotent, verify):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    verify._induced.cache_clear()
    for first_kind in (True, False):
        for convention in SGN_CONVENTIONS:
            verify._oracle_omega.__wrapped__(3, 3, first_kind, convention)


# (rank, [(irreducible, class)]): each value gains 1.  The two hits are
# chosen so that the first failing pair in row order differs from the first
# in column order.
@pytest.mark.parametrize(
    "n, hits",
    [
        (2, [(2, 1), (1, 4)]),
        (3, [(5, 2), (9, 4)]),
        (4, [(17, 16), (16, 19)]),
        (5, [(26, 19), (13, 31)]),
    ],
)
def test_column_relations_fail_on_perturbed_columns(monkeypatch, n, hits):
    table = build_character_table(n)
    classes = table.class_labels()
    irreducibles = dict(table.irreducibles)
    for t, c in hits:
        bp = table.labels[t]
        values = dict(irreducibles[bp].values)
        values[classes[c]] += 1
        irreducibles[bp] = ClassFunction(n, values)
    perturbed = dataclasses.replace(table, irreducibles=irreducibles)
    # the first failing pair (i, j), i <= j, in row order
    columns = [
        [perturbed.character(b).at(cls) for b in table.labels] for cls in classes
    ]
    i, j = next(
        (i, j)
        for i in range(len(classes))
        for j in range(i, len(classes))
        if sum(x * y for x, y in zip(columns[i], columns[j]))
        != (group_order(n) // table.class_sizes[classes[i]] if i == j else 0)
    )
    build = verify.build_character_table
    monkeypatch.setattr(
        verify, "build_character_table", lambda m: perturbed if m == n else build(m)
    )
    result = check_character_tables(5)
    assert not result.passed
    assert result.detail == (
        f"W_{n}: column orthogonality fails at {classes[i]}, {classes[j]}"
    )
