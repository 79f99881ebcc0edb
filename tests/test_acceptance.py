"""Acceptance gate: one test per advertised guarantee.

Each test prints a single PASS/FAIL line (visible even under capture) and
then asserts.  Criterion 5 is split into the first-occurrence zero law (5a),
persistence (5b) and the sharp row-nonemptiness law (5c).  The literal
persistence law "every label is nonempty from the first occurrence on" is
false, so 5b checks the form that holds: nonempty images are upward closed
along the partner tower, every label is nonempty in the stable range
r' >= r, and the smallest counterexample to the literal law is pinned.
"""

import time

import pytest

from howecorr.lusztig import (
    TRIVIAL_GL,
    CuspidalSupport,
    GenericCuspidal,
    GLCuspidal,
    transport_support,
)
from howecorr.partitions import _bipartition_index, bipartition, bipartitions_of
from howecorr.unipotent import (
    SGN_CONVENTIONS,
    SeriesLabel,
    TowerContext,
    _label_str,
    omega_unipotent,
    theta_cuspidal,
    theta_images,
    triangular,
    witt_index_of_cuspidal,
)
from howecorr.verify import (
    _oracle_omega,
    check_centralizers,
    check_character_tables,
    check_extremal,
    check_induction,
    check_membership,
    check_omega,
    check_pinned_table,
    check_reduction_consistency,
    check_row_persistence,
    check_transport,
    check_zero_law,
)


def report(capsys, tag, passed, detail):
    with capsys.disabled():
        print(f"[criterion {tag}] {'PASS' if passed else 'FAIL'} {detail}")


def report_result(capsys, tag, result, elapsed=None):
    detail = f"{result.name}: {result.detail}"
    if elapsed is not None:
        detail += f" ({elapsed:.1f}s)"
    report(capsys, tag, result.passed, detail)
    assert result.passed, detail


def test_criterion_1_induction_oracle_equivalence(capsys):
    start = time.perf_counter()
    result = check_induction(max_rank=5)
    elapsed = time.perf_counter() - start
    report_result(capsys, 1, result, elapsed)
    assert elapsed < 120


def test_criterion_2_character_table_certification(capsys):
    result = check_character_tables(max_rank=6)
    report_result(capsys, 2, result)


def test_criterion_3_omega_oracle_equivalence(capsys):
    start = time.perf_counter()
    results = [
        check_omega(max_b_rank=4, k_max=3, convention=conv)
        for conv in ("coxeter_sign", "sign_changes")
    ]
    elapsed = time.perf_counter() - start
    passed = all(r.passed for r in results)
    detail = "; ".join(f"{r.detail}" for r in results) + f" ({elapsed:.1f}s)"
    report(capsys, 3, passed, f"omega-oracle equivalence: {detail}")
    for r in results:
        assert r.passed, r.detail
    assert elapsed < 300


def test_criterion_4_pinned_small_instance(capsys):
    table = omega_unipotent(TowerContext(1, 0), TowerContext(1, 0), 0)
    triv = bipartition((1,), ())
    sgn = bipartition((), (1,))
    expected = {(triv, triv): 1, (triv, sgn): 1, (sgn, triv): 1}
    ok = table.entries == expected and table.entry(sgn, sgn) == 0
    cross = check_pinned_table()
    report(
        capsys, 4, ok and cross.passed,
        "pinned table m=m'=1, k=0: three pairs with multiplicity 1, "
        "(sgn, sgn) absent",
    )
    assert table.entries == expected
    assert cross.passed, cross.detail


def test_criterion_5a_zero_below_first_occurrence(capsys):
    result = check_zero_law(k_max=4)
    report_result(capsys, "5a", result)


def test_criterion_5b_every_label_nonempty_at_first_occurrence(capsys):
    """Persistence half of the first-occurrence law, in the form that holds.

    Read literally ("once m' reaches the first occurrence m(k') of the
    partner cuspidal, every label of the series has a nonempty image") the
    law is false.  The smallest witness is the k=0 series on the m=1 tower
    (U_2) against the even partner tower at m'=0 (U_0): the Weil
    representation of U_2 x U_0 is the trivial character of U_2, so 1|-
    lifts and -|1 does not; the oracle decomposition agrees.  What holds,
    with s = m' - m(k') = r' the step above the first occurrence:

    (a) persistence: the steps s at which a label has a nonempty image are
        upward closed (checked over s = 0 .. r+1);
    (b) stable range: every label has a nonempty image once r' >= r, which
        is the exact sense in which "every label is nonempty" holds;
    (c) the witness: theta_images of -|1 is empty and that of 1|- is
        (k'=0, -|-) with multiplicity 1, and the oracle row of -|1 is empty
        in both sgn conventions, so a program that makes the literal law
        true fails here.

    Which labels are nonempty below the stable range is criterion 5c.
    """
    violations = []
    checked = 0
    for convention in SGN_CONVENTIONS:
        for k in range(5):
            parity = triangular(k) % 2
            for parity_prime in (0, 1):
                k_prime = theta_cuspidal(k, parity_prime)
                first = witt_index_of_cuspidal(k_prime)
                for r in range(4):
                    ctx = TowerContext(witt_index_of_cuspidal(k) + r, parity)
                    for bp in bipartitions_of(r):
                        steps = [
                            bool(theta_images(
                                SeriesLabel(k, bp), ctx,
                                TowerContext(first + s, parity_prime),
                                convention=convention,
                            ))
                            for s in range(r + 2)
                        ]
                        checked += len(steps)
                        where = (
                            f"k={k}, m={ctx.witt_index}, parity'={parity_prime}, "
                            f"{convention}, label {_label_str(bp)}"
                        )
                        for s in range(r + 1):
                            if steps[s] and not steps[s + 1]:
                                violations.append(
                                    f"(a) {where}: nonempty at m'={first + s}, "
                                    f"empty at m'={first + s + 1}"
                                )
                        for s in range(r, r + 2):
                            if not steps[s]:
                                violations.append(
                                    f"(b) {where}: empty at m'={first + s} "
                                    f"although r'={s} >= r={r}"
                                )

    u2, u0 = TowerContext(1, 0), TowerContext(0, 0)
    triv, sgn = bipartition((1,), ()), bipartition((), (1,))
    empty = bipartition((), ())
    for convention in SGN_CONVENTIONS:
        got_sgn = theta_images(SeriesLabel(0, sgn), u2, u0, convention=convention)
        got_triv = theta_images(SeriesLabel(0, triv), u2, u0, convention=convention)
        if got_sgn != []:
            violations.append(f"(c) {convention}: image of -|1 is {got_sgn}, not []")
        if got_triv != [(SeriesLabel(0, empty), 1)]:
            violations.append(
                f"(c) {convention}: image of 1|- is {got_triv}, not [(k'=0, -|-, 1)]"
            )
        oracle, _ = _oracle_omega(1, 0, True, convention)
        if any(row == _bipartition_index(1)[sgn] for row, _, _ in oracle):
            violations.append(f"(c) {convention}: oracle row of -|1 is nonempty")

    passed = not violations
    detail = (
        f"persistence: {checked} (label, m') pairs, nonempty images upward "
        f"closed and total once r' >= r; -|1 empty at k=0, m=1, m'=0"
    )
    if not passed:
        detail = f"persistence: {len(violations)} violations; first: {violations[0]}"
    report(capsys, "5b", passed, detail)
    assert passed, detail


def test_criterion_5c_sharp_row_nonemptiness(capsys):
    results = [
        check_row_persistence(max_b_rank=3, k_max=3, convention=conv)
        for conv in ("coxeter_sign", "sign_changes")
    ]
    passed = all(r.passed for r in results)
    report(
        capsys, "5c", passed,
        "row-nonemptiness characterization: " + "; ".join(r.detail for r in results),
    )
    for r in results:
        assert r.passed, r.detail


def test_criterion_6_extremal_images(capsys):
    result = check_extremal(max_b_rank=4, k_max=3)
    report_result(capsys, 6, result)
    assert result.detail == "1776 image sets have unique extremes (both conventions)"


def test_criterion_7_centralizer_bookkeeping(capsys):
    start = time.perf_counter()
    result = check_centralizers(count=200, seed=20260825)
    elapsed = time.perf_counter() - start
    report_result(capsys, 7, result, elapsed)
    assert elapsed < 10


def test_criterion_8_reduction_consistency(capsys):
    byte_level = check_reduction_consistency(max_b_rank=4, k_max=3)
    membership = check_membership(max_b_rank=3)
    passed = byte_level.passed and membership.passed
    report(
        capsys, 8, passed,
        f"reduction consistency: {byte_level.detail}; {membership.detail}",
    )
    assert byte_level.passed, byte_level.detail
    assert membership.passed, membership.detail


def test_criterion_9_support_transport_laws(capsys):
    result = check_transport()
    sigma = GLCuspidal(2, "sigma")
    support = CuspidalSupport((sigma, TRIVIAL_GL), GenericCuspidal("phi", 1))
    grown = transport_support(support, TowerContext(4, 0), TowerContext(6, 0))
    assert grown.trivial_count == 3
    assert sigma in grown.entries
    back = transport_support(grown, TowerContext(6, 0), TowerContext(4, 0))
    assert back.entries == support.entries
    with pytest.raises(ValueError, match="trivial GL_1"):
        transport_support(
            CuspidalSupport((sigma,), GenericCuspidal("phi", 0)),
            TowerContext(2, 0),
            TowerContext(1, 0),
        )
    report_result(capsys, 9, result)
