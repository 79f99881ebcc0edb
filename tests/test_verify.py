"""The verification suite must agree with itself at small rank."""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys
import textwrap
import types

import pytest
import reference_oracle
from test_hyperoctahedral import label_map
from test_lusztig import identity_class

from howecorr import hyperoctahedral, partitions, symmetric, unipotent, verify
from howecorr.errors import NonUniqueExtremeError
from howecorr.hyperoctahedral import (
    LINEAR_CHARACTERS,
    SignedCycleType,
    _classes,
    _linear_values,
    build_character_table,
    group_order,
)
from howecorr.lusztig import TRIVIAL_GL, CentralizerFactor, GLCuspidal
from howecorr.partitions import Partition, _bipartition_index, bipartition, bipartitions_of
from howecorr.unipotent import SGN_CONVENTIONS, MultiplicityTable, TowerContext
from howecorr.verify import (
    CheckResult,
    _oracle_omega,
    check_character_tables,
    check_omega,
    check_pinned_table,
    run_verification,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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


def _run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter that imports this checkout's
    ``howecorr``, and return its stdout; the interpreter must exit 0."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_rank_bound_is_the_oracle_bound():
    """run_verification accepts the ranks the oracle accepts.  Run in a
    fresh interpreter, so that the rank-7 tables do not stay in this
    process's caches."""
    _run_fresh(
        "from howecorr import hyperoctahedral, verify\n"
        "hyperoctahedral.ORACLE_BOUND = 7\n"
        "results = verify.run_verification(7)\n"
        "assert len(results) == 11, results\n"
        "assert all(r.passed for r in results), [r.line() for r in results]\n"
    )


@pytest.mark.skipif(
    os.environ.get("HOWECORR_ORACLE_RANK8") != "1",
    reason="the b-rank 8 oracle checks run only with HOWECORR_ORACLE_RANK8=1",
)
def test_oracle_certifies_b_rank_eight():
    """Tables, induction and omega in both conventions at b-rank 8, with the
    bound raised in a fresh interpreter; then every induced family that
    check_induction(8) reads is compared, chi by chi, with induction on the
    class-fusion route followed by decomposition in plain integer sums
    (reference_oracle.decompose_value_list)."""
    script = f"import sys\nsys.path.insert(0, {str(SRC.parent / 'tests')!r})\n" + textwrap.dedent(
        """\
        import reference_oracle
        from howecorr import hyperoctahedral as h, verify
        h.ORACLE_BOUND = 8
        results = [verify.check_character_tables(8), verify.check_induction(8)]
        print(h._induced.cache_info().currsize)
        results += [verify.check_omega(8, convention=c) for c in verify.SGN_CONVENTIONS]
        print("\\n".join(r.line() for r in results))
        keys = {
            (l, r - l, h._linear_values(r - l, which))
            for r in range(9)
            for l in range(r + 1)
            for which in ("trivial",) + verify.SGN_CONVENTIONS
        }
        compared = 0
        for l, s, linear in keys:
            family = h._induced(l, s, linear)
            for row, got in zip(h.build_character_table(l).rows, family, strict=True):
                induced = h._induce_values(l, s, h._outer(row, linear))
                want = (
                    reference_oracle.decompose_value_list(induced, l + s),
                    induced[h._classes(l + s).identity],
                )
                assert got == want, (l, s, linear, row)
                compared += 1
        print(len(keys), "families,", compared, "inductions agree")
        """
    )
    lines = _run_fresh(script).splitlines()
    # 2892 comparisons against 109 families (see test_induced_is_keyed_by_values)
    assert lines == [
        "109",
        "PASS character-table certification: tables W_0..W_8 certified both ways",
        "PASS induction-oracle equivalence: 2892 induced characters matched (rank <= 8)",
        *(
            "PASS omega-oracle equivalence: 648 tables equal the oracle entrywise "
            f"(k <= 3, b-rank <= 8, {convention})"
            for convention in SGN_CONVENTIONS
        ),
        "109 families, 1775 inductions agree",
    ]


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
            rows, cols = _bipartition_index(r), _bipartition_index(r_prime)
            cells = sorted((rows[a], cols[b], mult) for (a, b), mult in want.items())
            got, degree = _oracle_omega(r, r_prime, first_kind, convention)
            assert got == tuple(cells), (r, r_prime)
            identity = reference_oracle.identity(r), reference_oracle.identity(r_prime)
            assert degree == product[identity]


def test_oracle_matches_the_label_keyed_reference():
    # class sizes, table values and the induced characters shared by the
    # induction check and the oracle coupling, against the frozen loops
    for n in range(7):
        classes = _classes(n)
        assert list(zip(classes.labels, classes.sizes)) == list(reference_oracle.classes(n))
        table = build_character_table(n)
        want = reference_oracle.character_table(n)
        assert table.labels == tuple(want)
        for bp, row in zip(table.labels, table.rows):
            assert list(zip(classes.labels, row)) == list(want[bp].items())
            assert all(type(v) is int for v in row)
    compared = 0
    for r in range(7):
        for l in range(r + 1):
            for which in ("trivial",) + SGN_CONVENTIONS:
                family = hyperoctahedral._induced.__wrapped__(l, r - l, _linear_values(r - l, which))
                for chi, got in zip(bipartitions_of(l), family, strict=True):
                    assert got == reference_oracle.induced(chi, r - l, which), (chi, which)
                    compared += 1
    assert compared == 843


def test_induced_is_keyed_by_values():
    """Linear characters with equal values on W_s share one induction: all
    names on W_0, sign_changes and coxeter_sign on W_1, none from W_2 on."""
    assert {_linear_values(0, which) for which in LINEAR_CHARACTERS} == {(1,)}
    assert _linear_values(1, "sign_changes") == _linear_values(1, "coxeter_sign") == (1, -1)
    assert _linear_values(1, "trivial") == (1, 1)
    for s in range(2, 7):
        assert len({_linear_values(s, which) for which in LINEAR_CHARACTERS}) == 4, s
    hyperoctahedral._induced.cache_clear()
    result = verify.check_induction(6)
    assert result.detail == "843 induced characters matched (rank <= 6)"
    assert hyperoctahedral._induced.cache_info().currsize == 64


@pytest.mark.parametrize("max_b_rank, tables, stores", [(4, 200, 50), (6, 392, 98)])
@pytest.mark.parametrize("convention", SGN_CONVENTIONS)
def test_omega_certified_to_b_rank_six(monkeypatch, convention, max_b_rank, tables, stores):
    """check_omega compares the cells of each store with the oracle once:
    its tables hold one store per ranks and kind."""
    calls = []
    real = verify._cell_rows
    monkeypatch.setattr(verify, "_cell_rows", lambda starts: calls.append(starts) or real(starts))
    result = check_omega(max_b_rank, convention=convention)
    assert result.passed, result.line()
    assert result.detail == (
        f"{tables} tables equal the oracle entrywise "
        f"(k <= 3, b-rank <= {max_b_rank}, {convention})"
    )
    assert len(calls) == stores


def test_oracle_never_calls_pieri_code(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called Pieri code")

    names = (
        "pieri_induction",
        "horizontal_strip_additions",
        "vertical_strip_additions",
        "_horizontal_strips",
        "_horizontal_strip_removals",
        "_strip_indices",
        "_strip_relation",
        "_twist_permutation",
        "_star_permutation",
        "_partition_position",
        "_bipartition_radix",
        "_coupling_row",
        "_starred_strips",
        "omega_unipotent",
    )
    modules = (partitions, unipotent, hyperoctahedral, verify)
    # a name that no module defines would be skipped below and guard nothing
    missing = [name for name in names if not any(hasattr(m, name) for m in modules)]
    assert not missing, f"no module defines {missing}"
    for module in modules:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    # every oracle cache, so that what earlier tests built runs again under
    # the guard whatever the test order
    for cached in (
        hyperoctahedral._classes,
        hyperoctahedral._induction_matrix,
        hyperoctahedral.build_character_table,
        hyperoctahedral._induced,
        hyperoctahedral._tensor_label_map,
        symmetric._mn,
    ):
        cached.cache_clear()
    for first_kind in (True, False):
        for convention in SGN_CONVENTIONS:
            verify._oracle_omega.__wrapped__(3, 3, first_kind, convention)


def test_sgn_induction_is_the_twist_of_trivial_induction():
    """Ind(chi x sgn) = sgn Ind(sgn chi x 1), since sgn of W_n restricts to
    W_l x W_s as sgn x sgn: the identity that builds the omega sum's sgn
    lists from its trivial ones, checked on the oracle side alone."""
    cases = 0
    for n in range(7):
        for convention in SGN_CONVENTIONS:
            twist_n = label_map(n, convention)
            for l in range(n + 1):
                twist_l, index, s = label_map(l, convention), _bipartition_index(l), n - l
                trivial = hyperoctahedral._induced(l, s, _linear_values(s, "trivial"))
                sgn = hyperoctahedral._induced(l, s, _linear_values(s, convention))
                for chi, (got, _) in zip(bipartitions_of(l), sgn):
                    mults = trivial[index[twist_l[chi]]][0]
                    assert got == {twist_n[bp]: mult for bp, mult in mults.items()}
                    cases += 1
    assert cases == 562


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
    classes, sizes = _classes(n).labels, _classes(n).sizes
    rows = [list(row) for row in table.rows]
    for t, c in hits:
        rows[t][c] += 1
    perturbed = dataclasses.replace(table, rows=tuple(map(tuple, rows)))
    # the first failing pair (i, j), i <= j, in row order
    columns = list(zip(*perturbed.rows))
    i, j = next(
        (i, j)
        for i in range(len(classes))
        for j in range(i, len(classes))
        if sum(x * y for x, y in zip(columns[i], columns[j]))
        != (group_order(n) // sizes[i] if i == j else 0)
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


def test_class_sizes_that_miss_the_group_order_fail(monkeypatch):
    classes = _classes(3)
    sizes = (classes.sizes[0] + 1,) + classes.sizes[1:]
    real = verify._classes
    monkeypatch.setattr(
        verify, "_classes", lambda m: classes._replace(sizes=sizes) if m == 3 else real(m)
    )
    result = check_character_tables(5)
    assert result.line() == (
        "FAIL character-table certification: W_3: class sizes do not sum to 48"
    )


def _grown(ctx_p):
    """The partner context one Witt index higher, same parity and field."""
    return TowerContext(ctx_p.witt_index + 1, ctx_p.dim_parity, ctx_p.q)


def _extremal_antichain(pi, k_prime, labels):
    raise NonUniqueExtremeError("planted", [pi.char_label])


def _with_factors(real, change):
    # centralizer_decomposition with its factor list passed through change
    def decomposition(s, ctx):
        found = real(s, ctx)
        return found._replace(factors=change(found.factors))

    return decomposition


class _LinearFactor(CentralizerFactor):
    # a factor that calls itself linear whatever its field degree
    kind = "linear"


def _hash_blind(real):
    # membership that ignores the hash labels
    def omega_full(*args):
        full = real(*args)
        table = full.unipotent_table
        return types.SimpleNamespace(
            unipotent_table=table,
            contains=lambda m, m_p: table.entry(m[1], m_p[1]) > 0,
        )

    return omega_full


def _with_entries(change):
    # transport_support with the entries of each nonzero image passed through change
    def plant(real):
        def transport(sup, ctx, ctx_p):
            out = real(sup, ctx, ctx_p)
            return out and dataclasses.replace(out, entries=change(out.entries))

        return transport

    return plant


def _swallowing_value_errors(real):
    # transport_support that answers zero where the real one raises
    def transport(*args):
        try:
            return real(*args)
        except ValueError:
            return None

    return transport


def _shifted_rows(table):
    # the table with every value of every character one higher
    rows = tuple(tuple(v + 1 for v in row) for row in table.rows)
    return dataclasses.replace(table, rows=rows)


def _shifted_identity(classes):
    # the class record with the identity moved to the next class, cyclically
    return classes._replace(identity=(classes.identity + 1) % len(classes.labels))


def _swapped_block(real):
    # the family, computed uncached over a fusion map whose last block has
    # the fused classes of its first two product classes swapped
    fusion = hyperoctahedral._induction_matrix

    def swapped(a, b):
        targets, size = fusion(a, b)
        targets = list(targets)
        i = len(targets) - len(_classes(b).labels)
        targets[i : i + 2] = reversed(targets[i : i + 2])
        return targets, size

    def induced(l, s, second):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hyperoctahedral, "_induction_matrix", swapped)
            return real.__wrapped__(l, s, second)

    return induced


def _first_kind_cells(real):
    # omega_unipotent that gives each second-kind table the cell store of
    # the first-kind tables of its ranks and convention
    def omega_unipotent(*args, convention):
        table = real(*args, convention=convention)
        if unipotent.is_first_kind(table.k, table.k_prime):
            return table
        r, r_prime = table.row_labels[0].size, table.col_labels[0].size
        return MultiplicityTable(
            table.m, table.m_prime, table.k, table.k_prime, table.convention,
            unipotent._sum_entries(r, r_prime, True, convention),
        )

    return omega_unipotent


def _wrong_rank_table(real):
    # omega_unipotent that gives the (k=2, k'=3, r=1, r'=1) table the
    # table of ranks (2, 1), whose store and labels the earlier second-kind
    # (k=0, k'=1, r=2, r'=1) table holds
    k_prime = unipotent.theta_cuspidal(2, 0)
    target = verify._series_context(2, 1), verify._series_context(k_prime, 1)
    wrong = verify._series_context(2, 2), verify._series_context(k_prime, 1)

    def omega_unipotent(ctx, ctx_p, k, convention):
        if (ctx, ctx_p) == target and k == 2:
            ctx, ctx_p = wrong
        return real(ctx, ctx_p, k, convention=convention)

    return omega_unipotent


EMPTY = "Bipartition(alpha=(), beta=())"

EMPTY_CLASS = SignedCycleType(Partition(), Partition())

# (verify global, replacement given the real function, check, detail): each
# check passes as it stands and fails, with this detail, once the global is
# replaced.  Together they reach every _fail call of verify; the column and
# class-size tests above pin check_character_tables' two in more detail.
PLANTED_FAULTS = [
    pytest.param(
        "group_order",
        lambda real: lambda n: real(n) + 1,
        lambda: check_character_tables(1),
        "W_0: class sizes do not sum to 2",
        id="table-class-sizes",
    ),
    pytest.param(
        # every value of every character one higher
        "build_character_table",
        lambda real: lambda n: _shifted_rows(real(n)),
        lambda: check_character_tables(1),
        f"W_0: column orthogonality fails at {EMPTY_CLASS}, {EMPTY_CLASS}",
        id="table-columns",
    ),
    pytest.param(
        "pieri_induction",
        lambda real: lambda chi, s, second, conv: real(chi, s, "trivial", conv),
        lambda: verify.check_induction(2),
        f"Ind(chi_{EMPTY} x coxeter_sign) to W_1: rule gives "
        "{Bipartition(alpha=(1,), beta=()): 1}, "
        "oracle gives {Bipartition(alpha=(), beta=(1,)): 1}",
        id="induction",
    ),
    pytest.param(
        "_induced",
        _swapped_block,
        lambda: verify.check_induction(2),
        f"Ind(chi_{EMPTY} x coxeter_sign) to W_1: rule gives "
        "{Bipartition(alpha=(), beta=(1,)): 1}, "
        "oracle gives {Bipartition(alpha=(), beta=(1,)): -1}",
        id="induction-restriction",
    ),
    pytest.param(
        "is_first_kind",
        lambda real: lambda k, k_prime: not real(k, k_prime),
        lambda: check_omega(1),
        "entry mismatch at k=0, parity'=0, r=1, r'=0",
        id="omega-entries",
    ),
    pytest.param(
        # the unpatched run caches the oracle, so only the table side sees it
        "_classes",
        lambda real: lambda n: _shifted_identity(real(n)),
        lambda: check_omega(1),
        "degree identity fails at k=0, r=1, r'=1",
        id="omega-degrees",
    ),
    pytest.param(
        "omega_unipotent",
        lambda real: lambda ctx, ctx_p, k, **kw: real(ctx, _grown(ctx_p), k, **kw),
        verify.check_zero_law,
        "k=1, m'=0: zero iff m' < 1 violated",
        id="zero-law-tables",
    ),
    pytest.param(
        "theta_images",
        lambda real: lambda *args: [None],
        verify.check_zero_law,
        "k=1, m'=0: images below first occurrence",
        id="zero-law-images",
    ),
    pytest.param(
        "row_nonempty",
        lambda real: lambda *args: not real(*args),
        lambda: verify.check_row_persistence(1),
        f"k=0, r=0, r'=0, row {EMPTY}: nonempty=True, predicted=False",
        id="row-persistence",
    ),
    pytest.param(
        # a store fixes the kind of its tables only if the checks key it so
        "omega_unipotent",
        _first_kind_cells,
        lambda: verify.check_row_persistence(3),
        "k=0, r=1, r'=0, row Bipartition(alpha=(1,), beta=()): "
        "nonempty=True, predicted=False",
        id="row-persistence-kind",
    ),
    pytest.param(
        # a store fixes the ranks of its tables only if the checks key it so
        "omega_unipotent",
        _wrong_rank_table,
        lambda: check_omega(2),
        "entry mismatch at k=2, parity'=0, r=1, r'=1",
        id="omega-ranks",
    ),
    pytest.param(
        "_image_extremes",
        lambda real: _extremal_antichain,
        lambda: verify.check_extremal(1),
        f"antichain at k=0, r=0, r'=0, row {EMPTY}: ({EMPTY},)",
        id="extremal",
    ),
    pytest.param(
        # the real centralizer_decomposition raises InternalCheckError on
        # this condition first, so only a replaced one reaches the branch
        "centralizer_decomposition",
        lambda real: _with_factors(
            real, lambda factors: factors + (CentralizerFactor(1, 1),)
        ),
        lambda: verify.check_centralizers(5),
        "trial 0: rank sum 4 != 3",
        id="centralizers-rank-sum",
    ),
    pytest.param(
        "centralizer_decomposition",
        lambda real: _with_factors(
            real,
            lambda factors: tuple(_LinearFactor(f.size, f.field_degree) for f in factors),
        ),
        lambda: verify.check_centralizers(5),
        "trial 2: -1 orbit not unitary",
        id="centralizers-minus-one",
    ),
    pytest.param(
        "centralizer_decomposition",
        lambda real: lambda s, ctx: real(s, ctx)._replace(l=real(s, ctx).l + 1),
        lambda: verify.check_centralizers(5),
        "trial 0: drop l miscomputed",
        id="centralizers-drop",
    ),
    pytest.param(
        "match_semisimple",
        lambda real: lambda s, ctx, ctx_p: s,
        lambda: verify.check_centralizers(5),
        "trial 0: matched dimension wrong",
        id="centralizers-match",
    ),
    pytest.param(
        # the partner class keeps its dimension but loses its non-unit part
        "match_semisimple",
        lambda real: lambda s, ctx, ctx_p: identity_class(s.q, ctx_p.dimension, s.modulus),
        lambda: verify.check_centralizers(5),
        "trial 1: factor lists differ after match",
        id="centralizers-factors",
    ),
    pytest.param(
        "omega_full",
        lambda real: lambda pair, ctx, ctx_p: real(pair, ctx, _grown(ctx_p)),
        lambda: verify.check_reduction_consistency(1),
        "k=0, r=0, r'=0: tables differ",
        id="reduction-tables",
    ),
    pytest.param(
        "omega_full",
        lambda real: lambda *args: dataclasses.replace(real(*args), l=1),
        lambda: verify.check_reduction_consistency(1),
        "k=0, r=0: nonempty hash part",
        id="reduction-hash-part",
    ),
    pytest.param(
        "omega_full",
        _hash_blind,
        lambda: verify.check_membership(1),
        f"l=1, k=0, r=0, r'=0: (('2',),{EMPTY}) vs (('1,1',),{EMPTY})",
        id="membership",
    ),
    pytest.param(
        "transport_support",
        lambda real: lambda *args: None,
        verify.check_transport,
        "growth transport lost the anchor",
        id="transport",
    ),
    pytest.param(
        "transport_support",
        _with_entries(
            lambda entries: tuple(
                e if e.is_trivial else GLCuspidal(e.size, e.label + "'") for e in entries
            )
        ),
        verify.check_transport,
        "nontrivial block not verbatim",
        id="transport-verbatim",
    ),
    pytest.param(
        "transport_support",
        _with_entries(
            lambda entries: tuple(e for e in entries if not e.is_trivial) + (TRIVIAL_GL,)
        ),
        verify.check_transport,
        "expected 2 trivial entries, got 1",
        id="transport-trivial-count",
    ),
    pytest.param(
        # a shrink that moves nothing
        "transport_support",
        lambda real: lambda sup, ctx, ctx_p: (
            real(sup, ctx, ctx_p) if ctx.witt_index < ctx_p.witt_index else sup
        ),
        verify.check_transport,
        "grow-then-shrink round trip broken",
        id="transport-round-trip",
    ),
    pytest.param(
        # the support itself where the image is zero
        "transport_support",
        lambda real: lambda sup, ctx, ctx_p: real(sup, ctx, ctx_p) or sup,
        verify.check_transport,
        "image below first occurrence not zero",
        id="transport-zero",
    ),
    pytest.param(
        "transport_support",
        _swallowing_value_errors,
        verify.check_transport,
        "underflow did not raise",
        id="transport-underflow",
    ),
    pytest.param(
        # a shrink that moves nothing
        "transport_series",
        lambda real: lambda pair, ctx, ctx_p: (
            real(pair, ctx, ctx_p) if ctx.witt_index < ctx_p.witt_index else pair
        ),
        verify.check_transport,
        "series round trip broken",
        id="transport-series",
    ),
    pytest.param(
        "omega_unipotent",
        lambda real: lambda ctx, ctx_p, k: real(ctx, TowerContext(0, 0), k),
        check_pinned_table,
        "got {(Bipartition(alpha=(1,), beta=()), " + EMPTY + "): 1}",
        id="pinned-table",
    ),
]


@pytest.mark.parametrize("name, plant, check, detail", PLANTED_FAULTS)
def test_checks_fail_on_planted_faults(monkeypatch, name, plant, check, detail):
    assert check().passed
    monkeypatch.setattr(verify, name, plant(getattr(verify, name)))
    result = check()
    assert result.passed is False
    assert result.detail == detail


def _fail_lines() -> set:
    """The line of every ``_fail(`` call in verify's source."""
    tree = ast.parse(pathlib.Path(verify.__file__).read_text(encoding="utf-8"))
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fail"
    }


def test_planted_faults_reach_every_fail_line(monkeypatch):
    """Every _fail call of verify runs under some planted fault, so no
    failure branch of the suite is dead code."""
    lines = _fail_lines()
    assert len(lines) == 25
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename == verify.__file__ else None

    for fault in PLANTED_FAULTS:
        name, plant, check, _ = fault.values
        assert check().passed
        with monkeypatch.context() as patch:
            patch.setattr(verify, name, plant(getattr(verify, name)))
            previous = sys.gettrace()
            sys.settrace(trace)
            try:
                check()
            finally:
                sys.settrace(previous)
    assert sorted(lines - ran) == []


def test_extremal_check_certifies_a_store_it_has_not_seen(monkeypatch):
    """check_extremal certifies the rows of each cell store once.  A table
    whose cells are a store of its own, with an antichain row, is certified
    all the same, although a table of its kind, ranks and convention was
    certified at a smaller k."""
    assert verify.check_extremal(3).detail == (
        "736 image sets have unique extremes (both conventions)"
    )
    # (1,1,1)|- and (2)|(1): each has the larger prefix sum somewhere
    antichain = [bipartition((1, 1, 1), ()), bipartition((2,), (1,))]
    with pytest.raises(NonUniqueExtremeError):
        unipotent._image_extremes(None, 0, antichain)
    row = bipartition((1,), ())
    k, r, r_prime, convention = 2, 1, 3, SGN_CONVENTIONS[0]
    k_prime = unipotent.theta_cuspidal(k, 1)
    ctx, ctx_p = verify._series_context(k, r), verify._series_context(k_prime, r_prime)
    target = (ctx, ctx_p, k, convention)
    real = verify.omega_unipotent
    # the premise: a table at a smaller k holds the same store
    store = real(*target[:3], convention=convention).entries
    assert any(
        real(
            verify._series_context(j, r),
            verify._series_context(unipotent.theta_cuspidal(j, p), r_prime),
            j,
            convention=convention,
        ).entries
        is store
        for j in range(k)
        for p in (0, 1)
    )
    planted = []

    def omega_unipotent(*args, convention):
        table = real(*args, convention=convention)
        if (*args, convention) != target:
            return table
        cells = {key: mult for key, mult in table.entries.items() if key[0] != row}
        cells.update({(row, col): 1 for col in antichain})
        planted.append(table)
        return MultiplicityTable(
            table.m, table.m_prime, table.k, table.k_prime, table.convention, cells
        )

    monkeypatch.setattr(verify, "omega_unipotent", omega_unipotent)
    result = verify.check_extremal(3)
    assert len(planted) == 1
    assert result.passed is False
    assert result.detail == (
        f"antichain at k={k}, r={r}, r'={r_prime}, row {row}: {tuple(antichain)}"
    )



def test_row_persistence_check_certifies_a_store_it_has_not_seen(monkeypatch):
    """check_row_persistence predicts the rows of each cell store once and
    counts them for every table that holds it.  A table whose cells are a
    store of its own, with an emptied row, is certified all the same,
    although a table of its kind, ranks and convention was certified at a
    smaller k."""
    calls = []
    real_nonempty = verify.row_nonempty
    monkeypatch.setattr(
        verify, "row_nonempty", lambda *args: calls.append(args) or real_nonempty(*args)
    )
    result = verify.check_row_persistence(3)
    assert result.detail == "576 rows match the strip-removal bound"
    # one prediction per row of each distinct (ranks, kind) store
    stores = {(len(bipartitions_of(r)), r, r_p, first) for _, r, r_p, first, _ in calls}
    assert len(calls) == sum(rows for rows, *_ in stores) < 576
    monkeypatch.setattr(verify, "row_nonempty", real_nonempty)

    row = bipartition((1,), ())
    k, r, r_prime, convention = 2, 1, 3, SGN_CONVENTIONS[0]
    k_prime = unipotent.theta_cuspidal(k, 1)
    ctx, ctx_p = verify._series_context(k, r), verify._series_context(k_prime, r_prime)
    target = (ctx, ctx_p, k, convention)
    real = verify.omega_unipotent
    planted = []

    def omega_unipotent(*args, convention):
        table = real(*args, convention=convention)
        if (*args, convention) != target:
            return table
        cells = {key: mult for key, mult in table.entries.items() if key[0] != row}
        planted.append(table)
        return MultiplicityTable(
            table.m, table.m_prime, table.k, table.k_prime, table.convention, cells
        )

    monkeypatch.setattr(verify, "omega_unipotent", omega_unipotent)
    result = verify.check_row_persistence(3)
    assert len(planted) == 1
    assert result.passed is False
    assert result.detail == (
        f"k={k}, r={r}, r'={r_prime}, row {row}: nonempty=False, predicted=True"
    )


def test_checks_are_the_suites_eleven():
    """The functions of verify named check_* are the eleven checks of the
    suite; a benchmark wraps each as a timed item and reads .passed from its
    result, so a helper must not take the prefix."""
    checks = {
        name
        for name, value in vars(verify).items()
        if name.startswith("check_") and isinstance(value, types.FunctionType)
    }
    assert checks == {
        "check_centralizers",
        "check_character_tables",
        "check_extremal",
        "check_induction",
        "check_membership",
        "check_omega",
        "check_pinned_table",
        "check_reduction_consistency",
        "check_row_persistence",
        "check_transport",
        "check_zero_law",
    }


NEGATIVE_SIZES = [
    ("check_induction", "max_rank"),
    ("check_character_tables", "max_rank"),
    ("check_omega", "max_b_rank"),
    ("check_omega", "k_max"),
    ("check_zero_law", "k_max"),
    ("check_row_persistence", "max_b_rank"),
    ("check_row_persistence", "k_max"),
    ("check_extremal", "max_b_rank"),
    ("check_extremal", "k_max"),
    ("check_centralizers", "count"),
    ("check_reduction_consistency", "max_b_rank"),
    ("check_reduction_consistency", "k_max"),
    ("check_membership", "max_b_rank"),
]


@pytest.mark.parametrize("check, arg", NEGATIVE_SIZES)
def test_negative_sizes_raise(check, arg):
    """A negative size is a usage error, not a check that passes with no
    items; zero is a size."""
    with pytest.raises(ValueError, match="must be nonnegative"):
        getattr(verify, check)(**{arg: -1})
    assert getattr(verify, check)(**{arg: 0}).passed


def test_omega_check_reads_the_printed_cells(monkeypatch):
    """check_omega compares the row-sorted copy that rows, lookups and the
    renderers read, so a fault planted there alone is caught."""
    assert check_omega(1).passed
    k_prime = unipotent.theta_cuspidal(0, 1)
    table = unipotent.omega_unipotent(
        verify._series_context(0, 1), verify._series_context(k_prime, 1), 0
    )
    starts, columns, mults = table.entries._csr
    # _sum_entries shares the store across tests, so monkeypatch restores it
    corrupted = starts, columns, (mults[0] + 1,) + tuple(mults[1:])
    monkeypatch.setitem(table.entries.__dict__, "_csr", corrupted)
    result = check_omega(1)
    assert result.passed is False
    assert result.detail == "entry mismatch at k=0, parity'=1, r=1, r'=1"
