"""End-to-end checks of the command line front end (in process, except
for the closed-pipe case, which needs a real pipe)."""

import contextlib
import gzip
import io
import json
import os
import pathlib
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import howecorr.cli as cli
import reference_cli
import reference_pieri
from howecorr import unipotent
from howecorr.cli import main, parse_gl_part, parse_orbits, parse_partition
from howecorr.errors import InternalCheckError
from howecorr.partitions import bipartitions_of
from howecorr.unipotent import (
    SGN_CONVENTIONS,
    MultiplicityTable,
    SeriesLabel,
    TowerContext,
    extremal_images,
    omega_unipotent,
    theta_cuspidal,
    triangular,
    witt_index_of_cuspidal,
)
from test_golden_cli import CORPUS, GOLDEN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_main_reuses_one_parser(self, capsys):
        # two usage errors through main build the argparse parser at most once
        for argv in (["omega", "--m", "x"], ["theta", "--k"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 1
        capsys.readouterr()
        assert cli._argparse_parser.cache_info().currsize == 1
        assert cli._argparse_parser.cache_info().misses <= 1
        assert cli.build_parser() is not cli.build_parser()

    def test_partition(self):
        assert tuple(parse_partition("3,1")) == (3, 1)
        assert tuple(parse_partition("-")) == ()
        assert tuple(parse_partition("")) == ()
        with pytest.raises(ValueError):
            parse_partition("3,x")

    def test_orbits(self):
        s = parse_orbits(3, 8, "0^3,4^2")
        assert s.dimension == 5
        assert parse_orbits(3, 8, "4").orbits[0].multiplicity == 1
        with pytest.raises(ValueError):
            parse_orbits(3, 8, "a^2")

    def test_gl_part(self):
        entries = parse_gl_part("1:1,2:rho")
        assert [(e.size, e.label) for e in entries] == [(1, "1"), (2, "rho")]
        assert parse_gl_part("-") == ()
        with pytest.raises(ValueError):
            parse_gl_part("2")
        with pytest.raises(ValueError):
            parse_gl_part("2:1")


_REFERENCE = reference_cli.build_parser()


def _outcome(parser, argv):
    """vars() of the namespace, or the exit code with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as stop:
            return stop.code, out.getvalue(), err.getvalue()


def _well_formed(name):
    """The required flags of a subcommand, each with a valid value."""
    argv = [name]
    for flag in cli._COMMANDS[name].flags:
        if flag.required:
            argv += [flag.name, "1" if flag.type is int else "-"]
    return argv


def _usage_errors():
    """One argv per level (top level, each subcommand) and kind of usage
    error that the level can give."""
    yield "top", "invalid_choice", ["frobnicate"]
    yield "top", "missing_required", []
    yield "top", "unrecognized", ["--bogus"]
    for name, command in cli._COMMANDS.items():
        base = _well_formed(name)
        ints = [f.name for f in command.flags if f.type is int]
        chosen = [f.name for f in command.flags if f.choices]
        if ints:
            yield name, "invalid_int", base + [ints[0], "x"]
        if chosen:
            yield name, "invalid_choice", base + [chosen[0], "9"]
        if len(base) > 1:
            yield name, "missing_required", base[:1] + base[3:]
        yield name, "unrecognized", base + ["stray"]
        yield name, "expected_one_argument", base + [command.flags[0].name]
        yield name, "not_allowed_with", base + ["--json", "--text"]


class TestAgainstTheReferenceParser:
    """Every --help text and usage-error line is the one the reference
    parser (``tests/reference_cli.py``) prints, and every argv gives its
    namespace or its exit."""

    @pytest.mark.parametrize(
        "prefix", [[]] + [[name] for name in cli._COMMANDS], ids=["top", *cli._COMMANDS]
    )
    def test_help_is_the_reference_help(self, capsys, monkeypatch, prefix):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([*prefix, "--help"])
        assert exc.value.code == 0
        got = capsys.readouterr()
        want = _outcome(_REFERENCE, [*prefix, "--help"])
        assert (0, got.out, got.err) == want
        assert got.out.startswith("usage: howecorr")

    @pytest.mark.parametrize("argv", [
        pytest.param(argv, id=f"{level}-{kind}") for level, kind, argv in _usage_errors()
    ])
    def test_usage_error_is_the_reference_line(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        got = capsys.readouterr()
        want = _outcome(_REFERENCE, argv)
        assert (exc.value.code, got.out, got.err) == want
        assert exc.value.code == 1 and len(got.err.splitlines()) == 1

    def test_superscript_two_is_not_a_negative_number(self, capsys):
        # "-²"[1:].isdigit() holds, but argparse reads "-²" as a flag, so
        # --alpha has no value; a digit test would print a partition error
        argv = ["theta", "--m", "1", "--mp", "1", "--k", "0", "--alpha", "-²",
                "--beta", "-"]
        assert cli._parse_well_formed(argv) is None
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            "howecorr theta: error: argument --alpha: expected one argument\n"
        )

    @pytest.mark.parametrize("name", sorted(cli._COMMANDS))
    def test_well_formed_argv_is_parsed_from_the_table(self, name):
        for argv in (_well_formed(name), _well_formed(name) + ["--json"]):
            args = cli._parse_well_formed(argv)
            assert args is not None
            assert vars(args) == _outcome(_REFERENCE, argv)


class TestOmega:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "omega", "--m", "1", "--mp", "1", "--k", "0")
        assert code == 0
        assert out == (
            "omega[m=1, m'=1, k=0 -> k'=0] (first-kind, sgn=coxeter_sign)\n"
            "     1|- -|1\n"
            " 1|-   1   1\n"
            " -|1   1   .\n"
        )

    def test_json_matches_library(self, capsys):
        code, out, _ = run(capsys, "omega", "--m", "2", "--mp", "1", "--k", "1", "--json")
        assert code == 0
        table = omega_unipotent(TowerContext(2, 1), TowerContext(1, 1), 1)
        assert json.loads(out) == table.to_json_dict()

    def test_json_round_trip_is_byte_identical(self, capsys):
        args = ("omega", "--m", "2", "--mp", "2", "--k", "0", "--json")
        _, out, _ = run(capsys, *args)
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_help_names_the_pair_order_witness(self, capsys, monkeypatch):
        # the help says that a table depends on which group of the pair is
        # listed first, with the U_3 x U_2 witness; both readings must still
        # be the tables it describes
        monkeypatch.setenv("COLUMNS", "1000")
        with pytest.raises(SystemExit) as exc:
            main(["omega", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "depends on which group of the pair is listed first" in text
        readings = {}
        for args in (
            "--m 1 --mp 1 --k 1 --parity 1 --parity-p 0",
            "--m 1 --mp 1 --k 0 --parity 0 --parity-p 1",
        ):
            assert args in text
            _, out, _ = run(capsys, "omega", *args.split(), "--json")
            table = json.loads(out)
            readings[table["formula"]] = sorted(mult for _, _, mult in table["entries"])
        assert readings == {"first-kind": [1, 1, 1], "second-kind": [1, 2]}

    def test_below_cuspidal_base_exits_1(self, capsys):
        code, out, err = run(capsys, "omega", "--m", "0", "--mp", "1", "--k", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_missing_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["omega", "--m", "1"])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_internal_failure_exits_2(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise InternalCheckError("forced")

        monkeypatch.setattr(cli, "omega_unipotent", boom)
        code, out, err = run(capsys, "omega", "--m", "1", "--mp", "1", "--k", "0")
        assert code == 2
        assert "internal check failed" in err


class TestTheta:
    def test_images(self, capsys):
        code, out, _ = run(
            capsys, "theta", "--m", "1", "--mp", "1", "--k", "0",
            "--alpha", "1", "--beta", "-",
        )
        assert code == 0
        assert out == "k'=0  1|-  x1\nk'=0  -|1  x1\n"

    def test_zero_marker(self, capsys):
        code, out, _ = run(
            capsys, "theta", "--m", "1", "--mp", "0", "--k", "1",
            "--alpha", "1", "--beta", "-",
        )
        assert code == 0
        assert out == "zero\n"

    def test_zero_marker_json(self, capsys):
        code, out, _ = run(
            capsys, "theta", "--m", "1", "--mp", "0", "--k", "1",
            "--alpha", "1", "--beta", "-", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["zero"] is True
        assert payload["images"] == []

    def test_wrong_label_size_exits_1(self, capsys):
        code, _, err = run(
            capsys, "theta", "--m", "1", "--mp", "1", "--k", "0",
            "--alpha", "2,1", "--beta", "-",
        )
        assert code == 1
        assert err.startswith("error:")

    def test_bad_partition_exits_1(self, capsys):
        code, _, err = run(
            capsys, "theta", "--m", "1", "--mp", "1", "--k", "0",
            "--alpha", "x", "--beta", "-",
        )
        assert code == 1
        assert err.startswith("error:")

    def test_builds_no_table(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("theta built an omega table")

        monkeypatch.setattr(cli, "omega_unipotent", boom)
        code, out, _ = run(
            capsys, "theta", "--m", "1", "--mp", "1", "--k", "0",
            "--alpha", "1", "--beta", "-", "--json",
        )
        assert code == 0
        assert json.loads(out)["k_prime"] == 0


class TestExtremal:
    def test_min_and_max(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--m", "1", "--mp", "1", "--k", "0",
            "--alpha", "1", "--beta", "-",
        )
        assert code == 0
        assert out == "min  k'=0  -|1\nmax  k'=0  1|-\n"

    def test_zero_marker(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--m", "1", "--mp", "0", "--k", "1",
            "--alpha", "1", "--beta", "-",
        )
        assert code == 0
        assert out == "zero\n"

    @pytest.mark.parametrize("mp, want", (("1", "min  k'=2  -|-"), ("0", "zero")))
    def test_one_image_per_call(self, capsys, monkeypatch, mp, want):
        calls = []
        theta_images = unipotent.theta_images

        def counted(*args, **kwargs):
            calls.append(args)
            return theta_images(*args, **kwargs)

        monkeypatch.setattr(cli, "theta_images", counted)
        monkeypatch.setattr(unipotent, "theta_images", counted)
        code, out, _ = run(
            capsys, "extremal", "--m", "1", "--mp", mp, "--k", "1",
            "--alpha", "1", "--beta", "-",
        )
        assert code == 0
        assert out.startswith(want)
        assert len(calls) == 1

    @pytest.mark.parametrize("convention", SGN_CONVENTIONS)
    def test_agrees_with_extremal_images(self, capsys, convention):
        """Every label with r <= 2, k <= 2, both partner parities and m' up to
        two past the first occurrence: `extremal` prints zero exactly where
        `unipotent.extremal_images` finds the image empty, and the same
        extremes elsewhere (every image at these ranks has unique ones)."""
        def as_json(sl):
            return {"k": sl.k, "alpha": list(sl.char_label.alpha),
                    "beta": list(sl.char_label.beta)}

        seen = set()
        for k, r, parity_p in product(range(3), range(3), (0, 1)):
            first = witt_index_of_cuspidal(theta_cuspidal(k, parity_p))
            ctx = TowerContext(witt_index_of_cuspidal(k) + r, triangular(k) % 2)
            for m_prime, label in product(range(first + 3), bipartitions_of(r)):
                pi, ctx_p = SeriesLabel(k, label), TowerContext(m_prime, parity_p)
                code, out, _ = run(
                    capsys, "extremal", "--m", str(ctx.witt_index), "--mp", str(m_prime),
                    "--k", str(k), "--parity-p", str(parity_p), "--convention", convention,
                    "--alpha", ",".join(map(str, label.alpha)) or "-",
                    "--beta", ",".join(map(str, label.beta)) or "-", "--json",
                )
                try:
                    lo, hi = extremal_images(pi, ctx, ctx_p, convention=convention)
                except ValueError:
                    assert (code, json.loads(out)) == (0, {"zero": True})
                    seen.add("zero")
                    continue
                want = {"zero": False, "min": as_json(lo), "max": as_json(hi)}
                assert (code, json.loads(out)) == (0, want)
                seen.add("extremes")
        assert seen == {"zero", "extremes"}


class TestCentralizer:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "centralizer", "--q", "3", "--n", "3", "--orbits", "0,4^2"
        )
        assert code == 0
        assert out == (
            "unitary of degree 2 over the degree-1 extension\n"
            "eigenvalue-1 block: dimension 1 (witt index 0, parity 1)\n"
            "l = 1\n"
        )

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "centralizer", "--q", "3", "--n", "3", "--orbits", "0,4^2",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["l"] == 1
        assert payload["factors"] == [
            {"kind": "unitary", "size": 2, "field_degree": 1}
        ]
        assert payload["unipotent_block"] == {
            "dimension": 1, "witt_index": 0, "dim_parity": 1,
        }

    def test_dimension_mismatch_exits_1(self, capsys):
        code, _, err = run(
            capsys, "centralizer", "--q", "3", "--n", "4", "--orbits", "0,4^2"
        )
        assert code == 1
        assert "dimension" in err

    def test_zero_modulus_exits_1(self, capsys):
        code, out, err = run(
            capsys, "centralizer", "--q", "3", "--n", "3", "--orbits", "0,4^2",
            "--modulus", "0",
        )
        assert code == 1
        assert out == ""
        assert err == "error: modulus 0 is not q^2d - 1 for q = 3\n"

    def test_prime_power_field(self, capsys):
        code, out, err = run(
            capsys, "centralizer", "--q", "9", "--n", "3", "--orbits", "0^3"
        )
        assert code == 0
        assert err == ""
        assert out == (
            "no factors away from eigenvalue 1\n"
            "eigenvalue-1 block: dimension 3 (witt index 1, parity 1)\n"
            "l = 0\n"
        )

    def test_non_prime_power_field_exits_1(self, capsys):
        code, out, err = run(
            capsys, "centralizer", "--q", "15", "--n", "3", "--orbits", "0^3"
        )
        assert code == 1
        assert out == ""
        assert err == "error: q = 15 is not an odd prime power\n"

    def test_large_prime_field_answers(self, capsys):
        # the largest prime below the field size bound 2^24
        code, out, err = run(
            capsys, "centralizer", "--q", str(2**24 - 3), "--n", "3", "--orbits", "0^3"
        )
        assert (code, err) == (0, "")
        assert out.startswith("no factors away from eigenvalue 1\n")

    def test_field_past_the_exact_test_exits_1(self, capsys):
        # the bound itself, and a prime far past it
        for q in (2**24, 2**61 - 1):
            code, out, err = run(
                capsys, "centralizer", "--q", str(q), "--n", "3", "--orbits", "0^3"
            )
            assert (code, out) == (1, "")
            assert err == (
                f"error: q = {q} is too large: field sizes must be below 2^24 = 16777216\n"
            )

    def test_dash_is_the_empty_orbit_list(self, capsys):
        dash = run(capsys, "centralizer", "--q", "3", "--n", "0", "--orbits", "-")
        empty = run(capsys, "centralizer", "--q", "3", "--n", "0", "--orbits", "")
        assert dash[0] == 0
        assert dash[:2] == empty[:2]

    def test_zero_modulus_without_orbits_exits_1(self, capsys):
        code, out, err = run(
            capsys, "centralizer", "--q", "3", "--n", "0", "--orbits", "",
            "--modulus", "0",
        )
        assert code == 1
        assert out == ""
        assert err == "error: modulus 0 is not q^2d - 1 for q = 3\n"


class TestTransport:
    def test_unipotent_anchor(self, capsys):
        code, out, _ = run(
            capsys, "transport", "--support", "-", "--phi-k", "0",
            "--m", "0", "--mp", "2",
        )
        assert code == 0
        assert out == "GL part: 1:1, 1:1\nanchor: cuspidal unipotent k=0\n"

    def test_generic_anchor_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "transport", "--support", "1:a", "--phi", "c",
            "--first-occurrence", "1", "--m", "2", "--mp", "3", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["zero"] is False
        assert payload["support"]["phi"]["first_occurrence"] == 1

    def test_zero_marker(self, capsys):
        code, out, _ = run(
            capsys, "transport", "--support", "-", "--phi-k", "2",
            "--m", "1", "--mp", "0", "--parity-p", "0",
        )
        assert code == 0
        assert out == "zero\n"

    def test_missing_anchor_exits_1(self, capsys):
        code, _, err = run(
            capsys, "transport", "--support", "-", "--m", "1", "--mp", "1"
        )
        assert code == 1
        assert "anchor required" in err

    def test_anchor_outside_its_home_tower_exits_1(self, capsys):
        # k = 1 lives in the odd tower only, as theta --k 1 --parity 0 says
        code, out, err = run(
            capsys, "transport", "--support", "-", "--phi-k", "1",
            "--m", "0", "--mp", "2", "--parity", "0",
        )
        assert code == 1
        assert out == ""
        assert err == "error: series k=1 does not live in a tower of dimension parity 0\n"


class TestOmegaFull:
    def test_trivial_class_json(self, capsys):
        code, out, _ = run(
            capsys, "omega-full", "--pair", "1:1", "--base-k", "0",
            "--q", "3", "--orbits", "0^2", "--m", "1", "--mp", "1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pairing"] == "diagonal"
        assert payload["l"] == 0
        table = omega_unipotent(TowerContext(1, 0), TowerContext(1, 0), 0)
        assert payload["unipotent_table"] == table.to_json_dict()

    def test_dimension_mismatch_exits_1(self, capsys):
        code, _, err = run(
            capsys, "omega-full", "--pair", "1:1", "--base-k", "0",
            "--q", "3", "--orbits", "0^5", "--m", "1", "--mp", "1",
        )
        assert code == 1
        assert err.startswith("error:")

    def test_zero_modulus_exits_1(self, capsys):
        code, out, err = run(
            capsys, "omega-full", "--pair", "1:1", "--base-k", "0",
            "--q", "3", "--orbits", "0^2", "--m", "1", "--mp", "1",
            "--modulus", "0",
        )
        assert code == 1
        assert out == ""
        assert err == "error: modulus 0 is not q^2d - 1 for q = 3\n"


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-rank", "1")
        assert code == 0
        assert out.rstrip().endswith("all properties passed")
        assert "FAIL" not in out

    def test_rank_validation_exits_1(self, capsys):
        code, _, err = run(capsys, "verify", "--max-rank", "0")
        assert code == 1
        assert err.startswith("error:")

    def test_failure_exits_2(self, capsys, monkeypatch):
        from howecorr import verify
        from howecorr.verify import CheckResult

        def fake(max_rank, seed):
            return [CheckResult("stub", False, "forced failure")]

        monkeypatch.setattr(verify, "run_verification", fake)
        code, out, _ = run(capsys, "verify")
        assert code == 2
        assert "PROPERTY FAILURES" in out


class TestOneRendererPerFormat:
    TABLE_COMMANDS = sorted(name for name in CORPUS if name.startswith("omega"))

    @pytest.mark.parametrize("name", TABLE_COMMANDS)
    @pytest.mark.parametrize(
        "flags, suffix, unused",
        ((["--json"], "json", "to_text"), ([], "txt", "to_json_dict")),
    )
    def test_golden_output_without_the_other_renderer(
        self, capsys, monkeypatch, name, flags, suffix, unused
    ):
        def forbidden(table):
            raise AssertionError(f"{unused} called")

        monkeypatch.setattr(MultiplicityTable, unused, forbidden)
        code, out, _ = run(capsys, *CORPUS[name], *flags)
        assert code == 0
        assert out.encode() == gzip.decompress(
            (GOLDEN / f"{name}.{suffix}.gz").read_bytes()
        )

    @pytest.mark.parametrize("convention", unipotent.SGN_CONVENTIONS)
    def test_text_of_a_table_in_sum_order(self, convention):
        # the reference builds entries in the order of its sum, not row by
        # row: second-kind tables, k = 0 against k' = 1 and k = 2 against 1
        for args in ((3, 0, 2, 1, 0), (4, 0, 4, 1, 0), (6, 1, 5, 0, 2)):
            want = omega_unipotent(
                TowerContext(*args[:2]), TowerContext(*args[2:4]), args[4],
                convention=convention,
            )
            got = reference_pieri.omega_table(*args, convention)
            assert want.formula == "second-kind"
            assert got.to_text() == want.to_text(), args


def _written(value) -> str:
    out = io.StringIO()
    cli._write_json(value, out.write)
    return out.getvalue()


# JSON trees of the types the CLI emits, with the writer's fast paths drawn
# on purpose: int lists, equal-length int rows, and bools beside ints, which
# must stay off those paths; test_full_and_partial_row_templates takes the
# row lists longer than one template
_INTS = st.integers() | st.integers(-(2**80), 2**80)
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\n\t\x7f\u00e9\u2028\U0001f600') | st.characters())
_LEAVES = st.none() | st.booleans() | _INTS | _TEXT
_INT_ROWS = st.integers(0, 4).flatmap(
    lambda width: st.lists(
        st.lists(_INTS, min_size=width, max_size=width).map(tuple)
        | st.lists(_INTS | st.booleans(), min_size=width, max_size=width),
        max_size=6,
    )
)
_TREES = st.recursive(
    _LEAVES | st.lists(_INTS | st.booleans()) | _INT_ROWS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=4)
    ),
    max_leaves=12,
)


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(value=_TREES)
    def test_bytes_are_json_dumps(self, value):
        assert _written(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_full_and_partial_row_templates(self):
        for count in (cli._ROWS - 1, cli._ROWS, 2 * cli._ROWS + 1):
            rows = [[i, -i, 2**70 + i] for i in range(count)]
            assert _written({"entries": rows}) == json.dumps(
                {"entries": rows}, indent=2, sort_keys=True
            )

    @pytest.mark.parametrize(
        "value", [1.5, [1, 2.0], [[1, 2], [3, 4.0]], {"a": float("nan")}, {1: 2}, {"a": 1, 2: 3}]
    )
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _written(value)


def _assert_closed_stdout_exits_1(*flags):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "howecorr", "omega", "--m", "10", "--mp", "10", "--k", "0",
         *flags],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first.strip()
    assert "Traceback" not in err and "Exception ignored" not in err
    assert len(err.splitlines()) <= 1


def test_closed_stdout_exits_1_without_a_traceback():
    # the omega text at r = r' = 10 is several MB, far beyond any pipe
    # buffer, so the writer must meet the closed pipe
    _assert_closed_stdout_exits_1()


def test_closed_stdout_mid_json_exits_1_without_a_traceback():
    # the JSON at r = r' = 10 (355 kB) is written in chunks, so the
    # closed pipe is met between two writes, not in one print
    _assert_closed_stdout_exits_1("--json")


# Argv for the fuzz: every flag of a subcommand with a rank from -2 to 7 or
# a well-formed token, except that one flag may be left out and one may
# carry a malformed token; None leaves an optional flag out.
_MALFORMED = st.sampled_from(["3,,1", "x", "^2", "1:", ""])
_INT = st.integers(-2, 7).map(str)
_OPTIONAL = st.none() | _INT
_LABEL = st.sampled_from(["-", "1", "2,1", "1,1"])
_GL = st.sampled_from(["-", "1:1", "2:rho", "1:1,2:rho"])
_ORBITS = st.sampled_from(["0^3,4^2", "4", "0", "-"])
_CONVENTION = st.none() | st.sampled_from(SGN_CONVENTIONS)
_SERIES = {
    "--m": _INT, "--mp": _INT, "--k": _INT, "--parity": _OPTIONAL,
    "--parity-p": _OPTIONAL, "--convention": _CONVENTION,
}
_FUZZ_FLAGS = {
    "omega": _SERIES,
    "theta": {**_SERIES, "--alpha": _LABEL, "--beta": _LABEL},
    "extremal": {**_SERIES, "--alpha": _LABEL, "--beta": _LABEL},
    "centralizer": {"--q": _INT, "--n": _INT, "--orbits": _ORBITS, "--modulus": _OPTIONAL},
    "transport": {
        "--support": _GL, "--phi-k": _OPTIONAL, "--phi": st.none() | _LABEL,
        "--first-occurrence": _OPTIONAL, "--partner-label": st.none() | _LABEL,
        "--m": _INT, "--mp": _INT, "--parity": _OPTIONAL, "--parity-p": _OPTIONAL,
    },
    "omega-full": {
        "--pair": _GL, "--base-k": _INT, "--q": _INT, "--orbits": _ORBITS,
        "--modulus": _OPTIONAL, "--m": _INT, "--mp": _INT, "--parity-p": _OPTIONAL,
        "--convention": _CONVENTION,
    },
    "verify": {"--max-rank": _OPTIONAL, "--seed": _OPTIONAL},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    flags = _FUZZ_FLAGS[command]
    left_out, malformed = (
        draw(st.sets(st.sampled_from(sorted(flags)), max_size=1)) for _ in range(2)
    )
    argv = [command]
    for flag, values in flags.items():
        value = draw(_MALFORMED if flag in malformed else values)
        if flag not in left_out and value is not None:
            argv += [flag, value]
    return argv + draw(st.sampled_from([[], ["--json"], ["--text"], ["--json", "--text"]]))


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
def test_every_argv_exits_cleanly(argv):
    """Exit code 0, 1 or 2 and at most one line on stderr, never a
    traceback; argparse errors arrive as SystemExit(1)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    assert code in (0, 1, 2), argv
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


# Tokens that the table parser must decline, or (repeated flags, "-" as a
# value) accept exactly as argparse does; each goes in as a new token, or
# in place of a flag's value.
_INJECTED = st.sampled_from([
    "--conv", "--par", "--m=3", "--alpha=1", "-", "-1", "-1.5", "-²", "--", "-h",
    "stray", "", "--json", "--text",
])


@st.composite
def _mangled_argv(draw):
    argv = draw(_argv())
    for _ in range(draw(st.integers(1, 3))):
        values = [i for i in range(2, len(argv)) if argv[i - 1].startswith("--")]
        action = draw(st.sampled_from(["insert", "replace", "repeat"]))
        if action == "replace" and values:
            argv[draw(st.sampled_from(values))] = draw(_INJECTED)
        elif action == "repeat" and values:
            at = draw(st.sampled_from(values))
            argv[at + 1:at + 1] = argv[at - 1:at + 1]  # the flag and its value
        else:
            at = draw(st.integers(0, len(argv)))
            argv[at:at] = [draw(_INJECTED)]
    return argv


@settings(max_examples=600, deadline=None)
@given(argv=_mangled_argv())
def test_table_parser_matches_the_reference(argv):
    """The table parser gives the reference parser's namespace, handler
    included, or its exit code, stdout and stderr."""
    want = _outcome(_REFERENCE, argv)
    assert _outcome(cli.build_parser(), argv) == want, argv
