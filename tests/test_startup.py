"""Start-up behaviour, checked in fresh interpreters: which modules
``import howecorr`` and the cheap subcommands load, the public names of the
package, and the console entry point run as a process."""

import contextlib
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from test_golden_cli import CORPUS

import howecorr
from howecorr.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# The package namespace, by the submodule that defines each name.
PUBLIC = {
    "errors": ["InternalCheckError", "NonUniqueExtremeError", "RankBoundError"],
    "hyperoctahedral": ["build_character_table", "group_order"],
    "lusztig": [
        "TRIVIAL_GL", "CentralizerFactor", "CuspidalPair", "CuspidalSupport",
        "EigenvalueOrbit", "GLCuspidal", "GenericCuspidal", "OmegaFullDecomposition",
        "SemisimpleDescriptor", "UnipotentCuspidal", "centralizer_decomposition",
        "match_semisimple", "omega_full", "orbit_closure", "transport_series",
        "transport_support",
    ],
    "partitions": [
        "Bipartition", "Partition", "bipartition", "bipartition_dominance_leq",
        "bipartitions_of", "horizontal_strip_additions", "partitions_of",
        "vertical_strip_additions",
    ],
    "unipotent": [
        "DEFAULT_SGN_CONVENTION", "MultiplicityTable", "SeriesLabel", "TowerContext",
        "extremal_images", "omega_unipotent", "pieri_induction", "theta_cuspidal",
        "theta_images", "witt_index_of_cuspidal",
    ],
    "symmetric": [],
    "verify": ["CheckResult", "run_verification"],
}

# Names the package no longer has, by the submodule that defined them: the
# reduction layer's relabelling record and helpers that no caller used, and
# label-level restatements of the rules the package runs by index.
DELETED = {
    "hyperoctahedral": ["tensor_label_map"],
    "lusztig": [
        "LusztigCoordinates", "coordinates_in", "coordinates_out",
        "trivial_descriptor", "weyl_of_cuspidal_pair",
    ],
    "partitions": ["conjugate", "dominance_leq"],
    "symmetric": ["sn_character_value"],
    "unipotent": ["sgn_twist"],
}

# the W_n oracle, the reduction layer and the verification suite
HEAVY = ("howecorr.hyperoctahedral", "howecorr.symmetric", "howecorr.lusztig",
         "howecorr.verify")


def _python(*argv, check=True):
    """Run a fresh interpreter that imports howecorr from this checkout."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC),
           "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          timeout=120)
    if check:
        assert proc.returncode == 0, proc.stderr.decode()
    return proc


def _loaded_after(code: str) -> set:
    """The howecorr modules in sys.modules after running ``code``."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('howecorr'))))\n"
    )
    return set(json.loads(_python("-c", probe).stdout.decode().splitlines()[-1]))


# Import the CLI, build its parser and run one omega, theta and extremal
# call with stdout captured.
CHEAP_SUBCOMMANDS = (
    "import contextlib, io, sys\n"
    "import howecorr.cli as cli\n"
    "cli.build_parser()\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    for argv in (\n"
    "        ['omega', '--m', '3', '--mp', '3', '--k', '0'],\n"
    "        ['theta', '--m', '3', '--mp', '3', '--k', '0',\n"
    "         '--alpha', '2', '--beta', '1'],\n"
    "        ['extremal', '--m', '3', '--mp', '3', '--k', '0',\n"
    "         '--alpha', '2', '--beta', '1'],\n"
    "    ):\n"
    "        assert cli.main(argv) == 0, argv\n"
)


# One golden-corpus argv of each reduction subcommand.
REDUCTION_ARGVS = [
    CORPUS[name]
    for name in ("centralizer_n6_linear", "transport_generic_anchor", "omega_full_with_factor")
]


class TestImportSurface:
    def test_bare_import_loads_no_submodule(self):
        assert _loaded_after("import howecorr") == {"howecorr"}

    def test_cheap_subcommands_load_no_heavy_layer(self):
        loaded = _loaded_after(CHEAP_SUBCOMMANDS)
        assert "howecorr.unipotent" in loaded
        assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))

    def test_text_output_does_not_import_json(self):
        proc = _python("-c", (
            "import contextlib, io, sys\n"
            "import howecorr.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['theta', '--m', '3', '--mp', '3', '--k', '0',\n"
            "                     '--alpha', '2', '--beta', '1']) == 0\n"
            "print('json' in sys.modules)\n"
        ))
        assert proc.stdout.decode().split() == ["False"]

    def test_cheap_subcommands_do_not_import_dataclasses(self):
        """``dataclasses`` loads ``inspect`` (and ``ast``, ``dis``,
        ``tokenize``), the largest import a CLI process could pay."""
        proc = _python("-c", CHEAP_SUBCOMMANDS + (
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        ))
        assert proc.stdout.decode().splitlines() == ["[]"]

    def test_reduction_subcommands_do_not_import_dataclasses(self):
        """The reduction layer's records are ``_Record``s, as the tower
        context and the table are, so ``centralizer``, ``transport`` and
        ``omega-full`` start without ``dataclasses`` too."""
        proc = _python("-c", (
            "import contextlib, io, sys\n"
            "import howecorr.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    for argv in {REDUCTION_ARGVS!r}:\n"
            "        for flags in ([], ['--json']):\n"
            "            assert cli.main(argv + flags) == 0, argv\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        ))
        assert proc.stdout.decode().splitlines() == ["[]"]

    def test_cheap_subcommands_do_not_import_argparse(self):
        """A well-formed argv is parsed from the flag table; only --help
        and usage errors load ``argparse`` (and with it ``gettext``)."""
        proc = _python("-c", CHEAP_SUBCOMMANDS + (
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
        ))
        assert proc.stdout.decode().splitlines() == ["[]"]

    def test_reduction_subcommands_load_lusztig_only(self):
        loaded = _loaded_after(
            "import contextlib, io\n"
            "import howecorr.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['centralizer', '--q', '3', '--n', '3',\n"
            "                     '--orbits', '0,4^2']) == 0\n"
        )
        assert "howecorr.lusztig" in loaded
        assert "howecorr.verify" not in loaded
        assert "howecorr.hyperoctahedral" not in loaded


class TestPublicNames:
    def test_all_is_the_pinned_list(self):
        pinned = sorted(name for names in PUBLIC.values() for name in names)
        assert sorted(howecorr.__all__) == pinned
        assert sorted(dir(howecorr)) == pinned

    @pytest.mark.parametrize(
        "module, name", [(m, n) for m, names in PUBLIC.items() for n in names]
    )
    def test_name_is_the_submodule_object(self, module, name):
        want = getattr(importlib.import_module(f"howecorr.{module}"), name)
        assert getattr(howecorr, name) is want
        namespace = {}
        exec(f"from howecorr import {name}", namespace)
        assert namespace[name] is want

    @pytest.mark.parametrize(
        "module, name", [(m, n) for m, names in DELETED.items() for n in names]
    )
    def test_deleted_name_is_gone(self, module, name):
        assert not hasattr(importlib.import_module(f"howecorr.{module}"), name)
        with pytest.raises(AttributeError, match=name):
            getattr(howecorr, name)
        with pytest.raises(ImportError):
            exec(f"from howecorr import {name}", {})

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            howecorr.no_such_name
        with pytest.raises(ImportError):
            exec("from howecorr import no_such_name", {})

    def test_submodules_resolve_after_a_bare_import(self):
        _python("-c", (
            "import sys\n"
            "import howecorr\n"
            "for name in ('verify', 'lusztig', 'symmetric'):\n"
            "    assert getattr(howecorr, name) is sys.modules['howecorr.' + name], name\n"
        ))


# One small invocation per subcommand.
INVOCATIONS = [
    ["omega", "--m", "2", "--mp", "2", "--k", "0"],
    ["theta", "--m", "4", "--mp", "4", "--k", "0", "--alpha", "2,1", "--beta", "1",
     "--json"],
    ["extremal", "--m", "4", "--mp", "5", "--k", "1", "--alpha", "2", "--beta", "1,1"],
    ["centralizer", "--q", "3", "--n", "3", "--orbits", "0,4^2", "--json"],
    ["transport", "--support", "1:a", "--phi", "c", "--first-occurrence", "1",
     "--m", "2", "--mp", "3"],
    ["omega-full", "--pair", "1:1", "--base-k", "0", "--q", "3", "--orbits", "0^2",
     "--m", "1", "--mp", "1", "--json"],
    ["verify", "--max-rank", "2"],
]


class TestConsoleEntryPoint:
    @pytest.mark.parametrize("argv", INVOCATIONS, ids=lambda argv: argv[0])
    def test_process_matches_in_process_main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        proc = _python("-m", "howecorr", *argv, check=False)
        assert code == 0
        assert (proc.returncode, proc.stdout) == (code, buf.getvalue().encode())
        assert proc.stderr == b""

    def test_help_exits_0(self):
        proc = _python("-m", "howecorr", "omega", "--help")
        assert proc.stdout.decode().startswith("usage: howecorr omega")
        assert proc.stderr == b""

    def test_bad_flag_exits_1_with_one_line(self):
        proc = _python("-m", "howecorr", "omega", "--m", "x", "--mp", "1", "--k", "0",
                       check=False)
        assert proc.returncode == 1
        assert proc.stdout == b""
        err = proc.stderr.decode()
        assert err == "howecorr omega: error: argument --m: invalid int value: 'x'\n"
