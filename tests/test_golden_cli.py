"""CLI output on a fixed corpus of invocations, in both formats, byte for
byte against recorded golden files.

The files under ``tests/golden/`` are gzip-compressed stdout of
``howecorr <argv> --json`` (``<name>.json.gz``) and of ``howecorr <argv>``
(``<name>.txt.gz``), one pair per corpus entry.  To record them again from
the current source (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import gzip
import io
import pathlib

import pytest

from howecorr.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# omega at r = r' in {2, 6, 10} over both kinds and both conventions, one
# zero table, theta/extremal on labels at r = 10 (one empty image), and the
# verification suite at its largest rank, every check's detail string.
CORPUS = {
    "omega_r2_first_coxeter": ["omega", "--m", "2", "--mp", "2", "--k", "0"],
    "omega_r2_second_sign_changes": [
        "omega", "--m", "2", "--mp", "2", "--k", "0", "--parity-p", "1",
        "--convention", "sign_changes",
    ],
    "omega_r6_first_sign_changes": [
        "omega", "--m", "6", "--mp", "7", "--k", "1", "--convention", "sign_changes",
    ],
    "omega_r6_second_coxeter": ["omega", "--m", "7", "--mp", "6", "--k", "2"],
    "omega_r10_first_sign_changes": [
        "omega", "--m", "10", "--mp", "10", "--k", "0", "--convention", "sign_changes",
    ],
    "omega_r10_second_coxeter": ["omega", "--m", "11", "--mp", "10", "--k", "2"],
    "omega_zero_below_first_occurrence": [
        "omega", "--m", "3", "--mp", "2", "--k", "2", "--parity-p", "0",
    ],
    "theta_r10_first_coxeter": [
        "theta", "--m", "10", "--mp", "10", "--k", "0", "--alpha", "4,3,1", "--beta", "2",
    ],
    "theta_r10_second_sign_changes": [
        "theta", "--m", "11", "--mp", "10", "--k", "2", "--alpha", "3",
        "--beta", "4,2,1", "--convention", "sign_changes",
    ],
    "theta_r10_empty_image": [
        "theta", "--m", "10", "--mp", "4", "--k", "0", "--alpha", "2,2", "--beta", "3,3",
    ],
    "extremal_r10_first_coxeter": [
        "extremal", "--m", "10", "--mp", "11", "--k", "1", "--alpha", "5,2", "--beta", "2,1",
    ],
    "extremal_r10_second_sign_changes": [
        "extremal", "--m", "10", "--mp", "10", "--k", "0", "--parity-p", "1",
        "--alpha", "2,1", "--beta", "3,3,1", "--convention", "sign_changes",
    ],
    "verify_max_rank_6": ["verify", "--max-rank", "6"],
    # the reduction layer (lusztig): centralizers with a -1 block, a linear
    # factor and a non-default modulus; transports that pad, carry a generic
    # anchor and remove trivial entries; omega-full without and with a
    # factor away from eigenvalue 1
    "centralizer_n3_minus_one": ["centralizer", "--q", "3", "--n", "3", "--orbits", "0,4^2"],
    "centralizer_n6_linear": ["centralizer", "--q", "3", "--n", "6", "--orbits", "0^2,1^2"],
    "centralizer_n6_modulus_80": [
        "centralizer", "--q", "3", "--n", "6", "--orbits", "0^2,1", "--modulus", "80",
    ],
    "transport_pads_trivial_entries": [
        "transport", "--support", "-", "--phi-k", "0", "--m", "0", "--mp", "2",
    ],
    "transport_generic_anchor": [
        "transport", "--support", "1:a,1:1", "--phi", "c", "--first-occurrence", "1",
        "--m", "2", "--mp", "3",
    ],
    "transport_removes_trivial_entries": [
        "transport", "--support", "2:rho,1:1,1:1", "--phi-k", "1", "--m", "4",
        "--mp", "2", "--parity-p", "0",
    ],
    "omega_full_unipotent_only": [
        "omega-full", "--pair", "1:1", "--base-k", "0", "--q", "3", "--orbits", "0^2",
        "--m", "1", "--mp", "1",
    ],
    "omega_full_with_factor": [
        "omega-full", "--pair", "1:1,1:1", "--base-k", "1", "--q", "3",
        "--orbits", "0^5,4^2", "--m", "3", "--mp", "4", "--parity-p", "1",
    ],
}


def _stdout(argv, flags=("--json",)) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + list(flags))
    assert code == 0, argv
    return buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_json_output_matches_the_golden_file(name):
    want = gzip.decompress((GOLDEN / f"{name}.json.gz").read_bytes())
    assert _stdout(CORPUS[name]) == want


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_text_output_matches_the_golden_file(name):
    want = gzip.decompress((GOLDEN / f"{name}.txt.gz").read_bytes())
    assert _stdout(CORPUS[name], flags=()) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CORPUS.items():
        for suffix, flags in ((".json", ("--json",)), (".txt", ())):
            (GOLDEN / f"{name}{suffix}.gz").write_bytes(
                gzip.compress(_stdout(argv, flags), mtime=0)
            )
