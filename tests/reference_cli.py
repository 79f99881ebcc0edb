"""The command-line parser as it stood when ``add_argument`` calls stated
the grammar, kept as the reference that ``howecorr.cli`` must reproduce:
the same namespace for every argv it accepts, and the same ``--help`` text
and usage-error line for every argv it refuses.

Everything that decides the grammar is frozen here: the flags, their
order, types, choices, defaults and help strings, the ``--json``/``--text``
group and the exit code 1 of a usage error.  Only the handlers (so that
namespaces compare equal) and the sgn convention names come from the
library.
"""

import argparse

from howecorr.cli import (
    _cmd_centralizer,
    _cmd_extremal,
    _cmd_omega,
    _cmd_omega_full,
    _cmd_theta,
    _cmd_transport,
    _cmd_verify,
)
from howecorr.unipotent import DEFAULT_SGN_CONVENTION, SGN_CONVENTIONS


class _Parser(argparse.ArgumentParser):
    # validation failures must exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_format_flags(p):
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable output")
    fmt.add_argument("--text", action="store_true", help="aligned text (default)")


def _add_series_flags(p, with_label):
    p.add_argument("--m", type=int, required=True, help="witt index of the first group")
    p.add_argument("--mp", type=int, required=True, help="witt index of the second")
    p.add_argument("--k", type=int, required=True, help="cuspidal unipotent index")
    p.add_argument(
        "--parity",
        type=int,
        choices=(0, 1),
        default=None,
        help="dimension parity of the first tower (default: forced by k)",
    )
    p.add_argument(
        "--parity-p",
        type=int,
        choices=(0, 1),
        default=None,
        dest="parity_p",
        help="dimension parity of the second tower (default: same as the first)",
    )
    p.add_argument(
        "--convention",
        choices=SGN_CONVENTIONS,
        default=DEFAULT_SGN_CONVENTION,
        help="which linear character plays the role of sgn",
    )
    if with_label:
        p.add_argument("--alpha", required=True, help="first component of the label")
        p.add_argument("--beta", required=True, help="second component of the label")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="howecorr", description="Command-line front end.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser(
        "omega",
        help="multiplicity table of a pair of series",
        description="Multiplicity table of the k-series of the first group against "
        "its partner series of the second.  The table depends on which group of "
        "the pair is listed first.  For U_3 x U_2, --m 1 --mp 1 --k 1 --parity 1 "
        "--parity-p 0 gives a first-kind table with three cells of multiplicity "
        "1; the same pair listed from U_2, --m 1 --mp 1 --k 0 --parity 0 "
        "--parity-p 1, gives a second-kind table with cells of multiplicity 1 "
        "and 2.",
    )
    _add_series_flags(p, with_label=False)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_omega)

    p = sub.add_parser("theta", help="image of one series label")
    _add_series_flags(p, with_label=True)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_theta)

    p = sub.add_parser("extremal", help="least and greatest image of a label")
    _add_series_flags(p, with_label=True)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_extremal)

    p = sub.add_parser("centralizer", help="centralizer of a semisimple class")
    p.add_argument("--q", type=int, required=True, help="odd prime power")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--orbits", required=True, help="exponent^multiplicity,...")
    p.add_argument("--modulus", type=int, default=None, help="default q^2-1")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_centralizer)

    p = sub.add_parser("transport", help="carry a cuspidal support across the pair")
    p.add_argument("--support", required=True, help="GL part, size:label,...")
    p.add_argument("--phi-k", type=int, default=None, dest="phi_k",
                   help="anchor is the k-th cuspidal unipotent")
    p.add_argument("--phi", default=None, help="opaque anchor label")
    p.add_argument("--first-occurrence", type=int, default=None,
                   dest="first_occurrence",
                   help="partner witt index where the anchor first occurs")
    p.add_argument("--partner-label", default=None, dest="partner_label",
                   help="name of the transported anchor")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mp", type=int, required=True)
    p.add_argument("--parity", type=int, choices=(0, 1), default=None)
    p.add_argument("--parity-p", type=int, choices=(0, 1), default=0,
                   dest="parity_p")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_transport)

    p = sub.add_parser("omega-full", help="decomposition for an arbitrary series")
    p.add_argument("--pair", required=True,
                   help="GL part of the cuspidal pair, size:label,...")
    p.add_argument("--base-k", type=int, required=True, dest="base_k")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--orbits", required=True, help="exponent^multiplicity,...")
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mp", type=int, required=True)
    p.add_argument("--parity-p", type=int, choices=(0, 1), default=0,
                   dest="parity_p")
    p.add_argument("--convention", choices=SGN_CONVENTIONS,
                   default=DEFAULT_SGN_CONVENTION)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_omega_full)

    p = sub.add_parser("verify", help="run the oracle-equivalence suite")
    p.add_argument("--max-rank", type=int, default=3, dest="max_rank")
    p.add_argument("--seed", type=int, default=20260825)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_verify)

    return parser
