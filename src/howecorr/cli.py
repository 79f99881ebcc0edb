"""Command-line front end.

One subcommand per library entry point: ``omega`` prints a multiplicity
table, ``theta`` the image of one series label, ``extremal`` the least and
greatest image, ``centralizer`` a semisimple centralizer decomposition,
``transport`` a cuspidal support across the pair, ``omega-full`` the full
decomposition, and ``verify`` runs the oracle-equivalence suite.

Start-up: importing this module loads ``errors``, ``partitions`` and
``unipotent`` only, which is all that ``omega``, ``theta`` and ``extremal``
use; none of them imports ``dataclasses`` (and with it ``inspect``), and
text output does not import ``json``.  ``--json`` output imports it for
its string escaping alone: ``_write_json`` writes the bytes of
``json.dumps(value, indent=2, sort_keys=True)`` in chunks, so the whole text
is never held at once.  A well-formed command is parsed
from the flag table ``_COMMANDS`` and never imports ``argparse``; the
argparse parser generated from that table takes the rest (``--help``,
usage errors, values that start with "-"), so their text is argparse's.
``centralizer``, ``transport`` and ``omega-full`` import the reduction
layer (``lusztig``, no ``dataclasses`` either) when they run; ``verify``
imports ``verify`` and with it the W_n oracle (``hyperoctahedral``,
``symmetric``) and ``lusztig``.

Exit codes: 0 on success, 1 on validation errors (bad flags or
mathematically inconsistent input, one-line diagnostic on stderr) and when
stdout is closed before the output is written, 2 when an internal
cross-check fails; internal failures are never swallowed.

Mini-grammars: partitions are comma-separated parts ("3,1"; "-" or ""
for the empty partition); orbit lists are comma-separated
``exponent^multiplicity`` tokens ("0^3,4^2", "^1" may be omitted); GL
parts are comma-separated ``size:label`` tokens ("1:1,2:rho") where the
label ``1`` is reserved for the trivial cuspidal on GL_1.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import EmptyImageError, InternalCheckError, NonUniqueExtremeError
from .partitions import Partition, Bipartition
from .unipotent import (
    DEFAULT_SGN_CONVENTION,
    SGN_CONVENTIONS,
    SeriesLabel,
    TowerContext,
    _label_str,
    extremal_images,
    omega_unipotent,
    theta_cuspidal,
    theta_images,
    triangular,
)

if TYPE_CHECKING:
    from .lusztig import CuspidalSupport, SemisimpleDescriptor


def _tokens(text: str) -> list:
    """The comma-separated tokens of ``text``; "-" or "" is the empty list."""
    text = text.strip()
    return [] if text in ("", "-") else text.split(",")


def parse_partition(text: str) -> Partition:
    try:
        parts = [int(tok) for tok in _tokens(text)]
    except ValueError:
        raise ValueError(
            f"bad partition {text.strip()!r}: expected comma-separated parts"
        )
    return Partition(parts)


def parse_orbits(q: int, modulus: int, text: str) -> SemisimpleDescriptor:
    from .lusztig import SemisimpleDescriptor, orbit_closure

    orbits = []
    for token in filter(None, map(str.strip, _tokens(text))):
        exp, _, mult = token.partition("^")
        try:
            exponent = int(exp)
            multiplicity = int(mult) if mult else 1
        except ValueError:
            raise ValueError(
                f"bad orbit token {token!r}: expected exponent^multiplicity"
            )
        orbits.append(orbit_closure(q, modulus, exponent, multiplicity))
    return SemisimpleDescriptor(q, modulus, tuple(orbits))


def parse_gl_part(text: str) -> tuple:
    from .lusztig import GLCuspidal

    entries = []
    for token in _tokens(text):
        size, sep, label = token.strip().partition(":")
        if not sep:
            raise ValueError(f"bad GL token {token!r}: expected size:label")
        try:
            entries.append(GLCuspidal(int(size), label))
        except ValueError as err:
            raise ValueError(f"bad GL token {token!r}: {err}")
    return tuple(entries)


def _bp_json(bp: Bipartition) -> dict:
    return {"alpha": list(bp.alpha), "beta": list(bp.beta)}


def _contexts(args) -> tuple:
    home = triangular(args.k) % 2
    parity = home if args.parity is None else args.parity
    parity_p = home if args.parity_p is None else args.parity_p
    return TowerContext(args.m, parity), TowerContext(args.mp, parity_p)


def _cmd_omega(args):
    ctx, ctx_p = _contexts(args)
    table = omega_unipotent(ctx, ctx_p, args.k, convention=args.convention)
    return table.to_json_dict, table.to_text, 0


def _pi_of(args) -> SeriesLabel:
    return SeriesLabel(
        args.k, Bipartition(parse_partition(args.alpha), parse_partition(args.beta))
    )


def _cmd_theta(args):
    ctx, ctx_p = _contexts(args)
    pi = _pi_of(args)
    images = theta_images(pi, ctx, ctx_p, convention=args.convention)
    return (
        lambda: {
            "pi": {"k": pi.k, **_bp_json(pi.char_label)},
            "k_prime": theta_cuspidal(args.k, ctx_p.dim_parity),
            "zero": not images,
            "images": [
                {"k": lbl.k, **_bp_json(lbl.char_label), "multiplicity": mult}
                for lbl, mult in images
            ],
        },
        lambda: "\n".join(
            f"k'={lbl.k}  {_label_str(lbl.char_label)}  x{mult}" for lbl, mult in images
        )
        or "zero",
        0,
    )


def _cmd_extremal(args):
    ctx, ctx_p = _contexts(args)
    try:
        lo, hi = extremal_images(_pi_of(args), ctx, ctx_p, convention=args.convention)
    except EmptyImageError:
        return lambda: {"zero": True}, lambda: "zero", 0
    return (
        lambda: {
            "zero": False,
            "min": {"k": lo.k, **_bp_json(lo.char_label)},
            "max": {"k": hi.k, **_bp_json(hi.char_label)},
        },
        lambda: (
            f"min  k'={lo.k}  {_label_str(lo.char_label)}\n"
            f"max  k'={hi.k}  {_label_str(hi.char_label)}"
        ),
        0,
    )


def _semisimple(args) -> SemisimpleDescriptor:
    """The --orbits descriptor over F_q, modulo --modulus (default q^2 - 1)."""
    modulus = args.q * args.q - 1 if args.modulus is None else args.modulus
    return parse_orbits(args.q, modulus, args.orbits)


def _cmd_centralizer(args):
    from .lusztig import centralizer_decomposition

    s = _semisimple(args)
    ctx = TowerContext(args.n // 2, args.n % 2, args.q)
    factors, block, l = centralizer_decomposition(s, ctx)

    def text():
        lines = [
            f"{f.kind} of degree {f.size} over the degree-{f.field_degree} extension"
            for f in factors
        ] or ["no factors away from eigenvalue 1"]
        return "\n".join(lines) + (
            f"\neigenvalue-1 block: dimension {block.dimension} "
            f"(witt index {block.witt_index}, parity {block.dim_parity})\nl = {l}"
        )

    return (
        lambda: {
            "semisimple": s.to_json_dict(),
            "factors": [f.to_json_dict() for f in factors],
            "unipotent_block": {
                "dimension": block.dimension,
                "witt_index": block.witt_index,
                "dim_parity": block.dim_parity,
            },
            "l": l,
        },
        text,
        0,
    )


def _support_of(args) -> CuspidalSupport:
    from .lusztig import CuspidalSupport, GenericCuspidal, UnipotentCuspidal

    entries = parse_gl_part(args.support)
    if args.phi_k is not None:
        phi = UnipotentCuspidal(args.phi_k)
    else:
        if args.phi is None or args.first_occurrence is None:
            raise ValueError(
                "anchor required: either --phi-k, or --phi with --first-occurrence"
            )
        phi = GenericCuspidal(args.phi, args.first_occurrence, args.partner_label)
    return CuspidalSupport(entries, phi)


def _cmd_transport(args):
    from .lusztig import UnipotentCuspidal, transport_support

    support = _support_of(args)
    home = triangular(args.phi_k or 0) % 2  # a generic anchor: the even tower
    parity = home if args.parity is None else args.parity
    out = transport_support(
        support, TowerContext(args.m, parity), TowerContext(args.mp, args.parity_p)
    )
    if out is None:
        return lambda: {"zero": True}, lambda: "zero", 0

    def text():
        gl = ", ".join(f"{e.size}:{e.label}" for e in out.entries) or "-"
        phi = out.phi
        if isinstance(phi, UnipotentCuspidal):
            anchor = f"cuspidal unipotent k={phi.k}"
        else:
            anchor = f"cuspidal {phi.label!r} (first occurrence {phi.first_occurrence})"
        return f"GL part: {gl}\nanchor: {anchor}"

    return lambda: {"zero": False, "support": out.to_json_dict()}, text, 0


def _cmd_omega_full(args):
    from .lusztig import CuspidalPair, omega_full

    s = _semisimple(args)
    pair = CuspidalPair(parse_gl_part(args.pair), args.base_k, s)
    parity = s.dimension - 2 * args.m
    if parity not in (0, 1):
        raise ValueError(
            f"descriptor dimension {s.dimension} does not fit witt index {args.m}"
        )
    ctx = TowerContext(args.m, parity, args.q)
    ctx_p = TowerContext(args.mp, args.parity_p, args.q)
    full = omega_full(pair, ctx, ctx_p, convention=args.convention)

    def text():
        factors = ", ".join(
            f"{f.kind}(degree {f.size}, field degree {f.field_degree})"
            for f in full.hash_descriptor
        )
        return (
            f"factors away from eigenvalue 1: {factors or 'none'}\n"
            f"pairing: {full.pairing}\n"
            f"l = {full.l}, l' = {full.l_prime}\n" + full.unipotent_table.to_text()
        )

    return full.to_json_dict, text, 0


def _cmd_verify(args):
    from .verify import run_verification

    results = run_verification(max_rank=args.max_rank, seed=args.seed)
    passed = all(r.passed for r in results)
    footer = "all properties passed" if passed else "PROPERTY FAILURES, see lines above"
    return (
        lambda: [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        lambda: "\n".join([r.line() for r in results] + [footer]),
        0 if passed else 2,
    )


# Plain slotted records: creating a NamedTuple class takes 0.13-0.19 ms
# (Python 3.11), which every CLI process would pay at import.
class _Flag:
    __slots__ = ("name", "dest", "type", "choices", "default", "required", "help")

    def __init__(self, name, dest, type=str, choices=None, default=None,
                 required=False, help=None):
        self.name, self.dest, self.type, self.choices = name, dest, type, choices
        self.default, self.required, self.help = default, required, help


class _Command:
    __slots__ = ("help", "description", "handler", "flags")

    def __init__(self, help, description, handler, flags):
        self.help, self.description, self.handler, self.flags = (
            help, description, handler, flags
        )


_SERIES_FLAGS = (
    _Flag("--m", "m", int, required=True, help="witt index of the first group"),
    _Flag("--mp", "mp", int, required=True, help="witt index of the second"),
    _Flag("--k", "k", int, required=True, help="cuspidal unipotent index"),
    _Flag("--parity", "parity", int, (0, 1),
          help="dimension parity of the first tower (default: forced by k)"),
    _Flag("--parity-p", "parity_p", int, (0, 1),
          help="dimension parity of the second tower (default: same as the first)"),
    _Flag("--convention", "convention", choices=SGN_CONVENTIONS,
          default=DEFAULT_SGN_CONVENTION,
          help="which linear character plays the role of sgn"),
)
_LABEL_FLAGS = (
    _Flag("--alpha", "alpha", required=True, help="first component of the label"),
    _Flag("--beta", "beta", required=True, help="second component of the label"),
)
# every subcommand ends with these two, which exclude each other
_FORMAT_FLAGS = (
    ("--json", "machine-readable output"),
    ("--text", "aligned text (default)"),
)

# The whole CLI grammar.  _parse_well_formed reads it for every argv, and
# _argparse_parser generates from it the parser of --help and usage errors.
_COMMANDS = {
    "omega": _Command(
        "multiplicity table of a pair of series",
        "Multiplicity table of the k-series of the first group against "
        "its partner series of the second.  The table depends on which group of "
        "the pair is listed first.  For U_3 x U_2, --m 1 --mp 1 --k 1 --parity 1 "
        "--parity-p 0 gives a first-kind table with three cells of multiplicity "
        "1; the same pair listed from U_2, --m 1 --mp 1 --k 0 --parity 0 "
        "--parity-p 1, gives a second-kind table with cells of multiplicity 1 "
        "and 2.",
        _cmd_omega,
        _SERIES_FLAGS,
    ),
    "theta": _Command(
        "image of one series label", None, _cmd_theta, _SERIES_FLAGS + _LABEL_FLAGS
    ),
    "extremal": _Command(
        "least and greatest image of a label", None, _cmd_extremal,
        _SERIES_FLAGS + _LABEL_FLAGS,
    ),
    "centralizer": _Command(
        "centralizer of a semisimple class", None, _cmd_centralizer, (
            _Flag("--q", "q", int, required=True, help="odd prime power"),
            _Flag("--n", "n", int, required=True, help="ambient dimension"),
            _Flag("--orbits", "orbits", required=True, help="exponent^multiplicity,..."),
            _Flag("--modulus", "modulus", int, help="default q^2-1"),
        ),
    ),
    "transport": _Command(
        "carry a cuspidal support across the pair", None, _cmd_transport, (
            _Flag("--support", "support", required=True, help="GL part, size:label,..."),
            _Flag("--phi-k", "phi_k", int, help="anchor is the k-th cuspidal unipotent"),
            _Flag("--phi", "phi", help="opaque anchor label"),
            _Flag("--first-occurrence", "first_occurrence", int,
                  help="partner witt index where the anchor first occurs"),
            _Flag("--partner-label", "partner_label",
                  help="name of the transported anchor"),
            _Flag("--m", "m", int, required=True),
            _Flag("--mp", "mp", int, required=True),
            _Flag("--parity", "parity", int, (0, 1)),
            _Flag("--parity-p", "parity_p", int, (0, 1), 0),
        ),
    ),
    "omega-full": _Command(
        "decomposition for an arbitrary series", None, _cmd_omega_full, (
            _Flag("--pair", "pair", required=True,
                  help="GL part of the cuspidal pair, size:label,..."),
            _Flag("--base-k", "base_k", int, required=True),
            _Flag("--q", "q", int, required=True),
            _Flag("--orbits", "orbits", required=True, help="exponent^multiplicity,..."),
            _Flag("--modulus", "modulus", int),
            _Flag("--m", "m", int, required=True),
            _Flag("--mp", "mp", int, required=True),
            _Flag("--parity-p", "parity_p", int, (0, 1), 0),
            _Flag("--convention", "convention", choices=SGN_CONVENTIONS,
                  default=DEFAULT_SGN_CONVENTION),
        ),
    ),
    "verify": _Command(
        "run the oracle-equivalence suite", None, _cmd_verify, (
            _Flag("--max-rank", "max_rank", int, default=3),
            _Flag("--seed", "seed", int, default=20260825),
        ),
    ),
}


def _parse_well_formed(argv: list) -> SimpleNamespace | None:
    """The namespace that argparse gives for ``argv``, or None when
    ``argv`` is not a subcommand followed by exact flags of it, each with a
    valid value, all required flags and at most one of --json and --text.

    A value that starts with "-" (other than "-" itself) is declined too:
    argparse alone decides whether such a token is a value or a flag."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    flags = {flag.name: flag for flag in command.flags}
    values = {flag.dest: flag.default for flag in command.flags}
    values.update(json=False, text=False)
    missing = {flag.dest for flag in command.flags if flag.required}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("--json", "--text"):
            values[token[2:]] = True
            continue
        flag = flags.get(token)
        value = next(tokens, None)
        if flag is None or value is None or value.startswith("-") and value != "-":
            return None
        try:
            value = flag.type(value)
        except (TypeError, ValueError):
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
        missing.discard(flag.dest)
    if missing or values["json"] and values["text"]:
        return None
    return SimpleNamespace(command=argv[0], **values, handler=command.handler)


@lru_cache(maxsize=1)
def _argparse_parser():
    """The argparse parser generated from _COMMANDS, for the argv that
    _parse_well_formed declines: it prints --help and every usage error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # validation failures must exit 1, not argparse's default 2
        def error(self, message):
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="howecorr", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.description)
        for flag in command.flags:
            p.add_argument(
                flag.name, dest=flag.dest, type=flag.type, choices=flag.choices,
                default=flag.default, required=flag.required, help=flag.help,
            )
        fmt = p.add_mutually_exclusive_group()
        for option, text in _FORMAT_FLAGS:
            fmt.add_argument(option, action="store_true", help=text)
        p.set_defaults(handler=command.handler)
    return parser


class _TableParser:
    """Parses argv from _COMMANDS; any argv that _parse_well_formed declines
    goes whole to the argparse parser generated from the same table."""

    def parse_args(self, argv=None):
        if argv is None:
            argv = sys.argv[1:]
        args = _parse_well_formed(argv)
        return _argparse_parser().parse_args(argv) if args is None else args


def build_parser() -> _TableParser:
    return _TableParser()


# rows of ints per template, and pieces per write, in _write_json
_ROWS = 128
_PIECES = 256


def _write_json(value, write) -> None:
    """Pass to ``write``, in chunks, the text of ``json.dumps(value,
    indent=2, sort_keys=True)`` for the JSON types the CLI emits: dicts with
    str keys, lists and tuples, str, exact ints, bools and None.  Any other
    type, or a key that is not a str, raises TypeError.

    A list of exact ints is joined at once, and a list of equal-length rows
    of exact ints (the omega entries) is formatted ``_ROWS`` rows to one
    ``%d`` template; the type checks keep bools out of ``%d``, which would
    print True as 1.  The pieces of the text go to one list, which is
    written out as soon as it holds ``_PIECES`` of them."""
    from json.encoder import encode_basestring_ascii as quote

    out, containers = [], (dict, list, tuple)

    def leaf(value) -> str:
        kind = type(value)
        if kind is str:
            return quote(value)
        if kind is int:
            return str(value)
        if kind is bool:
            return "true" if value else "false"
        if value is None:
            return "null"
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    def put(piece, item, indent):
        # a leaf is written with the piece before it, a container after it
        if type(item) in containers:
            out.append(piece)
            container(item, indent)
        else:
            out.append(piece + leaf(item))
        if len(out) >= _PIECES:
            write("".join(out))
            out.clear()

    def container(value, indent):
        if not value:
            out.append("{}" if type(value) is dict else "[]")
            return
        inner = indent + "  "
        if type(value) is dict:
            head = "{\n" + inner
            for key, item in sorted(value.items()):
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                put(head + quote(key) + ": ", item, inner)
                head = ",\n" + inner
            out.append("\n" + indent + "}")
            return
        sep = ",\n" + inner
        kinds = set(map(type, value))
        if kinds == {int}:
            out.append("[\n" + inner + sep.join(map(str, value)) + "\n" + indent + "]")
            return
        head = "[\n" + inner
        if (
            kinds <= {list, tuple}
            and len(set(map(len, value))) == 1
            and set(map(type, chain.from_iterable(value))) == {int}
        ):
            row = "[" + ",".join(["\n" + inner + "  %d"] * len(value[0])) + "\n" + inner + "]"
            count = 0
            for start in range(0, len(value), _ROWS):
                block = value[start:start + _ROWS]
                if len(block) != count:  # the first block, and a short last one
                    count = len(block)
                    template = sep.join([row] * count)
                out.append(head + template % tuple(chain.from_iterable(block)))
                head = sep
                if len(out) >= _PIECES:
                    write("".join(out))
                    out.clear()
        else:
            for item in value:
                put(head, item, inner)
                head = sep
        out.append("\n" + indent + "]")

    put("", value, "")
    write("".join(out))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # each handler returns both renderers; only the printed one runs.
        # The JSON value is built here, so that a ValueError prints nothing.
        to_json, to_text, code = args.handler(args)
        value = to_json() if args.json else to_text()
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (InternalCheckError, NonUniqueExtremeError) as err:
        print(f"internal check failed: {err}", file=sys.stderr)
        return 2
    try:
        if args.json:
            _write_json(value, sys.stdout.write)
            print()
        else:
            print(value)
        sys.stdout.flush()
    except BrokenPipeError:
        import os

        # The reader closed the pipe (``| head``).  Point stdout at devnull
        # so that the flush at interpreter shutdown does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
