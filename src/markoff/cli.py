"""Command-line front end.

Subcommands: verify, tree, descend, euclid, count signatures, count
solutions.  All outputs are JSON unless --format says otherwise.  JSON has
the layout of json.dumps(..., indent=2), with lists, tuples and their
subclasses as arrays, and is written to stdout piece by piece as the value
is walked, so a large tree is never held as one string; counts check their
digit caps before anything is written.

Exit codes: 0 success, 1 failed verification, 2 usage, parse or file error
(such as an unwritable --solutions-out path), 3 budget exceeded, 141 (128 +
SIGPIPE, as a shell reports a process that signal ended) when the reader
closes stdout early, as `| head` does, with nothing on stderr.  Fixed caps,
each checked before the work it bounds starts, end with exit 3: a tree
depth above triples.MAX_TREE_DEPTH, a tree whose coefficient count,
predicted from the root's degrees, is above triples.MAX_TREE_COEFFS, a
euclid depth above euclid.MAX_LAYER, more candidate pairs for --brute than
oracle.MAX_CANDIDATE_PAIRS, a power or product in a polynomial expression
above the parser's degree cap, a count with more digits than can be
printed, and a factorization needing trial divisors above its cap or with
more divisors than the divisor-terms cap.

A well-formed command is parsed by a parser of its own, found from argv's
first one or two words and built from the same function that adds the
command's arguments to the full parser.  When argv names no command, or the
command's parser leaves arguments over, the full parser parses argv again,
so every usage error, help text and exit code is argparse's own.  Each
parser is built on its first use in the process and reused by every later
call; nothing mutates it, and each parse fills a fresh Namespace.  JSON
strings are quoted by CPython's C encoder; only a float, an int subclass or
an unsupported value loads the json package, to be written as json.dumps
writes it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from _json import encode_basestring_ascii

from . import euclid as euclid_mod
from .counting import C_A_from_C_beta, count_C_beta, count_finite_field, cumulative_signatures
from .errors import BudgetExceeded, MarkoffError, ParseError
from .field import PrimeModulus, sqrt_minus_one
from .oracle import CONVENTIONS, census
from .poly import NEG_INF, parse_poly
from .triples import ConstantForm, MarkoffContext, MarkoffTriple, ZeroForm, is_fundamental


def _context(args, prime: int) -> MarkoffContext:
    mod = PrimeModulus(prime)
    a = parse_poly(args.A, mod, 0, "A")
    if a.is_zero():
        raise ValueError("--A must be a nonzero polynomial")
    return MarkoffContext(mod, a)


def _parse_triple(text: str, mod: PrimeModulus) -> MarkoffTriple:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError("triple must look like (x; y; z)", 0)
    parts = s[1:-1].split(";")
    if len(parts) != 3:
        raise ParseError("triple needs exactly three ';'-separated parts", 0)
    coords = []
    start = len(text) - len(text.lstrip()) + 1  # of x in the whole argument
    for name, part in zip("xyz", parts):
        coords.append(parse_poly(part, mod, start, name))
        start += len(part) + 1
    return MarkoffTriple(*coords)


def _style(mod: PrimeModulus) -> str:
    return "with_i" if sqrt_minus_one(mod) is not None else "plain"


def _signature_json(triple: MarkoffTriple) -> list:
    return [None if d == NEG_INF else d for d in triple.signature()]


# The writer keeps the text of each int in [0, MAX_CACHED_TEXTS) in a cache
# made per _emit call, so its memory is bounded whatever the output: full, it
# holds about 0.5 MB (tracemalloc, CPython 3.11).  Each residue mod p < 4096 is
# converted once: the depth-10 tree at p = 13 writes 360,433 coefficients of 13
# distinct values.  Any other int misses, and a miss costs a Python call more
# than str alone.  Keys are quoted by json's C encoder, as json.dumps quotes a
# string.  Writer time against str and json.dumps per value, best of 9 runs
# in each of 3-5 interleaved processes (2-vCPU x86-64 host): that tree 98-150
# -> 52-83 ms, but a depth-9 tree at p = 2147483629, where nearly every int
# misses, 61-75 -> 84-165 ms.  No benchmark workload writes such a tree.
MAX_CACHED_TEXTS = 1 << 12


class _IntTexts(dict):
    """Text of an int; the text of one in [0, MAX_CACHED_TEXTS) is kept."""

    def __missing__(self, value):
        text = str(value)
        if 0 <= value < MAX_CACHED_TEXTS:
            self[value] = text
        return text


def _emit(obj):
    """Print obj as indent-2 JSON and a newline, piece by piece, so that the
    document is never held as one string; lists, tuples and their subclasses
    are written as arrays, and keys are strings."""
    write = sys.stdout.write
    _write_json(obj, "\n", write, _IntTexts())
    write("\n")


def _write_json(value, pad, write, ints):
    # pad is a newline and the indent of the line that value starts on; ints
    # is the _emit call's text cache
    kind = type(value)
    if kind is int:
        write(ints[value])
        return
    if kind is not dict and kind is not list and kind is not tuple:
        # a subclass, such as a NamedTuple, after the exact types of the hot path
        if isinstance(value, dict):
            kind = dict
        elif not isinstance(value, (list, tuple)):
            if value is None or value is True or value is False:
                write("null" if value is None else "true" if value else "false")
            elif kind is str:
                write(encode_basestring_ascii(value))
            else:
                # floats, int subclasses and unsupported types (TypeError),
                # as json.dumps writes them; only they load json
                import json

                write(json.dumps(value))
            return
    if not value:
        write("{}" if kind is dict else "[]")
    elif kind is dict:
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            write(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, write, ints)
            sep = "," + inner
        write(pad + "}")
    else:
        inner = pad + "  "
        if set(map(type, value)) == {int}:  # a coefficient list: one piece
            write("[" + inner + ("," + inner).join(map(ints.__getitem__, value)) + pad + "]")
            return
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_json(item, inner, write, ints)
            sep = "," + inner
        write(pad + "]")


# ----------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    ctx = _context(args, args.p)
    triple = _parse_triple(args.triple, ctx.p)
    if not ctx.is_solution(triple):
        _emit({"solution": False})
        return 1
    height = triple.height()
    fundamental = height > 0 and is_fundamental(triple)
    _emit(
        {
            "solution": True,
            "signature": _signature_json(triple),
            "height": None if height == NEG_INF else height,
            "fundamental": fundamental,
        }
    )
    return 0


def cmd_tree(args) -> int:
    ctx = _context(args, args.p)
    root = _parse_triple(args.root, ctx.p)
    tree = ctx.generate_tree(root, args.depth)
    style = _style(ctx.p)
    if args.format == "json":
        _emit(tree.to_json())
    elif args.format == "dot":
        print(tree.to_dot(style))
    else:
        sys.stdout.writelines(tree.text_lines(style))
    return 0


def _form_json(form) -> dict:
    if isinstance(form, ZeroForm):
        return {"family": "zero", "f": form.f.to_json(), "sign": form.sign}
    assert isinstance(form, ConstantForm)
    return {"family": "constant", "f": form.f.to_json(), "a": form.a, "sign": form.sign}


def cmd_descend(args) -> int:
    ctx = _context(args, args.p)
    triple = _parse_triple(args.triple, ctx.p)
    result = ctx.descend(triple)
    form = ctx.classify_fundamental(result.fundamental)
    style = _style(ctx.p)
    _emit(
        {
            "fundamental": result.fundamental.to_json(),
            "rendered": result.fundamental.render(style),
            "form": _form_json(form),
            "word": [str(g) for g in result.word],
        }
    )
    return 0


def cmd_euclid(args) -> int:
    if args.depth < 0:
        raise ValueError(f"--depth must be non-negative, got {args.depth}")
    layers = euclid_mod.layers(euclid_mod.TreeId(args.alpha, args.beta), args.depth)
    if args.format == "text":
        out = sys.stdout
        for j, triples in enumerate(layers):
            out.write(f"L{j}:")
            out.writelines(" (%d,%d,%d)" % t for t in triples)
            out.write("\n")
    else:
        _emit(
            {
                "alpha": args.alpha,
                "beta": args.beta,
                "layers": [{"j": j, "triples": triples} for j, triples in enumerate(layers)],
            }
        )
    return 0


def cmd_count_signatures(args) -> int:
    if args.H is not None:
        report = cumulative_signatures(args.H, args.beta)
        _emit({"beta": args.beta, "H": args.H, **report.to_json()})
    else:
        report = count_C_beta(args.beta, args.n)
        _emit(
            {
                "beta": args.beta,
                "n": args.n,
                "C_beta": report.value,
                "C_A": C_A_from_C_beta(args.beta, report.value),
                "terms": [t.to_json() for t in report.terms],
            }
        )
    return 0


def cmd_count_solutions(args) -> int:
    if args.solutions_out and not args.brute:
        raise ValueError("--solutions-out needs --brute")
    ctx = _context(args, args.q)
    if args.brute:
        _emit(census(ctx, args.n, args.convention, solutions_out=args.solutions_out).to_json())
    else:
        report = count_finite_field(args.q, ctx.beta, args.n)
        _emit({"q": args.q, "beta": ctx.beta, "n": args.n, **report.to_json()})
    return 0


# ----------------------------------------------------------------------
# parser


def _common(p):
    p.add_argument("--p", type=int, required=True, help="odd prime modulus")
    p.add_argument("--A", required=True, help="parameter A as a polynomial expression")


def _add_verify(p):
    _common(p)
    p.add_argument("--triple", required=True, help='triple as "(x; y; z)"')
    p.set_defaults(func=cmd_verify)


def _add_tree(p):
    _common(p)
    p.add_argument("--root", required=True, help='root triple as "(x; y; z)"')
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.set_defaults(func=cmd_tree)


def _add_descend(p):
    _common(p)
    p.add_argument("--triple", required=True, help='triple as "(x; y; z)"')
    p.set_defaults(func=cmd_descend)


def _add_euclid(p):
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_euclid)


def _add_count_signatures(p):
    p.add_argument("--beta", type=int, required=True, help="deg A")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="exact height")
    group.add_argument("--H", type=int, help="cumulative bound (constant A only)")
    p.set_defaults(func=cmd_count_signatures)


def _add_count_solutions(p):
    p.add_argument("--q", type=int, required=True, help="odd prime field size")
    p.add_argument("--A", required=True, help="parameter A as a polynomial expression")
    p.add_argument("--n", type=int, required=True, help="exact height")
    p.add_argument("--brute", action="store_true", help="add brute-force census")
    p.add_argument("--convention", choices=CONVENTIONS, default="degree_sorted")
    p.add_argument(
        "--solutions-out", metavar="PATH",
        help="with --brute: also write the enumerated solutions as JSON-lines",
    )
    p.set_defaults(func=cmd_count_solutions)


# each command's words and the function that adds its arguments to a parser
_LEAVES = {
    ("verify",): _add_verify,
    ("tree",): _add_tree,
    ("descend",): _add_descend,
    ("euclid",): _add_euclid,
    ("count", "signatures"): _add_count_signatures,
    ("count", "solutions"): _add_count_solutions,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, with a subparser for every command."""
    parser = argparse.ArgumentParser(
        prog="markoff",
        description="Markoff triples over F_p[t]: verification, trees, descent, counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_verify(sub.add_parser("verify", help="check a triple against the surface equation"))
    _add_tree(sub.add_parser("tree", help="generate the branching tree from a root solution"))
    _add_descend(sub.add_parser("descend", help="descend a solution to its fundamental triple"))
    _add_euclid(sub.add_parser("euclid", help="layers of an (alpha,beta)-Euclid tree"))
    p_count = sub.add_parser("count", help="closed-form and brute-force counts")
    count_sub = p_count.add_subparsers(dest="what", required=True)
    _add_count_signatures(count_sub.add_parser("signatures", help="signature counts C_beta / C_A"))
    _add_count_solutions(count_sub.add_parser("solutions", help="finite-field solution counts"))
    return parser


@functools.cache
def _leaf_parser(words: tuple) -> argparse.ArgumentParser:
    """The parser of one command alone, as the full parser's subparser for
    these words is built."""
    parser = argparse.ArgumentParser(prog=" ".join(("markoff", *words)))
    _LEAVES[words](parser)
    return parser


def _parse(argv):
    """argv's Namespace, from its leaf parser if that leaves nothing over."""
    if argv is None:
        argv = sys.argv[1:]
    for k in (1, 2):
        words = tuple(argv[:k])
        if words in _LEAVES:
            args, extra = _leaf_parser(words).parse_known_args(argv[k:])
            if not extra:
                return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does; stdout's fd now goes to
        # devnull, so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MarkoffError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
