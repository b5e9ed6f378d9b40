"""Command-line front end.

Subcommands: verify, tree, descend, euclid, count signatures, count
solutions.  All outputs are JSON unless --format says otherwise.  Exit
codes: 0 success, 1 failed verification, 2 usage or parse error, 3 budget
exceeded.  --budget bounds the tree depth (tree), the layer index (euclid)
and the candidate pairs of the --brute enumeration (count solutions).
Fixed caps also end with exit 3: a power or product in a polynomial
expression above the parser's degree cap, a count with more digits than
can be printed, and a factorization needing trial divisors above its cap
or with more divisors than the divisor-terms cap.

There is one parser per process: `build_parser` builds it on the first
call of `main` and every later call reuses it.  Nothing mutates it, and
each parse fills a fresh Namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import euclid as euclid_mod
from .counting import C_A_from_C_beta, count_C_beta, count_finite_field, cumulative_signatures
from .errors import BudgetExceeded, MarkoffError, ParseError
from .field import PrimeModulus, sqrt_minus_one
from .oracle import DEFAULT_PAIR_BUDGET, census, enumerate_solutions, write_solutions_jsonl
from .poly import NEG_INF, Polynomial, parse_poly
from .triples import (
    DEFAULT_TREE_DEPTH_BUDGET,
    ConstantForm,
    MarkoffContext,
    MarkoffTriple,
    ZeroForm,
    is_fundamental,
    sort_triple,
)


def _context(args, prime: int) -> MarkoffContext:
    mod = PrimeModulus(prime)
    a = parse_poly(args.A, mod)
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
    return MarkoffTriple(*(parse_poly(part, mod) for part in parts))


def _style(mod: PrimeModulus) -> str:
    return "with_i" if sqrt_minus_one(mod) is not None else "plain"


def _signature_json(triple: MarkoffTriple) -> list:
    return [None if d == NEG_INF else d for d in triple.signature()]


def _emit(obj):
    print(json.dumps(obj, indent=2))


# ----------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    ctx = _context(args, args.p)
    triple = _parse_triple(args.triple, ctx.p)
    if not ctx.is_solution(triple):
        _emit({"solution": False})
        return 1
    fundamental = False
    height = triple.height()
    if height > 0:
        fundamental = is_fundamental(sort_triple(triple)[0])
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
    tree = ctx.generate_tree(root, args.depth, args.budget)
    style = _style(ctx.p)
    if args.format == "json":
        _emit(tree.to_json())
    elif args.format == "dot":
        print(tree.to_dot(style))
    else:
        def walk(node, depth):
            tag = f"s{node.branch} " if node.branch else ""
            print("  " * depth + tag + node.triple.render(style))
            for child in node.children:
                walk(child, depth + 1)

        walk(tree, 0)
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
    if args.depth > args.budget:
        raise BudgetExceeded("layer", args.depth, args.budget)
    tree = euclid_mod.TreeId(args.alpha, args.beta)
    layers = [
        sorted(euclid_mod.layer(tree, j, args.budget)) for j in range(args.depth + 1)
    ]
    if args.format == "text":
        for j, triples in enumerate(layers):
            row = " ".join(f"({t.tau1},{t.tau2},{t.tau3})" for t in triples)
            print(f"L{j}: {row}")
    else:
        _emit(
            {
                "alpha": args.alpha,
                "beta": args.beta,
                "layers": [
                    {"j": j, "triples": [list(t) for t in triples]}
                    for j, triples in enumerate(layers)
                ],
            }
        )
    return 0


def cmd_count_signatures(args) -> int:
    if args.H is not None:
        report = cumulative_signatures(args.H, args.beta)
        out = {"beta": args.beta, "H": args.H}
        out.update(report.to_json())
        _emit(out)
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
    ctx = _context(args, args.q)
    if args.brute:
        solutions = enumerate_solutions(ctx, args.n, args.convention, args.budget)
        report = census(ctx, args.n, args.convention, solutions=solutions)
        if args.solutions_out:
            with open(args.solutions_out, "w", encoding="utf-8") as fp:
                write_solutions_jsonl(solutions, fp)
        _emit(report.to_json())
    else:
        report = count_finite_field(args.q, ctx.beta, args.n)
        out = {"q": args.q, "beta": ctx.beta, "n": args.n}
        out.update(report.to_json())
        _emit(out)
    return 0


# ----------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markoff",
        description="Markoff triples over F_p[t]: verification, trees, descent, counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=int, required=True, help="odd prime modulus")
        p.add_argument("--A", required=True, help="parameter A as a polynomial expression")

    p_verify = sub.add_parser("verify", help="check a triple against the surface equation")
    common(p_verify)
    p_verify.add_argument("--triple", required=True, help='triple as "(x; y; z)"')
    p_verify.set_defaults(func=cmd_verify)

    p_tree = sub.add_parser("tree", help="generate the branching tree from a root solution")
    common(p_tree)
    p_tree.add_argument("--root", required=True, help='root triple as "(x; y; z)"')
    p_tree.add_argument("--depth", type=int, required=True)
    p_tree.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p_tree.add_argument(
        "--budget", type=int, default=DEFAULT_TREE_DEPTH_BUDGET, help="largest tree depth"
    )
    p_tree.set_defaults(func=cmd_tree)

    p_descend = sub.add_parser("descend", help="descend a solution to its fundamental triple")
    common(p_descend)
    p_descend.add_argument("--triple", required=True, help='triple as "(x; y; z)"')
    p_descend.set_defaults(func=cmd_descend)

    p_euclid = sub.add_parser("euclid", help="layers of an (alpha,beta)-Euclid tree")
    p_euclid.add_argument("--alpha", type=int, required=True)
    p_euclid.add_argument("--beta", type=int, required=True)
    p_euclid.add_argument("--depth", type=int, required=True)
    p_euclid.add_argument("--format", choices=("json", "text"), default="json")
    p_euclid.add_argument(
        "--budget", type=int, default=euclid_mod.DEFAULT_LAYER_BUDGET, help="largest depth"
    )
    p_euclid.set_defaults(func=cmd_euclid)

    p_count = sub.add_parser("count", help="closed-form and brute-force counts")
    count_sub = p_count.add_subparsers(dest="what", required=True)

    p_sig = count_sub.add_parser("signatures", help="signature counts C_beta / C_A")
    p_sig.add_argument("--beta", type=int, required=True, help="deg A")
    group = p_sig.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="exact height")
    group.add_argument("--H", type=int, help="cumulative bound (constant A only)")
    p_sig.set_defaults(func=cmd_count_signatures)

    p_sol = count_sub.add_parser("solutions", help="finite-field solution counts")
    p_sol.add_argument("--q", type=int, required=True, help="odd prime field size")
    p_sol.add_argument("--A", required=True, help="parameter A as a polynomial expression")
    p_sol.add_argument("--n", type=int, required=True, help="exact height")
    p_sol.add_argument("--brute", action="store_true", help="add brute-force census")
    p_sol.add_argument(
        "--convention", choices=("ordered", "degree_sorted"), default="degree_sorted"
    )
    p_sol.add_argument(
        "--solutions-out", metavar="PATH",
        help="with --brute: also write the enumerated solutions as JSON-lines",
    )
    p_sol.add_argument(
        "--budget", type=int, default=DEFAULT_PAIR_BUDGET,
        help="with --brute: most candidate pairs to solve",
    )
    p_sol.set_defaults(func=cmd_count_solutions)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MarkoffError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
