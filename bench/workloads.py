"""Seeded inputs, execution and output checks for the benchmark workloads.

Each generator takes the seed and returns a list of operations.  The seed
picks coefficients only (A, root polynomials, sigma words inside fixed height
bands, membership words, operation order); every size is fixed, so every seed
does the same amount of work.  The program receives only the generated
inputs: CLI argument lists for `markoff.cli.main`, or arguments for a public
library function looked up at call time.

Checks run after the timed passes and use only the first pass's outputs;
later passes must reproduce them exactly.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import random
import re
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

from markoff.errors import MarkoffError
from markoff.field import PrimeModulus
from markoff.poly import Polynomial, parse_poly, render_poly
from markoff.triples import RHO, DoubleNeg, MarkoffContext, MarkoffTriple, Swap, sort_triple

# Measured class constants of the census (census_constants.json): each class
# count over its divisor-sum term.
CENSUS_CONSTANTS = {"degree_sorted": Fraction(1, 2), "ordered": Fraction(3, 2)}


@dataclass
class Op:
    """One operation: a CLI call (argv) or a library call (module, name, args)."""

    id: int
    kind: str
    argv: list | None = None
    call: tuple | None = None
    out_file: str | None = None
    expect: dict = field(default_factory=dict)


def execute(op):
    """Run one operation in-process; returns (exit code, stdout) or the value."""
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        cli = sys.modules["markoff.cli"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(op.argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
        return rc, out.getvalue()
    module, name, args = op.call
    fn = getattr(sys.modules[module], name)
    if op.kind == "membership":
        beta, triples = args
        return [fn(t, beta) for t in triples]
    return fn(*args)


def file_digest(path):
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


# ----------------------------------------------------------------------
# helpers shared by generators and checks


def _random_poly(rng, mod, degree):
    """Seeded polynomial of exact degree with no zero coefficient.

    Zero coefficients make products sparse and cheaper, so a seed that drew
    them would do less work than another.
    """
    return Polynomial(mod, [rng.randrange(1, mod.p) for _ in range(degree + 1)])


def _class_poly(rng, mod, degree):
    """Seeded A of fixed degree in one fixed class under t -> t+u and scaling.

    Degree 1: c*(t+u).  Degree 2: c*((t+u)^2 + 2*s^2), s != 0.  Those maps
    carry solutions to solutions degree for degree, so every seed scans the
    same number of pairs with the same yield.  No coefficient is zero.
    """
    p = mod.p
    while True:
        c, u, s = rng.randrange(1, p), rng.randrange(1, p), rng.randrange(1, p)
        shift = Polynomial(mod, [u, 1])
        if degree == 1:
            return shift.scalar_mul(c)
        A = (shift * shift + Polynomial.constant(mod, 2 * s * s)).scalar_mul(c)
        if all(A.coeffs):  # sparse A makes the scan cheaper, as in _random_poly
            return A


def _triple_text(triple, style):
    return "(" + "; ".join(render_poly(c, style) for c in triple.coords) + ")"


class CheckFailed(Exception):
    """An operation's output is wrong."""


def need(condition, what="output check"):
    if not condition:
        raise CheckFailed(what)


def _branch(t, beta, branch):
    t1, t2, t3 = t
    return (t2, t3, t2 + t3 + beta) if branch == 1 else (t1, t3, t1 + t3 + beta)


def _euclid_sig(alpha, beta, word):
    """Signature after a sigma word: the degrees follow the Euclid tree."""
    t = (alpha, alpha, 2 * alpha + beta)
    for b in word:
        t = _branch(t, beta, b)
    return t


def _coprime_count(n):
    """E(n) recomputed independently: b <= n/2 with gcd(b, n) = 1 (E(1) = 1)."""
    if n == 1:
        return 1
    return sum(1 for b in range(1, n // 2 + 1) if math.gcd(b, n) == 1)


def _json(result):
    rc, out = result
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    return json.loads(out)


def _word_from_strings(words):
    gens = []
    for text in words:
        if text == "rho":
            gens.append(RHO)
            continue
        m = re.fullmatch(r"(swap|dneg)\((\d),(\d)\)", text)
        if m is None:
            raise CheckFailed(f"unknown generator {text!r}")
        cls = Swap if m.group(1) == "swap" else DoubleNeg
        gens.append(cls(int(m.group(2)), int(m.group(3))))
    return tuple(gens)


# ----------------------------------------------------------------------
# census_grid

# (q, deg A, n, convention, write solutions)
CENSUS_POINTS = (
    (5, 1, 3, "degree_sorted", False),  # the only affordable point with a d=2 term
    (5, 1, 2, "degree_sorted", False),
    (5, 1, 2, "ordered", False),
    (5, 2, 2, "degree_sorted", False),
    (5, 2, 2, "ordered", False),
    (13, 1, 1, "degree_sorted", False),
    (13, 1, 1, "ordered", False),
    (13, 2, 1, "degree_sorted", False),
    (13, 2, 1, "ordered", False),
    (17, 1, 1, "degree_sorted", False),
    (17, 2, 1, "ordered", False),
    (5, 1, 2, "ordered", True),  # a write beside the reads
)


def census_grid(seed, tmpdir):
    """Brute-force census calls.

    The enumerator's q^(2n+2) pair scan, the tuple kernels and the field
    square roots do the work; counting and euclid stay idle.
    """
    rng = random.Random(seed)
    ops = []
    for q, beta, n, convention, write in CENSUS_POINTS:
        mod = PrimeModulus(q)
        a_text = render_poly(_class_poly(rng, mod, beta))
        argv = ["count", "solutions", "--q", str(q), "--A", a_text, "--n", str(n),
                "--brute", "--convention", convention]
        out_file = None
        if write:
            out_file = f"{tmpdir}/solutions-{len(ops)}.jsonl"
            argv += ["--solutions-out", out_file]
        ops.append(Op(len(ops), "census", argv=argv, out_file=out_file,
                      expect={"q": q, "A": a_text, "n": n, "convention": convention}))
    rng.shuffle(ops)  # like operations spread over the pass, not in one stretch
    return ops


def _check_census(op, result, results, rng):
    if op.out_file is not None:
        result, digest = result
    report = _json(result)
    e = op.expect
    need((report["q"], report["n"], report["convention"]) == (e["q"], e["n"], e["convention"]))
    classes = (report["fundamental_count"], report["nonfundamental_count"],
               report["constant_orbit_count"])
    need(sum(classes) == report["total"], "class counts do not sum to total")
    constant = CENSUS_CONSTANTS[e["convention"]]
    need(Fraction(report["fundamental_ratio"]) == constant, "fundamental ratio")
    if report["nonfundamental_term"]:
        need(Fraction(report["nonfundamental_ratio"]) == constant, "nonfundamental ratio")
    else:
        need(report["nonfundamental_count"] == 0 and report["nonfundamental_ratio"] is None)
    terms = report["formula"]["terms"]
    need(report["formula"]["value"] == sum(t["E"] * t["multiplier"] for t in terms))
    if op.out_file is not None:
        _check_solutions_file(op, report, digest, rng)


def _check_solutions_file(op, report, digest, rng):
    need(file_digest(op.out_file) == digest)
    e = op.expect
    mod = PrimeModulus(e["q"])
    ctx = MarkoffContext(mod, parse_poly(e["A"], mod))
    with open(op.out_file, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    need(len(set(lines)) == len(lines), "duplicate solutions")
    at_height = 0
    triples = []
    for line in lines:
        obj = json.loads(line)
        degrees = [len(obj[k]["coeffs"]) - 1 for k in "xyz"]
        need(1 <= max(degrees) <= e["n"])
        if e["convention"] == "degree_sorted":
            need(degrees == sorted(degrees))
        at_height += max(degrees) == e["n"]
        triples.append(obj)
    need(at_height == report["total"], "solutions file disagrees with the census")
    for obj in rng.sample(triples, min(32, len(triples))):
        need(ctx.is_solution(MarkoffTriple.from_json(obj)), "written triple is no solution")


# ----------------------------------------------------------------------
# deep_orbit

DEEP_P = 13
# Heights of the 50 verify/descend slots, from 50 to 1000.  The median and
# the 90th percentile of the latencies fall inside the two bands of equal
# height (160 and 500), so each rests on many like operations, not on one.
DEEP_HEIGHTS = (
    [50 * (90 / 50) ** (k / 16) for k in range(17)]
    + [160] * 17
    + [220 * (400 / 220) ** (k / 6) for k in range(7)]
    + [500] * 8
    + [1000]
)
DEEP_SHAPES = ((1, 0), (1, 1), (2, 0), (2, 1))  # (deg f, deg A), cycled over slots
DEEP_BAND = 0.03  # half width of each slot's parse-cost band, relative
TREE_DEPTH = 10


def _words_by_cost(alpha, beta):
    """Every sigma word of length 6-14 from a root shape, sorted by parse cost.

    Parsing a coordinate of degree d costs about d^3 and dominates verify and
    descend, so the cost of a word is t1^3 + t2^3 + t3^3 of its signature.
    A word is coded as length * 2^16 + bits; the arrays stay small, so that
    generating inputs does not raise the run's peak memory.
    """
    costs, codes = [], []
    for length in range(6, 15):
        for bits in range(1 << length):
            word = [1 + (bits >> i & 1) for i in range(length)]
            costs.append(sum(d**3 for d in _euclid_sig(alpha, beta, word)))
            codes.append(length << 16 | bits)
    order = sorted(range(len(costs)), key=costs.__getitem__)
    return array("q", (costs[i] for i in order)), array("q", (codes[i] for i in order))


def _deep_word(rng, tables, k, target):
    """Seeded (shape, word) whose cost lies in slot k's band.

    The band is fixed per slot; the seed picks among the words inside it.
    The slot's shape is the first of DEEP_SHAPES, from k on, with a word there.
    """
    goal = 1.3 * target**3
    for j in range(len(DEEP_SHAPES)):
        shape = DEEP_SHAPES[(k + j) % len(DEEP_SHAPES)]
        if shape not in tables:
            tables[shape] = _words_by_cost(*shape)
        costs, codes = tables[shape]
        lo = bisect.bisect_left(costs, goal * (1 - DEEP_BAND))
        hi = bisect.bisect_right(costs, goal * (1 + DEEP_BAND))
        if hi > lo:
            code = codes[rng.randrange(lo, hi)]
            return shape, [1 + (code >> i & 1) for i in range(code >> 16)]
    raise RuntimeError(f"no sigma word reaches height {target:.0f}")


def deep_orbit(seed, tmpdir):
    """CLI verify and descend on deep triples, and two depth-10 trees.

    Polynomial parse and O(d^2) mul at degree 50-1000 and the descent do the
    work; oracle and counting stay idle.
    """
    rng = random.Random(seed)
    mod = PrimeModulus(DEEP_P)
    ops, tables = [], {}
    for k, target in enumerate(DEEP_HEIGHTS):
        (alpha, beta), word = _deep_word(rng, tables, k, target)
        sig = _euclid_sig(alpha, beta, word)
        A = _random_poly(rng, mod, beta)
        ctx = MarkoffContext(mod, A)
        root = ctx.make_root(_random_poly(rng, mod, alpha), rng.choice((1, -1)))
        triple = sort_triple(root)[0]
        for b in word:
            triple = sort_triple(ctx.apply_sigma(triple, b))[0]
        if triple.signature() != sig:
            raise RuntimeError(f"triple signature {triple.signature()} is not {sig}")
        coords = list(triple.coords)
        rng.shuffle(coords)
        triple = MarkoffTriple(*coords)
        text = _triple_text(triple, ("with_i", "plain")[k % 2])
        a_text = render_poly(A)
        expect = {"ctx": ctx, "triple": triple}
        for kind in ("verify", "descend"):
            argv = [kind, "--p", str(DEEP_P), "--A", a_text, "--triple", text]
            ops.append(Op(len(ops), kind, argv=argv, expect=expect))
    # a band's operations spread over the pass, so that its percentile does
    # not rest on one stretch of time; the trees stay last, where the peak
    # memory does not depend on how many outputs are held before them
    rng.shuffle(ops)
    A = _random_poly(rng, mod, 0)
    ctx = MarkoffContext(mod, A)
    root = ctx.make_root(_random_poly(rng, mod, 1), rng.choice((1, -1)))
    for fmt in ("json", "dot"):
        argv = ["tree", "--p", str(DEEP_P), "--A", render_poly(A),
                "--root", _triple_text(root, "with_i"), "--depth", str(TREE_DEPTH),
                "--format", fmt]
        ops.append(Op(len(ops), "tree_" + fmt, argv=argv, expect={"ctx": ctx}))
    return ops


def _check_verify(op, result, results, rng):
    report = _json(result)
    triple = op.expect["triple"]
    need(report["solution"] is True)
    need(report["signature"] == list(triple.signature()))
    need(report["height"] == triple.height())
    need(report["fundamental"] is False)


def _check_descend(op, result, results, rng):
    report = _json(result)
    ctx = op.expect["ctx"]
    fundamental = MarkoffTriple.from_json(report["fundamental"])
    word = _word_from_strings(report["word"])
    need(report["form"]["family"] == "zero")
    need(ctx.replay_word(fundamental, word) == op.expect["triple"], "replay differs from input")


def _tree_sample(rng, items):
    return rng.sample(items, min(16, len(items)))


def _check_tree_json(op, result, results, rng):
    tree = _json(result)
    ctx = op.expect["ctx"]
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        need(len(node["children"]) in (0, 2))
        stack.extend(node["children"])
    need(len(nodes) == 2 ** (TREE_DEPTH + 1) - 1, f"{len(nodes)} nodes")
    for node in _tree_sample(rng, nodes):
        need(ctx.is_solution(MarkoffTriple.from_json(node["triple"])))


def _check_tree_dot(op, result, results, rng):
    rc, out = result
    need(rc == 0)
    ctx = op.expect["ctx"]
    labels = re.findall(r'^  n\d+ \[label="\((.*)\)"\];$', out, re.M)
    edges = re.findall(r"^  n\d+ -> n\d+ ", out, re.M)
    need(len(labels) == 2 ** (TREE_DEPTH + 1) - 1 and len(edges) == len(labels) - 1)
    for label in _tree_sample(rng, labels):
        coords = [parse_poly(part, ctx.p) for part in label.split(", ")]
        need(ctx.is_solution(MarkoffTriple(*coords)))


# ----------------------------------------------------------------------
# count_sweep

SWEEP_Q = (5, 13, 17, 29, 7, 11)  # the last two are = 3 (mod 4): empty fields


def count_sweep(seed, tmpdir):
    """Many short closed-form counts beside the BFS oracles for them.

    counting, euclid, the tree oracles and per-call CLI overhead do the work;
    poly and field stay idle.
    """
    rng = random.Random(seed)
    ops = []

    def add(kind, argv=None, call=None, **expect):
        ops.append(Op(len(ops), kind, argv=argv, call=call, expect=expect))

    # closed-form signature counts, each beside its BFS oracle
    for beta in range(4):
        for n in range(150, 250):
            add("sig_n", argv=["count", "signatures", "--beta", str(beta), "--n", str(n)],
                beta=beta, n=n, oracle=len(ops) + 1)
            add("oracle_C_beta", call=("markoff.oracle", "oracle_C_beta", (beta, n)),
                beta=beta, n=n, cli=len(ops) - 1)
    for H in range(1000, 41000, 500):
        add("sig_H", argv=["count", "signatures", "--beta", "0", "--H", str(H)], H=H)
    for q in SWEEP_Q:
        mod = PrimeModulus(q)
        for beta in (1, 2, 3):
            for n in range(1, 120, 3):
                a_text = render_poly(_random_poly(rng, mod, beta))
                add("sol_n", argv=["count", "solutions", "--q", str(q), "--A", a_text,
                                   "--n", str(n)], q=q, beta=beta, n=n)
    for n in range(80, 200):
        add("oracle_E", call=("markoff.oracle", "oracle_E", (n,)), n=n)
    for alpha in range(1, 5):
        for beta in range(4):
            for depth in range(4, 10):
                add("euclid", argv=["euclid", "--alpha", str(alpha), "--beta", str(beta),
                                    "--depth", str(depth)],
                    alpha=alpha, beta=beta, depth=depth)
    for k in range(120):
        beta = k % 4
        alphas = [rng.randint(1, 6) for _ in range(1500)]
        triples = [_euclid_sig(a, beta, [rng.randint(1, 2) for _ in range(6)]) for a in alphas]
        add("membership", call=("markoff.euclid", "membership", (beta, triples)),
            beta=beta, alphas=alphas)
    rng.shuffle(ops)
    return ops


def _check_sig_n(op, result, results, rng):
    report = _json(result)
    e = op.expect
    beta, n = e["beta"], e["n"]
    need((report["beta"], report["n"]) == (beta, n))
    need(report["C_beta"] == results[e["oracle"]], "closed form differs from the BFS oracle")
    need(report["C_A"] == report["C_beta"] + (beta == 0))
    for t in report["terms"]:
        need((n + beta) % t["d"] == 0 and beta * t["d"] < n + beta)
        need(t["E"] == _coprime_count(t["d"]))
    need(report["C_beta"] == sum(t["E"] for t in report["terms"]))


def _check_oracle_C_beta(op, result, results, rng):
    need(isinstance(result, int) and result >= 1)
    need(result == _json(results[op.expect["cli"]])["C_beta"])


def _check_sig_H(op, result, results, rng):
    report = _json(result)
    H = op.expect["H"]
    total = sum(n // 2 + 2 for n in range(1, H + 1))
    need(report["total"] == total)
    need(Fraction(report["lower"]) == Fraction(H * H + 5 * H, 4))
    need(Fraction(report["upper"]) == Fraction(H * H + 9 * H, 4))
    need(Fraction(report["lower"]) < total <= Fraction(report["upper"]), "sandwich bounds")


def _check_sol_n(op, result, results, rng):
    report = _json(result)
    e = op.expect
    q, beta, n = e["q"], e["beta"], e["n"]
    need((report["q"], report["beta"], report["n"]) == (q, beta, n))
    if q % 4 == 3:
        need(report.get("empty_field") is True and report["value"] == 0)
        return
    ds = [d for d in range(1, n + beta + 1) if (n + beta) % d == 0 and beta * d < n + beta]
    need([t["d"] for t in report["terms"]] == ds)
    value = 0
    for t in report["terms"]:
        need(t["E"] == _coprime_count(t["d"]))
        need(t["multiplier"] == 4 * (q - 1) * q ** ((n + beta) // t["d"] - beta))
        value += t["E"] * t["multiplier"]
    need(report["value"] == value)


def _check_oracle_E(op, result, results, rng):
    n = op.expect["n"]
    need(result == _coprime_count(n))
    need(result == sys.modules["markoff.counting"].count_E(n), "closed form differs from oracle")


def _check_euclid(op, result, results, rng):
    report = _json(result)
    e = op.expect
    alpha, beta = e["alpha"], e["beta"]
    layer = {(alpha, alpha, 2 * alpha + beta)}
    for j, entry in enumerate(report["layers"]):
        need(entry["j"] == j and sorted(map(tuple, entry["triples"])) == sorted(layer))
        layer = {_branch(t, beta, b) for t in layer for b in (1, 2)}
    need(len(report["layers"]) == e["depth"] + 1)


def _check_membership(op, result, results, rng):
    beta = op.expect["beta"]
    need([tuple(r) for r in result] == [(a, beta) for a in op.expect["alphas"]])


GENERATORS = {"census_grid": census_grid, "deep_orbit": deep_orbit, "count_sweep": count_sweep}

CHECKS = {
    "census": _check_census,
    "verify": _check_verify,
    "descend": _check_descend,
    "tree_json": _check_tree_json,
    "tree_dot": _check_tree_dot,
    "sig_n": _check_sig_n,
    "oracle_C_beta": _check_oracle_C_beta,
    "sig_H": _check_sig_H,
    "sol_n": _check_sol_n,
    "oracle_E": _check_oracle_E,
    "euclid": _check_euclid,
    "membership": _check_membership,
}


def check(op, result, results, rng):
    """Raise one of CHECK_ERRORS when an output is wrong."""
    CHECKS[op.kind](op, result, results, rng)


CHECK_ERRORS = (CheckFailed, KeyError, IndexError, TypeError, ValueError, MarkoffError)
