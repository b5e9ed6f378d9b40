"""Shared fixtures-by-convention for the test suite."""

import math
import re
from pathlib import Path

from hypothesis import strategies as st

from markoff import counting, euclid
from markoff.euclid import EuclidTriple, TreeId, euclid_branch, on_unit_tree, root
from markoff.errors import AllConstant, BudgetExceeded, IUnavailable, ParseError
from markoff.field import PrimeModulus, _sqrt_int, sqrt_minus_one
from markoff.poly import (
    MAX_PARSE_DEGREE,
    Polynomial,
    _add,
    _mul,
    _smul,
    _sqrt_coeffs,
    _sub,
    parse_poly,
)
from markoff.oracle import _polys_of_degree, _solutions, enumerate_solutions
from markoff.triples import MarkoffContext, MarkoffTriple, TreeNode, is_fundamental, sort_triple

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)
P13 = PrimeModulus(13)

README = Path(__file__).resolve().parent.parent / "README.md"


def triple_of(text: str, mod: PrimeModulus) -> MarkoffTriple:
    parts = text.strip()[1:-1].split(";")
    return MarkoffTriple(*(parse_poly(part, mod) for part in parts))


def readme_commands():
    """Every `markoff ...` line of the README's "Command line" code block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("markoff ")]


def context(mod: PrimeModulus, a_expr: str) -> MarkoffContext:
    return MarkoffContext(mod, parse_poly(a_expr, mod))


def budget_fields(excinfo) -> tuple:
    """(quantity, requested, limit) of a caught BudgetExceeded."""
    err = excinfo.value
    return err.quantity, err.requested, err.limit


def count_factorize_calls(monkeypatch) -> list:
    """Record the argument of every counting.factorize call from now on."""
    calls = []
    factorize = counting.factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(counting, "factorize", counted)
    return calls


def membership_by_divisors(triple, beta):
    """Reference tree membership, the divisor loop `euclid.membership` used
    before its one-gcd test: try every divisor s > beta of the gcd of the
    shifted triple, smallest first, for a (1,0)-tree quotient."""
    t1, t2, t3 = triple
    if not 1 <= t1 <= t2 < t3:
        return None
    if beta == 0:
        return TreeId(math.gcd(t1, t2), 0) if t3 == t1 + t2 else None
    g = math.gcd(t1 + beta, t2 + beta, t3 + beta)
    for s in _divisors_ascending(g):
        if s <= beta:
            continue
        unit = EuclidTriple((t1 + beta) // s, (t2 + beta) // s, (t3 + beta) // s)
        if on_unit_tree(unit):
            return TreeId(s - beta, beta)
    return None


def _divisors_ascending(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def census_by_triple(ctx, n, convention):
    """Reference census classes, the loop `oracle.census` ran before it
    classified coefficient tuples: (fundamental, non-fundamental,
    constant-orbit) counts of the height-n triples of `enumerate_solutions`,
    each triple tested and descended in its given coordinate order."""
    fundamental = nonfundamental = constant_orbit = 0
    for triple in enumerate_solutions(ctx, n, convention):
        if triple.height() != n:
            continue
        if is_fundamental(triple):
            fundamental += 1
            continue
        try:
            ctx.descend(triple)
        except AllConstant:
            constant_orbit += 1
        else:
            nonfundamental += 1
    return fundamental, nonfundamental, constant_orbit


def value_at(f: Polynomial, c: int) -> int:
    """The value of f at the point c of F_p."""
    return sum(k * c**e for e, k in enumerate(f.coeffs)) % f.modulus.p


def solutions_by_discriminant(ctx, max_height):
    """Reference enumerator, the loop `oracle._solutions` ran before it
    sieved pairs by their discriminant's values on F_q: the set of
    coefficient-tuple degree-sorted solutions of height <= max_height, not
    all constant, every x != 0 pair solved through the square root of
    (Axy)^2 - 4(x^2 + y^2)."""
    q = ctx.p.p
    found = set()
    if q % 4 == 1:
        i = _sqrt_int(q - 1, q)
        for d in range(1, max_height + 1):
            for y in _polys_of_degree(q, d):
                found.update({((), y, _smul(y, i, q)), ((), y, _smul(y, q - i, q))})
    span = max_height - ctx.beta
    by_degree = [[(f, _mul(f, f, q)) for f in _polys_of_degree(q, d)] for d in range(span + 1)]
    inv2 = pow(2, q - 2, q)
    for a in range(span + 1):
        for b in range(a, span - a + 1):
            for x, x2 in by_degree[a]:
                ax = _mul(ctx.A.coeffs, x, q)
                for y, y2 in by_degree[b]:
                    s = _mul(ax, y, q)
                    disc = _sub(_mul(s, s, q), _smul(_add(x2, y2, q), 4, q), q)
                    r = _sqrt_coeffs(disc, q)
                    if r is None:
                        continue
                    for z in {_smul(_add(s, r, q), inv2, q), _smul(_sub(s, r, q), inv2, q)}:
                        if max(len(y), 2) <= len(z) <= max_height + 1:
                            found.add((x, y, z))
    return found


def solutions_up_to(ctx, max_height):
    """The coefficient-tuple solutions of every height 1..max_height, one
    `oracle._solutions` pass per height."""
    return (t for h in range(1, max_height + 1) for t in _solutions(ctx, h))


def signature_buckets(q, beta, n):
    """The degree_sorted count and class of each non-empty signature
    (deg x, deg y, deg z) of height n >= 1 over F_q[t] with deg A = beta,
    deg 0 written -1, by the per-signature identity
    `counting.signature_count` on every candidate: the x = 0 family
    (-1, n, n), and (a, n - beta - a, n) for 0 <= a <= n - beta - a."""
    candidates = [(-1, n, n)] + [(a, n - beta - a, n) for a in range((n - beta) // 2 + 1)]
    return {
        sig: bucket for sig in candidates if (bucket := counting.signature_count(q, beta, sig))[1]
    }


def bfs_count_with_seen_set(tree, n):
    """Reference tree count, the walk `oracle._bfs_count` made before it
    dropped its visited set: level by level, skipping every vertex already
    seen."""
    start = tuple(root(tree))
    if start[2] > n:
        return 0
    count = 0
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for t1, t2, t3 in frontier:
            if t3 == n:
                count += 1
                continue
            for child in ((t2, t3, t2 + t3 + tree.beta), (t1, t3, t1 + t3 + tree.beta)):
                if child[2] <= n and child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return count


def layer_by_sets(tree, j):
    """Reference layer, the `euclid.layer` that built layer j from the root
    on its own, as a set of `EuclidTriple`s deduplicated at every step."""
    if j < 0:
        raise ValueError("layer index must be non-negative")
    if j > euclid.MAX_LAYER:
        raise BudgetExceeded("layer", j, euclid.MAX_LAYER)
    current = {root(tree)}
    for _ in range(j):
        current = {euclid_branch(t, tree.beta, b) for t in current for b in (1, 2)}
    return current


def gamma_reduce_by_subtraction(triple):
    """Reference gamma-reduction, the `euclid.gamma_reduce` that took one
    subtraction per loop pass: (root, steps) of a triple with t3 = t1 + t2."""
    t1, t2, _ = triple
    steps = 0
    while t1 != t2:
        if t2 >= t1:
            t1, t2 = t1, t2 - t1
        else:
            t1, t2 = t2, t1 - t2
        steps += 1
    return EuclidTriple(t1, t2, t1 + t2), steps


def tree_json_by_node(node):
    """Reference tree JSON, the `TreeNode.to_json` that built a fresh
    coordinate object for every coordinate of every node."""
    return {
        "triple": node.triple.to_json(),
        "children": [tree_json_by_node(child) for child in node.children],
    }


def render_by_candidates(f, style="plain"):
    """Reference renderer, the loop `poly.render_poly` ran before its table of
    signed factors: for every term, the least of four candidate forms
    (magnitude, imaginary?, negative?), then the factors joined by '*'."""
    if style not in ("plain", "with_i"):
        raise ValueError(f"unknown style {style!r}")
    if f.is_zero():
        return "0"
    p = f.modulus.p
    inv_i = None
    if style == "with_i":
        i = sqrt_minus_one(f.modulus)
        if i is None:
            raise IUnavailable(f"with_i rendering needs p = 1 (mod 4), got p = {p}")
        inv_i = pow(i, p - 2, p)
    parts = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if not c:
            continue
        if style == "plain":
            mag, neg, imag = c, False, False
        else:
            v = c * inv_i % p
            mag, imag, neg = min(
                (c, False, False),
                (p - c, False, True),
                (v, True, False),
                (p - v, True, True),
            )
        factors = []
        if mag != 1 or (not imag and k == 0):
            factors.append(str(mag))
        if imag:
            factors.append("i")
        if k >= 1:
            factors.append("t" if k == 1 else f"t^{k}")
        text = "*".join(factors)
        if not parts:
            parts.append(f"-{text}" if neg else text)
        else:
            parts.append(f"-{text}" if neg else f"+{text}")
    return "".join(parts)


def parse_by_positions(text, modulus):
    """Reference parser, the `poly.parse_poly` that stored a (position, token)
    pair for every token before it kept token indices and found a position
    again only for an error."""
    parser = _PositionParser(text, modulus)
    _, coeffs = parser.expr()
    pos, token = parser.tokens[parser.k]
    if token:
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return Polynomial._make(modulus, coeffs)


# the reference parser's own copy of the token pattern
_POSITION_TOKEN = re.compile(r"[0-9]+|\S")


class _PositionParser:
    """Recursive descent over the (position, token) list of the text, closed
    by the end token (len(text), "").  A value (shift, coeffs) stands for
    t^shift times the polynomial with coefficient tuple coeffs; a sum is
    collected term by term and reduced once."""

    def __init__(self, text, modulus):
        self.tokens = [(m.start(), m.group()) for m in _POSITION_TOKEN.finditer(text)]
        self.tokens.append((len(text), ""))
        self.k = 0
        self.modulus = modulus

    def expr(self):
        terms = []
        while True:
            token = self.tokens[self.k][1]
            if token in ("+", "-"):
                self.k += 1
            elif terms:
                break
            terms.append((-1 if token == "-" else 1, *self.term()))
        # a zero term may carry any shift, such as the 10^9 of (0*t)^1000000000
        acc = [0] * max((shift + len(c) for _, shift, c in terms if c), default=0)
        for sign, shift, c in terms:
            for j, v in enumerate(c, shift):
                acc[j] += sign * v
        p = self.modulus.p
        acc = [v % p for v in acc]
        while acc and acc[-1] == 0:
            acc.pop()
        return 0, tuple(acc)

    def term(self):
        start = self.tokens[self.k][0]
        shift, coeffs = self.power()
        while self.tokens[self.k][1] == "*":
            self.k += 1
            s, c = self.power()
            if coeffs and c:
                self.cap(shift + len(coeffs) + s + len(c) - 2, start)
            shift, coeffs = shift + s, _mul(coeffs, c, self.modulus.p)
        return shift, coeffs

    def power(self):
        start = self.tokens[self.k][0]
        shift, coeffs = self.atom()
        while self.tokens[self.k][1] == "^":
            pos, token = self.tokens[self.k + 1]
            if not (token.isascii() and token.isdigit()):
                raise ParseError("expected exponent", pos)
            self.k += 2
            k = self.integer(token, pos)
            if coeffs:
                self.cap(k * (shift + len(coeffs) - 1), start)
            if len(coeffs) == 1:
                coeffs = (pow(coeffs[0], k, self.modulus.p),)
            elif coeffs:
                coeffs = (Polynomial._make(self.modulus, coeffs) ** k).coeffs
            elif k == 0:
                coeffs = (1,)  # 0^0 = 1, as Polynomial.__pow__ has it
            shift *= k
        return shift, coeffs

    def integer(self, token, pos):
        try:
            return int(token)
        except ValueError:  # a run of ASCII digits fails only the int-string limit
            raise ParseError(f"integer literal of {len(token)} digits is too long", pos) from None

    def cap(self, degree, start):
        if degree > MAX_PARSE_DEGREE:
            raise BudgetExceeded(f"term degree (position {start})", degree, MAX_PARSE_DEGREE)

    def atom(self):
        pos, token = self.tokens[self.k]
        self.k += 1
        if token == "(":
            value = self.expr()
            pos, token = self.tokens[self.k]
            if token != ")":
                raise ParseError("expected ')'", pos)
            self.k += 1
            return value
        if token == "t":
            return 1, (1,)
        if token == "i":
            i = sqrt_minus_one(self.modulus)
            if i is None:
                raise IUnavailable(
                    f"'i' at position {pos}: -1 has no square root mod {self.modulus.p}"
                )
            return 0, (i,)
        if token.isascii() and token.isdigit():
            c = self.integer(token, pos) % self.modulus.p
            return 0, (c,) if c else ()
        raise ParseError("expected integer, 't', 'i' or '('", pos)


def root_by_closed_forms(ctx, f, a, sign=1, family="zero"):
    """Reference tree root, the closed forms `MarkoffContext.make_root` wrote
    out before it took sigma_1 of `make_fundamental`:
    zero family (f, i*a*f, i*a*A*f^2), constant family
    (f, a*f + sign*2ai/A, A*a*f^2 + sign*2aif - 2a/A)."""
    i = ctx.i()
    if family == "zero":
        iaf = (i * f).scalar_mul(a)
        return MarkoffTriple(f, iaf, ctx.A * iaf * f)
    p = ctx.p.p
    two_a_over_A = Polynomial.constant(ctx.p, 2 * a * pow(ctx.A.coeffs[0], p - 2, p))
    y = f.scalar_mul(a) + (i * two_a_over_A).scalar_mul(sign)
    return MarkoffTriple(f, y, ctx.A * f * y - two_a_over_A)


def label_by_candidates(triple, style="plain"):
    """Reference text (x, y, z) of a triple, each coordinate rendered alone."""
    return "(" + ", ".join(render_by_candidates(c, style) for c in triple.coords) + ")"


def dot_by_node(tree, style="plain"):
    """Reference DOT text, the `TreeNode.to_dot` that rendered every
    coordinate of every node afresh."""
    lines = ["digraph markoff_tree {", '  node [shape=box, fontname="monospace"];']
    nodes = []

    def emit(node):
        idx = len(nodes)
        nodes.append(node)
        label = label_by_candidates(node.triple, style)
        lines.append(f'  n{idx} [label="{label}"];')
        for child in node.children:
            cidx = emit(child)
            lines.append(f'  n{idx} -> n{cidx} [label="s{child.branch}"];')
        return idx

    emit(tree)
    lines.append("}")
    return "\n".join(lines)


def text_by_node(tree, style="plain"):
    """Reference text form, the walk of `markoff tree --format text` that
    rendered every coordinate of every node afresh."""
    lines = []

    def walk(node, depth):
        tag = f"s{node.branch} " if node.branch else ""
        lines.append("  " * depth + tag + label_by_candidates(node.triple, style) + "\n")
        for child in node.children:
            walk(child, depth + 1)

    walk(tree, 0)
    return lines


def tree_by_moves(ctx, triple, depth, branch=None):
    """Reference tree under a sorted triple, built node by node: each child
    is sort_triple of apply_sigma on its parent."""
    children = ()
    if depth:
        children = tuple(
            tree_by_moves(ctx, sort_triple(ctx.apply_sigma(triple, b))[0], depth - 1, b)
            for b in (1, 2)
        )
    return TreeNode(triple, branch, children)


def nonconstant_polys(mod, max_deg):
    """Strategy: polynomials over mod of degree 1 to max_deg, the base-p
    digits of one drawn integer (one draw costs hypothesis less than a list)."""
    p = mod.p

    def from_digits(n):
        coeffs = []
        while n:
            n, c = divmod(n, p)
            coeffs.append(c)
        return Polynomial(mod, coeffs)

    return st.integers(p, p ** (max_deg + 1) - 1).map(from_digits)


# Golden data: the seven depth-2 tree triples rooted at (t, t+2i, t^2+2it-2)
# over F_13 with A = 1, written with explicit '*'.
GOLDEN_ROOT = "(t; t+2*i; t^2+2*i*t-2)"
GOLDEN_TREE = (
    "(t; t+2*i; t^2+2*i*t-2)",
    "(t+2*i; t^2+2*i*t-2; t^3+4*i*t^2-7*t-4*i)",
    "(t; t^2+2*i*t-2; t^3+2*i*t^2-3*t-2*i)",
    "(t+2*i; t^3+4*i*t^2-7*t-4*i; t^4+6*i*t^3-16*t^2-20*i*t+10)",
    "(t^2+2*i*t-2; t^3+4*i*t^2-7*t-4*i; t^5+6*i*t^4-17*t^3-26*i*t^2+21*t+6*i)",
    "(t^2+2*i*t-2; t^3+2*i*t^2-3*t-2*i; t^5+4*i*t^4-9*t^3-12*i*t^2+9*t+4*i)",
    "(t; t^3+2*i*t^2-3*t-2*i; t^4+2*i*t^3-4*t^2-4*i*t+2)",
)
