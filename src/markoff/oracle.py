"""Brute-force ground truth, independent of the closed-form counts.

Solutions over F_q[t] are enumerated one height n >= 1 at a time, as
triples of coefficient tuples.  By the degree lemma, a solution with
deg x <= deg y <= deg z has x = 0, or deg z = beta + deg x + deg y with
beta = deg A.  With x = 0, y^2 + z^2 = 0 gives z = +-i*y in closed form,
and no solution when q = 3 (mod 4).  The strata of pairs with x != 0 and
beta + deg x + deg y = n are solved through the discriminant of
z^2 - (Axy)z + (x^2 + y^2) = 0, once a sieve has dropped every pair whose
discriminant takes a non-square value at a point of F_q.  The sieve is exact:
a square r^2 in F_q[t] takes the square value r(c)^2 at every point c.
The census examines the height-n strata alone; a solutions file and
`enumerate_solutions` examine every height <= n; `pair_count` bounds both.
Solutions stream in no fixed order, and the census counts each set of
coordinates once as it passes and descends only non-fundamental sets.
Tree counts are recomputed by walking each tree.
"""

from __future__ import annotations

import math
import operator
from array import array
from itertools import chain, permutations, product

from .counting import count_finite_field
from .errors import AllConstant, BudgetExceeded
from .euclid import TreeId, root
from .field import _sqrt_int
from .poly import _SLOT_CODES, Polynomial, _add, _mul, _smul, _sqrt_coeffs, _sub
from .record import Record, _set
from .triples import MarkoffContext, MarkoffTriple

# The most candidate pairs `pair_count` admits; each pair gives at most two
# solutions.  (q, A, n) = (5, t, 7), 1,575,521 pairs, takes about 6 s and
# 39 MB through the CLI; (5, t, 8), 8,138,021 pairs, is refused.
MAX_CANDIDATE_PAIRS = 1 << 21

# oracle_E_bfs(E_ORACLE_MAX_N) takes about 2.3 s (median of 7 processes, best of
# 3 runs each; Python 3.11 on 2 vCPUs shared with other jobs)
E_ORACLE_MAX_N = 10**4
C_BETA_ORACLE_MAX_N = 500

CONVENTIONS = ("ordered", "degree_sorted")


def _check_convention(convention: str):
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def pair_count(q: int, beta: int, max_height: int) -> int:
    """Candidate pairs (x, y) of every height <= n: q^(n+1) pairs with x = 0,
    plus (q-1)^2 * q^(a+b) pairs for each stratum deg x = a <= deg y = b
    with a + b <= n - beta.  Strata sharing s = a + b are counted together:
    there are s//2 + 1 of them.  This bounds the pairs that the census, at
    height n alone, a solutions file and `enumerate_solutions` examine.
    """
    return q ** (max_height + 1) + (q - 1) ** 2 * sum(
        (s // 2 + 1) * q**s for s in range(max_height - beta + 1)
    )


def _check_pairs(q, beta, max_height):
    if max_height < 0:
        raise ValueError("max_height must be non-negative")
    if max_height >= MAX_CANDIDATE_PAIRS.bit_length():
        # q^(n+1) > 2^n > the cap: refuse before building a huge count
        raise BudgetExceeded(
            "candidate pairs", f"more than {q}^{max_height + 1}", MAX_CANDIDATE_PAIRS
        )
    pairs = pair_count(q, beta, max_height)
    if pairs > MAX_CANDIDATE_PAIRS:
        raise BudgetExceeded("candidate pairs", pairs, MAX_CANDIDATE_PAIRS)


def _polys_of_degree(q, d, digits=None):
    """Coefficient tuples of every polynomial of degree exactly d >= 0, in
    one fixed order.  digits, range(q) by default, gives the coefficient
    written for each c in range(q): with [c*m % q for c in range(q)], m != 0,
    each polynomial is m times the one in the same place of the default
    order."""
    if digits is None:
        digits = range(q)
    return (low + (lead,) for lead in digits[1:] for low in product(digits, repeat=d))


def _solutions(ctx: MarkoffContext, height: int):
    """Coefficient-tuple degree-sorted solutions of height `height` >= 1, none
    all constant, in no fixed order, after `_check_pairs`.  With x != 0 the
    roots z sum to Axy, of degree `height`, and multiply to x^2 + y^2, of
    degree <= 2 deg y: one has degree `height`, the other too or below deg y."""
    q = ctx.p.p
    if q % 4 == 1:
        # x = 0: z = +-i*y, with i found here and not by the process-cached
        # sqrt_minus_one, so that every census makes the same _sqrt_int calls;
        # the three orders run in lockstep, so z is never computed
        i = _sqrt_int(q - 1, q)
        for y, z, w in zip(
            _polys_of_degree(q, height),
            _polys_of_degree(q, height, [c * i % q for c in range(q)]),
            _polys_of_degree(q, height, [c * (q - i) % q for c in range(q)]),
        ):
            yield (), y, z
            yield (), y, w
    span = height - ctx.beta
    if span < 0:
        return
    # x != 0: disc = (Axy)^2 - 4(x^2 + y^2) = u*y^2 - v with u = (Ax)^2 - 4
    # and v = 4x^2.  A pair whose disc(c) is a non-square at some point c is
    # dropped unsolved.  Every polynomial of degree <= span is held beside its
    # square and that square's values at the points, in the narrowest array
    # slot, one array shared by all polynomials with equal values, so that at
    # q = 5 at most 3^5 arrays are held.
    squares = {c * c % q for c in range(q)}
    powers = [[pow(c, e, q) for e in range(height + 1)] for c in range(q)]
    code = _SLOT_CODES[(q.bit_length() + 7) // 8]
    seen = {}

    def square_values(f):
        values = array(code, [sum(map(operator.mul, f, row)) ** 2 % q for row in powers])
        return seen.setdefault(values.tobytes(), values)

    by_degree = [
        [(f, _mul(f, f, q), square_values(f)) for f in _polys_of_degree(q, d)]
        for d in range(span + 1)
    ]
    a_coeffs = ctx.A.coeffs
    a2 = square_values(a_coeffs)
    inv2 = pow(2, -1, q)
    for a in range(span // 2 + 1):
        for x, x2, xv in by_degree[a]:
            ax = _mul(a_coeffs, x, q)
            u = _sub(_mul(ax, ax, q), (4,), q)
            v = _smul(x2, 4, q)
            uv = [((ac * xc - 4) % q, 4 * xc % q) for ac, xc in zip(a2, xv)]
            for y, y2, yv in by_degree[span - a]:
                for (uc, vc), yc in zip(uv, yv):
                    if (uc * yc - vc) % q not in squares:
                        break
                else:
                    r = _sqrt_coeffs(_sub(_mul(u, y2, q), v, q), q)
                    if r is None:
                        continue
                    s = _mul(ax, y, q)
                    roots = (_smul(_add(s, r, q), inv2, q),)
                    if r:
                        roots += (_smul(_sub(s, r, q), inv2, q),)
                    for z in roots:
                        if len(y) <= len(z):
                            yield x, y, z


def _weight(triple, ordered):
    """Solutions counted at a degree-sorted triple.  One that is not all
    constant has distinct coordinates and at most one pair of equal degrees,
    so one or two of its six orders are degree-sorted, the second swapping
    that pair.  The first counts 6 (ordered) or 1 + ties, the second 0."""
    x, y, z = triple
    u, v = (x, y) if len(x) == len(y) else (y, z)
    tied = len(u) == len(v)
    return 0 if tied and u > v else 6 if ordered else 1 + tied


def _triples(ctx: MarkoffContext, solutions, convention: str):
    """One MarkoffTriple at a time, in sorted order, from `_solutions`'
    tuples, or for ordered from every coordinate order of them."""
    if convention == "ordered":
        solutions = (o for t in solutions if _weight(t, True) for o in permutations(t))
    mod = ctx.p
    make = Polynomial._make
    for x, y, z in sorted(solutions):
        yield MarkoffTriple(make(mod, x), make(mod, y), make(mod, z))


def enumerate_solutions(
    ctx: MarkoffContext, max_height: int, convention: str
) -> list[MarkoffTriple]:
    """All solutions with every degree <= max_height, not all constant.

    ordered: every coordinate order.  degree_sorted: only triples with
    deg x <= deg y <= deg z.  Output is canonically sorted and deterministic.
    `pair_count(q, deg A, max_height)` bounds the work (see the module
    docstring).
    """
    _check_convention(convention)
    _check_pairs(ctx.p.p, ctx.beta, max_height)
    solutions = (t for h in range(1, max_height + 1) for t in _solutions(ctx, h))
    return list(_triples(ctx, solutions, convention))


def write_solutions_jsonl(solutions, fp):
    """Stream triples as JSON-lines, one triple JSON object per line: the
    text of json.dumps(triple.to_json(), separators=(",", ":")), built by
    joining the coefficients."""
    for triple in solutions:
        fp.write('{"x":%s,"y":%s,"z":%s}\n' % tuple(
            '{"p":%d,"coeffs":[%s]}' % (f.modulus.p, ",".join(map(str, f.coeffs)))
            for f in (triple.x, triple.y, triple.z)
        ))


# ----------------------------------------------------------------------
# census


class CensusReport(Record):
    """Brute-force class counts beside the closed formula's divisor terms.

    Solutions lying in the orbit of a constant solution (their descent
    bottoms out on an all-constant triple instead of a fundamental one, e.g.
    (1, 2, 2t) = rho(1, 2, 0) over F_5 with A = t) are counted separately:
    the divisor-sum formula does not model them.  The formula (a CountReport),
    its terms and their ratios (Fractions) are None when there is no formula.
    """

    __slots__ = ("q", "A", "n", "convention", "total", "fundamental_count",
                 "nonfundamental_count", "constant_orbit_count", "formula", "fundamental_term",
                 "nonfundamental_term", "fundamental_ratio", "nonfundamental_ratio")

    def __init__(self, q, A, n, convention, total, fundamental_count, nonfundamental_count,
                 constant_orbit_count, formula, fundamental_term, nonfundamental_term,
                 fundamental_ratio, nonfundamental_ratio):
        _set(self, "q", q)
        _set(self, "A", A)
        _set(self, "n", n)
        _set(self, "convention", convention)
        _set(self, "total", total)
        _set(self, "fundamental_count", fundamental_count)
        _set(self, "nonfundamental_count", nonfundamental_count)
        _set(self, "constant_orbit_count", constant_orbit_count)
        _set(self, "formula", formula)
        _set(self, "fundamental_term", fundamental_term)
        _set(self, "nonfundamental_term", nonfundamental_term)
        _set(self, "fundamental_ratio", fundamental_ratio)
        _set(self, "nonfundamental_ratio", nonfundamental_ratio)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "A": self.A.to_json(),
            "n": self.n,
            "convention": self.convention,
            "total": self.total,
            "fundamental_count": self.fundamental_count,
            "nonfundamental_count": self.nonfundamental_count,
            "constant_orbit_count": self.constant_orbit_count,
            "formula": self.formula.to_json() if self.formula is not None else None,
            "fundamental_term": self.fundamental_term,
            "nonfundamental_term": self.nonfundamental_term,
            "fundamental_ratio": _ratio_str(self.fundamental_ratio),
            "nonfundamental_ratio": _ratio_str(self.nonfundamental_ratio),
        }


def _ratio_str(ratio):
    return None if ratio is None else str(ratio)


def census(
    ctx: MarkoffContext,
    n: int,
    convention: str,
    solutions_out: str | None = None,
) -> CensusReport:
    """Split the solutions of height n >= 1 against the formula.

    The d = 1 divisor term counts fundamental triples and the d > 1 terms
    count non-fundamental triples that descend to a fundamental one; members
    of constant-solution orbits form a third class with no matching term.
    Solutions are counted as they stream, each set of coordinates once, at
    its first degree-sorted order (`_weight`).  Ratios are kept exact.  A
    path `solutions_out`, opened before any pair is solved, gets every
    solution of height <= n, sorted, as JSON-lines: only it needs heights < n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _check_convention(convention)
    _check_pairs(ctx.p.p, ctx.beta, n)
    # after _check_pairs, so a huge n is refused for its pairs
    formula = None
    fund_term = nonfund_term = None
    if ctx.beta >= 1:
        formula = count_finite_field(ctx.p.p, ctx.beta, n)
        if not formula.empty_field:
            fund_term = sum(t.contribution for t in formula.terms if t.d == 1)
            nonfund_term = sum(t.contribution for t in formula.terms if t.d > 1)

    solutions = _solutions(ctx, n)
    if solutions_out:
        with open(solutions_out, "w", encoding="utf-8") as fp:
            solutions = list(solutions)
            lower = (t for h in range(1, n) for t in _solutions(ctx, h))
            write_solutions_jsonl(_triples(ctx, chain(lower, solutions), convention), fp)

    counts = {"fundamental": 0, "nonfundamental": 0, "constant_orbit": 0}
    for triple in solutions:
        if weight := _weight(triple, convention == "ordered"):
            counts[_classify(ctx, triple)] += weight
    fundamental, nonfundamental, constant_orbit = counts.values()

    return CensusReport(
        q=ctx.p.p,
        A=ctx.A,
        n=n,
        convention=convention,
        total=fundamental + nonfundamental + constant_orbit,
        fundamental_count=fundamental,
        nonfundamental_count=nonfundamental,
        constant_orbit_count=constant_orbit,
        formula=formula,
        fundamental_term=fund_term,
        nonfundamental_term=nonfund_term,
        fundamental_ratio=_ratio(fundamental, fund_term),
        nonfundamental_ratio=_ratio(nonfundamental, nonfund_term),
    )


def _classify(ctx, triple):
    """Class of a degree-sorted coefficient-tuple solution."""
    x, y, z = triple
    if len(y) == len(z):
        return "fundamental"
    make = Polynomial._make
    try:
        ctx.descend(MarkoffTriple(make(ctx.p, x), make(ctx.p, y), make(ctx.p, z)))
    except AllConstant:
        return "constant_orbit"
    return "nonfundamental"


def _ratio(count, term):
    if term is None or term == 0:
        return None
    from fractions import Fraction  # here, not at the top: it loads `decimal`, slow to import
    return Fraction(count, term)


# ----------------------------------------------------------------------
# tree-count oracles


def _bfs_count(tree: TreeId, n: int) -> int:
    """Triples with maximum exactly n on one (alpha, beta)-tree, by a walk
    from the root that takes a run of branch-2 steps at a time.

    Applying branch 2 k >= 0 times to a vertex (t1, t2, t3) gives
    (t1, t3 + (k-1)s, t3 + ks) with s = t1 + beta, since t3 = t1 + t2 + beta
    on the tree.  Maxima strictly increase along branches, so the run holds
    maximum n at most once, when n >= t3 and s divides n - t3.  Every other
    vertex is the branch-1 child of a run member: of the vertex itself,
    (t2, t3, t2 + t3 + beta), or of its k-th step for k >= 1,
    (u, u + s, 2u + s + beta) with u = t3 + (k-1)s.  Those children start
    runs of their own, and the walk takes only those whose maximum is at
    most n.

    Most of those children are frontier vertices, counted where they are
    found and never pushed.  A child (a, b, c) whose branch-1 child has
    maximum b + c + beta > n has no descendant of maximum <= n, since the
    first branch-1 child along its run has maximum 2c + a + 2*beta, larger
    by 2(a + beta).  Its only test is its run's: does a + beta divide n - c?

    No vertex is reached twice, so the walk keeps no visited set: every
    vertex has t1 <= t2 < t3, with t1 = t2 only at the root, and one
    gamma-reduction step undoes a branching, so a child (u1, u2, u3) comes
    from (u2 - u1 - beta, u1, u2) by branch 1 or from (u1, u2 - u1 - beta, u2)
    by branch 2, whichever is sorted.  Both are sorted only when they are one
    triple with t1 = t2, the root, whose two children coincide; the walk
    takes that child once, as the first step of the root's run.  It runs on
    a plain stack of int tuples, with the two branching maps of `euclid`
    written inline, and uses no divisor or gcd."""
    beta = tree.beta
    count = 0
    stack = [tuple(root(tree))]
    push = stack.append
    while stack:
        t1, t2, t3 = stack.pop()
        s = t1 + beta
        if t3 <= n and (n - t3) % s == 0:
            count += 1
        top = t2 + t3 + beta
        if t1 < t2 and top <= n:
            if t3 + top + beta <= n:
                push((t2, t3, top))
            elif (n - top) % (t2 + beta) == 0:
                count += 1
        u, top = t3, 2 * t3 + s + beta
        while top <= n:
            v = u + s
            if v + top + beta <= n:
                push((u, v, top))
            elif (n - top) % (u + beta) == 0:
                count += 1
            u = v
            top += 2 * s
    return count


def _check_oracle_n(n, cap):
    if n < 1:
        raise ValueError("n must be positive")
    if n > cap:
        raise BudgetExceeded("oracle n", n, cap)


def oracle_E_bfs(n: int) -> int:
    _check_oracle_n(n, E_ORACLE_MAX_N)
    if n == 1:
        return 1  # by convention; the tree has no maximum below 2
    return _bfs_count(TreeId(1, 0), n)


def oracle_E_coprime(n: int) -> int:
    """Independent count: pairs b <= n/2 with gcd(b, n) = 1."""
    _check_oracle_n(n, E_ORACLE_MAX_N)
    if n == 1:
        return 1
    return sum(1 for b in range(1, n // 2 + 1) if math.gcd(b, n) == 1)


def oracle_E(n: int) -> int:
    """Both E-oracles, cross-checked against each other."""
    bfs = oracle_E_bfs(n)
    coprime = oracle_E_coprime(n)
    if bfs != coprime:
        raise AssertionError(f"E-oracles disagree at n={n}: bfs={bfs} coprime={coprime}")
    return bfs


def oracle_C_beta(beta: int, n: int) -> int:
    """Recompute C_beta(n) by walking every (alpha, beta)-tree that can
    reach maximum n, then adding one for the fundamental signature."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    _check_oracle_n(n, C_BETA_ORACLE_MAX_N)
    total = 0
    for alpha in range(1, n + 1):
        # a tree contributes only if n = d*alpha + (d-1)*beta for some d >= 2
        if (n + beta) % (alpha + beta) == 0 and (n + beta) // (alpha + beta) >= 2:
            total += _bfs_count(TreeId(alpha, beta), n)
    return total + 1
