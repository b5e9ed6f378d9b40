"""Brute-force ground truth, independent of the closed-form counts.

Solutions over F_q[t] of height <= n are enumerated by solving the
quadratic z^2 - (Axy)z + (x^2 + y^2) = 0 through its discriminant for
candidate pairs (x, y).  The degree lemma limits the pairs: in a solution
with deg x <= deg y <= deg z, the relations z + z' = Axy and
z*z' = x^2 + y^2 force either x = 0 and deg z = deg y, or
deg z = beta + deg x + deg y with beta = deg A.  So only x = 0 beside every
y of degree <= n, and the strata deg x <= deg y with
beta + deg x + deg y <= n, are solved: `pair_count(q, beta, n)` of them,
against the q^(2n+2) of a scan over all pairs (1521 against 390625 at
q = 5, A = t, n = 3).  The ordered convention permutes the
degree-sorted solutions.  Tree counts are recomputed by walking each tree.
The census splits the enumerated solutions into fundamental /
non-fundamental classes and compares each class with the matching
divisor-sum term of the closed formula.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .counting import CountReport, count_finite_field
from .errors import AllConstant, BudgetExceeded
from .euclid import TreeId, root
from .poly import Polynomial, _add, _mul, _smul, _sqrt_coeffs, _sub
from .triples import MarkoffContext, MarkoffTriple, is_fundamental

# The most candidate pairs enumerate_solutions solves; each pair gives at most
# two solutions.  (q, A, n) = (5, t, 7), 1,575,521 pairs, takes about 60 s
# and 479 MB through the CLI; (5, t, 8), 8,138,021 pairs, is refused.
MAX_CANDIDATE_PAIRS = 1 << 21

E_ORACLE_MAX_N = 10**4
C_BETA_ORACLE_MAX_N = 500

CONVENTIONS = ("ordered", "degree_sorted")


def _check_convention(convention: str):
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def pair_count(q: int, beta: int, max_height: int) -> int:
    """Candidate pairs (x, y) that `enumerate_solutions` solves at this height.

    That is q^(n+1) pairs with x = 0, plus (q-1)^2 * q^(a+b) pairs for each
    stratum deg x = a <= deg y = b with a + b <= n - beta.  Strata sharing
    s = a + b are counted together: there are s//2 + 1 of them.
    """
    return q ** (max_height + 1) + (q - 1) ** 2 * sum(
        (s // 2 + 1) * q**s for s in range(max_height - beta + 1)
    )


def _polys_of_degree(q, d):
    """Coefficient tuples of every polynomial of degree exactly d >= 0."""
    return [low + (lead,) for lead in range(1, q) for low in product(range(q), repeat=d)]


def enumerate_solutions(
    ctx: MarkoffContext, max_height: int, convention: str
) -> list[MarkoffTriple]:
    """All solutions with every degree <= max_height, not all constant.

    ordered: every coordinate order.  degree_sorted: only triples with
    deg x <= deg y <= deg z.  Output is canonically sorted and deterministic.

    Only the pairs (x, y) that the degree lemma (see the module docstring)
    allows are solved, `pair_count(q, deg A, max_height)` of them; the
    ordered solutions are the permutations of the degree-sorted ones.
    """
    _check_convention(convention)
    if max_height < 0:
        raise ValueError("max_height must be non-negative")
    q = ctx.p.p
    beta = ctx.beta
    if max_height >= MAX_CANDIDATE_PAIRS.bit_length():
        # q^(n+1) > 2^n > the cap: refuse before building a huge count
        raise BudgetExceeded(
            "candidate pairs", f"more than {q}^{max_height + 1}", MAX_CANDIDATE_PAIRS
        )
    pairs = pair_count(q, beta, max_height)
    if pairs > MAX_CANDIDATE_PAIRS:
        raise BudgetExceeded("candidate pairs", pairs, MAX_CANDIDATE_PAIRS)

    # every nonzero polynomial of degree <= n beside its square, by degree
    by_degree = [
        [(f, _mul(f, f, q)) for f in _polys_of_degree(q, d)] for d in range(max_height + 1)
    ]
    zero = [((), ())]
    span = max_height - beta
    scan = [(zero, zero + [entry for stratum in by_degree for entry in stratum])]
    scan += [
        (by_degree[a], by_degree[b]) for a in range(span + 1) for b in range(a, span - a + 1)
    ]
    a_coeffs = ctx.A.coeffs
    inv2 = pow(2, q - 2, q)
    max_len = max_height + 1

    found = []
    for xs, ys in scan:
        for x, x2 in xs:
            ax = _mul(a_coeffs, x, q)
            for y, y2 in ys:
                s = _mul(ax, y, q)
                c = _add(x2, y2, q)
                disc = _sub(_mul(s, s, q), _smul(c, 4, q), q)
                r = _sqrt_coeffs(disc, q)
                if r is None:
                    continue
                roots = (_smul(_add(s, r, q), inv2, q),)
                if r:
                    roots += (_smul(_sub(s, r, q), inv2, q),)
                for z in roots:
                    # deg x <= deg y <= deg z <= n, and not all constant
                    if max(len(y), 2) <= len(z) <= max_len:
                        found.append((x, y, z))

    if convention == "ordered":
        found = {order for triple in found for order in permutations(triple)}
    found = sorted(found)
    mod = ctx.p
    make = Polynomial._make
    return [
        MarkoffTriple(make(mod, x), make(mod, y), make(mod, z)) for x, y, z in found
    ]


def write_solutions_jsonl(solutions, fp):
    """Stream triples as JSON-lines, one triple JSON object per line."""
    for triple in solutions:
        fp.write(json.dumps(triple.to_json(), separators=(",", ":")))
        fp.write("\n")


# ----------------------------------------------------------------------
# census


@dataclass(frozen=True)
class CensusReport:
    """Brute-force class counts beside the closed formula's divisor terms.

    Solutions lying in the orbit of a constant solution (their descent
    bottoms out on an all-constant triple instead of a fundamental one, e.g.
    (1, 2, 2t) = rho(1, 2, 0) over F_5 with A = t) are counted separately:
    the divisor-sum formula does not model them.
    """

    q: int
    A: Polynomial
    n: int
    convention: str
    total: int
    fundamental_count: int
    nonfundamental_count: int
    constant_orbit_count: int
    formula: CountReport | None
    fundamental_term: int | None
    nonfundamental_term: int | None
    fundamental_ratio: Fraction | None
    nonfundamental_ratio: Fraction | None

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
    solutions: list[MarkoffTriple] | None = None,
) -> CensusReport:
    """Enumerate height-n solutions and split them against the formula.

    The d = 1 divisor term counts fundamental triples and the d > 1 terms
    count non-fundamental triples that descend to a fundamental one; members
    of constant-solution orbits form a third class with no matching term.
    Each triple is classified as given, unsorted; `descend` sorts it itself.
    Measured/predicted ratios are kept exact.  A caller that already holds
    `enumerate_solutions(ctx, n, convention)` passes it as `solutions`, and
    nothing is enumerated again.
    """
    _check_convention(convention)
    if solutions is None:
        solutions = enumerate_solutions(ctx, n, convention)
    fundamental = 0
    nonfundamental = 0
    constant_orbit = 0
    for triple in solutions:
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

    formula = None
    fund_term = nonfund_term = None
    if ctx.beta >= 1:
        formula = count_finite_field(ctx.p.p, ctx.beta, n)
        if not formula.empty_field:
            fund_term = sum(t.contribution for t in formula.terms if t.d == 1)
            nonfund_term = sum(t.contribution for t in formula.terms if t.d > 1)

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


def _ratio(count, term):
    if term is None or term == 0:
        return None
    return Fraction(count, term)


# ----------------------------------------------------------------------
# tree-count oracles


def _bfs_count(tree: TreeId, n: int) -> int:
    """Triples with maximum exactly n on one (alpha, beta)-tree, by a walk
    from the root.

    Maxima strictly increase along branches, so nodes whose maximum exceeds
    n are never expanded.  No vertex is reached twice, so the walk keeps no
    visited set: every vertex has t1 <= t2 < t3, with t1 = t2 only at the
    root, and one gamma-reduction step undoes a branching, so a child
    (u1, u2, u3) comes from (u2 - u1 - beta, u1, u2) by branch 1 or from
    (u1, u2 - u1 - beta, u2) by branch 2, whichever is sorted.  Both are
    sorted only when they are one triple with t1 = t2, the root, whose two
    children coincide; the walk expands that child once, from branch 2.
    It runs on a plain stack of int tuples, with the two branching maps of
    `euclid` written inline."""
    beta = tree.beta
    count = 0
    stack = [tuple(root(tree))]
    while stack:
        t1, t2, t3 = stack.pop()
        if t3 == n:
            count += 1
            continue  # children all have maximum > n
        if t1 < t2 and t2 + t3 + beta <= n:
            stack.append((t2, t3, t2 + t3 + beta))
        if t1 + t3 + beta <= n:
            stack.append((t1, t3, t1 + t3 + beta))
    return count


def oracle_E_bfs(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    if n > E_ORACLE_MAX_N:
        raise BudgetExceeded("oracle n", n, E_ORACLE_MAX_N)
    if n == 1:
        return 1  # by convention; the tree has no maximum below 2
    return _bfs_count(TreeId(1, 0), n)


def oracle_E_coprime(n: int) -> int:
    """Independent count: pairs b <= n/2 with gcd(b, n) = 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > E_ORACLE_MAX_N:
        raise BudgetExceeded("oracle n", n, E_ORACLE_MAX_N)
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
    if n < 1:
        raise ValueError("n must be positive")
    if n > C_BETA_ORACLE_MAX_N:
        raise BudgetExceeded("oracle n", n, C_BETA_ORACLE_MAX_N)
    total = 0
    for alpha in range(1, n + 1):
        # a tree contributes only if n = d*alpha + (d-1)*beta for some d >= 2
        if (n + beta) % (alpha + beta) == 0 and (n + beta) // (alpha + beta) >= 2:
            total += _bfs_count(TreeId(alpha, beta), n)
    return total + 1
