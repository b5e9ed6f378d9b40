"""Shared fixtures-by-convention for the test suite."""

import math

from markoff import counting
from markoff.euclid import EuclidTriple, TreeId, on_unit_tree
from markoff.field import PrimeModulus
from markoff.poly import Polynomial, parse_poly
from markoff.triples import MarkoffContext, MarkoffTriple

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)
P13 = PrimeModulus(13)


def triple_of(text: str, mod: PrimeModulus) -> MarkoffTriple:
    parts = text.strip()[1:-1].split(";")
    return MarkoffTriple(*(parse_poly(part, mod) for part in parts))


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


def random_nonconstant(rng, mod, max_deg):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randrange(mod.p) for _ in range(deg)] + [rng.randrange(1, mod.p)]
    return Polynomial(mod, coeffs)


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
