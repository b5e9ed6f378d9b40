"""Closed-form counting of Markoff-triple signatures and solutions.

E(n) = phi(n)/2 counts (1,0)-Euclid-tree triples with maximum n > 2;
C_beta(n) and C_A(n) count signatures of Markoff triples of height n;
`signature_count` gives the solutions over F_q[t] of one degree signature and
their class, and `count_finite_field` all of height n for non-constant A.
Each count factorizes n + beta once.  Caps, each raising BudgetExceeded:
MAX_TRIAL_DIVISOR, MAX_DIVISOR_TERMS, MAX_COUNT_DIGITS.  Reports are records.
"""

from __future__ import annotations

import math

from .errors import BudgetExceeded, ConstantANotSupported, NonConstantA
from .field import is_prime
from .record import Record, _set

# Trial division stops here while a cofactor remains: n factorizes when it is
# a product of primes up to this bound and at most one prime below about its
# square, so every n below 2^32 does.
MAX_TRIAL_DIVISOR = 1 << 16

# The most divisors a count walks.  No n below 2^64 is refused: the most
# divisors such an n has is 103,680 (897612484786617600 is one).
MAX_DIVISOR_TERMS = 1 << 17

# Python's default limit on the digits of an int converted to text: a count
# with more digits than this cannot be printed.
MAX_COUNT_DIGITS = 4300


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization by divisors up to MAX_TRIAL_DIVISOR."""
    if n < 1:
        raise ValueError("n must be positive")
    factors = {}
    d = 2
    while d * d <= n:
        if d > MAX_TRIAL_DIVISOR:
            raise BudgetExceeded("trial divisor", d, MAX_TRIAL_DIVISOR)
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _divisor_walk(n: int) -> list[tuple[int, int]]:
    """(d, phi(d)) for every divisor d of n in ascending order, from one
    factorization of n; too many divisors are refused before any is built."""
    factors = factorize(n)
    count = math.prod(e + 1 for e in factors.values())
    if count > MAX_DIVISOR_TERMS:
        raise BudgetExceeded("divisor terms", count, MAX_DIVISOR_TERMS)
    walk = [(1, 1)]
    for prime, exp in factors.items():
        # phi(prime^k) = prime^k - prime^(k-1) for k >= 1
        powers = [(1, 1)] + [(prime**k, prime**k - prime ** (k - 1)) for k in range(1, exp + 1)]
        walk = [(d * pk, phi * phi_pk) for d, phi in walk for pk, phi_pk in powers]
    walk.sort()
    return walk


def _E(d: int, phi: int) -> int:
    # E(d) counts the b <= d/2 coprime to d: b and d - b pair off for d > 2
    return 1 if d <= 2 else phi // 2


def divisors(n: int) -> list[int]:
    return [d for d, _ in _divisor_walk(n)]


def count_E(n: int) -> int:
    """Number of (1,0)-tree triples with maximum n (E(1) = 1)."""
    return _E(n, math.prod((p - 1) * p ** (e - 1) for p, e in factorize(n).items()))


def count_C0(n: int) -> int:
    """Signature count for beta = 0: floor(n/2) + 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return n // 2 + 1


class CountTerm(Record):
    __slots__ = ("d", "e", "multiplier")

    def __init__(self, d: int, e: int, multiplier: int):
        _set(self, "d", d)
        _set(self, "e", e)
        _set(self, "multiplier", multiplier)

    @property
    def contribution(self) -> int:
        return self.e * self.multiplier

    def to_json(self) -> dict:
        return {"d": self.d, "E": self.e, "multiplier": self.multiplier}


class CountReport(Record):
    """A divisor-sum value together with its per-divisor contributions."""

    __slots__ = ("value", "terms", "empty_field")

    def __init__(self, value: int, terms: tuple[CountTerm, ...], empty_field: bool = False):
        _set(self, "value", value)
        _set(self, "terms", terms)
        _set(self, "empty_field", empty_field)

    def to_json(self) -> dict:
        obj = {"value": self.value, "terms": [t.to_json() for t in self.terms]}
        if self.empty_field:
            obj["empty_field"] = True
        return obj


def _admissible_divisors(beta: int, n: int) -> list[tuple[int, int]]:
    # (d, phi(d)) for d | (n + beta) with beta * d < n + beta
    return [(d, phi) for d, phi in _divisor_walk(n + beta) if beta * d < n + beta]


def count_C_beta(beta: int, n: int) -> CountReport:
    """Signatures of non-fundamental triples of height n, plus one:
    sum of E(d) over d | (n+beta) with beta*d < n+beta."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if n < 1:
        raise ValueError("n must be positive")
    terms = tuple(CountTerm(d, _E(d, phi), 1) for d, phi in _admissible_divisors(beta, n))
    return CountReport(value=sum(t.contribution for t in terms), terms=terms)


def count_C_A(beta: int, n: int) -> int:
    """Signatures of Markoff triples of height exactly n; depends only on
    beta = deg A."""
    return C_A_from_C_beta(beta, count_C_beta(beta, n).value)


def C_A_from_C_beta(beta: int, c_beta: int) -> int:
    """C_A(n) from C_beta(n): constant A has two fundamental shapes, one more."""
    return c_beta + 1 if beta == 0 else c_beta


def signature_count(q: int, beta: int, signature) -> tuple[int, str | None]:
    """(degree_sorted count, class) of the solutions over F_q[t], deg A = beta,
    of degrees (a, b, c), deg 0 written -1, or (0, None).  (-1, n, n) holds
    2(q-1)q^n fundamental ones, and (0, n, n) 4(q-1)q^n if beta = 0.  Else c =
    a + b + beta; g = gcd(a + beta, b + beta) = beta gives 2(q-1) in constant
    orbits, g > beta m(q-1)q^(g-beta) non-fundamental ones, m = 2 if beta else 6."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    a, b, c = signature
    if q % 4 == 3 or not -1 <= a <= b <= c or c < 1:
        return 0, None
    if b == c and (a == -1 or a == 0 == beta):
        return (2 if a < 0 else 4) * (q - 1) * q**c, "fundamental"
    if a < 0 or a + b + beta != c or (g := math.gcd(a + beta, b + beta)) < beta:
        return 0, None
    if g == beta:
        return 2 * (q - 1), "constant_orbit"
    return (2 if beta else 6) * (q - 1) * q ** (g - beta), "nonfundamental"


class CumulativeReport(Record):
    __slots__ = ("total", "lower", "upper")

    def __init__(self, total: int, lower, upper):
        _set(self, "total", total)
        _set(self, "lower", lower)
        _set(self, "upper", upper)

    def to_json(self) -> dict:
        return {"total": self.total, "lower": str(self.lower), "upper": str(self.upper)}


def cumulative_signatures(H: int, beta: int = 0) -> CumulativeReport:
    """Sum of C_A(n) for n <= H with the exact sandwich bounds
    (H^2+5H)/4 < total <= (H^2+9H)/4.  Only defined for constant A."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if beta != 0:
        raise NonConstantA("cumulative sandwich bounds require constant A")
    if H < 1:
        raise ValueError("H must be positive")
    from fractions import Fraction  # here, not at the top: it loads `decimal`, slow to import
    upper = Fraction(H * H + 9 * H, 4)
    # the upper bound's numerator is the longest number printed: the total is
    # below it, and the lower bound's H*(H+5) is reduced by the same power of 2
    top = upper.numerator
    digits = int(math.log10(top)) + 1  # may be one off beside a power of 10
    digits += (top >= 10**digits) - (top < 10 ** (digits - 1))
    if digits > MAX_COUNT_DIGITS:
        raise BudgetExceeded("count digits", digits, MAX_COUNT_DIGITS)
    # sum of n//2 + 2 over n = 1..H, where the n//2 sum to floor(H/2)*ceil(H/2)
    total = 2 * H + (H // 2) * ((H + 1) // 2)
    return CumulativeReport(total=total, lower=Fraction(H * H + 5 * H, 4), upper=upper)


def count_finite_field(q: int, beta: int, n: int) -> CountReport:
    """Exact number of solutions of height n over F_q[t], deg A = beta >= 1:

        4*(q-1) * sum over d | (n+beta), beta*d < n+beta of
                  q^((n+beta)/d - beta) * E(d)

    For q = 3 (mod 4) the solution set is empty; the report carries value 0
    with an explicit flag rather than a vacuous formula evaluation.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if beta < 1:
        raise ConstantANotSupported(
            "no closed-form finite-field count for constant A; "
            "use the brute-force census instead"
        )
    if n < 1:
        raise ValueError("n must be positive")
    if not is_prime(q) or q == 2:
        raise ValueError(f"q must be an odd prime, got {q}")
    if q % 4 == 3:
        return CountReport(value=0, terms=(), empty_field=True)
    # the value is below q^(n+3); refuse before building a power too long to
    # print (exactly, from the float log10(q) as a ratio: a float of a huge n overflows)
    num, den = math.log10(q).as_integer_ratio()
    digits = num * (n + 3) // den + 1
    if digits > MAX_COUNT_DIGITS:
        raise BudgetExceeded("count digits", digits, MAX_COUNT_DIGITS)
    terms = tuple(
        CountTerm(d, _E(d, phi), 4 * (q - 1) * q ** ((n + beta) // d - beta))
        for d, phi in _admissible_divisors(beta, n)
    )
    return CountReport(value=sum(t.contribution for t in terms), terms=terms)
