"""Dense univariate polynomials over F_p.

Coefficients are stored as a tuple of canonical integers in ascending power
order with no trailing zeros; the zero polynomial has an empty tuple and
degree NEG_INF.  The ring operations are the tuple kernels `_mul`, `_add`,
`_sub` and `_smul`, the one copy of F_p[t] arithmetic: `Polynomial` wraps
them and the solution enumerator calls them directly.  `_mul` multiplies
small operands by the schoolbook loop and larger ones by Kronecker
substitution (one big-integer product).  A small expression parser and a
deterministic renderer (plain residues, or minimal-magnitude forms using
i = sqrt(-1)) round-trip polynomials through text.  The parser first reads
a sum of terms as the renderer writes them, `[+-][c*][i*]t[^k]` or a
constant `c`, `c*i` or `i`, with one term regex, term after term into one
coefficient list reduced mod p once.  Everything else, and every input with
an error, goes to the recursive descent: it cuts the text into tokens (runs
of ASCII digits, single non-blank characters) and reads them into values
t^shift * coeffs, so `t^k` costs one shift; each sum is collected into one
coefficient list and reduced mod p once, so either way a rendered degree-d
polynomial parses in time linear in d.  Tokens are held without their
positions; an error finds its position again.  The parser refuses any power
or product of degree above MAX_PARSE_DEGREE (a bound on each term, not on
the number of terms in a sum).  The renderer works out the
signed factor of each distinct coefficient once per call and writes every
term from it.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass

from .errors import BudgetExceeded, IUnavailable, ModulusMismatch, ParseError
from .field import PrimeModulus, _sqrt_int, sqrt_minus_one

# Degree of the zero polynomial.  Orders below every integer and absorbs
# under addition, exactly what signature comparisons need.
NEG_INF = float("-inf")

ExtDegree = int | float

# The parser refuses to build a polynomial of higher degree than this, 65
# times the degree 1000 of the deepest benchmark triples; a dense polynomial
# of this degree, written out, is far longer than one command-line argument
# may be.  At the cap, (t+1)^65536 parses in about 0.1 s at p = 13.
MAX_PARSE_DEGREE = 1 << 16


# ----------------------------------------------------------------------
# kernels on coefficient tuples (canonical residues, no trailing zeros)


# Products of operands with at least this many coefficient pairs,
# len(a) * len(b), use Kronecker substitution; smaller ones use the schoolbook
# loop, which forms each pair in Python, where Kronecker substitution pays a
# fixed overhead and then time linear in the lengths.  Measured on random
# operands (CPython 3.11, x86-64, median of 40-60 paired interleaved
# timings), schoolbook time over Kronecker time at p = 5 / p = 13:
# 0.61 / 0.62 at 2x2, 0.81-0.88 / 0.97-0.98 at 4x4, 0.87 / 0.91 at 2x8,
# 0.98 / 1.03 at 3x7, 1.00 / 1.05 at 2x13, 1.12 / 1.19 at 5x5,
# 1.13 / 1.22 at 4x7, 1.17 / 1.26 at 5x6, 2.24 / 2.55 at 2x1000,
# 3.09 / 3.31 at 3x1000.
KRONECKER_MIN_PAIRS = 25

# Array typecode of the narrowest machine slot holding `width` bytes.
_SLOT_CODES = {w: next(c for c in "BHIQ" if array(c).itemsize >= w) for w in range(1, 9)}


def _mul(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    n = len(b)
    if n < 2:
        return _smul(a, b[0], p) if n else ()
    if n * len(a) >= KRONECKER_MIN_PAIRS:
        # Kronecker substitution: read each tuple as the digits of one
        # integer in base 2^(8*width), wide enough that no product
        # coefficient, at most (p-1)^2 * n, carries into the next digit; one
        # big-int product then holds every coefficient of the polynomial
        # product.  When that bound reaches 2^64 (p above about 2^32), a slot
        # would need more than 8 bytes and the schoolbook loop runs instead.
        width = (((p - 1) ** 2 * n).bit_length() + 7) // 8
        if width <= 8:
            code = _SLOT_CODES[width]
            x = int.from_bytes(array(code, a).tobytes(), sys.byteorder)
            y = x if a is b else int.from_bytes(array(code, b).tobytes(), sys.byteorder)
            digits = (x * y).to_bytes((len(a) + n - 1) * array(code).itemsize, sys.byteorder)
            return tuple([v % p for v in memoryview(digits).cast(code)])
    c = [0] * (len(a) + n - 1)
    for k, bk in enumerate(b):
        if bk:
            for j, aj in enumerate(a):
                c[k + j] += bk * aj
    return tuple([v % p for v in c])


def _add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    c = [(u + v) % p for u, v in zip(a, b)]
    c += a[len(b) :]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _sub(a, b, p):
    c = [(u - v) % p for u, v in zip(a, b)]
    if len(a) >= len(b):
        c += a[len(b) :]
    else:
        c += [-v % p for v in b[len(a) :]]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _smul(a, s, p):
    s %= p
    if s == 0:
        return ()
    return tuple([v * s % p for v in a])


@dataclass(frozen=True, init=False, repr=False)
class Polynomial:
    """Immutable dense polynomial over F_p, equal and hashed by its fields."""

    # declared here rather than by slots=True, which builds a new class that
    # the frozen __setattr__ does not know: assigning a name that is not a
    # field then raised TypeError instead of FrozenInstanceError
    __slots__ = ("modulus", "coeffs")

    modulus: PrimeModulus
    coeffs: tuple

    def __init__(self, modulus: PrimeModulus, coeffs=()):
        p = modulus.p
        c = [int(a) % p for a in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", tuple(c))

    @classmethod
    def _make(cls, modulus, coeffs):
        # internal fast path: coeffs already reduced, stripped, tuple
        self = object.__new__(cls)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, modulus: PrimeModulus) -> "Polynomial":
        return cls._make(modulus, ())

    @classmethod
    def constant(cls, modulus: PrimeModulus, value: int) -> "Polynomial":
        v = value % modulus.p
        return cls._make(modulus, (v,) if v else ())

    @classmethod
    def t(cls, modulus: PrimeModulus) -> "Polynomial":
        return cls._make(modulus, (0, 1))

    # ------------------------------------------------------------------
    # structure

    @property
    def degree(self) -> ExtDegree:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def leading_coeff(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.modulus != self.modulus:
            raise ModulusMismatch(
                f"cannot combine polynomials mod {self.modulus.p} and mod {other.modulus.p}"
            )
        return other

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        other = self._check(other)
        return Polynomial._make(self.modulus, _add(self.coeffs, other.coeffs, self.modulus.p))

    def __sub__(self, other):
        other = self._check(other)
        return Polynomial._make(self.modulus, _sub(self.coeffs, other.coeffs, self.modulus.p))

    def __neg__(self):
        return Polynomial._make(self.modulus, _smul(self.coeffs, -1, self.modulus.p))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scalar_mul(other)
        other = self._check(other)
        return Polynomial._make(self.modulus, _mul(self.coeffs, other.coeffs, self.modulus.p))

    __rmul__ = __mul__

    def scalar_mul(self, scalar: int) -> "Polynomial":
        return Polynomial._make(self.modulus, _smul(self.coeffs, scalar, self.modulus.p))

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(self.modulus, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Polynomial(p={self.modulus.p}, {render_poly(self)!r})"

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        return {"p": self.modulus.p, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, obj: dict) -> "Polynomial":
        return cls(PrimeModulus(obj["p"]), obj["coeffs"])


def poly_sqrt(f: Polynomial) -> Polynomial | None:
    """Square root of f in F_p[t], or None if f is not a square.

    The leading coefficient of the result is the canonical field square root
    of f's leading coefficient (so the result is deterministic among +-g).
    """
    coeffs = _sqrt_coeffs(f.coeffs, f.modulus.p)
    if coeffs is None:
        return None
    return Polynomial._make(f.modulus, coeffs)


def _sqrt_coeffs(f, p):
    """Raw coefficient-tuple square root; shared with the search oracle."""
    if not f:
        return ()
    deg = len(f) - 1
    if deg % 2:
        return None
    lead = _sqrt_int(f[-1], p)
    if lead is None:
        return None
    m = deg // 2
    g = [0] * (m + 1)
    g[m] = lead
    inv2lead = pow(2 * lead, p - 2, p)
    # match coefficients of t^(m+k) for k = m-1 .. 0
    for k in range(m - 1, -1, -1):
        acc = 0
        for a in range(k + 1, m):
            b = m + k - a
            if b < a:
                break
            acc += g[a] * g[b] * (2 if a != b else 1)
        g[k] = (f[m + k] - acc) * inv2lead % p
    # verify the lower half, i.e. that g*g really equals f
    g = tuple(g)
    if _mul(g, g, p) != f:
        return None
    return g


# ----------------------------------------------------------------------
# expression parser: integers, t, i, + - * ^, parentheses


def parse_poly(text: str, modulus: PrimeModulus) -> Polynomial:
    """Evaluate a polynomial expression in F_p[t].

    Grammar: sums/differences of products of powers of atoms, where an atom
    is an integer literal (ASCII digits), `t`, `i` (requires p = 1 mod 4),
    or a parenthesized expression.  `^` takes a non-negative integer literal.
    """
    coeffs = _read_sum(text, modulus)
    if coeffs is None:
        parser = _Parser(text, modulus)
        _, coeffs = parser.expr()
        token = parser.tokens[parser.k]
        if token:
            raise ParseError(f"unexpected character {token[0]!r}", parser.position(parser.k))
    return Polynomial._make(modulus, coeffs)


# One term of a sum as render_poly writes it: a sign, optional on the first
# term, then [c*][i*]t[^k] (groups 2-5) or a constant c, c*i (groups 6-7) or
# i (group 8).  A coefficient has at most 640 digits, the least int-string
# limit Python can be set to, and an exponent at most 6; a longer literal
# fails the match.
_TERM = re.compile(
    r"([+-]?)(?:(?:([0-9]{1,640})\*)?(i\*)?(t)(?:\^([0-9]{1,6}))?|([0-9]{1,640})(\*i)?|(i))"
)


def _read_sum(text, modulus):
    """Coefficients of text read as a sum of rendered terms, or None when it
    is not one, or holds an 'i' with p = 3 (mod 4) or a term above
    MAX_PARSE_DEGREE; the recursive descent then reads it, or reports the
    error at its position."""
    text = text.strip()
    i = None  # looked up at the first 'i', as the recursive descent does
    acc = []
    pos, end = 0, len(text)
    while pos < end:
        m = _TERM.match(text, pos)
        if m is None:
            return None
        sign, c, ti, t, k, cc, ci, ci_alone = m.groups()
        if pos and not sign:
            return None
        degree = int(k) if k else 1 if t else 0
        if degree > MAX_PARSE_DEGREE:
            return None
        value = int(c or cc or 1)
        if ti or ci or ci_alone:
            if i is None:
                i = sqrt_minus_one(modulus)
                if i is None:
                    return None
            value *= i
        if degree >= len(acc):
            acc += [0] * (degree + 1 - len(acc))
        acc[degree] += -value if sign == "-" else value
        pos = m.end()
    return _reduced(acc, modulus.p) if end else None


def _reduced(acc, p):
    """The coefficient tuple of a list of unreduced integers."""
    acc = [v % p for v in acc]
    while acc and acc[-1] == 0:
        acc.pop()
    return tuple(acc)


# A token is a run of ASCII digits or one non-blank character.
_TOKEN = re.compile(r"[0-9]+|\S")


class _Parser:
    """Recursive descent over the token list of the text, closed by the end
    token "".  A value (shift, coeffs) stands for t^shift times the
    polynomial with coefficient tuple coeffs; a sum is collected term by term
    and reduced once.  Tokens are read by index; an error finds the character
    position of its token again from the text."""

    def __init__(self, text, modulus):
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.k = 0
        self.modulus = modulus

    def position(self, k):
        """Character position of token k; the end token's is len(text)."""
        for j, m in enumerate(_TOKEN.finditer(self.text)):
            if j == k:
                return m.start()
        return len(self.text)

    def expr(self):
        terms = []
        while True:
            token = self.tokens[self.k]
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
        return 0, _reduced(acc, self.modulus.p)

    def term(self):
        start = self.k
        shift, coeffs = self.power()
        while self.tokens[self.k] == "*":
            self.k += 1
            s, c = self.power()
            if coeffs and c:
                self.cap(shift + len(coeffs) + s + len(c) - 2, start)
            shift, coeffs = shift + s, _mul(coeffs, c, self.modulus.p)
        return shift, coeffs

    def power(self):
        start = self.k
        shift, coeffs = self.atom()
        while self.tokens[self.k] == "^":
            token = self.tokens[self.k + 1]
            if not (token.isascii() and token.isdigit()):
                raise ParseError("expected exponent", self.position(self.k + 1))
            exponent = self.integer(token, self.k + 1)
            self.k += 2
            if coeffs:
                self.cap(exponent * (shift + len(coeffs) - 1), start)
            if len(coeffs) == 1:
                coeffs = (pow(coeffs[0], exponent, self.modulus.p),)
            elif coeffs:
                coeffs = (Polynomial._make(self.modulus, coeffs) ** exponent).coeffs
            elif exponent == 0:
                coeffs = (1,)  # 0^0 = 1, as Polynomial.__pow__ has it
            shift *= exponent
        return shift, coeffs

    def integer(self, token, k):
        try:
            return int(token)
        except ValueError:  # a run of ASCII digits fails only the int-string limit
            raise ParseError(
                f"integer literal of {len(token)} digits is too long", self.position(k)
            ) from None

    def cap(self, degree, start):
        if degree > MAX_PARSE_DEGREE:
            raise BudgetExceeded(
                f"term degree (position {self.position(start)})", degree, MAX_PARSE_DEGREE
            )

    def atom(self):
        k = self.k
        token = self.tokens[k]
        self.k += 1
        if token == "(":
            value = self.expr()
            if self.tokens[self.k] != ")":
                raise ParseError("expected ')'", self.position(self.k))
            self.k += 1
            return value
        if token == "t":
            return 1, (1,)
        if token == "i":
            i = sqrt_minus_one(self.modulus)
            if i is None:
                p = self.modulus.p
                raise IUnavailable(
                    f"'i' at position {self.position(k)}: -1 has no square root mod {p}"
                )
            return 0, (i,)
        if token.isascii() and token.isdigit():
            c = self.integer(token, k) % self.modulus.p
            return 0, (c,) if c else ()
        raise ParseError("expected integer, 't', 'i' or '('", self.position(k))


# ----------------------------------------------------------------------
# renderer


def render_poly(f: Polynomial, style: str = "plain") -> str:
    """Deterministic text form of f; parse_poly(render_poly(f)) == f.

    plain:  every coefficient as its canonical residue in [0, p).
    with_i: each coefficient as the single-term form among
            {c, -c', c''*i, -c''*i} with the smallest printed magnitude,
            ties preferring real over imaginary and positive over negative.
    """
    if style not in ("plain", "with_i"):
        raise ValueError(f"unknown style {style!r}")
    if f.is_zero():
        return "0"
    coeffs, p = f.coeffs, f.modulus.p
    if style == "with_i":
        i = sqrt_minus_one(f.modulus)
        if i is None:
            raise IUnavailable(f"with_i rendering needs p = 1 (mod 4), got p = {p}")
        inv_i = pow(i, p - 2, p)
    # each distinct coefficient's signed factor, such as "+", "-3*" or "-2*i*"
    signed = {}
    for c in set(coeffs) - {0}:
        mag, sign, unit = c, "+", ""
        if style == "with_i":
            v = c * inv_i % p
            # v = +-c would need i = +-1, so a real and an imaginary form never tie
            if min(v, p - v) < min(c, p - c):
                mag, unit = v, "i*"
            if mag > p - mag:
                mag, sign = p - mag, "-"
        signed[c] = sign + ("" if mag == 1 else f"{mag}*") + unit
    terms = [f"{signed[coeffs[k]]}t^{k}" for k in range(len(coeffs) - 1, 1, -1) if coeffs[k]]
    if len(coeffs) > 1 and coeffs[1]:
        terms.append(signed[coeffs[1]] + "t")
    if coeffs[0]:
        factor = signed[coeffs[0]]
        terms.append(factor[:-1] if factor.endswith("*") else factor + "1")
    return "".join(terms).removeprefix("+")
