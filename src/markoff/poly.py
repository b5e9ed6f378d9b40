"""Dense univariate polynomials over F_p.

Coefficients are stored as a tuple of canonical integers in ascending power
order with no trailing zeros; the zero polynomial has an empty tuple and
degree NEG_INF.  The ring operations are the tuple kernels `_mul`, `_add`,
`_sub` and `_smul`, the one copy of F_p[t] arithmetic: `Polynomial` wraps
them and the solution enumerator calls them directly.  `_mul` multiplies
small operands by the schoolbook loop and larger ones by Kronecker
substitution (one big-integer product).  A small expression parser and a
deterministic renderer (plain residues, or minimal-magnitude forms using
i = sqrt(-1)) round-trip polynomials through text.

The parser is one recursive descent over the characters of the text.  In
each sum it reads a term as the renderer writes it, `[+-][c*][i*]t[^k]` or
a constant `c`, `c*i` or `i`, with one term regex; any other term, and
every error, goes down through term(), power() and atom(), which raise at
the position of the character they fail on.  Values are coefficient tuples,
`t^k` is built as one tuple, and each sum is collected into one list of
integers and reduced mod p once, so a rendered degree-d polynomial parses
in time linear in d.  The parser refuses any power or product of degree
above MAX_PARSE_DEGREE (a bound on each term, not on the number of terms in
a sum).  The renderer works out the signed factor of each distinct
coefficient once per call and writes every term from it.
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


def parse_poly(text: str, modulus: PrimeModulus, offset: int = 0, name: str = "") -> Polynomial:
    """Evaluate a polynomial expression in F_p[t].

    Grammar: sums/differences of products of powers of atoms, where an atom
    is an integer literal (ASCII digits), `t`, `i` (requires p = 1 mod 4),
    or a parenthesized expression.  `^` takes a non-negative integer literal.

    When text is part of a longer argument, such as the coordinate z of a
    triple, error positions are counted from `offset`, the position of text
    in that argument, and error messages say "in z" for the `name` "z".
    """
    parser = _Parser(text, modulus, offset, f" in {name}" if name else "")
    coeffs = parser.expr()
    if parser.pos < len(text):
        raise parser.error(f"unexpected character {text[parser.pos]!r}", parser.pos)
    return Polynomial._make(modulus, coeffs)


# One term of a sum as render_poly writes it: a sign, then [c*][i*]t[^k]
# (groups 2-5) or a constant c, c*i (groups 6-7) or i (group 8), then a sign,
# a ')' or the end, so that no term is taken out of a longer product or power
# such as 2*t*(t+1) or t^2^3.  A coefficient has at most 640 digits, the
# least int-string limit Python can be set to, and an exponent at most 6; a
# longer literal fails the match.
_TERM = re.compile(
    r"([+-]?)(?:(?:([0-9]{1,640})\*)?(i\*)?(t)(?:\^([0-9]{1,6}))?|([0-9]{1,640})(\*i)?|(i))"
    r"(?=[-+)]|\Z)"
)
_BLANKS = re.compile(r"\s*")
_DIGITS = re.compile(r"[0-9]+")


class _Parser:
    """Recursive descent over the characters of the text, with blanks
    allowed between tokens (runs of ASCII digits, single characters); pos
    is the position of the next character to read.  Errors report
    offset + pos and add `where` to their message."""

    def __init__(self, text, modulus, offset, where):
        self.text = text
        self.modulus = modulus
        self.offset = offset
        self.where = where
        self.pos = 0
        self.i = None  # sqrt(-1), looked up at the first 'i'

    def error(self, message, pos):
        return ParseError(message + self.where, self.offset + pos)

    def peek(self):
        """The next non-blank character, "" at the end; self.pos is its
        position."""
        self.pos = _BLANKS.match(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1]

    def unit(self):
        if self.i is None:
            self.i = sqrt_minus_one(self.modulus)
        return self.i

    def expr(self):
        """A sum of terms; it stops at a non-blank character or the end."""
        text, acc, first, i = self.text, [], True, self.i
        self.peek()
        pos = self.pos
        while True:
            # a term after the first carries its own sign; term() reads one
            # over the degree cap, or with an 'i' at p = 3 (mod 4), and raises
            m = _TERM.match(text, pos)
            if m:
                sign, c, ti, t, k, cc, ci, ci_alone = m.groups()
                degree = int(k) if k else 1 if t else 0
                imaginary = ti or ci or ci_alone
                # i is None until the first 'i', and never 0 (i*i = -1)
                if (sign or first) and degree <= MAX_PARSE_DEGREE and (
                    not imaginary or (i := i or self.unit())
                ):
                    value = int(c or cc or 1)
                    if imaginary:
                        value *= i
                    if degree >= len(acc):
                        acc += [0] * (degree + 1 - len(acc))
                    acc[degree] += -value if sign == "-" else value
                    pos = m.end()
                    first = False
                    continue
            self.pos = pos
            sign = text[pos : pos + 1]
            if sign in ("+", "-"):
                self.pos += 1
            elif not first:
                break
            coeffs = self.term()
            if len(coeffs) > len(acc):
                acc += [0] * (len(coeffs) - len(acc))
            for j, v in enumerate(coeffs):
                acc[j] += -v if sign == "-" else v
            self.peek()
            pos = self.pos
            first = False
        p = self.modulus.p
        acc = [v % p for v in acc]
        while acc and acc[-1] == 0:
            acc.pop()
        return tuple(acc)

    def term(self):
        self.peek()
        start = self.pos
        coeffs = self.power()
        while self.peek() == "*":
            self.pos += 1
            c = self.power()
            if coeffs and c:
                self.cap(len(coeffs) + len(c) - 2, start)
            coeffs = _mul(coeffs, c, self.modulus.p)
        return coeffs

    def power(self):
        self.peek()
        start = self.pos
        coeffs = self.atom()
        while self.peek() == "^":
            self.pos += 1
            self.peek()
            exponent = self.literal()
            if exponent is None:
                raise self.error("expected exponent", self.pos)
            if not coeffs:
                coeffs = () if exponent else (1,)  # 0^0 = 1, as Polynomial.__pow__ has it
                continue
            degree = exponent * (len(coeffs) - 1)
            self.cap(degree, start)
            if any(coeffs[:-1]):
                coeffs = (Polynomial._make(self.modulus, coeffs) ** exponent).coeffs
            else:  # a monomial c*t^d, such as t: its power is one tuple
                coeffs = (0,) * degree + (pow(coeffs[-1], exponent, self.modulus.p),)
        return coeffs

    def literal(self):
        """The integer of the run of ASCII digits at pos, or None without one."""
        m = _DIGITS.match(self.text, self.pos)
        if m is None:
            return None
        try:
            value = int(m[0])
        except ValueError:  # a run of ASCII digits fails only the int-string limit
            raise self.error(
                f"integer literal of {len(m[0])} digits is too long", self.pos
            ) from None
        self.pos = m.end()
        return value

    def cap(self, degree, start):
        if degree > MAX_PARSE_DEGREE:
            raise BudgetExceeded(
                f"term degree{self.where} (position {self.offset + start})",
                degree,
                MAX_PARSE_DEGREE,
            )

    def atom(self):
        pos = self.pos  # of a non-blank character, or the end
        char = self.text[pos : pos + 1]
        if char == "(":
            self.pos += 1
            coeffs = self.expr()
            if self.peek() != ")":
                raise self.error("expected ')'", self.pos)
            self.pos += 1
            return coeffs
        if char == "t":
            self.pos += 1
            return (0, 1)
        if char == "i":
            if self.unit() is None:
                p = self.modulus.p
                raise IUnavailable(
                    f"'i'{self.where} at position {self.offset + pos}: "
                    f"-1 has no square root mod {p}"
                )
            self.pos += 1
            return (self.i,)
        c = self.literal()
        if c is None:
            raise self.error("expected integer, 't', 'i' or '('", pos)
        c %= self.modulus.p
        return (c,) if c else ()


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
