"""Dense univariate polynomials over F_p.

Coefficients are stored as a tuple of canonical integers in ascending power
order with no trailing zeros; the zero polynomial has an empty tuple and
degree NEG_INF.  The tuple kernels `_mul`, `_add`, `_sub`, `_smul`, `_pow`
and `_reduce` (integers mod p, trailing zeros stripped) are the one copy of
F_p[t] arithmetic: `Polynomial` and the parser do none of their own, and the
solution enumerator and tree growth call the kernels directly.  `_mul`
multiplies small operands by the schoolbook loop and larger ones by
Kronecker substitution (one big-integer product); `_pow` squares and
multiplies with `_mul`.  A small expression parser and a deterministic
renderer (plain residues, or minimal-magnitude forms using i = sqrt(-1))
round-trip polynomials through text.

The parser is one recursive descent over the characters of the text.  In
each sum it reads a term as the renderer writes it, `[+-][c*][i*]t[^k]` or
a constant `c`, `c*i` or `i`, with one term regex; any other term, and
every error, goes down through term(), power() and atom(), which raise at
the position of the character they fail on.  Values are coefficient tuples.
Each sum is collected into one list of integers, where the term regex adds
the c of a term c*t^k at index k, and `_reduce` reduces it mod p once, so a
rendered degree-d polynomial parses in time linear in d.  The parser
refuses any power or product of degree above MAX_PARSE_DEGREE (a bound on
each term, not on the number of terms in a sum).  A renderer, made per
export by `renderer`, works out the signed factor of each distinct
coefficient once and joins every term from it in C, with no term formatted
in Python.
"""

from __future__ import annotations

import re
import sys
from array import array
from itertools import compress
from operator import add, index

from .errors import BudgetExceeded, IUnavailable, ModulusMismatch, ParseError
from .field import PrimeModulus, _sqrt_int, sqrt_minus_one
from .record import Record, _set

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
# kernels on coefficient tuples (canonical residues, no trailing zeros);
# `_reduce` makes one from any integers


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


def _pow(a, k, p):
    # square and multiply: popcount(k) + bit_length(k) - 1 products for k >= 1
    c = (1,)
    while k:
        if k & 1:
            c = _mul(c, a, p)
        k >>= 1
        if k:
            a = _mul(a, a, p)
    return c


def _reduce(values, p):
    c = [v % p for v in values]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class Polynomial(Record):
    """Immutable dense polynomial over F_p, equal and hashed by its fields."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: PrimeModulus, coeffs=()):
        _set(self, "modulus", modulus)
        _set(self, "coeffs", _reduce(map(index, coeffs), modulus.p))

    @classmethod
    def _make(cls, modulus, coeffs):
        # internal fast path: coeffs already reduced, stripped, tuple
        self = object.__new__(cls)
        _set(self, "modulus", modulus)
        _set(self, "coeffs", coeffs)
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, modulus: PrimeModulus) -> "Polynomial":
        return cls._make(modulus, ())

    @classmethod
    def constant(cls, modulus: PrimeModulus, value: int) -> "Polynomial":
        return cls._make(modulus, _reduce((value,), modulus.p))

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
        return Polynomial._make(self.modulus, _pow(self.coeffs, exponent, self.modulus.p))

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
    inv2lead = pow(2 * lead, -1, p)
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
        return _reduce(acc, self.modulus.p)

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
            # a zero base, of length 0, is under the cap at any exponent
            self.cap(exponent * (len(coeffs) - 1), start)
            coeffs = _pow(coeffs, exponent, self.modulus.p)  # 0^0 = 1
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
        return _reduce((c,), self.modulus.p)


# ----------------------------------------------------------------------
# text memo and renderer


# An export keeps the text of each key in [0, MAX_KEPT_TEXTS) in one `_Texts`
# memo made for it and let go with it, about 0.5 MB when full (tracemalloc,
# CPython 3.11), so each residue mod p < 4096 is converted once: the depth-10
# tree at p = 13 writes 360,433 coefficients of 13 distinct values.  Any other
# key, such as most coefficients at a large p, is converted again at each use.
# That tree's JSON took 98-150 ms with str per int and 52-83 ms with the memo
# (best of 9 runs in 3-5 interleaved processes, 2-vCPU x86-64 host).
MAX_KEPT_TEXTS = 1 << 12


class _Texts(dict):
    """Text of each key, made by `convert` (str, unless an instance sets its
    own) at the key's first use; the text of a key in [0, MAX_KEPT_TEXTS) is
    kept."""

    convert = str

    def __missing__(self, key):
        text = self.convert(key)
        if 0 <= key < MAX_KEPT_TEXTS:
            self[key] = text
        return text


def renderer(modulus: PrimeModulus, style: str = "plain"):
    """render_poly for polynomials mod modulus.p in one style, as a function
    of the polynomial.  It keeps the signed factor of each coefficient it
    meets in a `_Texts` memo, and the text of each power of t, so one export,
    which renders many polynomials over few distinct coefficients, works each
    out once; make one per export and let it go with the export."""
    if style not in ("plain", "with_i"):
        raise ValueError(f"unknown style {style!r}")
    p, inv_i = modulus.p, None
    if style == "with_i":
        i = sqrt_minus_one(modulus)
        if i is None:
            raise IUnavailable(f"with_i rendering needs p = 1 (mod 4), got p = {p}")
        inv_i = pow(i, -1, p)

    def signed(c):
        # the signed factor of coefficient c, such as "+", "-3*" or "-2*i*"
        mag, sign, unit = c, "+", ""
        if inv_i is not None:
            v = c * inv_i % p
            # v = +-c would need i = +-1, so a real and an imaginary form never tie
            if min(v, p - v) < min(c, p - c):
                mag, unit = v, "i*"
            if mag > p - mag:
                mag, sign = p - mag, "-"
        return sign + ("" if mag == 1 else f"{mag}*") + unit

    texts = _Texts({0: ""})  # a zero term is dropped whatever its text
    texts.convert = signed
    factors = texts.__getitem__
    powers = ["", "t"]  # powers[k] is the text of t^k for k >= 1

    def render(f: Polynomial) -> str:
        coeffs = f.coeffs
        n = len(coeffs)
        if not n:
            return "0"
        if n > len(powers):
            powers.extend([f"t^{k}" for k in range(len(powers), n)])
        # the terms c_k*t^k for k = n-1 .. 1, each its signed factor and its
        # power, where c_k is nonzero; then the constant
        high = coeffs[:0:-1]
        text = "".join(compress(map(add, map(factors, high), powers[n - 1 : 0 : -1]), high))
        if coeffs[0]:
            factor = factors(coeffs[0])
            text += factor[:-1] if factor.endswith("*") else factor + "1"
        return text.removeprefix("+")

    return render


def render_poly(f: Polynomial, style: str = "plain") -> str:
    """Deterministic text form of f; parse_poly(render_poly(f)) == f.

    plain:  every coefficient as its canonical residue in [0, p).
    with_i: each coefficient as the single-term form among
            {c, -c', c''*i, -c''*i} with the smallest printed magnitude,
            ties preferring real over imaginary and positive over negative.
    """
    return renderer(f.modulus, style)(f)
