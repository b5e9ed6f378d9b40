import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    GOLDEN_TREE,
    budget_fields,
    parse_by_positions,
    render_by_candidates,
    triple_of,
)
import markoff.cli
import markoff.oracle
import markoff.poly
from markoff.errors import BudgetExceeded, IUnavailable, ModulusMismatch, ParseError
from markoff.field import PrimeModulus, is_prime, sqrt_minus_one
from markoff.poly import (
    MAX_PARSE_DEGREE,
    NEG_INF,
    Polynomial,
    _add,
    _mul,
    _pow,
    _sub,
    parse_poly,
    poly_sqrt,
    render_poly,
    renderer,
)

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)
P13 = PrimeModulus(13)
P17 = PrimeModulus(17)
P29 = PrimeModulus(29)
# the least prime p = 1 (mod 4) above 2^60: far too many residues for a table
# per modulus
P_LARGE = PrimeModulus(next(p for p in itertools.count(2**60 + 1, 4) if is_prime(p)))


def poly(mod, *coeffs):
    return Polynomial(mod, coeffs)


# p = 1 (mod 4) just below 2^31: with four or more coefficient pairs per
# digit a Kronecker slot needs more than 8 bytes, with three or fewer it fits
P_WIDE = PrimeModulus(2147483629)

# Kronecker slots: 1 and 2 bytes at p = 3, 2 and 4 bytes at p = 13, 8 bytes at
# p = 65537; at the three large primes a slot would need more than 8 bytes,
# so `_mul` keeps to the schoolbook loop.  The last is the largest prime
# below 2^63.
KERNEL_PRIMES = (3, 13, 65537, 2**31 - 1, 2**61 - 1, 2**63 - 25)


def poly_of_degree(rng, mod, degree):
    """A random polynomial of exactly this degree (-1 for zero)."""
    if degree < 0:
        return Polynomial.zero(mod)
    coeffs = [rng.randrange(mod.p) for _ in range(degree)]
    return Polynomial(mod, coeffs + [rng.randrange(1, mod.p)])


def small_polys(mod):
    """Polynomials of degree -1..5 with any residues as coefficients."""
    return st.lists(st.integers(0, mod.p - 1), max_size=6).map(lambda c: Polynomial(mod, c))


# Texts over the parser's alphabet: its single characters, digit runs up to
# exponents far over the degree cap, blanks, and one stray character (an
# Arabic-Indic digit, which is a digit but not an ASCII one).
parser_inputs = st.lists(
    st.one_of(
        st.sampled_from(list("ti+-*^() ") + ["\u0663"]),
        st.integers(0, 10**9).map(str),
    ),
    max_size=25,
).map("".join)


# Near misses of a rendered sum, each put in at one place: a sign, '^', '*',
# a parenthesis or a blank; a product where a term may stand; a literal over
# 640 digits (a coefficient the term regex does not read) or past Python's
# int-string limit; and terms over the degree cap.
NEAR_MISSES = (
    "+", "-", "^", "*", "(", ")", " ", "0*1", "2*", "*i", "i*", "7" * 700, "1" * 5000,
    "+t^70000", "+t^1234567", "-3*t^65536",
)

# A sum as an atom, where a ')' ends its last term read by the term regex.
WRAPS = ("{}", "({})", "2*({})^2", "({})*t")


@st.composite
def rendered_sums(draw):
    """render_poly output at p = 13, in either style, as it is, with a
    character taken out (such as a missing sign), or with a near miss put in;
    then as it is or wrapped in parentheses."""
    f = draw(st.lists(st.integers(0, 12), max_size=40).map(lambda c: Polynomial(P13, c)))
    text = render_poly(f, draw(st.sampled_from(("plain", "with_i"))))
    k = draw(st.integers(0, len(text)))
    change = draw(st.sampled_from(("none", "drop", "insert")))
    if change == "drop":
        text = text[:k] + text[k + 1 :]
    elif change == "insert":
        text = text[:k] + draw(st.sampled_from(NEAR_MISSES)) + text[k:]
    return draw(st.sampled_from(WRAPS)).format(text)


def parse_outcome(parse, text, mod):
    try:
        return parse(text, mod)
    except (ParseError, IUnavailable, BudgetExceeded) as err:
        return type(err), str(err), getattr(err, "position", None)


class TestStructure:
    def test_degree_of_zero_is_neg_inf(self):
        assert Polynomial.zero(P13).degree == NEG_INF
        assert NEG_INF < 0 and NEG_INF < 10**9
        assert max(NEG_INF, 3) == 3

    def test_trailing_zeros_stripped(self):
        assert poly(P5, 1, 2, 0, 0).coeffs == (1, 2)

    def test_leading_coeff(self):
        assert poly(P5, 1, 3).leading_coeff == 3
        with pytest.raises(ValueError):
            Polynomial.zero(P5).leading_coeff

    def test_json_roundtrip(self):
        f = poly(P13, 11, 10, 1)
        assert f.to_json() == {"p": 13, "coeffs": [11, 10, 1]}
        assert Polynomial.from_json(f.to_json()) == f
        assert Polynomial.zero(P5).to_json() == {"p": 5, "coeffs": []}

    @pytest.mark.parametrize("field, value", [("coeffs", (1,)), ("modulus", P7), ("foo", 1)])
    def test_fields_cannot_be_assigned(self, field, value):
        f = poly(P5, 1, 3)
        with pytest.raises(AttributeError):
            setattr(f, field, value)
        with pytest.raises(AttributeError):
            delattr(f, field)
        assert f.coeffs == (1, 3) and f.modulus == P5 and not hasattr(f, "foo")

    def test_equal_and_hashed_by_modulus_and_coeffs(self):
        f = poly(P13, 11, 10, 1)
        g = Polynomial(P13, [11, 10, 1, 0])
        assert f == g == parse_poly("t^2-3*t-2", P13) and hash(f) == hash(g)
        assert f != poly(P13, 11, 10, 2) and f != poly(P17, 11, 10, 1)
        assert f != (11, 10, 1) and Polynomial.zero(P5) != Polynomial.zero(P7)


class TestArithmetic:
    def test_mul_example(self):
        t1 = poly(P5, 1, 1)
        assert t1 * t1 == poly(P5, 1, 2, 1)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            poly(P5, 1) + poly(P13, 1)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from([P5, P13]).flatmap(lambda mod: st.tuples(*[small_polys(mod)] * 3)))
    def test_ring_axioms(self, fgh):
        f, g, h = fgh
        zero = Polynomial.zero(f.modulus)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f - g == f + (-g)
        assert f + (-f) == zero
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * Polynomial.constant(f.modulus, 1) == f
        if not f.is_zero() and not g.is_zero():
            assert (f * g).degree == f.degree + g.degree
        else:
            assert (f * g).degree == NEG_INF

    def test_scalar_and_pow(self):
        f = poly(P5, 1, 1)
        assert f.scalar_mul(3) == poly(P5, 3, 3)
        assert f * 0 == Polynomial.zero(P5)
        assert f**2 == poly(P5, 1, 2, 1)
        assert f**0 == poly(P5, 1)

    def test_refused_operands_and_truth(self):
        t = Polynomial.t(P5)
        with pytest.raises(TypeError, match="expected Polynomial, got int"):
            t + 1
        with pytest.raises(ValueError, match="negative exponent"):
            t**-1
        assert not Polynomial.zero(P5) and t


class TestKernels:
    def test_one_copy_shared_with_the_enumerator(self):
        for name in ("_mul", "_add", "_sub", "_smul"):
            assert getattr(markoff.oracle, name) is getattr(markoff.poly, name)

    def test_sqrt_checks_its_root_with_the_kernel(self, monkeypatch):
        calls = []
        kernel = markoff.poly._mul

        def counting_mul(a, b, p):
            calls.append((a, b))
            return kernel(a, b, p)

        monkeypatch.setattr(markoff.poly, "_mul", counting_mul)
        assert poly_sqrt(poly(P5, 1, 2, 1)) == poly(P5, 1, 1)
        assert calls == [((1, 1), (1, 1))]


def schoolbook_mul(a, b, p):
    c = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return stripped(v % p for v in c)


def stripped(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def counted_muls(monkeypatch):
    """A one-item list that counts the later calls of poly's _mul."""
    calls = [0]
    kernel = markoff.poly._mul

    def counting_mul(a, b, p):
        calls[0] += 1
        return kernel(a, b, p)

    monkeypatch.setattr(markoff.poly, "_mul", counting_mul)
    return calls


@st.composite
def kernel_operands(draw, max_len=40):
    """A prime and two canonical coefficient tuples (no trailing zeros)."""
    p = draw(st.sampled_from(KERNEL_PRIMES))

    def coeffs():
        n = draw(st.integers(0, max_len))
        if n == 0:
            return ()
        body = draw(st.lists(st.integers(0, p - 1), min_size=n - 1, max_size=n - 1))
        return tuple(body) + (draw(st.integers(1, p - 1)),)

    return p, coeffs(), coeffs()


class TestKernelEquivalence:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(kernel_operands())
    def test_mul_matches_schoolbook(self, operands):
        p, a, b = operands
        assert _mul(a, b, p) == schoolbook_mul(a, b, p)
        assert _mul(a, a, p) == schoolbook_mul(a, a, p)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.sampled_from(KERNEL_PRIMES), st.randoms(use_true_random=False))
    def test_mul_matches_schoolbook_at_length_300(self, p, rng):
        a = tuple(rng.randrange(p) for _ in range(299)) + (rng.randrange(1, p),)
        n = rng.choice((1, 2, 3, 37, 300))
        b = tuple(rng.randrange(p) for _ in range(n - 1)) + (rng.randrange(1, p),)
        assert _mul(a, b, p) == schoolbook_mul(a, b, p)
        assert _mul(b, a, p) == schoolbook_mul(a, b, p)
        assert _mul(a, a, p) == schoolbook_mul(a, a, p)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_no_carry_between_slots(self, p):
        # all coefficients p - 1 give the largest product coefficients,
        # (p-1)^2 * n; take n just at and just past each slot size's limit
        lengths = {1, 2, 4, 5}
        for bits in (8, 16, 32, 64):
            n = (2**bits - 1) // (p - 1) ** 2
            lengths |= {n, n + 1}
        for n in sorted(n for n in lengths if 1 <= n <= 600):
            a = (p - 1,) * n
            assert _mul(a, a, p) == schoolbook_mul(a, a, p), n
            assert _mul(a, (p - 1,) * (n + 3), p) == schoolbook_mul(a, (p - 1,) * (n + 3), p), n

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(kernel_operands(), st.booleans())
    def test_add_sub_match_reference(self, operands, cancel):
        p, a, b = operands
        if cancel:
            # b agrees with a from index k up, so their leading terms cancel
            k = len(a) // 2
            b = stripped((b + (0,) * k)[:k] + a[k:])
        width = max(len(a), len(b))
        pa, pb = a + (0,) * (width - len(a)), b + (0,) * (width - len(b))
        assert _add(a, b, p) == stripped((u + v) % p for u, v in zip(pa, pb))
        assert _sub(a, b, p) == stripped((u - v) % p for u, v in zip(pa, pb))
        assert _sub(a, a, p) == ()
        assert _add(a, tuple(-v % p for v in a), p) == ()

    # the expression-tree property raises powers with Polynomial.__pow__,
    # which shares _pow with the parser; these check _pow on its own
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.sampled_from([5, 13]).flatmap(
            lambda p: st.tuples(
                st.just(p), st.lists(st.integers(0, p - 1), max_size=6).map(stripped)
            )
        ),
        st.integers(0, 12),
    )
    def test_pow_matches_repeated_mul(self, pa, k):
        p, a = pa
        expected = (1,)
        for _ in range(k):
            expected = _mul(expected, a, p)
        assert _pow(a, k, p) == expected

    @pytest.mark.parametrize("p", [5, 13])
    def test_pow_of_zero(self, p):
        assert _pow((), 0, p) == (1,)
        assert _pow((), 3, p) == ()

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 12, 1000, 65535, 65536])
    def test_pow_work_is_square_and_multiply(self, k, monkeypatch):
        calls = counted_muls(monkeypatch)
        assert _pow((0, 3), k, 13) == (0,) * k + (pow(3, k, 13),)
        assert calls[0] == bin(k).count("1") + k.bit_length() - 1

    @pytest.mark.parametrize("text", ["(t)^65536", "(t+1)^65536"])
    def test_parsed_power_is_square_and_multiply(self, text, monkeypatch):
        calls = counted_muls(monkeypatch)
        parse_poly(text, P13)
        assert calls[0] == 17


# Expression trees: leaves are integers, "t" and "i"; inner nodes are
# ("+" | "-" | "*", left, right), ("^", base, exponent) and ("neg", operand).
expression_trees = st.recursive(
    st.one_of(st.integers(0, 10**30), st.sampled_from(("t", "i"))),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*"), sub, sub),
        st.tuples(st.just("^"), sub, st.integers(0, 4)),
        st.tuples(st.just("neg"), sub),
    ),
    max_leaves=12,
)

PRECEDENCE = {"+": 1, "-": 1, "neg": 1, "*": 2, "^": 3}


def tree_text(node, blank):
    """(text, precedence) of an expression tree, with the fewest parentheses
    that keep its value and `blank()` between tokens."""
    if not isinstance(node, tuple):
        return str(node), 4

    def operand(child, least):
        text, precedence = tree_text(child, blank)
        return text if precedence >= least else f"({blank()}{text}{blank()})"

    op = node[0]
    if op == "neg":
        return f"-{blank()}{operand(node[1], 2)}", 1
    if op == "^":
        return f"{operand(node[1], 3)}{blank()}^{blank()}{node[2]}", 3
    # operators group to the left, so a right operand must bind tighter:
    # a - (b + c) and a + (-b) keep their parentheses
    least = PRECEDENCE[op]
    left, right = operand(node[1], least), operand(node[2], least + 1)
    return f"{left}{blank()}{op}{blank()}{right}", least


def tree_value(node, mod):
    """The tree evaluated with Polynomial operators."""
    if isinstance(node, int):
        return Polynomial.constant(mod, node)
    if node == "t":
        return Polynomial.t(mod)
    if node == "i":
        return Polynomial.constant(mod, sqrt_minus_one(mod))
    op = node[0]
    if op == "neg":
        return -tree_value(node[1], mod)
    if op == "^":
        base = tree_value(node[1], mod)
        assume(node[2] * max(base.degree, 0) <= 1000)
        return base ** node[2]
    a, b = tree_value(node[1], mod), tree_value(node[2], mod)
    return a + b if op == "+" else a - b if op == "-" else a * b


class TestPolySqrt:
    def test_perfect_square(self):
        assert poly_sqrt(poly(P5, 1, 2, 1)) == poly(P5, 1, 1)

    def test_canonical_leading_coeff(self):
        # sqrt(4) mod 5 is min(2, 3) = 2
        assert poly_sqrt(poly(P5, 0, 0, 4)) == poly(P5, 0, 2)

    def test_non_square(self):
        # t^2 + 1 = (t+2)(t+3) over F_5, squarefree, so not a square;
        # confirmed by exhaustive search over degree <= 1 polynomials
        target = poly(P5, 1, 0, 1)
        assert poly_sqrt(target) is None
        for a in range(5):
            for b in range(5):
                g = poly(P5, a, b)
                assert g * g != target

    def test_zero_and_odd_degree(self):
        assert poly_sqrt(Polynomial.zero(P13)) == Polynomial.zero(P13)
        assert poly_sqrt(poly(P13, 0, 1)) is None

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from([P5, P13]).flatmap(small_polys))
    def test_square_roundtrip(self, f):
        root = poly_sqrt(f * f)
        if f.is_zero():
            assert root == f
            return
        assert root in (f, -f)
        lead = root.leading_coeff
        assert lead <= f.modulus.p - lead


class TestParser:
    def test_golden_expression(self):
        assert parse_poly("t^2+2*i*t-2", P13).coeffs == (11, 10, 1)

    def test_parenthesized_product(self):
        assert parse_poly("(t+1)*(t-1)", P5) == poly(P5, 4, 0, 1)

    def test_i_unavailable(self):
        with pytest.raises(IUnavailable):
            parse_poly("i", P7)

    def test_whitespace_and_power(self):
        assert parse_poly(" ( t + 1 ) ^ 2 ", P5) == poly(P5, 1, 2, 1)
        assert parse_poly("2^3", P5) == poly(P5, 3)

    def test_leading_minus(self):
        assert parse_poly("-2", P13) == poly(P13, 11)
        assert parse_poly("-t+1", P13) == poly(P13, 1, 12)

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("t+", 2), ("(t+1", 4), ("t^x", 2), ("t*", 2), ("2**3", 2), ("t+%", 2),
            # empty input and a lone '(' stop at the end of the text, not past it
            ("", 0), ("   ", 3), ("(", 1),
            # only ASCII digits make a number
            ("\u0663", 0), ("t^\u00b2", 2),
            # a literal past Python's int-string limit, as coefficient or exponent
            pytest.param("1" * 5000, 0, id="long-coefficient"),
            pytest.param("t+" + "7" * 5000 + "*t", 2, id="long-inner-coefficient"),
            pytest.param("t^" + "1" * 5000, 2, id="long-t-exponent"),
            pytest.param("2^" + "1" * 5000, 2, id="long-constant-exponent"),
        ],
    )
    def test_syntax_error_positions(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse_poly(text, P5)
        assert err.value.position == pos

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("t t", P5)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2000), st.sampled_from([P5, P7, P13]))
    def test_t_power_matches_pow(self, k, mod):
        assert parse_poly(f"t^{k}", mod) == Polynomial.t(mod) ** k

    def test_t_power_does_not_call_pow(self, monkeypatch):
        def refuse(self, exponent):
            raise AssertionError("Polynomial.__pow__ called")

        monkeypatch.setattr(Polynomial, "__pow__", refuse)
        assert parse_poly("3*t^500 + 2*t", P13).coeffs == (0, 2) + (0,) * 498 + (3,)

    def test_rendered_text_skips_the_parser(self, monkeypatch):
        class Reached(Exception):
            pass

        def refuse(*args):
            raise Reached(args)

        # hand-written triples: signs, i and powers in every place
        triples = [triple_of(text, P13) for text in GOLDEN_TREE]
        monkeypatch.setattr(markoff.poly._Parser, "term", refuse)
        # every residue as a coefficient, and sparse ones
        dense = [Polynomial(P13, [(5 * k + k // 13) % 13 for k in range(d + 1)] + [1])
                 for d in (-1, 0, 1, 2, 12, 77, 999)]
        sparse = [Polynomial(P13, [1] + [0] * 999 + [12]), Polynomial(P13, [0, 5])]
        for f in [Polynomial.zero(P13), *dense, *sparse]:
            for style in ("plain", "with_i"):
                assert parse_poly(render_poly(f, style), P13) == f
        # the parts " t^2+..." of a triple on the command line
        for text, triple in zip(GOLDEN_TREE, triples):
            assert markoff.cli._parse_triple(text, P13) == triple
        for text in ("(t+1)^2", "2^3*t"):
            with pytest.raises(Reached):
                parse_poly(text, P13)
        # sqrt(-1) is looked up only for a text with an 'i' in it
        monkeypatch.setattr(markoff.poly, "sqrt_minus_one", refuse)
        assert parse_poly("3*t^2+2*t-1", P13) == poly(P13, 12, 2, 3)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(expression_trees, st.sampled_from([P5, P13]), st.randoms(use_true_random=False))
    def test_expression_tree_parses_to_its_value(self, tree, mod, rng):
        value = tree_value(tree, mod)
        text, _ = tree_text(tree, lambda: rng.choice(("", "", " ", "  ", "\t")))
        assert parse_poly(f" {text}\n", mod) == value, text

    def test_large_power_still_parses(self):
        f = parse_poly("(t+1)^4000", P13)
        assert f.coeffs == stripped(math.comb(4000, k) % 13 for k in range(4001))

    @pytest.mark.parametrize(
        "text,degree",
        [
            ("t^300000000", 300000000),
            ("t^70000", 70000),
            ("(t+1)^300000000", 300000000),
            (f"t^{MAX_PARSE_DEGREE // 2 + 1}*t^{MAX_PARSE_DEGREE // 2}", MAX_PARSE_DEGREE + 1),
            (f"(t^2+1)^{MAX_PARSE_DEGREE // 2 + 1}", MAX_PARSE_DEGREE + 2),
        ],
    )
    def test_degree_over_the_cap_is_refused(self, text, degree):
        with pytest.raises(BudgetExceeded) as err:
            parse_poly(text, P13)
        assert budget_fields(err) == ("term degree (position 0)", degree, MAX_PARSE_DEGREE)

    def test_degree_at_the_cap_parses(self):
        assert parse_poly(f"t^{MAX_PARSE_DEGREE}", P13).degree == MAX_PARSE_DEGREE
        assert parse_poly(f"2^{MAX_PARSE_DEGREE + 1}", P13) == poly(P13, pow(2, MAX_PARSE_DEGREE + 1, 13))

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(st.one_of(parser_inputs, rendered_sums()))
    @example("2 + t*(t+1)^70000")  # the degree cap at a term past position 0
    @example("1+ (t - 3*i)")
    @example("0*1")
    @example("t^2+2*i*t-2")
    @example("2*t3*t")  # a missing sign
    def test_matches_position_parser(self, text):
        # same polynomial, or the same error at the same position; at p = 7
        # every 'i' is an error
        for mod in (P13, P7):
            assert parse_outcome(parse_poly, text, mod) == parse_outcome(
                parse_by_positions, text, mod
            ), text


class TestRenderer:
    def test_golden_with_i_rendering(self):
        assert render_poly(poly(P13, 11, 10, 1), "with_i") == "t^2+2*i*t-2"

    def test_zero(self):
        assert render_poly(Polynomial.zero(P13)) == "0"
        assert render_poly(Polynomial.zero(P13), "with_i") == "0"

    def test_plain_constant(self):
        assert render_poly(poly(P5, 3), "plain") == "3"

    def test_plain_never_negative(self):
        assert render_poly(poly(P13, 11, 10, 1), "plain") == "t^2+10*t+11"

    def test_with_i_requires_i(self):
        with pytest.raises(IUnavailable):
            render_poly(poly(P7, 1, 1), "with_i")

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            render_poly(poly(P5, 1), "fancy")

    def test_i_coefficients(self):
        # 5 = i, 8 = -i mod 13
        assert render_poly(poly(P13, 0, 5), "with_i") == "i*t"
        assert render_poly(poly(P13, 8), "with_i") == "-i"
        assert render_poly(poly(P13, 1, 0, 10), "with_i") == "2*i*t^2+1"

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.one_of(st.integers(-1, 6), st.integers(7, 1200)),
        st.sampled_from([P5, P13, P17, P29, P_LARGE, P7]),
        st.integers(0, 2**32),
    )
    def test_matches_candidate_reference(self, degree, mod, seed):
        rng = random.Random(seed)
        i = sqrt_minus_one(mod)
        units, styles = ((1, i), ("plain", "with_i")) if i else ((1,), ("plain",))
        # small multiples of 1 and i beside uniform residues, so that at the
        # large prime the short forms (1, -1, i, -2*i, ...) occur as well
        coeffs = [
            rng.randrange(mod.p) if rng.random() < 0.5
            else rng.choice((1, -1)) * rng.randint(1, 3) * rng.choice(units) % mod.p
            for _ in range(degree + 1)
        ]
        if coeffs:
            coeffs[-1] = coeffs[-1] or 1
        f = Polynomial(mod, coeffs)
        for style in styles:
            assert render_poly(f, style) == render_by_candidates(f, style)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.sampled_from([P5, P13, P_WIDE]),
        st.sampled_from(("plain", "with_i")),
        st.lists(st.integers(-1, 60), max_size=20),
        st.randoms(use_true_random=False),
    )
    def test_one_renderer_over_many_polynomials(self, mod, style, degrees, rng):
        # one renderer, its tables filled by earlier polynomials, against
        # the reference for each; the zero polynomial, constants and, at
        # P_WIDE, small multiples of 1 and i, whose forms are short
        p, i = mod.p, sqrt_minus_one(mod)
        polys = [Polynomial.zero(mod)]
        polys += [Polynomial.constant(mod, c) for c in (*range(1, min(p, 30)), p - 2, p - 1, i)]
        for degree in degrees:
            coeffs = [
                rng.randrange(p) if rng.random() < 0.5
                else rng.choice((1, -1)) * rng.randint(1, 3) * rng.choice((1, i)) % p
                for _ in range(degree + 1)
            ]
            polys.append(Polynomial(mod, coeffs))
        render = renderer(mod, style)
        for f in polys + polys[::-1]:
            assert render(f) == render_by_candidates(f, style)

    def test_renderer_past_its_kept_factors(self, monkeypatch):
        # factors beyond MAX_KEPT_FACTORS are worked out again at each use
        monkeypatch.setattr(markoff.poly, "MAX_KEPT_FACTORS", 3)
        rng = random.Random(7)
        render = renderer(P_WIDE, "with_i")
        polys = [poly_of_degree(rng, P_WIDE, degree) for degree in (0, 5, 40, 5, 0)]
        for f in polys * 2:
            assert render(f) == render_by_candidates(f, "with_i")

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.one_of(st.integers(-1, 6), st.integers(7, 1200)), st.randoms(use_true_random=False))
    def test_parse_render_identity(self, degree, rng):
        for mod, styles in ((P13, ("plain", "with_i")), (P7, ("plain",))):
            f = poly_of_degree(rng, mod, degree)
            for style in styles:
                assert parse_poly(render_poly(f, style), mod) == f
