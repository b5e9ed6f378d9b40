import random

import pytest

import markoff.oracle
import markoff.poly
from markoff.errors import IUnavailable, ModulusMismatch, ParseError
from markoff.field import PrimeModulus
from markoff.poly import NEG_INF, Polynomial, parse_poly, poly_sqrt, render_poly

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)
P13 = PrimeModulus(13)


def poly(mod, *coeffs):
    return Polynomial(mod, coeffs)


def random_poly(rng, mod, max_deg):
    deg = rng.randint(-1, max_deg)
    if deg < 0:
        return Polynomial.zero(mod)
    return Polynomial(mod, [rng.randrange(mod.p) for _ in range(deg)] + [rng.randrange(1, mod.p)])


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


class TestArithmetic:
    def test_mul_example(self):
        t1 = poly(P5, 1, 1)
        assert t1 * t1 == poly(P5, 1, 2, 1)

    def test_divrem_example(self):
        q, r = divmod(poly(P5, 1, 2, 1), poly(P5, 1, 1))
        assert q == poly(P5, 1, 1) and r.is_zero()

    def test_divrem_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(poly(P5, 1), Polynomial.zero(P5))

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            poly(P5, 1) + poly(P13, 1)

    def test_ring_axioms_random(self):
        rng = random.Random(403)
        for _ in range(200):
            f = random_poly(rng, P13, 5)
            g = random_poly(rng, P13, 5)
            h = random_poly(rng, P13, 5)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + (-f) == Polynomial.zero(P13)
            if not f.is_zero() and not g.is_zero():
                assert (f * g).degree == f.degree + g.degree
            else:
                assert (f * g).degree == NEG_INF

    def test_divrem_roundtrip_random(self):
        rng = random.Random(404)
        for _ in range(500):
            f = random_poly(rng, P13, 8)
            g = random_poly(rng, P13, 4)
            if g.is_zero():
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_scalar_and_pow(self):
        f = poly(P5, 1, 1)
        assert f.scalar_mul(3) == poly(P5, 3, 3)
        assert f * 0 == Polynomial.zero(P5)
        assert f**2 == poly(P5, 1, 2, 1)
        assert f**0 == poly(P5, 1)


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

    def test_square_roundtrip_random(self):
        rng = random.Random(405)
        for _ in range(1000):
            f = random_poly(rng, P13, 5)
            root = poly_sqrt(f * f)
            if f.is_zero():
                assert root == f
                continue
            assert root in (f, -f)
            assert root * root == f * f
            lead = root.leading_coeff
            assert lead <= 13 - lead


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
        [("t+", 2), ("(t+1", 4), ("t^x", 2), ("t*", 2), ("2**3", 2), ("t+%", 2)],
    )
    def test_syntax_error_positions(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse_poly(text, P5)
        assert err.value.position == pos

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("t t", P5)


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

    def test_parse_render_identity_random(self):
        rng = random.Random(406)
        for _ in range(1000):
            f = random_poly(rng, P13, 6)
            for style in ("plain", "with_i"):
                assert parse_poly(render_poly(f, style), P13) == f
        for _ in range(200):
            f = random_poly(rng, P7, 6)
            assert parse_poly(render_poly(f, "plain"), P7) == f
