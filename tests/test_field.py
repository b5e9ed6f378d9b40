import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markoff.field import PrimeModulus, _sqrt_int, is_prime, sqrt_minus_one

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)
P13 = PrimeModulus(13)


class TestPrimeModulus:
    def test_accepts_odd_primes(self):
        for p in (3, 5, 13, 2**61 - 1):
            assert PrimeModulus(p).p == p

    @pytest.mark.parametrize("bad", [0, 1, 2, 4, 9, 15, 2**62, 2**63 + 11, 3 * (2**40 + 1)])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ValueError):
            PrimeModulus(bad)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError, match="^modulus must be an int$"):
            PrimeModulus(5.0)

    def test_is_prime_spot_checks(self):
        assert is_prime(2) and is_prime(97) and is_prime(2**61 - 1)
        assert not is_prime(1) and not is_prime(91) and not is_prime(2**61 - 2)

    def test_is_prime_matches_sympy_below_2e5(self):
        sympy = pytest.importorskip("sympy")
        assert [n for n in range(2 * 10**5) if is_prime(n) != sympy.isprime(n)] == []

    @pytest.mark.parametrize(
        "factors",
        [
            (41, 43),  # 1763, past every trial divisor
            (3, 11, 17), (7, 11, 13, 41), (5, 7, 17, 19, 73),  # Carmichael numbers
            # strong pseudoprimes to the smallest bases; the last passes
            # every base up to 23, so only the witnesses 29, 31, 37 reject it
            (23, 89), (829, 1657), (2251, 11251), (151, 751, 28351), (6763, 10627, 29947),
            (1303, 16927, 157543), (10670053, 32010157), (149491, 747451, 34233211),
        ],
    )
    def test_witness_loop_rejects_pseudoprimes(self, factors):
        assert not is_prime(math.prod(factors))

    def test_rejects_composite_past_trial_division(self):
        with pytest.raises(ValueError, match="odd prime"):
            PrimeModulus(1763)


class TestSqrt:
    def test_examples(self):
        assert _sqrt_int(12, 13) == 5
        assert _sqrt_int(0, 5) == 0
        assert _sqrt_int(3, 7) is None

    def test_nonresidues_mod_7_exhaustive(self):
        squares = {v * v % 7 for v in range(7)}
        assert squares == {0, 1, 2, 4}
        for a in range(7):
            root = _sqrt_int(a, 7)
            assert (root is not None) == (a in squares)
            if root is not None:
                assert root * root % 7 == a and root <= 7 - root

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def test_root_is_canonical_and_squares_back(self, data):
        for p in (5, 13, 41, 10007, 2**61 - 1):
            a = data.draw(st.integers(0, p - 1), label=f"a mod {p}")
            r = _sqrt_int(a, p)
            euler = pow(a, (p - 1) // 2, p)
            assert (r is not None) == (euler in (0, 1))
            if r is not None:
                assert r * r % p == a
                assert r <= p - r


    @staticmethod
    def three_mod_four(a, p):
        """The p = 3 (mod 4) shortcut `_sqrt_int` once took before the
        general loop: min(r, p - r) with r = a^((p+1)/4), None for a
        non-residue."""
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r) if r * r % p == a else None

    @pytest.mark.parametrize("p", [7, 11, 19, 23, 31, 43, 47])
    def test_general_loop_matches_shortcut_exhaustive(self, p):
        # both classes mod 8 of p = 3 (mod 4): 3 (11, 19, 43) and 7 (the rest)
        assert all(_sqrt_int(a, p) == self.three_mod_four(a, p) for a in range(p))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 2))
    def test_general_loop_matches_shortcut_at_2_31_minus_1(self, a):
        p = 2**31 - 1
        assert _sqrt_int(a, p) == self.three_mod_four(a, p)


class TestSqrtMinusOne:
    def test_examples(self):
        assert sqrt_minus_one(P5) == 2
        assert sqrt_minus_one(P13) == 5
        assert sqrt_minus_one(P7) is None

    def test_iff_one_mod_four(self):
        for p in (5, 13, 17, 29, 10007, 3, 7, 11, 19):
            mod = PrimeModulus(p)
            i = sqrt_minus_one(mod)
            assert (i is not None) == (p % 4 == 1)
            if i is not None:
                assert (i * i + 1) % p == 0
