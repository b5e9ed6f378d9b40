import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import budget_fields, count_factorize_calls
from markoff import counting
from markoff.counting import (
    MAX_COUNT_DIGITS,
    MAX_DIVISOR_TERMS,
    MAX_TRIAL_DIVISOR,
    count_C0,
    count_C_A,
    count_C_beta,
    count_E,
    count_finite_field,
    cumulative_signatures,
    divisors,
    factorize,
)
from markoff.errors import BudgetExceeded, ConstantANotSupported, NonConstantA
from markoff.field import is_prime
from markoff.oracle import oracle_C_beta, oracle_E_coprime


class TestArithmeticFunctions:
    def test_divisors(self):
        assert divisors(10) == [1, 2, 5, 10]
        assert divisors(1) == [1]
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(1) == {}
        assert factorize(10**13) == {2: 13, 5: 13}

    def test_factorize_stops_at_the_trial_divisor_cap(self):
        # the primes on either side of (MAX_TRIAL_DIVISOR + 1)^2
        below, above = 4295098349, 4295098403
        assert below < (MAX_TRIAL_DIVISOR + 1) ** 2 < above
        assert factorize(below) == {below: 1}
        assert factorize(2**5 * below) == {2: 5, below: 1}
        for n in (above, 2**61 - 1):
            with pytest.raises(BudgetExceeded) as err:
                factorize(n)
            assert budget_fields(err) == (
                "trial divisor", MAX_TRIAL_DIVISOR + 1, MAX_TRIAL_DIVISOR
            )


class TestDivisorWalk:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 10**4))
    def test_divisors_match_brute_force(self, n):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
        # Gauss: phi summed over the divisors of n is n
        assert sum(phi for _, phi in counting._divisor_walk(n)) == n

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 10**4))
    def test_count_E_matches_coprime_oracle(self, n):
        assert count_E(n) == oracle_E_coprime(n)

    @pytest.mark.parametrize(
        "count, args",
        [
            (count_C_beta, (0, 2**200)),
            (count_C_beta, (3, 717)),
            (count_finite_field, (5, 1, 719)),
            (count_finite_field, (13, 2, 718)),
            (count_E, (2**200,)),
            (count_E, (720,)),
        ],
    )
    def test_one_factorization_per_count(self, monkeypatch, count, args):
        calls = count_factorize_calls(monkeypatch)
        count(*args)
        assert len(calls) == 1

    def test_most_divisors_below_2_64_are_admitted(self):
        n = 897612484786617600
        assert len(divisors(n)) == 103680 <= MAX_DIVISOR_TERMS

    def test_divisor_terms_cap(self):
        n = math.prod(p for p in range(2, 174) if factorize(p) == {p: 1})  # first 40 primes
        for count in (divisors, lambda n: count_C_beta(0, n)):
            with pytest.raises(BudgetExceeded) as err:
                count(n)
            assert budget_fields(err) == ("divisor terms", 2**40, MAX_DIVISOR_TERMS)


class TestCountE:
    def test_examples(self):
        assert count_E(1) == 1
        assert count_E(5) == 2
        assert count_E(6) == 1

    def test_matches_coprime_oracle(self):
        for n in range(1, 201):
            assert count_E(n) == oracle_E_coprime(n)

    def test_mobius_inversion_consistency(self):
        """E(d) = phi(d)/2 summed over the divisors of n is C_0(n) = n//2 + 1.

        E once came from the Moebius inversion of this sum; the name is kept."""
        for n in range(1, 501):
            assert sum(count_E(d) for d in divisors(n)) == n // 2 + 1


class TestC0:
    @pytest.mark.parametrize("n,expected", [(1, 1), (7, 4), (100, 51)])
    def test_examples(self, n, expected):
        assert count_C0(n) == expected


class TestCBeta:
    def test_base_case(self):
        report = count_C_beta(1, 1)
        assert report.value == 1
        assert [(t.d, t.e) for t in report.terms] == [(1, 1)]

    def test_beta_one_n_three(self):
        report = count_C_beta(1, 3)
        assert report.value == 2
        assert [t.d for t in report.terms] == [1, 2]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 500))
    def test_matches_tree_walk_oracle(self, beta, n):
        assert count_C_beta(beta, n).value == oracle_C_beta(beta, n)

    def test_beta_zero_equals_c0(self):
        for n in range(1, 501):
            assert count_C_beta(0, n).value == count_C0(n)

    def test_terms_sum_to_value(self):
        for beta in range(4):
            for n in range(1, 40):
                report = count_C_beta(beta, n)
                assert report.value == sum(t.contribution for t in report.terms)


class TestCA:
    def test_examples(self):
        assert count_C_A(0, 4) == 4
        assert count_C_A(1, 3) == 2
        assert count_C_A(0, 1) == 2

    def test_matches_c_beta_for_nonconstant(self):
        for beta in (1, 2, 3):
            for n in range(1, 30):
                assert count_C_A(beta, n) == count_C_beta(beta, n).value


class TestCumulative:
    def test_h_four(self):
        report = cumulative_signatures(4)
        assert report.total == 12
        assert report.lower == Fraction(9) and report.upper == Fraction(13)

    def test_h_one(self):
        report = cumulative_signatures(1)
        assert report.total == 2
        assert report.lower == Fraction(3, 2) and report.upper == Fraction(5, 2)

    def test_sandwich_and_ratio_at_1000(self):
        report = cumulative_signatures(1000)
        assert report.lower < report.total <= report.upper
        ratio = Fraction(report.total, 1000 * 1000)
        assert Fraction(1, 4) <= ratio <= Fraction(2523, 10000)

    def test_equals_sum_of_c_a(self):
        for H in (1, 2, 7, 64):
            assert cumulative_signatures(H).total == sum(
                count_C_A(0, n) for n in range(1, H + 1)
            )

    def test_closed_form_matches_loop(self):
        for H in range(1, 501):
            assert cumulative_signatures(H).total == sum(n // 2 + 2 for n in range(1, H + 1))

    def test_sandwich_at_huge_height(self):
        report = cumulative_signatures(10**12)
        assert report.lower < report.total <= report.upper

    def test_nonconstant_rejected(self):
        with pytest.raises(NonConstantA):
            cumulative_signatures(10, beta=1)


class TestFiniteField:
    def test_q5_beta1_n1(self):
        report = count_finite_field(5, 1, 1)
        assert report.value == 80
        assert [(t.d, t.e, t.multiplier) for t in report.terms] == [(1, 1, 80)]

    def test_q5_beta1_n3(self):
        report = count_finite_field(5, 1, 3)
        assert report.value == 2080
        assert [(t.d, t.multiplier) for t in report.terms] == [(1, 2000), (2, 80)]

    def test_q13_beta2_n2(self):
        report = count_finite_field(13, 2, 2)
        assert report.value == 8112
        assert [(t.d, t.multiplier) for t in report.terms] == [(1, 8112)]

    def test_empty_field_flag(self):
        report = count_finite_field(7, 1, 3)
        assert report.value == 0 and report.empty_field and report.terms == ()
        assert report.to_json()["empty_field"] is True

    def test_constant_a_unsupported(self):
        with pytest.raises(ConstantANotSupported):
            count_finite_field(5, 0, 1)

    def test_digit_cap(self):
        # 5^10003 has 6992 digits, over the 4300 Python prints
        with pytest.raises(BudgetExceeded) as err:
            count_finite_field(5, 1, 10**4)
        assert budget_fields(err) == ("count digits", 6992, MAX_COUNT_DIGITS)
        with pytest.raises(BudgetExceeded) as err:
            count_finite_field(5, 1, 10**400)
        assert err.value.requested > 10**399 and err.value.limit == MAX_COUNT_DIGITS
        assert count_finite_field(7, 1, 10**11).empty_field

    def test_bad_q(self):
        with pytest.raises(ValueError):
            count_finite_field(9, 1, 1)

    def test_json_shape(self):
        obj = count_finite_field(5, 1, 3).to_json()
        assert obj["value"] == 2080
        assert obj["terms"][0] == {"d": 1, "E": 1, "multiplier": 2000}


class TestInputChecks:
    @pytest.mark.parametrize(
        "count, args",
        [(factorize, (0,)), (count_C0, (0,)), (count_C_beta, (1, 0)), (count_finite_field, (5, 1, 0))],
    )
    def test_n_must_be_positive(self, count, args):
        with pytest.raises(ValueError, match="^n must be positive$"):
            count(*args)

    def test_H_must_be_positive(self):
        with pytest.raises(ValueError, match="^H must be positive$"):
            cumulative_signatures(0)

    # a negative beta is checked before every other input, constant A's
    # refusals included
    @pytest.mark.parametrize(
        "count, args",
        [
            (count_C_beta, (-1, 5)),
            (counting.signature_count, (5, -1, (1, 2, 2))),
            (count_finite_field, (5, -1, 3)),
            (cumulative_signatures, (5, -1)),
        ],
    )
    def test_beta_must_be_non_negative(self, count, args):
        with pytest.raises(ValueError, match="^beta must be non-negative$"):
            count(*args)

    # the per-signature identity takes the q that count_finite_field takes,
    # with its message, after the beta check
    @pytest.mark.parametrize("q", [1, 2, 9, 15])
    def test_signature_count_q_must_be_an_odd_prime(self, q):
        for count, args in ((counting.signature_count, (1, (1, 1, 3))), (count_finite_field, (1, 3))):
            with pytest.raises(ValueError, match=f"^q must be an odd prime, got {q}$"):
                count(q, *args)
        with pytest.raises(ValueError, match="^beta must be non-negative$"):
            counting.signature_count(q, -1, (1, 1, 3))


def _prime_1_mod_4(start):
    """The least prime q >= start with q = 1 (mod 4)."""
    q = start + (1 - start) % 4
    while not is_prime(q):
        q += 4
    return q


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(5, 2**63 - 2**16), st.integers(1, 10**6), st.integers(1, 4))
# two points where the float product log10(q) * (n + 3) rounds up to an integer
@example(1459426371994861717, 551488, 1)
@example(6702510317010906977, 250120, 2)
def test_digit_cap_is_the_exact_floor(start, n, beta):
    # the cap read off the refusal under a cap of 0, against the float
    # log10(q) taken exactly as a Fraction
    q = _prime_1_mod_4(start)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "MAX_COUNT_DIGITS", 0)
        with pytest.raises(BudgetExceeded) as err:
            count_finite_field(q, beta, n)
    assert err.value.requested == math.floor(Fraction(math.log10(q)) * (n + 3)) + 1


class TestSignatureCount:
    @pytest.mark.parametrize(
        "q, beta, signature, expected",
        [
            (5, 1, (-1, 3, 3), (2 * 4 * 5**3, "fundamental")),
            (5, 0, (-1, 3, 3), (2 * 4 * 5**3, "fundamental")),
            (5, 0, (0, 3, 3), (4 * 4 * 5**3, "fundamental")),
            (5, 1, (1, 1, 3), (2 * 4 * 5, "nonfundamental")),
            (13, 0, (1, 2, 3), (6 * 12 * 13, "nonfundamental")),
            (5, 1, (0, 2, 3), (2 * 4, "constant_orbit")),
            (5, 2, (0, 2, 4), (2 * 4, "constant_orbit")),
            (5, 3, (0, 1, 4), (0, None)),
            (5, 1, (1, 2, 3), (0, None)),
            (5, 1, (2, 1, 4), (0, None)),
            (5, 1, (-1, 2, 3), (0, None)),
            (5, 1, (0, 3, 3), (0, None)),
            (5, 0, (0, 2, 3), (0, None)),
            (5, 0, (-1, 0, 0), (0, None)),
            (7, 1, (-1, 3, 3), (0, None)),
            (7, 1, (1, 1, 3), (0, None)),
        ],
    )
    def test_points(self, q, beta, signature, expected):
        assert counting.signature_count(q, beta, signature) == expected

    @pytest.mark.parametrize("q", [5, 7, 13])
    def test_twice_the_non_constant_orbit_total_is_the_finite_field_count(self, q):
        # count_finite_field leaves out the constant orbits and is twice the
        # degree_sorted count of the other two classes
        for beta in range(1, 5):
            for n in range(1, 25):
                total = 0
                for a in range(-1, n + 1):
                    for b in range(max(a, 0), n + 1):
                        count, kind = counting.signature_count(q, beta, (a, b, n))
                        total += count if kind != "constant_orbit" else 0
                assert 2 * total == count_finite_field(q, beta, n).value, (beta, n)
