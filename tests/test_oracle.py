import functools
import io
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice, permutations, product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    P5,
    P7,
    P13,
    bfs_count_with_seen_set,
    budget_fields,
    census_by_triple,
    context,
    descend_by_moves,
    descent_outcome,
    nonconstant_polys,
    signature_buckets,
    solutions_by_discriminant,
    solutions_up_to,
    value_at,
)
from markoff import oracle
from markoff.errors import AllConstant, BudgetExceeded
from markoff.oracle import (
    C_BETA_ORACLE_MAX_N,
    _polys_of_degree,
    census,
    enumerate_solutions,
    oracle_C_beta,
    oracle_E,
    oracle_E_bfs,
    oracle_E_coprime,
    pair_count,
)
from markoff.counting import count_C_beta, count_E
from markoff.euclid import TreeId
from markoff.field import PrimeModulus, _sqrt_int
from markoff.poly import Polynomial, _mul, _smul, _sqrt_coeffs
from markoff.triples import MarkoffContext, MarkoffTriple, is_fundamental, sort_triple


class TestEnumerate:
    def test_counts_q5_At_h1(self):
        # 120 permutations of the (0, +-i*f, f) family plus 24 members of
        # constant-solution orbits such as (1, 2, 2t) = rho(1, 2, 0)
        ctx = context(P5, "t")
        assert len(enumerate_solutions(ctx, 1, "ordered")) == 144
        assert len(enumerate_solutions(ctx, 1, "degree_sorted")) == 48

    def test_everything_satisfies_equation(self):
        ctx = context(P5, "t")
        sols = enumerate_solutions(ctx, 1, "ordered")
        assert all(ctx.is_solution(P) for P in sols)

    def test_degree_sorted_is_filter_of_ordered(self):
        ctx = context(P5, "t")
        ordered = enumerate_solutions(ctx, 1, "ordered")
        sorted_conv = enumerate_solutions(ctx, 1, "degree_sorted")
        filtered = [P for P in ordered if P.is_sorted()]
        assert filtered == sorted_conv

    def test_matches_full_cubic_scan(self):
        # validation case: every (x, y, z) with degrees <= 1 over F_5
        polys = []
        for vec in product(range(5), repeat=2):
            k = len(vec)
            while k and vec[k - 1] == 0:
                k -= 1
            polys.append(Polynomial(P5, vec[:k]))
        for a_expr in ("1", "t", "t^2"):
            ctx = context(P5, a_expr)
            brute = set()
            for x in polys:
                for y in polys:
                    for z in polys:
                        if max(len(x.coeffs), len(y.coeffs), len(z.coeffs)) < 2:
                            continue
                        if x * x + y * y + z * z == ctx.A * x * y * z:
                            brute.add((x.coeffs, y.coeffs, z.coeffs))
            assert brute
            sorted_brute = {s for s in brute if len(s[0]) <= len(s[1]) <= len(s[2])}
            for convention, expected in (("ordered", brute), ("degree_sorted", sorted_brute)):
                quad = {
                    (P.x.coeffs, P.y.coeffs, P.z.coeffs)
                    for P in enumerate_solutions(ctx, 1, convention)
                }
                assert quad == expected

    def test_ordered_is_permuted_degree_sorted(self):
        ctx = context(P5, "t")
        ordered = enumerate_solutions(ctx, 2, "ordered")
        sorted_conv = enumerate_solutions(ctx, 2, "degree_sorted")
        permuted = {
            MarkoffTriple(*coords)
            for P in sorted_conv
            for coords in permutations(P.coords)
        }
        assert len(ordered) == len(set(ordered)) == len(permuted)
        assert set(ordered) == permuted

    def test_empty_for_three_mod_four(self):
        ctx = context(P7, "t")
        assert enumerate_solutions(ctx, 2, "ordered") == []

    def test_budget(self, monkeypatch):
        ctx = context(P5, "t")
        with pytest.raises(BudgetExceeded) as err:
            enumerate_solutions(ctx, 8, "ordered")
        assert budget_fields(err) == ("candidate pairs", 8138021, 2**21)
        monkeypatch.setattr(oracle, "MAX_CANDIDATE_PAIRS", 10**3)
        with pytest.raises(BudgetExceeded) as err:
            enumerate_solutions(ctx, 3, "ordered")
        assert budget_fields(err) == ("candidate pairs", 1521, 10**3)
        monkeypatch.setattr(oracle, "MAX_CANDIDATE_PAIRS", 1521)
        assert len(enumerate_solutions(ctx, 3, "degree_sorted")) == 1304
        monkeypatch.setattr(oracle, "MAX_CANDIDATE_PAIRS", 1520)
        with pytest.raises(BudgetExceeded) as err:
            enumerate_solutions(ctx, 3, "degree_sorted")
        assert budget_fields(err) == ("candidate pairs", 1521, 1520)
        assert str(err.value) == "candidate pairs 1521 exceeds budget 1520"

    def test_budget_refuses_huge_height_at_once(self):
        with pytest.raises(BudgetExceeded) as err:
            enumerate_solutions(context(P5, "t"), 10**5, "degree_sorted")
        assert budget_fields(err) == ("candidate pairs", "more than 5^100001", 2**21)

    @pytest.mark.parametrize(
        "q, beta, n, pairs",
        [(5, 1, 3, 1521), (5, 1, 5, 50521), (5, 0, 1, 121), (13, 1, 3, 79249), (5, 3, 2, 125)],
    )
    def test_pair_count(self, q, beta, n, pairs):
        assert pair_count(q, beta, n) == pairs

    @pytest.mark.parametrize("a_expr, n", [("t", 3), ("1", 1), ("t^3", 2)])
    def test_pair_count_is_the_pairs_solved(self, a_expr, n, monkeypatch):
        solved = []
        sqrt_coeffs = oracle._sqrt_coeffs

        def counted(f, p):
            solved.append(f)
            return sqrt_coeffs(f, p)

        monkeypatch.setattr(oracle, "_sqrt_coeffs", counted)
        ctx = context(P5, a_expr)
        enumerate_solutions(ctx, n, "ordered")
        # the q^(n+1) pairs with x = 0 are solved in closed form; of the
        # others, those of height >= 1 whose discriminant is a square at every
        # point of F_q are solved once each (the all-constant stratum of
        # A = 1 is not enumerated)
        span = n - ctx.beta
        nonzero = [Polynomial(P5, c) for c in product(range(5), repeat=span + 1) if any(c)]
        squares = {c * c % 5 for c in range(5)}
        pairs = squares_everywhere = 0
        for x, y in product(nonzero, repeat=2):
            if x.degree <= y.degree and x.degree + y.degree <= span:
                pairs += 1
                disc = (ctx.A * x * y) ** 2 - (x * x + y * y).scalar_mul(4)
                if ctx.beta + x.degree + y.degree >= 1:
                    squares_everywhere += all(value_at(disc, c) in squares for c in range(5))
        assert pairs == pair_count(5, ctx.beta, n) - 5 ** (n + 1)
        assert len(solved) == squares_everywhere
        if a_expr == "1":
            assert len(solved) == 40  # 52 with the all-constant stratum

    @pytest.mark.parametrize("mod, a_expr, n", [(P5, "t", 2), (P13, "t^2", 1)])
    def test_zero_x_family_is_the_discriminant_roots(self, mod, a_expr, n):
        # x = 0: z^2 + y^2 = 0, discriminant -4y^2, roots +-r/2
        q = mod.p
        half = pow(2, q - 2, q)
        roots = set()
        for y in product(range(q), repeat=n + 1):
            y = Polynomial(mod, y).coeffs
            r = _sqrt_coeffs(_smul(_mul(y, y, q), -4, q), q)
            for z in () if r is None else (_smul(r, half, q), _smul(r, -half, q)):
                if 2 <= len(z) <= n + 1:
                    roots.add(((), y, z))
        closed = {
            (P.x.coeffs, P.y.coeffs, P.z.coeffs)
            for P in enumerate_solutions(context(mod, a_expr), n, "degree_sorted")
            if P.x.is_zero()
        }
        # two roots +-i*y for each y of degree 1..n
        assert closed == roots and len(roots) == 2 * (q ** (n + 1) - q)

    @pytest.mark.parametrize("q", [5, 13, 17, 29])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_x_family_is_i_times_y_in_order(self, q, n):
        # the lockstep orders yield, in place, what _smul(y, +-i) gives
        i = _sqrt_int(q - 1, q)
        reference = (
            ((), y, _smul(y, k, q)) for y in _polys_of_degree(q, n) for k in (i, q - i)
        )
        count = 2 * (q - 1) * q**n
        family = islice(oracle._solutions(context(PrimeModulus(q), "t"), n), count)
        assert all(got == want for got, want in zip_longest(family, reference))

    def test_deterministic_order(self):
        ctx = context(P5, "t")
        first = enumerate_solutions(ctx, 1, "ordered")
        second = enumerate_solutions(ctx, 1, "ordered")
        assert first == second
        keys = [(P.x.coeffs, P.y.coeffs, P.z.coeffs) for P in first]
        assert keys == sorted(keys)


SIEVE_GRID = [
    *((5, a, 4) for a in ("t", "t+3", "t^2", "2*t^2+t", "t^3+2")),
    (5, "1", 3),
    (5, "2", 3),
    (13, "t", 2),
    (13, "1", 2),
    (17, "t", 2),
    (29, "t", 2),
    (7, "t", 3),
    (3, "1", 3),
]


@functools.cache
def unsieved(q, a_expr, n):
    return frozenset(solutions_by_discriminant(context(PrimeModulus(q), a_expr), n))


class TestSieve:
    """`_solutions` drops a pair whose discriminant takes a non-square value
    at a point of F_q before solving it; it must drop no solution."""

    @pytest.mark.parametrize("q, a_expr, n", SIEVE_GRID)
    def test_drops_no_solution(self, q, a_expr, n):
        ctx = context(PrimeModulus(q), a_expr)
        solutions = list(solutions_up_to(ctx, n))
        assert len(set(solutions)) == len(solutions)
        assert set(solutions) == unsieved(q, a_expr, n)

    @pytest.mark.parametrize("q, a_expr, n", SIEVE_GRID)
    def test_one_height_per_pass(self, q, a_expr, n):
        ctx = context(PrimeModulus(q), a_expr)
        for h in range(1, n + 1):
            solutions = set(oracle._solutions(ctx, h))
            assert all(len(z) == h + 1 for _, _, z in solutions), h
            assert solutions == {t for t in unsieved(q, a_expr, n) if len(t[2]) == h + 1}, h

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.sampled_from([P5, P7, P13, PrimeModulus(3)]), st.data())
    def test_a_square_takes_only_square_values(self, mod, data):
        q = mod.p
        squares = {c * c % q for c in range(q)}
        g = data.draw(nonconstant_polys(mod, 4))
        assert all(value_at(g * g, c) in squares for c in range(q))
        # g^2 plus a small change: often a square's leading terms, rarely a square
        h = Polynomial(mod, data.draw(st.lists(st.integers(0, q - 1), max_size=3)))
        f = g * g + h
        if any(value_at(f, c) not in squares for c in range(q)):
            assert _sqrt_coeffs(f.coeffs, q) is None


class TestWriteSolutions:
    def test_lines_are_the_json_dumps_bytes(self):
        big = PrimeModulus(2**31 + 11)  # above 2^31
        triples = enumerate_solutions(context(P5, "t"), 1, "ordered")[:40] + [
            MarkoffTriple(Polynomial(big, ()), Polynomial(big, (2**31, 1)), Polynomial(big, (7,))),
            MarkoffTriple(Polynomial(P13, (0, 0, 12)), Polynomial(P13, (1,)), Polynomial(P13, ())),
            MarkoffTriple(Polynomial(P5, (1, 2)), Polynomial(P5, ()), Polynomial(P5, (4,))),
        ]
        assert any(not P.x.coeffs for P in triples)
        fp = io.StringIO()
        oracle.write_solutions_jsonl(iter(triples), fp)
        expected = "".join(json.dumps(P.to_json(), separators=(",", ":")) + "\n" for P in triples)
        assert fp.getvalue() == expected


# the x = 0 family for every A, constant A, and (7, t, 2) with no x = 0 family
SOLUTIONS_FILE_GRID = [
    *((5, a, n) for a in ("t", "t+3", "t^2", "1", "2") for n in (1, 2, 3)),
    (13, "t", 2),
    (13, "1", 2),
    (7, "t", 2),
]


class TestSolutionsFile:
    @pytest.mark.parametrize("convention", ["ordered", "degree_sorted"])
    @pytest.mark.parametrize("q, a_expr, n", SOLUTIONS_FILE_GRID)
    def test_census_file_is_the_enumerated_records_written(self, q, a_expr, n, convention,
                                                           tmp_path):
        # the census writes its tuples straight to the file; the bytes are
        # those of the public records path
        ctx = context(PrimeModulus(q), a_expr)
        path = tmp_path / "s.jsonl"
        census(ctx, n, convention, solutions_out=str(path))
        fp = io.StringIO()
        oracle.write_solutions_jsonl(enumerate_solutions(ctx, n, convention), fp)
        assert path.read_bytes() == fp.getvalue().encode()
        assert fp.getvalue() or q == 7

    @pytest.mark.parametrize("q, a_expr, n", [(5, "t", 3), (5, "1", 3), (13, "t", 2)])
    @pytest.mark.parametrize("convention", ["ordered", "degree_sorted"])
    def test_file_builds_no_triple_record(self, q, a_expr, n, convention, monkeypatch, tmp_path):
        # only descent builds MarkoffTriples, so the file adds none
        built = []
        init = MarkoffTriple.__init__

        def counted(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(MarkoffTriple, "__init__", counted)
        ctx = context(PrimeModulus(q), a_expr)
        census(ctx, n, convention)
        without = len(built)
        built.clear()
        census(ctx, n, convention, solutions_out=str(tmp_path / "s.jsonl"))
        assert len(built) == without > 0


SIGNATURE_GRID = [
    *((5, a, n) for a in ("t", "t+3", "t^2", "2*t^2+t", "t^3+2", "1", "2") for n in range(1, 5)),
    (13, "t", 2),
    (13, "t", 3),
    (13, "1", 2),
    (13, "t^2", 2),
    (17, "t", 2),
    (17, "1", 2),
    (29, "t", 2),
    (7, "t", 3),  # q = 3 (mod 4): every bucket empty
    (7, "1", 2),
    (3, "1", 3),
]


@pytest.mark.parametrize("q, a_expr, n", SIGNATURE_GRID)
def test_signature_buckets(q, a_expr, n):
    """Every signature of height n holds the count and the one class that
    the per-signature identity gives (`helpers.signature_buckets`)."""
    ctx = context(PrimeModulus(q), a_expr)
    counts, classes = Counter(), {}
    for triple in oracle._solutions(ctx, n):
        if weight := oracle._weight(triple, False):
            signature = tuple(len(f) - 1 for f in triple)
            counts[signature] += weight
            classes.setdefault(signature, set()).add(oracle._classify(ctx, triple))
    buckets = {sig: (count, *classes[sig]) for sig, count in counts.items()}
    assert buckets == signature_buckets(q, ctx.beta, n)


def count_sqrt_calls(monkeypatch) -> list:
    """Record the argument of every `_sqrt_coeffs` call of the oracle."""
    solved = []
    sqrt_coeffs = oracle._sqrt_coeffs

    def counted(f, p):
        solved.append(f)
        return sqrt_coeffs(f, p)

    monkeypatch.setattr(oracle, "_sqrt_coeffs", counted)
    return solved


class TestCensus:
    @pytest.mark.parametrize("q, a_expr, n, calls", [(5, "t", 5, 8916), (13, "t", 3, 360)])
    def test_solves_height_n_alone(self, q, a_expr, n, calls, monkeypatch):
        solved = count_sqrt_calls(monkeypatch)
        ctx = context(PrimeModulus(q), a_expr)
        census(ctx, n, "degree_sorted")
        assert len(solved) == calls
        solved.clear()
        sum(1 for _ in oracle._solutions(ctx, n))
        assert len(solved) == calls

    def test_solutions_out_solves_every_height(self, monkeypatch, tmp_path):
        # 244 square roots: every x != 0 pair of height <= 3 whose discriminant
        # is a square at each point of F_5 (test_pair_count_is_the_pairs_solved)
        solved = count_sqrt_calls(monkeypatch)
        ctx = context(P5, "t")
        census(ctx, 3, "degree_sorted", solutions_out=str(tmp_path / "s.jsonl"))
        assert len(solved) == 244
        solved.clear()
        sum(1 for _ in solutions_up_to(ctx, 3))
        assert len(solved) == 244

    @pytest.mark.parametrize("n", [0, -2])
    def test_refuses_n_below_one(self, n, monkeypatch):
        solved = count_sqrt_calls(monkeypatch)
        for a_expr in ("1", "t"):
            with pytest.raises(ValueError, match="^n must be positive$"):
                census(context(P5, a_expr), n, "degree_sorted")
        assert solved == []
        assert enumerate_solutions(context(P5, "1"), 0, "degree_sorted") == []

    def test_n1_degree_sorted(self):
        rep = census(context(P5, "t"), 1, "degree_sorted")
        assert rep.fundamental_count == 40
        assert rep.fundamental_term == 80
        assert rep.fundamental_ratio == Fraction(1, 2)
        assert rep.nonfundamental_count == 0
        assert rep.constant_orbit_count == 8

    def test_n2_all_tree_solutions_fundamental(self):
        # the smallest non-fundamental tree height is 2*1 + 1 = 3
        rep = census(context(P5, "t"), 2, "degree_sorted")
        assert rep.nonfundamental_count == 0
        assert rep.fundamental_count == 200
        assert rep.constant_orbit_count == 8

    def test_n3_nonfundamental_term(self):
        rep = census(context(P5, "t"), 3, "degree_sorted")
        assert rep.nonfundamental_term == 80  # 4*(q-1)*q*E(2)
        assert rep.nonfundamental_count == 40
        assert rep.nonfundamental_ratio == Fraction(1, 2)
        assert rep.total == rep.fundamental_count + rep.nonfundamental_count + rep.constant_orbit_count

    def test_ordered_nonfundamental_ratio_is_not_three_halves(self):
        # 3/2 holds at n <= 3, where the only non-fundamental term is d = 2;
        # at n = 5 the d = 3 term adds triples of three distinct degrees, six
        # coordinate orders each against three, and the ratio becomes 7/4
        obj = census(context(P5, "t"), 5, "ordered").to_json()
        assert (obj["nonfundamental_count"], obj["nonfundamental_term"]) == (840, 480)
        assert obj["nonfundamental_ratio"] == "7/4"
        assert obj["fundamental_ratio"] == "3/2"

    @pytest.mark.parametrize("convention", ["degree_sorted", "ordered"])
    @pytest.mark.parametrize(
        "mod, a_expr, n",
        [(P5, a, n) for a in ("t", "t+3", "t^2") for n in (1, 2, 3)]
        + [(P13, "t", 1), (P13, "t", 2), (P7, "t", 1), (P7, "t", 2)]
        + [(P5, "1", 1), (P5, "1", 2), (P13, "1", 1)],
    )
    def test_classes_match_per_triple_reference(self, mod, a_expr, n, convention):
        ctx = context(mod, a_expr)
        rep = census(ctx, n, convention)
        counts = (rep.fundamental_count, rep.nonfundamental_count, rep.constant_orbit_count)
        assert counts == census_by_triple(ctx, n, convention)
        assert (rep.total == 0) == (mod.p % 4 == 3)  # no solution at q = 3 (mod 4)

    def test_split_matches_descent(self):
        ctx = context(P5, "t")
        rep = census(ctx, 2, "ordered")
        fund = nonfund = const = 0
        for P in enumerate_solutions(ctx, 2, "ordered"):
            if P.height() != 2:
                continue
            s = sort_triple(P)[0]
            if is_fundamental(s):
                fund += 1
            else:
                try:
                    ctx.descend(s)
                    nonfund += 1
                except AllConstant:
                    const += 1
        assert (fund, nonfund, const) == (
            rep.fundamental_count,
            rep.nonfundamental_count,
            rep.constant_orbit_count,
        )

    def test_empty_field_census(self):
        rep = census(context(P7, "t"), 1, "ordered")
        assert rep.total == 0 and rep.formula.empty_field
        assert rep.fundamental_ratio is None

    def test_constant_a_census_has_no_formula(self):
        rep = census(context(P13, "1"), 1, "degree_sorted")
        assert rep.formula is None
        assert rep.total == rep.fundamental_count + rep.nonfundamental_count + rep.constant_orbit_count

    def test_json(self):
        obj = census(context(P5, "t"), 1, "degree_sorted").to_json()
        assert obj["fundamental_ratio"] == "1/2"
        assert obj["constant_orbit_count"] == 8
        assert obj["formula"]["value"] == 80


RULE_AS = ("1", "2", "t", "t+3", "t^2", "2*t^2+t")


class TestCountingRule:
    """The facts `oracle._weight` rests on, checked on every solution that
    `oracle._solutions` yields at each height <= n."""

    @pytest.mark.parametrize(
        "mod, a_expr, n",
        [(P5, a, 3) for a in RULE_AS]
        + [(P13, a, 2) for a in RULE_AS]
        + [(PrimeModulus(17), "t", 1)],
    )
    def test_distinct_coordinates_and_one_tie_that_swaps(self, mod, a_expr, n):
        found = list(solutions_up_to(context(mod, a_expr), n))
        yielded = set(found)
        assert found and len(yielded) == len(found)
        for triple in found:
            assert len(set(triple)) == 3, triple
            tied = [(i, j) for i, j in ((0, 1), (1, 2), (0, 2)) if len(triple[i]) == len(triple[j])]
            assert len(tied) <= 1, triple
            for i, j in tied:
                swapped = list(triple)
                swapped[i], swapped[j] = triple[j], triple[i]
                assert tuple(swapped) in yielded, triple

    def test_census_holds_no_solution(self):
        # at A = t^9 every solution of height <= 5 has x = 0: 2 * (5^6 - 5)
        # triples, which held at once take several MiB
        ctx = context(P5, "t^9")
        tracemalloc.start()
        try:
            rep = census(ctx, 5, "degree_sorted")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.total == 2 * (5**6 - 5**5)
        assert peak < 2**20


class TestTreeOracles:
    def test_oracle_E_examples(self):
        assert oracle_E(5) == 2
        assert oracle_E(2) == 1
        assert oracle_E(1) == 1

    def test_bfs_and_coprime_agree_with_formula(self):
        for n in range(1, 101):
            assert oracle_E_bfs(n) == oracle_E_coprime(n) == count_E(n)

    def test_oracle_C_beta_examples(self):
        assert oracle_C_beta(1, 3) == 2
        assert oracle_C_beta(0, 10) == 6

    def test_oracle_C_beta_matches_formula(self):
        for beta in range(4):
            for n in range(1, 41):
                assert oracle_C_beta(beta, n) == count_C_beta(beta, n).value

    def test_walk_without_visited_set_matches_reference(self):
        # every tree whose root fits under n, the trees that cannot reach
        # maximum n included, and the first whose root does not
        for beta in range(5):
            for n in range(1, 151):
                for alpha in range(1, (n - beta) // 2 + 2):
                    tree = TreeId(alpha, beta)
                    assert oracle._bfs_count(tree, n) == bfs_count_with_seen_set(tree, n), (tree, n)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 4), st.integers(150, C_BETA_ORACLE_MAX_N))
    def test_run_walk_matches_formula_at_large_n(self, beta, n):
        assert oracle_C_beta(beta, n) == count_C_beta(beta, n).value

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(1, 2000))
    def test_run_walk_matches_coprime_count(self, n):
        assert oracle_E_bfs(n) == oracle_E_coprime(n)

    def test_budgets(self):
        with pytest.raises(BudgetExceeded) as err:
            oracle_E_bfs(10**5)
        assert budget_fields(err) == ("oracle n", 10**5, 10**4)
        with pytest.raises(BudgetExceeded) as err:
            oracle_E_coprime(10**4 + 1)
        assert budget_fields(err) == ("oracle n", 10**4 + 1, 10**4)
        with pytest.raises(BudgetExceeded) as err:
            oracle_C_beta(1, 501)
        assert budget_fields(err) == ("oracle n", 501, 500)


class TestDescentOnEnumerated:
    def test_every_solution_descends_or_is_constant_orbit(self):
        ctx = context(P5, "t")
        for P in enumerate_solutions(ctx, 2, "degree_sorted"):
            s = sort_triple(P)[0]
            try:
                result = ctx.descend(s)
            except AllConstant:
                continue
            assert is_fundamental(result.fundamental)
            assert ctx.classify_fundamental(result.fundamental) is not None
            assert ctx.replay_word(result.fundamental, result.word) == s

    @pytest.mark.parametrize(
        "q, a_expr, n, endings",
        [
            (5, "t", 3, {"result": 80, "constant": 48}),
            (5, "1", 3, {"result": 480}),
            (13, "t", 2, {"constant": 96}),
        ],
    )
    def test_descent_matches_the_moves(self, q, a_expr, n, endings):
        # every non-fundamental solution, in its degree-sorted order and
        # reversed, descends on tuples exactly as by apply_generator and
        # sort_triple: the same fundamental triple and word, or the same
        # AllConstant arguments
        ctx = context(PrimeModulus(q), a_expr)
        make = functools.partial(Polynomial._make, ctx.p)
        outcomes = Counter()
        for x, y, z in solutions_up_to(ctx, n):
            if len(y) == len(z):
                continue
            for order in ((x, y, z), (z, y, x)):
                triple = MarkoffTriple(*map(make, order))
                outcome = descent_outcome(MarkoffContext.descend, ctx, triple)
                assert outcome == descent_outcome(descend_by_moves, ctx, triple)
                outcomes[outcome[0]] += 1
        assert dict(outcomes) == endings


class TestInputChecks:
    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="^convention must be one of"):
            census(context(P5, "t"), 1, "bogus")

    def test_negative_max_height(self):
        with pytest.raises(ValueError, match="^max_height must be non-negative$"):
            enumerate_solutions(context(P5, "t"), -1, "ordered")

    def test_tree_oracle_arguments(self):
        with pytest.raises(ValueError, match="^n must be positive$"):
            oracle_E(0)
        with pytest.raises(ValueError, match="^beta must be non-negative$"):
            oracle_C_beta(-1, 5)
