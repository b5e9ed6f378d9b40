"""Acceptance suite: one test per criterion, exact assertions throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Criterion 9 persists the measured census constants to
census_constants.json at the repository root.
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GOLDEN_ROOT, GOLDEN_TREE, P5, P13, context, nonconstant_polys, triple_of
from markoff.cli import main
from markoff.counting import count_C0, count_C_beta, count_E, cumulative_signatures, divisors
from markoff.errors import AllConstant
from markoff.euclid import EuclidTriple, TreeId, layer, map_unit, membership
from markoff.field import PrimeModulus
from markoff.oracle import census, enumerate_solutions, oracle_C_beta, oracle_E_bfs, oracle_E_coprime
from markoff.poly import parse_poly
from markoff.triples import RHO, ConstantForm, DoubleNeg, Swap, ZeroForm, is_fundamental, sort_triple

ARTIFACT = Path(__file__).resolve().parent.parent / "census_constants.json"


def report(number, label):
    print(f"\n[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_golden_tree_reproduction(capsys):
    code = main(
        ["tree", "--p", "13", "--A", "1", "--root", GOLDEN_ROOT,
         "--depth", "2", "--format", "text"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [line.strip() for line in out.strip().splitlines()]
    emitted = {line.split(" ", 1)[1] if line.startswith("s") else line for line in lines}
    expected = {triple_of(s, P13).render("with_i") for s in GOLDEN_TREE}
    assert len(lines) == 7
    assert emitted == expected  # exact string match after canonical rendering
    assert "(t+2*i, t^2+2*i*t-2, t^3+4*i*t^2-4*i*t-4*i)" in emitted
    with capsys.disabled():
        report(1, "golden tree, exact rendered strings")


def test_criterion_2_unit_tree_layers(capsys):
    tree = TreeId(1, 0)
    assert layer(tree, 0) == {(1, 1, 2)}
    assert layer(tree, 1) == {(1, 2, 3)}
    assert layer(tree, 2) == {(1, 3, 4), (2, 3, 5)}
    with capsys.disabled():
        report(2, "unit-tree layers 0-2")


def test_criterion_3_mobius_consistency(capsys):
    for n in range(1, 501):
        assert sum(count_E(d) for d in divisors(n)) == n // 2 + 1
    for n in range(1, 201):
        e = count_E(n)
        assert e == oracle_E_bfs(n)
        assert e == oracle_E_coprime(n)
    with capsys.disabled():
        report(3, "divisor sum of E(d) = phi(d)/2 vs both E-oracles")


def test_criterion_4_layer_bijection(capsys):
    unit_layers = [layer(TreeId(1, 0), j) for j in range(9)]
    for alpha in range(1, 5):
        for beta in range(4):
            tree = TreeId(alpha, beta)
            for j in range(9):
                mapped = {map_unit(u, tree) for u in unit_layers[j]}
                assert layer(tree, j) == mapped
    with capsys.disabled():
        report(4, "layer correspondence, exact set equality")


def test_criterion_5_c_beta_vs_oracle(capsys):
    for beta in range(5):
        for n in range(1, 201):
            assert count_C_beta(beta, n).value == oracle_C_beta(beta, n)
    for n in range(1, 101):
        assert count_C_beta(0, n).value == n // 2 + 1 == count_C0(n)
    with capsys.disabled():
        report(5, "C_beta closed form vs tree-walk oracle")


def test_criterion_6_sandwich_bounds(capsys):
    total = 0
    for H in range(1, 10**4 + 1):
        total += H // 2 + 2
        assert H * H + 5 * H < 4 * total <= H * H + 9 * H
    for H in (1, 4, 512, 10**4):
        rep = cumulative_signatures(H)
        assert rep.lower < rep.total <= rep.upper
    ratio = Fraction(total, 10**8)
    assert Fraction(1, 4) <= ratio <= Fraction(2523, 10000)
    assert cumulative_signatures(10**4).total == total
    with capsys.disabled():
        report(6, "cumulative sandwich, H <= 10^4")


def test_criterion_7_descent_correctness(capsys):
    mod = P13
    contexts = {
        "1": context(mod, "1"),
        "t": context(mod, "t"),
        "t^2+1": context(mod, "t^2+1"),
    }

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(
        st.sampled_from(list(contexts)),
        nonconstant_polys(mod, 2),
        st.sampled_from((1, -1)),
        st.sampled_from((1, -1)),
        st.sampled_from(("zero", "constant")),
        st.lists(st.sampled_from((1, 2)), max_size=6),
    )
    def descent_replays(a_expr, f, a, sign, family, branches):
        ctx = contexts[a_expr]
        if ctx.beta > 0:
            family = "zero"
        node = sort_triple(ctx.make_root(f, a, sign, family))[0]
        for branch in branches:
            node = sort_triple(ctx.apply_sigma(node, branch))[0]
        result = ctx.descend(node)
        form = ctx.classify_fundamental(result.fundamental)
        if ctx.beta > 0:
            assert isinstance(form, ZeroForm)
        else:
            assert isinstance(form, (ZeroForm, ConstantForm))
        assert ctx.replay_word(result.fundamental, result.word) == node

    descent_replays()
    with capsys.disabled():
        report(7, "500 random descents, replay bit-exact")


def test_criterion_8_emptiness(capsys):
    for q in (7, 11):
        mod = PrimeModulus(q)
        for a_expr in ("1", "t"):
            ctx = context(mod, a_expr)
            assert enumerate_solutions(ctx, 1, "ordered") == []
    for q in (5, 13):
        mod = PrimeModulus(q)
        for a_expr in ("1", "t"):
            ctx = context(mod, a_expr)
            assert len(enumerate_solutions(ctx, 1, "ordered")) > 0
    with capsys.disabled():
        report(8, "emptiness iff q = 3 (mod 4)")


# (q, A, n) points of the degree-sorted census whose non-fundamental class is
# split per divisor term: (5, t, 5) has the terms d = 2 and d = 3, the others
# d = 2 at a larger deg A or q
DIVISOR_GRID = ((5, "t", 5), (5, "t^2", 4), (5, "t^3+2", 5), (13, "t", 3))


def nonfundamental_by_divisor(ctx, n, solutions):
    """Non-fundamental height-n solutions counted per divisor term
    d = (n + beta) / (alpha + beta) of their signature's (alpha, beta)-tree."""
    counts = Counter()
    for triple in solutions:
        if triple.height() != n:
            continue
        sorted_triple = sort_triple(triple)[0]
        if is_fundamental(sorted_triple):
            continue
        try:
            ctx.descend(sorted_triple)
        except AllConstant:
            continue
        tree = membership(EuclidTriple(*sorted_triple.signature()), ctx.beta)
        assert tree is not None
        d, rest = divmod(n + tree.beta, tree.alpha + tree.beta)
        assert rest == 0
        counts[d] += 1
    return counts


def test_criterion_9_census_structure(capsys):
    ctx = context(P5, "t")
    table = []
    constants = {}
    for convention in ("ordered", "degree_sorted"):
        class_ratios = {"fundamental": set(), "nonfundamental": set()}
        for n in (1, 2, 3):
            rep = census(ctx, n, convention)
            table.append(rep.to_json())
            for cls, count, term, ratio in (
                ("fundamental", rep.fundamental_count, rep.fundamental_term,
                 rep.fundamental_ratio),
                ("nonfundamental", rep.nonfundamental_count, rep.nonfundamental_term,
                 rep.nonfundamental_ratio),
            ):
                if term == 0:
                    # no divisor term at this height: the modeled class must
                    # be empty (constant-orbit solutions are reported apart)
                    assert count == 0 and ratio is None
                else:
                    assert ratio is not None
                    assert count == ratio * term  # exact rational multiple
                    class_ratios[cls].add(ratio)
        for cls, ratios in class_ratios.items():
            assert len(ratios) == 1  # constant across n within class/convention
            constants[f"{convention}.{cls}"] = str(next(iter(ratios)))
    # the closed formula is evaluated verbatim and reported beside the
    # brute counts (e.g. 80 at n = 1, factor 2 above the sorted census)
    assert table[3]["formula"]["value"] == 80
    assert table[3]["fundamental_count"] == 40
    # per divisor term: count / term = 1/2 for every d (degree-sorted only;
    # ordered multiplicities depend on ties in the signature)
    grid = []
    for q, a_expr, n in DIVISOR_GRID:
        grid_ctx = context(PrimeModulus(q), a_expr)
        solutions = enumerate_solutions(grid_ctx, n, "degree_sorted")
        rep = census(grid_ctx, n, "degree_sorted")
        assert rep.fundamental_ratio == Fraction(1, 2)
        counts = nonfundamental_by_divisor(grid_ctx, n, solutions)
        assert sum(counts.values()) == rep.nonfundamental_count
        terms = {t.d: t.contribution for t in rep.formula.terms if t.d > 1}
        assert set(counts) == set(terms)
        for d, term in sorted(terms.items()):
            ratio = Fraction(counts[d], term)
            assert ratio == Fraction(1, 2)
            grid.append({"q": q, "A": a_expr, "n": n, "d": d, "count": counts[d],
                         "term": term, "ratio": str(ratio)})
    assert [row["d"] for row in grid if (row["q"], row["A"], row["n"]) == (5, "t", 5)] == [2, 3]
    ARTIFACT.write_text(
        json.dumps(
            {"measured_constants": constants, "census": table, "divisor_grid": grid},
            indent=2,
        )
    )
    assert constants == {
        "ordered.fundamental": "3/2",
        "ordered.nonfundamental": "3/2",
        "degree_sorted.fundamental": "1/2",
        "degree_sorted.nonfundamental": "1/2",
    }
    with capsys.disabled():
        report(9, f"census constants {constants}, 1/2 per divisor term on "
                  f"{len(DIVISOR_GRID)} more points, persisted to {ARTIFACT.name}")


def test_criterion_10_identity_suite(capsys):
    mod = P13
    ctx1 = context(mod, "1")
    ctxt = context(mod, "t")

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(
        st.sampled_from((ctx1, ctxt)),
        nonconstant_polys(mod, 3),
        st.sampled_from((1, -1)),
        st.sampled_from((1, -1)),
        st.sampled_from(("zero", "constant")),
        st.sampled_from(("zero", "constant")),
    )
    def constructions_solve(ctx, f, a, sign, form_family, family):
        if ctx.beta > 0:
            form_family = family = "zero"
        if form_family == "zero":
            form = ZeroForm(f=f, sign=sign)
        else:
            form = ConstantForm(f=f, a=a, sign=sign)
        assert ctx.is_solution(ctx.make_fundamental(form))
        assert ctx.is_solution(ctx.make_root(f, a, sign, family))

    constructions_solve()
    for ctx in (ctx1, ctxt):
        root = ctx.make_root(parse_poly("t", mod), 1, 1, "zero")
        tree = ctx.generate_tree(root, 4)
        for node in tree.walk():
            triple = node.triple
            assert ctx.apply_generator(ctx.apply_generator(triple, RHO), RHO) == triple
            for gen in (Swap(1, 2), Swap(1, 3), DoubleNeg(1, 2), DoubleNeg(2, 3), RHO):
                assert ctx.is_solution(ctx.apply_generator(triple, gen))
            if not is_fundamental(triple):
                for branch in (1, 2):
                    assert ctx.apply_sigma(triple, branch).height() > triple.height()
    with capsys.disabled():
        report(10, "construction, involution and growth identities")
