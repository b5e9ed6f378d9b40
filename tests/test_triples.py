import json
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    GOLDEN_ROOT,
    GOLDEN_TREE,
    P5,
    P7,
    P13,
    budget_fields,
    context,
    descend_by_moves,
    dot_by_node,
    root_by_closed_forms,
    text_by_node,
    tree_by_moves,
    tree_json_by_node,
    triple_of,
)
from markoff import triples
from markoff.errors import (
    AllConstant,
    BudgetExceeded,
    ConstantFormNeedsConstantA,
    IUnavailable,
    ModulusMismatch,
    NotFundamental,
    NotSolution,
)
from markoff.poly import NEG_INF, Polynomial, parse_poly
from markoff.triples import (
    RHO,
    ConstantForm,
    DoubleNeg,
    MarkoffContext,
    MarkoffTriple,
    Swap,
    ZeroForm,
    is_fundamental,
    sort_triple,
)


@st.composite
def nonconstant_polys(draw, mod, max_deg=3):
    """Polynomials of degree 1..max_deg with any residues as coefficients."""
    low = draw(st.lists(st.integers(0, mod.p - 1), min_size=1, max_size=max_deg))
    return Polynomial(mod, [*low, draw(st.integers(1, mod.p - 1))])


CTX1 = context(P13, "1")
CTX_T13 = context(P13, "t")
CTX_T5 = context(P5, "t")
CTX1_5 = context(P5, "1")
SIGNS = st.sampled_from([1, -1])


@st.composite
def fundamental_forms(draw, max_deg=3, contexts=(CTX_T13, CTX1)):
    """(ctx, form) with ctx one of contexts, over F_13 with A = t or A = 1 by
    default: zero forms, and constant forms when A is constant; f of degree
    1..max_deg."""
    ctx = draw(st.sampled_from(contexts))
    f = draw(nonconstant_polys(ctx.p, max_deg))
    if ctx.beta or draw(st.booleans()):
        return ctx, ZeroForm(f=f, sign=draw(SIGNS))
    return ctx, ConstantForm(f=f, a=draw(SIGNS), sign=draw(SIGNS))


def _root_of(ctx, form):
    """The root of the form's family with the same f and signs: sigma_1 of
    the fundamental triple, up to coordinate order."""
    if isinstance(form, ZeroForm):
        return ctx.make_root(form.f, form.sign, 1, "zero")
    return ctx.make_root(form.f, form.a, form.sign, "constant")


@st.composite
def solutions(draw):
    """Sorted solutions over F_13: a fundamental triple grown by up to three
    branching moves, so both fundamental and non-fundamental ones."""
    ctx, form = draw(fundamental_forms())
    node = ctx.make_fundamental(form)
    for branch in draw(st.lists(st.sampled_from([1, 2]), max_size=3)):
        node = sort_triple(ctx.apply_sigma(node, branch))[0]
    return node


@st.composite
def any_triples(draw):
    """Triples over F_13 of coordinates of degree -inf..3, not all constant;
    almost none are solutions."""
    coords = [
        Polynomial(P13, draw(st.lists(st.integers(0, 12), max_size=4))) for _ in range(3)
    ]
    triple = MarkoffTriple(*coords)
    if triple.height() <= 0:
        triple = MarkoffTriple(coords[0], coords[1], parse_poly("t", P13))
    return triple


class TestIsSolution:
    def test_golden_root(self):
        assert CTX1.is_solution(triple_of(GOLDEN_ROOT, P13))

    def test_zero_form(self):
        assert CTX_T5.is_solution(triple_of("(0; 2*t; t)", P5))

    def test_non_solution(self):
        assert not CTX1.is_solution(triple_of("(1; 1; 1)", P13))


class TestGenerators:
    def test_rho_on_golden_root(self):
        got = CTX1.apply_generator(triple_of(GOLDEN_ROOT, P13), RHO)
        assert got == triple_of("(t; t+2*i; 2)", P13)

    def test_double_neg_preserves_solutions(self):
        start = triple_of("(0; 2*t; t)", P5)
        flipped = CTX_T5.apply_generator(start, DoubleNeg(1, 2))
        assert flipped == triple_of("(0; 3*t; t)", P5)
        assert CTX_T5.is_solution(flipped)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(st.tuples(*[nonconstant_polys(P13)] * 3))
    def test_involutions(self, coords):
        triple = MarkoffTriple(*coords)
        for gen in (Swap(1, 3), Swap(1, 2), DoubleNeg(2, 3), RHO):
            twice = CTX1.apply_generator(CTX1.apply_generator(triple, gen), gen)
            assert twice == triple

    def test_generators_preserve_solutions(self):
        # every generator the constructors accept, Swap(i, i) the identity
        gens = [Swap(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        gens += [DoubleNeg(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        for text in (GOLDEN_ROOT, GOLDEN_TREE[4]):
            node = triple_of(text, P13)
            for gen in (*gens, RHO):
                assert CTX1.is_solution(CTX1.apply_generator(node, gen)), gen
            assert CTX1.apply_generator(node, Swap(2, 2)) == node

    @pytest.mark.parametrize("pair", [(0, 1), (0, 3), (1, 4), (4, 4), (-1, 2), (1, 0)])
    def test_out_of_range_coordinates_are_refused(self, pair):
        with pytest.raises(ValueError, match=r"^swap needs coordinates in 1\.\.3"):
            Swap(*pair)
        with pytest.raises(ValueError, match=r"^dneg needs two distinct coordinates"):
            DoubleNeg(*pair)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_double_neg_of_one_coordinate_is_refused(self, i):
        # it would negate coordinate i alone, which leaves the surface
        message = rf"^dneg needs two distinct coordinates in 1\.\.3, got \({i}, {i}\)$"
        with pytest.raises(ValueError, match=message):
            DoubleNeg(i, i)


class TestSigma:
    def test_sigma1_matches_golden_child(self):
        got = CTX1.apply_sigma(triple_of(GOLDEN_ROOT, P13), 1)
        expected = triple_of("(t^3+4*i*t^2-7*t-4*i; t+2*i; t^2+2*i*t-2)", P13)
        assert got == expected
        assert sort_triple(got)[0] == triple_of(GOLDEN_TREE[1], P13)

    def test_sigma2_matches_golden_child(self):
        got = CTX1.apply_sigma(triple_of(GOLDEN_ROOT, P13), 2)
        assert sort_triple(got)[0] == triple_of(GOLDEN_TREE[2], P13)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(fundamental_forms(max_deg=2))
    def test_sigma_inverse_via_rho(self, ctx_form):
        # swap(1,3) then rho then swap(1,3) undoes sigma_1
        ctx, form = ctx_form
        node = _root_of(ctx, form)
        image = ctx.apply_sigma(node, 1)
        back = ctx.apply_generator(image, Swap(1, 3))
        back = ctx.apply_generator(back, RHO)
        back = ctx.apply_generator(back, Swap(1, 3))
        assert back == node

    def test_sigma_grows_height_on_nonfundamental(self):
        node = triple_of(GOLDEN_TREE[1], P13)
        for branch in (1, 2):
            assert CTX1.apply_sigma(node, branch).height() > node.height()


class TestSortTriple:
    def test_sorts_with_word(self):
        start = MarkoffTriple(
            parse_poly("t^2", P5), Polynomial.zero(P5), parse_poly("t", P5)
        )
        sorted_triple, word = sort_triple(start)
        assert sorted_triple.signature() == (NEG_INF, 1, 2)
        assert word == (Swap(1, 2), Swap(2, 3))

    def test_already_sorted_empty_word(self):
        triple = triple_of(GOLDEN_ROOT, P13)
        sorted_triple, word = sort_triple(triple)
        assert sorted_triple == triple and word == ()

    def test_stable_on_equal_degrees(self):
        start = triple_of("(t+2*i; 2; t)", P13)
        sorted_triple, word = sort_triple(start)
        assert sorted_triple == triple_of("(2; t+2*i; t)", P13)
        assert word == (Swap(1, 2),)

    def test_all_constant_rejected(self):
        with pytest.raises(AllConstant):
            sort_triple(triple_of("(1; 2; 0)", P5))


class TestIsFundamental:
    def test_examples(self):
        assert is_fundamental(triple_of("(0; 2*t; t)", P5))
        assert not is_fundamental(triple_of(GOLDEN_ROOT, P13))
        assert is_fundamental(triple_of("(2; t+2*i; t)", P13))
        # unsorted
        assert is_fundamental(triple_of("(t; 2; t)", P13))
        assert is_fundamental(triple_of("(2*t; 0; t)", P5))
        assert not is_fundamental(triple_of("(t^2+2*i*t-2; t; t+2*i)", P13))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.one_of(solutions(), any_triples()))
    def test_order_free_and_matches_the_sorted_rule(self, triple):
        # the same answer on all six orders, and the same answer as
        # deg y == deg z on the degree-sorted triple
        sorted_triple = sort_triple(triple)[0]
        expected = sorted_triple.y.degree == sorted_triple.z.degree
        for order in permutations(triple.coords):
            assert is_fundamental(MarkoffTriple(*order)) == expected


class TestPredecessor:
    """The step descend takes: rho, then a stable degree-sort."""

    def test_golden_root_predecessor(self):
        root = triple_of(GOLDEN_ROOT, P13)
        pred, word = sort_triple(CTX1.apply_generator(root, RHO))
        assert pred == triple_of("(2; t; t+2*i)", P13)
        # pred is fundamental, so this one step is the whole descent
        result = CTX1.descend(root)
        assert (result.fundamental, result.word) == (pred, (RHO, *word))

    def test_depth_one_predecessor(self):
        # stable sort keeps t+2i ahead of t on the degree tie; the result
        # is the golden root as a coordinate multiset
        pred, _ = sort_triple(CTX1.apply_generator(triple_of(GOLDEN_TREE[1], P13), RHO))
        assert pred == triple_of("(t+2*i; t; t^2+2*i*t-2)", P13)
        assert pred.canonical_key() == triple_of(GOLDEN_ROOT, P13).canonical_key()

    def test_golden_tree_edge(self):
        pred, _ = sort_triple(CTX1.apply_generator(triple_of(GOLDEN_TREE[6], P13), RHO))
        assert pred.canonical_key() == triple_of(GOLDEN_TREE[2], P13).canonical_key()


class TestDescend:
    def test_two_step_example(self):
        node = triple_of("(t+2*i; t^2+2*i*t-2; t^3+4*i*t^2-7*t-4*i)", P13)
        result = CTX1.descend(node)
        assert result.fundamental == triple_of("(2; t+2*i; t)", P13)
        assert sum(1 for g in result.word if g == RHO) == 2
        assert CTX1.replay_word(result.fundamental, result.word) == node

    def test_fundamental_fixed_point(self):
        fund = triple_of("(2; t+2*i; t)", P13)
        result = CTX1.descend(fund)
        assert result.fundamental == fund and result.word == ()

    def test_unsorted_input_recorded_in_word(self):
        node = triple_of("(t^2+2*i*t-2; t; t+2*i)", P13)  # scrambled root
        result = CTX1.descend(node)
        assert CTX1.replay_word(result.fundamental, result.word) == node

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.sampled_from([P5, P13]).flatmap(nonconstant_polys),
        st.sampled_from(["1", "t", "t^2+1"]),
        st.sampled_from([1, -1]),
        st.sampled_from([1, -1]),
        st.booleans(),
        st.lists(st.sampled_from([1, 2]), max_size=8),
    )
    def test_replay_inverts_descent(self, f, a_expr, a, sign, zero, word):
        # roots of either family (the constant one needs constant A), grown
        # by a word of branching moves, sorting after each move
        ctx = context(f.modulus, a_expr)
        family = "zero" if zero or ctx.beta else "constant"
        node = sort_triple(ctx.make_root(f, a, sign, family))[0]
        for branch in word:
            node = sort_triple(ctx.apply_sigma(node, branch))[0]
        result = ctx.descend(node)
        assert ctx.replay_word(result.fundamental, result.word) == node
        form = ctx.classify_fundamental(result.fundamental)
        assert isinstance(form, ZeroForm if family == "zero" else ConstantForm)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.sampled_from([P5, P13]).flatmap(nonconstant_polys),
        st.sampled_from(["1", "2", "t", "t^2+1"]),
        SIGNS,
        SIGNS,
        st.booleans(),
        st.lists(st.sampled_from([1, 2]), max_size=8),
        st.permutations(range(3)),
    )
    def test_descent_matches_the_moves(self, f, a_expr, a, sign, zero, word, order):
        # descent on coefficient tuples gives the fundamental triple and word
        # of the record moves, from a sigma word's node in any coordinate order
        ctx = context(f.modulus, a_expr)
        family = "zero" if zero or ctx.beta else "constant"
        node = ctx.make_root(f, a, sign, family)
        for branch in word:
            node = sort_triple(ctx.apply_sigma(node, branch))[0]
        node = MarkoffTriple(*(node.coords[k] for k in order))
        assert ctx.descend(node) == descend_by_moves(ctx, node)

    def test_constant_orbit_has_no_fundamental(self):
        # (1, 2, 2t) = rho(1, 2, 0) over F_5, A = t: descent dead-ends on an
        # all-constant triple instead of a fundamental one; its sigma_1 image
        # takes two rho steps, and the message names the input
        for text, constant in (("(1; 2; 2*t)", "(1, 2, 0)"), ("(4*t^2+4; 2; 2*t)", "(2, 1, 0)")):
            orbit_member = triple_of(text, P5)
            assert CTX_T5.is_solution(orbit_member)
            with pytest.raises(AllConstant) as err:
                CTX_T5.descend(orbit_member)
            assert str(err.value) == (
                f"{orbit_member.render()} descends to the constant solution {constant}"
            )

    def test_non_solution_rejected(self):
        with pytest.raises(NotSolution):
            CTX1.descend(triple_of("(t; t; t)", P13))

    def test_non_solution_that_would_cycle(self):
        # rho then sort maps (1, t, t^2) to (1, t, t - t^2) and back, neither
        # fundamental: only the entry check keeps the descent from looping
        node = triple_of("(1; t; t^2)", P13)
        step, _ = sort_triple(CTX1.apply_generator(node, RHO))
        assert step == triple_of("(1; t; t-t^2)", P13) and not is_fundamental(step)
        assert sort_triple(CTX1.apply_generator(step, RHO))[0] == node
        with pytest.raises(NotSolution):
            CTX1.descend(node)


class TestClassifyFundamental:
    def test_zero_form(self):
        form = CTX_T5.classify_fundamental(triple_of("(0; 2*t; t)", P5))
        assert form == ZeroForm(f=parse_poly("t", P5), sign=1)

    def test_constant_form(self):
        form = CTX1.classify_fundamental(triple_of("(2; t+10; t)", P13))
        assert form == ConstantForm(f=parse_poly("t", P13), a=1, sign=1)

    def test_zero_form_negative_sign(self):
        ctx = context(P13, "t^2")
        triple = triple_of("(0; t+3; 5*t+2)", P13)
        assert ctx.is_solution(triple)
        form = ctx.classify_fundamental(triple)
        assert form == ZeroForm(f=parse_poly("5*t+2", P13), sign=-1)

    def test_not_fundamental_rejected(self):
        with pytest.raises(NotFundamental):
            CTX1.classify_fundamental(triple_of(GOLDEN_ROOT, P13))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(fundamental_forms())
    def test_roundtrip_with_make_fundamental(self, ctx_form):
        ctx, form = ctx_form
        fund = ctx.make_fundamental(form)
        assert ctx.is_solution(fund)
        assert ctx.classify_fundamental(fund) == form


class TestMakeFundamental:
    def test_zero_form_example(self):
        fund = CTX_T5.make_fundamental(ZeroForm(f=parse_poly("t", P5), sign=1))
        assert fund == triple_of("(0; 2*t; t)", P5)

    def test_constant_form_example(self):
        form = ConstantForm(f=parse_poly("t", P13), a=1, sign=1)
        assert CTX1.make_fundamental(form) == triple_of("(2; t+10; t)", P13)

    def test_constant_form_needs_constant_a(self):
        form = ConstantForm(f=parse_poly("t", P13), a=1, sign=1)
        with pytest.raises(ConstantFormNeedsConstantA):
            CTX_T13.make_fundamental(form)

    def test_unreachable_for_three_mod_four(self):
        ctx = context(P7, "t")
        with pytest.raises(IUnavailable):
            ctx.make_fundamental(ZeroForm(f=parse_poly("t", P7), sign=1))
        with pytest.raises(IUnavailable):
            ctx.make_root(parse_poly("t", P7), 1, 1, "zero")

    def test_form_validation(self):
        with pytest.raises(ValueError):
            ZeroForm(f=parse_poly("3", P13), sign=1)
        with pytest.raises(ValueError):
            ZeroForm(f=parse_poly("t", P13), sign=2)

    def test_all_four_constant_forms_are_solutions(self):
        f = parse_poly("t^2+1", P13)
        seen = set()
        for a in (1, -1):
            for sign in (1, -1):
                fund = CTX1.make_fundamental(ConstantForm(f=f, a=a, sign=sign))
                assert CTX1.is_solution(fund)
                seen.add(fund)
        assert len(seen) == 4


class TestMakeRoot:
    def test_zero_family_example(self):
        root = CTX_T13.make_root(parse_poly("t", P13), 1)
        assert [c.coeffs for c in root.coords] == [(0, 1), (0, 5), (0, 0, 0, 5)]
        assert CTX_T13.is_solution(root)

    def test_constant_family_is_golden_root(self):
        root = CTX1.make_root(parse_poly("t", P13), 1, 1, "constant")
        assert root == triple_of(GOLDEN_ROOT, P13)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(fundamental_forms())
    def test_sigma1_of_fundamental_matches_root(self, ctx_form):
        ctx, form = ctx_form
        via_sigma = ctx.apply_sigma(ctx.make_fundamental(form), 1)
        assert via_sigma.canonical_key() == _root_of(ctx, form).canonical_key()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.sampled_from([P5, P13]).flatmap(nonconstant_polys),
        st.sampled_from(["1", "3", "t", "t^2+1"]),
        SIGNS,
        SIGNS,
        st.booleans(),
    )
    def test_matches_closed_forms(self, f, a_expr, a, sign, zero):
        ctx = context(f.modulus, a_expr)
        family = "zero" if zero or ctx.beta else "constant"
        root = ctx.make_root(f, a, sign, family)
        assert root.coords == root_by_closed_forms(ctx, f, a, sign, family).coords

    def test_errors(self):
        t5, t7 = parse_poly("t", P5), parse_poly("t", P7)
        one = Polynomial.constant(P13, 1)
        cases = [
            (CTX1, (one, 2, 1, "zero"), ValueError, "a and sign must be +1 or -1"),
            (CTX1, (one, 1, 1, "zero"), ValueError, "f must be non-constant"),
            (CTX1, (one, 1, 1, "constant"), ValueError, "f must be non-constant"),
            (context(P7, "1"), (t7, 1, 1, "zero"), IUnavailable, "-1 has no square root mod 7"),
            (CTX_T5, (t5, 1, 1, "constant"), ConstantFormNeedsConstantA,
             "constant family needs deg A = 0, got deg A = 1"),
            # the family is read before f: a constant f is not reported here
            (CTX1, (one, 1, 1, "other"), ValueError, "unknown family 'other'"),
        ]
        for ctx, args, error, message in cases:
            with pytest.raises(error) as err:
                ctx.make_root(*args)
            assert str(err.value) == message

    def test_zero_vs_fundamental_orbit_equivalence(self):
        # (f, if, 0) and (0, if, f) are linked by an explicit transposition
        f = parse_poly("t^2+3*t", P13)
        i_poly = CTX_T13.i()
        flat = MarkoffTriple(f, i_poly * f, Polynomial.zero(P13))
        assert CTX_T13.is_solution(flat)
        swapped = CTX_T13.apply_generator(flat, Swap(1, 3))
        assert swapped == CTX_T13.make_fundamental(ZeroForm(f=f, sign=1))


def counted_renders(monkeypatch):
    """The polynomials that triples' renderers render from here on."""
    calls = []
    renderer = triples.renderer

    def counted(modulus, style):
        render = renderer(modulus, style)

        def count(f):
            calls.append(f)
            return render(f)

        return count

    monkeypatch.setattr(triples, "renderer", counted)
    return calls


class TestGenerateTree:
    def test_golden_tree_nodes(self):
        tree = CTX1.generate_tree(triple_of(GOLDEN_ROOT, P13), 2)
        got = {node.triple for node in tree.walk()}
        expected = {triple_of(s, P13) for s in GOLDEN_TREE}
        assert got == expected

    def test_depth_zero(self):
        root = triple_of(GOLDEN_ROOT, P13)
        tree = CTX1.generate_tree(root, 0)
        assert tree.triple == root and tree.children == ()

    def test_node_count_and_solutions(self):
        root = CTX_T13.make_root(parse_poly("t", P13), 1)
        tree = CTX_T13.generate_tree(root, 4)
        nodes = list(tree.walk())
        assert len(nodes) == 2**5 - 1
        assert all(CTX_T13.is_solution(node.triple) for node in nodes)
        assert all(node.triple.is_sorted() for node in nodes)

    def test_budget(self, monkeypatch):
        root = triple_of(GOLDEN_ROOT, P13)
        with pytest.raises(BudgetExceeded) as err:
            CTX1.generate_tree(root, 13)
        assert budget_fields(err) == ("tree depth", 13, 12)
        monkeypatch.setattr(triples, "MAX_TREE_DEPTH", 4)
        assert len(list(CTX1.generate_tree(root, 4).walk())) == 2**5 - 1
        with pytest.raises(BudgetExceeded) as err:
            CTX1.generate_tree(root, 5)
        assert budget_fields(err) == ("tree depth", 5, 4)

    def test_non_solution_rejected(self):
        with pytest.raises(NotSolution):
            CTX1.generate_tree(triple_of("(1; 1; 1)", P13), 1)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(fundamental_forms(), st.lists(st.sampled_from([1, 2]), max_size=2), st.integers(0, 4))
    def test_predicted_size_is_the_built_size(self, ctx_form, branches, depth):
        # roots: fundamental triples (the zero family has x = 0) and triples
        # grown from them by branching moves, fundamental or not; the
        # prediction is an upper bound, and on every such root it is exact
        ctx, form = ctx_form
        root = ctx.make_fundamental(form)
        for branch in branches:
            root = sort_triple(ctx.apply_sigma(root, branch))[0]
        predicted = triples.predict_tree_coeffs(root.signature(), ctx.beta, depth)
        tree = ctx.generate_tree(root, depth)
        built = sum(len(c.coeffs) for node in tree.walk() for c in node.triple.coords)
        assert predicted == built

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        st.one_of(fundamental_forms(contexts=(CTX_T5, CTX1_5)), fundamental_forms()),
        st.lists(st.sampled_from([1, 2]), max_size=2),
        st.integers(0, 4),
    )
    @example((CTX_T5, ZeroForm(f=parse_poly("t+1", P5), sign=1)), [], 3)
    @example((CTX1, ZeroForm(f=parse_poly("t^2+1", P13), sign=-1)), [2], 4)
    def test_children_are_sorted_branching_moves(self, ctx_form, branches, depth):
        # the reference: each child is sort_triple of apply_sigma on its
        # parent, at p = 5 and 13, for constant and non-constant A, from
        # fundamental triples of both families and triples grown from them
        ctx, form = ctx_form
        root = ctx.make_fundamental(form)
        for branch in branches:
            root = sort_triple(ctx.apply_sigma(root, branch))[0]
        tree = ctx.generate_tree(root, depth)
        assert tree.triple == sort_triple(root)[0] and tree.branch is None
        nodes = list(tree.walk())
        assert len(nodes) == 2 ** (depth + 1) - 1
        for node in nodes:
            assert [child.branch for child in node.children] in ([], [1, 2])
            for child in node.children:
                assert child.triple == sort_triple(ctx.apply_sigma(node.triple, child.branch))[0]
            x, y, z = node.triple.coords
            if node.children and x.is_zero():
                # on the zero family's x = 0 triples sigma_2 gives (0, -y, z)
                assert node.children[1].triple == MarkoffTriple(x, -y, z)

    def test_size_budget_refuses_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("tree built")

        monkeypatch.setattr(triples.MarkoffContext, "_grow", refuse)
        monkeypatch.setattr(triples, "_mul", refuse)
        # degrees (1, 1, 3) with deg A = 1
        root = CTX_T13.make_root(parse_poly("t", P13), 1)
        with pytest.raises(BudgetExceeded) as err:
            CTX_T13.generate_tree(root, 12)
        assert budget_fields(err) == ("tree coefficients", 6377288, 2**22)
        # the README root at the depth cap is admitted
        golden = triple_of(GOLDEN_ROOT, P13)
        assert triples.predict_tree_coeffs(golden.signature(), 0, 12) == 3213217
        with pytest.raises(AssertionError, match="tree built"):
            CTX1.generate_tree(golden, 12)

    def test_size_budget_is_exact_at_the_cap(self, monkeypatch):
        # depth 4 from the README root builds 577 coefficients
        root = triple_of(GOLDEN_ROOT, P13)
        monkeypatch.setattr(triples, "MAX_TREE_COEFFS", 577)
        assert len(list(CTX1.generate_tree(root, 4).walk())) == 2**5 - 1
        monkeypatch.setattr(triples, "MAX_TREE_COEFFS", 576)
        with pytest.raises(BudgetExceeded) as err:
            CTX1.generate_tree(root, 4)
        assert budget_fields(err) == ("tree coefficients", 577, 576)

    def test_dot_renders_each_polynomial_once(self, monkeypatch):
        tree = CTX1.generate_tree(triple_of(GOLDEN_ROOT, P13), 4)
        expected = dot_by_node(tree, "with_i")
        calls = counted_renders(monkeypatch)
        assert tree.to_dot("with_i") == expected
        distinct = {c for node in tree.walk() for c in node.triple.coords}
        assert len(calls) == len(set(calls)) == len(distinct) < 3 * (2**5 - 1)

    def test_text_renders_each_polynomial_once(self, monkeypatch):
        tree = CTX1.generate_tree(triple_of(GOLDEN_ROOT, P13), 4)
        expected = text_by_node(tree, "with_i")
        calls = counted_renders(monkeypatch)
        assert list(tree.text_lines("with_i")) == expected
        distinct = {c for node in tree.walk() for c in node.triple.coords}
        assert len(calls) == len(set(calls)) == len(distinct) < 3 * (2**5 - 1)

    @pytest.mark.parametrize(
        "ctx, root",
        [
            # fundamental roots, where sigma_2 keeps deg y and its child is
            # sorted by sort_triple: the zero family (x = 0) at A = t and
            # A = 1, and the constant family at constant A
            (CTX_T13, CTX_T13.make_fundamental(ZeroForm(parse_poly("t^2+3", P13), 1))),
            (CTX1, CTX1.make_fundamental(ZeroForm(parse_poly("t+1", P13), -1))),
            (CTX1, CTX1.make_fundamental(ConstantForm(parse_poly("t^2+t", P13), 1, -1))),
            (CTX1_5, CTX1_5.make_fundamental(ConstantForm(parse_poly("2*t+1", P5), -1, 1))),
            # non-fundamental roots, below which every child is sorted by
            # construction
            (CTX1, CTX1.make_root(parse_poly("t+2", P13), 1)),
            (CTX1, CTX1.make_root(parse_poly("t", P13), -1, -1, "constant")),
            (CTX_T13, CTX_T13.make_root(parse_poly("t", P13), -1)),
            (CTX_T5, CTX_T5.make_root(parse_poly("t^2+1", P5), 1)),
        ],
    )
    def test_tree_is_built_node_by_node_from_the_moves(self, ctx, root):
        depth = 5
        assert ctx.generate_tree(root, depth) == tree_by_moves(ctx, sort_triple(root)[0], depth)

    def test_json_shares_one_object_per_polynomial(self):
        tree = CTX1.generate_tree(triple_of(GOLDEN_ROOT, P13), 5)
        obj = tree.to_json()
        assert obj == tree_json_by_node(tree)
        assert json.dumps(obj, indent=2) == json.dumps(tree_json_by_node(tree), indent=2)
        coords = []
        stack = [obj]
        while stack:
            node = stack.pop()
            coords += node["triple"].values()
            stack += node["children"]
        distinct = {id(c) for node in tree.walk() for c in node.triple.coords}
        assert len({id(c) for c in coords}) == len(distinct) < len(coords)

    def test_json_and_dot(self):
        tree = CTX1.generate_tree(triple_of(GOLDEN_ROOT, P13), 1)
        obj = tree.to_json()
        assert MarkoffTriple.from_json(obj["triple"]) == tree.triple
        assert len(obj["children"]) == 2
        dot = tree.to_dot("with_i")
        assert dot.startswith("digraph") and '[label="s1"]' in dot and '[label="s2"]' in dot


class TestStructuralInvariants:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(fundamental_forms(max_deg=4))
    def test_fundamental_signatures(self, ctx_form):
        # sorted fundamental triples have signature (-inf, n, n) (zero family)
        # or (0, n, n) (constant family)
        ctx, form = ctx_form
        n = form.f.degree
        low = NEG_INF if isinstance(form, ZeroForm) else 0
        assert ctx.make_fundamental(form).signature() == (low, n, n)

    def test_sigma_on_fundamental(self):
        # sigma_2 keeps x=0 fundamentals fundamental at the same height;
        # sigma_1 leaves the fundamental locus
        fund = CTX_T13.make_fundamental(ZeroForm(f=parse_poly("t^2+1", P13), sign=1))
        s2 = sort_triple(CTX_T13.apply_sigma(fund, 2))[0]
        assert is_fundamental(s2) and s2.height() == fund.height()
        s1 = sort_triple(CTX_T13.apply_sigma(fund, 1))[0]
        assert not is_fundamental(s1) and s1.height() > fund.height()


class TestInputChecks:
    def test_double_neg_text(self):
        assert str(DoubleNeg(1, 2)) == "dneg(1,2)"

    def test_one_field_per_triple_and_context(self):
        t5, t13 = Polynomial.t(P5), Polynomial.t(P13)
        with pytest.raises(ModulusMismatch, match="^triple coordinates use different moduli$"):
            MarkoffTriple(t5, t5, t13)
        with pytest.raises(ModulusMismatch, match="^A is not a polynomial over the given field$"):
            MarkoffContext(P5, t13)
        with pytest.raises(ModulusMismatch, match="^triple and context use different moduli$"):
            CTX_T5.is_solution(MarkoffTriple(t13, t13, t13))

    def test_zero_A(self):
        with pytest.raises(ValueError, match="^A must be nonzero$"):
            MarkoffContext(P5, Polynomial.zero(P5))

    def test_unknown_moves_and_forms(self):
        root = triple_of(GOLDEN_ROOT, P13)
        with pytest.raises(TypeError, match="^unknown generator 'x'$"):
            CTX1.apply_generator(root, "x")
        with pytest.raises(ValueError, match="^branch must be 1 or 2$"):
            CTX1.apply_sigma(root, 3)
        with pytest.raises(TypeError, match="^unknown form 'x'$"):
            CTX1.make_fundamental("x")
        with pytest.raises(ValueError, match="^a and sign must be \\+1 or -1$"):
            ConstantForm(Polynomial.t(P13), 2, 1)

    def test_descent_of_zero(self):
        with pytest.raises(AllConstant, match="^descent needs a triple of positive height$"):
            CTX_T5.descend(triple_of("(0; 0; 0)", P5))

    def test_negative_tree_depth(self):
        with pytest.raises(ValueError, match="^depth must be non-negative$"):
            CTX1.generate_tree(triple_of(GOLDEN_ROOT, P13), -1)
