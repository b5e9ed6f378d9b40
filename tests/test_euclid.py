import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    budget_fields,
    gamma_reduce_by_subtraction,
    layer_by_sets,
    membership_by_divisors,
)
from markoff import euclid
from markoff.errors import BudgetExceeded, NotEuclidSum, NotOnUnitTree
from markoff.euclid import (
    EuclidTriple,
    TreeId,
    euclid_branch,
    gamma_reduce,
    layer,
    layers,
    map_unit,
    membership,
    on_unit_tree,
    root,
)


class TestBranching:
    def test_unit_root_child(self):
        assert euclid_branch(EuclidTriple(1, 1, 2), 0, 1) == (1, 2, 3)

    def test_general_root_child(self):
        alpha, beta = 3, 2
        got = euclid_branch(root(TreeId(alpha, beta)), beta, 1)
        assert got == (alpha, 2 * alpha + beta, 3 * alpha + 2 * beta)

    def test_branch_two(self):
        assert euclid_branch(EuclidTriple(1, 3, 5), 1, 2) == (1, 5, 7)

    def test_max_strictly_increases(self):
        triple = EuclidTriple(2, 3, 5)
        for beta in (0, 1, 3):
            for branch in (1, 2):
                assert max(euclid_branch(triple, beta, branch)) > max(triple)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            euclid_branch(EuclidTriple(0, 1, 1), 0, 1)

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError, match="^branch must be 1 or 2$"):
            euclid_branch(EuclidTriple(1, 1, 2), 0, 3)

    def test_rejects_negative_beta(self):
        # (1, 1, 2) at beta = -3 would branch to (1, 2, 0), not a vertex
        with pytest.raises(ValueError, match="^beta must be non-negative$"):
            euclid_branch(EuclidTriple(1, 1, 2), -3, 1)

    @pytest.mark.parametrize("tree", [TreeId(0, 0), TreeId(1, -1), TreeId(-2, 1)])
    def test_rejects_invalid_tree(self, tree):
        with pytest.raises(ValueError):
            root(tree)
        with pytest.raises(ValueError):
            layer(tree, 0)
        # map_unit would map (1, 2, 3) to (0, 0, 0) on TreeId(0, 0), and to
        # (-2, -3, -4) on TreeId(-2, 1)
        message = rf"^tree needs alpha >= 1 and beta >= 0, got \({tree.alpha}, {tree.beta}\)$"
        with pytest.raises(ValueError, match=message):
            map_unit(EuclidTriple(1, 2, 3), tree)


class TestLayers:
    def test_unit_layers(self):
        tree = TreeId(1, 0)
        assert layer(tree, 0) == {(1, 1, 2)}
        assert layer(tree, 1) == {(1, 2, 3)}
        assert layer(tree, 2) == {(1, 3, 4), (2, 3, 5)}

    def test_shifted_layer(self):
        assert layer(TreeId(2, 1), 1) == {(2, 5, 8)}

    def test_sizes_after_dedup(self):
        tree = TreeId(1, 0)
        for j in range(2, 9):
            assert len(layer(tree, j)) == 2 ** (j - 1)

    def test_budget(self, monkeypatch):
        with pytest.raises(BudgetExceeded) as err:
            layer(TreeId(1, 0), 21)
        assert budget_fields(err) == ("layer", 21, 20)
        monkeypatch.setattr(euclid, "MAX_LAYER", 8)
        assert len(layer(TreeId(1, 0), 8)) == 2**7
        with pytest.raises(BudgetExceeded) as err:
            layer(TreeId(1, 0), 9)
        assert budget_fields(err) == ("layer", 9, 8)


    def test_one_walk_matches_layer_by_layer(self):
        for alpha in range(1, 5):
            for beta in range(4):
                tree = TreeId(alpha, beta)
                for depth in range(13):
                    got = layers(tree, depth)
                    assert len(got) == depth + 1
                    for j, triples in enumerate(got):
                        assert triples == sorted(layer_by_sets(tree, j)), (tree, depth, j)
                    # the facts the one root rule rests on
                    assert got[0] == [root(tree)] and type(got[0][0]) is tuple
                    assert depth == 0 or len(got[1]) == 1
                    assert all(t1 < t2 for triples in got[2:] for t1, t2, _ in triples)
                assert layer(tree, 12) == layer_by_sets(tree, 12)
                assert all(type(t) is EuclidTriple for t in layer(tree, 12))

    def test_layers_budget(self, monkeypatch):
        with pytest.raises(BudgetExceeded) as err:
            layers(TreeId(1, 0), 21)
        assert budget_fields(err) == ("layer", 21, 20)
        with pytest.raises(ValueError):
            layers(TreeId(1, 0), -1)
        monkeypatch.setattr(euclid, "MAX_LAYER", 8)
        assert len(layers(TreeId(1, 0), 8)[-1]) == 2**7
        with pytest.raises(BudgetExceeded) as err:
            layers(TreeId(1, 0), 9)
        assert budget_fields(err) == ("layer", 9, 8)


class TestMapUnit:
    def test_examples(self):
        assert map_unit(EuclidTriple(1, 2, 3), TreeId(2, 1)) == (2, 5, 8)
        assert map_unit(EuclidTriple(1, 1, 2), TreeId(4, 7)) == (4, 4, 15)
        assert map_unit(EuclidTriple(2, 3, 5), TreeId(3, 0)) == (6, 9, 15)

    def test_maps_into_layer(self):
        assert map_unit(EuclidTriple(1, 2, 3), TreeId(2, 1)) in layer(TreeId(2, 1), 1)

    def test_rejects_off_tree(self):
        with pytest.raises(NotOnUnitTree):
            map_unit(EuclidTriple(2, 2, 4), TreeId(1, 1))
        with pytest.raises(NotOnUnitTree):
            map_unit(EuclidTriple(1, 2, 4), TreeId(1, 1))

    def test_layer_correspondence(self):
        # exact set equality between direct layers and mapped unit layers
        for alpha in range(1, 5):
            for beta in range(4):
                tree = TreeId(alpha, beta)
                for j in range(7):
                    mapped = {map_unit(u, tree) for u in layer(TreeId(1, 0), j)}
                    assert layer(tree, j) == mapped


class TestGammaReduce:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="^components must be positive$"):
            gamma_reduce((0, 1, 1))

    def test_examples(self):
        assert gamma_reduce(EuclidTriple(2, 3, 5)) == ((1, 1, 2), 2)
        assert gamma_reduce(EuclidTriple(3, 3, 6)) == ((3, 3, 6), 0)
        assert gamma_reduce(EuclidTriple(2, 4, 6)) == ((2, 2, 4), 1)

    def test_alpha_is_gcd(self):
        for t1 in range(1, 20):
            for t2 in range(1, 20):
                reduced, _ = gamma_reduce(EuclidTriple(t1, t2, t1 + t2))
                assert reduced.tau1 == math.gcd(t1, t2)

    def test_rejects_non_sum(self):
        with pytest.raises(NotEuclidSum):
            gamma_reduce(EuclidTriple(2, 3, 6))

    def test_runs_match_subtraction(self):
        for t1 in range(1, 201):
            for t2 in range(1, 201):
                triple = EuclidTriple(t1, t2, t1 + t2)
                assert gamma_reduce(triple) == gamma_reduce_by_subtraction(triple), triple

    def test_long_run_is_one_division(self):
        # one step at a time, this run would take 10^18 loop passes
        assert gamma_reduce(EuclidTriple(1, 10**18, 10**18 + 1)) == ((1, 1, 2), 10**18 - 1)
        assert gamma_reduce(EuclidTriple(10**18, 1, 10**18 + 1)) == ((1, 1, 2), 10**18 - 1)

    def test_gamma_inverts_branching(self):
        # on the unit tree, stepping down then branching recovers the triple
        frontier = [EuclidTriple(1, 2, 3)]
        for _ in range(5):
            nxt = []
            for triple in frontier:
                t1, t2, _ = triple
                parent = EuclidTriple(min(t1, t2 - t1), max(t1, t2 - t1), t2)
                assert triple in (
                    euclid_branch(parent, 0, 1),
                    euclid_branch(parent, 0, 2),
                )
                nxt.extend(euclid_branch(triple, 0, b) for b in (1, 2))
            frontier = nxt


class TestMembership:
    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError, match="^beta must be non-negative$"):
            membership(EuclidTriple(1, 1, 2), -1)

    def test_beta_zero(self):
        assert membership(EuclidTriple(4, 6, 10), 0) == TreeId(2, 0)
        assert membership(EuclidTriple(2, 3, 6), 0) is None

    def test_beta_one(self):
        assert membership(EuclidTriple(2, 5, 8), 1) == TreeId(2, 1)

    def test_root_membership(self):
        assert membership(EuclidTriple(3, 3, 8), 2) == TreeId(3, 2)

    def test_identity_with_map_unit(self):
        units = set()
        for j in range(6):
            units |= layer(TreeId(1, 0), j)
        for alpha in range(1, 5):
            for beta in range(4):
                tree = TreeId(alpha, beta)
                for u in units:
                    assert membership(map_unit(u, tree), beta) == tree

    def test_result_is_tree_id(self):
        got = membership(EuclidTriple(2, 5, 8), 1)
        assert type(got) is TreeId and got.alpha == 2 and got.beta == 1

    def test_off_tree_shifted(self):
        assert membership(EuclidTriple(1, 1, 2), 1) is None

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 12), st.integers(-2, 400), st.integers(-2, 400),
           st.integers(-2, 900))
    def test_gcd_test_matches_divisor_loop(self, beta, t1, t2, t3):
        triple = (t1, t2, t3)
        assert membership(triple, beta) == membership_by_divisors(triple, beta)
        # the sum condition is the rare one: also test its triples
        on_sum = (t1, t2, t1 + t2 + beta)
        assert membership(on_sum, beta) == membership_by_divisors(on_sum, beta)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 12), st.integers(0, 7), st.data())
    def test_layer_vertices_match_divisor_loop(self, alpha, beta, j, data):
        tree = TreeId(alpha, beta)
        vertex = data.draw(st.sampled_from(sorted(layer(tree, j))))
        assert membership(vertex, beta) == membership_by_divisors(vertex, beta) == tree
        # the same vertex read against another beta
        other = data.draw(st.integers(0, 12))
        assert membership(vertex, other) == membership_by_divisors(vertex, other)


class TestUnitTreeCharacterization:
    def test_bfs_matches_gcd_criterion(self):
        # vertices with max <= 200 collected by BFS equal the coprime-pair set
        seen = set()
        frontier = [EuclidTriple(1, 1, 2)]
        seen.add(frontier[0])
        while frontier:
            nxt = []
            for triple in frontier:
                for b in (1, 2):
                    child = euclid_branch(triple, 0, b)
                    if child.tau3 <= 200 and child not in seen:
                        seen.add(child)
                        nxt.append(child)
            frontier = nxt
        expected = {
            EuclidTriple(b, c, b + c)
            for c in range(1, 200)
            for b in range(1, c + 1)
            if b + c <= 200 and math.gcd(b, c) == 1
        }
        assert seen == expected
        assert all(on_unit_tree(t) for t in seen)
