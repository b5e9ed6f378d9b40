"""Integer signature trees.

The (alpha, beta)-Euclid tree is the infinite binary tree rooted at
(alpha, alpha, 2*alpha + beta) under the two branching maps

    branch 1: (t1, t2, t3) -> (t2, t3, t2 + t3 + beta)
    branch 2: (t1, t2, t3) -> (t1, t3, t1 + t3 + beta)

Its vertices are exactly the signatures of non-fundamental Markoff triples
for deg A = beta.  Every (alpha, beta)-tree is the coordinatewise image of
the (1, 0)-tree under n -> n*alpha + (n-1)*beta.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import BudgetExceeded, NotEuclidSum, NotOnUnitTree

# The deepest layer `layers` builds; layer j has up to 2^(j-1) triples, and
# `markoff euclid --depth 20` takes 3.6-3.9 s as JSON and 1.5-1.9 s as text,
# both at 123 MB (Python 3.11, 2 shared vCPUs, buffered stdout).
MAX_LAYER = 20


# collections.namedtuple, not typing.NamedTuple: `typing` would be the
# largest stdlib import of a bare start-up
EuclidTriple = namedtuple("EuclidTriple", "tau1 tau2 tau3")
TreeId = namedtuple("TreeId", "alpha beta")


def euclid_branch(triple: EuclidTriple, beta: int, branch: int) -> EuclidTriple:
    """One branching step; the maximum strictly increases."""
    t1, t2, t3 = triple
    if min(t1, t2, t3) < 1:
        raise ValueError("components must be positive")
    if branch == 1:
        return EuclidTriple(t2, t3, t2 + t3 + beta)
    if branch == 2:
        return EuclidTriple(t1, t3, t1 + t3 + beta)
    raise ValueError("branch must be 1 or 2")


def root(tree: TreeId) -> EuclidTriple:
    """Root (alpha, alpha, 2*alpha + beta); needs alpha >= 1 and beta >= 0."""
    if tree.alpha < 1 or tree.beta < 0:
        raise ValueError(f"tree needs alpha >= 1 and beta >= 0, got {tuple(tree)}")
    return EuclidTriple(tree.alpha, tree.alpha, 2 * tree.alpha + tree.beta)


def layers(tree: TreeId, depth: int) -> list[list[tuple[int, int, int]]]:
    """Layers 0..depth of the tree, each a sorted list of int triples.

    Layer j + 1 is the branch-2 child of every triple in layer j and the
    branch-1 child of each with t1 < t2, the rule of `oracle._bfs_count`:
    only the root has t1 = t2, and its two children coincide."""
    if depth < 0:
        raise ValueError("layer index must be non-negative")
    if depth > MAX_LAYER:
        raise BudgetExceeded("layer", depth, MAX_LAYER)
    beta = tree.beta
    out = [[tuple(root(tree))]]  # a plain tuple, as in every later layer
    for _ in range(depth):
        current = [(t1, t3, t1 + t3 + beta) for t1, t2, t3 in out[-1]]
        current += [(t2, t3, t2 + t3 + beta) for t1, t2, t3 in out[-1] if t1 < t2]
        current.sort()
        out.append(current)
    return out


def layer(tree: TreeId, j: int) -> set[EuclidTriple]:
    """Set of triples reached after exactly j branchings."""
    return set(map(EuclidTriple._make, layers(tree, j)[-1]))


def on_unit_tree(triple: EuclidTriple) -> bool:
    """Vertex test for the (1,0)-tree: t1 <= t2, t3 = t1 + t2, gcd(t1,t2)=1."""
    t1, t2, t3 = triple
    return 1 <= t1 <= t2 and t3 == t1 + t2 and math.gcd(t1, t2) == 1


def map_unit(unit: EuclidTriple, tree: TreeId) -> EuclidTriple:
    """Transport a (1,0)-tree triple to the corresponding (alpha,beta)-tree
    triple; layers are preserved."""
    if not on_unit_tree(unit):
        raise NotOnUnitTree(f"{tuple(unit)} is not on the (1,0)-Euclid tree")
    alpha, beta = tree
    return EuclidTriple(*(n * alpha + (n - 1) * beta for n in unit))


def gamma_reduce(triple: EuclidTriple) -> tuple[EuclidTriple, int]:
    """Subtractive-Euclid reduction to the tree root (alpha, alpha, 2*alpha).

    Requires t3 = t1 + t2.  Returns (root, steps); alpha = gcd(t1, t2).
    Each subtraction is one step, but a run of equal subtractions is taken
    with one division, so the time grows with log t2, not t2 / t1.
    """
    t1, t2, t3 = triple
    if t1 < 1 or t2 < 1:
        raise ValueError("components must be positive")
    if t3 != t1 + t2:
        raise NotEuclidSum(f"{tuple(triple)}: t3 != t1 + t2")
    steps = 0
    while t1 != t2:
        if t2 < t1:
            t1, t2 = t2, t1 - t2
            steps += 1
        else:
            # the run of steps (t1, t2) -> (t1, t2 - t1) that ends at t2 = t1
            # or t2 < t1, in one division
            q, r = divmod(t2, t1)
            t2, steps = (r, steps + q) if r else (t1, steps + q - 1)
    return EuclidTriple(t1, t2, t1 + t2), steps


def membership(triple: EuclidTriple, beta: int) -> TreeId | None:
    """The (alpha, beta)-tree containing this triple, or None.

    The shifted triple (t_i + beta) must be s times a (1,0)-tree triple with
    s = alpha + beta > beta.  That needs t3 = t1 + t2 + beta, and s is then
    g = gcd(t1 + beta, t2 + beta): the only divisor leaving a coprime pair.
    """
    t1, t2, t3 = triple
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if not 1 <= t1 <= t2 < t3 or t3 != t1 + t2 + beta:
        return None
    g = math.gcd(t1 + beta, t2 + beta)
    # tuple.__new__ skips the Python-level __new__ that namedtuple generates
    return tuple.__new__(TreeId, (g - beta, beta)) if g > beta else None
