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
from typing import NamedTuple

from .errors import BudgetExceeded, NotEuclidSum, NotOnUnitTree

# The deepest layer `layer` builds; layer j has up to 2^(j-1) triples, and
# `markoff euclid --depth 20` (every layer up to 20) takes 21-23 s and 272 MB
# as JSON (two runs, Python 3.11, 2 vCPUs).
MAX_LAYER = 20


class EuclidTriple(NamedTuple):
    tau1: int
    tau2: int
    tau3: int


class TreeId(NamedTuple):
    alpha: int
    beta: int


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


def layer(tree: TreeId, j: int) -> set[EuclidTriple]:
    """Set of triples reached after exactly j branchings (deduplicated; the
    two children of the root coincide)."""
    if j < 0:
        raise ValueError("layer index must be non-negative")
    if j > MAX_LAYER:
        raise BudgetExceeded("layer", j, MAX_LAYER)
    current = {root(tree)}
    for _ in range(j):
        current = {
            euclid_branch(t, tree.beta, b) for t in current for b in (1, 2)
        }
    return current


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
    """
    t1, t2, t3 = triple
    if t1 < 1 or t2 < 1:
        raise ValueError("components must be positive")
    if t3 != t1 + t2:
        raise NotEuclidSum(f"{tuple(triple)}: t3 != t1 + t2")
    steps = 0
    while t1 != t2:
        if t2 >= t1:
            t1, t2 = t1, t2 - t1
        else:
            t1, t2 = t2, t1 - t2
        steps += 1
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
    return TreeId(g - beta, beta) if g > beta else None
