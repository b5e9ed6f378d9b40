"""Markoff triples over F_p[t]: the surface x^2 + y^2 + z^2 = A*x*y*z,
its automorphisms, descent to fundamental triples, and tree generation.

Conventions: a triple is *sorted* when deg x <= deg y <= deg z; sorting is
stable on equal degrees.  Group words record generators in the order they
were applied; since every generator is an involution, replaying a word in
reverse inverts it.  Triples, generators, forms and tree nodes are immutable
records (`record.Record`).
"""

from __future__ import annotations

import itertools

from .errors import (
    AllConstant,
    BudgetExceeded,
    ConstantFormNeedsConstantA,
    IUnavailable,
    ModulusMismatch,
    NotFundamental,
    NotSolution,
    UnclassifiableInput,
)
from .field import PrimeModulus, sqrt_minus_one
from .poly import Polynomial, _mul, _sub, renderer
from .record import Record, _set

# The deepest tree generate_tree builds, 2^13 - 1 nodes.  It bounds the node
# count, not the node size: depth 12 from (t; t+2*i; t^2+2*i*t-2) at p = 13,
# A = 1 takes 1.1-1.7 s and 66 MB as JSON through the CLI (four runs, Python
# 3.11, 2 vCPUs), and a root of higher degree makes every node larger.
MAX_TREE_DEPTH = 12

# The most coefficients generate_tree builds, summed over every coordinate of
# every node and predicted from the root's degrees before anything is built.
# Depth 12 from the root above predicts 3,213,217; a root of degrees
# (100, 100, 200) would build 318,888,973 and is refused.
MAX_TREE_COEFFS = 1 << 22


# ----------------------------------------------------------------------
# generators of the automorphism group


class Swap(Record):
    """Transposition of coordinates i and j (1-based)."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        _set(self, "i", i)
        _set(self, "j", j)

    def __str__(self):
        return f"swap({self.i},{self.j})"


class DoubleNeg(Record):
    """Negation of coordinates i and j (1-based)."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        _set(self, "i", i)
        _set(self, "j", j)

    def __str__(self):
        return f"dneg({self.i},{self.j})"


class Rho(Record):
    """The Vieta move (x, y, z) -> (x, y, A*x*y - z)."""

    __slots__ = ()

    def __str__(self):
        return "rho"


RHO = Rho()

Generator = Swap | DoubleNeg | Rho
GroupWord = tuple


class MarkoffTriple(Record):
    """Ordered triple of polynomials over a common F_p."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: Polynomial, y: Polynomial, z: Polynomial):
        if not (x.modulus == y.modulus == z.modulus):
            raise ModulusMismatch("triple coordinates use different moduli")
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    @property
    def coords(self):
        return (self.x, self.y, self.z)

    def signature(self):
        return (self.x.degree, self.y.degree, self.z.degree)

    def height(self):
        return max(self.signature())

    def is_sorted(self) -> bool:
        dx, dy, dz = self.signature()
        return dx <= dy <= dz

    def canonical_key(self):
        """Order-independent identity: coordinates sorted by (degree, coeffs)."""
        return tuple(sorted((c.degree, c.coeffs) for c in self.coords))

    def to_json(self) -> dict:
        return {"x": self.x.to_json(), "y": self.y.to_json(), "z": self.z.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "MarkoffTriple":
        return cls(
            Polynomial.from_json(obj["x"]),
            Polynomial.from_json(obj["y"]),
            Polynomial.from_json(obj["z"]),
        )

    def render(self, style: str = "plain") -> str:
        return "".join(_label(self, renderer(self.x.modulus, style)))


def _label(triple: MarkoffTriple, render) -> tuple:
    """The text (x, y, z) of a triple in pieces, each coordinate through render."""
    x, y, z = map(render, triple.coords)
    return ("(", x, ", ", y, ", ", z, ")")


# ----------------------------------------------------------------------
# fundamental forms


class ZeroForm(Record):
    """Fundamental triple (0, sign*i*f, f) with f non-constant."""

    __slots__ = ("f", "sign")

    def __init__(self, f: Polynomial, sign: int):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if f.is_constant():
            raise ValueError("f must be non-constant")
        _set(self, "f", f)
        _set(self, "sign", sign)


class ConstantForm(Record):
    """Fundamental triple (2a/A, a*f + sign*2ai/A, f); only for constant A."""

    __slots__ = ("f", "a", "sign")

    def __init__(self, f: Polynomial, a: int, sign: int):
        if a not in (1, -1) or sign not in (1, -1):
            raise ValueError("a and sign must be +1 or -1")
        if f.is_constant():
            raise ValueError("f must be non-constant")
        _set(self, "f", f)
        _set(self, "a", a)
        _set(self, "sign", sign)


FundamentalForm = ZeroForm | ConstantForm


# ----------------------------------------------------------------------
# free-standing triple helpers (no A required)


def sort_triple(triple: MarkoffTriple) -> tuple[MarkoffTriple, GroupWord]:
    """Stable degree-sort; returns the sorted triple and the Swap word applied."""
    if triple.height() <= 0:
        raise AllConstant("all coordinates are constant")
    coords = list(triple.coords)
    word = []
    # bubble sort, strict comparison: stable on equal degrees
    for i, j in ((0, 1), (1, 2), (0, 1)):
        if coords[i].degree > coords[j].degree:
            coords[i], coords[j] = coords[j], coords[i]
            word.append(Swap(i + 1, j + 1))
    return MarkoffTriple(*coords), tuple(word)


def is_fundamental(triple: MarkoffTriple) -> bool:
    """True iff the two highest degrees are equal, in any coordinate order
    (deg y = deg z once sorted).  Raises nothing."""
    _, middle, top = sorted(triple.signature())
    return middle == top


def predict_tree_coeffs(signature, beta: int, depth: int) -> int:
    """Coefficients over every coordinate of every node of the depth-`depth`
    tree under a root of this degree signature, walked on degrees alone.

    The signature is that of a sorted solution of positive height, so
    d1 <= d2 <= d3 with d2 >= 0.  A branching move replaces d_i by
    max(beta + d_j + d_k, d_i), which bounds the degree of A*x_j*x_k - x_i:
    sigma_1 gives (d2, d3, beta + d2 + d3), and sigma_2 gives
    (d1, d3, beta + d1 + d3), or keeps the signature when d1 is -inf (x = 0).
    Below a non-fundamental root the new leading term cannot cancel, so there
    the prediction is exact; on the fundamental triples of both families,
    sigma_2 keeps deg y, so it is exact there too."""
    total = 0
    stack = [(*signature, depth)]
    while stack:
        d1, d2, d3, left = stack.pop()
        total += d2 + d3 + 2 + (d1 + 1 if d1 >= 0 else 0)
        if left:
            left -= 1
            stack.append((d2, d3, beta + d2 + d3, left))
            stack.append((d1, d3, beta + d1 + d3, left) if d1 >= 0 else (d1, d2, d3, left))
    return total


# ----------------------------------------------------------------------
# context


class MarkoffContext(Record):
    """A fixed prime field and a fixed nonzero parameter A."""

    __slots__ = ("p", "A")

    def __init__(self, p: PrimeModulus, A: Polynomial):
        if A.modulus != p:
            raise ModulusMismatch("A is not a polynomial over the given field")
        if A.is_zero():
            raise ValueError("A must be nonzero")
        _set(self, "p", p)
        _set(self, "A", A)

    @property
    def beta(self) -> int:
        return len(self.A.coeffs) - 1

    def i(self) -> Polynomial:
        root = sqrt_minus_one(self.p)
        if root is None:
            raise IUnavailable(f"-1 has no square root mod {self.p.p}")
        return Polynomial.constant(self.p, root)

    # ------------------------------------------------------------------

    def is_solution(self, triple: MarkoffTriple) -> bool:
        x, y, z = triple.coords
        if x.modulus != self.p:
            raise ModulusMismatch("triple and context use different moduli")
        lhs = x * x + y * y + z * z
        return lhs == self.A * x * y * z

    def require_solution(self, triple: MarkoffTriple):
        if not self.is_solution(triple):
            raise NotSolution(f"{triple.render()} does not satisfy the equation")

    def apply_generator(self, triple: MarkoffTriple, gen: Generator) -> MarkoffTriple:
        coords = list(triple.coords)
        if isinstance(gen, Swap):
            i, j = gen.i - 1, gen.j - 1
            coords[i], coords[j] = coords[j], coords[i]
        elif isinstance(gen, DoubleNeg):
            i, j = gen.i - 1, gen.j - 1
            coords[i], coords[j] = -coords[i], -coords[j]
        elif isinstance(gen, Rho):
            coords[2] = self.A * coords[0] * coords[1] - coords[2]
        else:
            raise TypeError(f"unknown generator {gen!r}")
        return MarkoffTriple(*coords)

    def replay_word(self, triple: MarkoffTriple, word: GroupWord) -> MarkoffTriple:
        """Invert a recorded word: replay right-to-left (every generator is
        an involution)."""
        for gen in reversed(word):
            triple = self.apply_generator(triple, gen)
        return triple

    def apply_sigma(self, triple: MarkoffTriple, branch: int) -> MarkoffTriple:
        """Branching moves: 1 -> (A*z*y - x, y, z), 2 -> (x, A*x*z - y, z)."""
        x, y, z = triple.coords
        if branch == 1:
            return MarkoffTriple(self.A * z * y - x, y, z)
        if branch == 2:
            return MarkoffTriple(x, self.A * x * z - y, z)
        raise ValueError("branch must be 1 or 2")

    # ------------------------------------------------------------------
    # descent

    def descend(self, triple: MarkoffTriple) -> "DescentResult":
        """Reduce a positive-height solution to a sorted fundamental triple.

        The returned word lists the generators applied, in order, to reach
        the fundamental triple; replay_word(fundamental, word) reproduces
        the input exactly.

        Raises AllConstant for solutions in the orbit of a constant solution
        (possible only for non-constant A, e.g. (1, 2, 2t) = rho(1, 2, 0)
        over F_5 with A = t): their descent chain bottoms out on a constant
        triple, which has no fundamental form.
        """
        self.require_solution(triple)
        if triple.height() <= 0:
            raise AllConstant("descent needs a triple of positive height")
        # solutions are closed under the moves, so validate once at entry, not
        # at each step.  The check also ends the loop: on the non-solution
        # (1, t, t^2) at p = 13, A = 1, rho would cycle t^2 -> t - t^2 -> t^2
        # forever.
        current, word = sort_triple(triple)
        parts = list(word)
        while not is_fundamental(current):
            if (image := self.apply_generator(current, RHO)).height() <= 0:
                raise AllConstant(triple, image)
            current, step = sort_triple(image)
            parts += (RHO, *step)
        return DescentResult(fundamental=current, word=tuple(parts))

    # ------------------------------------------------------------------
    # fundamental triples

    def classify_fundamental(self, triple: MarkoffTriple) -> FundamentalForm:
        """Match a sorted fundamental solution against its closed form: the
        form with f = z whose `make_fundamental` is the triple."""
        self.require_solution(triple)
        if not triple.is_sorted() or triple.height() <= 0 or not is_fundamental(triple):
            raise NotFundamental(f"{triple.render()} is not a sorted fundamental triple")
        f = triple.z
        forms = [ZeroForm(f, sign) for sign in (1, -1)]
        if self.beta == 0 and triple.x.is_constant():
            forms += [ConstantForm(f, a, sign) for a in (1, -1) for sign in (1, -1)]
        for form in forms:
            if self.make_fundamental(form) == triple:
                return form
        raise UnclassifiableInput(f"{triple.render()} matches no fundamental form")

    def make_fundamental(self, form: FundamentalForm) -> MarkoffTriple:
        """Build the sorted fundamental triple described by a form."""
        i = self.i()
        if isinstance(form, ZeroForm):
            zero = Polynomial.zero(self.p)
            return MarkoffTriple(zero, (i * form.f).scalar_mul(form.sign), form.f)
        if isinstance(form, ConstantForm):
            if self.beta != 0:
                raise ConstantFormNeedsConstantA(
                    f"constant family needs deg A = 0, got deg A = {self.beta}"
                )
            inv_A = pow(self.A.coeffs[0], -1, self.p.p)
            x = Polynomial.constant(self.p, 2 * form.a * inv_A)
            y = form.f.scalar_mul(form.a) + (i * x).scalar_mul(form.sign)
            return MarkoffTriple(x, y, form.f)
        raise TypeError(f"unknown form {form!r}")

    def make_root(self, f: Polynomial, a: int, sign: int = 1, family: str = "zero") -> MarkoffTriple:
        """Root of a Markoff tree, its smallest-height non-fundamental triple:
        sigma_1 (A*f*y - x, y, f) of the family's fundamental triple (x, y, f),
        written (f, y, A*f*y - x).

        zero family:     (f, i*a*f, i*a*A*f^2)
        constant family: (f, a*f + sign*2ai/A, A*a*f^2 + sign*2aif - 2a/A)
        """
        if a not in (1, -1) or sign not in (1, -1):
            raise ValueError("a and sign must be +1 or -1")
        if family == "zero":
            form = ZeroForm(f, a)
        elif family == "constant":
            form = ConstantForm(f, a, sign)
        else:
            raise ValueError(f"unknown family {family!r}")
        x, y, _ = self.make_fundamental(form).coords
        return MarkoffTriple(f, y, self.A * f * y - x)

    # ------------------------------------------------------------------
    # trees

    def generate_tree(self, root: MarkoffTriple, depth: int) -> "TreeNode":
        """Full binary tree of sorted triples under the two branching moves."""
        self.require_solution(root)
        if depth < 0:
            raise ValueError("depth must be non-negative")
        if depth > MAX_TREE_DEPTH:
            raise BudgetExceeded("tree depth", depth, MAX_TREE_DEPTH)
        sorted_root, _ = sort_triple(root)
        predicted = predict_tree_coeffs(sorted_root.signature(), self.beta, depth)
        if predicted > MAX_TREE_COEFFS:
            raise BudgetExceeded("tree coefficients", predicted, MAX_TREE_COEFFS)
        return self._grow(sorted_root, None, depth)

    def _grow(self, triple, branch, depth):
        """The subtree under a sorted triple, grown on coefficient tuples.

        The two children are the sorted (A*z*y - x, y, z) and (x, A*x*z - y,
        z), which share the product A*z.  Each keeps two of the parent's
        coordinates as they are and wraps only the new one.  A new coordinate
        of degree above deg z goes last, where the stable sort_triple puts
        it, so such a child is sorted by construction; any other child, as
        sigma_2 of a fundamental triple, goes through sort_triple.
        """
        if depth == 0:
            return TreeNode(triple, branch, ())
        x, y, z = triple.coords
        p, top = self.p.p, len(z.coeffs)
        az = _mul(self.A.coeffs, z.coeffs, p)
        x1 = Polynomial._make(self.p, _sub(_mul(az, y.coeffs, p), x.coeffs, p))
        y2 = Polynomial._make(self.p, _sub(_mul(az, x.coeffs, p), y.coeffs, p))
        if len(x1.coeffs) > top:
            first = MarkoffTriple(y, z, x1)
        else:
            first = sort_triple(MarkoffTriple(x1, y, z))[0]
        if len(y2.coeffs) > top:
            second = MarkoffTriple(x, z, y2)
        else:
            second = sort_triple(MarkoffTriple(x, y2, z))[0]
        depth -= 1
        return TreeNode(triple, branch, (self._grow(first, 1, depth), self._grow(second, 2, depth)))


class DescentResult(Record):
    __slots__ = ("fundamental", "word")

    def __init__(self, fundamental: MarkoffTriple, word: GroupWord):
        _set(self, "fundamental", fundamental)
        _set(self, "word", word)


class TreeNode(Record):
    """Node of a generated Markoff tree; `branch` is the sigma move (1 or 2)
    that produced it from its parent, None for the root."""

    __slots__ = ("triple", "branch", "children")

    def __init__(self, triple: MarkoffTriple, branch: int | None, children: tuple):
        _set(self, "triple", triple)
        _set(self, "branch", branch)
        _set(self, "children", children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_json(self) -> dict:
        """JSON object of the subtree, one object per distinct coordinate."""
        return _node_json(self, _once_per_object(Polynomial.to_json))

    def to_dot(self, style: str = "plain") -> str:
        """DOT text.  Each distinct coordinate is rendered once, and every
        label refers to that one text until the final join."""
        parts = ["digraph markoff_tree {\n", '  node [shape=box, fontname="monospace"];\n']
        render = _once_per_object(renderer(self.triple.x.modulus, style))
        _dot_parts(self, parts, render, itertools.count())
        parts.append("}")
        return "".join(parts)

    def text_lines(self, style: str = "plain"):
        """Text form, one line per node in preorder: two spaces per level,
        "s1 " or "s2 " for the move that made the node, the triple and a
        newline.  Each distinct coordinate is rendered once."""
        render = _once_per_object(renderer(self.triple.x.modulus, style))
        stack = [(self, "")]
        while stack:
            node, indent = stack.pop()
            tag = f"s{node.branch} " if node.branch else ""
            yield "".join((indent, tag, *_label(node.triple, render), "\n"))
            stack += [(child, indent + "  ") for child in reversed(node.children)]


def _once_per_object(convert):
    """convert, called once per distinct object.  A sigma move keeps two of
    its parent's coordinates, so a tree shares most of its polynomials.
    Keyed by id: the tree keeps them alive through an export, so no id recurs."""
    done = {}

    def once(c):
        out = done.get(id(c))
        if out is None:
            out = done[id(c)] = convert(c)
        return out

    return once


def _node_json(node: TreeNode, coord) -> dict:
    """JSON object of node's subtree, each coordinate through coord."""
    t = node.triple
    return {
        "triple": {"x": coord(t.x), "y": coord(t.y), "z": coord(t.z)},
        "children": [_node_json(child, coord) for child in node.children],
    }


def _dot_parts(node: TreeNode, parts: list, render, numbers) -> int:
    """Append the DOT text of node's subtree to parts, numbering nodes in
    preorder from numbers, and return node's number."""
    idx = next(numbers)
    parts += (f'  n{idx} [label="', *_label(node.triple, render), '"];\n')
    for child in node.children:
        cidx = _dot_parts(child, parts, render, numbers)
        parts.append(f'  n{idx} -> n{cidx} [label="s{child.branch}"];\n')
    return idx
