"""Span tracing around calls into the markoff layers.

The benchmark installs wrappers on named functions of the package, so the
program itself carries no tracing code.  Each wrapped call opens a span with
a name, a layer, start and end times, the span that caused it and the
operation id.  Spans stay in memory; `Tracer.write` writes them out when the
run ends, and `Tracer.summary` computes self time (a span's busy time minus
the busy time of its child spans) per layer and per span name.

Hot kernels are called millions of times per operation, so their spans are
merged into one record per (name, parent span): the record keeps the start of
the first call, the end of the last, the call count and the summed busy
time.  A call that re-enters a span of the same name (recursion, such as
`TreeNode.to_json`) is folded into the outer span.

A target that no longer exists in the package is reported as absent, not
raised, so the table survives the removal of a wrapped name.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# Span record fields.
NAME, LAYER, START, END, PARENT, OP, CALLS, BUSY = range(8)

LAYERS = ("cli", "poly", "field", "triples", "euclid", "counting", "oracle")


class Tracer:
    """Spans and counters of one traced pass over a workload."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, op, calls, busy]
        self.stack = [-1]
        self.merged = {}  # (name, parent) -> index of a merged record
        self.counters = Counter()
        self.counter_errors = Counter()
        self.op = None

    def open_op(self, op_id):
        """Open the root span of one benchmark operation."""
        self.op = op_id
        self.spans.append(["bench.op", "bench", time.perf_counter(), 0.0, -1, op_id, 1, 0.0])
        self.stack.append(len(self.spans) - 1)

    def close_op(self):
        idx = self.stack.pop()
        rec = self.spans[idx]
        rec[END] = time.perf_counter()
        rec[BUSY] = rec[END] - rec[START]
        self.op = None

    def wrap(self, fn, name, merge, count):
        spans, stack, merged = self.spans, self.stack, self.merged
        layer = name.partition(".")[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent >= 0 and spans[parent][NAME] == name:
                return fn(*args, **kwargs)
            if merge:
                key = (name, parent)
                idx = merged.get(key)
                if idx is None:
                    idx = merged[key] = len(spans)
                    spans.append([name, layer, 0.0, 0.0, parent, tracer.op, 0, 0.0])
            else:
                idx = len(spans)
                spans.append([name, layer, 0.0, 0.0, parent, tracer.op, 0, 0.0])
            rec = spans[idx]
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if not rec[CALLS]:
                    rec[START] = start
                rec[END] = end
                rec[CALLS] += 1
                rec[BUSY] += end - start
            if count is not None:
                try:
                    count(tracer.counters, args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    tracer.counter_errors[name] += 1
            return result

        return traced

    def summary(self):
        """Per-layer and per-name busy and self time, from the spans."""
        spans = self.spans
        child_busy = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_busy[rec[PARENT]] += rec[BUSY]
        layer_self, layer_busy = Counter(), Counter()
        name_self, name_busy, name_calls = Counter(), Counter(), Counter()
        for idx, rec in enumerate(spans):
            layer_self[rec[LAYER]] += rec[BUSY] - child_busy[idx]
            name_self[rec[NAME]] += rec[BUSY] - child_busy[idx]
            name_calls[rec[NAME]] += rec[CALLS]
            # busy time counts outermost spans only: one inside a span of the
            # same name or layer is already part of that span's time
            if not self._inside(idx, NAME, rec[NAME]):
                name_busy[rec[NAME]] += rec[BUSY]
            if not self._inside(idx, LAYER, rec[LAYER]):
                layer_busy[rec[LAYER]] += rec[BUSY]
        return {
            "layer_self": layer_self,
            "layer_busy": layer_busy,
            "name_self": name_self,
            "name_busy": name_busy,
            "name_calls": name_calls,
        }

    def _inside(self, idx, field, value):
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][field] == value:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write(self, fp):
        """Write every span as one JSON line."""
        for rec in self.spans:
            fp.write(
                json.dumps(
                    {
                        "name": rec[NAME],
                        "layer": rec[LAYER],
                        "start": rec[START],
                        "end": rec[END],
                        "parent": rec[PARENT],
                        "op": rec[OP],
                        "calls": rec[CALLS],
                        "busy": rec[BUSY],
                    },
                    separators=(",", ":"),
                )
            )
            fp.write("\n")


# ----------------------------------------------------------------------
# counters, computed from the arguments and result of a wrapped call


def _count_parse(counters, args, kwargs, result):
    counters["poly.parse_chars"] += len(args[0])


def _count_mul(counters, args, kwargs, result):
    # computed from operand sizes, not measured
    other = args[1]
    counters["poly.mul_coeff_products"] += len(args[0].coeffs) * (
        len(other.coeffs) if hasattr(other, "coeffs") else 1
    )


def _count_hits(key):
    def count(counters, args, kwargs, result):
        if result is not None:
            counters[key] += 1

    return count


def _count_enumerate(counters, args, kwargs, result):
    ctx = args[0]
    max_height = args[1] if len(args) > 1 else kwargs["max_height"]
    counters["oracle.solutions"] += len(result)
    # computed from the field size and height: q^(2(n+1)) candidate pairs
    counters["oracle.pair_bound"] += ctx.p.p ** (2 * (max_height + 1))


def _count_jsonl(counters, args, kwargs, result):
    fp = args[1] if len(args) > 1 else kwargs["fp"]
    counters["oracle.jsonl_bytes"] += fp.tell()


def _count_terms(counters, args, kwargs, result):
    counters["counting.divisor_terms"] += len(result.terms)


def _count_descend(counters, args, kwargs, result):
    counters["triples.descend_steps"] += sum(1 for g in result.word if str(g) == "rho")


def _count_tree(counters, args, kwargs, result):
    counters["triples.tree_nodes"] += sum(1 for _ in result.walk())


def _count_layer(counters, args, kwargs, result):
    counters["euclid.layer_triples"] += len(result)


# (module:qualified name, span name, merge into one record per parent,
#  counter).  A span's layer is the first part of its name.  Hot kernels are
#  merged; everything else gets a span per call.
TARGETS = (
    ("markoff.cli:main", "cli.main", False, None),
    ("markoff.poly:parse_poly", "poly.parse", False, _count_parse),
    ("markoff.poly:Polynomial.__mul__", "poly.mul", True, _count_mul),
    ("markoff.poly:Polynomial.__add__", "poly.linear", True, None),
    ("markoff.poly:Polynomial.__sub__", "poly.linear", True, None),
    ("markoff.poly:Polynomial.__neg__", "poly.linear", True, None),
    ("markoff.poly:Polynomial.scalar_mul", "poly.linear", True, None),
    ("markoff.poly:render_poly", "poly.render", False, None),
    ("markoff.poly:_sqrt_coeffs", "poly.sqrt", True, _count_hits("poly.sqrt_hits")),
    ("markoff.oracle:_mul", "poly.kernel_mul", True, None),
    ("markoff.poly:_sqrt_int", "field.sqrt", True, _count_hits("field.sqrt_residues")),
    ("markoff.field:is_prime", "field.is_prime", True, None),
    ("markoff.triples:MarkoffContext.is_solution", "triples.is_solution", False, None),
    ("markoff.triples:MarkoffContext.descend", "triples.descend", False, _count_descend),
    ("markoff.triples:MarkoffContext.classify_fundamental", "triples.classify", False, None),
    ("markoff.triples:MarkoffContext.apply_generator", "triples.move", True, None),
    ("markoff.triples:MarkoffContext.apply_sigma", "triples.move", True, None),
    ("markoff.triples:sort_triple", "triples.sort", True, None),
    ("markoff.triples:MarkoffContext.generate_tree", "triples.tree", False, _count_tree),
    ("markoff.triples:TreeNode.to_json", "triples.export", False, None),
    ("markoff.triples:TreeNode.to_dot", "triples.export", False, None),
    ("markoff.oracle:census", "oracle.census", False, None),
    ("markoff.oracle:enumerate_solutions", "oracle.enumerate", False, _count_enumerate),
    ("markoff.oracle:write_solutions_jsonl", "oracle.jsonl", False, _count_jsonl),
    ("markoff.oracle:oracle_E", "oracle.tree_oracle", False, None),
    ("markoff.oracle:oracle_C_beta", "oracle.tree_oracle", False, None),
    ("markoff.counting:count_E", "counting.E", False, None),
    ("markoff.counting:count_C0", "counting.C0", False, None),
    ("markoff.counting:count_C_beta", "counting.C_beta", False, _count_terms),
    ("markoff.counting:count_C_A", "counting.C_A", False, None),
    ("markoff.counting:cumulative_signatures", "counting.cumulative", False, None),
    ("markoff.counting:count_finite_field", "counting.finite_field", False, _count_terms),
    ("markoff.counting:factorize", "counting.factorize", True, None),
    ("markoff.euclid:layer", "euclid.layer", False, _count_layer),
    ("markoff.euclid:membership", "euclid.membership", True, None),
)


def _resolve(target):
    """(owner, attribute, original) for a target, or None when it is absent."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


def install(tracer):
    """Wrap every target; return (restore list, absent targets).

    A module function is replaced in every markoff module that holds it,
    because `from .x import f` copies the reference.  A method is replaced
    under every class attribute that holds it, such as `__rmul__`.
    """
    restore, absent = [], []
    for target, name, merge, count in TARGETS:
        found = _resolve(target)
        if found is None:
            absent.append(target)
            continue
        owner, attr, original = found
        wrapper = tracer.wrap(original, name, merge, count)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [
                mod
                for mod_name, mod in sorted(sys.modules.items())
                if mod is not None and (mod_name == "markoff" or mod_name.startswith("markoff."))
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    restore.append((holder, key, original))
    return restore, absent


def uninstall(restore):
    for holder, key, original in reversed(restore):
        setattr(holder, key, original)
