import argparse
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GOLDEN_ROOT,
    GOLDEN_TREE,
    P13,
    context,
    count_factorize_calls,
    layer_by_sets,
    readme_commands,
    solutions_up_to,
    triple_of,
)
import markoff.poly
from markoff import cli, euclid, oracle
from markoff.cli import main
from markoff.counting import MAX_COUNT_DIGITS, MAX_DIVISOR_TERMS, MAX_TRIAL_DIVISOR
from markoff.field import PrimeModulus
from markoff.poly import MAX_KEPT_TEXTS, MAX_PARSE_DEGREE, parse_poly, render_poly
from markoff.triples import MarkoffTriple

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestVerify:
    def test_golden_root(self, capsys):
        code, obj = run_json(
            capsys, "verify", "--p", "13", "--A", "1",
            "--triple", "(t; t+2*i; t^2+2*i*t-2)",
        )
        assert code == 0
        assert obj == {
            "solution": True, "signature": [1, 1, 2], "height": 2, "fundamental": False,
        }

    def test_fundamental_with_null_signature(self, capsys):
        code, obj = run_json(
            capsys, "verify", "--p", "5", "--A", "t", "--triple", "(0; 2*t; t)"
        )
        assert code == 0
        assert obj["fundamental"] is True
        assert obj["signature"] == [None, 1, 1]

    def test_false_verification_exits_one(self, capsys):
        code, obj = run_json(
            capsys, "verify", "--p", "13", "--A", "1", "--triple", "(1; 1; 1)"
        )
        assert code == 1 and obj == {"solution": False}

    def test_parse_failure_exits_two(self, capsys):
        code = main(["verify", "--p", "13", "--A", "1", "--triple", "(t; t+; 1)"])
        assert code == 2

    @pytest.mark.parametrize(
        "triple, message",
        [
            ("(t+; t; 1)", "expected integer, 't', 'i' or '(' in x (at position 3)"),
            ("(t; t+; 1)", "expected integer, 't', 'i' or '(' in y (at position 6)"),
            ("(t; t; 1 2)", "unexpected character '2' in z (at position 9)"),
            ("  (t; (t+1; 1)", "expected ')' in y (at position 10)"),
        ],
    )
    def test_parse_error_position_is_in_the_whole_argument(self, capsys, triple, message):
        code = main(["verify", "--p", "13", "--A", "1", "--triple", triple])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_parse_error_in_A_names_A(self, capsys):
        code = main(["verify", "--p", "13", "--A", "2*(t", "--triple", "(t; t; t)"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: expected ')' in A (at position 4)\n"

    def test_bad_prime_exits_two(self, capsys):
        code = main(["verify", "--p", "9", "--A", "1", "--triple", "(1; 1; 1)"])
        assert code == 2

    def test_zero_A_exits_two(self, capsys):
        code = main(["verify", "--p", "13", "--A", "0", "--triple", "(1; 1; 1)"])
        assert code == 2

    @pytest.mark.parametrize("power", ["t^300000000", "(t+1)^300000000"])
    def test_oversized_parse_exits_three(self, capsys, power):
        code = main(["verify", "--p", "13", "--A", "1", "--triple", f"({power}; t; t)"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            f"error: term degree in x (position 1) 300000000 exceeds budget {MAX_PARSE_DEGREE}\n"
        )

    @pytest.mark.parametrize(
        "triple, where",
        [
            ("(t; t; t^300000000)", "in z (position 7)"),
            ("(t;  t+(t+1)^300000000; t)", "in y (position 7)"),
        ],
    )
    def test_oversized_term_position_is_in_the_whole_argument(self, capsys, triple, where):
        code = main(["verify", "--p", "13", "--A", "1", "--triple", triple])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            f"error: term degree {where} 300000000 exceeds budget {MAX_PARSE_DEGREE}\n"
        )

    def test_i_without_root_names_its_coordinate(self, capsys):
        code = main(["verify", "--p", "7", "--A", "1", "--triple", "(t; t; t+i)"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: 'i' in z at position 9: -1 has no square root mod 7\n"

    def test_long_literal_is_a_parse_error(self, capsys):
        code = main(["verify", "--p", "13", "--A", "1", "--triple", f"(t; t; {'1' * 5000})"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: integer literal of 5000 digits is too long in z (at position 7)\n"
        )


class TestTree:
    ROOT_ARGS = ("tree", "--p", "13", "--A", "1", "--root", "(t; t+2*i; t^2+2*i*t-2)")

    def test_text_has_golden_triples(self, capsys):
        code, out = run(capsys, *self.ROOT_ARGS, "--depth", "2", "--format", "text")
        assert code == 0
        lines = [line.strip() for line in out.strip().splitlines()]
        assert len(lines) == 7
        rendered = {line.split(" ", 1)[1] if line.startswith("s") else line for line in lines}
        expected = {triple_of(s, P13).render("with_i") for s in GOLDEN_TREE}
        assert rendered == expected

    def test_json_roundtrip(self, capsys):
        code, obj = run_json(capsys, *self.ROOT_ARGS, "--depth", "1", "--format", "json")
        assert code == 0
        assert MarkoffTriple.from_json(obj["triple"]) == triple_of(GOLDEN_TREE[0], P13)
        children = {MarkoffTriple.from_json(c["triple"]) for c in obj["children"]}
        assert children == {triple_of(GOLDEN_TREE[1], P13), triple_of(GOLDEN_TREE[2], P13)}

    def test_dot_output(self, capsys):
        code, out = run(capsys, *self.ROOT_ARGS, "--depth", "1", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert '[label="s1"]' in out and '[label="s2"]' in out
        assert "(t, t+2*i, t^2+2*i*t-2)" in out

    def test_budget_exits_three(self, capsys):
        code = main([*self.ROOT_ARGS, "--depth", "13"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: tree depth 13 exceeds budget 12\n"

    def test_size_budget_exits_three(self, capsys):
        # degrees (1, 1, 3) with deg A = 1: 6,377,288 coefficients at depth 12
        code = main(["tree", "--p", "13", "--A", "t", "--root", "(t; 5*t; 5*t^3)", "--depth", "12"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: tree coefficients 6377288 exceeds budget 4194304\n"

    @pytest.mark.parametrize("fmt", ["json", "dot", "text"])
    def test_closed_stdout_exits_141(self, fmt):
        # the reader takes one line and closes the pipe, as `| head -n 1`
        # does; the depth-8 tree, 260 kB or more, is far larger than the pipe
        argv = [*self.ROOT_ARGS, "--depth", "8", "--format", fmt]
        proc = subprocess.Popen(
            [sys.executable, "-m", "markoff.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141 and err == b""

    def test_env_does_not_change_the_budget(self, capsys, monkeypatch):
        argv = (*self.ROOT_ARGS, "--depth", "2")
        expected = run(capsys, *argv)
        monkeypatch.setenv("MARKOFF_BUDGET", "1")
        assert run(capsys, *argv) == expected and expected[0] == 0
        monkeypatch.setenv("MARKOFF_BUDGET", "100")
        assert main([*self.ROOT_ARGS, "--depth", "13"]) == 3



# JSON values: every scalar kind, ints past 300 digits, text with quotes,
# backslashes, control and non-ASCII characters, int lists with bools mixed
# in, empty and nested lists and dicts, and subclasses of tuple and dict
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**300), 10**300),
    st.floats(),
    st.text(),
    st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\u00e9", "\u20ac", "\U0001f600"])),
)
CACHED = MAX_KEPT_TEXTS
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        # plain tuples, written as lists: nested, empty and all-int ones
        st.lists(children, max_size=6).map(tuple),
        st.lists(st.integers(-2 * CACHED, 2 * CACHED), max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=6),
        st.dictionaries(st.text(max_size=8), children, max_size=6).map(OrderedDict),
        # NamedTuples: of ints, as euclid builds them, and holding any value
        st.builds(euclid.EuclidTriple, *[st.integers(-2 * CACHED, 2 * CACHED)] * 3),
        st.builds(euclid.TreeId, children, children),
        st.lists(st.one_of(st.integers(), st.integers(-(10**300), 10**300), st.booleans())),
        # coefficient lists on both sides of the writer's text-cache bound
        st.lists(
            st.one_of(
                st.sampled_from([0, CACHED - 1, CACHED, 2**61 - 1, -1, -CACHED]),
                st.integers(-2 * CACHED, 2 * CACHED),
            )
        ),
    ),
    max_leaves=20,
)


class RecordingStdout:
    """A stdout that keeps every piece written to it."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def writelines(self, lines):
        for text in lines:
            self.write(text)


class TestEmit:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(json_values)
    def test_layout_of_indented_json_dumps(self, value):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(value)
        assert out.getvalue() == json.dumps(value, indent=2) + "\n"

    def test_memo_keeps_only_keys_below_its_bound(self, monkeypatch):
        monkeypatch.setattr(markoff.poly, "MAX_KEPT_TEXTS", 3)
        memos = []

        class Recorded(markoff.poly._Texts):
            def __init__(self):
                super().__init__()
                memos.append(self)

        monkeypatch.setattr(cli, "_Texts", Recorded)
        value = {
            "ints": list(range(-5, 40)) * 2,
            "nested": [[7, 7, 1, 2], (0, 1, 2, 2, 10**30), {"n": 2, "m": 5000}],
            "n": 2,
        }
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(value)
        assert out.getvalue() == json.dumps(value, indent=2) + "\n"
        assert len(memos) == 1 and set(memos[0]) == {0, 1, 2}

    def test_tree_is_written_piece_by_piece(self):
        stdout = RecordingStdout()
        with contextlib.redirect_stdout(stdout):
            code = main([*TestTree.ROOT_ARGS, "--depth", "7", "--format", "json"])
        assert code == 0
        ctx = context(P13, "1")
        tree = ctx.generate_tree(triple_of(GOLDEN_ROOT, P13), 7)
        out = "".join(stdout.writes)
        assert out == json.dumps(tree.to_json(), indent=2) + "\n"
        assert max(map(len, stdout.writes)) <= len(out) / 100

    def test_tree_at_a_large_prime(self, capsys):
        # nearly every residue is above the text-cache bound; 2147483629 is
        # the largest prime below 2^31 with a square root of -1, which the
        # roots of both families need
        mod = PrimeModulus(2147483629)
        ctx = context(mod, "3*t+1234567")
        root = ctx.make_root(parse_poly("987654321*t^2+5*t+11", mod), -1)
        text = "(" + "; ".join(render_poly(c, "with_i") for c in root.coords) + ")"
        code, out = run(capsys, "tree", "--p", str(mod.p), "--A", "3*t+1234567",
                        "--root", text, "--depth", "5", "--format", "json")
        assert code == 0
        assert out == json.dumps(ctx.generate_tree(root, 5).to_json(), indent=2) + "\n"
        assert max(json.loads(out)["triple"]["z"]["coeffs"]) >= CACHED


class TestDescend:
    def test_example(self, capsys):
        code, obj = run_json(
            capsys, "descend", "--p", "13", "--A", "1",
            "--triple", "(t+2*i; t^2+2*i*t-2; t^3+4*i*t^2-7*t-4*i)",
        )
        assert code == 0
        fund = MarkoffTriple.from_json(obj["fundamental"])
        assert fund.canonical_key() == triple_of("(2; t; t+2*i)", P13).canonical_key()
        assert obj["form"]["family"] == "constant"
        assert obj["form"]["a"] == 1 and obj["form"]["sign"] == 1
        assert obj["word"].count("rho") == 2

    def test_constant_orbit_exits_two(self, capsys):
        code = main(["descend", "--p", "5", "--A", "t", "--triple", "(1; 2; 2*t)"])
        assert code == 2


class TestEuclid:
    def test_unit_tree_layers(self, capsys):
        code, obj = run_json(capsys, "euclid", "--alpha", "1", "--beta", "0", "--depth", "2")
        assert code == 0
        layers = {entry["j"]: entry["triples"] for entry in obj["layers"]}
        assert layers[0] == [[1, 1, 2]]
        assert layers[1] == [[1, 2, 3]]
        assert layers[2] == [[1, 3, 4], [2, 3, 5]]

    def test_text_format(self, capsys):
        code, out = run(capsys, "euclid", "--alpha", "1", "--beta", "0",
                        "--depth", "2", "--format", "text")
        assert code == 0
        assert out.splitlines() == ["L0: (1,1,2)", "L1: (1,2,3)", "L2: (1,3,4) (2,3,5)"]

    def test_text_is_written_triple_by_triple(self):
        stdout = RecordingStdout()
        with contextlib.redirect_stdout(stdout):
            code = main(["euclid", "--alpha", "3", "--beta", "2", "--depth", "12",
                         "--format", "text"])
        assert code == 0
        rows = [f"L{j}: " + " ".join(f"({t1},{t2},{t3})" for t1, t2, t3 in layer)
                for j, layer in enumerate(euclid.layers(euclid.TreeId(3, 2), 12))]
        assert "".join(stdout.writes) == "\n".join(rows) + "\n"
        assert max(map(len, stdout.writes)) < 20

    def test_output_matches_layer_by_layer(self, capsys):
        for alpha in range(1, 5):
            for beta in range(4):
                tree = euclid.TreeId(alpha, beta)
                expected = [sorted(layer_by_sets(tree, j)) for j in range(13)]
                argv = ["euclid", "--alpha", str(alpha), "--beta", str(beta), "--depth", "12"]
                code, out = run(capsys, *argv)
                assert code == 0
                assert out == json.dumps({
                    "alpha": alpha,
                    "beta": beta,
                    "layers": [
                        {"j": j, "triples": [list(t) for t in triples]}
                        for j, triples in enumerate(expected)
                    ],
                }, indent=2) + "\n"
                code, out = run(capsys, *argv, "--format", "text")
                assert code == 0
                assert out == "".join(
                    f"L{j}: " + " ".join(f"({t.tau1},{t.tau2},{t.tau3})" for t in triples) + "\n"
                    for j, triples in enumerate(expected)
                )

    def test_budget_exits_three(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(euclid, "root", lambda *args: built.append(args))
        code = main(["euclid", "--alpha", "1", "--beta", "0", "--depth", "21"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and built == []
        assert captured.err == "error: layer 21 exceeds budget 20\n"

    def test_default_budget_refuses_before_any_layer(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(euclid, "root", lambda *args: built.append(args))
        code = main(["euclid", "--alpha", "1", "--beta", "0", "--depth", "25"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and built == []
        assert captured.err == f"error: layer 25 exceeds budget {euclid.MAX_LAYER}\n"

    def test_cap_is_read_when_called(self, capsys, monkeypatch):
        monkeypatch.setattr(euclid, "MAX_LAYER", 8)
        code, out = run(capsys, "euclid", "--alpha", "1", "--beta", "0",
                        "--depth", "8", "--format", "text")
        assert code == 0 and len(out.splitlines()) == 9
        code = main(["euclid", "--alpha", "1", "--beta", "0", "--depth", "9"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: layer 9 exceeds budget 8\n"

    def test_negative_depth_exits_two(self, capsys):
        code = main(["euclid", "--alpha", "1", "--beta", "0", "--depth", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--depth must be non-negative" in captured.err

    @pytest.mark.parametrize("alpha, beta, depth", [("0", "0", "0"), ("1", "-1", "2")])
    def test_invalid_tree_exits_two(self, capsys, alpha, beta, depth):
        code = main(["euclid", "--alpha", alpha, "--beta", beta, "--depth", depth])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "alpha >= 1 and beta >= 0" in captured.err


class TestCountSignatures:
    def test_cumulative(self, capsys):
        code, obj = run_json(capsys, "count", "signatures", "--beta", "0", "--H", "4")
        assert code == 0
        assert obj["total"] == 12 and obj["lower"] == "9" and obj["upper"] == "13"

    def test_exact_height(self, capsys):
        code, obj = run_json(capsys, "count", "signatures", "--beta", "1", "--n", "3")
        assert code == 0
        assert obj["C_beta"] == 2 and obj["C_A"] == 2
        assert [t["d"] for t in obj["terms"]] == [1, 2]

    def test_constant_a_plus_one(self, capsys):
        code, obj = run_json(capsys, "count", "signatures", "--beta", "0", "--n", "4")
        assert code == 0
        assert obj["C_beta"] == 3 and obj["C_A"] == 4

    def test_cumulative_nonconstant_exits_two(self, capsys):
        code = main(["count", "signatures", "--beta", "1", "--H", "4"])
        assert code == 2

    def test_large_prime_n_exits_three(self, capsys):
        code = main(["count", "signatures", "--beta", "0", "--n", str(2**61 - 1)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            f"error: trial divisor {MAX_TRIAL_DIVISOR + 1} exceeds budget {MAX_TRIAL_DIVISOR}\n"
        )

    def test_smooth_large_n_prints(self, capsys):
        code, obj = run_json(capsys, "count", "signatures", "--beta", "0", "--n", str(10**13))
        # for beta = 0 every divisor is admissible, and E summed over them is n//2 + 1
        assert code == 0 and obj["C_beta"] == 10**13 // 2 + 1 and obj["C_A"] == 10**13 // 2 + 2

    def test_one_factorization(self, capsys, monkeypatch):
        calls = count_factorize_calls(monkeypatch)
        code, obj = run_json(capsys, "count", "signatures", "--beta", "0", "--n", str(2**200))
        assert code == 0 and obj["C_A"] == 2**199 + 2 and calls == [2**200]

    def test_deep_power_of_two(self, capsys):
        code, obj = run_json(capsys, "count", "signatures", "--beta", "0", "--n", str(2**1000))
        assert code == 0 and obj["C_beta"] == 2**999 + 1
        assert [t["d"] for t in obj["terms"]] == [2**k for k in range(1001)]

    def test_too_many_divisors_exits_three(self, capsys):
        primes = [p for p in range(2, 174) if all(p % d for d in range(2, p))]
        assert len(primes) == 40
        code = main(["count", "signatures", "--beta", "0", "--n", str(math.prod(primes))])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            f"error: divisor terms {2**40} exceeds budget {MAX_DIVISOR_TERMS}\n"
        )

    @pytest.mark.parametrize(
        "H, digits",
        # the second total has 4300 digits, but its upper bound's numerator 4301
        [(10**2500, 5000), (2 * 10**2150 - 1, 4301)],
    )
    def test_unprintable_cumulative_exits_three(self, capsys, H, digits):
        code = main(["count", "signatures", "--beta", "0", "--H", str(H)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: count digits {digits} exceeds budget {MAX_COUNT_DIGITS}\n"

    def test_largest_printable_cumulative(self, capsys):
        H = 10**2150
        code, obj = run_json(capsys, "count", "signatures", "--beta", "0", "--H", str(H))
        assert code == 0 and obj["total"] == H * H // 4 + 2 * H
        assert len(str(obj["total"])) == MAX_COUNT_DIGITS


class TestCountSolutions:
    def test_formula(self, capsys):
        code, obj = run_json(capsys, "count", "solutions", "--q", "5", "--A", "t", "--n", "1")
        assert code == 0
        assert obj["value"] == 80 and obj["beta"] == 1

    def test_brute_census(self, capsys):
        code, obj = run_json(
            capsys, "count", "solutions", "--q", "5", "--A", "t", "--n", "1",
            "--brute", "--convention", "degree_sorted",
        )
        assert code == 0
        assert obj["formula"]["value"] == 80
        assert obj["fundamental_count"] == 40
        assert obj["fundamental_ratio"] == "1/2"
        assert obj["constant_orbit_count"] == 8

    def test_constant_a_formula_exits_two(self, capsys):
        code = main(["count", "solutions", "--q", "5", "--A", "1", "--n", "1"])
        assert code == 2

    def test_budget_exits_three(self, capsys, monkeypatch):
        solved = []
        monkeypatch.setattr(oracle, "_sqrt_coeffs", lambda *args: solved.append(args))
        code = main(["count", "solutions", "--q", "5", "--A", "t", "--n", "8", "--brute"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and solved == []
        assert captured.err == "error: candidate pairs 8138021 exceeds budget 2097152\n"

    @pytest.mark.parametrize("n, digits", [(10**4, 6992), (10**11, 69897000436)])
    def test_unprintable_count_exits_three(self, capsys, n, digits):
        code = main(["count", "solutions", "--q", "5", "--A", "t", "--n", str(n)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: count digits {digits} exceeds budget {MAX_COUNT_DIGITS}\n"

    @pytest.mark.parametrize("q", [5, 29])
    def test_largest_admitted_count_prints(self, capsys, q):
        def argv(n):
            return ["count", "solutions", "--q", str(q), "--A", "t", "--n", str(n)]

        # q^n has about n*log10(q) digits; the cap admits a few heights less
        top = int(MAX_COUNT_DIGITS / math.log10(q))
        n = top
        while main(argv(n)) == 3:
            n -= 1
        assert n >= top - 4
        capsys.readouterr()
        code, obj = run_json(capsys, *argv(n))
        assert code == 0 and len(str(obj["value"])) <= MAX_COUNT_DIGITS
        code, out = run(capsys, *argv(n + 1))
        assert code == 3 and out == ""

    def test_empty_field_formula(self, capsys):
        code, obj = run_json(capsys, "count", "solutions", "--q", "7", "--A", "t", "--n", "2")
        assert code == 0
        assert obj["value"] == 0 and obj["empty_field"] is True

    def test_solutions_jsonl_stream(self, capsys, tmp_path):
        path = tmp_path / "sols.jsonl"
        code, obj = run_json(
            capsys, "count", "solutions", "--q", "5", "--A", "t", "--n", "1",
            "--brute", "--solutions-out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == obj["total"] == 48
        triples = [MarkoffTriple.from_json(json.loads(line)) for line in lines]
        assert all(t.x.modulus.p == 5 for t in triples)

    def test_solutions_out_enumerates_once(self, capsys, tmp_path, monkeypatch):
        solved = []
        sqrt_coeffs = oracle._sqrt_coeffs

        def counted(f, p):
            solved.append(f)
            return sqrt_coeffs(f, p)

        monkeypatch.setattr(oracle, "_sqrt_coeffs", counted)
        code, obj = run_json(
            capsys, "count", "solutions", "--q", "5", "--A", "t", "--n", "2",
            "--brute", "--convention", "ordered", "--solutions-out", str(tmp_path / "s.jsonl"),
        )
        assert code == 0 and obj["total"] > 0
        # the pairs are solved in one pass of the enumerator per height, the
        # height-n pass serving both the file and the counts
        written = len(solved)
        solved.clear()
        sum(1 for _ in solutions_up_to(context(PrimeModulus(5), "t"), 2))
        assert written == len(solved) > 0

    @pytest.mark.parametrize(
        "name, reason",
        [
            ("missing/sols.jsonl", "[Errno 2] No such file or directory"),
            ("", "[Errno 21] Is a directory"),
        ],
    )
    def test_unwritable_solutions_out_exits_two(self, capsys, tmp_path, monkeypatch, name, reason):
        solved = []
        monkeypatch.setattr(oracle, "_sqrt_coeffs", lambda *args: solved.append(args))
        path = tmp_path / name
        code = main([
            "count", "solutions", "--q", "5", "--A", "t", "--n", "1",
            "--brute", "--solutions-out", str(path),
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {reason}: {str(path)!r}\n"
        assert solved == []  # the file is opened before any pair is solved

    def test_refused_brute_run_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "sols.jsonl"
        code = main([
            "count", "solutions", "--q", "5", "--A", "t", "--n", "8",
            "--brute", "--solutions-out", str(path),
        ])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: candidate pairs 8138021 exceeds budget 2097152\n"
        assert not path.exists()

    def test_zero_n_leaves_solutions_out_unopened(self, capsys, tmp_path, monkeypatch):
        solved = []
        monkeypatch.setattr(oracle, "_sqrt_coeffs", lambda *args: solved.append(args))
        path = tmp_path / "sols.jsonl"
        path.write_bytes(b"earlier output\n")
        code = main([
            "count", "solutions", "--q", "5", "--A", "t", "--n", "0",
            "--brute", "--solutions-out", str(path),
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: n must be positive\n"
        assert path.read_bytes() == b"earlier output\n" and solved == []

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_constant_a_refuses_n_below_one(self, capsys, tmp_path, monkeypatch, n):
        solved = []
        monkeypatch.setattr(oracle, "_sqrt_coeffs", lambda *args: solved.append(args))
        path = tmp_path / "sols.jsonl"
        path.write_bytes(b"earlier output\n")
        for extra in ([], ["--solutions-out", str(path)]):
            code = main(["count", "solutions", "--q", "5", "--A", "1", "--n", n, "--brute", *extra])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == "error: n must be positive\n"
        assert path.read_bytes() == b"earlier output\n" and solved == []

    def test_solutions_out_needs_brute(self, capsys, tmp_path, monkeypatch):
        calls = []
        for name in ("parse_poly", "count_finite_field", "census"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
        path = tmp_path / "sols.jsonl"
        code = main([
            "count", "solutions", "--q", "5", "--A", "t", "--n", "1",
            "--solutions-out", str(path),
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --solutions-out needs --brute\n"
        assert calls == [] and not path.exists()


class TestOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--p", "13", "--A", "1", "--triple", "(0; 0; 0)"],
            ["count", "solutions", "--q", "5", "--A", "t", "--n", "1"],
        ],
    )
    def test_seed_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--p", "13", "--A", "1", "--triple", "(0; 0; 0)"],
            ["descend", "--p", "13", "--A", "1", "--triple", "(2; t; t+2*i)"],
            ["tree", "--p", "13", "--A", "1", "--root", GOLDEN_ROOT, "--depth", "1"],
            ["euclid", "--alpha", "1", "--beta", "0", "--depth", "1"],
            ["count", "signatures", "--beta", "1", "--n", "3"],
            ["count", "solutions", "--q", "5", "--A", "t", "--n", "1"],
            ["count", "solutions", "--q", "5", "--A", "t", "--n", "1", "--brute"],
        ],
    )
    def test_budget_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", "1"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err


def call(capsys, argv):
    """(exit code, stdout, stderr) of one main call; argparse exits count."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_parser_builds(monkeypatch) -> list:
    """Record the prog of every argparse.ArgumentParser built from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


# every subcommand; --H and then --n; a usage error (2), a budget refusal (3),
# a failed verification (1) and --help (0), each between successful calls
MIXED_CALLS = (
    ["count", "signatures", "--beta", "0", "--H", "40"],
    ["count", "signatures", "--beta", "0", "--n", "40"],
    ["verify", "--p", "13", "--A", "1", "--triple", "(t; t+2*i; t^2+2*i*t-2)"],
    ["verify", "--p", "13", "--A", "1", "--triple", "(t; t; t)"],
    ["tree", "--p", "13", "--A", "1", "--root", GOLDEN_TREE[0], "--depth", "1",
     "--format", "text"],
    ["count", "signatures", "--beta", "1", "--n", "x"],
    ["descend", "--p", "13", "--A", "1", "--triple", GOLDEN_TREE[1]],
    ["euclid", "--alpha", "1", "--beta", "0", "--depth", "21"],
    ["euclid", "--alpha", "2", "--beta", "1", "--depth", "2", "--format", "text"],
    ["count", "solutions", "--q", "5", "--A", "t", "--n", "2", "--brute"],
    ["count", "solutions", "--q", "13", "--A", "t^2+1", "--n", "6"],
    ["count", "signatures", "--help"],
    ["count", "signatures", "--beta", "2", "--n", "30"],
)


# each command's parser, in the order MIXED_CALLS first names the command
LEAF_PROGS = [
    "markoff count signatures", "markoff verify", "markoff tree", "markoff descend",
    "markoff euclid", "markoff count solutions",
]


class TestParserReuse:
    def test_no_parser_is_built_after_the_first_call(self, capsys, monkeypatch):
        built = count_parser_builds(monkeypatch)
        cli._leaf_parser.cache_clear()
        cli.build_parser.cache_clear()
        assert call(capsys, MIXED_CALLS[0])[0] == 0
        assert built == ["markoff count signatures"]  # its own parser alone
        codes = [call(capsys, MIXED_CALLS[k % len(MIXED_CALLS)])[0] for k in range(50)]
        assert set(codes) == {0, 1, 2, 3}
        assert built == LEAF_PROGS  # each command's first call built one parser
        built.clear()
        assert call(capsys, EXTRA)[0] == 2
        assert built[0] == "markoff"  # the full parser, with its subparsers
        built.clear()
        assert call(capsys, EXTRA)[0] == 2
        assert built == []

    def test_reused_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        reused = [call(capsys, argv) for argv in MIXED_CALLS]
        built = count_parser_builds(monkeypatch)
        monkeypatch.setattr(cli, "_leaf_parser", cli._leaf_parser.__wrapped__)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [call(capsys, argv) for argv in MIXED_CALLS]
        assert built == [" ".join(["markoff", *argv[:2 if argv[0] == "count" else 1]])
                         for argv in MIXED_CALLS]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 1, 0, 2, 0, 3, 0, 0, 0, 0, 0]


EXTRA = ["count", "solutions", "--q", "5", "--A", "t", "--n", "2", "extra"]

# usage errors, help at each level, extra positionals and options,
# abbreviations, --x=y and --, beside well-formed calls of every command
LEAF_CORPUS = (
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["count"],
    ["count", "-h"],
    ["count", "bogus"],
    ["verify", "-h"],
    ["tree", "--help"],
    ["descend", "-h"],
    ["euclid", "--help"],
    ["count", "signatures", "-h"],
    ["count", "solutions", "--help"],
    ["coun", "signatures", "--beta", "1", "--n", "5"],
    ["count", "sig", "--beta", "1", "--n", "5"],
    ["count", "signatures", "--be", "1", "--n", "5"],
    ["count", "signatures", "--beta=1", "--n=5"],
    ["count", "signatures", "--beta", "1"],
    ["count", "signatures", "--beta", "1", "--n", "5", "--H", "5"],
    ["count", "signatures", "--beta", "x", "--n", "5"],
    ["count", "signatures", "--beta", "-1", "--n", "5"],
    ["count", "signatures", "--n", "5", "--beta", "1", "extra", "more"],
    EXTRA,
    ["count", "solutions", "--q", "5", "--A", "t", "--n", "2", "--bogus"],
    ["count", "solutions", "--q", "5", "--A", "t", "--n", "2", "--bogus=3"],
    ["count", "solutions", "--q", "5", "--A", "t", "--n", "2", "-h", "extra"],
    ["count", "solutions", "--q", "5", "--A", "-t", "--n", "2"],
    ["count", "solutions", "--q", "5", "--A=-t", "--n", "2"],
    ["count", "solutions", "--q", "5", "--A", "t", "--n", "2", "--conv", "ordered", "--brute"],
    ["verify", "--triple"],
    ["verify", "--p", "13", "--A", "1", "--triple", "(t; t; t)"],
    ["verify", "--p", "13", "--A", "1", "--triple", "(t; t; t)", "--", "x"],
    ["verify", "--", "--p", "13", "--A", "1", "--triple", "(t; t; t)"],
    ["--", "verify", "--p", "13", "--A", "1", "--triple", "(t; t; t)"],
    ["verify", "--p", "7", "--p", "13", "--A", "1", "--triple", GOLDEN_ROOT],
    ["tree", "--p", "13", "--A", "1", "--root", GOLDEN_ROOT, "--depth", "1", "--format", "xml"],
    ["tree", "--p", "13", "--A", "1", "--root", GOLDEN_ROOT, "--depth", "1", "--form", "dot"],
    ["descend", "--p", "13", "--A", "1", "--triple", GOLDEN_TREE[1], "-x"],
    ["euclid", "--alpha", "1", "--beta", "0"],
    ["euclid", "--alpha", "1", "--beta", "0", "--depth", "2", "--format", "text"],
    ["euclid", "--alpha", "1", "--beta", "0", "--depth", "-1"],
)


class TestLeafDispatch:
    def test_same_outputs_as_the_full_parser(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        corpus = list(LEAF_CORPUS)
        corpus += [shlex.split(line.split(" > ", 1)[0])[1:] for line in readme_commands()]
        leaf = [call(capsys, argv) for argv in corpus]
        monkeypatch.setattr(cli, "_LEAVES", {})  # no command's parser: the full parser
        assert [call(capsys, argv) for argv in corpus] == leaf
        assert {code for code, _, _ in leaf} == {0, 1, 2}

    @pytest.mark.parametrize("argv", [MIXED_CALLS[1], EXTRA, []])
    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch, argv):
        expected = call(capsys, argv)
        monkeypatch.setattr(sys, "argv", ["markoff", *argv])
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        assert (code, *capsys.readouterr()) == expected

    def test_only_a_malformed_command_reaches_the_full_parser(self, capsys, monkeypatch):
        parser = cli.build_parser()
        full = []
        parse_args = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: full.append(argv) or parse_args(argv))
        assert {call(capsys, argv)[0] for argv in MIXED_CALLS} == {0, 1, 2, 3}
        assert full == []
        assert call(capsys, EXTRA)[0] == 2
        assert full == [EXTRA]


class TestInputChecks:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("count", "signatures", "--beta", "2", "--n", "0"), "n must be positive"),
            (("count", "signatures", "--beta", "0", "--H", "0"), "H must be positive"),
            (("count", "solutions", "--q", "5", "--A", "t", "--n", "0"), "n must be positive"),
            ((*TestTree.ROOT_ARGS, "--depth", "-1"), "depth must be non-negative"),
            (("descend", "--p", "5", "--A", "t", "--triple", "(0; 0; 0)"),
             "descent needs a triple of positive height"),
            (("count", "signatures", "--beta", "-1", "--n", "5"), "beta must be non-negative"),
            (("count", "signatures", "--beta", "-1", "--H", "5"), "beta must be non-negative"),
        ],
    )
    def test_refused_input_exits_two(self, capsys, argv, message):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"
