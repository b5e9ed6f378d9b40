"""Golden CLI transcript: for each argv, the exit code, the sha256 of stdout,
the exact stderr and the sha256 of any --solutions-out file.

A change that keeps every output byte-identical leaves the table as it is.
The table covers every README command.
"""

import hashlib
import shlex

import pytest

from helpers import readme_commands
from markoff import cli

ROOT = "(t; t+2*i; t^2+2*i*t-2)"
EMPTY = hashlib.sha256(b"").hexdigest()

# name: (argv, exit code, sha256 of stdout, stderr, {written file: sha256})
GOLDEN = {
    "readme-verify": (
        ["verify", "--p", "13", "--A", "1", "--triple", ROOT],
        0, "31cbc18a0e06bae525a70af312f54c8d47ded23b5a9b2e5a5407029b4e3ba733", "", {},
    ),
    "readme-tree-text": (
        ["tree", "--p", "13", "--A", "1", "--root", ROOT, "--depth", "2", "--format", "text"],
        0, "eed2b860dfc0c5f5e041292a125cb70ac52a76e1bcd6a6568fe5c33ac5b173ab", "", {},
    ),
    "readme-tree-dot": (
        ["tree", "--p", "13", "--A", "1", "--root", ROOT, "--depth", "3", "--format", "dot"],
        0, "5fb3cb6444183951ece9ad1c6236c954866f9f8676651c5c89763e4084ff2ae0", "", {},
    ),
    "readme-descend": (
        ["descend", "--p", "13", "--A", "1",
         "--triple", "(t+2*i; t^2+2*i*t-2; t^3+4*i*t^2-7*t-4*i)"],
        0, "628ec219aeb08f0d0c69a1981d77141a0cbebbbbea84fe673f064d5c926f4f3d", "", {},
    ),
    "readme-euclid-text": (
        ["euclid", "--alpha", "1", "--beta", "0", "--depth", "2", "--format", "text"],
        0, "d230eb509c7b8c06fbcc425b169da6a397db11dd90d0480bc369e64e9acffbf5", "", {},
    ),
    "readme-signatures-n": (
        ["count", "signatures", "--beta", "1", "--n", "3"],
        0, "07fa6c7aacb2cd1282f62bf2395adcd3893c963dae6b42b84c6dedda2a5d85a4", "", {},
    ),
    "readme-signatures-H": (
        ["count", "signatures", "--beta", "0", "--H", "10000"],
        0, "2c3d96409800398e75a6eb882949c2e9864b5aea4a315626ae0d9eef01349787", "", {},
    ),
    "readme-solutions-formula": (
        ["count", "solutions", "--q", "5", "--A", "t", "--n", "1"],
        0, "ae31bd1da2120dd9c9ec13d2a41d8af5d3ba14c53b300b344e0e852f5be6721a", "", {},
    ),
    "readme-solutions-brute": (
        ["count", "solutions", "--q", "5", "--A", "t", "--n", "3", "--brute",
         "--convention", "degree_sorted"],
        0, "f4bfe9d0e004844a067b696412c7c3ab5a9211027de5b3a89120aeb54a2d3015", "", {},
    ),
    "readme-solutions-out": (
        ["count", "solutions", "--q", "5", "--A", "t", "--n", "1", "--brute",
         "--solutions-out", "sols.jsonl"],
        0, "d469a0009d71fcf49a5f55008fa024bfec490f0918137f896825359a986f0f2a", "",
        {"sols.jsonl": "d30cf1ad5fad754e645c79ec273eb8e97ae6e4aa2a5fde07aadd93dd41d79d9c"},
    ),
    "tree-json": (
        ["tree", "--p", "13", "--A", "1", "--root", ROOT, "--depth", "3", "--format", "json"],
        0, "35e47ee7385bc509d36631deefabfdfc32d1c29e3c3210813fad783910444c32", "", {},
    ),
    "euclid-json": (
        ["euclid", "--alpha", "2", "--beta", "1", "--depth", "3"],
        0, "10bb0c06eb76fb477850f2d0d1eb9ed9f3f3d78057abb574ff415f98a17c2ed8", "", {},
    ),
    "solutions-out-ordered": (
        ["count", "solutions", "--q", "5", "--A", "t", "--n", "2", "--brute",
         "--convention", "ordered", "--solutions-out", "ordered.jsonl"],
        0, "ab16d1a4cacaf736434937bae7aaa7a8acdc3841abed40b57d3c6bbb7777bf3b", "",
        {"ordered.jsonl": "314b5ad16337f2fdf2a53e336d05fdc093553deea73665b8e621d41929edf539"},
    ),
    "descend-zero-family": (
        ["descend", "--p", "13", "--A", "t", "--triple", "(t; 5*t; 5*t^3)"],
        0, "639045c95ed4dd58ebe4365df9c75211da65bc6439dbb890ced6db38ee902238", "", {},
    ),
    "descend-constant-orbit": (
        ["descend", "--p", "5", "--A", "t", "--triple", "(1; 2; 2*t)"],
        2, EMPTY, "error: (1, 2, 2*t) descends to the constant solution (1, 2, 0)\n", {},
    ),
    "verify-no-parentheses": (
        ["verify", "--p", "13", "--A", "1", "--triple", "t; t; t"],
        2, EMPTY, "error: triple must look like (x; y; z) (at position 0)\n", {},
    ),
    "verify-two-parts": (
        ["verify", "--p", "13", "--A", "1", "--triple", "(t; t)"],
        2, EMPTY, "error: triple needs exactly three ';'-separated parts (at position 0)\n", {},
    ),
    "verify-unsorted-fundamental": (
        ["verify", "--p", "13", "--A", "1", "--triple", "(t; 2; t+2*i)"],
        0, "25fb1cf3fe9aab361d9c012c132bb347aaf70c441b1ec3ef7e558457282e1ecf", "", {},
    ),
    "verify-unsorted-zero-form": (
        ["verify", "--p", "5", "--A", "t", "--triple", "(2*t; 0; t)"],
        0, "0ef2b009e140c4f13eabb41eb5f6d132dd95c1c434dbebf7be849a13f86be09b", "", {},
    ),
    "verify-not-a-solution": (
        ["verify", "--p", "13", "--A", "1", "--triple", "(1; 1; 1)"],
        1, "527bf57af26ec11acdd59490d82d9fa6ed627f8c9b2cc2213333e21bffff063f", "", {},
    ),
    "verify-constant-solution": (
        ["verify", "--p", "5", "--A", "t", "--triple", "(1; 2; 0)"],
        0, "c10c7d81d9edecd72e9a36a61e51cf3afde78af46defc2a57619b1853bcfb2e1", "", {},
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_transcript(name, tmp_path, monkeypatch, capsys):
    argv, code, stdout_sha, stderr, files = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert _sha256(out.encode()) == stdout_sha
    assert err == stderr
    assert {path: _sha256((tmp_path / path).read_bytes()) for path in files} == files


def test_every_readme_command_is_in_the_table():
    table = [argv for argv, *_ in GOLDEN.values()]
    for line in readme_commands():
        assert shlex.split(line.split(" > ", 1)[0])[1:] in table, line
