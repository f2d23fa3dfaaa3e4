"""Tests for the benchmark itself: the gate catches corrupted outputs, the
tracer catches internal calls, and op streams follow the seed.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import gzip
import json
import os
import re
import shutil
import subprocess
import sys
from itertools import islice

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "tests")]

import run  # noqa: E402
import workloads  # noqa: E402
from gate import Gate, monomial_of  # noqa: E402
from oracles import brute_pairs, brute_permissible_words  # noqa: E402
from reference import Clock  # noqa: E402
from worker import run_op  # noqa: E402

# Small inputs (n = 5 or 6) keep the brute-force oracle cheap; the gate
# works for any n.
H5 = (2, 3, 4, 5, 5)
H6 = (2, 3, 5, 5, 6, 6)
MU = (3, 2)
PSI_WORD = (2, 4, 5, 1, 3)  # row-strict, so the inverse map recovers it
PSI_MONOMIAL = monomial_of(brute_pairs((1, 2, 3, 4, 5), MU, PSI_WORD), 5)


def _cli_spec(check, argv, **inputs):
    return {"kind": "cli", "check": check, "argv": argv, **inputs}


def _tree_spec(kind, fmt, **inputs):
    flag, values = ("--mu", inputs["mu"]) if "mu" in inputs else ("--h", inputs["h"])
    argv = ["tree", "--kind", kind, flag, workloads.arg(values), "--format", fmt]
    return _cli_spec("tree", argv, tree=kind, format=fmt, **inputs)


def _replace(old, new):
    def corrupt(out):
        assert old in out["stdout"], old
        out["stdout"] = out["stdout"].replace(old, new, 1)

    return corrupt


def _json_edit(edit):
    def corrupt(out):
        data = json.loads(out["stdout"])
        edit(data)
        out["stdout"] = json.dumps(data)

    return corrupt


def _first_leaf(node):
    while "children" in node:
        node = node["children"][0]
    return node


def _bump_leaf_monomial(data):
    leaf = _first_leaf(data["root"])
    leaf["monomial"][-1] += 1


def _set(key, value):
    def corrupt(out):
        out[key] = value

    return corrupt


def _swap_word(out):
    word = out["fillings"][0]["word"]
    word[0], word[1] = word[1], word[0]


def _swap_rows_of_first_filling(out):
    """Exchange the first entries of two rows of the first level-0 filling."""
    match = re.search(r'label="(\d)(\d*)/(\d)(\d*)"', out["stdout"])
    swapped = f'label="{match[3]}{match[2]}/{match[1]}{match[4]}"'
    out["stdout"] = out["stdout"].replace(match[0], swapped, 1)


def _drop_dot_edge(out):
    lines = out["stdout"].split("\n")
    edge = next(i for i, line in enumerate(lines) if "->" in line)
    del lines[edge]
    out["stdout"] = "\n".join(lines)


CASES = [
    ({"kind": "onerow", "check": "onerow", "h": H5}, [
        _json_edit(lambda d: d.update(fillings=d["fillings"] + 1)),
        _set("groebner", False),
        lambda out: out["staircase"].pop(),
        lambda out: out["staircase"].__setitem__(0, out["staircase"][1]),
        _set("exit", 2),
    ]),
    (_cli_spec("betti", ["betti", "--h", "2,3,5,5,6,6", "--mu", "3,2,1"], h=H6, mu=(3, 2, 1)), [
        _replace("1,", "2,"),
        lambda out: out.update(stdout=out["stdout"].replace("t^2", "t^4", 1)),
    ]),
    (_cli_spec("fillings", ["fillings", "--h", "2,3,4,5,5", "--mu", "3,2", "--format", "json"],
               h=H5, mu=MU), [
        _json_edit(lambda d: d.pop()),
        _json_edit(lambda d: d[0]["monomial"].__setitem__(4, d[0]["monomial"][4] + 1)),
        _json_edit(lambda d: d[-1]["pairs"].pop()),
        _json_edit(lambda d: d.reverse()),
    ]),
    (_tree_spec("h", "dot", h=H6), [_replace('label="x', 'label="x1*x'), _drop_dot_edge]),
    (_tree_spec("h-tableau", "json", h=H5), [
        _json_edit(_bump_leaf_monomial),
        _json_edit(lambda d: _first_leaf(d["root"]).update(label="1")),
    ]),
    (_tree_spec("h-tableau", "dot", h=H5), [
        _replace('[label="12"', '[label="21"'),
        _replace('[label="54321"', '[label="54312"'),
    ]),
    (_tree_spec("gp", "json", mu=MU), [
        _json_edit(lambda d: d["root"]["children"].pop()),
        _json_edit(lambda d: d["root"]["children"][0].update(label="2,1,1")),
    ]),
    (_tree_spec("modified-gp", "dot", mu=MU), [
        _swap_rows_of_first_filling,
        _drop_dot_edge,
        _replace('label="..5/..', 'label="..4/..'),
    ]),
    (_cli_spec("basis", ["basis", "--mu", "3,2"], mu=MU), [
        lambda out: out.update(stdout="\n".join(out["stdout"].split("\n")[1:])),
        _replace("x5", "x4"),
    ]),
    ({"kind": "psi", "check": "psi", "mu": MU, "monomials": [PSI_MONOMIAL],
      "expect": [PSI_WORD]}, [_swap_word]),
    ({"kind": "psi_h", "check": "psi_h", "h": H5, "monomials": [(0, 1, 1, 1, 0)]}, [
        _swap_word,
        _set("fillings", []),
    ]),
]


@pytest.fixture(scope="module")
def gate():
    return Gate()


@pytest.fixture(scope="module")
def clock():
    return Clock()


@pytest.mark.parametrize("spec, corruptions", CASES, ids=[c[0]["check"] for c in CASES])
def test_gate_accepts_real_output_and_catches_corruption(gate, clock, spec, corruptions):
    out = run_op(spec, clock)
    assert clock.seconds > 0
    assert gate.check(spec, out) is None
    for corrupt in corruptions:
        bad = copy.deepcopy(out)
        corrupt(bad)
        assert bad != out
        assert gate.check(spec, bad) is not None, corrupt


def test_gate_reports_op_errors(gate, clock):
    spec = {"kind": "psi_h", "check": "psi_h", "h": H5, "monomials": [(0, 4, 0, 0, 0)]}
    argv = ["psih", "--h", "2,3,4,5,5", "--monomial", "x2^4"]
    out = run_op({"kind": "cli", "argv": argv}, clock)
    assert out["exit"] == 4
    assert gate.check(spec, out) is not None
    assert gate.check(spec, {"error": "NotInBasis: x2^4"}) == "NotInBasis: x2^4"


def test_traced_worker_catches_internal_calls(tmp_path):
    """Calls the library makes through other modules' bindings are traced and
    nest under their caller."""
    ops = [
        {"kind": "onerow", "check": "onerow", "h": H5},
        _cli_spec("betti", ["betti", "--h", "2,3,4,5,5", "--mu", "3,2"], h=H5, mu=MU),
    ]
    spans_path = str(tmp_path / "spans.csv.gz")
    drive = run.Drive(Gate(), run.hermetic_env(), trace=True, spans=spans_path).run(ops)
    assert drive.failures == []
    layers = drive.layers
    assert layers["core.enumerate_fillings.calls"] == 2  # via regnilp and via core
    one_row = 16  # prod(beta) for H5
    assert layers["regnilp.iter_words.leaves"] == one_row
    assert layers["core.fillings_emitted"] == one_row + len(brute_permissible_words(H5, MU))
    assert layers["polyalg.reduce.calls"] == 10  # C(5, 2) S-pairs via polyalg globals
    assert layers["polyalg.s_polynomial.calls"] == 10
    assert layers["cli.main.calls"] == 2

    with gzip.open(spans_path, "rt") as spans:
        rows = [line.split(",") for line in spans.read().splitlines()[1:]]
    names = {int(r[0]): r[2] for r in rows}
    parent_of = {r[2]: names.get(int(r[5])) for r in rows}
    assert parent_of["regnilp.verify_counts"] == "cli.main"
    assert parent_of["regnilp.iter_words"] == "regnilp.verify_counts"
    assert parent_of["polyalg.reduce"] == "polyalg.is_groebner"
    assert parent_of["core.betti_numbers"] == "cli.main"
    assert {r[1] for r in rows} == {"0", "1"}
    for r in rows:  # self time is never negative: children lie inside parents
        assert float(r[6]) >= 0


def test_streams_follow_the_seed():
    for name in workloads.WORKLOADS:
        first, cycle, _ = workloads.ops(name, 7)
        again, _, _ = workloads.ops(name, 7)
        other, _, _ = workloads.ops(name, 8)
        ops = list(islice(first, 12))
        assert ops == list(islice(again, 12))
        assert ops != list(islice(other, 12))


def test_run_fails_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "onerow-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
