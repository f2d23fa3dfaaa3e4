"""Command-line surface: golden outputs, JSON round trips, exit codes."""

import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hesskit
from hesskit import Filling, Monomial, Polynomial, cli, regnilp
from hesskit.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected an argument
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_golden(capsys, name, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    expected = (GOLDEN / name).read_text()
    assert out == expected
    return out


class TestGoldenOutputs:
    def test_fillings_h333(self, capsys):
        out = assert_golden(
            capsys, "fillings_h333_mu21.txt", "fillings", "--h", "3,3,3", "--mu", "2,1"
        )
        # six fillings, every placement permissible for the maximal function
        assert len(out.splitlines()) == 6

    def test_fillings_h133(self, capsys):
        out = assert_golden(
            capsys, "fillings_h133_mu21.txt", "fillings", "--h", "1,3,3", "--mu", "2,1"
        )
        rows = [line.split("\t") for line in out.splitlines()]
        assert [r[0] for r in rows] == ["12/3", "13/2", "23/1", "32/1"]
        assert [r[1] for r in rows] == ["(1,3),(2,3)", "(1,2)", "-", "(2,3)"]

    def test_fillings_h3334_table(self, capsys):
        out = assert_golden(
            capsys, "fillings_h3334_mu4.txt", "fillings", "--h", "3,3,3,4", "--mu", "4"
        )
        rows = [line.split("\t") for line in out.splitlines()]
        assert [r[2] for r in rows] == ["1", "x3", "x2", "x2*x3", "x3^2", "x2*x3^2"]

    def test_ideal(self, capsys):
        out = assert_golden(capsys, "ideal_h3334.txt", "ideal", "--h", "3,3,3,4")
        assert out.splitlines()[0] == "x4"
        assert out.splitlines()[3] == "x1 + x2 + x3 + x4"

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("tree_gp_mu22.dot", ["tree", "--mu", "2,2", "--kind", "gp"]),
            ("tree_modgp_mu22.dot", ["tree", "--mu", "2,2", "--kind", "modified-gp"]),
            ("tree_h_h233.dot", ["tree", "--h", "2,3,3", "--kind", "h"]),
            ("tree_htab_h3334.dot", ["tree", "--h", "3,3,3,4", "--kind", "h-tableau"]),
            ("tree_gp_mu22.json", ["tree", "--mu", "2,2", "--kind", "gp", "--format", "json"]),
            (
                "tree_modgp_mu22.json",
                ["tree", "--mu", "2,2", "--kind", "modified-gp", "--format", "json"],
            ),
            ("tree_h_h233.json", ["tree", "--h", "2,3,3", "--kind", "h", "--format", "json"]),
            (
                "tree_htab_h3334.json",
                ["tree", "--h", "3,3,3,4", "--kind", "h-tableau", "--format", "json"],
            ),
        ],
    )
    def test_tree_dot(self, capsys, name, argv):
        assert_golden(capsys, name, *argv)

    def test_gp_tree_leaf_labels_match_figure(self):
        dot = (GOLDEN / "tree_gp_mu22.dot").read_text()
        for label in ["1", "x2", "x3", "x4", "x2*x4", "x3*x4"]:
            assert f'[label="{label}"];' in dot

    def test_outputs_are_deterministic(self, capsys):
        first = run_cli(capsys, "fillings", "--h", "1,3,3", "--mu", "2,1")
        second = run_cli(capsys, "fillings", "--h", "1,3,3", "--mu", "2,1")
        assert first == second


class TestPlainCommands:
    def test_betti(self, capsys):
        code, out, _ = run_cli(capsys, "betti", "--h", "1,3,3", "--mu", "2,1")
        assert code == 0
        assert out.splitlines() == ["1,2,1", "1 + 2*t^2 + t^4"]

    def test_betti_trivial(self, capsys):
        _, out, _ = run_cli(capsys, "betti", "--h", "1,2,3,4", "--mu", "4")
        assert out.splitlines()[0] == "1"

    def test_betti_h3334(self, capsys):
        _, out, _ = run_cli(capsys, "betti", "--h", "3,3,3,4", "--mu", "4")
        assert out.splitlines()[0] == "1,2,2,1"

    def test_tree_single_box_modified_chain(self, capsys):
        code, out, _ = run_cli(
            capsys, "tree", "--mu", "1", "--kind", "modified-gp", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["levels"] == ["1", "0", "B"]
        node, depth = data["root"], 1
        while "children" in node:
            assert len(node["children"]) == 1
            node = node["children"][0]
            depth += 1
        assert depth == 3 and node["label"] == "1"

    def test_psih_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "psih", "--h", "2,4,4,5,5", "--monomial", "x2*x4^2*x5"
        )
        assert code == 0
        assert out == "54213\n"

    def test_psi_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "psi", "--mu", "2,2,2", "--monomial", "x3*x4^2*x5*x6"
        )
        assert code == 0
        assert out == "12/36/45\n"

    def test_phi(self, capsys):
        code, out, _ = run_cli(
            capsys, "phi", "--h", "3,3,3,4", "--mu", "4", "--filling", "3214"
        )
        assert code == 0
        assert out.splitlines() == ["pairs: (1,2),(1,3),(2,3)", "x2*x3^2"]

    def test_basis_h(self, capsys):
        _, out, _ = run_cli(capsys, "basis", "--h", "3,3,3,4")
        assert out.splitlines() == ["1", "x3", "x3^2", "x2", "x2*x3", "x2*x3^2"]

    def test_basis_mu(self, capsys):
        _, out, _ = run_cli(capsys, "basis", "--mu", "2,2")
        assert set(out.splitlines()) == {"1", "x2", "x3", "x4", "x2*x4", "x3*x4"}

    def test_verify_single(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--h", "3,3,3,4")
        assert code == 0
        assert out.splitlines() == [
            "h=3,3,3,4",
            "fillings: 6",
            "leaves: 6",
            "prod_nu: 6",
            "prod_beta: 6",
            "a_equals_b: true",
            "OK",
        ]

    def test_verify_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all-n", "5")
        assert code == 0
        assert out.splitlines()[-1] == "42 functions checked, 0 failures"


class TestJsonOutputs:
    def test_fillings_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "fillings", "--h", "1,3,3", "--mu", "2,1", "--format", "json"
        )
        records = json.loads(out)
        assert len(records) == 4
        first = records[0]
        filling = Filling.from_json(first["filling"])
        assert filling.word == (1, 2, 3)
        assert first["pairs"] == [[1, 3], [2, 3]]
        assert Monomial.from_json(first["monomial"]) == Monomial.parse("x3^2", 3)

    def test_ideal_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "ideal", "--h", "3,3,3,4", "--format", "json")
        polys = [Polynomial.from_json(entry) for entry in json.loads(out)]
        assert str(polys[1]) == "x3^3 + x3^2*x4 + x3*x4^2 + x4^3"

    def test_basis_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "basis", "--h", "3,3,3,4", "--format", "json")
        basis = {Monomial.from_json(e) for e in json.loads(out)}
        assert Monomial.parse("x2*x3^2", 4) in basis
        assert len(basis) == 6

    def test_psi_json(self, capsys):
        _, out, _ = run_cli(
            capsys, "psi", "--mu", "2,2,2", "--monomial", "x3*x4^2*x5*x6", "--format", "json"
        )
        assert Filling.from_json(json.loads(out)).rows == ((1, 2), (3, 6), (4, 5))

    def test_tree_json(self, capsys):
        _, out, _ = run_cli(
            capsys, "tree", "--h", "2,3,3", "--kind", "h", "--format", "json"
        )
        data = json.loads(out)
        assert data["kind"] == "h"
        assert data["root"]["id"] == "r"
        assert len(data["root"]["children"]) == 2

    def test_verify_json(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--h", "2,3,3", "--format", "json")
        data = json.loads(out)
        assert data["ok"] is True
        assert data["prod_beta"] == 4

    def test_verify_sweep_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all-n", "4", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"checked": 14, "failures": []}

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_verify_sweep_reports_failures(self, capsys, monkeypatch, fmt):
        counts = regnilp.verify_counts

        def miscounted(h, max_n=None):
            report = counts(h, max_n=max_n)
            if h.values == (2, 3, 3):
                report.leaves += 1
            return report

        monkeypatch.setattr(regnilp, "verify_counts", miscounted)
        _, out, _ = run_cli(capsys, "verify", "--all-n", "3", "--format", fmt)
        if fmt == "json":
            failures = json.loads(out)["failures"]
        else:
            assert out.splitlines()[-1] == "5 functions checked, 1 failures"
            failures = [json.loads(line[len("FAIL "):]) for line in out.splitlines()[:-1]]
        assert [(f["h"], f["leaves"], f["ok"]) for f in failures] == [([2, 3, 3], 5, False)]

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_verify_sweep_checks_the_word_total(self, capsys, monkeypatch, fmt):
        counts = regnilp.verify_counts

        def overcounted(h, max_n=None):  # every identity holds, the total is off by one
            report = counts(h, max_n=max_n)
            if h.values == (2, 3, 3):
                report.fillings = report.leaves = report.prod_nu = report.prod_beta = 5
            return report

        monkeypatch.setattr(regnilp, "verify_counts", overcounted)
        _, out, _ = run_cli(capsys, "verify", "--all-n", "3", "--format", fmt)
        if fmt == "json":
            assert json.loads(out)["failures"] == [{"word_total": 16, "expected": 15}]
        else:
            assert out.splitlines() == [
                "FAIL word total 16, expected (2n-1)!! = 15",
                "5 functions checked, 1 failures",
            ]


class TestCachedParser:
    """main builds its parser once per process; no call leaks into the next."""

    BETTI = ("betti", "--h", "2,3,3", "--mu", "3")

    def test_an_option_does_not_stick(self, capsys):
        assert run_cli(capsys, *self.BETTI, "--max-n", "2")[0] == 3
        assert run_cli(capsys, *self.BETTI)[:2] == (0, "1,2,1\n1 + 2*t^2 + t^4\n")

    def test_an_argparse_error_does_not_stick(self, capsys):
        code, out, err = run_cli(capsys, "betti", "--h", "2,3,3", "--mu", "x")
        assert (code, out) == (2, "")
        assert "--mu" in err
        assert run_cli(capsys, *self.BETTI)[:2] == (0, "1,2,1\n1 + 2*t^2 + t^4\n")

    def test_the_cap_variable_is_read_per_call(self, capsys, monkeypatch):
        monkeypatch.setenv("HESSKIT_MAX_N", "2")
        assert run_cli(capsys, *self.BETTI)[0] == 3
        monkeypatch.setenv("HESSKIT_MAX_N", "3")
        assert run_cli(capsys, *self.BETTI)[0] == 0

    def test_one_build_for_many_calls(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run_cli(capsys, *self.BETTI)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1


class TestExitCodes:
    def test_invalid_h(self, capsys):
        code, _, err = run_cli(capsys, "fillings", "--h", "2,1,3", "--mu", "3")
        assert code == 2
        assert "monotonicity" in err

    def test_shape_size_mismatch(self, capsys):
        code, _, _ = run_cli(capsys, "fillings", "--h", "1,2,3", "--mu", "2,2")
        assert code == 2

    def test_mismatched_tree_kind(self, capsys):
        code, _, err = run_cli(capsys, "tree", "--kind", "gp", "--h", "2,3,3")
        assert code == 2
        assert "--mu" in err

    def test_cap_exceeded(self, capsys):
        code, _, _ = run_cli(
            capsys, "fillings", "--h", ",".join(["10"] * 10), "--mu", "10"
        )
        assert code == 3

    def test_cap_override_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "betti", "--h", "1,2,3,4,5,6,7,8,9,10", "--mu", "10", "--max-n", "10"
        )
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_ideal_cap(self, capsys):
        h = ",".join(str(i) for i in range(1, 11))
        code, _, err = run_cli(capsys, "ideal", "--h", h)
        assert code == 3
        assert "n=10" in err
        code, out, _ = run_cli(capsys, "ideal", "--h", h, "--max-n", "10")
        assert code == 0
        assert len(out.splitlines()) == 10

    def test_not_in_basis(self, capsys):
        code, _, err = run_cli(capsys, "psih", "--h", "3,3,3,4", "--monomial", "x4")
        assert code == 4
        assert "basis" in err

    def test_not_permissible_filling(self, capsys):
        code, _, _ = run_cli(
            capsys, "phi", "--h", "1,3,3", "--mu", "2,1", "--filling", "213"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["betti", "--h", "3,3,3", "--mu", "3", "--max-n", "-1"], "positive integer"),
            (["verify", "--all-n", "0"], "positive integer"),
            (["phi", "--h", "2,3,3", "--mu", "3", "--filling", "1,2,3,"], "empty entry"),
            (["psi", "--mu", "2,1", "--monomial", "x2^-1"], "negative exponent"),
            (["psih", "--h", "2,3,3", "--monomial", "x2^-1"], "negative exponent"),
            (["psi", "--mu", "2,1", "--monomial", "x2^"], "empty exponent"),
            (["psih", "--h", "2,3,3", "--monomial", "x2^"], "empty exponent"),
            (["betti", "--h", "3,3,3", "--mu", "2,1,"], "--mu: invalid int_list value: '2,1,'"),
            (["betti", "--h", "3,,3", "--mu", "3"], "--h: invalid int_list value: '3,,3'"),
            (["phi", "--h", "3,3,3", "--mu", "1,2", "--filling", "12/3"],
             "filling '12/3' has rows of lengths 2,1, but --mu is 1,2"),
            (["phi", "--h", "3,3,3", "--mu", "3", "--filling", "12/3"],
             "filling '12/3' has rows of lengths 2,1, but --mu is 3"),
            (["psi", "--mu", "2,1", "--monomial", "x2", "--max-n", "5"],
             "unrecognized arguments: --max-n 5"),
            (["psi", "--mu", "2,1", "--monomial", "x"], "bad monomial factor 'x'"),
            (["psih", "--h", "2,3,3", "--monomial", "x2*xa"], "bad monomial factor 'xa'"),
            (["psi", "--mu", "2,1", "--monomial", "x1^a"], "bad monomial factor 'x1^a'"),
            (["psih", "--h", "2,3,3", "--monomial", "x1^2^3"],
             "bad monomial factor 'x1^2^3'"),
            (["psi", "--mu", "2,1", "--monomial", "x+3"], "bad monomial factor 'x+3'"),
            (["psi", "--mu", "2,1", "--monomial", ""], "bad monomial factor ''"),
            (["psih", "--h", "2,3,3", "--monomial", "  "], "bad monomial factor ''"),
            (["phi", "--h", "3,3,3", "--mu", "3", "--filling", "1,2,x"],
             "non-integer entry in filling '1,2,x'"),
            (["phi", "--h", "3,3,3", "--mu", "3", "--filling", "12a"],
             "non-integer entry in filling '12a'"),
            (["betti", "--h", "3,3,3", "--mu", "1_2"], "--mu: invalid int_list value: '1_2'"),
            (["psi", "--mu", "2,1", "--monomial", "x\u0663"], "bad monomial factor 'x\u0663'"),
            (["betti", "--h", "3,3,3", "--mu", "3", "--max-n", "\u0663"],
             "'\u0663' is not a positive integer"),
            (["phi", "--h", "3,3,3", "--mu", "3", "--filling", "\uff11\uff12\uff13"],
             "non-integer entry in filling '\uff11\uff12\uff13'"),
        ],
        ids=["max-n", "all-n", "filling", "psi", "psih", "psi-empty-power",
             "psih-empty-power", "mu-empty-entry", "h-empty-entry", "filling-rows-vs-mu",
             "filling-rows-vs-one-row", "psi-max-n", "psi-no-index", "psih-bad-index",
             "psi-bad-power", "psih-double-caret", "psi-signed-index", "psi-empty-monomial",
             "psih-blank-monomial", "filling-non-integer",
             "filling-non-digit", "mu-underscore", "monomial-arabic-indic-digit",
             "max-n-arabic-indic-digit", "filling-fullwidth-digits"],
    )
    def test_invalid_argument(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert message in err

    def test_invalid_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HESSKIT_MAX_N", "abc")
        code, _, err = run_cli(capsys, "betti", "--h", "3,3,3", "--mu", "3")
        assert code == 2
        assert "HESSKIT_MAX_N" in err

    def test_verify_requires_exactly_one_mode(self, capsys):
        assert run_cli(capsys, "verify")[0] == 2
        assert run_cli(capsys, "verify", "--h", "1,2", "--all-n", "3")[0] == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["basis"], "one of the arguments --h --mu is required"),
            (["basis", "--h", "1", "--mu", "1"], "--mu: not allowed with argument --h"),
            (["tree", "--kind", "h"], "one of the arguments --h --mu is required"),
            (["tree", "--kind", "gp", "--mu", "2,1", "--h", "3,3,3"],
             "--h: not allowed with argument --mu"),
            (["tree", "--kind", "h", "--mu", "2,1"], "--kind h requires --h"),
            (["tree", "--kind", "modified-gp", "--h", "3,3,3"], "--kind modified-gp requires --mu"),
        ],
        ids=["basis-none", "basis-both", "tree-none", "tree-both", "h-given-mu", "gp-given-h"],
    )
    def test_one_option_of_each_group(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err.splitlines()[-1]


def _readme_commands() -> list[str]:
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.strip() for line in block.splitlines() if line.startswith("hesskit ")]


# outputs the README states for its examples, and the command that prints each
README_OUTPUTS = {
    "1,2,2,1": "hesskit betti",
    "54213": "hesskit psih",
    "42 functions checked, 0 failures": "hesskit verify --all-n",
}


@pytest.mark.parametrize(
    "line", _readme_commands(), ids=lambda line: " ".join(shlex.split(line, comments=True)[1:3])
)
def test_readme_example(capsys, line):
    argv = shlex.split(line, comments=True)
    code, out, err = run_cli(capsys, *argv[1:])
    assert code == 0, err
    for output, command in README_OUTPUTS.items():
        if line.startswith(command):
            assert output in line.split("#", 1)[1]  # the README still states it
            assert output in out.splitlines()


def test_readme_states_every_checked_output():
    lines = _readme_commands()
    for command in README_OUTPUTS.values():
        assert any(line.startswith(command) for line in lines)


def child_env() -> dict:
    """The environment of a child process that finds the package where this
    one imported it from."""
    src_root = str(Path(hesskit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hesskit.cli", "betti", "--h", "1,3,3", "--mu", "2,1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "1,2,1"


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_closed_pipe_exits_1_quietly(fmt):
    # about 1 MB of output in either format, far more than a pipe holds
    argv = ["tree", "--kind", "gp", "--mu", "2,2,2,1,1", "--format", fmt]
    with subprocess.Popen(
        [sys.executable, "-m", "hesskit.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    ) as child:
        assert child.stdout.readline(100)  # a reader that stops, as `| head -1` does
        child.stdout.close()
        err = child.stderr.read()
    assert child.returncode == 1
    assert err == b""


ONE_ROW_600 = ",".join(map(str, range(1, 601)))


@pytest.mark.parametrize(
    "argv, code",
    [
        ("tree --kind gp --mu 990 --max-n 990", 0),
        ("tree --kind modified-gp --mu 990 --max-n 990", 0),
        (f"tree --kind h-tableau --h {ONE_ROW_600} --max-n 600", 0),
        ("basis --mu 1200 --max-n 1200", 0),
        ("tree --kind gp --mu 450 --max-n 450 --format json", 0),
        ("tree --kind gp --mu 990 --max-n 990 --format json", 3),
        ("tree --kind gp --mu 600 --max-n 600 --format json", 3),
        (f"tree --kind h --h {ONE_ROW_600} --max-n 600 --format json", 3),
    ],
    ids=[
        "gp-dot",
        "modified-gp-dot",
        "h-tableau-dot",
        "basis",
        "gp-json-450",
        "gp-json",
        "gp-json-600",
        "h-json",
    ],
)
def test_deep_one_path_trees(argv, code):
    # each tree is one path of n levels: no recursion of n frames may remain
    result = subprocess.run(
        [sys.executable, "-m", "hesskit.cli", *argv.split()],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    if code == 3:
        depth = 601 if "--h" in argv else int(argv.split()[4])
        message = f"JSON of a tree of depth {depth} nests too deeply to encode"
        assert result.stderr == f"error: {message}\n"
    elif argv.startswith("basis"):
        assert result.stdout == "1\n"
    elif "json" in argv:
        assert len(json.loads(result.stdout)["levels"]) == int(argv.split()[4])
    else:
        kind, n = argv.split()[2], int(argv.split()[-1])
        # levels n..1, n..0 plus B, and 1..n plus n+1
        edges = {"gp": n - 1, "modified-gp": n + 1, "h-tableau": n}[kind]
        assert result.stdout.count(" -> ") == edges


def test_json_too_deep_for_the_callers_stack_exits_3(capsys):
    # how deep a JSON tree may nest depends on the frames below the call:
    # from a stack 150 frames short of its limit, an 80-level tree fails
    # with exit 3 and its depth, and at the usual limit it encodes
    argv = ["tree", "--kind", "gp", "--mu", "80", "--format", "json", "--max-n", "80"]
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        assert main(argv) == 3
    finally:
        sys.setrecursionlimit(limit)
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: JSON of a tree of depth 80 nests too deeply to encode\n")
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["levels"]) == 80


# A small grammar of argv for every subcommand: lists of at most 5 entries
# 0-6, mostly a valid h and a partition of its n, the occasional bad token,
# optional --format and --max-n <= 6.
BAD_TOKENS = ["", "x", "1_2", "-1", "\u0663", "3,,3", "1.5"]
_any_list = st.lists(st.integers(0, 6), min_size=1, max_size=5)


def _text(good, other=_any_list):
    """Mostly ``good``, else ``other``, sometimes a bad token; lists joined by commas."""
    text = st.one_of(good, good, good, good, good, other).map(
        lambda v: ",".join(map(str, v)) if isinstance(v, list) else str(v))
    return st.one_of(text, text, text, text, text, st.sampled_from(BAD_TOKENS))


@st.composite
def _hessenberg(draw, n):
    values = []
    for i in range(1, n + 1):
        values.append(draw(st.integers(max([i, *values[-1:]]), n)))
    return values


@st.composite
def _partition(draw, n):
    parts = []
    while sum(parts) < n:
        parts.append(draw(st.integers(1, min([n - sum(parts), *parts[-1:]]))))
    return parts


@st.composite
def _monomial(draw, n):
    factors = draw(st.lists(st.tuples(st.integers(1, n), st.integers(0, 3)), max_size=3))
    return "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in factors) or "1"


@st.composite
def cli_argv(draw):
    n = draw(st.integers(1, 5))
    command = draw(st.sampled_from(
        ["fillings", "betti", "tree", "ideal", "basis", "phi", "psi", "psih", "verify"]))

    def one_of(a, b):
        return draw(st.sampled_from([[a], [b]] * 4 + [[a, b], []]))

    options = {
        "fillings": ["--h", "--mu"], "betti": ["--h", "--mu"], "ideal": ["--h"],
        "phi": ["--h", "--mu", "--filling"], "psi": ["--mu", "--monomial"],
        "psih": ["--h", "--monomial"], "tree": one_of("--h", "--mu"),
        "basis": one_of("--h", "--mu"), "verify": one_of("--h", "--all-n"),
    }[command]
    word = st.permutations(range(1, n + 1))
    values = {
        "--h": _text(_hessenberg(n)),
        "--mu": _text(_partition(n)),
        "--all-n": _text(st.integers(1, 6), st.integers(0, 6)),
        "--monomial": _text(_monomial(n), st.just("x0")),
        "--filling": _text(word.map(lambda w: "".join(map(str, w))), word.map(list)),
    }
    argv = [command]
    if command == "tree":
        argv += ["--kind", draw(st.sampled_from(["gp", "modified-gp", "h", "h-tableau"]))]
    for option in options:
        argv += [option, draw(values[option])]
    default = "dot" if command == "tree" else "plain"
    if fmt := draw(st.sampled_from([None, default, "json", "json"])):
        argv += ["--format", fmt]
    if command not in ("phi", "psi", "psih") and draw(st.integers(0, 3)) == 0:
        argv += ["--max-n", draw(_text(st.integers(1, 6), st.integers(0, 6)))]
    return argv


def _json_items(command: str, data):
    """(library parser, its JSON) for each library object in a command's JSON
    output.  A filling's pairs are plain data, checked here: a sorted list of
    distinct integer pairs (a, b) with a < b."""
    if command == "fillings":
        for record in data:
            pairs = [tuple(p) for p in record["pairs"]]
            assert pairs == sorted(set(pairs)), pairs
            assert all(type(a) is type(b) is int and a < b for a, b in pairs), pairs
            yield Filling.from_json, record["filling"]
            yield Monomial.from_json, record["monomial"]
    elif command in ("psi", "psih"):
        yield Filling.from_json, data
    elif command in ("basis", "ideal"):
        parse = Monomial.from_json if command == "basis" else Polynomial.from_json
        yield from ((parse, item) for item in data)


@settings(max_examples=200, deadline=None)
@given(cli_argv())
def test_every_argv_exits_cleanly(argv):
    # HESSKIT_MAX_N=6 keeps every run small: --max-n is at most 6 too, so no
    # capped command works past n = 6, and phi, psi and psih are polynomial
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as env, redirect_stdout(out), redirect_stderr(err):
        env.setenv("HESSKIT_MAX_N", "6")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected an argument
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    if code != 0:
        assert code in (2, 3, 4), (argv, code, err)
        assert "error:" in err.splitlines()[-1], (argv, err)
    elif "json" in argv:
        for parse, item in _json_items(argv[0], json.loads(out)):
            assert parse(item).to_json() == item
