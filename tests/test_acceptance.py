"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is pinned: figure data appears as hardcoded
fillings, pairs, and monomials; sweep checks compare library output against
the brute-force oracles in oracles.py (which are themselves cross-validated
against the library at small n before the big sweeps run).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.
"""

import ast
import importlib
import importlib.util
import inspect
import time
from contextlib import contextmanager
from math import factorial, prod
from pathlib import Path

import hesskit
from hesskit import (
    Filling,
    Monomial,
    b_h_basis,
    betti_numbers,
    build_modified_gp_tree,
    degree_tuple,
    dimension_pairs,
    enumerate_fillings,
    enumerate_row_strict,
    garsia_procesi_basis,
    hessenberg_functions,
    is_groebner,
    is_permissible,
    jh_generators,
    leading_term,
    make_hessenberg,
    nu_tuple,
    phi,
    psi,
    psi_h,
    standard_monomials,
    verify_counts,
)
from hesskit.cli import main
from hesskit.core import phi_word
from hesskit.polyalg import groebner_failures
from hesskit.regnilp import iter_words

from conftest import springer_h
import oracles
from oracles import fast_a_equals_b, fast_filling_count, partitions

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, budget: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d}: PASS  {description}  [{elapsed:.2f}s / {budget:.0f}s]")
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded the {budget}s budget"


def M(text: str, n: int) -> Monomial:
    return Monomial.parse(text, n)


def test_oracle_crosschecks_library():
    """The fast sweep oracle must agree with the library where both run."""
    for n in range(1, 6):
        for h in hessenberg_functions(n):
            report = verify_counts(h)
            assert fast_filling_count(h.values) == report.fillings
            assert fast_a_equals_b(h.values, degree_tuple(h)) == report.a_equals_b


def test_criterion_1_figure_reproduction(capsys):
    with criterion(1, 1.0, "figure fillings for (3,3,3)/(2,1) and (1,3,3)/(2,1)"):
        h333 = make_hessenberg((3, 3, 3))
        six = enumerate_fillings(h333, (2, 1))
        figure_six = {(1, 2, 3), (1, 3, 2), (2, 3, 1), (2, 1, 3), (3, 1, 2), (3, 2, 1)}
        assert {f.word for f in six} == figure_six

        h133 = make_hessenberg((1, 3, 3))
        four = enumerate_fillings(h133, (2, 1))
        expected_pairs = {
            (1, 2, 3): {(1, 3), (2, 3)},
            (1, 3, 2): {(1, 2)},
            (2, 3, 1): set(),
            (3, 2, 1): {(2, 3)},
        }
        assert {f.word for f in four} == set(expected_pairs)
        for f in four:
            assert dimension_pairs(h133, f) == expected_pairs[f.word]

        for name, argv in [
            ("fillings_h333_mu21.txt", ["fillings", "--h", "3,3,3", "--mu", "2,1"]),
            ("fillings_h133_mu21.txt", ["fillings", "--h", "1,3,3", "--mu", "2,1"]),
        ]:
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out == (GOLDEN / name).read_text(), f"golden mismatch for {name}"


def test_criterion_2_betti_vector():
    with criterion(2, 1.0, "Betti vector for (1,3,3)/(2,1) is (1,2,1)"):
        assert betti_numbers(make_hessenberg((1, 3, 3)), (2, 1)) == (1, 2, 1)


def test_criterion_3_springer_basis_and_pairing():
    with criterion(3, 1.0, "basis of (2,2) and the modified-tree pairing"):
        assert garsia_procesi_basis((2, 2)) == {
            M(t, 4) for t in ["1", "x2", "x3", "x4", "x2*x4", "x3*x4"]
        }
        tree = build_modified_gp_tree((2, 2))
        figure_pairing = [
            ((2, 4, 1, 3), "1"),
            ((1, 4, 2, 3), "x2"),
            ((3, 4, 1, 2), "x3"),
            ((2, 3, 1, 4), "x4"),
            ((1, 3, 2, 4), "x2*x4"),
            ((1, 2, 3, 4), "x3*x4"),
        ]
        got = [
            (f_node.payload.word, str(m_node.payload))
            for f_node, m_node in zip(tree.level(0), tree.level("B"))
        ]
        assert got == figure_pairing


def test_criterion_4_psi_worked_example():
    with criterion(4, 1.0, "inverse map on x3*x4^2*x5*x6 over (2,2,2)"):
        m = M("x3*x4^2*x5*x6", 6)
        T = psi((2, 2, 2), m)
        assert T.rows == ((1, 2), (3, 6), (4, 5))
        assert phi(springer_h(6), T) == m


def test_criterion_5_ideal_end_to_end(h334):
    with criterion(5, 1.0, "ideal, leading terms, staircase, and pairing for (3,3,3,4)"):
        G = jh_generators(h334)
        assert [str(g) for g in G] == [
            "x4",
            "x3^3 + x3^2*x4 + x3*x4^2 + x4^3",
            "x2^2 + x2*x3 + x2*x4 + x3^2 + x3*x4 + x4^2",
            "x1 + x2 + x3 + x4",
        ]
        assert [leading_term(g)[0] for g in G] == [
            M("x4", 4),
            M("x3^3", 4),
            M("x2^2", 4),
            M("x1", 4),
        ]
        expected_basis = {M(t, 4) for t in ["1", "x2", "x3", "x2*x3", "x3^2", "x2*x3^2"]}
        assert standard_monomials(G) == expected_basis

        table = {
            (1, 2, 3, 4): "1",
            (2, 1, 3, 4): "x2",
            (1, 3, 2, 4): "x3",
            (2, 3, 1, 4): "x2*x3",
            (3, 1, 2, 4): "x3^2",
            (3, 2, 1, 4): "x2*x3^2",
        }
        for word, text in table.items():
            assert phi(h334, Filling.from_word((4,), word)) == M(text, 4)

        assert is_groebner(G)


def test_criterion_6_psi_h_worked_examples():
    with criterion(6, 1.0, "one-row inverse map and the contrast function"):
        h = make_hessenberg((2, 4, 4, 5, 5))
        m = M("x2*x4^2*x5", 5)
        T = psi_h(h, m)
        assert T.word == (5, 4, 2, 1, 3)
        assert phi(h, T) == m

        # Contrast function keeping the pair (1,5).  The stated values
        # (2,3,5,5,5) contradict the adjacency rule for this very word (4
        # immediately left of 2 needs h(2) >= 4), which the library reports:
        literal = make_hessenberg((2, 3, 5, 5, 5))
        assert not is_permissible(literal, T)
        # The surrounding worked path (slots of "21" and "213", the degree
        # tuple, and 5 <= h(3)) pins the intended function as (2,4,5,5,5):
        contrast = make_hessenberg((2, 4, 5, 5, 5))
        assert is_permissible(contrast, T)
        m2 = M("x2*x4^2*x5^2", 5)
        assert phi(contrast, T) == m2
        assert psi_h(contrast, m2) == T


def test_criterion_7_counting_identities():
    with criterion(7, 60.0, "row-strict counts, A=B for mu (n<=7) and all h (n<=8)"):
        for n in range(1, 8):
            h = springer_h(n)
            for mu in partitions(n):
                fillings = enumerate_row_strict(mu)
                assert len(fillings) == factorial(n) // prod(factorial(r) for r in mu)
                assert {phi(h, f) for f in fillings} == garsia_procesi_basis(mu)

        count = 0
        for n in range(1, 9):
            for h in hessenberg_functions(n):
                beta = degree_tuple(h)
                nu = nu_tuple(h)
                assert prod(nu) == prod(beta)
                assert sorted(nu) == sorted(beta)
                assert fast_filling_count(h.values) == prod(beta)
                assert fast_a_equals_b(h.values, beta)
                count += 1
        assert count == sum([1, 2, 5, 14, 42, 132, 429, 1430])


def test_criterion_8_round_trips():
    with criterion(8, 30.0, "inverse-map round trips for mu (n<=7) and h (n<=7)"):
        for n in range(1, 8):
            h = springer_h(n)
            for mu in partitions(n):
                for m in garsia_procesi_basis(mu):
                    assert phi(h, psi(mu, m)) == m

        for n in range(1, 8):
            for h in hessenberg_functions(n):
                hv = h.values
                for m in b_h_basis(h):
                    assert phi_word(hv, psi_h(h, m).word) == tuple(m)
                for word, _mono in iter_words(h):
                    image = Monomial(phi_word(hv, word))
                    assert psi_h(h, image).word == word


def test_criterion_9_groebner_verification():
    with criterion(9, 60.0, "generators form a Groebner basis for every h (n<=6)"):
        for n in range(1, 7):
            for h in hessenberg_functions(n):
                failures = groebner_failures(jh_generators(h))
                offending = [
                    f"S(g{i},g{j}) -> {nf}" for i, j, nf in failures
                ]
                assert not failures, f"h={h}: {offending}"


def test_criterion_10_tree_oracle_equivalence():
    with criterion(10, 30.0, "tree enumeration equals brute force (n<=7)"):
        for n in range(1, 8):
            for h in hessenberg_functions(n):
                tree_words = {w for w, _ in iter_words(h)}
                brute = {f.word for f in enumerate_fillings(h, (n,))}
                assert tree_words == brute

        for n in range(1, 8):
            h = springer_h(n)
            for mu in partitions(n):
                level0 = {
                    node.payload.word for node in build_modified_gp_tree(mu).level(0)
                }
                brute = {f.word for f in enumerate_fillings(h, mu)}
                assert level0 == brute


def _perfbench_names() -> tuple[list[str], list[tuple[str, str]]]:
    """The names the benchmark scripts import ``from oracles``, and the
    (hesskit module, attribute) pairs they import or call, read from their
    source with ``ast``."""
    oracle_names, library_names = [], []
    for path in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> hesskit module name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                oracle_names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hesskit"):
                for alias in node.names:
                    target = getattr(importlib.import_module(node.module), alias.name, None)
                    if inspect.ismodule(target):
                        modules[alias.asname or alias.name] = target.__name__
                    else:
                        library_names.append((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    library_names.append((modules[node.value.id], node.attr))
    return oracle_names, library_names


def test_traced_names_and_exports_resolve():
    """Every (module, attribute) the benchmark's tracer wraps, every name in
    ``hesskit.__all__``, and every oracle or library name the benchmark
    scripts import or call exists: the benchmark looks each one up, so one
    deleted name breaks every benchmark run."""
    oracle_names, library_names = _perfbench_names()
    assert {"brute_pairs", "brute_permissible_words", "partitions"} <= set(oracle_names)
    assert [name for name in oracle_names if not callable(getattr(oracles, name, None))] == []
    assert {
        ("hesskit.regnilp", "b_h_basis"),
        ("hesskit.polyalg", "jh_generators"),
        ("hesskit.polyalg", "is_groebner"),
        ("hesskit.polyalg", "standard_monomials"),
        ("hesskit.regnilp", "psi_h"),
        ("hesskit.springer", "psi"),
        ("hesskit.cli", "main"),
    } <= set(library_names)
    missing = [(m, a) for m, a in library_names if not hasattr(importlib.import_module(m), a)]
    assert missing == []
    # perfbench/run.py times this in a source string that ast does not see
    assert callable(importlib.import_module("hesskit.cli").build_parser)

    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, attr in tracer.TRACED:
        obj = importlib.import_module(f"hesskit.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"hesskit.{module}.{attr}"
    assert [name for name in hesskit.__all__ if not hasattr(hesskit, name)] == []
