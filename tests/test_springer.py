"""GP-trees, modified GP-trees, the inverse map, and the monomial basis."""

import json
import re
import tracemalloc
from collections import Counter
from math import factorial, prod

import pytest

from hesskit import (
    Filling,
    Monomial,
    NotInBasis,
    PartialFilling,
    SizeLimitExceeded,
    betti_numbers,
    build_gp_tree,
    build_modified_gp_tree,
    core,
    enumerate_fillings,
    enumerate_row_strict,
    garsia_procesi_basis,
    phi,
    psi,
)
from hesskit.cli import main
from hesskit.springer import tree_path_count

from conftest import springer_h
from oracles import partitions, springer_hilbert_series


def monos(texts, n):
    return {Monomial.parse(t, n) for t in texts}


class TestGpTree:
    def test_figure_2_2(self):
        tree = build_gp_tree((2, 2))
        assert [str(m) for m in tree.leaf_monomials()] == [
            "1",
            "x2",
            "x3",
            "x4",
            "x2*x4",
            "x3*x4",
        ]
        assert [node.payload for node in tree.level(3)] == [(2, 1), (2, 1)]
        assert [node.payload for node in tree.level(2)] == [(1, 1), (2,), (1, 1), (2,)]

    def test_single_box(self):
        tree = build_gp_tree((1,))
        assert tree.leaf_monomials() == [Monomial.one(1)]

    def test_two_one_leaf_degrees(self):
        tree = build_gp_tree((2, 1))
        assert sorted(m.degree for m in tree.leaf_monomials()) == [0, 1, 1]
        assert tree.path_count() == tree_path_count((2, 1)) == 3

    def test_branching_width_is_nonzero_row_count(self):
        tree = build_gp_tree((3, 2, 1))
        for node in tree.iter_nodes():
            if node.level > 1:
                expected = len([r for r in node.payload if r > 0])
                assert len(node.children) == expected

    def test_edge_exponents_ascend_left_to_right(self):
        tree = build_gp_tree((2, 2))
        for node in tree.iter_nodes():
            exps = [child.edge[node.level - 1] for child in node.children]
            assert exps == list(range(len(exps)))

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            build_gp_tree((1, 2))

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            build_gp_tree((6, 4), max_n=9)


class TestModifiedGpTree:
    FIGURE_PAIRING = [
        ("2413", "1"),
        ("1423", "x2"),
        ("3412", "x3"),
        ("2314", "x4"),
        ("1324", "x2*x4"),
        ("1234", "x3*x4"),
    ]

    def test_figure_pairing_2_2(self):
        tree = build_modified_gp_tree((2, 2))
        fillings = [node.payload for node in tree.level(0)]
        leaves = tree.leaf_monomials()
        got = [("".join(str(v) for v in f.word), str(m)) for f, m in zip(fillings, leaves)]
        assert got == self.FIGURE_PAIRING

    def test_level_count_and_kinds(self):
        tree = build_modified_gp_tree((2, 2))
        assert tree.level_keys == [4, 3, 2, 1, 0, "B"]
        assert all(isinstance(node.payload, Filling) for node in tree.level(0))
        assert all(isinstance(node.payload, Monomial) for node in tree.level("B"))

    def test_single_row_is_a_chain(self):
        tree = build_modified_gp_tree((4,))
        assert tree.path_count() == 1
        assert tree.level(0)[0].payload.word == (1, 2, 3, 4)
        assert tree.leaf_monomials() == [Monomial.one(4)]

    def test_2_2_2_has_90_paths(self):
        tree = build_modified_gp_tree((2, 2, 2))
        assert tree.path_count() == 90 == tree_path_count((2, 2, 2))

    def test_level0_fillings_map_to_their_leaves(self):
        for mu in [(2, 2), (3, 1), (2, 2, 1), (2, 1, 1)]:
            tree = build_modified_gp_tree(mu)
            h = springer_h(sum(mu))
            for f_node, m_node in zip(tree.level(0), tree.level("B")):
                assert phi(h, f_node.payload) == m_node.payload

    def test_no_box_ever_moves(self):
        # every value sits at the same coordinates in the completed filling
        tree = build_modified_gp_tree((2, 2))
        for node in tree.iter_nodes():
            if node.level in (4, "B") or isinstance(node.payload, Monomial):
                continue
            state = node.payload
            filled = state.boxes()
            leaf_fill = node
            while leaf_fill.level != 0:
                leaf_fill = leaf_fill.children[0]
            final = leaf_fill.payload.boxes()
            for coord, value in filled.items():
                assert final[coord] == value

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_partial_labels_spell_their_words_above_nine_boxes(self, capsys, fmt):
        tree = build_modified_gp_tree((6, 4), max_n=10)
        words = {
            node.node_id: node.payload.word
            for node in tree.iter_nodes()
            if isinstance(node.payload, PartialFilling)
        }
        assert main(["tree", "--kind", "modified-gp", "--mu", "6,4", "--max-n", "10",
                     "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "dot":
            labels = dict(re.findall(r'^  "([^"]+)" \[label="([^"]*)"\];$', out, re.M))
        else:
            labels, stack = {}, [json.loads(out)["root"]]
            while stack:
                entry = stack.pop()
                labels[entry["id"]] = entry["label"]
                stack += entry.get("children", [])
        assert len(words) > tree_path_count((6, 4))  # level 1 alone has one per path
        for node_id, word in words.items():
            cells = re.split("[/,]", labels[node_id])
            assert tuple(0 if cell == "." else int(cell) for cell in cells) == word


class TestBasis:
    def test_figure_basis_2_2(self):
        assert garsia_procesi_basis((2, 2)) == monos(
            ["1", "x2", "x3", "x4", "x2*x4", "x3*x4"], 4
        )

    def test_one_row_basis_is_trivial(self):
        assert garsia_procesi_basis((5,)) == {Monomial.one(5)}

    def test_empty_shape_basis_is_the_unit_in_no_variables(self):
        assert garsia_procesi_basis(()) == {Monomial.one(0)}
        assert garsia_procesi_basis((1,)) == {Monomial.one(1)}

    def test_full_flag_staircase(self):
        n = 5
        basis = garsia_procesi_basis((1,) * n)
        assert len(basis) == factorial(n)
        for m in basis:
            assert m[0] == 0
            assert all(m[i - 1] <= i - 1 for i in range(1, n + 1))

    def test_cardinality_is_multinomial(self):
        for n in range(1, 8):
            for mu in partitions(n):
                tree = build_gp_tree(mu)
                basis = garsia_procesi_basis(mu)
                assert basis == set(tree.leaf_monomials())
                assert len(basis) == tree.path_count() == tree_path_count(mu)

    def test_gp_and_modified_trees_agree(self):
        for mu in [(2, 2), (3, 2), (2, 2, 1), (4, 1)]:
            plain = build_gp_tree(mu).leaf_monomials()
            modified = build_modified_gp_tree(mu).leaf_monomials()
            assert plain == modified

    def test_exponents_bounded_by_branching_width(self):
        # the x_i edge exponent never exceeds (nonzero rows of the level-i
        # subdiagram) - 1, so it is capped by both i-1 and rows(mu)-1
        for mu in partitions(6):
            s = len(mu)
            n = sum(mu)
            for m in garsia_procesi_basis(mu):
                assert all(m[i - 1] <= min(i, s) - 1 for i in range(1, n + 1))


class TestRowStrictEnumeration:
    def test_counts(self):
        assert len(enumerate_row_strict((2, 2))) == 6
        assert len(enumerate_row_strict((5,))) == 1
        assert len(enumerate_row_strict((2, 2, 2))) == 90

    def test_counts_are_multinomials(self):
        for n in range(1, 9):
            for mu in partitions(n):
                assert len(enumerate_row_strict(mu)) == factorial(n) // prod(map(factorial, mu))

    def test_matches_permissible_fillings(self):
        for n in range(1, 7):
            for mu in partitions(n):
                direct = enumerate_row_strict(mu)
                brute = enumerate_fillings(springer_h(n), mu)
                assert direct == brute

    def test_words_are_sorted(self):
        words = [f.word for f in enumerate_row_strict((3, 2))]
        assert words == sorted(words)


class TestPsi:
    def test_three_row_worked_example(self):
        m = Monomial.parse("x3*x4^2*x5*x6", 6)
        T = psi((2, 2, 2), m)
        assert T.rows == ((1, 2), (3, 6), (4, 5))
        assert phi(springer_h(6), T) == m

    def test_unit_monomial_gives_first_choices(self):
        assert psi((2, 2), Monomial.one(4)).word == (2, 4, 1, 3)
        assert psi((3,), Monomial.one(3)).word == (1, 2, 3)

    def test_matches_modified_tree_pairing(self):
        tree = build_modified_gp_tree((2, 2))
        for f_node, m_node in zip(tree.level(0), tree.level("B")):
            assert psi((2, 2), m_node.payload) == f_node.payload

    def test_round_trip_identity(self):
        for n in range(1, 7):
            h = springer_h(n)
            for mu in partitions(n):
                for m in garsia_procesi_basis(mu):
                    assert phi(h, psi(mu, m)) == m

    def test_image_equals_basis(self):
        for n in range(1, 7):
            h = springer_h(n)
            for mu in partitions(n):
                image = {phi(h, f) for f in enumerate_row_strict(mu)}
                assert image == garsia_procesi_basis(mu)

    def test_not_in_basis(self):
        with pytest.raises(NotInBasis):
            psi((2,), Monomial.parse("x2", 2))
        with pytest.raises(NotInBasis):
            psi((2, 2), Monomial.parse("x4^2", 4))
        with pytest.raises(NotInBasis):
            psi((2, 2), Monomial.parse("x1", 4))
        with pytest.raises(NotInBasis):
            psi((2, 1), Monomial((0, -1, 0)))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("x1", "x1 is not in the basis of shape (2, 2): no edge x1^1"),
            ("x4^2", "x4^2 is not in the basis of shape (2, 2): no edge x4^2"),
        ],
    )
    def test_not_in_basis_message(self, text, message):
        with pytest.raises(NotInBasis) as exc:
            psi((2, 2), Monomial.parse(text, 4))
        assert str(exc.value) == message

    def test_empty_shape_gives_empty_filling(self):
        assert psi((), Monomial(())) == Filling.from_word((), ())

    def test_a_tall_shape_costs_one_level_at_a_time(self):
        # psi follows one path: down a column of n boxes it holds one level's
        # state at a time, and leaves nothing in the dimension-order cache
        n = 300
        cached = core._dimension_order.cache_info().currsize
        tracemalloc.start()
        try:
            filling = psi((1,) * n, Monomial.one(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert filling.word == tuple(range(n, 0, -1))
        assert peak < 2**21
        assert core._dimension_order.cache_info().currsize == cached

    def test_result_is_row_strict(self):
        from hesskit import is_row_strict

        for m in garsia_procesi_basis((3, 2)):
            assert is_row_strict(psi((3, 2), m))


class TestTreeSerialization:
    def test_dot_contains_stable_ids_and_labels(self):
        dot = build_gp_tree((2, 2)).to_dot()
        assert '"r" [label="2,2"];' in dot
        assert '"r" -> "r.1" [label="x4"];' in dot
        assert "rank=same" in dot

    def test_modified_dot_renders_partial_fillings(self):
        dot = build_modified_gp_tree((2, 2)).to_dot()
        assert '[label=".4/.."];' in dot
        assert '[label="24/13"];' in dot

    def test_json_shape(self):
        data = build_gp_tree((2, 1)).to_json()
        assert data["kind"] == "gp"
        assert data["n"] == 3
        assert data["root"]["id"] == "r"
        leaf = data["root"]["children"][0]["children"][0]
        assert "monomial" in leaf


class TestCochargeOracle:
    """For the minimal h the Betti numbers are the Hilbert series of the
    Garsia-Procesi ring R_mu, which the oracle sums over semistandard
    tableaux by cocharge, sharing no code with hesskit."""

    SHAPES_PAST_BRUTE_FORCE = [(3, 3, 2, 2), (5, 3, 2, 1), (4, 4, 4), (5, 4, 3), (6, 6)]

    def test_betti_numbers(self):
        shapes = [mu for n in range(1, 8) for mu in partitions(n)] + self.SHAPES_PAST_BRUTE_FORCE
        for mu in shapes:
            n = sum(mu)
            assert list(betti_numbers(springer_h(n), mu, max_n=n)) == springer_hilbert_series(mu)

    def test_gp_basis_degrees(self):
        for mu in [mu for n in range(1, 8) for mu in partitions(n)] + [(3, 3, 2, 2), (6, 6)]:
            degrees = Counter(m.degree for m in garsia_procesi_basis(mu, max_n=sum(mu)))
            assert [degrees[k] for k in range(max(degrees) + 1)] == springer_hilbert_series(mu)

    def test_oracle_small_cases(self):
        # coinvariants of S_3, and R_(2,1), from the definitions
        assert springer_hilbert_series((1, 1, 1)) == [1, 2, 2, 1]
        assert springer_hilbert_series((2, 1)) == [1, 2]
        assert springer_hilbert_series((4,)) == [1]
