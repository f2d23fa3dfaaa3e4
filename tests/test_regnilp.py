"""h-trees, h-tableau-trees, the one-row inverse map, and counting identities."""

from math import factorial, prod

import pytest

from hesskit import (
    Filling,
    HesskitError,
    Monomial,
    NotInBasis,
    SizeLimitExceeded,
    b_h_basis,
    build_h_tableau_tree,
    build_h_tree,
    degree_tuple,
    enumerate_fillings,
    h_permissible_positions,
    hessenberg_functions,
    make_hessenberg,
    phi,
    psi_h,
    verify_counts,
)
from hesskit import regnilp
from hesskit.core import _words, phi_word
from hesskit.regnilp import iter_words, level_n_fillings

from conftest import springer_h


def monos(texts, n):
    return {Monomial.parse(t, n) for t in texts}


class TestInsertionSlots:
    def test_two_slots_around_single_entry(self, h334):
        assert h_permissible_positions(h334, (1,)) == [1, 0]

    def test_three_slots_for_21(self, h334):
        assert h_permissible_positions(h334, (2, 1)) == [2, 1, 0]

    def test_worked_path_slots(self):
        h = make_hessenberg((2, 4, 4, 5, 5))
        assert h_permissible_positions(h, (2, 1, 3)) == [3, 2, 0]

    def test_slot_count_is_degree_entry(self):
        for n in range(1, 7):
            for h in hessenberg_functions(n):
                beta = degree_tuple(h)
                for word, _ in iter_words(h):
                    for i in range(2, n + 1):
                        prefix = tuple(v for v in word if v < i)
                        assert len(h_permissible_positions(h, prefix)) == beta[i - 1]
                    break  # one path per h suffices here

    def test_rejects_bad_prefix(self, h334):
        with pytest.raises(ValueError):
            h_permissible_positions(h334, (1, 3))
        with pytest.raises(ValueError):
            h_permissible_positions(make_hessenberg((1, 2, 3)), (2, 1))


class TestHTree:
    def test_figure_2_3_3(self):
        tree = build_h_tree(make_hessenberg((2, 3, 3)))
        assert [str(m) for m in tree.leaf_monomials()] == ["x2*x3", "x2", "x3", "1"]
        assert tree.level_keys == [1, 2, 3, 4]

    def test_minimal_h_is_a_single_path(self):
        tree = build_h_tree(springer_h(5))
        assert tree.path_count() == 1
        assert tree.leaf_monomials() == [Monomial.one(5)]

    def test_figure_3334_leaves(self, h334):
        tree = build_h_tree(h334)
        assert [str(m) for m in tree.leaf_monomials()] == [
            "x2*x3^2",
            "x2*x3",
            "x2",
            "x3^2",
            "x3",
            "1",
        ]

    def test_leaf_count_is_beta_product(self):
        for h in hessenberg_functions(5):
            assert build_h_tree(h).path_count() == prod(degree_tuple(h))

    def test_edge_exponents_descend_left_to_right(self, h334):
        tree = build_h_tree(h334)
        for node in tree.iter_nodes():
            if not node.children or node.level > h334.n - 1:
                continue
            i = node.level + 1
            exps = [child.edge[i - 1] for child in node.children]
            assert exps == list(range(len(exps) - 1, -1, -1))


class TestHTableauTree:
    def test_figure_3334(self, h334):
        tree = build_h_tableau_tree(h334)
        assert [str(n.payload) for n in tree.level(4)] == [
            "3214",
            "2314",
            "2134",
            "3124",
            "1324",
            "1234",
        ]
        assert [str(m) for m in tree.leaf_monomials()] == [
            "x2*x3^2",
            "x2*x3",
            "x2",
            "x3^2",
            "x3",
            "1",
        ]
        assert [n.payload for n in tree.level(2)] == [(2, 1), (1, 2)]
        assert [n.payload for n in tree.level(3)] == [
            (3, 2, 1),
            (2, 3, 1),
            (2, 1, 3),
            (3, 1, 2),
            (1, 3, 2),
            (1, 2, 3),
        ]

    def test_minimal_h_single_word(self):
        tree = build_h_tableau_tree(springer_h(4))
        assert level_n_fillings(tree) == [Filling.from_word((4,), (1, 2, 3, 4))]

    def test_worked_path_endpoint(self):
        tree = build_h_tableau_tree(make_hessenberg((2, 4, 4, 5, 5)))
        target = Monomial.parse("x2*x4^2*x5", 5)
        for filling, leaf in zip(level_n_fillings(tree), tree.leaf_monomials()):
            if leaf == target:
                assert filling.word == (5, 4, 2, 1, 3)
                break
        else:
            pytest.fail("monomial not found among leaves")

    def test_level_n_fillings_are_permissible_and_distinct(self):
        for h in hessenberg_functions(5):
            fillings = level_n_fillings(build_h_tableau_tree(h))
            words = {f.word for f in fillings}
            assert len(words) == len(fillings)
            brute = {f.word for f in enumerate_fillings(h, (5,))}
            assert words == brute

    def test_iter_words_is_capped_before_building(self, monkeypatch):
        monkeypatch.delenv("HESSKIT_MAX_N", raising=False)
        monkeypatch.setattr(regnilp, "_build_tree", lambda *args: pytest.fail("tree built"))
        with pytest.raises(SizeLimitExceeded):
            list(iter_words(make_hessenberg((10,) * 10)))

    def test_phi_pairs_each_filling_with_its_leaf(self):
        for h in hessenberg_functions(5):
            tree = build_h_tableau_tree(h)
            for filling, leaf in zip(level_n_fillings(tree), tree.leaf_monomials()):
                assert phi(h, filling) == leaf


class TestBasisAndInverse:
    def test_staircase_3334(self, h334):
        assert b_h_basis(h334) == monos(["1", "x2", "x3", "x2*x3", "x3^2", "x2*x3^2"], 4)

    def test_minimal_h(self):
        assert b_h_basis(springer_h(4)) == {Monomial.one(4)}

    def test_maximal_h_full_staircase(self):
        n = 5
        basis = b_h_basis(make_hessenberg((n,) * n))
        assert len(basis) == factorial(n)
        from hesskit import garsia_procesi_basis

        assert basis == garsia_procesi_basis((1,) * n)

    def test_psi_h_worked_example(self):
        h = make_hessenberg((2, 4, 4, 5, 5))
        m = Monomial.parse("x2*x4^2*x5", 5)
        T = psi_h(h, m)
        assert T.word == (5, 4, 2, 1, 3)
        assert phi(h, T) == m

    def test_psi_h_contrast_function(self):
        # same word, companion function: the monomial gains the pair (1,5)
        h = make_hessenberg((2, 4, 5, 5, 5))
        m = Monomial.parse("x2*x4^2*x5^2", 5)
        T = psi_h(h, m)
        assert T.word == (5, 4, 2, 1, 3)
        assert phi(h, T) == m

    def test_psi_h_unit(self):
        assert psi_h(make_hessenberg((2, 4, 4, 5, 5)), Monomial.one(5)).word == (
            1,
            2,
            3,
            4,
            5,
        )

    def test_psi_h_x3_squared(self, h334):
        assert psi_h(h334, Monomial.parse("x3^2", 4)).word == (3, 1, 2, 4)

    def test_psi_h_rejects_outside_staircase(self, h334):
        with pytest.raises(NotInBasis):
            psi_h(h334, Monomial.parse("x4", 4))
        with pytest.raises(NotInBasis):
            psi_h(h334, Monomial.parse("x3^3", 4))
        with pytest.raises(NotInBasis):
            psi_h(springer_h(3), Monomial.parse("x2", 3))
        with pytest.raises(NotInBasis):
            psi_h(make_hessenberg((2, 3, 3)), Monomial((0, -1, 0)))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("x4", "x4 is not in the basis for h=3,3,3,4: no edge x4^1"),
            ("x3^3", "x3^3 is not in the basis for h=3,3,3,4: no edge x3^3"),
            ("x1", "x1 is not in the basis for h=3,3,3,4"),
        ],
    )
    def test_psi_h_not_in_basis_message(self, h334, text, message):
        with pytest.raises(NotInBasis) as exc:
            psi_h(h334, Monomial.parse(text, 4))
        assert str(exc.value) == message

    def test_round_trips(self):
        for n in range(1, 6):
            for h in hessenberg_functions(n):
                for m in b_h_basis(h):
                    assert phi(h, psi_h(h, m)) == m
                for word, mono in iter_words(h):
                    assert psi_h(h, mono).word == word
                    assert Monomial(phi_word(h.values, word)) == mono


class TestVerifyCounts:
    def test_3334_report(self, h334):
        report = verify_counts(h334)
        assert (report.fillings, report.leaves, report.prod_nu, report.prod_beta) == (
            6,
            6,
            6,
            6,
        )
        assert report.a_equals_b
        assert report.ok()

    def test_minimal_h(self):
        report = verify_counts(springer_h(5))
        assert report.fillings == report.leaves == report.prod_nu == report.prod_beta == 1
        assert report.ok()

    def test_a_wrong_exponent_is_caught(self, h334, monkeypatch):
        """One key off by one leaves every count right; only the set
        comparison with the staircase sees it.  Key + 1 raises the exponent
        of x_1, which is 0 on the whole staircase."""
        real = regnilp._image_keys
        monkeypatch.setattr(regnilp, "_image_keys", lambda h: [real(h)[0] + 1, *real(h)[1:]])
        report = verify_counts(h334)
        assert report.fillings == report.leaves == report.prod_beta == 6
        assert not report.a_equals_b
        assert not report.ok()

    def test_a_missing_word_is_caught(self, h334, monkeypatch):
        real = regnilp._image_keys
        monkeypatch.setattr(regnilp, "_image_keys", lambda h: real(h)[1:])
        report = verify_counts(h334)
        assert report.fillings != report.prod_beta
        assert not report.ok()

    def test_a_repeated_image_is_caught(self, h334, monkeypatch):
        """Words are counted, not distinct keys: a key that stands in for
        another keeps the count right and fails the set comparison."""
        real = regnilp._image_keys
        monkeypatch.setattr(regnilp, "_image_keys", lambda h: [*real(h)[:-1], real(h)[0]])
        report = verify_counts(h334)
        assert report.fillings == report.leaves == report.prod_beta == 6
        assert not report.a_equals_b
        assert not report.ok()

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_a_wrong_slot_count_is_caught_at_every_level(self, h334, monkeypatch, level):
        """The leaf count checks each word's slots against beta_i, the last
        level it reaches (n - 1) included: here one word of the level, the
        decreasing one, loses a slot."""
        real = regnilp._bullets

        def short(h_values, word, i):
            slots = real(h_values, word, i)
            return slots[1:] if word == tuple(range(level, 0, -1)) else slots

        monkeypatch.setattr(regnilp, "_bullets", short)
        with pytest.raises(HesskitError, match="slots for i="):
            verify_counts(h334)

    def test_keys_decode_to_phi_of_every_word(self):
        """The fused walk's keys are the base-n encodings of the exponent
        tuples phi_word gives the words of the pruned walk, as multisets."""
        for n in range(1, 7):
            for h in hessenberg_functions(n):
                decoded = sorted(
                    tuple(key // n**b % n for b in range(n)) for key in regnilp._image_keys(h)
                )
                assert decoded == sorted(phi_word(h.values, w) for w in _words(h, (n,)))

    def test_word_total_is_odd_double_factorial(self):
        """Summed over every h of size n, the one-row fillings number
        (2n-1)!! = 1, 3, 15, 105, ..."""
        for n in range(1, 8):
            total = sum(verify_counts(h).fillings for h in hessenberg_functions(n))
            assert total == prod(range(1, 2 * n, 2))

    def test_minimal_h_beyond_the_default_cap(self):
        """n = 24 spans three key chunks; a flat table would have 2^25 entries."""
        report = verify_counts(springer_h(24), max_n=24)
        assert report.fillings == 1
        assert report.ok()

    def test_keys_across_two_chunks(self):
        """h = (2, 3, ..., 14, 14): beta = (1, 2, ..., 2), so 2^13 images
        whose keys read values 2..9 from one chunk and 10..14 from the next."""
        h = make_hessenberg((*range(2, 15), 14))
        report = verify_counts(h, max_n=14)
        assert report.prod_beta == 2**13
        assert report.ok()

    def test_all_n5_functions(self):
        reports = [verify_counts(h) for h in hessenberg_functions(5)]
        assert len(reports) == 42
        assert all(r.ok() for r in reports)
