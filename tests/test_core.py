"""Core vocabulary: validation, dimension pairs, the filling -> monomial map."""

import random
from collections import Counter
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesskit import (
    ConstraintViolation,
    Filling,
    HessenbergFunction,
    Monomial,
    NotPermissible,
    PartialFilling,
    Polynomial,
    SizeLimitExceeded,
    betti_numbers,
    degree_tuple,
    dimension_ordering,
    dimension_pairs,
    dimension_pairs_partial,
    enumerate_fillings,
    has_subfilling_property,
    hessenberg_diagram,
    hessenberg_functions,
    is_permissible,
    is_row_strict,
    make_hessenberg,
    modified_complete_symmetric,
    nu_tuple,
    phi,
    subfilling,
)
from hesskit.core import as_shape, filling_text, phi_word, size_cap

from conftest import springer_h
from oracles import brute_pairs, brute_permissible_words, compositions, partitions

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def staircase_series(beta) -> tuple[int, ...]:
    """Coefficients of prod_i (1 + q + ... + q^(beta_i - 1)); for beta = 1..n
    this is [n]_q!, the Mahonian numbers (permutations by inversions)."""
    coefficients = [1]
    for b in beta:
        coefficients = [
            sum(coefficients[max(0, k - b + 1) : k + 1])
            for k in range(len(coefficients) + b - 1)
        ]
    return tuple(coefficients)


def assert_row_order_is_free(n: int, cases: int, rng: random.Random) -> None:
    """Betti numbers of random (h, mu) at size n equal those of mu with its
    rows shuffled into another order."""
    functions = list(hessenberg_functions(n))
    shapes = [mu for mu in partitions(n) if len(set(mu)) > 1]
    for _ in range(cases):
        h, mu = rng.choice(functions), rng.choice(shapes)
        rows = list(mu)
        while tuple(rows) == mu:
            rng.shuffle(rows)
        assert betti_numbers(h, rows) == betti_numbers(h, mu), (h, mu, rows)


def hess_values(max_n=7):
    """Hypothesis strategy producing valid Hessenberg value tuples."""

    def build(draw_values):
        n, raw = draw_values
        vals = []
        prev = 1
        for i in range(1, n + 1):
            lo = max(i, prev)
            vals.append(lo + raw[i - 1] % (n - lo + 1))
            prev = vals[-1]
        return tuple(vals)

    return st.tuples(
        st.integers(min_value=1, max_value=max_n),
        st.lists(st.integers(min_value=0, max_value=100), min_size=max_n, max_size=max_n),
    ).map(build)


class TestHessenbergFunction:
    def test_valid_paper_example(self):
        h = make_hessenberg((3, 3, 3, 4))
        assert h.n == 4
        assert h(1) == 3 and h(4) == 4

    def test_minimal_springer_case(self):
        h = make_hessenberg((1, 2, 3, 4))
        assert degree_tuple(h) == nu_tuple(h) == (1, 1, 1, 1)

    def test_monotonicity_violation_identified(self):
        with pytest.raises(ConstraintViolation) as exc:
            make_hessenberg((2, 1, 3))
        assert exc.value.constraint == "b"
        assert exc.value.index == 2

    @pytest.mark.parametrize("values,index", [((0, 2, 3), 1), ((1, 2, 4), 3), ((1, 1, 3), 2)])
    def test_range_violation_identified(self, values, index):
        with pytest.raises(ConstraintViolation) as exc:
            make_hessenberg(values)
        assert exc.value.constraint == "a"
        assert exc.value.index == index

    def test_parse(self):
        assert HessenbergFunction.parse("1,3,3") == make_hessenberg((1, 3, 3))

    def test_generation_counts_are_catalan(self):
        for n in range(1, 7):
            assert sum(1 for _ in hessenberg_functions(n)) == CATALAN[n]

    def test_generation_is_valid_and_sorted(self):
        funcs = [h.values for h in hessenberg_functions(4)]
        assert funcs == sorted(funcs)
        assert len(set(funcs)) == len(funcs)


class TestDegreeAndNuTuples:
    @pytest.mark.parametrize(
        "values,display",
        [
            ((3, 3, 3, 4), (1, 3, 2, 1)),
            ((3, 3, 4, 4, 5, 6), (1, 1, 2, 3, 2, 1)),
        ],
    )
    def test_degree_tuple_display_convention(self, values, display):
        assert degree_tuple(make_hessenberg(values))[::-1] == display

    def test_degree_tuple_extremes(self):
        n = 6
        assert degree_tuple(springer_h(n)) == (1,) * n
        assert degree_tuple(make_hessenberg((n,) * n)) == tuple(range(1, n + 1))

    def test_degree_tuple_matches_definition(self):
        for n in range(1, 8):
            for h in hessenberg_functions(n):
                below = [sum(1 for k in range(1, n + 1) if h(k) < i) for i in range(1, n + 1)]
                assert degree_tuple(h) == tuple(i - c for i, c in enumerate(below, start=1))

    def test_beta_one_is_always_one(self):
        for h in hessenberg_functions(5):
            beta = degree_tuple(h)
            assert beta[0] == 1
            assert all(1 <= beta[i - 1] <= i for i in range(1, 6))

    @pytest.mark.parametrize(
        "values,expected",
        [
            ((3, 3, 4, 4, 5, 6), (3, 2, 2, 1, 1, 1)),
            ((1, 2, 3, 4, 5), (1, 1, 1, 1, 1)),
            ((2, 3, 3), (2, 2, 1)),
        ],
    )
    def test_nu_tuple(self, values, expected):
        assert nu_tuple(make_hessenberg(values)) == expected

    def test_nu_product_matches_tree_leaf_count(self):
        # cross-check against the 4 leaves of the branching tree for (2,3,3)
        assert prod(nu_tuple(make_hessenberg((2, 3, 3)))) == 4


class TestHessenbergDiagram:
    def test_paper_example(self):
        d = hessenberg_diagram(make_hessenberg((3, 3, 4, 4, 5, 6)))
        assert d.column_lengths == (3, 2, 2, 1, 1, 1)
        assert d.row_lengths == (1, 2, 3, 2, 1, 1)

    def test_minimal_diagonal_only(self):
        d = hessenberg_diagram(springer_h(5))
        assert d.column_lengths == (1,) * 5
        assert d.row_lengths == (1,) * 5

    def test_column_row_multisets_agree(self):
        for h in hessenberg_functions(7):
            d = hessenberg_diagram(h)
            assert sorted(d.column_lengths) == sorted(d.row_lengths)

    def test_render_shades_staircase(self):
        text = hessenberg_diagram(make_hessenberg((2, 2, 3))).render()
        assert text.splitlines() == ["#", "##", "..#"]


class TestPermissibility:
    def test_disallowed_adjacency(self):
        h = make_hessenberg((1, 3, 3))
        assert not is_permissible(h, Filling.from_word((2, 1), (2, 1, 3)))
        assert not is_permissible(h, Filling.from_word((2, 1), (3, 1, 2)))

    def test_all_fillings_allowed_for_max_h(self):
        h = make_hessenberg((3, 3, 3))
        for word in permutations((1, 2, 3)):
            assert is_permissible(h, Filling.from_word((2, 1), word))

    def test_column_shape_has_no_adjacency(self):
        h = make_hessenberg((1, 2, 3, 4))
        for word in permutations((1, 2, 3, 4)):
            assert is_permissible(h, Filling.from_word((1, 1, 1, 1), word))

    def test_springer_permissibility_is_row_strictness(self):
        for n in range(1, 7):
            h = springer_h(n)
            for shape in compositions(n):
                for word in permutations(range(1, n + 1)):
                    f = Filling.from_word(shape, word)
                    assert is_permissible(h, f) == is_row_strict(f)

    def test_matches_brute_oracle_on_every_word(self):
        """Every h, composition and word with n <= 5: permissible exactly
        when the brute-force filter keeps the word.  dimension_pairs raises
        NotPermissible on exactly the other words; that half skips the
        multi-row shapes with n = 5 to keep the test short."""
        for n in range(1, 6):
            words = list(permutations(range(1, n + 1)))
            for h in hessenberg_functions(n):
                for shape in compositions(n, allow_zero_rows=True):
                    kept = set(brute_permissible_words(h.values, shape))
                    for word in words:
                        f = Filling.from_word(shape, word)
                        assert is_permissible(h, f) == (word in kept)
                        if n == 5 and len(shape) > 1:
                            continue
                        try:
                            dimension_pairs(h, f)
                        except NotPermissible:
                            assert word not in kept
                        else:
                            assert word in kept


class TestDimensionPairs:
    def test_four_fillings_figure(self):
        h = make_hessenberg((1, 3, 3))
        expected = {
            (1, 2, 3): {(1, 3), (2, 3)},
            (1, 3, 2): {(1, 2)},
            (2, 3, 1): set(),
            (3, 2, 1): {(2, 3)},
        }
        for word, pairs in expected.items():
            assert dimension_pairs(h, Filling.from_word((2, 1), word)) == pairs

    def test_one_row_worked_example(self):
        h = make_hessenberg((2, 4, 4, 5, 5))
        T = Filling.from_word((5,), (5, 4, 2, 1, 3))
        assert dimension_pairs(h, T) == {(1, 2), (1, 4), (3, 4), (3, 5)}

    def test_one_row_contrast_example(self):
        # The companion function keeping the pair (1,5): h(3) must reach 5
        # while h(2) stays below it, and 54213 stays permissible.
        h = make_hessenberg((2, 4, 5, 5, 5))
        T = Filling.from_word((5,), (5, 4, 2, 1, 3))
        pairs = dimension_pairs(h, T)
        assert (1, 5) in pairs
        assert pairs == {(1, 2), (1, 4), (1, 5), (3, 4), (3, 5)}
        assert phi(h, T) == Monomial.parse("x2*x4^2*x5^2", 5)

    def test_not_permissible_raises(self):
        h = make_hessenberg((2, 3, 5, 5, 5))
        T = Filling.from_word((5,), (5, 4, 2, 1, 3))
        # 4 immediately left of 2 needs h(2) >= 4
        assert not is_permissible(h, T)
        with pytest.raises(NotPermissible):
            dimension_pairs(h, T)

    def test_grouped_view(self):
        h = make_hessenberg((2, 4, 4, 5, 5))
        T = Filling.from_word((5,), (5, 4, 2, 1, 3))
        pairs = dimension_pairs(h, T)
        assert {(a, b) for a, b in pairs if b == 4} == {(1, 4), (3, 4)}
        assert {(a, b) for a, b in pairs if b == 2} == {(1, 2)}
        assert phi(h, T) == Monomial((0, 1, 0, 2, 1))  # |D_y| for y = 1..5

    @pytest.mark.parametrize(
        "shape,word,pairs",
        [((3,), (3, 1, 0), {(1, 3)}), ((2, 1), (3, 1, 2), {(1, 2), (1, 3)})],
    )
    def test_partial_breaking_adjacency(self, shape, word, pairs):
        """3 left of 1 breaks 3 <= h(1) for h = 1,2,3; no library path makes
        such a partial filling, and its pairs are read all the same."""
        h = make_hessenberg((1, 2, 3))
        assert dimension_pairs_partial(h, PartialFilling(shape, word)) == pairs

    def test_partial_fillings_are_validated(self):
        h = make_hessenberg((2, 3, 3))
        with pytest.raises(ValueError, match="4 boxes but h has n=3"):
            dimension_pairs_partial(h, PartialFilling((4,), (1, 2, 3, 4)))
        for word in [(2, 5, 0), (2, 2, 0), (-1, 2, 0)]:
            with pytest.raises(ValueError, match=r"not distinct values in 1\.\.3"):
                PartialFilling((3,), word)

    def test_matches_brute_oracle_exhaustively(self):
        for n in range(1, 6):
            for h in hessenberg_functions(n):
                for shape in compositions(n, allow_zero_rows=True):
                    for word in brute_permissible_words(h.values, shape):
                        f = Filling.from_word(shape, word)
                        assert dimension_pairs(h, f) == brute_pairs(
                            h.values, shape, word
                        )


class TestPhi:
    def test_three_row_example(self):
        h = springer_h(6)
        T = Filling((2, 2, 2), ((1, 2), (3, 6), (4, 5)))
        assert phi(h, T) == Monomial.parse("x3*x4^2*x5*x6", 6)

    def test_increasing_word_maps_to_one(self):
        h = make_hessenberg((2, 4, 4, 5, 5))
        assert phi(h, Filling.from_word((5,), (1, 2, 3, 4, 5))) == Monomial.one(5)

    def test_word_3214(self, h334):
        assert phi(h334, Filling.from_word((4,), (3, 2, 1, 4))) == Monomial.parse(
            "x2*x3^2", 4
        )

    def test_degree_preservation_and_no_x1(self):
        for n in range(1, 6):
            for h in hessenberg_functions(n):
                for f in enumerate_fillings(h, (n,)):
                    m = phi(h, f)
                    assert m.degree == len(dimension_pairs(h, f))
                    assert m[0] == 0

    def test_phi_word_fast_path_agrees(self):
        for h in hessenberg_functions(5):
            for f in enumerate_fillings(h, (5,)):
                assert Monomial(phi_word(h.values, f.word)) == phi(h, f)


class TestEnumerationAndBetti:
    def test_counts_from_figures(self):
        assert len(enumerate_fillings(make_hessenberg((3, 3, 3)), (2, 1))) == 6
        assert len(enumerate_fillings(make_hessenberg((1, 3, 3)), (2, 1))) == 4

    def test_full_flag_count(self):
        n = 5
        assert len(enumerate_fillings(make_hessenberg((n,) * n), (n,))) == factorial(n)

    def test_lexicographic_word_order(self):
        words = [f.word for f in enumerate_fillings(make_hessenberg((3, 3, 3)), (2, 1))]
        assert words == sorted(words)

    def test_matches_brute_oracle_in_order(self):
        for n in range(1, 7):
            for h in hessenberg_functions(n):
                for shape in compositions(n, allow_zero_rows=True):
                    words = [f.word for f in enumerate_fillings(h, shape)]
                    assert words == brute_permissible_words(h.values, shape)

    @pytest.mark.parametrize("n", [16, 20])
    def test_minimal_h_one_row_is_the_increasing_word(self, n):
        """Right of v only values above v fit, so every prefix that skips a
        value is cut: the walk goes straight down the one word."""
        fillings = enumerate_fillings(springer_h(n), (n,), max_n=n)
        assert [f.word for f in fillings] == [tuple(range(1, n + 1))]

    def test_betti_matches_brute_oracle(self):
        for n in range(1, 6):
            for h in hessenberg_functions(n):
                for shape in compositions(n, allow_zero_rows=True):
                    counts = Counter(
                        len(brute_pairs(h.values, shape, word))
                        for word in brute_permissible_words(h.values, shape)
                    )
                    expected = tuple(counts[k] for k in range(max(counts, default=0) + 1))
                    assert betti_numbers(h, shape) == expected

    def test_betti_vectors(self, h334):
        assert betti_numbers(make_hessenberg((1, 3, 3)), (2, 1)) == (1, 2, 1)
        assert betti_numbers(h334, (4,)) == (1, 2, 2, 1)
        assert betti_numbers(springer_h(5), (5,)) == (1,)

    @pytest.mark.parametrize(
        "h_values, beta",
        [
            ((*range(2, 11), 10), (1,) + (2,) * 9),
            ((*range(2, 12), 11), (1,) + (2,) * 10),
            ((*range(3, 11), 10, 10), (1, 2) + (3,) * 8),
        ],
        ids=["n10-h2", "n11-h2", "n10-h3"],
    )
    def test_one_row_betti_past_brute_force_range(self, h_values, beta):
        """phi is a degree-preserving bijection onto the staircase, so the
        one-row Betti numbers are the coefficients of
        prod_i (1 + q + ... + q^(beta_i - 1))."""
        h = make_hessenberg(h_values)
        assert degree_tuple(h) == beta
        assert betti_numbers(h, (h.n,), max_n=h.n) == staircase_series(beta)

    # The next three tests check multi-row shapes past the n <= 5 of the
    # brute-force oracle with facts from geometry, not with more brute force.
    # Together they take about 0.9 s (Python 3.11.7 on a 2-core VM).

    def test_maximal_h_gives_mahonian_numbers_on_every_composition(self):
        """For h = (n, ..., n) the Hessenberg variety of any nilpotent is the
        whole flag variety, whose Poincare polynomial is [n]_(t^2)!."""
        for n in range(1, 7):
            h = make_hessenberg((n,) * n)
            for shape in compositions(n):
                assert betti_numbers(h, shape) == staircase_series(range(1, n + 1)), shape

    def test_zero_nilpotent_gives_mahonian_numbers_for_every_h(self):
        """mu = (1^n) is the zero matrix, whose Hessenberg variety is the
        whole flag variety for every h."""
        for n in range(1, 7):
            for h in hessenberg_functions(n):
                assert betti_numbers(h, (1,) * n) == staircase_series(range(1, n + 1)), h

    def test_betti_numbers_ignore_row_order(self):
        """The variety depends on the nilpotent's Jordan type only, not on
        the order of its blocks: a seeded sample at n = 7."""
        assert_row_order_is_free(7, 40, random.Random(12))

    # The next two tests took 0.9 s and 0.65 s (Python 3.11.7, 2-core VM):
    # 0.4 s for the partitions of 7, 0.25 s for each shape at n = 8 (8!
    # fillings), and about 0.08 s for each reordering at n = 8.

    def test_maximal_h_gives_mahonian_numbers_at_n_7_and_8(self):
        for n, shapes in [(7, list(partitions(7))), (8, [(5, 3), (2, 2, 2, 1, 1)])]:
            h = make_hessenberg((n,) * n)
            for shape in shapes:
                assert betti_numbers(h, shape) == staircase_series(range(1, n + 1)), shape

    def test_betti_numbers_ignore_row_order_at_n_8(self):
        assert_row_order_is_free(8, 8, random.Random(8))

    def test_betti_sums_to_filling_count(self):
        for h in hessenberg_functions(4):
            for shape in compositions(4):
                assert sum(betti_numbers(h, shape)) == len(enumerate_fillings(h, shape))

    def test_size_cap(self):
        h = springer_h(10)
        with pytest.raises(SizeLimitExceeded):
            enumerate_fillings(h, (10,))
        with pytest.raises(SizeLimitExceeded):
            enumerate_fillings(h, (10,), max_n=9)

    def test_size_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("HESSKIT_MAX_N", "3")
        with pytest.raises(SizeLimitExceeded):
            enumerate_fillings(springer_h(4), (4,))
        monkeypatch.setenv("HESSKIT_MAX_N", "10")
        assert len(enumerate_fillings(springer_h(4), (4,))) == 1
        monkeypatch.setenv("HESSKIT_MAX_N", "abc")
        with pytest.raises(ValueError, match="HESSKIT_MAX_N"):
            enumerate_fillings(springer_h(4), (4,))


class TestSubfillings:
    def test_word_132_drops_middle_box(self):
        T = Filling.from_word((3,), (1, 3, 2))
        sub = subfilling(T, 2)
        assert sub.boxes() == {(1, 1): 1, (1, 3): 2}
        assert not sub.is_composition()

    def test_identity_at_top(self):
        T = Filling.from_word((2, 1), (1, 2, 3))
        assert subfilling(T, 3).boxes() == T.boxes()

    def test_three_row_example(self):
        T = Filling((2, 2, 2), ((1, 2), (3, 6), (4, 5)))
        sub = subfilling(T, 3)
        assert sub.boxes() == {(1, 1): 1, (1, 2): 2, (2, 1): 3}
        assert sub.composition() == (2, 1)

    def test_gapped_subfilling(self):
        sub = subfilling(Filling.from_word((3,), (1, 3, 2)), 2)
        assert str(sub) == "1.2"
        assert sub == PartialFilling((3,), (1, 0, 2))
        assert sub != PartialFilling((3,), (1, 2, 0))
        assert not sub.is_composition()
        with pytest.raises(ValueError, match="gaps"):
            sub.composition()
        # above 9 boxes, commas separate the entries, empty boxes included
        sub = subfilling(Filling.from_word((6, 4), (1, 2, 3, 5, 6, 7, 4, 8, 9, 10)), 8)
        assert str(sub) == "1,2,3,5,6,7/4,8,.,."

    def test_gap_free_subfilling_with_zero_row(self):
        sub = subfilling(Filling.from_word((2, 0, 2), (1, 2, 3, 4)), 3)
        assert str(sub) == "12//3."
        assert sub == PartialFilling((2, 0, 2), (1, 2, 3, 0))
        assert sub != PartialFilling((2, 2), (1, 2, 3, 0))
        assert sub.boxes() == {(1, 1): 1, (1, 2): 2, (3, 1): 3}
        assert sub.composition() == (2, 0, 1)
        assert subfilling(Filling.from_word((1, 1, 2), (1, 2, 3, 4)), 2).composition() == (1, 1)

    def test_row_strict_iff_subfilling_property(self):
        for n in range(1, 6):
            for shape in compositions(n):
                for word in permutations(range(1, n + 1)):
                    f = Filling.from_word(shape, word)
                    assert is_row_strict(f) == has_subfilling_property(f)

    def test_word_132_fails_both_predicates(self):
        T = Filling.from_word((3,), (1, 3, 2))
        assert not is_row_strict(T)
        assert not has_subfilling_property(T)

    def test_increasing_word_satisfies_both(self):
        T = Filling.from_word((6,), range(1, 7))
        assert is_row_strict(T)
        assert has_subfilling_property(T)

    def test_subfilling_pair_counts_match_springer(self):
        # restoring values above i never creates new pairs (b, i)
        for n in range(2, 7):
            h = springer_h(n)
            for shape in compositions(n):
                for word in brute_permissible_words(h.values, shape):
                    f = Filling.from_word(shape, word)
                    full = dimension_pairs(h, f)
                    for i in range(1, n + 1):
                        partial_count = sum(
                            1
                            for (a, b) in dimension_pairs_partial(h, subfilling(f, i))
                            if b == i
                        )
                        assert partial_count == len({(a, b) for a, b in full if b == i})

    def test_placement_position_counts_pairs(self):
        # n sitting in the box with dimension-order i joins exactly i-1 pairs
        for n in range(2, 7):
            h = springer_h(n)
            for shape in compositions(n):
                order = dimension_ordering(shape)
                for word in brute_permissible_words(h.values, shape):
                    f = Filling.from_word(shape, word)
                    spot = order.index({v: rc for rc, v in f.boxes().items()}[n])
                    pairs = dimension_pairs(h, f)
                    assert len({(a, b) for a, b in pairs if b == n}) == spot


class TestDimensionOrdering:
    def test_figure_with_five_rows(self):
        # rows (2,1,2,3,4): within column 2 the order runs top to bottom
        assert dimension_ordering((2, 1, 2, 3, 4)) == [
            (5, 4),
            (4, 3),
            (1, 2),
            (3, 2),
            (2, 1),
        ]

    def test_zero_rows_are_skipped(self):
        assert dimension_ordering((2, 1, 0, 3, 4)) == [(5, 4), (4, 3), (1, 2), (2, 1)]

    def test_single_row(self):
        assert dimension_ordering((6,)) == [(1, 6)]

    def test_square_shape(self):
        assert dimension_ordering((2, 2)) == [(1, 2), (2, 2)]

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6))
    def test_one_box_per_nonzero_row(self, shape):
        order = dimension_ordering(shape)
        assert len(order) == sum(1 for r in shape if r > 0)
        assert [r for r, _ in order] == sorted(
            (r for r, length in enumerate(shape, 1) if length), key=lambda r: (-shape[r - 1], r)
        )
        cols = [c for _, c in order]
        assert cols == sorted(cols, reverse=True)

    @pytest.mark.parametrize("shape", [(2, -1), (2, 1.5), ("2", 1), (1, 1.0)])
    def test_bad_rows_are_refused(self, shape):
        with pytest.raises(ValueError):
            dimension_ordering(shape)

    def test_result_is_a_fresh_list(self):
        order = dimension_ordering((2, 1, 2))
        order.append((9, 9))
        order[0] = None
        assert dimension_ordering((2, 1, 2)) == [(1, 2), (3, 2), (2, 1)]


def reference_filling_text(shape, word) -> str:
    """filling_text as the docs state it, row by row."""
    sep = "," if len(word) > 9 else ""
    rows, start = [], 0
    for length in shape:
        rows.append(sep.join(str(v) if v else "." for v in word[start : start + length]))
        start += length
    return "/".join(rows)


def reference_monomial_text(exps) -> str:
    factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, 1) if e]
    return "*".join(factors) or "1"


@st.composite
def partial_fillings(draw):
    """A composition with zero rows allowed, up to 24 boxes, and a word of
    distinct values in 1..#boxes with some boxes empty (0)."""
    shape = tuple(draw(st.lists(st.integers(0, 6), min_size=1, max_size=4)))
    values = draw(st.permutations(range(1, sum(shape) + 1)))
    empty = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    return shape, tuple(0 if e else v for v, e in zip(values, empty))


class TestTextHelpers:
    @settings(max_examples=300, deadline=None)
    @given(partial_fillings())
    def test_filling_text_matches_reference(self, case):
        shape, word = case
        assert filling_text(shape, word) == reference_filling_text(shape, word)
        assert str(PartialFilling(shape, word)) == reference_filling_text(shape, word)
        if 0 not in word:
            assert str(Filling.from_word(shape, word)) == reference_filling_text(shape, word)

    def test_filling_text_corner_shapes(self):
        for shape in [(), (0,), (0, 0), (2, 0), (0, 2), (0, 0, 1), (1,) * 10, (10,), (9,)]:
            word = tuple(range(1, sum(shape) + 1))
            assert filling_text(shape, word) == reference_filling_text(shape, word)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-2, 30), min_size=1, max_size=12))
    def test_monomial_text_matches_reference(self, exps):
        m = Monomial(exps)  # built unchecked, so negative exponents too
        assert str(m) == reference_monomial_text(exps)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=12))
    def test_monomial_text_round_trip(self, exps):
        m = Monomial(exps)
        assert Monomial.parse(str(m), len(m)) == m


class TestMonomialAndFillingSerialization:
    @pytest.mark.parametrize("text", ["1", "x2", "x2*x4^2", "x3*x4^2*x5*x6"])
    def test_monomial_text_round_trip(self, text):
        m = Monomial.parse(text, 6)
        assert str(m) == text.replace("x2*x4^2", "x2*x4^2")
        assert Monomial.parse(str(m), 6) == m

    def test_monomial_json_round_trip(self):
        m = Monomial.parse("x2*x3^2", 4)
        assert Monomial.from_json(m.to_json()) == m

    def test_monomial_lex_order(self):
        one = Monomial.one(3)
        x1 = Monomial.variable(3, 1)
        x3sq = Monomial.variable(3, 3, 2)
        assert max([one, x3sq, x1]) == x1
        assert min([one, x3sq, x1]) == one

    def test_filling_json_round_trip(self):
        f = Filling.from_word((2, 2, 2), (1, 2, 3, 6, 4, 5))
        assert Filling.from_json(f.to_json()) == f

    def test_filling_str_formats(self):
        assert str(Filling.from_word((5,), (5, 4, 2, 1, 3))) == "54213"
        assert str(Filling.from_word((2, 1), (1, 2, 3))) == "12/3"
        assert str(Filling.from_word((2, 0, 1), (1, 2, 3))) == "12//3"

    def test_filling_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            Filling.from_word((2, 1), (1, 2, 2))
        with pytest.raises(ValueError):
            Filling.from_word((2, 1), (1, 2))


@settings(max_examples=60, deadline=None)
@given(hess_values(max_n=6))
def test_degree_and_nu_multisets_agree(values):
    h = make_hessenberg(values)
    assert sorted(degree_tuple(h)) == sorted(nu_tuple(h))
    assert prod(degree_tuple(h)) == prod(nu_tuple(h))


@settings(max_examples=40, deadline=None)
@given(hess_values(max_n=5))
def test_phi_image_avoids_x1_randomized(values):
    h = make_hessenberg(values)
    n = h.n
    for f in enumerate_fillings(h, (n,)):
        assert phi(h, f)[0] == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: HessenbergFunction([1.9, 2.2]),
        lambda: Filling.from_json({"shape": [2], "word": [1.7, 2]}),
        lambda: Monomial.from_json([0.5, 1.9]),
        lambda: as_shape([2.5, 0.6]),
        lambda: Polynomial.from_json([{"exps": [1, 0.5], "coef": 1}]),
        lambda: Polynomial.from_json([{"exps": [1, 0], "coef": 1.5}]),
        lambda: Polynomial(2, {(1.5, 0): 1}),
        lambda: modified_complete_symmetric(2, [1.5, 2], 3),
    ],
    ids=[
        "hessenberg",
        "filling",
        "monomial",
        "shape",
        "poly-exponent",
        "poly-coefficient",
        "poly-key",
        "variable-index",
    ],
)
def test_non_integers_are_refused_not_truncated(build):
    with pytest.raises(ValueError, match="is not an integer"):
        build()


@pytest.mark.parametrize(
    "read,message",
    [
        (lambda: HessenbergFunction.parse("2,\uff12"), "is not an integer in ASCII digits"),
        (lambda: HessenbergFunction.parse("1,2_2"), "is not an integer in ASCII digits"),
        (lambda: Monomial.parse("x\u0661", 1), "bad monomial factor"),
        (lambda: Monomial.parse("x1^1_0", 1), "bad monomial factor"),
        (lambda: Polynomial.parse("1_0*x1", 2), "'1_0' is not an integer in ASCII digits"),
    ],
    ids=["hessenberg-fullwidth", "hessenberg-underscore", "monomial-arabic-indic",
         "monomial-underscore", "poly-coefficient-underscore"],
)
def test_integers_in_text_are_ascii_digits(read, message):
    with pytest.raises(ValueError, match=message):
        read()


def test_size_cap_env_is_ascii_digits(monkeypatch):
    monkeypatch.setenv("HESSKIT_MAX_N", " 7 ")
    assert size_cap() == 7
    for text in ["\u0667", "7_0", "-7", "0", "+7"]:
        monkeypatch.setenv("HESSKIT_MAX_N", text)
        with pytest.raises(ValueError, match="HESSKIT_MAX_N"):
            size_cap()
