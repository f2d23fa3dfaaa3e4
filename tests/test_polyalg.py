"""Exact polynomial arithmetic, the ideal generators, and Groebner checks."""

from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesskit import (
    InfiniteStaircase,
    Monomial,
    Polynomial,
    ZeroPolynomial,
    b_h_basis,
    degree_tuple,
    hessenberg_functions,
    is_groebner,
    jh_generators,
    leading_term,
    make_hessenberg,
    modified_complete_symmetric,
    reduce,
    s_polynomial,
    standard_monomials,
)
from hesskit import polyalg
from hesskit.polyalg import groebner_failures

from conftest import springer_h


def P(text, n):
    return Polynomial.parse(text, n)


class TestCompleteSymmetric:
    def test_degree_two_in_two_variables(self):
        assert modified_complete_symmetric(2, [3, 4], 4) == P("x3^2 + x3*x4 + x4^2", 4)

    def test_degree_zero_is_one(self):
        assert modified_complete_symmetric(0, [2], 4) == Polynomial.one(4)

    def test_degree_three_in_two_variables(self):
        assert modified_complete_symmetric(3, [3, 4], 4) == P(
            "x3^3 + x3^2*x4 + x3*x4^2 + x4^3", 4
        )

    @pytest.mark.parametrize("r,vars_", [(2, (1, 2, 3)), (4, (2, 5)), (3, (1,)), (0, (4,))])
    def test_term_count(self, r, vars_):
        poly = modified_complete_symmetric(r, vars_, 5)
        assert len(poly.terms) == comb(r + len(vars_) - 1, r)
        assert all(c == 1 for c in poly.terms.values())

    def test_rejects_empty_variable_set(self):
        with pytest.raises(ValueError):
            modified_complete_symmetric(2, [], 4)


class TestIdealGenerators:
    def test_worked_example(self, h334):
        expected = [
            "x4",
            "x3^3 + x3^2*x4 + x3*x4^2 + x4^3",
            "x2^2 + x2*x3 + x2*x4 + x3^2 + x3*x4 + x4^2",
            "x1 + x2 + x3 + x4",
        ]
        assert [str(g) for g in jh_generators(h334)] == expected

    def test_minimal_h_gives_linear_chain(self):
        gens = jh_generators(springer_h(4))
        assert [str(g) for g in gens] == [
            "x4",
            "x3 + x4",
            "x2 + x3 + x4",
            "x1 + x2 + x3 + x4",
        ]

    def test_2_3_3_degrees_and_variable_counts(self):
        # beta (by i) is (1,2,2); generator i uses variables x_i..x_n
        gens = jh_generators(make_hessenberg((2, 3, 3)))
        assert [max(map(sum, g.terms)) for g in gens] == [2, 2, 1]
        assert [sum(1 for e in g.leading()[0] if True) for g in gens] == [3, 3, 3]
        used = [
            {i + 1 for exps in g.terms for i, e in enumerate(exps) if e} for g in gens
        ]
        assert used == [{3}, {2, 3}, {1, 2, 3}]

    def test_generators_equal_their_parsed_text(self):
        # the generators are built without the per-term checks of Polynomial()
        for n in range(1, 7):
            for h in hessenberg_functions(n):
                for g in jh_generators(h):
                    assert g.terms == Polynomial.parse(str(g), n).terms

    def test_leading_terms_are_pure_powers(self):
        for n in range(1, 9):
            for h in hessenberg_functions(n):
                beta = degree_tuple(h)
                for idx, g in enumerate(jh_generators(h)):
                    i = n - idx
                    assert leading_term(g)[0] == Monomial.variable(n, i, beta[i - 1])


class TestLeadingTermAndArithmetic:
    def test_leading_terms(self):
        assert leading_term(modified_complete_symmetric(2, [2, 3, 4], 4)) == (
            Monomial.parse("x2^2", 4),
            1,
        )
        assert leading_term(P("x1 + x2 + x3 + x4", 4)) == (Monomial.parse("x1", 4), 1)
        assert leading_term(P("5", 4)) == (Monomial.one(4), 5)

    def test_zero_has_no_leading_term(self):
        with pytest.raises(ZeroPolynomial):
            leading_term(Polynomial(3))

    def test_add_cancels(self):
        e1 = modified_complete_symmetric(1, [4], 4)
        assert (e1 + -e1).is_zero

    def test_difference_of_squares(self):
        assert P("x3 + x4", 4) * P("x3 - x4", 4) == P("x3^2 - x4^2", 4)

    def test_scalar_multiplication(self):
        assert 3 * P("x1 - 2", 2) == P("3*x1 - 6", 2)


class TestReduce:
    def test_generator_reduces_to_zero(self, h334):
        G = jh_generators(h334)
        assert reduce(P("x4", 4), G).is_zero
        for g in G:
            assert reduce(g, G).is_zero

    def test_member_x2_x3_cubed(self, h334):
        # x3^3 = -(x3^2*x4 + x3*x4^2 + x4^3) mod the cubic generator, and
        # every surviving term carries x4, so x2*x3^3 drops to 0
        assert reduce(P("x2*x3^3", 4), jh_generators(h334)).is_zero

    def test_basis_monomial_is_normal_form(self, h334):
        p = P("x2*x3^2", 4)
        assert reduce(p, jh_generators(h334)) == p

    def test_standard_monomials_are_fixed_points(self, h334):
        G = jh_generators(h334)
        for m in standard_monomials(G):
            assert reduce(Polynomial.from_monomial(m), G) == Polynomial.from_monomial(m)

    def test_idempotent(self, h334):
        G = jh_generators(h334)
        p = P("x1^2*x3 + 3*x2^2 - x3*x4 + 7", 4)
        once = reduce(p, G)
        assert reduce(once, G) == once

    def test_difference_stays_in_ideal(self, h334):
        # p - reduce(p) must itself reduce to zero
        G = jh_generators(h334)
        p = P("x1*x2*x3 + x3^2", 4)
        assert reduce(p - reduce(p, G), G).is_zero

    def test_divisor_order_is_deterministic(self):
        G = [P("x1 - x2", 2), P("x1 - 1", 2)]
        # first divisor wins: x1 rewrites to x2, not to 1
        assert reduce(P("x1", 2), G) == P("x2", 2)

    def test_non_unit_leading_coefficient(self):
        # 2*x1 cannot rewrite x1, but rewrites 4*x1
        G = [P("2*x1 - x2", 2)]
        assert reduce(P("x1", 2), G) == P("x1", 2)
        assert reduce(P("4*x1", 2), G) == P("2*x2", 2)


class TestSPolynomialAndGroebner:
    def test_s_polynomial_cancels_leading_terms(self, h334):
        G = jh_generators(h334)
        s = s_polynomial(G[1], G[2])
        lead_lcm = Monomial.parse("x2^2*x3^3", 4)  # lcm of the leading monomials
        assert leading_term(s)[0] < lead_lcm

    def test_worked_example_pairs_reduce_to_zero(self, h334):
        G = jh_generators(h334)
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                assert reduce(s_polynomial(G[i], G[j]), G).is_zero

    def test_integer_safe_cross_multiplication(self):
        # 3*(2*x1 + x2) - 2*(3*x1 + x2): no fractions appear
        p = P("2*x1 + x2", 2)
        q = P("3*x1 + x2", 2)
        assert s_polynomial(p, q) == P("x2", 2)

    def test_worked_example_is_groebner(self, h334):
        assert is_groebner(jh_generators(h334))

    def test_incomplete_pair_is_not_groebner(self):
        # x2 lies in the ideal of (x1+x2, x1) but its leading term is not
        # divisible by x1, so the pair fails the criterion
        G = [P("x1 + x2", 2), P("x1", 2)]
        assert not is_groebner(G)
        failures = groebner_failures(G)
        assert [(i, j, str(nf)) for i, j, nf in failures] == [(0, 1, "x2")]

    def test_non_coprime_failure(self):
        # the leading monomials x1*x2 and x1^2 share x1, so the pair is reduced
        G = [P("x1*x2 - 1", 2), P("x1^2 - x2", 2)]
        assert not is_groebner(G)
        assert groebner_failures(G) == [(0, 1, P("-x1 + x2^2", 2))]

    def test_non_monic_coprime_pair_is_reduced(self):
        # coprime leading monomials, but 2 and 3 are not units over Z
        assert is_groebner([P("2*x1 + x2", 2), P("3*x2 + 1", 2)])

    @pytest.mark.parametrize(
        "n, G",
        [
            (2, ["x1 + x2", "x1"]),
            (2, ["x1*x2 - 1", "x1^2 - x2"]),
            (2, ["2*x1 + x2", "3*x2 + 1"]),
            # the monic pair (2, 3) has coprime leading monomials, but its
            # S-polynomial leaves 5*x3, which neither 2*x3 nor 3*x3 divides
            # over Z
            (3, ["2*x3", "3*x3", "x1 + x2 + 5*x3", "x2 + 2*x3 + 1"]),
        ],
    )
    def test_agrees_with_failures_on_examples(self, n, G):
        G = [P(g, n) for g in G]
        assert is_groebner(G) == (not groebner_failures(G))

    def test_agrees_with_failures_on_every_ideal(self):
        for n in range(1, 7):
            for h in hessenberg_functions(n):
                G = jh_generators(h)
                assert is_groebner(G) == (not groebner_failures(G)), str(h)

    def test_product_criterion_skips_reduction(self, monkeypatch):
        calls = []
        real_reduce = polyalg.reduce

        def counting_reduce(p, basis):
            calls.append(p)
            return real_reduce(p, basis)

        monkeypatch.setattr(polyalg, "reduce", counting_reduce)
        for n in range(1, 6):
            for h in hessenberg_functions(n):
                assert is_groebner(jh_generators(h))
        assert calls == []
        assert not is_groebner([P("x1*x2 - 1", 2), P("x1^2 - x2", 2)])
        assert len(calls) == 1
        assert is_groebner([P("2*x1 + x2", 2), P("3*x2 + 1", 2)])
        assert len(calls) == 2
        calls.clear()
        assert groebner_failures(jh_generators(make_hessenberg((3, 3, 4, 5, 5)))) == []
        assert len(calls) == comb(5, 2)

    def test_singleton_is_groebner(self):
        assert is_groebner([P("x1", 1)])

    def test_rejects_zero_member(self):
        with pytest.raises(ValueError):
            is_groebner([Polynomial(2)])

    def test_sweep_small_n(self):
        for n in range(1, 6):
            for h in hessenberg_functions(n):
                assert is_groebner(jh_generators(h)), str(h)


class TestStandardMonomials:
    def test_worked_example(self, h334):
        expected = {
            Monomial.parse(t, 4)
            for t in ["1", "x2", "x3", "x2*x3", "x3^2", "x2*x3^2"]
        }
        assert standard_monomials(jh_generators(h334)) == expected

    def test_pure_variables_leave_only_one(self):
        G = [Polynomial.from_monomial(Monomial.variable(3, i)) for i in (1, 2, 3)]
        assert standard_monomials(G) == {Monomial.one(3)}

    def test_2_3_3_staircase(self):
        got = standard_monomials(jh_generators(make_hessenberg((2, 3, 3))))
        assert got == {Monomial.parse(t, 3) for t in ["1", "x2", "x3", "x2*x3"]}

    def test_matches_staircase_basis(self):
        for n in range(1, 7):
            for h in hessenberg_functions(n):
                G = jh_generators(h)
                sm = standard_monomials(G)
                assert len(sm) == prod(degree_tuple(h))
                assert sm == b_h_basis(h)

    def test_large_maximal_function_spot_check(self):
        n = 8
        h = make_hessenberg((n,) * n)
        sm = standard_monomials(jh_generators(h))
        assert len(sm) == prod(degree_tuple(h))

    def test_mixed_leading_term_cuts_the_box(self):
        box = [P("x1^2", 2), P("x2^2", 2)]
        assert standard_monomials(box) == {Monomial.parse(t, 2) for t in ["1", "x1", "x2", "x1*x2"]}
        G = [*box, P("x1*x2", 2)]
        assert standard_monomials(G) == {Monomial.parse(t, 2) for t in ["1", "x1", "x2"]}

    def test_constant_leading_term_empties_the_box(self):
        assert standard_monomials([P("1", 2), P("x1", 2), P("x2", 2)]) == set()

    def test_infinite_staircase_detected(self):
        with pytest.raises(InfiniteStaircase):
            standard_monomials([P("x1*x2", 2)])
        with pytest.raises(InfiniteStaircase):
            standard_monomials([P("x1", 2)])


class TestSerialization:
    @pytest.mark.parametrize(
        "text",
        [
            "x2^2 + x2*x3 - 2*x4 + 5",
            "x1 + x2 + x3 + x4",
            "-3*x1^2 - 1",
            "0",
        ],
    )
    def test_text_round_trip(self, text):
        p = P(text, 4)
        assert Polynomial.parse(str(p), 4) == p

    def test_json_round_trip(self):
        p = P("x2^2 - 7*x3 + 1", 3)
        assert Polynomial.from_json(p.to_json()) == p

    def test_terms_descend_in_text(self):
        p = modified_complete_symmetric(2, [2, 3, 4], 4)
        assert str(p) == "x2^2 + x2*x3 + x2*x4 + x3^2 + x3*x4 + x4^2"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Polynomial.parse("x9", 4)
        with pytest.raises(ValueError):
            Polynomial.parse("x2^-1", 4)
        with pytest.raises(ValueError):
            Polynomial.parse("", 4)
        with pytest.raises(ValueError, match="empty exponent"):
            Polynomial.parse("x2^*x3 + 1", 4)
        with pytest.raises(ValueError, match=r"bad monomial factor 'x2\^a'"):
            Polynomial.parse("x1 + x2^a", 4)

    def test_negative_exponents_are_refused(self):
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(2, {(0, -2): 3})
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(2, {(-1, 0): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial.from_json([{"exps": [-1, 0], "coef": 1}])


def small_polys(n=3):
    mono = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    term = st.tuples(mono, st.integers(min_value=-9, max_value=9))
    return st.lists(term, max_size=5).map(lambda terms: Polynomial(n, dict(terms)))


@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_leading_term_is_multiplicative(p, q):
    if p.is_zero or q.is_zero:
        return
    (lp, cp) = leading_term(p)
    (lq, cq) = leading_term(q)
    assert leading_term(p * q) == (lp * lq, cp * cq)


@settings(max_examples=60, deadline=None)
@given(small_polys())
def test_text_round_trip_randomized(p):
    assert Polynomial.parse(str(p), 3) == p


def small_bases(n):
    """Two to four polynomials, each a leading term with a +-1, 2 or -3
    coefficient over smaller terms; sparse exponents make coprime leading
    monomials common."""
    mono = st.tuples(*[st.sampled_from([0, 0, 1, 2])] * n)
    lead = st.tuples(mono, st.sampled_from([1, -1, 2, -3]))
    tail = st.lists(st.tuples(mono, st.integers(min_value=-3, max_value=3)), max_size=2)

    def poly(parts):
        (exps, coef), rest = parts
        return Polynomial(n, {**{e: c for e, c in rest if e < exps}, exps: coef})

    return st.lists(st.tuples(lead, tail).map(poly), min_size=2, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=3).flatmap(small_bases))
def test_is_groebner_agrees_with_failures_randomized(G):
    assert is_groebner(G) == (not groebner_failures(G))


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_reduce_idempotent_randomized(p):
    G = jh_generators(make_hessenberg((2, 3, 3)))
    once = reduce(p, G)
    assert reduce(once, G) == once
