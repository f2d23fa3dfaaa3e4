"""Exact multivariate polynomial arithmetic over the integers.

Just enough machinery to build the ideal attached to a Hessenberg function,
verify that its generators form a Groebner basis, and read off the staircase
of standard monomials: lex order with x_1 > x_2 > ... > x_n (the only order
shipped), polynomial arithmetic, multivariate division, and the Buchberger
S-pair criterion; is_groebner skips the pairs its first criterion clears.

Coefficients are arbitrary-precision ints and never leave Z: the S-polynomial
cross-multiplies by leading coefficients instead of dividing, and division
rewrites a term only when the divisor's leading coefficient divides its
coefficient (always true here, since every generator is monic).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations, combinations_with_replacement, product

from .core import (
    HessenbergFunction,
    HesskitError,
    Monomial,
    _parse_power,
    as_int,
    degree_tuple,
    read_int,
)


class ZeroPolynomial(HesskitError, ValueError):
    """The zero polynomial has no leading term."""


class InfiniteStaircase(HesskitError, ValueError):
    """Some variable has no pure-power leading term, so the set of standard
    monomials is infinite."""


_Exps = tuple[int, ...]


class Polynomial:
    """Sparse integer polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[_Exps, int] | None = None):
        self.n = n
        self.terms: dict[_Exps, int] = {}
        if terms:
            for exps, coef in terms.items():
                if len(exps) != n:
                    raise ValueError(f"exponent tuple {exps} has length != {n}")
                key = tuple(map(as_int, exps))
                if any(e < 0 for e in key):
                    raise ValueError(f"negative exponent in {list(key)}")
                if coef != 0:
                    self.terms[key] = as_int(coef)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, n: int, value: int) -> "Polynomial":
        return cls(n, {(0,) * n: value})

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls.constant(n, 1)

    @classmethod
    def from_monomial(cls, mono: Monomial, coef: int = 1) -> "Polynomial":
        return cls(len(mono), {tuple(mono): coef})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> tuple[_Exps, int]:
        """Lex-maximal (exponents, coefficient) pair."""
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    def terms_desc(self) -> list[tuple[Monomial, int]]:
        """Terms in descending lex order."""
        return [(Monomial(e), self.terms[e]) for e in sorted(self.terms, reverse=True)]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            new = out.get(exps, 0) + coef
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
        result = Polynomial(self.n)
        result.terms = out
        return result

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        result = Polynomial(self.n)
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[_Exps, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(key, 0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        result = Polynomial(self.n)
        result.terms = out
        return result

    __rmul__ = __mul__

    def scale(self, value: int) -> "Polynomial":
        if value == 0:
            return Polynomial(self.n)
        result = Polynomial(self.n)
        result.terms = {e: c * value for e, c in self.terms.items()}
        return result

    def times_term(self, exps: _Exps, coef: int) -> "Polynomial":
        """Multiply by the single term coef * x^exps."""
        if coef == 0:
            return Polynomial(self.n)
        result = Polynomial(self.n)
        result.terms = {
            tuple(a + b for a, b in zip(e, exps)): c * coef for e, c in self.terms.items()
        }
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    # -- text and JSON -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coef in self.terms_desc():
            magnitude = abs(coef)
            if mono.degree == 0:
                body = str(magnitude)
            elif magnitude == 1:
                body = str(mono)
            else:
                body = f"{magnitude}*{mono}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r}, n={self.n})"

    @classmethod
    def parse(cls, text: str, n: int) -> "Polynomial":
        """Parse the text format, e.g. ``"x2^2 + x2*x3 - 2*x4 + 5"``."""
        compact = text.replace(" ", "")
        if not compact:
            raise ValueError("empty polynomial text")
        if "^-" in compact or "^+" in compact:
            raise ValueError(f"signed exponent in {text!r}")
        terms: dict[_Exps, int] = {}
        for chunk in compact.replace("-", "+-").split("+"):
            if not chunk:
                continue
            coef = 1
            if chunk.startswith("-"):
                coef = -1
                chunk = chunk[1:]
            if not chunk:
                raise ValueError(f"dangling sign in {text!r}")
            exps = [0] * n
            for factor in chunk.split("*"):
                if factor.startswith("x"):
                    i, e = _parse_power(factor, n)
                    exps[i - 1] += e
                else:
                    coef *= read_int(factor)
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coef
        return cls(n, terms)

    def to_json(self) -> list[dict]:
        return [{"exps": list(m), "coef": c} for m, c in self.terms_desc()]

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "Polynomial":
        entries = list(data)
        if not entries:
            raise ValueError("cannot infer variable count from an empty term list")
        n = len(entries[0]["exps"])
        terms: dict[_Exps, int] = {}
        for entry in entries:
            key = tuple(entry["exps"])
            terms[key] = terms.get(key, 0) + as_int(entry["coef"])
        return cls(n, terms)


def modified_complete_symmetric(r: int, variables: Iterable[int], n: int) -> Polynomial:
    """Sum of all monomials of total degree r in the given variables.

    This is the complete homogeneous symmetric polynomial h_r restricted to
    a variable subset, e.g. degree 2 in {x3, x4} gives x3^2 + x3*x4 + x4^2.
    The term count is C(r + s - 1, r) for s variables.
    """
    indices = sorted(set(map(as_int, variables)))
    if not indices:
        raise ValueError("variable set must be nonempty")
    if any(not 1 <= i <= n for i in indices):
        raise ValueError(f"variable indices {indices} out of range for n={n}")
    if r < 0:
        raise ValueError("degree must be nonnegative")
    # the inputs are checked above, so the terms go in unchecked, as in __add__
    result = Polynomial(n)
    for combo in combinations_with_replacement(indices, r):
        exps = [0] * n
        for i in combo:
            exps[i - 1] += 1
        result.terms[tuple(exps)] = 1
    return result


def jh_generators(h: HessenbergFunction) -> list[Polynomial]:
    """The n ideal generators for h: the i-th entry, for i = n down to 1, is
    the degree beta_i complete homogeneous polynomial in x_i .. x_n.

    Under lex, the leading term of the i-th generator is x_i^beta_i.
    """
    n = h.n
    beta = degree_tuple(h)
    return [
        modified_complete_symmetric(beta[i - 1], range(i, n + 1), n)
        for i in range(n, 0, -1)
    ]


def leading_term(p: Polynomial) -> tuple[Monomial, int]:
    exps, coef = p.leading()
    return Monomial(exps), coef


def reduce(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Normal form of p modulo the basis (multivariate division remainder).

    Deterministic: the current lex-leading term is rewritten first, divisors
    tried in list order.  A divisor applies when its leading monomial divides
    the term and its leading coefficient divides the term's coefficient.
    No term of the result is divisible by any basis leading term whose
    coefficient is a unit.
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    leads = [(g.leading(), g) for g in basis]
    work = dict(p.terms)
    remainder: dict[_Exps, int] = {}
    while work:
        exps = max(work)
        coef = work.pop(exps)
        for (lt, lc), g in leads:
            if coef % lc == 0 and all(a >= b for a, b in zip(exps, lt)):
                shift = tuple(a - b for a, b in zip(exps, lt))
                factor = coef // lc
                for ge, gc in g.terms.items():
                    if ge == lt:
                        continue
                    key = tuple(a + b for a, b in zip(ge, shift))
                    new = work.get(key, 0) - factor * gc
                    if new:
                        work[key] = new
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[exps] = coef
    return Polynomial(p.n, remainder)


def s_polynomial(p: Polynomial, q: Polynomial) -> Polynomial:
    """Integer-safe S-polynomial: cross-multiplied by leading coefficients,
    content not reduced."""
    (lp, cp) = p.leading()
    (lq, cq) = q.leading()
    lcm = tuple(max(a, b) for a, b in zip(lp, lq))
    left = p.times_term(tuple(a - b for a, b in zip(lcm, lp)), cq)
    right = q.times_term(tuple(a - b for a, b in zip(lcm, lq)), cp)
    return left - right


def groebner_failures(basis: Sequence[Polynomial]) -> list[tuple[int, int, Polynomial]]:
    """S-pairs whose normal form is nonzero, as (i, j, normal_form) triples."""
    failures = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            nf = reduce(s_polynomial(basis[i], basis[j]), basis)
            if not nf.is_zero:
                failures.append((i, j, nf))
    return failures


def is_groebner(basis: Sequence[Polynomial]) -> bool:
    """Buchberger criterion: every S-polynomial of a pair reduces to zero.

    If every leading coefficient is +-1, reduce is division over Q and a pair
    with coprime leading monomials is skipped (Buchberger's first criterion,
    Cox-Little-O'Shea, Ch. 2 Sec. 9, Prop. 4); groebner_failures reduces all.
    """
    if not basis or any(g.is_zero for g in basis):
        raise ValueError("basis members must be nonzero")
    leads = [g.leading() for g in basis]
    monic = all(abs(c) == 1 for _, c in leads)
    for (i, (li, _)), (j, (lj, _)) in combinations(enumerate(leads), 2):
        if monic and not any(a and b for a, b in zip(li, lj)):
            continue
        if not reduce(s_polynomial(basis[i], basis[j]), basis).is_zero:
            return False
    return True


def standard_monomials(basis: Sequence[Polynomial]) -> set[Monomial]:
    """Monomials divisible by no leading term of the basis.

    Requires a pure power of every variable among the leading terms (a
    zero-dimensional leading-term ideal); otherwise the staircase is
    infinite and InfiniteStaircase is raised.  Only the other leading terms
    (constants too) cut the box of pure-power bounds; jh_generators has none.
    The caller is responsible for passing a Groebner basis when the result is
    to be read as a quotient basis.
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    n = basis[0].n
    bounds = [None] * n
    cutters = []
    for lt in (g.leading()[0] for g in basis):
        support = [i for i, e in enumerate(lt) if e > 0]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lt[i] < bounds[i]:
                bounds[i] = lt[i]
        else:
            cutters.append(lt)
    if any(b is None for b in bounds):
        missing = [f"x{i + 1}" for i, b in enumerate(bounds) if b is None]
        raise InfiniteStaircase(
            f"no pure-power leading term for {', '.join(missing)}"
        )
    box = product(*(range(b) for b in bounds))
    if cutters:
        box = (e for e in box if not any(all(a >= b for a, b in zip(e, lt)) for lt in cutters))
    return set(map(Monomial, box))
