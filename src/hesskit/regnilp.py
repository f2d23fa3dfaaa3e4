"""The regular nilpotent setting: one-row shape (n), Hessenberg function varies.

Fillings are words; the value i can be inserted into a partial word either
at the far-right end or immediately left of any k with h(k) >= i, giving
exactly beta_i slots.  Growing all words this way yields the h-tableau-tree,
whose bottom row of leaf monomials is the staircase basis of the quotient by
the ideal built in :mod:`hesskit.polyalg`, paired with the filling above it.

That insertion is the tree's one step function (see :mod:`hesskit.trees`):
a word at level i-1 has a child for each slot of i, on the edge x_i^e for
slot e+1 counted right to left.  The h-tree and the h-tableau-tree are built
from it, :func:`iter_words` streams its leaves, and :func:`psi_h` descends
it along the path whose exponents are the monomial's.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import product
from math import prod

from .core import (
    Filling,
    HessenbergFunction,
    HesskitError,
    Monomial,
    _check_cap,
    _words,
    degree_tuple,
    nu_tuple,
    phi_word,
)
from .trees import LabeledTree, _build_tree, _descend, _iter_leaves


def h_permissible_positions(h: HessenbergFunction, word: Sequence[int]) -> list[int]:
    """Insertion slots for the next value i = len(word) + 1, rightmost first.

    Slots are word indices: inserting at the returned index ``p`` puts i
    immediately left of the entry currently at ``p`` (index len(word) is the
    far-right end).  There are always exactly beta_i of them.
    """
    word = tuple(word)
    i = len(word) + 1
    if sorted(word) != list(range(1, i)):
        raise ValueError(f"word {word} does not contain exactly 1..{i - 1}")
    for k, j in zip(word, word[1:]):
        if k > h(j):
            raise ValueError(f"word {word} is not permissible for h={h}")
    return _bullets(h.values, word, i)


def _bullets(h_values: Sequence[int], word: Sequence[int], i: int) -> list[int]:
    slots = [len(word)]
    for p in range(len(word) - 1, -1, -1):
        if h_values[word[p] - 1] >= i:
            slots.append(p)
    return slots


def _h_step(h: HessenbergFunction):
    """The insertion step: a word holding 1..i-1 at level i-1 has one child
    per insertion slot of i; the edge x_i^e puts i into slot e+1, counting
    right to left, so exponents run beta_i - 1 .. 0 left to right."""
    n = h.n
    hv = h.values
    beta = degree_tuple(h)

    def step(level: int, word: tuple[int, ...]):
        i = level + 1
        if i > n:
            return None
        slots = _bullets(hv, word, i)  # rightmost first: slots[e] is slot e+1
        if len(slots) != beta[level]:
            raise HesskitError(
                f"h={h}: {len(slots)} slots for i={i}, expected beta_i={beta[level]}"
            )

        def child(e: int) -> tuple[int, ...]:
            p = slots[e]
            return word[:p] + (i,) + word[p:]

        return i, range(len(slots) - 1, -1, -1), i, child

    return step


def iter_words(h: HessenbergFunction) -> Iterator[tuple[tuple[int, ...], Monomial]]:
    """Stream (word, monomial) pairs of the h-tableau-tree leaves, left to right."""
    yield from _iter_leaves(h.n, 1, (1,), _h_step(h))


def _h_tree(h: HessenbergFunction, max_n: int | None, kind: str, payload) -> LabeledTree:
    n = h.n
    _check_cap(n, max_n, "tree construction")
    return _build_tree(kind, n, 1, (1,), _h_step(h), payload, n + 1)


def build_h_tree(h: HessenbergFunction, max_n: int | None = None) -> LabeledTree:
    """Bare branching tree: beta_i edges per vertex between levels i-1 and i,
    labelled x_i^(beta_i - 1) .. x_i^0 left to right; leaf labels are the
    edge products and enumerate the staircase basis."""
    return _h_tree(h, max_n, "h", lambda level, word: None)


def build_h_tableau_tree(h: HessenbergFunction, max_n: int | None = None) -> LabeledTree:
    """The h-tree with word payloads: the edge x_i^j replaces the (j+1)-th
    insertion slot, counting right to left, with the value i.  Level-n
    vertices are the complete one-row fillings."""
    seen: set[tuple[int, ...]] = set()

    def payload(level: int, word: tuple[int, ...]):
        if level < h.n:
            return word
        if word in seen:
            raise HesskitError(f"duplicate filling {word} in tree for h={h}")
        seen.add(word)
        return Filling._of((h.n,), word)

    return _h_tree(h, max_n, "h-tableau", payload)


def level_n_fillings(tree: LabeledTree) -> list[Filling]:
    """The complete fillings of an h-tableau-tree, left to right."""
    if tree.kind != "h-tableau":
        raise ValueError(f"tree of kind {tree.kind!r} carries no fillings")
    return [node.payload for node in tree.level(tree.n)]


def b_h_basis(h: HessenbergFunction) -> set[Monomial]:
    """The staircase {x^alpha : alpha_i <= beta_i - 1}; its size is prod(beta_i)."""
    beta = degree_tuple(h)
    return {Monomial(exps) for exps in product(*(range(b) for b in beta))}


def psi_h(h: HessenbergFunction, monomial: Monomial) -> Filling:
    """Invert the filling -> monomial map on the staircase basis.

    Follows the unique tree path: at step i the value i replaces insertion
    slot alpha_i + 1, counting right to left.  Degree-r monomials come back
    as fillings with r dimension pairs.
    """
    n = h.n
    if len(monomial) != n:
        raise ValueError(f"monomial has {len(monomial)} variables, expected {n}")
    word = _descend(1, (1,), _h_step(h), monomial, lambda: f"the basis for h={h}")
    return Filling._of((n,), word)


@dataclass
class VerifyReport:
    """Counting identities for one Hessenberg function."""

    h: HessenbergFunction
    fillings: int
    leaves: int
    prod_nu: int
    prod_beta: int
    a_equals_b: bool

    def ok(self) -> bool:
        return (
            self.fillings == self.leaves == self.prod_nu == self.prod_beta
            and self.a_equals_b
        )


def verify_counts(h: HessenbergFunction, max_n: int | None = None) -> VerifyReport:
    """Check the one-row counting identities for h.

    ``fillings`` counts the permissible words of the pruned walk behind
    :func:`enumerate_fillings`, taken as bare tuples, and ``leaves`` the
    paths of the independent insertion tree.  ``a_equals_b`` compares the
    exponent tuples :func:`phi_word` gives those words with the staircase
    ``product(range(beta_i))``, as sets.
    """
    n = h.n
    _check_cap(n, max_n, "count verification")
    beta = degree_tuple(h)
    words = _words(h, (n,))
    image = {phi_word(h.values, word) for word in words}
    leaves = sum(1 for _ in iter_words(h))
    return VerifyReport(
        h=h,
        fillings=len(words),
        leaves=leaves,
        prod_nu=prod(nu_tuple(h)),
        prod_beta=prod(beta),
        a_equals_b=image == set(product(*(range(b) for b in beta))),
    )
