"""The regular nilpotent setting: one-row shape (n), Hessenberg function varies.

Fillings are words; the value i can be inserted into a partial word either
at the far-right end or immediately left of any k with h(k) >= i, giving
exactly beta_i slots.  Growing all words this way yields the h-tableau-tree,
whose bottom row of leaf monomials is the staircase basis of the quotient by
the ideal built in :mod:`hesskit.polyalg`, paired with the filling above it.

That insertion is the tree's one step function (see :mod:`hesskit.trees`):
a word at level i-1 has a child for each slot of i, on the edge x_i^e for
slot e+1 counted right to left.  The h-tree and the h-tableau-tree are built
from it, :func:`iter_words` reads the leaves of the latter, and
:func:`psi_h` descends it along the path whose exponents are the
monomial's.

:func:`verify_counts` checks the paper's counting identities with two
independent walks.  An adjacency walk on the prune tables of
:func:`enumerate_fillings` grows each word left to right and carries its
image under phi as it goes, as one integer key; the insertion tree is
walked down to level n-1 only, where each step's slot count is the number
of leaves below it.
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
    _prune_tables,
    degree_tuple,
    nu_tuple,
)
from .trees import LabeledTree, _build_tree, _descend


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
    """The one slot rule: the far-right end, then left of each k with h(k) >= i."""
    slots = [len(word)]  # a loop, not a comprehension: 1.6x faster on CPython 3.11
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


def iter_words(h: HessenbergFunction) -> Iterator[tuple[tuple[int, ...], Monomial]]:
    """(word, monomial) at each leaf of the h-tableau-tree, left to right, read
    off :func:`build_h_tableau_tree`: above the size cap it raises
    SizeLimitExceeded before it builds anything."""
    tree = build_h_tableau_tree(h)
    for filling, mono in zip(level_n_fillings(tree), tree.leaf_monomials()):
        yield filling.word, mono


def b_h_basis(h: HessenbergFunction) -> set[Monomial]:
    """The staircase {x^alpha : alpha_i <= beta_i - 1}; its size is prod(beta_i)."""
    beta = degree_tuple(h)
    return set(map(Monomial, product(*(range(b) for b in beta))))


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


def _image_keys(h: HessenbergFunction) -> list[int]:
    """The image under phi of each permissible one-row word, one key per
    word: the exponents e_b as the integer ``sum e_b * n^(b-1)``, which
    decodes uniquely because every e_b <= b - 1 < n.

    One walk on the prune tables of :func:`enumerate_fillings`
    (``core._prune_tables``) grows each word left to right and its key
    with it.  Placing v right of a settles the partners of a: the values
    placed before a that lie in (a, h(v)], each adding n^(b-1) for its
    value b.  The last box has cap n, so its partners are all the values
    above it, and its closing sum depends on the last two values only.
    The sum over a mask is read from byte chunks of 256 entries each, so
    the tables stay small for any n: a flat table over masks would have
    2^(n+1) entries.
    """
    n = h.n
    hv = h.values
    allowed, above = _prune_tables(hv, n)
    full = (2 << n) - 2

    def band(a: int, cap: int) -> int:  # the values a+1 .. cap, none at a row start
        return ((2 << cap) - 1) ^ ((2 << a) - 1) if a else 0

    chunks = []
    for s in range(2, n + 1, 8):  # the values s .. s+7; 1 is never a partner
        table = [0]
        for b in range(s, s + 8):
            table += [k + n ** (b - 1) for k in table]
        chunks.append((s, table))

    def weight(mask: int) -> int:  # sum n^(b-1) over the values b in mask
        return sum(table[mask >> s & 255] for s, table in chunks)

    edges = [[(v, 1 << v, band(a, hv[v - 1])) for v in allowed[a]] for a in range(n + 1)]
    # closing[a][v]: the key the last two boxes a, v add, None unless a <= h(v);
    # all values but v are placed by then, and the partners of v are all above it
    tail = [weight(full >> (v + 1) << (v + 1)) for v in range(n + 1)]
    closing = [[None] * (n + 1) for _ in range(n + 1)]
    for a in range(n + 1):
        for v in allowed[a]:
            closing[a][v] = weight(band(a, hv[v - 1]) & ~(1 << v)) + tail[v]
    last = n - 1
    keys: list[int] = []

    def extend(p: int, a: int, free: int, key: int) -> None:
        # p boxes are filled, the last one with a (0 before the first)
        if p == last:
            # no test: the r = 1 prune kept a only with the one free value u >= m(a),
            # that is a <= h(u); a None read by mistake raises, not drops the word
            keys.append(key + closing[a][free.bit_length() - 1])
            return
        r = last - p
        reach = above[r]
        for v, bit, partners in edges[a]:
            if free & bit and (free & reach[v]).bit_count() > r:
                placed = partners & ~free
                k = key
                for s, table in chunks:  # weight(placed), inlined
                    k += table[placed >> s & 255]
                extend(p + 1, v, free ^ bit, k)

    extend(0, 0, full, 0)
    del extend  # the closure refers to itself: free the cycle, and keys with it
    return keys


def _leaf_count(h: HessenbergFunction) -> int:
    """The leaves of the insertion tree, grown one level at a time down to
    level n-1: the slot count of each word there is its number of leaves,
    so no leaf is built.  Every word's slots come from :func:`_bullets` and
    are checked against beta_i, as in :func:`_h_step`."""
    n = h.n
    hv = h.values
    beta = degree_tuple(h)
    words = [(1,)]
    for i in range(2, n + 1):  # words hold 1 .. i-1
        b = beta[i - 1]
        slots = [_bullets(hv, word, i) for word in words]
        if (counts := set(map(len, slots))) != {b}:
            raise HesskitError(f"h={h}: {max(counts - {b})} slots for i={i}, expected beta_i={b}")
        if i == n:
            return len(words) * b
        # each slot's child, spliced as in _h_step
        words = [word[:p] + (i,) + word[p:] for word, s in zip(words, slots) for p in s]
    return len(words)  # n = 1: the root is the one leaf


def verify_counts(h: HessenbergFunction, max_n: int | None = None) -> VerifyReport:
    """Check the one-row counting identities for h.

    ``fillings`` counts the words of the pruned adjacency walk, each with
    its phi image as one integer key (:func:`_image_keys`), and ``leaves``
    the paths of the independent insertion tree, walked to level n-1.
    ``a_equals_b`` compares the set of keys with the keys of the staircase
    ``product(range(beta_i))``.  Words are counted, not distinct keys, so
    a repeated image still shows as a failure.
    """
    n = h.n
    _check_cap(n, max_n, "count verification")
    beta = degree_tuple(h)
    keys = _image_keys(h)
    staircase = [0]
    for b, top in enumerate(beta):
        step = n**b  # above every key so far: the exponents of x_1 .. x_b
        staircase = [e + k for e in range(0, top * step, step) for k in staircase]
    image = set(keys)
    return VerifyReport(
        h=h,
        fillings=len(keys),
        leaves=_leaf_count(h),
        prod_nu=prod(nu_tuple(h)),
        prod_beta=prod(beta),
        # the staircase keys are distinct, so this is set equality
        a_equals_b=len(image) == len(staircase) and image.issuperset(staircase),
    )
