"""The Springer setting: h = (1, 2, ..., n), shape varies.

Permissible fillings here are exactly the row-strict tableaux.  The two tree
constructions both branch on the dimension-ordering of the shrinking
subdiagram; the classical tree deletes boxes (re-sorting rows to stay a
Young diagram), while the modified tree writes the current value into the
box instead and never moves a box.  Leaf labels of either tree are the
Garsia-Procesi monomial basis, and the modified tree pairs each basis
monomial with the row-strict filling that maps to it.

Each tree is one step function (see :mod:`hesskit.trees`): from a state
with i boxes left, the edge x_i^j takes the box with dimension-order j+1.
The box-deleting step builds the GP-tree, and :func:`garsia_procesi_basis`
runs it as the Garsia-Procesi recursion, once per shape; the box-filling
step builds the modified tree, and :func:`psi` descends it along the path
whose exponents are the monomial's.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from math import factorial, prod

from .core import (
    Filling,
    HessenbergFunction,
    Monomial,
    PartialFilling,
    _check_cap,
    _dimension_order,
    check_partition,
    enumerate_fillings,
)
from .trees import LabeledTree, _build_tree, _descend


def _gp_step(level: int, shape: tuple[int, ...]):
    """The box-deleting step: the edge x_i^j deletes the box with dimension-order j+1."""
    if level <= 1:
        return None
    order = _dimension_order(shape)

    def child(j: int) -> tuple[int, ...]:
        rows = list(shape)
        rows[order[j][0] - 1] -= 1
        # Deleting a far-right box can leave a column hanging below a shorter
        # row; pushing the column's boxes up restores weakly decreasing rows,
        # which is exactly the descending re-sort of the nonzero row lengths.
        return tuple(sorted((r for r in rows if r > 0), reverse=True))

    return level, range(len(order)), level - 1, child


def _filling_step(mu: tuple[int, ...], order=_dimension_order):
    """The box-filling step on row-reading words of mu, 0 marking an empty box:
    the edge x_i^j writes i into the empty box with dimension-order j+1; the
    last value completes the filling.

    The empty boxes of each row stay flush left, so a row's empty-box count
    is the column of its far-right empty box.  ``order`` is the dimension
    ordering of those counts: the cached kernel by default, which pays when
    a tree meets the same counts at many vertices.
    """
    starts = list(accumulate(mu, initial=0))

    def step(level: int, word: tuple[int, ...]):
        if level == 0:
            return None
        boxes = order(tuple([word[s : s + length].count(0) for s, length in zip(starts, mu)]))

        def child(j: int):
            row, col = boxes[j]
            p = starts[row - 1] + col - 1
            return word[:p] + (level,) + word[p + 1 :]

        return level, range(len(boxes)), level - 1, child

    return step


def build_gp_tree(mu: Sequence[int], max_n: int | None = None) -> LabeledTree:
    """Branching tree on Young diagrams whose leaf labels form the basis B(mu).

    Level i holds diagrams with i boxes; an edge labelled x_i^j deletes the
    box with dimension-order j+1 and re-sorts the rows.  Level-1 vertices
    carry the accumulated edge product instead of a single box.
    """
    mu = check_partition(mu)
    n = sum(mu)
    _check_cap(n, max_n, "GP-tree construction")
    return _build_tree("gp", n, n, mu, _gp_step, lambda level, shape: shape)


def build_modified_gp_tree(mu: Sequence[int], max_n: int | None = None) -> LabeledTree:
    """GP-tree variant that fills boxes instead of deleting them.

    Levels n..1 carry partial fillings, Level 0 the completed row-strict
    fillings, and Level B the basis monomials, each directly below the
    filling that maps to it.
    """
    mu = check_partition(mu)
    n = sum(mu)
    _check_cap(n, max_n, "modified GP-tree construction")

    def payload(level: int, state):
        return PartialFilling._of(mu, state) if level else Filling._of(mu, state)

    return _build_tree("modified-gp", n, n, (0,) * n, _filling_step(mu), payload, "B")


def garsia_procesi_basis(mu: Sequence[int], max_n: int | None = None) -> set[Monomial]:
    """The n!/prod(mu_i!) leaf labels of the GP-tree, by the recursion it unfolds:
    B(mu) is the disjoint union over j of x_n^j * B(the child on the edge x_n^j).
    A subtree depends only on its shape, so each distinct shape is stepped
    once, level by level from the root, and its leaves are listed once, from
    the bottom level up.  The root's leaves stream into the result."""
    mu = check_partition(mu)
    n = sum(mu)
    _check_cap(n, max_n, "basis enumeration")
    children: dict = {}  # each distinct shape, top down -> its (e, child) pairs, None at a leaf
    level, shapes = n, [mu]
    while shapes:
        lower: dict = {}  # the distinct shapes of the next level, as a set in order
        for shape in shapes:
            if (branch := _gp_step(level, shape)) is not None:
                _var, exponents, _level, child = branch
                branch = [(e, child(e)) for e in exponents]
                lower.update(dict.fromkeys(c for _, c in branch))
            children[shape] = branch
        level, shapes = level - 1, list(lower)
    leaves: dict = {}  # shape -> the exponents of x_1 .. x_level at the leaves below it
    for shape, branch in reversed(children.items()):  # each shape after every shape below it
        if branch is None:
            leaves[shape] = [(0,) * sum(shape)]  # the one box (1,), or the empty mu
        else:
            found = (exps + (e,) for e, below in branch for exps in leaves[below])
            leaves[shape] = found if shape == mu else list(found)
    return set(map(Monomial, leaves[mu]))


def tree_path_count(mu: Sequence[int]) -> int:
    """Number of root-to-leaf paths, n!/(mu_1! ... mu_k!)."""
    mu = check_partition(mu)
    return factorial(sum(mu)) // prod(factorial(r) for r in mu)


def enumerate_row_strict(mu: Sequence[int], max_n: int | None = None) -> list[Filling]:
    """All row-strict fillings of a partition shape, in lexicographic word order;
    these are the permissible fillings for the minimal h = (1, 2, ..., n)."""
    mu = check_partition(mu)
    n = sum(mu)
    _check_cap(n, max_n, "row-strict enumeration")
    return enumerate_fillings(HessenbergFunction(range(1, n + 1)), mu, max_n=max_n)


def psi(mu: Sequence[int], monomial: Monomial) -> Filling:
    """Invert the filling -> monomial map on the basis B(mu).

    Values are written in decreasing order: value i goes into the box of the
    current subdiagram with dimension-order alpha_i + 1, which is then
    removed.  Raises NotInBasis when that box does not exist, which happens
    exactly when the monomial lies outside B(mu).
    """
    mu = check_partition(mu)
    n = sum(mu)
    if len(monomial) != n:
        raise ValueError(f"monomial has {len(monomial)} variables, expected {n}")
    # one path meets each composition once, so it reads the uncached kernel:
    # caching would only keep a tuple per level of every tall shape asked for
    step = _filling_step(mu, _dimension_order.__wrapped__)
    word = _descend(n, (0,) * n, step, monomial, lambda: f"the basis of shape {mu}")
    return Filling._of(mu, word)
