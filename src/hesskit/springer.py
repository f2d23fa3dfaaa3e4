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
The box-deleting step builds the GP-tree and streams its leaves for
:func:`garsia_procesi_basis`; the box-filling step builds the modified tree,
and :func:`psi` descends it along the path whose exponents are the
monomial's.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import factorial, prod

from .core import (
    Filling,
    HessenbergFunction,
    HesskitError,
    Monomial,
    _check_cap,
    check_partition,
    dimension_ordering,
    enumerate_fillings,
)
from .trees import LabeledTree, _build_tree, _descend, _iter_leaves


class PartialTableau:
    """A shape with values i..n already written into some far-right boxes.

    ``remaining[r-1]`` unfilled boxes sit flush left in row r; the filled
    boxes of row r are the columns above that.
    """

    __slots__ = ("shape", "remaining", "filled")

    def __init__(
        self,
        shape: tuple[int, ...],
        remaining: tuple[int, ...],
        filled: dict[tuple[int, int], int],
    ):
        self.shape = shape
        self.remaining = remaining
        self.filled = filled

    def place(self, row: int, col: int, value: int) -> "PartialTableau":
        rem = list(self.remaining)
        rem[row - 1] -= 1
        return PartialTableau(self.shape, tuple(rem), {**self.filled, (row, col): value})

    def to_filling(self) -> Filling:
        if any(self.remaining):
            raise ValueError("tableau is not complete")
        rows = [
            tuple(self.filled[(r, c)] for c in range(1, length + 1))
            for r, length in enumerate(self.shape, start=1)
        ]
        return Filling(self.shape, rows)

    def __str__(self) -> str:
        parts = []
        for r, length in enumerate(self.shape, start=1):
            parts.append(
                "".join(
                    str(self.filled[(r, c)]) if (r, c) in self.filled else "."
                    for c in range(1, length + 1)
                )
            )
        return "/".join(parts)

    def __repr__(self) -> str:
        return f"PartialTableau({self})"


def _state(level: int, state):
    """Vertex payload of both trees: the diagram, partial tableau or filling itself."""
    return state


def _gp_step(level: int, shape: tuple[int, ...]) -> list:
    """The box-deleting step: the edge x_i^j deletes the box with dimension-order j+1."""
    if level == 1:
        return []
    children = []
    for j, (row, _col) in enumerate(dimension_ordering(shape)):
        rows = list(shape)
        rows[row - 1] -= 1
        # Deleting a far-right box can leave a column hanging below a shorter
        # row; pushing the column's boxes up restores weakly decreasing rows,
        # which is exactly the descending re-sort of the nonzero row lengths.
        child = tuple(sorted((r for r in rows if r > 0), reverse=True))
        children.append((level, j, level - 1, child))
    return children


def _filling_step(level: int, state: PartialTableau | Filling) -> list:
    """The box-filling step: the edge x_i^j writes i into the empty box with
    dimension-order j+1; the last value completes the filling."""
    if level == 0:
        return []
    children = []
    for j, (row, col) in enumerate(dimension_ordering(state.remaining)):
        child = state.place(row, col, level)
        children.append((level, j, level - 1, child.to_filling() if level == 1 else child))
    return children


def build_gp_tree(mu: Sequence[int], max_n: int | None = None) -> LabeledTree:
    """Branching tree on Young diagrams whose leaf labels form the basis B(mu).

    Level i holds diagrams with i boxes; an edge labelled x_i^j deletes the
    box with dimension-order j+1 and re-sorts the rows.  Level-1 vertices
    carry the accumulated edge product instead of a single box.
    """
    mu = check_partition(mu)
    n = sum(mu)
    _check_cap(n, max_n, "GP-tree construction")
    return _build_tree("gp", n, n, mu, _gp_step, _state, range(n, 0, -1))


def build_modified_gp_tree(mu: Sequence[int], max_n: int | None = None) -> LabeledTree:
    """GP-tree variant that fills boxes instead of deleting them.

    Levels n..1 carry partial tableaux, Level 0 the completed row-strict
    fillings, and Level B the basis monomials, each directly below the
    filling that maps to it.
    """
    mu = check_partition(mu)
    n = sum(mu)
    _check_cap(n, max_n, "modified GP-tree construction")
    start = PartialTableau(mu, mu, {})
    levels = [*range(n, -1, -1), "B"]
    return _build_tree("modified-gp", n, n, start, _filling_step, _state, levels, "B")


def iter_basis_monomials(mu: Sequence[int]) -> Iterator[Monomial]:
    """Stream the leaf monomials of the GP-tree without materializing it."""
    mu = check_partition(mu)
    n = sum(mu)
    return (mono for _shape, mono in _iter_leaves(n, n, mu, _gp_step))


def garsia_procesi_basis(mu: Sequence[int], max_n: int | None = None) -> set[Monomial]:
    """Leaf labels of the GP-tree; there are n!/prod(mu_i!) distinct monomials."""
    mu = check_partition(mu)
    _check_cap(sum(mu), max_n, "basis enumeration")
    basis: set[Monomial] = set()
    count = 0
    for mono in iter_basis_monomials(mu):
        basis.add(mono)
        count += 1
    if len(basis) != count:
        raise HesskitError(f"GP-tree for {mu} produced a repeated leaf monomial")
    return basis


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
    start = PartialTableau(mu, mu, {})
    return _descend(n, start, _filling_step, monomial, f"the basis of shape {mu}")
