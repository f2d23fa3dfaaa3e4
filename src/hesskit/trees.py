"""Rooted trees with monomial edge labels, plus DOT and JSON export.

The four tree constructions in this package (GP-tree, modified GP-tree,
h-tree, h-tableau-tree) all produce :class:`LabeledTree` instances.  Vertex
ids are path strings of edge-exponent choices ("r", "r.0", "r.0.2", ...),
so two runs over the same input serialize identically.

Each construction is one *step function* ``step(level, state)``.  At a
leaf it returns ``None``; otherwise ``(variable, exponents, child_level,
child)``: ``exponents`` is the range of edge exponents left to right, and
``child(e)`` builds the one state at the end of the edge ``x_variable^e``.
So all edges between two levels set the same variable, and no variable is
set twice on a path.  A leaf's basis monomial is the product of the edge
labels on its path.  Two helpers drive a step function: :func:`_build_tree`
materializes the tree, and :func:`_descend` follows the one path that
spells a given monomial, building one state per level, which is how the
inverse maps work.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from .core import Filling, Monomial, NotInBasis, filling_text

# step(level, state) -> None | (variable, exponents, child_level, child)
Step = Callable[[object, object], tuple | None]


class TreeNode:
    __slots__ = ("node_id", "level", "payload", "edge", "children")

    def __init__(self, node_id: str, level, payload, edge: Monomial | None):
        self.node_id = node_id
        self.level = level
        self.payload = payload
        self.edge = edge  # label on the edge from the parent; None at the root
        self.children: list[TreeNode] = []

    def __repr__(self) -> str:
        return f"TreeNode({self.node_id!r}, level={self.level!r}, payload={self.payload!r})"


def _render_payload(payload, kind: str = "") -> str:
    if payload is None:
        return "*"
    if isinstance(payload, (Monomial, Filling)):
        return str(payload)
    if isinstance(payload, tuple) and payload and all(isinstance(v, int) for v in payload):
        if kind == "h-tableau":  # partial words read like fillings, not shapes
            return filling_text((len(payload),), payload)
        return ",".join(str(v) for v in payload)
    return str(payload)


class LabeledTree:
    """A built tree: immutable after construction, safe to share."""

    def __init__(self, kind: str, n: int, root: TreeNode, levels: dict):
        self.kind = kind
        self.n = n
        self.root = root
        self._levels = levels
        self.level_keys = list(levels)  # top-down order

    def levels(self) -> dict:
        """Mapping level key -> nodes, left to right within each level."""
        return self._levels

    def level(self, key) -> list[TreeNode]:
        return self.levels()[key]

    def leaves(self) -> list[TreeNode]:
        return self.level(self.level_keys[-1])

    def leaf_monomials(self) -> list[Monomial]:
        """Leaf labels left to right; each is the product of its path's edges."""
        return [leaf.payload for leaf in self.leaves()]

    def iter_nodes(self) -> Iterator[TreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def path_count(self) -> int:
        return len(self.leaves())

    # -- serialization ------------------------------------------------------

    def to_dot(self) -> str:
        lines = [
            f'digraph "{self.kind}" {{',
            "  graph [ordering=out];",
            "  node [shape=box];",
        ]
        by_level = self.levels()
        for key in self.level_keys:
            for node in by_level[key]:
                label = _render_payload(node.payload, self.kind)
                lines.append(f'  "{node.node_id}" [label="{label}"];')
        for key in self.level_keys:
            for node in by_level[key]:
                for child in node.children:
                    lines.append(
                        f'  "{node.node_id}" -> "{child.node_id}" [label="{child.edge}"];'
                    )
        for key in self.level_keys:
            names = " ".join(f'"{node.node_id}";' for node in by_level[key])
            lines.append(f"  {{ rank=same; {names} }}")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        def encode(node: TreeNode) -> dict:
            entry: dict = {
                "id": node.node_id,
                "level": node.level,
                "label": _render_payload(node.payload, self.kind),
            }
            if node.edge is not None:
                entry["edge"] = str(node.edge)
            if isinstance(node.payload, Monomial):
                entry["monomial"] = node.payload.to_json()
            if isinstance(node.payload, Filling):
                entry["filling"] = node.payload.to_json()
            if node.children:
                entry["children"] = [encode(c) for c in node.children]
            return entry

        return {
            "kind": self.kind,
            "n": self.n,
            "levels": [str(k) for k in self.level_keys],
            "root": encode(self.root),
        }


# -- running a construction's step function -----------------------------------


def _build_tree(
    kind: str, n: int, level, state, step: Step, payload, leaf_level=None
) -> LabeledTree:
    """Materialize the tree that ``step`` grows from ``state`` at ``level``.

    Every vertex carries ``payload(level, state)``.  At a leaf the path
    monomial replaces that payload or, given ``leaf_level``, hangs below it
    as a vertex of its own on an edge labelled 1.  Vertices are grown in
    preorder, so each level's list fills left to right.
    """
    exps = [0] * n
    levels: dict = {}

    def grow(node: TreeNode, level, state) -> None:
        levels.setdefault(level, []).append(node)
        branch = step(level, state)
        if branch is None and leaf_level is None:
            node.payload = Monomial(exps)
        elif branch is None:
            leaf = TreeNode(f"{node.node_id}.0", leaf_level, Monomial(exps), Monomial.one(n))
            node.children.append(leaf)
            levels.setdefault(leaf_level, []).append(leaf)
        else:
            var, exponents, level, child = branch
            for e in exponents:
                exps[var - 1] = e
                state = child(e)
                edge = Monomial.variable(n, var, e)
                below = TreeNode(f"{node.node_id}.{e}", level, payload(level, state), edge)
                node.children.append(below)
                grow(below, level, state)

    root = TreeNode("r", level, payload(level, state), None)
    grow(root, level, state)
    return LabeledTree(kind, n, root, levels)


def _descend(level, state, step: Step, monomial: Sequence[int], basis: Callable[[], str]):
    """The leaf state of the one path whose edge labels multiply to ``monomial``.

    Builds one state per level.  Raises NotInBasis when the monomial's
    exponent of a level's variable is not among that level's edge exponents,
    or when an exponent is set by no edge at all; ``basis()`` names the basis
    in its message and is called only then.
    """
    exps = [0] * len(monomial)
    while (branch := step(level, state)) is not None:
        var, exponents, level, child = branch
        e = monomial[var - 1]
        if e not in exponents:
            raise NotInBasis(f"{monomial} is not in {basis()}: no edge x{var}^{e}")
        exps[var - 1] = e
        state = child(e)
    if exps != list(monomial):
        raise NotInBasis(f"{monomial} is not in {basis()}")
    return state
