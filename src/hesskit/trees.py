"""Rooted trees with monomial edge labels, plus DOT and JSON export.

The four tree constructions in this package (GP-tree, modified GP-tree,
h-tree, h-tableau-tree) all produce :class:`LabeledTree` instances.  Vertex
ids are path strings of edge-exponent choices ("r", "r.0", "r.0.2", ...),
so two runs over the same input serialize identically.

Each construction is one *step function* ``step(level, state)`` that
returns the children of a vertex left to right, each as ``(variable,
exponent, child_level, child_state)``: the edge to that child is labelled
``x_variable^exponent``.  All edges between two levels set the same
variable, and no variable is set twice on a path.  An empty list marks a
leaf, whose basis monomial is the product of the edge labels on its path.
Three helpers drive a step function: :func:`_build_tree` materializes the
tree, :func:`_iter_leaves` streams its leaves without building it, and
:func:`_descend` follows the one path that spells a given monomial, which
is how the inverse maps work.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from .core import Filling, Monomial, NotInBasis, filling_text

# step(level, state) -> [(variable, exponent, child_level, child_state), ...]
Step = Callable[[object, object], list]


class TreeNode:
    __slots__ = ("node_id", "level", "payload", "edge", "children")

    def __init__(self, node_id: str, level, payload, edge: Monomial | None):
        self.node_id = node_id
        self.level = level
        self.payload = payload
        self.edge = edge  # label on the edge from the parent; None at the root
        self.children: list[TreeNode] = []

    def is_leaf(self) -> bool:
        return not self.children

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

    def __init__(self, kind: str, n: int, root: TreeNode, level_keys: list):
        self.kind = kind
        self.n = n
        self.root = root
        self.level_keys = list(level_keys)  # top-down order
        self._levels: dict | None = None

    def levels(self) -> dict:
        """Mapping level key -> nodes, left to right within each level.

        Built by one walk on the first call and shared by later calls.
        """
        if self._levels is None:
            out: dict = {key: [] for key in self.level_keys}
            for node in self.iter_nodes():  # preorder keeps left-to-right order
                out[node.level].append(node)
            self._levels = out
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
    kind: str, n: int, level, state, step: Step, payload, level_keys, leaf_level=None
) -> LabeledTree:
    """Materialize the tree that ``step`` grows from ``state`` at ``level``.

    Every vertex carries ``payload(level, state)``.  At a leaf the path
    monomial replaces that payload or, given ``leaf_level``, hangs below it
    as a vertex of its own on an edge labelled 1.
    """
    exps = [0] * n

    def grow(node: TreeNode, level, state) -> None:
        children = step(level, state)
        if not children:
            mono = Monomial(exps)
            if leaf_level is None:
                node.payload = mono
            else:
                leaf = TreeNode(f"{node.node_id}.0", leaf_level, mono, Monomial.one(n))
                node.children.append(leaf)
        for var, e, child_level, child_state in children:
            exps[var - 1] = e
            child = TreeNode(
                f"{node.node_id}.{e}",
                child_level,
                payload(child_level, child_state),
                Monomial.variable(n, var, e),
            )
            node.children.append(child)
            grow(child, child_level, child_state)

    root = TreeNode("r", level, payload(level, state), None)
    grow(root, level, state)
    return LabeledTree(kind, n, root, level_keys)


def _iter_leaves(n: int, level, state, step: Step) -> Iterator[tuple[object, Monomial]]:
    """Stream ``(leaf state, path monomial)`` left to right without building the tree."""
    exps = [0] * n
    stack = step(level, state)[::-1]
    if not stack:  # the root is the only leaf
        yield state, Monomial(exps)
    while stack:
        var, e, level, state = stack.pop()
        exps[var - 1] = e  # the variables below this edge are all set again
        children = step(level, state)
        if children:
            stack += children[::-1]
        else:
            yield state, Monomial(exps)


def _descend(level, state, step: Step, monomial: Sequence[int], basis: str):
    """The leaf state of the one path whose edge labels multiply to ``monomial``.

    Raises NotInBasis when no child's exponent equals the monomial's exponent
    of the child's variable, or when an exponent is set by no edge at all.
    """
    exps = [0] * len(monomial)
    while children := step(level, state):
        for var, e, child_level, child_state in children:
            if e == monomial[var - 1]:
                break
        else:
            raise NotInBasis(f"{monomial} is not in {basis}: no edge x{var}^{monomial[var - 1]}")
        exps[var - 1] = e
        level, state = child_level, child_state
    if exps != list(monomial):
        raise NotInBasis(f"{monomial} is not in {basis}")
    return state
