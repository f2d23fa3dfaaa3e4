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
inverse maps work.  Both are loops, not recursions, so a tree may be as
deep as its input allows.

A tree has at most one distinct edge label per variable and exponent, so
:func:`_build_tree` makes one Monomial for each and every edge that carries
it shares it.  The exports follow suit: ``to_dot`` and ``to_json`` format
each distinct edge label once per call, and render every vertex's label
once, choosing the rendering once per level, since all payloads of a
level have one type.
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


class _EdgeTexts(dict):
    """Edge label -> its text, formatted on first use: a tree's edges share
    their labels, so each distinct one is formatted once per export."""

    def __missing__(self, edge: Monomial) -> str:
        text = self[edge] = str(edge)
        return text


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

    def _labels(self, nodes: list[TreeNode]) -> list[str]:
        """The label text of each vertex of one level.  All payloads of a
        level have one type, so the first one picks the rendering."""
        payloads = [node.payload for node in nodes]
        sample = payloads[0]
        if sample is None:
            return ["*"] * len(payloads)
        if isinstance(sample, tuple) and not isinstance(sample, Monomial):
            if self.kind == "h-tableau":  # partial words read like fillings, not shapes
                return [filling_text((len(word),), word) for word in payloads]
            return [",".join(map(str, shape)) for shape in payloads]
        return list(map(str, payloads))

    def to_dot(self) -> str:
        lines = [
            f'digraph "{self.kind}" {{',
            "  graph [ordering=out];",
            "  node [shape=box];",
        ]
        by_level = self.levels()
        for nodes in by_level.values():
            lines += [
                f'  "{node.node_id}" [label="{label}"];'
                for node, label in zip(nodes, self._labels(nodes))
            ]
        edges = _EdgeTexts()
        for nodes in by_level.values():
            for node in nodes:
                head = f'  "{node.node_id}" -> "'
                lines += [
                    f'{head}{child.node_id}" [label="{edges[child.edge]}"];'
                    for child in node.children
                ]
        for nodes in by_level.values():
            names = " ".join([f'"{node.node_id}";' for node in nodes])
            lines.append(f"  {{ rank=same; {names} }}")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """The tree as nested JSON objects, root first.  Levels are encoded
        bottom up, so each vertex finds its children's entries made."""
        entries: dict = {}  # vertex -> its entry
        edges = _EdgeTexts()
        for key in reversed(self.level_keys):
            nodes = self._levels[key]
            # the key of the payload's own JSON, for the levels that carry one
            extra = {Monomial: "monomial", Filling: "filling"}.get(type(nodes[0].payload))
            for node, label in zip(nodes, self._labels(nodes)):
                entry: dict = {"id": node.node_id, "level": node.level, "label": label}
                if node.edge is not None:
                    entry["edge"] = edges[node.edge]
                if extra:
                    entry[extra] = node.payload.to_json()
                if node.children:
                    entry["children"] = [entries.pop(child) for child in node.children]
                entries[node] = entry
        return {
            "kind": self.kind,
            "n": self.n,
            "levels": [str(k) for k in self.level_keys],
            "root": entries[self.root],
        }


# -- running a construction's step function -----------------------------------


def _build_tree(
    kind: str, n: int, level, state, step: Step, payload, leaf_level=None
) -> LabeledTree:
    """Materialize the tree that ``step`` grows from ``state`` at ``level``.

    Every vertex carries ``payload(level, state)``.  At a leaf the path
    monomial replaces that payload or, given ``leaf_level``, hangs below it
    as a vertex of its own on an edge labelled 1.  Vertices are visited in
    preorder from a stack, so each level's list fills left to right, and
    ``exps`` holds the exponents set on the path to the vertex visited.
    The tree holds one Monomial per distinct edge label, shared by every
    edge that carries it.
    """
    exps = [0] * n
    levels: dict = {}
    edges: dict = {}  # (variable, exponent) -> the label of every such edge
    one = Monomial.one(n)
    root = TreeNode("r", level, payload(level, state), None)
    stack = [(root, state, 1, 0)]
    while stack:
        node, state, var, e = stack.pop()
        exps[var - 1] = e  # the root sets exps[0] to 0, as it already is
        level = node.level
        levels.setdefault(level, []).append(node)
        branch = step(level, state)
        if branch is None and leaf_level is None:
            node.payload = Monomial(exps)
        elif branch is None:
            leaf = TreeNode(f"{node.node_id}.0", leaf_level, Monomial(exps), one)
            node.children.append(leaf)
            levels.setdefault(leaf_level, []).append(leaf)
        else:
            var, exponents, level, child = branch
            prefix = node.node_id + "."
            below = []
            for e in exponents:
                if (edge := edges.get((var, e))) is None:
                    edge = edges[var, e] = Monomial.variable(n, var, e)
                state = child(e)
                vertex = TreeNode(f"{prefix}{e}", level, payload(level, state), edge)
                below.append((vertex, state, var, e))
            node.children = [item[0] for item in below]
            stack += reversed(below)
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
