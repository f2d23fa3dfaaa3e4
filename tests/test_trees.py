"""The step-function drivers: recorded levels and one-path descents."""

from hesskit import (
    Monomial,
    b_h_basis,
    build_gp_tree,
    build_h_tableau_tree,
    build_h_tree,
    build_modified_gp_tree,
    garsia_procesi_basis,
    hessenberg_functions,
    psi,
    psi_h,
    core,
    regnilp,
    springer,
)

from oracles import partitions


def trees():
    for n in range(1, 7):
        for mu in partitions(n):
            yield build_gp_tree(mu)
            yield build_modified_gp_tree(mu)
    for n in range(1, 6):
        for h in hessenberg_functions(n):
            yield build_h_tree(h)
            yield build_h_tableau_tree(h)


def test_recorded_levels_agree_with_a_walk():
    for tree in trees():
        grouped: dict = {}
        for node in tree.iter_nodes():  # preorder
            grouped.setdefault(node.level, []).append(node)
        assert tree.levels() == grouped
        # a vertex id holds one "." per edge above it
        depths = {key: {v.node_id.count(".") for v in nodes} for key, nodes in grouped.items()}
        assert all(len(d) == 1 for d in depths.values())
        assert tree.level_keys == sorted(grouped, key=lambda key: min(depths[key]))
        assert list(tree.levels()) == tree.level_keys


def counting(make_step, calls):
    """Wrap a step-function factory so that every ``child`` call is counted."""

    def make(*args):
        step = make_step(*args)

        def counted(level, state):
            branch = step(level, state)
            if branch is None:
                return None
            var, exponents, child_level, child = branch

            def counted_child(e):
                calls.append(e)
                return child(e)

            return var, exponents, child_level, counted_child

        return counted

    return make


def test_psi_h_builds_one_state_per_level(monkeypatch):
    calls: list = []
    monkeypatch.setattr(regnilp, "_h_step", counting(regnilp._h_step, calls))
    n = 6
    for h in hessenberg_functions(n):
        for m in b_h_basis(h):
            calls.clear()
            psi_h(h, m)
            assert len(calls) == n - 1


def test_psi_builds_one_state_per_level(monkeypatch):
    calls: list = []
    monkeypatch.setattr(springer, "_filling_step", counting(springer._filling_step, calls))
    n = 6
    for mu in partitions(n):
        for m in garsia_procesi_basis(mu):
            calls.clear()
            psi(mu, m)
            assert len(calls) == n


def test_garsia_procesi_basis_steps_once_per_shape(monkeypatch):
    shapes: list = []
    step = springer._gp_step
    monkeypatch.setattr(
        springer, "_gp_step", lambda level, shape: shapes.append(shape) or step(level, shape)
    )
    for n in range(1, 8):
        for mu in partitions(n):
            tree = build_gp_tree(mu)  # a leaf holds its monomial, not its shape (1,)
            in_tree = {v.payload for v in tree.iter_nodes() if v.children} | {(1,)}
            shapes.clear()
            garsia_procesi_basis(mu)
            assert sorted(shapes) == sorted(in_tree)
    shapes.clear()
    garsia_procesi_basis((2, 2, 2, 1, 1))
    assert len(shapes) == 17


def edge_variable(tree, parent, child) -> int | None:
    """The variable an edge sets, read off the step rules: the edge below a
    GP-tree vertex at level i sets x_i, the edge into an h-tree vertex at
    level i sets x_i, and the edge to a leaf of its own (level B, or n+1 in
    the h-trees) sets none."""
    if tree.kind in ("gp", "modified-gp"):
        return None if child.level == "B" else parent.level
    return None if child.level == tree.n + 1 else child.level


def test_edges_are_shared_per_tree():
    for tree in trees():
        n = tree.n
        dot_labels = {}  # child id -> the label of the edge into it, from the DOT text
        for line in tree.to_dot().splitlines():
            if " -> " in line:
                parts = line.split('"')  # '  "a" -> "b" [label="x2"];'
                dot_labels[parts[3]] = parts[5]
        one_edge: dict = {}  # (variable, exponent) -> the first edge seen
        for node in tree.iter_nodes():
            for child in node.children:
                var = edge_variable(tree, node, child)
                e = int(child.node_id.rsplit(".", 1)[1])
                expected = Monomial.one(n) if var is None else Monomial.variable(n, var, e)
                assert child.edge == expected
                assert one_edge.setdefault((var, e), child.edge) is child.edge
                assert dot_labels[child.node_id] == str(child.edge)
        assert len(dot_labels) == sum(len(v.children) for v in tree.iter_nodes())


def test_tree_steps_do_not_recheck_shapes(monkeypatch):
    calls: list = []
    as_shape = core.as_shape
    monkeypatch.setattr(core, "as_shape", lambda rows: calls.append(rows) or as_shape(rows))
    mu = (2, 2, 2, 1, 1)
    for build, vertices in ((build_gp_tree, 9419), (build_modified_gp_tree, 19499)):
        calls.clear()
        tree = build(mu)
        assert sum(map(len, tree.levels().values())) == vertices
        assert len(calls) == 1  # the check of mu, not one per vertex
