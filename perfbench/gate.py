"""Correctness gate for benchmark ops; shares no code with hesskit.

Every expected value comes from a closed form (prod(beta), prod(nu), the
multinomial n!/prod(mu_i!), the staircase alpha_i < beta_i) or from the
brute-force oracles in ``tests/oracles.py``, which filter all n! words and
read dimension pairs straight off the definition.  ``check`` returns None
for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import factorial, prod
from operator import add

from oracles import brute_pairs, brute_permissible_words

# -- closed forms ------------------------------------------------------------


def beta(hv) -> tuple[int, ...]:
    """beta_i = i - #{k : h(k) < i}."""
    return tuple(i - sum(1 for v in hv if v < i) for i in range(1, len(hv) + 1))


def nu(hv) -> tuple[int, ...]:
    """nu_i = h(i) - i + 1."""
    return tuple(v - i for i, v in enumerate(hv))


def multinomial(mu) -> int:
    return factorial(sum(mu)) // prod(factorial(r) for r in mu)


def in_staircase(exps, bounds) -> bool:
    return len(exps) == len(bounds) and all(0 <= a < b for a, b in zip(exps, bounds))


def monomial_of(pairs, n: int) -> tuple[int, ...]:
    """Exponent of x_b is the number of pairs (a, b)."""
    exps = [0] * n
    for _, b in pairs:
        exps[b - 1] += 1
    return tuple(exps)


def is_permissible_row(hv, word) -> bool:
    return all(k <= hv[j - 1] for k, j in zip(word, word[1:]))


_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?$")


@lru_cache(maxsize=4096)  # tree edge and leaf labels repeat
def parse_monomial(text: str, n: int) -> tuple[int, ...]:
    exps = [0] * n
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        match = _FACTOR.match(factor)
        if match is None:
            raise ValueError(f"bad monomial {text!r}")
        exps[int(match[1]) - 1] += int(match[2] or 1)
    return tuple(exps)


def parse_word(text: str) -> tuple[int, ...]:
    """Row-reading word of a filling label such as ``54213`` or ``13/24``."""
    return tuple(int(ch) for ch in text.replace("/", ""))


# -- trees ---------------------------------------------------------------------

_DOT_NODE = re.compile(r'  "([^"]+)" \[label="([^"]*)"\];$')
_DOT_EDGE = re.compile(r'  "([^"]+)" -> "([^"]+)" \[label="([^"]*)"\];$')
_DOT_RANK = re.compile(r"  \{ rank=same; (.*) \}$")
_DOT_ID = re.compile(r'"([^"]+)";')


class Tree:
    """Nodes by id: label, level index, edge label from parent, children."""

    def __init__(self):
        self.label: dict[str, str] = {}
        self.level: dict[str, int] = {}
        self.edge: dict[str, str] = {}
        self.parent: dict[str, str] = {}
        self.children: dict[str, list[str]] = {}
        self.extra: dict[str, dict] = {}  # JSON "monomial" / "filling" fields
        self.levels = 0
        self.kind = ""


def parse_dot(text: str) -> Tree:
    lines = text.split("\n")
    header = re.match(r'digraph "([^"]+)" \{$', lines[0])
    if header is None or lines[-2:] != ["}", ""]:
        raise ValueError("not a digraph")
    tree = Tree()
    tree.kind = header[1]
    ranks = []
    for line in lines[3:-2]:
        if m := _DOT_NODE.match(line):
            if m[1] in tree.label:
                raise ValueError(f"duplicate node {m[1]}")
            tree.label[m[1]] = m[2]
            tree.children[m[1]] = []
        elif m := _DOT_EDGE.match(line):
            parent, child = m[1], m[2]
            if child in tree.parent:
                raise ValueError(f"node {child} has two parents")
            tree.parent[child] = parent
            tree.edge[child] = m[3]
            tree.children[parent].append(child)
        elif m := _DOT_RANK.match(line):
            ranks.append(_DOT_ID.findall(m[1]))
        else:
            raise ValueError(f"unparsed line {line!r}")
    tree.levels = len(ranks)
    for index, ids in enumerate(ranks):
        for node in ids:
            tree.level[node] = index
    return tree


def parse_json_tree(text: str) -> Tree:
    data = json.loads(text)
    tree = Tree()
    tree.kind = data["kind"]
    keys = data["levels"]
    tree.levels = len(keys)
    stack = [(data["root"], None)]
    while stack:
        entry, parent = stack.pop()
        node = entry["id"]
        if node in tree.label:
            raise ValueError(f"duplicate node {node}")
        tree.label[node] = entry["label"]
        tree.level[node] = keys.index(str(entry["level"]))
        tree.extra[node] = {k: entry[k] for k in ("monomial", "filling") if k in entry}
        tree.children[node] = [c["id"] for c in entry.get("children", ())]
        if parent is not None:
            tree.parent[node] = parent
            tree.edge[node] = entry["edge"]
        for child in reversed(entry.get("children", ())):
            stack.append((child, node))
    return tree


def check_tree_shape(tree: Tree, n: int, leaves_expected: int) -> list[str]:
    """Structure shared by all four kinds; returns the leaf ids left to right.

    Every leaf sits on the last level, the leaf count is the closed form,
    and each leaf's monomial is the product of the edge labels on its path.
    """
    if set(tree.level) != set(tree.label):
        raise ValueError("nodes and rank lines disagree")
    roots = [v for v in tree.label if v not in tree.parent]
    if len(roots) != 1 or len(tree.parent) != len(tree.label) - 1:
        raise ValueError("not a rooted tree")
    last = tree.levels - 1
    leaves = []
    stack = [(roots[0], (0,) * n)]
    while stack:
        node, exps = stack.pop()
        if not tree.children[node]:
            if tree.level[node] != last:
                raise ValueError(f"leaf {node} above the last level")
            if parse_monomial(tree.label[node], n) != exps:
                raise ValueError(f"leaf {node} label is not its path product")
            if tree.extra and tree.extra[node].get("monomial") != list(exps):
                raise ValueError(f"monomial field of leaf {node} disagrees with its label")
            leaves.append(node)
            continue
        for child in reversed(tree.children[node]):
            if tree.level[child] != tree.level[node] + 1:
                raise ValueError(f"edge {node}->{child} skips a level")
            edge = parse_monomial(tree.edge[child], n)
            stack.append((child, tuple(map(add, exps, edge))))
    if len(leaves) != leaves_expected:
        raise ValueError(f"{len(leaves)} leaves, expected {leaves_expected}")
    return leaves


# -- the gate ------------------------------------------------------------------


class Gate:
    """Checks op outputs against closed forms and the brute-force oracles."""

    def __init__(self):
        self._fillings: dict = {}
        self._gp_basis: dict = {}

    def oracle_fillings(self, hv, mu):
        """Permissible words in lex order with their dimension pairs."""
        key = (tuple(hv), tuple(mu))
        if key not in self._fillings:
            if len(self._fillings) >= 8:
                self._fillings.pop(next(iter(self._fillings)))
            words = brute_permissible_words(hv, mu)
            self._fillings[key] = [(w, brute_pairs(hv, mu, w)) for w in words]
        return self._fillings[key]

    def gp_basis(self, mu) -> dict:
        """B(mu) as monomial -> row-strict word, the oracle image of phi for
        the minimal h, which is a bijection from row-strict fillings."""
        mu = tuple(mu)
        if mu not in self._gp_basis:
            n = sum(mu)
            minimal = tuple(range(1, n + 1))
            image = {monomial_of(p, n): w for w, p in self.oracle_fillings(minimal, mu)}
            self._gp_basis[mu] = image
        return self._gp_basis[mu]

    def check(self, spec: dict, out: dict) -> str | None:
        if "error" in out:
            return out["error"]
        if out.get("exit", 0) != 0 or out.get("stderr"):
            return f"exit {out.get('exit')}: {out.get('stderr', '').strip()}"
        try:
            getattr(self, "_check_" + spec["check"])(spec, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{spec['check']}: {type(exc).__name__}: {exc}"
        return None

    # -- per-op checks; each raises ValueError on a wrong output ----------------

    def _check_onerow(self, spec, out):
        hv = spec["h"]
        b = beta(hv)
        size = prod(b)
        if prod(nu(hv)) != size:
            raise ValueError("closed forms prod(nu) and prod(beta) disagree")
        report = json.loads(out["stdout"])
        expect = {"h": list(hv), "fillings": size, "leaves": size, "prod_nu": size,
                  "prod_beta": size, "a_equals_b": True, "ok": True}
        if report != expect:
            raise ValueError(f"verify reported {report}, expected {expect}")
        if out["groebner"] is not True:
            raise ValueError("generators not reported as a Groebner basis")
        staircase = {tuple(m) for m in out["staircase"]}
        if len(staircase) != size or len(out["staircase"]) != size:
            raise ValueError(f"{len(staircase)} standard monomials, expected {size}")
        if not all(in_staircase(m, b) for m in staircase):
            raise ValueError("standard monomial outside the staircase")
        if out["staircase_eq"] is not True:
            raise ValueError("staircase differs from b_h_basis")

    def _check_betti(self, spec, out):
        dims = [len(p) for _, p in self.oracle_fillings(spec["h"], spec["mu"])]
        expect = [dims.count(k) for k in range(max(dims) + 1)]
        first, poincare = out["stdout"].split("\n")[:2]
        if [int(v) for v in first.split(",")] != expect:
            raise ValueError(f"betti {first}, expected {expect}")
        coeffs = [0] * (len(expect))
        for term in poincare.split(" + "):
            coef, _, power = term.partition("t^")
            coef = coef.rstrip("*")
            k = int(power) // 2 if power else 0
            coeffs[k] += int(coef) if coef else 1
        if coeffs != expect:
            raise ValueError(f"Poincare polynomial {poincare!r} disagrees with {expect}")

    def _check_fillings(self, spec, out):
        hv, mu = spec["h"], spec["mu"]
        n = len(hv)
        records = json.loads(out["stdout"])
        oracle = self.oracle_fillings(hv, mu)
        if len(records) != len(oracle):
            raise ValueError(f"{len(records)} fillings, expected {len(oracle)}")
        for record, (word, pairs) in zip(records, oracle):
            if record["filling"] != {"shape": list(mu), "word": list(word)}:
                raise ValueError(f"filling {record['filling']}, expected word {word}")
            if record["pairs"] != [list(p) for p in sorted(pairs)]:
                raise ValueError(f"pairs of {word} are {record['pairs']}")
            if record["monomial"] != list(monomial_of(pairs, n)):
                raise ValueError(f"monomial of {word} is {record['monomial']}")

    def _check_tree(self, spec, out):
        text = out["stdout"]
        tree = parse_json_tree(text) if spec["format"] == "json" else parse_dot(text)
        if tree.kind != spec["tree"]:
            raise ValueError(f"tree kind {tree.kind}")
        if spec["tree"] in ("h", "h-tableau"):
            self._check_h_tree(spec, tree)
        else:
            self._check_gp_tree(spec, tree)

    def _check_h_tree(self, spec, tree):
        hv = spec["h"]
        n = len(hv)
        b = beta(hv)
        leaves = check_tree_shape(tree, n, prod(b))
        monomials = {parse_monomial(tree.label[v], n) for v in leaves}
        if len(monomials) != len(leaves) or not all(in_staircase(m, b) for m in monomials):
            raise ValueError("leaf monomials are not the staircase")
        if spec["tree"] == "h-tableau":

            def grows(parent, child, _):  # value i inserted into a permissible word
                word, i = parse_word(child), len(parse_word(parent)) + 1
                return (
                    sorted(word) == list(range(1, i + 1))
                    and tuple(v for v in word if v != i) == parse_word(parent)
                    and is_permissible_row(hv, word)
                )

            self._check_steps(tree, grows, "h-tableau")
            # prod(beta) distinct permissible words are all of them, by the
            # closed form for the one-row filling count
            seen = set()
            for leaf in leaves:
                word = parse_word(tree.label[tree.parent[leaf]])
                if sorted(word) != list(range(1, n + 1)) or not is_permissible_row(hv, word):
                    raise ValueError(f"level-n word {word} is not a permissible filling")
                if word in seen:
                    raise ValueError(f"level-n word {word} repeats")
                seen.add(word)
                if parse_monomial(tree.label[leaf], n) != monomial_of(brute_pairs(hv, (n,), word), n):
                    raise ValueError(f"leaf under {word} is not phi of it")
                self._check_filling_field(tree, tree.parent[leaf], word, (n,))

    def _check_gp_tree(self, spec, tree):
        mu = tuple(spec["mu"])
        n = sum(mu)
        basis = self.gp_basis(mu)
        leaves = check_tree_shape(tree, n, multinomial(mu))
        monomials = [parse_monomial(tree.label[v], n) for v in leaves]
        if set(monomials) != set(basis) or len(set(monomials)) != len(monomials):
            raise ValueError("leaf monomials are not the Garsia-Procesi basis")
        if spec["tree"] == "gp":

            def deletes(parent, child, _):  # one box off a row end, rows re-sorted
                rows = [int(r) for r in parent.split(",")]
                shrunk = (rows[:r] + [rows[r] - 1] + rows[r + 1 :] for r in range(len(rows)))
                options = {",".join(map(str, sorted(filter(None, s), reverse=True))) for s in shrunk}
                return child in options

            self._check_steps(tree, deletes, "GP-tree")
        else:

            def fills(parent, child, level):  # the level's value written into one empty box
                diff = [(a, b) for a, b in zip(parent, child) if a != b]
                return len(parent) == len(child) and diff == [(".", str(n - level))]

            self._check_steps(tree, fills, "modified GP-tree")
            for leaf, mono in zip(leaves, monomials):
                word = parse_word(tree.label[tree.parent[leaf]])
                if basis[mono] != word:
                    raise ValueError(f"level-0 filling {word} does not map to {mono}")
                self._check_filling_field(tree, tree.parent[leaf], word, mu)

    @staticmethod
    def _check_steps(tree, step_ok, what: str) -> None:
        """Every edge between internal nodes is one legal construction step."""
        for child, parent in tree.parent.items():
            if tree.children[child] and not step_ok(tree.label[parent], tree.label[child], tree.level[parent]):
                raise ValueError(f"{what} step {tree.label[parent]!r} -> {tree.label[child]!r}")

    @staticmethod
    def _check_filling_field(tree, filled, word, shape):
        """A JSON node repeats its filling label as a structured field."""
        if tree.extra and tree.extra[filled].get("filling") != {"shape": list(shape), "word": list(word)}:
            raise ValueError(f"filling field of {filled} disagrees with its label")

    def _check_basis(self, spec, out):
        mu = tuple(spec["mu"])
        n = sum(mu)
        listed = [parse_monomial(line, n) for line in out["stdout"].splitlines()]
        if len(listed) != multinomial(mu) or listed != sorted(self.gp_basis(mu)):
            raise ValueError(f"basis of {mu} differs from the oracle ({len(listed)} monomials)")

    def _check_psi(self, spec, out):
        mu = spec["mu"]
        got = out["fillings"]
        if len(got) != len(spec["expect"]):
            raise ValueError("wrong number of fillings")
        for filling, word in zip(got, spec["expect"]):
            if filling != {"shape": list(mu), "word": list(word)}:
                raise ValueError(f"psi gave {filling}, expected {word}")

    def _check_psi_h(self, spec, out):
        hv = spec["h"]
        n = len(hv)
        got = out["fillings"]
        if len(got) != len(spec["monomials"]):
            raise ValueError("wrong number of fillings")
        for filling, mono in zip(got, spec["monomials"]):
            word = tuple(filling["word"])
            if filling["shape"] != [n] or sorted(word) != list(range(1, n + 1)):
                raise ValueError(f"psi_h gave {filling}, not a one-row filling")
            if not is_permissible_row(hv, word):
                raise ValueError(f"psi_h gave non-permissible {word}")
            if monomial_of(brute_pairs(hv, (n,), word), n) != tuple(mono):
                raise ValueError(f"phi(psi_h({mono})) = phi({word}) is not {mono}")
