"""Independent brute-force oracles used by the test suite.

Everything here recomputes results straight from the definitions (all n!
word placements, literal dimension-pair conditions) without touching the
library's enumeration or tree code, so library outputs can be checked
against an implementation that shares no code path with them.  The numpy
variants exist only to make the full n=8 sweep affordable; they are
themselves validated against the pure-Python oracle at small n.  The
cocharge formula for the Springer Betti numbers is a closed form, not a
brute force: it reaches shapes whose fillings are too many to filter.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial, prod

import numpy as np


def partitions(n: int) -> list[tuple[int, ...]]:
    """All integer partitions of n, parts weakly decreasing."""

    def gen(remaining: int, bound: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def compositions(n: int, allow_zero_rows: bool = False) -> list[tuple[int, ...]]:
    """Compositions of n with positive parts; optionally pad with zero rows."""

    def gen(remaining: int):
        if remaining == 0:
            yield ()
            return
        for first in range(1, remaining + 1):
            for rest in gen(remaining - first):
                yield (first,) + rest

    out = list(gen(n))
    if allow_zero_rows:
        out += [(c[0], 0) + c[1:] for c in out if len(c) > 1]
    return out


def brute_pairs(h_values, shape, word) -> set[tuple[int, int]]:
    """Dimension pairs straight from the three conditions of the definition."""
    n = len(word)
    coords = []
    k = 0
    for r, length in enumerate(shape, start=1):
        for c in range(1, length + 1):
            coords.append((r, c))
            k += 1
    pos = {word[i]: coords[i] for i in range(n)}
    at = {coords[i]: word[i] for i in range(n)}
    pairs = set()
    for a in range(1, n + 1):
        ra, ca = pos[a]
        neighbor = at.get((ra, ca + 1))
        for b in range(a + 1, n + 1):
            rb, cb = pos[b]
            if not (cb < ca or (cb == ca and rb > ra)):
                continue
            if neighbor is not None and b > h_values[neighbor - 1]:
                continue
            pairs.add((a, b))
    return pairs


def brute_permissible_words(h_values, shape) -> list[tuple[int, ...]]:
    """n!-filter enumeration of permissible row-reading words, lex order."""
    n = sum(shape)
    adjacent = []
    start = 0
    for length in shape:
        adjacent.extend((start + k, start + k + 1) for k in range(length - 1))
        start += length
    return [
        w
        for w in permutations(range(1, n + 1))
        if all(w[p] <= h_values[w[q] - 1] for p, q in adjacent)
    ]


@lru_cache(maxsize=4)
def _word_tables(n: int):
    """All n! words plus, per word, the left-neighbor value of each entry.

    ``left[w, v]`` is the value immediately left of v in word w (0 if v is
    leftmost); a word is permissible for h exactly when left[w, v] <= h(v)
    for every v.
    """
    perms = np.array(list(permutations(range(1, n + 1))), dtype=np.int64)
    m = len(perms)
    left = np.zeros((m, n + 1), dtype=np.int64)
    rows = np.arange(m)
    for p in range(1, n):
        left[rows, perms[:, p]] = perms[:, p - 1]
    return perms, left


def fast_filling_count(h_values) -> int:
    """Number of permissible one-row fillings, by filtering all n! words."""
    n = len(h_values)
    _, left = _word_tables(n)
    harr = np.asarray(h_values, dtype=np.int64)
    return int(np.all(left[:, 1:] <= harr, axis=1).sum())


def fast_phi_exponents(h_values) -> np.ndarray:
    """Exponent vectors of the monomial image of every permissible one-row
    filling, one row per filling (column v-1 is the exponent of x_v)."""
    n = len(h_values)
    perms, left = _word_tables(n)
    harr = np.asarray(h_values, dtype=np.int64)
    words = perms[np.all(left[:, 1:] <= harr, axis=1)]
    m = len(words)
    # cap[p] bounds b in a pair (a, b) with a at position p: h of a's right
    # neighbor, or n at the last position
    caps = np.concatenate(
        [harr[words[:, 1:] - 1], np.full((m, 1), n, dtype=np.int64)], axis=1
    )
    exps = np.zeros((m, n), dtype=np.int64)
    for p in range(1, n):
        a = words[:, p]
        cap = caps[:, p]
        for q in range(p):
            b = words[:, q]
            hit = (b > a) & (b <= cap)
            np.add.at(exps, (np.nonzero(hit)[0], b[hit] - 1), 1)
    return exps


def fast_a_equals_b(h_values, beta) -> bool:
    """Does the monomial image of all permissible one-row fillings equal the
    staircase {alpha : alpha_i < beta_i}, as sets?"""
    exps = fast_phi_exponents(h_values)
    beta = np.asarray(beta, dtype=np.int64)
    if len(exps) != prod(int(b) for b in beta):
        return False
    if np.any(exps >= beta):
        return False
    weights = np.concatenate([[1], np.cumprod(beta[:-1])])
    codes = exps @ weights
    return bool(np.all(np.bincount(codes, minlength=int(np.prod(beta))) == 1))


def standard_young_count(shape) -> int:
    """f^shape, the number of standard Young tableaux, by the hook length formula."""
    cols = [sum(1 for r in shape if r > c) for c in range(shape[0] if shape else 0)]
    hooks = prod(shape[r] - c + cols[c] - r - 1 for r in range(len(shape)) for c in range(shape[r]))
    return factorial(sum(shape)) // hooks


def _horizontal_strips(shape, size):
    """The partitions nu inside shape with shape/nu a horizontal strip of the given size."""

    def gen(r, left):
        if r == len(shape):
            if left == 0:
                yield ()
            return
        below = shape[r + 1] if r + 1 < len(shape) else 0
        for take in range(min(left, shape[r] - below), -1, -1):
            for rest in gen(r + 1, left - take):
                yield (shape[r] - take,) + rest

    return gen(0, size)


def semistandard_words(shape, content):
    """Reading words of the semistandard tableaux of a shape and content: rows
    top to bottom, each read right to left (Macdonald's w(T))."""

    def fill(shape, k):
        # the entries equal to k form a horizontal strip at the end of each row
        if k == 0:
            yield [[] for _ in shape]
            return
        for inner in _horizontal_strips(shape, content[k - 1]):
            inner = tuple(inner) + (0,) * (len(shape) - len(inner))
            for rows in fill(inner, k - 1):
                yield [row + [k] * (length - len(row)) for row, length in zip(rows, shape)]

    for rows in fill(tuple(shape), len(content)):
        yield [v for row in rows for v in reversed(row)]


def charge(word) -> int:
    """Lascoux-Schuetzenberger charge of a word whose content is a partition.

    Standard subwords are taken off one at a time: read rightwards,
    cyclically from the left end, for a 1, then a 2, and so on.  The index
    starts at 0 for the 1 and grows by one each time r + 1 is only found
    after wrapping round, left of r; the charge is the sum of all indices."""
    word = list(word)
    total = 0
    while word:
        pos, index, taken = -1, 0, []
        for r in range(1, max(word) + 1):
            order = list(range(pos + 1, len(word))) + list(range(pos + 1))
            p = next(q for q in order if word[q] == r)
            if p < pos:
                index += 1
            total += index
            taken.append(p)
            pos = p
        word = [v for q, v in enumerate(word) if q not in taken]
    return total


def springer_hilbert_series(mu) -> list[int]:
    """Coefficients of the Hilbert series of the Garsia-Procesi ring R_mu,
    sum over semistandard T of content mu of f^shape(T) t^cocharge(T), with
    cocharge = n(mu) - charge; these are the Springer fiber's even Betti numbers."""
    n_mu = sum(i * m for i, m in enumerate(mu))
    series = [0] * (n_mu + 1)
    for shape in partitions(sum(mu)):
        f = standard_young_count(shape)
        for word in semistandard_words(shape, mu):
            series[n_mu - charge(word)] += f
    while series and not series[-1]:
        series.pop()
    return series
