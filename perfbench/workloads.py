"""Seeded op streams for the three workloads, all at n = 8.

Op cost varies by orders of magnitude with the input (prod(beta) for one-row
work, the permissible-filling count for general shapes, the leaf count for
trees).  Plain random draws would make every run's mix, and so its numbers,
depend on luck.  Each stream therefore sorts its pool by that size, cuts it
into equal-count strata and visits the strata in bit-reversed order, drawing
one input per stratum with the seed.  Every prefix of the stream then covers
the whole size range evenly, whatever the seed and wherever a run stops.

Nothing here imports hesskit: sizes come from closed forms and from a numpy
count of permissible words.
"""

from __future__ import annotations

from itertools import permutations
from math import prod
from random import Random

import numpy as np

from gate import beta, monomial_of, multinomial
from oracles import brute_pairs, partitions

N = 8
# Trees and general-shape fillings above 7! = 5040 leaves or fillings make
# single ops of several seconds, too few per run for a stable p90.
MAX_OUTPUT = 5040
PSI_SAMPLE = 32


def hessenberg_values(n: int) -> list[tuple[int, ...]]:
    """All Catalan(n) Hessenberg functions, as value tuples."""
    out = []

    def extend(prefix):
        i = len(prefix) + 1
        if i > n:
            out.append(tuple(prefix))
            return
        for v in range(max(i, prefix[-1] if prefix else 1), n + 1):
            extend(prefix + [v])

    extend([])
    return out


def balanced(size: int) -> list[int]:
    """0..size-1 in bit-reversed order, so every prefix spreads evenly."""
    bits = max(size - 1, 1).bit_length()
    order = (int(format(k, f"0{bits}b")[::-1], 2) for k in range(1 << bits))
    return [k for k in order if k < size]


def strata(pool: list, size_of, count: int) -> list[list]:
    """``count`` equal-count slices of the pool ranked by size."""
    ranked = sorted(pool, key=lambda item: (size_of(item), item))
    return [ranked[k * len(ranked) // count : (k + 1) * len(ranked) // count] for k in range(count)]


def stratified(rng: Random, layers: list[list]):
    """Endless stream: one seeded draw per stratum, strata in balanced order."""
    order = balanced(len(layers))
    while True:
        for k in order:
            yield rng.choice(layers[k])


def prod_beta(hv) -> int:
    """Leaf count of the h-trees and one-row filling count."""
    return prod(beta(hv))


def arg(values) -> str:
    return ",".join(map(str, values))


# -- onerow-verify ---------------------------------------------------------------


def onerow_verify(rng: Random):
    pool = hessenberg_values(N)
    largest = max(pool, key=prod_beta)
    # The largest h (prod(beta) = 8!) is a stratum of its own, so every run
    # holds the workload's biggest op and peak_rss_mb compares like with like.
    layers = strata([hv for hv in pool if hv != largest], prod_beta, 255) + [[largest]]
    for hv in stratified(rng, layers):
        yield {"kind": "onerow", "check": "onerow", "h": hv}


# -- shapes-betti ----------------------------------------------------------------


def _adjacency_mask(mu) -> int:
    """Bit p is set when word positions p and p+1 share a row of mu."""
    mask, start = 0, 0
    for length in mu:
        for p in range(start, start + length - 1):
            mask |= 1 << p
        start += length
    return mask


def filling_counts(hvs, mus) -> dict:
    """Permissible-filling count for each (h, mu): words whose adjacent
    entries k, j satisfy k <= h(j) at every position mu joins."""
    words = np.array(list(permutations(range(1, N + 1))), dtype=np.int64)
    weights = 1 << np.arange(N - 1)
    supersets = {
        mu: [m for m in range(1 << (N - 1)) if m & _adjacency_mask(mu) == _adjacency_mask(mu)]
        for mu in mus
    }
    counts = {}
    for hv in hvs:
        harr = np.asarray(hv, dtype=np.int64)
        ok = words[:, :-1] <= harr[words[:, 1:] - 1]
        per_mask = np.bincount(ok @ weights, minlength=1 << (N - 1))
        for mu in mus:
            counts[(hv, mu)] = int(per_mask[supersets[mu]].sum())
    return counts


def shapes_betti(rng: Random):
    mus = [mu for mu in partitions(N) if 1 < len(mu) < N]
    hvs = rng.sample(hessenberg_values(N), 256)
    sizes = filling_counts(hvs, mus)
    pool = [pair for pair, size in sizes.items() if size <= MAX_OUTPUT]
    for hv, mu in stratified(rng, strata(pool, sizes.__getitem__, 64)):
        common = {"h": hv, "mu": mu}
        yield {"kind": "cli", "check": "betti", "argv": ["betti", "--h", arg(hv), "--mu", arg(mu)], **common}
        yield {
            "kind": "cli",
            "check": "fillings",
            "argv": ["fillings", "--h", arg(hv), "--mu", arg(mu), "--format", "json"],
            **common,
        }


# -- trees-export ----------------------------------------------------------------


def _tree_op(kind: str, fmt: str, **inputs) -> dict:
    flag, values = ("--mu", inputs["mu"]) if "mu" in inputs else ("--h", inputs["h"])
    return {
        "kind": "cli",
        "check": "tree",
        "tree": kind,
        "format": fmt,
        "argv": ["tree", "--kind", kind, flag, arg(values), "--format", fmt],
        **inputs,
    }


def _mu_group(rng: Random, mu) -> list[dict]:
    ops = [_tree_op(kind, fmt, mu=mu) for kind in ("gp", "modified-gp") for fmt in ("dot", "json")]
    ops.append({"kind": "cli", "check": "basis", "mu": mu, "argv": ["basis", "--mu", arg(mu)]})
    minimal = tuple(range(1, N + 1))
    words = []
    for _ in range(PSI_SAMPLE):
        shuffled = rng.sample(range(1, N + 1), N)
        word, start = [], 0
        for length in mu:  # sorted rows of a random word: a uniform row-strict filling
            word += sorted(shuffled[start : start + length])
            start += length
        words.append(tuple(word))
    monomials = [monomial_of(brute_pairs(minimal, mu, w), N) for w in words]
    ops.append({"kind": "psi", "check": "psi", "mu": mu, "monomials": monomials, "expect": words})
    return ops


def _h_group(rng: Random, hv) -> list[dict]:
    ops = [_tree_op(kind, fmt, h=hv) for kind in ("h", "h-tableau") for fmt in ("dot", "json")]
    bounds = beta(hv)
    monomials = [tuple(rng.randrange(b) for b in bounds) for _ in range(PSI_SAMPLE)]
    ops.append({"kind": "psi_h", "check": "psi_h", "h": hv, "monomials": monomials})
    return ops


def trees_export(rng: Random):
    """Each cycle builds every tree kind for all 18 shapes with at most 7!
    leaves and for one h from each of 16 prod(beta) strata.  The 34 groups
    are ranked by leaf count and visited in balanced order."""
    mus = [mu for mu in partitions(N) if multinomial(mu) <= MAX_OUTPUT]
    hs = [hv for hv in hessenberg_values(N) if prod_beta(hv) <= MAX_OUTPUT]
    h_strata = strata(hs, prod_beta, 16)
    groups = [(multinomial(mu), "mu", mu) for mu in mus]
    groups += [(prod_beta(layer[len(layer) // 2]), "h", layer) for layer in h_strata]
    groups.sort()
    order = balanced(len(groups))
    while True:
        for k in order:
            _, kind, value = groups[k]
            yield from (_mu_group(rng, value) if kind == "mu" else _h_group(rng, rng.choice(value)))


def _polyalg_self_s(m: dict) -> float:
    return sum(v for k, v in m.items() if k.startswith("polyalg.") and k.endswith(".self_s"))


# Which layers each workload must (not) exercise, read off a traced run.
LAYER_SPLIT = {
    "onerow-verify": (
        "core and polyalg self time is most of the op time",
        lambda m: m["trace.core_polyalg_frac"] > 0.5,
    ),
    "shapes-betti": ("polyalg does no work", lambda m: _polyalg_self_s(m) == 0),
    "trees-export": (
        "no n! filter and no polyalg work",
        lambda m: m["core.enumerate_fillings.calls"] == 0 and _polyalg_self_s(m) == 0,
    ),
}

# name -> (op stream factory, ops per cycle of all strata, ops in a traced run)
WORKLOADS = {
    "onerow-verify": (onerow_verify, 256, 96),
    "shapes-betti": (shapes_betti, 128, 64),
    "trees-export": (trees_export, 188, 188),
}


def ops(name: str, seed: int):
    factory, cycle, traced_ops = WORKLOADS[name]
    return factory(Random(f"{name}:{seed}")), cycle, traced_ops
