"""Seeded input generation for the four benchmark workloads.

Every workload is a pool of input files plus, per file, the CLI argv that
runs it and what the benchmark itself knows the answer must satisfy. The
pool depends on the seed alone, is written with plain `fractions` and
`random` (never with the package under test), and is byte-identical for a
given seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations
from math import comb

# The random single-positive-node family of the acceptance sweep: every
# entry a rational with numerator and denominator at most 20, the cut point B
# placed between the largest proper subset sum / the expected demand and the
# full sum.
CUT_CHOICES = (F(1, 4), F(1, 2), F(3, 4), F(9, 10), F(1))

# Per-op sizes cycle in this fixed order, so every seed loads each size in the
# same proportion and seeds differ only in the values drawn.
CERTIFY_SIZES = (3,)
SOLVE_SIZES = (5, 6, 7, 6, 5, 6, 6, 7, 5, 6)
REDUCTION_SIZES = (4, 5, 6, 7)
BUDGETED_SIZES = (1, 2, 3, 4)

# Only the reduction path keeps caches (keyed on the query), so only its pool
# must outlast a run: about twice the ops one run completes today. The other
# pools are reused cyclically, which changes nothing for them.
POOL_SIZES = {"certify": 400, "solve": 400, "reduction": 1600, "budgeted": 1000}


@dataclass(frozen=True)
class Op:
    """One CLI call: argv for `optmech.cli.main` and the expected answer."""

    argv: tuple[str, ...]
    path: str
    expect: dict


def _fmt(v: F) -> str:
    """The package's wire format: "9/2", or "4" for integers."""
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def random_single_positive(rng: random.Random, n: int):
    """(x, B, d, p) with the single-positive-node property and B > sum p x."""
    while True:
        x = tuple(F(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(n))
        d = tuple(F(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(n))
        p = tuple(F(rng.randint(1, 19), 20) for _ in range(n))
        total = sum(x)
        floor = max(total - min(x), sum(pi * xi for pi, xi in zip(p, x)))
        if floor >= total:
            continue
        cut = rng.choice(CUT_CHOICES)
        return x, floor + (total - floor) * cut, d, p


def instance_doc(rng: random.Random, n: int) -> dict:
    """Instance JSON for a random single-positive parameter vector, through
    the inverse parameter map kappa = B - sum p x, a = p d x / kappa."""
    x, B, d, p = random_single_positive(rng, n)
    kappa = B - sum(pi * xi for pi, xi in zip(p, x))
    a = [pi * di * xi / kappa for pi, di, xi in zip(p, d, x)]
    return {
        "n": n,
        "a": [_fmt(v) for v in a],
        "d": [_fmt(v) for v in d],
        "p": [_fmt(v) for v in p],
    }


def brute_rank(C: list[int], S: list[int]) -> int:
    """Rank of S among same-size subsets of {1..|C|} by (sum, bitmask with
    item i at bit i-1); counts S itself."""
    def key(T):
        return sum(C[i - 1] for i in T), sum(1 << (i - 1) for i in T)

    target = key(S)
    return sum(
        1 for T in combinations(range(1, len(C) + 1), len(S)) if key(T) <= target
    )


def best_affordable(x: list[int], budget: int) -> int:
    """Largest bundle value not above the budget, by enumeration."""
    n = len(x)
    best = 0
    for mask in range(1 << n):
        value = sum(x[i] for i in range(n) if mask >> i & 1)
        if best < value <= budget:
            best = value
    return best


def _certify(rng, i):
    n = CERTIFY_SIZES[i % len(CERTIFY_SIZES)]
    return instance_doc(rng, n), ["solve", "{path}", "--oracle"], {"n": n}


def _solve(rng, i):
    n = SOLVE_SIZES[i % len(SOLVE_SIZES)]
    return instance_doc(rng, n), ["solve", "{path}"], {"n": n}


def _reduction(rng, i):
    n = REDUCTION_SIZES[i % len(REDUCTION_SIZES)]
    C = [rng.randint(1, 6) for _ in range(n)]
    s = rng.randint(1, n - 1)
    S = sorted(rng.sample(range(1, n + 1), s))
    k = rng.randint(1, comb(n, s))
    expect = {"n": n, "s": s, "k": k, "yes": brute_rank(C, S) <= k}
    return {"C": C, "S": S, "k": k}, ["reduce", "lexrank", "{path}"], expect


def _budgeted(rng, i):
    n = BUDGETED_SIZES[i % len(BUDGETED_SIZES)]
    x = [rng.randint(1, 6) for _ in range(n)]
    total = sum(x)
    budget = rng.randint(1, total)
    eps = F(1, rng.choice((2, 10)) + total)
    revenue = (1 - eps) * total + eps * best_affordable(x, budget)
    doc = {"x": x, "budget": budget, "eps": _fmt(eps)}
    return doc, ["budgeted", "{path}", "--oracle"], {"n": n, "revenue": _fmt(revenue)}


GENERATORS = {
    "certify": _certify,
    "solve": _solve,
    "reduction": _reduction,
    "budgeted": _budgeted,
}


def write_pool(workload: str, seed: int, directory: str, size: int | None = None) -> list[Op]:
    """Write the workload's input files for `seed` into `directory` and
    return the ops that run them, in run order."""
    make = GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(directory, exist_ok=True)
    ops = []
    for i in range(POOL_SIZES[workload] if size is None else size):
        doc, argv, expect = make(rng, i)
        path = os.path.join(directory, f"{workload}-{i:05d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, sort_keys=True) + "\n")
        ops.append(Op(tuple(a.replace("{path}", path) for a in argv), path, expect))
    return ops
