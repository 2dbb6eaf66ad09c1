"""Shared randomized parameter sweep used by the acceptance suite.

Feasible single-positive-node parameter vectors with every random entry a
rational with numerator and denominator at most 20. The cut point B is
placed inside the admissible interval (above every proper subset sum and
the expected demand, at most the full sum), occasionally exactly at the full
sum to exercise the zero-supply edge case. Deterministic via a fixed seed.
"""

import random
from fractions import Fraction as F
from functools import lru_cache

from optmech import LP2Params

SWEEP_SEED = 20260808
# (n, how many): sizes are weighted toward small n because the closed-form
# suite solves the full revenue program (by constraint generation, replaying
# all 4^n truthfulness rows) for every strictly partial case
SWEEP_PLAN = ((2, 60), (3, 80), (4, 50), (5, 10))
CUT_CHOICES = (F(1, 4), F(1, 2), F(3, 4), F(9, 10), F(1))


def random_single_positive(rng: random.Random, n: int) -> LP2Params:
    while True:
        x = tuple(F(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(n))
        d = tuple(F(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(n))
        p = tuple(F(rng.randint(1, 19), 20) for _ in range(n))
        total = sum(x)
        floor = max(total - min(x), sum(pi * xi for pi, xi in zip(p, x)))
        if floor >= total:
            continue
        cut = rng.choice(CUT_CHOICES)
        return LP2Params(n=n, x=x, B=floor + (total - floor) * cut, d=d, p=p)


@lru_cache(maxsize=1)
def duality_sweep() -> tuple[LP2Params, ...]:
    rng = random.Random(SWEEP_SEED)
    cases = []
    for n, count in SWEEP_PLAN:
        for _ in range(count):
            cases.append(random_single_positive(rng, n))
    return tuple(cases)
