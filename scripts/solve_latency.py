#!/usr/bin/env python3
"""In-process CLI latency of `solve`, `reduce lexrank` and `budgeted --oracle`
as a function of n.

    python3 scripts/solve_latency.py

Imports the package from the `src` directory of the checkout this script
sits in, and the seeded single-positive instance generator of the `solve`
benchmark workload from its `perfbench` directory; uses the standard library
only. For each n in SIZES it writes one instance drawn from SEED to a
temporary directory, then times `optmech.cli.main(["solve", ...])` three
ways: plain, with `--json-out` and with `--dump-lattice`. The dense-support
table times plain `solve` on one instance built by the reduction
(`hard_doc`: a rank query at its middle rank, drawn from a stream seeded
with SEED) for each n in DENSE_SIZES, next to the support of its menu, the
types with u > 0, which holds the pricing and the certificate's work. A
second table
times `solve --oracle`, which also solves the full revenue program exactly,
for each n in ORACLE_SIZES, and `solve --oracle-only` on one general
instance (a_i from 0 to 10, so not single-positive, which `--oracle`
refuses) for each n in GENERAL_SIZES, both in milliseconds. A third table
times `reduce lexrank` in milliseconds on one query drawn like the
`reduction` workload's (entries 1..6, a random probe set and k) for each
|C| in RANK_SIZES, and a fourth `budgeted --oracle`, in milliseconds, on one
instance drawn like the `budgeted` workload's (values 1..6, a random budget
and eps) for each n in BUDGETED_SIZES, which holds the workload's n = 1..4.
Another table times `solve --oracle-only` in seconds, with the round count
and the optimal revenue, on GENERAL_N6 general instances at n = 6, drawn
in turn with `general_doc` from a stream of their own seeded with
GENERAL_N6_SEED (the draw `exactlp.LP1_GUARD` is timed on), and then on
NAMED_N6, the slowest n = 6 instance known under smallest-index pricing.
A last table times `exactlp.solve_lp1` itself in seconds, with the round
count and the optimal revenue, on GENERAL_N7 general instances at n = 7,
one past `exactlp.LP1_GUARD`, drawn with `general_doc` from a stream
seeded with GENERAL_N7_SEED; the guard is lifted for those calls only, in
this process only. Each figure of that table is one run, since a slow
instance can take minutes; every other figure, the n = 6 table's
included, is the minimum of REPEATS runs. Stdout is captured and the exit code required to be 0. The
reduction's parameter and pipeline caches are cleared before every run, so
each figure is a cold query, except in the reduction table's warm column:
there the parameter bisection's cache
keeps the query's (|C|, |S|, k) from the cold runs and only the pipeline
cache is cleared. That is the steady state of the `reduction` workload,
whose |C| = 4..7 queries share at most 232 parameter keys. No table figure
includes building the argument parser, which `main` does on its first call
only. The one-off costs come first: that parser build (the minimum of
REPEATS uncached builds) and the peak RSS of a fresh interpreter that has
imported `optmech.cli`. The last line gives this process's peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import comb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import inputs  # noqa: E402
from optmech import (  # noqa: E402
    canonical_solution,
    closed_form_mechanism,
    exactlp,
    from_lp2_params,
    instance_to_json,
    lexrank_to_omd,
    reduction,
    to_lp2_params,
)
from optmech.cli import build_parser, main  # noqa: E402
from optmech.core import format_rational, instance_from_json_dict  # noqa: E402

SEED = 1
SIZES = (8, 10, 12, 14)
DENSE_SIZES = (10, 12, 14)
ORACLE_SIZES = (3, 4, 5, 6)
GENERAL_SIZES = (3, 4, 5)
RANK_SIZES = (4, 7, 10, 13)
BUDGETED_SIZES = (1, 2, 3, 4, 6, 8, 10)
REPEATS = 3
GENERAL_N6 = 12
GENERAL_N6_SEED = "guard-general:7"
GENERAL_N7 = 24
GENERAL_N7_SEED = "n7-reanchor"
NAMED_N6 = {
    "n": 6,
    "a": ["4", "10", "6", "5", "9", "7"],
    "d": ["3", "1", "6", "8", "10", "9"],
    "p": ["7/10", "17/20", "1/4", "9/10", "1/4", "17/20"],
}


def best_of(argv: list[str], keep_parameters: bool = False) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        if not keep_parameters:
            reduction._find_parameter.cache_clear()
        reduction._build_reduction.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"exit {code} from {argv}")
        best = min(best, elapsed)
    return best


@contextlib.contextmanager
def counting_rounds():
    """Counts the `exactlp._simplex_max` runs, one per LP1 round, that the
    block makes: the yielded list holds the count."""
    rounds, simplex = [0], exactlp._simplex_max

    def counting_simplex(*args):
        rounds[0] += 1
        return simplex(*args)

    exactlp._simplex_max = counting_simplex
    try:
        yield rounds
    finally:
        exactlp._simplex_max = simplex


def lp1_best(path: str, doc: dict) -> tuple[float, int, str]:
    """`solve --oracle-only`, the minimum seconds of REPEATS runs, with the
    LP1 rounds (one simplex run each) and the printed value of the last."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    best = float("inf")
    for _ in range(REPEATS):
        out = io.StringIO()
        with counting_rounds() as rounds, contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = main(["solve", path, "--oracle-only"])
            elapsed = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"exit {code} from solve --oracle-only on {doc}")
        best = min(best, elapsed)
    prefix = "oracle optimal revenue: "
    value = next(line for line in out.getvalue().splitlines() if line.startswith(prefix))
    return best, rounds[0], value[len(prefix):]


def lp1_past_guard(doc: dict) -> tuple[float, int, str]:
    """One `exactlp.solve_lp1` call with `exactlp.LP1_GUARD` raised to the
    instance's n for that call only: seconds, rounds and the value."""
    inst = instance_from_json_dict(doc)
    guard = exactlp.LP1_GUARD
    exactlp.LP1_GUARD = max(guard, inst.n)
    try:
        with counting_rounds() as rounds:
            t0 = time.perf_counter()
            value = exactlp.solve_lp1(inst).value
            elapsed = time.perf_counter() - t0
    finally:
        exactlp.LP1_GUARD = guard
    return elapsed, rounds[0], format_rational(value)


def parser_build_s() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        build_parser.__wrapped__()
        best = min(best, time.perf_counter() - t0)
    return best


def import_peak_rss_mib() -> float:
    """Peak RSS of a fresh interpreter once `optmech.cli` is imported."""
    code = (
        f"import resource, sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); "
        "import optmech.cli; "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          stdout=subprocess.PIPE, text=True)
    return int(done.stdout) / 1024


def general_doc(rng: random.Random, n: int) -> dict:
    """A seeded instance with integer a_i in 0..10 and d_i in 1..10."""
    return {
        "n": n,
        "a": [str(rng.randint(0, 10)) for _ in range(n)],
        "d": [str(rng.randint(1, 10)) for _ in range(n)],
        "p": [f"{rng.randint(1, 19)}/20" for _ in range(n)],
    }


def hard_doc(rng: random.Random, n: int, middle: bool = False) -> dict:
    """The instance document that the reduction (`lexrank_to_omd`) builds
    for a seeded rank query over n - 1 entries in 1..6: a random probe set
    and rank, or with ``middle`` a probe set of (n - 1) // 2 entries at the
    middle rank, whose menu has a large support."""
    m = n - 1
    C = [rng.randint(1, 6) for _ in range(m)]
    s = m // 2 if middle else rng.randint(1, m - 1)
    k = comb(m, s) // 2 if middle else rng.randint(1, comb(m, s))
    S = sum(1 << i for i in rng.sample(range(m), s))
    return json.loads(instance_to_json(from_lp2_params(lexrank_to_omd(C, S, k).params)[0]))


def support_size(doc: dict) -> int:
    """The number of types with u > 0 in the closed-form menu of ``doc``."""
    inst = instance_from_json_dict(doc)
    mech = closed_form_mechanism(inst, canonical_solution(to_lp2_params(inst)))
    return sum(1 for v in mech.scaled_u if v)


def rank_query_doc(rng: random.Random, n: int) -> dict:
    """A seeded rank query over n entries in 1..6."""
    C = [rng.randint(1, 6) for _ in range(n)]
    s = rng.randint(1, n - 1)
    k = rng.randint(1, comb(n, s))
    return {"C": C, "S": sorted(rng.sample(range(1, n + 1), s)), "k": k}


def budgeted_doc(rng: random.Random, n: int) -> dict:
    """A seeded budgeted instance: n values in 1..6 and a budget up to their sum."""
    x = [rng.randint(1, 6) for _ in range(n)]
    eps = Fraction(1, rng.choice((2, 10)) + sum(x))
    return {"x": x, "budget": rng.randint(1, sum(x)), "eps": str(eps)}


def timed(path: str, doc: dict, argv: list[str]) -> float:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return best_of(argv)


def run() -> None:
    rng = random.Random(SEED)
    print(f"python {sys.version.split()[0]}, seed {SEED}, min of {REPEATS}")
    print(f"parser build (once per process) {parser_build_s() * 1e3:.3f} ms")
    print(f"fresh interpreter after `import optmech.cli`: peak RSS "
          f"{import_peak_rss_mib():.1f} MiB")
    print(f"{'n':>3} {'plain s':>9} {'json-out s':>11} {'dump-lattice s':>15}")
    with tempfile.TemporaryDirectory() as tmp:
        inst = os.path.join(tmp, "inst.json")
        for n in SIZES:
            with open(inst, "w", encoding="utf-8") as handle:
                json.dump(inputs.instance_doc(rng, n), handle)
            plain = best_of(["solve", inst])
            json_out = best_of(["solve", inst, "--json-out", os.path.join(tmp, "m.json")])
            dump = best_of(["solve", inst, "--dump-lattice", os.path.join(tmp, "l.txt")])
            print(f"{n:>3} {plain:>9.3f} {json_out:>11.3f} {dump:>15.3f}")
        dense = random.Random(SEED)
        print(f"{'n':>3} {'dense plain s':>14} {'support':>8}")
        for n in DENSE_SIZES:
            doc = hard_doc(dense, n, middle=True)
            plain = timed(inst, doc, ["solve", inst])
            print(f"{n:>3} {plain:>14.3f} {support_size(doc):>8}")
        # general instances draw from a stream of their own, so the
        # single-positive draws do not depend on GENERAL_SIZES
        general = random.Random(SEED)
        print(f"{'n':>3} {'oracle ms':>10} {'general oracle-only ms':>23}")
        for n in ORACLE_SIZES:
            oracle = timed(inst, inputs.instance_doc(rng, n), ["solve", inst, "--oracle"])
            line = f"{n:>3} {oracle * 1e3:>10.3f}"
            if n in GENERAL_SIZES:
                only = timed(inst, general_doc(general, n), ["solve", inst, "--oracle-only"])
                line += f" {only * 1e3:>23.3f}"
            print(line)
        # each table draws from a stream of its own, as above
        ranks = random.Random(SEED)
        print(f"{'|C|':>3} {'reduce lexrank cold ms':>23} {'warm ms':>8}")
        for n in RANK_SIZES:
            argv = ["reduce", "lexrank", inst]
            cold = timed(inst, rank_query_doc(ranks, n), argv)
            warm = best_of(argv, keep_parameters=True)
            print(f"{n:>3} {cold * 1e3:>23.3f} {warm * 1e3:>8.3f}")
        budgets = random.Random(SEED)
        print(f"{'n':>3} {'budgeted oracle ms':>19}")
        for n in BUDGETED_SIZES:
            oracle = timed(inst, budgeted_doc(budgets, n), ["budgeted", inst, "--oracle"])
            print(f"{n:>3} {oracle * 1e3:>19.3f}")
        sixes = random.Random(GENERAL_N6_SEED)
        draws = [(f"general {k}", general_doc(sixes, 6)) for k in range(1, GENERAL_N6 + 1)]
        print(f"{f'n=6 oracle-only, min of {REPEATS}':<24} {'s':>8} {'rounds':>6}  value")
        total = 0.0
        for label, doc in draws + [("named", NAMED_N6)]:
            elapsed, count, value = lp1_best(inst, doc)
            total += elapsed
            print(f"{label:<24} {elapsed:>8.3f} {count:>6}  {value}")
        print(f"{'total':<24} {total:>8.3f}")
        sevens = random.Random(GENERAL_N7_SEED)
        print(f"{'n=7 solve_lp1, one run':<24} {'s':>8} {'rounds':>6}  value")
        total = 0.0
        for k in range(1, GENERAL_N7 + 1):
            elapsed, count, value = lp1_past_guard(general_doc(sevens, 7))
            total += elapsed
            print(f"{f'general {k}':<24} {elapsed:>8.3f} {count:>6}  {value}")
        print(f"{'total':<24} {total:>8.3f}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MiB")


if __name__ == "__main__":
    run()
