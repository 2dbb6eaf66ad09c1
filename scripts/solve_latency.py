#!/usr/bin/env python3
"""In-process latency of `optmech solve` as a function of n.

    python3 scripts/solve_latency.py

Imports the package from the `src` directory of the checkout this script
sits in, and the seeded single-positive instance generator of the `solve`
benchmark workload from its `perfbench` directory; uses the standard library
only. For each n in SIZES it writes one instance drawn from SEED to a
temporary directory, then times `optmech.cli.main(["solve", ...])` three
ways: plain, with `--json-out` and with `--dump-lattice`. Each figure is the
minimum of REPEATS runs, with stdout captured and the exit code required to
be 0. The last line gives the process's peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import inputs  # noqa: E402
from optmech.cli import main  # noqa: E402

SEED = 1
SIZES = (8, 10, 12, 14)
REPEATS = 3


def best_of(argv: list[str]) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"exit {code} from {argv}")
        best = min(best, elapsed)
    return best


def run() -> None:
    rng = random.Random(SEED)
    print(f"python {sys.version.split()[0]}, seed {SEED}, min of {REPEATS}")
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
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MiB")


if __name__ == "__main__":
    run()
