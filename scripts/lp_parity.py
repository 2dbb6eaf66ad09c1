#!/usr/bin/env python3
"""Two sha256 per program family over every exact LP answer the family
produces: one over each `_simplex_max` outcome (status, column values and
row multipliers) and each `solve_lp` or `solve_lp1` answer (status, value
and assignment), and a value-only one over each answer's status and value.
One more per CLI family over every call's printed output.

    python3 scripts/lp_parity.py [--seed 17]

Two checkouts whose simplex makes the same pivots print the same LP
digests, and two whose commands print the same text print the same CLI
digests, so running this script in both is the parity check for a change
to the solver or to anything the CLI prints. A change that moves the
simplex to other optimal vertices changes the first LP digest of a family
but not its value-only digest, which shows that every optimum is unchanged.
Imports the package from the `src` directory of the checkout this script
sits in, the seeded generators of its `perfbench` directory and
`general_doc` and `hard_doc` of `solve_latency.py` beside it; uses the
standard library only.

The outcomes are recorded by wrapping `exactlp._simplex_max`, whatever
its arguments: the column values as a dense list of `Fraction`s, whichever
form the simplex reports them in (`dense_values`), and the
multipliers as the rationals duals[k] / den, so they do not depend on how
the integer rows are scaled. They are the multipliers of the rows the
simplex was given: a solver that keeps upper bounds as bounds reports none
for them. The answers are recorded by wrapping `solve_lp` and `solve_lp1`
wherever the package binds them; a call of one made while the other runs
is not an answer of its own. So the lines do not depend on whether
`solve_lp1` reaches the simplex through `solve_lp` or directly: two trees
that hand the simplex the same programs print the same lines. The
families:

  * certify    -- `solve --oracle` on the first CERTIFY_OPS inputs of the
                  `certify` workload's pool (LP1 at n = 3);
  * budgeted   -- `budgeted --oracle` on the first BUDGETED_OPS inputs of
                  the `budgeted` workload's pool (n = 1..4);
  * oracle-n6  -- `solve --oracle` on ORACLE_N6 single-positive instances
                  at n = 6, drawn like the `certify` pool's;
  * general    -- `solve --oracle-only` on GENERAL_PER_N general instances
                  for each n in GENERAL_SIZES, drawn as in
                  `solve_latency.py`;
  * lp2-lp3    -- `solve_lp` on `build_lp2` and `build_lp3` of LP23_CASES
                  single-positive parameter vectors, n = 2..5, drawn like
                  the acceptance suite's duality sweep (criterion 2);
  * bounded    -- `solve_lp` on BOUNDED_CASES programs from
                  `bounded_program`: rational upper bounds on most
                  variables, some shifted to a nonzero lower bound, some
                  free below, rows of every relation.

Every CLI call of those families must exit 0. Each line reads
`<family> <answers> <simplex calls> <sha256> <value-only sha256>`.

The CLI families hash, per in-process `cli.main` call, its exit code, its
stdout without the `elapsed:` line, its stderr and every file it was told
to write, with the temporary directory's path replaced by `{tmp}`:

  * cli-certify, cli-solve, cli-reduction, cli-budgeted -- the first
                  CLI_OPS inputs of each perfbench workload's pool;
  * cli-examples -- `examples`;
  * cli-sample  -- `sample` of one single-positive instance at n = 5 for
                  each reported type in SAMPLE_TYPES;
  * cli-files   -- `solve --json-out --dump-lattice` of the same instance,
                  both written files included; `solve --json-out` of one
                  single-positive instance at n = FILES_N, its 1,024-entry
                  menu document included; and `solve` of the two-item
                  instance whose prices pass the interpreter's int/str
                  digit limit (`digit_limit_doc`), refused with exit code 2
                  and its message;
  * cli-general -- `solve` on GENERAL_REFUSALS general instances drawn by
                  `general_doc`, most of them refused with exit code 2;
  * cli-hard    -- `solve --json-out` on HARD_PER_N instances built by the
                  reduction for each |C| = n - 1 in 3..9 (n = 4..10), drawn
                  by `hard_doc` of `solve_latency.py`: the greedy fills
                  many sinks, so each menu has a large support, and its
                  document is included.

Each of their lines reads `<family> <calls> <sha256>`.

One more family checks the truthfulness replay alone, not an LP:

  * replay      -- `mechanism.bic_violations` on REPLAY_MENUS random menus
                  from `replay_menu`, n = 1..5, with rational d_i of
                  differing denominators and about half the rows violated;
                  each result is hashed as its list of (S, T, slack).

Its line reads `replay <menus> <sha256>`.

One more checks the BIC/IR certificate alone:

  * certificate -- `mechanism.certify_bic_ir` on CERTIFICATE_MENUS closed
                  forms from `mutated_closed_form`, n = 2..7, random and
                  reduction-built, each mutated once or twice; each
                  report's violations (the one failing row and its slack,
                  or none) are hashed.

Its line reads `certificate <menus> <failed> <sha256>`, with <failed> the
menus whose certificate names a row.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import inputs  # noqa: E402
from solve_latency import general_doc, hard_doc  # noqa: E402
from optmech import (  # noqa: E402
    Constraint, LP2Params, LPProblem, build_lp2, build_lp3, canonical_solution,
    certify_bic_ir, closed_form_mechanism, exactlp, price_menu, to_lp2_params,
)
from optmech.cli import main  # noqa: E402
from optmech.core import instance_from_json_dict  # noqa: E402
from optmech.mechanism import bic_violations  # noqa: E402

CERTIFY_OPS = 100
BUDGETED_OPS = 200
ORACLE_N6 = 6
GENERAL_SIZES = (3, 4, 5)
GENERAL_PER_N = 8
LP23_CASES = 80
BOUNDED_CASES = 300
CLI_OPS = 100
SAMPLE_TYPES = ("-", "1", "1,3", "2,4,5")
GENERAL_REFUSALS = 30
HARD_SIZES = range(4, 11)
HARD_PER_N = 3
FILES_N = 10
REPLAY_MENUS = 300
CERTIFICATE_MENUS = 3000


def dense_values(outcome, ncols: int) -> list[Fraction]:
    """An optimal outcome's column values as a dense list of `Fraction`s,
    whichever form the simplex reports them in: a {column: value} dict that
    leaves out the columns at 0, or one int per column over `colden`."""
    colvals = outcome.colvals
    if isinstance(colvals, dict):
        return [Fraction(colvals.get(j, 0)) for j in range(ncols)]
    return [Fraction(a, outcome.colden) for a in colvals]


class Recorder:
    """Wraps `_simplex_max`, and `solve_lp` and `solve_lp1` wherever the
    package binds them, and hashes every simplex outcome and every answer in
    call order: both in full, the answers also value only."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.values = hashlib.sha256()
        self.answers = self.simplex_calls = 0
        self.depth = 0  # solve_lp / solve_lp1 calls in flight
        simplex = exactlp._simplex_max

        def recording_simplex(ncols, *args):
            outcome = simplex(ncols, *args)
            colvals = duals = None
            if outcome.status == exactlp.OPTIMAL:
                colvals = dense_values(outcome, ncols)
                duals = [Fraction(y, outcome.den) for y in outcome.duals]
            self.digest.update(repr((outcome.status, colvals, duals)).encode())
            self.simplex_calls += 1
            return outcome

        def recording(solve):
            def run(prob):
                self.depth += 1
                try:
                    sol = solve(prob)
                finally:
                    self.depth -= 1
                if not self.depth:
                    record = (sol.status, sol.value, list(sol.assignment.items()))
                    self.digest.update(repr(record).encode())
                    self.values.update(repr(record[:2]).encode())
                    self.answers += 1
                return sol
            return run

        wrappers = [(solve, recording(solve)) for solve in (exactlp.solve_lp, exactlp.solve_lp1)]
        exactlp._simplex_max = recording_simplex
        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "optmech"]:
            for key, value in list(vars(module).items()):
                for solve, wrapper in wrappers:
                    if value is solve:
                        setattr(module, key, wrapper)

    def take(self) -> tuple[int, int, str, str]:
        """The answer and simplex call counts, digest and value-only digest
        since the last call, then reset."""
        out = self.answers, self.simplex_calls, self.digest.hexdigest(), self.values.hexdigest()
        self.digest, self.values = hashlib.sha256(), hashlib.sha256()
        self.answers = self.simplex_calls = 0
        return out


def call(tmp: str, doc: dict | None, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `main` on ``argv``, with `{path}`
    standing for ``doc`` written to a file in ``tmp`` and `{tmp}` for
    ``tmp`` itself."""
    path = os.path.join(tmp, "input.json")
    if doc is not None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{path}", path).replace("{tmp}", tmp) for a in argv])
    return code, out.getvalue(), err.getvalue()


def run_cli(tmp: str, doc: dict, argv: list[str]) -> None:
    code, _, _ = call(tmp, doc, argv)
    if code != 0:
        raise SystemExit(f"exit {code} from {argv} on {doc}")


def cli_record(tmp: str, doc: dict | None, argv: list[str]) -> bytes:
    """What one call printed and wrote, without its timing or temp paths;
    each file it wrote is read and removed."""
    code, out, err = call(tmp, doc, argv)
    out = "".join(
        line for line in out.splitlines(keepends=True) if not line.startswith("elapsed:")
    )
    written = []
    for arg in argv:
        if arg.startswith("{tmp}"):
            path = arg.replace("{tmp}", tmp)
            with open(path, encoding="utf-8") as handle:
                written.append(handle.read())
            os.remove(path)
    return repr((code, out, err, written)).replace(tmp, "{tmp}").encode()


def bounded_program(rng: random.Random) -> LPProblem:
    """2-5 variables, each nonnegative, shifted to a nonzero lower bound or
    free, three in four bounded above (so some are free below with an
    upper bound), and 1-5 rows of any relation with denominators up to 7.
    Every row holds at an anchor point inside the bounds, tightly or with
    slack, so most programs are feasible; some are unbounded."""
    def fraction(low, high):
        return Fraction(rng.randint(low, high), rng.randint(1, 7))

    names = [f"x{j}" for j in range(rng.randint(2, 5))]
    lower, upper, anchor = {}, {}, {}
    for v in names:
        kind = rng.choice(("nonnegative", "shifted", "free"))
        if kind == "free":
            lower[v] = None
            base = fraction(-9, 9)
        elif kind == "shifted":
            lower[v] = base = fraction(1, 9) * rng.choice((1, -1))
        else:
            base = 0
        anchor[v] = base + fraction(0, 6)
        if rng.randrange(4):
            upper[v] = anchor[v] + fraction(0, 6)
    rows = []
    for k in range(rng.randint(1, 5)):
        coeffs = {v: fraction(-6, 6) for v in rng.sample(names, rng.randint(1, len(names)))}
        rel = rng.choice(("<=", ">=", "="))
        rhs = sum(c * anchor[v] for v, c in coeffs.items())
        rhs += fraction(0, 4) if rel == "<=" else -fraction(0, 4) if rel == ">=" else 0
        rows.append(Constraint(coeffs, rel, rhs, name=f"r{k}"))
    objective = {v: fraction(-6, 6) for v in names}
    return LPProblem(names, objective, rng.choice(("max", "min")), rows,
                     lower=lower, upper=upper)


def replay_menu(rng: random.Random, n: int):
    """(d, u, q) over n items: each d_i a rational with its own denominator
    up to 9, and each type's u and q_i drawn at random, so that about half
    of the 4^n truthfulness rows break."""
    def fraction(high):
        return Fraction(rng.randint(0, high), rng.randint(1, 9))

    d = [Fraction(rng.randint(1, 30), rng.randint(1, 9)) for _ in range(n)]
    u = [fraction(40) for _ in range(1 << n)]
    q = [[min(fraction(9), Fraction(1)) for _ in range(n)] for _ in range(1 << n)]
    return d, u, q


def mutated_closed_form(rng: random.Random, n: int):
    """(instance, menu): the closed form of a single-positive instance drawn
    like the perfbench pools' or, at n >= 3 in one draw of two, of the
    reduction's instance from `hard_doc`, whose support is large; then one
    or two mutations, each one of: a stored int of u or of one q column
    moved by -2..2, one item's q-scale times 2 or 3, or, in three draws of
    six, a utility of the support lowered by 1..3 and the menu repriced by
    `price_menu`, which is what breaks supermodularity."""
    doc = hard_doc(rng, n) if n >= 3 and rng.randrange(2) else inputs.instance_doc(rng, n)
    inst = instance_from_json_dict(doc)
    mech = closed_form_mechanism(inst, canonical_solution(to_lp2_params(inst)))
    U, Q, scales = list(mech.scaled_u), [list(c) for c in mech.scaled_q], list(mech.q_scales)
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(6)
        if kind == 0:
            U[rng.randrange(len(U))] += rng.choice((-2, -1, 1, 2))
        elif kind == 1:
            Q[rng.randrange(n)][rng.randrange(len(U))] += rng.choice((-2, -1, 1, 2))
        elif kind == 2:
            scales[rng.randrange(n)] *= rng.choice((2, 3))
        else:
            support = [S for S, v in enumerate(U) if v]
            if support:
                U[rng.choice(support)] -= rng.randint(1, 3)
            mech = price_menu(inst, U, mech.u_scale, unique=False)
            Q, scales = [list(c) for c in mech.scaled_q], list(mech.q_scales)
    return inst, replace(mech, scaled_u=U, scaled_q=Q, q_scales=scales)


def digit_limit_doc() -> dict:
    """Two items with a_i = d_i, denominators of half the interpreter's
    int/str digit limit plus 40 digits: the menu certifies, but a price's
    denominator has about twice that many digits, so printing it refuses.
    The same draw as the CLI test of that refusal."""
    rng = random.Random(5)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() // 2 + 40
    values = [f"{rng.randrange(1, 10**6)}/{rng.randrange(10**(digits - 1), 10**digits) | 1}"
              for _ in range(2)]
    return {"n": 2, "a": values, "d": values, "p": ["1/2", "1/2"]}


def pool(workload: str, seed: int, count: int):
    """The first ``count`` (doc, argv) of the workload's perfbench pool."""
    make = inputs.GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    for i in range(count):
        doc, argv, _ = make(rng, i)
        yield doc, argv


def run(seed: int) -> None:
    recorder = Recorder()
    print(f"python {sys.version.split()[0]}, seed {seed}")
    with tempfile.TemporaryDirectory() as tmp:
        families = {
            "certify": pool("certify", seed, CERTIFY_OPS),
            "budgeted": pool("budgeted", seed, BUDGETED_OPS),
        }
        single = random.Random(f"oracle-n6:{seed}")
        families["oracle-n6"] = (
            (inputs.instance_doc(single, 6), ["solve", "{path}", "--oracle"])
            for _ in range(ORACLE_N6)
        )
        general = random.Random(f"general:{seed}")
        families["general"] = (
            (general_doc(general, n), ["solve", "{path}", "--oracle-only"])
            for n in GENERAL_SIZES for _ in range(GENERAL_PER_N)
        )
        for family, docs in families.items():
            for doc, argv in docs:
                run_cli(tmp, doc, argv)
            print(family, *recorder.take())
    rng = random.Random(f"lp2-lp3:{seed}")
    for k in range(LP23_CASES):
        n = 2 + k % 4
        x, B, d, p = inputs.random_single_positive(rng, n)
        params = LP2Params(n, x, B, d, p)
        exactlp.solve_lp(build_lp2(params))
        exactlp.solve_lp(build_lp3(params))
    print("lp2-lp3", *recorder.take())
    rng = random.Random(f"bounded:{seed}")
    for _ in range(BOUNDED_CASES):
        exactlp.solve_lp(bounded_program(rng))
    print("bounded", *recorder.take())
    rng = random.Random(f"replay:{seed}")
    digest = hashlib.sha256()
    for k in range(REPLAY_MENUS):
        digest.update(repr(bic_violations(*replay_menu(rng, 1 + k % 5))).encode())
    print("replay", REPLAY_MENUS, digest.hexdigest())
    rng = random.Random(f"certificate:{seed}")
    digest, failed = hashlib.sha256(), 0
    for k in range(CERTIFICATE_MENUS):
        violations = certify_bic_ir(*mutated_closed_form(rng, 2 + k % 6)).violations
        failed += bool(violations)
        digest.update(repr(violations).encode())
    print("certificate", CERTIFICATE_MENUS, failed, digest.hexdigest())

    families = {f"cli-{w}": pool(w, seed, CLI_OPS) for w in inputs.GENERATORS}
    families["cli-examples"] = [(None, ["examples"])]
    doc = inputs.instance_doc(random.Random(f"cli:{seed}"), 5)
    families["cli-sample"] = [
        (doc, ["sample", "{path}", "--type", t, "--seed", str(seed)]) for t in SAMPLE_TYPES
    ]
    families["cli-files"] = [
        (doc, ["solve", "{path}", "--json-out", "{tmp}/mechanism.json",
               "--dump-lattice", "{tmp}/lattice.txt"]),
        (inputs.instance_doc(random.Random(f"cli-files:{seed}"), FILES_N),
         ["solve", "{path}", "--json-out", "{tmp}/mechanism.json"]),
        (digit_limit_doc(), ["solve", "{path}"]),
    ]
    general = random.Random(f"cli-general:{seed}")
    families["cli-general"] = [
        (general_doc(general, 2 + i % 5), ["solve", "{path}"])
        for i in range(GENERAL_REFUSALS)
    ]
    hard = random.Random(f"cli-hard:{seed}")
    families["cli-hard"] = [
        (hard_doc(hard, n), ["solve", "{path}", "--json-out", "{tmp}/mechanism.json"])
        for n in HARD_SIZES for _ in range(HARD_PER_N)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for family, calls in families.items():
            digest, count = hashlib.sha256(), 0
            for doc, argv in calls:
                digest.update(cli_record(tmp, doc, argv))
                count += 1
            print(family, count, digest.hexdigest())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=17)
    run(parser.parse_args().seed)
