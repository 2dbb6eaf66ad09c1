"""Command-line front end.

Subcommands: ``solve``, ``reduce``, ``examples``, ``sample``, ``budgeted``.
Exit codes are a stable contract: 0 success, 1 usage or parse error,
2 precondition violation, 3 verification or oracle failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .budgeted import (
    budgeted_from_json_dict,
    budgeted_oracle_lp,
    menu_is_bic_ir,
    optimal_budgeted_mechanism,
)
from .core import (
    ONE,
    OMDInstance,
    check_subset,
    decode_json,
    format_rational,
    instance_from_json,
    parse_rational,
    subset_label,
    to_lp2_params,
    types_by_size,
)
from .errors import InputError, PreconditionError, VerificationError
from .exactlp import OPTIMAL, build_lp1, solve_lp
from .lattice import LATTICE_GUARD, canonical_solution, dump_lattice
from .mechanism import (
    certify_bic_ir,
    closed_form_mechanism,
    expected_revenue,
    mechanism_to_json_dict,
    sample_allocation,
)
from .reduction import (
    count_subsetsum,
    counting_query_from_json_dict,
    lexrank_oracle,
    lexrank_to_omd,
    rank_query_from_json_dict,
)

# `sample` draws count * n exact Bernoulli items at about 2.2 us each (4e6
# draws took 8.8 s on a 2-vCPU machine), so a request at the bound finishes
# within a minute even at n = LATTICE_GUARD, whose certified closed form
# takes about 0.35 s.
SAMPLE_GUARD = 4_000_000

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse's default exit(2) onto exit 1
        raise _UsageError(message)


@dataclass
class RunReport:
    """What a command did: echoed invocation, input digest, key outputs,
    verification summary (always present when a mechanism was emitted),
    and wall-clock timing."""

    command: str
    input_digest: str = ""
    outputs: dict = field(default_factory=dict)
    verification: dict | None = None
    elapsed: float = 0.0
    failure: VerificationError | None = None  # raised once the report is printed

    def render(self) -> str:
        lines = [f"== optmech {self.command}"]
        if self.input_digest:
            lines.append(f"input sha256: {self.input_digest}")
        for key, value in self.outputs.items():
            lines.append(f"{key}: {value}")
        if self.verification is not None:
            pairs = " ".join(f"{k}={v}" for k, v in self.verification.items())
            lines.append(f"verification: {pairs}")
        lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def _read_input(command: str, path: str) -> tuple[str, RunReport]:
    """The UTF-8 text of ``path`` and the report of ``command`` run on it,
    started with the file's sha256."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return text, RunReport(f"{command} {path}", hashlib.sha256(raw).hexdigest())


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _q_tuple(values) -> str:
    return "(" + ", ".join(map(format_rational, values)) + ")"


def _closed_form(inst: OMDInstance, kappa_text, report: RunReport):
    """kappa -> parameters -> greedy flow -> closed-form mechanism, certified
    against every BIC/IR constraint; the row summary goes on the report, or
    the certificate's first failing row on the raised error. An instance
    past the lattice guard is refused before any of that work."""
    if inst.n > LATTICE_GUARD:
        raise PreconditionError(f"n={inst.n} exceeds the lattice guard {LATTICE_GUARD}")
    kappa = parse_rational(kappa_text, field="--kappa") if kappa_text else ONE
    params = to_lp2_params(inst, kappa)
    flow = canonical_solution(params)
    mech = closed_form_mechanism(inst, flow)
    check = certify_bic_ir(inst, mech)
    if not check.ok:
        name, value = check.violations[0]
        # a shape row is an equality: its value is a residual, not a slack
        kind = "residual" if name.startswith("shape(") else "slack"
        raise VerificationError(
            f"constructed mechanism violates {name} with {kind} {format_rational(value)}"
        )
    report.verification = {
        "bic": check.bic_checked,
        "ir": check.ir_checked,
        "prob": check.prob_checked,
        "violations": len(check.violations),
    }
    return params, flow, mech


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> RunReport:
    if args.oracle_only:
        # --oracle-only skips the closed form these flags configure or emit
        for flag, value in (("--kappa", args.kappa), ("--json-out", args.json_out),
                            ("--dump-lattice", args.dump_lattice)):
            if value is not None:
                raise _UsageError(f"argument {flag}: not allowed with argument --oracle-only")
    text, report = _read_input("solve", args.instance)
    inst = instance_from_json(text)

    if args.oracle_only:
        lp1 = solve_lp(build_lp1(inst))
        if lp1.status != OPTIMAL:
            raise VerificationError(f"full program is {lp1.status}")
        report.outputs["oracle optimal revenue"] = format_rational(lp1.value)
        return report

    # built first so that an instance past the full-program guard is
    # refused before the closed form and its BIC/IR certificate run
    lp1_problem = build_lp1(inst) if args.oracle else None
    params, flow, mech = _closed_form(inst, args.kappa, report)
    revenue = expected_revenue(inst, mech)

    menu_lines = [
        f"  type {label:<12} u={format_rational(mech.u[S]):<8} "
        f"q={_q_tuple(mech.q[S]):<20} price={format_rational(mech.tau[S])}"
        for S, label in types_by_size(inst.n)
    ]
    report.outputs["menu"] = "\n" + "\n".join(menu_lines)
    report.outputs["expected revenue"] = format_rational(revenue)
    report.outputs["unique"] = "yes" if mech.unique else "possibly non-unique"

    if args.oracle:
        lp1 = solve_lp(lp1_problem)
        if lp1.status != OPTIMAL or lp1.value != revenue:
            got = format_rational(lp1.value) if lp1.value is not None else lp1.status
            raise VerificationError(
                f"oracle mismatch: closed form {format_rational(revenue)}, "
                f"full program {got}"
            )
        report.outputs["oracle"] = (
            f"revenue matches the full program optimum {format_rational(lp1.value)}"
        )

    if args.dump_lattice:
        _write_text(args.dump_lattice, dump_lattice(params, flow))
        report.outputs["lattice dump"] = args.dump_lattice
    if args.json_out:
        _write_text(
            args.json_out, json.dumps(mechanism_to_json_dict(mech), indent=2) + "\n"
        )
        report.outputs["mechanism json"] = args.json_out

    return report


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def cmd_reduce(args) -> RunReport:
    text, report = _read_input(f"reduce {args.kind}", args.input)
    doc = decode_json(text, "reduction input")

    if args.kind == "lexrank":
        C, S, k = rank_query_from_json_dict(doc)
        out = lexrank_to_omd(C, S, k)
        decision = out.decision()
        rank = lexrank_oracle(C, S)
        if decision != (rank <= k):
            raise VerificationError(
                f"pipeline decision {decision} disagrees with oracle rank {rank}"
            )
        report.outputs["collection C"] = "(" + ", ".join(str(c) for c in C) + ")"
        report.outputs["query"] = f"S={subset_label(S)} k={k}"
        report.outputs["p~"] = format_rational(out.p_tilde)
        report.outputs["d"] = _q_tuple(out.params.d)
        report.outputs["x"] = _q_tuple(out.params.x)
        report.outputs["B"] = format_rational(out.params.B)
        report.outputs["target node T*"] = subset_label(out.target_T_star)
        report.outputs["probe type"] = subset_label(out.probe_type)
        report.outputs["probe allocation"] = "1" if decision else "0"
        report.outputs["decision"] = "YES" if decision else "NO"
        report.outputs["oracle rank"] = f"{rank} (agrees)"
    else:
        W, T = counting_query_from_json_dict(doc)
        count = count_subsetsum(W, T)
        report.outputs["weights W"] = "(" + ", ".join(str(w) for w in W) + ")"
        report.outputs["target T"] = str(T)
        report.outputs["count"] = (
            f"{count} (staged rank inversion and direct enumeration agree)"
        )

    return report


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

def _example_instance(a, d, p):
    F = Fraction
    return OMDInstance(
        n=len(a),
        a=tuple(F(v) for v in a),
        d=tuple(F(v) for v in d),
        p=tuple(F(*v) if isinstance(v, tuple) else F(v) for v in p),
    )


def cmd_examples(args) -> RunReport:
    report = RunReport(command="examples")
    rows = []
    failures = 0

    # Two items, each worth 1 or 2 uniformly: selling the bundle at 3 is
    # optimal and beats separate sales.
    inst = _example_instance([1, 1], [1, 1], [(1, 2), (1, 2)])
    got = solve_lp(build_lp1(inst)).value
    rows.append(("uniform {1,2}x{1,2} bundle revenue", Fraction(9, 4), got))

    # Two items worth 0 or 1: separate sales achieve 1, which is optimal.
    inst = _example_instance([0, 0], [1, 1], [(1, 2), (1, 2)])
    got = solve_lp(build_lp1(inst)).value
    rows.append(("zero-low {0,1}x{0,1} optimal revenue", Fraction(1), got))

    # Uniform {1,2} x {1,3}: the optimal menu prices the bundle at 4 and a
    # (1, 1/2) lottery at 5/2; revenue 21/8.
    inst = _example_instance([1, 1], [1, 2], [(1, 2), (1, 2)])
    mech = closed_form_mechanism(inst, canonical_solution(to_lp2_params(inst, ONE)))
    full = 0b11
    lottery_type = 0b01  # item 1 high, item 2 low
    menu_ok = (
        mech.tau[full] == 4
        and mech.tau[lottery_type] == Fraction(5, 2)
        and mech.q[lottery_type] == (ONE, Fraction(1, 2))
    )
    rows.append(
        (
            "lottery menu: bundle at 4, (1,1/2) lottery at 5/2",
            "menu as expected",
            "menu as expected" if menu_ok else "menu mismatch",
        )
    )
    revenue = expected_revenue(inst, mech)
    oracle = solve_lp(build_lp1(inst)).value
    rows.append(("lottery instance revenue", Fraction(21, 8), revenue))
    rows.append(("lottery revenue equals oracle optimum", oracle, revenue))

    lines = [f"  {'row':<44} {'expected':<12} {'got':<12} status"]
    for name, expected, got in rows:
        ok = expected == got
        failures += 0 if ok else 1
        exp_s = format_rational(expected) if isinstance(expected, Fraction) else str(expected)
        got_s = format_rational(got) if isinstance(got, Fraction) else str(got)
        lines.append(f"  {name:<44} {exp_s:<12} {got_s:<12} {'PASS' if ok else 'FAIL'}")
    report.outputs["worked examples"] = "\n" + "\n".join(lines)
    if failures:
        report.failure = VerificationError(f"{failures} worked-example rows failed")
    return report


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _parse_type(text: str, n: int):
    text = text.strip()
    if text in ("", "-"):
        return 0
    try:
        indices = [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"--type: expected comma-separated indices, got {text!r}") from None
    return check_subset(indices, n, field="--type")


def cmd_sample(args) -> RunReport:
    text, report = _read_input("sample", args.instance)
    inst = instance_from_json(text)

    reported = _parse_type(args.type, inst.n)
    if args.count < 1:
        raise InputError(f"--count: must be >= 1, got {args.count}")
    if args.count * inst.n > SAMPLE_GUARD:
        raise PreconditionError(
            f"--count {args.count} at n={inst.n} draws {args.count * inst.n} items, "
            f"past the sampling guard {SAMPLE_GUARD}"
        )
    _, _, mech = _closed_form(inst, args.kappa, report)

    rng = random.Random(args.seed)
    hits = [0] * inst.n
    price = mech.tau[reported]
    for _ in range(args.count):
        allocated, _ = sample_allocation(mech, reported, rng)
        for i in range(inst.n):
            hits[i] += allocated >> i & 1

    report.outputs["reported type"] = subset_label(reported)
    report.outputs["price"] = format_rational(price)
    report.outputs["samples"] = str(args.count)
    report.outputs["seed"] = str(args.seed)
    for i in range(1, inst.n + 1):
        empirical = Fraction(hits[i - 1], args.count)
        report.outputs[f"item {i}"] = (
            f"allocated {hits[i - 1]}/{args.count} "
            f"(empirical {format_rational(empirical)}, "
            f"marginal {format_rational(mech.q[reported][i - 1])})"
        )
    return report


# ---------------------------------------------------------------------------
# budgeted
# ---------------------------------------------------------------------------

def cmd_budgeted(args) -> RunReport:
    text, report = _read_input("budgeted", args.input)
    inst = budgeted_from_json_dict(decode_json(text, "budgeted input"))

    menu = optimal_budgeted_mechanism(inst)
    if not menu_is_bic_ir(inst, menu):
        raise VerificationError("constructed two-entry menu is not truthful")
    report.outputs["unbudgeted entry"] = (
        f"{subset_label(menu.full_bundle)} at {format_rational(menu.full_price)}"
    )
    report.outputs["budgeted entry"] = (
        f"{subset_label(menu.budget_bundle)} at {format_rational(menu.budget_price)}"
    )
    report.outputs["expected revenue"] = format_rational(menu.revenue)
    report.verification = {"menu_bic_ir": "ok"}

    if args.oracle:
        oracle = budgeted_oracle_lp(inst)
        if oracle != menu.revenue:
            raise VerificationError(
                f"oracle mismatch: menu revenue {format_rational(menu.revenue)}, "
                f"oracle optimum {format_rational(oracle)}"
            )
        report.outputs["oracle"] = (
            f"revenue matches the oracle optimum {format_rational(oracle)}"
        )

    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="optmech", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance in closed form")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.add_argument("--kappa", help="scale parameter (default 1)")
    oracle = p_solve.add_mutually_exclusive_group()
    oracle.add_argument("--oracle", action="store_true",
                        help="also solve the full program and require exact agreement")
    oracle.add_argument("--oracle-only", action="store_true",
                        help="skip the structured pipeline, report the exact LP optimum")
    p_solve.add_argument("--json-out", help="write the mechanism JSON here")
    p_solve.add_argument("--dump-lattice", help="write the lattice dump here")
    p_solve.set_defaults(func=cmd_solve)

    p_reduce = sub.add_parser("reduce", help="run a hardness-reduction pipeline")
    p_reduce.add_argument("kind", choices=("lexrank", "subsetsum"))
    p_reduce.add_argument("input", help="query JSON file")
    p_reduce.set_defaults(func=cmd_reduce)

    p_examples = sub.add_parser("examples", help="run the built-in worked examples")
    p_examples.set_defaults(func=cmd_examples)

    p_sample = sub.add_parser("sample", help="draw allocations for a reported type")
    p_sample.add_argument("instance", help="instance JSON file")
    p_sample.add_argument("--type", required=True,
                          help="reported type: comma-separated indices, '-' for the empty set")
    p_sample.add_argument("--count", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--kappa", help="scale parameter (default 1)")
    p_sample.set_defaults(func=cmd_sample)

    p_budgeted = sub.add_parser("budgeted", help="solve a budget-uncertain instance")
    p_budgeted.add_argument("input", help="budgeted JSON file")
    p_budgeted.add_argument("--oracle", action="store_true",
                            help="also solve the oracle LP and require exact agreement")
    p_budgeted.set_defaults(func=cmd_budgeted)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        start = time.perf_counter()
        report = args.func(args)
        report.elapsed = time.perf_counter() - start
        print(report.render())
        if report.failure is not None:
            raise report.failure
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def console_main() -> None:
    sys.exit(main())
