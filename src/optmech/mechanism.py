"""Closed-form optimal mechanisms and their full verification.

Given the canonical lattice flow with partially filled node S*, the optimal
interim utility is `FlowSolution.utility`, u(S) = max(cost(S*) - cost(S), 0),
the marginals are `FlowSolution.allocation`, q_i(S) = 1 for i in S and
(u(S+{i}) - u(S)) / d_i otherwise, and the expected price of each type is
tau(S) = v(S).q(S) - u(S). When the greedy flow instead ends exactly on a
node's capacity the same formulas, with S* that node, still give an optimal
mechanism, but it is flagged as possibly non-unique; with zero supply u is
0 everywhere and the all-zero-utility mechanism is returned, likewise
flagged.

`certify_bic_ir` certifies every truthfulness, rationality and probability
constraint of the full program in O(2^n n^2) exact checks, for a mechanism
of this closed-form shape: given the shape, those 4^n rows follow from
u >= 0, 0 <= q <= 1 and supermodularity of u, and each of those checks is
itself one of the rows, so a failed check names one violated row.
`verify_bic_ir` replays all rows with exact slacks and names every violated
one; it is the reference the certificate is tested against. Ties are
acceptable: a weakly satisfied constraint is satisfied (deterministic
tie-breaking in favor of the higher-priced entry replaces any rebate scheme).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    OMDInstance,
    Subset,
    ZERO,
    ONE,
    check_mask,
    check_subset,
    format_rational,
    parse_rational,
    subset_label,
    subset_probs,
    subset_to_list,
    type_vectors,
)
from .errors import InputError, PreconditionError
from .lattice import FlowSolution

VERIFY_GUARD = 10  # the pairwise truthfulness replay is 4^n rows: under a minute at n=10


@dataclass(frozen=True)
class Mechanism:
    """A direct mechanism over all 2^n types.

    ``u``, ``q`` and ``tau`` are lists indexed by type mask: each type's
    truthful expected utility, its vector of per-item allocation
    probabilities, and its expected price. ``unique`` records whether the
    construction certified the mechanism as the unique optimum (strictly
    partial saturation).
    """

    n: int
    u: list[Fraction]
    q: list[tuple[Fraction, ...]]
    tau: list[Fraction]
    unique: bool


def closed_form_mechanism(inst: OMDInstance, flow: FlowSolution) -> Mechanism:
    """The menu read off the canonical flow on ``inst``'s parameters: each
    type's u and q from the flow, and its price v(S).q(S) - u(S)."""
    if flow.n != inst.n:
        raise PreconditionError("flow and instance disagree on the item count")
    n = inst.n
    u = [flow.utility(S) for S in range(1 << n)]
    q = [tuple(flow.allocation(S, i) for i in range(n)) for S in range(1 << n)]
    tau = [
        sum((vi * qi for vi, qi in zip(vec, qS)), ZERO) - uS
        for vec, qS, uS in zip(type_vectors(inst), q, u)
    ]
    return Mechanism(n=n, u=u, q=q, tau=tau, unique=flow.partially_filled is not None)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BicIrReport:
    """Outcome of replaying every direct-mechanism constraint exactly.

    ``violations`` holds (constraint description, exact negative slack).
    """

    n: int
    bic_checked: int
    ir_checked: int
    prob_checked: int
    violations: tuple[tuple[str, Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_bic_ir(inst: OMDInstance, mech: Mechanism) -> BicIrReport:
    """Check u(S) >= u(T) + (v(S) - v(T)) . q(T) for every ordered pair,
    u(S) >= 0 and 0 <= q_i(S) <= 1 for every type, with exact slacks."""
    n = inst.n
    if n > VERIFY_GUARD:
        raise PreconditionError(f"n={n} exceeds the verification guard {VERIFY_GUARD}")
    if mech.n != n:
        raise PreconditionError("mechanism and instance disagree on the item count")
    vec = type_vectors(inst)
    # the items where two types differ, by the mask of their difference: the
    # other components of v(S) - v(T) are 0 and add nothing to the gain
    diff_items = [[i for i in range(n) if D >> i & 1] for D in range(1 << n)]
    violations = []
    bic = ir = prob = 0
    for S, vS in enumerate(vec):
        uS = mech.u[S]
        ir += 1
        if uS < 0:
            violations.append((f"ir({subset_label(S)})", uS))
        for i, qi in enumerate(mech.q[S], start=1):
            prob += 2
            if qi < 0:
                violations.append((f"prob({subset_label(S)},{i},>=0)", qi))
            if qi > 1:
                violations.append((f"prob({subset_label(S)},{i},<=1)", ONE - qi))
        for T, vT in enumerate(vec):
            if S == T:
                continue
            bic += 1
            qT = mech.q[T]
            gain = sum(((vS[i] - vT[i]) * qT[i] for i in diff_items[S ^ T]), ZERO)
            slack = uS - mech.u[T] - gain
            if slack < 0:
                violations.append(
                    (f"bic({subset_label(S)}|{subset_label(T)})", slack)
                )
    return BicIrReport(
        n=n,
        bic_checked=bic,
        ir_checked=ir,
        prob_checked=prob,
        violations=tuple(violations),
    )


def certify_bic_ir(inst: OMDInstance, mech: Mechanism) -> BicIrReport:
    """Certify the rows `verify_bic_ir` replays in O(2^n n^2) exact checks.

    The certificate checks the closed-form shape (q_i(S) = 1 for i in S,
    d_i q_i(S) = u(S+{i}) - u(S) otherwise), u >= 0, 0 <= q <= 1, and
    supermodularity of u, which given the shape reads q_i(S+{j}) >= q_i(S)
    for items i != j outside S. These imply every truthfulness row: with
    A = S - T and R = T - S, the gain of type S reporting T is
    sum_{i in A} [u(T+{i}) - u(T)] - sum_{i in R} d_i. Supermodularity bounds
    the first sum by u(S | T) - u(T), and q <= 1 along a chain from S up to
    S | T bounds u(S | T) - u(S) by the second. Conversely each check is a
    replay row: a supermodularity failure at (S, i, j) is bic(S+{i}+{j}|S)
    with the same slack. So on shaped mechanisms the certificate and the
    replay accept the same set.

    The report counts the rows the replay checks. When the certificate does
    not cover them, its one violation is the first failing row: an ir, prob
    or bic row with its exact slack, or a ``shape(S,i)`` row with the
    residual of its equality when the mechanism is not of closed-form shape.
    """
    n = inst.n
    if mech.n != n:
        raise PreconditionError("mechanism and instance disagree on the item count")
    size = 1 << n
    u, q, d = mech.u, mech.q, inst.d

    def report(*violations):
        return BicIrReport(
            n=n,
            bic_checked=size * size - size,
            ir_checked=size,
            prob_checked=2 * n * size,
            violations=violations,
        )

    for S in range(size):
        uS, qS = u[S], q[S]
        if uS < 0:
            return report((f"ir({subset_label(S)})", uS))
        for i, qi in enumerate(qS):
            if S >> i & 1:
                residual = ONE - qi
            else:
                residual = u[S | 1 << i] - uS - d[i] * qi
            if residual:
                return report((f"shape({subset_label(S)},{i + 1})", residual))
            if qi < 0:
                return report((f"prob({subset_label(S)},{i + 1},>=0)", qi))
            if qi > 1:
                return report((f"prob({subset_label(S)},{i + 1},<=1)", ONE - qi))
    falling = _first_falling_gain(q, n)
    if falling is not None:
        S, i, j = falling
        return report(
            (
                f"bic({subset_label(S | 1 << i | 1 << j)}|{subset_label(S)})",
                d[i] * (q[S | 1 << j][i] - q[S][i]),
            )
        )
    return report()


def _first_falling_gain(
    gains: Sequence[Sequence[Fraction]], n: int
) -> tuple[Subset, int, int] | None:
    """The first (S, i, j), for items i != j outside S, where
    gains[S+{j}][i] < gains[S][i]; None when there is none. With gains[S][i]
    the marginal u(S+{i}) - u(S), or any positive multiple of it per item,
    this is where u fails supermodularity."""
    for S in range(1 << n):
        outside = [i for i in range(n) if not S >> i & 1]
        gS = gains[S]
        for j in outside:
            gSj = gains[S | 1 << j]
            for i in outside:
                if i != j and gSj[i] < gS[i]:
                    return S, i, j
    return None


def is_monotone_supermodular(u: Sequence[Fraction], n: int) -> bool:
    """True iff u (indexed by type mask) is nondecreasing along lattice edges
    and satisfies u(S+{i}+{j}) - u(S+{j}) >= u(S+{i}) - u(S) for all S and
    items i != j outside S."""
    gains = [tuple(u[S | 1 << i] - u[S] for i in range(n)) for S in range(1 << n)]
    return all(g >= 0 for gS in gains for g in gS) and _first_falling_gain(gains, n) is None


def expected_revenue(inst: OMDInstance, mech: Mechanism) -> Fraction:
    """sum_S p(S) * tau(S)."""
    if mech.n != inst.n:
        raise PreconditionError("mechanism and instance disagree on the item count")
    return sum((pS * tS for pS, tS in zip(subset_probs(inst.p), mech.tau)), ZERO)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def bernoulli(rng: random.Random, prob: Fraction) -> bool:
    """Exact Bernoulli(prob) draw: compare a uniform dyadic rational, refined
    one random bit at a time, against the rational threshold."""
    if prob <= 0:
        return False
    if prob >= 1:
        return True
    num = prob.numerator
    den = prob.denominator
    drawn = 0
    scale = 1
    while True:
        drawn = (drawn << 1) | rng.getrandbits(1)
        scale <<= 1
        # the uniform draw lies in [drawn/scale, (drawn+1)/scale)
        if (drawn + 1) * den <= num * scale:
            return True
        if drawn * den >= num * scale:
            return False


def sample_allocation(
    mech: Mechanism, S: Subset, rng: random.Random
) -> tuple[Subset, Fraction]:
    """Draw one allocation (a mask) for reported type S: item i is included
    independently with probability q_i(S); the price is the deterministic
    tau(S)."""
    S = check_mask(S, mech.n)
    allocated = 0
    for i, qi in enumerate(mech.q[S]):
        if bernoulli(rng, qi):
            allocated |= 1 << i
    return allocated, mech.tau[S]


# ---------------------------------------------------------------------------
# Mechanism JSON document
# ---------------------------------------------------------------------------

def mechanism_to_json_dict(mech: Mechanism) -> dict:
    menu = []
    for S, (uS, qS, tS) in enumerate(zip(mech.u, mech.q, mech.tau)):
        menu.append(
            {
                "type": subset_to_list(S),
                "u": format_rational(uS),
                "q": [format_rational(v) for v in qS],
                "price": format_rational(tS),
            }
        )
    return {"n": mech.n, "menu": menu}


def mechanism_from_json_dict(doc) -> Mechanism:
    """Parse the menu document. The uniqueness flag is not part of the wire
    format, so a loaded mechanism carries unique=False."""
    if not isinstance(doc, dict):
        raise InputError("mechanism document: expected a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"n: expected an integer, got {n!r}")
    if n < 1:
        raise InputError(f"n: must be >= 1, got {n}")
    menu = doc.get("menu")
    if not isinstance(menu, list):
        raise InputError("menu: missing or not a list")
    # compare bit lengths first so an absurd n never builds 1 << n
    if len(menu).bit_length() != n + 1 or len(menu) != 1 << n:
        raise InputError(f"menu: expected 2^{n} entries, got {len(menu)}")
    u: list = [None] * len(menu)
    q: list = [None] * len(menu)
    tau: list = [None] * len(menu)
    for idx, entry in enumerate(menu):
        if not isinstance(entry, dict):
            raise InputError(f"menu[{idx}]: expected an object")
        if "type" not in entry:
            raise InputError(f"menu[{idx}].type: missing field")
        if not isinstance(entry["type"], list):
            raise InputError(f"menu[{idx}].type: expected a list of item indices")
        S = check_subset(entry["type"], n, field=f"menu[{idx}].type")
        if u[S] is not None:
            raise InputError(f"menu[{idx}].type: duplicate type {subset_to_list(S)}")
        u[S] = parse_rational(entry.get("u"), field=f"menu[{idx}].u")
        raw_q = entry.get("q")
        if not isinstance(raw_q, list) or len(raw_q) != n:
            raise InputError(f"menu[{idx}].q: expected {n} rationals")
        q[S] = tuple(
            parse_rational(v, field=f"menu[{idx}].q[{k}]") for k, v in enumerate(raw_q)
        )
        tau[S] = parse_rational(entry.get("price"), field=f"menu[{idx}].price")
    return Mechanism(n=n, u=u, q=q, tau=tau, unique=False)
