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

`Mechanism` keeps every u, q and price as a `Fraction`, but the arithmetic
behind them runs on ints over common denominators: `closed_form_mechanism`
prices every type from the flow's scaled utilities and cost gaps, and
`expected_revenue` is one int dot product, each building a `Fraction` only
for a value it hands back.

`certify_bic_ir` certifies every truthfulness, rationality and probability
constraint of the full program in O(2^n n^2) exact checks, for a mechanism
of this closed-form shape: given the shape, those 4^n rows follow from
u >= 0, 0 <= q <= 1 and supermodularity of u, and each of those checks is
itself one of the rows, so a failed check names one violated row. It runs
them as int comparisons on the mechanism's u and q scaled to common
denominators, and builds the exact `Fraction` slack of the first failing
row only. `verify_bic_ir` replays all rows with exact `Fraction` slacks and
names every violated one; it is the reference the certificate is tested
against. Ties are acceptable: a weakly satisfied constraint is satisfied
(deterministic tie-breaking in favor of the higher-priced entry replaces
any rebate scheme).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Sequence

from .core import (
    OMDInstance,
    Subset,
    ZERO,
    ONE,
    check_mask,
    check_subset,
    document_fields,
    format_rational,
    parse_rational,
    subset_label,
    subset_products,
    subset_sums,
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
    partial saturation). A menu that does not list 2^n entries in each of
    ``u``, ``q`` and ``tau``, or n probabilities per type, is refused with a
    `PreconditionError` naming the field.
    """

    n: int
    u: list[Fraction]
    q: list[tuple[Fraction, ...]]
    tau: list[Fraction]
    unique: bool

    def __post_init__(self):
        n = self.n
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise PreconditionError(f"n: expected an integer >= 1, got {n!r}")
        for name in ("u", "q", "tau"):
            size = len(getattr(self, name))
            # compare bit lengths first so an absurd n never builds 1 << n
            if size.bit_length() != n + 1 or size != 1 << n:
                raise PreconditionError(f"{name}: expected 2^{n} entries, got {size}")
        for S, qS in enumerate(self.q):
            if len(qS) != n:
                raise PreconditionError(
                    f"q: type {subset_label(S)}: expected {n} probabilities, got {len(qS)}"
                )


def closed_form_mechanism(inst: OMDInstance, flow: FlowSolution) -> Mechanism:
    """The menu read off the canonical flow on ``inst``'s parameters: each
    type's u and q from the flow, and its price v(S).q(S) - u(S).

    It runs on the flow's ints U(S) = u(S) * cost_scale and D_i = d_i *
    cost_scale: q_i(S) = (U(S+{i}) - U(S)) / D_i for i outside S, and each
    price over one common denominator M is the int

        tau(S) * M = sum_{i in S} (a_i + d_i) * M
                     + sum_{i not in S} (a_i * M / D_i) * (U(S+{i}) - U(S))
                     - (M / cost_scale) * U(S).

    Each value is then built as one `Fraction`; a q of 0 or 1 is ZERO or ONE.
    """
    if flow.n != inst.n:
        raise PreconditionError("flow and instance disagree on the item count")
    n, size, scale = inst.n, 1 << inst.n, flow.cost_scale
    U = list(map(flow.scaled_utility, range(size)))
    D = flow.scaled_d
    high = [ai + di for ai, di in zip(inst.a, inst.d)]
    low_per_d = [ai / Di for ai, Di in zip(inst.a, D)]
    M = lcm(scale, *(v.denominator for v in high), *(v.denominator for v in low_per_d))
    H = subset_sums([v.numerator * (M // v.denominator) for v in high])
    A = [v.numerator * (M // v.denominator) for v in low_per_d]
    C = M // scale
    items = list(zip(range(n), D, A))
    u, q, tau = [], [], []
    for S in range(size):
        US = U[S]
        t = H[S] - C * US
        qS = []
        for i, Di, Ai in items:
            if S >> i & 1:
                qS.append(ONE)
                continue
            g = U[S | 1 << i] - US
            t += Ai * g
            qS.append(ZERO if not g else ONE if g == Di else Fraction(g, Di))
        u.append(Fraction(US, scale) if US else ZERO)
        q.append(tuple(qS))
        tau.append(Fraction(t, M))
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

    Every check is an int comparison. The mechanism's u is scaled to one
    common denominator Lu, giving U, and each item's q to its own common
    denominator Lq_i, giving Q_i; the shape row for i outside S reads
    (U(S+{i}) - U(S)) * Lq_i * den(d_i) == num(d_i) * Lu * Q_i(S), the
    probability rows 0 <= Q_i(S) <= Lq_i, and supermodularity compares the
    Q_i, a positive multiple of each item's marginal.

    The report counts the rows the replay checks. When the certificate does
    not cover them, its one violation is the first failing row: an ir, prob
    or bic row with its exact `Fraction` slack, or a ``shape(S,i)`` row with
    the residual of its equality when the mechanism is not of closed-form
    shape.
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

    U, Lu = _over_common_denominator(u)
    columns = [_over_common_denominator([qS[i] for qS in q]) for i in range(n)]
    Q = list(zip(*(column for column, _ in columns)))
    items = [
        (i, Lq, Lq * di.denominator, di.numerator * Lu)
        for i, ((_, Lq), di) in enumerate(zip(columns, d))
    ]
    for S in range(size):
        US, QS = U[S], Q[S]
        if US < 0:
            return report((f"ir({subset_label(S)})", u[S]))
        for i, Lq, left, right in items:
            Qi = QS[i]
            if S >> i & 1:
                shaped = Qi == Lq
            else:
                shaped = (U[S | 1 << i] - US) * left == right * Qi
            if not shaped:
                qi = q[S][i]
                residual = ONE - qi if S >> i & 1 else u[S | 1 << i] - u[S] - d[i] * qi
                return report((f"shape({subset_label(S)},{i + 1})", residual))
            if Qi < 0:
                return report((f"prob({subset_label(S)},{i + 1},>=0)", q[S][i]))
            if Qi > Lq:
                return report((f"prob({subset_label(S)},{i + 1},<=1)", ONE - q[S][i]))
    falling = _first_falling_gain(Q, n)
    if falling is not None:
        S, i, j = falling
        return report(
            (
                f"bic({subset_label(S | 1 << i | 1 << j)}|{subset_label(S)})",
                d[i] * (q[S | 1 << j][i] - q[S][i]),
            )
        )
    return report()


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` times the lcm L of their denominators, as ints, and L."""
    pairs = [v.as_integer_ratio() for v in values]
    L = lcm(*{den for _, den in pairs})
    return [num * (L // den) for num, den in pairs], L


def _first_falling_gain(
    gains: Sequence[Sequence], n: int
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
    """sum_S p(S) * tau(S), as one int dot product: p(S) * prod(den p_i) from
    `subset_products` on the p_i's numerators and denominators, and tau
    over the lcm of its denominators."""
    if mech.n != inst.n:
        raise PreconditionError("mechanism and instance disagree on the item count")
    tau, L = _over_common_denominator(mech.tau)
    p = inst.p
    probs = subset_products([(pi.numerator, pi.denominator - pi.numerator) for pi in p])
    return Fraction(sum(map(mul, probs, tau)), L * prod(pi.denominator for pi in p))


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
    document_fields(doc, "mechanism document")
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
