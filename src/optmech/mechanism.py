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

`Mechanism` stores the menu as scaled ints: u over one u-scale, each item's
column of q over its own q-scale, and the prices over one price scale. Its
`Fraction` views ``u``, ``q`` (one tuple per type) and ``tau`` are built
only when first read. `price_menu` prices every type from scaled utilities
and the instance, `closed_form_mechanism` hands it the flow's, and
`expected_revenue` is one int dot product on the stored prices.
`menu_strings` formats each value once from its int pair, for the printed
menu and the menu document alike, and `mechanism_to_json` writes that
document from the strings, while `mechanism_from_json_dict` reads it back:
the menu format lives here alone.

Pricing and the certificate both start from the menu of u = 0: q_i(S) = 1
for i in S and 0 otherwise, priced at sum_{i in S} (a_i + d_i). Each item's
column of that menu is one list repetition, and its prices are subset sums.
A marginal U(R+{i}) - U(R) can be nonzero only when R or R+{i} is in the
support of U (the types with u != 0), that is at R = S - {i} for S in the
support, so only those masks are visited. The cost is O(2^n n) list work
done by the interpreter's list primitives, plus work proportional to the
support (times n, for each item's masks): on a flow's menu u is nonzero
only on the types S with cost(S) < cost(S*).

`certify_bic_ir` certifies every truthfulness, rationality and probability
constraint of the full program, for a mechanism of this closed-form shape:
given the shape, those 4^n rows follow from u >= 0, 0 <= q <= 1 and
supermodularity of u, and each of those checks is itself one of the rows, so
a failed check names one violated row. It runs them in one pass, as int
comparisons on the mechanism's stored ints, a column at a time; only a
check that fails is scanned for its first failing type, and the least
failing row, by type and then by its rank within the type, is named with
its exact `Fraction` slack.
`verify_bic_ir` replays all rows on the `Fraction` views and names every
violated one with its exact slack; it is the reference the certificate is
tested against. Its 4^n truthfulness rows come from `bic_violations`, which
puts the `Fraction` menu over one denominator and hands it to
`scaled_bic_violations`, the one int replay, which `exactlp.solve_lp1` runs
on the simplex's int answers directly. Ties are acceptable: a
weakly satisfied constraint is satisfied (deterministic tie-breaking in
favor of the higher-priced entry replaces any rebate scheme).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import gcd
from operator import and_, mul
from typing import Sequence

from .core import (
    OMDInstance,
    Subset,
    ONE,
    check_guard,
    check_mask,
    check_subset,
    document_fields,
    format_ratio,
    over_common_denominator,
    parse_rational,
    scaled_subset_probs,
    subset_label,
    subset_sums,
    subset_to_list,
)
from .errors import InputError, PreconditionError
from .lattice import FlowSolution

# Time (x4 per item) sets the guard: `verify_bic_ir` on a closed-form menu
# took 0.44 s at n=11, 2.0 s at n=12 and 7.2 s at n=13, peak RSS 20, 26 and
# 36 MiB, as `bic_violations` holds 2^n sums at once (2 vCPUs, Python 3.11.7).
# A bad menu costs more, as the report keeps every violated row: random menus
# (half their 4^n rows break) took 0.20/1.23/5.72 s at a peak RSS of
# 26/63/212 MiB for n=8/9/10, x4 per item, so n=12 would need some 3 GiB.
VERIFY_GUARD = 12


def _check_n(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise PreconditionError(f"n: expected an integer >= 1, got {n!r}")


def _check_count(n: int, name: str, values: Sequence) -> None:
    size = len(values)
    # compare bit lengths first so an absurd n never builds 1 << n
    if size.bit_length() != n + 1 or size != 1 << n:
        raise PreconditionError(f"{name}: expected 2^{n} entries, got {size}")


def _check_menu_shape(n, u: Sequence, q: Sequence[Sequence], tau: Sequence) -> None:
    """Refuse, with a `PreconditionError` naming the field, an n that is not
    an int >= 1, a ``u``, ``q`` (one entry per type) or ``tau`` without 2^n
    entries, or a type without n probabilities."""
    _check_n(n)
    for name, values in (("u", u), ("q", q), ("tau", tau)):
        _check_count(n, name, values)
    for S, qS in enumerate(q):
        if len(qS) != n:
            raise PreconditionError(
                f"q: type {subset_label(S)}: expected {n} probabilities, got {len(qS)}"
            )


@dataclass(frozen=True)
class Mechanism:
    """A direct mechanism over all 2^n types, stored as scaled ints.

    ``scaled_u[S]`` is type S's truthful expected utility times ``u_scale``,
    ``scaled_q[i][S]`` its probability of getting item i times
    ``q_scales[i]`` (one column per item, indexed by type mask), and
    ``scaled_tau[S]`` its expected price times ``tau_scale``; every scale is
    a positive int. The `Fraction` views ``u``, ``q`` (a tuple per type) and
    ``tau`` are built on first read; `Mechanism.from_fractions` builds a
    mechanism from such lists. ``unique`` records whether the construction
    certified the mechanism as the unique optimum (strictly partial
    saturation). A menu without 2^n entries in u, in tau or in each of n
    q columns is refused with a `PreconditionError` naming the field, as is
    a scale that is not a positive int.
    """

    n: int
    scaled_u: list[int] = field(repr=False)
    u_scale: int
    scaled_q: list[list[int]] = field(repr=False)
    q_scales: list[int]
    scaled_tau: list[int] = field(repr=False)
    tau_scale: int
    unique: bool

    def __post_init__(self):
        n = self.n
        _check_n(n)
        _check_count(n, "u", self.scaled_u)
        _check_count(n, "tau", self.scaled_tau)
        if len(self.scaled_q) != n:
            raise PreconditionError(f"q: expected {n} columns, got {len(self.scaled_q)}")
        for i, column in enumerate(self.scaled_q, start=1):
            _check_count(n, f"q: item {i}", column)
        if len(self.q_scales) != n:
            raise PreconditionError(f"q: expected {n} scales, got {len(self.q_scales)}")
        for name, scale in (("u", self.u_scale), ("tau", self.tau_scale),
                            *(("q", s) for s in self.q_scales)):
            if not isinstance(scale, int) or isinstance(scale, bool) or scale < 1:
                raise PreconditionError(f"{name}: scale must be a positive integer, got {scale!r}")

    @classmethod
    def from_fractions(cls, n: int, u: Sequence[Fraction], q: Sequence[Sequence[Fraction]],
                       tau: Sequence[Fraction], unique: bool) -> Mechanism:
        """The mechanism whose views are these rationals, ``q`` one tuple per
        type, scaled once: u and tau each over the lcm of their denominators,
        and each item's column of q over the lcm of its own."""
        _check_menu_shape(n, u, q, tau)
        U, u_scale = over_common_denominator(u)
        columns = [over_common_denominator([qS[i] for qS in q]) for i in range(n)]
        T, tau_scale = over_common_denominator(tau)
        return cls(n, U, u_scale, [column for column, _ in columns],
                   [Lq for _, Lq in columns], T, tau_scale, unique)

    @cached_property
    def u(self) -> list[Fraction]:
        scale = self.u_scale
        return [Fraction(v, scale) for v in self.scaled_u]

    @cached_property
    def q(self) -> list[tuple[Fraction, ...]]:
        return list(zip(*[[Fraction(v, s) for v in column]
                          for column, s in zip(self.scaled_q, self.q_scales)]))

    @cached_property
    def tau(self) -> list[Fraction]:
        scale = self.tau_scale
        return [Fraction(v, scale) for v in self.scaled_tau]


def _unit_column(bit: int, size: int, one: int) -> list[int]:
    """Item ``bit``'s column of the u = 0 menu over ``size`` types: ``one``
    (q = 1) on the masks holding the bit and 0 elsewhere."""
    return ([0] * bit + [one] * bit) * (size // (2 * bit))


def _gain_masks(support: Sequence[int], bit: int) -> dict[int, None]:
    """The masks R without ``bit`` at which U(R + bit) - U(R) can be nonzero
    when U is nonzero only on ``support``: S - bit for each S in it (S
    itself when it lacks the bit), each once, as the keys of a dict."""
    return dict.fromkeys(map(and_, support, repeat(~bit)))


def price_menu(inst: OMDInstance, U: Sequence[int], scale: int, unique: bool) -> Mechanism:
    """The menu of closed-form shape on the utilities u(S) = U[S] / scale:
    q_i(S) = 1 for i in S and (u(S+{i}) - u(S)) / d_i otherwise, and the
    price v(S).q(S) - u(S). It reads only (U, scale) and the instance.

    Item i's q-scale is d_i * scale over g_i = gcd(den(d_i), scale), so Q_i(S)
    is the gain U(S+{i}) - U(S) times den(d_i) / g_i; when den(d_i) divides
    the scale, as it does for the flow's, that factor is 1. Each price over
    one common denominator M is the int

        tau(S) * M = sum_{i in S} (a_i + d_i) * M
                     + sum_{i not in S} (a_i * M / (d_i * scale)) * (U(S+{i}) - U(S))
                     - (M / scale) * U(S).

    The first sum and each q column start as the u = 0 menu's; the other
    terms are added only on the support of U and at the masks
    `_gain_masks` lists, the only places where they can be nonzero.
    """
    n = inst.n
    size = 1 << n
    if len(U) != size or not isinstance(scale, int) or scale < 1:
        raise PreconditionError(f"utilities: expected 2^{n} ints over a positive int scale")
    q_scales, factors = [], []
    for di in inst.d:
        g = gcd(di.denominator, scale)
        q_scales.append(di.numerator * (scale // g))
        factors.append(di.denominator // g)
    high = [ai + di for ai, di in zip(inst.a, inst.d)]
    low_per_d = [ai / (di * scale) for ai, di in zip(inst.a, inst.d)]
    (C, *scaled), M = over_common_denominator([Fraction(1, scale), *high, *low_per_d])
    T = subset_sums(scaled[:n])
    support = list(compress(range(size), U))
    for S in support:
        T[S] -= C * U[S]
    Q = []
    for i, (Lq, f, Ai) in enumerate(zip(q_scales, factors, scaled[n:])):
        bit = 1 << i
        column = _unit_column(bit, size, Lq)
        for R in _gain_masks(support, bit):
            g = U[R | bit] - U[R]
            column[R] = g * f
            T[R] += Ai * g
        Q.append(column)
    return Mechanism(n, list(U), scale, Q, q_scales, T, M, unique)


def closed_form_mechanism(inst: OMDInstance, flow: FlowSolution) -> Mechanism:
    """The menu read off the canonical flow on ``inst``'s parameters: each
    type's u and q from the flow, and its price v(S).q(S) - u(S), priced by
    `price_menu` from the flow's ints U(S) = u(S) * cost_scale, that is
    max(costs[S*] - costs[S], 0), and 0 everywhere when nothing was filled."""
    if flow.n != inst.n:
        raise PreconditionError("flow and instance disagree on the item count")
    top = flow.costs[flow.fill_order[-1]] if flow.fill_order else 0
    U = [top - cost if cost < top else 0 for cost in flow.costs]
    return price_menu(inst, U, flow.cost_scale, flow.partially_filled is not None)


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


def bic_violations(
    d: Sequence[Fraction], u: Sequence[Fraction], q: Sequence[Sequence[Fraction]]
) -> list[tuple[Subset, Subset, Fraction]]:
    """Every ordered pair of types (S, T) whose truthfulness row
    u(S) - u(T) >= sum_{i in S ^ T} W_i(T) breaks, S-major, with its exact
    slack (left side minus right), where W_i(T) = d_i q_i(T) for i outside
    T and -d_i q_i(T) for i in T. On ints, with no `Fraction` product: u and
    every q_i(T) go over one common denominator L, the d_i over their own,
    M, and `scaled_bic_violations` replays the rows; each slack is its int
    gap over L M."""
    ints, L = over_common_denominator([*u, *(qi for qT in q for qi in qT)])
    D, M = over_common_denominator(d)
    LM = L * M
    return [(S, T, Fraction(gap, LM)) for S, T, gap in scaled_bic_violations(D, M, ints)]


def scaled_bic_violations(
    D: Sequence[int], M: int, ints: Sequence[int]
) -> list[tuple[Subset, Subset, int]]:
    """`bic_violations` on ints: item i's d_i is D[i] / M, and ``ints``
    holds every type's u(S) and then q_i(T) at index 2^n + n T + i, all
    over one common denominator L > 0, which is never read. Each violated
    row comes with its slack times L M: the row times L M reads
    U(S) M - U(T) M >= sum_i (+-D_i) Q_i(T). One T at a time, the sums of
    W(T) over all masks are built by doubling and T's violated rows kept for
    one sort."""
    n = len(D)
    size = 1 << n
    U = [v * M for v in ints[:size]]
    violated = []
    for T, UT in enumerate(U):
        Q = ints[size + T * n:size + T * n + n]
        sums = subset_sums([(-Di if T >> i & 1 else Di) * Qi
                            for i, (Di, Qi) in enumerate(zip(D, Q))])
        # S == T reads 0 < 0
        violated += [(S, T, US - UT - sums[S ^ T])
                     for S, US in enumerate(U) if US - UT < sums[S ^ T]]
    violated.sort()
    return violated


def _report(n: int, *violations: tuple[str, Fraction]) -> BicIrReport:
    """A report counting every row of the full program over n items."""
    size = 1 << n
    return BicIrReport(n, size * size - size, size, 2 * n * size, violations)


def verify_bic_ir(inst: OMDInstance, mech: Mechanism) -> BicIrReport:
    """Check u(S) >= u(T) + (v(S) - v(T)) . q(T) for every ordered pair,
    u(S) >= 0 and 0 <= q_i(S) <= 1 for every type, with exact slacks. The
    truthfulness rows come from `bic_violations`; per type S the report
    lists its ir row, then its prob rows, then its bic(S|T) rows."""
    n = inst.n
    check_guard(n, VERIFY_GUARD, "verification guard")
    if mech.n != n:
        raise PreconditionError("mechanism and instance disagree on the item count")
    bic = [[] for _ in mech.u]
    for S, T, slack in bic_violations(inst.d, mech.u, mech.q):
        bic[S].append((f"bic({subset_label(S)}|{subset_label(T)})", slack))
    violations = []
    for S, (uS, qS) in enumerate(zip(mech.u, mech.q)):
        if uS < 0:
            violations.append((f"ir({subset_label(S)})", uS))
        for i, qi in enumerate(qS, start=1):
            if qi < 0:
                violations.append((f"prob({subset_label(S)},{i},>=0)", qi))
            if qi > 1:
                violations.append((f"prob({subset_label(S)},{i},<=1)", ONE - qi))
        violations += bic[S]
    return _report(n, *violations)


def certify_bic_ir(inst: OMDInstance, mech: Mechanism) -> BicIrReport:
    """Certify the rows `verify_bic_ir` replays, with work proportional to
    the support of u on top of O(2^n n) list work.

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

    Every check is an int comparison on the stored ints: U over the u-scale
    Lu and each item's column Q_i over its q-scale Lq_i. The shape row for
    i outside S reads (U(S+{i}) - U(S)) * Lq_i * den(d_i) == num(d_i) * Lu *
    Q_i(S), both sides divided by the gcd of their factors, so a q-scale
    that does not match d_i fails it. `_first_failing_row` runs every check
    in one pass, a column at a time: u >= 0 is min(U) >= 0; item i's
    expected column is the u = 0 menu's, with the gain times the left
    factor, which must divide exactly by the right one, written at each of
    `_gain_masks`; the stored column must equal it, and its minimum and
    maximum must lie in [0, Lq_i]. Supermodularity compares the Q_i, a
    positive multiple of each item's marginal, and is checked only where
    Q_i(S) > 0: once q >= 0 holds, Q_i(S+{j}) >= 0 = Q_i(S) wherever
    Q_i(S) = 0, so a zero marginal cannot fall, and given the shape Q_i(S)
    is nonzero only at the gain masks.

    The report counts the rows the replay checks. Its one violation, when a
    check fails, is the least failing row by type and then by rank within
    the type: the ir row, then for each item in turn its ``shape(S,i)`` row
    (with the residual of its equality), its prob row >= 0 and its prob row
    <= 1. Only a check that failed is scanned for its first failing type.
    The supermodularity rows, named as the bic rows above, come after all
    of those, by (S, j, i), and are checked only once the others hold. Every
    slack is an exact `Fraction`.
    """
    n = inst.n
    if mech.n != n:
        raise PreconditionError("mechanism and instance disagree on the item count")
    row = _first_failing_row(inst, mech)
    return _report(n) if row is None else _report(n, row)


def _first_failing_row(inst: OMDInstance, mech: Mechanism) -> tuple[str, Fraction] | None:
    """The least row, in `certify_bic_ir`'s order, that its checks fail;
    None when every check holds."""
    U, Lu = mech.scaled_u, mech.u_scale
    size = len(U)
    # ((type, rank within the type), name, slack) of each failed check
    failed = []
    if min(U) < 0:
        S = next(S for S, US in enumerate(U) if US < 0)
        failed.append(((S, 0), f"ir({subset_label(S)})", Fraction(U[S], Lu)))
    support = list(compress(range(size), U))
    columns = []
    for i, (column, Lq, di) in enumerate(zip(mech.scaled_q, mech.q_scales, inst.d)):
        left, right = Lq * di.denominator, di.numerator * Lu
        g = gcd(left, right)
        left, right = left // g, right // g
        bit = 1 << i
        expected = _unit_column(bit, size, Lq)
        masks = _gain_masks(support, bit)
        for R in masks:
            Qi, rest = divmod((U[R | bit] - U[R]) * left, right)
            # no int Q_i(R) meets the shape row when the division leaves a rest
            expected[R] = None if rest else Qi
        if column != expected or min(column) < 0 or max(column) > Lq:
            S = next(S for S, (Qi, Ei) in enumerate(zip(column, expected))
                     if Qi != Ei or Qi < 0 or Qi > Lq)
            qi, where = Fraction(column[S], Lq), f"{subset_label(S)},{i + 1}"
            if column[S] != expected[S]:
                rank, name = 1, f"shape({where})"
                slack = ONE - qi if S & bit else Fraction(U[S | bit] - U[S], Lu) - di * qi
            elif qi < 0:
                rank, name, slack = 2, f"prob({where},>=0)", qi
            else:
                rank, name, slack = 3, f"prob({where},<=1)", ONE - qi
            failed.append(((S, 3 * i + rank), name, slack))
        columns.append((bit, column, masks))
    if failed:
        return min(failed)[1:]
    # the least (S, j, i), as masks, where Q_i(S+{j}) < Q_i(S)
    fall = None
    full = size - 1
    for bit, column, masks in columns:
        for R in masks:
            QR = column[R]
            if QR > 0:
                # each item j != i outside R, lowest bit first
                outside = full ^ R ^ bit
                while outside:
                    other = outside & -outside
                    if column[R | other] < QR and (fall is None or (R, other, bit) < fall):
                        fall = R, other, bit
                    outside ^= other
    if fall is None:
        return None
    S, other, bit = fall
    i = bit.bit_length() - 1
    Q = mech.scaled_q[i]
    return (f"bic({subset_label(S | bit | other)}|{subset_label(S)})",
            inst.d[i] * Fraction(Q[S | other] - Q[S], mech.q_scales[i]))


def is_monotone_supermodular(u: Sequence[Fraction], n: int) -> bool:
    """True iff u (indexed by type mask) is nondecreasing along lattice edges
    and satisfies u(S+{i}+{j}) - u(S+{j}) >= u(S+{i}) - u(S) for all S and
    items i != j outside S."""
    gains = [[u[S | 1 << i] - u[S] for S in range(1 << n)] for i in range(n)]
    return all(g >= 0 for column in gains for g in column) and all(
        column[S | 1 << j] >= column[S]
        for i, column in enumerate(gains) for S in range(1 << n) for j in range(n)
        if not (S | 1 << i) >> j & 1)


def expected_revenue(inst: OMDInstance, mech: Mechanism) -> Fraction:
    """sum_S p(S) * tau(S), as one int dot product: p(S) * prod(den p_i) from
    `scaled_subset_probs`, and the stored prices over their scale."""
    if mech.n != inst.n:
        raise PreconditionError("mechanism and instance disagree on the item count")
    probs, scale = scaled_subset_probs(inst.p)
    return Fraction(sum(map(mul, probs, mech.scaled_tau)), mech.tau_scale * scale)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def bernoulli(rng: random.Random, num: int, den: int) -> bool:
    """Exact Bernoulli(num / den) draw for an int den > 0: compare a uniform
    dyadic rational, refined one random bit at a time, against the rational
    threshold. Every comparison is the same on any multiple of (num, den),
    so the draws do not depend on whether the pair is in lowest terms."""
    if num <= 0:
        return False
    if num >= den:
        return True
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
    tau(S). Only type S's stored ints are read, so the `Fraction` views of
    the whole menu are not built."""
    S = check_mask(S, mech.n)
    allocated = 0
    for i, (column, Lq) in enumerate(zip(mech.scaled_q, mech.q_scales)):
        if bernoulli(rng, column[S], Lq):
            allocated |= 1 << i
    return allocated, Fraction(mech.scaled_tau[S], mech.tau_scale)


# ---------------------------------------------------------------------------
# Mechanism JSON document
# ---------------------------------------------------------------------------

def menu_strings(mech: Mechanism) -> tuple[list[str], list[tuple[str, ...]], list[str]]:
    """Every type's u, q (a tuple per type) and price in the wire format, by
    mask, each written once by `format_ratio` from its stored int and scale;
    q is formatted a column at a time."""
    u_scale, tau_scale = mech.u_scale, mech.tau_scale
    return (
        [format_ratio(v, u_scale) for v in mech.scaled_u],
        list(zip(*[[format_ratio(v, Lq) for v in column]
                   for column, Lq in zip(mech.scaled_q, mech.q_scales)])),
        [format_ratio(v, tau_scale) for v in mech.scaled_tau],
    )


# One menu entry as `json.dumps(..., indent=2)` writes it. Its keys are fixed
# ASCII, and every u, q and price string holds only digits, "-" and "/", so
# nothing needs escaping; q always has n >= 1 entries.
_ENTRY = ('{\n      "type": %s,\n      "u": "%s",\n      "q": [\n        "%s"\n      ],'
          '\n      "price": "%s"\n    }')


def mechanism_to_json(mech: Mechanism, strings=None) -> str:
    """The menu document {"n": int, "menu": [entry, ...]}, each entry
    {"type": [1-based item, ...], "u": str, "q": [str, ...], "price": str}
    in mask order, as the text ``json.dumps(doc, indent=2)`` writes, plus a
    final newline. It is written straight from the strings; ``strings``,
    when given, is `menu_strings(mech)` already made, so no value is
    formatted twice."""
    n = mech.n
    u, q, tau = strings or menu_strings(mech)
    # each type's item list by mask, doubled one bit at a time: S + {i} for
    # S below bit i appends item i + 1 to S's list
    lists = [""]
    for i in range(n):
        item = str(i + 1)
        lists += [f"{items},\n        {item}" if items else item for items in lists]
    menu = ",\n    ".join([
        _ENTRY % (f"[\n        {items}\n      ]" if items else "[]",
                  u[S], '",\n        "'.join(q[S]), tau[S])
        for S, items in enumerate(lists)
    ])
    return f'{{\n  "n": {n},\n  "menu": [\n    {menu}\n  ]\n}}\n'


def mechanism_from_json_dict(doc) -> Mechanism:
    """Parse the menu document. The uniqueness flag is not part of the wire
    format, so a loaded mechanism carries unique=False."""
    n, menu = document_fields(doc, "mechanism document", "n", "menu")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"n: expected an integer, got {n!r}")
    if n < 1:
        raise InputError(f"n: must be >= 1, got {n}")
    if not isinstance(menu, list):
        raise InputError("menu: expected a list")
    # compare bit lengths first so an absurd n never builds 1 << n
    if len(menu).bit_length() != n + 1 or len(menu) != 1 << n:
        raise InputError(f"menu: expected 2^{n} entries, got {len(menu)}")
    u: list = [None] * len(menu)
    q: list = [None] * len(menu)
    tau: list = [None] * len(menu)
    for idx, entry in enumerate(menu):
        if not isinstance(entry, dict):
            raise InputError(f"menu[{idx}]: expected an object")
        for key in ("type", "u", "q", "price"):
            if key not in entry:
                raise InputError(f"menu[{idx}].{key}: missing field")
        if not isinstance(entry["type"], list):
            raise InputError(f"menu[{idx}].type: expected a list of item indices")
        S = check_subset(entry["type"], n, field=f"menu[{idx}].type")
        if u[S] is not None:
            raise InputError(f"menu[{idx}].type: duplicate type {subset_to_list(S)}")
        u[S] = parse_rational(entry["u"], field=f"menu[{idx}].u")
        raw_q = entry["q"]
        if not isinstance(raw_q, list) or len(raw_q) != n:
            raise InputError(f"menu[{idx}].q: expected {n} rationals")
        q[S] = tuple(
            parse_rational(v, field=f"menu[{idx}].q[{k}]") for k, v in enumerate(raw_q)
        )
        tau[S] = parse_rational(entry["price"], field=f"menu[{idx}].price")
    return Mechanism.from_fractions(n, u, q, tau, unique=False)
