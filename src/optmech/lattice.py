"""Min-cost flow on the subset lattice and its greedy canonical solution.

Nodes are subsets of {1..n}; flow moves down covering edges S -> S-{i} at
unit cost d_i, so every monotone path from the full set N to a node S costs
cost(S) = sum of d_i over the items missing from S. With N the only supply
node, the cheapest way to absorb its surplus is to saturate sink nodes in
nondecreasing cost order; ties are broken by the package-wide lexicographic
order (smaller binary mask first). The most expensive node left strictly
under capacity is the partially filled node that the closed-form mechanism
is built from.

The greedy itself runs on ints: node costs scaled by the lcm of the d_i's
denominators, and balances scaled by the product of the p_i's denominators
times the lcm of the denominators of the x_i and B. The flow keeps the
scaled costs and the scaled intakes. It reads the closed-form utility and
allocation off the costs, and turns intakes into `Fraction`s only when
`absorbed` is first read; supply and total cost are divided back once at
the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop
from math import prod
from typing import Sequence

from .core import (
    LP2Params,
    Subset,
    ONE,
    ZERO,
    format_rational,
    item_range,
    over_common_denominator,
    subset_label,
    subset_probs,
    subset_products,
    subset_sums,
)
from .errors import PreconditionError

# Every pipeline that walks all 2^n lattice nodes (the closed form and its
# certificate, the reduction) is capped here: in-process `solve` takes about
# 0.6 s end to end at n = 14 on a 2-vCPU machine, printing its 16,384-line
# menu included (n = 10: 0.03 s, n = 12: 0.13 s; scripts/solve_latency.py),
# and each item adds a factor of about 2.
LATTICE_GUARD = 14


def node_costs(d: Sequence[Fraction]) -> list[Fraction]:
    """Cost of every lattice node S over ground set {1..len(d)}, by mask: the
    sum of d_i over the items missing from S, i.e. the sum over the
    complement mask, which reverses the mask order."""
    return subset_sums(d)[::-1]


def node_balances(params: LP2Params) -> list[Fraction]:
    """Net supply of every node S, by mask: p(S) * (sum_{i in S} x_i - B).

    Positive values are sources; a negative value's magnitude is the node's
    sink capacity.
    """
    B = params.B
    return [
        prob * (weight - B)
        for prob, weight in zip(subset_probs(params.p), subset_sums(params.x))
    ]


def check_single_positive(params: LP2Params) -> bool:
    """True iff the full set is the unique non-negative-balance node:
    sum(x) >= B and every proper subset sums strictly below B."""
    total = sum(params.x, ZERO)
    if total < params.B:
        return False
    # x_i > 0, so the heaviest proper subset drops only the lightest item.
    return total - min(params.x) < params.B


@dataclass(frozen=True)
class FlowSolution:
    """The canonical greedy flow.

    Nodes are masks. ``fill_order`` lists the sink nodes in the order they
    were filled, and ``intakes`` maps each to the amount it received times
    ``balance_scale``, as an int; ``absorbed`` holds the same amounts as
    `Fraction`s, derived on first access. ``partially_filled`` is the last
    filled node when it ended strictly below capacity, else None. ``costs``
    holds every node's cost times ``cost_scale`` as an int, by mask;
    `scaled_utility` and `scaled_d` read the closed-form menu off it, and
    `utility` and `allocation` give its entries as `Fraction`s. ``flows``
    maps covering edges (src, dst) to the amount carried; it is derived from
    the fill on first access.
    """

    n: int
    supply: Fraction
    fill_order: tuple[Subset, ...]
    partially_filled: Subset | None
    total_cost: Fraction
    costs: list[int] = field(repr=False)
    cost_scale: int
    intakes: dict[Subset, int] = field(repr=False)
    balance_scale: int

    @property
    def exactly_saturated_boundary(self) -> bool:
        """The last filled node took exactly its capacity."""
        return bool(self.fill_order) and self.partially_filled is None

    def scaled_utility(self, S: Subset) -> int:
        """U(S) = u(S) times ``cost_scale``: max(costs[S*] - costs[S], 0),
        and 0 when nothing was filled (c* = 0)."""
        gap = (self.costs[self.fill_order[-1]] if self.fill_order else 0) - self.costs[S]
        return gap if gap > 0 else 0

    @cached_property
    def scaled_d(self) -> list[int]:
        """D_i = d_i times ``cost_scale``, item i 0-based: the cost gap
        costs[S] - costs[S+{i}] of any S without i, here S = {}."""
        return [self.costs[0] - self.costs[1 << i] for i in range(self.n)]

    def utility(self, S: Subset) -> Fraction:
        """The optimal u(S) = max(cost(S*) - cost(S), 0), S* the last filled
        node; 0 for every S when nothing was filled (zero supply)."""
        return Fraction(self.scaled_utility(S), self.cost_scale)

    def allocation(self, S: Subset, i: int) -> Fraction:
        """The optimal q_i(S), item i 0-based: 1 for i in S, else
        (u(S+{i}) - u(S)) / d_i = (U(S+{i}) - U(S)) / D_i."""
        if S >> i & 1:
            return ONE
        u = self.scaled_utility
        return Fraction(u(S | 1 << i) - u(S), self.scaled_d[i])

    @cached_property
    def absorbed(self) -> dict[Subset, Fraction]:
        """Each filled sink's intake as an exact `Fraction`, in fill order."""
        scale = self.balance_scale
        return {S: Fraction(take, scale) for S, take in self.intakes.items()}

    @cached_property
    def flows(self) -> dict[tuple[Subset, Subset], Fraction]:
        """Each sink's intake routed along the monotone path from the full
        set that removes its missing items in increasing index order; any
        other monotone path costs the same, so the total cost is
        path-independent."""
        full = (1 << self.n) - 1
        flows: dict[tuple[Subset, Subset], Fraction] = {}
        for S in self.fill_order:
            take = self.absorbed[S]
            node = full
            for i in range(self.n):
                if not S >> i & 1:
                    child = node ^ 1 << i
                    edge = (node, child)
                    flows[edge] = flows.get(edge, ZERO) + take
                    node = child
        return flows


def canonical_solution(params: LP2Params) -> FlowSolution:
    """Greedily saturate sink nodes in (cost, lex) order until the supply of
    the full set is absorbed.

    Requires the single-positive-node property and feasibility
    sum(p_i x_i) <= B. The greedy runs on ints: costs are scaled by the lcm
    of d's denominators, and balances p(S) * (x(S) - B) by prod(den p_i)
    times the lcm of the denominators of x and B, with p(S) * prod(den p_i)
    the product of num p_i over S and den p_i - num p_i off S. The flow
    keeps the scaled intakes; supply and total cost are divided back once,
    exactly, at the end.
    """
    n = params.n
    full = (1 << n) - 1
    total = sum(params.x, ZERO)
    if not check_single_positive(params):
        if total < params.B:
            raise PreconditionError(
                f"node {subset_label(full)} is not positive: "
                f"sum(x) = {format_rational(total)} < B = {format_rational(params.B)}"
            )
        lightest = min(item_range(n), key=lambda i: (params.x[i - 1], i))
        witness = full ^ 1 << (lightest - 1)
        raise PreconditionError(
            f"multiple positive nodes: proper subset {subset_label(witness)} "
            f"sums to {format_rational(total - params.x[lightest - 1])} >= B = "
            f"{format_rational(params.B)}"
        )
    expected = sum((pi * xi for pi, xi in zip(params.p, params.x)), ZERO)
    if expected > params.B:
        raise PreconditionError(
            f"infeasible parameters: sum(p_i x_i) = {format_rational(expected)} "
            f"> B = {format_rational(params.B)}"
        )

    D, cost_scale = over_common_denominator(params.d)
    costs = subset_sums(D)[::-1]
    (B, *X), weight_scale = over_common_denominator([params.B, *params.x])
    weights = subset_sums(X)
    probs = subset_products(
        [(pi.numerator, pi.denominator - pi.numerator) for pi in params.p]
    )
    balance_scale = weight_scale * prod(pi.denominator for pi in params.p)
    supply = probs[full] * (weights[full] - B)
    # sinks pop in (cost, mask) order, and only as many as the supply fills
    sinks = list(zip(costs, range(full)))
    heapify(sinks)

    intakes: dict[Subset, int] = {}
    fill_order: list[Subset] = []
    partially_filled: Subset | None = None
    total_cost = 0
    remaining = supply
    while remaining and sinks:
        cost, S = heappop(sinks)
        # a proper subset S has x(S) < B and p(S) > 0, so capacity > 0, and
        # remaining > 0 here: every popped sink takes a positive amount
        capacity = probs[S] * (B - weights[S])
        take = capacity if capacity <= remaining else remaining
        intakes[S] = take
        fill_order.append(S)
        total_cost += take * cost
        remaining -= take
        if remaining == 0 and take < capacity:
            partially_filled = S
    if remaining != 0:
        raise PreconditionError("sink capacity exhausted before the supply was absorbed")

    return FlowSolution(
        n=n,
        supply=Fraction(supply, balance_scale),
        fill_order=tuple(fill_order),
        partially_filled=partially_filled,
        total_cost=Fraction(total_cost, balance_scale * cost_scale),
        costs=costs,
        cost_scale=cost_scale,
        intakes=intakes,
        balance_scale=balance_scale,
    )


def dump_lattice(params: LP2Params, flow: FlowSolution) -> str:
    """Audit dump: one line per node in (cost, lex) order with its subset,
    cost, balance and absorbed flow, all exact."""
    costs = flow.costs
    balances = node_balances(params)
    lines = [f"n={params.n} supply={format_rational(flow.supply)} "
             f"total_cost={format_rational(flow.total_cost)}"]
    for S in sorted(range(len(costs)), key=lambda S: (costs[S], S)):
        lines.append(
            f"node={subset_label(S)} "
            f"cost={format_rational(Fraction(costs[S], flow.cost_scale))} "
            f"balance={format_rational(balances[S])} "
            f"absorbed={format_rational(flow.absorbed.get(S, ZERO))}"
        )
    return "\n".join(lines) + "\n"
