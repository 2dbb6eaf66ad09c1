"""Budget-uncertain additive bidder: closed-form optimal menu and LP oracle.

The bidder values item i at a known positive integer x_i. With probability
1 - eps she is unconstrained (worth of a set = its sum); with probability
eps she has an integer budget and values a set at min(sum, budget). For
eps < 1/(1 + sum(x)) the optimal direct mechanism is a two-entry menu:
everything at full value for the unconstrained type, and a best affordable
bundle at its exact value for the budgeted type. The oracle re-derives the
optimal revenue as an exact LP over randomized allocations for both types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Subset,
    ZERO,
    ONE,
    check_positive_ints,
    document_fields,
    format_rational,
    parse_rational,
    subset_label,
    subset_sums,
)
from .errors import InputError, PreconditionError
from .exactlp import Constraint, LPProblem, OPTIMAL, solve_lp

# The oracle LP carries 2^n distribution variables per type:
# `budgeted_oracle_lp` took 0.05 s at n = 10 (2 vCPUs, Python 3.11).
ORACLE_GUARD = 10
# Steps n * min(2^n, budget + 1, sum(x) + 1) bound the best-bundle DP's work.
# At about 200 ns per step when every sum is reachable, and 2^18 dict entries
# (~50 MiB) for 18 power-of-two items, the bound keeps a run near 1 s.
BUNDLE_DP_GUARD = 5_000_000


@dataclass(frozen=True)
class BudgetedInstance:
    x: tuple[int, ...]
    budget: int
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", check_positive_ints(self.x, "x"))
        if not isinstance(self.budget, int) or isinstance(self.budget, bool) or self.budget <= 0:
            raise InputError(f"budget: expected a positive integer, got {self.budget!r}")
        ceiling = Fraction(1, 1 + sum(self.x))
        if not ZERO < self.eps < ceiling:
            raise InputError(
                f"eps: must lie in (0, {format_rational(ceiling)}), "
                f"got {format_rational(self.eps)}"
            )

    @property
    def n(self) -> int:
        return len(self.x)


def bundle_value(x: tuple[int, ...], S: Subset) -> int:
    return sum(xi for i, xi in enumerate(x) if S >> i & 1)


def best_affordable_bundle(x: tuple[int, ...], budget: int) -> tuple[int, Subset]:
    """Largest subset sum not exceeding the budget, with its witness bundle
    (a mask).

    Pseudo-polynomial DP over achievable sums; per sum the witness with the
    smallest binary mask is kept, so the returned bundle is the
    lexicographically least among the maximizers.
    """
    n = len(x)
    steps = n * min(1 << n, budget + 1, sum(x) + 1)
    if steps > BUNDLE_DP_GUARD:
        raise PreconditionError(
            f"best-bundle DP over {n} items would take {steps} steps, past the "
            f"guard {BUNDLE_DP_GUARD}"
        )
    best_mask = {0: 0}
    for i, w in enumerate(x, start=1):
        bit = 1 << (i - 1)
        # snapshot so each item is used at most once; adding item i preserves
        # mask order because items are processed in increasing index order
        for s, mask in list(best_mask.items()):
            s2 = s + w
            if s2 > budget:
                continue
            cand = mask | bit
            prev = best_mask.get(s2)
            if prev is None or cand < prev:
                best_mask[s2] = cand
    value = max(best_mask)
    return value, best_mask[value]


@dataclass(frozen=True)
class BudgetedMenu:
    """The two-entry optimal menu (bundles are masks) and its expected revenue."""

    full_bundle: Subset
    full_price: Fraction
    budget_bundle: Subset
    budget_price: Fraction
    revenue: Fraction


def optimal_budgeted_mechanism(inst: BudgetedInstance) -> BudgetedMenu:
    """Entry 1: all items at their total value (unbudgeted type). Entry 2:
    a best affordable bundle at exactly its value (budgeted type)."""
    total = sum(inst.x)
    value, witness = best_affordable_bundle(inst.x, inst.budget)
    revenue = (ONE - inst.eps) * total + inst.eps * value
    return BudgetedMenu(
        full_bundle=(1 << inst.n) - 1,
        full_price=Fraction(total),
        budget_bundle=witness,
        budget_price=Fraction(value),
        revenue=revenue,
    )


def menu_is_bic_ir(inst: BudgetedInstance, menu: BudgetedMenu) -> bool:
    """The four pairwise constraints for the two types, ties allowed."""
    def v_add(S: Subset) -> int:
        return bundle_value(inst.x, S)

    def v_budget(S: Subset) -> int:
        return min(v_add(S), inst.budget)

    u_add = v_add(menu.full_bundle) - menu.full_price
    u_budget = v_budget(menu.budget_bundle) - menu.budget_price
    return (
        u_add >= 0
        and u_budget >= 0
        and u_add >= v_add(menu.budget_bundle) - menu.budget_price
        and u_budget >= v_budget(menu.full_bundle) - menu.full_price
    )


def budgeted_oracle_lp(inst: BudgetedInstance) -> Fraction:
    """Exact optimal truthful revenue over randomized two-type menus.

    Decision variables are a distribution over bundles per type plus a free
    expected price per type; the budgeted valuation is nonlinear in the
    bundle, so bundles are enumerated explicitly (guarded at n <= 10).
    """
    n = inst.n
    if n > ORACLE_GUARD:
        raise PreconditionError(f"n={n} exceeds the oracle guard {ORACLE_GUARD}")
    subsets = range(1 << n)
    v_add = subset_sums(inst.x)
    v_budget = [min(v, inst.budget) for v in v_add]

    za = [f"za({subset_label(S)})" for S in subsets]
    zb = [f"zb({subset_label(S)})" for S in subsets]
    variables = za + zb + ["price_a", "price_b"]

    one_a = {za[S]: ONE for S in subsets}
    one_b = {zb[S]: ONE for S in subsets}

    bic_a = {za[S]: v_add[S] for S in subsets}
    bic_a.update({zb[S]: -v_add[S] for S in subsets})
    bic_a["price_a"] = -ONE
    bic_a["price_b"] = ONE

    bic_b = {zb[S]: v_budget[S] for S in subsets}
    bic_b.update({za[S]: -v_budget[S] for S in subsets})
    bic_b["price_b"] = -ONE
    bic_b["price_a"] = ONE

    ir_a = {za[S]: v_add[S] for S in subsets}
    ir_a["price_a"] = -ONE
    ir_b = {zb[S]: v_budget[S] for S in subsets}
    ir_b["price_b"] = -ONE

    prob = LPProblem(
        variables=tuple(variables),
        objective={"price_a": ONE - inst.eps, "price_b": inst.eps},
        sense="max",
        constraints=(
            Constraint(one_a, "=", ONE, name="dist(a)"),
            Constraint(one_b, "=", ONE, name="dist(b)"),
            Constraint(bic_a, ">=", ZERO, name="bic(a|b)"),
            Constraint(bic_b, ">=", ZERO, name="bic(b|a)"),
            Constraint(ir_a, ">=", ZERO, name="ir(a)"),
            Constraint(ir_b, ">=", ZERO, name="ir(b)"),
        ),
        lower={"price_a": None, "price_b": None},
    )
    sol = solve_lp(prob)
    if sol.status != OPTIMAL:
        raise PreconditionError(f"oracle program is {sol.status}")
    return sol.value


def budgeted_from_json_dict(doc) -> BudgetedInstance:
    """Parse {"x": [ints], "budget": int, "eps": rational-string}."""
    x, budget, eps = document_fields(doc, "budgeted document", "x", "budget", "eps")
    if not isinstance(x, list):
        raise InputError("x: expected a list of positive integers")
    return BudgetedInstance(x=tuple(x), budget=budget, eps=parse_rational(eps, field="eps"))
