import random
from fractions import Fraction as F
from itertools import product

import pytest

from optmech import (
    BudgetedInstance,
    InputError,
    check_subset,
    subset_to_list,
    best_affordable_bundle,
    budgeted_oracle_lp,
    menu_is_bic_ir,
    optimal_budgeted_mechanism,
)
from optmech.budgeted import budgeted_from_json_dict


def mask(*items):
    return check_subset(items, max(items, default=0))


def brute_force_best(x, budget):
    best = 0
    for mask in range(1 << len(x)):
        total = sum(x[i] for i in range(len(x)) if mask >> i & 1)
        if total <= budget:
            best = max(best, total)
    return best


# ---------------------------------------------------------------------------
# knapsack value
# ---------------------------------------------------------------------------

def test_best_affordable_examples():
    assert best_affordable_bundle((1, 2), 2) == (2, mask(2))
    assert best_affordable_bundle((3, 5, 7), 11) == (10, mask(1, 3))
    assert best_affordable_bundle((1, 2), 10) == (3, mask(1, 2))


def test_best_affordable_matches_enumeration():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 12)
        x = tuple(rng.randint(1, 9) for _ in range(n))
        budget = rng.randint(1, sum(x) + 3)
        value, witness = best_affordable_bundle(x, budget)
        assert value == brute_force_best(x, budget)
        assert sum(x[i - 1] for i in subset_to_list(witness)) == value


def test_best_affordable_witness_is_lex_least():
    # both {1,2} and {3} reach 3; the lex-least witness avoids the top item
    value, witness = best_affordable_bundle((1, 2, 3), 3)
    assert value == 3
    assert witness == mask(1, 2)


# ---------------------------------------------------------------------------
# menu
# ---------------------------------------------------------------------------

def test_menu_examples():
    inst = BudgetedInstance(x=(1, 2), budget=2, eps=F(1, 5))
    menu = optimal_budgeted_mechanism(inst)
    assert menu.full_bundle == mask(1, 2) and menu.full_price == 3
    assert menu.budget_bundle == mask(2) and menu.budget_price == 2
    assert menu.revenue == F(14, 5)

    inst = BudgetedInstance(x=(1, 2), budget=3, eps=F(1, 5))
    menu = optimal_budgeted_mechanism(inst)
    assert menu.budget_bundle == mask(1, 2) and menu.budget_price == 3
    assert menu.revenue == 3

    inst = BudgetedInstance(x=(2, 2), budget=3, eps=F(1, 6))
    menu = optimal_budgeted_mechanism(inst)
    assert menu.budget_price == 2
    assert menu.revenue == F(11, 3)


def test_menu_is_truthful():
    for x, budget, eps in (
        ((1, 2), 2, F(1, 5)),
        ((2, 2), 3, F(1, 6)),
        ((3, 5, 7), 11, F(1, 17)),
    ):
        inst = BudgetedInstance(x=x, budget=budget, eps=eps)
        assert menu_is_bic_ir(inst, optimal_budgeted_mechanism(inst))


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------

def test_oracle_examples():
    assert budgeted_oracle_lp(BudgetedInstance((1, 2), 2, F(1, 5))) == F(14, 5)
    assert budgeted_oracle_lp(BudgetedInstance((2, 2), 3, F(1, 6))) == F(11, 3)
    assert budgeted_oracle_lp(BudgetedInstance((1, 2), 3, F(1, 7))) == 3


def test_menu_matches_oracle_small_sweep():
    for x in product((1, 2, 3), repeat=2):
        total = sum(x)
        for budget in range(1, total + 1):
            for eps in (F(1, 2 + total), F(1, 10 + total)):
                inst = BudgetedInstance(x=x, budget=budget, eps=eps)
                menu = optimal_budgeted_mechanism(inst)
                assert menu_is_bic_ir(inst, menu)
                assert budgeted_oracle_lp(inst) == menu.revenue


# ---------------------------------------------------------------------------
# validation and JSON
# ---------------------------------------------------------------------------

def test_instance_validation():
    with pytest.raises(InputError):
        BudgetedInstance(x=(1, 2), budget=2, eps=F(1, 3))  # eps >= 1/(1+sum)
    with pytest.raises(InputError):
        BudgetedInstance(x=(0, 2), budget=2, eps=F(1, 5))
    with pytest.raises(InputError):
        BudgetedInstance(x=(1, 2), budget=0, eps=F(1, 5))


def test_json_parse():
    inst = budgeted_from_json_dict({"x": [1, 2], "budget": 2, "eps": "1/5"})
    assert inst == BudgetedInstance(x=(1, 2), budget=2, eps=F(1, 5))
    with pytest.raises(InputError):
        budgeted_from_json_dict({"x": [1, 2], "budget": 2})
    with pytest.raises(InputError):
        budgeted_from_json_dict({"x": [1, 2], "budget": 2, "eps": "2/3"})
