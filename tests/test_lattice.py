import random
import re
from fractions import Fraction as F

import pytest

from optmech import (
    LP2Params,
    PreconditionError,
    build_lp3,
    canonical_solution,
    check_single_positive,
    dump_lattice,
    node_balances,
    node_costs,
    solve_lp,
)
from tests.subsets import mask

ZERO = F(0)

PARAMS_A = LP2Params(2, (F(2), F(3)), F(9, 2), (F(1), F(2)), (F(1, 2), F(1, 2)))
PARAMS_B = LP2Params(2, (F(4), F(2)), F(5), (F(1), F(2)), (F(1, 2), F(1, 2)))
# equal increments: the greedy ends exactly on the first node's capacity
PARAMS_TIE = LP2Params(2, (F(2), F(2)), F(3), (F(1), F(1)), (F(1, 2), F(1, 2)))


# ---------------------------------------------------------------------------
# node_costs / node_balances / check_single_positive
# ---------------------------------------------------------------------------

def test_node_cost_examples():
    assert node_costs((F(1), F(2), F(4)))[mask(1, 3)] == 2
    assert node_costs((F(1), F(2)))[mask()] == 3
    assert node_costs((F(34), F(44), F(1)))[mask(2)] == 35
    assert node_costs((F(1), F(2)))[mask(1, 2)] == 0


def test_node_balance_examples():
    assert node_balances(PARAMS_A)[mask(1, 2)] == F(1, 8)
    assert node_balances(PARAMS_A)[mask(2)] == F(-3, 8)
    params = LP2Params(2, (F(2), F(2)), F(3), (F(1), F(2)), (F(1, 2), F(1, 2)))
    assert node_balances(params)[mask()] == F(-3, 4)


def test_check_single_positive_examples():
    assert check_single_positive(
        LP2Params(3, (F(2), F(2), F(2)), F(5), (F(1),) * 3, (F(1, 2),) * 3)
    )
    assert check_single_positive(PARAMS_B)
    assert not check_single_positive(
        LP2Params(2, (F(6), F(1)), F(5), (F(1), F(1)), (F(1, 2), F(1, 2)))
    )
    # full set not positive
    assert not check_single_positive(
        LP2Params(2, (F(1), F(1)), F(5), (F(1), F(1)), (F(1, 2), F(1, 2)))
    )


# ---------------------------------------------------------------------------
# canonical solution
# ---------------------------------------------------------------------------

def test_canonical_partial_fill_small():
    flow = canonical_solution(PARAMS_A)
    assert flow.supply == F(1, 8)
    assert flow.fill_order == (mask(2),)
    assert flow.partially_filled == mask(2)
    assert not flow.exactly_saturated_boundary
    assert flow.absorbed[mask(2)] == F(1, 8)  # of capacity 3/8
    assert flow.total_cost == F(1, 8)
    assert solve_lp(build_lp3(PARAMS_A)).value == flow.total_cost


def test_canonical_partial_fill_lottery_params():
    flow = canonical_solution(PARAMS_B)
    assert flow.supply == F(1, 4)
    assert flow.partially_filled == mask(2)
    assert flow.absorbed[mask(2)] == F(1, 4)  # of capacity 3/4
    assert flow.total_cost == F(1, 4)
    assert solve_lp(build_lp3(PARAMS_B)).value == flow.total_cost


def test_canonical_exact_boundary():
    flow = canonical_solution(PARAMS_TIE)
    assert flow.supply == F(1, 4)
    # cost ties between {1} and {2}; lex order (smaller mask) fills {1} first
    assert flow.fill_order == (mask(1),)
    assert flow.absorbed[mask(1)] == F(1, 4)  # exactly its capacity
    assert flow.partially_filled is None
    assert flow.exactly_saturated_boundary
    assert solve_lp(build_lp3(PARAMS_TIE)).value == flow.total_cost == F(1, 4)


def test_canonical_zero_supply():
    params = LP2Params(2, (F(2), F(2)), F(4), (F(1), F(2)), (F(1, 2), F(1, 2)))
    flow = canonical_solution(params)
    assert flow.supply == 0
    assert flow.fill_order == ()
    assert flow.partially_filled is None
    assert not flow.exactly_saturated_boundary
    assert flow.total_cost == 0


def test_canonical_rejects_multi_positive():
    params = LP2Params(2, (F(6), F(1)), F(5), (F(1), F(1)), (F(1, 2), F(1, 2)))
    with pytest.raises(PreconditionError) as err:
        canonical_solution(params)
    assert "{1}" in str(err.value)


def test_a_proper_subset_exactly_at_budget_is_a_second_positive_node():
    # x = (3, 2): the heaviest proper subset, {1}, sums to exactly B = 3, so
    # its balance is 0, not negative, and the full set is not the only
    # non-negative node
    params = LP2Params(2, (F(3), F(2)), F(3), (F(1), F(1)), (F(1, 2), F(1, 2)))
    assert not check_single_positive(params)
    message = "multiple positive nodes: proper subset {1} sums to 3 >= B = 3"
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        canonical_solution(params)


def test_canonical_rejects_a_full_set_below_budget():
    # no node is positive: sum(x) = 2 < B = 5
    params = LP2Params(2, (F(1), F(1)), F(5), (F(1), F(1)), (F(1, 2), F(1, 2)))
    with pytest.raises(PreconditionError, match=r"node \{1,2\} is not positive: sum\(x\) = 2 < B = 5"):
        canonical_solution(params)


def test_canonical_rejects_infeasible():
    # single positive node but expected demand above B
    params = LP2Params(2, (F(10), F(10)), F(11), (F(1), F(1)), (F(9, 10), F(9, 10)))
    assert check_single_positive(params)
    with pytest.raises(
        PreconditionError, match=r"^infeasible parameters: sum\(p_i x_i\) = 18 > B = 11$"
    ):
        canonical_solution(params)


def _random_single_positive(rng, n):
    while True:
        x = tuple(F(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(n))
        d = tuple(F(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(n))
        p = tuple(F(rng.randint(1, 19), 20) for _ in range(n))
        total = sum(x)
        floor = max(total - min(x), sum(pi * xi for pi, xi in zip(p, x)))
        if floor >= total:
            continue
        t = rng.choice((F(1, 4), F(1, 2), F(3, 4), F(1)))
        return LP2Params(n, x, floor + (total - floor) * t, d, p)


def test_canonical_invariants_randomized():
    rng = random.Random(123)
    for _ in range(30):
        n = rng.randint(2, 4)
        params = _random_single_positive(rng, n)
        flow = canonical_solution(params)
        # absorbed totals match the supply exactly
        assert sum(flow.absorbed.values(), ZERO) == flow.supply
        # no sink is over capacity
        for S, amount in flow.absorbed.items():
            assert amount <= -node_balances(params)[S]
        # edge-cost sum equals absorbed * node cost: any monotone path to a
        # node costs the same, so the two bookkeepings must agree
        edge_cost = sum(
            (amount * params.d[(src ^ dst).bit_length() - 1]
             for (src, dst), amount in flow.flows.items()),
            ZERO,
        )
        assert edge_cost == flow.total_cost
        # flow conservation node by node
        net = {}
        for (src, dst), amount in flow.flows.items():
            net[src] = net.get(src, ZERO) - amount
            net[dst] = net.get(dst, ZERO) + amount
        full = (1 << n) - 1
        for node, value in net.items():
            if node == full:
                assert value == -flow.supply
            else:
                assert value == flow.absorbed.get(node, ZERO)
        # greedy optimum equals the dual simplex optimum exactly
        assert solve_lp(build_lp3(params)).value == flow.total_cost


def test_canonical_deterministic():
    first = canonical_solution(PARAMS_A)
    second = canonical_solution(PARAMS_A)
    assert first == second


def test_dump_lattice_lines():
    flow = canonical_solution(PARAMS_A)
    text = dump_lattice(PARAMS_A, flow)
    lines = text.strip().splitlines()
    assert len(lines) == 1 + 4  # header + one line per node
    assert "node={1,2} cost=0 balance=1/8 absorbed=0" in text
    assert "node={2} cost=1 balance=-3/8 absorbed=1/8" in text


def test_canonical_matches_dual_optimum_n6():
    rng = random.Random(66)
    for _ in range(3):
        params = _random_single_positive(rng, 6)
        flow = canonical_solution(params)
        assert solve_lp(build_lp3(params)).value == flow.total_cost
