"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion here is exact rational equality unless the criterion itself
is statistical (sampling), and every stated time bound is enforced.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations, product
from math import ceil, comb, log2

from optmech import (
    BudgetedInstance,
    budgeted_oracle_lp,
    build_lp1,
    count_subsetsum,
    build_lp2,
    build_lp3,
    canonical_solution,
    check_subset,
    closed_form_mechanism,
    decide_lexrank,
    eval_f,
    expected_revenue,
    find_parameter,
    from_lp2_params,
    is_monotone_supermodular,
    lexrank_oracle,
    menu_is_bic_ir,
    node_costs,
    optimal_budgeted_mechanism,
    q_var,
    sample_allocation,
    solve_lp,
    subsetsum_gadget,
    to_lp2_params,
    u_var,
    unique_optimum,
    verify_bic_ir,
)
from optmech.core import OMDInstance, item_range
from optmech.reduction import _reduction_d, count_subsets_of_size, lexrank_to_omd
from tests.sweeps import duality_sweep

ZERO, ONE = F(0), F(1)


def mask(*items):
    return check_subset(items, max(items, default=0))


def make_instance(a, d, p):
    to_f = lambda v: F(*v) if isinstance(v, tuple) else F(v)
    return OMDInstance(
        n=len(a),
        a=tuple(to_f(v) for v in a),
        d=tuple(to_f(v) for v in d),
        p=tuple(to_f(v) for v in p),
    )


def _report(line):
    print(line, flush=True)


# ---------------------------------------------------------------------------
# criterion 1: worked examples, exact, < 1 s each
# ---------------------------------------------------------------------------

def test_criterion_1_worked_examples():
    t0 = time.perf_counter()
    uniform = make_instance([1, 1], [1, 1], [(1, 2), (1, 2)])
    assert solve_lp(build_lp1(uniform)).value == F(9, 4)
    t1 = time.perf_counter()
    assert t1 - t0 < 1.0

    zero_low = make_instance([0, 0], [1, 1], [(1, 2), (1, 2)])
    assert solve_lp(build_lp1(zero_low)).value == 1
    t2 = time.perf_counter()
    assert t2 - t1 < 1.0

    lottery = make_instance([1, 1], [1, 2], [(1, 2), (1, 2)])
    mech = closed_form_mechanism(lottery, canonical_solution(to_lp2_params(lottery, ONE)))
    assert mech.tau[mask(1, 2)] == 4
    assert mech.q[mask(1)] == (ONE, F(1, 2))
    assert mech.tau[mask(1)] == F(5, 2)
    revenue = expected_revenue(lottery, mech)
    assert revenue == F(21, 8)
    assert solve_lp(build_lp1(lottery)).value == revenue
    t3 = time.perf_counter()
    assert t3 - t2 < 1.0
    _report(
        "PASS criterion 1: worked examples exact (9/4, 1, and the 21/8 menu "
        f"with the 5/2 lottery) in {t3 - t0:.2f}s"
    )


# ---------------------------------------------------------------------------
# criterion 2: duality suite, exact, < 1 min, >= 200 randomized cases
# ---------------------------------------------------------------------------

def test_criterion_2_duality_suite():
    t0 = time.perf_counter()
    cases = duality_sweep()
    assert len(cases) >= 200
    for params in cases:
        flow = canonical_solution(params)
        lp2 = solve_lp(build_lp2(params))
        lp3 = solve_lp(build_lp3(params))
        assert lp2.status == "optimal" and lp3.status == "optimal"
        assert flow.total_cost == lp3.value == lp2.value
        # complementary slackness, edge by edge: positive canonical flow
        # forces the matching adjacent-type constraint tight
        mech = closed_form_mechanism(from_lp2_params(params)[0], flow)
        for (src, dst), amount in flow.flows.items():
            if amount > 0:
                i = (src ^ dst).bit_length()
                assert mech.u[src] - mech.u[dst] == params.d[i - 1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        f"PASS criterion 2: {len(cases)} cases, canonical cost = dual optimum "
        f"= primal optimum exactly, slackness edge-by-edge, in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 3: closed-form suite on strictly partially saturated cases
# ---------------------------------------------------------------------------

def test_criterion_3_closed_form_suite():
    t0 = time.perf_counter()
    strict = 0
    probed = 0
    for params in duality_sweep():
        flow = canonical_solution(params)
        if flow.partially_filled is None:
            continue
        strict += 1
        n = params.n
        inst, _ = from_lp2_params(params)
        mech = closed_form_mechanism(inst, flow)
        assert mech.unique
        assert is_monotone_supermodular(mech.u, n)
        star_cost = node_costs(params.d)[flow.partially_filled]
        assert mech.u[(1 << n) - 1] == star_cost

        report = verify_bic_ir(inst, mech)
        assert report.ok
        assert report.bic_checked + report.ir_checked == (1 << n) * ((1 << n) - 1) + (1 << n)

        lp1 = solve_lp(build_lp1(inst))
        assert lp1.value == expected_revenue(inst, mech)

        lp2_prob = build_lp2(params)
        lp2_sol = solve_lp(lp2_prob)
        if unique_optimum(lp2_prob, lp2_sol):
            probed += 1
            for S in range(1 << n):
                assert lp1.assignment[u_var(S)] == mech.u[S]
                for i in item_range(n):
                    assert lp1.assignment[q_var(i, S)] == mech.q[S][i - 1]
    assert strict >= 100  # the sweep must actually exercise the closed form
    assert probed == strict  # strictly partial saturation implies uniqueness
    elapsed = time.perf_counter() - t0
    _report(
        f"PASS criterion 3: {strict} strictly partial cases, closed form "
        f"monotone+supermodular, full-program optimum and assignment matched "
        f"exactly ({probed} uniqueness probes), in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 4: reduction suite, exact, < 5 min, exhaustive n <= 4, entries <= 6
# ---------------------------------------------------------------------------

def _check_cost_structure(C):
    n = len(C) + 1
    d = _reduction_d(tuple(C))
    costs = node_costs(d)
    values = sorted(costs)
    assert all(v.denominator == 1 for v in values)
    assert len(set(values)) == len(values), "node costs must be distinct"
    sinks = {S: c for S, c in enumerate(costs) if S.bit_count() < n}
    assert min(sinks, key=sinks.get) == (1 << (n - 1)) - 1
    for T in range(1 << (n - 1)):
        hi = costs[T]
        lo = costs[T | 1 << (n - 1)]
        assert lo == hi - 1
        assert not any(lo < c < hi for c in values)
    for T1 in range(1 << (n - 1)):
        for T2 in range(1 << (n - 1)):
            if T1.bit_count() > T2.bit_count():
                assert costs[T1] < costs[T2]


def test_criterion_4_reduction_suite():
    t0 = time.perf_counter()
    checked = 0
    for n in (2, 3, 4):
        bit_budget = 64 * n * ceil(log2(n + 2))
        for s in range(1, n):
            for k in range(1, comb(n, s) + 1):
                p = find_parameter(n, s, k)
                assert F(1, 2) <= p < 1 - F(1, 2 * n + 2)
                assert F(k) - F(1, 2 * n + 2) < eval_f(n, s, p) < F(k)
                assert p.denominator.bit_length() <= bit_budget
        for C in product(range(1, 7), repeat=n):
            _check_cost_structure(C)
            for size in range(1, n):
                for S_tuple in combinations(item_range(n), size):
                    S = mask(*S_tuple)
                    rank = lexrank_oracle(C, S)
                    for k in range(1, comb(n, size) + 1):
                        decision = decide_lexrank(C, S, k)
                        assert decision == (rank <= k)
                        out = lexrank_to_omd(C, S, k)
                        star, mech = out.target_T_star, out.mechanism
                        assert star.bit_count() == n - size
                        probe = mech.q[(1 << n) - 1 ^ S][n]
                        assert probe in (ZERO, ONE)
                        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        f"PASS criterion 4: {checked} exhaustive decisions match the rank "
        f"oracle, probes exactly 0/1, cost structure and parameter windows "
        f"verified, in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 5: gadget suite, exact
# ---------------------------------------------------------------------------

def test_criterion_5_gadget_suite():
    t0 = time.perf_counter()
    identities = 0
    for n in (1, 2, 3, 4):
        for W in product(range(1, 6), repeat=n):
            for T in range(sum(W) + 1):
                for ell in range(1, n + 1):
                    C_ell, S_ell = subsetsum_gadget(W, T, ell)
                    expected = 1 + sum(
                        count_subsets_of_size(W, T, m) * comb(ell - 1, ell - m)
                        for m in range(1, ell + 1)
                    )
                    assert lexrank_oracle(C_ell, S_ell) == expected
                    identities += 1
                direct = sum(
                    1
                    for mask in range(1 << n)
                    if sum(W[i] for i in range(n) if mask >> i & 1) <= T
                )
                assert count_subsetsum(W, T) == direct
    elapsed = time.perf_counter() - t0
    _report(
        f"PASS criterion 5: {identities} gadget rank identities and staged "
        f"inversions match brute force exactly, in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 6: budgeted suite, exact
# ---------------------------------------------------------------------------

def test_criterion_6_budgeted_suite():
    t0 = time.perf_counter()
    cases = 0
    for n in (1, 2, 3, 4):
        for x in product(range(1, 7), repeat=n):
            total = sum(x)
            for budget in range(1, total + 1):
                for eps in (F(1, 2 + total), F(1, 10 + total)):
                    inst = BudgetedInstance(x=x, budget=budget, eps=eps)
                    menu = optimal_budgeted_mechanism(inst)
                    assert menu_is_bic_ir(inst, menu)
                    assert budgeted_oracle_lp(inst) == menu.revenue
                    cases += 1
    elapsed = time.perf_counter() - t0
    _report(
        f"PASS criterion 6: {cases} budgeted menus truthful and equal to the "
        f"oracle optimum exactly, in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 7: sampling, statistical + bit-reproducible
# ---------------------------------------------------------------------------

def test_criterion_7_sampling():
    t0 = time.perf_counter()
    lottery = make_instance([1, 1], [1, 2], [(1, 2), (1, 2)])
    mech = closed_form_mechanism(lottery, canonical_solution(to_lp2_params(lottery, ONE)))
    reported = mask(1)  # the type with valuation (2, 1)
    assert mech.q[reported] == (ONE, F(1, 2))

    draws = 10_000
    runs = []
    for _ in range(2):
        rng = random.Random(1234)
        trace = []
        for _ in range(draws):
            allocated, price = sample_allocation(mech, reported, rng)
            assert price == F(5, 2)
            assert allocated & mask(1)
            trace.append(bool(allocated & mask(2)))
        runs.append(trace)
    assert runs[0] == runs[1]  # fixed seed -> bit-reproducible

    hits = sum(runs[0])
    # 5 binomial standard deviations around draws/2: sigma^2 = draws/4
    assert (F(hits) - F(draws, 2)) ** 2 <= 25 * F(draws, 4)
    elapsed = time.perf_counter() - t0
    _report(
        f"PASS criterion 7: {hits}/{draws} item-2 allocations within 5 sigma "
        f"of 1/2, bit-reproducible under a fixed seed, in {elapsed:.1f}s"
    )
