"""Property tests of the mask representation and the exact maps: the lattice
lists filled by one pass agree with the direct sum or product over each
mask's items; the boundary conversions, the parameter map and the instance
and mechanism documents round-trip exactly, and a rational prints as its
lowest-terms numerator, over its denominator unless that is 1, from a
`Fraction` or from any int pair of the same value. The integer
greedy flow gives every field of a `Fraction` greedy over the sorted (cost,
mask) order, and refuses exactly the parameters whose expected demand
sum(p_i x_i) exceeds B. Its closed-form utility and allocation match ones
computed from the `Fraction` node costs, exact-boundary and zero-supply
flows included; the closed-form menu's int-built prices equal
v(S).q(S) - u(S) on `Fraction`s, as `price_menu`'s do on any int utilities
over any scale, and the int revenue total equals the direct sum. The
parameter map's scale kappa leaves the fill order, the partially filled
node and the menu unchanged and scales the flow's amounts by kappa. The
bisection's dyadic midpoint lies strictly inside its bracket. The
support-proportional BIC/IR certificate accepts a shaped mechanism exactly
when the 4^n replay does, also on the reduction's instances, plain and
jittered, whose greedy fills many sinks, and the exact simplex agrees with
vertex enumeration on tiny bounded programs, its dual multipliers certifying its optimum, and
reports its column values as ints over their least common denominator,
which reach the enumerated maximum also with some columns held at their
bounds. Its
integer feasibility proof accepts every optimum, whose value is the
`Fraction` sum c.x, and refuses a nudged answer exactly when a `Fraction`
check does, with the same message, free and shifted variables included.
With upper bounds kept as bounds it reaches the status and value of the
same program with every bound written as a row, degenerate programs with
zero right-hand sides and tied ratios included. The full revenue program solved by constraint generation has the optimum of
the whole program."""

import json
from fractions import Fraction as F
from math import comb, gcd, lcm, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optmech import (
    Constraint,
    LP2Params,
    LPProblem,
    Mechanism,
    OMDInstance,
    PreconditionError,
    VerificationError,
    build_lp1,
    canonical_solution,
    check_single_positive,
    check_subset,
    closed_form_mechanism,
    expected_revenue,
    format_rational,
    from_lp2_params,
    instance_from_json,
    instance_to_json,
    lexrank_to_omd,
    mechanism_from_json_dict,
    mechanism_to_json,
    node_balances,
    node_costs,
    subset_probs,
    subset_sums,
    subset_to_list,
    to_lp2_params,
    solve_lp,
    solve_lp1,
    type_vectors,
    verify_bic_ir,
)
from optmech.core import format_ratio, over_common_denominator
from optmech.exactlp import _check_feasible, _lp1_layout, _simplex_max
from optmech.mechanism import bic_violations, price_menu
from optmech.reduction import _dyadic_between
from tests.test_core import at_scale
from tests.test_exactlp import _explicit, vertex_enumeration_max
from tests.test_mechanism import assert_certificate_agrees, shaped_mechanism

# exact arithmetic on a shared machine: no per-example deadline
exact = settings(deadline=None)

sizes = st.integers(min_value=1, max_value=6)
positive = st.builds(F, st.integers(1, 20), st.integers(1, 20))
nonnegative = st.builds(F, st.integers(0, 20), st.integers(1, 20))
rational = st.builds(F, st.integers(-20, 20), st.integers(1, 20))
probability = st.builds(F, st.integers(1, 19), st.just(20))


def items(S, n):
    return [i for i in range(n) if S >> i & 1]


@st.composite
def instances(draw, low=nonnegative, sizes=sizes):
    n = draw(sizes)
    vec = lambda elements: tuple(draw(st.lists(elements, min_size=n, max_size=n)))
    return OMDInstance(n=n, a=vec(low), d=vec(positive), p=vec(probability))


@st.composite
def parameters(draw):
    n = draw(sizes)
    vec = lambda elements: tuple(draw(st.lists(elements, min_size=n, max_size=n)))
    return LP2Params(n=n, x=vec(positive), B=draw(positive), d=vec(positive), p=vec(probability))


@exact
@given(instances())
def test_instance_lists_match_direct_formulas(inst):
    n = inst.n
    costs, probs, vecs = node_costs(inst.d), subset_probs(inst.p), type_vectors(inst)
    assert len(costs) == len(probs) == len(vecs) == 1 << n
    for S in range(1 << n):
        inside = items(S, n)
        assert costs[S] == sum(inst.d[i] for i in range(n) if i not in inside)
        assert probs[S] == prod(inst.p[i] if i in inside else 1 - inst.p[i] for i in range(n))
        assert vecs[S] == tuple(
            inst.a[i] + inst.d[i] if i in inside else inst.a[i] for i in range(n)
        )


@exact
@given(parameters())
def test_balances_match_direct_formula(params):
    n = params.n
    balances = node_balances(params)
    assert len(balances) == 1 << n
    for S in range(1 << n):
        inside = items(S, n)
        p_S = prod(params.p[i] if i in inside else 1 - params.p[i] for i in range(n))
        assert balances[S] == p_S * (sum(params.x[i] for i in inside) - params.B)


@exact
@given(sizes.flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n)))))
def test_index_list_round_trip(case):
    n, indices = case
    S = check_subset(indices, n)
    assert 0 <= S < 1 << n
    assert subset_to_list(S) == sorted(set(indices))


@exact
@given(instances(low=positive), positive)
def test_parameter_map_round_trip(inst, kappa):
    assert from_lp2_params(at_scale(to_lp2_params(inst), kappa)) == (inst, kappa)


# parts of up to 300 decimal digits, either sign, zero and integers included
huge_numerators = st.integers(-(10**300), 10**300)
huge_denominators = st.one_of(st.just(1), st.integers(1, 10**300))


@exact
@given(huge_numerators, huge_denominators)
def test_format_rational_prints_lowest_terms(num, den):
    value = F(num, den)
    top, bottom = value.numerator, value.denominator
    assert format_rational(value) == (str(top) if bottom == 1 else f"{top}/{bottom}")
    # the int-pair formatter writes the same text without the Fraction, and
    # so does any multiple of the pair
    assert format_ratio(num, den) == format_ratio(num * 7, den * 7) == format_rational(value)


@exact
@given(instances())
def test_instance_json_round_trip(inst):
    assert instance_from_json(instance_to_json(inst)) == inst


@st.composite
def mechanisms(draw):
    n = draw(sizes)
    size = 1 << n
    u = draw(st.lists(rational, min_size=size, max_size=size))
    q = draw(st.lists(st.tuples(*[rational] * n), min_size=size, max_size=size))
    tau = draw(st.lists(rational, min_size=size, max_size=size))
    return Mechanism.from_fractions(n=n, u=u, q=q, tau=tau, unique=False)


@exact
@given(mechanisms())
def test_mechanism_json_round_trip(mech):
    text = mechanism_to_json(mech)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    back = mechanism_from_json_dict(json.loads(text))
    assert back.n == mech.n
    assert back.u == mech.u
    assert back.q == mech.q
    assert back.tau == mech.tau


@st.composite
def single_positive_parameters(draw, probability=probability, sizes=sizes):
    """Parameters with the full set the only positive node and
    sum(p_i x_i) < B: B lies in (max(sum(x) - min(x), sum(p_i x_i)), sum(x)],
    where B = sum(x) leaves no supply."""
    n = draw(sizes)
    vec = lambda elements: tuple(draw(st.lists(elements, min_size=n, max_size=n)))
    x, d, p = vec(positive), vec(positive), vec(probability)
    total = sum(x)
    floor = max(total - min(x), sum(pi * xi for pi, xi in zip(p, x)))
    t = draw(st.sampled_from((F(1, 4), F(1, 2), F(3, 4), F(1))))
    return LP2Params(n=n, x=x, B=floor + (total - floor) * t, d=d, p=p)


@st.composite
def exact_boundary_parameters(draw, sizes=sizes):
    """Parameters whose greedy ends exactly on the capacity of its m-th sink
    in (cost, mask) order: B solves p(N) (x(N) - B) = the sum over those m
    sinks S of p(S) (B - x(S)), kept when the full set is still the only
    positive node and sum(p_i x_i) <= B."""
    n = draw(sizes)
    vec = lambda elements: tuple(draw(st.lists(elements, min_size=n, max_size=n)))
    x, d, p = vec(positive), vec(positive), vec(probability)
    full = (1 << n) - 1
    costs, probs, weights = node_costs(d), subset_probs(p), subset_sums(x)
    first = sorted(range(full), key=lambda S: (costs[S], S))[:draw(st.integers(1, 3))]
    B = (sum(probs[S] * weights[S] for S in (full, *first))
         / sum(probs[S] for S in (full, *first)))
    params = LP2Params(n=n, x=x, B=B, d=d, p=p)
    assume(check_single_positive(params) and sum(pi * xi for pi, xi in zip(p, x)) <= B)
    return params


def reference_greedy(params):
    """The canonical flow on `Fraction`s: saturate sinks in sorted
    (cost, mask) order, routing each intake down the path that removes its
    missing items in increasing index order."""
    n = params.n
    full = (1 << n) - 1
    costs, balances = node_costs(params.d), node_balances(params)
    supply = remaining = balances[full]
    flows, absorbed, order = {}, {}, []
    partial, boundary, total_cost = None, False, F(0)
    for S in sorted(range(full), key=lambda S: (costs[S], S)):
        if remaining == 0:
            break
        capacity = -balances[S]
        take = min(capacity, remaining)
        absorbed[S] = take
        order.append(S)
        total_cost += take * costs[S]
        node = full
        for i in items(full ^ S, n):
            edge = (node, node ^ 1 << i)
            flows[edge] = flows.get(edge, F(0)) + take
            node = edge[1]
        remaining -= take
        if remaining == 0:
            partial, boundary = (S, False) if take < capacity else (None, True)
    return supply, absorbed, tuple(order), partial, boundary, total_cost, flows


# p_i with denominators 2..40, not only /20, so the balance scale varies
varied_probability = st.integers(2, 40).flatmap(
    lambda den: st.builds(F, st.integers(1, den - 1), st.just(den)))


@exact
@given(st.one_of(single_positive_parameters(),
                 single_positive_parameters(probability=varied_probability),
                 exact_boundary_parameters()))
def test_greedy_fills_sinks_in_sorted_order(params):
    flow = canonical_solution(params)
    assert (flow.supply, flow.absorbed, flow.fill_order, flow.partially_filled,
            flow.exactly_saturated_boundary, flow.total_cost,
            flow.flows) == reference_greedy(params)
    values = [flow.supply, flow.total_cost, *flow.absorbed.values(), *flow.flows.values()]
    assert all(type(v) is F for v in values)


@st.composite
def single_positive_any_demand(draw):
    """Single-positive parameters with B in (sum(x) - min(x), sum(x)], on
    either side of the expected demand sum(p_i x_i) or, when that lies in
    the window, on it."""
    n = draw(st.integers(1, 4))
    vec = lambda elements: tuple(draw(st.lists(elements, min_size=n, max_size=n)))
    x, d, p = vec(positive), vec(positive), vec(probability)
    total = sum(x)
    floor = total - min(x)
    demand = sum(pi * xi for pi, xi in zip(p, x))
    B = st.sampled_from([floor + (total - floor) * t for t in (F(1, 4), F(1, 2), F(3, 4), F(1))])
    if floor < demand <= total:
        B = st.one_of(st.sampled_from([demand, (floor + demand) / 2]), B)
    return LP2Params(n=n, x=x, B=draw(B), d=d, p=p)


@exact
@given(single_positive_any_demand())
def test_greedy_refuses_exactly_the_infeasible(params):
    assert check_single_positive(params)
    demand = sum(pi * xi for pi, xi in zip(params.p, params.x))
    if demand > params.B:
        message = (f"infeasible parameters: sum(p_i x_i) = {format_rational(demand)} "
                   f"> B = {format_rational(params.B)}")
        with pytest.raises(PreconditionError) as err:
            canonical_solution(params)
        assert str(err.value) == message
        return
    flow = canonical_solution(params)
    assert sum(flow.absorbed.values(), F(0)) == flow.supply
    if demand == params.B:
        # the supply is exactly the sinks' total capacity: every sink is full
        balances = node_balances(params)
        full = (1 << params.n) - 1
        assert sorted(flow.fill_order) == list(range(full))
        assert all(flow.absorbed[S] == -balances[S] for S in range(full))
        assert flow.partially_filled is None


def reference_utility(params, flow):
    """u(S) = max(cost(S*) - cost(S), 0) on the `Fraction` node costs, S*
    the last filled node, and 0 everywhere when nothing was filled."""
    costs = node_costs(params.d)
    if not flow.fill_order:
        assert flow.supply == 0
        return [F(0)] * len(costs)
    star = costs[flow.fill_order[-1]]
    return [max(star - c, F(0)) for c in costs]


# t = 1 draws of single_positive_parameters have zero supply
flow_cases = st.one_of(single_positive_parameters().map(lambda params: (params, False)),
                       exact_boundary_parameters().map(lambda params: (params, True)))


@exact
@given(flow_cases)
def test_flow_utility_matches_fraction_costs(case):
    params, boundary = case
    flow = canonical_solution(params)
    if boundary:
        assert flow.exactly_saturated_boundary
    assert [F(c, flow.cost_scale) for c in flow.costs] == node_costs(params.d)
    assert [flow.utility(S) for S in range(1 << params.n)] == reference_utility(params, flow)


@exact
@given(flow_cases)
def test_flow_allocation_matches_fraction_costs(case):
    # q_i(S) = 1 for i in S, else (u(S+{i}) - u(S)) / d_i
    params, _ = case
    flow = canonical_solution(params)
    u = reference_utility(params, flow)
    for S in range(1 << params.n):
        for i in range(params.n):
            expected = F(1) if S >> i & 1 else (u[S | 1 << i] - u[S]) / params.d[i]
            assert flow.allocation(S, i) == expected, (S, i)


@st.composite
def max_of_affine_mechanisms(draw):
    """u(S) = max_k (c_k + sum_{i in S} w_ki) with c_k >= 0 and each w_ki in
    [0, 5/4 d_i], so q may pass 1, then up to three nodes moved by a small
    rational, in closed-form shape."""
    inst = draw(instances(low=positive))
    n = inst.n
    pieces = draw(st.lists(
        st.tuples(nonnegative, st.lists(st.builds(F, st.integers(0, 5), st.just(4)),
                                     min_size=n, max_size=n)),
        min_size=1, max_size=3))
    u = [
        max(c + sum(w * inst.d[i] for i, w in enumerate(ws) if S >> i & 1)
            for c, ws in pieces)
        for S in range(1 << n)
    ]
    for S, delta in draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1), rational),
                                  max_size=3)):
        u[S] += delta / 8
    return inst, shaped_mechanism(inst, u)


def closed_form_mechanisms(params):
    inst, _ = from_lp2_params(params)
    return inst, closed_form_mechanism(inst, canonical_solution(params))


@settings(deadline=None, max_examples=200)
@given(st.one_of(single_positive_parameters().map(closed_form_mechanisms),
                 max_of_affine_mechanisms()))
def test_certificate_accepts_exactly_what_the_replay_accepts(case):
    assert_certificate_agrees(*case)


@st.composite
def hard_parameters(draw, sizes=st.integers(min_value=4, max_value=8)):
    """The reduction's parameters for a rank query over n - 1 entries in
    1..6, whose one bisected p~ makes the greedy fill many sinks, or, when
    a drawn flag is set, the same with each d_i scaled by 0.9..1.1 and each
    p_i by 0.95..1. Both stay single-positive and feasible: neither property
    depends on d, and lowering a p_i only lowers sum(p_i x_i)."""
    n = draw(sizes)
    C = draw(st.lists(st.integers(1, 6), min_size=n - 1, max_size=n - 1))
    s = draw(st.integers(1, n - 2))
    S = sum(1 << i for i in draw(st.permutations(range(n - 1)))[:s])
    params = lexrank_to_omd(C, S, draw(st.integers(1, comb(n - 1, s)))).params
    if draw(st.booleans()):
        d = tuple(di * F(draw(st.integers(90, 110)), 100) for di in params.d)
        p = tuple(pi * F(draw(st.integers(95, 100)), 100) for pi in params.p)
        params = LP2Params(n=n, x=params.x, B=params.B, d=d, p=p)
    return params


def assert_certificate_agrees_after_moves(params, moves):
    """The closed form certifies; then up to two utilities moved by a few
    scale units, anywhere, and repriced in closed-form shape, and the
    certificate still agrees with the replay."""
    inst, mech = closed_form_mechanisms(params)
    assert assert_certificate_agrees(inst, mech).ok
    U = list(mech.scaled_u)
    for S, delta in moves:
        U[S % len(U)] += delta
    assert_certificate_agrees(inst, price_menu(inst, U, mech.u_scale, unique=False))


@settings(deadline=None, max_examples=100)
@given(hard_parameters(), st.lists(st.tuples(st.integers(0, 255), st.integers(-3, 3)),
                                   max_size=2))
def test_certificate_agrees_with_the_replay_on_long_fills(params, moves):
    assert_certificate_agrees_after_moves(params, moves)


@settings(deadline=None, max_examples=10)
@given(hard_parameters(sizes=st.integers(min_value=9, max_value=10)),
       st.lists(st.tuples(st.integers(0, 1023), st.integers(-3, 3)), max_size=2))
def test_certificate_agrees_with_the_replay_on_fills_at_n_9_and_10(params, moves):
    # the replay takes about 0.07 s at n = 9 and 0.25 s at n = 10
    assert_certificate_agrees_after_moves(params, moves)


@settings(deadline=None, max_examples=30)
@given(hard_parameters(sizes=st.integers(min_value=3, max_value=6)))
def test_closed_form_revenue_equals_lp1_on_long_fills(params):
    # solve_lp1 took 2-4 ms at n = 4 and 52-88 ms at n = 6 on these
    inst, mech = closed_form_mechanisms(params)
    assert expected_revenue(inst, mech) == solve_lp1(inst).value


lp1_sizes = st.integers(min_value=1, max_value=4)


@settings(deadline=None, max_examples=40)
@given(st.one_of(single_positive_parameters(sizes=lp1_sizes).map(lambda p: from_lp2_params(p)[0]),
                 instances(sizes=lp1_sizes)))
def test_constraint_generation_matches_full_lp1(inst):
    # a_i = 0 is allowed on the general draws
    assert solve_lp1(inst).value == solve_lp(build_lp1(inst)).value


def fraction_replay(inst, assignment):
    """Each truthfulness row of `build_lp1` that ``assignment`` breaks, in
    the program's order, as ((S, T), its name, its slack), by `Fraction`
    sums."""
    types = range(1 << inst.n)
    pairs = [(S, T) for S in types for T in types if S != T]
    rows = ((pair, con.name, sum(c * assignment[v] for v, c in con.coeffs.items()) - con.rhs)
            for pair, con in zip(pairs, build_lp1(inst).constraints))
    return [row for row in rows if row[2] < 0]


@settings(deadline=None, max_examples=40)
@given(st.one_of(single_positive_parameters(sizes=lp1_sizes).map(lambda p: from_lp2_params(p)[0]),
                 instances(sizes=lp1_sizes)),
       st.lists(st.tuples(st.integers(0, 10**6), rational), min_size=1, max_size=4))
def test_int_replay_matches_fraction_replay(inst, moves):
    # on solve_lp1's answer, then after each of a few moves of one variable;
    # verify_bic_ir reads each assignment as the mechanism (u, q, tau = 0)
    layout = _lp1_layout(inst.n)
    assignment = dict(solve_lp1(inst).assignment)

    def assert_replays_agree():
        rows = fraction_replay(inst, assignment)
        u = [assignment[v] for v in layout.u]
        q = [tuple(assignment[v] for v in qS) for qS in layout.q]
        assert bic_violations(inst.d, u, q) == [(S, T, slack) for (S, T), _, slack in rows]
        mech = Mechanism.from_fractions(n=inst.n, u=u, q=q, tau=[F(0)] * len(u), unique=False)
        bic = [row for row in verify_bic_ir(inst, mech).violations if row[0].startswith("bic")]
        assert bic == [(name, slack) for _, name, slack in rows]
        return rows

    assert assert_replays_agree() == []
    for k, delta in moves:
        assignment[layout.variables[k % len(layout.variables)]] += delta / 4
        assert_replays_agree()


menu_sizes = st.integers(min_value=1, max_value=8)


@exact
@given(st.one_of(single_positive_parameters(sizes=menu_sizes),
                 exact_boundary_parameters(sizes=menu_sizes)))
def test_closed_form_menu_matches_flow_and_fraction_prices(params):
    # the int menu's `Fraction` views: prices equal v(S).q(S) - u(S) on
    # `Fraction`s, and u and q are the flow's; kappa = B - sum(p_i x_i) is 0
    # on a boundary draw at equality
    assume(params.kappa > 0)
    inst, _ = from_lp2_params(params)
    flow = canonical_solution(params)
    mech = closed_form_mechanism(inst, flow)
    for S, vec in enumerate(type_vectors(inst)):
        q = tuple(flow.allocation(S, i) for i in range(inst.n))
        assert mech.q[S] == q, S
        assert mech.u[S] == flow.utility(S), S
        assert mech.tau[S] == sum(vi * qi for vi, qi in zip(vec, q)) - flow.utility(S), S


@exact
@given(sizes.flatmap(lambda n: st.tuples(
    instances(low=nonnegative, sizes=st.just(n)),
    st.lists(st.integers(-400, 400), min_size=1 << n, max_size=1 << n),
    st.integers(1, 60))))
def test_price_menu_prices_any_scaled_utilities(case):
    # any int utilities over any scale, even one that no den(d_i) divides:
    # q_i(S) = 1 for i in S, else (u(S+{i}) - u(S)) / d_i, and the price is
    # v(S).q(S) - u(S), all on `Fraction`s
    inst, U, scale = case
    mech = price_menu(inst, U, scale, unique=False)
    u = [F(v, scale) for v in U]
    for S, vec in enumerate(type_vectors(inst)):
        q = tuple(F(1) if S >> i & 1 else (u[S | 1 << i] - u[S]) / inst.d[i]
                  for i in range(inst.n))
        assert (mech.u[S], mech.q[S]) == (u[S], q), S
        assert mech.tau[S] == sum(vi * qi for vi, qi in zip(vec, q)) - u[S], S


# tiny, huge and non-integer scales, e.g. 1/1000 and (10^6+1)/3
kappas = st.builds(F, st.integers(1, 10**6 + 1), st.integers(1, 1000))


@exact
@given(st.one_of(single_positive_parameters(), exact_boundary_parameters()), kappas)
def test_menu_and_fill_do_not_depend_on_kappa(params, kappa):
    # kappa multiplies x and B, so every balance and capacity, by one factor:
    # the fill order, S* and the menu stay, and the flow's amounts scale
    assume(params.kappa > 0)
    inst, _ = from_lp2_params(params)
    base = canonical_solution(to_lp2_params(inst))
    flow = canonical_solution(at_scale(to_lp2_params(inst), kappa))
    assert (flow.fill_order, flow.partially_filled) == (base.fill_order, base.partially_filled)
    assert (flow.supply, flow.total_cost) == (kappa * base.supply, kappa * base.total_cost)
    assert flow.absorbed == {S: kappa * v for S, v in base.absorbed.items()}
    mech, base_mech = closed_form_mechanism(inst, flow), closed_form_mechanism(inst, base)
    assert (mech.u, mech.q, mech.tau, mech.unique) == (
        base_mech.u, base_mech.q, base_mech.tau, base_mech.unique)


@exact
@given(mechanisms().flatmap(lambda mech: st.tuples(
    st.just(mech), st.lists(varied_probability, min_size=mech.n, max_size=mech.n))))
def test_expected_revenue_matches_direct_sum(case):
    mech, p = case
    ones = (F(1),) * mech.n
    inst = OMDInstance(n=mech.n, a=ones, d=ones, p=tuple(p))
    direct = sum(pS * tS for pS, tS in zip(subset_probs(p), mech.tau))
    assert expected_revenue(inst, mech) == direct


open_unit = st.integers(2, 10**9).flatmap(
    lambda den: st.builds(F, st.integers(1, den - 1), st.just(den)))


@exact
@given(st.lists(open_unit, min_size=2, max_size=2, unique=True).map(sorted))
def test_dyadic_between_lands_strictly_inside(bracket):
    lo, hi = bracket
    width = hi - lo
    t = width.denominator.bit_length() - width.numerator.bit_length() + 3
    cand = _dyadic_between(lo, hi)
    assert lo < cand < hi
    assert (cand * (1 << t)).denominator == 1  # the denominator divides 2^t
    assert abs(cand - (lo + hi) / 2) < width / 4


BOX = F(5)


@st.composite
def tiny_programs(draw):
    """2-3 variables bounded to the box |x_j| <= 5 and 3-5 rows of any relation.
    Each row has its own denominator and a right-hand side of either sign, so
    rows are scaled differently and the canonical form negates some of them."""
    nvars = draw(st.integers(2, 3))
    rows = []
    for _ in range(draw(st.integers(3, 5))):
        den = draw(st.integers(1, 12))
        coeffs = [F(draw(st.integers(-6, 6)), den) for _ in range(nvars)]
        rows.append((coeffs, draw(st.sampled_from(("<=", ">=", "="))),
                     F(draw(st.integers(-8, 8)), den)))
    objective = [draw(rational) for _ in range(nvars)]
    return nvars, rows, objective, draw(st.sampled_from(("max", "min")))


@exact
@given(tiny_programs())
def test_simplex_matches_vertex_enumeration(case):
    nvars, rows, objective, sense = case
    names = [f"x{j}" for j in range(nvars)]
    prob = LPProblem(
        variables=names,
        objective=dict(zip(names, objective)),
        sense=sense,
        constraints=[Constraint(dict(zip(names, c)), rel, b) for c, rel, b in rows],
        lower=dict.fromkeys(names, -BOX),
        upper=dict.fromkeys(names, BOX),
    )
    # the oracle maximizes over "<=" rows only
    oracle_rows = []
    for coeffs, rel, rhs in rows:
        if rel != ">=":
            oracle_rows.append((coeffs, rhs))
        if rel != "<=":
            oracle_rows.append(([-c for c in coeffs], -rhs))
    for j in range(nvars):
        unit = [F(int(i == j)) for i in range(nvars)]
        oracle_rows += [(unit, BOX), ([-c for c in unit], BOX)]
    sign = 1 if sense == "max" else -1
    best = vertex_enumeration_max(nvars, oracle_rows, [sign * c for c in objective])
    sol = solve_lp(prob)
    if best is None:
        assert sol.status == "infeasible"
    else:
        assert (sol.status, sol.value) == ("optimal", sign * best)


def scaled(values):
    """``values`` times the lcm of their denominators, as ints, and that lcm."""
    scale = lcm(*(v.denominator for v in values))
    return [int(v * scale) for v in values], scale


@exact
@given(tiny_programs())
def test_simplex_duals_certify_optimum(case):
    # max c.x over the rows and x_j <= 5, x >= 0: the multipliers y of an
    # optimum are dual feasible (y >= 0 on "<=" rows, y <= 0 on ">=" rows,
    # y.A >= c) and y.b equals c.x at the returned columns
    nvars, rows, objective, _ = case
    rows = rows + [([F(int(i == j)) for i in range(nvars)], "<=", BOX) for j in range(nvars)]
    int_rows = []
    for coeffs, rel, rhs in rows:
        ints, scale = scaled([*coeffs, rhs])
        int_rows.append((ints, rel, scale))
    outcome = _simplex_max(nvars, int_rows, scaled(objective), {})
    if outcome.status == "infeasible":
        return
    assert outcome.status == "optimal"
    y = [F(v, outcome.den) for v in outcome.duals]
    value = sum(c * a for c, a in zip(objective, outcome.colvals)) / outcome.colden
    assert value == sum(yk * rhs for yk, (_, _, rhs) in zip(y, rows))
    for yk, (_, rel, _) in zip(y, rows):
        assert yk >= 0 if rel == "<=" else yk <= 0 if rel == ">=" else True
    for j in range(nvars):
        assert sum(yk * coeffs[j] for yk, (coeffs, _, _) in zip(y, rows)) >= objective[j]


@exact
@given(tiny_programs(), st.data())
def test_simplex_reports_column_values_over_their_least_denominator(case, data):
    # every column bounded by a drawn rational, some held at it: the answer
    # comes as ints over one denominator X with gcd(X, *ints) == 1, so X is
    # the least, and those ints over X are the `Fraction` values put over
    # their common denominator; they meet every row and bound, hold each
    # fixed column at its bound, and reach the vertex enumeration's maximum
    nvars, rows, objective, _ = case
    bounds = [data.draw(st.builds(F, st.integers(0, 10), st.integers(1, 6))) for _ in range(nvars)]
    fixed = data.draw(st.sets(st.integers(0, nvars - 1), max_size=nvars - 1))
    int_rows = []
    for coeffs, rel, rhs in rows:
        ints, scale = scaled([*coeffs, rhs])
        int_rows.append((ints, rel, scale))
    upper = {j: ub.as_integer_ratio() for j, ub in enumerate(bounds)}
    outcome = _simplex_max(nvars, int_rows, scaled(objective), upper, fixed)
    oracle_rows = []
    for coeffs, rel, rhs in rows:
        if rel != ">=":
            oracle_rows.append((coeffs, rhs))
        if rel != "<=":
            oracle_rows.append(([-c for c in coeffs], -rhs))
    for j, ub in enumerate(bounds):
        unit = [F(int(i == j)) for i in range(nvars)]
        oracle_rows += [(unit, ub), ([-c for c in unit], -ub if j in fixed else F(0))]
    best = vertex_enumeration_max(nvars, oracle_rows, objective)
    if outcome.status == "infeasible":
        assert best is None
        return
    ints, X = outcome.colvals, outcome.colden
    assert len(ints) == nvars and X >= 1 and gcd(X, *ints) == 1
    x = [F(a, X) for a in ints]
    assert over_common_denominator(x) == (ints, X)
    assert all(sum(map(mul, coeffs, x)) <= rhs for coeffs, rhs in oracle_rows)
    assert sum(map(mul, objective, x)) == best


@st.composite
def translated_programs(draw):
    """2-4 variables, each nonnegative, free or shifted to a nonzero lower
    bound, most of them bounded above, and 1-4 rows of any relation whose
    coefficients have denominators of their own up to 12. Every row holds at
    a drawn anchor point inside the bounds, tightly or with slack, so most
    programs are feasible."""
    fraction = st.builds(F, st.integers(-9, 9), st.integers(1, 12))
    slack = st.builds(F, st.integers(0, 6), st.integers(1, 12))
    names = [f"x{j}" for j in range(draw(st.integers(2, 4)))]
    lower, upper, anchor = {}, {}, {}
    for v in names:
        kind = draw(st.sampled_from(("nonnegative", "free", "shifted")))
        if kind == "free":
            lower[v] = None
        elif kind == "shifted":
            lower[v] = F(draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1))), draw(st.integers(1, 12)))
        anchor[v] = (draw(fraction) if kind == "free" else lower.get(v, 0)) + draw(slack)
        if draw(st.integers(0, 3)):
            upper[v] = anchor[v] + draw(slack)
    rows = []
    for k in range(draw(st.integers(1, 4))):
        used = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        coeffs = {v: draw(fraction) for v in used}
        rel = draw(st.sampled_from(("<=", ">=", "=")))
        rhs = sum(c * anchor[v] for v, c in coeffs.items())
        rhs += draw(slack) if rel == "<=" else -draw(slack) if rel == ">=" else 0
        rows.append(Constraint(coeffs, rel, rhs, name=f"r{k}"))
    objective = {v: draw(fraction) for v in names}
    return LPProblem(names, objective, draw(st.sampled_from(("max", "min"))), rows,
                     lower=lower, upper=upper)


def fraction_refusal(prob, assignment):
    """The message of the first bound or row ``assignment`` breaks, by
    `Fraction` comparisons and sums, or None."""
    for v in prob.variables:
        x, low, up = assignment[v], prob.lower.get(v, 0), prob.upper.get(v)
        if low is not None and x < low:
            return f"assignment violates lower bound of {v}"
        if up is not None and x > up:
            return f"assignment violates upper bound of {v}"
    for con in prob.constraints:
        lhs, rel, rhs = sum(c * assignment[v] for v, c in con.coeffs.items()), con.rel, con.rhs
        if lhs > rhs if rel == "<=" else lhs < rhs if rel == ">=" else lhs != rhs:
            return (f"assignment violates constraint {con.name}: "
                    f"{format_rational(lhs)} {rel} {format_rational(rhs)}")
    return None


def int_refusal(prob, assignment):
    """The message `solve_lp`'s integer feasibility proof refuses
    ``assignment`` with, or None."""
    X = lcm(*(x.denominator for x in assignment.values()))
    try:
        _check_feasible(prob, {v: int(x * X) for v, x in assignment.items()}, X)
    except VerificationError as refusal:
        return str(refusal)
    return None


@settings(deadline=None, max_examples=300)
@given(translated_programs(), st.data())
def test_int_feasibility_proof_matches_fraction_check(prob, data):
    # every optimum passes both checks and has the Fraction value c.x; one
    # variable nudged by +-1/den is refused by both or by neither, with the
    # same message
    sol = solve_lp(prob)
    if sol.status != "optimal":
        return
    assert fraction_refusal(prob, sol.assignment) is None
    assert sol.value == sum(c * sol.assignment[v] for v, c in prob.objective.items())
    nudged = dict(sol.assignment)
    v = data.draw(st.sampled_from(prob.variables))
    nudged[v] += F(data.draw(st.sampled_from((1, -1))), data.draw(st.integers(1, 12)))
    assert int_refusal(prob, nudged) == fraction_refusal(prob, nudged)


@st.composite
def degenerate_programs(draw):
    """2-4 nonnegative variables, most of them bounded above by one of a few
    small values, 0 included, and 1-4 rows of any relation with coefficients
    in -2..2 and right-hand side 0 or 1: many steps of length 0 and many
    tied ratios, which the tie rule decides."""
    names = [f"x{j}" for j in range(draw(st.integers(2, 4)))]
    bound = st.sampled_from((F(0), F(1, 2), F(1), F(2)))
    upper = {v: draw(bound) for v in names if draw(st.integers(0, 3))}
    coefficient = st.builds(F, st.integers(-2, 2))
    rows = [
        Constraint({v: draw(coefficient) for v in names},
                   draw(st.sampled_from(("<=", ">=", "="))), draw(st.sampled_from((F(0), F(1)))),
                   name=f"r{k}")
        for k in range(draw(st.integers(1, 4)))
    ]
    objective = {v: draw(coefficient) for v in names}
    return LPProblem(names, objective, draw(st.sampled_from(("max", "min"))), rows, upper=upper)


@settings(deadline=None, max_examples=300)
@given(st.one_of(translated_programs(), degenerate_programs()))
def test_bounded_columns_match_bound_rows(prob):
    # both answers passed `solve_lp`'s certificate, which raises otherwise
    sol, explicit = solve_lp(prob), solve_lp(_explicit(prob))
    assert (sol.status, sol.value) == (explicit.status, explicit.value)
