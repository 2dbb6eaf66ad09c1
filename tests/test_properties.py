"""Property tests of the mask representation and the exact maps: the lattice
lists filled by one pass agree with the direct sum or product over each
mask's items; the boundary conversions, the parameter map and the instance
and mechanism documents round-trip exactly, and a rational prints as its
lowest-terms numerator, over its denominator unless that is 1. The integer
greedy flow gives every field of a `Fraction` greedy over the sorted (cost,
mask) order, and its closed-form utility and allocation match ones computed
from the `Fraction` node costs, exact-boundary and zero-supply flows
included; the closed-form menu's int-built prices equal v(S).q(S) - u(S) on
`Fraction`s, and the int revenue total equals the direct sum. The parameter
map's scale kappa leaves the fill order, the partially filled node and the
menu unchanged and scales the flow's amounts by kappa. The
bisection's dyadic midpoint lies strictly inside its bracket. The
O(2^n n^2) BIC/IR certificate accepts a shaped mechanism exactly when the
4^n replay does, and the exact simplex agrees with vertex enumeration on
tiny bounded programs, its dual multipliers certifying its optimum."""

import json
from fractions import Fraction as F
from math import lcm, prod

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optmech import (
    Constraint,
    LP2Params,
    LPProblem,
    Mechanism,
    OMDInstance,
    canonical_solution,
    check_single_positive,
    check_subset,
    closed_form_mechanism,
    expected_revenue,
    format_rational,
    from_lp2_params,
    instance_from_json,
    instance_to_json,
    mechanism_from_json_dict,
    mechanism_to_json_dict,
    node_balances,
    node_costs,
    subset_probs,
    subset_sums,
    subset_to_list,
    to_lp2_params,
    solve_lp,
    type_vectors,
)
from optmech.exactlp import _simplex_max
from optmech.reduction import _dyadic_between
from tests.test_exactlp import vertex_enumeration_max
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
def instances(draw, low=nonnegative):
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
    assert from_lp2_params(to_lp2_params(inst, kappa)) == (inst, kappa)


# parts of up to 300 decimal digits, either sign, zero and integers included
huge_numerators = st.integers(-(10**300), 10**300)
huge_denominators = st.one_of(st.just(1), st.integers(1, 10**300))


@exact
@given(huge_numerators, huge_denominators)
def test_format_rational_prints_lowest_terms(num, den):
    value = F(num, den)
    top, bottom = value.numerator, value.denominator
    assert format_rational(value) == (str(top) if bottom == 1 else f"{top}/{bottom}")


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
    return Mechanism(n=n, u=u, q=q, tau=tau, unique=False)


@exact
@given(mechanisms())
def test_mechanism_json_round_trip(mech):
    back = mechanism_from_json_dict(json.loads(json.dumps(mechanism_to_json_dict(mech))))
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


menu_sizes = st.integers(min_value=1, max_value=8)


@exact
@given(st.one_of(single_positive_parameters(sizes=menu_sizes),
                 exact_boundary_parameters(sizes=menu_sizes)))
def test_closed_form_menu_matches_flow_and_fraction_prices(params):
    # the int prices equal v(S).q(S) - u(S) on `Fraction`s, and u and q are
    # the flow's; kappa = B - sum(p_i x_i) is 0 on a boundary draw at equality
    assume(params.kappa > 0)
    inst, _ = from_lp2_params(params)
    flow = canonical_solution(params)
    mech = closed_form_mechanism(inst, flow)
    for S, vec in enumerate(type_vectors(inst)):
        q = tuple(flow.allocation(S, i) for i in range(inst.n))
        assert mech.q[S] == q, S
        assert mech.u[S] == flow.utility(S), S
        assert mech.tau[S] == sum(vi * qi for vi, qi in zip(vec, q)) - flow.utility(S), S


# tiny, huge and non-integer scales, e.g. 1/1000 and (10^6+1)/3
kappas = st.builds(F, st.integers(1, 10**6 + 1), st.integers(1, 1000))


@exact
@given(st.one_of(single_positive_parameters(), exact_boundary_parameters()), kappas)
def test_menu_and_fill_do_not_depend_on_kappa(params, kappa):
    # kappa multiplies x and B, so every balance and capacity, by one factor:
    # the fill order, S* and the menu stay, and the flow's amounts scale
    assume(params.kappa > 0)
    inst, _ = from_lp2_params(params)
    base = canonical_solution(to_lp2_params(inst, F(1)))
    flow = canonical_solution(to_lp2_params(inst, kappa))
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
    # y.A >= c) and y.b equals the optimal value
    nvars, rows, objective, _ = case
    rows = rows + [([F(int(i == j)) for i in range(nvars)], "<=", BOX) for j in range(nvars)]
    int_rows = []
    for coeffs, rel, rhs in rows:
        ints, scale = scaled([*coeffs, rhs])
        int_rows.append((ints, rel, scale))
    outcome = _simplex_max(nvars, int_rows, scaled(objective))
    if outcome.status == "infeasible":
        return
    assert outcome.status == "optimal"
    y = outcome.duals
    assert outcome.value == sum(c * outcome.colvals.get(j, 0) for j, c in enumerate(objective))
    assert outcome.value == sum(yk * rhs for yk, (_, _, rhs) in zip(y, rows))
    for yk, (_, rel, _) in zip(y, rows):
        assert yk >= 0 if rel == "<=" else yk <= 0 if rel == ">=" else True
    for j in range(nvars):
        assert sum(yk * coeffs[j] for yk, (coeffs, _, _) in zip(y, rows)) >= objective[j]
