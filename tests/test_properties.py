"""Property tests of the mask representation and the exact maps: the lattice
lists filled by one pass agree with the direct sum or product over each
mask's items; the boundary conversions, the parameter map and the instance
and mechanism documents round-trip exactly. The greedy flow fills sinks in
sorted (cost, mask) order, and the O(2^n n^2) BIC/IR certificate accepts a
shaped mechanism exactly when the 4^n replay does."""

import json
from fractions import Fraction as F
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from optmech import (
    LP2Params,
    Mechanism,
    OMDInstance,
    canonical_solution,
    check_subset,
    closed_form_mechanism,
    from_lp2_params,
    instance_from_json,
    instance_to_json,
    mechanism_from_json_dict,
    mechanism_to_json_dict,
    node_balances,
    node_costs,
    subset_probs,
    subset_to_list,
    to_lp2_params,
    type_vectors,
)
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
def single_positive_parameters(draw):
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


@exact
@given(single_positive_parameters())
def test_greedy_fills_sinks_in_sorted_order(params):
    n = params.n
    full = (1 << n) - 1
    costs, balances = node_costs(params.d), node_balances(params)
    remaining, order = balances[full], []
    for S in sorted(range(full), key=lambda S: (costs[S], S)):
        if remaining == 0:
            break
        take = min(-balances[S], remaining)
        if take:
            order.append(S)
            remaining -= take
    assert canonical_solution(params).fill_order == tuple(order)


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
    return inst, closed_form_mechanism(params, canonical_solution(params))


@settings(deadline=None, max_examples=200)
@given(st.one_of(single_positive_parameters().map(closed_form_mechanisms),
                 max_of_affine_mechanisms()))
def test_certificate_accepts_exactly_what_the_replay_accepts(case):
    assert_certificate_agrees(*case)
