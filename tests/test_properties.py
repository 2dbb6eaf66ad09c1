"""Property tests of the mask representation and the exact maps: the lattice
lists filled by one pass agree with the direct sum or product over each
mask's items; the boundary conversions, the parameter map and the instance
and mechanism documents round-trip exactly."""

import json
from fractions import Fraction as F
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from optmech import (
    LP2Params,
    Mechanism,
    OMDInstance,
    check_subset,
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
