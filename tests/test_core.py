import random
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from optmech import (
    InputError,
    LP2Params,
    OMDInstance,
    PreconditionError,
    from_lp2_params,
    instance_from_json,
    instance_to_json,
    check_subset,
    subset_label,
    subset_probs,
    subset_to_list,
    to_lp2_params,
    type_vectors,
)
from optmech.core import (
    check_mask,
    check_nonnegative_int,
    format_rational,
    format_ratio,
    parse_rational,
    subset_sums,
    types_by_size,
)


def _frac(v):
    return F(*v) if isinstance(v, tuple) else F(v)


def make_instance(a, d, p):
    return OMDInstance(
        n=len(a),
        a=tuple(_frac(v) for v in a),
        d=tuple(_frac(v) for v in d),
        p=tuple(_frac(v) for v in p),
    )


UNIFORM = make_instance([1, 1], [1, 1], [(1, 2), (1, 2)])
LOTTERY = make_instance([1, 1], [1, 2], [(1, 2), (1, 2)])


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [("9/2", F(9, 2)), ("-3/1", F(-3)), ("4", F(4)), (7, F(7)), ("  10/4 ", F(5, 2))],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("bad", ["", "1/0", "a/2", "1.5", 2.5, None, True])
def test_parse_rational_rejects(bad):
    with pytest.raises(InputError):
        parse_rational(bad, field="p[1]")


def test_parse_rational_passes_a_fraction_through():
    value = F(3, 4)
    assert parse_rational(value) is value


def test_format_rational_round_trips():
    for value in (F(9, 2), F(-3), F(0), F(7, 1), F(-5, 3)):
        assert parse_rational(format_rational(value)) == value


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no integer string digit limit",
)
def test_format_rational_refuses_past_digit_limit():
    # decided by magnitude: the largest part with `limit` digits still prints
    limit = sys.get_int_max_str_digits()
    top = 10**limit
    assert format_rational(F(top - 1)) == str(top - 1)
    assert format_rational(F(1 - top, 2)) == f"{1 - top}/2"
    for value in (F(top), F(-top), F(1, top), F(top + 1, 7)):
        with pytest.raises(PreconditionError, match=f"more than {limit} decimal digits"):
            format_rational(value)
    # the int-pair formatter refuses the same values, and a pair past the
    # limit that reduces to one within it prints
    for value in (F(top), F(-top), F(1, top), F(top + 1, 7)):
        with pytest.raises(PreconditionError, match=f"more than {limit} decimal digits"):
            format_ratio(value.numerator * 3, value.denominator * 3)
    assert format_ratio(2 * top, top) == "2"


def test_types_by_size_matches_sorted_labels():
    # the order `solve` prints its menu in: by size, then by index list
    for n in range(1, 11):
        order = sorted(range(1 << n), key=lambda S: (S.bit_count(), subset_to_list(S)))
        assert list(types_by_size(n)) == [(S, subset_label(S)) for S in order]


def test_subset_mask_orders_lexicographically():
    # mask order puts the set whose largest differing element is absent first
    assert check_subset({1}, 3) < check_subset({2}, 3)
    assert check_subset({1, 3}, 3) < check_subset({2, 3}, 3)


def test_subset_mask_indexes_all_subsets():
    # bit i-1 stands for item i: every mask below 2^n is one subset of 1..n
    for n in range(1, 6):
        for S in range(1 << n):
            assert check_subset(subset_to_list(S), n) == S


# ---------------------------------------------------------------------------
# type probabilities (subset_probs)
# ---------------------------------------------------------------------------

def test_type_prob_uniform():
    assert subset_probs(UNIFORM.p)[check_subset({1}, 2)] == F(1, 4)
    assert subset_probs(UNIFORM.p)[check_subset((), 2)] == F(1, 4)


def test_type_prob_skewed_and_totals():
    inst = make_instance([1, 1], [1, 1], [(3, 4), (1, 2)])
    assert subset_probs(inst.p)[check_subset({1}, 2)] == F(3, 8)
    assert sum(subset_probs(inst.p)) == 1


def test_type_prob_sums_to_one_randomized():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 6)
        inst = make_instance(
            [F(rng.randint(0, 9)) for _ in range(n)],
            [F(rng.randint(1, 9)) for _ in range(n)],
            [F(rng.randint(1, 9), 10) for _ in range(n)],
        )
        assert sum(subset_probs(inst.p)) == 1


def test_type_prob_index_out_of_range():
    with pytest.raises(InputError):
        check_subset({3}, UNIFORM.n)


# ---------------------------------------------------------------------------
# type_vectors
# ---------------------------------------------------------------------------

def test_type_vector_examples():
    assert type_vectors(UNIFORM)[check_subset({2}, 2)] == (F(1), F(2))
    # the lottery instance: high type has values (2, 3)
    assert type_vectors(LOTTERY)[check_subset({1, 2}, 2)] == (F(2), F(3))
    inst = make_instance([(1, 2), (3, 2)], [1, 2], [(1, 2), (1, 2)])
    assert type_vectors(inst)[check_subset((), 2)] == (F(1, 2), F(3, 2))


def test_type_vector_monotone():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        inst = make_instance(
            [F(rng.randint(0, 5)) for _ in range(n)],
            [F(rng.randint(1, 5)) for _ in range(n)],
            [F(1, 2)] * n,
        )
        vecs = type_vectors(inst)
        for S in range(1 << n):
            for T in range(1 << n):
                if S & T == S:
                    vs, vt = vecs[S], vecs[T]
                    assert all(a <= b for a, b in zip(vs, vt))


# ---------------------------------------------------------------------------
# parameter maps
# ---------------------------------------------------------------------------

def at_scale(params, kappa):
    """``params`` with x and B multiplied by kappa: the parameter map at
    scale kappa when ``params`` is at kappa = 1."""
    return replace(params, x=tuple(kappa * xi for xi in params.x), B=kappa * params.B)


def test_to_lp2_params_examples():
    params = at_scale(to_lp2_params(LOTTERY), F(2))
    assert params.x == (F(4), F(2))
    assert params.B == F(5)

    params = to_lp2_params(UNIFORM)
    assert params.x == (F(2), F(2))
    assert params.B == F(3)

    inst = make_instance([(1, 2), (3, 2)], [1, 2], [(1, 2), (1, 2)])
    params = at_scale(to_lp2_params(inst), F(2))
    assert params.x == (F(2), F(3))
    assert params.B == F(9, 2)
    # defining identities hold exactly
    assert params.B == F(2) * (1 + sum(a / d for a, d in zip(inst.a, inst.d)))
    for i in range(inst.n):
        assert params.x[i] == F(2) * inst.a[i] / (inst.p[i] * inst.d[i])


def test_to_lp2_params_rejects():
    zero_low = make_instance([0, 1], [1, 1], [(1, 2), (1, 2)])
    with pytest.raises(PreconditionError):
        to_lp2_params(zero_low)


def test_from_lp2_params_examples():
    params = LP2Params(2, (F(2), F(3)), F(9, 2), (F(1), F(2)), (F(1, 2), F(1, 2)))
    inst, kappa = from_lp2_params(params)
    assert kappa == 2
    assert inst.a == (F(1, 2), F(3, 2))

    params = LP2Params(2, (F(4), F(2)), F(5), (F(1), F(2)), (F(1, 2), F(1, 2)))
    inst, kappa = from_lp2_params(params)
    assert kappa == 2
    assert inst.a == (F(1), F(1))  # recovers the lottery instance

    boundary = LP2Params(2, (F(2), F(2)), F(2), (F(1), F(1)), (F(1, 2), F(1, 2)))
    with pytest.raises(PreconditionError):
        from_lp2_params(boundary)


def test_parameter_round_trip_randomized():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 5)
        inst = make_instance(
            [F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)],
            [F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)],
            [F(rng.randint(1, 11), 12) for _ in range(n)],
        )
        kappa = F(rng.randint(1, 9), rng.randint(1, 9))
        params = at_scale(to_lp2_params(inst), kappa)
        assert params.kappa == kappa
        back, kappa_back = from_lp2_params(params)
        assert kappa_back == kappa
        assert back == inst
        again = at_scale(to_lp2_params(back), kappa_back)
        assert again.x == params.x and again.B == params.B


# ---------------------------------------------------------------------------
# instance validation and JSON
# ---------------------------------------------------------------------------

def test_instance_validation():
    with pytest.raises(InputError):
        make_instance([1], [0], [(1, 2)])  # d must be positive
    with pytest.raises(InputError):
        make_instance([1], [1], [1])  # p must be < 1
    with pytest.raises(InputError):
        make_instance([-1], [1], [(1, 2)])  # a must be nonnegative
    with pytest.raises(InputError):
        OMDInstance(n=2, a=(F(1),), d=(F(1), F(1)), p=(F(1, 2), F(1, 2)))


@pytest.mark.parametrize("n", [2.0, True])
def test_instance_and_parameters_require_int_n(n):
    # a float or bool n would reach `1 << n` in the greedy; refuse it first
    ones, halves = (F(1), F(1)), (F(1, 2), F(1, 2))
    with pytest.raises(InputError, match=rf"^n: expected an integer, got {n!r}$"):
        OMDInstance(n=n, a=ones, d=ones, p=halves)
    with pytest.raises(InputError, match=rf"^n: expected an integer, got {n!r}$"):
        LP2Params(n=n, x=ones, B=F(3), d=ones, p=halves)


@pytest.mark.parametrize("field", ["x", "d", "p"])
def test_lp2_params_require_fraction_entries(field):
    vectors = {"x": (F(2), F(3)), "d": (F(1), F(2)), "p": (F(1, 2), F(1, 2))}
    vectors[field] = tuple(map(float, vectors[field]))
    with pytest.raises(InputError, match=f"{field}: entries must be rationals"):
        LP2Params(n=2, B=F(9, 2), **vectors)


def test_instance_refuses_no_items():
    with pytest.raises(InputError, match="n: must be >= 1, got 0"):
        OMDInstance(n=0, a=(), d=(), p=())


def test_vector_fields_become_tuples():
    # a frozen instance is hashable only with tuple fields
    inst = OMDInstance(n=1, a=[F(1)], d=[F(2)], p=[F(1, 2)])
    params = LP2Params(n=1, x=[F(1)], B=F(1, 2), d=[F(2)], p=[F(1, 2)])
    assert (inst.a, inst.d, inst.p) == ((F(1),), (F(2),), (F(1, 2),))
    assert (params.x, params.d, params.p) == ((F(1),), (F(2),), (F(1, 2),))
    assert hash(inst) == hash(make_instance([1], [2], [(1, 2)]))
    assert hash(params) == hash(LP2Params(1, (F(1),), F(1, 2), (F(2),), (F(1, 2),)))


@pytest.mark.parametrize("change, message", [
    (dict(B=F(0)), "B: must be a positive rational"),
    (dict(B=F(-1)), "B: must be a positive rational"),
    (dict(B=1), "B: must be a positive rational"),
    (dict(x=(F(2), F(0))), "x: entry 2 must be > 0, got 0"),
    (dict(x=(F(-1), F(3))), "x: entry 1 must be > 0, got -1"),
])
def test_lp2_params_refuse_nonpositive_budget_and_values(change, message):
    vectors = dict(n=2, x=(F(2), F(3)), B=F(9, 2), d=(F(1), F(2)), p=(F(1, 2), F(1, 2)))
    with pytest.raises(InputError, match=message):
        LP2Params(**vectors | change)


@pytest.mark.parametrize("value", [-1, True, 1.0, "1", None])
def test_check_nonnegative_int_refuses(value):
    with pytest.raises(InputError, match="T: expected a nonnegative integer"):
        check_nonnegative_int(value, "T")
    assert check_nonnegative_int(0, "T") == 0


@pytest.mark.parametrize("value", [-1, 4, True, 1.0, None])
def test_check_mask_refuses(value):
    with pytest.raises(InputError, match="is not a subset mask over items 1..2"):
        check_mask(value, 2, field="S")
    assert check_mask(3, 2) == 3


def test_subset_sums_keep_the_value_type():
    ints = subset_sums([1, 2, 4])
    assert ints == list(range(8)) and all(type(v) is int for v in ints)
    fracs = subset_sums([F(1, 2), F(1, 3)])
    assert fracs == [0, F(1, 2), F(1, 3), F(5, 6)]
    assert all(type(v) is F for v in fracs[1:])


def test_instance_json_round_trip():
    text = instance_to_json(LOTTERY)
    assert instance_from_json(text) == LOTTERY


@pytest.mark.parametrize(
    "doc,needle",
    [
        ('{"n": 2, "a": ["1"], "d": ["1","2"], "p": ["1/2","1/2"]}', "a"),
        ('{"n": 2, "a": ["1","1"], "d": ["1","x"], "p": ["1/2","1/2"]}', "d[2]"),
        ('{"n": 2, "a": ["1","1"], "d": ["1","2"], "p": ["1/2","3/2"]}', "p"),
        ('{"a": ["1"], "d": ["1"], "p": ["1/2"]}', "n"),
        ("not json", "JSON"),
    ],
)
def test_instance_json_errors_name_field(doc, needle):
    with pytest.raises(InputError) as err:
        instance_from_json(doc)
    assert needle in str(err.value)


def test_type_prob_sums_to_one_n12():
    rng = random.Random(99)
    n = 12
    inst = make_instance(
        [F(rng.randint(0, 9)) for _ in range(n)],
        [F(rng.randint(1, 9)) for _ in range(n)],
        [F(rng.randint(1, 9), 10) for _ in range(n)],
    )
    assert sum(subset_probs(inst.p)) == 1
