import time
from fractions import Fraction as F
from itertools import combinations, product
from math import comb

import pytest

from optmech import (
    InputError,
    PreconditionError,
    canonical_solution,
    check_subset,
    count_subsetsum,
    decide_lexrank,
    eval_f,
    find_parameter,
    lexrank_oracle,
    lexrank_to_omd,
    node_costs,
    subset_to_list,
    subsetsum_gadget,
)
from optmech import reduction
from optmech.cli import main
from optmech.core import item_range
from optmech.reduction import count_subsets_of_size

ONE = F(1)


def mask(*items):
    return check_subset(items, max(items, default=0))


# ---------------------------------------------------------------------------
# lexicographic order: S1 precedes S2 iff the largest item of their symmetric
# difference lies in S2, which on masks is S1 <= S2
# ---------------------------------------------------------------------------

def test_lex_leq_examples():
    assert mask(1) <= mask(2)
    assert not mask(2) <= mask(1)
    assert mask(1, 3) <= mask(2, 3)


def test_lex_leq_reflexive_total():
    subsets = range(1 << 4)
    for S in subsets:
        assert S <= S
        for T in subsets:
            assert S <= T or T <= S
            if S != T:
                assert (S <= T) != (T <= S)
                # the mask order is the symmetric-difference rule above
                assert (S <= T) == bool(T >> ((S ^ T).bit_length() - 1) & 1)


# ---------------------------------------------------------------------------
# rank oracle
# ---------------------------------------------------------------------------

def test_lexrank_oracle_examples():
    assert lexrank_oracle((1, 2, 3), mask(1, 2)) == 1
    assert lexrank_oracle((1, 2, 3), mask(2, 3)) == 3
    assert lexrank_oracle((8, 16, 20), mask(3)) == 3


def test_lexrank_oracle_is_a_total_ranking():
    C = (3, 1, 4, 1)
    for size in (1, 2, 3):
        ranks = sorted(
            lexrank_oracle(C, mask(*S)) for S in combinations(item_range(4), size)
        )
        assert ranks == list(range(1, comb(4, size) + 1))


# ---------------------------------------------------------------------------
# gadget
# ---------------------------------------------------------------------------

def test_gadget_examples():
    C1, S1 = subsetsum_gadget((1, 2), 2, 1)
    assert C1 == (8, 16, 20)
    assert S1 == mask(3)
    assert sum(C1[i - 1] for i in subset_to_list(S1)) == 20

    C2, S2 = subsetsum_gadget((1, 2), 2, 2)
    assert C2 == (8, 16, 20, 1)
    assert S2 == mask(3, 4)
    assert sum(C2[i - 1] for i in subset_to_list(S2)) == 21
    assert lexrank_oracle(C2, S2) == 3


def test_gadget_special_sum_identity():
    for W, T, ell in product(((1, 3), (2, 2, 5)), (0, 3, 7), (1, 2)):
        n = len(W)
        C, S = subsetsum_gadget(W, T, ell)
        assert sum(C[i - 1] for i in subset_to_list(S)) == 4 * n * T + 2 * n + ell - 1


def test_gadget_ordering_properties():
    # the three orderings that make the rank formula count exactly the
    # affordable subsets: checked by enumeration on a small instance
    W, T = (1, 2, 3), 3
    n = len(W)
    for ell in range(1, n + 1):
        C, S_ell = subsetsum_gadget(W, T, ell)
        special = sum(C[i - 1] for i in subset_to_list(S_ell))
        fillers = list(range(n + 2, n + ell + 1))
        for r in range(1, n + 1):
            for S in combinations(item_range(n), r):
                s_sum = sum(C[i - 1] for i in S)
                if sum(W[i - 1] for i in S) > T:
                    assert s_sum > special
                else:
                    for ur in range(0, len(fillers) + 1):
                        for U in combinations(fillers, ur):
                            below = s_sum + sum(C[i - 1] for i in U)
                            assert below < special
                            assert below + C[n] > special  # adding item n+1 overshoots


def test_gadget_rank_formula_example():
    W, T = (1, 2), 2
    C2, S2 = subsetsum_gadget(W, T, 2)
    expected = 1 + count_subsets_of_size(W, T, 1) * comb(1, 1) + count_subsets_of_size(
        W, T, 2
    ) * comb(1, 0)
    assert lexrank_oracle(C2, S2) == expected == 3


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_subsetsum_examples():
    assert count_subsetsum((1, 2), 2) == 3
    assert count_subsetsum((1, 1, 1), 0) == 1
    assert count_subsetsum((3, 5), 10) == 4


def test_count_subsetsum_small_sweep():
    for W in ((1,), (2, 3), (1, 1, 4)):
        for T in range(sum(W) + 2):
            direct = sum(
                1
                for mask in range(1 << len(W))
                if sum(W[i] for i in range(len(W)) if mask >> i & 1) <= T
            )
            assert count_subsetsum(W, T) == direct


# ---------------------------------------------------------------------------
# saturation ratio and parameter search
# ---------------------------------------------------------------------------

def test_eval_f_values():
    assert eval_f(2, 1, F(1, 2)) == 0
    assert eval_f(2, 1, F(5, 6)) == F(5, 2)
    assert eval_f(2, 1, F(5, 6)) >= comb(2, 1)
    assert eval_f(2, 1, F(1, 4)) < 0


def test_eval_f_matches_reduced_closed_form():
    # for n=2, s=1 the ratio simplifies to p(2p-1) / ((1-p)(3-2p))
    for p in (F(1, 3), F(1, 2), F(3, 5), F(7, 10), F(4, 5)):
        reduced = p * (2 * p - 1) / ((1 - p) * (3 - 2 * p))
        assert eval_f(2, 1, p) == reduced


def test_eval_f_rejects():
    with pytest.raises(PreconditionError):
        eval_f(2, 1, F(0))
    with pytest.raises(PreconditionError):
        eval_f(2, 2, F(1, 2))


def test_eval_f_rejects_inexact_and_non_integer_arguments():
    # a float would be evaluated at its binary value, not at 3/5
    for p in (0.6, 1, "3/5"):
        with pytest.raises(InputError, match="p: expected a Fraction"):
            eval_f(3, 1, p)
    for n, s, name in ((3.0, 1, "n"), (True, 1, "n"), (3, F(1), "s"), (3, False, "s")):
        with pytest.raises(InputError, match=f"{name}: expected an integer"):
            eval_f(n, s, F(3, 5))


def test_find_parameter_windows():
    p1 = find_parameter(2, 1, 1)
    assert F(1, 2) <= p1 < F(5, 6)
    assert F(5, 6) < eval_f(2, 1, p1) < 1

    p2 = find_parameter(2, 1, 2)
    assert F(1, 2) <= p2 < F(5, 6)
    assert F(11, 6) < eval_f(2, 1, p2) < 2


def test_find_parameter_near_crossing_root():
    # the k=1 crossing for two items solves 2p^2 + 43p - 33 = 0, p ~ 0.7418;
    # the bisected value must sit within the verified window around it
    p = find_parameter(2, 1, 1)
    assert abs(p - F(7418, 10000)) < F(1, 100)


def test_find_parameter_returns_dyadic():
    for (n, s, k) in ((2, 1, 1), (2, 1, 2), (3, 1, 2), (3, 2, 3), (4, 2, 5)):
        p = find_parameter(n, s, k)
        den = p.denominator
        assert den & (den - 1) == 0  # power of two
        assert F(1, 2) <= p < 1 - F(1, 2 * n + 2)
        assert F(k) - F(1, 2 * n + 2) < eval_f(n, s, p) < F(k)


def test_find_parameter_stops_at_first_point_in_window(monkeypatch):
    # the bisection evaluates both endpoints, then midpoints, and returns the
    # first midpoint whose value lies inside the window
    seen = []

    def recording_eval_f(n, s, p):
        seen.append(p)
        return eval_f(n, s, p)

    monkeypatch.setattr(reduction, "eval_f", recording_eval_f)
    for (n, s, k) in ((2, 1, 1), (2, 1, 2), (3, 1, 2), (3, 2, 3), (4, 2, 5)):
        reduction._find_parameter.cache_clear()
        seen.clear()
        p = find_parameter(n, s, k)
        assert seen[:2] == [F(1, 2), 1 - F(1, 2 * n + 2)]
        assert p == seen[-1]
        for mid in seen[2:-1]:
            assert not F(k) - F(1, 2 * n + 2) < eval_f(n, s, mid) < F(k)
    reduction._find_parameter.cache_clear()


def test_find_parameter_rejects():
    with pytest.raises(PreconditionError):
        find_parameter(2, 2, 1)
    with pytest.raises(PreconditionError):
        find_parameter(3, 1, 4)


@pytest.mark.parametrize("args, name", [
    ((3, 1, 2.5), "k"), ((3, 1, True), "k"), ((3, 1.0, 2), "s"), ((F(3), 1, 2), "n"),
])
def test_find_parameter_rejects_non_integers(args, name):
    # a float k is not truncated to the k = 2 parameter, and a float s does
    # not escape as a TypeError
    with pytest.raises(InputError, match=f"^{name}: expected an integer"):
        find_parameter(*args)


# ---------------------------------------------------------------------------
# rank query -> instance
# ---------------------------------------------------------------------------

def test_lexrank_to_omd_example():
    out = lexrank_to_omd((1, 2), mask(1), 1)
    assert out.params.d == (F(34), F(44), F(1))
    assert out.params.x == (F(2), F(2), F(2))
    assert out.params.B == F(5)
    assert out.probe_type == mask(2)
    assert out.distinguished_item == 3
    assert out.target_T_star == mask(2)
    # cost comparison drives the decision: cost(S^c) = 35 <= cost(T*) = 35
    assert node_costs(out.params.d)[out.probe_type] == 35
    assert node_costs(out.params.d)[out.target_T_star] == 35


def test_lexrank_to_omd_rejects_degenerate_probe():
    with pytest.raises(PreconditionError):
        lexrank_to_omd((1, 2), mask(), 1)
    with pytest.raises(PreconditionError):
        lexrank_to_omd((1, 2), mask(1, 2), 1)
    for k in (0, 3):  # C(2,1) = 2
        with pytest.raises(PreconditionError):
            lexrank_to_omd((1, 2), mask(1), k)


def test_reduction_refuses_lattice_past_guard():
    # |C| = 14 puts the constructed lattice on 15 items, one past the guard;
    # the refusal comes before any parameter search or lattice work
    C = tuple(range(1, 15))
    t0 = time.perf_counter()
    with pytest.raises(PreconditionError, match="guard 14"):
        lexrank_to_omd(C, mask(1), 1)
    with pytest.raises(PreconditionError, match="guard 14"):
        decide_lexrank(C, mask(1), 1)
    assert time.perf_counter() - t0 < 1.0


def test_decide_examples():
    assert decide_lexrank((1, 2), mask(1), 1) is True
    assert decide_lexrank((1, 2), mask(2), 1) is False
    assert decide_lexrank((1, 2, 3), mask(2, 3), 3) is True


def test_decide_matches_oracle_small_sweep():
    for C in product((1, 2, 3), repeat=3):
        n = len(C)
        for size in (1, 2):
            for S in combinations(item_range(n), size):
                S = mask(*S)
                for k in range(1, comb(n, size) + 1):
                    expected = lexrank_oracle(C, S) <= k
                    assert decide_lexrank(C, S, k) == expected


def test_constructed_lattice_structure():
    out = lexrank_to_omd((2, 5, 3), mask(2), 2)
    params = out.params
    n = params.n  # == 4: three collection items plus the distinguished one
    ground = n - 1
    costs = node_costs(params.d)
    values = list(costs)
    # every node cost is a distinct integer
    assert all(v.denominator == 1 for v in values)
    assert len(set(values)) == len(values)
    # the cheapest sink is the full collection without the distinguished item
    sinks = {S: c for S, c in enumerate(costs) if S.bit_count() < n}
    assert min(sinks, key=sinks.get) == (1 << ground) - 1
    # nothing lies strictly between cost(T + {n}) and cost(T)
    for T in range(1 << ground):
        hi, lo = costs[T], costs[T | 1 << (n - 1)]
        assert lo < hi
        assert not any(lo < c < hi for c in values)
    # more items always means cheaper, among proper subsets of the collection
    for T1 in range(1 << ground):
        for T2 in range(1 << ground):
            if T1.bit_count() > T2.bit_count() and T1.bit_count() < ground + 1:
                assert costs[T1] < costs[T2]


def test_partially_filled_node_is_target():
    out = lexrank_to_omd((2, 5, 3), mask(2), 2)
    flow = canonical_solution(out.params)
    assert flow.partially_filled == out.target_T_star
    assert flow.partially_filled.bit_count() == 3 - mask(2).bit_count()
    assert lexrank_oracle((2, 5, 3), (1 << 3) - 1 ^ out.target_T_star) == 2


def test_decide_matches_oracle_n5_spot_checks():
    rng_cases = [
        ((2, 7, 3, 5, 4), mask(2, 4), 3),
        ((1, 1, 2, 3, 5), mask(1), 4),
        ((6, 2, 2, 6, 1), mask(3, 4, 5), 7),
        ((4, 4, 4, 4, 4), mask(2, 3), 6),
        ((9, 1, 8, 2, 7), mask(5), 1),
        ((3, 3, 1, 2, 2), mask(1, 2, 3, 4), 5),
    ]
    for C, S, k in rng_cases:
        n = len(C)
        out = lexrank_to_omd(C, S, k)
        flow = canonical_solution(out.params)
        assert flow.partially_filled == out.target_T_star
        assert out.target_T_star.bit_count() == n - S.bit_count()
        assert lexrank_oracle(C, (1 << n) - 1 ^ out.target_T_star) == k
        assert decide_lexrank(C, S, k) == (lexrank_oracle(C, S) <= k)


# ---------------------------------------------------------------------------
# decision from two lattice nodes; the menu on demand
# ---------------------------------------------------------------------------

def test_decision_matches_the_mechanism_probe_exhaustive():
    # the decision reads u at two nodes; the full closed-form menu must agree
    for n in (2, 3, 4):
        for C in product(range(1, 5), repeat=n):
            for size in range(1, n):
                for S_tuple in combinations(item_range(n), size):
                    S = mask(*S_tuple)
                    for k in range(1, comb(n, size) + 1):
                        out = lexrank_to_omd(C, S, k)
                        probe = out.mechanism.q[out.probe_type][n]
                        assert out.decision() == (probe == 1), (C, S, k)


def test_decision_never_builds_the_menu(monkeypatch, tmp_path, capsys):
    def refuse(inst, flow):
        raise AssertionError("closed_form_mechanism called")

    monkeypatch.setattr(reduction, "closed_form_mechanism", refuse)
    reduction._build_reduction.cache_clear()
    C, S = (2, 7, 3, 5, 4), mask(2, 4)
    rank = lexrank_oracle(C, S)  # 10
    assert decide_lexrank(C, S, rank) is True
    assert decide_lexrank(C, S, rank - 1) is False
    query = tmp_path / "q.json"
    query.write_text('{"C": [3, 1, 4, 1, 5], "S": [2, 5], "k": 6}')
    assert main(["reduce", "lexrank", str(query)]) == 0
    assert "decision: YES" in capsys.readouterr().out


def test_menu_built_once_per_query_shape(monkeypatch):
    calls = []
    build = reduction.closed_form_mechanism

    def counting(inst, flow):
        calls.append(inst)
        return build(inst, flow)

    monkeypatch.setattr(reduction, "closed_form_mechanism", counting)
    reduction._build_reduction.cache_clear()
    C = (2, 5, 3, 4)
    n = len(C)
    for size in range(1, n):
        for k in range(1, comb(n, size) + 1):
            calls.clear()
            for S_tuple in combinations(item_range(n), size):
                out = lexrank_to_omd(C, mask(*S_tuple), k)
                assert out.mechanism is out.mechanism
            assert len(calls) == 1, (size, k)
