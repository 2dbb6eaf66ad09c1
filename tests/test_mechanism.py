import json
import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from optmech import (
    InputError,
    LP2Params,
    Mechanism,
    PreconditionError,
    build_lp1,
    canonical_solution,
    certify_bic_ir,
    check_subset,
    closed_form_mechanism,
    expected_revenue,
    from_lp2_params,
    is_monotone_supermodular,
    mechanism_from_json_dict,
    mechanism_to_json_dict,
    node_costs,
    sample_allocation,
    solve_lp,
    verify_bic_ir,
)
from optmech.mechanism import bernoulli
from tests.test_core import make_instance
from tests.test_lattice import PARAMS_A, PARAMS_B, PARAMS_TIE, _random_single_positive

ZERO, ONE = F(0), F(1)


def mask(*items):
    return check_subset(items, max(items, default=0))


def mech_for(params):
    return closed_form_mechanism(from_lp2_params(params)[0], canonical_solution(params))


# ---------------------------------------------------------------------------
# closed-form construction
# ---------------------------------------------------------------------------

def test_closed_form_halves_instance():
    # params (x, B) = ((2,3), 9/2) correspond to a = (1/2, 3/2), d = (1, 2)
    mech = mech_for(PARAMS_A)
    assert mech.unique
    assert mech.u[mask(1, 2)] == 1
    assert mech.u[mask(1)] == 0 and mech.u[mask(2)] == 0 and mech.u[mask()] == 0
    assert mech.q[mask(1, 2)] == (ONE, ONE)
    assert mech.q[mask(1)] == (ONE, F(1, 2))
    assert mech.q[mask(2)] == (ONE, ONE)
    assert mech.q[mask()] == (ZERO, ZERO)
    assert mech.tau[mask(1, 2)] == 4
    assert mech.tau[mask(1)] == F(9, 4)
    assert mech.tau[mask(2)] == 4
    assert mech.tau[mask()] == 0


def test_closed_form_lottery_instance():
    mech = mech_for(PARAMS_B)
    assert mech.tau[mask(1, 2)] == 4
    # the high-low type buys the (1, 1/2) lottery at 5/2
    assert mech.q[mask(1)] == (ONE, F(1, 2))
    assert mech.tau[mask(1)] == F(5, 2)


def test_full_type_utility_equals_star_cost():
    for params in (PARAMS_A, PARAMS_B):
        flow = canonical_solution(params)
        mech = mech_for(params)
        star_cost = node_costs(params.d)[flow.partially_filled]
        assert mech.u[mask(1, 2)] == star_cost == 1


def test_closed_form_boundary_flagged_non_unique():
    mech = mech_for(PARAMS_TIE)
    assert not mech.unique
    # still optimal: value of the relaxed program equals the flow cost
    inst_rev = expected_revenue(make_instance([1, 1], [1, 1], [(1, 2), (1, 2)]), mech)
    assert inst_rev == solve_lp(build_lp1(make_instance([1, 1], [1, 1], [(1, 2), (1, 2)]))).value


def test_closed_form_zero_supply():
    params = LP2Params(2, (F(2), F(2)), F(4), (F(1), F(2)), (F(1, 2), F(1, 2)))
    mech = mech_for(params)
    assert not mech.unique
    assert all(v == 0 for v in mech.u)
    assert mech.q[mask(1)] == (ONE, ZERO)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_constructed_mechanism_clean():
    inst = make_instance([(1, 2), (3, 2)], [1, 2], [(1, 2), (1, 2)])
    report = verify_bic_ir(inst, mech_for(PARAMS_A))
    assert report.ok
    assert report.bic_checked == 12
    assert report.ir_checked == 4


def test_verify_flags_broken_mechanism():
    inst = make_instance([(1, 2), (3, 2)], [1, 2], [(1, 2), (1, 2)])
    broken = Mechanism(
        n=2,
        u=[ZERO, F(2), ZERO, ONE],  # by mask: {}, {1}, {2}, {1,2}
        q=[(ONE, ONE) for S in range(1 << 2)],
        tau=[ZERO for S in range(1 << 2)],
        unique=False,
    )
    report = verify_bic_ir(inst, broken)
    assert not report.ok
    assert any(name.startswith("bic") for name, _ in report.violations)
    # slacks are reported exactly
    assert all(slack < 0 for _, slack in report.violations)


def test_verify_reports_exact_violation_labels():
    # the lottery mechanism with u({1,2}) corrupted from 1 to -1
    inst = make_instance([1, 1], [1, 2], [(1, 2), (1, 2)])
    mech = mech_for(PARAMS_B)
    u = list(mech.u)
    u[mask(1, 2)] = F(-1)
    report = verify_bic_ir(inst, replace(mech, u=u))
    assert report.violations == (
        ("ir({1,2})", F(-1)),
        ("bic({1,2}|{})", F(-1)),
        ("bic({1,2}|{1})", F(-2)),
        ("bic({1,2}|{2})", F(-2)),
    )


def test_verify_refuses_past_guard_at_once():
    # n = 11 is one past the guard: 4^11 rows would run for minutes
    inst = make_instance([1] * 11, [1] * 11, [(1, 2)] * 11)
    t0 = time.perf_counter()
    with pytest.raises(PreconditionError, match="verification guard 10"):
        verify_bic_ir(inst, mech_for(PARAMS_B))
    assert time.perf_counter() - t0 < 1.0


def test_verify_bundle_menu_mechanism():
    # selling the bundle at 3: buyers are every type except the low-low one
    inst = make_instance([1, 1], [1, 1], [(1, 2), (1, 2)])
    bundle = Mechanism(
        n=2,
        u=[ZERO, ZERO, ZERO, ONE],  # by mask: {}, {1}, {2}, {1,2}
        q=[(ZERO, ZERO), (ONE, ONE), (ONE, ONE), (ONE, ONE)],
        tau=[ZERO, F(3), F(3), F(3)],
        unique=False,
    )
    report = verify_bic_ir(inst, bundle)
    assert report.ok
    assert expected_revenue(inst, bundle) == F(9, 4)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

def shaped_mechanism(inst, u):
    """The mechanism of closed-form shape on utilities u: q_i(S) = 1 for i in
    S, (u(S+{i}) - u(S)) / d_i otherwise. Neither check reads the prices."""
    n = inst.n
    q = [
        tuple(ONE if S >> i & 1 else (u[S | 1 << i] - u[S]) / inst.d[i] for i in range(n))
        for S in range(1 << n)
    ]
    return Mechanism(n=n, u=list(u), q=q, tau=[ZERO] * (1 << n), unique=False)


def zero_mechanism(n):
    """Truthful and rational, but not of closed-form shape: q_i(S) = 0 for i
    in S."""
    size = 1 << n
    return Mechanism(n=n, u=[ZERO] * size, q=[(ZERO,) * n] * size, tau=[ZERO] * size,
                     unique=False)


def unshaped_mechanism(n):
    """u(S) = 2|S| with every q_i = 1: it passes every inequality the
    certificate checks, but not the shape equality, and type {} gains by
    reporting any other type."""
    size = 1 << n
    return Mechanism(n=n, u=[F(2 * S.bit_count()) for S in range(size)],
                     q=[(ONE,) * n] * size, tau=[ZERO] * size, unique=False)


def assert_certificate_agrees(inst, mech):
    """The certificate accepts exactly when the replay does, counts the same
    rows, and any row it fails on is a replay violation with the same slack."""
    cert, replay = certify_bic_ir(inst, mech), verify_bic_ir(inst, mech)
    assert cert.ok == replay.ok
    assert (cert.bic_checked, cert.ir_checked, cert.prob_checked) == (
        replay.bic_checked, replay.ir_checked, replay.prob_checked)
    assert len(cert.violations) <= 1
    assert set(cert.violations) <= set(replay.violations)
    return cert


UNIT_D = make_instance([1, 1], [1, 1], [(1, 2), (1, 2)])


def test_certify_closed_forms():
    rng = random.Random(33)
    cases = [(PARAMS_A, [(1, 2), (3, 2)], [1, 2]), (PARAMS_B, [1, 1], [1, 2])]
    for params, a, d in cases:
        assert assert_certificate_agrees(make_instance(a, d, [(1, 2), (1, 2)]),
                                         mech_for(params)).ok
    for _ in range(20):
        params = _random_single_positive(rng, rng.randint(1, 5))
        inst, _ = from_lp2_params(params)
        assert assert_certificate_agrees(inst, mech_for(params)).ok


def test_certify_rejects_q_above_one():
    # u(S) = 2|S| is modular, but its shaped q_i = 2 for i outside S: type {}
    # gains d_1 q_1({1}) - u({1}) = -1 by reporting {1}
    mech = shaped_mechanism(UNIT_D, [F(2 * S.bit_count()) for S in range(4)])
    cert = assert_certificate_agrees(UNIT_D, mech)
    assert cert.violations == (("prob({},1,<=1)", F(-1)),)


def test_certify_rejects_unshaped_mechanisms():
    cert = certify_bic_ir(UNIT_D, unshaped_mechanism(2))
    assert cert.violations == (("shape({},1)", ONE),)
    assert not verify_bic_ir(UNIT_D, unshaped_mechanism(2)).ok
    cert = certify_bic_ir(UNIT_D, zero_mechanism(2))
    assert cert.violations == (("shape({1},1)", ONE),)
    assert verify_bic_ir(UNIT_D, zero_mechanism(2)).ok


def test_certify_rejects_submodular_utility():
    # u = 1 on every nonempty type: the supermodularity row at ({}, 1, 2) is
    # the truthfulness row bic({1,2}|{}) with the same slack
    mech = shaped_mechanism(UNIT_D, [ZERO, ONE, ONE, ONE])
    cert = assert_certificate_agrees(UNIT_D, mech)
    assert cert.violations == (("bic({1,2}|{})", F(-1)),)


def test_certify_rejects_negative_utility():
    mech = shaped_mechanism(UNIT_D, [F(-1), ZERO, ZERO, ONE])
    cert = assert_certificate_agrees(UNIT_D, mech)
    assert cert.violations == (("ir({})", F(-1)),)


def test_certify_passes_bundle_menu():
    # the bundle menu happens to have closed-form shape, and its utility is
    # supermodular: the certificate covers it without the replay
    bundle = Mechanism(
        n=2,
        u=[ZERO, ZERO, ZERO, ONE],
        q=[(ZERO, ZERO), (ONE, ONE), (ONE, ONE), (ONE, ONE)],
        tau=[ZERO, F(3), F(3), F(3)],
        unique=False,
    )
    assert assert_certificate_agrees(UNIT_D, bundle).ok


# ---------------------------------------------------------------------------
# monotone + supermodular
# ---------------------------------------------------------------------------

def test_supermodular_cost_gap_family():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 5)
        d = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
        c = F(rng.randint(0, 12), rng.randint(1, 4))
        u = []
        for cost in node_costs(d):
            gap = c - cost
            u.append(gap if gap > 0 else ZERO)
        assert is_monotone_supermodular(u, n)


def test_cardinality_is_modular():
    u = [F(S.bit_count()) for S in range(1 << 3)]
    assert is_monotone_supermodular(u, 3)


def test_strictly_submodular_rejected():
    u = [ZERO, ONE, ONE, ONE]  # by mask: {}, {1}, {2}, {1,2}
    assert not is_monotone_supermodular(u, 2)


def test_non_monotone_rejected():
    u = [ONE, ZERO, ONE, ONE]  # by mask: {}, {1}, {2}, {1,2}
    assert not is_monotone_supermodular(u, 2)


# ---------------------------------------------------------------------------
# revenue
# ---------------------------------------------------------------------------

def test_expected_revenue_examples():
    lottery = make_instance([1, 1], [1, 2], [(1, 2), (1, 2)])
    mech = mech_for(PARAMS_B)
    assert expected_revenue(lottery, mech) == F(21, 8)
    assert solve_lp(build_lp1(lottery)).value == F(21, 8)

    halves = make_instance([(1, 2), (3, 2)], [1, 2], [(1, 2), (1, 2)])
    mech = mech_for(PARAMS_A)
    assert expected_revenue(halves, mech) == F(41, 16)
    assert solve_lp(build_lp1(halves)).value == F(41, 16)

    zero = Mechanism(
        n=2,
        u=[ZERO for S in range(1 << 2)],
        q=[(ZERO, ZERO) for S in range(1 << 2)],
        tau=[ZERO for S in range(1 << 2)],
        unique=False,
    )
    assert expected_revenue(lottery, zero) == 0


def test_expected_revenue_rejects_item_count_mismatch():
    inst = make_instance([1, 1, 1], [1, 2, 3], [(1, 2), (1, 2), (1, 2)])
    with pytest.raises(PreconditionError, match="disagree on the item count"):
        expected_revenue(inst, mech_for(PARAMS_B))


# ---------------------------------------------------------------------------
# malformed menus
# ---------------------------------------------------------------------------

ONE_ITEM = make_instance([1], [1], [(1, 2)])
NO_PROBABILITIES = dict(n=1, u=[ZERO, ZERO], q=[(), ()], tau=[ZERO, ZERO])


@pytest.mark.parametrize("check, fields, message", [
    # the certificate used to accept this menu, counting 4 prob rows it never read
    (certify_bic_ir, NO_PROBABILITIES, r"q: type \{\}: expected 1 probabilities, got 0"),
    # the replay used to fail on it with an IndexError
    (verify_bic_ir, NO_PROBABILITIES, r"q: type \{\}: expected 1 probabilities, got 0"),
    # zip used to cut the revenue to the one listed type: 1/2 * 5
    (expected_revenue, dict(n=1, u=[ZERO], q=[(ONE,)], tau=[F(5)]),
     r"u: expected 2\^1 entries, got 1"),
    (expected_revenue, dict(n=2, u=[ZERO] * 4, q=[(ZERO, ZERO)] * 4, tau=[ZERO] * 3),
     r"tau: expected 2\^2 entries, got 3"),
    (certify_bic_ir, dict(n=2, u=[ZERO] * 4, q=[(ZERO, ZERO)] * 3 + [(ZERO,)], tau=[ZERO] * 4),
     r"q: type \{1,2\}: expected 2 probabilities, got 1"),
    (certify_bic_ir, dict(n=0, u=[ZERO], q=[()], tau=[ZERO]),
     r"n: expected an integer >= 1, got 0"),
    (certify_bic_ir, dict(n=10**9, u=[], q=[], tau=[]),
     r"u: expected 2\^1000000000 entries, got 0"),
])
def test_malformed_menu_refused(check, fields, message):
    with pytest.raises(PreconditionError, match=message):
        check(ONE_ITEM, Mechanism(unique=False, **fields))


# ---------------------------------------------------------------------------
# structural properties on random parameters
# ---------------------------------------------------------------------------

def test_complementary_slackness_randomized():
    rng = random.Random(31)
    for _ in range(20):
        params = _random_single_positive(rng, rng.randint(2, 4))
        flow = canonical_solution(params)
        mech = mech_for(params)
        for (src, dst), amount in flow.flows.items():
            if amount > 0:
                i = (src ^ dst).bit_length()
                assert mech.u[src] - mech.u[dst] == params.d[i - 1]


def test_q_monotone_randomized():
    rng = random.Random(32)
    for _ in range(15):
        n = rng.randint(2, 4)
        params = _random_single_positive(rng, n)
        mech = mech_for(params)
        for S in range(1 << n):
            for j in range(1, n + 1):
                if S >> (j - 1) & 1:
                    continue
                bigger = S | 1 << (j - 1)
                for i in range(n):
                    assert mech.q[bigger][i] >= mech.q[S][i]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_bernoulli_degenerate():
    rng = random.Random(0)
    assert bernoulli(rng, ZERO) is False
    assert bernoulli(rng, ONE) is True


def test_sample_deterministic_marginals():
    mech = mech_for(PARAMS_B)
    rng = random.Random(1)
    for _ in range(20):
        allocated, price = sample_allocation(mech, mask(1, 2), rng)
        assert allocated == mask(1, 2)
        assert price == 4
        allocated, price = sample_allocation(mech, mask(), rng)
        assert allocated == mask()
        assert price == 0


def test_sample_lottery_frequency_and_reproducibility():
    mech = mech_for(PARAMS_B)
    draws = 2000
    runs = []
    for _ in range(2):
        rng = random.Random(424242)
        hits = 0
        trace = []
        for _ in range(draws):
            allocated, price = sample_allocation(mech, mask(1), rng)
            assert allocated & mask(1)  # q_1 = 1
            assert price == F(5, 2)
            got = bool(allocated & mask(2))
            hits += got
            trace.append(got)
        runs.append((hits, trace))
    assert runs[0] == runs[1]  # same seed, bit-identical run
    hits = runs[0][0]
    # item 2 carried probability 1/2; allow five binomial standard deviations
    sigma_sq = F(draws, 4)
    assert (F(hits) - F(draws, 2)) ** 2 <= 25 * sigma_sq


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_mechanism_json_round_trip():
    mech = mech_for(PARAMS_B)
    doc = mechanism_to_json_dict(mech)
    assert doc["n"] == 2
    assert len(doc["menu"]) == 4
    text = json.dumps(doc)
    back = mechanism_from_json_dict(json.loads(text))
    assert back.u == mech.u
    assert back.q == mech.q
    assert back.tau == mech.tau
    # re-verifies cleanly against the owning instance
    inst = make_instance([1, 1], [1, 2], [(1, 2), (1, 2)])
    assert verify_bic_ir(inst, back).ok


def test_mechanism_json_rejects_bad_n():
    doc = mechanism_to_json_dict(mech_for(PARAMS_B))
    # a negative n must not escape as a bare shift-count ValueError, and an
    # absurd n must not build 1 << n before the menu length is compared
    for n in (-1, 10**9):
        with pytest.raises(InputError):
            mechanism_from_json_dict({**doc, "n": n})
    # n = 0 with the one-entry menu it would imply
    empty = {"n": 0, "menu": [{"type": [], "u": "0", "q": [], "price": "0"}]}
    with pytest.raises(InputError, match="n: must be >= 1"):
        mechanism_from_json_dict(empty)


ENTRY = {"type": [], "u": "0", "q": ["0"], "price": "0"}


@pytest.mark.parametrize("doc, field", [
    ({"n": "1", "menu": []}, r"n: expected an integer"),
    ({"n": 1, "menu": {}}, r"menu: missing or not a list"),
    ({"n": 1, "menu": [ENTRY, 5]}, r"menu\[1\]: expected an object"),
    ({"n": 1, "menu": [{"u": "0"}, ENTRY]}, r"menu\[0\]\.type: missing field"),
    ({"n": 1, "menu": [ENTRY, ENTRY]}, r"menu\[1\]\.type: duplicate type \[\]"),
    ({"n": 1, "menu": [dict(ENTRY, q=[]), ENTRY]}, r"menu\[0\]\.q: expected 1 rationals"),
    ({}, r"n: missing field"),
    ({"n": 2}, r"menu: missing field"),
    *(({"n": 1, "menu": [ENTRY, {k: v for k, v in ENTRY.items() if k != key}]},
       rf"menu\[1\]\.{key}: missing field") for key in ("u", "q", "price")),
])
def test_mechanism_json_rejects_malformed_documents(doc, field):
    with pytest.raises(InputError, match=field):
        mechanism_from_json_dict(doc)


def test_mechanism_json_rejects_non_list_type():
    # a scalar type must not escape as a bare TypeError from the index check
    doc = mechanism_to_json_dict(mech_for(PARAMS_B))
    for bad in (5, None, "12", {"1": 1}):
        menu = [dict(doc["menu"][0], type=bad)] + doc["menu"][1:]
        with pytest.raises(InputError, match=r"menu\[0\]\.type: expected a list"):
            mechanism_from_json_dict({**doc, "menu": menu})
