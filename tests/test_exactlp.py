import random
import re
import signal
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations
from math import gcd
from operator import mul

import pytest

from optmech import (
    Constraint,
    InputError,
    LP2Params,
    LPProblem,
    PreconditionError,
    VerificationError,
    build_lp1,
    build_lp2,
    build_lp3,
    canonical_solution,
    dump_problem,
    edge_var,
    instance_to_json,
    q_var,
    solve_lp,
    solve_lp1,
    to_lp2_params,
    u_var,
    unique_optimum,
)
from optmech import budgeted, exactlp
from optmech.cli import main
from tests.test_core import make_instance

ZERO, ONE = F(0), F(1)


# ---------------------------------------------------------------------------
# independent oracle: exact vertex enumeration for small bounded LPs
# ---------------------------------------------------------------------------

def _solve_square(rows, rhs):
    """Gaussian elimination over Fractions; None if singular."""
    k = len(rows)
    M = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(k):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[r][k] for r in range(k)]


def vertex_enumeration_max(nvars, rows, objective):
    """Max of objective over {x : row . x <= rhs} by checking every vertex.

    ``rows`` are (coeffs, rhs) inequalities, all written as <=; the polytope
    must be bounded. Independent of the simplex implementation.
    """
    best = None
    for combo in combinations(range(len(rows)), nvars):
        mat = [rows[i][0] for i in combo]
        rhs = [rows[i][1] for i in combo]
        point = _solve_square(mat, rhs)
        if point is None:
            continue
        if all(
            sum(c * x for c, x in zip(coeffs, point)) <= b for coeffs, b in rows
        ):
            value = sum(c * x for c, x in zip(objective, point))
            if best is None or value > best:
                best = value
    return best


def _box_problem(nvars, rows, objective, sense="max"):
    names = tuple(f"x{i}" for i in range(nvars))
    constraints = tuple(
        Constraint(
            {names[j]: c for j, c in enumerate(coeffs) if c},
            "<=",
            rhs,
            name=f"row{i}",
        )
        for i, (coeffs, rhs) in enumerate(rows)
    )
    return LPProblem(
        variables=names,
        objective={names[j]: c for j, c in enumerate(objective) if c},
        sense=sense,
        constraints=constraints,
        lower={name: None for name in names},
    )


# ---------------------------------------------------------------------------
# solve_lp basics
# ---------------------------------------------------------------------------

def test_solve_trivial_bounded():
    prob = LPProblem(
        variables=("x",),
        objective={"x": ONE},
        sense="max",
        constraints=(Constraint({"x": ONE}, "<=", F(3)),),
    )
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.value == 3
    assert sol.assignment == {"x": F(3)}


def test_solve_two_var_vertex():
    rows = [((F(1), F(2)), F(4)), ((ONE, ZERO), F(2)), ((-ONE, ZERO), ZERO), ((ZERO, -ONE), ZERO)]
    oracle = vertex_enumeration_max(2, rows, (ONE, ONE))
    assert oracle == 3
    prob = LPProblem(
        variables=("x", "y"),
        objective={"x": ONE, "y": ONE},
        sense="max",
        constraints=(
            Constraint({"x": ONE, "y": F(2)}, "<=", F(4)),
            Constraint({"x": ONE}, "<=", F(2)),
        ),
    )
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.value == 3
    assert sol.assignment == {"x": F(2), "y": F(1)}


def test_solve_infeasible():
    prob = LPProblem(
        variables=("x",),
        objective={"x": ONE},
        sense="max",
        constraints=(
            Constraint({"x": ONE}, ">=", ONE),
            Constraint({"x": ONE}, "<=", ZERO),
        ),
    )
    assert solve_lp(prob).status == "infeasible"


def test_solve_unbounded():
    prob = LPProblem(
        variables=("x",),
        objective={"x": ONE},
        sense="max",
        constraints=(Constraint({"x": ONE}, ">=", ZERO),),
    )
    assert solve_lp(prob).status == "unbounded"


def test_solve_min_free_variables_equalities():
    # min x + y  s.t.  x + y >= -2, x - y = 5, both free
    prob = LPProblem(
        variables=("x", "y"),
        objective={"x": ONE, "y": ONE},
        sense="min",
        constraints=(
            Constraint({"x": ONE, "y": ONE}, ">=", F(-2)),
            Constraint({"x": ONE, "y": -ONE}, "=", F(5)),
        ),
        lower={"x": None, "y": None},
    )
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.value == -2
    assert sol.assignment["x"] - sol.assignment["y"] == 5


def test_solve_respects_nondefault_bounds():
    # min x with lower bound -3 via explicit bound, upper bound unused
    prob = LPProblem(
        variables=("x",),
        objective={"x": ONE},
        sense="min",
        constraints=(),
        lower={"x": F(-3)},
        upper={"x": F(10)},
    )
    sol = solve_lp(prob)
    assert sol.value == -3

    # a free variable capped above, under both senses
    for sense, value in (("max", F(7, 2)), ("min", F(-1))):
        prob = LPProblem(
            ("x",),
            {"x": ONE},
            sense,
            (Constraint({"x": ONE}, ">=", F(-1)),),
            lower={"x": None},
            upper={"x": F(7, 2)},
        )
        sol = solve_lp(prob)
        assert (sol.status, sol.value, sol.assignment) == ("optimal", value, {"x": value})

    # nonzero lower bounds under max: the objective's constant shift counts
    prob = LPProblem(
        ("x", "y"),
        {"x": F(2), "y": F(-3)},
        "max",
        (Constraint({"x": ONE, "y": ONE}, "<=", F(10)),),
        lower={"x": F(3), "y": F(-2)},
        upper={"y": F(5)},
    )
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.assignment == {"x": F(12), "y": F(-2)}
    assert sol.value == 30


def test_solve_randomized_against_vertex_enumeration():
    rng = random.Random(42)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = tuple(F(rng.randint(-4, 4)) for _ in range(nvars))
            rows.append((coeffs, F(rng.randint(-3, 8))))
        # box to keep the polytope bounded so the oracle is complete
        for j in range(nvars):
            unit = tuple(ONE if i == j else ZERO for i in range(nvars))
            neg = tuple(-c for c in unit)
            rows.append((unit, F(6)))
            rows.append((neg, F(6)))
        objective = tuple(F(rng.randint(-4, 4)) for _ in range(nvars))
        oracle = vertex_enumeration_max(nvars, rows, objective)
        sol = solve_lp(_box_problem(nvars, rows, objective))
        if oracle is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.value == oracle


def test_solve_deterministic():
    prob = LPProblem(
        variables=("x", "y"),
        objective={"x": ONE, "y": ONE},
        sense="max",
        constraints=(Constraint({"x": ONE, "y": ONE}, "<=", ONE),),
    )
    first = solve_lp(prob)
    second = solve_lp(prob)
    assert first.assignment == second.assignment
    assert first.value == second.value


def test_problem_rejects_inexact_numbers():
    base = dict(variables=("x",), objective={"x": ONE}, sense="max", constraints=())
    for change, message in (
        (dict(objective={"x": 0.5}), "objective coefficient of 'x': expected an int or Fraction, got 0.5"),
        (dict(constraints=(Constraint({"x": 0.5}, "<=", ONE),)),
         "constraint '' coefficient of 'x': expected an int or Fraction, got 0.5"),
        (dict(constraints=(Constraint({"x": ONE}, "<=", 1.5),)),
         "constraint '' right-hand side: expected an int or Fraction, got 1.5"),
        (dict(lower={"x": -1.0}), "bound of 'x': expected an int or Fraction, got -1.0"),
        (dict(upper={"x": 2.0}), "bound of 'x': expected an int or Fraction, got 2.0"),
    ):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            LPProblem(**base | change)
    # ints are exact
    assert solve_lp(LPProblem(**base | dict(upper={"x": 2}))).value == 2


def test_constraint_rejects_an_invalid_relation():
    with pytest.raises(InputError, match="constraint 'c': invalid relation '<'"):
        Constraint({"x": ONE}, "<", ONE, name="c")


@pytest.mark.parametrize("change, message", [
    (dict(sense="maximize"), "sense: expected 'max' or 'min', got 'maximize'"),
    (dict(variables=("x", "x")), "variables: duplicate names"),
    (dict(objective={"y": ONE}), "objective references undeclared variable 'y'"),
    (dict(constraints=(Constraint({"y": ONE}, "<=", ONE, name="c"),)),
     "constraint 'c' references undeclared variable 'y'"),
    (dict(lower={"y": ZERO}), "bound references undeclared variable 'y'"),
    (dict(upper={"y": ONE}), "bound references undeclared variable 'y'"),
])
def test_problem_rejects_malformed_models(change, message):
    base = dict(variables=("x",), objective={"x": ONE}, sense="max", constraints=())
    with pytest.raises(InputError, match=message):
        LPProblem(**base | change)


# ---------------------------------------------------------------------------
# pricing: the largest reduced cost enters, and Bland's smallest index once
# the steps stall, so the program below ends instead of cycling
# ---------------------------------------------------------------------------

@contextmanager
def _hang_guard(seconds):
    """Fail, rather than hang, if the body runs longer than ``seconds``."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s: the simplex cycles")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_degenerate_steps_fall_back_to_bland():
    # Chvatal's cycling program (Linear Programming, 1983, ch. 3): the
    # largest reduced cost with smallest-index ties on both sides returns
    # to its first basis after six zero-length pivots, forever
    names = ("x1", "x2", "x3", "x4")
    prob = LPProblem(names, dict(zip(names, map(F, (10, -57, -9, -24)))), "max", (
        Constraint(dict(zip(names, (F(1, 2), F(-11, 2), F(-5, 2), F(9)))), "<=", ZERO),
        Constraint(dict(zip(names, (F(1, 2), F(-3, 2), F(-1, 2), ONE))), "<=", ZERO),
        Constraint({"x1": ONE}, "<=", ONE),
    ))
    with _hang_guard(5):
        sol = solve_lp(prob)
    assert (sol.status, sol.value) == ("optimal", ONE)
    assert sol.assignment == {"x1": ONE, "x2": ZERO, "x3": ONE, "x4": ZERO}


# ---------------------------------------------------------------------------
# pinned vertices: a deterministic pivot rule makes the optimal vertex part
# of the contract
# ---------------------------------------------------------------------------

def _with_zeros(prob, nonzero):
    expected = dict.fromkeys(prob.variables, ZERO)
    expected.update((v, F(x)) for v, x in nonzero.items())
    return expected


# a single-positive n=3 instance
PINNED_LP1 = make_instance([(1, 2), (2, 3), 1], [(3, 2), 1, (5, 4)], [(1, 2), (2, 5), (3, 4)])


def test_pinned_vertex_lp1():
    # the answer is stored as ints over one scale, and its `Fraction`
    # assignment is built on first read, then kept
    prob = build_lp1(PINNED_LP1)
    sol = solve_lp1(PINNED_LP1)
    assert sol.value == F(4133, 1200)
    assert "assignment" not in vars(sol)
    assert sol.assignment is sol.assignment
    assert all(type(x) is F for x in sol.assignment.values())
    assert sol.assignment == _with_zeros(prob, {
        "u({1,2,3})": "1",
        "q1({1})": "1", "q2({2})": "1", "q3({3})": "1",
        "q1({1,2})": "1", "q2({1,2})": "1", "q3({1,2})": "4/5",
        "q1({1,3})": "1", "q2({1,3})": "1", "q3({1,3})": "1",
        "q1({2,3})": "2/3", "q2({2,3})": "1", "q3({2,3})": "1",
        "q1({1,2,3})": "1", "q2({1,2,3})": "1", "q3({1,2,3})": "1",
    })


def test_tall_program_reports_unbounded():
    # a tall program (24 columns, 48 "<=" rows with rhs >= 0) maximizing x23,
    # which only ever loosens a row, so nothing bounds it
    names = [f"x{j}" for j in range(24)]
    rows = []
    for k in range(48):
        coeffs = {names[k % 23]: ONE, names[(k + 1) % 23]: F(k % 3 + 1)}
        if k % 2 == 0:
            coeffs["x23"] = -ONE
        rows.append(Constraint(coeffs, "<=", F(k % 5)))
    prob = LPProblem(tuple(names), {"x23": ONE}, "max", tuple(rows))
    assert solve_lp(prob).status == "unbounded"


# its restricted program's first answer breaks a non-adjacent row
TWO_ROUND_LP1 = make_instance([8, 2, 3], [4, 10, 3], [(1, 2), (9, 10), (17, 20)])


def _compiled(prob):
    """The (ncols, rows, objective, upper) that `solve_lp` hands
    `_simplex_max` for ``prob``; the simplex does not run."""
    class Compiled(Exception):
        pass

    def stop(*args):
        raise Compiled(args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_simplex_max", stop)
        with pytest.raises(Compiled) as caught:
            solve_lp(prob)
    return caught.value.args[0]


def _pairs(n):
    """The ordered pairs of distinct types over n items, S-major, as
    `build_lp1` lists its truthfulness rows."""
    types = range(1 << n)
    return [(S, T) for S in types for T in types if S != T]


def _with_rows(inst, pairs):
    """`build_lp1(inst)` holding only the truthfulness rows of ``pairs``, in
    that order."""
    full = build_lp1(inst)
    row = dict(zip(_pairs(inst.n), full.constraints))
    return replace(full, constraints=[row[pair] for pair in pairs])


def _adjacent(n):
    """The pairs of types one item apart, in `build_lp1`'s order."""
    return [(S, T) for S, T in _pairs(n) if (S ^ T).bit_count() == 1]


def _held_at_one(prob, n):
    """The columns of ``prob``, a `build_lp1` program over n items, that
    hold q_i(S) for i in S, found by name."""
    column = {v: j for j, v in enumerate(prob.variables)}
    return frozenset([column[q_var(i, S)] for S in range(1 << n) for i in range(n) if S >> i & 1])


def _lp1_program(inst, pairs):
    """The `_simplex_max` arguments of a `solve_lp1` round that holds the
    truthfulness rows of ``pairs``: what `solve_lp` hands it for
    `_with_rows(inst, pairs)`, and the columns q_i(S), i in S, held at 1."""
    prob = _with_rows(inst, pairs)
    return _compiled(prob) + (_held_at_one(prob, inst.n),)


def _kernel_value(call):
    """c.x of a recorded `_simplex_max` call's answer."""
    (_, _, (objective, scale), *_), outcome = call
    return F(sum(map(mul, objective, outcome.colvals)), scale * outcome.colden)


def test_solve_lp1_adds_violated_rows(monkeypatch):
    calls = _recording_simplex(monkeypatch)
    sol = solve_lp1(TWO_ROUND_LP1)
    assert [_kernel_value(call) for call in calls] == [F(47809, 2000), F(239, 10)]
    assert sol.value == F(239, 10) == solve_lp(build_lp1(TWO_ROUND_LP1)).value
    # the second program is the first plus the rows of `build_lp1` that the
    # first answer breaks, by `Fraction` sums, in the program's order
    full = build_lp1(TWO_ROUND_LP1)
    adjacent = _adjacent(3)
    assert calls[0][0] == _lp1_program(TWO_ROUND_LP1, adjacent)
    first = calls[0][1]
    answer = {v: F(a, first.colden) for v, a in zip(full.variables, first.colvals)}
    broken = [pair for pair, con in zip(_pairs(3), full.constraints)
              if sum(c * answer[v] for v, c in con.coeffs.items()) < con.rhs]
    assert broken and set(broken).isdisjoint(adjacent)
    assert calls[1][0] == _lp1_program(TWO_ROUND_LP1, adjacent + broken)


# a general n=6 instance whose restricted program's answers break rows, so
# it takes more than one round (three today); the value is pinned, not the
# rounds, whose sizes depend on the vertices they reach
NAMED_N6 = make_instance([4, 10, 6, 5, 9, 7], [3, 1, 6, 8, 10, 9],
                         [(7, 10), (17, 20), (1, 4), (9, 10), (1, 4), (17, 20)])


def test_solve_lp1_reaches_a_multi_round_n6_optimum():
    assert solve_lp1(NAMED_N6).value == F(106681781, 1920000)


def test_solve_lp1_refuses_a_replay_that_breaks_a_held_row(monkeypatch):
    # without the check the same row would be added every round; (0, 1) is
    # adjacent, so the first program holds it
    calls = _recording_simplex(monkeypatch)
    monkeypatch.setattr(exactlp, "scaled_bic_violations", lambda D, M, ints: [(0, 1, -1)])
    with pytest.raises(VerificationError, match="truthfulness row the program holds"):
        solve_lp1(TWO_ROUND_LP1)
    assert len(calls) == 1


def test_lp1_oracle_never_reads_scaled_subset_probs(monkeypatch, tmp_path, capsys):
    # the oracle checks the closed form's revenue, so it must not share the
    # int p(S) table that `expected_revenue` and the greedy read
    def refuse(p):
        raise AssertionError("scaled_subset_probs called")

    importers = [module for name, module in sys.modules.items()
                 if name.startswith("optmech") and hasattr(module, "scaled_subset_probs")]
    assert {"optmech.core", "optmech.lattice", "optmech.mechanism"} <= {
        module.__name__ for module in importers}
    for module in importers:
        monkeypatch.setattr(module, "scaled_subset_probs", refuse)
    with pytest.raises(AssertionError, match="scaled_subset_probs called"):
        canonical_solution(to_lp2_params(PINNED_LP1))
    assert solve_lp1(PINNED_LP1).value == F(4133, 1200)
    assert len(build_lp1(PINNED_LP1).constraints) == 56
    instance = tmp_path / "inst.json"
    instance.write_text(instance_to_json(PINNED_LP1))
    assert main(["solve", str(instance), "--oracle-only"]) == 0
    assert "oracle optimal revenue: 4133/1200" in capsys.readouterr().out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solve_lp1_first_program_is_filtered_lp1(monkeypatch, n):
    # the row order fixes the pivots, and with them the pinned LP1 vertex
    rng = random.Random(n)
    inst = make_instance([rng.randint(0, 10) for _ in range(n)],
                         [rng.randint(1, 10) for _ in range(n)],
                         [(rng.randint(1, 19), 20) for _ in range(n)])
    calls = _recording_simplex(monkeypatch)
    solve_lp1(inst)
    assert calls[0][0] == _lp1_program(inst, _adjacent(n))


def test_lp1_layout_carries_no_state_between_instances(monkeypatch):
    # both instances have n = 3, so they share one cached layout; the second
    # adds non-adjacent rows in a second round
    calls = _recording_simplex(monkeypatch)
    first = solve_lp1(PINNED_LP1)
    start = len(calls)
    solve_lp1(TWO_ROUND_LP1)
    assert len(calls) - start == 2
    start = len(calls)
    again = solve_lp1(PINNED_LP1)
    assert (again.value, again.assignment) == (first.value, first.assignment)
    assert calls[start][0] == _lp1_program(PINNED_LP1, _adjacent(3))

    layout = exactlp._LP1Frame(PINNED_LP1).layout
    assert layout is exactlp._LP1Frame(TWO_ROUND_LP1).layout
    column = len(layout.variables) - 1
    with pytest.raises(TypeError):
        layout.upper[column] = (0, 1)
    with pytest.raises(TypeError):
        layout.adjacent[0] = (0, 3)
    with pytest.raises(TypeError):
        layout.q[1][0] = layout.variables[column]
    with pytest.raises(AttributeError):
        layout.fixed.add(8)
    with pytest.raises(TypeError):
        layout.items[3] = (0,)
    with pytest.raises(TypeError):
        layout.q_base[0] = 0
    assert layout.upper[column] == (1, 1) and (0, 3) not in layout.adjacent
    assert 8 not in layout.fixed and len(layout.fixed) == 12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lp1_holds_exactly_the_high_value_allocations_at_one(n):
    # q_i(S) for i in S, by name; at n = 1 the set is one column, q1({1}),
    # and `solve_lp1`'s first program there is held to this set too
    layout = exactlp._lp1_layout(n)
    names = {layout.variables[j] for j in layout.fixed}
    assert len(names) == len(layout.fixed) == n << (n - 1)
    assert names == {q_var(i, S) for S in range(1 << n) for i in range(n) if S >> i & 1}
    assert layout.fixed <= layout.upper.keys()


def test_solve_lp_holds_no_column_fixed(monkeypatch):
    # only `solve_lp1` holds columns at their bound; every program `solve_lp`
    # compiles, LP1's own included, keeps all its columns in the tableau
    calls = _recording_simplex(monkeypatch)
    assert solve_lp(build_lp1(PINNED_LP1)).value == F(4133, 1200)
    assert budgeted.budgeted_oracle_lp(budgeted.BudgetedInstance((1, 2, 4), 5, F(1, 9))) == F(61, 9)
    assert len(calls) == 2
    assert all(len(args) == 4 for args, _ in calls)
    solve_lp1(PINNED_LP1)
    assert len(calls[-1][0]) == 5 and calls[-1][0][4]


def test_simplex_reports_fixed_columns_at_their_bound():
    # x in [0, 1/2] is held at 1/2: the rows become y <= 3 - 1/2 and
    # 2y >= -4 + 1/2, each scaled by 2 to stay integral, and x is reported
    # at its bound; the optimum y = 5/2 has multiplier 1 on the first row
    # and 0 on the second; the values are ints over their least common
    # denominator, 2
    outcome = exactlp._simplex_max(
        2, [([1, 1, 3], "<=", 1), ([-1, 2, -4], ">=", 1)], ([2, 1], 1),
        {0: (1, 2), 1: (5, 1)}, {0})
    assert (outcome.colvals, outcome.colden) == ([1, 5], 2)
    assert [F(y, outcome.den) for y in outcome.duals] == [ONE, ZERO]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lp1_int_rows_match_solve_lps_compilation(n):
    # d_i with differing denominators, so each row's scale is the lcm of
    # the ones it reads; a_i = 0 gives zero objective coefficients
    rng = random.Random(f"int-rows:{n}")
    inst = make_instance([(rng.randint(0, 9), rng.randint(1, 6)) for _ in range(n)],
                         [(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(n)],
                         [(rng.randint(1, 19), 20) for _ in range(n)])
    ncols, rows, objective, upper = _compiled(build_lp1(inst))
    frame = exactlp._LP1Frame(inst)
    assert [frame.row(S, T) for S, T in _pairs(n)] == rows
    assert (frame.ncols, frame.objective, dict(frame.layout.upper)) == (ncols, objective, upper)


def test_pinned_vertex_budgeted_oracle(monkeypatch):
    # "=" rows need phase 1, and the free prices split into two columns
    solved = []

    def recording_solve(prob):
        solved.append((prob, solve_lp(prob)))
        return solved[-1][1]

    monkeypatch.setattr(budgeted, "solve_lp", recording_solve)
    inst = budgeted.BudgetedInstance((1, 2, 4), 5, F(1, 9))
    assert budgeted.budgeted_oracle_lp(inst) == F(61, 9)
    [(prob, sol)] = solved
    assert sol.assignment == _with_zeros(prob, {
        "za({1,2,3})": "1", "zb({1,3})": "1", "price_a": "7", "price_b": "5",
    })


def test_pinned_vertex_lp3():
    # "min" sense, ">=" balance rows with right-hand sides of both signs
    params = LP2Params(
        3, (F(2), F(3), F(5, 2)), F(6), (F(1), F(2), F(3, 2)), (F(1, 2), F(1, 3), F(3, 4))
    )
    prob = build_lp3(params)
    sol = solve_lp(prob)
    assert sol.value == F(7, 24)
    assert sol.assignment == _with_zeros(prob, {
        "f({1,2,3}>{1,2})": "1/24", "f({1,2,3}>{1,3})": "1/12", "f({1,2,3}>{2,3})": "1/16",
    })


def _tampered(shift=0, zero=False, dual=None, column=0, halve=False):
    """`_simplex_max` with ``column`` of its answer raised by ``shift``, or
    every column set to 0 if ``zero``, or every column halved by doubling
    the denominator of its ints if ``halve``, and its multipliers, ints over
    the denominator den, passed through ``dual(duals, den)``. The column
    values stay ints over one denominator, which a shift may raise."""
    solver = exactlp._simplex_max

    def run(*args):
        outcome = solver(*args)
        colvals, X = list(outcome.colvals), outcome.colden
        if zero:
            colvals = [0] * len(colvals)
        num, den = F(shift).as_integer_ratio()
        m = den // gcd(X, den)
        colvals, X = [a * m for a in colvals], X * m
        colvals[column] += num * (X // den)
        duals = dual(list(outcome.duals), outcome.den) if dual else outcome.duals
        return exactlp._SimplexOutcome(
            "optimal", colvals, 2 * X if halve else X, duals, outcome.den)
    return run


def _flip_first(duals, den):
    k = next(k for k, y in enumerate(duals) if y)
    duals[k] = -duals[k]
    return duals


def _raise_last(duals, den):
    duals[-1] += 1
    return duals


CERTIFIED = {
    "lp1": lambda: build_lp1(PINNED_LP1),
    "small": lambda: LPProblem(
        ("x", "y"), {"x": ONE, "y": ONE}, "max",
        (Constraint({"x": ONE, "y": F(2)}, "<=", F(4)), Constraint({"x": ONE}, "<=", F(2))),
    ),
}


@pytest.mark.parametrize("program", sorted(CERTIFIED))
def test_solve_lp_certifies_every_answer(monkeypatch, program):
    # a raised column 0 (u({}) in LP1, x in the small program) breaks a
    # constraint, and the all-zero answer is feasible but below the bound
    # y.b the true optimum's multipliers give
    prob = CERTIFIED[program]()
    for tamper, message in ((dict(shift=100), "violates constraint"), (dict(zero=True), "dual certificate")):
        with monkeypatch.context() as mp:
            mp.setattr(exactlp, "_simplex_max", _tampered(**tamper))
            with pytest.raises(VerificationError, match=message):
                solve_lp(prob)


@pytest.mark.parametrize("program", sorted(CERTIFIED))
@pytest.mark.parametrize("dual", [_flip_first, _raise_last])
def test_solve_lp_certifies_the_duals(monkeypatch, program, dual):
    # the answer is right and the multipliers are not: the first nonzero one
    # with the wrong sign for its inequality, or the last row's raised by one
    # unit of their common denominator: in LP1 that row is a truthfulness
    # row, ">=", whose multiplier 0 turns positive; in the small program it
    # is x <= 2, and the raise moves the bound y.b off the value
    prob = CERTIFIED[program]()
    assert solve_lp(prob).status == "optimal"
    monkeypatch.setattr(exactlp, "_simplex_max", _tampered(dual=dual))
    with pytest.raises(VerificationError, match="dual certificate"):
        solve_lp(prob)


@pytest.mark.parametrize("program", sorted(CERTIFIED))
def test_solve_lp_refuses_a_doubled_denominator(monkeypatch, program):
    # the same ints over twice the denominator halve every column: a
    # feasible point of each program, below its optimum
    prob = CERTIFIED[program]()
    monkeypatch.setattr(exactlp, "_simplex_max", _tampered(halve=True))
    with pytest.raises(VerificationError, match="dual certificate: bound"):
        solve_lp(prob)


@pytest.mark.parametrize("shift, bound", [(-100, "lower"), (100, "upper")])
def test_solve_lp_refuses_an_assignment_out_of_bounds(monkeypatch, shift, bound):
    # x in [1, 3] is column 0 and checked before any row: x - 100 breaks the
    # lower bound, x + 100 the upper bound
    prob = LPProblem(("x", "y"), {"x": ONE, "y": ONE}, "max",
                     (Constraint({"x": ONE, "y": ONE}, "<=", F(4)),),
                     lower={"x": ONE}, upper={"x": F(3)})
    assert solve_lp(prob).assignment == {"x": F(3), "y": ONE}
    monkeypatch.setattr(exactlp, "_simplex_max", _tampered(shift=shift))
    with pytest.raises(VerificationError, match=f"violates {bound} bound of x"):
        solve_lp(prob)


def test_solve_lp_proves_a_mixed_denominator_row_exactly(monkeypatch):
    # max y with y <= 2 leaves x/3 + y/4 <= 1 with slack 1/2, so x may rise
    # by exactly 3/2 to another optimum; one 1/1000 more breaks the row
    prob = LPProblem(("x", "y"), {"y": ONE}, "max",
                     (Constraint({"x": F(1, 3), "y": F(1, 4)}, "<=", ONE, name="mixed"),
                      Constraint({"y": ONE}, "<=", F(2), name="cap")))
    assert solve_lp(prob).assignment == {"x": ZERO, "y": F(2)}
    with monkeypatch.context() as mp:
        mp.setattr(exactlp, "_simplex_max", _tampered(shift=F(3, 2)))
        sol = solve_lp(prob)
    assert (sol.value, sol.assignment) == (F(2), {"x": F(3, 2), "y": F(2)})
    monkeypatch.setattr(exactlp, "_simplex_max", _tampered(shift=F(3, 2) + F(1, 1000)))
    message = "assignment violates constraint mixed: 3001/3000 <= 1"
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        solve_lp(prob)


# each program's column 0 belongs to a variable the row reads through its
# translation: the positive part of a free p, or z shifted by its bound 3/2
TRANSLATED = {
    "free above": (
        LPProblem(("p", "y"), {"p": ONE, "y": -ONE}, "max",
                  (Constraint({"p": F(2), "y": F(1, 3)}, "<=", F(5, 2), name="r"),),
                  lower={"p": None}),
        {"p": F(5, 4), "y": ZERO}, F(1, 12), "r: 8/3 <= 5/2",
    ),
    "free below": (
        LPProblem(("p",), {"p": -ONE}, "max",
                  (Constraint({"p": F(3, 4)}, ">=", F(-7, 4), name="r"),),
                  lower={"p": None}),
        {"p": F(-7, 3)}, F(-1, 6), "r: -15/8 >= -7/4",
    ),
    "shifted": (
        LPProblem(("z", "w"), {"z": ONE, "w": ONE}, "min",
                  (Constraint({"z": ONE, "w": F(1, 5)}, ">=", F(9, 4), name="s"),),
                  lower={"z": F(3, 2)}),
        {"z": F(9, 4), "w": ZERO}, F(-1, 20), "s: 11/5 >= 9/4",
    ),
}


@pytest.mark.parametrize("program", sorted(TRANSLATED))
def test_solve_lp_proves_rows_of_translated_variables(monkeypatch, program):
    prob, answer, shift, broken = TRANSLATED[program]
    sol = solve_lp(prob)
    assert (sol.status, sol.assignment) == ("optimal", answer)
    monkeypatch.setattr(exactlp, "_simplex_max", _tampered(shift=shift))
    message = f"assignment violates constraint {broken}"
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        solve_lp(prob)


# each tampered answer to PINNED_LP1 and the part of `solve_lp1`'s proof
# that refuses it: u({}) raised by 100 breaks the held row bic({1}|{}); the
# all-zero answer passes the replay but falls short of the dual bound; with
# the right answer, the first nonzero multiplier flipped has the wrong sign
# for its ">=" row, and the last one, -1/20, raised by one unit of their
# denominator, 1/600, keeps its sign but moves the bound y.b + w.ub;
# q2({1,3}), column 8 + 3 * 5 + 1 = 24, which the simplex solves for,
# raised from 1 to 3/2 breaks its bound; and q1({1}), column 8 + 3 = 11,
# which the simplex holds at 1, lowered to 1/2 passes the replay, but c.x
# falls by p({1})(a_1 + d_1)/2 = 3/40 below the dual bound, which prices
# that column's bound from the full rows
LP1_TAMPERS = {
    "shift": (dict(shift=100), "the replay breaks a truthfulness row the program holds"),
    "zero": (dict(zero=True), "dual certificate: bound 4133/1200 != value 0"),
    "flip first dual": (dict(dual=_flip_first),
                        "dual certificate: row 3 (>=) has multiplier 1/40"),
    "raise last dual": (dict(dual=_raise_last),
                        "dual certificate: bound 517/150 != value 4133/1200"),
    "q above 1": (dict(shift=F(1, 2), column=24), "assignment violates upper bound of q2({1,3})"),
    "fixed q below 1": (dict(shift=F(-1, 2), column=11),
                        "dual certificate: bound 4133/1200 != value 4043/1200"),
}


def test_solve_lp1_refuses_a_doubled_denominator(monkeypatch):
    # every LP1 row is homogeneous, so the halved answer keeps every bound
    # and passes the replay; its c.x is half the dual bound
    monkeypatch.setattr(exactlp, "_simplex_max", _tampered(halve=True))
    message = "dual certificate: bound 4133/1200 != value 4133/2400"
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        solve_lp1(PINNED_LP1)


@pytest.mark.parametrize("tamper", sorted(LP1_TAMPERS))
def test_solve_lp1_proves_every_answer(monkeypatch, tamper):
    kwargs, message = LP1_TAMPERS[tamper]
    layout = exactlp._lp1_layout(3)
    assert (layout.variables[24], layout.variables[11]) == ("q2({1,3})", "q1({1})")
    assert 24 not in layout.fixed and 11 in layout.fixed
    monkeypatch.setattr(exactlp, "_simplex_max", _tampered(**kwargs))
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        solve_lp1(PINNED_LP1)


# multipliers with the right signs that leave a column without an upper
# bound short of its objective coefficient: all zero fall short of x's and
# y's 1 in the small program; in LP1, whose q columns are bounded and priced,
# row 0, bic({}|{1}), weighed by -1 pushes u({})'s y.A = -1 below -p({})
UNCOVERING = {
    "lp1": lambda duals, den: [-den] + [0] * (len(duals) - 1),
    "small": lambda duals, den: [0] * len(duals),
}


@pytest.mark.parametrize("program", sorted(CERTIFIED))
def test_solve_lp_refuses_uncovered_columns(monkeypatch, program):
    prob = CERTIFIED[program]()
    monkeypatch.setattr(exactlp, "_simplex_max", _tampered(dual=UNCOVERING[program]))
    with pytest.raises(VerificationError, match=r"dual certificate: column \d+ is not covered"):
        solve_lp(prob)


# ---------------------------------------------------------------------------
# bounded columns: upper bounds stay bounds, never rows
# ---------------------------------------------------------------------------

def _recording_simplex(monkeypatch):
    """Each `_simplex_max` call's arguments (ncols, rows, objective, upper)
    and its outcome, in call order."""
    calls, solver = [], exactlp._simplex_max

    def run(*args):
        calls.append((args, solver(*args)))
        return calls[-1][1]
    monkeypatch.setattr(exactlp, "_simplex_max", run)
    return calls


def _explicit(prob):
    """``prob`` with every finite upper bound written as a "<=" row."""
    rows = [Constraint({v: ONE}, "<=", up, name=f"ub({v})")
            for v, up in prob.upper.items() if up is not None]
    return replace(prob, constraints=prob.constraints + tuple(rows), upper={})


# name: the program, its answer and the bounds of its internal columns;
# each comment gives the steps that reach the answer
BOUNDED = {
    # x enters first; its own bound 1 comes before the row's ratio 3, so it
    # flips to its bound without a pivot, and then y enters the basis at 2
    "flip": (
        LPProblem(("x", "y"), {"x": F(2), "y": ONE}, "max",
                  (Constraint({"x": ONE, "y": ONE}, "<=", F(3)),), upper={"x": ONE, "y": F(5)}),
        {"x": ONE, "y": F(2)}, {0: (1, 1), 1: (5, 1)},
    ),
    # y enters at 0 on the row y - x <= 0 and stays basic as y = x - s;
    # then x enters, y rises with it and reaches its bound 1/2 before x
    # reaches 1: y leaves at its bound, on a negative pivot entry
    "leaves at bound": (
        LPProblem(("x", "y"), {"y": ONE}, "max",
                  (Constraint({"y": ONE, "x": -ONE}, "<=", ZERO),), upper={"x": ONE, "y": F(1, 2)}),
        {"x": F(1, 2), "y": F(1, 2)}, {0: (1, 1), 1: (1, 2)},
    ),
    # x flips to 3/7, which scales the row by 7 to keep it integral; y
    # then enters at 8/21, below its own bound 3/7
    "rational bound": (
        LPProblem(("x", "y"), {"x": ONE, "y": ONE}, "max",
                  (Constraint({"x": F(2), "y": F(3)}, "<=", F(2)),),
                  upper={"x": F(3, 7), "y": F(3, 7)}),
        {"x": F(3, 7), "y": F(8, 21)}, {0: (3, 7), 1: (3, 7)},
    ),
    # p is free below and at most 5/2: one column p' = 5/2 - p >= 0 with no
    # bound of its own, not a split pair; z in [-1, 4] is z' in [0, 5]; p'
    # enters and runs p down to the row
    "free below": (
        LPProblem(("p", "z"), {"p": ONE, "z": ONE}, "min",
                  (Constraint({"p": ONE, "z": F(1, 2)}, ">=", F(-3)),),
                  lower={"p": None, "z": F(-1)}, upper={"p": F(5, 2), "z": F(4)}),
        {"p": F(-5, 2), "z": F(-1)}, {1: (5, 1)},
    ),
}


@pytest.mark.parametrize("program", sorted(BOUNDED))
def test_bounded_columns_reach_the_explicit_optimum(monkeypatch, program):
    prob, answer, bounds = BOUNDED[program]
    calls = _recording_simplex(monkeypatch)
    sol = solve_lp(prob)
    assert (sol.status, sol.assignment) == ("optimal", answer)
    # one column per variable, one row per constraint: no bound became a row
    [((ncols, rows, _, upper), _)] = calls
    assert (ncols, len(rows), upper) == (len(prob.variables), len(prob.constraints), bounds)
    assert solve_lp(_explicit(prob)).value == sol.value


def test_simplex_flips_and_leaves_at_bounds():
    # the pinned programs in `_simplex_max`'s own terms: column values, and
    # row multipliers over den; the bounds are priced by `_check_duals`
    flip = exactlp._simplex_max(2, [([1, 1, 3], "<=", 1)], ([2, 1], 1), {0: (1, 1), 1: (5, 1)})
    assert (flip.colvals, flip.colden) == ([1, 2], 1)
    assert [F(y, flip.den) for y in flip.duals] == [ONE]
    at_bound = exactlp._simplex_max(2, [([-1, 1, 0], "<=", 1)], ([0, 1], 1), {0: (1, 1), 1: (1, 2)})
    assert (at_bound.colvals, at_bound.colden) == ([1, 1], 2)
    assert [F(y, at_bound.den) for y in at_bound.duals] == [ZERO]


def test_solve_lp_refuses_a_bound_below_its_lower_bound(monkeypatch):
    def no_simplex(*args):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(exactlp, "_simplex_max", no_simplex)
    for low, up in ((F(2), F(1)), (F(-1, 3), F(-1, 2)), (3, 2)):
        prob = LPProblem(("x", "y"), {"x": ONE}, "max", (Constraint({"y": ONE}, "<=", ONE),),
                         lower={"x": low}, upper={"x": up})
        assert solve_lp(prob) == exactlp.LPSolution("infeasible", None)


def test_solve_lp_prices_the_bounds(monkeypatch):
    # LP1's q columns are bounded by 1 and their objective coefficients are
    # positive; a certificate that does not price the bounds leaves them
    # uncovered
    prob = build_lp1(PINNED_LP1)
    assert solve_lp(prob).value == F(4133, 1200)
    check = exactlp._check_duals

    def unpriced(rows, objective, upper, outcome, value):
        check(rows, objective, {}, outcome, value)
    monkeypatch.setattr(exactlp, "_check_duals", unpriced)
    with pytest.raises(VerificationError, match=r"dual certificate: column \d+ is not covered"):
        solve_lp(prob)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _count(prob, prefix):
    return sum(1 for c in prob.constraints if c.name.startswith(prefix))


def test_build_lp1_counts():
    inst1 = make_instance([1], [1], [(1, 2)])
    prob = build_lp1(inst1)
    assert sum(1 for v in prob.variables if v.startswith("u")) == 2
    assert sum(1 for v in prob.variables if v.startswith("q")) == 2
    assert _count(prob, "bic") == 2
    assert _count(prob, "ir") == 0
    # IR is the default lower bound u >= 0, not a row
    assert all(prob.lower.get(v, ZERO) == 0 for v in prob.variables if v.startswith("u"))

    prob = build_lp1(make_instance([1, 1], [1, 1], [(1, 2), (1, 2)]))
    assert sum(1 for v in prob.variables if v.startswith("u")) == 4
    assert sum(1 for v in prob.variables if v.startswith("q")) == 8
    assert _count(prob, "bic") == 12
    assert _count(prob, "ir") == 0
    assert all(prob.lower.get(v, ZERO) == 0 for v in prob.variables if v.startswith("u"))


def test_lp1_uniform_optimum():
    inst = make_instance([1, 1], [1, 1], [(1, 2), (1, 2)])
    sol = solve_lp(build_lp1(inst))
    assert sol.status == "optimal"
    assert sol.value == F(9, 4)


def test_lp1_guard():
    for n in (9, 7):
        inst = make_instance([1] * n, [1] * n, [(1, 2)] * n)
        for build in (build_lp1, solve_lp1):
            with pytest.raises(PreconditionError, match="full-program enumeration guard 6"):
                build(inst)


PARAMS_A = LP2Params(2, (F(2), F(3)), F(9, 2), (F(1), F(2)), (F(1, 2), F(1, 2)))
PARAMS_B = LP2Params(2, (F(4), F(2)), F(5), (F(1), F(2)), (F(1, 2), F(1, 2)))


def test_build_lp2_counts_and_optimum():
    prob = build_lp2(PARAMS_A)
    assert len(prob.variables) == 4
    assert _count(prob, "bic2") == 4
    assert solve_lp(prob).value == F(1, 8)
    assert solve_lp(build_lp2(PARAMS_B)).value == F(1, 4)


def test_build_lp3_counts_and_duality():
    prob = build_lp3(PARAMS_A)
    assert len(prob.variables) == 4
    assert _count(prob, "balance") == 4
    assert solve_lp(prob).value == F(1, 8)  # equals the primal optimum exactly

    infeasible = LP2Params(2, (F(2), F(2)), F(1), (F(1), F(1)), (F(1, 2), F(1, 2)))
    assert solve_lp(build_lp3(infeasible)).status == "infeasible"


def test_lp2_lp3_strong_duality_randomized():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 4)
        x = tuple(F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(n))
        d = tuple(F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(n))
        p = tuple(F(rng.randint(1, 11), 12) for _ in range(n))
        total = sum(x)
        expected = sum(pi * xi for pi, xi in zip(p, x))
        # any B >= sum(p x) keeps both programs feasible
        B = expected + F(rng.randint(0, 5), 3)
        if B <= 0:
            continue
        params = LP2Params(n, x, B, d, p)
        primal = solve_lp(build_lp2(params))
        dual = solve_lp(build_lp3(params))
        assert primal.status == "optimal" and dual.status == "optimal"
        assert primal.value == dual.value


def test_redundant_equality_row_dropped_with_zero_dual():
    # 2x + 2y = 2 repeats x + y = 1: its artificial stays basic at 0 on an
    # all-zero row after phase 1, so the row is dropped and its dual is 0
    prob = LPProblem(
        variables=("x", "y"),
        objective={"x": ONE},
        sense="max",
        constraints=(Constraint({"x": ONE, "y": ONE}, "=", ONE),
                     Constraint({"x": F(2), "y": F(2)}, "=", F(2))),
    )
    sol = solve_lp(prob)
    assert (sol.status, sol.value, sol.assignment) == ("optimal", 1, {"x": ONE, "y": ZERO})
    outcome = exactlp._simplex_max(2, [([1, 1, 1], "=", 1), ([2, 2, 2], "=", 1)], ([1, 0], 1), {})
    assert (outcome.status, outcome.colvals, outcome.colden) == ("optimal", [1, 0], 1)
    assert [F(y, outcome.den) for y in outcome.duals] == [ONE, ZERO]


# ---------------------------------------------------------------------------
# uniqueness probe
# ---------------------------------------------------------------------------

def test_unique_optimum_trivial():
    prob = LPProblem(
        variables=("x",),
        objective={"x": ONE},
        sense="max",
        constraints=(Constraint({"x": ONE}, "<=", ONE),),
    )
    sol = solve_lp(prob)
    assert unique_optimum(prob, sol) is True


def test_unique_optimum_edge_of_optima():
    prob = LPProblem(
        variables=("x", "y"),
        objective={"x": ONE, "y": ONE},
        sense="max",
        constraints=(Constraint({"x": ONE, "y": ONE}, "<=", ONE),),
    )
    sol = solve_lp(prob)
    assert unique_optimum(prob, sol) is False


def test_unique_optimum_unbounded_face():
    # y does not enter the objective and nothing bounds it above, so
    # maximizing y over the optimal face x = 1 is unbounded
    prob = LPProblem(
        variables=("x", "y"),
        objective={"x": ONE},
        sense="max",
        constraints=(Constraint({"x": ONE}, "<=", ONE),),
    )
    sol = solve_lp(prob)
    assert sol.value == 1
    assert solve_lp(LPProblem(prob.variables, {"y": ONE}, "max", prob.constraints)).status == "unbounded"
    assert unique_optimum(prob, sol) is False


def test_unique_optimum_relaxed_program():
    prob = build_lp2(PARAMS_A)
    sol = solve_lp(prob)
    assert unique_optimum(prob, sol) is True
    # sanity: the unique optimum is the closed-form utility
    assert sol.assignment[u_var(0b11)] == 1  # type {1,2}


def test_unique_optimum_requires_optimal():
    prob = LPProblem(
        variables=("x",),
        objective={"x": ONE},
        sense="max",
        constraints=(Constraint({"x": ONE}, ">=", ONE), Constraint({"x": ONE}, "<=", ZERO)),
    )
    sol = solve_lp(prob)
    with pytest.raises(PreconditionError):
        unique_optimum(prob, sol)


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------

def test_dump_problem_lists_every_constraint():
    prob = build_lp2(PARAMS_A)
    text = dump_problem(prob)
    assert "sense: max" in text
    for con in prob.constraints:
        assert con.name in text
    assert text.count("bic2") == 4


def test_names_number_items_from_one():
    # item indices are 0-based; every name prints them 1-based
    assert q_var(0, 0b01) == "q1({1})"
    assert edge_var(0b01, 1) == "f({1,2}>{1})"
    assert dump_problem(build_lp2(PARAMS_A)) == """\
sense: max
objective: -9/8 u({}) + -5/8 u({1}) + -3/8 u({2}) + 1/8 u({1,2})
subject to:
  bic2({}|1): 1 u({1}) + -1 u({}) <= 1
  bic2({}|2): 1 u({2}) + -1 u({}) <= 2
  bic2({1}|2): 1 u({1,2}) + -1 u({1}) <= 2
  bic2({2}|1): 1 u({1,2}) + -1 u({2}) <= 1
bounds:
  0 <= u({}) <= +inf
  0 <= u({1}) <= +inf
  0 <= u({2}) <= +inf
  0 <= u({1,2}) <= +inf
"""
    assert dump_problem(build_lp3(PARAMS_A)) == """\
sense: min
objective: 1 f({1}>{}) + 2 f({2}>{}) + 2 f({1,2}>{1}) + 1 f({1,2}>{2})
subject to:
  balance({}): -1 f({1}>{}) + -1 f({2}>{}) >= -9/8
  balance({1}): -1 f({1,2}>{1}) + 1 f({1}>{}) >= -5/8
  balance({2}): -1 f({1,2}>{2}) + 1 f({2}>{}) >= -3/8
  balance({1,2}): 1 f({1,2}>{2}) + 1 f({1,2}>{1}) >= 1/8
bounds:
  0 <= f({1}>{}) <= +inf
  0 <= f({2}>{}) <= +inf
  0 <= f({1,2}>{1}) <= +inf
  0 <= f({1,2}>{2}) <= +inf
"""


def test_lp2_lp3_strong_duality_n6():
    rng = random.Random(6)
    for _ in range(3):
        n = 6
        x = tuple(F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(n))
        d = tuple(F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(n))
        p = tuple(F(rng.randint(1, 11), 12) for _ in range(n))
        B = sum(pi * xi for pi, xi in zip(p, x)) + F(rng.randint(1, 5), 3)
        params = LP2Params(n, x, B, d, p)
        assert solve_lp(build_lp2(params)).value == solve_lp(build_lp3(params)).value


def test_lp2_lp3_guard():
    for n in (15, 12):
        params = LP2Params(n, (F(1),) * n, F(100), (F(1),) * n, (F(1, 2),) * n)
        with pytest.raises(PreconditionError, match="enumeration guard 11"):
            build_lp2(params)
        with pytest.raises(PreconditionError, match="enumeration guard 11"):
            build_lp3(params)


def test_lexrank_oracle_guard():
    from optmech import lexrank_oracle

    with pytest.raises(PreconditionError):
        lexrank_oracle(tuple(range(1, 24)), 0b1)  # S = {1}


def test_fraction_backend_fallback():
    # the tableau runs on ints, the interface on Fraction: an exact optimum
    # comes back as Fractions
    inst = make_instance([1, 1], [1, 2], [(1, 2), (1, 2)])
    sol = solve_lp(build_lp1(inst))
    assert sol.status == "optimal"
    assert sol.value == F(21, 8)
    assert all(isinstance(v, F) for v in sol.assignment.values())
