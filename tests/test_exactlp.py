import random
from fractions import Fraction as F
from itertools import combinations

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
    dump_problem,
    solve_lp,
    u_var,
    unique_optimum,
)
from optmech import budgeted, exactlp
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

    # an upper bound below a nonzero lower bound: phase 1 finds no point
    prob = LPProblem(("x",), {"x": ONE}, "max", (), lower={"x": F(2)}, upper={"x": F(1)})
    assert solve_lp(prob).status == "infeasible"

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
    for change in (
        dict(objective={"x": 0.5}),
        dict(constraints=(Constraint({"x": 0.5}, "<=", ONE),)),
        dict(constraints=(Constraint({"x": ONE}, "<=", 1.5),)),
        dict(lower={"x": -1.0}),
        dict(upper={"x": 2.0}),
    ):
        with pytest.raises(InputError, match="expected an int or Fraction"):
            LPProblem(**base | change)
    # ints are exact
    assert solve_lp(LPProblem(**base | dict(upper={"x": 2}))).value == 2


# ---------------------------------------------------------------------------
# pinned vertices: Bland's rule makes the optimal vertex part of the contract
# ---------------------------------------------------------------------------

def _with_zeros(prob, nonzero):
    expected = dict.fromkeys(prob.variables, ZERO)
    expected.update((v, F(x)) for v, x in nonzero.items())
    return expected


# single-positive n=3 instance whose LP1 is tall enough for the dual detour
PINNED_LP1 = make_instance([(1, 2), (2, 3), 1], [(3, 2), 1, (5, 4)], [(1, 2), (2, 5), (3, 4)])


def test_pinned_vertex_lp1_dual_detour(monkeypatch):
    # the detour reads the primal off the transpose's duals
    detour, answers = exactlp._try_dual_detour, []

    def recording_detour(*args):
        answers.append(detour(*args))
        return answers[-1]

    monkeypatch.setattr(exactlp, "_try_dual_detour", recording_detour)
    prob = build_lp1(PINNED_LP1)
    sol = solve_lp(prob)
    [answer] = answers
    assert answer is not None  # the detour answered, not the primal path
    assert sol.value == F(4133, 1200)
    assert sol.assignment == _with_zeros(prob, {
        "u({1,2,3})": "1",
        "q1({1})": "1", "q2({2})": "1", "q3({3})": "1",
        "q1({1,2})": "1", "q2({1,2})": "1", "q3({1,2})": "4/5",
        "q1({1,3})": "1", "q2({1,3})": "1", "q3({1,3})": "1",
        "q1({2,3})": "2/3", "q2({2,3})": "1", "q3({2,3})": "1",
        "q1({1,2,3})": "1", "q2({1,2,3})": "1", "q3({1,2,3})": "1",
    })


def test_dual_detour_reports_unbounded(monkeypatch):
    # a tall program (24 columns, 48 "<=" rows with rhs >= 0) maximizing x23,
    # which only ever loosens a row: the transpose's x23 row cannot be met,
    # so the detour answers that the primal is unbounded
    detour, answers = exactlp._try_dual_detour, []

    def recording_detour(*args):
        answers.append(detour(*args))
        return answers[-1]

    monkeypatch.setattr(exactlp, "_try_dual_detour", recording_detour)
    names = [f"x{j}" for j in range(24)]
    rows = []
    for k in range(48):
        coeffs = {names[k % 23]: ONE, names[(k + 1) % 23]: F(k % 3 + 1)}
        if k % 2 == 0:
            coeffs["x23"] = -ONE
        rows.append(Constraint(coeffs, "<=", F(k % 5)))
    prob = LPProblem(tuple(names), {"x23": ONE}, "max", tuple(rows))
    assert solve_lp(prob).status == "unbounded"
    [answer] = answers
    assert answer is not None and answer.status == "unbounded"  # the detour answered


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


def _tampered(solver, shift=0, bump=0):
    """``solver`` with column 0 of its answer raised by ``shift`` and the
    value recomputed from the columns, then raised by ``bump``."""
    def run(ncols, rows, objective):
        colvals = dict(solver(ncols, rows, objective).colvals)
        colvals[0] = colvals.get(0, ZERO) + shift
        ints, scale = objective
        value = sum((ints[j] * x for j, x in colvals.items()), ZERO) / scale + bump
        return exactlp._SimplexOutcome("optimal", colvals, value)
    return run


@pytest.mark.parametrize("solver", ["_try_dual_detour", "_simplex_max"])
def test_solve_lp_certifies_every_answer(monkeypatch, solver):
    # the post-hoc checks are the only certificate of either path: a raised
    # column 0 (u({}) in LP1, x in the small program) breaks a constraint
    # while the value still matches, and a raised value breaks the match
    prob = build_lp1(PINNED_LP1) if solver == "_try_dual_detour" else LPProblem(
        ("x", "y"), {"x": ONE, "y": ONE}, "max",
        (Constraint({"x": ONE, "y": F(2)}, "<=", F(4)), Constraint({"x": ONE}, "<=", F(2))),
    )
    original = getattr(exactlp, solver)
    for tamper, message in ((dict(shift=100), "violates constraint"), (dict(bump=1), "does not match")):
        monkeypatch.setattr(exactlp, solver, _tampered(original, **tamper))
        with pytest.raises(VerificationError, match=message):
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
    assert _count(prob, "ir") == 2

    prob = build_lp1(make_instance([1, 1], [1, 1], [(1, 2), (1, 2)]))
    assert sum(1 for v in prob.variables if v.startswith("u")) == 4
    assert sum(1 for v in prob.variables if v.startswith("q")) == 8
    assert _count(prob, "bic") == 12
    assert _count(prob, "ir") == 4


def test_lp1_uniform_optimum():
    inst = make_instance([1, 1], [1, 1], [(1, 2), (1, 2)])
    sol = solve_lp(build_lp1(inst))
    assert sol.status == "optimal"
    assert sol.value == F(9, 4)


def test_lp1_guard():
    for n in (9, 6):
        inst = make_instance([1] * n, [1] * n, [(1, 2)] * n)
        with pytest.raises(PreconditionError, match="full-program enumeration guard 5"):
            build_lp1(inst)


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
    outcome = exactlp._simplex_max(2, [([1, 1, 1], "=", 1), ([2, 2, 2], "=", 1)], ([1, 0], 1))
    assert (outcome.status, outcome.colvals, outcome.value) == ("optimal", {0: ONE}, ONE)
    assert outcome.duals == [ONE, ZERO]


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
    for n in (15, 13):
        params = LP2Params(n, (F(1),) * n, F(100), (F(1),) * n, (F(1, 2),) * n)
        with pytest.raises(PreconditionError, match="enumeration guard 12"):
            build_lp2(params)
        with pytest.raises(PreconditionError, match="enumeration guard 12"):
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
