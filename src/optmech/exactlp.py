"""Exact rational linear programming, plus builders for the three programs.

The solver is a dense two-phase tableau simplex over exact rationals with the
smallest-index (Bland) anti-cycling pivot rule, so it terminates and is fully
deterministic: identical problems yield identical optimal assignments. Every
optimal answer is re-checked post hoc against the original constraints, so a
reported optimum is exact by construction.

The tableau holds `fractions.Fraction` entries, the same type as the public
interface, so no value is converted on the way in or out.

The three builders produce, for a given instance / parameter vector:

  * ``build_lp1`` -- the full revenue program: utilities u(S) and allocation
    marginals q_i(S) with truthfulness rows for every ordered pair of types;
  * ``build_lp2`` -- the relaxed program over u alone, with one row per
    adjacent pair u(S+{i}) - u(S) <= d_i;
  * ``build_lp3`` -- the dual of the relaxed program: a min-cost flow on the
    subset lattice with one balance row per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .core import (
    LP2Params,
    OMDInstance,
    Subset,
    ZERO,
    ONE,
    format_rational,
    item_range,
    subset_label,
    subset_probs,
    type_vectors,
)
from .errors import InputError, PreconditionError, VerificationError
from .lattice import node_balances

# Enumeration guards: constraint counts grow as 4^n (full program) / 2^n
# (relaxed program and its dual). Overridable per call with force=True. The
# full program's guard admits only sizes whose solve ends within a minute:
# one LP1 solve takes 3-11 s at n=5 and about 750 s at n=6 (2-vCPU machine).
LP1_GUARD = 5
LP23_GUARD = 14

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RELS = ("<=", "=", ">=")


# ---------------------------------------------------------------------------
# Problem model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    """A single linear row: sum(coeffs[v] * v) REL rhs."""

    coeffs: Mapping[str, Fraction]
    rel: str
    rhs: Fraction
    name: str = ""

    def __post_init__(self):
        if self.rel not in _RELS:
            raise InputError(f"constraint {self.name!r}: invalid relation {self.rel!r}")


@dataclass(frozen=True)
class LPProblem:
    """A finite LP over named variables.

    Bounds: a variable absent from ``lower`` has lower bound 0; an explicit
    ``None`` makes it free. A variable absent from ``upper`` (or mapped to
    ``None``) has no upper bound.
    """

    variables: tuple[str, ...]
    objective: Mapping[str, Fraction]
    sense: str
    constraints: tuple[Constraint, ...]
    lower: Mapping[str, Fraction | None] = field(default_factory=dict)
    upper: Mapping[str, Fraction | None] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.sense not in ("max", "min"):
            raise InputError(f"sense: expected 'max' or 'min', got {self.sense!r}")
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise InputError("variables: duplicate names")
        for v in self.objective:
            if v not in declared:
                raise InputError(f"objective references undeclared variable {v!r}")
        for con in self.constraints:
            for v in con.coeffs:
                if v not in declared:
                    raise InputError(
                        f"constraint {con.name!r} references undeclared variable {v!r}"
                    )
        for bound in (self.lower, self.upper):
            for v in bound:
                if v not in declared:
                    raise InputError(f"bound references undeclared variable {v!r}")


@dataclass(frozen=True)
class LPSolution:
    status: str
    value: Fraction | None
    assignment: dict[str, Fraction]


# ---------------------------------------------------------------------------
# Simplex core
# ---------------------------------------------------------------------------
#
# `_simplex_max` solves  max c.x  over rows {<=, =, >=} with x >= 0 by the
# two-phase dense tableau method, Bland's smallest-index rule throughout.
# It reports, besides the optimal column values, the dual multiplier of every
# input row, which lets `solve_lp` run a certified dual detour: a tall
# program whose rows are all inequalities is solved through its transpose
# (one row per original column), the primal assignment is read off the dual
# multipliers, and the result is accepted only after an exact feasibility
# and objective-value certificate against the original data.


class _SimplexOutcome:
    __slots__ = ("status", "colvals", "value", "duals")

    def __init__(self, status, colvals=None, value=None, duals=None):
        self.status = status
        self.colvals = colvals
        self.value = value
        self.duals = duals


def _simplex_max(ncols, rows, objective):
    """Maximize objective . x subject to the given rows, x >= 0.

    ``rows``: list of (dense coeffs, rel, rhs).
    ``objective``: dense list of length ncols.
    Returns a _SimplexOutcome whose ``duals`` align with the input rows.
    """
    # canonicalize: slack rows are "<=" with rhs >= 0, everything else gets
    # an artificial variable; a sign flip negates the reported dual
    canon = []
    for coeffs, rel, rhs in rows:
        flipped = False
        if rel == ">=":
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            rel = "<="
            flipped = True
        if rel == "<=" and rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            rel = ">=+"
            flipped = not flipped
        elif rel == "=" and rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            flipped = not flipped
        canon.append((coeffs, rel, rhs, flipped))

    nslack = sum(1 for _, rel, _, _ in canon if rel in ("<=", ">=+"))
    nart = sum(1 for _, rel, _, _ in canon if rel in ("=", ">=+"))
    width = ncols + nslack + nart + 1
    total = width - 1
    si = ncols
    ai = ncols + nslack
    T = []
    basis = []
    art_cols = set()
    assoc = []      # per input row: its slack or artificial column
    alive = []      # per input row: tableau row index, or None once dropped
    for coeffs, rel, rhs, _ in canon:
        row = list(coeffs) + [ZERO] * (nslack + nart) + [rhs]
        if rel == "<=":
            row[si] = ONE
            basis.append(si)
            assoc.append(si)
            si += 1
        elif rel == ">=+":
            row[si] = -ONE
            si += 1
            row[ai] = ONE
            art_cols.add(ai)
            basis.append(ai)
            assoc.append(ai)
            ai += 1
        else:  # "="
            row[ai] = ONE
            art_cols.add(ai)
            basis.append(ai)
            assoc.append(ai)
            ai += 1
        alive.append(len(T))
        T.append(row)

    def pivot(r, c, cost):
        prow = T[r]
        pv = prow[c]
        if pv != 1:
            inv = 1 / pv
            T[r] = prow = [v * inv if v else v for v in prow]
        nz = [j for j, v in enumerate(prow) if v]
        for row in T:
            if row is prow:
                continue
            f = row[c]
            if f:
                for j in nz:
                    row[j] = row[j] - f * prow[j]
        f = cost[c]
        if f:
            for j in nz:
                cost[j] = cost[j] - f * prow[j]
        basis[r] = c

    def run(cost, enterable):
        # Bland: entering = smallest eligible positive reduced cost;
        # leaving = min ratio with ties to the smallest basic index
        while True:
            enter = -1
            for j in range(total):
                if enterable[j] and cost[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best = None
            for i in range(len(T)):
                coeff = T[i][enter]
                if coeff > 0:
                    ratio = T[i][-1] / coeff
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            pivot(leave, enter, cost)

    if art_cols:
        cost = [ZERO] * width
        for i in range(len(T)):
            if basis[i] in art_cols:
                row = T[i]
                for j in range(width):
                    if row[j]:
                        cost[j] = cost[j] + row[j]
        for c in art_cols:
            cost[c] = ZERO
        if run(cost, [True] * total) == UNBOUNDED:
            raise VerificationError("phase-1 objective cannot be unbounded")
        if cost[-1] != 0:
            return _SimplexOutcome(INFEASIBLE)
        # pivot leftover artificials out; all-zero rows are redundant
        drop = []
        for i in range(len(T)):
            if basis[i] in art_cols:
                row = T[i]
                for j in range(total):
                    if j not in art_cols and row[j]:
                        pivot(i, j, cost)
                        break
                else:
                    drop.append(i)
        if drop:
            dropped = set(drop)
            for i in reversed(drop):
                del T[i]
                del basis[i]
            # only the liveness of a row matters downstream: a dropped row is
            # redundant and carries a zero dual
            for k, idx in enumerate(alive):
                alive[k] = None if idx in dropped else idx

    cost = [ZERO] * width
    for j in range(ncols):
        if objective[j]:
            cost[j] = objective[j]
    for i in range(len(T)):
        b = basis[i]
        f = cost[b]
        if f:
            row = T[i]
            for j in range(width):
                if row[j]:
                    cost[j] = cost[j] - f * row[j]
    enterable = [j not in art_cols for j in range(total)]
    status = run(cost, enterable)
    if status == UNBOUNDED:
        return _SimplexOutcome(UNBOUNDED)

    colvals = {}
    for i in range(len(T)):
        if basis[i] < ncols:
            colvals[basis[i]] = T[i][-1]
    duals = []
    for k, (_, _, _, flipped) in enumerate(canon):
        if alive[k] is None:
            duals.append(ZERO)
            continue
        mu = -cost[assoc[k]]
        duals.append(-mu if flipped else mu)
    return _SimplexOutcome(OPTIMAL, colvals, -cost[-1], duals)


# A program qualifies for the dual detour when its rows are inequalities in
# sink form (so x = 0 is feasible and the transpose is bounded) and it is
# tall enough for the transpose to be worth it.
_DUAL_DETOUR_MIN_COLS = 24
_DUAL_DETOUR_RATIO = 2


def _try_dual_detour(ncols, rows, objective):
    if ncols < _DUAL_DETOUR_MIN_COLS or len(rows) < _DUAL_DETOUR_RATIO * ncols:
        return None
    sink_rows = []
    for coeffs, rel, rhs in rows:
        if rel == "<=" and rhs >= 0:
            sink_rows.append((coeffs, rhs))
        elif rel == ">=" and rhs <= 0:
            sink_rows.append(([-v for v in coeffs], -rhs))
        else:
            return None
    m = len(sink_rows)
    transpose_rows = [
        ([sink_rows[i][0][j] for i in range(m)], ">=", objective[j])
        for j in range(ncols)
    ]
    dual_objective = [-b for _, b in sink_rows]
    outcome = _simplex_max(m, transpose_rows, dual_objective)
    if outcome.status == INFEASIBLE:
        return _SimplexOutcome(UNBOUNDED)
    if outcome.status != OPTIMAL:
        return None
    value = -outcome.value
    # one transpose row per original column; with rows passed in >= form to
    # an internally maximized program, the recovered primal is -1 times the
    # reported multiplier
    assignment = [-v for v in outcome.duals]
    # exact certificate: primal feasible and attains the transpose optimum
    if any(x < 0 for x in assignment):
        return None
    for coeffs, b in sink_rows:
        lhs = ZERO
        for j in range(ncols):
            x = assignment[j]
            if x and coeffs[j]:
                lhs = lhs + coeffs[j] * x
        if lhs > b:
            return None
    attained = ZERO
    for j in range(ncols):
        if assignment[j] and objective[j]:
            attained = attained + objective[j] * assignment[j]
    if attained != value:
        return None
    colvals = {j: assignment[j] for j in range(ncols) if assignment[j]}
    return _SimplexOutcome(OPTIMAL, colvals, value, None)


def solve_lp(prob: LPProblem) -> LPSolution:
    """Solve exactly. Infeasibility and unboundedness are reported via the
    solution status, never raised."""
    # --- translate variables to nonnegative internal columns
    kinds = []  # per declared var: ("shift", col, L) | ("split", cpos, cneg)
    ncols = 0
    for v in prob.variables:
        low = prob.lower.get(v, ZERO)
        if low is None:
            kinds.append(("split", ncols, ncols + 1))
            ncols += 2
        else:
            kinds.append(("shift", ncols, low))
            ncols += 1
    kind_of = dict(zip(prob.variables, kinds))

    def dense(coeffs: Mapping[str, Fraction], rhs: Fraction):
        """One row over the internal columns; the constant that the lower
        bound shifts contribute is moved into the returned right-hand side."""
        row = [ZERO] * ncols
        shift = ZERO
        for v, c in coeffs.items():
            if not c:
                continue
            kind = kind_of[v]
            row[kind[1]] = row[kind[1]] + c
            if kind[0] == "split":
                row[kind[2]] = row[kind[2]] - c
            elif kind[2]:
                shift += c * kind[2]
        return row, rhs - shift

    rows = []
    for con in prob.constraints:
        row, rhs = dense(con.coeffs, con.rhs)
        rows.append((row, con.rel, rhs))
    # upper bounds become "<=" rows; one below its lower bound has a negative
    # right-hand side, which phase 1 reports as infeasible
    for v in prob.variables:
        up = prob.upper.get(v)
        if up is not None:
            row, rhs = dense({v: ONE}, up)
            rows.append((row, "<=", rhs))

    # --- internal objective, always maximized; the returned right-hand side
    # is minus the constant the lower bounds add to the objective
    negate = prob.sense == "min"
    objective, obj_rhs = dense(prob.objective, ZERO)
    if negate:
        objective = [-c for c in objective]

    outcome = _try_dual_detour(ncols, rows, objective)
    if outcome is None:
        outcome = _simplex_max(ncols, rows, objective)
    if outcome.status == INFEASIBLE:
        return LPSolution(status=INFEASIBLE, value=None, assignment={})
    if outcome.status == UNBOUNDED:
        return LPSolution(status=UNBOUNDED, value=None, assignment={})

    # --- extract and certify
    colvals = outcome.colvals
    assignment = {}
    for v in prob.variables:
        kind = kind_of[v]
        if kind[0] == "shift":
            assignment[v] = kind[2] + colvals.get(kind[1], ZERO)
        else:
            assignment[v] = colvals.get(kind[1], ZERO) - colvals.get(kind[2], ZERO)
    value = sum((c * assignment[v] for v, c in prob.objective.items()), ZERO)

    internal_value = (-outcome.value if negate else outcome.value) - obj_rhs
    if internal_value != value:
        raise VerificationError(
            f"simplex value {format_rational(internal_value)} does not match "
            f"assignment value {format_rational(value)}"
        )
    _check_feasible(prob, assignment)
    return LPSolution(status=OPTIMAL, value=value, assignment=assignment)


def _check_feasible(prob: LPProblem, assignment: Mapping[str, Fraction]) -> None:
    """Post-hoc exact feasibility check of a returned assignment."""
    for v in prob.variables:
        val = assignment[v]
        low = prob.lower.get(v, ZERO)
        up = prob.upper.get(v)
        if low is not None and val < low:
            raise VerificationError(f"assignment violates lower bound of {v}")
        if up is not None and val > up:
            raise VerificationError(f"assignment violates upper bound of {v}")
    for con in prob.constraints:
        lhs = sum((c * assignment[v] for v, c in con.coeffs.items()), ZERO)
        ok = (
            lhs <= con.rhs if con.rel == "<=" else
            lhs >= con.rhs if con.rel == ">=" else
            lhs == con.rhs
        )
        if not ok:
            raise VerificationError(
                f"assignment violates constraint {con.name or con}: "
                f"{format_rational(lhs)} {con.rel} {format_rational(con.rhs)}"
            )


# ---------------------------------------------------------------------------
# Program builders
# ---------------------------------------------------------------------------

def u_var(S: Subset) -> str:
    """Name of the utility variable of type (mask) S in the built programs."""
    return f"u({subset_label(S)})"


def q_var(i: int, S: Subset) -> str:
    """Name of the allocation variable of item i for type S."""
    return f"q{i}({subset_label(S)})"


def edge_var(S: Subset, i: int) -> str:
    """Name of the flow variable on the lattice edge S+{i} -> S."""
    return f"f({subset_label(S | 1 << (i - 1))}>{subset_label(S)})"


def _check_guard(n: int, guard: int, force: bool, what: str) -> None:
    if n > guard and not force:
        raise PreconditionError(
            f"n={n} exceeds the {what} {guard} (pass force=True to override)"
        )


def build_lp1(inst: OMDInstance, force: bool = False) -> LPProblem:
    """The full revenue program: maximize expected price over BIC + IR + PROB.

    Variables u(S) for every type and q_i(S) for every type/item pair; one
    truthfulness row per ordered pair of distinct types.
    """
    n = inst.n
    _check_guard(n, LP1_GUARD, force, "full-program enumeration guard")
    subsets = range(1 << n)
    vec = type_vectors(inst)
    prob_of = subset_probs(inst.p)

    variables = [u_var(S) for S in subsets]
    for S in subsets:
        for i in item_range(n):
            variables.append(q_var(i, S))

    objective = {}
    for S in subsets:
        pS = prob_of[S]
        objective[u_var(S)] = -pS
        for i in item_range(n):
            objective[q_var(i, S)] = pS * vec[S][i - 1]

    constraints = []
    for S in subsets:
        for T in subsets:
            if S == T:
                continue
            coeffs = {u_var(S): ONE, u_var(T): -ONE}
            for i in item_range(n):
                dv = vec[S][i - 1] - vec[T][i - 1]
                if dv:
                    coeffs[q_var(i, T)] = -dv
            constraints.append(
                Constraint(coeffs, ">=", ZERO, name=f"bic({subset_label(S)}|{subset_label(T)})")
            )
    for S in subsets:
        constraints.append(
            Constraint({u_var(S): ONE}, ">=", ZERO, name=f"ir({subset_label(S)})")
        )

    upper = {q_var(i, S): ONE for S in subsets for i in item_range(n)}
    return LPProblem(
        variables=tuple(variables),
        objective=objective,
        sense="max",
        constraints=tuple(constraints),
        upper=upper,
    )


def build_lp2(params: LP2Params, force: bool = False) -> LPProblem:
    """The relaxed program: utilities only, adjacent-type rows, u >= 0 bounds."""
    n = params.n
    _check_guard(n, LP23_GUARD, force, "enumeration guard")
    subsets = range(1 << n)
    objective = {u_var(S): balance for S, balance in enumerate(node_balances(params))}
    constraints = []
    for S in subsets:
        for i in item_range(n):
            if S >> (i - 1) & 1:
                continue
            constraints.append(
                Constraint(
                    {u_var(S | 1 << (i - 1)): ONE, u_var(S): -ONE},
                    "<=",
                    params.d[i - 1],
                    name=f"bic2({subset_label(S)}|{i})",
                )
            )
    return LPProblem(
        variables=tuple(u_var(S) for S in subsets),
        objective=objective,
        sense="max",
        constraints=tuple(constraints),
    )


def build_lp3(params: LP2Params, force: bool = False) -> LPProblem:
    """The dual of the relaxed program: a min-cost flow on the subset lattice.

    One nonnegative flow variable per covering edge S+{i} -> S, one balance
    row per node with right-hand side p(S) * (sum_{i in S} x_i - B).
    """
    n = params.n
    _check_guard(n, LP23_GUARD, force, "enumeration guard")
    subsets = range(1 << n)
    variables = []
    objective = {}
    for S in subsets:
        for i in item_range(n):
            if S >> (i - 1) & 1:
                continue
            name = edge_var(S, i)
            variables.append(name)
            objective[name] = params.d[i - 1]
    constraints = []
    for S, rhs in enumerate(node_balances(params)):
        coeffs = {}
        for i in item_range(n):
            if not S >> (i - 1) & 1:
                coeffs[edge_var(S, i)] = -ONE
        for i in item_range(n):
            if S >> (i - 1) & 1:
                coeffs[edge_var(S ^ 1 << (i - 1), i)] = ONE
        constraints.append(Constraint(coeffs, ">=", rhs, name=f"balance({subset_label(S)})"))
    return LPProblem(
        variables=tuple(variables),
        objective=objective,
        sense="min",
        constraints=tuple(constraints),
    )


# ---------------------------------------------------------------------------
# Uniqueness probe
# ---------------------------------------------------------------------------

def unique_optimum(prob: LPProblem, sol: LPSolution) -> bool:
    """True iff the optimum of ``prob`` is attained at a single point.

    Probes every variable by minimizing and maximizing it over the optimal
    face (objective pinned to the optimal value); 2 * #variables auxiliary
    solves, intended for oracle-scale programs.
    """
    if sol.status != OPTIMAL:
        raise PreconditionError("unique_optimum requires an optimal solution")
    pinned = prob.constraints + (
        Constraint(dict(prob.objective), "=", sol.value, name="objective(pinned)"),
    )
    for v in prob.variables:
        lo = solve_lp(
            LPProblem(prob.variables, {v: ONE}, "min", pinned, prob.lower, prob.upper)
        )
        hi = solve_lp(
            LPProblem(prob.variables, {v: ONE}, "max", pinned, prob.lower, prob.upper)
        )
        if lo.status != OPTIMAL or hi.status != OPTIMAL:
            return False  # direction unbounded along the optimal face
        if lo.value != hi.value:
            return False
    return True


# ---------------------------------------------------------------------------
# Text dump
# ---------------------------------------------------------------------------

def dump_problem(prob: LPProblem) -> str:
    """Audit dump: objective, then one constraint per line, then bounds."""
    def term(c: Fraction, v: str) -> str:
        return f"{format_rational(c)} {v}"

    lines = [f"sense: {prob.sense}"]
    obj = " + ".join(term(c, v) for v, c in prob.objective.items() if c)
    lines.append(f"objective: {obj or '0'}")
    lines.append("subject to:")
    for con in prob.constraints:
        lhs = " + ".join(term(c, v) for v, c in con.coeffs.items() if c)
        label = f"{con.name}: " if con.name else ""
        lines.append(f"  {label}{lhs or '0'} {con.rel} {format_rational(con.rhs)}")
    lines.append("bounds:")
    for v in prob.variables:
        low = prob.lower.get(v, ZERO)
        up = prob.upper.get(v)
        low_s = "-inf" if low is None else format_rational(low)
        up_s = "+inf" if up is None else format_rational(up)
        lines.append(f"  {low_s} <= {v} <= {up_s}")
    return "\n".join(lines) + "\n"
