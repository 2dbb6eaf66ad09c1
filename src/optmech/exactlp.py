"""Exact rational linear programming, plus builders for the three programs.

The solver is a dense two-phase tableau simplex over exact rationals with the
smallest-index (Bland) anti-cycling pivot rule, so it terminates and is fully
deterministic: identical problems yield identical optimal assignments. Every
optimal answer is re-checked post hoc against the original constraints, so a
reported optimum is exact by construction.

The tableau holds integers. `solve_lp` builds each row once, from the
nonzero entries of its coefficient map, and scales it by the lcm of its
denominators; each tableau row holds a positive multiple of its rational row,
so every pivot is the one a rational tableau would make. The interface stays
`fractions.Fraction`, and the post-hoc checks run on the Fraction input data,
not on the tableau.

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
from math import gcd
from typing import Mapping

from .core import (
    LP2Params,
    OMDInstance,
    Subset,
    ZERO,
    ONE,
    format_rational,
    item_range,
    over_common_denominator,
    subset_label,
    subset_probs,
    type_vectors,
)
from .errors import InputError, PreconditionError, VerificationError
from .lattice import node_balances

# Enumeration guards: constraint counts grow as 4^n (full program) / 2^n
# (relaxed program and its dual). The full program's guard admits only sizes
# whose solve ends within a minute: one LP1 solve takes 0.5-11 s at n=5 and
# 11-117 s at n=6 (2-vCPU machine, random instances). The relaxed
# program's guard is set by memory: on a random single-positive instance one
# solve took 4.2 s (LP2) and 2.3 s (LP3) at n=11 with a peak RSS of 956 MiB,
# and 21.8 s and 10.8 s at n=12 with 4.0 GiB (2 vCPUs, 8 GiB). Memory grows
# about x4 per item, so n=13 would need about 16 GiB.
LP1_GUARD = 5
LP23_GUARD = 12

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


def _check_rational(value, what: str) -> None:
    # the simplex scales each row to integers by its denominators, which a
    # float does not have
    if not isinstance(value, (int, Fraction)):
        raise InputError(f"{what}: expected an int or Fraction, got {value!r}")


@dataclass(frozen=True)
class LPProblem:
    """A finite LP over named variables.

    Bounds: a variable absent from ``lower`` has lower bound 0; an explicit
    ``None`` makes it free. A variable absent from ``upper`` (or mapped to
    ``None``) has no upper bound. Every coefficient, right-hand side and
    bound is an int or a Fraction.
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
        for v, c in self.objective.items():
            if v not in declared:
                raise InputError(f"objective references undeclared variable {v!r}")
            _check_rational(c, f"objective coefficient of {v!r}")
        for con in self.constraints:
            for v, c in con.coeffs.items():
                if v not in declared:
                    raise InputError(
                        f"constraint {con.name!r} references undeclared variable {v!r}"
                    )
                _check_rational(c, f"constraint {con.name!r} coefficient of {v!r}")
            _check_rational(con.rhs, f"constraint {con.name!r} right-hand side")
        for bound in (self.lower, self.upper):
            for v, b in bound.items():
                if v not in declared:
                    raise InputError(f"bound references undeclared variable {v!r}")
                if b is not None:
                    _check_rational(b, f"bound of {v!r}")


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
# input row, which lets `solve_lp` run a dual detour: a tall program whose
# rows are all inequalities is solved through its transpose (one row per
# original column) and the primal assignment is read off the dual
# multipliers. `solve_lp` checks every answer, from the detour or not,
# against the original data.
#
# The tableau is fraction-free. Each input row arrives as ints: the rational
# row, right-hand side included, times the lcm of its denominators, built
# once by `solve_lp`. Before the sign canonicalization its slack and
# artificial get that same factor, so every row starts as exactly `scale`
# times the rational canonical row: slacks, artificials and duals are those
# of the rational tableau. Tableau row i stays a positive multiple of the
# rational row T[i] / T[i][basis[i]]. A pivot on (r, c) with
# pc = T[r][c] > 0 replaces each row with f = row[c] != 0 by a positive
# multiple of pc * row - f * prow: by row - (f / pc) * prow when pc divides
# f, which changes only prow's nonzero columns; otherwise with pc and f
# divided by their gcd, and the result by the gcd of its entries. Rows with
# f = 0 are not touched. A cost row has the same form, with its positive
# denominator as one more entry. Ratio tests compare by cross-multiplication.
# Bland's rule reads only signs and ratio order, so every pivot, vertex and
# dual is the rational tableau's.
#
# The detour transposes the same int rows. Row i is s_i times its rational
# row, so column j of the rows, with the objective's int coefficient as
# right-hand side and scale 1, is the rational transpose row times the
# objective's scale, in variables y_i / s_i times that scale. Its slacks and
# artificials are the rational ones times the same scale, so phase 1's
# objective is a positive multiple of the rational one. Bland's rule cannot
# see a rescaling of variables by positive factors: the sign of each reduced
# cost, the order of the ratios in a column and the basis-index tie-break
# stay the same, so every pivot and vertex is the rational transpose's.
# Scaling every row and the objective by one factor leaves the duals, and
# with them the recovered primal, unchanged, and scales the value by it.


class _SimplexOutcome:
    __slots__ = ("status", "colvals", "value", "duals")

    def __init__(self, status, colvals=None, value=None, duals=None):
        self.status = status
        self.colvals = colvals
        self.value = value
        self.duals = duals


def _simplex_max(ncols, rows, objective):
    """Maximize objective . x subject to the given rows, x >= 0.

    ``rows``: list of (ints, rel, scale): ``ints`` holds the ncols
    coefficients and then the right-hand side of the rational row, each
    times the int ``scale`` > 0.
    ``objective``: (ints, scale), the ncols coefficients times ``scale``.
    Returns a _SimplexOutcome whose ``duals`` align with the input rows.
    """
    # canonicalize: slack rows are "<=" with rhs >= 0, everything else gets
    # an artificial variable; a sign flip negates the reported dual
    canon = []
    for ints, rel, scale in rows:
        flipped = rel == ">="
        if flipped:
            rel = "<="
        if (-ints[-1] if flipped else ints[-1]) < 0:
            flipped = not flipped
            if rel == "<=":
                rel = ">=+"
        if flipped:
            ints = [-v for v in ints]
        canon.append((ints, rel, scale, flipped))

    nslack = sum(1 for _, rel, _, _ in canon if rel in ("<=", ">=+"))
    nart = sum(1 for _, rel, _, _ in canon if rel in ("=", ">=+"))
    width = ncols + nslack + nart + 1
    total = width - 1
    si = ncols
    ai = ncols + nslack
    pad = [0] * (nslack + nart)
    T = []
    basis = []
    art_cols = set()
    assoc = []      # per input row: its slack or artificial column
    alive = []      # per input row: tableau row index, or None once dropped
    for ints, rel, scale, _ in canon:
        row = ints[:-1] + pad + ints[-1:]
        if rel == "<=":
            row[si] = scale
            basis.append(si)
            assoc.append(si)
            si += 1
        elif rel == ">=+":
            row[si] = -scale
            si += 1
            row[ai] = scale
            art_cols.add(ai)
            basis.append(ai)
            assoc.append(ai)
            ai += 1
        else:  # "="
            row[ai] = scale
            art_cols.add(ai)
            basis.append(ai)
            assoc.append(ai)
            ai += 1
        alive.append(len(T))
        T.append(row)

    def eliminate(row, c, prow, nz):
        """A positive multiple of pc * row - row[c] * prow, where
        pc = prow[c] > 0 and ``nz`` lists the nonzero columns of prow."""
        pc, f = prow[c], row[c]
        g = gcd(pc, f)
        if g == pc:
            # pc divides f: only the nonzero columns of prow change
            f //= pc
            for j in nz:
                row[j] -= f * prow[j]
            return row
        pc //= g
        f //= g
        new = [pc * a for a in row]
        for j in nz:
            new[j] -= f * prow[j]
        g = gcd(*new)
        return [v // g for v in new] if g > 1 else new

    def pivot(r, c):
        nonlocal cost
        prow = T[r]
        if prow[c] < 0:
            # only a leftover artificial driven out pivots on a negative
            # entry; the new basic coefficient must be positive
            T[r] = prow = [-v for v in prow]
        nz = [j for j, v in enumerate(prow) if v]
        for i, row in enumerate(T):
            if row[c] and i != r:
                T[i] = eliminate(row, c, prow, nz)
        if cost[c]:
            cost = eliminate(cost, c, prow, nz)
        basis[r] = c

    def price(cost):
        """Reduced costs of ``cost`` under the current basis."""
        for row, b in zip(T, basis):
            if cost[b]:
                cost = eliminate(cost, b, row, [j for j, v in enumerate(row) if v])
        return cost

    def run(enterable):
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
            for i, row in enumerate(T):
                coeff = row[enter]
                if coeff > 0:
                    if leave >= 0:
                        # the ratio row[-1] / coeff against the best so far
                        lhs, rhs = row[-1] * best_coeff, best_rhs * coeff
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                            continue
                    best_rhs, best_coeff, leave = row[-1], coeff, i
            if leave < 0:
                return UNBOUNDED
            pivot(leave, enter)

    # phase 1 maximizes minus the sum of the artificials
    if art_cols:
        cost = price([-1 if j in art_cols else 0 for j in range(width)] + [1])
        if run([True] * total) == UNBOUNDED:
            raise VerificationError("phase-1 objective cannot be unbounded")
        if cost[total] != 0:
            return _SimplexOutcome(INFEASIBLE)
        # pivot leftover artificials out; all-zero rows are redundant
        drop = []
        for i in range(len(T)):
            if basis[i] in art_cols:
                row = T[i]
                for j in range(total):
                    if j not in art_cols and row[j]:
                        pivot(i, j)
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

    objective, scale = objective
    cost = price(objective + [0] * (width - ncols) + [scale])
    enterable = [j not in art_cols for j in range(total)]
    status = run(enterable)
    if status == UNBOUNDED:
        return _SimplexOutcome(UNBOUNDED)

    den = cost[-1]
    colvals = {}
    for row, b in zip(T, basis):
        if b < ncols:
            colvals[b] = Fraction(row[-1], row[b])
    duals = []
    for k, (_, _, _, flipped) in enumerate(canon):
        if alive[k] is None:
            duals.append(ZERO)
            continue
        mu = -cost[assoc[k]]
        duals.append(Fraction(-mu if flipped else mu, den))
    return _SimplexOutcome(OPTIMAL, colvals, Fraction(-cost[total], den), duals)


# A program qualifies for the dual detour when its rows are inequalities in
# sink form (so x = 0 is feasible and the transpose is bounded) and it is
# tall enough for the transpose to be worth it.
_DUAL_DETOUR_MIN_COLS = 24
_DUAL_DETOUR_RATIO = 2


def _try_dual_detour(ncols, rows, objective):
    if ncols < _DUAL_DETOUR_MIN_COLS or len(rows) < _DUAL_DETOUR_RATIO * ncols:
        return None
    sink_rows = []
    for ints, rel, _ in rows:
        if rel == "<=" and ints[-1] >= 0:
            sink_rows.append(ints)
        elif rel == ">=" and ints[-1] <= 0:
            sink_rows.append([-v for v in ints])
        else:
            return None
    # column j of the int rows at scale 1; see the simplex comment block for
    # why this takes the rational transpose's pivots
    obj_ints, obj_scale = objective
    *columns, rhs = zip(*sink_rows)
    transpose_rows = [([*col, c], ">=", 1) for col, c in zip(columns, obj_ints)]
    outcome = _simplex_max(len(rhs), transpose_rows, ([-b for b in rhs], 1))
    # the transpose maximizes -b.y with b >= 0, so it is bounded; when it is
    # infeasible, the primal (feasible at x = 0) is unbounded
    if outcome.status == INFEASIBLE:
        return _SimplexOutcome(UNBOUNDED)
    # one transpose row per original column; with rows passed in >= form to
    # an internally maximized program, the recovered primal is -1 times the
    # reported multiplier
    colvals = {j: -y for j, y in enumerate(outcome.duals) if y}
    return _SimplexOutcome(OPTIMAL, colvals, -outcome.value / obj_scale)


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

    def int_row(coeffs: Mapping[str, Fraction], rhs: Fraction):
        """One row over the internal columns, right-hand side last, scaled by
        the lcm of its denominators: (ints, scale). The constant that the
        lower bound shifts contribute is moved into the right-hand side."""
        row = {}  # internal column -> coefficient
        for v, c in coeffs.items():
            if c:
                kind = kind_of[v]
                row[kind[1]] = c
                if kind[0] == "split":
                    row[kind[2]] = -c
                elif kind[2]:
                    rhs -= c * kind[2]
        row[ncols] = rhs
        scaled, scale = over_common_denominator(row.values())
        ints = [0] * (ncols + 1)
        for j, v in zip(row, scaled):
            ints[j] = v
        return ints, scale

    rows = []
    for con in prob.constraints:
        ints, scale = int_row(con.coeffs, con.rhs)
        rows.append((ints, con.rel, scale))
    # upper bounds become "<=" rows; one below its lower bound has a negative
    # right-hand side, which phase 1 reports as infeasible
    for v in prob.variables:
        up = prob.upper.get(v)
        if up is not None:
            ints, scale = int_row({v: ONE}, up)
            rows.append((ints, "<=", scale))

    # --- internal objective, always maximized; its right-hand side is minus
    # the constant the lower bounds add to the objective
    negate = prob.sense == "min"
    ints, obj_scale = int_row(prob.objective, ZERO)
    obj_rhs = Fraction(ints.pop(), obj_scale)
    if negate:
        ints = [-c for c in ints]
    objective = (ints, obj_scale)

    outcome = _try_dual_detour(ncols, rows, objective)
    if outcome is None:
        outcome = _simplex_max(ncols, rows, objective)
    if outcome.status == INFEASIBLE:
        return LPSolution(status=INFEASIBLE, value=None, assignment={})
    if outcome.status == UNBOUNDED:
        return LPSolution(status=UNBOUNDED, value=None, assignment={})

    # --- extract and certify: every answer, from the detour or not
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
        lhs = sum((c * x for v, c in con.coeffs.items() if (x := assignment[v])), ZERO)
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


def _check_guard(n: int, guard: int, what: str) -> None:
    if n > guard:
        raise PreconditionError(f"n={n} exceeds the {what} {guard}")


def build_lp1(inst: OMDInstance) -> LPProblem:
    """The full revenue program: maximize expected price over BIC + IR + PROB.

    Variables u(S) for every type and q_i(S) for every type/item pair; one
    truthfulness row per ordered pair of distinct types.
    """
    n = inst.n
    _check_guard(n, LP1_GUARD, "full-program enumeration guard")
    subsets = range(1 << n)
    vec = type_vectors(inst)
    prob_of = subset_probs(inst.p)
    # every name and label once per mask, not once per pair of types
    labels = [subset_label(S) for S in subsets]
    u = [u_var(S) for S in subsets]
    q = [[q_var(i, S) for i in item_range(n)] for S in subsets]

    variables = u + [name for qS in q for name in qS]

    objective = {}
    for S in subsets:
        pS = prob_of[S]
        objective[u[S]] = -pS
        for name, vi in zip(q[S], vec[S]):
            objective[name] = pS * vi

    constraints = []
    for S in subsets:
        for T in subsets:
            if S == T:
                continue
            coeffs = {u[S]: ONE, u[T]: -ONE}
            for name, vSi, vTi in zip(q[T], vec[S], vec[T]):
                if dv := vSi - vTi:
                    coeffs[name] = -dv
            constraints.append(
                Constraint(coeffs, ">=", ZERO, name=f"bic({labels[S]}|{labels[T]})")
            )
    for S in subsets:
        constraints.append(Constraint({u[S]: ONE}, ">=", ZERO, name=f"ir({labels[S]})"))

    upper = {name: ONE for qS in q for name in qS}
    return LPProblem(
        variables=tuple(variables),
        objective=objective,
        sense="max",
        constraints=tuple(constraints),
        upper=upper,
    )


def build_lp2(params: LP2Params) -> LPProblem:
    """The relaxed program: utilities only, adjacent-type rows, u >= 0 bounds."""
    n = params.n
    _check_guard(n, LP23_GUARD, "enumeration guard")
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


def build_lp3(params: LP2Params) -> LPProblem:
    """The dual of the relaxed program: a min-cost flow on the subset lattice.

    One nonnegative flow variable per covering edge S+{i} -> S, one balance
    row per node with right-hand side p(S) * (sum_{i in S} x_i - B).
    """
    n = params.n
    _check_guard(n, LP23_GUARD, "enumeration guard")
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
