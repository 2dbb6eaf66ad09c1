"""Exact rational linear programming, plus builders for the three programs.

The solver is a dense two-phase bounded-variable tableau simplex over exact
rationals. The column with the largest reduced cost enters (Dantzig's rule),
and the smallest-index one (Bland's rule) while a run of zero-length steps
lasts, so it terminates and is fully deterministic: identical problems
yield identical optimal assignments. A finite upper bound stays a bound,
never a row: a column at its bound is complemented (x' = ub - x), and the
ratio test weighs a basic variable falling to 0, a bounded basic variable
rising to its bound, and the entering column reaching its own bound, which
flips it without a pivot. Every optimal answer is proved post hoc, not
trusted to the pivots: the assignment meets the original constraints and
bounds, the simplex's row multipliers y have the right signs and, with each
bound priced at w_j = max(0, c_j - (y.A)_j), cover every column, and
y.b + w.ub equals the assignment's value c.x.

The tableau holds integers. `solve_lp` builds each row in one pass over its
coefficient map, reading each coefficient's numerator and denominator once,
and scales it by the lcm of its denominators; each tableau row holds a
positive multiple of its rational row, so every pivot is the one a rational
tableau would make. The simplex reports its column values as ints over
their least common denominator, and its row multipliers as ints over one
denominator of their own. `solve_lp` takes `Fraction` programs and undoes
its variable translation on those ints. An `LPSolution` stores its
assignment as ints over one scale; the `Fraction` view ``assignment`` is
built on first read. The post-hoc checks do not read the tableau and run
on ints: the assignment, over one common denominator, is checked against
each `Constraint`'s own coefficients and each bound, and the duals and
bound prices against the integer input rows.

The three builders produce, for a given instance / parameter vector:

  * ``build_lp1`` -- the full revenue program: utilities u(S) and allocation
    marginals q_i(S) with truthfulness rows for every ordered pair of types.
    IR is the variables' default lower bound u >= 0, not a row.
    ``solve_lp1`` finds its optimum without building it, and without
    `solve_lp`: it hands the simplex LP1's int rows directly, the ints
    `solve_lp` would compile them to, and with them the columns q_i(S) for
    i in S, which the simplex holds at their bound 1 and leaves out of its
    tableau. That is a presolve step: such a column is dominated (its
    objective coefficient p(S)(a_i + d_i) is positive and it weighs every
    truthfulness row it is in by +d_i), so some optimum has it at 1.
    `solve_lp1` solves the program on the adjacent-type truthfulness rows,
    replays all 4^n truthfulness rows on each answer with
    `mechanism.scaled_bic_violations`, and adds only the rows that fail. Its
    proof has three parts, on the simplex's int column values as they come,
    and reads every column of the full program, the fixed ones included:
    the answer's bounds, that replay, and the dual certificate on the full
    rows and objective, which prices each fixed column's bound. So no answer
    rests on the dominance argument. What depends on n alone (the labels,
    the u and q names, the q <= 1 bounds, the fixed columns, the adjacent
    pairs, and which q columns each row reads, with which sign) is built
    once per n and cached as an immutable value; each call builds only the
    instance's int objective, from its own int p(S) table, and each int row
    when it is added, by scaling the layout's signs by the d_i;
  * ``build_lp2`` -- the relaxed program over u alone, with one row per
    adjacent pair u(S+{i}) - u(S) <= d_i;
  * ``build_lp3`` -- the dual of the relaxed program: a min-cost flow on the
    subset lattice with one balance row per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress
from math import gcd, lcm, prod
from operator import itemgetter, mul, neg
from types import MappingProxyType
from typing import Mapping, Sequence

from .core import (
    LP2Params,
    OMDInstance,
    Subset,
    ZERO,
    ONE,
    check_guard,
    format_rational,
    over_common_denominator,
    subset_label,
    subset_probs,
    subset_products,
    types_by_size,
)
from .errors import InputError, PreconditionError, VerificationError
from .lattice import node_balances
from .mechanism import scaled_bic_violations

# Enumeration guards: constraint counts grow as 4^n (full program) / 2^n
# (relaxed program and its dual). At n=6, the full program's guard,
# `solve_lp1` took 0.03-0.04 s on 12 seeded single-positive instances, and
# `solve --oracle-only` 0.04-0.15 s on the 12 seeded general ones of
# scripts/solve_latency.py (a_i in 0..10, d_i in 1..10, p_i in k/20; eight
# needed a second round) and 0.18 s on a=(4,10,6,5,9,7), d=(3,1,6,8,10,9),
# p=(7/10,17/20,1/4,9/10,1/4,17/20) in three rounds, which took 263 s under
# smallest-index pricing. At n=7 `solve_lp1` took 0.16-1.9 s on the 24
# seeded general instances of that script's n=7 table, in 1-3 rounds; the
# slowest, a=(3,7,0,8,10,3,2), d=(6,4,9,3,10,2,5),
# p=(9/20,3/10,3/10,1/20,3/10,19/20,13/20), took 51 s before the simplex
# held q_i(S), i in S, at 1. Draws 25-72 of the same stream took up to
# 5.7 s, so the worst n=7 case is still unknown, and the guard stays at 6
# (2 vCPUs, Python 3.11.7, no gmpy2, one run each). The relaxed program's
# guard is set by memory: on a random single-positive instance one solve
# took 4.6 s (LP2) and 2.5 s (LP3) at n=11 with a peak RSS of 1.3 GiB; LP2
# at n=12 did not finish in 4 GiB of address space (2 vCPUs).
LP1_GUARD = 6
LP23_GUARD = 11

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


# the simplex scales each row to integers by its denominators, which a float
# does not have
_EXACT = (int, Fraction)


def _inexact(what: str, value) -> InputError:
    return InputError(f"{what}: expected an int or Fraction, got {value!r}")


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
            if not isinstance(c, _EXACT):
                raise _inexact(f"objective coefficient of {v!r}", c)
        for con in self.constraints:
            for v, c in con.coeffs.items():
                if v not in declared:
                    raise InputError(
                        f"constraint {con.name!r} references undeclared variable {v!r}"
                    )
                if not isinstance(c, _EXACT):
                    raise _inexact(f"constraint {con.name!r} coefficient of {v!r}", c)
            if not isinstance(con.rhs, _EXACT):
                raise _inexact(f"constraint {con.name!r} right-hand side", con.rhs)
        for bound in (self.lower, self.upper):
            for v, b in bound.items():
                if v not in declared:
                    raise InputError(f"bound references undeclared variable {v!r}")
                if b is not None and not isinstance(b, _EXACT):
                    raise _inexact(f"bound of {v!r}", b)


@dataclass(frozen=True)
class LPSolution:
    """An LP's status and, when optimal, its value and an optimal point,
    stored as ints over one positive int scale: ``scaled[k] / scale`` is the
    value of ``variables[k]``. The `Fraction` view ``assignment``, a dict by
    variable name, is built on first read."""

    status: str
    value: Fraction | None
    variables: tuple[str, ...] = ()
    scaled: Sequence[int] = field(default=(), repr=False)
    scale: int = 1

    @cached_property
    def assignment(self) -> dict[str, Fraction]:
        scale = self.scale
        return {v: Fraction(a, scale) for v, a in zip(self.variables, self.scaled)}


# ---------------------------------------------------------------------------
# Simplex core
# ---------------------------------------------------------------------------
#
# `_simplex_max` solves  max c.x  over rows {<=, =, >=} with 0 <= x_j <= ub_j
# (ub_j finite on the bounded columns, +inf elsewhere) by the two-phase dense
# tableau method, entering by the largest reduced cost and falling back to
# Bland's smallest index when degenerate steps stall. It reports the optimal
# column values as ints over their least common denominator X (each value
# reduced to lowest terms, X the lcm of those denominators, so
# gcd(X, *values) == 1), with no `Fraction` per column, and the dual
# multiplier of every input row. No bound is ever a row. `solve_lp` checks
# the assignment those column values give, scaled to ints, against the
# original constraints and bounds, and the multipliers as a dual
# certificate of optimality; `solve_lp1` checks the column values' ints
# themselves.
#
# The tableau is fraction-free. Each input row arrives as ints: the rational
# row, right-hand side included, times the lcm of its denominators, built
# once by `solve_lp`. Before the sign canonicalization its slack and
# artificial get that same factor, so every row starts as exactly `scale`
# times the rational canonical row: slacks, artificials and duals are those
# of the rational tableau. Tableau row i stays a positive multiple of the
# rational row T[i] / T[i][basis[i]]. A pivot on (r, c) makes T[r][c]
# positive first, negating row r when needed (a basic variable that leaves
# at its upper bound, or a leftover artificial driven out, has a negative
# entry there); then with pc = T[r][c] > 0 it replaces each row with
# f = row[c] != 0 by a positive multiple of pc * row - f * prow: by
# row - (f / pc) * prow when pc divides f, which changes only prow's nonzero
# columns; otherwise with pc and f divided by their gcd, and the result by
# the gcd of its entries. Rows with f = 0 are not touched. A cost row has the
# same form, with its positive denominator as one more entry. Ratio tests
# compare by cross-multiplication. The entering rule reads the cost row's
# signs and the order of its entries, which are the rational reduced costs
# times one positive denominator, so the argmax does not depend on the row's
# scale; the leaving rule reads only ratio order. So every pivot, vertex and
# dual is the rational tableau's.
#
# Bounds. Every nonbasic column sits at 0 in its current orientation. A
# bounded column that must sit at its bound ub = num / den is complemented:
# x' = ub - x replaces x, so the column is negated in every row and in the
# cost row, and each row's right-hand side loses a * ub. A row with a != 0
# is scaled by den first when den > 1 (and then divided by the gcd of its
# entries), so it stays a positive multiple of its rational row. The
# orientation stays with the column, basic or not; x' in [0, ub] exactly
# when x is. With column e entering at step t >= 0, the ratio test has three
# kinds of candidate:
#   * a basic variable falls to 0: row i with T[i][e] > 0, t = rhs / T[i][e];
#   * a bounded basic variable b rises to its bound: row i with T[i][e] < 0,
#     t = (ub_b * T[i][b] - rhs) / -T[i][e];
#   * e reaches its own bound: t = ub_e, a flip, which complements e and
#     pivots nothing.
# The least t wins, ties to the smallest index of the variable that leaves,
# where a flip counts e itself. A basic variable that leaves at its bound is
# complemented after the pivot, so it sits at 0 again.
#
# Pricing. The column with the largest positive reduced cost enters, ties to
# the smallest index (Dantzig's rule). A step has length 0 when its least t
# is 0: a pivot on a row whose ratio numerator is 0, or the flip of a
# column whose bound is 0. Once more than len(T) steps in a row had length
# 0, the smallest eligible index enters instead (Bland's rule), until a
# step of positive length. The slack of len(T) lets Dantzig's rule cross
# most degenerate vertices itself; Bland after the first zero-length step
# was measured slower. Why this terminates: a step of length t > 0 raises
# the objective by t times the entering reduced cost, so no basis (with its
# complemented columns) met before it comes back after it, and there are
# finitely many such steps. A run of zero-length steps is pure Bland from
# its (len(T) + 2)-th step on, and Bland's rule cannot cycle from any
# basis, so the run ends. Why the bounded Bland method cannot cycle: write
# each bound as an explicit row x_j + s_j = ub_j, and order s_j right after
# x_j. The bounded tableau is that explicit tableau with each bound row
# solved out: a nonbasic column j stands for x_j, or for s_j once
# complemented, and the other of the two is basic in the bound row. The
# three candidates are exactly the explicit basic variables that can reach 0
# (x_b, s_b, s_e), and every step (a flip too) is one Bland pivot on the
# explicit program, because for two columns j < k both x_j and s_j precede
# both x_k and s_k. Bland's rule terminates for every fixed order of the
# variables, so this does too. A program with no bounded column takes
# exactly the pivots of the plain method under the same pricing.
#
# Fixed columns. A caller may hold some bounded columns at their bounds
# (`fixed`). They never enter the tableau: the copy of each input row into
# it skips them, and the right-hand side loses sum_j a_j * ub_j over them,
# with the row and its scale first multiplied by the lcm of their bounds'
# denominators, so the tableau row is still a positive multiple of the
# rational row of the reduced program. The objective loses them too, which
# drops a constant. The simplex then solves the reduced program, and
# reports each fixed column at its bound and every input row's multiplier
# as before. Those multipliers are the reduced program's. Checked against
# the full rows and objective, they price each fixed column's bound by
# w_j = max(0, c_j - (y.A)_j) like any other; with the reduced program's
# own y.b' + w.ub = c.x, y.b + w.ub over the full program equals c.x
# exactly when no fixed column with a nonzero bound has a negative reduced
# cost, and `_check_duals` refuses any other case. `solve_lp` holds no
# column fixed, so its pivots are the ones described above.
#
# The cost row is always the objective minus a combination of the input rows,
# so the reduced cost of a row's slack or artificial column is minus that
# row's weight y_k (plus it, for a row the canonicalization negated), also
# for a redundant row that phase 1 dropped; it is reported as an int over
# the cost row's denominator. Complementing negates a column's reduced cost
# and leaves y alone. At an optimum y_k >= 0 on "<=" rows, y_k <= 0 on ">="
# rows, and the reduced cost r_j = c_j - sum_k y_k a_kj is <= 0 on a column
# at 0 and >= 0 on one at its bound. So y with bound prices
# w_j = max(0, r_j) is feasible for the dual  min y.b + w.ub  over
# y.A + w >= c, w >= 0 (w_j = 0 where x_j has no bound), and its value
# bounds c.x on every feasible x: c.x <= (y.A + w).x <= y.b + w.ub.
# `solve_lp` proves an optimum from three facts, each checked once and on
# ints: its assignment is feasible (`_check_feasible`, which reads each
# `Constraint`'s own coefficient map and never the rows built here), y has
# the right signs and covers every column without a bound, and y.b + w.ub
# equals c.x (`_check_duals`, which computes w itself and never reads the
# tableau). `solve_lp1` proves its answers the same way, on all of LP1's
# columns, the fixed ones included, except that its bounds are checked on
# their own and the 4^n replay of `scaled_bic_violations`, which covers
# every row the program holds, stands for `_check_feasible`; both read the
# column values' ints over X as the simplex reports them.


class _SimplexOutcome:
    __slots__ = ("status", "colvals", "colden", "duals", "den")

    def __init__(self, status, colvals=None, colden=1, duals=None, den=1):
        self.status = status
        # one int per column over the least common denominator colden > 0
        self.colvals = colvals
        self.colden = colden
        self.duals = duals  # ints over the common denominator den > 0
        self.den = den


def _picker(columns):
    """The function from a row to the tuple of its entries at ``columns``,
    a nonempty list; `itemgetter` of one index returns the entry itself."""
    if len(columns) == 1:
        j = columns[0]
        return lambda ints: (ints[j],)
    return itemgetter(*columns)


def _simplex_max(ncols, rows, objective, upper, fixed=()):
    """Maximize objective . x subject to the given rows and 0 <= x <= upper.

    ``rows``: list of (ints, rel, scale): ``ints`` holds the ncols
    coefficients and then the right-hand side of the rational row, each
    times the int ``scale`` > 0.
    ``objective``: (ints, scale), the ncols coefficients times ``scale``.
    ``upper``: {column: (num, den)}, the finite upper bound num / den >= 0
    of each bounded column, den > 0; the other columns have none.
    ``fixed``: bounded columns held at their bound. They never enter the
    tableau and are reported at their bound.
    Returns a _SimplexOutcome whose ``colvals`` hold one int per column, the
    column's value times ``colden``, the least common denominator of the
    values, and whose ``duals`` align with the input rows.
    """
    columns, keep, M = ncols, None, 1
    if fixed:
        # the fixed columns leave the tableau, and each row's right-hand side
        # loses their a_j * ub_j: the row and its scale are multiplied first
        # by M, the lcm of their bounds' denominators
        fixed = sorted(fixed)
        at_bound = [upper[j] for j in fixed]
        M = lcm(*[den for _, den in at_bound])
        weights = [num * (M // den) for num, den in at_bound]
        skip = set(fixed)
        keep = [j for j in range(ncols) if j not in skip]
        at_fixed, at_kept = _picker(fixed), _picker(keep)
        column = {j: k for k, j in enumerate(keep)}
        upper = {column[j]: bound for j, bound in upper.items() if j in column}
        objective = [objective[0][j] for j in keep], objective[1]
        ncols = len(keep)
    # canonicalize: slack rows are "<=" with rhs >= 0, everything else gets
    # an artificial variable; a sign flip negates the row and the reported
    # dual
    canon = []
    for ints, rel, scale in rows:
        rhs = ints[-1]
        if keep is not None:
            rhs = M * rhs - sum(map(mul, weights, at_fixed(ints)))
            scale *= M
        flipped = rel == ">="
        if flipped:
            rel = "<="
        if (-rhs if flipped else rhs) < 0:
            flipped = not flipped
            if rel == "<=":
                rel = ">=+"
        canon.append((ints, rhs, rel, scale, flipped))

    nslack = sum(1 for _, _, rel, _, _ in canon if rel in ("<=", ">=+"))
    nart = sum(1 for _, _, rel, _, _ in canon if rel in ("=", ">=+"))
    width = ncols + nslack + nart + 1
    total = width - 1
    si = ncols
    ai = ncols + nslack
    pad = [0] * (nslack + nart)
    T = []
    basis = []
    art_cols = set()
    assoc = []      # per input row: its slack or artificial column
    for ints, rhs, rel, scale, flipped in canon:
        # the copy into the tableau drops the fixed columns
        coeffs = ints[:-1] if keep is None else at_kept(ints)
        m = -M if flipped else M
        if m == -1:
            coeffs = map(neg, coeffs)
        elif m != 1:
            coeffs = [m * v for v in coeffs]
        row = [*coeffs, *pad, -rhs if flipped else rhs]
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
        T.append(row)
    ub = [None] * total
    for j, bound in upper.items():
        ub[j] = bound
    complemented = set()    # the columns that stand for ub - x

    def eliminate(row, c, prow, nz):
        """A positive multiple of pc * row - row[c] * prow, where
        pc = prow[c] > 0 and ``nz`` yields the nonzero columns of prow."""
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
            # the new basic coefficient must be positive
            T[r] = prow = [-v for v in prow]
        nz = list(compress(range(width), prow))
        for i, row in enumerate(T):
            if row[c] and i != r:
                T[i] = eliminate(row, c, prow, nz)
        if cost[c]:
            cost = eliminate(cost, c, prow, nz)
        basis[r] = c

    def substitute(row, j):
        """``row`` with ub_j - x'_j in place of x_j, where row[j] != 0."""
        num, den = ub[j]
        a = row[j]
        if den > 1:
            row = [den * v for v in row]
        row[total] -= a * num
        row[j] = -row[j]
        if den > 1:
            g = gcd(*row)
            if g > 1:
                row = [v // g for v in row]
        return row

    def complement(j):
        nonlocal cost
        complemented.symmetric_difference_update((j,))
        for i, row in enumerate(T):
            if row[j]:
                T[i] = substitute(row, j)
        if cost[j]:
            cost = substitute(cost, j)

    def price(cost):
        """Reduced costs of ``cost`` under the current basis."""
        for row, b in zip(T, basis):
            if cost[b]:
                cost = eliminate(cost, b, row, compress(range(width), row))
        return cost

    def run(enterable):
        # Dantzig: entering = largest positive reduced cost, ties to the
        # smallest index; Bland's smallest index instead once more than
        # len(T) steps in a row had length 0. Leaving = least step t, ties
        # to the smallest index of the variable that leaves (see the comment
        # block for the three kinds of candidate and why this terminates)
        stalled = 0
        while True:
            enter, top, bland = -1, 0, stalled > len(T)
            for j in range(total):
                if cost[j] > top and enterable[j]:
                    enter, top = j, cost[j]
                    if bland:
                        break
            if enter < 0:
                return OPTIMAL
            # the best row so far, whose basic variable leaves after a step
            # t = best_num / best_den
            leave = -1
            for i, row in enumerate(T):
                coeff = row[enter]
                if coeff > 0:
                    num, den = row[-1], coeff
                elif coeff < 0 and ub[basis[i]]:
                    b = basis[i]
                    ub_num, ub_den = ub[b]
                    num, den = ub_num * row[b] - ub_den * row[-1], -coeff * ub_den
                else:
                    continue
                if leave >= 0:
                    lhs, rhs = num * best_den, best_num * den
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                best_num, best_den, leave = num, den, i
            if ub[enter]:
                # the entering column's own bound is one more candidate
                num, den = ub[enter]
                flip = leave < 0
                if not flip:
                    lhs, rhs = num * best_den, best_num * den
                    flip = lhs < rhs or (lhs == rhs and enter < basis[leave])
                if flip:
                    stalled = 0 if num else stalled + 1
                    complement(enter)
                    continue
            if leave < 0:
                return UNBOUNDED
            stalled = 0 if best_num else stalled + 1
            if T[leave][enter] < 0:
                # its basic variable rises to its bound, and leaves there
                b = basis[leave]
                pivot(leave, enter)
                complement(b)
            else:
                pivot(leave, enter)

    # phase 1 maximizes minus the sum of the artificials
    if art_cols:
        cost = price([-1 if j in art_cols else 0 for j in range(width)] + [1])
        if run([True] * total) == UNBOUNDED:
            raise VerificationError("phase-1 objective cannot be unbounded")
        if cost[total] != 0:
            return _SimplexOutcome(INFEASIBLE)
        # pivot leftover artificials out (each sits at 0, so no value
        # moves); all-zero rows are redundant
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
        for i in reversed(drop):
            del T[i]
            del basis[i]

    objective, scale = objective
    cost = objective + [0] * (width - ncols) + [scale]
    for j in complemented:
        if cost[j]:
            cost = substitute(cost, j)
    cost = price(cost)
    enterable = [j not in art_cols for j in range(total)]
    status = run(enterable)
    if status == UNBOUNDED:
        return _SimplexOutcome(UNBOUNDED)

    # the value num / den of each basic column, of each nonbasic one
    # complemented to its bound, and of each fixed one; the others sit at 0
    values = []
    for row, b in zip(T, basis):
        if b < ncols:
            if b in complemented:
                ub_num, ub_den = ub[b]
                values.append((b, ub_num * row[b] - ub_den * row[-1], ub_den * row[b]))
            else:
                values.append((b, row[-1], row[b]))
    basic = set(basis)
    values += [(j, *ub[j]) for j in complemented if j not in basic]
    if keep is not None:
        values = [(keep[j], num, den) for j, num, den in values]
        values += [(j, num, den) for j, (num, den) in zip(fixed, at_bound)]
    # all of them over X, the lcm of their denominators in lowest terms,
    # which is the least common denominator: gcd(X, *colvals) == 1
    X = lcm(*[den // gcd(num, den) for _, num, den in values])
    colvals = [0] * columns
    for j, num, den in values:
        colvals[j] = num * X // den
    duals = [cost[col] if flipped else -cost[col] for col, (*_, flipped) in zip(assoc, canon)]
    return _SimplexOutcome(OPTIMAL, colvals, X, duals, cost[-1])


def solve_lp(prob: LPProblem) -> LPSolution:
    """Solve exactly. Infeasibility and unboundedness are reported via the
    solution status, never raised."""
    # --- translate variables to internal columns, each in [0, its bound]: a
    # variable is its column, plus its lower bound when that is not 0; a free
    # one bounded above is its bound minus its column; any other free one is
    # its column minus a second one
    col = {}        # declared var -> its column
    neg = {}        # free var without an upper bound -> its second column
    shift = {}      # var with a nonzero lower bound, or free var with an
                    # upper bound -> that bound
    mirror = set()  # the free vars with an upper bound
    upper = {}      # column -> its finite upper bound as (num, den)
    ncols = 0
    for v in prob.variables:
        col[v] = ncols
        ncols += 1
        low = prob.lower.get(v, 0)
        up = prob.upper.get(v)
        if low is None:
            if up is None:
                neg[v] = ncols
                ncols += 1
            else:
                shift[v] = up
                mirror.add(v)
            continue
        if low:
            shift[v] = low
        if up is not None:
            if low:
                up -= low
            num, den = up.as_integer_ratio()
            if num < 0:
                return LPSolution(INFEASIBLE, None)
            upper[ncols - 1] = (num, den)

    def int_row(coeffs: Mapping[str, Fraction], rhs: Fraction):
        """One row over the internal columns, right-hand side last, times the
        lcm ``scale`` of its denominators: (ints, scale). Each coefficient is
        read once; the constant that the shifts contribute is moved into the
        right-hand side first."""
        for v, const in shift.items():
            if v in coeffs:
                rhs -= coeffs[v] * const
        num, scale = rhs.as_integer_ratio()
        ints = [0] * ncols + [num]
        for v, c in coeffs.items():
            num, den = c.as_integer_ratio()
            if scale % den:
                # a new denominator: rescale what is written so far
                m = den // gcd(scale, den)
                scale *= m
                ints = [x * m for x in ints]
            ints[col[v]] = num * (scale // den)
        for v, j in neg.items():
            ints[j] = -ints[col[v]]
        for v in mirror:
            ints[col[v]] = -ints[col[v]]
        return ints, scale

    rows = []
    for con in prob.constraints:
        ints, scale = int_row(con.coeffs, con.rhs)
        rows.append((ints, con.rel, scale))

    # --- internal objective, always maximized; its right-hand side is minus
    # the constant the shifts add to the objective
    negate = prob.sense == "min"
    ints, obj_scale = int_row(prob.objective, ZERO)
    obj_rhs = Fraction(ints.pop(), obj_scale)
    if negate:
        ints = [-c for c in ints]
    objective = (ints, obj_scale)

    outcome = _simplex_max(ncols, rows, objective, upper)
    if outcome.status != OPTIMAL:
        return LPSolution(outcome.status, None)

    # --- extract and certify: the assignment over one common denominator X,
    # the simplex's times the lcm of the shifts' denominators, with the
    # translation undone on those ints; its value c.x on them, then the
    # multipliers
    shifts = {v: s.as_integer_ratio() for v, s in shift.items()}
    m = lcm(*[den for _, den in shifts.values()])
    colvals, X = outcome.colvals, outcome.colden * m
    if m > 1:
        colvals = [a * m for a in colvals]
    ints = []
    for v in prob.variables:
        a = colvals[col[v]]
        if v in neg:
            a -= colvals[neg[v]]
        elif v in shifts:
            num, den = shifts[v]
            s = num * (X // den)
            a = s - a if v in mirror else a + s
        ints.append(a)
    scaled = dict(zip(prob.variables, ints))
    num, den = _dot(prob.objective, scaled)
    value = Fraction(num, den * X)

    _check_feasible(prob, scaled, X)
    _check_duals(rows, objective, upper, outcome,
                 -(value + obj_rhs) if negate else value + obj_rhs)
    return LPSolution(OPTIMAL, value, prob.variables, ints, X)


def _dot(coeffs: Mapping[str, Fraction], scaled: Mapping[str, int]) -> tuple[int, int]:
    """sum(coeffs[v] * scaled[v]) as (num, den): ``den`` is the lcm of the
    denominators of the coefficients of the nonzero ``scaled[v]``."""
    num, den = 0, 1
    for v, c in coeffs.items():
        a = scaled[v]
        if a:
            n, d = c.as_integer_ratio()
            if den % d:
                m = d // gcd(den, d)
                num *= m
                den *= m
            num += n * a * (den // d)
    return num, den


def _check_feasible(prob: LPProblem, scaled: Mapping[str, int], X: int) -> None:
    """Post-hoc exact feasibility check of the assignment scaled[v] / X, on
    ints: each bound and each constraint's own coefficient map, over the
    declared variables, never the simplex's rows."""
    for v in prob.variables:
        a = scaled[v]
        low = prob.lower.get(v, 0)
        if low is not None:
            num, den = low.as_integer_ratio()
            if a * den < num * X:
                raise VerificationError(f"assignment violates lower bound of {v}")
        up = prob.upper.get(v)
        if up is not None:
            num, den = up.as_integer_ratio()
            if a * den > num * X:
                raise VerificationError(f"assignment violates upper bound of {v}")
    for con in prob.constraints:
        num, den = _dot(con.coeffs, scaled)
        rhs_num, rhs_den = con.rhs.as_integer_ratio()
        lhs, rhs, rel = num * rhs_den, rhs_num * den * X, con.rel
        if lhs > rhs if rel == "<=" else lhs < rhs if rel == ">=" else lhs != rhs:
            raise VerificationError(
                f"assignment violates constraint {con.name or con}: "
                f"{format_rational(Fraction(num, den * X))} {rel} {format_rational(con.rhs)}"
            )


def _check_duals(rows, objective, upper, outcome: _SimplexOutcome, value: Fraction) -> None:
    """The multipliers have the right signs, cover every column without an
    upper bound, and with the bound prices w_j = max(0, c_j - (y.A)_j) give
    y.b + w.ub equal to ``value``, the internal objective at a feasible point
    (see the simplex comment block), on the int rows: the multiplier of
    rational row k is duals[k] / den and int row k is s_k times it, so with L
    the lcm of the s_k in use, W_k = duals[k] * L / s_k weighs the int rows
    over one common denominator D = den * L. ``upper`` maps each bounded
    column to its bound (num, den)."""
    duals = outcome.duals
    for k, (y, (_, rel, _)) in enumerate(zip(duals, rows)):
        if y < 0 if rel == "<=" else y > 0 if rel == ">=" else False:
            y = Fraction(y, outcome.den)
            raise VerificationError(f"dual certificate: row {k} ({rel}) has multiplier {y}")
    used = [(y, rows[k]) for k, y in enumerate(duals) if y]
    # each * argument is a list, not a generator: a tuple built from a
    # generator grows by resizing instead of coming from the interpreter's
    # free list of small tuples, but is freed into it, so every call would
    # leave one more there, up to 2,000 per length (240 KB at 12 items)
    L = lcm(*[scale for _, (_, _, scale) in used])
    W = [y * (L // scale) for y, (_, _, scale) in used]
    D = outcome.den * L
    obj_ints, obj_scale = objective
    columns = list(zip(*[ints for _, (ints, _, _) in used])) or [()] * (len(obj_ints) + 1)
    # w.ub as priced / (D * obj_scale * M), M the lcm of the bounds' denominators
    priced, M = 0, 1
    for j, (c, column) in enumerate(zip(obj_ints, columns)):
        excess = c * D - sum(map(mul, W, column)) * obj_scale
        if excess > 0:
            if j not in upper:
                raise VerificationError(f"dual certificate: column {j} is not covered")
            num, den = upper[j]
            if M % den:
                m = den // gcd(M, den)
                priced *= m
                M *= m
            priced += excess * num * (M // den)
    bound = Fraction(sum(map(mul, W, columns[-1])) * obj_scale * M + priced, D * obj_scale * M)
    if bound != value:
        raise VerificationError(f"dual certificate: bound {bound} != value {value}")


# ---------------------------------------------------------------------------
# Program builders
# ---------------------------------------------------------------------------

def u_var(S: Subset) -> str:
    """Name of the utility variable of type (mask) S in the built programs."""
    return f"u({subset_label(S)})"


def q_var(i: int, S: Subset) -> str:
    """Name of the allocation variable of the 0-based item i for type S; the
    name numbers the item from 1: q_var(0, 0b01) is "q1({1})"."""
    return f"q{i + 1}({subset_label(S)})"


def edge_var(S: Subset, i: int) -> str:
    """Name of the flow variable on the lattice edge S+{i} -> S, i 0-based;
    the name numbers items from 1: edge_var(0b01, 1) is "f({1,2}>{1})"."""
    return f"f({subset_label(S | 1 << i)}>{subset_label(S)})"


def check_lp1_guard(n: int) -> None:
    """Refuse an item count past the full program's enumeration guard."""
    check_guard(n, LP1_GUARD, "full-program enumeration guard")


@dataclass(frozen=True)
class _LP1Layout:
    """What LP1 has that depends on n alone, built once per n by
    `_lp1_layout` and never written: every type's label (indexed by mask)
    and u and q names, the variables in column order (u(S) is column S and
    q_i(S) column 2^n + n S + i), the q <= 1 bounds as `_simplex_max` reads
    them, {column: (1, 1)}, the columns of q_i(S) for i in S, which
    `solve_lp1` has the simplex hold at 1, the adjacent pairs (S, T) in
    `build_lp1`'s order, and what each truthfulness row (S, T) reads besides
    u(S) and u(T): ``q_base[T]``, the column of q_1(T), and ``items[S ^ T]``,
    the 0-based items where the two types differ, in order. So the row's q
    columns are q_base[T] + i for i in items[S ^ T], and each one's sign is
    bit i of T."""

    labels: tuple[str, ...]
    u: tuple[str, ...]
    q: tuple[tuple[str, ...], ...]
    variables: tuple[str, ...]
    upper: Mapping[int, tuple[int, int]]
    fixed: frozenset[int]
    adjacent: tuple[tuple[Subset, Subset], ...]
    q_base: tuple[int, ...]
    items: tuple[tuple[int, ...], ...]


@cache
def _lp1_layout(n: int) -> _LP1Layout:
    """LP1's n-only layout, immutable: tuples, and a read-only mapping."""
    labels = [""] * (1 << n)
    for S, label in types_by_size(n):
        labels[S] = label
    types = range(1 << n)
    u = tuple([u_var(S) for S in types])
    q = tuple([tuple([q_var(i, S) for i in range(n)]) for S in types])
    return _LP1Layout(
        labels=tuple(labels), u=u, q=q,
        variables=u + tuple([name for qS in q for name in qS]),
        upper=MappingProxyType(dict.fromkeys(range(1 << n, (n + 1) << n), (1, 1))),
        fixed=frozenset([(1 << n) + n * S + i for S in types for i in range(n) if S >> i & 1]),
        adjacent=tuple([(S, T) for S in types for T in sorted(S ^ 1 << i for i in range(n))]),
        q_base=tuple([(1 << n) + n * T for T in types]),
        items=tuple([tuple([i for i in range(n) if D >> i & 1]) for D in types]),
    )


class _LP1Frame:
    """LP1 of one instance as `_simplex_max` reads it, the ints `solve_lp`
    compiles `build_lp1(inst)` to, built without it: ``ncols`` columns in
    the layout's order, each >= 0 (u >= 0 is IR, so IR needs no rows), the
    layout's q <= 1 bounds, the objective as (ints, scale), and `row`, the
    int truthfulness row of one ordered pair of types. The objective is
    -p(S) on u(S) and p(S) v_S,i on q_i(S). Its p(S) come from the frame's
    own int table, `subset_products` of (num p_i, den p_i - num p_i), which
    is p(S) times prod den p_i; it does not share `scaled_subset_probs` with
    the revenue it checks. It goes over one denominator and is reduced by
    the gcd, which leaves the lcm of its denominators as the scale. The d_i
    over their common denominator M, (D, M), are what `solve_lp1`'s replay
    reads."""

    def __init__(self, inst: OMDInstance):
        n = inst.n
        check_lp1_guard(n)
        self.layout = _lp1_layout(n)
        self.ncols = len(self.layout.variables)
        d = [di.as_integer_ratio() for di in inst.d]
        # a row weighs q_i(T) by -num(d_i) when bit i of T is 0, +num(d_i) when 1
        self.signed = [(-num, num) for num, _ in d]
        self.dens = [den for _, den in d]
        self.D, self.M = over_common_denominator(inst.d)
        # p(S) times Lp = prod den(p_i): num(p_i) over S, den(p_i) - num(p_i) off S
        ratios = [pi.as_integer_ratio() for pi in inst.p]
        P = subset_products([(num, den - num) for num, den in ratios])
        Lp = prod([den for _, den in ratios])
        # type S values item i at a_i, or a_i + d_i when i is in S: V[2i + bit i of S]
        V, M = over_common_denominator([v for ai, di in zip(inst.a, inst.d) for v in (ai, ai + di)])
        ints = [-PS * M for PS in P]
        ints += [PS * V[2 * i + (S >> i & 1)] for S, PS in enumerate(P) for i in range(n)]
        g = gcd(*ints, Lp * M)
        self.objective = [c // g for c in ints], Lp * M // g

    def row(self, S: Subset, T: Subset) -> tuple[list[int], str, int]:
        """Type S gains nothing by reporting T: u(S) - u(T) + sum over i in
        S ^ T of (d_i if i in T, else -d_i) q_i(T) >= 0, right-hand side
        last, times L, the lcm of those d_i's denominators:
        (ints, ">=", L). The layout gives the row's q columns and signs."""
        items, signed, dens = self.layout.items[S ^ T], self.signed, self.dens
        L = lcm(*[dens[i] for i in items])
        ints = [0] * (self.ncols + 1)
        ints[S], ints[T] = L, -L
        base = self.layout.q_base[T]
        for i in items:
            ints[base + i] = signed[i][T >> i & 1] * (L // dens[i])
        return ints, ">=", L


def build_lp1(inst: OMDInstance) -> LPProblem:
    """The full revenue program: maximize expected price over BIC + IR + PROB.

    Variables u(S) >= 0 (IR) for every type and 0 <= q_i(S) <= 1 for every
    type/item pair; one truthfulness row per ordered pair of distinct types,
    S-major. It is built on `Fraction`s, apart from `solve_lp1`'s int rows,
    and is the reference the tests hold those rows to.
    """
    n = inst.n
    check_lp1_guard(n)
    layout = _lp1_layout(n)
    labels, u, q = layout.labels, layout.u, layout.q
    # type S values item i at a_i, or a_i + d_i when i is in S
    values = [(ai, ai + di) for ai, di in zip(inst.a, inst.d)]
    objective = {}
    for S, (uS, qS, pS) in enumerate(zip(u, q, subset_probs(inst.p))):
        objective[uS] = -pS
        for i, name in enumerate(qS):
            objective[name] = pS * values[i][S >> i & 1]
    # row (S, T) weighs q_i(T), i in S ^ T, by v_T,i - v_S,i: -d_i for i in
    # S, d_i for i in T
    weights = [(-di, di) for di in inst.d]
    types = range(1 << n)
    constraints = []
    for S in types:
        for T in types:
            if S != T:
                coeffs = {u[S]: ONE, u[T]: -ONE}
                for i, name in enumerate(q[T]):
                    if (S ^ T) >> i & 1:
                        coeffs[name] = weights[i][T >> i & 1]
                constraints.append(
                    Constraint(coeffs, ">=", ZERO, name=f"bic({labels[S]}|{labels[T]})"))
    upper = {name: ONE for qS in q for name in qS}
    return LPProblem(layout.variables, objective, "max", constraints, upper=upper)


def solve_lp1(inst: OMDInstance) -> LPSolution:
    """The full revenue program's optimum, by constraint generation on
    `_LP1Frame`'s int rows, handed straight to `_simplex_max`. The first
    program holds only the adjacent truthfulness rows (types one item
    apart, both directions, in `build_lp1`'s order) and the bounds u >= 0,
    0 <= q <= 1: a relaxation of the full program, feasible at u = q = 0 and
    bounded. The simplex holds the layout's fixed columns, q_i(S) for i in
    S, at 1, and solves for the others; the rows stay LP1's full rows, and
    the proof reads every column. Each answer is proved in three parts, on
    the simplex's column values, ints over their least common denominator:

      * its bounds: u >= 0 and 0 <= q <= 1;
      * its rows: every one of the full program's 4^n truthfulness rows is
        replayed by `scaled_bic_violations`. A violated row the program holds
        raises `VerificationError`, so at most 4^n rows are ever added; the
        other violated rows are appended and the program solved again;
      * its optimality, once no row is violated: `_check_duals` proves the
        simplex's multipliers, with every q bound priced, the fixed ones
        included, a dual certificate for the last program whose bound
        equals c.x. Extended by zeros they are dual-feasible for the full
        program, so the answer is the full optimum.

    The full program itself is never built. The answer keeps those ints;
    its `Fraction` assignment is built only when read."""
    frame = _LP1Frame(inst)
    layout = frame.layout
    rows = [frame.row(S, T) for S, T in layout.adjacent]
    held = set(layout.adjacent)
    while True:
        outcome = _simplex_max(frame.ncols, rows, frame.objective, layout.upper, layout.fixed)
        if outcome.status != OPTIMAL:
            raise VerificationError(f"the restricted full program is {outcome.status}")
        ints, X = outcome.colvals, outcome.colden
        for j, a in enumerate(ints):
            if a < 0 or a > X and j in layout.upper:
                side = "lower" if a < 0 else "upper"
                raise VerificationError(
                    f"assignment violates {side} bound of {layout.variables[j]}")
        violated = [(S, T) for S, T, _ in scaled_bic_violations(frame.D, frame.M, ints)]
        if not violated:
            obj, scale = frame.objective
            value = Fraction(sum(map(mul, obj, ints)), scale * X)
            _check_duals(rows, frame.objective, layout.upper, outcome, value)
            return LPSolution(OPTIMAL, value, layout.variables, ints, X)
        # the answer should meet every row it was solved under; a held row
        # reported broken would come back every round
        if not held.isdisjoint(violated):
            raise VerificationError("the replay breaks a truthfulness row the program holds")
        held.update(violated)
        # a new list, so each round's program stays as the simplex got it
        rows = rows + [frame.row(S, T) for S, T in violated]


def build_lp2(params: LP2Params) -> LPProblem:
    """The relaxed program: utilities only, adjacent-type rows, u >= 0 bounds."""
    n = params.n
    check_guard(n, LP23_GUARD, "enumeration guard")
    subsets = range(1 << n)
    objective = {u_var(S): balance for S, balance in enumerate(node_balances(params))}
    constraints = []
    for S in subsets:
        for i in range(n):
            if S >> i & 1:
                continue
            constraints.append(
                Constraint(
                    {u_var(S | 1 << i): ONE, u_var(S): -ONE},
                    "<=",
                    params.d[i],
                    name=f"bic2({subset_label(S)}|{i + 1})",
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
    check_guard(n, LP23_GUARD, "enumeration guard")
    subsets = range(1 << n)
    variables = []
    objective = {}
    for S in subsets:
        for i in range(n):
            if S >> i & 1:
                continue
            name = edge_var(S, i)
            variables.append(name)
            objective[name] = params.d[i]
    constraints = []
    for S, rhs in enumerate(node_balances(params)):
        coeffs = {}
        for i in range(n):
            if not S >> i & 1:
                coeffs[edge_var(S, i)] = -ONE
        for i in range(n):
            if S >> i & 1:
                coeffs[edge_var(S ^ 1 << i, i)] = ONE
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
