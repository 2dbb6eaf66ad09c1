"""The counting-hardness reduction chain, instantiated and checkable.

Three layers, each exact:

  * subset-sum counting -> rank queries: the gadget embeds a counting
    instance into a family of integer collections whose special set's rank
    reveals the per-cardinality counts via a unit-triangular inversion;
  * rank queries -> mechanism instances: an integer collection is encoded
    into lattice costs (scaled by 2^(n+1), with 2^i tie-break terms) so that
    the k-th cheapest node at the relevant level corresponds to the k-th
    ranked same-size subset, and a probability parameter is isolated by exact
    bisection so that precisely that node ends up partially filled;
  * decision extraction: the probe type's allocation probability for the
    distinguished item is exactly 0 or 1 and answers the rank query. It is
    `FlowSolution.allocation`, read off the greedy flow's integer costs at
    the probe and the probe plus the distinguished item; the full menu is
    built only when `ReductionOutput.mechanism` is read, once per (C, |S|, k).

All searches and evaluations are exact rational arithmetic. The bisection
returns its first dyadic midpoint whose exact `eval_f` value lies strictly
inside the target window, and the builder then checks that the partially
filled node is the targeted one, so no step depends on a numeric bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Sequence

from .core import (
    LP2Params,
    OMDInstance,
    Subset,
    ZERO,
    ONE,
    check_mask,
    check_nonnegative_int,
    check_positive_ints,
    check_subset,
    document_fields,
    format_rational,
    from_lp2_params,
    subset_label,
    subset_sums,
)
from .errors import InputError, PreconditionError, VerificationError
from .lattice import LATTICE_GUARD, FlowSolution, canonical_solution
from .mechanism import Mechanism, closed_form_mechanism

# The rank oracle enumerates binom(n, |S|) subsets: `lexrank_oracle` took
# 0.97 s at |C| = 22, |S| = 11 (2 vCPUs, Python 3.11), its worst size there.
LEXRANK_GUARD = 22
# The staged inversion runs n rank evaluations on up to 2n items:
# `count_subsetsum` took 0.45 s at |W| = 10 on the same machine.
SUBSETSUM_GUARD = 10


# ---------------------------------------------------------------------------
# Rank semantics
# ---------------------------------------------------------------------------
#
# Same-sum ties are broken lexicographically: S1 precedes S2 when the largest
# item of their symmetric difference lies in S2, which on masks is S1 < S2.


def lexrank_oracle(C: Sequence[int], S: Subset) -> int:
    """Rank of the mask S among same-cardinality subsets of {1..len(C)},
    ordered by subset sum with lexicographic tie-breaking; counts S itself,
    so >= 1.

    Brute-force enumeration; guarded at |C| <= 22.
    """
    C = check_positive_ints(C, "C")
    n = len(C)
    if n > LEXRANK_GUARD:
        raise PreconditionError(f"|C|={n} exceeds the enumeration guard {LEXRANK_GUARD}")
    S = check_mask(S, n, field="S")
    target_sum = sum(c for i, c in enumerate(C) if S >> i & 1)
    rank = 0
    for combo in combinations(range(n), S.bit_count()):
        total = sum(C[i] for i in combo)
        if total < target_sum:
            rank += 1
        elif total == target_sum and sum(1 << i for i in combo) <= S:
            rank += 1
    return rank


# ---------------------------------------------------------------------------
# Subset-sum counting via rank queries
# ---------------------------------------------------------------------------

def subsetsum_gadget(W: Sequence[int], T: int, ell: int) -> tuple[tuple[int, ...], Subset]:
    """Stage-ell collection and its special set.

    Entries: 4n*w_i for the original weights, 4n*T + 2n for the pivot
    element n+1, and ell-1 trailing ones; the special set is the pivot plus
    all trailing ones, so its sum is 4n*T + 2n + ell - 1.
    """
    W = check_positive_ints(W, "W")
    n = len(W)
    check_nonnegative_int(T, "T")
    if not 1 <= ell <= n:
        raise PreconditionError(f"ell must lie in 1..{n}, got {ell}")
    C = [4 * n * w for w in W]
    C.append(4 * n * T + 2 * n)
    C.extend([1] * (ell - 1))
    special = ((1 << ell) - 1) << n  # items n+1..n+ell
    return tuple(C), special


def count_subsets_of_size(W: Sequence[int], T: int, size: int) -> int:
    """Number of size-``size`` subsets of {1..n} with weight sum <= T
    (direct enumeration)."""
    W = check_positive_ints(W, "W")
    return sum(1 for combo in combinations(W, size) if sum(combo) <= T)


def count_subsetsum(W: Sequence[int], T: int) -> int:
    """Number of subsets (including the empty set) with sum <= T.

    Computed two ways -- direct enumeration, and the staged gadget inversion
    that recovers each per-cardinality count from one rank query -- which
    must agree exactly.
    """
    W = check_positive_ints(W, "W")
    n = len(W)
    check_nonnegative_int(T, "T")
    if n > SUBSETSUM_GUARD:
        raise PreconditionError(
            f"|W|={n} exceeds the staged-inversion guard {SUBSETSUM_GUARD}"
        )

    direct = sum(1 for total in subset_sums(W) if total <= T)

    # Stage ell reveals count(T, ell) once counts for smaller sizes are known:
    # rank(stage ell) = 1 + sum_{m<=ell} count(T, m) * binom(ell-1, ell-m).
    counts: dict[int, int] = {}
    for ell in range(1, n + 1):
        C_ell, S_ell = subsetsum_gadget(W, T, ell)
        rank = lexrank_oracle(C_ell, S_ell)
        acc = rank - 1
        for m in range(1, ell):
            acc -= counts[m] * comb(ell - 1, ell - m)
        counts[ell] = acc
    staged = 1 + sum(counts.values())

    if staged != direct:
        raise VerificationError(
            f"staged inversion gives {staged}, direct enumeration gives {direct}"
        )
    return direct


# ---------------------------------------------------------------------------
# Parameter search
# ---------------------------------------------------------------------------

def _check_ints(**values) -> None:
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise InputError(f"{name}: expected an integer, got {value!r}")


def eval_f(n: int, s: int, p: Fraction) -> Fraction:
    """Exact value of the saturation ratio at probability p: surplus left
    over once all lattice levels above the target one are saturated, divided
    by the combined capacity of one node pair at the target level. p must be
    a `Fraction`: a float would be evaluated at its binary value."""
    _check_ints(n=n, s=s)
    if not isinstance(p, Fraction):
        raise InputError(f"p: expected a Fraction, got {p!r}")
    if not ZERO < p < ONE:
        raise PreconditionError(f"p must lie in (0,1), got {format_rational(p)}")
    if not 1 <= s <= n - 1:
        raise PreconditionError(f"s must lie in 1..{n - 1}, got {s}")
    q = ONE - p
    numerator = ZERO
    for i in range(n - s + 1, n + 1):
        numerator += comb(n, i) * p**i * q ** (n - i) * (2 * (i + p - n) - 1)
    denominator = p ** (n - s) * q**s * (2 * s - 2 * p + 1)
    return numerator / denominator


def _dyadic_between(lo: Fraction, hi: Fraction) -> Fraction:
    """A dyadic rational strictly inside (lo, hi), near the midpoint.

    With width = num/den in lowest terms, t = bl(den) - bl(num) + 3 (bl the
    bit length) gives 2^t * num >= 2^(bl(den)+2) > 4 * den, so rounding the
    midpoint down to a multiple of 2^-t moves it by under width/4. t >= 1
    for widths below 4; `_find_parameter`'s brackets are under 1/2."""
    width = hi - lo
    t = width.denominator.bit_length() - width.numerator.bit_length() + 3
    center2 = lo + hi  # midpoint * 2
    m = (center2.numerator << (t - 1)) // center2.denominator
    cand = Fraction(m, 1 << t)
    if not lo < cand < hi:  # cannot happen with 2^t * width > 4
        raise VerificationError("dyadic midpoint fell outside the bracket")
    return cand


@lru_cache(maxsize=None)
def _find_parameter(n: int, s: int, k: int) -> Fraction:
    """The first dyadic bisection midpoint of [1/2, 1 - 1/(2n+2)] whose
    exact eval_f value lies strictly inside the window (k - 1/(2n+2), k).

    The loop ends. Each step cuts the bracket to at most 3/4 of its width
    and keeps f(lo) below the window's top and f(hi) above its bottom, as
    the endpoint checks start them. f is continuous on the bracket (though
    not monotone), so brackets closing on one point without a hit would put
    f there both at or below the window and at or above it, or break one of
    those two bounds.
    """
    window_lo = Fraction(k) - Fraction(1, 2 * n + 2)
    window_hi = Fraction(k)
    lo = Fraction(1, 2)
    hi = ONE - Fraction(1, 2 * n + 2)
    if eval_f(n, s, lo) >= window_hi:
        raise VerificationError("left endpoint already reaches the top of the window")
    if eval_f(n, s, hi) <= window_lo:
        raise VerificationError("right endpoint does not reach the window")
    while True:
        mid = _dyadic_between(lo, hi)
        fm = eval_f(n, s, mid)
        if fm <= window_lo:
            lo = mid
        elif fm >= window_hi:
            hi = mid
        else:
            return mid


def find_parameter(n: int, s: int, k: int) -> Fraction:
    """A dyadic probability p in [1/2, 1 - 1/(2n+2)) with
    eval_f(n, s, p) strictly inside (k - 1/(2n+2), k), verified exactly."""
    _check_ints(n=n, s=s, k=k)
    if not 1 <= s <= n - 1:
        raise PreconditionError(f"s must lie in 1..{n - 1}, got {s}")
    if not 1 <= k <= comb(n, s):
        raise PreconditionError(f"k must lie in 1..C({n},{s})={comb(n, s)}, got {k}")
    return _find_parameter(n, s, k)


# ---------------------------------------------------------------------------
# Rank query -> mechanism instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionOutput:
    """The constructed instance, its parameters and its greedy flow, plus
    the probe that reads the rank query's answer off the closed-form
    mechanism."""

    instance: OMDInstance
    params: LP2Params
    probe_type: Subset
    distinguished_item: int
    flow: FlowSolution = field(repr=False)
    _mechanism: Callable[[], Mechanism] = field(repr=False)

    def __post_init__(self):
        n = self.instance.n - 1
        if not Fraction(1, 2) <= self.p_tilde < ONE - Fraction(1, 2 * n + 2):
            raise VerificationError("p_tilde fell outside its admissible interval")

    @property
    def p_tilde(self) -> Fraction:  # every item's bisected probability
        return self.params.p[0]

    @property
    def target_T_star(self) -> Subset:  # the builder checked it is the target
        return self.flow.partially_filled

    @property
    def mechanism(self) -> Mechanism:
        """The closed-form mechanism, built on first access and shared by
        every probe set of the same size."""
        return self._mechanism()

    def decision(self) -> bool:
        """The probe type's allocation probability for the distinguished
        item, which must be exactly 0 (NO) or 1 (YES): the flow's
        q_i(P) for the probe P, read without building the menu."""
        probe_q = self.flow.allocation(self.probe_type, self.distinguished_item - 1)
        if probe_q == ONE:
            return True
        if probe_q == ZERO:
            return False
        raise VerificationError(
            f"probe allocation probability is {format_rational(probe_q)}, expected 0 or 1"
        )


def _reduction_d(C: tuple[int, ...]) -> tuple[Fraction, ...]:
    n = len(C)
    total = sum(C)
    scale = 1 << (n + 1)
    d = [Fraction(scale * (c + total) + (1 << i)) for i, c in enumerate(C, start=1)]
    d.append(ONE)
    return tuple(d)


def _validate_rank_query(n: int, S: Subset, k, error=PreconditionError) -> None:
    """|S| and k of a rank query over n items as the reduction needs them;
    out-of-range values raise ``error``, so the JSON parser can report them
    as input errors."""
    s = S.bit_count()
    if s in (0, n):
        raise error(f"S: |S| must lie in 1..{n - 1} for the reduction, got {s}")
    if not isinstance(k, int) or isinstance(k, bool):
        raise InputError(f"k: expected an integer, got {k!r}")
    if not 1 <= k <= comb(n, s):
        raise error(f"k: must lie in 1..C({n},{s})={comb(n, s)}, got {k}")


@lru_cache(maxsize=256)
def _build_reduction(
    C: tuple[int, ...], s: int, k: int
) -> tuple[LP2Params, OMDInstance, FlowSolution, Callable[[], Mechanism]]:
    """Parameters, instance, greedy flow and the builder of the closed-form
    mechanism for a validated query, which runs once, on its first call.
    They depend on (C, |S|, k) only, so sweeping all probe sets S of one
    size reuses a single pipeline run."""
    n = len(C)
    if n + 1 > LATTICE_GUARD:
        raise PreconditionError(
            f"|C|={n} gives a lattice on {n + 1} items, past the lattice "
            f"guard {LATTICE_GUARD}"
        )
    p_tilde = find_parameter(n, s, k)
    params = LP2Params(
        n=n + 1,
        x=(Fraction(2),) * (n + 1),
        B=Fraction(2 * n + 1),
        d=_reduction_d(C),
        p=(p_tilde,) * (n + 1),
    )
    instance, _ = from_lp2_params(params)
    flow = canonical_solution(params)
    level = sorted(
        (T for T in range(1 << n) if T.bit_count() == n - s),
        key=lambda T: (flow.costs[T], T),
    )
    target = level[k - 1]
    if flow.partially_filled is None:
        raise VerificationError(
            "parameter search failed to produce a strictly partially filled node"
        )
    if flow.partially_filled != target:
        raise VerificationError(
            f"partially filled node {subset_label(flow.partially_filled)} is not "
            f"the targeted node {subset_label(target)}"
        )
    mechanism = cache(lambda: closed_form_mechanism(instance, flow))
    return params, instance, flow, mechanism


def lexrank_to_omd(C: Sequence[int], S: Subset, k: int) -> ReductionOutput:
    """Construct the instance whose unique optimal mechanism answers the
    rank query (C, S, k) through the probe type's distinguished item."""
    C = check_positive_ints(C, "C")
    n = len(C)
    S = check_mask(S, n, field="S")
    _validate_rank_query(n, S, k)
    params, instance, flow, mechanism = _build_reduction(C, S.bit_count(), k)
    return ReductionOutput(
        instance=instance,
        params=params,
        probe_type=((1 << n) - 1) ^ S,
        distinguished_item=n + 1,
        flow=flow,
        _mechanism=mechanism,
    )


def decide_lexrank(C: Sequence[int], S: Subset, k: int) -> bool:
    """End-to-end decision: is the rank of S at most k?"""
    return lexrank_to_omd(C, S, k).decision()


# ---------------------------------------------------------------------------
# CLI input documents
# ---------------------------------------------------------------------------

def rank_query_from_json_dict(doc) -> tuple[tuple[int, ...], Subset, int]:
    """Parse {"C": [ints], "S": [indices], "k": int}."""
    C, S, k = document_fields(doc, "rank query document", "C", "S", "k")
    if not isinstance(C, list):
        raise InputError("C: expected a list of positive integers")
    if not isinstance(S, list):
        raise InputError("S: expected a list of item indices")
    C = check_positive_ints(C, "C")
    S = check_subset(S, len(C), field="S")
    _validate_rank_query(len(C), S, k, error=InputError)
    return C, S, k


def counting_query_from_json_dict(doc) -> tuple[tuple[int, ...], int]:
    """Parse {"W": [ints], "T": int}."""
    W, T = document_fields(doc, "counting query document", "W", "T")
    if not isinstance(W, list):
        raise InputError("W: expected a list of positive integers")
    return check_positive_ints(W, "W"), check_nonnegative_int(T, "T")
