"""Exact-arithmetic foundations: rationals, item subsets, instances, parameters.

Every quantity in this package is exact: a `fractions.Fraction`, or ints
over a stated int scale; there is no floating point anywhere. The paper
numbers items 1..n; inside the package every item index is 0-based: item
``i`` is bit ``i`` of a mask and entry ``i`` of a per-item vector. A bidder
*type* is the set of items she values high, represented as an int mask; the
2^n types of an instance are ``range(1 << n)``, and per-type quantities are
lists indexed by mask. Integer masks order types lexicographically (the
larger top element sorts later). Item numbers are 1-based only where they
are printed: in labels, variable and row names, and messages.
`check_subset` turns a 1-based index list into a mask, and `subset_to_list`
/ `subset_label` turn a mask back for output; `types_by_size` lists every
mask with its label in the order `solve` prints its menu, built once per n.
`format_ratio` writes every rational the package prints, from a `Fraction`
(`format_rational`) or an int pair.

An instance is the triple of per-item low values ``a``, increments ``d`` and
high-value probabilities ``p``: item ``i`` is worth ``a[i]`` with probability
``1 - p[i]`` and ``a[i] + d[i]`` with probability ``p[i]``, independently.

`LP2Params` is the transformed parameterization ``(x, B, d, p)`` used by the
relaxed program and its flow dual; `to_lp2_params` / `from_lp2_params` map
between the two representations exactly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .errors import InputError, PreconditionError

# A type / lattice node: int mask, bit i set iff (0-based) item i is in the set.
Subset = int

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Rational parsing and formatting ("num/den" wire format)
# ---------------------------------------------------------------------------

def parse_rational(value, field: str = "value") -> Fraction:
    """Parse an external rational: "9/2", "-3/1", "4", or an int.

    Floats are rejected: the wire formats are exact by contract.
    """
    if isinstance(value, bool):
        raise InputError(f"{field}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return Fraction(int(num.strip()), int(den.strip()))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{field}: invalid rational {value!r}: {exc}") from None
    raise InputError(f"{field}: expected a rational string, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """Serialize exactly: "9/2" or, for integers, just "4", as `Fraction`'s
    own ``str`` writes it, through `format_ratio`."""
    return format_ratio(value.numerator, value.denominator)


def format_ratio(num: int, den: int) -> str:
    """The wire text of the rational num/den, den > 0, without building a
    `Fraction`: the pair is reduced by one gcd, and 0 and 1 skip even that.
    Every rational the package prints goes through here.

    A part with more decimal digits than the interpreter's int/str
    conversion limit makes ``str`` raise `ValueError`, which becomes a
    `PreconditionError` naming the limit.
    """
    if not num:
        return "0"
    if num == den:
        return "1"
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise PreconditionError(
            f"a rational with more than {sys.get_int_max_str_digits()} decimal "
            "digits exceeds the integer string conversion limit"
        ) from None


def over_common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """``values`` times the lcm L of their denominators, as ints, and L. The
    greedy, the closed-form menu's prices, `Mechanism.from_fractions`, the
    `Fraction` entry of the int truthfulness replay and LP1's int objective
    and replay all turn rationals into ints here."""
    pairs = [v.as_integer_ratio() for v in values]
    L = lcm(*{den for _, den in pairs})
    return [num * (L // den) for num, den in pairs], L


# ---------------------------------------------------------------------------
# Integer inputs (the reduction's collections, the budgeted values)
# ---------------------------------------------------------------------------

def check_positive_ints(values: Iterable, field: str) -> tuple[int, ...]:
    """A nonempty tuple of positive integers, or an `InputError` naming
    ``field`` and the first offending entry (1-based)."""
    out = tuple(values)
    if not out:
        raise InputError(f"{field}: must be nonempty")
    for i, v in enumerate(out, start=1):
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            raise InputError(f"{field}: entry {i} must be a positive integer, got {v!r}")
    return out


def check_nonnegative_int(value, field: str) -> int:
    """``value`` if it is a nonnegative integer, else an `InputError`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InputError(f"{field}: expected a nonnegative integer, got {value!r}")
    return value


def check_guard(size: int, guard: int, what: str, name: str = "n") -> None:
    """Refuse a count past its guard with the `PreconditionError`
    "{name}={size} exceeds the {what} {guard}"."""
    if size > guard:
        raise PreconditionError(f"{name}={size} exceeds the {what} {guard}")


# ---------------------------------------------------------------------------
# Subsets of the ground set {1..n}
# ---------------------------------------------------------------------------

def check_subset(S: Iterable[int], n: int, field: str = "subset") -> Subset:
    """Validate 1-based item indices against the ground set {1..n} and
    return their mask; repeated indices are allowed."""
    mask = 0
    for index in S:
        if not isinstance(index, int) or isinstance(index, bool) or not 1 <= index <= n:
            raise InputError(f"{field}: item index {index!r} out of range 1..{n}")
        mask |= 1 << (index - 1)
    return mask


def check_mask(S: Subset, n: int, field: str = "subset") -> Subset:
    """Validate a mask handed to the library against the ground set {1..n}."""
    if not isinstance(S, int) or isinstance(S, bool) or not 0 <= S < 1 << n:
        raise InputError(f"{field}: {S!r} is not a subset mask over items 1..{n}")
    return S


def subset_to_list(S: Subset) -> list[int]:
    """Canonical external form: sorted ascending 1-based indices."""
    return [i + 1 for i in range(S.bit_length()) if S >> i & 1]


def _label(names: Iterable[str]) -> str:
    """The label of the type whose 1-based indices, ascending, are ``names``."""
    return "{" + ",".join(names) + "}"


def subset_label(S: Subset) -> str:
    """Human-readable form used in dumps and constraint names: "{}", "{1,3}"."""
    return _label(map(str, subset_to_list(S)))


@cache
def types_by_size(n: int) -> tuple[tuple[Subset, str], ...]:
    """Every mask over items 1..n with its `subset_label`, ordered by size and
    then by ascending index list: "{}", "{1}", ..., "{n}", "{1,2}", ...
    Mask and label come from the same index tuple, so nothing is sorted;
    the order is built once per n."""
    bits = [1 << i for i in range(n)]
    names = [str(i + 1) for i in range(n)]
    return tuple([
        (sum(map(bits.__getitem__, items)), _label(map(names.__getitem__, items)))
        for k in range(n + 1) for items in combinations(range(n), k)
    ])


def subset_sums(values: Sequence) -> list:
    """sums[S] = the sum of values[i] over the items i of S, for every mask
    S over len(values) items; built by doubling from the int 0, one addition
    per entry, so int values give int sums and `Fraction` values `Fraction`s
    (sums[0] is the int 0 either way)."""
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def subset_products(factors: Sequence[tuple]) -> list:
    """prods[S] = prod_{i in S} f_i * prod_{j not in S} g_j over
    factors[i] = (f_i, g_i), for every mask S over len(factors) >= 1
    items; built by doubling, one multiplication per entry, so int factors
    give int products and `Fraction` factors `Fraction`s."""
    prods = [1]
    for f, g in factors:
        prods = [v * g for v in prods] + [v * f for v in prods]
    return prods


def subset_probs(p: Sequence[Fraction]) -> list[Fraction]:
    """probs[S] = prod_{i in S} p_i * prod_{j not in S} (1 - p_j), for every
    mask S over len(p) items: the probability that the realized type is S."""
    return subset_products([(pi, ONE - pi) for pi in p])


def scaled_subset_probs(p: Sequence[Fraction]) -> tuple[list[int], int]:
    """`subset_probs` times scale = prod_i den(p_i), as ints, and scale:
    probs[S] is the product of num(p_i) over S and den(p_i) - num(p_i) off S."""
    probs = subset_products([(pi.numerator, pi.denominator - pi.numerator) for pi in p])
    return probs, prod(pi.denominator for pi in p)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

def _check_vectors(obj, fields: tuple[str, ...]) -> None:
    """Checks shared by `OMDInstance` and `LP2Params`: n an int >= 1, each
    vector field coerced to a tuple of n `Fraction` entries, every d_i > 0
    and every p_i in (0,1). A `Fraction`'s denominator is positive, so each
    sign and range check reads its numerator and denominator: d_i > 0 is
    num > 0, and 0 < p_i < 1 is 0 < num < den."""
    if not isinstance(obj.n, int) or isinstance(obj.n, bool):
        raise InputError(f"n: expected an integer, got {obj.n!r}")
    if obj.n < 1:
        raise InputError(f"n: must be >= 1, got {obj.n}")
    for field in fields:
        seq = getattr(obj, field)
        if not isinstance(seq, tuple):
            seq = tuple(seq)
            object.__setattr__(obj, field, seq)
        if len(seq) != obj.n:
            raise InputError(f"{field}: expected {obj.n} entries, got {len(seq)}")
        if not all(isinstance(v, Fraction) for v in seq):
            raise InputError(f"{field}: entries must be rationals")
    for i, v in enumerate(obj.d, start=1):
        if v.numerator <= 0:
            raise InputError(f"d: entry {i} must be > 0, got {format_rational(v)}")
    for i, v in enumerate(obj.p, start=1):
        if not 0 < v.numerator < v.denominator:
            raise InputError(f"p: entry {i} must lie in (0,1), got {format_rational(v)}")


@dataclass(frozen=True)
class OMDInstance:
    """A single additive bidder with independent two-point item values.

    ``d[i] > 0`` and ``0 < p[i] < 1`` always; ``a[i] >= 0``, where ``a[i] = 0``
    is admitted at the type level (the brute-force LP oracle handles it) but
    rejected by the structured pipeline via `to_lp2_params`.
    """

    n: int
    a: tuple[Fraction, ...]
    d: tuple[Fraction, ...]
    p: tuple[Fraction, ...]

    def __post_init__(self):
        _check_vectors(self, ("a", "d", "p"))
        for i, v in enumerate(self.a, start=1):
            if v.numerator < 0:
                raise InputError(f"a: entry {i} must be >= 0, got {format_rational(v)}")


@dataclass(frozen=True)
class LP2Params:
    """Parameters (x, B, d, p) of the relaxed program / lattice flow problem.

    ``kappa`` is not stored: the parameter map's identities force ``kappa ==
    B - sum_i p_i x_i`` when an instance is attached, so it is derived: 1
    after `to_lp2_params`, and other values for the reduction's parameters.
    It may be <= 0 for parameter vectors that do not correspond to any
    instance (still legal LP builder inputs, e.g. to witness infeasibility).
    """

    n: int
    x: tuple[Fraction, ...]
    B: Fraction
    d: tuple[Fraction, ...]
    p: tuple[Fraction, ...]

    def __post_init__(self):
        _check_vectors(self, ("x", "d", "p"))
        if not isinstance(self.B, Fraction) or self.B.numerator <= 0:
            raise InputError("B: must be a positive rational")
        for i, v in enumerate(self.x, start=1):
            if v.numerator <= 0:
                raise InputError(f"x: entry {i} must be > 0, got {format_rational(v)}")

    @property
    def kappa(self) -> Fraction:
        return self.B - sum((pi * xi for pi, xi in zip(self.p, self.x)), ZERO)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def type_vectors(inst: OMDInstance) -> list[tuple[Fraction, ...]]:
    """Valuation vector of every type S, by mask: component i is a_i + d_i
    if i is in S else a_i."""
    vecs = [()]
    for ai, di in zip(inst.a, inst.d):
        hi = ai + di
        vecs = [v + (ai,) for v in vecs] + [v + (hi,) for v in vecs]
    return vecs


def to_lp2_params(inst: OMDInstance) -> LP2Params:
    """Map an instance to relaxed-program parameters at kappa = 1:

        B = 1 + sum_i a_i/d_i    x_i = a_i / (p_i d_i)

    Requires every a_i > 0 (so that every x_i > 0); no answer depends on kappa.
    """
    for i, ai in enumerate(inst.a, start=1):
        if ai == 0:
            raise PreconditionError(
                f"a: entry {i} is 0; the structured pipeline requires a_i > 0"
            )
    B = ONE + sum((ai / di for ai, di in zip(inst.a, inst.d)), ZERO)
    x = tuple([ai / (pi * di) for ai, di, pi in zip(inst.a, inst.d, inst.p)])
    return LP2Params(n=inst.n, x=x, B=B, d=inst.d, p=inst.p)


def from_lp2_params(params: LP2Params) -> tuple[OMDInstance, Fraction]:
    """Invert the parameter map: kappa = B - sum p_i x_i, a_i = p_i d_i x_i / kappa.

    Requires B > sum p_i x_i strictly; `to_lp2_params` of the returned
    instance, with x and B times kappa, reproduces (x, B) exactly.
    """
    kappa = params.kappa
    if kappa <= 0:
        raise PreconditionError(
            "infeasible parameterization: B <= sum(p_i x_i) "
            f"(B = {format_rational(params.B)}, "
            f"sum = {format_rational(params.B - kappa)})"
        )
    a = tuple(pi * di * xi / kappa for pi, di, xi in zip(params.p, params.d, params.x))
    inst = OMDInstance(n=params.n, a=a, d=params.d, p=params.p)
    return inst, kappa


# ---------------------------------------------------------------------------
# Instance JSON document
# ---------------------------------------------------------------------------

def document_fields(doc, what: str, *fields: str) -> list:
    """The values of ``fields`` in the decoded JSON document ``doc``, in
    order, or an `InputError` naming ``what`` if ``doc`` is not an object,
    else naming the first missing field."""
    if not isinstance(doc, dict):
        raise InputError(f"{what}: expected a JSON object")
    for field in fields:
        if field not in doc:
            raise InputError(f"{field}: missing field")
    return [doc[field] for field in fields]


def instance_from_json_dict(doc) -> OMDInstance:
    """Parse {"n": int, "a": [...], "d": [...], "p": [...]}; errors name the field."""
    n, *vectors = document_fields(doc, "instance document", "n", "a", "d", "p")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"n: expected an integer, got {n!r}")
    seqs = []
    for field, raw in zip("adp", vectors):
        if not isinstance(raw, list):
            raise InputError(f"{field}: expected a list of rational strings")
        seqs.append(tuple([
            parse_rational(v, field=f"{field}[{i}]") for i, v in enumerate(raw, start=1)
        ]))
    return OMDInstance(n, *seqs)


def instance_to_json(inst: OMDInstance) -> str:
    """The instance document that `instance_from_json` reads, indented by 2."""
    doc = {
        "n": inst.n,
        "a": [format_rational(v) for v in inst.a],
        "d": [format_rational(v) for v in inst.d],
        "p": [format_rational(v) for v in inst.p],
    }
    return json.dumps(doc, indent=2) + "\n"


def decode_json(text: str, what: str):
    """json.loads for outside input: malformed or too deeply nested text, or
    an integer literal past the interpreter's digit limit, becomes an
    `InputError` naming the document."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError is one
        raise InputError(f"{what}: invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{what}: invalid JSON: nested too deeply") from None


def instance_from_json(text: str) -> OMDInstance:
    return instance_from_json_dict(decode_json(text, "instance document"))
