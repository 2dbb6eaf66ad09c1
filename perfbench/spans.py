"""Span tracing from outside the package.

`instrument` replaces each layer-entry function with a timing wrapper in
every module of the package that binds it (the home module, the callers that
imported it by name, the package root), so calls such as
`optmech.budgeted.solve_lp` are caught where the caller looks them up. The
returned callable puts the originals back.

Spans live only for the op in flight: `Tracer.end_op` folds them into
per-name totals and drops them, so memory stays flat however long a run is.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None  # index of the parent span within the op, None for the root
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _lp_counts(args, kwargs, result):
    prob = args[0] if args else kwargs["prob"]
    bits = 0
    for value in result.assignment.values():
        bits = max(bits, value.numerator.bit_length(), value.denominator.bit_length())
    return {
        "rows": len(prob.constraints),
        "cols": len(prob.variables),
        "nonzeros": sum(1 for con in prob.constraints for c in con.coeffs.values() if c),
        "answer_bits": bits,
    }


def _verify_counts(args, kwargs, result):
    return {"rows": result.bic_checked + result.ir_checked + result.prob_checked}


def _flow_counts(args, kwargs, result):
    return {"nodes": 1 << result.n}


# The layer-entry functions, by "<module>.<function>", with the counts read
# off each call. Helpers (item_range, check_subset, subset_label, u_var, ...)
# are deliberately absent: they run hundreds of thousands of times per run.
TARGETS = {
    "core.instance_from_json": None,
    "core.to_lp2_params": None,
    "lattice.canonical_solution": _flow_counts,
    "mechanism.closed_form_mechanism": None,
    "mechanism.verify_bic_ir": _verify_counts,
    "mechanism.expected_revenue": None,
    "exactlp.build_lp1": None,
    "exactlp.solve_lp": _lp_counts,
    "reduction.find_parameter": None,
    "reduction.eval_f": None,
    "reduction.lexrank_to_omd": None,
    "reduction.decide_lexrank": None,
    "reduction.lexrank_oracle": None,
    "budgeted.budgeted_oracle_lp": None,
    "budgeted.optimal_budgeted_mechanism": None,
    "budgeted.menu_is_bic_ir": None,
}

ROOT = "cli.main"
LAYERS = ("cli", "core", "lattice", "mechanism", "exactlp", "reduction", "budgeted")


class Tracer:
    """Records nested spans of one op at a time and accumulates, per span
    name, calls, inclusive and self seconds and summed counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.ops = 0
        self.spans: list[Span] = []
        self.open: list[int] = []
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(Counter)
        self.max_counts = defaultdict(Counter)  # per name: sum over ops of the per-op max
        self.raised = Counter()
        self.parameter_hits = 0  # find_parameter spans with no eval_f child

    def enter(self, name: str) -> int:
        parent = self.open[-1] if self.open else None
        self.spans.append(Span(name, parent, self.clock()))
        self.open.append(len(self.spans) - 1)
        return self.open[-1]

    def exit(self, index: int, raised: bool = False) -> None:
        span = self.spans[index]
        span.end = self.clock()
        self.open.pop()
        if raised:
            self.raised[span.name.split(".", 1)[0]] += 1

    def end_op(self) -> None:
        """Fold the finished op's spans into the totals and forget them."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        children = [set() for _ in spans]
        for span in spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
                children[span.parent].add(span.name)
        op_max = defaultdict(Counter)
        for i, span in enumerate(spans):
            duration = span.end - span.start
            self.calls[span.name] += 1
            self.total_s[span.name] += duration
            self.self_s[span.name] += duration - child_s[i]
            self.counts[span.name].update(span.counts)
            for key, value in span.counts.items():
                op_max[span.name][key] = max(op_max[span.name][key], value)
            if span.name == "reduction.find_parameter" and "reduction.eval_f" not in children[i]:
                self.parameter_hits += 1
        for name, maxima in op_max.items():
            self.max_counts[name].update(maxima)
        self.ops += 1
        self.spans = []
        self.open = []


def _wrap(tracer: Tracer, name: str, func, count):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = tracer.enter(name)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            tracer.exit(index, raised=True)
            raise
        tracer.exit(index)
        if count is not None:
            tracer.spans[index].counts = count(args, kwargs, result)
        return result

    return traced


def instrument(tracer: Tracer, package: str = "optmech"):
    """Wrap every TARGETS function wherever the package binds it; return a
    callable that restores the originals."""
    modules = [
        module for key, module in list(sys.modules.items())
        if module is not None and (key == package or key.startswith(package + "."))
    ]
    patched = []
    for target, count in TARGETS.items():
        home, attr = target.split(".")
        original = getattr(sys.modules[f"{package}.{home}"], attr)
        wrapper = _wrap(tracer, target, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    patched.append((module, key, original))

    def restore():
        for module, key, original in patched:
            setattr(module, key, original)

    return restore


def layer_metrics(tracer: Tracer, repeat_share: float, overhead_frac: float) -> dict:
    """Per-op means of the traced phase, named as in BENCHMARK.json."""
    ops = max(tracer.ops, 1)
    t, s, c, calls = tracer.total_s, tracer.self_s, tracer.counts, tracer.calls

    def ms(seconds):
        return (seconds * 1e3 / ops, "ms")

    def per_op(value, unit="count"):
        return (value / ops, unit)

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    lp, verify, flow = "exactlp.solve_lp", "mechanism.verify_bic_ir", "lattice.canonical_solution"
    fp = "reduction.find_parameter"
    out = {
        "exactlp.solve_lp.ms": ms(t[lp]),
        "exactlp.solve_lp.calls": per_op(calls[lp]),
        "exactlp.solve_lp.rows": per_op(c[lp]["rows"]),
        "exactlp.solve_lp.cols": per_op(c[lp]["cols"]),
        "exactlp.solve_lp.nonzeros": per_op(c[lp]["nonzeros"]),
        "exactlp.solve_lp.answer_bits": per_op(tracer.max_counts[lp]["answer_bits"], "bits"),
        "exactlp.build_lp1.ms": ms(t["exactlp.build_lp1"]),
        "mechanism.verify_bic_ir.ms": ms(t[verify]),
        "mechanism.verify_bic_ir.rows": per_op(c[verify]["rows"]),
        "mechanism.verify_bic_ir.us_per_row": (
            t[verify] * 1e6 / c[verify]["rows"] if c[verify]["rows"] else 0.0, "us"),
        "mechanism.closed_form_mechanism.ms": ms(t["mechanism.closed_form_mechanism"]),
        "mechanism.expected_revenue.ms": ms(t["mechanism.expected_revenue"]),
        "lattice.canonical_solution.ms": ms(t[flow]),
        "lattice.canonical_solution.calls": per_op(calls[flow]),
        "lattice.nodes": per_op(c[flow]["nodes"]),
        "reduction.find_parameter.ms": ms(t[fp]),
        "reduction.find_parameter.calls": per_op(calls[fp]),
        "reduction.find_parameter.hit_ratio": ratio(tracer.parameter_hits, calls[fp]),
        "reduction.eval_f.calls": per_op(calls["reduction.eval_f"]),
        "reduction.lexrank_to_omd.self_ms": ms(s["reduction.lexrank_to_omd"]),
        "reduction.decide_lexrank.self_ms": ms(s["reduction.decide_lexrank"]),
        "reduction.lexrank_oracle.ms": ms(t["reduction.lexrank_oracle"]),
        "reduction.query_repeat_share": (repeat_share, "ratio"),
        "budgeted.budgeted_oracle_lp.self_ms": ms(s["budgeted.budgeted_oracle_lp"]),
        "budgeted.optimal_budgeted_mechanism.ms": ms(t["budgeted.optimal_budgeted_mechanism"]),
        "budgeted.menu_is_bic_ir.ms": ms(t["budgeted.menu_is_bic_ir"]),
        "core.instance_from_json.ms": ms(t["core.instance_from_json"]),
        "core.to_lp2_params.ms": ms(t["core.to_lp2_params"]),
        "cli.self_ms": ms(s[ROOT]),
    }
    for layer in LAYERS:
        out[f"{layer}.raised"] = per_op(tracer.raised[layer])
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
