"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import filecmp
import os
from fractions import Fraction

import pytest

import inputs
import run
import spans

CLI = run.load_cli()
import optmech.budgeted as budgeted  # noqa: E402  (importable once load_cli put src/ first)
import optmech.exactlp as exactlp  # noqa: E402


def scripted_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # cli.main [0, 10] > budgeted_oracle_lp [1, 8] > solve_lp [2, 6]; cli.main > menu [8.5, 9]
    tracer = spans.Tracer(clock=scripted_clock([0.0, 1.0, 2.0, 6.0, 8.0, 8.5, 9.0, 10.0]))
    root = tracer.enter(spans.ROOT)
    oracle = tracer.enter("budgeted.budgeted_oracle_lp")
    lp = tracer.enter("exactlp.solve_lp")
    tracer.exit(lp)
    tracer.exit(oracle)
    menu = tracer.enter("budgeted.menu_is_bic_ir")
    tracer.exit(menu)
    tracer.exit(root)
    tracer.end_op()

    assert tracer.total_s["budgeted.budgeted_oracle_lp"] == 7.0
    assert tracer.self_s["budgeted.budgeted_oracle_lp"] == 3.0
    assert tracer.self_s["exactlp.solve_lp"] == 4.0
    assert tracer.self_s[spans.ROOT] == 10.0 - 7.0 - 0.5
    assert tracer.spans == [] and tracer.ops == 1
    metrics = spans.layer_metrics(tracer, 0.0, 0.0)
    assert metrics["budgeted.budgeted_oracle_lp.self_ms"] == (3000.0, "ms")
    assert metrics["cli.self_ms"] == (2500.0, "ms")


def test_instrument_catches_imported_names_and_restores():
    original = exactlp.solve_lp
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        assert budgeted.solve_lp is not original
        inst = budgeted.BudgetedInstance(x=(2, 3), budget=3, eps=Fraction(1, 10))
        root = tracer.enter(spans.ROOT)
        value = budgeted.budgeted_oracle_lp(inst)
        tracer.exit(root)
        names = [span.name for span in tracer.spans]
        parents = {span.name: span.parent for span in tracer.spans}
        tracer.end_op()
    finally:
        restore()
    assert budgeted.solve_lp is original and exactlp.solve_lp is original
    assert value == budgeted.optimal_budgeted_mechanism(inst).revenue
    assert names == [spans.ROOT, "budgeted.budgeted_oracle_lp", "exactlp.solve_lp"]
    assert parents["exactlp.solve_lp"] == names.index("budgeted.budgeted_oracle_lp")
    oracle = "budgeted.budgeted_oracle_lp"
    assert tracer.self_s[oracle] == pytest.approx(
        tracer.total_s[oracle] - tracer.total_s["exactlp.solve_lp"])
    assert tracer.counts["exactlp.solve_lp"]["rows"] == 6


def test_escaping_exception_counts_against_its_layer():
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        with pytest.raises(ValueError):
            budgeted.budgeted_oracle_lp(budgeted.BudgetedInstance(
                x=(1,) * 11, budget=1, eps=Fraction(1, 100)))
        tracer.end_op()
    finally:
        restore()
    assert tracer.raised == {"budgeted": 1}


def test_one_seed_regenerates_identical_files(tmp_path):
    for workload in run.WORKLOADS:
        first = inputs.write_pool(workload, 7, str(tmp_path / f"{workload}-a"), size=12)
        again = inputs.write_pool(workload, 7, str(tmp_path / f"{workload}-b"), size=12)
        other = inputs.write_pool(workload, 8, str(tmp_path / f"{workload}-c"), size=12)
        assert [op.expect for op in first] == [op.expect for op in again]
        for a, b in zip(first, again):
            assert filecmp.cmp(a.path, b.path, shallow=False)
        assert any(
            not filecmp.cmp(a.path, c.path, shallow=False) for a, c in zip(first, other)
        )


def test_counts_repeat_exactly_for_a_seed(tmp_path):
    def traced_counts(workload, directory):
        ops = inputs.write_pool(workload, 3, directory, size=16)
        loop = run.Loop(CLI.main, workload)
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
        try:
            run.counted_phase(loop, ops, 16, tracer)
        finally:
            restore()
        assert loop.failed == 0
        return dict(tracer.calls), {k: dict(v) for k, v in tracer.counts.items()}, \
            tracer.parameter_hits

    for workload in ("reduction", "budgeted", "certify"):
        first = traced_counts(workload, str(tmp_path / f"{workload}-a"))
        assert first == traced_counts(workload, str(tmp_path / f"{workload}-b"))


def test_gate_rejects_a_wrong_answer(tmp_path):
    ops = inputs.write_pool("reduction", 5, str(tmp_path), size=4)
    loop = run.Loop(CLI.main, "reduction")
    for op in ops:
        loop.run(op)
    assert loop.failed == 0
    flipped = inputs.Op(ops[0].argv, ops[0].path, {**ops[0].expect, "yes": not ops[0].expect["yes"]})
    loop.run(flipped)
    assert loop.failed == 1


def test_brute_rank_and_best_affordable():
    # C = (3, 1, 2): size-2 sums {1,2}=4, {1,3}=5, {2,3}=3
    assert [inputs.brute_rank([3, 1, 2], S) for S in ([2, 3], [1, 2], [1, 3])] == [1, 2, 3]
    # equal sums tie-break on the bitmask: {1} (mask 1) before {2} (mask 2)
    assert inputs.brute_rank([4, 4], [1]) == 1 and inputs.brute_rank([4, 4], [2]) == 2
    assert inputs.best_affordable([5, 3, 4], 8) == 8
    assert inputs.best_affordable([5, 3, 4], 2) == 0


def test_missing_package_source_exits_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.fspath(tmp_path / "src"))
    with pytest.raises(SystemExit) as exc:
        run.load_cli()
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""
