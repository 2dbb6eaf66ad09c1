import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import optmech
from optmech import cli
from optmech.cli import main
from optmech.core import instance_from_json, to_lp2_params
from optmech.lattice import canonical_solution
from optmech.mechanism import (
    certify_bic_ir,
    closed_form_mechanism,
    mechanism_from_json_dict,
    verify_bic_ir,
)
from tests.test_mechanism import shaped_mechanism, zero_mechanism

LOTTERY = '{"n": 2, "a": ["1", "1"], "d": ["1", "2"], "p": ["1/2", "1/2"]}'
HALVES = '{"n": 2, "a": ["1/2", "3/2"], "d": ["1", "2"], "p": ["1/2", "1/2"]}'
ZERO_LOW = '{"n": 2, "a": ["0", "0"], "d": ["1", "1"], "p": ["1/2", "1/2"]}'
MULTI_POSITIVE = '{"n": 2, "a": ["10", "1/10"], "d": ["1", "1"], "p": ["1/2", "1/2"]}'

# the interpreter's cap on decimal digits per int <-> str conversion (0: none)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_lottery_menu(tmp_path, capsys):
    instance = write(tmp_path, "inst.json", LOTTERY)
    out_json = tmp_path / "mech.json"
    lattice_out = tmp_path / "lattice.txt"
    code = main(
        ["solve", instance, "--json-out", str(out_json), "--dump-lattice", str(lattice_out)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "price=4" in out
    assert "price=5/2" in out
    assert "expected revenue: 21/8" in out
    assert "violations=0" in out

    # emitted mechanism re-verifies cleanly when fed back through the checker
    doc = json.loads(out_json.read_text())
    mech = mechanism_from_json_dict(doc)
    inst = instance_from_json(LOTTERY)
    assert verify_bic_ir(inst, mech).ok

    dump = lattice_out.read_text()
    assert dump.count("node=") == 4


def test_solve_with_oracle(tmp_path, capsys):
    instance = write(tmp_path, "inst.json", HALVES)
    code = main(["solve", instance, "--oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "expected revenue: 41/16" in out
    assert "matches the full program optimum 41/16" in out


def test_solve_zero_low_rejected_then_oracle_only(tmp_path, capsys):
    instance = write(tmp_path, "inst.json", ZERO_LOW)
    code = main(["solve", instance])
    err = capsys.readouterr().err
    assert code == 2
    assert "a_i > 0" in err

    code = main(["solve", instance, "--oracle-only"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle optimal revenue: 1" in out


def test_solve_multi_positive_names_subset(tmp_path, capsys):
    instance = write(tmp_path, "inst.json", MULTI_POSITIVE)
    code = main(["solve", instance])
    err = capsys.readouterr().err
    assert code == 2
    assert "{1}" in err


def test_solve_bad_json_exit_1(tmp_path, capsys):
    instance = write(tmp_path, "inst.json", '{"n": 2, "a": ["1"], "d": ["1","1"], "p": ["1/2","1/2"]}')
    code = main(["solve", instance])
    err = capsys.readouterr().err
    assert code == 1
    assert "a" in err


def test_solve_missing_file_exit_1(capsys):
    assert main(["solve", "/nonexistent/instance.json"]) == 1


@pytest.mark.parametrize("argv", [
    ["solve"], ["sample", "--type", "1"], ["reduce", "lexrank"], ["budgeted"],
])
def test_non_utf8_input_exit_1(tmp_path, capsys, argv):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([*argv, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"input error: cannot read {path}: 'utf-8' codec")


@pytest.mark.parametrize("flag", ["--json-out", "--dump-lattice"])
def test_unwritable_output_path_exit_1(tmp_path, capsys, flag):
    instance = write(tmp_path, "inst.json", LOTTERY)
    for target in (tmp_path, tmp_path / "missing" / "out.txt"):
        assert main(["solve", instance, flag, str(target)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"input error: cannot write {target}: ")


def single_positive(n):
    """An n-item single-positive-node instance: with p_i = 1/2 and
    a_i / d_i = 1/(n - 1), sum(x) - min(x) < B < sum(x)."""
    d = [str(i) for i in range(1, n + 1)]
    a = [f"{i}/{n - 1}" for i in range(1, n + 1)]
    return json.dumps({"n": n, "a": a, "d": d, "p": ["1/2"] * n})


def test_solve_past_verification_guard_exit_2(tmp_path, capsys):
    # n = 15 is one past the lattice guard; the refusal comes before any
    # lattice work
    instance = write(tmp_path, "inst.json", single_positive(15))
    for argv in (["solve", instance], ["sample", instance, "--type", "1"]):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "lattice guard 14" in capsys.readouterr().err


def test_solve_and_sample_past_replay_guard_are_certified(tmp_path, capsys):
    # n = 11 is past the 4^n replay's guard of 10; the certificate covers
    # the same 4^11 - 2^11 truthfulness rows in about half a second
    instance = write(tmp_path, "inst.json", single_positive(11))
    rows = "verification: bic=4192256 ir=2048 prob=45056 violations=0"
    for argv in (["solve", instance], ["sample", instance, "--type", "1,3"]):
        t0 = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - t0 < 10.0
        assert rows in capsys.readouterr().out


def test_failed_certificate_exit_3(tmp_path, capsys, monkeypatch):
    # the certificate's first failing row is the error, with the residual of
    # a shape equality or the slack of a truthfulness row
    n = 3
    instance = write(tmp_path, "inst.json", single_positive(n))
    # u = 1 on every nonempty type is submodular: in closed-form shape, type
    # {1,2} gains d_1 q_1({}) + d_2 q_2({}) - 1 = 1 by reporting {}
    inst = instance_from_json(single_positive(n))
    submodular = shaped_mechanism(inst, [F(min(S, 1)) for S in range(1 << n)])
    for mech, row in ((zero_mechanism(n), "shape({1},1) with residual 1"),
                      (submodular, "bic({1,2}|{}) with slack -1")):
        monkeypatch.setattr(cli, "closed_form_mechanism", lambda inst, flow: mech)
        assert main(["solve", instance]) == 3
        assert f"constructed mechanism violates {row}" in capsys.readouterr().err


def test_oracle_past_full_program_guard_exit_2(tmp_path, capsys):
    # one LP1 solve would take minutes at n = 6; with --oracle the refusal
    # also comes before the closed form and its certificate
    for n in (6, 10):
        doc = {"n": n, "a": ["1"] * n, "d": ["1"] * n, "p": ["1/2"] * n}
        instance = write(tmp_path, "inst.json", json.dumps(doc))
        for flag in ("--oracle-only", "--oracle"):
            t0 = time.perf_counter()
            assert main(["solve", instance, flag]) == 2
            assert time.perf_counter() - t0 < 1.0
            assert "full-program enumeration guard 5" in capsys.readouterr().err


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    deep = write(tmp_path, "deep.json", "[" * 200000)
    for argv in (["solve", deep], ["reduce", "lexrank", deep], ["budgeted", deep]):
        assert main(argv) == 1, argv
        assert "input error:" in capsys.readouterr().err


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="no integer string digit limit")
def test_json_integer_past_digit_limit_is_an_input_error(tmp_path, capsys):
    big = "9" * (DIGIT_LIMIT + 701)  # 5001 digits at the default limit of 4300
    budget = write(tmp_path, "b.json", f'{{"x": [1, {big}], "budget": 2, "eps": "1/5"}}')
    rank = write(tmp_path, "r.json", f'{{"C": [1, {big}], "S": [1], "k": 1}}')
    for argv in (["budgeted", budget], ["reduce", "lexrank", rank]):
        t0 = time.perf_counter()
        assert main(argv) == 1, argv
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err


def test_solve_huge_rationals_exit_2(tmp_path, capsys):
    # 1000-digit numerators and denominators parse, but the multiple-positive
    # refusal would print a sum whose denominator has more digits than the
    # interpreter converts; that ends in the same exit 2, naming the limit
    rng = random.Random(3)
    huge = lambda: f"{rng.randrange(10**999, 10**1000)}/{rng.randrange(10**999, 10**1000)}"
    doc = {"n": 6, "a": [huge() for _ in range(6)], "d": [huge() for _ in range(6)],
           "p": ["1/2"] * 6}
    instance = write(tmp_path, "inst.json", json.dumps(doc))
    t0 = time.perf_counter()
    assert main(["solve", instance]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("precondition violated:") and "Traceback" not in err
    if DIGIT_LIMIT:
        assert f"more than {DIGIT_LIMIT} decimal digits" in err


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="no integer string digit limit")
def test_solve_menu_value_past_digit_limit_exit_2(tmp_path, capsys):
    # a_i = d_i with denominators of DIGIT_LIMIT // 2 + 40 digits: the
    # instance parses and certifies, but a price sums both items' values, so
    # its denominator has about twice that many digits and printing the menu
    # is what refuses
    rng = random.Random(5)
    digits = DIGIT_LIMIT // 2 + 40
    values = [f"{rng.randrange(1, 10**6)}/{rng.randrange(10**(digits - 1), 10**digits) | 1}"
              for _ in range(2)]
    text = json.dumps({"n": 2, "a": values, "d": values, "p": ["1/2", "1/2"]})
    inst = instance_from_json(text)
    mech = closed_form_mechanism(inst, canonical_solution(to_lp2_params(inst, F(1))))
    assert certify_bic_ir(inst, mech).ok
    assert max(v.denominator for v in mech.tau) >= 10**DIGIT_LIMIT
    instance = write(tmp_path, "inst.json", text)
    t0 = time.perf_counter()
    assert main(["solve", instance]) == 2
    # well under 1 s; the loose bound only catches a runaway conversion
    assert time.perf_counter() - t0 < 10.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition violated:")
    assert f"more than {DIGIT_LIMIT} decimal digits" in captured.err
    assert "Traceback" not in captured.err


# The whole menu block of `solve` on single_positive(3): types by size, then
# by index list, padded to fixed columns.
GOLDEN_MENU_N3 = """\
  type {}           u=0        q=(0, 0, 0)            price=0
  type {1}          u=0        q=(1, 0, 0)            price=3/2
  type {2}          u=0        q=(0, 1, 0)            price=3
  type {3}          u=0        q=(0, 0, 1)            price=9/2
  type {1,2}        u=0        q=(1, 1, 1/3)          price=5
  type {1,3}        u=0        q=(1, 1/2, 1)          price=13/2
  type {2,3}        u=0        q=(1, 1, 1)            price=8
  type {1,2,3}      u=1        q=(1, 1, 1)            price=8
"""


def test_solve_menu_block_golden(tmp_path, capsys):
    instance = write(tmp_path, "inst.json", single_positive(3))
    assert main(["solve", instance]) == 0
    out = capsys.readouterr().out
    block = out[out.index("menu: \n") + len("menu: \n"):out.index("expected revenue:")]
    assert block == GOLDEN_MENU_N3


def test_solve_custom_kappa_same_menu(tmp_path, capsys):
    instance = write(tmp_path, "inst.json", LOTTERY)
    code = main(["solve", instance, "--kappa", "7/3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "expected revenue: 21/8" in out


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_lexrank_yes(tmp_path, capsys):
    query = write(tmp_path, "q.json", '{"C": [1, 2], "S": [1], "k": 1}')
    code = main(["reduce", "lexrank", query])
    out = capsys.readouterr().out
    assert code == 0
    assert "decision: YES" in out
    assert "d: (34, 44, 1)" in out
    assert "target node T*: {2}" in out
    assert "oracle rank: 1 (agrees)" in out


def test_reduce_lexrank_no(tmp_path, capsys):
    query = write(tmp_path, "q.json", '{"C": [1, 2], "S": [2], "k": 1}')
    code = main(["reduce", "lexrank", query])
    out = capsys.readouterr().out
    assert code == 0
    assert "decision: NO" in out


def test_reduce_lexrank_empty_probe_usage_error(tmp_path, capsys):
    # empty S, S equal to all of C, k below 1 and k above C(3,1) = 3
    for S, k in (([], 1), ([1, 2, 3], 1), ([1], 0), ([1], 4)):
        doc = json.dumps({"C": [1, 2, 3], "S": S, "k": k})
        query = write(tmp_path, "q.json", doc)
        assert main(["reduce", "lexrank", query]) == 1, (S, k)
        assert "input error" in capsys.readouterr().err


def test_reduce_lexrank_past_lattice_guard_exit_2(tmp_path, capsys):
    query = write(tmp_path, "q.json", json.dumps({"C": list(range(1, 15)), "S": [1], "k": 1}))
    assert main(["reduce", "lexrank", query]) == 2
    assert "guard 14" in capsys.readouterr().err


def test_reduce_subsetsum(tmp_path, capsys):
    query = write(tmp_path, "q.json", '{"W": [1, 2], "T": 2}')
    code = main(["reduce", "subsetsum", query])
    out = capsys.readouterr().out
    assert code == 0
    assert "count: 3" in out


def test_reduce_unknown_kind_usage(tmp_path, capsys):
    query = write(tmp_path, "q.json", "{}")
    assert main(["reduce", "nonsense", query]) == 1


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

def test_examples_all_pass(capsys):
    code = main(["examples"])
    out = capsys.readouterr().out
    assert code == 0
    assert "9/4" in out
    assert "21/8" in out
    assert "FAIL" not in out
    assert out.count("PASS") == 5


def test_examples_failed_rows_print_the_table_then_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "expected_revenue", lambda inst, mech: F(0))
    assert main(["examples"]) == 3
    out, err = capsys.readouterr()
    assert out.count("PASS") == 3 and out.count("FAIL") == 2
    assert out.splitlines()[-1].startswith("elapsed: ")
    assert err == "verification failed: 2 worked-example rows failed\n"


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_deterministic(tmp_path, capsys):
    instance = write(tmp_path, "inst.json", LOTTERY)
    code = main(["sample", instance, "--type", "1", "--count", "200", "--seed", "7"])
    first = capsys.readouterr().out
    assert code == 0
    assert "price: 5/2" in first
    assert "item 1: allocated 200/200" in first
    code = main(["sample", instance, "--type", "1", "--count", "200", "--seed", "7"])
    second = capsys.readouterr().out
    assert code == 0
    # identical seed -> identical counts
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("elapsed")]
    assert strip(first) == strip(second)


def test_sample_empty_type(tmp_path, capsys):
    instance = write(tmp_path, "inst.json", LOTTERY)
    code = main(["sample", instance, "--type", "-", "--count", "10", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "price: 0" in out
    assert "item 1: allocated 0/10" in out


def test_sample_bad_type_usage(tmp_path, capsys):
    instance = write(tmp_path, "inst.json", LOTTERY)
    assert main(["sample", instance, "--type", "5", "--count", "10"]) == 1


@pytest.mark.parametrize("options, message", [
    (["--type", "1", "--count", "0"], "--count: must be >= 1, got 0"),
    (["--type", "1,x"], "--type: expected comma-separated indices, got '1,x'"),
])
def test_sample_bad_options_exit_1(tmp_path, capsys, options, message):
    instance = write(tmp_path, "inst.json", LOTTERY)
    assert main(["sample", instance, *options]) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_sample_past_count_guard_exit_2(tmp_path, capsys):
    # 2 * 10^9 item draws would run for hours; 2 * 2000001 is one past the guard
    instance = write(tmp_path, "inst.json", LOTTERY)
    for count in ("1000000000", "2000001"):
        t0 = time.perf_counter()
        assert main(["sample", instance, "--type", "1", "--count", count]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "sampling guard 4000000" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# budgeted
# ---------------------------------------------------------------------------

def test_budgeted_with_oracle(tmp_path, capsys):
    query = write(tmp_path, "b.json", '{"x": [1, 2], "budget": 2, "eps": "1/5"}')
    code = main(["budgeted", query, "--oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "unbudgeted entry: {1,2} at 3" in out
    assert "budgeted entry: {2} at 2" in out
    assert "expected revenue: 14/5" in out
    assert "matches the oracle optimum 14/5" in out


def test_budgeted_past_bundle_dp_guard_exit_2(tmp_path, capsys):
    # 40 power-of-two items reach 2^40 distinct sums: the DP would run for
    # hours, and it runs before the oracle's own guard of 10 items
    x = [1 << i for i in range(40)]
    doc = {"x": x, "budget": 1 << 39, "eps": f"1/{1 << 41}"}
    query = write(tmp_path, "b.json", json.dumps(doc))
    for argv in (["budgeted", query], ["budgeted", query, "--oracle"]):
        t0 = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - t0 < 1.0
        assert "guard 5000000" in capsys.readouterr().err


def test_budgeted_bad_eps_exit_1(tmp_path, capsys):
    query = write(tmp_path, "b.json", '{"x": [1, 2], "budget": 2, "eps": "1/2"}')
    assert main(["budgeted", query]) == 1


# ---------------------------------------------------------------------------
# usage
# ---------------------------------------------------------------------------

def test_no_command_usage(capsys):
    assert main([]) == 1


def test_unknown_flag_usage(tmp_path, capsys):
    instance = write(tmp_path, "inst.json", LOTTERY)
    assert main(["solve", instance, "--frobnicate"]) == 1


@pytest.mark.parametrize("flag", [
    ["--oracle"], ["--json-out", "m.json"], ["--dump-lattice", "l.txt"], ["--kappa", "2"],
])
def test_oracle_only_rejects_closed_form_flags(tmp_path, capsys, monkeypatch, flag):
    # the closed form these flags configure or emit never runs with
    # --oracle-only, so each pairing is refused rather than ignored
    monkeypatch.chdir(tmp_path)
    instance = write(tmp_path, "inst.json", LOTTERY)
    assert main(["solve", instance, "--oracle-only", *flag]) == 1
    err = capsys.readouterr().err
    assert flag[0] in err and "--oracle-only" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "inst.json"]


@pytest.mark.parametrize("argv, doc, field", [
    (["solve"], [], "instance document"),
    (["solve"], {"n": "2", "a": [], "d": [], "p": []}, "n:"),
    (["solve"], {"n": 1, "a": ["1"], "d": ["1"]}, "p: missing"),
    (["solve"], {"n": 1, "a": ["1"], "d": "1", "p": ["1/2"]}, "d: expected a list"),
    (["reduce", "lexrank"], "C", "rank query document"),
    (["reduce", "lexrank"], {"C": [1, 2], "S": [1]}, "k: missing"),
    (["reduce", "lexrank"], {"C": 3, "S": [1], "k": 1}, "C: expected a list"),
    (["reduce", "lexrank"], {"C": [1, 2], "S": 1, "k": 1}, "S: expected a list"),
    (["reduce", "subsetsum"], 7, "counting query document"),
    (["reduce", "subsetsum"], {"W": [1, 2]}, "T: missing"),
    (["reduce", "subsetsum"], {"W": "12", "T": 2}, "W: expected a list"),
    (["budgeted"], None, "budgeted document"),
    (["budgeted"], {"x": 3, "budget": 2, "eps": "1/5"}, "x: expected a list"),
    (["reduce", "lexrank"], {"C": [1, 2], "S": [1], "k": "1"}, "k: expected an integer"),
    (["reduce", "subsetsum"], {"W": [], "T": 1}, "W: must be nonempty"),
])
def test_malformed_documents_exit_1(tmp_path, capsys, argv, doc, field):
    path = write(tmp_path, "doc.json", json.dumps(doc))
    assert main([*argv, path]) == 1
    assert f"input error: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, doc, message", [
    (["reduce", "subsetsum"], {"W": [1] * 11, "T": 3}, "staged-inversion guard 10"),
    (["budgeted", "--oracle"], {"x": [1] * 11, "budget": 3, "eps": "1/20"}, "oracle guard 10"),
])
def test_enumeration_guards_exit_2(tmp_path, capsys, argv, doc, message):
    path = write(tmp_path, "doc.json", json.dumps(doc))
    assert main([*argv, path]) == 2
    assert message in capsys.readouterr().err


def test_python_m_optmech_runs_the_cli():
    # a source checkout runs the CLI without installing the console script
    src = str(Path(optmech.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "optmech", "examples"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "FAIL" not in done.stdout and done.stdout.count("PASS") == 5
