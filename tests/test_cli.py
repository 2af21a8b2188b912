"""Tests for the command-line interface: exit codes, formats, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thermobit import cli

DATA = Path(__file__).parent / "data" / "demo.tbit"
LOG2 = math.log(2.0)


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check -------------------------------------------------------------------------

def test_check_gibbs_distribution_passes(capsys):
    code, out, _ = run_cli(["check", str(DATA), "--dist", "fair"], capsys)
    assert code == 0
    assert "passed" in out


def test_check_sharp_bit_reports_one_bit(capsys):
    code, out, _ = run_cli(["check", str(DATA), "--dist", "sharp", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["available"] == pytest.approx(LOG2, rel=1e-14)
    assert payload["kl"]["bits"] == pytest.approx(1.0, rel=1e-14)
    assert payload["passed"] is True


def test_check_csv_format(capsys):
    code, out, _ = run_cli(["check", str(DATA), "--dist", "fair", "--format", "csv"], capsys)
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("partition_value,")
    assert len(header.split(",")) == len(row.split(","))


def test_check_malformed_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.tbit"
    bad.write_text("dist d\n  over ghost\n  probs 0.5 0.6\n")
    code, _, err = run_cli(["check", str(bad), "--dist", "d"], capsys)
    assert code == 1
    assert "line 3" in err
    assert "distribution must sum to 1 within 1e-09, got 1.1" in err


def test_check_unknown_dist_exits_one(capsys):
    code, _, err = run_cli(["check", str(DATA), "--dist", "ghost"], capsys)
    assert code == 1
    assert "no dist named" in err


def test_check_missing_file_exits_one(capsys):
    code, _, err = run_cli(["check", "/nonexistent/x.tbit", "--dist", "d"], capsys)
    assert code == 1
    assert "cannot read" in err


def test_check_violation_of_tightened_tolerance_exits_two(capsys):
    # the tilted distribution has a tiny but nonzero residual, so a zero
    # tolerance flags it
    code, out, _ = run_cli(
        ["check", str(DATA), "--dist", "tilted", "--tolerance", "0", "--format", "json"],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_json_renders_nonfinite_as_strings():
    assert cli._jsonify({"a": math.inf, "b": [-math.inf, 1.0]}) == {
        "a": "inf",
        "b": ["-inf", 1.0],
    }


def test_usage_error_exits_one(capsys):
    for args, message in [
        (["check"], "the following arguments are required: file, --dist"),
        (["sweep", "--seed", "abc"], "argument --seed: must be an integer, got 'abc'"),
        (["sweep", "--inject-violation"], "unrecognized arguments: --inject-violation"),
    ]:
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 1
        assert capsys.readouterr().err.strip().splitlines()[-1].endswith(f"error: {message}")


@pytest.mark.parametrize("args", [
    ["sweep", "--max-states", "1"],
    ["sweep", "--instances", "0"],
    ["sweep", "--instances", "-2"],
    ["sweep", "--steps", "0"],
    ["szilard", "--levels", "-1"],
    ["audit", str(DATA), "--channel", "mix", "--p0", "sharp", "--steps", "0"],
    ["sweep", "--seed", "-1"],
    ["sweep", "--seed=-5"],
    # numpy draws each sweep size as an int64 below --max-states + 1
    ["sweep", "--instances", "1", "--max-states", "99999999999999999999"],
    # the size drawn at this seed needs more bytes than numpy can count
    ["sweep", "--instances", "1", "--max-states", str(2**63 - 1), "--seed", "1"],
])
def test_degenerate_counts_are_usage_errors(args, capsys):
    try:
        code = cli.main(args)
    except SystemExit as exc:  # a value the argument's type rejects
        code = exc.code
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.search(r"must be at (least|most) |^error: Unable to allocate ",
                     err.strip().splitlines()[-1])


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_check_rejects_a_degenerate_tolerance(value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", str(DATA), "--dist", "sharp", "--tolerance", value])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be finite and non-negative" in err.strip().splitlines()[-1]
    assert "Traceback" not in err


_CHECK_FILE = """\
system s
  states a b
  temperature {temperature}
  boltzmann {boltzmann}
  energy a {energy}

dist d
  over s
  probs 0.5 0.5
"""


@pytest.mark.parametrize("args, values", [
    (["check", "FILE", "--dist", "d"], {"energy": "1e999"}),
    (["check", "FILE", "--dist", "d"], {"temperature": "1e999"}),
    (["check", "FILE", "--dist", "d"], {"boltzmann": "1e999"}),
    (["check", "FILE", "--dist", "d"], {"temperature": "1e200", "boltzmann": "1e200"}),
    (["bitop", "erase", "--temperature", "-1"], {}),
    (["bitop", "erase", "--kB", "nan"], {}),
    (["bitop", "copy-szilard", "--temperature", "inf"], {}),
    (["szilard", "--ratio", "nan"], {}),
    (["szilard", "--ratio", "1e-320"], {}),
    (["szilard", "--temperature", "0"], {}),
], ids=["energy", "temperature", "boltzmann", "kT", "bitop-temperature", "bitop-kB",
        "bitop-infinite-temperature", "szilard-ratio", "szilard-tiny-ratio",
        "szilard-temperature"])
def test_non_finite_or_non_positive_physical_inputs_are_usage_errors(
    args, values, tmp_path, capsys
):
    path = tmp_path / "system.tbit"
    path.write_text(_CHECK_FILE.format(
        **{"temperature": "1", "boltzmann": "1", "energy": "0", **values}))
    code, out, err = run_cli([str(path) if a == "FILE" else a for a in args], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("ratio", ["5e-324", "1e-320"])
def test_a_ratio_whose_reciprocal_overflows_is_named(ratio, capsys):
    code, out, err = run_cli(["szilard", "--ratio", ratio], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: ratio {float(ratio)!r} is too small: 1/ratio overflows\n"


@pytest.mark.parametrize("temperature, energies, overflow", [
    ("1", ("1e308", "-1e308"), "the energy spread over kT"),
    ("1e-300", ("1e300", "1e300"), "-E/kT"),
    ("1e-300", ("1e300", "-1e300"), "-E/kT"),
    # kT log 8 > 1.8e308: F(p) of the uniform p would be -inf, a false violation
    ("1e308", ("0",) * 8, "max|E| + kT log 8"),
], ids=["spread", "log-weights", "log-weights-opposite-signs", "flat-free-energy"])
def test_check_names_a_landscape_that_overflows(temperature, energies, overflow, tmp_path,
                                                capsys):
    states = [f"s{i}" for i in range(len(energies))]
    probs = " ".join([repr(1 / len(states))] * len(states))
    path = tmp_path / "system.tbit"
    path.write_text(f"system s\n  states {' '.join(states)}\n  temperature {temperature}\n"
                    + "".join(f"  energy {name} {e}\n" for name, e in zip(states, energies))
                    + f"\ndist d\n  over s\n  probs {probs}\n")
    code, out, err = run_cli(["check", str(path), "--dist", "d"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: line 1, col 1: {overflow} overflows for energies in ")
    assert err.count("\n") == 1


# -- audit -------------------------------------------------------------------------

def test_audit_mixing_chain_passes(capsys):
    code, out, _ = run_cli(
        ["audit", str(DATA), "--channel", "mix", "--p0", "sharp", "--steps", "50"], capsys
    )
    assert code == 0
    assert "monotone" in out


def test_audit_nonstationary_reference_exits_two(capsys):
    # 'tilted' is p0 and reference: D starts at zero and must rise
    code, out, _ = run_cli(
        ["audit", str(DATA), "--channel", "drift", "--p0", "tilted",
         "--reference", "tilted", "--format", "json"],
        capsys,
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["monotone"] is False
    assert payload["max_violation"] > 0


def test_audit_writes_trajectory_csv(tmp_path, capsys):
    target = tmp_path / "trajectory.csv"
    code, _, _ = run_cli(
        ["audit", str(DATA), "--channel", "mix", "--p0", "sharp",
         "--steps", "5", "--trajectory-csv", str(target)],
        capsys,
    )
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "step,p_1,p_2,D_nats,D_bits"
    assert len(lines) == 7


def test_audit_trajectory_csv_runs_the_chain_once(tmp_path, capsys, monkeypatch):
    from thermobit import markov

    calls = []
    original = markov.evolve

    def counting_evolve(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # replace evolve wherever a thermobit module has bound it by name
    for module in [m for name, m in sys.modules.items() if name.startswith("thermobit")]:
        if vars(module).get("evolve") is original:
            monkeypatch.setattr(module, "evolve", counting_evolve)
    code, _, _ = run_cli(
        ["audit", str(DATA), "--channel", "drift", "--p0", "tilted",
         "--steps", "30", "--trajectory-csv", str(tmp_path / "trajectory.csv")],
        capsys,
    )
    assert code == 0
    assert len(calls) == 1


def test_audit_reports_a_faint_one_way_cycle(tmp_path, capsys):
    path = tmp_path / "cycle.tbit"
    path.write_text("system loop\n  states a b c d\n  temperature 1.0\n\n"
                    "dist start\n  over loop\n  probs 0.25 0.25 0.25 0.25\n\n"
                    "channel cycle\n  over loop\n"
                    "  from a: a 0.99999999999 b 1e-11\n  from b: a 0.5 c 0.5\n"
                    "  from c: a 0.5 d 0.5\n  from d: a 0.5 b 0.5\n")
    code, out, _ = run_cli(["audit", str(path), "--channel", "cycle", "--p0", "start"],
                           capsys)
    assert code == 0
    assert "detailed balance  False\n" in out


def test_audit_reports_a_faint_two_way_cycle(tmp_path, capsys):
    # a cycle run both ways at rates 2e-11 and 1e-11: every flux pair differs
    # by half its size, though by only 3.3e-12 in absolute terms
    path = tmp_path / "cycle.tbit"
    path.write_text("system loop\n  states a b c\n  temperature 1.0\n\n"
                    "dist start\n  over loop\n  probs 0.5 0.3 0.2\n\n"
                    "channel cycle\n  over loop\n"
                    "  from a: a 0.99999999997 b 2e-11 c 1e-11\n"
                    "  from b: a 1e-11 b 0.99999999997 c 2e-11\n"
                    "  from c: a 2e-11 b 1e-11 c 0.99999999997\n")
    code, out, _ = run_cli(["audit", str(path), "--channel", "cycle", "--p0", "start"],
                           capsys)
    assert code == 0
    assert "detailed balance  False\n" in out


def test_audit_unknown_channel_exits_one(capsys):
    code, _, err = run_cli(["audit", str(DATA), "--channel", "ghost", "--p0", "sharp"], capsys)
    assert code == 1
    assert "no channel named" in err


@pytest.mark.parametrize("dists", [["--p0", "ghost"], ["--p0", "sharp", "--reference", "ghost"]])
def test_audit_unknown_dist_exits_one(dists, capsys):
    code, out, err = run_cli(["audit", str(DATA), "--channel", "mix", *dists], capsys)
    assert code == 1
    assert out == ""
    assert "no dist named 'ghost'" in err


_TWO_SYSTEMS = """\
system s
  states a b
  temperature 1

system t
  states x y
  temperature 1

dist p
  over s
  probs 0.5 0.5

dist q
  over t
  probs 0.5 0.5

channel k
  over s
  from a: a 0.5 b 0.5
  from b: b 1
"""


@pytest.mark.parametrize("dists", [["--p0", "q"], ["--p0", "p", "--reference", "q"]])
def test_audit_rejects_a_dist_over_another_system(dists, tmp_path, capsys):
    path = tmp_path / "two.tbit"
    path.write_text(_TWO_SYSTEMS)
    code, out, err = run_cli(["audit", str(path), "--channel", "k", *dists], capsys)
    assert code == 1
    assert out == ""
    assert "dist 'q' is over system 't', not 's'" in err


def test_audit_unwritable_trajectory_csv_exits_one(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "trajectory.csv"
    code, out, err = run_cli(
        ["audit", str(DATA), "--channel", "mix", "--p0", "sharp",
         "--trajectory-csv", str(target)],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


# -- bitop -------------------------------------------------------------------------

def test_bitop_erase_ledger(capsys):
    code, out, _ = run_cli(["bitop", "erase"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["min_energy"] == pytest.approx(LOG2, rel=1e-15)
    assert payload["delta_H"]["bits"] == -1.0
    assert payload["direction"] == "COSTS_AT_LEAST"


def test_bitop_not_is_free(capsys):
    code, out, _ = run_cli(["bitop", "not"], capsys)
    payload = json.loads(out)
    assert payload["min_energy"] == 0.0
    assert payload["direction"] == "FREE"


def test_bitop_randomize_yield_bound(capsys):
    code, out, _ = run_cli(["bitop", "randomize"], capsys)
    payload = json.loads(out)
    assert payload["min_energy"] == pytest.approx(-LOG2, rel=1e-15)
    assert payload["direction"] == "YIELDS_AT_MOST"


def test_bitop_si_units(capsys):
    code, out, _ = run_cli(
        ["bitop", "erase", "--units", "si", "--temperature", "300"], capsys
    )
    payload = json.loads(out)
    assert payload["min_energy"] == pytest.approx(2.87e-21, rel=1e-2)


def test_bitop_strict_contract_violation_exits_one(capsys):
    code, _, err = run_cli(["bitop", "erase", "--input", "0"], capsys)
    assert code == 1
    assert "expects a bit of type STAR" in err


def test_bitop_lenient_accepts_any_input(capsys):
    code, out, _ = run_cli(["bitop", "erase", "--input", "0", "--mode", "lenient"], capsys)
    assert code == 0
    assert json.loads(out)["delta_D"]["nats"] == 0.0


def test_bitop_switch(capsys):
    code, out, _ = run_cli(["bitop", "switch", "--from", "1", "--to", "0", "--input", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["op"] == "switch(1->0)"
    assert payload["min_energy"] == 0.0
    # without flags: 0 -> 1 on its nominal input; --from alone keeps --to at 1
    for args, op, bit in [([], "switch(0->1)", [1.0, 0.0]),
                          (["--from", "1"], "switch(1->1)", [0.0, 1.0])]:
        code, out, _ = run_cli(["bitop", "switch", *args], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["op"], payload["input"]) == (op, bit)


@pytest.mark.parametrize("args", [
    ["copy-szilard", "--input", "0"],
    ["copy-landauer", "--input", "star", "--mode", "lenient"],
    ["erase", "--from", "1", "--to", "0"],
    ["not", "--to", "0"],
    ["randomize", "--from", "0", "--mode", "lenient"],
    ["copy-szilard", "--to", "1"],
])
def test_bitop_flags_that_do_not_apply_are_usage_errors(args, capsys):
    code, out, err = run_cli(["bitop", *args], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


_BITOPS_PUBLIC = ("erase", "not_op", "switch", "randomize", "copy_szilard", "copy_landauer",
                  "randomize_first")


def test_every_bit_operation_call_goes_through_the_module_attribute(monkeypatch, capsys):
    # A tracer (perfbench/tracing.py) replaces each public bitops function
    # wherever a thermobit module binds it by name; a table or call site that
    # holds the function itself would run it without the tracer seeing it.
    from thermobit import bitops, engine

    wrapped = dict.fromkeys(_BITOPS_PUBLIC, 0)
    ran = dict.fromkeys(_BITOPS_PUBLIC, 0)
    code_names = {}
    modules = [m for key, m in sys.modules.items()
               if key == "thermobit" or key.startswith("thermobit.")]
    for name in _BITOPS_PUBLIC:
        original = getattr(bitops, name)
        code_names[original.__code__] = name

        def counting(*args, _name=name, _original=original, **kwargs):
            wrapped[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)

    def count_runs(frame, event, arg):  # sees every execution, however it was called
        if frame.f_code in code_names:
            ran[code_names[frame.f_code]] += 1

    previous = sys.gettrace()
    sys.settrace(count_runs)
    try:
        codes = [cli.main(["bitop", name]) for name in bitops.OPS]
        for kind in engine.MeasurementKind:
            engine.demon_cycle(engine.EngineConfig(), kind)
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    assert codes == [0] * len(bitops.OPS)
    assert wrapped == ran
    assert wrapped == {"erase": 1, "not_op": 1, "switch": 1, "randomize": 1,
                       "copy_szilard": 2, "copy_landauer": 2, "randomize_first": 2}


def test_bitop_copy_variants(capsys):
    _, out, _ = run_cli(["bitop", "copy-szilard"], capsys)
    assert json.loads(out)["min_energy"] == pytest.approx(LOG2, rel=1e-15)
    _, out, _ = run_cli(["bitop", "copy-landauer"], capsys)
    assert json.loads(out)["min_energy"] == 0.0


# -- szilard -----------------------------------------------------------------------

def test_szilard_ratio_two(capsys):
    code, out, _ = run_cli(
        ["szilard", "--ratio", "2", "--steps", "1000000", "--levels", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_work"] == pytest.approx(LOG2, rel=1e-15)
    assert payload["rows"][0]["abs_error"] < 1e-9


def test_szilard_ratio_one_is_zero_work(capsys):
    code, out, _ = run_cli(
        ["szilard", "--ratio", "1", "--steps", "128", "--levels", "1", "--format", "json"], capsys
    )
    payload = json.loads(out)
    assert payload["exact_work"] == 0.0
    assert payload["rows"][0]["work"] == 0.0


def test_szilard_convergence_table_shows_fourfold_error_growth(capsys):
    code, out, _ = run_cli(
        ["szilard", "--steps", "4096", "--levels", "4", "--format", "csv"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    errors = [float(r[2]) for r in rows]
    for finer, coarser in zip(errors, errors[1:]):
        assert 3.8 <= coarser / finer <= 4.2


# -- sweep --------------------------------------------------------------------------

def test_sweep_small_run_passes(capsys):
    code, out, _ = run_cli(
        ["sweep", "--instances", "30", "--max-states", "8", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["identity"]["identity_failures"] == 0


def test_sweep_injected_violation_exits_two(capsys, monkeypatch):
    from thermobit import sweeps
    from thermobit.info import Distribution

    audit = sweeps._audit

    def from_a_skewed_reference(p0, channel, steps, pi, reference=None):
        # a reference that is not stationary, and the chain starts on it
        skew = np.linspace(1.0, 2.0, len(channel))
        skewed = Distribution(skew / skew.sum())
        return audit(skewed, channel, steps, pi, reference=skewed)

    monkeypatch.setattr(sweeps, "_audit", from_a_skewed_reference)
    code, out, _ = run_cli(
        ["sweep", "--instances", "5", "--max-states", "4", "--format", "json"], capsys
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["second_law"]["failures"] >= 1


def test_sweep_same_seed_is_deterministic_in_process(capsys):
    args = ["sweep", "--instances", "25", "--max-states", "6", "--format", "json",
            "--seed", "42"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


# Captured from the sweep's defaults before its stationary solves were
# stacked: every later change to the sweep keeps these bytes.
@pytest.mark.parametrize("args, golden", [
    (["--format", "json", "--seed", "0xC0FFEE"], "sweep_0xC0FFEE.json"),
    (["--format", "json", "--seed", "1"], "sweep_1.json"),
    (["--format", "json", "--seed", "7"], "sweep_7.json"),
    (["--format", "json", "--seed", "12345"], "sweep_12345.json"),
    ([], "sweep_table.txt"),
], ids=["0xC0FFEE", "1", "7", "12345", "table"])
def test_sweep_stdout_matches_its_golden_file(args, golden, capsys, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    code, out, err = run_cli(["sweep", *args], capsys)
    assert (code, err) == (0, "")
    assert out.encode() == (DATA.parent / golden).read_bytes()


def test_sweep_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "0x2A")
    _, via_env, _ = run_cli(["sweep", "--instances", "10", "--format", "json"], capsys)
    monkeypatch.delenv(cli.SEED_ENV_VAR)
    _, via_flag, _ = run_cli(
        ["sweep", "--instances", "10", "--format", "json", "--seed", "42"], capsys
    )
    assert via_env == via_flag
    assert json.loads(via_env)["seed"] == 42


def test_sweep_bad_env_seed_exits_one(capsys, monkeypatch):
    for value, problem in [("not-a-number", "an integer, got 'not-a-number'"),
                           ("-1", "at least 0, got -1"), ("-0x10", "at least 0, got -16")]:
        monkeypatch.setenv(cli.SEED_ENV_VAR, value)
        code, out, err = run_cli(["sweep", "--instances", "5"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {cli.SEED_ENV_VAR} must be {problem}\n"


# -- fmt ----------------------------------------------------------------------------

def test_fmt_canonicalizes(capsys, tmp_path):
    code, out, _ = run_cli(["fmt", str(DATA)], capsys)
    assert code == 0
    assert out.startswith("system coin\n")
    # formatting a formatted file is a fixed point
    again = tmp_path / "again.tbit"
    again.write_text(out)
    code, out2, _ = run_cli(["fmt", str(again)], capsys)
    assert out2 == out


def test_fmt_stdout_matches_its_golden_file(capsys):
    code, out, err = run_cli(["fmt", str(DATA)], capsys)
    assert (code, err) == (0, "")
    assert out.encode() == (DATA.parent / "demo_fmt.tbit").read_bytes()


@pytest.mark.parametrize("args", [["fmt"], ["check", "--dist", "d"],
                                  ["audit", "--channel", "c", "--p0", "d"]],
                         ids=["fmt", "check", "audit"])
def test_a_file_that_is_not_utf8_is_one_error_line(args, capsys, tmp_path):
    path = tmp_path / "latin1.tbit"
    path.write_bytes(b"system s\n# \xff\n")
    code, out, err = run_cli([args[0], str(path), *args[1:]], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [["fmt"], ["check", "--dist", "d"]], ids=["fmt", "check"])
def test_a_system_the_core_rejects_is_one_located_error(args, capsys, tmp_path):
    path = tmp_path / "system.tbit"
    path.write_text("system s\n  states a\n  temperature 1e-300\n  boltzmann 1e-300\n")
    code, out, err = run_cli([args[0], str(path), *args[1:]], capsys)
    assert (code, out, err) == (
        1, "", "error: line 1, col 1: kT must be finite and positive, got 0.0\n")


def test_fmt_bad_file_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.tbit"
    bad.write_text("system s\n  temperature 1\n")
    code, _, err = run_cli(["fmt", str(bad)], capsys)
    assert code == 1
    assert "missing a 'states' line" in err


# -- subprocess-level determinism ------------------------------------------------------

def _run_subprocess(args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "thermobit", *args],
        capture_output=True,
        env=merged,
        timeout=300,
    )


def test_cli_json_is_byte_identical_across_processes():
    args = ["sweep", "--instances", "20", "--max-states", "6", "--seed", "7",
            "--format", "json"]
    first = _run_subprocess(args)
    second = _run_subprocess(args)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_audit_with_infinite_divergence_writes_no_warning():
    # 'sharp' puts zero on a state 'tilted' occupies, so D is inf at every step
    result = _run_subprocess(["audit", str(DATA), "--channel", "drift", "--p0", "tilted",
                              "--reference", "sharp"])
    assert result.returncode == 0
    assert result.stderr == b""
    assert result.stdout == (b"stationary        [0.6666666666666666, 0.3333333333333333]\n"
                             b"detailed balance  True\n"
                             b"monotone          True\n"
                             b"max violation     0.0\n"
                             b"steps checked     100\n")


def test_cli_env_seed_reaches_subprocess():
    by_env = _run_subprocess(["sweep", "--instances", "10", "--format", "json"],
                             env={cli.SEED_ENV_VAR: "7"})
    by_flag = _run_subprocess(["sweep", "--instances", "10", "--format", "json",
                               "--seed", "7"])
    assert by_env.returncode == 0, by_env.stderr
    assert by_flag.returncode == 0, by_flag.stderr
    assert by_env.stdout == by_flag.stdout
    payload = json.loads(by_env.stdout)
    assert payload["seed"] == 7
    sweeps = [v["sweep"] for v in payload.values() if isinstance(v, dict)]
    assert sweeps == ["identity", "data_processing", "second_law"]


# A pattern in which two parts can take the same digits matches "10" or "100"
# in more than one way; run over the whole line, it would retry every such
# choice of the words before a bad last word (2**40 and 3**30 of them here).
# 20,000 bad words each need a column, which must not cost a rescan per word.
@pytest.mark.parametrize("words, bad", [
    (["10"] * 40 + ["x"], [40]),
    (["100"] * 30 + ["x"], [30]),
    (["x"] * 20000, range(20000)),
], ids=["forty-tens", "thirty-hundreds", "twenty-thousand-typos"])
def test_check_reports_bad_probabilities_promptly(tmp_path, words, bad):
    code = "  probs " + " ".join(words)
    path = tmp_path / "long.tbit"
    path.write_text(f"system s\n  states a\n  temperature 1\ndist d\n  over s\n{code}\n")
    proc = subprocess.run([sys.executable, "-m", "thermobit", "check", str(path), "--dist", "d"],
                          capture_output=True, timeout=30)
    columns = [m.start() + 1 for m in re.finditer(r"\S+", code)]
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == [
        f"error: line 6, col {columns[i + 1]}: probability must be a number, got {words[i]!r}"
        for i in bad]


def test_check_reports_an_overflowing_sum_as_one_error_line(tmp_path):
    path = tmp_path / "huge.tbit"
    path.write_text("system s\n  states a b\n  temperature 1\n\n"
                    "dist d\n  over s\n  probs 1e308 1e308\n")
    proc = _run_subprocess(["check", str(path), "--dist", "d"])
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        "error: line 7, col 3: distribution must sum to 1 within 1e-09, got inf\n")


# 10**17 steps need more bytes than any address space holds, so no machine
# maps the array (not even one that overcommits memory) before failing.
@pytest.mark.parametrize("args", [
    ["audit", str(DATA), "--channel", "drift", "--p0", "tilted", "--steps", str(10**17)],
    ["audit", str(DATA), "--channel", "drift", "--p0", "tilted", "--steps", str(10**20)],
    ["audit", str(DATA), "--channel", "drift", "--p0", "tilted", "--steps", str(2**63 - 1)],
    ["szilard", "--steps", str(10**17)],
    ["szilard", "--steps", str(2**63 - 1)],
    ["sweep", "--instances", "2", "--steps", str(10**17)],
], ids=["audit", "audit-beyond-indexing", "audit-largest-index", "szilard", "szilard-largest",
        "sweep"])
def test_a_step_count_too_large_to_allocate_is_one_error_line(args):
    proc = _run_subprocess(args)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert err.splitlines()[-1].split("error: ", 1)[1]


# The child prints its own peak resident size, VmHWM in kB, as the last line
# of stderr. ru_maxrss would not do: a child that subprocess starts by vfork
# and exec inherits the launcher's high-water mark in it.
_PEAK_CHILD = """\
import sys
from thermobit import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM:"))
print(peak.split()[1], file=sys.stderr)
sys.exit(code)
"""


def _drift_audit_peak_kb(steps, *extra):
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, "audit", str(DATA), "--channel", "drift",
         "--p0", "tilted", "--steps", str(steps), *extra],
        capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.decode().splitlines()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_a_long_audit_holds_only_the_rows_before_the_chain_settles(tmp_path):
    # the demo drift chain settles within a few thousand steps, so 5*10**6
    # steps must cost no more memory than 2*10**5, CSV or not
    steps = 5_000_000
    for extra in ([], ["--trajectory-csv", str(tmp_path / "trajectory.csv")]):
        short = _drift_audit_peak_kb(200_000, *extra)
        long = _drift_audit_peak_kb(steps, *extra)
        assert long - short <= 5 * 1024, (extra, short, long)
    # the rows after the settle row repeat its text, up to the last step
    lines, settle_line, settle_text, previous = 0, None, None, None
    with open(tmp_path / "trajectory.csv", encoding="utf-8") as csv:
        for lines, line in enumerate(csv, 1):
            text = line.split(",", 1)[1]
            if settle_text is None and text == previous:
                settle_line, settle_text = lines, text
            previous, last = text, line
    (tmp_path / "trajectory.csv").unlink()  # about 275 MB
    assert lines == steps + 2
    assert settle_line is not None and settle_line < 200_000
    assert last == f"{steps},{settle_text}"


# -- the exit-code contract, as a property ---------------------------------------------

# Values for every kind of argument: degenerate integers and floats, unknown
# names, missing files and directories. Counts stay small (steps <= 10**4,
# sweeps of at most 3 instances over at most 8 states, since the identity sweep
# draws landscapes of up to --max-states states); the only larger step count
# is one too large to index, which fails before any allocation.
_HUGE = "99999999999999999999"
_FLOATS = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "0", "-1",
                           "0.5", "2", "abc"])
_STEPS = st.sampled_from(["-1", "0", "1", "10", "10000", _HUGE, "1.5"])
_SEEDS = st.sampled_from(["-1", "-5", "0", "7", "0x2A", _HUGE, "abc", ""])
_ENV_SEEDS = st.sampled_from([None, "-1", "0", "7", "0x2A", _HUGE, "abc", " 3"])
_DISTS = st.sampled_from(["sharp", "fair", "tilted", "ghost"])


@st.composite
def _argv(draw, tmp: Path):
    files = st.sampled_from([str(DATA), str(tmp / "missing.tbit"), str(tmp),
                             str(tmp / "bad.tbit"), str(tmp / "latin1.tbit")])

    def options(*pairs):
        argv = []
        for flag, values in pairs:
            if draw(st.booleans()):
                argv += [flag] if values is None else [flag, draw(values)]
        return argv

    command = draw(st.sampled_from(["check", "audit", "bitop", "szilard", "sweep", "fmt",
                                    "ghost", None]))
    if command == "check":
        return [command, draw(files), *options(
            ("--dist", _DISTS), ("--tolerance", _FLOATS),
            ("--format", st.sampled_from(["table", "json", "csv", "xml"])))]
    if command == "audit":
        return [command, draw(files), *options(
            ("--channel", st.sampled_from(["mix", "drift", "ghost"])), ("--p0", _DISTS),
            ("--steps", _STEPS), ("--reference", _DISTS),
            ("--format", st.sampled_from(["table", "json", "csv"])),
            ("--trajectory-csv", st.sampled_from([str(tmp / "t.csv"), str(tmp),
                                                  str(tmp / "missing" / "t.csv")])))]
    if command == "bitop":
        return [command, draw(st.sampled_from(["erase", "not", "switch", "randomize",
                                               "copy-szilard", "copy-landauer",
                                               "randomize-first", "ghost"])), *options(
            ("--mode", st.sampled_from(["strict", "lenient", "ghost"])),
            ("--temperature", _FLOATS), ("--kB", _FLOATS),
            ("--units", st.sampled_from(["natural", "si", "ghost"])),
            ("--input", st.sampled_from(["0", "1", "star", "2"])),
            ("--from", st.sampled_from(["0", "1", "2"])),
            ("--to", st.sampled_from(["0", "1", "-1"])))]
    if command == "szilard":
        return [command, *options(
            ("--ratio", _FLOATS), ("--steps", _STEPS), ("--temperature", _FLOATS),
            ("--kB", _FLOATS), ("--units", st.sampled_from(["natural", "si"])),
            ("--levels", st.sampled_from(["-1", "0", "1", "3", _HUGE])),
            ("--format", st.sampled_from(["table", "json", "csv"])))]
    if command == "sweep":
        return [command, "--instances", draw(st.sampled_from(["-1", "0", "1", "2", "3"])),
                *options(("--max-states", st.sampled_from(["-1", "0", "1", "2", "3", "8"])),
                         ("--steps", _STEPS), ("--seed", _SEEDS),
                         ("--format", st.sampled_from(["table", "json"])),
                         ("--inject-violation", None))]
    if command == "fmt":
        return [command, draw(files)]
    return [] if command is None else [command]


def _run_in_process(argv, env_seed):
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop(cli.SEED_ENV_VAR, None)
    if env_seed is not None:
        os.environ[cli.SEED_ENV_VAR] = env_seed
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    finally:
        os.environ.pop(cli.SEED_ENV_VAR, None)
        if saved is not None:
            os.environ[cli.SEED_ENV_VAR] = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), env_seed=_ENV_SEEDS)
def test_every_command_line_keeps_the_exit_code_contract(data, env_seed, tmp_path):
    (tmp_path / "bad.tbit").write_text("system s\n  temperature 1\n")
    (tmp_path / "latin1.tbit").write_bytes(b"system s\n# \xff\n")
    argv = data.draw(_argv(tmp_path), label="argv")
    code, out, err = _run_in_process(argv, env_seed)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1:
        assert any(line.startswith(("error:", "usage:")) or ": error: " in line
                   for line in err.splitlines())
    assert _run_in_process(argv, env_seed) == (code, out, err)
