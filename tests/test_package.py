"""Tests for the package surface: every public name, and what each CLI call imports."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import thermobit

DATA = str(Path(__file__).parent / "data" / "demo.tbit")

# Every public name of the package, by the submodule that defines it.
PUBLIC = {
    "bitops": ["BitPairState", "BitState", "BitType", "Direction", "OpLedger", "PairRelation",
               "copy_landauer", "copy_szilard", "erase", "not_op", "randomize",
               "randomize_first", "switch"],
    "engine": ["CycleLedger", "EngineConfig", "MeasurementKind", "demon_cycle",
               "erase_work_bound", "exact_isothermal_work", "isothermal_work",
               "randomize_work_yield"],
    "errors": ["ContractError", "DomainError", "ShapeError", "ThermobitError"],
    "info": ["LOG2", "Distribution", "InfoDecomposition", "InfoQuantity", "JointDistribution",
             "decompose_information", "mutual_information", "relative_entropy",
             "self_information", "shannon_entropy"],
    "markov": ["AuditVerdict", "Channel", "StationaryMultiplicityWarning", "Trajectory",
               "apply_channel", "check_detailed_balance", "data_processing_check", "evolve",
               "second_law_audit", "stationary_distribution"],
    "thermo": ["SI_BOLTZMANN", "EnergyLandscape", "ThermoReport", "available_free_energy",
               "average_energy", "check_szilard_landauer", "free_energy", "gibbs_distribution",
               "log_partition_function"],
}
ALL_NAMES = [name for names in PUBLIC.values() for name in names]


@pytest.mark.parametrize("module,name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_name_is_its_modules_object(module, name):
    assert getattr(thermobit, name) is getattr(importlib.import_module(f"thermobit.{module}"), name)


def test_star_import_and_dir_cover_every_public_name():
    namespace = {}
    exec("from thermobit import *", namespace)
    assert set(ALL_NAMES) <= set(namespace)
    assert set(ALL_NAMES) <= set(dir(thermobit))
    assert thermobit.__version__ == "0.1.0"


def test_submodules_resolve_as_attributes():
    for module in ("bitops", "cli", "dsl", "engine", "errors", "info", "markov", "sweeps",
                   "thermo"):
        assert getattr(thermobit, module) is importlib.import_module(f"thermobit.{module}")
        assert module in dir(thermobit)
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        thermobit.nosuch  # noqa: B018


def test_package_names_follow_a_replaced_function(monkeypatch):
    def wrapped(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(thermobit.bitops, "erase", wrapped)
    assert thermobit.erase is wrapped
    monkeypatch.undo()
    assert thermobit.erase is thermobit.bitops.erase


# -- what one process loads ---------------------------------------------------------

_PROBE = """
import json, runpy, sys
sys.argv = ["thermobit", *json.loads(sys.argv[1])]
if sys.argv[1:] == ["--import-only"]:
    import thermobit
else:
    try:
        runpy.run_module("thermobit", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "thermobit")
print(json.dumps({"loaded": loaded, "numpy": "numpy" in sys.modules}))
"""

_DSL = ["bitops", "cli", "dsl", "errors", "info", "markov", "thermo"]


@pytest.mark.parametrize("args,submodules", [
    (["--import-only"], []),
    ([], ["cli", "errors"]),
    (["--help"], ["cli", "errors"]),
    (["check", DATA, "--dist", "sharp"], _DSL),
    (["audit", DATA, "--channel", "mix", "--p0", "sharp"], _DSL),
    (["fmt", DATA], _DSL),
    (["bitop", "erase"], ["bitops", "cli", "errors", "info", "thermo"]),
    (["szilard", "--steps", "64"], ["bitops", "cli", "engine", "errors", "info", "thermo"]),
    (["sweep", "--instances", "2", "--max-states", "4"],
     ["cli", "errors", "info", "markov", "sweeps", "thermo"]),
], ids=["import", "usage-error", "help", "check", "audit", "fmt", "bitop", "szilard", "sweep"])
def test_a_call_loads_only_the_modules_it_runs(args, submodules):
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(args)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["loaded"] == ["thermobit"] + [f"thermobit.{m}" for m in submodules]
    if len(submodules) <= 2:  # no subcommand ran
        assert report["numpy"] is False
