"""Machine-checkable information thermodynamics on finite state spaces.

The library identifies the information an observer holds about a system
(relative entropy to equilibrium) with the system's available free
energy, and ships the machinery to verify that identity numerically:
bit operations with energy ledgers, a Markov-chain Second-Law auditor,
and a discretized single-molecule engine work calculator.

`import thermobit` imports no submodule (and so no numpy): each public name
below is looked up in its submodule when it is first read (PEP 562).
Nothing is cached here, so `thermobit.erase` is always whatever
`thermobit.bitops.erase` is at the time.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "BitPairState", "BitState", "BitType", "Direction", "OpLedger", "PairRelation",
        "copy_landauer", "copy_szilard", "erase", "not_op", "randomize", "randomize_first",
        "switch",
    ), "bitops"),
    **dict.fromkeys((
        "CycleLedger", "EngineConfig", "MeasurementKind", "demon_cycle", "erase_work_bound",
        "exact_isothermal_work", "isothermal_work", "randomize_work_yield",
    ), "engine"),
    **dict.fromkeys(("ContractError", "DomainError", "ShapeError", "ThermobitError"), "errors"),
    **dict.fromkeys((
        "LOG2", "Distribution", "InfoDecomposition", "InfoQuantity", "JointDistribution",
        "decompose_information", "mutual_information", "relative_entropy", "self_information",
        "shannon_entropy",
    ), "info"),
    **dict.fromkeys((
        "AuditVerdict", "Channel", "StationaryMultiplicityWarning", "Trajectory",
        "apply_channel", "check_detailed_balance", "data_processing_check", "evolve",
        "second_law_audit", "stationary_distribution",
    ), "markov"),
    **dict.fromkeys((
        "SI_BOLTZMANN", "EnergyLandscape", "ThermoReport", "available_free_energy",
        "average_energy", "check_szilard_landauer", "free_energy", "gibbs_distribution",
        "log_partition_function",
    ), "thermo"),
}
_SUBMODULES = ("bitops", "cli", "dsl", "engine", "errors", "info", "markov", "sweeps", "thermo")

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
