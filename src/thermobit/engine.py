"""Quasi-static work accounting for the single-molecule gas engine.

Everything here is deterministic, distribution-level bookkeeping: the
isothermal work integral for one ideal-gas molecule (P·V = kT), the
erase/randomize energy bounds it implies, and the measurement/extraction
cycle ledgers for the demon protocols. Volume enters only through ratios.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import bitops
from .errors import DomainError
from .info import LOG2
from .thermo import _check_kT

_DEFAULT_STEPS = 100_000


@dataclass(frozen=True)
class EngineConfig:
    """Temperature, Boltzmann constant, vessel volume, and the number of
    discretization steps for the isothermal work integral."""

    temperature: float = 1.0
    boltzmann: float = 1.0
    volume: float = 1.0
    steps: int = _DEFAULT_STEPS

    def __post_init__(self):
        _check_kT(self.temperature, self.boltzmann)
        if not 0.0 < self.volume < math.inf:
            raise DomainError(f"volume must be finite and positive, got {self.volume!r}")
        if not isinstance(self.steps, int) or self.steps < 1:
            raise DomainError(f"steps must be a positive integer, got {self.steps!r}")

    @property
    def kT(self) -> float:
        return self.boltzmann * self.temperature


@dataclass(frozen=True)
class LedgerEntry:
    label: str
    work: float
    info_delta_nats: float


@dataclass(frozen=True)
class CycleLedger:
    """An ordered list of (label, work, information delta) entries with
    their totals. Positive work is supplied to the system; negative work
    is extracted."""

    entries: tuple[LedgerEntry, ...]
    net_work: float
    net_info_nats: float

    @classmethod
    def from_entries(cls, entries: list[LedgerEntry]) -> "CycleLedger":
        return cls(
            entries=tuple(entries),
            net_work=math.fsum(e.work for e in entries),
            net_info_nats=math.fsum(e.info_delta_nats for e in entries),
        )

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {
                    "label": e.label,
                    "work": e.work,
                    "info_delta": {
                        "nats": e.info_delta_nats,
                        "bits": e.info_delta_nats / LOG2,
                    },
                }
                for e in self.entries
            ],
            "net_work": self.net_work,
            "net_info": {"nats": self.net_info_nats, "bits": self.net_info_nats / LOG2},
        }


class MeasurementKind(Enum):
    SZILARD_COPY = "szilard"
    LANDAUER_COPY = "landauer"
    NONE = "none"


def _check_volumes(*volumes: float) -> None:
    if not all(0.0 < v < math.inf for v in volumes):
        raise DomainError(f"volumes must be finite and positive, got {volumes!r}")


def isothermal_work(cfg: EngineConfig, v_start: float, v_end: float) -> float:
    """Work done ON the gas for a quasi-static isothermal volume change.

    Midpoint-rule discretization of the integral of kT/V over the volume
    sweep, in cfg.steps slices; the exact limit is kT·log(v_start/v_end).
    Compression is positive, expansion negative; the discretization error
    shrinks as 1/steps^2.
    """
    _check_volumes(v_start, v_end)
    n = cfg.steps
    if n > sys.maxsize // 8:  # np.arange(n) would overflow its byte count
        raise MemoryError(f"Unable to allocate {n} midpoints")
    dv = (v_end - v_start) / n
    midpoints = v_start + (np.arange(n) + 0.5) * dv
    return float(-cfg.kT * dv * np.sum(1.0 / midpoints)) + 0.0


def exact_isothermal_work(cfg: EngineConfig, v_start: float, v_end: float) -> float:
    """Closed form kT·log(v_start/v_end) of the isothermal work integral."""
    _check_volumes(v_start, v_end)
    return cfg.kT * math.log(v_start / v_end) + 0.0


def erase_work_bound(cfg: EngineConfig) -> float:
    """Minimum work to confine the molecule to half the vessel: kT log 2."""
    return cfg.kT * LOG2


def randomize_work_yield(cfg: EngineConfig) -> float:
    """Maximum work from letting a confined molecule refill the vessel: kT log 2."""
    return cfg.kT * LOG2


def pulley_yield(cfg: EngineConfig, bit_value: int, pulley_side: int) -> float:
    """Extractable work when the weight hangs on `pulley_side` and the
    molecule is actually on `bit_value`'s side: +kT log 2 when they match,
    -kT log 2 when they do not (the weight is lowered instead of lifted)."""
    if bit_value not in (0, 1) or pulley_side not in (0, 1):
        raise DomainError("bit_value and pulley_side must be 0 or 1")
    bound = randomize_work_yield(cfg)
    return bound if bit_value == pulley_side else -bound


def expected_yield_uninformed(cfg: EngineConfig) -> float:
    """Expected extraction with no position information: the average over
    both molecule positions with the pulley fixed to one side, which is 0."""
    return (pulley_yield(cfg, 0, 0) + pulley_yield(cfg, 1, 0)) / 2.0


# Each measurement is a copy of the engine bit X into the memory bit Y.
_MEASUREMENTS = {
    MeasurementKind.SZILARD_COPY: ("copy-szilard",
                                   "measurement: copy X onto uniform Y (Szilard)"),
    MeasurementKind.LANDAUER_COPY: ("copy-landauer",
                                    "measurement: copy X onto initialized Y (Landauer)"),
}


def demon_cycle(cfg: EngineConfig, measurement: MeasurementKind) -> CycleLedger:
    """Book one measure-then-extract cycle at the ideal bounds.

    Entries come straight from the bit-operation ledgers: the measurement
    is a copy of the engine bit X into the memory bit Y, and extraction
    randomizes X. With a Szilard copy the measurement's cost bound exactly
    cancels the extraction's yield; with a Landauer copy the extraction is
    paid for by leaving Y randomized; with no measurement at all the
    expected yield is zero.
    """
    t, kb = cfg.temperature, cfg.boltzmann
    if not isinstance(measurement, MeasurementKind):
        raise DomainError(f"unknown measurement kind {measurement!r}")
    if measurement is MeasurementKind.NONE:
        return CycleLedger.from_entries([
            LedgerEntry("extraction without position information (expected)",
                        expected_yield_uninformed(cfg), 0.0)
        ])
    name, label = _MEASUREMENTS[measurement]
    op = bitops.OPS[name]
    # the copy's nominal input is the pair (X uniform, Y as the copy requires)
    pair, copy_ledger = getattr(bitops, op.function)(op.nominal, temperature=t, boltzmann=kb)
    pair, extract_ledger = bitops.randomize_first(pair, temperature=t, boltzmann=kb)
    entries = [
        LedgerEntry(label, copy_ledger.min_energy, copy_ledger.delta_d_nats),
        LedgerEntry("extraction: randomize X against the partition",
                    extract_ledger.min_energy, extract_ledger.delta_d_nats),
    ]
    if measurement is MeasurementKind.LANDAUER_COPY:
        entries.append(
            LedgerEntry("final state: X and Y independent uniform; Y left randomized",
                        0.0, 0.0)
        )
    return CycleLedger.from_entries(entries)


def convergence_table(
    cfg: EngineConfig, ratio: float, levels: int = 6
) -> list[tuple[int, float, float]]:
    """Rows of (steps, work, abs error) for compressing V to V/ratio while
    halving the step count, for convergence-order inspection."""
    if not 0.0 < ratio < math.inf:
        raise DomainError(f"ratio must be finite and positive, got {ratio!r}")
    v_start = cfg.volume
    v_end = cfg.volume / ratio
    exact = exact_isothermal_work(cfg, v_start, v_end)
    rows = []
    n = cfg.steps
    for _ in range(levels):
        if n < 1:
            break
        sub = EngineConfig(cfg.temperature, cfg.boltzmann, cfg.volume, n)
        work = isothermal_work(sub, v_start, v_end)
        rows.append((n, work, abs(work - exact)))
        n //= 2
    return rows
