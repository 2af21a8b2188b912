"""Finite-state thermodynamics: Gibbs distributions, free energy, and the
identity between available free energy and relative entropy.

All partition-function work happens in log space with a max shift, and
probabilities are exponentiated last, so the identity check stays at
1e-12 relative accuracy even for |E|/kT far beyond float exp range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .info import Distribution, InfoQuantity, shannon_entropy

DEFAULT_BOLTZMANN = 1.0
SI_BOLTZMANN = 1.380649e-23  # J/K
IDENTITY_TOLERANCE = 1e-12  # residual per unit of scale = max(1, |F(p)|, |F(gibbs)|)
# The formats an identity report or a work table can be written in: the CLI's
# --format choices and the words of a `.tbit` `report` line.
REPORT_FORMATS = ("table", "json", "csv")


def _check_kT(temperature: float, boltzmann: float) -> None:
    """Raise DomainError unless T, k_B and their product are finite and positive.

    Gibbs weights divide by kT and energy bounds scale by it; T = 0, an
    infinite T and a kT that overflows or underflows would all give nan.
    """
    for name, value in (("temperature", temperature), ("boltzmann", boltzmann),
                        ("kT", temperature * boltzmann)):
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True, eq=False)
class EnergyLandscape:
    """Per-state energies plus a temperature and a Boltzmann-constant choice.

    The log weights −E/kT and the energy spread over kT must stay in float
    range (an infinite spread gives an infinite quotient), so that every
    quantity the identity check forms from them is finite. So must
    max|E| + kT·log n, which bounds |F(p)| for every p over n states, and
    the spread plus kT·log n, which bounds F(p) − F(π) and kT·D(p‖π).
    """

    energies: np.ndarray
    temperature: float = 1.0
    boltzmann: float = DEFAULT_BOLTZMANN

    def __post_init__(self):
        arr = np.array(self.energies, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeError("energies must be a non-empty vector")
        lo, hi = float(arr.min()), float(arr.max())
        if not -math.inf < lo <= hi < math.inf:
            raise DomainError("energies must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "energies", arr)
        _check_kT(self.temperature, self.boltzmann)
        kT, n = self.kT, arr.size
        top, spread, entropy = max(-lo, hi), hi - lo, kT * math.log(n)  # kT·H(p) <= kT log n
        for name, value in (("-E/kT", top / kT),
                            ("the energy spread over kT", spread / kT),
                            (f"max|E| + kT log {n}", top + entropy),
                            (f"the energy spread + kT log {n}", spread + entropy)):
            if value == math.inf:
                raise DomainError(f"{name} overflows for energies in [{lo!r}, {hi!r}] "
                                  f"at kT = {kT!r}")

    @property
    def kT(self) -> float:
        return self.boltzmann * self.temperature

    def __len__(self) -> int:
        return int(self.energies.size)


@dataclass(frozen=True)
class ThermoReport:
    """Everything the correspondence check computes, plus its residual.

    ``residual`` is |available − kT·D(p‖π)|; callers decide pass/fail
    against a tolerance scaled by ``scale`` = max(1, |F(p)|, |F(π)|), since
    the rounding in F(p) − F(π) grows with the larger of the two terms.
    """

    partition_value: float
    log_partition: float
    gibbs: Distribution
    average_energy: float
    free_energy_p: float
    free_energy_gibbs: float
    available: float
    kl_nats: InfoQuantity
    residual: float
    scale: float

    def passes(self, tolerance: float = IDENTITY_TOLERANCE) -> bool:
        return self.residual <= tolerance * self.scale

    def to_json_dict(self) -> dict:
        return {
            "partition_value": self.partition_value,
            "log_partition": self.log_partition,
            "gibbs": self.gibbs.probs.tolist(),
            "average_energy": self.average_energy,
            "free_energy_p": self.free_energy_p,
            "free_energy_gibbs": self.free_energy_gibbs,
            "available": self.available,
            "kl": {"nats": self.kl_nats.nats, "bits": self.kl_nats.bits},
            "residual": self.residual,
            "scale": self.scale,
        }


def _log_weights(landscape: EnergyLandscape) -> np.ndarray:
    return -landscape.energies / landscape.kT


def log_partition_function(landscape: EnergyLandscape) -> float:
    """log Z via max-shifted summation; no overflow for |E/kT| up to 1e6 and beyond."""
    a = _log_weights(landscape)
    m = float(a.max())
    return m + math.log(float(np.sum(np.exp(a - m))))


def gibbs_distribution(landscape: EnergyLandscape) -> Distribution:
    """The equilibrium distribution π_i ∝ exp(−E_i/kT), computed shift-stably."""
    a = _log_weights(landscape)
    w = np.exp(a - float(a.max()))
    return Distribution(w / w.sum())


def average_energy(landscape: EnergyLandscape, p: Distribution) -> float:
    if len(p) != len(landscape):
        raise ShapeError(
            f"distribution of length {len(p)} against {len(landscape)} energies"
        )
    return float(np.dot(p.probs, landscape.energies))


def free_energy(landscape: EnergyLandscape, p: Distribution) -> float:
    """F(p) = <E>_p − kT·H(p)."""
    return average_energy(landscape, p) - landscape.kT * shannon_entropy(p).nats


def check_szilard_landauer(landscape: EnergyLandscape, p: Distribution) -> ThermoReport:
    """Evaluate both sides of F(p) − F(π) = kT·D(p‖π) and report the residual.

    The left side comes from the free-energy definition applied to p and to
    the Gibbs distribution; the right side evaluates D(p‖π) with log π taken
    directly in log space from the energies. The two routes share no
    arithmetic beyond the landscape itself. average_energy checks that p
    and the landscape have the same states.
    """
    kT = landscape.kT
    log_z = log_partition_function(landscape)
    gibbs = gibbs_distribution(landscape)

    avg = average_energy(landscape, p)
    f_p = avg - kT * shannon_entropy(p).nats
    f_gibbs = free_energy(landscape, gibbs)
    available = f_p - f_gibbs

    log_pi = _log_weights(landscape) - log_z
    mask = p.probs > 0.0
    kl = float(np.sum(p.probs[mask] * (np.log(p.probs[mask]) - log_pi[mask]))) + 0.0

    scale = max(1.0, abs(f_p), abs(f_gibbs))
    with np.errstate(over="ignore"):
        # Z itself can exceed float range for extreme landscapes; log Z is
        # the robust field and inf/0 here is honest saturation.
        partition_value = float(np.exp(log_z))
    return ThermoReport(
        partition_value=partition_value,
        log_partition=log_z,
        gibbs=gibbs,
        average_energy=avg,
        free_energy_p=f_p,
        free_energy_gibbs=f_gibbs,
        available=available,
        kl_nats=InfoQuantity(kl),
        residual=abs(available - kT * kl),
        scale=scale,
    )


def available_free_energy(landscape: EnergyLandscape, p: Distribution) -> float:
    """F(p) − F(π), which the correspondence equates with kT·D(p‖π)."""
    return check_szilard_landauer(landscape, p).available
