"""Finite-state thermodynamics: Gibbs distributions, free energy, and the
identity between available free energy and relative entropy.

All partition-function work happens in log space with a max shift, and
probabilities are exponentiated last, so the identity check stays at
1e-12 relative accuracy even for |E|/kT far beyond float exp range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError
from .info import Distribution, InfoQuantity
from .info import _entropy_rows, _kl_rows, _probability_rows

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
    It is the whole rule of a `.tbit` system. Equality is by value.
    """

    energies: np.ndarray
    temperature: float = 1.0
    boltzmann: float = DEFAULT_BOLTZMANN

    def __post_init__(self):
        arr = np.array(self.energies, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeError("energies must be a non-empty vector")
        _check_landscape_rows(arr[None], np.array([self.temperature]), self.boltzmann)
        arr.setflags(write=False)
        object.__setattr__(self, "energies", arr)

    @property
    def kT(self) -> float:
        return self.boltzmann * self.temperature

    def __len__(self) -> int:
        return int(self.energies.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnergyLandscape):
            return NotImplemented
        return (np.array_equal(self.energies, other.energies)
                and (self.temperature, self.boltzmann) == (other.temperature, other.boltzmann))


def _check_landscape_rows(energies: np.ndarray, temperatures: np.ndarray,
                          boltzmann: float) -> np.ndarray:
    """Raise DomainError, as EnergyLandscape does, unless each row of a 2-D
    array of energies makes a landscape at its temperature and this
    Boltzmann constant; return each row's kT. The fault of the first bad row
    is reported."""
    lo, hi = energies.min(axis=1), energies.max(axis=1)
    if not ((-math.inf < lo) & (lo <= hi) & (hi < math.inf)).all():
        raise DomainError("energies must be finite")
    n = energies.shape[1]
    with np.errstate(over="ignore"):
        kT = boltzmann * temperatures
        bad = ~((0.0 < temperatures) & (temperatures < math.inf) & (0.0 < kT) & (kT < math.inf))
        if bad.any():  # _check_kT raises, with the message of the first bad row
            _check_kT(temperatures[np.argmax(bad)].item(), boltzmann)
        # kT·H(p) <= kT log n
        top, spread, entropy = np.maximum(-lo, hi), hi - lo, kT * math.log(n)
        overflows = np.array([top / kT, spread / kT, top + entropy, spread + entropy]) == math.inf
    if overflows.any():
        row, which = np.argwhere(overflows.T)[0].tolist()
        name = ("-E/kT", "the energy spread over kT", f"max|E| + kT log {n}",
                f"the energy spread + kT log {n}")[which]
        raise DomainError(f"{name} overflows for energies in [{lo[row].item()!r}, "
                          f"{hi[row].item()!r}] at kT = {kT[row].item()!r}")
    return kT


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


def _gibbs_rows(energies: np.ndarray, kT: np.ndarray):
    """(-E/kT, log Z, Gibbs distribution) of each row of a 2-D array of
    energies at its kT, shift-stably: the max of each row's log weights is
    taken out before exponentiating, and log Z is math.log of the shifted
    sum plus the max."""
    log_weights = -energies / kT[:, None]
    top = log_weights.max(axis=1)
    weights = np.exp(log_weights - top[:, None])
    sums = weights.sum(axis=1)
    log_z = top + np.array([math.log(total) for total in sums.tolist()])
    gibbs = weights / sums[:, None]
    return log_weights, log_z, _probability_rows(gibbs, "gibbs distribution")


def _one_row(landscape: EnergyLandscape) -> tuple[np.ndarray, np.ndarray]:
    """The landscape's energies and kT as one row, for the row kernels."""
    return landscape.energies[None], np.array([landscape.kT], dtype=float)


def log_partition_function(landscape: EnergyLandscape) -> float:
    """log Z via max-shifted summation; no overflow for |E/kT| up to 1e6 and beyond."""
    return _gibbs_rows(*_one_row(landscape))[1].item()


def gibbs_distribution(landscape: EnergyLandscape) -> Distribution:
    """The equilibrium distribution π_i ∝ exp(−E_i/kT), computed shift-stably."""
    return Distribution(_gibbs_rows(*_one_row(landscape))[2][0])


def _check_states(landscape: EnergyLandscape, p: Distribution) -> None:
    if len(p) != len(landscape):
        raise ShapeError(
            f"distribution of length {len(p)} against {len(landscape)} energies"
        )


def average_energy(landscape: EnergyLandscape, p: Distribution) -> float:
    _check_states(landscape, p)
    return _average_energies(p.probs[None], landscape.energies[None]).item()


def free_energy(landscape: EnergyLandscape, p: Distribution) -> float:
    """F(p) = <E>_p − kT·H(p)."""
    _check_states(landscape, p)
    return _free_energy_rows(*_one_row(landscape), p.probs[None])[1].item()


class _IdentityRows(NamedTuple):
    """What check_szilard_landauer computes, one entry or row per instance."""

    log_partition: np.ndarray
    gibbs: np.ndarray
    average_energy: np.ndarray
    free_energy_p: np.ndarray
    free_energy_gibbs: np.ndarray
    available: np.ndarray
    kl_nats: np.ndarray
    residual: np.ndarray
    scale: np.ndarray


def _average_energies(probs: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """np.dot of each row of probs with the same row of energies: a (1, n) @
    (n, 1) product per row, which runs that dot for n >= 2. For n = 1 the dot
    is the one product, whose -0.0 the matmul would give as +0.0."""
    if probs.shape[1] == 1:
        return probs[:, 0] * energies[:, 0]
    return np.matmul(probs[:, None], energies[:, :, None])[:, 0, 0]


def _free_energy_rows(energies: np.ndarray, kT: np.ndarray, probs: np.ndarray):
    """(<E>, F = <E> - kT·H) of each row of probabilities against the same
    row of energies at its kT, as average_energy and shannon_entropy give
    them on that row alone."""
    avg = _average_energies(probs, energies)
    return avg, avg - kT * _entropy_rows(probs)


def _identity_rows(energies: np.ndarray, kT: np.ndarray, probs: np.ndarray) -> _IdentityRows:
    """check_szilard_landauer on each row of 2-D arrays of energies and of
    probabilities, at each row's kT: every entry is bit for bit what the
    check of that row alone gives. Both free energies come from
    _free_energy_rows, and D(p‖π) takes log π = -E/kT - log Z, summed over
    p's support by _kl_rows."""
    log_weights, log_z, gibbs = _gibbs_rows(energies, kT)
    kl = np.empty(len(probs))
    _kl_rows(probs, log_weights - log_z[:, None], kl)
    avg, f_p = _free_energy_rows(energies, kT, probs)
    f_gibbs = _free_energy_rows(energies, kT, gibbs)[1]
    available = f_p - f_gibbs
    return _IdentityRows(
        log_partition=log_z,
        gibbs=gibbs,
        average_energy=avg,
        free_energy_p=f_p,
        free_energy_gibbs=f_gibbs,
        available=available,
        kl_nats=kl,
        residual=np.abs(available - kT * kl),
        scale=np.maximum(np.maximum(1.0, np.abs(f_p)), np.abs(f_gibbs)),
    )


def check_szilard_landauer(landscape: EnergyLandscape, p: Distribution) -> ThermoReport:
    """Evaluate both sides of F(p) − F(π) = kT·D(p‖π) and report the residual.

    The left side comes from the free-energy definition applied to p and to
    the Gibbs distribution; the right side evaluates D(p‖π) with log π taken
    directly in log space from the energies. The two routes share no
    arithmetic beyond the landscape itself. The check runs _identity_rows,
    which the identity sweep runs on many instances at once, on one row.
    """
    _check_states(landscape, p)
    rows = _identity_rows(*_one_row(landscape), p.probs[None])
    log_z = rows.log_partition.item()
    with np.errstate(over="ignore"):
        # Z itself can exceed float range for extreme landscapes; log Z is
        # the robust field and inf/0 here is honest saturation.
        partition_value = float(np.exp(log_z))
    return ThermoReport(
        partition_value=partition_value,
        log_partition=log_z,
        gibbs=Distribution(rows.gibbs[0]),
        average_energy=rows.average_energy.item(),
        free_energy_p=rows.free_energy_p.item(),
        free_energy_gibbs=rows.free_energy_gibbs.item(),
        available=rows.available.item(),
        kl_nats=InfoQuantity(rows.kl_nats.item()),
        residual=rows.residual.item(),
        scale=rows.scale.item(),
    )


def available_free_energy(landscape: EnergyLandscape, p: Distribution) -> float:
    """F(p) − F(π), which the correspondence equates with kT·D(p‖π)."""
    return check_szilard_landauer(landscape, p).available
