"""Seeded randomized sweeps over the package's headline properties.

Each sweep derives one RNG per instance from (seed, instance index), so
results are reproducible and independent of execution order. These back
the `sweep` CLI command and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .info import Distribution
from .markov import Channel, _audit, _stationary_distributions, data_processing_check
from .thermo import IDENTITY_TOLERANCE, EnergyLandscape, check_szilard_landauer

DEFAULT_SEED = 0xC0FFEE
# The monotonicity sweep draws and solves this many instances at a time, so
# its stacked arrays stay the same size however many instances it runs.
_CHUNK = 128


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


class _SweepResult:
    """A sweep's counts. It passed when no instance failed; its JSON form is
    the sweep's name, then each field in order."""

    sweep: ClassVar[str]

    @property
    def all_passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return {"sweep": self.sweep, **{f.name: getattr(self, f.name) for f in fields(self)}}


@dataclass(frozen=True)
class IdentitySweepResult(_SweepResult):
    """Szilard-Landauer identity, the log-partition proof step, and Gibbs
    optimality, all checked on the same random instances."""

    sweep = "identity"
    instances: int
    identity_failures: int
    identity_worst: float  # worst residual / scale
    proof_failures: int
    proof_worst: float
    optimality_failures: int
    min_available: float

    @property
    def all_passed(self) -> bool:
        return self.identity_failures == self.proof_failures == self.optimality_failures == 0


@dataclass(frozen=True)
class DpiSweepResult(_SweepResult):
    sweep = "data_processing"
    instances: int
    failures: int
    worst_excess: float  # max of after - before


@dataclass(frozen=True)
class MonotonicitySweepResult(_SweepResult):
    sweep = "second_law"
    instances: int
    failures: int
    worst_violation: float
    non_detailed_balance: int  # how many audited chains lacked detailed balance


def random_landscape_instance(
    rng: np.random.Generator, max_states: int
) -> tuple[EnergyLandscape, Distribution]:
    n = int(rng.integers(2, max_states + 1))
    try:
        energies = rng.uniform(-10.0, 10.0, n)
    except ValueError:  # more bytes than numpy can count: no memory holds it either
        raise MemoryError(f"Unable to allocate {n} energies") from None
    landscape = EnergyLandscape(energies, temperature=float(rng.uniform(0.1, 10.0)))
    return landscape, Distribution(rng.dirichlet(np.ones(n)))


def random_channel(rng: np.random.Generator, n: int, *, cycle_bias: bool = False) -> Channel:
    """A strictly positive random channel; with cycle_bias, a noisy rotation
    that strongly violates detailed balance while keeping entries positive."""
    dense = rng.dirichlet(np.ones(n), size=n)
    if cycle_bias:
        rotation = np.roll(np.eye(n), 1, axis=1)
        return Channel(0.9 * rotation + 0.1 * dense)
    return Channel(dense)


def identity_sweep(
    instances: int,
    max_states: int = 64,
    seed: int = DEFAULT_SEED,
) -> IdentitySweepResult:
    identity_failures = proof_failures = optimality_failures = 0
    identity_worst = proof_worst = 0.0
    min_available = np.inf
    for i in range(instances):
        rng = _instance_rng(seed, i)
        landscape, p = random_landscape_instance(rng, max_states)
        report = check_szilard_landauer(landscape, p)
        identity_rel = report.residual / report.scale
        proof_rel = (
            abs(report.free_energy_gibbs + landscape.kT * report.log_partition)
            / report.scale
        )
        identity_worst = max(identity_worst, identity_rel)
        proof_worst = max(proof_worst, proof_rel)
        min_available = min(min_available, report.available)
        if identity_rel > IDENTITY_TOLERANCE:
            identity_failures += 1
        if proof_rel > IDENTITY_TOLERANCE:
            proof_failures += 1
        if report.available < 0.0:
            optimality_failures += 1
    return IdentitySweepResult(
        instances=instances,
        identity_failures=identity_failures,
        identity_worst=identity_worst,
        proof_failures=proof_failures,
        proof_worst=proof_worst,
        optimality_failures=optimality_failures,
        min_available=float(min_available),
    )


def dpi_sweep(
    instances: int,
    max_states: int = 8,
    seed: int = DEFAULT_SEED,
) -> DpiSweepResult:
    failures = 0
    worst = -np.inf
    for i in range(instances):
        rng = _instance_rng(seed, i)
        n = int(rng.integers(2, max_states + 1))
        p = Distribution(rng.dirichlet(np.ones(n)))
        q = Distribution(rng.dirichlet(np.ones(n)))
        channel = random_channel(rng, n)
        result = data_processing_check(p, q, channel)
        worst = max(worst, result.after - result.before)
        if not result.ok:
            failures += 1
    return DpiSweepResult(instances=instances, failures=failures, worst_excess=float(worst))


def monotonicity_sweep(
    instances: int,
    max_states: int = 32,
    steps: int = 100,
    seed: int = DEFAULT_SEED,
) -> MonotonicitySweepResult:
    """Audit random chains, one fifth of them noisy rotations (strongly
    non-reversible), for Second-Law monotonicity."""
    failures = 0
    worst = 0.0
    non_db = 0
    for start in range(0, instances, _CHUNK):
        drawn = []
        for i in range(start, min(start + _CHUNK, instances)):
            rng = _instance_rng(seed, i)
            n = int(rng.integers(2, max_states + 1))
            channel = random_channel(rng, n, cycle_bias=(i % 5 == 4))
            drawn.append((channel, Distribution(rng.dirichlet(np.ones(n)))))
        # the chunk's chains of each size share one stationary solve
        pis = _stationary_distributions([channel for channel, _ in drawn])
        for (channel, p0), pi in zip(drawn, pis):
            verdict = _audit(p0, channel, steps, pi)
            if not verdict.detailed_balance:
                non_db += 1
            worst = max(worst, verdict.max_violation)
            if not verdict.monotone:
                failures += 1
    return MonotonicitySweepResult(
        instances=instances,
        failures=failures,
        worst_violation=float(worst),
        non_detailed_balance=non_db,
    )
