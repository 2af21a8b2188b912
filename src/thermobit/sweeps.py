"""Seeded randomized sweeps over the package's headline properties.

Each instance draws the bits of default_rng([seed, instance index]), so
results are reproducible and independent of execution order. These back
the `sweep` CLI command and the acceptance suite.

The identity and data-processing sweeps draw their instances a chunk at a
time, in index order, and check the chunk's instances of each size n
together, as stacked arrays: they run the row kernels that
check_szilard_landauer and data_processing_check run on one row. A chunk
holds at most 1024 instances, fewer when they are large, so each of their
default runs of 1000 instances is one chunk. The monotonicity sweep
draws each instance once, in index order, into a stack of its size, and
checks each stack when it is full and those left part full at the end.
It validates a stack's chains and starting rows, solves their stationary
rows in one stacked elimination, decides their detailed balance with the
row kernel of check_detailed_balance and steps them together through
markov._step_rows, the audits' loop, each to its own fixed point. Every
instance gets the bits its own check gives, and no Channel, Distribution
or verdict is built for it.

Every sweep seeds its instances the same way, up to 1024 at a time:
numpy's SeedSequence hash of each [seed, index] is computed at once, with
uint32 array arithmetic, and one Generator is set to each index's PCG64
state in turn, so each instance draws the bits default_rng([seed, index])
draws.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import DomainError, _count
from .info import _probability_rows
from .markov import _ENTROPY_SLACK, _data_processing_rows, _detailed_balance_rows
from .markov import _largest_rises, _stationary_distributions
from .thermo import DEFAULT_BOLTZMANN, IDENTITY_TOLERANCE
from .thermo import _check_landscape_rows, _identity_rows

DEFAULT_SEED = 0xC0FFEE
# The identity and DPI sweeps draw and check their instances in chunks, so
# that what they hold at once stays bounded however many instances they run:
# at most _CHUNK instances, and no more than hold _CHUNK_ENTRIES numbers at
# the largest size they can draw, which is the numbers of 128 chains of 32
# states and their starting distributions, 1.08 MB. The second bound keeps
# large instances from piling up. The first keeps a chunk of the smallest
# instances within those 1.08 MB too: a drawn and checked instance of two
# states holds about 600 bytes (identity) or 650 (DPI), mostly in Python
# objects rather than numbers, so sweeps of three chunks of 1024 of them
# trace at 0.62 and 0.67 MB, and 2048 would pass the budget. A stack of the
# monotonicity sweep holds at most _CHUNK chains too.
_CHUNK = 1024
_CHUNK_ENTRIES = 128 * 32 * 33
# A stack of the monotonicity sweep holds at most _STACK_ENTRIES entries of its
# chains' matrices and steps its rows a window of at most as many numbers at a
# time. The sweep keeps one stack for each size of which a stack holds two
# chains or more, so what it holds is bounded whatever its instances and steps.
# Larger stacks step faster; ROADMAP.md says why they wait.
_STACK_ENTRIES = _CHUNK_ENTRIES // 32
# numpy's SeedSequence hash (O'Neill's seed_seq design) and the multiplier of
# PCG64's 128-bit LCG, both stable across numpy versions by NEP 19
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _chunks(instances: int, largest: int):
    """Ranges of instance indices, in order, each of one chunk, where
    largest is the count of numbers drawn for an instance of the largest
    size."""
    size = max(1, min(_CHUNK, _CHUNK_ENTRIES // largest))
    for start in range(0, instances, size):
        yield range(start, min(start + size, instances))


def _by_size(drawn: list[tuple]):
    """Yield (indices, arrays) once per size among drawn instances, each a
    tuple whose last entry has that size as its length: the indices of the
    instances of that size, ascending, and each of their entries stacked
    along a new first axis."""
    by_size: dict[int, list[int]] = {}
    for i, instance in enumerate(drawn):
        by_size.setdefault(len(instance[-1]), []).append(i)
    for indices in by_size.values():
        yield indices, [np.array(column) for column in zip(*(drawn[i] for i in indices))]


def _sweep_counts(instances, max_states, seed) -> tuple[int, int, int]:
    """instances, max_states and seed as ints, by the one rule for counts:
    integers of at least 1, 2 and 0 (numpy seeds have no negative values).
    Anything else is a DomainError."""
    instances, max_states = _count("instances", instances, 1), _count("max_states", max_states, 2)
    # numpy draws each size as an int64 below max_states + 1
    if max_states > 2**63 - 1:
        raise DomainError(f"max_states must be at most {2**63 - 1}, got {max_states!r}")
    return instances, max_states, _count("seed", seed, 0)


def _generate_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) of each row of a 2-D
    uint32 array of entropy words, of at least four columns (fewer words are
    padded with zeros, as SeedSequence pads them), computed a column at a
    time by numpy's mix_entropy and generate_state. Their hash constants do
    not depend on the words, so they stay Python ints, masked to 32 bits,
    and every product is of a uint32 array, which wraps as numpy's uint32_t
    does."""
    const = _HASH_INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _HASH_MULT_A & _MASK32
        value *= const
        value ^= value >> 16
        return value

    def mix(x, y):
        x = x * _MIX_MULT_L
        x -= y * _MIX_MULT_R
        x ^= x >> 16
        return x

    # a pool of four words; entropy past them is mixed into each
    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    words = np.empty((len(entropy), 8), np.uint32)
    const = _HASH_INIT_B
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _HASH_MULT_B & _MASK32
        value *= const
        value ^= value >> 16
        words[:, i] = value
    # each pair of words is one uint64, the first word its low half
    return words.astype("<u4", copy=False).view("<u8")


def _seed_sequence_states(seed: int, indices: Sequence[int]) -> np.ndarray:
    """SeedSequence([seed, index]).generate_state(4, np.uint64) of each
    index below 2**64, as the rows of a (len(indices), 4) array: the
    indices of each word count are hashed together."""
    # each value's 32-bit words as SeedSequence splits it, least significant
    # first, one word for 0: an index has one, or two if its high word is set
    seed_words = [seed >> shift & _MASK32 for shift in range(0, seed.bit_length() or 1, 32)]
    words = np.asarray(indices, dtype="<u8").view("<u4").reshape(-1, 2)
    two = words[:, 1] != 0
    states = np.empty((len(words), 4), np.uint64)
    # the indices of one word, then of two, each hashed together if any; not
    # by np.unique, whose first call keeps about 1 MB resident (numpy 2.4)
    for count, rows in (1, ~two), (2, two):
        if not rows.any():
            continue
        width = len(seed_words) + count
        entropy = np.zeros((np.count_nonzero(rows), max(4, width)), np.uint32)
        entropy[:, :len(seed_words)] = seed_words
        entropy[:, len(seed_words):width] = words[rows, :count]
        states[rows] = _generate_states(entropy)
    return states


def _instance_rngs(seed: int, indices: Sequence[int]):
    """Yield one Generator per index, in order, each time the same one, set
    to the state default_rng([seed, index]) starts in, so that it draws the
    same bits. Each must be done with before the next is asked for.

    The indices are hashed a block of _CHUNK at a time. Each index's PCG64
    is seeded from its SeedSequence state as pcg64_set_seed seeds it, by two
    steps of its 128-bit LCG from 0, and set with has_uint32 and uinteger
    reset. Its state becomes Python ints only when it is set, so a block's
    states are held as 32 bytes each."""
    rng = np.random.Generator(np.random.PCG64(0))
    for start in range(0, len(indices), _CHUNK):
        for row in _seed_sequence_states(seed, indices[start:start + _CHUNK]):
            seed_high, seed_low, inc_high, inc_low = row.tolist()
            inc = (inc_high << 65 | inc_low << 1 | 1) & _MASK128
            state = ((inc + (seed_high << 64 | seed_low)) * _PCG64_MULT + inc) & _MASK128
            rng.bit_generator.state = {"bit_generator": "PCG64",
                                       "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            yield rng


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


def _draw_landscape(rng: np.random.Generator,
                    max_states: int) -> tuple[np.ndarray, float, np.ndarray]:
    """(energies, temperature, probabilities) of a random landscape instance
    of 2..max_states states, drawn in that order."""
    n = int(rng.integers(2, max_states + 1))
    try:
        energies = rng.uniform(-10.0, 10.0, n)
    except ValueError:  # more bytes than numpy can count: no memory holds it either
        raise MemoryError(f"Unable to allocate {n} energies") from None
    temperature = float(rng.uniform(0.1, 10.0))
    return energies, temperature, rng.dirichlet(np.ones(n))


def _draw_channel(rng: np.random.Generator, n: int, cycle_bias: bool = False) -> np.ndarray:
    """A strictly positive random channel matrix; with cycle_bias, a noisy
    rotation that strongly violates detailed balance while keeping entries
    positive."""
    dense = rng.dirichlet(np.ones(n), size=n)
    if cycle_bias:
        # 0.9 times the rotation i -> i + 1 (mod n), added in place: the bits
        # of 0.9 * rotation + 0.1 * dense, as 0.0 + x is x and a sum of two
        # floats does not depend on their order
        noisy = 0.1 * dense
        noisy.flat[1::n + 1] += 0.9
        noisy[-1, 0] += 0.9
        return noisy
    return dense


def _identity_checks(drawn: list[tuple[np.ndarray, float, np.ndarray]]):
    """(residual / scale, the proof step's residual / scale, available) of
    check_szilard_landauer on each drawn (energies, temperature,
    probabilities), bit for bit: the instances of one size are validated as
    EnergyLandscape and Distribution validate them and checked together."""
    identity, proof, available = np.empty((3, len(drawn)))
    for indices, (energies, temperatures, probs) in _by_size(drawn):
        kT = _check_landscape_rows(energies, temperatures, DEFAULT_BOLTZMANN)
        rows = _identity_rows(energies, kT, _probability_rows(probs, "distribution"))
        identity[indices] = rows.residual / rows.scale
        proof[indices] = np.abs(rows.free_energy_gibbs + kT * rows.log_partition) / rows.scale
        available[indices] = rows.available
    return identity, proof, available


def identity_sweep(
    instances: int,
    max_states: int = 64,
    seed: int = DEFAULT_SEED,
) -> IdentitySweepResult:
    """Check the Szilard-Landauer identity, its proof step F(π) = -kT log Z
    and F(p) >= F(π) on random landscapes of 2..max_states states, the
    instances of each size in a chunk at once."""
    instances, max_states, seed = _sweep_counts(instances, max_states, seed)
    identity_failures = proof_failures = optimality_failures = 0
    identity_worst = proof_worst = 0.0
    min_available = math.inf
    for chunk in _chunks(instances, 2 * max_states + 1):
        identity, proof, available = _identity_checks(
            [_draw_landscape(rng, max_states) for rng in _instance_rngs(seed, chunk)])
        # in instance order, so that ties keep the first instance's bits
        identity_worst = max(identity_worst, *identity.tolist())
        proof_worst = max(proof_worst, *proof.tolist())
        min_available = min(min_available, *available.tolist())
        identity_failures += int(np.count_nonzero(identity > IDENTITY_TOLERANCE))
        proof_failures += int(np.count_nonzero(proof > IDENTITY_TOLERANCE))
        optimality_failures += int(np.count_nonzero(available < 0.0))
    return IdentitySweepResult(
        instances=instances,
        identity_failures=identity_failures,
        identity_worst=identity_worst,
        proof_failures=proof_failures,
        proof_worst=proof_worst,
        optimality_failures=optimality_failures,
        min_available=min_available,
    )


def _draw_dpi(rng: np.random.Generator, max_states: int) -> tuple[np.ndarray, np.ndarray]:
    """(pq, K) of a random data-processing instance: p and q as the rows of
    one (2, n) array, then K, drawn in that order. numpy draws the rows of
    one Dirichlet call one after another from the generator, so p and q,
    drawn in one call, have the bits of two calls."""
    n = int(rng.integers(2, max_states + 1))
    try:
        ones = np.ones(n)
    except ValueError:  # more bytes than numpy can count: no memory holds it either
        raise MemoryError(f"Unable to allocate {n} probabilities") from None
    return rng.dirichlet(ones, size=2), _draw_channel(rng, n)


def _dpi_checks(drawn: list[tuple[np.ndarray, np.ndarray]]):
    """(before, after, ok) of data_processing_check on each drawn (pq, K),
    bit for bit: the instances of one size are validated as Distribution and
    Channel validate them and checked together, their (B, 2, n) stack of p
    and q split into a contiguous (B, n) array each."""
    before, after = np.empty((2, len(drawn)))
    ok = np.empty(len(drawn), dtype=bool)
    for indices, (pqs, matrices) in _by_size(drawn):
        n = pqs.shape[2]
        matrices = _probability_rows(matrices.reshape(-1, n), "channel").reshape(-1, n, n)
        p, q = (_probability_rows(pqs[:, i].copy(), "distribution") for i in (0, 1))
        before[indices], after[indices], ok[indices] = _data_processing_rows(p, q, matrices)
    return before, after, ok


def dpi_sweep(
    instances: int,
    max_states: int = 8,
    seed: int = DEFAULT_SEED,
) -> DpiSweepResult:
    """Check D(pK‖qK) <= D(p‖q) on random p, q and channels K of
    2..max_states states, the instances of each size in a chunk at once."""
    instances, max_states, seed = _sweep_counts(instances, max_states, seed)
    failures = 0
    worst = -math.inf
    for chunk in _chunks(instances, max_states * (max_states + 2)):
        before, after, ok = _dpi_checks([_draw_dpi(rng, max_states)
                                         for rng in _instance_rngs(seed, chunk)])
        worst = max(worst, *(after - before).tolist())
        failures += int(np.count_nonzero(~ok))
    return DpiSweepResult(instances=instances, failures=failures, worst_excess=worst)


def _draw_chain(rng: np.random.Generator, max_states: int,
                rotation: bool) -> tuple[np.ndarray, np.ndarray]:
    """(K, p0) of a random monotonicity instance, drawn with its size in the
    order size, K, p0; with rotation, K is a noisy rotation."""
    n = int(rng.integers(2, max_states + 1))
    return _draw_channel(rng, n, rotation), rng.dirichlet(np.ones(n))


def _chain_stacks(instances: int, max_states: int, seed: int):
    """Yield (matrices, p0s) once per stack of monotonicity instances: the
    instances of one size, in index order, at most _CHUNK of them and no
    more than hold _STACK_ENTRIES matrix entries (one if a single instance
    holds more).

    Each instance is drawn once, in index order. One that fills a stack on
    its own is yielded at once; the others are copied into one buffer per
    size, which is yielded when full and then filled again, and the buffers
    that are part full are yielded at the end. So what the sweep holds does
    not grow with its instances, but a stack is only good until the next is
    asked for: the caller must be done with it by then."""
    buffers: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    filled: dict[int, int] = {}  # how many rows of its size's buffers hold chains
    for i, rng in enumerate(_instance_rngs(seed, range(instances))):
        matrix, p0 = _draw_chain(rng, max_states, i % 5 == 4)
        n = len(p0)
        if n not in buffers:
            capacity = min(_CHUNK, _STACK_ENTRIES // (n * n))
            if capacity <= 1:
                yield matrix[None], p0[None]
                continue
            buffers[n], filled[n] = (np.empty((capacity, n, n)), np.empty((capacity, n))), 0
        matrices, p0s = buffers[n]
        matrices[filled[n]], p0s[filled[n]] = matrix, p0
        filled[n] += 1
        if filled[n] == len(p0s):
            filled[n] = 0
            yield matrices, p0s
    for n, (matrices, p0s) in buffers.items():
        if filled[n]:
            yield matrices[:filled[n]], p0s[:filled[n]]


def _monotonicity_checks(matrices: np.ndarray, p0s: np.ndarray, steps: int):
    """(largest rise, detailed_balance) of second_law_audit on each chain of
    a stack of one size for `steps` steps, bit for bit: the chains are
    validated as Distribution and Channel validate them, solved for their
    stationary rows, checked for detailed balance and stepped together."""
    n = p0s.shape[1]
    matrices = _probability_rows(matrices.reshape(-1, n), "channel").reshape(-1, n, n)
    p0s = _probability_rows(p0s, "distribution")
    pis = _probability_rows(_stationary_distributions(matrices), "distribution")
    balanced = _detailed_balance_rows(matrices, pis)
    rises, _ = _largest_rises(p0s, matrices, pis, steps, _STACK_ENTRIES)
    return rises, balanced


def monotonicity_sweep(
    instances: int,
    max_states: int = 32,
    steps: int = 100,
    seed: int = DEFAULT_SEED,
) -> MonotonicitySweepResult:
    """Audit random chains, one fifth of them noisy rotations (strongly
    non-reversible), for Second-Law monotonicity, the chains of each size
    validated, solved, checked for detailed balance and stepped a stack at
    a time."""
    instances, max_states, seed = _sweep_counts(instances, max_states, seed)
    steps = _count("steps", steps, 1)
    # the sweep holds a window of rows at a time, but it refuses a count that
    # second_law_audit could run nowhere, as evolve does: one whose rows at the
    # largest size are more bytes than numpy can count
    if (steps + 1) * max_states * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"Unable to allocate {steps + 1} rows of {max_states} probabilities")
    failures = non_db = 0
    worst = 0.0
    for matrices, p0s in _chain_stacks(instances, max_states, seed):
        rises, balanced = _monotonicity_checks(matrices, p0s, steps)
        # no rise is NaN or -0.0, so the order of the max leaves its bits
        worst = max(worst, rises.max())
        # a chain fails unless its rise is within the slack, as in the audit
        failures += len(rises) - int(np.count_nonzero(rises <= _ENTROPY_SLACK))
        non_db += len(balanced) - int(np.count_nonzero(balanced))
    return MonotonicitySweepResult(
        instances=instances,
        failures=failures,
        worst_violation=float(worst),
        non_detailed_balance=non_db,
    )
