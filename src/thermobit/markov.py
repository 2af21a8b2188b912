"""Discrete-time Markov chains and the Second-Law audit.

The audit machinery exists to falsify demon proposals: if the dynamics
are Markovian, relative entropy to a stationary distribution (every finite
chain has one) cannot increase, detailed balance or not.
"""

from __future__ import annotations

import sys
import threading
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, TextIO

import numpy as np

from .errors import DomainError, ShapeError
from .info import LOG2, Distribution
from .info import _check_same_length, _kl_rows, _log_reference, _probability_rows
from .info import _renormalise_first_astray

# How far apart, relative to the larger, the fluxes pi_i K_ij and pi_j K_ji of
# a reversible chain may come out, per n^2 states. GTH gives each entry of pi
# to a relative error that grows polynomially with n, however small the entry
# (O'Cinneide, Numer. Math. 65, 1993); against exact pi it stays within n^2
# machine epsilons, so the two fluxes agree to 2 n^2 + 1 epsilons. This allows
# four times that.
_BALANCE_SLACK = 8 * np.finfo(float).eps
# How far a relative entropy may rise, in nats, by rounding alone: the slack of
# both the Second-Law audit and the data-processing check.
_ENTROPY_SLACK = 1e-12
# Serialises the first read of a Trajectory array, which writes its tail.
_FILL_LOCK = threading.Lock()


class StationaryMultiplicityWarning(UserWarning):
    """The chain has more than one closed class, so more than one stationary
    distribution."""


@dataclass(frozen=True, eq=False)
class Channel:
    """A row-stochastic matrix: row i is the next-state distribution from i.

    Each row is held to _probability_rows, as a Distribution is, and
    renormalised in place, so the matrix keeps the layout it was given in.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ShapeError(f"channel matrix must be square, got shape {arr.shape}")
        _probability_rows(arr, "channel")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Channel):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"Channel({self.matrix.tolist()!r})"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Distributions p_0..p_T under repeated channel application.

    Row t of `probs`, a read-only (T+1, n) array, is p_t; `d_nats[t]` is
    D(p_t‖reference) in nats. Rows from `settled` on repeat row settled - 1,
    the chain's floating-point fixed point (settled is T + 1 for a chain
    that did not settle). evolve writes only the rows before it; each
    array writes its repeated tail the first time it is read, so holding a
    Trajectory costs the rows computed, not T.
    """

    _probs: np.ndarray = field(repr=False)
    _d_nats: np.ndarray = field(repr=False)
    reference: Distribution
    settled: int

    @property
    def probs(self) -> np.ndarray:
        return self._filled(self._probs)

    @property
    def d_nats(self) -> np.ndarray:
        return self._filled(self._d_nats)

    def _filled(self, rows: np.ndarray) -> np.ndarray:
        # an array is writable until its tail is written; the lock keeps two
        # threads' first reads from setting it read-only under each other
        if rows.flags.writeable:
            with _FILL_LOCK:
                if rows.flags.writeable:
                    rows[self.settled:] = rows[self.settled - 1]
                    rows.setflags(write=False)
        return rows

    def __len__(self) -> int:
        return len(self._d_nats)

    def to_csv(self, handle: TextIO) -> None:
        """Write the rows to a text handle. Columns: step, p_1..p_n, D_nats, D_bits.

        The rows evolve computed are formatted one by one; every row after
        them repeats the last one's text, so neither the full arrays nor
        the whole text are built."""
        n = self._probs.shape[1]
        write = handle.write
        write("step," + ",".join(f"p_{i + 1}" for i in range(n)) + ",D_nats,D_bits\n")
        for t in range(len(self)):
            if t < self.settled:
                d = self._d_nats[t].item()
                text = ",".join(map(repr, self._probs[t].tolist())) + f",{d!r},{d / LOG2!r}"
            write(f"{t},{text}\n")


class DetailedBalanceCheck(NamedTuple):
    holds: bool
    max_residual: float


@dataclass(frozen=True)
class AuditVerdict:
    """Outcome of a Second-Law audit run."""

    stationary: Distribution
    detailed_balance: bool
    monotone: bool
    max_violation: float
    steps_checked: int
    trajectory: Trajectory

    def to_json_dict(self) -> dict:
        return {
            "stationary": self.stationary.probs.tolist(),
            "detailed_balance": self.detailed_balance,
            "monotone": self.monotone,
            "max_violation": self.max_violation,
            "steps_checked": self.steps_checked,
        }


@dataclass(frozen=True)
class DataProcessingResult:
    before: float
    after: float
    ok: bool


def _check_length(p: Distribution, channel: Channel) -> None:
    if len(p) != len(channel):
        raise ShapeError(f"distribution of length {len(p)} against {len(channel)}-state channel")


def apply_channel(p: Distribution, channel: Channel) -> Distribution:
    """One chain step: (pK)_j = sum_i p_i K_ij."""
    _check_length(p, channel)
    return Distribution(p.probs @ channel.matrix)


def _closed_classes(matrix: np.ndarray) -> list[np.ndarray]:
    """The closed communicating classes of the support graph, as index arrays.

    reach[i, j] says j is reachable from i; squaring (K > 0) | I at most
    ceil(log2 n) times covers every path of length < n, and a squaring that
    returns its input has reached the closure, so the loop stops there (after
    one product for a chain with no zeros). State i is recurrent iff
    everything it reaches reaches it back, and then its class is reach[i].
    """
    n = matrix.shape[0]
    reach = (matrix > 0.0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        wider = reach @ reach  # boolean product: or of ands
        if wider.tobytes() == reach.tobytes():
            break
        reach = wider
    unassigned = ~(reach & ~reach.T).any(axis=1)
    classes = []
    while unassigned.any():
        members = reach[int(np.argmax(unassigned))]
        classes.append(np.flatnonzero(members))
        unassigned &= ~members
    return classes


def _gth_solve(stack: np.ndarray) -> np.ndarray:
    """Stationary rows of a (B, n, n) stack of irreducible stochastic
    matrices by Grassmann-Taksar-Heyman elimination.

    Each step censors the chain to its leading states; the divisor is the
    probability of leaving state k for a lower state, a sum of non-negative
    entries, so no subtraction ever happens and the result keeps high
    relative accuracy however slowly the chain mixes.

    The chains are eliminated together, one numpy call per step for the
    whole stack, and row b is bit for bit the solve of stack[b] alone: each
    entry takes the same divide, product and sum, each pivot is numpy's
    pairwise sum over that chain's row alone, and each back-substitution
    term is the same strided dot product. Step k keeps its divided column
    at a[:, :k, k], for the back-substitution, and writes the censored
    k x k block into one of two reused C-contiguous buffers, as the rank-one
    product plus the previous block. One chain forms that product with a
    BLAS product of one term per entry, a single rounded product as
    np.multiply gives, and a stack with the broadcast multiply.
    """
    batch, n = stack.shape[:2]
    if batch == 1:  # 2-D views: np.dot needs them, and they index faster
        block, lead, outer = stack[0], (), np.dot
    else:
        block, lead, outer = stack, (batch,), np.multiply
    a = np.empty(block.shape)
    buffers = np.empty((2, batch * (n - 1) ** 2))
    pivot = np.empty((*lead, 1, 1))
    # Outputs are passed by position, which numpy parses faster than out=.
    divide, add, reduce = np.divide, np.add, np.add.reduce
    for k in range(n - 1, 0, -1):
        column, row = a[..., :k, k:k + 1], block[..., k:k + 1, :k]
        reduce(row, -1, None, pivot, True)
        divide(block[..., :k, k:k + 1], pivot, column)
        censored = buffers[k % 2, :batch * k * k].reshape(*lead, k, k)
        outer(column, row, censored)
        add(censored, block[..., :k, :k], censored)
        block = censored
    x = np.ones((batch, n))
    if batch == 1:  # a 1-D dot per term costs less than a (1, 1, 1) matmul
        x1 = x[0]
        for k in range(1, n):
            x1[k] = x1[:k] @ a[:k, k]
    else:
        rows = x[:, None]
        for k in range(1, n):
            np.matmul(rows[:, :, :k], a[:, :k, k:k + 1], rows[:, :, k:k + 1])
    return x / reduce(x, 1, None, None, True)


def stationary_distribution(channel: Channel) -> Distribution:
    """The stationary pi of the chain, solved directly (no iteration).

    Each closed class of the support graph has one stationary vector, found
    by GTH elimination on its sub-matrix. Classes are weighted by their
    share of the recurrent states (so the identity channel gives uniform
    pi); transient states get exactly 0. With more than one closed class the
    stationary set is their convex hull and a StationaryMultiplicityWarning
    fires -- monotonicity holds against any stationary distribution, so the
    audit proceeds with this one.
    """
    matrix = channel.matrix
    n = len(matrix)
    classes = _closed_classes(matrix)
    if len(classes[0]) == n:  # one class covers every state
        return Distribution(_gth_solve(matrix[None])[0])
    recurrent = sum(len(members) for members in classes)
    pi = np.zeros(n)
    for members in classes:
        block = _gth_solve(matrix[np.ix_(members, members)][None])[0]
        pi[members] = block * (len(members) / recurrent)
    if len(classes) > 1:
        warnings.warn(
            f"chain has {len(classes)} closed classes, so multiple stationary "
            f"distributions; auditing against their recurrent-share mixture",
            StationaryMultiplicityWarning,
            stacklevel=2,
        )
    return Distribution(pi)


def _stationary_distributions(channels: list[Channel]) -> list[Distribution]:
    """stationary_distribution of each channel, bit for bit. The chains of
    one size with no zero entry, so one closed class over every state, are
    solved in one stacked elimination; any other chain goes through
    stationary_distribution, with its warning."""
    pis: list[Distribution | None] = [None] * len(channels)
    by_size: dict[int, list[int]] = {}
    for i, channel in enumerate(channels):
        by_size.setdefault(len(channel), []).append(i)
    for indices in by_size.values():
        stack = np.stack([channels[i].matrix for i in indices])
        positive = (stack > 0.0).all(axis=(1, 2))
        rows = iter(_gth_solve(stack[positive]))
        for i, stacked in zip(indices, positive.tolist()):
            pis[i] = Distribution(next(rows)) if stacked else stationary_distribution(channels[i])
    return pis


def check_detailed_balance(channel: Channel, pi: Distribution) -> DetailedBalanceCheck:
    """True iff pi_i K_ij = pi_j K_ji for all pairs, to rounding.

    A flux that is zero one way must be zero the other way too. That is
    checked exactly first, on the signs of pi_i and K_ij, so that a one-way
    flux that underflows still breaks detailed balance. Then each pair of
    fluxes must agree to 8 n^2 machine epsilons relative to the larger of
    the two, so a faint flux counts as much as a strong one; when a flux
    that flows lies below the normal range, the fluxes are compared as
    mantissas and exponents, so one that underflows keeps its precision.
    The verdict is about the stored matrix: rates built to be reversible
    whose rounding breaks that by more (Metropolis rates from energies
    hundreds of kT apart) read as not in balance.
    """
    _check_length(pi, channel)
    matrix, probs = channel.matrix, pi.probs
    flows = (probs > 0.0)[:, None] & (matrix > 0.0)
    flux = probs[:, None] * matrix
    back = flux.T
    gap = np.abs(flux - back)
    slack = _BALANCE_SLACK * len(channel) ** 2
    if not (flows == flows.T).all():
        holds = False
    elif flux.min(where=flows, initial=1.0) >= sys.float_info.min:  # all normal floats
        holds = (gap <= slack * np.maximum(flux, back)).all()
    else:
        holds = _fluxes_balance_exactly(probs, matrix, slack)
    return DetailedBalanceCheck(holds=bool(holds), max_residual=float(gap.max()))


def _fluxes_balance_exactly(probs: np.ndarray, matrix: np.ndarray, slack: float) -> bool:
    """check_detailed_balance's relative flux test on np.frexp mantissas and
    exponents: the mantissa product is the one rounding a normal flux takes,
    the exponents add exactly, and each pair is scaled by 2^-(its larger
    exponent), so no flux below the normal range rounds towards 0."""
    m_pi, e_pi = np.frexp(probs)
    m_k, e_k = np.frexp(matrix)
    exponent = e_pi[:, None] + e_k
    flux = np.ldexp(m_pi[:, None] * m_k, exponent - np.maximum(exponent, exponent.T))
    back = flux.T
    return bool((np.abs(flux - back) <= slack * np.maximum(flux, back)).all())


def evolve(
    p0: Distribution,
    channel: Channel,
    steps: int,
    reference: Distribution | None = None,
) -> Trajectory:
    """Run the chain for `steps` steps, recording D(p_t‖reference) along the way.

    With reference=None the stationary distribution is used. The
    inputs are checked once; the steps run on plain arrays, renormalised by
    Distribution's rule, so row t is bit for bit what apply_channel builds.
    A step is one product and one byte compare: the sums are tested in
    blocks of rows, one reduce each, and the chain is stepped on again from
    the first row that is renormalised.

    The loop stops at the chain's floating-point fixed point: once a step
    returns its input bit for bit, the remaining rows are that row and the
    remaining D values are its D. This is exact, not a tolerance: the step
    and the KL depend only on the bits of their inputs, so running on would
    reproduce the same bits. Both (steps + 1)-row arrays are reserved up
    front, so a step count that no memory holds fails here at once, but
    only the rows before the fixed point are written: the Trajectory writes
    the repeated tail when an array is first read. A long run therefore
    costs the steps until p_t stops changing, in time and in resident
    memory, not `steps`; a chain that never settles (a rotation) runs every
    step. The D values are computed after the loop, in one pass over the
    rows it produced, bit for bit what a per-step KL would give.
    """
    if steps < 0:
        raise DomainError(f"steps must be non-negative, got {steps}")
    if reference is None:
        reference = stationary_distribution(channel)
    if not len(p0) == len(reference) == len(channel):
        raise ShapeError(f"p0 and reference of lengths {len(p0)}, {len(reference)} "
                         f"against a {len(channel)}-state channel")
    matrix, ref = channel.matrix, reference.probs
    try:
        probs = np.empty((steps + 1, len(channel)))
    except ValueError:  # more bytes than numpy can count: no memory holds it either
        raise MemoryError(f"Unable to allocate {steps + 1} rows of {len(channel)} "
                          f"probabilities") from None
    d_nats = np.empty(steps + 1)
    probs[0] = p0.probs
    prev = probs[0]
    last = prev.tobytes()
    end = steps + 1  # rows from end on repeat row end - 1
    # A block of steps ends at its size or at a repeated row; then its row
    # sums, held in d_nats until the KL pass, are tested. The first row whose
    # sum strays is renormalised, and the rows after it, stepped from its
    # unrenormalised bits, are stepped again. A block that needs nothing
    # doubles the next; a renormalisation sizes the next by the gap since the
    # one before, so a chain that renormalises every few steps wastes few.
    t = size = 1
    fixed = 0  # the last renormalised row
    while t < end:
        start = t
        for t in range(start, min(start + size, end)):
            row = probs[t]
            prev.dot(matrix, row)
            now = row.tobytes()
            if now == last:
                end = t
                break
            prev, last = row, now
        r = start + _renormalise_first_astray(probs[start:t + 1], d_nats[start:t + 1])
        if r > t:
            size *= 2
        else:
            prev = probs[r]
            last = prev.tobytes()
            end = r if last == probs[r - 1].tobytes() else steps + 1
            t, size, fixed = r, r - fixed, r
        t += 1
    _kl_rows(probs[:end], _log_reference(ref), d_nats[:end])
    return Trajectory(probs, d_nats, reference, end)


def _max_positive_jump(d: np.ndarray) -> float:
    # equal values, inf to inf among them, are no change
    jumps = np.subtract(d[1:], d[:-1], out=np.zeros(len(d) - 1), where=d[1:] != d[:-1])
    return float(np.max(jumps, initial=0.0))


def second_law_audit(
    p0: Distribution,
    channel: Channel,
    steps: int,
    reference: Distribution | None = None,
) -> AuditVerdict:
    """Audit D(p_t‖pi) for non-increase over `steps` chain steps.

    With reference=None the stationary distribution is used; an explicit
    reference lets callers demonstrate that monotonicity can fail against
    non-stationary references.
    """
    if steps < 1:
        raise DomainError(f"audit needs at least one step, got {steps}")
    return _audit(p0, channel, steps, stationary_distribution(channel), reference)


def _audit(
    p0: Distribution,
    channel: Channel,
    steps: int,
    pi: Distribution,
    reference: Distribution | None = None,
) -> AuditVerdict:
    """second_law_audit once the stationary pi of the channel is known."""
    balance = check_detailed_balance(channel, pi)
    trajectory = evolve(p0, channel, steps, pi if reference is None else reference)
    # every jump in the repeated tail is 0, so the computed rows decide
    max_violation = _max_positive_jump(trajectory._d_nats[:trajectory.settled])
    return AuditVerdict(
        stationary=pi,
        detailed_balance=balance.holds,
        monotone=max_violation <= _ENTROPY_SLACK,
        max_violation=max_violation,
        steps_checked=steps,
        trajectory=trajectory,
    )


def data_processing_check(
    p: Distribution, q: Distribution, channel: Channel
) -> DataProcessingResult:
    """Check D(pK‖qK) <= D(p‖q), the inequality behind the Second-Law audit."""
    _check_same_length(p, q)
    _check_length(p, channel)
    before, after, ok = _data_processing_rows(p.probs[None], q.probs[None], channel.matrix[None])
    return DataProcessingResult(before=before.item(), after=after.item(), ok=ok.item())


def _data_processing_rows(p: np.ndarray, q: np.ndarray, matrices: np.ndarray):
    """(D(p‖q), D(pK‖qK), whether D(pK‖qK) <= D(p‖q) + _ENTROPY_SLACK) for
    each row of p and q, of n states, and each K of a (B, n, n) stack of
    channel matrices, bit for bit as relative_entropy and apply_channel give
    them: each pK is the product of a (1, n) row and K, and is checked and
    renormalised as a Distribution."""
    before, after = np.empty(len(p)), np.empty(len(p))
    _kl_rows(p, _log_reference(q), before)
    pk, qk = (_probability_rows(np.matmul(rows[:, None], matrices)[:, 0], "distribution")
              for rows in (p, q))
    _kl_rows(pk, _log_reference(qk), after)
    return before, after, after <= before + _ENTROPY_SLACK
