"""Discrete-time Markov chains and the Second-Law audit.

The audit machinery exists to falsify demon proposals: if the dynamics
are Markovian, relative entropy to a stationary distribution (every finite
chain has one) cannot increase, detailed balance or not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError
from .info import LOG2, SUM_TOLERANCE, Distribution, relative_entropy
from .info import _RENORM_SKIP, _kl_rows, _renormalised

_VERIFY_TOL = 1e-10
# How far a relative entropy may rise, in nats, by rounding alone: the slack of
# both the Second-Law audit and the data-processing check.
_ENTROPY_SLACK = 1e-12


class StationaryMultiplicityWarning(UserWarning):
    """The chain has more than one closed class, so more than one stationary
    distribution."""


@dataclass(frozen=True, eq=False)
class Channel:
    """A row-stochastic matrix: row i is the next-state distribution from i."""

    matrix: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ShapeError(f"channel matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("channel entries must be finite")
        if np.any(arr < 0.0):
            raise DomainError("channel entries must be non-negative")
        sums = arr.sum(axis=1)
        bad = np.abs(sums - 1.0) > SUM_TOLERANCE
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DomainError(
                f"channel row {i} must sum to 1 within {SUM_TOLERANCE:g}, "
                f"got {float(sums[i])!r}"
            )
        fix = np.abs(sums - 1.0) > _RENORM_SKIP
        if np.any(fix):
            arr = arr.copy()
            arr[fix] = arr[fix] / sums[fix, None]
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != arr.shape[0]:
                raise ShapeError(f"{len(labels)} labels for {arr.shape[0]} states")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Channel):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"Channel({self.matrix.tolist()!r})"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Distributions p_0..p_T under repeated channel application.

    Row t of `probs`, a read-only (T+1, n) array, is p_t; `d_nats[t]` is
    D(p_t‖reference) in nats.
    """

    probs: np.ndarray
    d_nats: np.ndarray
    reference: Distribution

    def __len__(self) -> int:
        return len(self.d_nats)

    def to_csv(self) -> str:
        """Columns: step, p_1..p_n, D_nats, D_bits."""
        n = self.probs.shape[1]
        lines = ["step," + ",".join(f"p_{i + 1}" for i in range(n)) + ",D_nats,D_bits"]
        # A row whose p_t and D are byte for byte the previous row's (as once a
        # chain settles) reuses its text: bytes, not ==, so -0.0 is not 0.0.
        same = np.ones(len(self.d_nats) - 1, dtype=bool)
        for cells in (self.probs, self.d_nats[:, None]):
            cells = np.ascontiguousarray(cells)
            rows = cells.view(np.dtype((np.void, cells.itemsize * cells.shape[1])))[:, 0]
            same &= rows[1:] == rows[:-1]
        text = ""
        for t, repeat in enumerate([False, *same.tolist()]):
            if not repeat:
                d = self.d_nats[t].item()
                text = ",".join(map(repr, self.probs[t].tolist())) + f",{d!r},{d / LOG2!r}"
            lines.append(f"{t},{text}")
        return "\n".join(lines) + "\n"


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


def apply_channel(p: Distribution, channel: Channel) -> Distribution:
    """One chain step: (pK)_j = sum_i p_i K_ij."""
    if len(p) != len(channel):
        raise ShapeError(
            f"distribution of length {len(p)} against {len(channel)}-state channel"
        )
    return Distribution(p.probs @ channel.matrix, labels=channel.labels)


def _closed_classes(matrix: np.ndarray) -> list[np.ndarray]:
    """The closed communicating classes of the support graph, as index arrays.

    reach[i, j] says j is reachable from i; squaring (K > 0) | I a fixed
    ceil(log2 n) times covers every path of length < n. State i is recurrent
    iff everything it reaches reaches it back, and then its class is reach[i].
    """
    n = matrix.shape[0]
    reach = (matrix > 0.0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach  # boolean product: or of ands
    unassigned = ~np.any(reach & ~reach.T, axis=1)
    classes = []
    while unassigned.any():
        members = reach[int(np.argmax(unassigned))]
        classes.append(np.flatnonzero(members))
        unassigned &= ~members
    return classes


def _gth_solve(matrix: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible stochastic matrix by
    Grassmann-Taksar-Heyman elimination.

    Each step censors the chain to its leading states; the divisor is the
    probability of leaving state k for a lower state, a sum of non-negative
    entries, so no subtraction ever happens and the result keeps high
    relative accuracy however slowly the chain mixes.
    """
    a = matrix.copy()
    for k in range(len(a) - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    x = np.ones(len(a))
    for k in range(1, len(a)):
        x[k] = x[:k] @ a[:k, k]
    return x / x.sum()


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
    classes = _closed_classes(matrix)
    recurrent = sum(len(members) for members in classes)
    pi = np.zeros(len(channel))
    for members in classes:
        block = _gth_solve(matrix[np.ix_(members, members)])
        pi[members] = block * (len(members) / recurrent)
    if len(classes) > 1:
        warnings.warn(
            f"chain has {len(classes)} closed classes, so multiple stationary "
            f"distributions; auditing against their recurrent-share mixture",
            StationaryMultiplicityWarning,
            stacklevel=2,
        )
    return Distribution(pi, labels=channel.labels)


def check_detailed_balance(channel: Channel, pi: Distribution) -> DetailedBalanceCheck:
    """True iff pi_i K_ij = pi_j K_ji for all pairs, within 1e-10.

    A flux that is zero one way must be zero the other way too. That is
    checked exactly first, on the signs of pi_i and K_ij, so that a one-way
    flux too small for the tolerance still breaks detailed balance.
    """
    if len(pi) != len(channel):
        raise ShapeError(
            f"distribution of length {len(pi)} against {len(channel)}-state channel"
        )
    flows = (pi.probs > 0.0)[:, None] & (channel.matrix > 0.0)
    flux = pi.probs[:, None] * channel.matrix
    residual = float(np.max(np.abs(flux - flux.T)))
    holds = bool(np.array_equal(flows, flows.T)) and residual < _VERIFY_TOL
    return DetailedBalanceCheck(holds=holds, max_residual=residual)


def evolve(
    p0: Distribution,
    channel: Channel,
    steps: int,
    pi_ref: Distribution | str = "auto",
) -> Trajectory:
    """Run the chain for `steps` steps, recording D(p_t‖pi_ref) along the way.

    pi_ref="auto" resolves the reference via stationary_distribution. The
    inputs are checked once; the steps run on plain arrays, renormalised by
    Distribution's rule, so row t is bit for bit what apply_channel builds.

    The loop stops at the chain's floating-point fixed point: once a step
    returns its input bit for bit, the remaining rows are that row and the
    remaining D values are its D. This is exact, not a tolerance: the step
    and the KL depend only on the bits of their inputs, so running on would
    reproduce the same bits. A long run therefore costs the steps until p_t
    stops changing, not `steps`; a chain that never settles (a rotation)
    runs every step. The D values are computed after the loop, in one pass
    over the rows it produced, bit for bit what a per-step KL would give.
    """
    if steps < 0:
        raise DomainError(f"steps must be non-negative, got {steps}")
    if isinstance(pi_ref, str):
        if pi_ref != "auto":
            raise DomainError(f"pi_ref must be a Distribution or 'auto', got {pi_ref!r}")
        reference = stationary_distribution(channel)
    else:
        reference = pi_ref
    if not len(p0) == len(reference) == len(channel):
        raise ShapeError(f"p0 and reference of lengths {len(p0)}, {len(reference)} "
                         f"against a {len(channel)}-state channel")
    matrix, ref = channel.matrix, reference.probs
    try:
        probs = np.empty((steps + 1, len(channel)))
    except ValueError:  # more bytes than numpy can count: no memory holds it either
        raise MemoryError(f"Unable to allocate {steps + 1} rows of {len(channel)} "
                          f"probabilities") from None
    probs[0] = row = p0.probs
    end = steps + 1
    for t in range(1, steps + 1):
        nxt = row @ matrix
        nxt = _renormalised(nxt, float(nxt.sum()))
        if nxt.tobytes() == row.tobytes():
            probs[t:] = row
            end = t
            break
        probs[t] = row = nxt
    d_nats = np.empty(steps + 1)
    _kl_rows(probs[:end], ref, d_nats[:end])
    d_nats[end:] = d_nats[end - 1]
    probs.setflags(write=False)
    d_nats.setflags(write=False)
    return Trajectory(probs, d_nats, reference)


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
    pi = stationary_distribution(channel)
    balance = check_detailed_balance(channel, pi)
    trajectory = evolve(p0, channel, steps, pi if reference is None else reference)
    max_violation = _max_positive_jump(trajectory.d_nats)
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
    before = relative_entropy(p, q).nats
    after = relative_entropy(
        apply_channel(p, channel), apply_channel(q, channel)
    ).nats
    return DataProcessingResult(before=before, after=after,
                                ok=after <= before + _ENTROPY_SLACK)
