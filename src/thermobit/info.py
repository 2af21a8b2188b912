"""Information measures over finite distributions.

Natural logarithms throughout, so one bit equals log(2) nats. Terms with
zero probability contribute exactly zero and are never pushed through a
log; a positive probability matched against a zero reference probability
yields +inf (an absolute-continuity violation) instead of an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError

LOG2 = math.log(2.0)

# Construction tolerance: how far a probability vector's sum may stray
# from 1 before it is rejected outright.
SUM_TOLERANCE = 1e-9

# Below this the vector counts as already normalized and is stored as-is,
# which makes construction idempotent at the bit level (a renormalized
# vector re-enters construction unchanged; the DSL round-trip relies on it).
_RENORM_SKIP = 1e-12


def _renormalised(arr: np.ndarray, total: float) -> np.ndarray:
    """arr divided by its sum `total`, or arr itself when total is within
    _RENORM_SKIP of 1."""
    if abs(total - 1.0) > _RENORM_SKIP:
        return arr / total
    return arr


def _as_prob_array(values, what: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ShapeError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{what} needs at least one entry")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} entries must be finite")
    if np.any(arr < 0.0):
        raise DomainError(f"{what} entries must be non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise DomainError(
            f"{what} must sum to 1 within {SUM_TOLERANCE:g}, got {total!r}"
        )
    arr = _renormalised(arr, total)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over a finite state space.

    Entries are validated non-negative and summing to 1 within 1e-9,
    then normalized. Instances are immutable and safe to share.
    """

    probs: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _as_prob_array(self.probs, "distribution", ndim=1)
        object.__setattr__(self, "probs", arr)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != arr.size:
                raise ShapeError(
                    f"{len(labels)} labels for {arr.size} states"
                )
            object.__setattr__(self, "labels", labels)

    @classmethod
    def uniform(cls, n: int, labels: Sequence[str] | None = None) -> "Distribution":
        return cls(np.full(n, 1.0 / n), labels=tuple(labels) if labels else None)

    @classmethod
    def degenerate(cls, n: int, index: int, labels: Sequence[str] | None = None) -> "Distribution":
        probs = np.zeros(n)
        probs[index] = 1.0
        return cls(probs, labels=tuple(labels) if labels else None)

    def __len__(self) -> int:
        return int(self.probs.size)

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return np.array_equal(self.probs, other.probs) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"Distribution({self.probs.tolist()!r})"


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A distribution over a product space, indexed (state of S1, state of S2)."""

    probs: np.ndarray
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _as_prob_array(self.probs, "joint distribution", ndim=2)
        object.__setattr__(self, "probs", arr)
        for attr, size in (("row_labels", arr.shape[0]), ("col_labels", arr.shape[1])):
            value = getattr(self, attr)
            if value is not None:
                value = tuple(value)
                if len(value) != size:
                    raise ShapeError(f"{len(value)} {attr} for {size} states")
                object.__setattr__(self, attr, value)

    @classmethod
    def from_product(cls, first: Distribution, second: Distribution) -> "JointDistribution":
        return cls(
            np.outer(first.probs, second.probs),
            row_labels=first.labels,
            col_labels=second.labels,
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape

    def marginal_first(self) -> Distribution:
        return Distribution(self.probs.sum(axis=1), labels=self.row_labels)

    def marginal_second(self) -> Distribution:
        return Distribution(self.probs.sum(axis=0), labels=self.col_labels)

    def flatten(self) -> Distribution:
        """The same distribution viewed over the flat product space (row-major)."""
        labels = None
        if self.row_labels is not None and self.col_labels is not None:
            labels = tuple(f"{r},{c}" for r in self.row_labels for c in self.col_labels)
        return Distribution(self.probs.reshape(-1), labels=labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return (
            np.array_equal(self.probs, other.probs)
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
        )

    def __repr__(self) -> str:
        return f"JointDistribution({self.probs.tolist()!r})"


@dataclass(frozen=True)
class InfoQuantity:
    """An amount of information in nats; +inf on support violations."""

    nats: float

    @property
    def bits(self) -> float:
        return self.nats / LOG2

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.nats)

    def __float__(self) -> float:
        return self.nats

    def __repr__(self) -> str:
        return f"InfoQuantity({self.nats!r} nats)"


@dataclass(frozen=True)
class InfoDecomposition:
    """D(p‖π1⊗π2) split into marginal information plus correlation."""

    total: InfoQuantity
    part1: InfoQuantity
    part2: InfoQuantity
    correlation: InfoQuantity


def self_information(p: float) -> InfoQuantity:
    """Surprise of an event of probability p, in nats: log(1/p)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p!r}")
    if p == 0.0:
        return InfoQuantity(math.inf)
    return InfoQuantity(-math.log(p) + 0.0)


def shannon_entropy(p: Distribution) -> InfoQuantity:
    """Expected self-information of p; zero-probability terms contribute 0."""
    pp = p.probs[p.probs > 0.0]
    return InfoQuantity(float(-np.sum(pp * np.log(pp))) + 0.0)


def relative_entropy(p: Distribution, q: Distribution) -> InfoQuantity:
    """D(p‖q) in nats; +inf when some p_i > 0 has q_i = 0."""
    if len(p) != len(q):
        raise ShapeError(f"distributions differ in length: {len(p)} vs {len(q)}")
    return InfoQuantity(_kl_nats(p.probs, q.probs))


def _kl_nats(p: np.ndarray, q: np.ndarray) -> float:
    """D(p‖q) in nats of two probability arrays of one length; +inf when
    some p_i > 0 has q_i = 0."""
    mask = p > 0.0
    ps = p[mask]
    qs = q[mask]
    if np.any(qs == 0.0):
        return math.inf
    return float(np.sum(ps * (np.log(ps) - np.log(qs)))) + 0.0


# _kl_rows works on blocks of about this many entries, so its temporaries
# stay near 256 KB however many rows it is given.
_KL_BLOCK_ENTRIES = 1 << 15


def _kl_rows(rows: np.ndarray, q: np.ndarray, out: np.ndarray) -> None:
    """out[i] = D(rows[i]‖q) in nats for each row of a 2-D array, bit for bit
    what _kl_nats gives row by row.

    When a row and q are positive everywhere, the mask in _kl_nats keeps every
    entry, so a block of such rows gets the same elementwise terms and the same
    per-row pairwise sum at once, with log q taken once. A row with a zero, and
    every row when q has one, goes through _kl_nats.
    """
    q_positive = bool(np.all(q > 0.0))
    logq = np.log(q) if q_positive else None
    size = max(1, _KL_BLOCK_ENTRIES // rows.shape[1])
    for start in range(0, len(rows), size):
        block = rows[start:start + size]
        block_out = out[start:start + size]
        positive = np.all(block > 0.0, axis=1) & q_positive
        if positive.any():
            kept = block if positive.all() else block[positive]
            terms = np.log(kept)
            terms -= logq
            terms *= kept
            block_out[positive] = terms.sum(axis=1) + 0.0
        for i in np.flatnonzero(~positive):
            block_out[i] = _kl_nats(block[i], q)


def mutual_information(j: JointDistribution) -> InfoQuantity:
    """I(S1,S2) = D(joint ‖ product of marginals); finite and non-negative."""
    product = JointDistribution.from_product(j.marginal_first(), j.marginal_second())
    value = relative_entropy(j.flatten(), product.flatten()).nats
    if -1e-9 < value < 0.0:
        value = 0.0  # summation noise on (near-)independent joints
    return InfoQuantity(value)


def decompose_information(
    j: JointDistribution, pi1: Distribution, pi2: Distribution
) -> InfoDecomposition:
    """Split D(p‖π1⊗π2) into D(p1‖π1) + D(p2‖π2) + I(S1,S2).

    The equilibrium marginals must be strictly positive so every part
    stays finite.
    """
    n1, n2 = j.shape
    if len(pi1) != n1 or len(pi2) != n2:
        raise ShapeError(
            f"equilibrium marginals of lengths {len(pi1)}, {len(pi2)} do not "
            f"match joint shape {j.shape}"
        )
    if np.any(pi1.probs == 0.0) or np.any(pi2.probs == 0.0):
        raise DomainError("equilibrium marginals must be strictly positive")
    reference = JointDistribution.from_product(pi1, pi2)
    return InfoDecomposition(
        total=relative_entropy(j.flatten(), reference.flatten()),
        part1=relative_entropy(j.marginal_first(), pi1),
        part2=relative_entropy(j.marginal_second(), pi2),
        correlation=mutual_information(j),
    )
