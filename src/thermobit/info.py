"""Information measures over finite distributions.

Natural logarithms throughout, so one bit equals log(2) nats. Terms with
zero probability contribute exactly zero and are never pushed through a
log; a positive probability matched against a zero reference probability
yields +inf (an absolute-continuity violation) instead of an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

LOG2 = math.log(2.0)

# Input slack: how far a probability vector's sum may stray from 1 before it
# is rejected outright, and the rounding allowed wherever an input's
# probabilities are compared (a bit's classification, a joint's independence).
SUM_TOLERANCE = 1e-9

# Below this the vector counts as already normalized and is stored as-is,
# which makes construction idempotent at the bit level (a renormalized
# vector re-enters construction unchanged; the DSL round-trip relies on it).
_RENORM_SKIP = 1e-12


def _renormalise_first_astray(rows: np.ndarray, sums: np.ndarray) -> int:
    """Renormalise, in place and as _probability_rows would, the first row
    of a 2-D array whose sum strays from 1 by more than _RENORM_SKIP, and
    return its index; len(rows) when no row strays.

    `sums` receives the row sums from one reduce along the rows, which gives
    each row the pairwise sum a 1-D call gives. They are then read as Python
    floats one at a time, which for the few rows between renormalisations
    costs less than more numpy calls, and copies nothing of a long block."""
    np.add.reduce(rows, 1, out=sums)
    for i, total in enumerate(memoryview(sums)):
        if abs(total - 1.0) > _RENORM_SKIP:
            rows[i] /= total
            return i
    return len(rows)


def _probability_rows(arr: np.ndarray, what: str) -> np.ndarray:
    """Hold each row of a 2-D float array to the probability rule, in place,
    and return arr, which the caller owns (a fresh array or a view into one).

    Entries must be finite, then non-negative, and each row must sum to 1
    within SUM_TOLERANCE, or DomainError names the fault (and the first bad
    row, if there are others). A row whose sum strays from 1 by more than
    _RENORM_SKIP is divided by that sum; every other row keeps its bits."""
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} entries must be finite")
    if (arr < 0.0).any():
        raise DomainError(f"{what} entries must be non-negative")
    sums = arr.sum(axis=1)
    astray = np.abs(sums - 1.0)
    worst = astray.max()
    if worst > SUM_TOLERANCE:
        i = int(np.argmax(astray > SUM_TOLERANCE))
        row = f" row {i}" if len(arr) > 1 else ""
        raise DomainError(
            f"{what}{row} must sum to 1 within {SUM_TOLERANCE:g}, got {float(sums[i])!r}"
        )
    if worst > _RENORM_SKIP:
        np.divide(arr, sums[:, None], out=arr, where=(astray > _RENORM_SKIP)[:, None])
    return arr


def _as_prob_array(values, what: str, ndim: int) -> np.ndarray:
    """values as a read-only float array of `ndim` dimensions, held to
    _probability_rows as one row: a memory-order view, so the array keeps
    its layout and is summed as arr.sum() sums it."""
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ShapeError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{what} needs at least one entry")
    _probability_rows(arr.ravel(order="K")[None], what)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over a finite state space.

    Entries are held to _probability_rows: finite, non-negative and summing
    to 1 within SUM_TOLERANCE, then renormalised unless the sum is within
    _RENORM_SKIP of 1. Instances are immutable and safe to share.
    """

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_prob_array(self.probs, "distribution", ndim=1))

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        # n < 1 states get the constructor's ShapeError for no entries
        return cls(np.full(n, 1.0 / n) if n >= 1 else [])

    @classmethod
    def degenerate(cls, n: int, index: int) -> "Distribution":
        if n < 1:
            return cls([])
        if not 0 <= index < n:
            raise DomainError(f"index must lie in [0, {n}), got {index!r}")
        probs = np.zeros(n)
        probs[index] = 1.0
        return cls(probs)

    def __len__(self) -> int:
        return int(self.probs.size)

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __repr__(self) -> str:
        return f"Distribution({self.probs.tolist()!r})"


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A distribution over a product space, indexed (state of S1, state of S2)."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_prob_array(self.probs, "joint distribution", ndim=2))

    @classmethod
    def from_product(cls, first: Distribution, second: Distribution) -> "JointDistribution":
        return cls(np.outer(first.probs, second.probs))

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape

    def marginal_first(self) -> Distribution:
        return Distribution(self.probs.sum(axis=1))

    def marginal_second(self) -> Distribution:
        return Distribution(self.probs.sum(axis=0))

    def flatten(self) -> Distribution:
        """The same distribution viewed over the flat product space (row-major)."""
        return Distribution(self.probs.reshape(-1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __repr__(self) -> str:
        return f"JointDistribution({self.probs.tolist()!r})"


@dataclass(frozen=True)
class InfoQuantity:
    """An amount of information in nats; +inf on support violations."""

    nats: float

    @property
    def bits(self) -> float:
        return self.nats / LOG2

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
    return InfoQuantity(_entropy_rows(p.probs[None]).item())


def _check_same_length(p: Distribution, q: Distribution) -> None:
    if len(p) != len(q):
        raise ShapeError(f"distributions differ in length: {len(p)} vs {len(q)}")


def relative_entropy(p: Distribution, q: Distribution) -> InfoQuantity:
    """D(p‖q) in nats; +inf when some p_i > 0 has q_i = 0."""
    _check_same_length(p, q)
    out = np.empty(1)
    _kl_rows(p.probs[None], _log_reference(q.probs), out)
    return InfoQuantity(out.item())


# _kl_rows works on blocks of about this many entries, so its temporaries
# stay near 256 KB however many rows it is given.
_KL_BLOCK_ENTRIES = 1 << 15


def _log_reference(q: np.ndarray) -> np.ndarray:
    """log q, with -inf where q is 0, for _kl_rows."""
    with np.errstate(divide="ignore"):
        return np.log(q)


def _support_groups(support: np.ndarray):
    """Yield (members, columns) once per distinct row of a 2-D boolean array:
    the indices of the rows equal to it, ascending, and the row itself."""
    packed = np.packbits(support, axis=1)
    words = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
    order = np.lexsort(words.T)
    ordered = words[order]
    starts = np.flatnonzero(np.any(ordered[1:] != ordered[:-1], axis=1)) + 1
    for members in np.split(order, starts):
        yield members, support[members[0]]


def _kl_rows(rows: np.ndarray, log_q: np.ndarray, out: np.ndarray) -> None:
    """out[i] = D(rows[i]‖q) in nats for each row of a 2-D array, where log_q
    is log q of one reference for every row (1-D) or of one reference per row
    (2-D, row i's against rows[i]), as _log_reference gives it.

    Row i's D is the numpy sum of rows[i, j] (log rows[i, j] - log_q[j]) over
    just the j with rows[i, j] > 0, plus 0.0: a 1-D pairwise sum of those
    terms alone. A term where q is 0 is +inf, and so is the D. With log_q = 0
    it is the negative entropy -H(rows[i]), D against all ones.

    Rows that are positive on the same columns are done together, a group of
    each block at once: the same elementwise terms on the kept columns, and
    the same per-row pairwise sum. That sum needs each row's terms
    contiguous, so the kept columns are copied in C order.
    """
    per_row = log_q.ndim == 2
    size = max(1, _KL_BLOCK_ENTRIES // rows.shape[1])
    for start in range(0, len(rows), size):
        block = rows[start:start + size]
        block_out = out[start:start + size]
        block_log_q = log_q[start:start + size] if per_row else log_q
        support = block > 0.0
        if support.all():
            groups = [(slice(None), support[0])]
        else:
            groups = _support_groups(support)
        for members, columns in groups:
            kept = block[members]
            reference = block_log_q[members] if per_row else block_log_q
            if not columns.all():
                kept = np.ascontiguousarray(kept[:, columns])
                reference = reference[..., columns]
            terms = np.log(kept)
            terms -= reference
            terms *= kept
            block_out[members] = terms.sum(axis=1) + 0.0


def _entropy_rows(rows: np.ndarray) -> np.ndarray:
    """H of each row of a 2-D array in nats: -D(rows[i]‖1), D against all
    ones by _kl_rows, which sums only the positive entries, plus 0.0."""
    out = np.empty(len(rows))
    _kl_rows(rows, np.zeros(rows.shape[1]), out)
    return -out + 0.0


def mutual_information(j: JointDistribution) -> InfoQuantity:
    """I(S1,S2) = D(joint ‖ product of marginals); finite and non-negative."""
    product = JointDistribution.from_product(j.marginal_first(), j.marginal_second())
    value = relative_entropy(j.flatten(), product.flatten()).nats
    if -SUM_TOLERANCE < value < 0.0:
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
