"""Discrete-time Markov chains and the Second-Law audit.

The audit machinery exists to falsify demon proposals: if the dynamics
are Markovian, relative entropy to a stationary distribution (every finite
chain has one) cannot increase, detailed balance or not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import TextIO

import numpy as np

from .errors import ShapeError, _count
from .info import LOG2, Distribution
from .info import _RENORM_SKIP, _check_same_length, _kl_rows, _log_reference, _probability_rows

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


class StationaryMultiplicityWarning(UserWarning):
    """The chain has more than one closed class, so more than one stationary
    distribution."""


@dataclass(frozen=True, eq=False)
class Channel:
    """A row-stochastic matrix: row i is the next-state distribution from i.

    Each row of a C-ordered copy is held to _probability_rows, as a
    Distribution is, so the layout the matrix was given in changes no bit.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=float, order="C")
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
    that did not settle). evolve computes only the rows before it; each
    array is built once, on its first read, from those rows, so holding a
    Trajectory that is never read costs the rows computed, not T.
    """

    _probs: np.ndarray = field(repr=False)
    _d_nats: np.ndarray = field(repr=False)
    reference: Distribution
    settled: int

    @cached_property
    def probs(self) -> np.ndarray:
        return self._repeat_tail(self._probs)

    @cached_property
    def d_nats(self) -> np.ndarray:
        return self._repeat_tail(self._d_nats)

    def _repeat_tail(self, rows: np.ndarray) -> np.ndarray:
        """rows if the chain never settled, else a new read-only array with its tail repeated."""
        if self.settled == len(rows):
            return rows
        full = np.empty_like(rows)
        full[:self.settled] = rows[:self.settled]
        full[self.settled:] = rows[self.settled - 1]
        full.setflags(write=False)
        return full

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
    audit proceeds with this one. The solve is _stationary_distributions on
    a stack of one, and its row is held to the probability rule here.
    """
    return Distribution(_stationary_distributions(channel.matrix[None])[0])


def _stationary_distributions(stack: np.ndarray) -> np.ndarray:
    """The stationary rows of a (B, n, n) stack of channel matrices, as a
    new (B, n) array, each row bit for bit its chain's own solve and not yet
    held to the probability rule. A stack with no zero entry is one stacked
    elimination. Otherwise each chain's closed classes are found: the chains
    whose first class covers every state share one stacked elimination, and
    every other chain is solved one class at a time into its row, with a
    StationaryMultiplicityWarning if it has more than one class (pointed at
    the caller of stationary_distribution)."""
    if stack.all():  # no zero entry, so one closed class over every state
        return _gth_solve(stack)
    pis = np.zeros(stack.shape[:2])
    irreducible = []
    for b, matrix in enumerate(stack):
        classes = _closed_classes(matrix)
        if len(classes[0]) == len(matrix):
            irreducible.append(b)
            continue
        recurrent = sum(len(members) for members in classes)
        for members in classes:
            block = _gth_solve(matrix[np.ix_(members, members)][None])[0]
            pis[b, members] = block * (len(members) / recurrent)
        if len(classes) > 1:
            warnings.warn(
                f"chain has {len(classes)} closed classes, so multiple stationary "
                f"distributions; auditing against their recurrent-share mixture",
                StationaryMultiplicityWarning,
                stacklevel=3,
            )
    if irreducible:  # every chain, as an audit's one chain is: solve the stack, not a copy
        chains = slice(None) if len(irreducible) == len(stack) else irreducible
        pis[chains] = _gth_solve(stack[chains])
    return pis


def check_detailed_balance(channel: Channel, pi: Distribution) -> bool:
    """True iff pi_i K_ij = pi_j K_ji for all pairs, to rounding.

    A flux that is zero one way must be zero the other way too. That is
    checked exactly first, on the signs of pi_i and K_ij, so that a one-way
    flux that underflows still breaks detailed balance. Then each pair of
    fluxes must agree to 8 n^2 machine epsilons relative to the larger of
    the two, so a faint flux counts as much as a strong one. Every pair is
    compared on np.frexp mantissas and exponents: the mantissa product is
    the one rounding a normal flux takes, the exponents add exactly, and
    each pair is scaled by 2^-(its larger exponent), so a flux below the
    normal range keeps its precision instead of rounding towards 0.
    The verdict is about the stored matrix: rates built to be reversible
    whose rounding breaks that by more (Metropolis rates from energies
    hundreds of kT apart) read as not in balance.
    """
    _check_length(pi, channel)
    return bool(_detailed_balance_rows(channel.matrix, pi.probs))


def _detailed_balance_rows(matrices: np.ndarray, pis: np.ndarray) -> np.ndarray:
    """check_detailed_balance of each K of a (..., n, n) stack of channel
    matrices against the same row of (..., n) stationary rows, as a bool per
    chain (a numpy bool for one chain's 2-D K). Every test is entrywise, so
    a chain's verdict does not depend on the stack. The fluxes are not
    compared when no chain passes the sign test, so a single chain that
    fails it stops there; they are formed in place, so the check holds
    about three arrays the size of the matrices beside them."""
    flows = (pis > 0.0)[..., :, None] & (matrices > 0.0)
    balanced = np.logical_and.reduce(flows == flows.swapaxes(-1, -2), (-2, -1))
    if not balanced.any():
        return balanced
    m_pi, e_pi = np.frexp(pis)
    flux, exponent = np.frexp(matrices)
    flux *= m_pi[..., :, None]
    exponent += e_pi[..., :, None]
    exponent -= np.maximum(exponent, exponent.swapaxes(-1, -2))
    np.ldexp(flux, exponent, flux)
    del exponent
    back = flux.swapaxes(-1, -2)
    gap = np.subtract(flux, back)
    np.abs(gap, gap)
    bound = np.maximum(flux, back)
    bound *= _BALANCE_SLACK * matrices.shape[-1] ** 2
    return balanced & np.logical_and.reduce(gap <= bound, (-2, -1))


def _horizon(matrices: np.ndarray):
    """(budget, drift): what _rows_ahead takes, with the computed sum S of a
    non-negative row p, to tell how many of the rows pK, pK^2, ... after p,
    each stepped from the one before, are sure to sum to within _RENORM_SKIP
    of 1 as computed (below 0: none). The budget is a float; the drift D is
    a float for one matrix and, for a stack of matrices, an array of its
    leading shape, one per matrix.

    With u the unit roundoff, n the states and gamma_k = ku/(1 - ku)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1
    and 4.2): each entry of a product of non-negative p and K, summed in
    any order, FMA or not, is within gamma_n of exact, and each computed
    sum, r of a row of K included, within gamma_(n-1). So a step scales a
    row's exact sum by a factor within D = max |r - 1| + (2n + 2)u of 1,
    and the m = floor((_RENORM_SKIP - |S - 1| - 4nu) / D) rows after p sum
    to within _RENORM_SKIP of 1. The slack over 2 gamma_(n-1) + mD covers
    second-order terms, underflow (n^2 2^-1075 in all) and rounding m.
    """
    n = matrices.shape[-1]
    unit = np.finfo(float).eps / 2
    drift = np.abs(np.add.reduce(matrices, -1) - 1.0).max(-1) + (2 * n + 2) * unit
    return _RENORM_SKIP - 4 * n * unit, drift


def _rows_ahead(budget: float, drift, totals):
    """_horizon's m for each computed sum S in totals, against the drift of
    the same shape (or one scalar drift), as int64s."""
    return ((budget - abs(totals - 1.0)) // drift).astype(np.int64)


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
    A step of _step_rows, the loop the monotonicity sweep steps its stacks
    with too, is one product and one byte compare. Each call takes its first
    check from the sum of p0; after it a row's sum is taken only where
    _horizon says it may stray, and then sets the next check.

    The loop stops at the chain's floating-point fixed point: once a step
    returns its input bit for bit, the remaining rows are that row and the
    remaining D values are its D. This is exact, not a tolerance: the step
    and the KL depend only on the bits of their inputs, so running on would
    reproduce the same bits. Both (steps + 1)-row arrays are reserved up
    front, so a step count that no memory holds fails here at once, but
    only the rows before the fixed point are written; the Trajectory builds
    each full array from them on its first read. A long run therefore
    costs the steps until p_t stops changing, in time and in resident
    memory, not `steps`; a chain that never settles (a rotation) runs every
    step. The D values are computed after the loop, in one pass over the
    rows it produced, bit for bit what a per-step KL would give.
    """
    steps = _count("steps", steps, 0)
    if reference is None:
        reference = stationary_distribution(channel)
    if not len(p0) == len(reference) == len(channel):
        raise ShapeError(f"p0 and reference of lengths {len(p0)}, {len(reference)} "
                         f"against a {len(channel)}-state channel")
    matrix = channel.matrix
    try:
        probs = np.empty((steps + 1, len(matrix)))
    except ValueError:  # more bytes than numpy can count: no memory holds it either
        raise MemoryError(f"Unable to allocate {steps + 1} rows of {len(matrix)} "
                          f"probabilities") from None
    d_nats = np.empty(steps + 1)
    probs[0] = p0.probs
    settled = _step_rows(probs, matrix, *_horizon(matrix))
    _kl_rows(probs[:settled], _log_reference(reference.probs), d_nats[:settled])
    probs.setflags(write=False)
    d_nats.setflags(write=False)
    return Trajectory(probs, d_nats, reference, settled)


def _step_rows(rows: np.ndarray, matrices: np.ndarray, budget: float, drift) -> int:
    """Fill each row from the one before with one product: one chain's
    (T, n) rows by its (n, n) matrix, its drift a scalar, or a (B, n, n)
    stack's (T, B, 1, n) rows by one matmul, which gives each row the bits
    of its own product, its drifts a (B, 1) array. The first check comes
    from the sums of row 0. At each check every row is summed, divided by
    its sum if that is off 1 by more than _RENORM_SKIP and summed again,
    and _rows_ahead on the budget and drifts of _horizon sets the next one,
    the earliest of the chains'. By _horizon's bound a row that is not
    summed does not stray, so each chain gets the bits it gets on its own,
    whichever rows are summed. Returns the first row where every chain
    repeats the row before, or len(rows)."""
    if matrices.ndim == 3:
        product, any_of, earliest = np.matmul, np.ndarray.any, np.ndarray.min
    else:  # 1-D rows, which ndarray.dot needs, and scalar sums
        product, any_of, earliest = np.ndarray.dot, bool, int
    prev, last = rows[0], rows[0].tobytes()
    due = 1 + int(earliest(_rows_ahead(budget, drift, np.add.reduce(prev, -1))))
    for w, row in enumerate(rows[1:], 1):
        product(prev, matrices, row)
        if w >= due:
            totals = np.add.reduce(row, -1)
            astray = abs(totals - 1.0) > _RENORM_SKIP
            if any_of(astray):
                np.divide(row, totals[..., None], row, where=astray[..., None])
                totals = np.add.reduce(row, -1)
            due = w + 1 + int(earliest(_rows_ahead(budget, drift, totals)))
        now = row.tobytes()
        if now == last:
            return w
        prev, last = row, now
    return len(rows)


def _largest_rises(p0s: np.ndarray, matrices: np.ndarray, references: np.ndarray,
                   steps: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """(rises, settled) of each chain of a (B, n, n) stack of checked channel
    matrices over `steps` steps, started from its row of p0s and measured
    against its row of references: the largest rise of D(p_t‖reference),
    bit for bit _max_positive_jump of the D values evolve gives the chain,
    and the step where evolve finds its fixed point (steps + 1 where it
    finds none).

    The chains step through _step_rows, evolve's loop, as (B, 1, n) rows by
    one matmul per step, a stack of one chain included, one call per window
    of at most `window` numbers of rows, so what a stack holds depends on
    neither `steps` nor how long its chains run. A window starts from the
    last row of the one before, so each rise between windows is seen, and
    takes its first check from that row's sums. After it each chain's fixed
    point, the first row equal to the row before, is found from the rows,
    and the chains that settled are dropped: the others' matrices and drifts
    of the stack's _horizon are taken into new arrays, so no argument is
    written to.
    """
    batch, n = p0s.shape
    rises, settled = np.zeros(batch), np.full(batch, steps + 1)
    budget, drifts = _horizon(matrices)
    drifts = drifts[:, None]  # (B, 1), as the sums of (B, 1, n) rows are; each kept with its chain
    live, last, log_refs, start = np.arange(batch), p0s, _log_reference(references), 0
    while True:
        batch = len(live)
        width = max(1, min(steps - start, window // (batch * (n + 2)) - 1))
        grid = np.empty((width + 1, batch, n))
        grid[0] = last
        end = _step_rows(grid[:, :, None], matrices, budget, drifts)
        bits = grid[:end + 1].view(np.int64)  # the rows written
        repeats = (bits[1:] == bits[:-1]).all(2)
        done = repeats.any(0)
        lengths = np.where(done, repeats.argmax(0) + 1, len(bits))  # rows before each fixed point
        settled[live[done]] = start + lengths[done]
        # every chain's D up to the last row any chain needs; the rows past a
        # chain's fixed point repeat it, so they add no rise (if a division
        # made that row, _horizon is 0 there and divides each later one back)
        m = int(lengths.max())
        d_nats = np.empty((m, batch))
        _kl_rows(grid[:m].reshape(-1, n), np.broadcast_to(log_refs, (m, batch, n)).reshape(-1, n),
                 d_nats.reshape(-1))
        rises[live] = np.maximum(rises[live], _max_positive_jump(d_nats))
        start += width
        if start >= steps or done.all():
            return rises, settled
        last = grid[-1].copy()  # the loop ran the whole window, or all chains settled
        if done.any():
            keep = np.flatnonzero(~done)
            matrices, drifts = matrices[keep], drifts[keep]
            live, last, log_refs = live[keep], last[keep], log_refs[keep]


def _max_positive_jump(d: np.ndarray):
    # over axis 0; equal values, inf to inf among them, are no change
    later, earlier = d[1:], d[:-1]
    jumps = np.subtract(later, earlier, out=np.zeros(later.shape), where=later != earlier)
    return jumps.max(0, initial=0.0)


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
    steps = _count("steps", steps, 1)
    pi = stationary_distribution(channel)
    detailed_balance = check_detailed_balance(channel, pi)
    trajectory = evolve(p0, channel, steps, pi if reference is None else reference)
    # every jump in the repeated tail is 0, so the computed rows decide
    max_violation = float(_max_positive_jump(trajectory._d_nats[:trajectory.settled]))
    return AuditVerdict(
        stationary=pi,
        detailed_balance=detailed_balance,
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
