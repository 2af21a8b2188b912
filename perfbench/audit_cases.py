"""Known-answer Markov chains for the audit-hard workload.

Every chain is built so that its stationary distribution, its number of
closed classes and the expected audit verdict follow from the
construction. None of it is computed with thermobit: each expected pi is a
closed form in ``fractions.Fraction``, certified by exact integer
arithmetic on the stored float entries, and each closed-class count is
certified by a reachability closure on the support graph.

The seed draws starting distributions, state labellings, transient
targets, references and instance order. It never changes the families,
sizes, couplings, spectra or step counts, so every seed gives a pass of
the same cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

PI_TOLERANCE = 1e-9  # max-norm distance allowed from the exact pi

# Couplings at or below this hit the seed solver's 10^6-iteration cap.
# Wrong verdicts there are the documented power-iteration defect.
KNOWN_DEFECT_COUPLING = 1e-5


@dataclass(frozen=True)
class AuditCase:
    family: str
    matrix: np.ndarray
    p0: np.ndarray
    steps: int
    reference: np.ndarray | None
    expect_monotone: bool
    exact_pi: tuple[Fraction, ...] | None  # None when pi is not unique
    closed_classes: int
    known_defect: bool

    @property
    def exact_pi_float(self) -> np.ndarray | None:
        if self.exact_pi is None:
            return None
        return np.array([float(x) for x in self.exact_pi])


# --------------------------------------------------------------------------
# exact certificates
# --------------------------------------------------------------------------


def _integer_matrix(matrix: np.ndarray) -> tuple[list[list[int]], int]:
    """Entries as integers over one power-of-two denominator."""
    ratios = [[float(x).as_integer_ratio() for x in row] for row in matrix]
    denom = max(d for row in ratios for _, d in row)
    return [[num * (denom // d) for num, d in row] for row in ratios], denom


def certify_stationary(matrix: np.ndarray, pi: tuple[Fraction, ...]) -> None:
    """Raise unless pi balances the stored off-diagonal rates exactly.

    Stationarity is checked as global balance on the off-diagonal entries,
    sum_{i != j} pi_i K_ij == pi_j sum_{k != j} K_jk, which defines the
    stationary distribution without the rounded diagonal.
    """
    if sum(pi) != 1 or min(pi) < 0:
        raise ValueError("exact pi is not a probability vector")
    k, _ = _integer_matrix(matrix)
    lcd = math.lcm(*(x.denominator for x in pi))
    weights = [int(x * lcd) for x in pi]
    n = len(pi)
    for j in range(n):
        inflow = sum(weights[i] * k[i][j] for i in range(n) if i != j)
        outflow = weights[j] * (sum(k[j]) - k[j][j])
        if inflow != outflow:
            raise ValueError(f"exact pi fails balance at state {j}")


def count_closed_classes(matrix: np.ndarray) -> int:
    """Closed communicating classes of the support graph, by closure."""
    n = matrix.shape[0]
    reach = ((matrix > 0.0) | np.eye(n, dtype=bool)).astype(np.float64)
    for _ in range(max(1, math.ceil(math.log2(n)))):
        reach = ((reach @ reach) > 0.0).astype(np.float64)
    reach_b = reach > 0.0
    # i lies in a closed class iff everything reachable from i reaches i
    closed = [i for i in range(n) if np.all(reach_b[reach_b[i], i])]
    return len({tuple(np.flatnonzero(reach_b[i])) for i in closed})


# --------------------------------------------------------------------------
# families
# --------------------------------------------------------------------------


def _dirichlet(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n))


def _finish_rows(matrix: np.ndarray) -> np.ndarray:
    """Set each diagonal to one minus its row's off-diagonal mass."""
    out = matrix.copy()
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, 1.0 - out.sum(axis=1))
    return out


def _permute(matrix: np.ndarray, pi: tuple[Fraction, ...], perm: np.ndarray):
    """Relabel states: new state k is old state perm[k]."""
    return matrix[np.ix_(perm, perm)], tuple(pi[int(i)] for i in perm)


def _cycle_mix(rng: np.random.Generator, n: int) -> np.ndarray:
    """(2C + I + C²)/4 for an n-cycle C through a random state order.

    Doubly stochastic with exact entries, so pi is uniform; irreducible;
    and its spectrum depends on n only, so the solver's work does not
    change with the seed.
    """
    order = rng.permutation(n)
    cycle = np.zeros((n, n))
    cycle[order, np.roll(order, -1)] = 1.0
    return 0.5 * cycle + 0.25 * np.eye(n) + 0.25 * (cycle @ cycle)


def two_state(a: float) -> tuple[np.ndarray, tuple[Fraction, ...]]:
    """K = [[1-a, a], [2a, 1-2a]]; pi = (2/3, 1/3) for every a."""
    matrix = np.array([[1.0 - a, a], [2.0 * a, 1.0 - 2.0 * a]])
    up, down = Fraction(matrix[0, 1]), Fraction(matrix[1, 0])
    return matrix, (down / (up + down), up / (up + down))


def block_chain(m1: int, m2: int, a: float, inner: float) -> tuple[np.ndarray, tuple[Fraction, ...]]:
    """Two uniformly mixing blocks joined by a weak coupling.

    Each state of block A moves to block B with total rate a and each state
    of B moves back with total rate 2a, spread evenly, so the block masses
    are (2/3, 1/3) and pi is uniform inside each block. Block sizes are
    powers of two, so every off-diagonal entry is exact.
    """
    n = m1 + m2
    matrix = np.zeros((n, n))
    matrix[:m1, :m1] = inner / m1
    matrix[m1:, m1:] = inner / m2
    matrix[:m1, m1:] = a / m2
    matrix[m1:, :m1] = 2.0 * a / m1
    pi = (Fraction(2, 3 * m1),) * m1 + (Fraction(1, 3 * m2),) * m2
    return _finish_rows(matrix), pi


def rotation(n: int) -> tuple[np.ndarray, tuple[Fraction, ...]]:
    """The cyclic shift: periodic with period n, pi uniform."""
    return np.roll(np.eye(n), 1, axis=1), (Fraction(1, n),) * n


def dense(rng: np.random.Generator, n: int) -> tuple[np.ndarray, tuple[Fraction, ...]]:
    """Half uniform mixing plus eight permutations at 1/16 each: every entry
    positive and dyadic, doubly stochastic, generally not reversible."""
    matrix = np.full((n, n), 0.5 / n)
    for _ in range(8):
        matrix[np.arange(n), rng.permutation(n)] += 1.0 / 16.0
    return matrix, (Fraction(1, n),) * n


def with_transients(
    rng: np.random.Generator, classes: list[int], transients: int
) -> tuple[np.ndarray, tuple[Fraction, ...] | None]:
    """Closed doubly stochastic classes plus transient states feeding them.

    Each transient state keeps 1/8 of its mass in the transient set and
    sends the rest evenly to one state of every closed class, so it is
    transient.
    With one class pi is uniform on it and zero elsewhere; with more than
    one, pi is not unique and None is returned.
    """
    n = sum(classes) + transients
    matrix = np.zeros((n, n))
    start = 0
    for size in classes:
        block = slice(start, start + size)
        matrix[block, block] = _cycle_mix(rng, size)
        start += size
    closed = start
    for t in range(closed, n):
        stay = Fraction(1, 8)
        if transients > 1:
            others = [s for s in range(closed, n) if s != t]
            matrix[t, others[int(rng.integers(len(others)))]] += float(stay)
        else:
            matrix[t, t] += float(stay)
        class_start = 0
        share = (1 - stay) / len(classes)
        for size in classes:
            matrix[t, class_start + int(rng.integers(size))] += float(share)
            class_start += size
    if len(classes) > 1:
        return matrix, None
    pi = (Fraction(1, classes[0]),) * classes[0] + (Fraction(0),) * transients
    return matrix, pi


# --------------------------------------------------------------------------
# the workload
# --------------------------------------------------------------------------

_TWO_STATE_COUPLINGS = [1e-2] * 8 + [1e-3] * 8 + [1e-4] * 2
_BLOCK_SHAPES = [(2, 2), (2, 4), (4, 2), (4, 4), (2, 8), (8, 4)]
_BLOCK_COUPLINGS = (1e-2, 1e-3)
_ROTATION_SIZES = [3, 4, 5, 6, 8, 10, 12, 16, 6, 8, 12, 16]
# The small reducible and non-stationary-reference chains are the largest
# group, so the median latency falls among these cheap audits and not on
# the edge between two families of different cost.
_TRANSIENT_SHAPES = [([2], 1), ([3], 2), ([4], 4), ([2], 6), ([3], 1), ([4], 2),
                     ([2], 4), ([3], 6), ([4], 1), ([2], 2), ([3], 4), ([4], 6)] * 2
_TWO_CLASS_SHAPES = [([2, 2], 0), ([2, 3], 1), ([3, 4], 2), ([4, 2], 0), ([3, 3], 1), ([2, 4], 2),
                     ([4, 4], 0), ([3, 2], 1), ([4, 3], 2), ([2, 2], 2), ([3, 3], 0), ([4, 4], 1)] * 2
_DENSE_COUNT = 10
_DENSE_SIZE = 128
_DENSE_STEPS = 1000  # keeps these BLAS-threaded audits well above the median
_LONG_HORIZONS = (10_000, 10_000, 50_000)
_NONSTATIONARY_SIZES = [2, 3, 4, 5, 6, 8, 2, 3, 4, 5, 6, 8] * 2
_AUDIT_STEPS = 100


def _case(family, matrix, pi, rng, *, steps=_AUDIT_STEPS, classes=1,
          coupling=None, p0=None, reference=None, expect_monotone=True,
          relabel=True) -> AuditCase:
    n = matrix.shape[0]
    if relabel and pi is not None:
        matrix, pi = _permute(matrix, pi, rng.permutation(n))
    if pi is not None:
        certify_stationary(matrix, pi)
    found = count_closed_classes(matrix)
    if found != classes:
        raise ValueError(f"{family}: built {classes} closed classes, found {found}")
    return AuditCase(
        family=family,
        matrix=matrix,
        p0=_dirichlet(rng, n) if p0 is None else p0,
        steps=steps,
        reference=reference,
        expect_monotone=expect_monotone,
        exact_pi=pi,
        closed_classes=classes,
        known_defect=coupling is not None and coupling <= KNOWN_DEFECT_COUPLING,
    )


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    return math.fsum(float(x) * math.log(float(x) / float(y)) for x, y in zip(p, q) if x > 0)


def _nonstationary_reference(rng, n: int) -> AuditCase:
    """Audit against a reference that is not stationary, starting from the
    reference itself: D(p_0||ref) = 0 and D(p_1||ref) > 0, a violation."""
    if n == 2:
        matrix, pi = two_state(0.1)
    else:
        matrix, pi = _cycle_mix(rng, n), (Fraction(1, n),) * n
    while True:
        reference = rng.dirichlet(np.full(n, 0.5))
        if _kl(reference @ matrix, reference) > 1e-6:
            break
    return _case("nonstationary-reference", matrix, pi, rng, p0=reference,
                 reference=reference, expect_monotone=False, relabel=False)


def generate(seed: int) -> list[AuditCase]:
    """The audit-hard pass for one seed, in a seed-dependent order."""
    rng = np.random.default_rng([seed, 0xA0D17])
    cases: list[AuditCase] = []
    for a in _TWO_STATE_COUPLINGS:
        matrix, pi = two_state(a)
        cases.append(_case("two-state", matrix, pi, rng, coupling=a, relabel=False))
    for a in _BLOCK_COUPLINGS:
        for m1, m2 in _BLOCK_SHAPES:
            matrix, pi = block_chain(m1, m2, a, 0.5)
            cases.append(_case("block", matrix, pi, rng, coupling=a))
    # The two documented solver defects: pi off by ~5e-8 at a = 1e-5, and
    # NoStationaryError (audited as a violation) at a = 1e-7.
    matrix, pi = two_state(1e-5)
    cases.append(_case("two-state", matrix, pi, rng, coupling=1e-5, relabel=False))
    matrix, pi = block_chain(4, 4, 1e-7, 0.5)
    cases.append(_case("block", matrix, pi, rng, coupling=1e-7))
    for n in _ROTATION_SIZES:
        matrix, pi = rotation(n)
        cases.append(_case("rotation", matrix, pi, rng))
    for classes, transients in _TRANSIENT_SHAPES:
        matrix, pi = with_transients(rng, classes, transients)
        cases.append(_case("transient", matrix, pi, rng))
    for classes, transients in _TWO_CLASS_SHAPES:
        matrix, pi = with_transients(rng, classes, transients)
        cases.append(_case("two-class", matrix, pi, rng, classes=2))
    for _ in range(_DENSE_COUNT):
        matrix, pi = dense(rng, _DENSE_SIZE)
        cases.append(_case("dense", matrix, pi, rng, steps=_DENSE_STEPS))
    for steps in _LONG_HORIZONS:
        matrix, pi = two_state(1e-2)
        cases.append(_case("long-horizon", matrix, pi, rng, steps=steps, relabel=False))
    for n in _NONSTATIONARY_SIZES:
        cases.append(_nonstationary_reference(rng, n))
    order = rng.permutation(len(cases))
    return [cases[int(i)] for i in order]
