"""Tests for the Markov-chain engine and the Second-Law auditor."""

import inspect
import io
import math
import re
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermobit import (
    Channel,
    Distribution,
    DomainError,
    ShapeError,
    StationaryMultiplicityWarning,
    apply_channel,
    check_detailed_balance,
    data_processing_check,
    evolve,
    relative_entropy,
    second_law_audit,
    stationary_distribution,
)
from thermobit import dsl, info, markov

import exact
from stepwise import first_repeat, step_by_step

DATA = Path(__file__).parent / "data" / "demo.tbit"
LOG2 = math.log(2.0)


def _random_channel(rng, n):
    return Channel(rng.dirichlet(np.ones(n), size=n))


def _random_dist(rng, n):
    return Distribution(rng.dirichlet(np.ones(n)))


def _stationary_without_warning(channel):
    with warnings.catch_warnings():
        warnings.simplefilter("error", StationaryMultiplicityWarning)
        return stationary_distribution(channel)


# -- apply_channel ---------------------------------------------------------------

def test_apply_identity_channel():
    p = Distribution([0.2, 0.3, 0.5])
    assert apply_channel(p, Channel(np.eye(3))) == p


def test_apply_one_step_mixing_channel():
    row = np.array([0.1, 0.6, 0.3])
    channel = Channel(np.tile(row, (3, 1)))
    for p in (Distribution([1, 0, 0]), Distribution([0.2, 0.5, 0.3])):
        assert np.allclose(apply_channel(p, channel).probs, row, atol=1e-15)


def test_apply_worked_two_state():
    p = Distribution([1.0, 0.0])
    channel = Channel([[0.5, 0.5], [0.0, 1.0]])
    assert np.allclose(apply_channel(p, channel).probs, [0.5, 0.5])


def test_apply_shape_mismatch():
    with pytest.raises(ShapeError):
        apply_channel(Distribution.uniform(2), Channel(np.eye(3)))


def test_apply_preserves_simplex_before_renormalization():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        p = _random_dist(rng, n)
        channel = _random_channel(rng, n)
        raw = p.probs @ channel.matrix
        assert np.all(raw >= 0.0)
        assert abs(float(raw.sum()) - 1.0) <= 1e-12


# -- stationary distributions -------------------------------------------------------

def test_stationary_two_state_closed_form():
    rng = np.random.default_rng(5)
    pairs = [tuple(rng.uniform(0.05, 0.95, 2)) for _ in range(50)]
    # slow mixing: the spectral gap a + b is too small for any residual test
    # on pi K - pi to tell pi = (2/3, 1/3) from the uniform vector
    pairs += [(a, 2 * a) for a in (1e-9, 1e-11, 1e-13)]
    for a, b in pairs:
        pi = _stationary_without_warning(Channel([[1 - a, a], [b, 1 - b]]))
        assert np.max(np.abs(pi.probs - [b / (a + b), a / (a + b)])) <= 1e-15


def test_stationary_doubly_stochastic_is_uniform():
    n = 5
    rotation = np.roll(np.eye(n), 1, axis=1)
    channel = Channel(0.5 * np.eye(n) + 0.3 * rotation + 0.2 * rotation @ rotation)
    pi = stationary_distribution(channel)
    assert np.max(np.abs(pi.probs - 1.0 / n)) < 1e-10


def test_stationary_identity_channel_warns_about_multiplicity():
    with pytest.warns(StationaryMultiplicityWarning):
        pi = stationary_distribution(Channel(np.eye(4)))
    assert np.allclose(pi.probs, 0.25)


def test_stationary_periodic_chain_converges_via_lazy_iteration():
    swap = Channel([[0.0, 1.0], [1.0, 0.0]])
    assert _stationary_without_warning(swap).probs.tolist() == [0.5, 0.5]
    rotation = Channel(np.roll(np.eye(4), 1, axis=1))
    assert _stationary_without_warning(rotation).probs.tolist() == [0.25] * 4
    # period 2 with a non-uniform pi: 0 -> {1, 2} -> 0
    bipartite = Channel([[0.0, 0.25, 0.75], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert _stationary_without_warning(bipartite).probs.tolist() == [0.5, 0.125, 0.375]


def test_stationary_transient_states_get_exactly_zero():
    # 0 and 3 leak into the closed class {1, 2}, whose pi is (4/11, 7/11)
    channel = Channel([
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.3, 0.7, 0.0],
        [0.0, 0.4, 0.6, 0.0],
        [0.2, 0.0, 0.0, 0.8],
    ])
    pi = _stationary_without_warning(channel)
    assert pi[0] == 0.0 and pi[3] == 0.0
    assert np.max(np.abs(pi.probs[1:3] - [4 / 11, 7 / 11])) <= 1e-15


def test_stationary_two_closed_classes_warn_and_weight_by_size():
    # closed classes {0} and {2, 3}; state 1 is transient
    channel = Channel([
        [1.0, 0.0, 0.0, 0.0],
        [0.3, 0.4, 0.3, 0.0],
        [0.0, 0.0, 0.9, 0.1],
        [0.0, 0.0, 0.2, 0.8],
    ])
    with pytest.warns(StationaryMultiplicityWarning, match="2 closed classes"):
        pi = stationary_distribution(channel)
    assert np.max(np.abs(pi.probs @ channel.matrix - pi.probs)) <= 1e-15
    assert np.max(np.abs(pi.probs - [1 / 3, 0.0, 4 / 9, 2 / 9])) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10).flatmap(lambda n: st.lists(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n),
    min_size=n, max_size=n,
)))
def test_stationary_is_fixed_by_random_positive_chains(rows):
    matrix = np.array(rows)
    channel = Channel(matrix / matrix.sum(axis=1, keepdims=True))
    pi = _stationary_without_warning(channel)
    assert np.max(np.abs(pi.probs @ channel.matrix - pi.probs)) <= 1e-15


def _gth_outer(matrix):
    """GTH elimination with a fresh np.outer per step, added in place: the
    bit-for-bit oracle for markov._gth_solve, which writes each updated block
    into a contiguous buffer."""
    a = matrix.copy()
    for k in range(len(a) - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    x = np.ones(len(a))
    for k in range(1, len(a)):
        x[k] = x[:k] @ a[:k, k]
    return x / x.sum()


def _oracle_chain(rng, kind, n):
    """A row-stochastic matrix of the given kind for the GTH and class oracles."""
    dense = rng.dirichlet(np.ones(n), size=n)
    if kind == "dense":
        return dense
    if kind == "sparse":  # a few entries per row, plus a cycle through all states
        matrix = dense * (rng.random((n, n)) < 3 / n)
        matrix[np.arange(n), (np.arange(n) + 1) % n] += 0.25
        return matrix / matrix.sum(axis=1, keepdims=True)
    if kind == "slow":  # two blocks; each state leaks a to the other block
        a, half = 10.0 ** -rng.integers(3, 10), n // 2
        matrix = np.zeros((n, n))
        matrix[:half, :half] = rng.dirichlet(np.ones(half), size=half)
        matrix[half:, half:] = rng.dirichlet(np.ones(n - half), size=n - half)
        matrix *= 1 - a
        matrix[np.arange(half), rng.integers(half, n, size=half)] += a
        matrix[np.arange(half, n), rng.integers(half, size=n - half)] += a
        return matrix
    # transients leak into one closed block ("transient") or two ("two-class")
    blocks = 1 if kind == "transient" else 2
    matrix, start = np.zeros((n, n)), 0
    for size in [max(1, n // 3)] * blocks:
        matrix[start:start + size, start:start + size] = rng.dirichlet(np.ones(size), size=size)
        start += size
    matrix[start:] = rng.dirichlet(np.ones(n), size=n - start)
    order = rng.permutation(n)
    return matrix[np.ix_(order, order)]


_ORACLE_SIZES = {"dense": [*range(2, 17), 24, 32, 48, 64, 96, 127, 128],
                 "sparse": [*range(2, 40, 3), 64, 100],
                 "slow": [2, 3, 4, 5, 8, 13, 20, 32, 64],
                 "transient": [*range(2, 30, 2), 50],
                 "two-class": [*range(3, 30, 2), 50]}


@pytest.mark.parametrize("kind", sorted(_ORACLE_SIZES))
def test_stationary_matches_the_outer_product_gth_bit_for_bit(kind):
    rng = np.random.default_rng(101)
    for n in _ORACLE_SIZES[kind] * 3:
        matrix = Channel(_oracle_chain(rng, kind, n)).matrix
        classes = exact._classes_by_search(matrix > 0.0)
        assert len(classes) == (2 if kind == "two-class" else 1)
        recurrent = sum(len(members) for members in classes)
        expected = np.zeros(n)
        for members in classes:
            block = _gth_outer(matrix[np.ix_(members, members)])
            expected[members] = block * (len(members) / recurrent)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StationaryMultiplicityWarning)
            pi = stationary_distribution(Channel(matrix))
        assert pi.probs.tobytes() == expected.tobytes()


_STACKED_KINDS = st.sampled_from(["dense", "sparse", "slow", "rotation"])


# Bit identity rests on numpy reducing each row of a stack by the pairwise
# sum of a 1-D call, and sending a (1, k) @ (k, 1) matmul to the strided dot
# product of a 1-D one. A stack of one chain, up to the 128 states of the
# largest audited chains, takes the one-chain path, whose rank-one products
# give +0.0 where np.outer gives -0.0: the rows must match all the same.
@settings(max_examples=100, deadline=None)
@given(sizes=st.one_of(
           st.tuples(st.integers(2, 40), st.lists(_STACKED_KINDS, min_size=1, max_size=12)),
           st.tuples(st.integers(41, 130), st.lists(_STACKED_KINDS, min_size=1, max_size=1))),
       seed=st.integers(0, 2**32 - 1), negative_zeros=st.booleans())
def test_a_stacked_solve_gives_each_chain_its_own_solve_bit_for_bit(sizes, seed,
                                                                     negative_zeros):
    n, kinds = sizes
    rng = np.random.default_rng(seed)
    chains = []
    for kind in kinds:
        if kind == "rotation":  # as the monotonicity sweep draws it
            chains.append(0.9 * np.roll(np.eye(n), 1, axis=1)
                          + 0.1 * rng.dirichlet(np.ones(n), size=n))
        else:
            chains.append(_oracle_chain(rng, kind, n))
    if negative_zeros:
        chains = [np.where(matrix == 0.0, -0.0, matrix) for matrix in chains]
    stack = np.stack([Channel(matrix).matrix for matrix in chains])
    for matrix, row in zip(stack, markov._gth_solve(stack)):
        assert row.tobytes() == _gth_outer(matrix).tobytes()


def test_a_one_term_dot_rounds_each_entry_as_multiply_does():
    # The one-chain elimination forms its rank-one update as np.dot of a
    # strided (k, 1) column of an (n, n) array and a (1, k) row into a
    # C-contiguous buffer: a BLAS product of one term, which must round each
    # entry once, as np.multiply does, subnormal products included.
    rng = np.random.default_rng(17)
    for k in range(1, 201):
        values = rng.random((2, k + 1, k + 1)) * 2.0 ** -rng.integers(0, 1075, (2, k + 1, k + 1))
        values[rng.random(values.shape) < 0.2] = 0.0
        a, rows = values
        column, row = a[:k, k:k + 1], rows[k:k + 1, :k]
        got = np.empty(k * k).reshape(k, k)
        np.dot(column, row, got)
        assert got.tobytes() == np.multiply(column, row).tobytes()


def test_solving_chains_together_gives_each_its_stationary_distribution():
    rng = np.random.default_rng(7)
    channels = [Channel(_oracle_chain(rng, kind, n))
                for n in (2, 3, 5, 5, 8, 13) for kind in sorted(_ORACLE_SIZES)]
    # stacked by size, so each stack mixes all five kinds and every solver path runs
    with pytest.warns(StationaryMultiplicityWarning) as together_warned:
        together = [row for n in (2, 3, 5, 8, 13) for row in markov._stationary_distributions(
            np.stack([channel.matrix for channel in channels if len(channel) == n]))]
    with pytest.warns(StationaryMultiplicityWarning) as alone_warned:
        alone = [stationary_distribution(channel) for channel in channels]
    assert len(together_warned) == len(alone_warned) == 6  # one per two-class chain
    for row, expected in zip(together, alone):
        assert row.tobytes() == expected.probs.tobytes()


def test_the_stationary_multiplicity_warning_points_at_the_caller_of_stationary_distribution():
    channel = Channel([[0.5, 0.5, 0.0, 0.0], [0.25, 0.75, 0.0, 0.0],
                       [0.0, 0.0, 0.6, 0.4], [0.0, 0.0, 0.3, 0.7]])
    with pytest.warns(StationaryMultiplicityWarning) as called_here:
        stationary_distribution(channel)
    assert called_here[0].filename == __file__
    with pytest.warns(StationaryMultiplicityWarning) as audited:
        second_law_audit(Distribution.uniform(4), channel, 3)
    lines, first = inspect.getsourcelines(markov.second_law_audit)
    assert audited[0].filename == markov.__file__
    assert "stationary_distribution(channel)" in lines[audited[0].lineno - first]


def test_closed_classes_match_a_breadth_first_search():
    rng = np.random.default_rng(43)
    graphs = []
    for n in (2, 3, 5, 16, 17, 33, 64, 100):
        path = np.eye(n, k=1, dtype=bool)  # 0 -> 1 -> ... -> n-1, which is absorbing
        cycle = path.copy()
        cycle[n - 1, 0] = True  # n-1 reaches 0 only in n-1 steps: every squaring counts
        lollipop = cycle.copy()
        lollipop[n - 1, 0], lollipop[n - 1, n // 2] = False, True
        graphs += [path, cycle, lollipop]
    for _ in range(300):
        n = int(rng.integers(1, 40))
        graphs.append(rng.random((n, n)) < rng.uniform(0.0, 3.0 / n))
    for support in graphs:
        got = markov._closed_classes(support.astype(float))
        assert [c.tolist() for c in got] == [c.tolist() for c in exact._classes_by_search(support)]


@settings(max_examples=300, deadline=None)
@given(exact._DYADIC_CHAINS)
# closed classes {0, 1} and {2, 3}, the second joined at 2^-43 and 3 * 2^-43;
# state 4 is transient
@example(([1, 1, 40, 40, 1], [[0, 3, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 3, 0],
                              [0, 0, 1, 0, 0], [2, 0, 1, 0, 0]]))
# a birth-death chain, so reversible, with couplings from 2^-43 to 3 * 2^-4
@example(([40, 1, 20, 2], [[0, 1, 0, 0], [3, 0, 2, 0], [0, 1, 0, 3], [0, 0, 2, 0]]))
# couplings of at least 2^-1000 keep every pi entry normal (by the Markov chain
# tree theorem, above 2^-1018 for n <= 6); state 0 leaks 2^-1033 here, so states
# 1 and 2 get 2^-1029, a subnormal
@example(([1030, 1, 1], [[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
def test_stationary_matches_the_exact_pi_of_dyadic_chains(chain):
    # row i moves to j != i with probability w_ij * 2^-(s_i + 3), down to
    # 2^-1000, and stays with the rest: every off-diagonal entry, and every
    # partial sum of them, is an exact double. The diagonal is rounded once
    # s_i + 3 > 52; neither the library's GTH nor the exact one reads it.
    scales, weights = chain
    n = len(scales)
    k = [[Fraction(w, 2 ** (s + 3)) for w in row] for s, row in zip(scales, weights)]
    for i in range(n):
        k[i][i] = 1 - sum(k[i][j] for j in range(n) if j != i)
    matrix = np.array([[float(x) for x in row] for row in k])
    channel = Channel(matrix)
    stored = [[Fraction(x) for x in row] for row in channel.matrix.tolist()]
    assert all(stored[i][j] == k[i][j] for i in range(n) for j in range(n) if i != j)
    exact_pi = exact.stationary(channel.matrix, exact._classes_by_search(matrix > 0.0))
    exact._certify_stationary(k, exact_pi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StationaryMultiplicityWarning)
        pi = stationary_distribution(channel)
    # entrywise to n^2 machine epsilons, relative: transient states exactly 0.
    # Below the normal range a double keeps fewer significant bits, so there
    # the bound is n^2 subnormal spacings, absolute.
    eps, smallest_normal = Fraction(np.finfo(float).eps), Fraction(np.finfo(float).tiny)
    spacing = Fraction(np.finfo(float).smallest_subnormal)
    for got, want in zip(pi.probs.tolist(), exact_pi):
        bound = n * n * (eps * want if want >= smallest_normal else spacing)
        assert abs(Fraction(got) - want) <= bound
    # so a reversible chain's flux pairs agree to 2 n^2 + 1 epsilons, within
    # the detailed-balance slack, and a coarse asymmetry is never missed
    flux = [[exact_pi[i] * k[i][j] for j in range(n)] for i in range(n)]
    asymmetry = max((abs(flux[i][j] - flux[j][i]) / max(flux[i][j], flux[j][i])
                     for i in range(n) for j in range(i) if flux[i][j] or flux[j][i]),
                    default=0)
    holds = check_detailed_balance(channel, pi)
    if asymmetry == 0:
        assert holds
    elif asymmetry >= Fraction(1, 2 ** 20):
        assert not holds


# -- detailed balance ------------------------------------------------------------------

def test_detailed_balance_symmetric_channel():
    channel = Channel([[0.7, 0.3], [0.3, 0.7]])
    assert check_detailed_balance(channel, Distribution.uniform(2))


def test_detailed_balance_two_state_with_its_stationary():
    channel = Channel([[0.6, 0.4], [0.1, 0.9]])
    pi = stationary_distribution(channel)
    assert check_detailed_balance(channel, pi)  # all 2-state chains are reversible


def test_detailed_balance_fails_for_rotation():
    rotation = Channel(np.roll(np.eye(3), 1, axis=1))
    assert not check_detailed_balance(rotation, Distribution.uniform(3))


def test_detailed_balance_fails_for_a_faint_one_way_cycle():
    # the cycle 1 -> 2 -> 3 -> 1 runs one way only, but its fluxes are about
    # 6e-12, below the absolute 1e-10 flux tolerance the check once used
    channel = Channel([[1.0 - 1e-11, 1e-11, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0],
                       [0.5, 0.0, 0.0, 0.5], [0.5, 0.5, 0.0, 0.0]])
    pi = stationary_distribution(channel)
    flux = pi.probs[:, None] * channel.matrix
    assert np.abs(flux - flux.T).max() < 1e-10
    assert not check_detailed_balance(channel, pi)


def test_detailed_balance_fails_for_a_faint_two_way_cycle():
    # pi is uniform and each flux pair differs by half its size, but the
    # largest difference, 3.3e-12, is below the old absolute 1e-10 tolerance
    e = 1e-11
    channel = Channel([[1 - 3 * e, 2 * e, e], [e, 1 - 3 * e, 2 * e], [2 * e, e, 1 - 3 * e]])
    pi = stationary_distribution(channel)
    assert np.allclose(pi.probs, 1 / 3, rtol=1e-15, atol=0.0)
    flux = pi.probs[:, None] * channel.matrix
    assert np.abs(flux - flux.T).max() < 1e-10
    assert not check_detailed_balance(channel, pi)


def _two_cycles(a, back, forth):
    # state 0 feeds 1 and 2 at rate a; between 1 and 2 the rates are back and forth
    return Channel([[1 - 2 * a, a, a], [0.5, 0.5 - forth, forth], [0.5, back, 0.5 - back]])


@pytest.mark.parametrize("back, forth, holds", [(1e-200, 3e-200, False),
                                                (2e-200, 2e-200, True)],
                         ids=["cycle", "reversible"])
def test_detailed_balance_is_exact_below_the_normal_range(back, forth, holds):
    # pi_1 and pi_2 are about 2e-160, so the fluxes between states 1 and 2
    # (about 6e-360 and 2e-360 for the cycle) underflow to 0.0 as floats
    channel = _two_cycles(1e-160, back, forth)
    pi = stationary_distribution(channel)
    assert pi.probs[1] * channel.matrix[1, 2] == pi.probs[2] * channel.matrix[2, 1] == 0.0
    assert check_detailed_balance(channel, pi) is holds


def test_detailed_balance_holds_for_metropolis_rates_and_two_states_only():
    # Metropolis rates against pi are reversible, and so is every 2-state
    # chain; a dense random chain on more states is not
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        pi = rng.dirichlet(np.ones(n))
        metropolis = rng.random() < 0.5
        if metropolis:
            matrix = np.minimum(1.0, pi[None, :] / pi[:, None]) / n
            np.fill_diagonal(matrix, 0.0)
            np.fill_diagonal(matrix, 1.0 - matrix.sum(axis=1))
        else:
            matrix = rng.dirichlet(np.ones(n), size=n)
        channel = Channel(matrix)
        pi = stationary_distribution(channel)
        assert check_detailed_balance(channel, pi) is (metropolis or n == 2)


def _dyadic(chain):
    """The matrix of one of exact._DYADIC_CHAINS' (scales, weights)."""
    scales, weights = chain
    return exact._stochastic([[w * 2.0 ** -(s + 3) for w in row]
                              for s, row in zip(scales, weights)])


def _one_way_cycle(n, coupling):
    """0 -> 1 -> ... -> n-1 -> 0 at the coupling and never back: every flux
    around the cycle runs one way."""
    return exact._stochastic(coupling * np.roll(np.eye(n), 1, axis=1))


def _reducible(first, second):
    """Two closed classes, one chain each, and a last state that leaks into
    both, so is transient."""
    n1, n = len(first), len(first) + len(second) + 1
    k = np.zeros((n, n))
    k[:n1, :n1], k[n1:-1, n1:-1] = first, second
    k[-1, [0, n1, -1]] = 0.25, 0.25, 0.5
    return k


_SMALL_CHAINS = st.one_of(exact._TINY_COUPLING_CHAINS, exact._METROPOLIS_CHAINS,
                          exact._DYADIC_CHAINS.map(_dyadic))
_BALANCE_CHAINS = st.one_of(
    _SMALL_CHAINS,
    st.builds(_one_way_cycle, st.integers(3, 8), st.sampled_from([0.5, 1e-5, 1e-200, 2.0 ** -1074])),
    st.builds(_reducible, _SMALL_CHAINS, _SMALL_CHAINS),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_BALANCE_CHAINS, st.booleans()), min_size=1, max_size=12))
def test_stacked_detailed_balance_gives_each_chain_its_own_verdict(chains):
    # each chain against its exact pi, rounded, or that pi reversed, which
    # balances few chains and can put a zero of pi where K moves out; the
    # chains of one size are checked in one stack
    by_size = {}
    for matrix, reverse in chains:
        channel = Channel(matrix)
        pi = exact.stationary(channel.matrix, exact._classes_by_search(channel.matrix > 0.0))
        pi = Distribution([float(x) for x in (pi[::-1] if reverse else pi)])
        by_size.setdefault(len(channel), []).append((channel, pi))
    for pairs in by_size.values():
        stacked = markov._detailed_balance_rows(np.stack([c.matrix for c, _ in pairs]),
                                                np.stack([pi.probs for _, pi in pairs]))
        assert stacked.dtype == bool
        assert stacked.tolist() == [check_detailed_balance(c, pi) for c, pi in pairs]


# -- evolve ---------------------------------------------------------------------------

def test_evolve_from_the_reference_stays_at_zero():
    channel = Channel([[0.75, 0.25], [0.25, 0.75]])
    pi = stationary_distribution(channel)
    trajectory = evolve(pi, channel, 20)
    assert all(d < 1e-10 for d in trajectory.d_nats)
    assert np.max(np.abs(trajectory.probs[-1] - pi.probs)) < 1e-10


def test_evolve_strictly_decreasing_divergence():
    channel = Channel([[0.75, 0.25], [0.25, 0.75]])
    trajectory = evolve(Distribution([1.0, 0.0]), channel, 50)
    d = trajectory.d_nats
    assert d[0] == LOG2
    assert all(d[t + 1] < d[t] for t in range(len(d) - 1))
    assert d[-1] < 1e-28


def test_evolve_rotation_keeps_divergence_constant():
    rotation = Channel(np.roll(np.eye(3), 1, axis=1))
    trajectory = evolve(Distribution([1, 0, 0]), rotation, 9, Distribution.uniform(3))
    assert all(d == trajectory.d_nats[0] for d in trajectory.d_nats)
    assert trajectory.d_nats[0] == pytest.approx(math.log(3.0), rel=1e-15)


def test_evolve_auto_reference_resolves_stationary():
    channel = Channel([[0.9, 0.1], [0.2, 0.8]])
    trajectory = evolve(Distribution([1.0, 0.0]), channel, 5, reference=None)
    pi = stationary_distribution(channel)
    assert trajectory.reference == pi


def test_evolve_rejects_negative_steps():
    with pytest.raises(DomainError):
        evolve(Distribution.uniform(2), Channel(np.eye(2)), -1)


def test_evolve_takes_an_integral_step_count_and_rejects_any_other():
    p0, channel = Distribution([1.0, 0.0]), _TWO_STATE
    trajectory = evolve(p0, channel, np.int64(3))
    assert trajectory.probs.tobytes() == evolve(p0, channel, 3).probs.tobytes()
    for steps in (3.0, np.float64(3.0), -1, "3", None, np.array([3, 4])):
        with pytest.raises(DomainError, match="^steps must be an integer of at least 0, got "):
            evolve(p0, channel, steps)


def _reducible_chain_with_transients(rng):
    # states 0-1 are transient; {2, 3} and {4} are closed classes
    matrix = np.zeros((5, 5))
    matrix[:2] = rng.dirichlet(np.ones(5), size=2)
    matrix[2:4, 2:4] = rng.dirichlet(np.ones(2), size=2)
    matrix[4, 4] = 1.0
    return Channel(matrix)


def _sparse(rng, n, support):
    probs = np.zeros(n)
    probs[rng.choice(n, size=support, replace=False)] = rng.dirichlet(np.ones(support))
    return Distribution(probs)


_TWO_STATE = Channel([[0.99, 0.01], [0.02, 0.98]])
# rows summing to just under 1 - 1e-12: from [1, 0] the chain settles at step
# 3 on a row that was renormalised
_SETTLES_RENORMALISED = Channel([[0.8424141517855323, 0.15758584821346774]] * 2)


def _doubly_stochastic(rng, n, terms=8):
    # a convex mix of permutation matrices; its stationary pi is uniform
    weights = rng.dirichlet(np.ones(terms))
    return Channel(sum(w * np.eye(n)[rng.permutation(n)] for w in weights))


def _evolve_case(case, rng):
    """(p0, channel, steps, reference) for one bitwise-reference case."""
    if case == "reducible":
        channel = _reducible_chain_with_transients(rng)
        return _random_dist(rng, 5), channel, 300, _random_dist(rng, 5)
    if case == "rotation":
        channel = Channel(np.roll(np.eye(11), 1, axis=1))
        return _sparse(rng, 11, 4), channel, 300, _random_dist(rng, 11)
    if case == "zero-reference":
        # sparse rows against a reference with a zero: D alternates inf and finite
        channel = Channel(np.roll(np.eye(11), 1, axis=1))
        reference = Distribution(np.r_[0.0, rng.dirichlet(np.ones(10))])
        return _sparse(rng, 11, 4), channel, 300, reference
    if case == "two-state":
        return Distribution([1.0, 0.0]), _TWO_STATE, 20_000, None
    if case == "dense-128":
        return _random_dist(rng, 128), _doubly_stochastic(rng, 128), 1_000, None
    if case == "stationary-p0":
        return Distribution([0.5, 0.5]), Channel([[0.75, 0.25], [0.25, 0.75]]), 50, None
    if case.startswith("drift"):
        # every row sums to 1 + drift, kept as stored, so products stray and
        # are renormalised every few steps
        rows = np.full((4, 4), 0.25)
        rows[:, 0] += float(case.removeprefix("drift"))
        return Distribution([0.4, 0.3, 0.2, 0.1]), Channel(rows), 10_000, None
    if case == "renormalised-fixed-point":
        return Distribution([1.0, 0.0]), _SETTLES_RENORMALISED, 50, None
    if case == "no-steps":
        return Distribution([1.0, 0.0]), _TWO_STATE, 0, None
    if case == "one-step":
        return Distribution([1.0, 0.0]), _TWO_STATE, 1, None
    assert case == "nonstationary-reference"
    return Distribution([1.0, 0.0]), _TWO_STATE, 5_000, Distribution([0.5, 0.5])


def _renormalised_steps(probs, channel):
    """The steps t at which p_(t-1) K sums to more than 1e-12 away from 1,
    so that p_t is that product renormalised."""
    sums = np.array([np.add.reduce(p.dot(channel.matrix)) for p in probs[:-1]])
    return np.flatnonzero(np.abs(sums - 1.0) > 1e-12) + 1


_EVOLVE_CASES = ["reducible", "rotation", "zero-reference", "two-state", "dense-128",
                 "stationary-p0", "nonstationary-reference", "drift+5e-13", "drift+9e-13",
                 "drift-1e-13", "renormalised-fixed-point", "no-steps", "one-step"]


@pytest.mark.parametrize("case", _EVOLVE_CASES)
def test_evolve_matches_step_by_step_reference_bitwise(case):
    rng = np.random.default_rng(23)
    p0, channel, steps, given = _evolve_case(case, rng)
    trajectory = evolve(p0, channel, steps, given)
    reference = trajectory.reference
    if given is None:
        assert np.array_equal(reference.probs, stationary_distribution(channel).probs)
    else:
        assert reference is given
    probs, d_nats = step_by_step(p0, channel, steps, reference)
    assert np.array_equal(trajectory.probs, probs)
    assert np.array_equal(trajectory.d_nats, d_nats)
    assert len(trajectory) == steps + 1
    # each case covers what its name says about the fixed point
    settled = first_repeat(probs)
    if case in ("rotation", "zero-reference", "no-steps", "one-step"):
        assert settled is None
    elif case.startswith("drift"):
        assert settled is None
        assert len(_renormalised_steps(probs, channel)) > steps // 20
    elif case == "renormalised-fixed-point":
        assert settled == 3 and settled in _renormalised_steps(probs, channel)
    elif case == "stationary-p0":
        assert settled == 1
    elif case != "reducible":
        assert settled is not None and settled < steps // 2
    if case == "nonstationary-reference":
        assert d_nats[-1] == d_nats[settled] > 0.0
    if case == "zero-reference":
        assert np.isinf(d_nats).any() and np.isfinite(d_nats).any()


def _count_products(run):
    """run() and the number of `dot` calls it made, one per chain step."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call" and getattr(arg, "__name__", None) == "dot":
            calls += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def test_evolve_stops_at_the_floating_point_fixed_point():
    trajectory, calls = _count_products(
        lambda: evolve(Distribution([1.0, 0.0]), _TWO_STATE, 50_000))
    assert calls < 2_000
    assert len(trajectory) == 50_001
    assert np.array_equal(trajectory.probs[-1], trajectory.probs[calls])


def test_evolve_stops_at_a_renormalised_fixed_point():
    trajectory, calls = _count_products(
        lambda: evolve(Distribution([1.0, 0.0]), _SETTLES_RENORMALISED, 50_000))
    assert calls < 20
    assert np.array_equal(trajectory.probs[-1], trajectory.probs[3])


@pytest.mark.parametrize("case", _EVOLVE_CASES)
def test_evolve_steps_no_row_twice(case):
    p0, channel, steps, reference = _evolve_case(case, np.random.default_rng(23))
    if reference is None:  # solved before the count: the solve may call dot
        reference = stationary_distribution(channel)
    trajectory, calls = _count_products(lambda: evolve(p0, channel, steps, reference))
    assert calls == min(trajectory.settled, steps)


def _summing_to(rows, offsets):
    """rows scaled so that each sums to about 1 + its offset."""
    return rows * ((1.0 + np.asarray(offsets)) / rows.sum(axis=1))[:, None]


def _rotation_biased(rng, n, mix):
    # a noisy rotation: slow to mix, so p_t mostly never settles
    return (1.0 - mix) * np.roll(np.eye(n), 1, axis=1) + mix * rng.dirichlet(np.ones(n), size=n)


# an offset from 1 anywhere within 1e-12, or (1 - 2^-k) 1e-12 of it
_EDGE_OFFSET = st.one_of(
    st.floats(-1e-12, 1e-12),
    st.builds(lambda k, sign: sign * (1.0 - 2.0**-k) * 1e-12,
              st.integers(1, 60), st.sampled_from([-1.0, 1.0])))


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(1, 8), st.just(32)), steps=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1), mix=st.floats(0.0, 0.2),
       offsets=st.lists(_EDGE_OFFSET, min_size=129, max_size=129))
@example(n=128, steps=300, seed=7, mix=0.05, offsets=[(1.0 - 2.0**-30) * 1e-12] * 129)
def test_evolve_matches_step_by_step_at_the_renormalisation_edge(n, steps, seed, mix, offsets):
    # K's rows and p0 sum to anywhere within 1e-12 of 1, so a product may
    # stray past 1e-12 after any number of steps, or never
    rng = np.random.default_rng(seed)
    channel = Channel(_summing_to(_rotation_biased(rng, n, mix), offsets[:n]))
    p0 = Distribution(_summing_to(rng.dirichlet(np.ones(n))[None], offsets[n:n + 1])[0])
    reference = _random_dist(rng, n)
    trajectory = evolve(p0, channel, steps, reference)
    probs, d_nats = step_by_step(p0, channel, steps, reference)
    assert trajectory.probs.tobytes() == probs.tobytes()
    assert trajectory.d_nats.tobytes() == d_nats.tobytes()


def _unrenormalised_sums(p0, matrix, steps):
    """The computed sums of p0 and of p0 K^t for t up to steps, stepped with
    no renormalisation."""
    sums, row = [np.add.reduce(p0)], p0
    for _ in range(steps):
        row = row.dot(matrix)
        sums.append(np.add.reduce(row))
    return np.array(sums)


def _widest_horizon(p0, matrix, steps):
    """The widest horizon from any row of an unrenormalised run, asserting
    from each row that every row within its horizon sums to within 1e-12
    of 1."""
    horizon, sums = markov._horizon(matrix), _unrenormalised_sums(p0, matrix, steps)
    widest = 0
    for t, total in enumerate(sums):
        ahead = markov._rows_ahead(*horizon, total)
        assert np.all(np.abs(sums[t + 1:t + 1 + max(ahead, 0)] - 1.0) <= 1e-12)
        widest = max(widest, ahead)
    return widest


@pytest.mark.parametrize("case", ["drift+5e-13", "drift+9e-13", "drift-1e-13"])
def test_the_horizon_holds_on_rows_that_drift(case):
    p0, channel, _, _ = _evolve_case(case, np.random.default_rng(23))
    assert _widest_horizon(p0.probs, channel.matrix, 400) >= 1


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 5, 8, 32]), seed=st.integers(0, 2**32 - 1),
       mix=st.floats(0.0, 0.2), offsets=st.lists(_EDGE_OFFSET, min_size=33, max_size=33),
       shrink=st.sampled_from([1.0, 1e-1, 1e-2, 1e-3, 1e-4]))
def test_the_horizon_holds_at_the_renormalisation_edge(n, seed, mix, offsets, shrink):
    # shrink brings the rows' drift down so that the horizon spans many steps
    rng = np.random.default_rng(seed)
    matrix = _summing_to(_rotation_biased(rng, n, mix), np.array(offsets[:n]) * shrink)
    p0 = _summing_to(rng.dirichlet(np.ones(n))[None], offsets[n:n + 1])[0]
    _widest_horizon(p0, matrix, 300)


def _exact_row_sum_chain(rng, n):
    """p0 and a rotation-biased chain whose stored rows sum to exactly 1, as
    Fractions, though summed as doubles they may round: all but one entry
    are multiples of 2^-60 below 2^-14, with a total that is a multiple of
    2^-53, so the last, 1 less that total, is a double."""
    rows = np.zeros((n + 1, n))
    for i, big in enumerate([(i + 1) % n for i in range(n)] + [0]):
        units = [int(w) for w in rng.integers(128, 2**46, size=n)]
        units[big] = 0
        units[(big + 1) % n] -= sum(units) % 128
        units[big] = 2**60 - sum(units)
        rows[i] = [math.ldexp(w, -60) for w in units]
        assert sum(map(Fraction, rows[i].tolist())) == 1
    return rows[n], rows[:n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64, 100, 128])
def test_the_horizon_of_an_exact_row_sum_chain_spans_many_steps(n):
    unit = np.finfo(float).eps / 2
    rng = np.random.default_rng(n)
    for _ in range(5):
        p0, matrix = _exact_row_sum_chain(rng, n)
        assert np.array_equal(Channel(matrix).matrix, matrix)
        horizon = markov._rows_ahead(*markov._horizon(matrix), np.add.reduce(p0))
        assert horizon >= 1e-12 / ((6 * n + 2) * unit) - 1


def _count_kl_rows(monkeypatch):
    """The row counts of the _kl_rows calls markov makes itself, and of those
    made through info (by relative_entropy and every other info function)."""
    calls, through_info = [], []
    kl_rows = info._kl_rows

    def counting(log):
        def wrapper(rows, log_q, out):
            log.append(len(rows))
            return kl_rows(rows, log_q, out)
        return wrapper

    monkeypatch.setattr(markov, "_kl_rows", counting(calls))
    monkeypatch.setattr(info, "_kl_rows", counting(through_info))
    return calls, through_info


def test_audit_of_positive_rows_computes_d_in_one_pass(monkeypatch):
    calls, through_info = _count_kl_rows(monkeypatch)
    # a noisy rotation from a positive p0 never settles, and every row is positive
    noisy = Channel(0.9 * np.roll(np.eye(3), 1, axis=1) + 0.1 / 3)
    verdict = second_law_audit(Distribution([0.5, 0.3, 0.2]), noisy, 10_000)
    probs = verdict.trajectory.probs
    assert first_repeat(probs) is None
    assert calls == [10_001]
    assert through_info == []
    # rows with a zero go in the same pass, grouped by the states they occupy
    calls.clear()
    rotation = Channel(np.roll(np.eye(3), 1, axis=1))
    evolve(Distribution([0.6, 0.4, 0.0]), rotation, 1_000)
    assert calls == [1_001]
    assert through_info == []


def _audit_case(case):
    """(p0, channel) for an audit whose rows or stationary pi have zeros."""
    if case == "transient":
        # states 0-1 are transient and pi is 0 on them: D is inf until their
        # mass underflows to 0, and finite after
        return Distribution([0.3, 0.3, 0.2, 0.1, 0.1]), Channel([
            [0.1, 0.1, 0.4, 0.2, 0.2], [0.05, 0.05, 0.3, 0.3, 0.3],
            [0.0, 0.0, 0.5, 0.25, 0.25], [0.0, 0.0, 0.25, 0.5, 0.25],
            [0.0, 0.0, 0.25, 0.25, 0.5]])
    assert case == "two-class"
    # closed classes {0, 1, 2} and {3, 4}; every row is 0 on the second
    matrix = np.zeros((5, 5))
    matrix[:3, :3] = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
    matrix[3:, 3:] = [[0.6, 0.4], [0.4, 0.6]]
    return Distribution([0.6, 0.4, 0.0, 0.0, 0.0]), Channel(matrix)


@pytest.mark.parametrize("case", ["transient", "two-class"])
def test_audit_of_reducible_chains_computes_d_in_one_pass(case, monkeypatch):
    p0, channel = _audit_case(case)
    calls, through_info = _count_kl_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StationaryMultiplicityWarning)
        verdict = second_law_audit(p0, channel, 600)
    assert len(calls) == 1
    assert through_info == []
    trajectory = verdict.trajectory
    probs, d_nats = step_by_step(p0, channel, 600, verdict.stationary)
    assert np.array_equal(trajectory.probs, probs)
    assert trajectory.d_nats.tobytes() == d_nats.tobytes()
    assert np.isfinite(d_nats[-1])
    if case == "transient":
        assert np.isinf(d_nats[0])


def test_evolve_memory_stays_at_its_output_arrays():
    rotation = Channel(np.roll(np.eye(3), 1, axis=1))
    p0, reference = Distribution([0.5, 0.3, 0.2]), Distribution.uniform(3)
    tracemalloc.start()
    try:
        trajectory = evolve(p0, rotation, 100_000, reference)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= trajectory.probs.nbytes + trajectory.d_nats.nbytes + 2**20


def test_evolve_keeps_renormalising_rows_that_drift():
    rows = np.full((4, 4), 0.25)
    rows[:, 0] += 5e-13  # every row sums to 1 + 5e-13, below the renormalisation threshold
    channel = Channel(rows)
    assert np.array_equal(channel.matrix, rows)
    trajectory = evolve(Distribution([0.4, 0.3, 0.2, 0.1]), channel, 10_000)
    assert np.all(np.abs(trajectory.probs.sum(axis=1) - 1.0) <= 1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), steps=st.integers(0, 300), seed=st.integers(0, 2**32 - 1),
       drifts=st.lists(st.floats(-1e-12, 1e-12), min_size=9, max_size=9))
def test_evolve_matches_step_by_step_on_rows_that_drift(n, steps, seed, drifts):
    # each row's sum, and p0's, strays from 1 by up to 1e-12, so products
    # renormalise at irregular steps
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(n), size=n)
    rows[np.arange(n), rows.argmax(axis=1)] += drifts[:n]
    p0 = rng.dirichlet(np.ones(n))
    p0[p0.argmax()] += drifts[n]
    p0, channel, reference = Distribution(p0), Channel(rows), _random_dist(rng, n)
    trajectory = evolve(p0, channel, steps, reference)
    probs, d_nats = step_by_step(p0, channel, steps, reference)
    assert trajectory.probs.tobytes() == probs.tobytes()
    assert trajectory.d_nats.tobytes() == d_nats.tobytes()


# evolve relies on these two numpy equivalences for its bits; they are pinned
# here on every numpy the suite runs on, the declared floor included
@pytest.mark.parametrize("rows", [1, 2, 64])
def test_a_reduce_along_rows_gives_each_row_its_1d_sum(rows):
    rng = np.random.default_rng(rows)
    for n in range(1, 201):
        probs = rng.random((rows + 2, n))
        sums = np.zeros(rows + 2)
        np.add.reduce(probs[1:-1], 1, out=sums[1:-1])
        for row, total in zip(probs[1:-1], sums[1:-1]):
            assert total.tobytes() == np.add.reduce(row).tobytes()


def test_a_product_written_into_a_row_has_the_bits_of_a_new_product():
    rng = np.random.default_rng(5)
    for n in range(1, 201):
        matrix = rng.dirichlet(np.ones(n), size=n)
        probs = np.zeros((3, n))
        probs[0] = rng.dirichlet(np.ones(n))
        probs[0].dot(matrix, probs[1])
        assert probs[1].tobytes() == probs[0].dot(matrix).tobytes()
        assert probs[1].tobytes() == (probs[0] @ matrix).tobytes()


@pytest.mark.parametrize("n", [3, 8, 32, 128])
def test_layout_of_a_channel_changes_no_bit_of_what_it_computes(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        matrix = rng.dirichlet(np.ones(n), size=n)
        matrix *= 1.0 + 4e-10  # every row renormalised on construction
        p = _random_dist(rng, n)
        given, fortran = Channel(matrix), Channel(np.asfortranarray(matrix))
        assert fortran.matrix.flags.c_contiguous
        assert fortran.matrix.tobytes() == given.matrix.tobytes()
        assert apply_channel(p, fortran) == apply_channel(p, given)
        assert stationary_distribution(fortran) == stationary_distribution(given)
        ran, ran_fortran = evolve(p, given, 50), evolve(p, fortran, 50)
        assert ran_fortran.probs.tobytes() == ran.probs.tobytes()
        assert ran_fortran.d_nats.tobytes() == ran.d_nats.tobytes()


def test_evolve_rejects_mismatched_lengths():
    with pytest.raises(ShapeError):
        evolve(Distribution.uniform(3), Channel(np.eye(2)), 0, Distribution.uniform(2))


def test_trajectory_arrays_are_read_only():
    trajectory = evolve(Distribution([1.0, 0.0]), Channel([[0.5, 0.5], [0.5, 0.5]]), 3)
    with pytest.raises(ValueError):
        trajectory.probs[0, 0] = 0.5
    with pytest.raises(ValueError):
        trajectory.d_nats[0] = 0.0


def _csv_text(trajectory):
    out = io.StringIO()
    trajectory.to_csv(out)
    return out.getvalue()


def test_trajectory_csv_layout():
    channel = Channel([[0.75, 0.25], [0.25, 0.75]])
    trajectory = evolve(Distribution([1.0, 0.0]), channel, 2)
    lines = _csv_text(trajectory).strip().split("\n")
    assert lines[0] == "step,p_1,p_2,D_nats,D_bits"
    assert len(lines) == 4
    assert lines[1].startswith("0,1.0,0.0,")


def test_trajectory_csv_renders_infinity():
    channel = Channel(np.eye(2))
    trajectory = evolve(Distribution([0.5, 0.5]), channel, 1, Distribution([1.0, 0.0]))
    assert ",inf," in _csv_text(trajectory)


def _read_case(case, rng):
    """(p0, channel, reference) for an audit whose trajectory is read back."""
    n = int(rng.integers(2, 7))
    if case == "settles":
        return _random_dist(rng, n), _random_channel(rng, n), None
    if case == "rotation":
        return _random_dist(rng, n), Channel(np.roll(np.eye(n), 1, axis=1)), _random_dist(rng, n)
    if case == "renormalised":
        return Distribution([1.0, 0.0]), _SETTLES_RENORMALISED, None
    assert case == "zero-reference"
    # p0 is off the reference's zero, so D starts finite and jumps to inf
    reference = Distribution(np.r_[0.0, rng.dirichlet(np.ones(n - 1))])
    return Distribution(np.r_[0.0, rng.dirichlet(np.ones(n - 1))]), _random_channel(rng, n), reference


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["settles", "rotation", "renormalised", "zero-reference"]),
       steps=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
       reads=st.sampled_from([("d_nats", "probs"), ("probs", "d_nats"),
                              ("d_nats", "d_nats", "probs")]))
def test_a_trajectory_reads_the_same_in_any_order(case, steps, seed, reads):
    # evolve writes the rows up to the settle row; each array is built on first read
    p0, channel, reference = _read_case(case, np.random.default_rng(seed))
    verdict = second_law_audit(p0, channel, steps, reference)
    trajectory = verdict.trajectory
    expected = dict(zip(("probs", "d_nats"),
                        step_by_step(p0, channel, steps, trajectory.reference)))
    for name in reads:
        array = getattr(trajectory, name)
        assert array.shape == expected[name].shape
        assert array.tobytes() == expected[name].tobytes()
        assert not array.flags.writeable
        assert array.flags.owndata and array.flags.c_contiguous
    # each array is built once, on its first read
    assert trajectory.probs is trajectory.probs
    assert trajectory.d_nats is trajectory.d_nats
    assert len(trajectory) == steps + 1
    assert trajectory.settled == (first_repeat(expected["probs"]) or steps + 1)
    assert verdict.max_violation == markov._max_positive_jump(trajectory.d_nats)


def test_threads_that_first_read_a_trajectory_together_all_get_its_rows():
    p0 = Distribution([1.0, 0.0])
    expected = evolve(p0, _TWO_STATE, 3_000)
    expected = (expected.probs.tobytes(), expected.d_nats.tobytes())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            trajectory = evolve(p0, _TWO_STATE, 3_000)
            barrier = threading.Barrier(4)
            reads = []

            def read():
                barrier.wait(timeout=10)
                reads.append((trajectory.probs.tobytes(), trajectory.d_nats.tobytes()))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert reads == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


# -- the audit ---------------------------------------------------------------------------

def test_audit_random_chains_are_monotone():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 16))
        verdict = second_law_audit(_random_dist(rng, n), _random_channel(rng, n), 50)
        assert verdict.monotone
        assert verdict.max_violation <= 1e-12


def test_audit_identity_channel_constant_divergence():
    with pytest.warns(StationaryMultiplicityWarning):
        verdict = second_law_audit(Distribution([0.3, 0.7]), Channel(np.eye(2)), 10)
    assert verdict.monotone
    assert verdict.max_violation == 0.0


def test_audit_against_nonstationary_reference_can_fail():
    # brute-force search for a witness: track D against a reference that is
    # not stationary and look for any increase
    rng = np.random.default_rng(13)
    witness = None
    for _ in range(200):
        a, b = rng.uniform(0.05, 0.95, 2)
        channel = Channel([[1 - a, a], [b, 1 - b]])
        reference = _random_dist(rng, 2)
        p0 = _random_dist(rng, 2)
        pi = stationary_distribution(channel)
        if np.max(np.abs(reference.probs - pi.probs)) < 1e-3:
            continue
        d = [relative_entropy(p0, reference).nats]
        p = p0
        for _ in range(10):
            p = apply_channel(p, channel)
            d.append(relative_entropy(p, reference).nats)
        if max(d[t + 1] - d[t] for t in range(len(d) - 1)) > 1e-6:
            witness = (channel, p0, reference)
            break
    assert witness is not None, "no monotonicity-violation witness found"
    channel, p0, reference = witness
    verdict = second_law_audit(p0, channel, 10, reference=reference)
    assert not verdict.monotone
    assert verdict.max_violation > 1e-6
    # the same chain audited against its own stationary distribution passes
    assert second_law_audit(p0, channel, 10).monotone


def test_audit_of_demo_drift_chain_uses_exact_stationary():
    doc = dsl.parse(DATA.read_text()).document
    verdict = second_law_audit(doc.dists["tilted"].dist, doc.channels["drift"].channel, 50)
    assert verdict.stationary.probs.tolist() == [2 / 3, 1 / 3]
    assert verdict.detailed_balance
    assert verdict.monotone


def test_audit_returns_the_trajectory_it_checked():
    doc = dsl.parse(DATA.read_text()).document
    p0, channel = doc.dists["tilted"].dist, doc.channels["drift"].channel
    for reference in (None, doc.dists["fair"].dist):
        verdict = second_law_audit(p0, channel, 40, reference=reference)
        expected_reference = verdict.stationary if reference is None else reference
        expected = evolve(p0, channel, 40, expected_reference)
        assert verdict.trajectory.reference == expected_reference
        assert np.array_equal(verdict.trajectory.probs, expected.probs)
        assert np.array_equal(verdict.trajectory.d_nats, expected.d_nats)
    assert "trajectory" not in verdict.to_json_dict()


def test_audit_and_sweep_share_one_monotonicity_slack(monkeypatch):
    # from the uniform reference, one step of this chain raises D by about
    # 5e-11: above the 1e-12 slack, though within the 1e-10 the audit once used
    from thermobit import sweeps

    channel = Channel([[1 - 1e-5, 1e-5], [0.0, 1.0]])
    uniform = Distribution.uniform(2)
    verdict = second_law_audit(uniform, channel, 1, reference=uniform)
    assert 1e-12 < verdict.max_violation <= 1e-10
    assert not verdict.monotone
    # the sweep judges each chain's largest jump as the audit does
    monkeypatch.setattr(sweeps, "_largest_rises",
                        lambda p0s, matrices, references, steps, window:
                        (np.full(len(p0s), verdict.max_violation), np.full(len(p0s), steps + 1)))
    assert sweeps.monotonicity_sweep(3, steps=1).failures == 3


def test_audit_requires_at_least_one_step():
    for steps in ("3", 3.0, -1, None, 0):
        message = f"steps must be an integer of at least 1, got {steps!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            second_law_audit(Distribution.uniform(2), Channel(np.eye(2)), steps)


def test_audit_counts_its_steps_as_an_int():
    verdict = second_law_audit(Distribution([1.0, 0.0]), _TWO_STATE, np.int64(3))
    assert type(verdict.steps_checked) is int and verdict.steps_checked == 3


# -- data processing inequality --------------------------------------------------------------

def test_dpi_identity_channel_is_equality():
    p, q = Distribution([0.3, 0.7]), Distribution([0.6, 0.4])
    result = data_processing_check(p, q, Channel(np.eye(2)))
    assert result.before == result.after
    assert result.ok


def test_dpi_full_mixing_collapses_divergence():
    channel = Channel(np.tile([0.25, 0.75], (2, 1)))
    result = data_processing_check(Distribution([1, 0]), Distribution([0, 1]), channel)
    assert result.after == 0.0
    assert result.ok


def test_dpi_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        result = data_processing_check(
            _random_dist(rng, n), _random_dist(rng, n), _random_channel(rng, n)
        )
        assert result.ok
        assert result.after <= result.before + 1e-12


# -- channel construction ----------------------------------------------------------------------

def test_channel_rejects_bad_rows():
    with pytest.raises(DomainError):
        Channel([[0.5, 0.4], [0.5, 0.5]])  # first row sums to 0.9
    with pytest.raises(DomainError):
        Channel([[1.5, -0.5], [0.5, 0.5]])
    with pytest.raises(ShapeError):
        Channel([[0.5, 0.5]])  # not square


def test_channel_renormalizes_rows_within_tolerance():
    channel = Channel([[0.5 + 3e-10, 0.5], [0.25, 0.75]])
    assert np.allclose(channel.matrix.sum(axis=1), 1.0, atol=1e-12)
    again = Channel(channel.matrix)
    assert np.array_equal(channel.matrix, again.matrix)
