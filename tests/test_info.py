"""Tests for the information core: entropies, divergences, decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermobit import (
    Distribution,
    DomainError,
    JointDistribution,
    ShapeError,
    decompose_information,
    mutual_information,
    relative_entropy,
    self_information,
    shannon_entropy,
)
from thermobit import info

LOG2 = math.log(2.0)


def _direct_kl(p, q):
    """Independent scalar-loop oracle for D(p||q)."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * math.log(pi / qi)
    return total


def _random_dist(rng, n):
    return Distribution(rng.dirichlet(np.ones(n)))


# -- self-information --------------------------------------------------------

def test_self_information_half_is_one_bit():
    q = self_information(0.5)
    assert q.nats == LOG2
    assert q.bits == 1.0


def test_self_information_certain_event():
    assert self_information(1.0).nats == 0.0


def test_self_information_eighth_by_additivity():
    # oracle: additivity over three independent halvings
    expected = 3 * self_information(0.5).nats
    assert self_information(0.125).nats == pytest.approx(expected, rel=1e-15)


def test_self_information_zero_probability_is_infinite():
    assert self_information(0.0).nats == math.inf
    assert self_information(0.0).bits == math.inf


@pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, -1e-12])
def test_self_information_domain(bad):
    with pytest.raises(DomainError):
        self_information(bad)


@settings(max_examples=200, deadline=None)
@given(
    # products must stay in the normal float range: subnormal p*q loses
    # significand bits and the identity genuinely degrades there
    st.floats(min_value=1e-150, max_value=1.0),
    st.floats(min_value=1e-150, max_value=1.0),
)
def test_self_information_additivity(p, q):
    joint = self_information(p * q).nats
    assert joint == pytest.approx(
        self_information(p).nats + self_information(q).nats, abs=1e-12, rel=1e-12
    )


# -- Shannon entropy ----------------------------------------------------------

def test_entropy_uniform_two_state():
    assert shannon_entropy(Distribution([0.5, 0.5])).nats == LOG2


def test_entropy_degenerate_is_zero():
    assert shannon_entropy(Distribution([1.0, 0.0])).nats == 0.0


def test_entropy_dyadic_three_state():
    # oracle: direct summation with exact dyadic logs
    expected = 0.5 * math.log(2.0) + 2 * (0.25 * math.log(4.0))
    got = shannon_entropy(Distribution([0.5, 0.25, 0.25])).nats
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(1.5 * LOG2, rel=1e-15)


def test_entropy_range_and_extremes():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        h = shannon_entropy(_random_dist(rng, n)).nats
        assert -1e-15 <= h <= math.log(n) + 1e-12
    assert shannon_entropy(Distribution.degenerate(5, 2)).nats == 0.0
    assert shannon_entropy(Distribution.uniform(8)).nats == pytest.approx(math.log(8), rel=1e-15)


# -- relative entropy ---------------------------------------------------------

def test_kl_sharp_vs_fair_coin_is_exactly_one_bit():
    q = relative_entropy(Distribution([1.0, 0.0]), Distribution([0.5, 0.5]))
    assert q.nats == LOG2
    assert q.bits == 1.0


def test_kl_sharp_vs_general_equilibrium():
    rng = np.random.default_rng(11)
    sharp = Distribution([1.0, 0.0])
    for _ in range(100):
        pi1 = float(rng.uniform(0.01, 0.99))
        got = relative_entropy(sharp, Distribution([pi1, 1.0 - pi1])).nats
        assert got == pytest.approx(math.log(1.0 / pi1), rel=1e-13, abs=1e-15)


def test_kl_identical_distributions_is_zero():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 30):
        p = _random_dist(rng, n)
        assert relative_entropy(p, p).nats == 0.0


def test_kl_support_violation_is_infinite():
    q = relative_entropy(Distribution([0.5, 0.5]), Distribution([1.0, 0.0]))
    assert q.nats == math.inf


def test_kl_shape_mismatch():
    with pytest.raises(ShapeError):
        relative_entropy(Distribution([1.0]), Distribution([0.5, 0.5]))


def test_kl_nonnegative_and_matches_direct_oracle():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(2, 16))
        p, q = _random_dist(rng, n), _random_dist(rng, n)
        got = relative_entropy(p, q).nats
        assert got >= 0.0
        assert got == pytest.approx(_direct_kl(p.probs, q.probs), rel=1e-12, abs=1e-13)
        assert got > 0.0  # random p == q has probability zero


def _kl_rows_case(seed, n, rows, zero_rows, zero_ref):
    """rows x n probability rows, zero_rows of them with zeros, and a
    reference over n states with a zero entry when zero_ref."""
    rng = np.random.default_rng(seed)
    alphas = rng.choice([0.02, 1.0, 100.0], size=rows)
    block = np.array([rng.dirichlet(np.full(n, a)) for a in alphas])
    for i in rng.choice(rows, size=zero_rows, replace=False):
        block[i, rng.random(n) < 0.3] = 0.0
        if block[i].sum() == 0.0:
            block[i, rng.integers(n)] = 1.0
        block[i] /= block[i].sum()
    q = rng.dirichlet(np.ones(n))
    if zero_ref:
        q[rng.integers(n)] = 0.0
        q /= q.sum()
    return block, q


def _kl_rows_bitwise(block, q):
    out = np.empty(len(block))
    info._kl_rows(block, q, out)
    expected = np.array([info._kl_nats(row, q) for row in block])
    assert out.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    rows=st.integers(1, 40),
    zero_share=st.floats(0.0, 1.0),
    zero_ref=st.booleans(),
    block_rows=st.integers(1, 41),
)
def test_kl_rows_matches_kl_nats_bitwise(seed, n, rows, zero_share, zero_ref, block_rows):
    # n spans numpy's 128-entry pairwise-summation block; block_rows below
    # rows splits the rows over several blocks
    block, q = _kl_rows_case(seed, n, rows, round(zero_share * rows), zero_ref)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(info, "_KL_BLOCK_ENTRIES", block_rows * n)
        _kl_rows_bitwise(block, q)


def test_kl_rows_spans_several_default_blocks():
    n = 300
    rows = 3 * (info._KL_BLOCK_ENTRIES // n) + 7
    block, q = _kl_rows_case(11, n, rows, 50, False)
    _kl_rows_bitwise(block, q)


def test_kl_entropy_relation_under_uniform_reference():
    # D(p||u) - D(q||u) = H(q) - H(p)
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        p, q = _random_dist(rng, n), _random_dist(rng, n)
        u = Distribution.uniform(n)
        lhs = relative_entropy(p, u).nats - relative_entropy(q, u).nats
        rhs = shannon_entropy(q).nats - shannon_entropy(p).nats
        assert lhs == pytest.approx(rhs, abs=1e-12)


# -- units ---------------------------------------------------------------------

def test_bits_is_nats_over_log2_exactly():
    rng = np.random.default_rng(40)
    for _ in range(50):
        q = shannon_entropy(_random_dist(rng, int(rng.integers(1, 9))))
        assert q.bits == q.nats / LOG2


# -- construction ----------------------------------------------------------------

def test_distribution_rejects_bad_inputs():
    with pytest.raises(DomainError):
        Distribution([0.5, 0.6])  # sum 1.1, beyond tolerance
    with pytest.raises(DomainError):
        Distribution([1.2, -0.2])
    with pytest.raises(ShapeError):
        Distribution([])
    with pytest.raises(DomainError):
        Distribution([math.nan, 1.0])
    with pytest.raises(ShapeError):
        Distribution([[0.5, 0.5]])


def test_distribution_renormalizes_within_tolerance():
    d = Distribution([0.5 + 4e-10, 0.5])
    assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_distribution_construction_is_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(100):
        raw = rng.random(int(rng.integers(1, 40)))
        raw = raw / raw.sum() * (1.0 + rng.uniform(-5e-10, 5e-10))
        d = Distribution(raw)
        again = Distribution(d.probs)
        assert np.array_equal(d.probs, again.probs)


def test_distribution_is_immutable():
    d = Distribution([0.5, 0.5])
    with pytest.raises(ValueError):
        d.probs[0] = 0.3


def test_distribution_label_mismatch():
    with pytest.raises(ShapeError):
        Distribution([0.5, 0.5], labels=("a",))


# -- joints and mutual information ------------------------------------------------

def _direct_mutual_info(matrix):
    """Oracle: D(p || p1 x p2) by scalar loops."""
    m = np.asarray(matrix)
    p1 = m.sum(axis=1)
    p2 = m.sum(axis=0)
    total = 0.0
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            if m[i, j] > 0:
                total += m[i, j] * math.log(m[i, j] / (p1[i] * p2[j]))
    return total


def test_mutual_information_independent_is_zero():
    j = JointDistribution.from_product(Distribution([0.3, 0.7]), Distribution([0.6, 0.4]))
    assert mutual_information(j).nats == 0.0


def test_mutual_information_correlated_uniform():
    j = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    assert _direct_mutual_info(j.probs) == pytest.approx(LOG2, rel=1e-15)
    assert mutual_information(j).nats == pytest.approx(LOG2, rel=1e-14)


def test_mutual_information_anticorrelated_uniform():
    j = JointDistribution([[0.0, 0.5], [0.5, 0.0]])
    assert mutual_information(j).nats == pytest.approx(LOG2, rel=1e-14)


def test_mutual_information_matches_oracle_on_random_joints():
    rng = np.random.default_rng(17)
    for _ in range(200):
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        j = JointDistribution(rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape))
        got = mutual_information(j).nats
        assert got >= 0.0
        assert got == pytest.approx(_direct_mutual_info(j.probs), abs=1e-12)


def test_joint_marginals_and_flatten():
    j = JointDistribution([[0.1, 0.2], [0.3, 0.4]], row_labels=("a", "b"),
                          col_labels=("x", "y"))
    assert np.allclose(j.marginal_first().probs, [0.3, 0.7])
    assert np.allclose(j.marginal_second().probs, [0.4, 0.6])
    flat = j.flatten()
    assert flat.labels == ("a,x", "a,y", "b,x", "b,y")
    assert np.allclose(flat.probs, [0.1, 0.2, 0.3, 0.4])


# -- decomposition ------------------------------------------------------------------

def test_decomposition_at_equilibrium_product():
    pi1 = Distribution([0.25, 0.75])
    pi2 = Distribution([0.6, 0.4])
    j = JointDistribution.from_product(pi1, pi2)
    parts = decompose_information(j, pi1, pi2)
    assert parts.total.nats == pytest.approx(0.0, abs=1e-14)
    assert parts.part1.nats == 0.0
    assert parts.part2.nats == 0.0
    assert parts.correlation.nats == 0.0


def test_decomposition_correlated_uniform_pair():
    j = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    u = Distribution([0.5, 0.5])
    parts = decompose_information(j, u, u)
    assert parts.total.nats == pytest.approx(LOG2, rel=1e-14)
    assert parts.part1.nats == 0.0
    assert parts.part2.nats == 0.0
    assert parts.correlation.nats == pytest.approx(LOG2, rel=1e-14)


def test_decomposition_sharp_product_vs_uniform():
    j = JointDistribution.from_product(Distribution([1.0, 0.0]), Distribution([1.0, 0.0]))
    u = Distribution([0.5, 0.5])
    parts = decompose_information(j, u, u)
    assert parts.total.nats == pytest.approx(2 * LOG2, rel=1e-14)
    assert parts.correlation.nats == 0.0
    assert parts.part1.nats == pytest.approx(LOG2, rel=1e-14)


def test_decomposition_identity_on_random_joints():
    rng = np.random.default_rng(29)
    for _ in range(400):
        n1, n2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        j = JointDistribution(rng.dirichlet(np.ones(n1 * n2)).reshape(n1, n2))
        pi1 = Distribution(rng.dirichlet(np.ones(n1)) + 0.0)
        pi2 = Distribution(rng.dirichlet(np.ones(n2)) + 0.0)
        parts = decompose_information(j, pi1, pi2)
        split = parts.part1.nats + parts.part2.nats + parts.correlation.nats
        assert abs(parts.total.nats - split) <= 1e-12


def test_decomposition_rejects_zero_equilibrium():
    j = JointDistribution.from_product(Distribution([0.5, 0.5]), Distribution([0.5, 0.5]))
    with pytest.raises(DomainError):
        decompose_information(j, Distribution([1.0, 0.0]), Distribution([0.5, 0.5]))


def test_decomposition_shape_mismatch():
    j = JointDistribution.from_product(Distribution([0.5, 0.5]), Distribution([0.5, 0.5]))
    with pytest.raises(ShapeError):
        decompose_information(j, Distribution.uniform(3), Distribution.uniform(2))
