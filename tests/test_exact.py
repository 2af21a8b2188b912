"""Tests of the exact oracle in tests/exact.py itself."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermobit import Channel, Distribution, relative_entropy

import exact

EPS = np.finfo(float).eps


def _certified(matrix):
    """Certify the exact π of a chain's stored matrix by exact global balance."""
    stored = Channel(matrix).matrix
    pi = exact.stationary(stored, exact._classes_by_search(stored > 0.0))
    exact._certify_stationary([[Fraction(x) for x in row] for row in stored.tolist()], pi)


# the exact π of each dyadic chain is certified in
# test_stationary_matches_the_exact_pi_of_dyadic_chains
@settings(max_examples=30, deadline=None)
@given(exact._TINY_COUPLING_CHAINS)
def test_the_exact_pi_of_a_chain_with_tiny_couplings_is_certified(matrix):
    _certified(matrix)


@settings(max_examples=30, deadline=None)
@given(exact._METROPOLIS_CHAINS)
def test_the_exact_pi_of_a_metropolis_chain_is_certified(matrix):
    _certified(matrix)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       alpha=st.sampled_from([0.1, 1.0, 10.0]), zero_share=st.sampled_from([0.0, 0.3, 0.9]))
def test_the_exact_relative_entropy_agrees_with_the_library_to_its_rounding(n, seed, alpha,
                                                                            zero_share):
    # D's rounding is bounded by (m + 2) eps times the sum of the terms' sizes
    # p_i (|ln p_i| + |ln q_i| + 1) over the m states where p_i > 0
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.full(n, alpha))
    p[rng.random(n) < zero_share] = 0.0
    if not p.any():
        p[0] = 1.0
    p, q = Distribution(p / p.sum()), Distribution(rng.dirichlet(np.full(n, alpha)))
    got = relative_entropy(p, q).nats
    support = [(a, b) for a, b in zip(p.probs.tolist(), q.probs.tolist()) if a > 0.0]
    size = math.fsum(a * (abs(math.log(a)) + abs(math.log(b)) + 1.0) for a, b in support)
    error = abs(Decimal(got) - exact.relative_entropy(p.probs, q.probs))
    assert error <= (len(support) + 2) * EPS * size
