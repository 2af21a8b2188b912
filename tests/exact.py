"""Exact references for the tests: one routine per quantity, and hypothesis
strategies for the inputs where float code is hardest to get right.

π is exact: GTH elimination in Fractions on a chain's stored float
entries. D, H, log Z and F are computed in decimal arithmetic to 60
significant digits from the exact values of their float (or Decimal)
inputs, far below any float rounding a test bounds. tests/test_exact.py
checks the oracle itself.
"""

import collections
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from thermobit.thermo import DEFAULT_BOLTZMANN, SI_BOLTZMANN

# Enter with localcontext(CONTEXT); localcontext(prec=60) needs Python 3.11.
CONTEXT = Context(prec=60)


# -- π --------------------------------------------------------------------------

def _classes_by_search(support):
    """Closed classes of a boolean support graph by breadth-first search, in
    the order of their lowest state."""
    n = len(support)
    reach = np.zeros((n, n), dtype=bool)
    for i in range(n):
        reach[i, i] = True
        queue = collections.deque([i])
        while queue:
            for k in np.flatnonzero(support[queue.popleft()] & ~reach[i]):
                reach[i, k] = True
                queue.append(k)
    classes, assigned = [], np.zeros(n, dtype=bool)
    for i in range(n):
        if not assigned[i] and reach[reach[i], i].all():  # all i reaches reaches i
            classes.append(np.flatnonzero(reach[i]))
            assigned |= reach[i]
    return classes


def _certify_stationary(k, pi):
    """Exact global balance on the off-diagonal rates, as the audit-hard
    benchmark certifies its closed forms: for every j,
    sum_{i != j} pi_i K_ij == pi_j sum_{l != j} K_jl."""
    n = len(pi)
    assert sum(pi) == 1 and min(pi) >= 0
    for j in range(n):
        inflow = sum(pi[i] * k[i][j] for i in range(n) if i != j)
        assert inflow == pi[j] * sum(k[j][l] for l in range(n) if l != j)


def stationary(k, classes):
    """The exact π of the stochastic matrix k (floats or Fractions) with these
    closed classes: each class's π by GTH, which reads only off-diagonal
    entries and never subtracts, mixed by the class's share of the recurrent
    states, as stationary_distribution mixes them."""
    recurrent = sum(len(members) for members in classes)
    pi = [Fraction(0)] * len(k)
    for members in map(list, classes):
        a = [[Fraction(k[i][j]) for j in members] for i in members]
        for m in range(len(a) - 1, 0, -1):  # censor state m out of the chain
            out = sum(a[m][:m])
            for i in range(m):
                a[i][m] /= out
                for j in range(m):
                    a[i][j] += a[i][m] * a[m][j]
        x = [Fraction(1)]
        for m in range(1, len(a)):
            x.append(sum(x[i] * a[i][m] for i in range(m)))
        share = Fraction(len(members), recurrent) / sum(x)
        for i, xi in zip(members, x):
            pi[i] = xi * share
    return pi


# -- D, H, log Z and F, to 60 digits -------------------------------------------

def relative_entropy(p, q):
    """D(p‖q) in nats: the sum of p_i ln(p_i/q_i) over p_i > 0, inf where
    such a q_i is 0. D(p‖1) is -H(p)."""
    with localcontext(CONTEXT):
        terms = [(a, Decimal(b)) for a, b in zip(map(Decimal, p), q) if a]
        if not all(b for _, b in terms):
            return Decimal("inf")
        return sum((a * (a / b).ln() for a, b in terms), Decimal(0))


def mutual_information(joint):
    """D(joint‖product of its marginals), each marginal summed to 60 digits."""
    rows = [[Decimal(x) for x in row] for row in joint]
    with localcontext(CONTEXT):
        first, second = [sum(row) for row in rows], [sum(column) for column in zip(*rows)]
        return relative_entropy([x for row in rows for x in row],
                                [a * b for a in first for b in second])


def _weights(energies, temperature, boltzmann):
    """(top, [exp(a_i - top)]) for a_i = -E_i/kT and top the largest a_i."""
    with localcontext(CONTEXT):
        kT = Decimal(temperature) * Decimal(boltzmann)
        a = [-Decimal(e) / kT for e in energies]
        top = max(a)
        return top, [(x - top).exp() for x in a]


def log_partition(energies, temperature, boltzmann):
    """log Z = ln of the sum of exp(-E_i/kT)."""
    top, w = _weights(energies, temperature, boltzmann)
    with localcontext(CONTEXT):
        return top + sum(w).ln()


def gibbs(energies, temperature, boltzmann):
    """π_i = exp(-E_i/kT) / Z."""
    w = _weights(energies, temperature, boltzmann)[1]
    with localcontext(CONTEXT):
        total = sum(w)
        return [x / total for x in w]


def free_energy(energies, temperature, boltzmann, p):
    """F(p) = <E>_p - kT·H(p)."""
    with localcontext(CONTEXT):
        kT = Decimal(temperature) * Decimal(boltzmann)
        average = sum(Decimal(x) * Decimal(e) for x, e in zip(p, energies))
        return average + kT * relative_entropy(p, [1] * len(p))


# -- strategies for the hard inputs ----------------------------------------------

def _stochastic(off_diagonal):
    """A row-stochastic float matrix with these off-diagonal entries: each
    diagonal entry is 1 less the rest of its row."""
    k = np.array(off_diagonal, dtype=float)
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(k, 1.0 - k.sum(axis=1))
    return k


# (scales, weights) of a chain of 2-6 states whose row i moves to j != i with
# probability weights[i][j] * 2^-(scales[i] + 3): every off-diagonal entry, and
# every partial sum of them, is an exact double.
_DYADIC_CHAINS = st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([1, 2, 3, 10, 20, 40, 100, 300, 600, 997]), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n),
))

# Chains on 2-8 states whose off-diagonal entries are 0 or any double from
# 2^-1074, the smallest subnormal, to below 2^-4.
_COUPLINGS = st.one_of(st.just(0.0), st.builds(
    lambda mantissa, exponent: math.ldexp(1.0 + mantissa / 2**52, exponent),
    st.integers(0, 2**52 - 1), st.integers(-1074, -5)))
_TINY_COUPLING_CHAINS = st.integers(2, 8).flatmap(lambda n: st.lists(
    st.lists(_COUPLINGS, min_size=n, max_size=n), min_size=n, max_size=n)).map(_stochastic)


def _metropolis(energies):
    """Metropolis rates at kT = 1 with uniform proposals:
    K_ij = exp(-max(0, E_j - E_i)) / n for j != i."""
    e = np.array(energies)
    return _stochastic(np.exp(-np.maximum(0.0, e[None, :] - e[:, None])) / len(e))


# Metropolis chains on 2-8 states with energies in ±740 kT, where a stored rate
# can underflow to a subnormal or to 0.
_METROPOLIS_CHAINS = st.lists(st.floats(-740.0, 740.0), min_size=2, max_size=8).map(_metropolis)


def _landscape(scaled, temperature, boltzmann, weights):
    """(energies, temperature, boltzmann, probabilities): energies E_i/kT of
    about scaled_i, and weights normalised."""
    kT = temperature * boltzmann
    probs = np.array(weights) / math.fsum(weights)
    return [x * kT for x in scaled], temperature, boltzmann, probs.tolist()


# Landscapes on 1-8 states with |E|/kT up to 1e6, under both k_B choices, with
# a distribution over them whose entries can be 0.
_HARD_LANDSCAPES = st.integers(1, 8).flatmap(lambda n: st.builds(
    _landscape,
    st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
    st.floats(1e-3, 1e3),
    st.sampled_from([DEFAULT_BOLTZMANN, SI_BOLTZMANN]),
    st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(any),
))
