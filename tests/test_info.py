"""Tests for the information core: entropies, divergences, decomposition."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermobit import (
    Channel,
    Distribution,
    DomainError,
    EnergyLandscape,
    JointDistribution,
    ShapeError,
    decompose_information,
    gibbs_distribution,
    mutual_information,
    relative_entropy,
    self_information,
    shannon_entropy,
)
from thermobit import info, thermo

import exact

LOG2 = math.log(2.0)


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
        want = exact.relative_entropy(p.probs, q.probs)
        assert abs(Decimal(got) - want) <= max(1e-12 * float(want), 1e-13)
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


def _kl_nats(p, q):
    """D(p‖q) of two probability arrays of one length, as relative_entropy
    computed it before it ran _kl_rows on one row: the oracle of _kl_rows."""
    mask = p > 0.0
    ps = p[mask]
    qs = q[mask]
    if np.any(qs == 0.0):
        return math.inf
    return float(np.sum(ps * (np.log(ps) - np.log(qs)))) + 0.0


def _kl_rows_bitwise(block, q):
    """_kl_rows against q, one reference for every row (1-D) or one per row
    (2-D), matches _kl_nats row by row, and relative_entropy gives the same."""
    out = np.empty(len(block))
    info._kl_rows(block, info._log_reference(q), out)
    references = q if q.ndim == 2 else [q] * len(block)
    expected = np.array([_kl_nats(row, ref) for row, ref in zip(block, references)])
    assert out.tobytes() == expected.tobytes()
    for row, ref, d in zip(block, references, out.tolist()):
        got = relative_entropy(Distribution(row), Distribution(ref)).nats
        assert np.float64(got).tobytes() == np.float64(d).tobytes()


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


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    rows=st.integers(1, 40),
    zero_share=st.floats(0.0, 1.0),
    block_rows=st.integers(1, 41),
)
def test_kl_rows_against_one_reference_per_row_matches_kl_nats_bitwise(
        seed, n, rows, zero_share, block_rows):
    # the references are rows of a second case, so they hold zeros too
    block, _ = _kl_rows_case(seed, n, rows, round(zero_share * rows), False)
    references, _ = _kl_rows_case(seed + 1, n, rows, round(zero_share * rows), False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(info, "_KL_BLOCK_ENTRIES", block_rows * n)
        _kl_rows_bitwise(block, references)


@pytest.mark.parametrize("columns", [1, 63, 64, 65, 130])
def test_support_groups_hold_exactly_the_rows_of_each_support(columns):
    # the rows take four supports: a random one, the same with its last
    # column flipped, so that the last packed byte tells them apart, none
    # and all; so a support that is not a whole number of words is padded
    rng = np.random.default_rng(columns)
    supports = np.array([rng.random(columns) < 0.5] * 2 + [[False] * columns, [True] * columns])
    supports[1, -1] = ~supports[0, -1]
    support = supports[rng.integers(0, 4, 40)]
    expected = {row.tobytes(): np.flatnonzero((support == row).all(axis=1)).tolist()
                for row in support}
    groups = list(info._support_groups(support))
    assert len(groups) == len(expected)
    for members, row in groups:
        assert members.tolist() == expected[row.tobytes()]


def _entropy_1d(p):
    """H(p) of a probability array as shannon_entropy computed it before it
    ran _kl_rows on one row: the oracle of _entropy_rows."""
    ps = p[p > 0.0]
    return float(-np.sum(ps * np.log(ps))) + 0.0


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    rows=st.integers(1, 40),
    zero_share=st.floats(0.0, 1.0),
)
def test_entropy_rows_match_the_1d_sum_bitwise(seed, n, rows, zero_share):
    # D against all ones is -H: shannon_entropy runs _kl_rows on one row
    block, _ = _kl_rows_case(seed, n, rows, round(zero_share * rows), False)
    expected = np.array([_entropy_1d(row) for row in block])
    assert info._entropy_rows(block).tobytes() == expected.tobytes()
    for row, h in zip(block, expected.tolist()):
        got = shannon_entropy(Distribution(row)).nats
        assert np.float64(got).tobytes() == np.float64(h).tobytes()


def test_kl_rows_spans_several_default_blocks():
    n = 300
    rows = 3 * (info._KL_BLOCK_ENTRIES // n) + 7
    block, q = _kl_rows_case(11, n, rows, 50, False)
    _kl_rows_bitwise(block, q)


@pytest.mark.parametrize("n, zeros", [(9, 1), (12, 4), (40, 7), (300, 150)])
def test_kl_rows_matches_kl_nats_on_rows_sharing_a_zero_pattern(n, zeros):
    # two groups of rows, each keeping at least 8 entries: numpy sums 8 or more
    # entries pairwise, and it sums a group's rows that way only when each
    # row's kept entries lie next to each other in memory
    rng = np.random.default_rng(n)
    block = rng.dirichlet(np.ones(n), size=10)
    block[:5, rng.choice(n, size=zeros, replace=False)] = 0.0
    block[5:, rng.choice(n, size=zeros, replace=False)] = 0.0
    block /= block.sum(axis=1, keepdims=True)
    _kl_rows_bitwise(block, rng.dirichlet(np.ones(n)))


@pytest.mark.parametrize("zero_ref", [False, True])
def test_kl_rows_matches_kl_nats_on_rows_whose_supports_alternate(zero_ref):
    # a sparse row under a rotation: consecutive rows never share a support,
    # and against a reference with a zero, D alternates between inf and finite
    rng = np.random.default_rng(3)
    n = 11
    p0 = np.zeros(n)
    p0[:9] = rng.dirichlet(np.ones(9))
    block = np.array([np.roll(p0, t) for t in range(50)])
    q = rng.dirichlet(np.ones(n))
    if zero_ref:
        q[0] = 0.0
        q /= q.sum()
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


_SUM_OFF = "must sum to 1 within 1e-09, got 1.0000000020000002"


@pytest.mark.parametrize("build, error, message", [
    (lambda: Distribution([[0.5, 0.5]]), ShapeError,
     "distribution must be 1-dimensional, got shape (1, 2)"),
    (lambda: Distribution([]), ShapeError, "distribution needs at least one entry"),
    (lambda: Distribution([math.nan, 1.0]), DomainError, "distribution entries must be finite"),
    (lambda: Distribution([math.inf, 0.0]), DomainError, "distribution entries must be finite"),
    (lambda: Distribution([1.2, -0.2]), DomainError, "distribution entries must be non-negative"),
    (lambda: Distribution([0.5 + 2e-9, 0.5]), DomainError, f"distribution {_SUM_OFF}"),
    (lambda: JointDistribution([0.5, 0.5]), ShapeError,
     "joint distribution must be 2-dimensional, got shape (2,)"),
    (lambda: JointDistribution(np.zeros((2, 0))), ShapeError,
     "joint distribution needs at least one entry"),
    (lambda: JointDistribution([[math.nan, 1.0]]), DomainError,
     "joint distribution entries must be finite"),
    (lambda: JointDistribution([[0.5], [-math.inf]]), DomainError,
     "joint distribution entries must be finite"),
    (lambda: JointDistribution([[1.2], [-0.2]]), DomainError,
     "joint distribution entries must be non-negative"),
    (lambda: JointDistribution([[0.5 + 2e-9], [0.5]]), DomainError,
     f"joint distribution {_SUM_OFF}"),
    (lambda: Channel([0.5, 0.5]), ShapeError, "channel matrix must be square, got shape (2,)"),
    (lambda: Channel(np.zeros((0, 0))), ShapeError,
     "channel matrix must be square, got shape (0, 0)"),
    (lambda: Channel([[1.0, 0.0], [math.nan, 1.0]]), DomainError, "channel entries must be finite"),
    (lambda: Channel([[1.0, 0.0], [0.0, math.inf]]), DomainError, "channel entries must be finite"),
    (lambda: Channel([[1.2, -0.2], [0.0, 1.0]]), DomainError,
     "channel entries must be non-negative"),
    (lambda: Channel([[1.0, 0.0], [0.5 + 2e-9, 0.5]]), DomainError, f"channel row 1 {_SUM_OFF}"),
    # one row is named only when there are others to tell it from
    (lambda: Channel([[0.5 + 2e-9 + 0.5]]), DomainError, f"channel {_SUM_OFF}"),
    # a sum past the largest float is judged as inf, with no overflow warning
    (lambda: Distribution([1e308, 1e308]), DomainError,
     "distribution must sum to 1 within 1e-09, got inf"),
    (lambda: Channel([[0.0, 1.0], [1e308, 1e308]]), DomainError,
     "channel row 1 must sum to 1 within 1e-09, got inf"),
    # counts go by the one rule of errors._count
    (lambda: Distribution.uniform(0), DomainError, "n must be an integer of at least 1, got 0"),
    (lambda: Distribution.uniform(-2), DomainError, "n must be an integer of at least 1, got -2"),
    (lambda: Distribution.degenerate(3, 5), DomainError, "index must lie in [0, 3), got 5"),
    (lambda: Distribution.degenerate(3, -1), DomainError,
     "index must be an integer of at least 0, got -1"),
    (lambda: Distribution.uniform(2.5), DomainError, "n must be an integer of at least 1, got 2.5"),
    (lambda: Distribution.uniform("3"), DomainError, "n must be an integer of at least 1, got '3'"),
    (lambda: Distribution.degenerate(2.0, 0), DomainError,
     "n must be an integer of at least 1, got 2.0"),
    (lambda: Distribution.degenerate(3, 0.5), DomainError,
     "index must be an integer of at least 0, got 0.5"),
], ids=[f"{kind}-{fault}" for kind in ("distribution", "joint", "channel")
        for fault in ("ndim", "empty", "nan", "inf", "negative", "sum")]
    + ["channel-one-state-sum", "distribution-overflow", "channel-overflow", "uniform-0",
       "uniform-negative", "degenerate-past-end", "degenerate-negative", "uniform-float",
       "uniform-string", "degenerate-float-n", "degenerate-float-index"])
def test_probability_faults_have_one_message_each(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


# -- parity with the rule as three separate helpers had it -------------------------
#
# Before _probability_rows became the one home of the probability rule, a
# Distribution or joint ran its own copy of the checks and renormalised by
# _renormalised, and channel and Gibbs rows ran _renormalised_rows, which
# copied the array before dividing. These copies of that code, copying in C
# order as every constructor now does, are the oracle: every construction
# must give the same bits, shape and flags, or the same error.

def _oracle_renormalised(arr, total):
    if abs(total - 1.0) > 1e-12:
        return arr / total
    return arr


def _oracle_renormalised_rows(arr, sums):
    fix = np.abs(sums - 1.0) > 1e-12
    if fix.any():
        arr = arr.copy()
        arr[fix] = arr[fix] / sums[fix, None]
    return arr


def _oracle_probability_rows(arr, what):
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} entries must be finite")
    if (arr < 0.0).any():
        raise DomainError(f"{what} entries must be non-negative")
    sums = arr.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-9
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"{what} row {i} must sum to 1 within 1e-09, got {float(sums[i])!r}")
    return _oracle_renormalised_rows(arr, sums)


def _oracle_as_prob_array(values, what, ndim):
    arr = np.array(values, dtype=float, order="C")
    if arr.ndim != ndim:
        raise ShapeError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{what} needs at least one entry")
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} entries must be finite")
    if (arr < 0.0).any():
        raise DomainError(f"{what} entries must be non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"{what} must sum to 1 within 1e-09, got {total!r}")
    arr = _oracle_renormalised(arr, total)
    arr.setflags(write=False)
    return arr


def _oracle_channel(matrix):
    arr = np.array(matrix, dtype=float, order="C")
    try:
        arr = _oracle_probability_rows(arr, "channel")
    except DomainError as error:
        if len(arr) > 1:
            raise
        # the one deliberate change: a lone row is not named
        raise DomainError(str(error).replace("channel row 0 ", "channel ")) from None
    arr.setflags(write=False)
    return arr


def _oracle_gibbs_rows(energies, kT):
    log_weights = -energies / kT[:, None]
    top = log_weights.max(axis=1)
    weights = np.exp(log_weights - top[:, None])
    gibbs = weights / weights.sum(axis=1)[:, None]
    return _oracle_renormalised_rows(gibbs, gibbs.sum(axis=1))


def _outcome(build):
    """What build() gives: an array's bytes in memory order, shape and flags,
    or the type and message of the error it raises."""
    try:
        arr = build()
    except (DomainError, ShapeError) as error:
        return type(error), str(error)
    flags = arr.flags
    return (arr.tobytes(order="A"), arr.shape, flags.writeable, flags.owndata,
            flags.c_contiguous, flags.f_contiguous)


_PARITY_OFFSETS = (0.0, 1e-13, 3e-12, 4e-10, 2e-9)


def _parity_values(rng, shape, rows):
    """Random probabilities of `shape` with zeros and subnormals, each of
    `rows` rows (or the whole array) scaled to sum to 1 off by one of
    _PARITY_OFFSETS either way; one case in twenty has a nan, an inf or a
    negative entry."""
    values = rng.random(shape)
    values[rng.random(shape) < 0.3] = 0.0
    values[rng.random(shape) < 0.1] = 5e-324 * float(rng.integers(1, 10**6))
    flat = values.reshape(rows, -1)
    flat[np.arange(rows), rng.integers(flat.shape[1], size=rows)] += 0.5
    offsets = rng.choice(_PARITY_OFFSETS, size=(rows, 1)) * rng.choice([-1.0, 1.0], size=(rows, 1))
    flat *= (1.0 + offsets) / flat.sum(axis=1, keepdims=True)
    if rng.random() < 0.05:
        flat.flat[rng.integers(flat.size)] = rng.choice([math.nan, math.inf, -0.25])
    return values


def _parity_case(rng, kind):
    """(input, new construction, oracle construction) of one random case."""
    n = int(rng.integers(1, 9))
    if kind == "distribution":
        values = _parity_values(rng, n, 1)
        return (values, lambda: Distribution(values).probs,
                lambda: _oracle_as_prob_array(values, "distribution", 1))
    if kind.startswith("joint"):
        values = _parity_values(rng, (n, int(rng.integers(1, 9))), 1)
        values = {"joint-C": values, "joint-F": np.asfortranarray(values),
                  "joint-T": values.T}[kind]
        return (values, lambda: JointDistribution(values).probs,
                lambda: _oracle_as_prob_array(values, "joint distribution", 2))
    if kind == "channel":
        values = _parity_values(rng, (n, n), n)
        return values, lambda: Channel(values).matrix, lambda: _oracle_channel(values)
    assert kind == "gibbs"
    energies = rng.normal(size=(int(rng.integers(1, 4)), n)) * rng.choice([1.0, 50.0, 700.0, 1e4])
    kT = rng.uniform(0.1, 10.0, size=len(energies))
    return (None, lambda: thermo._gibbs_rows(energies, kT)[2],
            lambda: _oracle_gibbs_rows(energies, kT))


@pytest.mark.parametrize("kind", ["distribution", "joint-C", "joint-F", "joint-T",
                                  "channel", "gibbs"])
def test_probability_rule_matches_the_three_helper_oracle(kind):
    rng = np.random.default_rng(18)
    seen = set()
    for _ in range(2_000):
        values, build, oracle = _parity_case(rng, kind)
        expected = _outcome(oracle)
        assert _outcome(build) == expected
        if isinstance(expected[0], type):
            seen.add(expected[0])
        elif values is not None:
            seen.add("kept" if expected[0] == np.array(values).tobytes(order="A")
                     else "renormalised")
    if kind != "gibbs":
        assert seen == {"kept", "renormalised", DomainError}


def test_gibbs_distribution_matches_the_oracle_bitwise():
    rng = np.random.default_rng(19)
    for _ in range(500):
        energies = rng.normal(size=int(rng.integers(1, 40))) * rng.choice([1.0, 700.0, 1e4])
        temperature = float(rng.uniform(0.1, 10.0))
        expected = _oracle_as_prob_array(
            _oracle_gibbs_rows(energies[None], np.array([temperature]))[0], "distribution", 1)
        pi = gibbs_distribution(EnergyLandscape(energies, temperature)).probs
        assert _outcome(lambda: pi) == _outcome(lambda: expected)


def test_layout_of_a_joint_changes_no_bit_of_its_mutual_information():
    rng = np.random.default_rng(20)
    for _ in range(20):
        m = rng.random((8, 8)) * (rng.random((8, 8)) > 0.2)
        m *= (1.0 + 4e-10) / m.sum()  # renormalised on construction
        results = set()
        for given in (m, np.asfortranarray(m), np.ascontiguousarray(m.T).T):
            joint = JointDistribution(given)
            assert joint.probs.flags.c_contiguous
            results.add((joint.probs.tobytes(), mutual_information(joint).nats))
        assert len(results) == 1


# -- joints and mutual information ------------------------------------------------

def test_mutual_information_independent_is_zero():
    j = JointDistribution.from_product(Distribution([0.3, 0.7]), Distribution([0.6, 0.4]))
    assert mutual_information(j).nats == 0.0
    # rounding in the marginals takes D(joint‖product) a little off 0, either
    # way; a value below 0 is clamped to 0, and some of these joints reach it
    rng = np.random.default_rng(20261019)
    below_zero = 0
    for _ in range(200):
        p, q = (Distribution(rng.dirichlet(np.ones(int(rng.integers(2, 9))))) for _ in range(2))
        j = JointDistribution.from_product(p, q)
        product = JointDistribution.from_product(j.marginal_first(), j.marginal_second())
        raw = relative_entropy(j.flatten(), product.flatten()).nats
        assert abs(raw) < 1e-14
        assert mutual_information(j).nats == max(raw, 0.0)
        below_zero += raw < 0.0
    assert below_zero > 0


def test_mutual_information_correlated_uniform():
    j = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    want = exact.mutual_information(j.probs)
    assert abs(want - Decimal(2).ln(exact.CONTEXT)) <= Decimal("1e-59")
    assert abs(Decimal(mutual_information(j).nats) - want) <= 1e-14 * float(want)


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
        assert abs(Decimal(got) - exact.mutual_information(j.probs)) <= 1e-12


def test_joint_marginals_and_flatten():
    j = JointDistribution([[0.1, 0.2], [0.3, 0.4]])
    assert np.allclose(j.marginal_first().probs, [0.3, 0.7])
    assert np.allclose(j.marginal_second().probs, [0.4, 0.6])
    flat = j.flatten()
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
