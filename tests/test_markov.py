"""Tests for the Markov-chain engine and the Second-Law auditor."""

import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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


# -- detailed balance ------------------------------------------------------------------

def test_detailed_balance_symmetric_channel():
    channel = Channel([[0.7, 0.3], [0.3, 0.7]])
    result = check_detailed_balance(channel, Distribution.uniform(2))
    assert result.holds
    assert result.max_residual < 1e-15


def test_detailed_balance_two_state_with_its_stationary():
    channel = Channel([[0.6, 0.4], [0.1, 0.9]])
    pi = stationary_distribution(channel)
    assert check_detailed_balance(channel, pi).holds  # all 2-state chains are reversible


def test_detailed_balance_fails_for_rotation():
    rotation = Channel(np.roll(np.eye(3), 1, axis=1))
    result = check_detailed_balance(rotation, Distribution.uniform(3))
    assert not result.holds
    assert result.max_residual == pytest.approx(1.0 / 3.0, rel=1e-12)


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
    trajectory = evolve(Distribution([1.0, 0.0]), channel, 5, "auto")
    pi = stationary_distribution(channel)
    assert trajectory.reference == pi


def test_evolve_rejects_negative_steps():
    with pytest.raises(DomainError):
        evolve(Distribution.uniform(2), Channel(np.eye(2)), -1)


def _step_by_step(p0, channel, steps, reference):
    """evolve as a chain of validated Distributions, one relative_entropy each."""
    dists = [p0]
    for _ in range(steps):
        dists.append(apply_channel(dists[-1], channel))
    d_nats = [relative_entropy(p, reference).nats for p in dists]
    return np.array([p.probs for p in dists]), np.array(d_nats)


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
        return Distribution([1.0, 0.0]), _TWO_STATE, 20_000, "auto"
    if case == "dense-128":
        return _random_dist(rng, 128), _doubly_stochastic(rng, 128), 1_000, "auto"
    if case == "stationary-p0":
        return Distribution([0.5, 0.5]), Channel([[0.75, 0.25], [0.25, 0.75]]), 50, "auto"
    assert case == "nonstationary-reference"
    return Distribution([1.0, 0.0]), _TWO_STATE, 5_000, Distribution([0.5, 0.5])


def _first_repeat(probs):
    """The first step t with p_t == p_(t-1) bit for bit, or None."""
    for t in range(1, len(probs)):
        if probs[t].tobytes() == probs[t - 1].tobytes():
            return t
    return None


@pytest.mark.parametrize("case", ["reducible", "rotation", "zero-reference", "two-state",
                                  "dense-128", "stationary-p0", "nonstationary-reference"])
def test_evolve_matches_step_by_step_reference_bitwise(case):
    rng = np.random.default_rng(23)
    p0, channel, steps, pi_ref = _evolve_case(case, rng)
    trajectory = evolve(p0, channel, steps, pi_ref)
    reference = trajectory.reference
    if isinstance(pi_ref, str):
        assert np.array_equal(reference.probs, stationary_distribution(channel).probs)
    else:
        assert reference is pi_ref
    probs, d_nats = _step_by_step(p0, channel, steps, reference)
    assert np.array_equal(trajectory.probs, probs)
    assert np.array_equal(trajectory.d_nats, d_nats)
    assert len(trajectory) == steps + 1
    # each case covers what its name says about the fixed point
    settled = _first_repeat(probs)
    if case in ("rotation", "zero-reference"):
        assert settled is None
    elif case == "stationary-p0":
        assert settled == 1
    elif case != "reducible":
        assert settled is not None and settled < steps // 2
    if case == "nonstationary-reference":
        assert d_nats[-1] == d_nats[settled] > 0.0
    if case == "zero-reference":
        assert np.isinf(d_nats).any() and np.isfinite(d_nats).any()


def test_evolve_stops_at_the_floating_point_fixed_point(monkeypatch):
    calls = 0
    renormalised = markov._renormalised

    def counting(arr, total):
        nonlocal calls
        calls += 1
        return renormalised(arr, total)

    monkeypatch.setattr(markov, "_renormalised", counting)
    trajectory = evolve(Distribution([1.0, 0.0]), _TWO_STATE, 50_000)
    assert calls < 2_000
    assert len(trajectory) == 50_001
    assert np.array_equal(trajectory.probs[-1], trajectory.probs[calls])


def _count_kl_nats(monkeypatch):
    calls = []
    kl_nats = info._kl_nats

    def counting(p, q):
        calls.append(None)
        return kl_nats(p, q)

    monkeypatch.setattr(info, "_kl_nats", counting)
    return calls


def test_audit_of_positive_rows_computes_d_in_one_pass(monkeypatch):
    calls = _count_kl_nats(monkeypatch)
    # a noisy rotation from a positive p0 never settles, and every row is positive
    noisy = Channel(0.9 * np.roll(np.eye(3), 1, axis=1) + 0.1 / 3)
    verdict = second_law_audit(Distribution([0.5, 0.3, 0.2]), noisy, 10_000)
    probs = verdict.trajectory.probs
    assert _first_repeat(probs) is None
    assert len(calls) <= 1
    # rows with a zero still go through _kl_nats, one call each
    calls.clear()
    rotation = Channel(np.roll(np.eye(3), 1, axis=1))
    evolve(Distribution([0.6, 0.4, 0.0]), rotation, 1_000)
    assert len(calls) == 1_001


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


def test_evolve_rejects_mismatched_lengths():
    with pytest.raises(ShapeError):
        evolve(Distribution.uniform(3), Channel(np.eye(2)), 0, Distribution.uniform(2))


def test_trajectory_arrays_are_read_only():
    trajectory = evolve(Distribution([1.0, 0.0]), Channel([[0.5, 0.5], [0.5, 0.5]]), 3)
    with pytest.raises(ValueError):
        trajectory.probs[0, 0] = 0.5
    with pytest.raises(ValueError):
        trajectory.d_nats[0] = 0.0


def test_trajectory_csv_layout():
    channel = Channel([[0.75, 0.25], [0.25, 0.75]])
    trajectory = evolve(Distribution([1.0, 0.0]), channel, 2)
    lines = trajectory.to_csv().strip().split("\n")
    assert lines[0] == "step,p_1,p_2,D_nats,D_bits"
    assert len(lines) == 4
    assert lines[1].startswith("0,1.0,0.0,")


def test_trajectory_csv_renders_infinity():
    channel = Channel(np.eye(2))
    trajectory = evolve(Distribution([0.5, 0.5]), channel, 1, Distribution([1.0, 0.0]))
    assert ",inf," in trajectory.to_csv()


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
    monkeypatch.setattr(sweeps, "second_law_audit", lambda *args, **kwargs: verdict)
    assert sweeps.monotonicity_sweep(3, steps=1).failures == 3


def test_audit_requires_at_least_one_step():
    with pytest.raises(DomainError):
        second_law_audit(Distribution.uniform(2), Channel(np.eye(2)), 0)


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
