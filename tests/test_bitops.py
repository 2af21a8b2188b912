"""Tests for the bit-operation channels and their energy ledgers."""

import math

import numpy as np
import pytest

from thermobit import (
    BitPairState,
    BitState,
    BitType,
    ContractError,
    Direction,
    Distribution,
    DomainError,
    JointDistribution,
    PairRelation,
    ShapeError,
    copy_landauer,
    copy_szilard,
    erase,
    not_op,
    randomize,
    randomize_first,
    relative_entropy,
    shannon_entropy,
    switch,
)

LOG2 = math.log(2.0)
SI_KB = 1.380649e-23


def _delta_d_oracle(dist_in, dist_out):
    """D(out||u) - D(in||u) computed through the divergence route."""
    n = len(dist_in)
    u = Distribution.uniform(n)
    return relative_entropy(dist_out, u).nats - relative_entropy(dist_in, u).nats


# -- classification ------------------------------------------------------------

def test_bit_classification():
    assert BitState.zero().classification is BitType.ZERO
    assert BitState.one().classification is BitType.ONE
    assert BitState.star().classification is BitType.STAR
    assert BitState.from_probs(0.75, 0.25).classification is BitType.OTHER
    assert BitState.from_probs(0.5 + 5e-10, 0.5 - 5e-10).classification is BitType.STAR
    # the classification slack is info.SUM_TOLERANCE, 1e-9, on either side of 1/2
    for offset, kind in [(0.9e-9, BitType.STAR), (-0.9e-9, BitType.STAR),
                         (2e-9, BitType.OTHER), (-2e-9, BitType.OTHER)]:
        assert BitState.from_probs(0.5 + offset, 0.5 - offset).classification is kind


def test_pair_relations():
    assert BitPairState.correlated_uniform().relation is PairRelation.CORRELATED
    assert BitPairState.anticorrelated_uniform().relation is PairRelation.ANTICORRELATED
    assert BitPairState.independent_uniform().relation is PairRelation.INDEPENDENT
    skew = BitPairState(JointDistribution([[0.4, 0.1], [0.1, 0.4]]))
    assert skew.relation is PairRelation.OTHER


# -- erase -----------------------------------------------------------------------

def test_erase_star_costs_one_bit():
    out, ledger = erase(BitState.star())
    assert out.classification is BitType.ZERO
    assert ledger.delta_h_nats == -LOG2
    assert ledger.delta_d_nats == LOG2
    assert ledger.min_energy == LOG2  # kT = 1
    assert ledger.direction is Direction.COSTS_AT_LEAST


def test_erase_strict_rejects_non_star():
    with pytest.raises(ContractError, match="STAR"):
        erase(BitState.zero())


def test_erase_lenient_on_zero_is_free():
    out, ledger = erase(BitState.zero(), mode="lenient")
    assert out == BitState.zero()
    assert ledger.delta_d_nats == 0.0
    assert ledger.direction is Direction.FREE


def test_erase_lenient_on_skewed_bit():
    state = BitState.from_probs(0.75, 0.25)
    out, ledger = erase(state, mode="lenient")
    assert out.classification is BitType.ZERO
    expected = _delta_d_oracle(state.dist, out.dist)
    assert ledger.delta_d_nats == pytest.approx(expected, abs=1e-14)
    assert ledger.delta_d_nats == pytest.approx(shannon_entropy(state.dist).nats, abs=1e-14)


def test_partial_erase_success_monotonicity():
    # an erase succeeding with probability s maps * to ((1+s)/2, (1-s)/2);
    # its information gain is below one bit and grows with s
    star = BitState.star()
    previous = -1.0
    for s in np.linspace(0.05, 0.95, 10):
        outcome = Distribution([(1.0 + s) / 2.0, (1.0 - s) / 2.0])
        delta_d = _delta_d_oracle(star.dist, outcome)
        assert delta_d < LOG2
        assert delta_d > previous
        previous = delta_d


# -- copying ----------------------------------------------------------------------

def test_copy_szilard_costs_one_bit():
    out, ledger = copy_szilard(BitPairState.independent_uniform())
    assert out.relation is PairRelation.CORRELATED
    assert out.first.classification is BitType.STAR  # first marginal preserved
    assert np.allclose(out.joint.probs, [[0.5, 0.0], [0.0, 0.5]])
    assert ledger.delta_h_nats == -LOG2
    assert ledger.delta_d_nats == LOG2
    assert ledger.min_energy == LOG2


def test_copy_szilard_strict_contract():
    with pytest.raises(ContractError):
        copy_szilard(BitPairState.correlated_uniform())
    with pytest.raises(ContractError):
        copy_szilard(BitPairState.from_bits(BitState.star(), BitState.zero()))


def test_copy_szilard_lenient_fixed_points():
    pair = BitPairState.correlated_uniform()
    out, ledger = copy_szilard(pair, mode="lenient")
    assert out == pair
    assert ledger.delta_d_nats == 0.0
    anti = BitPairState.anticorrelated_uniform()
    out, ledger = copy_szilard(anti, mode="lenient")
    assert out.relation is PairRelation.CORRELATED
    assert ledger.delta_d_nats == 0.0  # H stays at log 2


def test_copy_landauer_is_free():
    pair = BitPairState.from_bits(BitState.star(), BitState.zero())
    out, ledger = copy_landauer(pair)
    assert out.relation is PairRelation.CORRELATED
    assert ledger.delta_h_nats == 0.0
    assert ledger.delta_d_nats == 0.0
    assert ledger.min_energy == 0.0
    assert ledger.direction is Direction.FREE


def test_copy_landauer_strict_contract():
    with pytest.raises(ContractError):
        copy_landauer(BitPairState.independent_uniform())


def test_copy_landauer_lenient_on_double_zero():
    pair = BitPairState.from_bits(BitState.zero(), BitState.zero())
    out, ledger = copy_landauer(pair, mode="lenient")
    assert out == pair
    assert ledger.delta_d_nats == 0.0


def test_copy_landauer_then_randomize_first_gives_independent_uniform():
    pair = BitPairState.from_bits(BitState.star(), BitState.zero())
    pair, _ = copy_landauer(pair)
    pair, _ = randomize_first(pair)
    assert pair.relation is PairRelation.INDEPENDENT
    assert np.allclose(pair.joint.probs, 0.25)


# -- NOT and switching ----------------------------------------------------------------

def test_not_swaps_and_is_free():
    out, ledger = not_op(BitState.zero(), mode="lenient")
    assert out == BitState.one()
    assert ledger.delta_h_nats == 0.0
    out, ledger = not_op(BitState.star())
    assert out.classification is BitType.STAR
    state = BitState.from_probs(0.75, 0.25)
    out, ledger = not_op(state, mode="lenient")
    assert np.allclose(out.dist.probs, [0.25, 0.75])
    assert ledger.delta_d_nats == 0.0  # relabeling leaves D(.||u) unchanged


def test_switch_between_definite_values():
    out, ledger = switch(BitState.zero(), 0, 1)
    assert out == BitState.one()
    assert ledger.delta_d_nats == 0.0
    assert ledger.direction is Direction.FREE
    out, ledger = switch(BitState.one(), 1, 0)
    assert out == BitState.zero()
    assert ledger.delta_d_nats == 0.0


def test_switch_round_trip_is_identity():
    state = BitState.zero()
    mid, _ = switch(state, 0, 1)
    back, _ = switch(mid, 1, 0)
    assert back == state


def test_switch_strict_contract_and_domain():
    with pytest.raises(ContractError):
        switch(BitState.one(), 0, 1)
    with pytest.raises(Exception):
        switch(BitState.zero(), 0, 2)


# -- randomize ---------------------------------------------------------------------------

def test_randomize_zero_yields_one_bit():
    out, ledger = randomize(BitState.zero())
    assert out.classification is BitType.STAR
    assert ledger.delta_h_nats == LOG2
    assert ledger.delta_d_nats == -LOG2
    assert ledger.min_energy == -LOG2
    assert ledger.direction is Direction.YIELDS_AT_MOST


def test_randomize_accepts_one_by_symmetry():
    out, ledger = randomize(BitState.one())
    assert out.classification is BitType.STAR
    assert ledger.delta_d_nats == -LOG2


def test_randomize_lenient_star_yields_nothing():
    out, ledger = randomize(BitState.star(), mode="lenient")
    assert out.classification is BitType.STAR
    assert ledger.delta_d_nats == 0.0
    assert ledger.direction is Direction.FREE


def test_randomize_room_temperature_si_units():
    _, ledger = randomize(BitState.zero(), temperature=300.0, boltzmann=SI_KB)
    assert abs(ledger.min_energy) == SI_KB * 300.0 * LOG2
    assert abs(ledger.min_energy) == pytest.approx(2.87e-21, rel=1e-2)


def test_randomize_strict_rejects_star():
    with pytest.raises(ContractError):
        randomize(BitState.star())


# -- strict contracts ---------------------------------------------------------------------

_BIT_OF_TYPE = {BitType.ZERO: BitState.zero(), BitType.ONE: BitState.one(),
                BitType.STAR: BitState.star(), BitType.OTHER: BitState.from_probs(0.75, 0.25)}


@pytest.mark.parametrize("bit_type", list(BitType), ids=lambda t: t.name)
@pytest.mark.parametrize("op, accepted", [
    (erase, {BitType.STAR}),
    (randomize, {BitType.ZERO, BitType.ONE}),
    (not_op, set(BitType)),
    (lambda b, **kw: switch(b, 0, 1, **kw), {BitType.ZERO}),
    (lambda b, **kw: switch(b, 0, 0, **kw), {BitType.ZERO}),
    (lambda b, **kw: switch(b, 1, 0, **kw), {BitType.ONE}),
    (lambda b, **kw: switch(b, 1, 1, **kw), {BitType.ONE}),
], ids=["erase", "randomize", "not", "switch-0-1", "switch-0-0", "switch-1-0", "switch-1-1"])
def test_strict_contract_of_single_bit_ops(op, accepted, bit_type):
    state = _BIT_OF_TYPE[bit_type]
    if bit_type in accepted:
        op(state)
    else:
        with pytest.raises(ContractError, match=rf"expects a bit of type \w+( or \w+)* in "
                                                rf"strict mode, got {bit_type.name}$"):
            op(state)
    op(state, mode="lenient")


_PAIRS = [BitPairState.from_bits(first, second)
          for first in _BIT_OF_TYPE.values() for second in _BIT_OF_TYPE.values()] + [
    BitPairState.correlated_uniform(),
    BitPairState.anticorrelated_uniform(),
    BitPairState(JointDistribution([[0.4, 0.1], [0.1, 0.4]])),
]


@pytest.mark.parametrize("pair", _PAIRS, ids=lambda p: "-".join(
    (p.first.classification.name, p.second.classification.name, p.relation.name)))
@pytest.mark.parametrize("op, accepted", [
    (copy_szilard, (BitType.STAR, BitType.STAR, PairRelation.INDEPENDENT)),
    (copy_landauer, (BitType.STAR, BitType.ZERO, None)),  # None: any relation
])
def test_strict_contract_of_copy_ops(op, accepted, pair):
    got = (pair.first.classification, pair.second.classification, pair.relation)
    if all(want in (None, have) for want, have in zip(accepted, got)):
        op(pair)
    else:
        names = ", ".join(t.name for t in got)
        with pytest.raises(ContractError, match=rf"expects a pair of type \(.*\) in strict "
                                                rf"mode, got \({names}\)$"):
            op(pair)
    op(pair, mode="lenient")


@pytest.mark.parametrize("call, message", [
    (lambda: erase(BitPairState.independent_uniform(), mode="lenient"),
     "erase expects a bit, got a BitPairState"),
    (lambda: erase(BitPairState.independent_uniform()),
     "erase expects a bit, got a BitPairState"),
    (lambda: copy_szilard(BitState.star(), mode="lenient"),
     "copy_szilard expects a pair, got a BitState"),
    (lambda: randomize_first(BitState.star()), "randomize_first expects a pair, got a BitState"),
], ids=["erase-lenient", "erase-strict", "copy-szilard-lenient", "randomize-first"])
def test_bit_ops_reject_the_other_kind_of_state(call, message):
    with pytest.raises(ShapeError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: erase(BitState.star(), mode="loose"),
     DomainError, "mode must be 'strict' or 'lenient', got 'loose'"),
    (lambda: BitState(Distribution([1 / 3, 1 / 3, 1 / 3])),
     ShapeError, "a bit needs a 2-state distribution"),
    (lambda: BitPairState(JointDistribution(np.full((2, 3), 1 / 6))),
     ShapeError, "a bit pair needs a 2x2 joint distribution"),
], ids=["mode", "bit-shape", "pair-shape"])
def test_bad_modes_and_state_shapes_are_rejected(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


# -- ledger invariants ----------------------------------------------------------------------

def test_every_ledger_has_delta_d_equal_minus_delta_h():
    rng = np.random.default_rng(83)
    for _ in range(100):
        p0 = float(rng.uniform(0, 1))
        state = BitState.from_probs(p0, 1.0 - p0)
        for op in (erase, not_op, randomize):
            _, ledger = op(state, mode="lenient")
            assert ledger.delta_d_nats == -ledger.delta_h_nats
        joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
        pair = BitPairState(JointDistribution(joint))
        for pair_op in (copy_szilard, copy_landauer):
            _, ledger = pair_op(pair, mode="lenient")
            assert ledger.delta_d_nats == -ledger.delta_h_nats
        _, ledger = randomize_first(pair)
        assert ledger.delta_d_nats == -ledger.delta_h_nats


def test_erase_randomize_cycle_conserves_energy():
    state = BitState.zero()
    mid, randomize_ledger = randomize(state)
    back, erase_ledger = erase(mid)
    assert back == state
    assert randomize_ledger.min_energy + erase_ledger.min_energy == 0.0


def test_copy_costs_match_erase_and_free_ops_report_zero():
    _, erase_ledger = erase(BitState.star())
    _, szilard_ledger = copy_szilard(BitPairState.independent_uniform())
    assert szilard_ledger.min_energy == erase_ledger.min_energy == LOG2
    _, landauer_ledger = copy_landauer(BitPairState.from_bits(BitState.star(), BitState.zero()))
    _, not_ledger = not_op(BitState.star())
    _, switch_ledger = switch(BitState.zero(), 0, 1)
    assert landauer_ledger.min_energy == 0.0
    assert not_ledger.min_energy == 0.0
    assert switch_ledger.min_energy == 0.0


def test_demon_protocol_szilard_measurement_cancels_extraction():
    pair = BitPairState.independent_uniform()
    pair, copy_ledger = copy_szilard(pair)
    pair, extract_ledger = randomize_first(pair)
    assert copy_ledger.delta_d_nats + extract_ledger.delta_d_nats == 0.0
    assert pair.relation is PairRelation.INDEPENDENT


def test_demon_protocol_landauer_pays_with_the_initialized_bit():
    pair = BitPairState.from_bits(BitState.star(), BitState.zero())
    pair, copy_ledger = copy_landauer(pair)
    pair, extract_ledger = randomize_first(pair)
    assert copy_ledger.delta_d_nats + extract_ledger.delta_d_nats == -LOG2
    assert pair.relation is PairRelation.INDEPENDENT
    assert np.allclose(pair.joint.probs, 0.25)


# -- serialization ------------------------------------------------------------------------------

def test_ledger_json_dict():
    _, ledger = erase(BitState.star(), temperature=2.0, boltzmann=3.0)
    payload = ledger.to_json_dict()
    assert payload["op"] == "erase"
    assert payload["delta_H"]["bits"] == -1.0
    assert payload["delta_D"]["nats"] == LOG2
    assert payload["min_energy"] == 3.0 * 2.0 * LOG2
    assert payload["direction"] == "COSTS_AT_LEAST"
    assert payload["input"] == [0.5, 0.5]
    assert payload["output"] == [1.0, 0.0]
