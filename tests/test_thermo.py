"""Tests for the thermodynamic core and the correspondence check."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermobit import (
    Distribution,
    DomainError,
    EnergyLandscape,
    ShapeError,
    available_free_energy,
    average_energy,
    check_szilard_landauer,
    free_energy,
    gibbs_distribution,
    log_partition_function,
    shannon_entropy,
)

import exact
from test_info import _entropy_1d

LOG2 = math.log(2.0)
SI_KB = 1.380649e-23


def _random_case(rng, max_states=64, kb=1.0):
    n = int(rng.integers(2, max_states + 1))
    landscape = EnergyLandscape(
        rng.uniform(-10.0, 10.0, n),
        temperature=float(rng.uniform(0.1, 10.0)),
        boltzmann=kb,
    )
    return landscape, Distribution(rng.dirichlet(np.ones(n)))


# -- log partition function ---------------------------------------------------

def test_log_partition_flat_two_state():
    assert log_partition_function(EnergyLandscape([0.0, 0.0])) == pytest.approx(LOG2, rel=1e-15)


def test_log_partition_two_term_closed_form():
    got = log_partition_function(EnergyLandscape([0.0, 1.0]))
    assert got == pytest.approx(math.log(1.0 + math.exp(-1.0)), rel=1e-15)


def test_log_partition_survives_huge_energies():
    got = log_partition_function(EnergyLandscape([1e6, 1e6 + 1.0]))
    assert math.isfinite(got)
    assert got == pytest.approx(-1e6 + math.log(1.0 + math.exp(-1.0)), rel=1e-12)


def _terms(energies, kT, probs):
    """<|E|> + kT·H of probs: the size of the terms F is summed from."""
    return (math.fsum(float(a) * abs(e) for a, e in zip(probs, energies))
            - kT * float(exact.relative_entropy(probs, [1] * len(probs))))


@settings(max_examples=50, deadline=None)
@given(exact._HARD_LANDSCAPES)
# F(π) = -kT log Z is 0.127 here, but the terms it is summed from, <E>_π and
# kT·H(π), are 0.238 and 0.365
@example(([0.0, 2.0], 1.0, 1.0, [1.0, 0.0]))
# π_1 = 1 - 1.6e-45 is stored as 1, so the float H(π) lacks -π_1 ln π_1 = 1.6e-45
@example(([10646.446345316315, 1.620264089768893e-253], 103.18161825304115, 1.0, [0.0, 1.0]))
def test_log_z_free_energy_and_available_match_the_exact_oracle_on_hard_landscapes(case):
    # each error is within (n + 2) eps of the size of the terms it is summed
    # from; kT more covers H of a distribution rounded to floats: an entry's
    # rounding moves its term p ln p by up to eps·p·(|ln p| + 1)
    energies, temperature, boltzmann, probs = case
    landscape, p = EnergyLandscape(energies, temperature, boltzmann), Distribution(probs)
    probs, kT, bound = p.probs.tolist(), landscape.kT, (len(probs) + 2) * np.finfo(float).eps
    log_z = exact.log_partition(energies, temperature, boltzmann)
    f_p = exact.free_energy(energies, temperature, boltzmann, probs)
    with localcontext(exact.CONTEXT):
        available = f_p + Decimal(temperature) * Decimal(boltzmann) * log_z  # F(π) = -kT log Z
    terms, gibbs_terms = (_terms(energies, kT, probs),
                          _terms(energies, kT, exact.gibbs(energies, temperature, boltzmann)))
    assert (abs(Decimal(log_partition_function(landscape)) - log_z)
            <= bound * max(1.0, abs(float(log_z))))
    assert abs(Decimal(free_energy(landscape, p)) - f_p) <= bound * (terms + kT)
    assert (abs(Decimal(available_free_energy(landscape, p)) - available)
            <= bound * (terms + gibbs_terms + kT))


# -- Gibbs distribution --------------------------------------------------------

def test_gibbs_equal_energies_is_uniform():
    for n in (1, 2, 5, 32):
        pi = gibbs_distribution(EnergyLandscape(np.full(n, 3.7)))
        assert np.allclose(pi.probs, np.full(n, 1.0 / n), atol=1e-15)


def test_gibbs_two_thirds_one_third():
    # oracle: direct two-term evaluation with E = (0, kT log 2) -> weights (1, 1/2)
    landscape = EnergyLandscape([0.0, LOG2])
    pi = gibbs_distribution(landscape)
    assert pi.probs[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert pi.probs[1] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_gibbs_energy_shift_invariance():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        energies = rng.uniform(-10, 10, n)
        t = float(rng.uniform(0.1, 10))
        shift = float(rng.uniform(-100, 100))
        base = gibbs_distribution(EnergyLandscape(energies, temperature=t))
        moved = gibbs_distribution(EnergyLandscape(energies + shift, temperature=t))
        assert np.max(np.abs(base.probs - moved.probs)) <= 1e-13


def test_gibbs_robust_at_a_million_kt():
    landscape = EnergyLandscape(np.array([0.0, 1e6, 5e5, -1e6]))
    pi = gibbs_distribution(landscape)
    assert np.all(np.isfinite(pi.probs))
    assert float(pi.probs.sum()) == pytest.approx(1.0, abs=1e-12)
    assert pi.probs[3] == pytest.approx(1.0, abs=1e-12)


# -- average and free energy ------------------------------------------------------

def test_average_energy_degenerate_and_uniform():
    landscape = EnergyLandscape([0.0, 2.0])
    assert average_energy(landscape, Distribution.degenerate(2, 1)) == 2.0
    assert average_energy(landscape, Distribution.uniform(2)) == 1.0


def test_average_energy_dot_product_oracle():
    landscape = EnergyLandscape([0.0, 4.0])
    assert average_energy(landscape, Distribution([0.75, 0.25])) == 1.0


def test_average_energy_shape_mismatch():
    with pytest.raises(ShapeError):
        average_energy(EnergyLandscape([0.0, 1.0]), Distribution.uniform(3))


def test_free_energy_worked_cases():
    landscape = EnergyLandscape([0.0, 0.0])
    assert free_energy(landscape, Distribution([1.0, 0.0])) == 0.0
    assert free_energy(landscape, Distribution([0.5, 0.5])) == pytest.approx(-LOG2, rel=1e-15)


def test_free_energy_at_gibbs_equals_minus_kt_log_z():
    rng = np.random.default_rng(43)
    for _ in range(100):
        landscape, _ = _random_case(rng, max_states=32)
        f_pi = free_energy(landscape, gibbs_distribution(landscape))
        target = -landscape.kT * log_partition_function(landscape)
        assert abs(f_pi - target) <= 1e-12 * max(1.0, abs(f_pi))


# -- the correspondence check ------------------------------------------------------

def test_check_at_gibbs_gives_zero_available():
    landscape = EnergyLandscape([1.0, -2.0, 0.5], temperature=2.0)
    report = check_szilard_landauer(landscape, gibbs_distribution(landscape))
    assert report.available == 0.0
    assert abs(report.kl_nats.nats) <= 1e-13
    assert report.residual <= 1e-13


def test_check_sharp_bit_against_flat_landscape():
    report = check_szilard_landauer(EnergyLandscape([0.0, 0.0]), Distribution([1.0, 0.0]))
    assert report.available == pytest.approx(LOG2, rel=1e-15)
    assert report.kl_nats.nats == pytest.approx(LOG2, rel=1e-15)
    assert report.residual <= 1e-15


def test_check_random_large_landscape():
    rng = np.random.default_rng(61)
    landscape, p = _random_case(rng, max_states=64)
    report = check_szilard_landauer(landscape, p)
    assert report.residual < 1e-12 * report.scale


def test_check_scale_covers_a_large_gibbs_free_energy():
    # F(p) is about -0.09 but F(gibbs) = -1e6: F(p) - F(gibbs) rounds at the
    # 1e6 scale (one ulp is 1.2e-10), which a scale of max(1, |F(p)|) alone
    # would call a violation
    landscape = EnergyLandscape([-1e6, 0.5, 0.7])
    report = check_szilard_landauer(landscape, Distribution([0.0, 0.5, 0.5]))
    assert report.scale == 1e6
    assert report.passes()


def test_identity_holds_for_both_boltzmann_choices():
    rng = np.random.default_rng(67)
    for kb in (1.0, SI_KB):
        for _ in range(300):
            landscape, p = _random_case(rng, max_states=32, kb=kb)
            report = check_szilard_landauer(landscape, p)
            assert report.residual <= 1e-12 * report.scale
            assert report.available >= 0.0
            proof = abs(report.free_energy_gibbs + landscape.kT * report.log_partition)
            assert proof <= 1e-12 * report.scale


def test_gibbs_minimizes_free_energy():
    rng = np.random.default_rng(71)
    for _ in range(200):
        landscape, p = _random_case(rng, max_states=16)
        assert free_energy(landscape, p) >= free_energy(landscape, gibbs_distribution(landscape))


def test_energy_shift_covariance_of_free_energy():
    rng = np.random.default_rng(73)
    for _ in range(50):
        landscape, p = _random_case(rng, max_states=16)
        shift = float(rng.uniform(-50, 50))
        moved = EnergyLandscape(landscape.energies + shift,
                                temperature=landscape.temperature,
                                boltzmann=landscape.boltzmann)
        delta = free_energy(moved, p) - free_energy(landscape, p)
        assert delta == pytest.approx(shift, rel=1e-12, abs=1e-12)


def test_available_free_energy_worked_values():
    landscape = EnergyLandscape([0.0, 0.0])
    pi = gibbs_distribution(landscape)
    assert available_free_energy(landscape, pi) == 0.0
    assert available_free_energy(landscape, Distribution([1.0, 0.0])) == pytest.approx(LOG2, rel=1e-15)
    rng = np.random.default_rng(79)
    for _ in range(50):
        pi1 = float(rng.uniform(0.05, 0.95))
        # a landscape whose Gibbs distribution is (pi1, 1-pi1)
        skewed = EnergyLandscape([-math.log(pi1), -math.log(1 - pi1)])
        got = available_free_energy(skewed, Distribution([1.0, 0.0]))
        assert got == pytest.approx(math.log(1.0 / pi1), rel=1e-12, abs=1e-13)


def test_report_json_dict_fields():
    report = check_szilard_landauer(EnergyLandscape([0.0, 0.0]), Distribution([1.0, 0.0]))
    payload = report.to_json_dict()
    assert payload["kl"]["bits"] == payload["kl"]["nats"] / LOG2
    assert set(payload) >= {
        "partition_value", "log_partition", "gibbs", "average_energy",
        "free_energy_p", "free_energy_gibbs", "available", "kl", "residual", "scale",
    }


# -- construction guards --------------------------------------------------------------

def test_landscape_rejects_zero_temperature():
    with pytest.raises(DomainError):
        EnergyLandscape([0.0], temperature=0.0)
    with pytest.raises(DomainError):
        EnergyLandscape([0.0], temperature=-1.0)


def test_landscapes_are_equal_by_value():
    landscape = EnergyLandscape([0.0, -1.5], temperature=2.0, boltzmann=SI_KB)
    assert landscape == EnergyLandscape(np.array([0.0, -1.5]), temperature=2.0, boltzmann=SI_KB)
    assert landscape != EnergyLandscape([0.0, -1.5], temperature=2.0)
    assert landscape != EnergyLandscape([0.0, -1.5], temperature=3.0, boltzmann=SI_KB)
    assert landscape != EnergyLandscape([0.0, 1.5], temperature=2.0, boltzmann=SI_KB)
    assert landscape != EnergyLandscape([0.0], temperature=2.0, boltzmann=SI_KB)
    assert landscape != [0.0, -1.5]


def test_landscape_rejects_bad_boltzmann_and_energies():
    with pytest.raises(DomainError):
        EnergyLandscape([0.0], boltzmann=0.0)
    for energies in ([math.inf], [math.nan, 0.0], [0.0, -math.inf]):
        with pytest.raises(DomainError, match="^energies must be finite$"):
            EnergyLandscape(energies)
    with pytest.raises(ShapeError):
        EnergyLandscape([])


# Each overflows one of the quantities the check forms: the energy spread
# (1e308 - -1e308) at T = 1, -E/kT at T = 1e-300, the spread over kT
# (1.2e308 / 0.6) where -E/kT = ±1e308 and the spread itself fit in a float,
# kT log 8 at T = 1e308 (so F of a flat landscape), |E| + kT log 2 where
# neither term overflows alone, and the spread + kT log 2 where |E| + kT log 2
# fits.
@pytest.mark.parametrize("energies, temperature, overflow", [
    ([1e308, -1e308], 1.0, "the energy spread over kT overflows"),
    ([1e300, 1e300], 1e-300, "-E/kT overflows"),
    ([1e300, -1e300], 1e-300, "-E/kT overflows"),
    ([6e307, -6e307], 0.6, "the energy spread over kT overflows"),
    ([0.0] * 8, 1e308, r"max\|E\| \+ kT log 8 overflows"),
    ([1.5e308, 1.5e308], 1e308, r"max\|E\| \+ kT log 2 overflows"),
    ([8e307, -8e307], 4e307, r"the energy spread \+ kT log 2 overflows"),
], ids=["spread", "log-weights", "log-weights-opposite-signs", "spread-over-kT",
        "flat-free-energy", "free-energy", "available"])
def test_landscape_rejects_energies_that_overflow(energies, temperature, overflow):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=overflow):
            EnergyLandscape(energies, temperature=temperature)


@settings(max_examples=300, deadline=None)
@given(energies=st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e300, -1e300, 1e308, -1e308]),
                         min_size=1, max_size=8),
       temperature=st.sampled_from([1e-300, 1.0, 1e300, 1e308]), index=st.integers(0, 7))
@example(energies=[0.0] * 8, temperature=1e308, index=0)  # kT log 8 overflows F(p)
def test_every_landscape_is_rejected_or_checks_cleanly(energies, temperature, index):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            landscape = EnergyLandscape(energies, temperature=temperature)
        except DomainError:
            return
        n = len(energies)
        for p in (Distribution.uniform(n), Distribution.degenerate(n, index % n)):
            assert check_szilard_landauer(landscape, p).passes()


def test_check_shape_mismatch():
    with pytest.raises(ShapeError):
        check_szilard_landauer(EnergyLandscape([0.0, 1.0]), Distribution.uniform(3))


def test_free_energy_matches_definition():  # F(p) = <E>_p - kT H(p)
    landscape = EnergyLandscape([1.0, 3.0], temperature=2.0)
    p = Distribution([0.25, 0.75])
    expected = average_energy(landscape, p) - landscape.kT * shannon_entropy(p).nats
    assert free_energy(landscape, p) == expected


def test_average_and_free_energy_match_the_1d_arithmetic_bitwise():
    # both run the identity check's row kernels on one row, which must give
    # what np.dot and the 1-D entropy sum give, zeros and tiny entries included
    rng = np.random.default_rng(41)
    for n in range(1, 201):
        probs = rng.dirichlet(np.full(n, 0.05))
        probs[rng.random(n) < 0.2] = 0.0
        if probs.sum() == 0.0:
            probs[rng.integers(n)] = 1.0
        p = Distribution(probs / probs.sum())
        landscape = EnergyLandscape(rng.uniform(-10.0, 10.0, n),
                                    temperature=float(rng.uniform(0.1, 10.0)))
        avg = float(np.dot(p.probs, landscape.energies))
        f = avg - landscape.kT * _entropy_1d(p.probs)
        assert np.float64(average_energy(landscape, p)).tobytes() == np.float64(avg).tobytes()
        assert np.float64(free_energy(landscape, p)).tobytes() == np.float64(f).tobytes()
