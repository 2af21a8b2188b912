"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here exactly as stated; the randomized
sweeps are seeded and deterministic.
"""

import functools
import math
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np

from thermobit import (
    BitPairState,
    BitState,
    Distribution,
    EnergyLandscape,
    EngineConfig,
    MeasurementKind,
    copy_landauer,
    copy_szilard,
    demon_cycle,
    dsl,
    erase,
    exact_isothermal_work,
    isothermal_work,
    not_op,
    randomize,
    relative_entropy,
    switch,
)
from thermobit.sweeps import (
    DEFAULT_SEED,
    dpi_sweep,
    identity_sweep,
    monotonicity_sweep,
    _draw_landscape,
)
from thermobit.thermo import check_szilard_landauer

import docgen
import exact

LOG2 = math.log(2.0)
DATA = Path(__file__).parent / "data" / "demo.tbit"


def _criterion(number, description, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[criterion {number:2d}] {status}: {description}{suffix}")
    assert condition, f"criterion {number} failed: {description}{suffix}"


@functools.cache
def _subsample():
    """Every 40th instance of the identity sweep, as (landscape, p, F(p), log Z)
    with F(p) and log Z from the exact oracle."""
    cases = []
    for i in range(0, 10_000, 40):
        rng = np.random.default_rng([DEFAULT_SEED, i])
        energies, temperature, probs = _draw_landscape(rng, 64)
        landscape, p = EnergyLandscape(energies, temperature=temperature), Distribution(probs)
        args = landscape.energies.tolist(), landscape.temperature, landscape.boltzmann
        cases.append((landscape, p, exact.free_energy(*args, p.probs.tolist()),
                      exact.log_partition(*args)))
    return cases


def test_criterion_1_szilard_landauer_identity():
    started = time.perf_counter()
    result = identity_sweep(10_000, max_states=64, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - started
    _criterion(
        1,
        "identity residual <= 1e-12*max(1,|F(p)|) on 1e4 random instances, < 5 s",
        result.identity_failures == 0 and elapsed < 5.0,
        f"worst {result.identity_worst:.3e}, {elapsed:.2f} s",
    )
    # exact evaluation of both sides on a subsample: F(p) - F(π), where
    # F(π) = -kT log Z, and kT·D(p‖π)
    for landscape, p, f_p, log_z in _subsample():
        args = landscape.energies.tolist(), landscape.temperature, landscape.boltzmann
        probs = p.probs.tolist()
        with localcontext(exact.CONTEXT):
            kT = Decimal(landscape.temperature) * Decimal(landscape.boltzmann)
            lhs = f_p + kT * log_z
            rhs = kT * exact.relative_entropy(probs, exact.gibbs(*args))
            # the stored p sums to 1 only to its rounding, and then
            # F(p) - F(π) - kT·D(p‖π) = kT log Z (1 - sum p)
            gap = lhs - rhs - kT * log_z * (1 - sum(map(Decimal, probs)))
        scale = max(1.0, abs(float(f_p)))
        assert abs(gap) <= 1e-55 * scale
        tolerance = 1e-12 * scale
        report = check_szilard_landauer(landscape, p)
        assert abs(Decimal(report.available) - lhs) <= 10 * tolerance
        assert abs(Decimal(landscape.kT * report.kl_nats.nats) - rhs) <= 10 * tolerance


def test_criterion_2_proof_step_f_gibbs_is_minus_kt_log_z():
    result = identity_sweep(10_000, max_states=64, seed=DEFAULT_SEED)
    _criterion(
        2,
        "F(gibbs) = -kT log Z to 1e-12*scale on the same sweep",
        result.proof_failures == 0,
        f"worst {result.proof_worst:.3e}",
    )
    # the library's F(π) and -kT log Z against the exact -kT log Z on a subsample
    for landscape, p, f_p, log_z in _subsample():
        report = check_szilard_landauer(landscape, p)
        with localcontext(exact.CONTEXT):
            f_pi = -Decimal(landscape.temperature) * Decimal(landscape.boltzmann) * log_z
        tolerance = 1e-12 * max(1.0, abs(float(f_p)))
        assert abs(Decimal(report.free_energy_gibbs) - f_pi) <= tolerance
        assert abs(Decimal(-landscape.kT * report.log_partition) - f_pi) <= tolerance


def test_criterion_3_gibbs_optimality():
    result = identity_sweep(10_000, max_states=64, seed=DEFAULT_SEED)
    equality_ok = True
    worst_equality = 0.0
    for i in range(200):
        rng = np.random.default_rng([DEFAULT_SEED + 1, i])
        energies, temperature, _ = _draw_landscape(rng, 64)
        landscape = EnergyLandscape(energies, temperature=temperature)
        from thermobit.thermo import gibbs_distribution

        report = check_szilard_landauer(landscape, gibbs_distribution(landscape))
        worst_equality = max(worst_equality, report.residual, abs(report.available))
        if report.residual >= 1e-12 or report.available != 0.0:
            equality_ok = False
    _criterion(
        3,
        "F(p) >= F(gibbs) on the sweep; equality at p = gibbs within 1e-12",
        result.optimality_failures == 0 and equality_ok,
        f"min available {result.min_available:.3e}, equality worst {worst_equality:.3e}",
    )


def test_criterion_4_sharp_bit_information_values():
    sharp = Distribution([1.0, 0.0])
    one_bit = relative_entropy(sharp, Distribution([0.5, 0.5]))
    bitwise = one_bit.nats == LOG2
    rng = np.random.default_rng(DEFAULT_SEED)
    general_ok = True
    for _ in range(100):
        pi1 = float(rng.uniform(0.01, 0.99))
        got = relative_entropy(sharp, Distribution([pi1, 1.0 - pi1])).nats
        expected = math.log(1.0 / pi1)
        if abs(got - expected) > 1e-13 * max(1.0, abs(expected)):
            general_ok = False
    _criterion(
        4,
        "D((1,0)||(1/2,1/2)) = log 2 exactly; D((1,0)||pi) = log(1/pi_1) for 100 random pi",
        bitwise and general_ok,
        f"log2 bitwise: {bitwise}",
    )


def test_criterion_5_decomposition_identity():
    from thermobit import JointDistribution, decompose_information

    worst = 0.0
    for i in range(10_000):
        rng = np.random.default_rng([DEFAULT_SEED + 2, i])
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 9))
        joint = JointDistribution(rng.dirichlet(np.ones(n1 * n2)).reshape(n1, n2))
        pi1 = Distribution(rng.dirichlet(np.ones(n1)))
        pi2 = Distribution(rng.dirichlet(np.ones(n2)))
        parts = decompose_information(joint, pi1, pi2)
        split = parts.part1.nats + parts.part2.nats + parts.correlation.nats
        worst = max(worst, abs(parts.total.nats - split))
    _criterion(
        5,
        "decomposition identity residual <= 1e-12 on 1e4 random joints up to 8x8",
        worst <= 1e-12,
        f"worst {worst:.3e}",
    )


def test_criterion_6_bit_op_ledgers():
    _, erase_ledger = erase(BitState.star())
    _, szilard_ledger = copy_szilard(BitPairState.independent_uniform())
    _, landauer_ledger = copy_landauer(
        BitPairState.from_bits(BitState.star(), BitState.zero())
    )
    _, not_ledger = not_op(BitState.star())
    _, switch_ledger = switch(BitState.zero(), 0, 1)
    _, randomize_ledger = randomize(BitState.zero())
    checks = [
        erase_ledger.delta_h_nats == -LOG2,
        szilard_ledger.delta_h_nats == -LOG2,
        landauer_ledger.delta_h_nats == 0.0,
        not_ledger.delta_h_nats == 0.0,
        switch_ledger.delta_h_nats == 0.0,
        randomize_ledger.delta_h_nats == LOG2,
        erase_ledger.min_energy == LOG2,  # kT = 1
        szilard_ledger.min_energy == LOG2,
        landauer_ledger.min_energy == 0.0,
        not_ledger.min_energy == 0.0,
        switch_ledger.min_energy == 0.0,
        randomize_ledger.min_energy == -LOG2,
    ]
    _criterion(
        6,
        "bit-op ledgers report exact +-log 2 / 0 deltas and kT log 2 / 0 bounds",
        all(checks),
        f"{sum(checks)}/12 exact",
    )


def test_criterion_7_second_law_audit_sweep():
    started = time.perf_counter()
    result = monotonicity_sweep(10_000, max_states=32, steps=100, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - started
    _criterion(
        7,
        "zero monotonicity violations beyond 1e-12 over 1e4 chains x 100 steps, < 60 s",
        result.failures == 0 and elapsed < 60.0,
        f"worst {result.worst_violation:.3e}, non-DB chains {result.non_detailed_balance}, "
        f"{elapsed:.1f} s",
    )
    assert result.non_detailed_balance > 9_000  # the sweep genuinely covers non-DB chains


def test_criterion_8_data_processing_inequality_sweep():
    result = dpi_sweep(10_000, max_states=8, seed=DEFAULT_SEED)
    _criterion(
        8,
        "D(pK||qK) <= D(p||q) + 1e-12 on 1e4 random instances",
        result.failures == 0,
        f"worst excess {result.worst_excess:.3e}",
    )


def test_criterion_9_szilard_work_convergence():
    cfg = EngineConfig(steps=10**6)
    work = isothermal_work(cfg, 1.0, 0.5)
    close = abs(work - LOG2) <= 1e-9
    ratios_ok = True
    observed = []
    for ratio in (2.0, 4.0, 10.0):
        errors = []
        for steps in (2048, 1024, 512, 256):
            sub = EngineConfig(steps=steps)
            want = exact_isothermal_work(sub, 1.0, 1.0 / ratio)
            errors.append(abs(isothermal_work(sub, 1.0, 1.0 / ratio) - want))
        for finer, coarser in zip(errors, errors[1:]):
            growth = coarser / finer
            observed.append(growth)
            if not 3.8 <= growth <= 4.2:
                ratios_ok = False
    _criterion(
        9,
        "midpoint work at N=1e6 within 1e-9 of kT log 2; error grows ~4x when N halves",
        close and ratios_ok,
        f"|error| {abs(work - LOG2):.2e}, growth {min(observed):.3f}..{max(observed):.3f}",
    )


def test_criterion_10_demon_cycle_ledgers():
    cfg = EngineConfig()
    szilard = demon_cycle(cfg, MeasurementKind.SZILARD_COPY)
    landauer = demon_cycle(cfg, MeasurementKind.LANDAUER_COPY)
    checks = [
        szilard.net_work >= 0.0,
        landauer.net_work == -cfg.kT * LOG2,
        landauer.net_info_nats == -LOG2,
        szilard.net_work - cfg.kT * szilard.net_info_nats >= 0.0,
        landauer.net_work - cfg.kT * landauer.net_info_nats >= 0.0,
    ]
    _criterion(
        10,
        "Szilard cycle net work >= 0; Landauer extraction paid by net info = -log 2",
        all(checks),
        f"szilard net {szilard.net_work!r}, landauer net {landauer.net_work!r}",
    )


def test_criterion_11_dsl_round_trip_and_fuzz():
    rng = np.random.default_rng(DEFAULT_SEED + 3)
    round_trip_failures = 0
    for _ in range(1_000):
        doc = docgen.random_document(rng)
        reparsed = dsl.parse(dsl.format_document(doc))
        if not reparsed.ok or reparsed.document != doc:
            round_trip_failures += 1
    crashes = 0
    fuzz_rng = np.random.default_rng(DEFAULT_SEED + 4)
    for _ in range(100_000):
        blob = fuzz_rng.integers(0, 256, size=int(fuzz_rng.integers(0, 64)), dtype=np.uint8)
        try:
            dsl.parse(blob.tobytes().decode("utf-8", errors="replace"))
        except Exception:
            crashes += 1
    _criterion(
        11,
        "parse/print round-trip identity on 1e3 documents; 1e5-input fuzz, zero crashes",
        round_trip_failures == 0 and crashes == 0,
        f"round-trip failures {round_trip_failures}, crashes {crashes}",
    )


def test_criterion_12_cli_determinism():
    args = [
        sys.executable, "-m", "thermobit", "sweep",
        "--instances", "50", "--max-states", "8", "--seed", "3405691582",
        "--format", "json",
    ]
    first = subprocess.run(args, capture_output=True, timeout=300)
    second = subprocess.run(args, capture_output=True, timeout=300)
    check_args = [
        sys.executable, "-m", "thermobit", "check", str(DATA),
        "--dist", "sharp", "--format", "json",
    ]
    check_first = subprocess.run(check_args, capture_output=True, timeout=300)
    check_second = subprocess.run(check_args, capture_output=True, timeout=300)
    identical = (
        first.returncode == 0
        and first.stdout == second.stdout
        and check_first.stdout == check_second.stdout
        and len(first.stdout) > 0
    )
    _criterion(
        12,
        "identical seed and inputs give byte-identical JSON across runs",
        identical,
        f"{len(first.stdout)} bytes compared",
    )


def test_sweep_results_write_their_fields_in_order_as_json():
    for result, name, fields in [
        (identity_sweep(2, 4), "identity", ["identity_failures", "identity_worst",
                                            "proof_failures", "proof_worst",
                                            "optimality_failures", "min_available"]),
        (dpi_sweep(2, 4), "data_processing", ["failures", "worst_excess"]),
        (monotonicity_sweep(2, 4, 5), "second_law",
         ["failures", "worst_violation", "non_detailed_balance"]),
    ]:
        payload = result.to_json_dict()
        assert list(payload) == ["sweep", "instances", *fields]
        assert payload["sweep"] == name
