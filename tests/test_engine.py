"""Tests for the single-molecule engine work calculator and demon ledgers."""

import math
import re

import numpy as np
import pytest

from thermobit import (
    CycleLedger,
    DomainError,
    EngineConfig,
    MeasurementKind,
    demon_cycle,
    erase_work_bound,
    exact_isothermal_work,
    isothermal_work,
    randomize_work_yield,
)
from thermobit.engine import convergence_table, expected_yield_uninformed, pulley_yield

LOG2 = math.log(2.0)
SI_KB = 1.380649e-23


# -- isothermal work ------------------------------------------------------------

def test_halving_compression_approaches_kt_log2():
    cfg = EngineConfig(steps=10**6)
    work = isothermal_work(cfg, 1.0, 0.5)
    assert abs(work - LOG2) <= 1e-9


def test_no_volume_change_means_no_work():
    for steps in (1, 7, 1000):
        cfg = EngineConfig(steps=steps)
        assert isothermal_work(cfg, 2.5, 2.5) == 0.0


def test_quarter_compression_is_twice_the_halving_work():
    # oracle: additivity over two successive halvings
    cfg = EngineConfig(steps=200_000)
    two_halvings = isothermal_work(cfg, 1.0, 0.5) + isothermal_work(cfg, 0.5, 0.25)
    direct = isothermal_work(cfg, 1.0, 0.25)
    assert direct == pytest.approx(two_halvings, abs=1e-9)
    assert direct == pytest.approx(2 * LOG2, abs=1e-8)


def test_expansion_work_is_negative_and_round_trip_cancels():
    cfg = EngineConfig(steps=100_000)
    compress = isothermal_work(cfg, 1.0, 0.5)
    expand = isothermal_work(cfg, 0.5, 1.0)
    assert expand < 0.0
    assert compress + expand == pytest.approx(0.0, abs=1e-12)


def test_work_scales_with_kt():
    base = EngineConfig(steps=10_000)
    doubled = EngineConfig(temperature=2.0, steps=10_000)
    assert isothermal_work(doubled, 1.0, 0.5) == pytest.approx(
        2 * isothermal_work(base, 1.0, 0.5), rel=1e-14
    )


def test_midpoint_rule_is_second_order():
    for ratio in (2.0, 4.0, 10.0):
        errors = []
        for steps in (2048, 1024, 512, 256):
            cfg = EngineConfig(steps=steps)
            exact = exact_isothermal_work(cfg, 1.0, 1.0 / ratio)
            errors.append(abs(isothermal_work(cfg, 1.0, 1.0 / ratio) - exact))
        for finer, coarser in zip(errors, errors[1:]):
            assert 3.8 <= coarser / finer <= 4.2


def test_isothermal_work_rejects_bad_volumes():
    cfg = EngineConfig()
    with pytest.raises(DomainError):
        isothermal_work(cfg, -1.0, 0.5)
    with pytest.raises(DomainError):
        isothermal_work(cfg, 1.0, 0.0)


def test_convergence_table_halves_steps():
    cfg = EngineConfig(steps=4096)
    rows = convergence_table(cfg, 2.0, levels=4)
    assert [n for n, _, _ in rows] == [4096, 2048, 1024, 512]
    errs = [e for _, _, e in rows]
    assert errs[1] / errs[0] == pytest.approx(4.0, abs=0.2)


# -- bounds ------------------------------------------------------------------------

def test_erase_bound_values():
    assert erase_work_bound(EngineConfig()) == LOG2
    room = EngineConfig(temperature=300.0, boltzmann=SI_KB)
    assert erase_work_bound(room) == pytest.approx(2.87e-21, rel=1e-2)
    assert erase_work_bound(EngineConfig(temperature=2.0)) == 2 * erase_work_bound(EngineConfig())


def test_randomize_yield_mirrors_erase_bound():
    cfg = EngineConfig(temperature=1.7)
    assert randomize_work_yield(cfg) == erase_work_bound(cfg)


def test_erase_bound_matches_isothermal_limit():
    cfg = EngineConfig(steps=10**6)
    assert isothermal_work(cfg, 1.0, 0.5) == pytest.approx(erase_work_bound(cfg), abs=1e-9)


def test_pulley_yield_signs():
    cfg = EngineConfig()
    assert pulley_yield(cfg, 0, 0) == LOG2
    assert pulley_yield(cfg, 1, 1) == LOG2
    assert pulley_yield(cfg, 1, 0) == -LOG2  # weight on the wrong side is lowered
    assert pulley_yield(cfg, 0, 1) == -LOG2


def test_no_information_means_no_expected_yield():
    assert expected_yield_uninformed(EngineConfig()) == 0.0
    assert expected_yield_uninformed(EngineConfig(temperature=300.0, boltzmann=SI_KB)) == 0.0


# -- demon cycles --------------------------------------------------------------------

def test_szilard_copy_cycle_yields_no_free_lunch():
    cfg = EngineConfig()
    ledger = demon_cycle(cfg, MeasurementKind.SZILARD_COPY)
    assert len(ledger.entries) == 2
    assert ledger.entries[0].work == cfg.kT * LOG2
    assert ledger.entries[1].work == -cfg.kT * LOG2
    assert ledger.net_work == 0.0
    assert ledger.net_work >= 0.0
    assert ledger.net_info_nats == 0.0


def test_landauer_copy_cycle_pays_with_the_memory_bit():
    cfg = EngineConfig(temperature=2.0, boltzmann=3.0)
    ledger = demon_cycle(cfg, MeasurementKind.LANDAUER_COPY)
    assert ledger.entries[0].work == 0.0
    assert ledger.net_work == -cfg.kT * LOG2
    assert ledger.net_info_nats == -LOG2
    assert "randomized" in ledger.entries[-1].label


def test_no_measurement_cycle_expects_zero():
    ledger = demon_cycle(EngineConfig(), MeasurementKind.NONE)
    assert ledger.net_work == 0.0
    assert ledger.net_info_nats == 0.0


@pytest.mark.parametrize(
    "kind", [MeasurementKind.SZILARD_COPY, MeasurementKind.LANDAUER_COPY, MeasurementKind.NONE]
)
def test_cycle_work_never_beats_the_information_budget(kind):
    cfg = EngineConfig(temperature=0.5, boltzmann=2.5)
    ledger = demon_cycle(cfg, kind)
    assert ledger.net_work - cfg.kT * ledger.net_info_nats >= 0.0
    assert ledger.net_work - cfg.kT * ledger.net_info_nats == 0.0  # ideal bounds are tight


def test_cycle_ledger_totals_match_entries():
    ledger = demon_cycle(EngineConfig(), MeasurementKind.LANDAUER_COPY)
    assert ledger.net_work == math.fsum(e.work for e in ledger.entries)
    assert ledger.net_info_nats == math.fsum(e.info_delta_nats for e in ledger.entries)
    rebuilt = CycleLedger.from_entries(list(ledger.entries))
    assert rebuilt.net_work == ledger.net_work


def test_cycle_json_dict():
    payload = demon_cycle(EngineConfig(), MeasurementKind.SZILARD_COPY).to_json_dict()
    assert payload["net_work"] == 0.0
    assert payload["net_info"] == {"nats": 0.0, "bits": 0.0}
    assert len(payload["entries"]) == 2
    assert payload["entries"][0]["info_delta"]["bits"] == 1.0


# -- config validation ------------------------------------------------------------------

def test_engine_config_validation():
    with pytest.raises(DomainError):
        EngineConfig(temperature=0.0)
    with pytest.raises(DomainError):
        EngineConfig(steps=0)
    with pytest.raises(DomainError):
        EngineConfig(steps=1.5)


def test_engine_config_takes_any_integral_step_count():
    cfg = EngineConfig(steps=np.int64(10))
    assert cfg.steps == 10 and type(cfg.steps) is int
    assert isothermal_work(cfg, 1.0, 0.5) == isothermal_work(EngineConfig(steps=10), 1.0, 0.5)
    for steps in (10.0, np.float64(10.0), np.int64(0), -3, "10"):
        with pytest.raises(DomainError, match="^steps must be an integer of at least 1, got "):
            EngineConfig(steps=steps)


@pytest.mark.parametrize("call, message", [
    (lambda: pulley_yield(EngineConfig(), 2, 0), "bit_value and pulley_side must be 0 or 1"),
    (lambda: demon_cycle(EngineConfig(), "szilard"), "unknown measurement kind 'szilard'"),
    (lambda: exact_isothermal_work(EngineConfig(temperature=1e306), 1.0, 1e-300),
     "the work at kT = 1e+306 is beyond the float range"),
], ids=["pulley", "measurement", "work-overflow"])
def test_engine_rejects_arguments_out_of_its_domain(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
