"""The stacked sweeps give every instance the bits of its own check, and
the numpy facts they rely on for that; no sweep passes without checking an
instance."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermobit import (
    Channel,
    Distribution,
    DomainError,
    EnergyLandscape,
    EngineConfig,
    check_szilard_landauer,
    data_processing_check,
    second_law_audit,
    stationary_distribution,
)
from thermobit import engine, markov, sweeps, thermo

from test_info import _entropy_1d, _kl_nats
from test_markov import _EDGE_OFFSET, _rotation_biased, _summing_to
from stepwise import settled_and_rise


def _rows_with_subnormals(rng, shape):
    """Non-negative entries from 1 down to below the normal range, a fifth
    of them zero."""
    values = rng.random(shape) * 2.0 ** -rng.integers(0, 1075, shape)
    values[rng.random(shape) < 0.2] = 0.0
    return values


# -- numpy facts -----------------------------------------------------------------------

def test_a_one_row_matmul_gives_the_bits_of_np_dot():
    # <E> stays np.dot: a (1, n) @ (n, 1) product, alone or stacked, runs the
    # same dot for n >= 2. For n = 1 np.dot is the one product, with its sign
    # of zero, which the matmul gives as +0.0, so that size multiplies.
    rng = np.random.default_rng(29)
    for n in range(1, 201):
        probs = _rows_with_subnormals(rng, (6, n))
        energies = _rows_with_subnormals(rng, (6, n)) * rng.choice([-1e3, 1e3], (6, n))
        dots = np.array([np.dot(p, e) for p, e in zip(probs, energies)])
        if n == 1:
            assert dots.tobytes() == (probs[:, 0] * energies[:, 0]).tobytes()
        else:
            stacked = np.matmul(probs[:, None], energies[:, :, None])[:, 0, 0]
            assert stacked.tobytes() == dots.tobytes()
            alone = np.matmul(probs[0][None], energies[0][:, None])[0, 0]
            assert alone.tobytes() == dots[0].tobytes()
        assert thermo._average_energies(probs, energies).tobytes() == dots.tobytes()


def test_a_stacked_row_times_matrix_gives_each_row_its_product():
    # the data-processing step forms each pK as a (1, n) @ (n, n) product of a
    # (B, 1, n) @ (B, n, n) stack, which must give each row the bits of p @ K
    rng = np.random.default_rng(31)
    for n in range(1, 201):
        probs = _rows_with_subnormals(rng, (4, n))
        matrices = _rows_with_subnormals(rng, (4, n, n))
        stacked = np.matmul(probs[:, None], matrices)[:, 0]
        for row, p, matrix in zip(stacked, probs, matrices):
            assert row.tobytes() == (p @ matrix).tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_states=st.integers(2, 64))
def test_a_dpi_instance_has_the_bits_of_two_dirichlet_draws_and_then_a_channel(seed, max_states):
    # numpy draws the rows of one Dirichlet call one after another from the
    # generator, so p and q drawn in one call, and K after them, are what two
    # calls and then K give; the DPI goldens rest on that
    rng = np.random.default_rng(seed)
    (p, q), matrix = sweeps._draw_dpi(rng, max_states)
    reference = np.random.default_rng(seed)
    n = int(reference.integers(2, max_states + 1))
    expected = (reference.dirichlet(np.ones(n)), reference.dirichlet(np.ones(n)),
                sweeps._draw_channel(reference, n))
    assert [a.tobytes() for a in (p, q, matrix)] == [a.tobytes() for a in expected]
    assert rng.bit_generator.state == reference.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
def test_a_noisy_rotation_has_the_bits_of_the_rolled_identity_form(seed, n):
    # 0.9 added in place to the rotation's entries of 0.1 * dense, as against
    # 0.9 times a rolled identity plus 0.1 * dense
    noisy = sweeps._draw_channel(np.random.default_rng(seed), n, cycle_bias=True)
    dense = np.random.default_rng(seed).dirichlet(np.ones(n), size=n)
    assert noisy.tobytes() == (0.9 * np.roll(np.eye(n), 1, axis=1) + 0.1 * dense).tobytes()


def _draw_bytes(rng):
    return [np.asarray(rng.integers(2, 65)).tobytes(), rng.uniform(-10.0, 10.0, 5).tobytes(),
            rng.dirichlet(np.ones(3), size=4).tobytes()]


# seeds of one, two, three and four 32-bit words; indices of one and two, the
# last past any sweep's reach, and entropy of six words past SeedSequence's
# pool of four; runs of indices across a hash block and across the 2**32 word
# boundary, each in one call
@pytest.mark.parametrize("seed", [0, 0xC0FFEE, 2**32 - 1, 2**32, 2**64 + 5, 2**100])
def test_instance_generators_have_the_state_and_bits_of_default_rng(seed):
    for indices in ([0, 1023, 1024, 2**32 - 1, 2**32], range(1020, 1030),
                    range(2**32 - 2, 2**32 + 2)):
        for index, rng in zip(indices, sweeps._instance_rngs(seed, indices), strict=True):
            reference = np.random.default_rng([seed, index])
            assert rng.bit_generator.state == reference.bit_generator.state
            assert _draw_bytes(rng) == _draw_bytes(reference)


# -- oracles: each check as it was computed one instance at a time ----------------------

def _identity_oracle(energies, kT, probs):
    """(log Z, <E>, F(p), F(gibbs), available, D, residual, scale) from 1-D
    numpy calls on one instance."""
    a = -energies / kT
    top = float(a.max())
    log_z = top + math.log(float(np.sum(np.exp(a - top))))
    weights = np.exp(a - top)
    gibbs = Distribution(weights / weights.sum())
    avg = float(np.dot(probs, energies))
    f_p = avg - kT * _entropy_1d(probs)
    f_gibbs = float(np.dot(gibbs.probs, energies)) - kT * _entropy_1d(gibbs.probs)
    available = f_p - f_gibbs
    log_pi = a - log_z
    mask = probs > 0.0
    kl = float(np.sum(probs[mask] * (np.log(probs[mask]) - log_pi[mask]))) + 0.0
    scale = max(1.0, abs(f_p), abs(f_gibbs))
    return log_z, avg, f_p, f_gibbs, available, kl, abs(available - kT * kl), scale


def _dpi_oracle(p, q, matrix):
    return (_kl_nats(p, q),
            _kl_nats(Distribution(p @ matrix).probs, Distribution(q @ matrix).probs))


def _with_zeros(rng, probs):
    """probs with about a third of its entries set to 0, renormalised."""
    probs = probs.copy()
    probs[rng.random(len(probs)) < 0.3] = 0.0
    if probs.sum() == 0.0:
        probs[rng.integers(len(probs))] = 1.0
    return probs / probs.sum()


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


# Sizes repeat, so that instances are stacked; they reach past numpy's
# 128-entry pairwise-summation block, and 1, which multiplies for <E>.
_SIZES = st.lists(st.sampled_from([1, 2, 3, 5, 8, 9, 16, 17, 64, 130]), min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(sizes=_SIZES, seed=st.integers(0, 2**32 - 1), zero_share=st.floats(0.0, 1.0))
def test_stacked_identity_checks_give_each_instance_its_own_check(sizes, seed, zero_share):
    # temperatures down to 1e-3 put some Gibbs entries below exp's range, so
    # the Gibbs rows have zeros too
    rng = np.random.default_rng(seed)
    drawn = []
    for n in sizes:
        energies = rng.uniform(-10.0, 10.0, n)
        temperature = float(10.0 ** rng.uniform(-3.0, 1.0))
        probs = rng.dirichlet(np.ones(n))
        if rng.random() < zero_share:
            probs = _with_zeros(rng, probs)
        drawn.append((energies, temperature, probs))
    identity, proof, available = sweeps._identity_checks(drawn)
    for i, (energies, temperature, probs) in enumerate(drawn):
        landscape = EnergyLandscape(energies, temperature=temperature)
        report = check_szilard_landauer(landscape, Distribution(probs))
        proof_rel = abs(report.free_energy_gibbs + landscape.kT * report.log_partition)
        assert _bits(identity[i], proof[i], available[i]) == _bits(
            report.residual / report.scale, proof_rel / report.scale, report.available)
        assert _bits(report.log_partition, report.average_energy, report.free_energy_p,
                     report.free_energy_gibbs, report.available, report.kl_nats.nats,
                     report.residual, report.scale) == _bits(
            *_identity_oracle(landscape.energies, landscape.kT, Distribution(probs).probs))


@settings(max_examples=60, deadline=None)
@given(sizes=_SIZES, seed=st.integers(0, 2**32 - 1), zero_share=st.floats(0.0, 1.0))
def test_stacked_dpi_checks_give_each_instance_its_own_check(sizes, seed, zero_share):
    # zeros in p or q give zeros in pK or qK where K has zero columns
    rng = np.random.default_rng(seed)
    drawn = []
    for n in sizes:
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        matrix = rng.dirichlet(np.ones(n), size=n)
        if rng.random() < zero_share:
            p, q = _with_zeros(rng, p), _with_zeros(rng, q)
            matrix[:, rng.random(n) < 0.3] = 0.0
            matrix[matrix.sum(axis=1) == 0.0, 0] = 1.0
            matrix /= matrix.sum(axis=1, keepdims=True)
        drawn.append((np.array([p, q]), matrix))
    before, after, ok = sweeps._dpi_checks(drawn)
    for i, ((p, q), matrix) in enumerate(drawn):
        p, q, channel = Distribution(p), Distribution(q), Channel(matrix)
        result = data_processing_check(p, q, channel)
        assert _bits(before[i], after[i]) == _bits(result.before, result.after)
        assert ok[i] == result.ok
        assert _bits(result.before, result.after) == _bits(
            *_dpi_oracle(p.probs, q.probs, channel.matrix))


def _identity_reference(instances, max_states, seed):
    """The identity sweep's fields from one public check_szilard_landauer
    per instance, drawn from default_rng([seed, i]) in the sweep's order:
    the size, the energies, the temperature, then p."""
    identity_failures = proof_failures = optimality_failures = 0
    identity_worst = proof_worst = 0.0
    min_available = math.inf
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(2, max_states + 1))
        energies = rng.uniform(-10.0, 10.0, n)
        landscape = EnergyLandscape(energies, temperature=float(rng.uniform(0.1, 10.0)))
        report = check_szilard_landauer(landscape, Distribution(rng.dirichlet(np.ones(n))))
        identity = report.residual / report.scale
        proof = abs(report.free_energy_gibbs + landscape.kT * report.log_partition) / report.scale
        identity_failures += identity > thermo.IDENTITY_TOLERANCE
        proof_failures += proof > thermo.IDENTITY_TOLERANCE
        optimality_failures += report.available < 0.0
        identity_worst, proof_worst = max(identity_worst, identity), max(proof_worst, proof)
        min_available = min(min_available, report.available)
    return sweeps.IdentitySweepResult(instances, identity_failures, identity_worst,
                                      proof_failures, proof_worst, optimality_failures,
                                      min_available)


def _dpi_reference(instances, max_states, seed):
    """The DPI sweep's fields from one public data_processing_check per
    instance, drawn from default_rng([seed, i]) in the sweep's order: the
    size, p, q, then K."""
    failures = 0
    worst = -math.inf
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(2, max_states + 1))
        p, q = Distribution(rng.dirichlet(np.ones(n))), Distribution(rng.dirichlet(np.ones(n)))
        result = data_processing_check(p, q, Channel(rng.dirichlet(np.ones(n), size=n)))
        failures += not result.ok
        worst = max(worst, result.after - result.before)
    return sweeps.DpiSweepResult(instances, failures, worst)


def _field_bits(result):
    return [value.hex() if isinstance(value, float) else value
            for value in result.to_json_dict().values()]


# the goldens in tests/data pin one-word seeds and one chunk; these run three
# chunks each, the last part full, from a seed of three 32-bit words
@pytest.mark.parametrize("sweep, reference", [(sweeps.identity_sweep, _identity_reference),
                                              (sweeps.dpi_sweep, _dpi_reference)])
def test_the_identity_and_dpi_sweeps_match_a_check_per_instance_over_chunks(sweep, reference):
    instances, max_states, seed = 2100, 2, 2**64 + 5
    assert len(list(sweeps._chunks(instances, 2 * max_states + 1))) == 3
    assert len(list(sweeps._chunks(instances, max_states * (max_states + 2)))) == 3
    result = sweep(instances, max_states, seed)
    assert _field_bits(result) == _field_bits(reference(instances, max_states, seed))


def _monotonicity_reference(instances, max_states, steps, seed):
    """(failures, non_detailed_balance, worst_violation) of the monotonicity
    sweep from one public second_law_audit per instance, drawn in the
    sweep's order: the size, the channel, then p0."""
    failures = non_db = 0
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(2, max_states + 1))
        channel = Channel(sweeps._draw_channel(rng, n, i % 5 == 4))
        verdict = second_law_audit(Distribution(rng.dirichlet(np.ones(n))), channel, steps)
        failures += not verdict.monotone
        non_db += not verdict.detailed_balance
        worst = max(worst, verdict.max_violation)
    return failures, non_db, worst


# the goldens in tests/data pin the default parameters only; these reach one
# instance, one step, chains of two states only, stacks of 257 chains and of
# one, stacks yielded full and part full, long runs, sizes past numpy's
# 128-entry pairwise block, and instances past a hash block of the seeding,
# from a seed of three 32-bit words
@pytest.mark.parametrize("instances, max_states, steps, seed",
                         [(1, 2, 1, 0), (7, 3, 7, 5), (257, 2, 200, 3), (130, 64, 20, 11),
                          (40, 32, 100, 9), (200, 8, 5000, 4), (60, 130, 10, 6),
                          (1100, 2, 3, 2**64 + 5)])
def test_the_stacked_monotonicity_sweep_matches_an_audit_per_chain(instances, max_states,
                                                                    steps, seed):
    result = sweeps.monotonicity_sweep(instances, max_states, steps, seed)
    failures, non_db, worst = _monotonicity_reference(instances, max_states, steps, seed)
    assert result.instances == instances
    assert (result.failures, result.non_detailed_balance) == (failures, non_db)
    assert result.worst_violation.hex() == worst.hex()


def _kernel_chain(rng, n, kind, reference, offsets):
    """(p0, K, reference) of one chain, held to the rules Distribution and
    Channel hold them to. K is a dense chain, which settles; a noisy or pure
    rotation, which may not; or a rotation whose rows sum to anywhere
    within 1e-12 of 1, so that its rows' sums stray and are renormalised
    mid-run. The reference is its stationary pi, a random row, or a random
    row with a zero, which p0, then sparse, may keep hitting."""
    if kind == "dense":
        matrix = rng.dirichlet(np.ones(n), size=n)
    elif kind == "rotation":
        matrix = _rotation_biased(rng, n, rng.choice([0.0, rng.uniform(0.0, 0.2)]))
    else:
        matrix = _summing_to(_rotation_biased(rng, n, rng.uniform(0.0, 0.2)), offsets[:n])
    channel = Channel(matrix)
    p0 = _summing_to(rng.dirichlet(np.ones(n))[None], offsets[n:n + 1])[0]
    if reference == "stationary":
        return Distribution(p0).probs, channel.matrix, stationary_distribution(channel).probs
    row = rng.dirichlet(np.ones(n))
    if reference == "zero":
        row[rng.integers(n)] = 0.0
        p0[rng.random(n) < 0.5] = 0.0
        p0[rng.integers(n)] += 1.0
    return Distribution(p0 / p0.sum()).probs, channel.matrix, Distribution(row / row.sum()).probs


@settings(max_examples=60, deadline=None)
@given(chains=st.lists(st.tuples(st.sampled_from([2, 3, 33, 130]),
                                 st.sampled_from(["dense", "rotation", "edge"]),
                                 st.sampled_from(["stationary", "random", "zero"])),
                       min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 300),
       window=st.sampled_from([1, 40, 400, 4000, 10**6]),
       offsets=st.lists(_EDGE_OFFSET, min_size=131, max_size=131))
def test_stacked_steps_give_each_chain_its_own_fixed_point_and_largest_rise(chains, seed, steps,
                                                                            window, offsets):
    # the chains of one size step in one stack; small windows put their
    # boundaries anywhere in a run, down to one step each. The reference runs
    # each chain one Distribution at a time, so it shares no loop with the stack
    rng = np.random.default_rng(seed)
    by_size = {}
    for n, kind, reference in chains:
        by_size.setdefault(n, []).append(_kernel_chain(rng, n, kind, reference, offsets))
    for stack in by_size.values():
        p0s, matrices, references = (np.array(column) for column in zip(*stack))
        rises, settled = markov._largest_rises(p0s, matrices, references, steps, window)
        for i, (p0, matrix, reference) in enumerate(stack):
            fixed_point, rise = settled_and_rise(p0, matrix, steps, reference)
            assert settled[i] == fixed_point
            assert rises[i].hex() == rise.hex()


def test_stepping_a_stack_writes_into_none_of_its_arguments():
    # dense chains settle within about a hundred steps and noisy rotations later,
    # so the stack drops chains between its one-step windows while others run
    rng = np.random.default_rng(11)
    matrices = np.array([sweeps._draw_channel(rng, 4, i % 2 == 1) for i in range(12)])
    p0s = rng.dirichlet(np.ones(4), size=12)
    references = markov._stationary_distributions(matrices)
    given = [array.tobytes() for array in (p0s, matrices, references)]
    _, settled = markov._largest_rises(p0s, matrices, references, 400, 200)
    assert len(set(settled.tolist())) > 2
    assert [array.tobytes() for array in (p0s, matrices, references)] == given


def _traced_peak(sweep, *args):
    gc.collect()  # empties the interpreter's free lists, which tracemalloc counts
    tracemalloc.start()
    try:
        sweep(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_monotonicity_sweep_holds_as_much_whatever_its_instances_and_steps():
    # a stack holds its chains and a window of their rows, and the sweep
    # reuses one stack per size, so the peak grows by a few bytes per
    # instance at most, and not with the steps
    sweep = sweeps.monotonicity_sweep
    sweep(1000, 32, 100)
    base = _traced_peak(sweep, 1000, 32, 100)
    assert _traced_peak(sweep, 4000, 32, 100) <= base + 16 * 3000
    assert abs(_traced_peak(sweep, 1000, 32, 5000) - base) <= 0.05 * base


@pytest.mark.parametrize("sweep", [sweeps.identity_sweep, sweeps.dpi_sweep])
def test_a_chunk_of_two_state_instances_holds_as_much_as_a_chunk_of_chains(sweep):
    # two-state instances are mostly Python objects, not numbers, so it is the
    # cap on a chunk's instances that keeps them within the budget's bytes
    sweep(3 * sweeps._CHUNK, 2)
    assert _traced_peak(sweep, 3 * sweeps._CHUNK, 2) <= sweeps._CHUNK_ENTRIES * 8


@pytest.mark.parametrize("sweep, max_states", [(sweeps.identity_sweep, 64), (sweeps.dpi_sweep, 8)])
def test_a_default_identity_or_dpi_sweep_holds_as_much_as_a_chunk(sweep, max_states):
    # the default 1000 instances are one chunk of every size, numbers and
    # Python objects both, so they too stay within the budget's bytes
    sweep(1000, max_states)
    assert _traced_peak(sweep, 1000, max_states) <= sweeps._CHUNK_ENTRIES * 8


@pytest.mark.parametrize("sweep, draw, kernel, max_states", [
    (sweeps.identity_sweep, sweeps._draw_landscape, "_identity_rows", 64),
    (sweeps.dpi_sweep, sweeps._draw_dpi, "_data_processing_rows", 8),
])
def test_a_default_identity_or_dpi_sweep_checks_each_size_once(sweep, draw, kernel, max_states,
                                                                monkeypatch):
    # 1000 instances are one chunk, so the row kernel runs once per size drawn
    sizes = {len(draw(np.random.default_rng([sweeps.DEFAULT_SEED, i]), max_states)[-1])
             for i in range(1000)}
    checked = []
    rows = getattr(sweeps, kernel)
    monkeypatch.setattr(sweeps, kernel,
                        lambda first, *rest: checked.append(first.shape[1]) or rows(first, *rest))
    sweep(1000, max_states)
    assert sorted(checked) == sorted(sizes)


def test_each_sweep_draws_its_chunks_in_order():
    # the chunks tile the instances in order, however the size bound falls
    for instances, largest in [(1000, 129), (1000, 80), (1000, 1056), (7, 10**9), (0, 5)]:
        chunks = list(sweeps._chunks(instances, largest))
        assert [i for chunk in chunks for i in chunk] == list(range(instances))
        for chunk in chunks:
            assert len(chunk) == 1 or len(chunk) * largest <= sweeps._CHUNK_ENTRIES
            assert len(chunk) <= sweeps._CHUNK


@pytest.mark.parametrize("instances, max_states", [(1000, 32), (257, 2), (60, 130), (1, 2)])
def test_the_monotonicity_sweep_draws_each_instance_once_into_stacks_of_one_size(
        instances, max_states, monkeypatch):
    # each size's instances, in index order, cut into stacks as full as the
    # budget allows, the last one part full; the stacks of one size come in
    # that order, and each row has its instance's own bits
    seed = 7
    expected: dict[int, list] = {}
    for i in range(instances):
        matrix, p0 = sweeps._draw_chain(np.random.default_rng([seed, i]), max_states, i % 5 == 4)
        expected.setdefault(len(p0), []).append((matrix, p0))
    built = []
    instance_rngs = sweeps._instance_rngs

    def counted_rngs(seed, indices):
        for index, rng in zip(indices, instance_rngs(seed, indices), strict=True):
            built.append(index)
            yield rng

    monkeypatch.setattr(sweeps, "_instance_rngs", counted_rngs)
    stacks: dict[int, list] = {}
    for matrices, p0s in sweeps._chain_stacks(instances, max_states, seed):
        # copies, as a stack's arrays are filled again once the next is asked for
        stacks.setdefault(p0s.shape[1], []).append((matrices.copy(), p0s.copy()))
    assert sorted(built) == list(range(instances))
    assert stacks.keys() == expected.keys()
    for n, chains in expected.items():
        size = max(1, min(sweeps._CHUNK, sweeps._STACK_ENTRIES // (n * n)))
        parts = [chains[start:start + size] for start in range(0, len(chains), size)]
        assert len(stacks[n]) == len(parts)
        for (matrices, p0s), part in zip(stacks[n], parts):
            assert matrices.shape == (len(part), n, n) and p0s.shape == (len(part), n)
            assert matrices.tobytes() == b"".join(matrix.tobytes() for matrix, _ in part)
            assert p0s.tobytes() == b"".join(p0.tobytes() for _, p0 in part)


@pytest.mark.parametrize("run, message", [
    pytest.param(lambda: sweeps.identity_sweep(0),
                 "instances must be an integer of at least 1, got 0", id="identity_sweep(0)"),
    pytest.param(lambda: sweeps.identity_sweep(-3),
                 "instances must be an integer of at least 1, got -3", id="identity_sweep(-3)"),
    pytest.param(lambda: sweeps.dpi_sweep(0),
                 "instances must be an integer of at least 1, got 0", id="dpi_sweep(0)"),
    pytest.param(lambda: sweeps.monotonicity_sweep(5, steps=0),
                 "steps must be an integer of at least 1, got 0", id="monotonicity_sweep(steps=0)"),
    pytest.param(lambda: sweeps.identity_sweep(3, max_states=1),
                 "max_states must be an integer of at least 2, got 1", id="max_states=1"),
    pytest.param(lambda: engine.convergence_table(EngineConfig(), 2.0, levels=0),
                 "levels must be an integer of at least 1, got 0", id="levels=0"),
    # numpy draws each size as an int64 below max_states + 1
    *(pytest.param(lambda sweep=sweep: sweep(1, max_states=2**70),
                   f"max_states must be at most {2**63 - 1}, got {2**70}",
                   id=f"{sweep.__name__}(max_states=2**70)")
      for sweep in (sweeps.identity_sweep, sweeps.dpi_sweep, sweeps.monotonicity_sweep)),
    pytest.param(lambda: sweeps.identity_sweep(1, seed=-1),
                 "seed must be an integer of at least 0, got -1", id="seed=-1"),
    pytest.param(lambda: sweeps.dpi_sweep(1, seed=2.5),
                 "seed must be an integer of at least 0, got 2.5", id="seed=2.5"),
    pytest.param(lambda: sweeps.monotonicity_sweep(1, seed="3"),
                 "seed must be an integer of at least 0, got '3'", id="seed='3'"),
])
def test_a_sweep_or_table_that_would_check_nothing_is_refused(run, message):
    with pytest.raises(DomainError) as exc:
        run()
    assert str(exc.value) == message


@pytest.mark.parametrize("sweep", [sweeps.identity_sweep, sweeps.dpi_sweep,
                                   sweeps.monotonicity_sweep])
def test_a_sweep_of_more_bytes_than_numpy_can_count_is_a_memory_error(sweep):
    # the identity and DPI sweeps' first size at the default seed, and the
    # monotonicity sweep's rows at max_states, are more bytes than an intp
    # counts, so numpy refuses them before it allocates anything
    size = int(np.random.default_rng([sweeps.DEFAULT_SEED, 0]).integers(2, 2**62 + 1))
    assert 8 * size > np.iinfo(np.intp).max
    with pytest.raises(MemoryError, match="^Unable to allocate "):
        sweep(1, max_states=2**62)
