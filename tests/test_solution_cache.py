"""Interval-model solution cache: determinism, hits, invalidation.

The tentpole guarantee of the memoised epoch engine is that caching is
*observably free*: every simulated quantity — counter vectors, energy,
instruction counts, datagen labels — is bit-identical to the scalar
oracle re-solving every quantum without any cache.  The cache keys
capture every solver input exactly, so a hit can only ever return the
row the solver would have recomputed.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.datagen.protocol import ProtocolConfig, generate_for_kernel
from repro.gpu.arch import small_test_config
from repro.gpu.cluster import QROW_WIDTH, quantum_rows_batch
from repro.gpu.interval_model import (SolutionCache, arch_solve_key_cached,
                                      phase_params_row,
                                      phase_solve_key_cached,
                                      solve_throughput,
                                      solve_throughput_batch)
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import balanced_phase, compute_phase
from repro.gpu.simulator import GPUSimulator
from repro.parallel import CampaignStats
from tests.reference import oracle

ARCH = small_test_config()
PHASE = balanced_phase("b", 60_000)


def _kernel(jitter=0.08):
    return KernelProfile("cache.k",
                         [balanced_phase("b", 60_000),
                          compute_phase("c", 40_000, warps=16)],
                         iterations=10, jitter=jitter)


def _epoch_stream(step, epochs=8):
    """Forward epochs over several levels, then a snapshot replay.

    The replay re-executes the same workload stretch, which is what
    actually exercises cache hits (a plain forward run with jitter never
    re-solves a position).
    """
    simulator = GPUSimulator(ARCH, _kernel(), seed=3)
    simulator.set_all_levels(ARCH.vf_table.default_level)
    records = []
    snapshot = simulator.snapshot()
    for replay in range(3):
        simulator.restore(snapshot)
        for index in range(epochs):
            # Exercise several operating points, not just the default.
            simulator.set_all_levels(index % ARCH.vf_table.num_levels)
            if simulator.finished:
                break
            records.append(step(simulator))
    return records, simulator


def _lookup(cache, arch, phase, frequency_hz, warp_m, miss_m, cpi_m):
    """One-key batched lookup; solves and stores on a miss."""
    key = (arch_solve_key_cached(arch), phase_solve_key_cached(phase),
           frequency_hz, warp_m, miss_m, cpi_m)
    out = np.empty((1, QROW_WIDTH))
    missing = cache.probe_batch([key], out)
    if missing:
        params = phase_params_row(phase)[None, :]
        batch = solve_throughput_batch(
            arch, params, np.array([frequency_hz]), np.array([warp_m]),
            np.array([miss_m]), np.array([cpi_m]))
        rows = quantum_rows_batch(arch, params, batch)
        cache.store_batch(missing, rows)
        out[0] = rows[0]
    return out[0]


def _scalar_row(arch, phase, frequency_hz, warp_m, miss_m, cpi_m):
    solution = solve_throughput(arch, phase, frequency_hz,
                                warp_multiplier=warp_m,
                                miss_multiplier=miss_m, cpi_multiplier=cpi_m)
    return oracle.quantum_row_for(arch, phase, solution)


# ---------------------------------------------------------------------------
# Bit-identity: cached engine vs the uncached scalar oracle
# ---------------------------------------------------------------------------

def test_epoch_stream_bit_identical_cache_on_off():
    cached, sim = _epoch_stream(lambda simulator: simulator.step_epoch())
    uncached, _ = _epoch_stream(oracle.step_epoch)
    assert sim.solution_cache.hits > 0
    assert len(cached) == len(uncached) > 0
    assert pickle.dumps(cached) == pickle.dumps(uncached)


def test_datagen_bit_identical_cache_on_off():
    config = ProtocolConfig(max_breakpoints_per_kernel=2, seed=7)
    on = generate_for_kernel(_kernel(), ARCH, config=config)
    off = oracle.generate_for_kernel(_kernel(), ARCH, config=config)
    assert len(on) == len(off) > 0
    assert pickle.dumps(on) == pickle.dumps(off)


# ---------------------------------------------------------------------------
# Hit behaviour on the replay protocol
# ---------------------------------------------------------------------------

def test_replay_protocol_hits_dominate():
    stats = CampaignStats()
    config = ProtocolConfig(max_breakpoints_per_kernel=2, seed=7)
    generate_for_kernel(_kernel(), ARCH, config=config, stats=stats)
    hits = stats.counter("solve_cache_hit")
    misses = stats.counter("solve_cache_miss")
    # The 6-point replay re-executes each workload stretch many times
    # over; most solves must come from the cache.
    assert misses > 0
    assert hits > misses
    # The counters flow into the aggregate --stats cache totals.
    assert stats.cache_hits >= hits
    assert "solve_cache_hit" in stats.render()


def test_snapshot_replay_hits_without_jitter():
    # sigma = 0 collapses the noise multipliers to (1, 1, 1): a replayed
    # epoch is served entirely from the cache.
    simulator = GPUSimulator(ARCH, _kernel(jitter=0.0), seed=3)
    simulator.set_all_levels(ARCH.vf_table.default_level)
    simulator.step_epoch()
    cache = simulator.solution_cache
    snapshot = simulator.snapshot()
    first = simulator.step_epoch()
    misses_before = cache.misses
    simulator.restore(snapshot)
    second = simulator.step_epoch()
    assert cache.misses == misses_before
    assert np.array_equal(first.counters.as_vector(),
                          second.counters.as_vector())


# ---------------------------------------------------------------------------
# Key derivation and invalidation
# ---------------------------------------------------------------------------

def test_hit_returns_identical_row():
    cache = SolutionCache()
    args = (ARCH, PHASE, 1.0e9, 1.0, 1.0, 1.0)
    first = _lookup(cache, *args)
    second = _lookup(cache, *args)
    assert cache.hits == 1 and cache.misses == 1
    assert first.tobytes() == second.tobytes()
    assert first.tobytes() == _scalar_row(*args).tobytes()


def test_distinct_inputs_never_alias():
    cache = SolutionCache()
    variants = [
        (ARCH, PHASE, 1.0e9, 1.0, 1.0, 1.0),
        (ARCH, PHASE, 1.2e9, 1.0, 1.0, 1.0),           # frequency
        (ARCH, PHASE, 1.0e9, 1.05, 1.0, 1.0),          # warp multiplier
        (ARCH, PHASE, 1.0e9, 1.0, 0.95, 1.0),          # miss multiplier
        (ARCH, PHASE, 1.0e9, 1.0, 1.0, 1.01),          # cpi multiplier
        (ARCH, compute_phase("c", 40_000, warps=16),   # phase
         1.0e9, 1.0, 1.0, 1.0),
        (replace(ARCH, issue_width=2.0), PHASE,
         1.0e9, 1.0, 1.0, 1.0),                        # architecture
    ]
    rows = [_lookup(cache, *v) for v in variants]
    assert cache.misses == len(variants) and cache.hits == 0
    for variant, row in zip(variants, rows):
        assert row.tobytes() == _scalar_row(*variant).tobytes()


def test_equal_valued_arch_objects_share_entries():
    # Keys derive from the solver-relevant *fields*, not object identity,
    # so a second arch object with identical values hits.
    cache = SolutionCache()
    _lookup(cache, small_test_config(), PHASE, 1.0e9, 1.0, 1.0, 1.0)
    _lookup(cache, small_test_config(), PHASE, 1.0e9, 1.0, 1.0, 1.0)
    assert cache.hits == 1 and cache.misses == 1


def test_eviction_clears_and_counts():
    cache = SolutionCache(max_entries=2)
    for index in range(3):
        _lookup(cache, ARCH, PHASE, 1.0e9 + index * 1e7, 1.0, 1.0, 1.0)
    assert cache.evictions == 2  # both resident entries were flushed
    assert len(cache) == 1  # flushed at capacity, then one fresh entry
    assert cache.misses == 3
    # A re-solve of a flushed key misses again but stays correct.
    row = _lookup(cache, ARCH, PHASE, 1.0e9, 1.0, 1.0, 1.0)
    assert row.tobytes() == _scalar_row(ARCH, PHASE, 1.0e9,
                                        1.0, 1.0, 1.0).tobytes()


def test_invalid_max_entries_rejected():
    from repro.errors import SimulationError
    with pytest.raises(SimulationError):
        SolutionCache(max_entries=0)


def test_hit_rate_accounting():
    cache = SolutionCache()
    assert cache.hit_rate == 0.0
    _lookup(cache, ARCH, PHASE, 1.0e9, 1.0, 1.0, 1.0)
    _lookup(cache, ARCH, PHASE, 1.0e9, 1.0, 1.0, 1.0)
    _lookup(cache, ARCH, PHASE, 1.1e9, 1.0, 1.0, 1.0)
    assert cache.lookups == 3
    assert cache.hit_rate == pytest.approx(1.0 / 3.0)
