"""Vectorised quantum kernel: bit-identity with the scalar oracle.

The batched engine's entire value rests on one claim: every vectorised
stage — the stacked interval solve, the batched epoch loop, the
lockstep V/f-grid replay — produces *bit-identical* results to the
plain scalar algorithms in ``tests/reference/oracle.py``.  These tests
pin that claim at each layer: property-based random solve stacks and
random cluster programs, pickled epoch-record streams, whole datagen
chunks, and the solution cache's batched probe/store protocol.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.dataset import DVFSDataset
from repro.datagen.protocol import ProtocolConfig, generate_for_kernel
from repro.gpu.arch import small_test_config, titan_x_config
from repro.gpu.cluster import QROW_WIDTH, ClusterState, quantum_rows_batch
from repro.gpu.interval_model import (ThroughputSolution, SolutionCache,
                                      arch_solve_key_cached,
                                      intern_solve_key, phase_params_row,
                                      phase_solve_key_cached,
                                      solve_throughput,
                                      solve_throughput_batch)
from repro.gpu.kernels import KernelProfile
from repro.gpu.noise import WorkloadNoise
from repro.gpu.phases import Phase, compute_phase, make_mix, memory_phase
from repro.gpu.quantum import run_epoch_batch
from repro.gpu.simulator import GPUSimulator
from repro.parallel import CampaignStats
from repro.rng import stream
from tests.reference import oracle

ARCH = titan_x_config()
F_LEVELS = ARCH.vf_table.frequencies_hz()


@st.composite
def phases(draw):
    """Arbitrary valid phases spanning the physical parameter space."""
    load = draw(st.floats(0.0, 0.35))
    store = draw(st.floats(0.0, 0.12))
    branch = draw(st.floats(0.0, 0.25))
    fp32 = draw(st.floats(0.0, max(0.0, 0.95 - load - store - branch)))
    mix = make_mix(fp32=fp32, load=load, store=store, branch=branch)
    return Phase(
        name="prop",
        instructions=draw(st.integers(1_000, 1_000_000)),
        mix=mix,
        cpi_exec=draw(st.floats(1.0, 6.0)),
        mlp=draw(st.floats(1.0, 8.0)),
        l1_miss_rate=draw(st.floats(0.0, 1.0)),
        l2_miss_rate=draw(st.floats(0.0, 1.0)),
        active_warps=draw(st.floats(1.0, 64.0)),
        divergence=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def solve_stacks(draw):
    """A random (phase, frequency, multipliers) stack for the batch solver."""
    stack = []
    for _ in range(draw(st.integers(1, 8))):
        stack.append((
            draw(phases()),
            draw(st.sampled_from(F_LEVELS)),
            draw(st.floats(0.55, 1.45)),
            draw(st.floats(0.55, 1.45)),
            draw(st.floats(0.55, 1.45)),
        ))
    return stack


@given(solve_stacks())
@settings(max_examples=60, deadline=None)
def test_batch_solver_bit_identical_to_scalar(stack):
    """Every element of a batched solve equals the scalar solver's bits."""
    params = np.stack([phase_params_row(phase) for phase, *_ in stack])
    freq = np.array([s[1] for s in stack])
    wm = np.array([s[2] for s in stack])
    mm = np.array([s[3] for s in stack])
    cm = np.array([s[4] for s in stack])
    batch = solve_throughput_batch(ARCH, params, freq, wm, mm, cm)
    rows = quantum_rows_batch(ARCH, params, batch)
    for j, (phase, f, w, m, c) in enumerate(stack):
        scalar = solve_throughput(ARCH, phase, f, warp_multiplier=w,
                                  miss_multiplier=m, cpi_multiplier=c)
        for field in dataclasses.fields(ThroughputSolution):
            value = getattr(batch, field.name)[j]
            assert value.item() == getattr(scalar, field.name), field.name
        scalar_row = oracle.quantum_row_for(ARCH, phase, scalar)
        assert rows[j].tobytes() == scalar_row.tobytes()


def _kernels():
    return [
        KernelProfile("q.compute", [compute_phase("c", 60_000, warps=16)],
                      iterations=3, jitter=0.05),
        KernelProfile("q.memory",
                      [memory_phase("m", 60_000, warps=40, l1_miss=0.8,
                                    l2_miss=0.7)],
                      iterations=3, jitter=0.05),
    ]


def _run_records(arch, kernels, step, *, epochs=40, seed=7):
    """Step a level-wiggling run and return its pickled record stream."""
    sim = GPUSimulator(arch, kernels, seed=seed)
    num_levels = arch.vf_table.num_levels
    records = []
    for index in range(epochs):
        if sim.finished:
            break
        sim.apply_decision((index // 3) % num_levels)
        records.append(step(sim))
    return pickle.dumps(records)


@pytest.mark.parametrize("use_cache", [True, False])
def test_step_epoch_vectorized_byte_identical(use_cache):
    """The batched epoch engine replays the scalar oracle byte-for-byte,
    with and without the oracle's solve memo."""
    arch = small_test_config(num_clusters=3)
    kernels = _kernels()
    memo = {} if use_cache else None
    vec = _run_records(arch, kernels, lambda sim: sim.step_epoch())
    ser = _run_records(arch, kernels,
                       lambda sim: oracle.step_epoch(sim, memo))
    assert vec == ser


def test_fused_grid_datagen_byte_identical():
    """Lockstep V/f-grid replay == the oracle's serial six-way replay,
    down to the stored bytes.

    Compares pickled breakpoint chunks (against the oracle with and
    without its solve memo) and every array of the packed dataset
    (``np.savez`` archives are not byte-stable — zip timestamps — so
    arrays are compared directly).
    """
    arch = small_test_config(num_clusters=2)
    kernel = KernelProfile("q.grid", [compute_phase("g", 30_000, warps=24)],
                           iterations=60, jitter=0.05)
    cfg = ProtocolConfig(seed=5, max_breakpoints_per_kernel=2)

    fused = generate_for_kernel(kernel, arch, config=cfg)
    serial = oracle.generate_for_kernel(kernel, arch, config=cfg)
    serial_memo = oracle.generate_for_kernel(kernel, arch, config=cfg,
                                             memo={})
    assert len(fused) == 2
    assert pickle.dumps(fused) == pickle.dumps(serial)
    assert pickle.dumps(fused) == pickle.dumps(serial_memo)

    packed_fused = DVFSDataset.from_breakpoints(fused)
    packed_serial = DVFSDataset.from_breakpoints(serial)
    for name in ("counters", "sample_breakpoint", "sample_level",
                 "sample_loss", "sample_instructions", "record_group"):
        a = getattr(packed_fused, name)
        b = getattr(packed_serial, name)
        assert a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# Property: run_epoch_batch == the scalar quantum loop on random programs
# ---------------------------------------------------------------------------

SMALL_ARCH = small_test_config(num_clusters=3)


@st.composite
def small_phases(draw):
    """Valid phases short enough that kernels finish within a few epochs."""
    load = draw(st.floats(0.0, 0.35))
    store = draw(st.floats(0.0, 0.12))
    branch = draw(st.floats(0.0, 0.25))
    mix = make_mix(fp32=draw(st.floats(0.0, 0.2)), load=load, store=store,
                   branch=branch)
    return Phase(
        name="prop",
        instructions=draw(st.integers(500, 60_000)),
        mix=mix,
        cpi_exec=draw(st.floats(1.0, 6.0)),
        mlp=draw(st.floats(1.0, 8.0)),
        l1_miss_rate=draw(st.floats(0.0, 1.0)),
        l2_miss_rate=draw(st.floats(0.0, 1.0)),
        active_warps=draw(st.floats(1.0, 48.0)),
        divergence=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def cluster_programs(draw):
    """Random clusters plus a per-epoch (length, levels) schedule."""
    num_levels = SMALL_ARCH.vf_table.num_levels
    num_clusters = draw(st.integers(1, 3))
    clusters = []
    for cid in range(num_clusters):
        clusters.append((
            draw(st.lists(small_phases(), min_size=1, max_size=3)),
            draw(st.integers(1, 3)),                        # iterations
            draw(st.sampled_from([0.0, 0.05, 0.3])),        # jitter
            draw(st.floats(0.0, 5_000.0)),                  # skew
            draw(st.integers(0, 2 ** 16)),                  # noise seed
        ))
    schedule = draw(st.lists(
        st.tuples(st.floats(1e-6, 40e-6),
                  st.lists(st.integers(0, num_levels - 1),
                           min_size=num_clusters, max_size=num_clusters)),
        min_size=1, max_size=10))
    shared_cache = draw(st.booleans())
    use_memo = draw(st.booleans())
    return clusters, schedule, shared_cache, use_memo


def _build_clusters(specs, shared_cache):
    cache = SolutionCache() if shared_cache else None
    clusters = []
    for cid, (phases, iterations, jitter, skew, seed) in enumerate(specs):
        kernel = KernelProfile(f"prop{cid}", phases, iterations=iterations,
                               jitter=jitter)
        noise = WorkloadNoise(stream(f"prop{cid}", seed), sigma=jitter)
        clusters.append(ClusterState(SMALL_ARCH, kernel, noise,
                                     cluster_id=cid, skew_instructions=skew,
                                     solution_cache=cache))
    return clusters


def _cluster_state(cluster):
    cursor = cluster.cursor
    return (cursor.segment_index, cursor.instructions_done,
            cursor._completed_instructions, cluster._pending_transition_s)


@given(cluster_programs())
@settings(max_examples=60, deadline=None)
def test_run_epoch_batch_matches_oracle(program):
    """Random phase programs, mid-run level switches (with their IVR
    dead time), arbitrary epoch lengths and clusters finishing
    mid-epoch: the batched engine's activity matrix, instruction
    counts, finish flags and written-back cluster state equal the
    scalar oracle's bit for bit, epoch after epoch."""
    specs, schedule, shared_cache, use_memo = program
    batched = _build_clusters(specs, shared_cache)
    scalar = _build_clusters(specs, shared_cache)
    memo = {} if use_memo else None
    for epoch_s, levels in schedule:
        for fast, slow, level in zip(batched, scalar, levels):
            fast.set_level(level)
            slow.set_level(level)
        result = run_epoch_batch(batched, epoch_s)
        activities = [oracle.run_epoch(c, epoch_s, memo) for c in scalar]
        expected = np.stack([a.as_vector() for a in activities])
        assert result.matrix.tobytes() == expected.tobytes()
        assert result.instructions.tolist() == [a.instructions
                                                for a in activities]
        assert result.finished.tolist() == [a.finished for a in activities]
        assert ([_cluster_state(c) for c in batched]
                == [_cluster_state(c) for c in scalar])


def test_datagen_surfaces_batched_cache_counters():
    """The protocol reports eviction and batched hit/miss counters."""
    arch = small_test_config(num_clusters=2)
    stats = CampaignStats()
    cfg = ProtocolConfig(seed=2, max_breakpoints_per_kernel=2)
    generate_for_kernel(_kernels()[0], arch, config=cfg, stats=stats)
    for name in ("solve_cache_hit", "solve_cache_miss",
                 "solve_cache_batch_hit", "solve_cache_batch_miss",
                 "solve_cache_evictions"):
        assert name in stats.counters
    assert stats.counters["solve_cache_batch_miss"] > 0


def _solved_rows(arch, phase, freq):
    params = phase_params_row(phase)[None, :]
    batch = solve_throughput_batch(
        arch, params, np.array([freq]), np.ones(1), np.ones(1), np.ones(1))
    return quantum_rows_batch(arch, params, batch)


def _key(arch, phase, freq, warp_m=1.0):
    return (arch_solve_key_cached(arch), phase_solve_key_cached(phase),
            freq, warp_m, 1.0, 1.0)


def test_cache_batch_probe_store_fills_slots():
    """probe pre-inserts a slot per miss, store fills it in place, and a
    second probe serves the exact row the scalar oracle builds."""
    arch = small_test_config(num_clusters=2)
    phase = compute_phase("slot", 50_000, warps=16)
    freq = arch.vf_table.frequencies_hz()[0]
    cache = SolutionCache()
    key = _key(arch, phase, freq)

    out = np.empty((1, QROW_WIDTH))
    missing = cache.probe_batch([key], out)
    assert [index for index, _ in missing] == [0]
    assert cache.misses == 1 and len(cache) == 1

    cache.store_batch(missing, _solved_rows(arch, phase, freq))

    # A second probe hits without touching the slot contents.
    out2 = np.empty_like(out)
    assert cache.probe_batch([key], out2) == []
    assert cache.hits == 1
    expected = oracle.quantum_row_for(arch, phase,
                                      solve_throughput(arch, phase, freq))
    assert out2[0].tobytes() == expected.tobytes()

    # A slot left unfilled (aborted batch) is re-solved, not served.
    pending = _key(arch, phase, freq, warp_m=1.25)
    cache.probe_batch([pending], np.empty((1, QROW_WIDTH)))
    assert [i for i, _ in cache.probe_batch([pending], out2)] == [0]
    assert cache.misses == 3


def test_cache_eviction_counter():
    """Clear-on-full eviction is counted."""
    arch = small_test_config(num_clusters=2)
    phase = compute_phase("evict", 10_000, warps=8)
    freqs = arch.vf_table.frequencies_hz()
    cache = SolutionCache(max_entries=2)
    out = np.empty((1, QROW_WIDTH))
    for index in range(4):
        cache.probe_batch([_key(arch, phase, freqs[0], 1.0 + index / 16.0)],
                          out)
    assert cache.evictions > 0


def test_intern_solve_key_is_bijective():
    keys = [(1.0, 2.0), (3.0,), (1.0, 2.0)]
    ids = [intern_solve_key(k) for k in keys]
    assert ids[0] == ids[2]
    assert ids[0] != ids[1]
