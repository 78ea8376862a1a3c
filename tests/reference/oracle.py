"""Scalar oracle of the epoch engine and the datagen grid replay.

:func:`repro.gpu.quantum.run_epoch_batch` advances clusters through
prefetched, batched quantum schedules; :func:`repro.datagen.protocol.
collect_breakpoint` replays the V/f grid in lockstep lanes.  Both must
be bit-identical to the plain algorithms below:

* :func:`run_epoch` — one cluster, one quantum at a time: solve the
  interval model with :func:`~repro.gpu.interval_model.solve_throughput`
  at the cursor position, step to the next phase-segment or
  noise-chunk boundary (or the epoch end), accumulate
  :func:`step_vector_for` times the instructions executed;
* :func:`step_epoch` — :func:`run_epoch` on every cluster of a
  simulator, then counters and power exactly as the simulator
  accounts them;
* :func:`collect_breakpoint` / :func:`generate_for_kernel` — the
  paper's serial six-way replay: restore, feature window, scaling
  window, then a tail at the default point until the workload mark,
  one operating point after another.

Campaigns (:func:`repro.evaluation.runner.compare_policies` and fleet
phase 1) co-simulate their tasks in lockstep groups through
:class:`~repro.gpu.fused.FusedCampaignEngine`.  Their reference is each
task alone through :meth:`GPUSimulator.run`:

* :func:`policy_task` — one (policy, kernel) run from a fresh policy
  and a fresh simulator, the unit :func:`compare_policies` maps either
  serially or over a process pool;
* :func:`simulate_jobs` — every job of a fleet phase 1, one at a time.

``memo`` is an optional plain dict memoising ``(solution, step
vector)`` per exact solve input.  Without it every quantum re-solves,
which makes the oracle independent of any caching.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.datagen.protocol import BreakpointSamples, ProtocolConfig
from repro.errors import DatasetError, SimulationError
from repro.gpu.cluster import (A_BUSY_S, A_BW_UTIL_TIME, A_CLASS0, A_CYCLES,
                               A_DRAM_BYTES, A_INSTRUCTIONS, A_ISSUE_SLOTS,
                               A_L1_READ_ACCESS, A_L1_READ_MISS,
                               A_L1_WRITE_ACCESS, A_L1_WRITE_MISS,
                               A_L2_ACCESS, A_L2_MISS, A_MEM_LATENCY,
                               A_STALL_CONTROL, A_STALL_DATA, A_STALL_IDLE,
                               A_STALL_MEM_LOAD, A_STALL_MEM_OTHER,
                               A_STALL_SYNC, A_WARP_INST, NUM_ACTIVITY_SLOTS,
                               QR_BW_UTIL, QR_IPC, QROW_WIDTH, ClusterState,
                               EpochActivity, build_counters_matrix)
from repro.gpu.counters import COUNTER_INDEX, CounterSet
from repro.gpu.interval_model import (ThroughputSolution,
                                      arch_solve_key_cached,
                                      phase_solve_key_cached,
                                      solve_throughput)
from repro.gpu.phases import INSTRUCTION_CLASSES
from repro.core.policy import StaticPolicy
from repro.evaluation.runner import ComparisonResult, comparison_from_outcomes
from repro.gpu.simulator import EpochRecord, GPUSimulator
from repro.parallel import derive_seed, parallel_map
from repro.power.model import PowerModel
from repro.units import us


def step_vector_for(arch, phase, solution: ThroughputSolution) -> np.ndarray:
    """Per-instruction activity contributions of one (phase, solution).

    Multiplying this vector by a quantum's instruction count yields the
    quantum's contribution to every instruction-proportional activity
    slot; the time-proportional slots (busy time, bandwidth-utilisation
    time) are zero here and handled by the epoch loop.
    """
    v = np.zeros(NUM_ACTIVITY_SLOTS, dtype=np.float64)
    cpi = solution.cycles_per_instruction
    v[A_CYCLES] = cpi
    v[A_INSTRUCTIONS] = 1.0
    mix = phase.mix
    for offset, cls in enumerate(INSTRUCTION_CLASSES):
        v[A_CLASS0 + offset] = mix.get(cls, 0.0)
    v[A_ISSUE_SLOTS] = cpi * arch.issue_width
    v[A_STALL_MEM_LOAD] = solution.stall_mem_load
    v[A_STALL_MEM_OTHER] = solution.stall_mem_other
    v[A_STALL_CONTROL] = solution.stall_control
    v[A_STALL_SYNC] = solution.stall_sync
    v[A_STALL_DATA] = solution.stall_data
    v[A_STALL_IDLE] = solution.stall_idle
    loads = phase.load_fraction
    stores = phase.store_fraction
    l1_read_miss = loads * phase.l1_miss_rate
    l1_write_miss = stores * 0.9  # write-through-ish global stores
    l2_access = l1_read_miss + l1_write_miss
    l2_miss = l2_access * phase.l2_miss_rate
    v[A_L1_READ_ACCESS] = loads
    v[A_L1_READ_MISS] = l1_read_miss
    v[A_L1_WRITE_ACCESS] = stores
    v[A_L1_WRITE_MISS] = l1_write_miss
    v[A_L2_ACCESS] = l2_access
    v[A_L2_MISS] = l2_miss
    v[A_DRAM_BYTES] = l2_miss * arch.cache_line_bytes
    v[A_WARP_INST] = phase.active_warps
    v[A_MEM_LATENCY] = solution.mem_latency_cycles
    return v


def quantum_row_for(arch, phase, solution: ThroughputSolution) -> np.ndarray:
    """:func:`step_vector_for` plus the solution's IPC and bandwidth
    utilisation — the scalar twin of ``quantum_rows_batch``."""
    row = np.empty(QROW_WIDTH, dtype=np.float64)
    row[:NUM_ACTIVITY_SLOTS] = step_vector_for(arch, phase, solution)
    row[QR_IPC] = solution.ipc
    row[QR_BW_UTIL] = solution.bandwidth_utilization
    return row


def _solve(arch, phase, frequency_hz, warp_m, miss_m, cpi_m, memo):
    if memo is not None:
        key = (arch_solve_key_cached(arch), phase_solve_key_cached(phase),
               frequency_hz, warp_m, miss_m, cpi_m)
        hit = memo.get(key)
        if hit is not None:
            return hit
    solution = solve_throughput(arch, phase, frequency_hz,
                                warp_multiplier=warp_m,
                                miss_multiplier=miss_m, cpi_multiplier=cpi_m)
    entry = (solution, step_vector_for(arch, phase, solution))
    if memo is not None:
        memo[key] = entry
    return entry


def run_epoch(cluster: ClusterState, epoch_s: float,
              memo: dict | None = None) -> EpochActivity:
    """Advance one cluster by ``epoch_s`` seconds, one quantum at a time.

    Returns the epoch's activity record.  A finished cluster idles:
    time and cycles elapse, nothing executes.
    """
    if epoch_s <= 0:
        raise SimulationError("epoch duration must be positive")
    arch = cluster.arch
    point = arch.vf_table[cluster.level]
    frequency_hz = point.frequency_hz
    acc = np.zeros(NUM_ACTIVITY_SLOTS, dtype=np.float64)
    busy_s = 0.0
    bw_util_time = 0.0

    elapsed = 0.0
    # IVR transition dead time: leakage burns, nothing issues.
    if cluster._pending_transition_s > 0:
        dead = min(cluster._pending_transition_s, epoch_s)
        cluster._pending_transition_s -= dead
        elapsed += dead
        acc[A_CYCLES] += dead * frequency_hz

    cursor = cluster.cursor
    kernel = cursor.kernel
    num_segments = kernel.num_segments
    seg_index = cursor.segment_index
    inst_done = cursor.instructions_done
    completed = cursor._completed_instructions
    noise = cluster.noise
    chunk_insts = noise.chunk_instructions
    phase = kernel.segment(seg_index) if seg_index < num_segments else None

    while elapsed < epoch_s - 1e-15 and seg_index < num_segments:
        position = completed + inst_done
        chunk = int(position // chunk_insts)
        warp_m, miss_m, cpi_m = noise.multipliers(chunk)
        solution, step_vec = _solve(arch, phase, frequency_hz,
                                    warp_m, miss_m, cpi_m, memo)
        to_chunk_end = float((chunk + 1) * chunk_insts) - position
        boundary = min(phase.instructions - inst_done, to_chunk_end)
        time_left = epoch_s - elapsed
        time_to_boundary = solution.time_for_instructions(boundary)
        if time_to_boundary <= time_left:
            step_insts = boundary
            step_time = time_to_boundary
        else:
            step_insts = solution.instructions_in_time(time_left)
            step_time = time_left
        if step_insts <= 0:
            # Throughput too low to make progress in the remaining
            # slice: the rest of the epoch idles.
            break
        # The step never crosses a segment boundary (it is bounded by
        # the remaining segment instructions above).
        inst_done += step_insts
        if inst_done >= phase.instructions - 1e-9:
            completed += phase.instructions
            seg_index += 1
            inst_done = 0.0
            phase = (kernel.segment(seg_index)
                     if seg_index < num_segments else None)
        elapsed += step_time
        acc += step_vec * step_insts
        busy_s += step_time
        bw_util_time += step_time * solution.bandwidth_utilization

    cursor.segment_index = seg_index
    cursor.instructions_done = inst_done
    cursor._completed_instructions = completed

    # Idle tail (kernel finished or no progress possible).
    if elapsed < epoch_s:
        acc[A_CYCLES] += (epoch_s - elapsed) * frequency_hz

    acc[A_BUSY_S] = busy_s
    acc[A_BW_UTIL_TIME] = bw_util_time
    return EpochActivity.from_vector(
        acc, duration_s=epoch_s, frequency_hz=frequency_hz,
        voltage_v=point.voltage_v, finished=seg_index >= num_segments)


def step_epoch(simulator: GPUSimulator,
               memo: dict | None = None) -> EpochRecord:
    """:meth:`GPUSimulator.step_epoch` with clusters stepped by
    :func:`run_epoch`; counters and power are accounted identically."""
    if simulator.finished:
        raise SimulationError("cannot step a finished simulation")
    epoch_s = simulator.epoch_s
    levels = simulator.levels
    activities = [run_epoch(cluster, epoch_s, memo)
                  for cluster in simulator.clusters]
    matrix = np.stack([a.as_vector() for a in activities])
    counters = build_counters_matrix(matrix, simulator.arch)
    power_model = simulator.power_model
    dynamic_w, static_w, energy_j = power_model.cluster_power_batch(
        matrix, np.array([a.duration_s for a in activities]),
        np.array([a.voltage_v for a in activities]))
    counters[:, COUNTER_INDEX["power_per_core"]] = dynamic_w + static_w
    counters[:, COUNTER_INDEX["power_dynamic"]] = dynamic_w
    counters[:, COUNTER_INDEX["power_static"]] = static_w
    counters[:, COUNTER_INDEX["energy_epoch"]] = energy_j
    uncore = power_model.uncore_power(activities, epoch_s, matrix=matrix)
    record = EpochRecord(
        index=simulator.epoch_index,
        start_time_s=simulator.time_s,
        duration_s=epoch_s,
        levels=levels,
        counters=CounterSet.from_vector(counters.mean(axis=0)),
        cluster_counters=[CounterSet.from_vector(row) for row in counters],
        instructions=sum(a.instructions for a in activities),
        cluster_energy_j=float(energy_j.sum()),
        uncore_energy_j=uncore.energy_j,
        all_finished=all(a.finished for a in activities),
        finish_time_s=max((a.busy_s for a in activities), default=0.0),
    )
    simulator.time_s += epoch_s
    simulator.epoch_index += 1
    return record


def _time_to_reach_mark(simulator: GPUSimulator, target: float,
                        epoch_s: float, memo: dict | None) -> float:
    """Run at current levels until the mean-instruction mark, returning
    the elapsed time with sub-epoch (interpolated) resolution."""
    elapsed = 0.0
    epochs = 0
    while not simulator.finished:
        before = simulator.mean_instructions_done()
        if before >= target:
            return elapsed
        step_epoch(simulator, memo)
        epochs += 1
        if epochs > 10_000:
            raise SimulationError("workload mark never reached")
        after = simulator.mean_instructions_done()
        if after >= target:
            progress = after - before
            fraction = (target - before) / progress if progress > 0 else 1.0
            return elapsed + fraction * epoch_s
        elapsed += epoch_s
    return elapsed


def collect_breakpoint(simulator: GPUSimulator, breakpoint_index: int,
                       config: ProtocolConfig,
                       memo: dict | None = None) -> BreakpointSamples:
    """Serial six-way replay of the breakpoint at the current state.

    Leaves the simulator at the end of the reference segment, like
    :func:`repro.datagen.protocol.collect_breakpoint`.
    """
    arch = simulator.arch
    default_level = arch.vf_table.default_level
    snapshot = simulator.snapshot()

    # Reference segment: fixes the workload span and T0.
    simulator.set_all_levels(default_level)
    for _ in range(config.segment_epochs):
        if simulator.finished:
            break
        step_epoch(simulator, memo)
    workload_mark = simulator.mean_instructions_done()
    end_state = simulator.snapshot()

    samples = None
    for level in range(arch.vf_table.num_levels):
        simulator.restore(snapshot)
        simulator.set_all_levels(default_level)
        if simulator.finished:
            raise DatasetError("breakpoint placed after kernel completion")
        feature_record = step_epoch(simulator, memo)  # feature window
        if samples is None:
            samples = BreakpointSamples(
                kernel_name=simulator.kernel.name,
                breakpoint_index=breakpoint_index,
                feature_counters=feature_record.counters.copy(),
                t0_s=0.0,
            )
        simulator.set_all_levels(level)
        if simulator.finished:
            break
        scaling_record = step_epoch(simulator, memo)  # scaling window
        simulator.set_all_levels(default_level)
        tail = _time_to_reach_mark(simulator, workload_mark, config.epoch_s,
                                   memo)
        samples.levels.append(level)
        samples.window_instructions.append(
            scaling_record.instructions / arch.num_clusters)
        samples.tf_s.append(2 * config.epoch_s + tail)

    if samples is None or not samples.levels:
        raise DatasetError("kernel too short for the requested breakpoint")

    # Labels: T0 is the default-level replay's duration.
    samples.t0_s = samples.tf_s[samples.levels.index(default_level)]
    samples.segment_losses = [(tf - samples.t0_s) / samples.t0_s
                              for tf in samples.tf_s]
    samples.losses = [(tf - samples.t0_s) / config.epoch_s
                      for tf in samples.tf_s]

    # Feature-window level augmentation.
    samples.feature_variants = [(default_level, samples.feature_counters)]
    if config.augment_feature_levels:
        for level in range(arch.vf_table.num_levels):
            if level == default_level:
                continue
            simulator.restore(snapshot)
            simulator.set_all_levels(level)
            record = step_epoch(simulator, memo)
            samples.feature_variants.append((level, record.counters.copy()))

    simulator.restore(end_state)
    return samples


def generate_for_kernel(kernel, arch, power_model: PowerModel | None = None,
                        config: ProtocolConfig | None = None,
                        memo: dict | None = None) -> list[BreakpointSamples]:
    """Serial twin of :func:`repro.datagen.protocol.generate_for_kernel`."""
    config = config or ProtocolConfig()
    simulator = GPUSimulator(arch, kernel, power_model or PowerModel(),
                             seed=config.seed, epoch_s=config.epoch_s)
    simulator.set_all_levels(arch.vf_table.default_level)
    breakpoints: list[BreakpointSamples] = []
    margin = config.segment_epochs
    while (len(breakpoints) < config.max_breakpoints_per_kernel
           and not simulator.finished):
        # Probe whether a full segment (plus margin) fits from here.
        probe = simulator.snapshot()
        fits = True
        for _ in range(config.segment_epochs + margin):
            if simulator.finished:
                fits = False
                break
            step_epoch(simulator, memo)
        simulator.restore(probe)
        if not fits:
            break
        breakpoints.append(
            collect_breakpoint(simulator, len(breakpoints), config, memo))
    return breakpoints


def _run_alone(factory, kernel, arch, power_model, seed, epoch_s,
               keep_records):
    """A fresh policy over a fresh simulator; returns the run result and
    the policy's observability counters."""
    policy = factory()
    simulator = GPUSimulator(arch, kernel, power_model, seed=seed,
                             epoch_s=epoch_s)
    result = simulator.run(policy, keep_records=keep_records)
    counters_fn = getattr(policy, "observability_counters", None)
    return result, (counters_fn() if callable(counters_fn) else {})


def policy_task(task: tuple) -> tuple[float, float, int, dict[str, int]]:
    """One (policy, kernel) run alone: ``(time, energy, epochs,
    counters)`` from ``(factory, kernel, arch, power_model, seed,
    epoch_s)``.  Module-level, so a process pool can receive it."""
    result, counters = _run_alone(*task, keep_records=False)
    return result.time_s, result.energy_j, result.epochs, counters


def compare_policies(policy_factories: dict, kernels, arch, preset: float,
                     power_model: PowerModel | None = None, seed: int = 0,
                     epoch_s: float = us(10), workers: int | None = None,
                     stats=None) -> ComparisonResult:
    """Per-task twin of :func:`repro.evaluation.runner.compare_policies`:
    the same kernel-major grid, each run alone via :func:`policy_task`,
    mapped serially or (``workers`` > 1) over a process pool.  Policy
    counters are folded into ``stats``."""
    power_model = power_model or PowerModel()
    names = list(policy_factories)
    factories = ([partial(StaticPolicy, arch.vf_table.default_level)]
                 + [policy_factories[name] for name in names])
    tasks = [(factory, kernel, arch, power_model, seed, epoch_s)
             for kernel in kernels for factory in factories]
    outcomes = parallel_map(policy_task, tasks, workers=workers)
    return comparison_from_outcomes(preset, kernels, names, outcomes, stats)


def simulate_jobs(scheduler, jobs) -> list[tuple]:
    """Per-job twin of ``ClusterScheduler._simulate``: each job alone
    under a fresh controller, from its derived seed; returns
    ``(service_s, energy_j, epochs, mean_level, counters)`` per job."""
    outcomes = []
    for job in jobs:
        result, counters = _run_alone(
            scheduler.factory, job.kernel, scheduler.arch,
            scheduler.power_model,
            derive_seed(scheduler.seed, "fleet-job", job.job_id),
            scheduler.epoch_s, keep_records=True)
        if result.records:
            mean_level = float(np.mean([np.mean(r.levels)
                                        for r in result.records]))
        else:
            mean_level = float(scheduler.arch.vf_table.default_level)
        outcomes.append((result.time_s, result.energy_j, result.epochs,
                         mean_level, counters))
    return outcomes
