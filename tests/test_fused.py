"""Fused campaign engine: bit-identity, masking, campaign context, resume.

The fused engine's contract is *byte*-identity with running each task
alone through ``GPUSimulator.run`` (the per-task reference in
``tests/reference/oracle.py``) — every test here compares pickled
record streams or exported JSON, not approximate metrics.  Coverage
spans the engine itself (lockstep records, early-finish masking,
mid-campaign pickling), every Fig. 4 and fleet policy kind (batched
SSMDVFS inference, solo heuristic/guarded/faulty decisions), how the
campaign context reaches the groups, and the two campaign layers that
run through the engine (evaluation grids with their checkpoints, fleet
phase 1).
"""

import functools
import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.baselines.flemma import FLEMMAPolicy
from repro.baselines.governor import UtilizationGovernor
from repro.baselines.pcstall import PCSTALLPolicy
from repro.cli import PAPER_FEATURES
from repro.core.combined import SSMDVFSModel
from repro.core.controller import SSMDVFSController
from repro.core.policy import ModelOraclePolicy, StaticPolicy
from repro.datagen.features import FeatureExtractor, FeatureScaler
from repro.errors import SimulationError
from repro.evaluation.cache import cached_comparison, comparison_cache_key
from repro.evaluation.runner import compare_policies
from repro.faults import build_faulty_policy, config_for_mode
from repro.fleet import (ClusterScheduler, TraceConfig, build_trace,
                         policy_factory)
from repro.gpu.arch import small_test_config
from repro.gpu.fused import (GROUP_TAG, GROUP_WIDTH, FusedCampaignEngine,
                             fuse_groups, run_fused)
from repro.gpu.interval_model import SolutionCache
from repro.gpu.kernels import KernelProfile
from repro.gpu.phases import balanced_phase, compute_phase, memory_phase
from repro.gpu.simulator import GPUSimulator
from repro.nn.mlp import MLP
from repro.parallel import CampaignCheckpoint, CampaignStats
from tests.reference import oracle


def _kernels():
    return [
        KernelProfile("f.compute", [compute_phase("c", 60_000, warps=16)],
                      iterations=2, jitter=0.05),
        KernelProfile("f.memory",
                      [memory_phase("m", 60_000, warps=40, l1_miss=0.8,
                                    l2_miss=0.7)],
                      iterations=2, jitter=0.05),
    ]


def _short_kernel():
    return KernelProfile("f.short", [balanced_phase("b", 30_000)],
                         iterations=1, jitter=0.04)


def _synth_model(num_levels, hidden=16, seed=5):
    rng = np.random.default_rng(seed)
    extractor = FeatureExtractor(PAPER_FEATURES, issue_width=4.0)
    width = extractor.width + 1
    scaler = FeatureScaler().fit(rng.uniform(0.0, 50.0, size=(256, width)))
    return SSMDVFSModel(
        decision_model=MLP([width, hidden, num_levels], rng=rng),
        calibrator_model=MLP([width, hidden, 1], rng=rng),
        feature_names=PAPER_FEATURES, issue_width=4.0,
        num_levels=num_levels,
        decision_scaler=scaler, calibrator_scaler=scaler,
    )


@pytest.fixture(scope="module")
def arch():
    return small_test_config(num_clusters=2)


@pytest.fixture(scope="module")
def model(arch):
    return _synth_model(len(arch.vf_table))


def _policies(arch, model):
    """One policy of each decision style (batched, heuristic, static)."""
    return {
        "static": lambda: StaticPolicy(arch.vf_table.default_level),
        "pcstall": lambda: PCSTALLPolicy(0.10),
        "flemma": lambda: FLEMMAPolicy(0.10),
        "ssmdvfs": lambda: SSMDVFSController(model, 0.10),
    }


def _serial_result(arch, kernel, policy, seed):
    simulator = GPUSimulator(arch, kernel, seed=seed)
    return simulator.run(policy, keep_records=True)


def _result_bytes(result):
    return pickle.dumps((result.policy_name, result.kernel_name,
                         result.epochs, result.account.energy_j,
                         result.account.time_s, result.records))


# ---------------------------------------------------------------------------
# Engine bit-identity
# ---------------------------------------------------------------------------

def test_fused_records_bit_identical_per_policy(arch, model):
    """Every policy style replays byte-identically through the engine."""
    kernels = _kernels()
    seeds = (1, 9)
    for name, factory in _policies(arch, model).items():
        entries = []
        expected = []
        for kernel in kernels:
            for seed in seeds:
                expected.append(_result_bytes(
                    _serial_result(arch, kernel, factory(), seed)))
                entries.append((len(entries),
                                GPUSimulator(arch, kernel, seed=seed),
                                factory()))
        results = run_fused(entries, keep_records=True)
        fused = [_result_bytes(r) for r in results]
        assert fused == expected, f"policy {name!r} diverged when fused"


def test_fused_mixed_policy_group_bit_identical(arch, model):
    """A heterogeneous group (all styles co-simulated) stays identical."""
    kernel = _kernels()[0]
    factories = list(_policies(arch, model).values())
    expected = [_result_bytes(_serial_result(arch, kernel, f(), 3))
                for f in factories]
    entries = [(i, GPUSimulator(arch, kernel, seed=3), f())
               for i, f in enumerate(factories)]
    counters: dict = {}
    results = run_fused(entries, stats_counters=counters)
    assert [_result_bytes(r) for r in results] == expected
    assert counters["fused_tasks"] == len(factories)
    assert counters["fused_quanta"] > 0


def test_fused_faulty_and_guarded_bit_identical(arch, model):
    """Faulty/guarded wrappers fall back to solo decisions, identically."""
    kernel = _kernels()[1]
    config = config_for_mode("dropout", 0.3, seed=2)
    factory = functools.partial(build_faulty_policy,
                                functools.partial(SSMDVFSController,
                                                  model, 0.10),
                                config)
    expected = _result_bytes(_serial_result(arch, kernel, factory(), 4))
    counters: dict = {}
    results = run_fused([(0, GPUSimulator(arch, kernel, seed=4), factory()),
                         (1, GPUSimulator(arch, kernel, seed=5), factory())],
                        stats_counters=counters)
    assert _result_bytes(results[0]) == expected
    # Wrapped policies have no fused hooks: every decision is solo.
    assert counters["fused_solo_decisions"] > 0
    assert counters.get("fused_inference_groups", 0) == 0


def test_fused_shared_solution_and_noise_caches_identical(arch, model):
    """Cross-task solve/noise sharing changes wall-clock, never bits."""
    kernel = _kernels()[0]
    factory = _policies(arch, model)["ssmdvfs"]
    expected = [_result_bytes(_serial_result(arch, kernel, factory(), 7))
                for _ in range(3)]
    shared_cache = SolutionCache()
    noise_cache: dict = {}
    entries = [(i, GPUSimulator(arch, kernel, seed=7,
                                solution_cache=shared_cache,
                                noise_cache=noise_cache), factory())
               for i in range(3)]
    results = run_fused(entries)
    assert [_result_bytes(r) for r in results] == expected
    assert shared_cache.hits > 0
    # 3 same-seed tasks x 2 clusters share 2 noise objects, not 6.
    assert len(noise_cache) == arch.num_clusters


def test_noise_cache_keyed_by_seed(arch):
    """Different seeds never share noise tracks."""
    kernel = _kernels()[0]
    cache: dict = {}
    GPUSimulator(arch, kernel, seed=1, noise_cache=cache)
    GPUSimulator(arch, kernel, seed=2, noise_cache=cache)
    assert len(cache) == 2 * arch.num_clusters


# ---------------------------------------------------------------------------
# Early-finish masking and engine validation
# ---------------------------------------------------------------------------

def test_early_finish_masking(arch, model):
    """Short tasks retire early and stay byte-identical; long ones run on."""
    short, long = _short_kernel(), _kernels()[0]
    factory = _policies(arch, model)["ssmdvfs"]
    expected_short = _result_bytes(_serial_result(arch, short, factory(), 2))
    expected_long = _result_bytes(_serial_result(arch, long, factory(), 2))
    counters: dict = {}
    results = run_fused([(0, GPUSimulator(arch, short, seed=2), factory()),
                         (1, GPUSimulator(arch, long, seed=2), factory())],
                        stats_counters=counters)
    assert _result_bytes(results[0]) == expected_short
    assert _result_bytes(results[1]) == expected_long
    # The short task was masked out of late quanta: the engine ran
    # fewer task-epochs than quanta x tasks.
    assert counters["fused_task_epochs"] < counters["fused_quanta"] * 2


def test_engine_rejects_mismatched_tasks(arch):
    kernel = _kernels()[0]
    engine = FusedCampaignEngine()
    engine.add_task(0, GPUSimulator(arch, kernel, seed=1), StaticPolicy(0))
    with pytest.raises(SimulationError):
        engine.add_task(1, GPUSimulator(arch, kernel, seed=1,
                                        epoch_s=20e-6), StaticPolicy(0))
    other_arch = small_test_config(num_clusters=4)
    with pytest.raises(SimulationError):
        engine.add_task(2, GPUSimulator(other_arch, kernel, seed=1),
                        StaticPolicy(0))


def test_fuse_groups_shapes():
    assert fuse_groups([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
    assert fuse_groups([], 4) == []
    with pytest.raises(SimulationError):
        fuse_groups([1], 0)


# ---------------------------------------------------------------------------
# Mid-campaign pickling (the checkpoint primitive)
# ---------------------------------------------------------------------------

def test_engine_pickles_mid_campaign_and_resumes_identically(arch, model):
    kernel = _kernels()[0]
    factory = _policies(arch, model)["ssmdvfs"]
    reference = _result_bytes(_serial_result(arch, kernel, factory(), 6))

    engine = FusedCampaignEngine()
    engine.add_task(0, GPUSimulator(arch, kernel, seed=6), factory(),
                    keep_records=True)
    engine._started = True
    engine.tasks[0].policy.reset(engine.tasks[0].simulator)
    for _ in range(3):  # pause mid-campaign
        engine.step_quantum()
    resumed = pickle.loads(pickle.dumps(engine))
    while any(not t.done for t in resumed.tasks):
        resumed.step_quantum()
    assert _result_bytes(resumed.tasks[0].result) == reference


# ---------------------------------------------------------------------------
# Campaign layers: evaluation grid and fleet phase 1 vs each task alone
# ---------------------------------------------------------------------------

def _grid_payload(result):
    return json.dumps(result.to_payload())


#: Every Fig. 4 and fleet policy kind, as a picklable factory per preset.
_POLICY_KINDS = {
    "baseline": lambda arch, model, preset: functools.partial(
        StaticPolicy, arch.vf_table.default_level),
    "pcstall": lambda arch, model, preset: functools.partial(
        PCSTALLPolicy, preset),
    "flemma": lambda arch, model, preset: functools.partial(
        FLEMMAPolicy, preset, seed=1),
    "oracle": lambda arch, model, preset: functools.partial(
        ModelOraclePolicy, preset),
    "governor": lambda arch, model, preset: UtilizationGovernor,
    "ssmdvfs": lambda arch, model, preset: functools.partial(
        SSMDVFSController, model, preset),
    "ssmdvfs-nocal": lambda arch, model, preset: functools.partial(
        SSMDVFSController, model, preset, use_calibrator=False),
    "ssmdvfs-chipwide": lambda arch, model, preset: policy_factory(
        "ssmdvfs-chipwide", preset=preset, model=model),
    "ssmdvfs-guarded": lambda arch, model, preset: policy_factory(
        "ssmdvfs-guarded", preset=preset, model=model),
    "faulty": lambda arch, model, preset: functools.partial(
        build_faulty_policy,
        functools.partial(SSMDVFSController, model, preset),
        config_for_mode("dropout", 0.3, seed=2)),
}

#: Three presets x three kernels, plus the baseline: 12 runs, so the
#: grid fills one group of GROUP_WIDTH and leaves a partial last group.
_GRID_PRESETS = (0.05, 0.10, 0.20)


def _grid_kernels():
    return _kernels() + [_short_kernel()]


def _policy_counters(stats):
    return {name: value for name, value in stats.counters.items()
            if name.startswith(("fault_", "guard_"))
            or name == "calibration_anomalies"}


@pytest.mark.parametrize("kind", sorted(_POLICY_KINDS))
def test_compare_policies_matches_oracle(arch, model, kind):
    """Every policy kind's grid equals each run alone, byte for byte,
    across a full group and a partial last group."""
    factories = {f"{kind}-{preset:g}": _POLICY_KINDS[kind](arch, model,
                                                           preset)
                 for preset in _GRID_PRESETS}
    kernels = _grid_kernels()
    tasks = (len(factories) + 1) * len(kernels)
    assert tasks % GROUP_WIDTH and tasks > GROUP_WIDTH
    stats = CampaignStats()
    grouped = compare_policies(factories, kernels, arch, preset=0.10,
                               seed=1, stats=stats)
    alone_stats = CampaignStats()
    alone = oracle.compare_policies(factories, kernels, arch, preset=0.10,
                                    seed=1, stats=alone_stats)
    assert _grid_payload(grouped) == _grid_payload(alone)
    assert _policy_counters(stats) == _policy_counters(alone_stats)
    if kind in ("ssmdvfs-guarded", "faulty"):
        assert _policy_counters(stats)
    assert stats.counter("fused_tasks") == tasks
    assert stats.counter("fused_groups") == -(-tasks // GROUP_WIDTH)
    assert stats.counter("fused_noise_shared") > 0
    if kind in ("ssmdvfs", "ssmdvfs-nocal"):
        # Same-model per-cluster controllers share one forward pass per
        # quantum; every other kind decides solo.
        assert stats.counter("fused_inference_groups") > 0
    else:
        assert stats.counter("fused_inference_groups") == 0
        assert stats.counter("fused_solo_decisions") > 0


def test_compare_policies_lambda_factories_at_workers_2(arch, model):
    """Unpicklable factories cannot reach a pool worker: the groups
    carry the live context and run in-process, matching the oracle."""
    factories = {
        "ssmdvfs": lambda: SSMDVFSController(model, 0.10),
        "pcstall": lambda: PCSTALLPolicy(0.10),
        "flemma": lambda: FLEMMAPolicy(0.10),
    }
    kernels = _grid_kernels()
    stats = CampaignStats()
    grouped = compare_policies(factories, kernels, arch, preset=0.10,
                               seed=3, workers=2, stats=stats)
    alone = oracle.compare_policies(factories, kernels, arch, preset=0.10,
                                    seed=3)
    assert _grid_payload(grouped) == _grid_payload(alone)
    assert stats.counter("fused_tasks") == 4 * len(kernels)
    # The probe of fn and tasks sends the campaign straight to the
    # serial pass: no pooled attempt fails, retries or is quarantined.
    assert (stats.counter("campaign_task_errors")
            == stats.counter("campaign_retries")
            == stats.counter("campaign_quarantined") == 0)
    assert stats.counter("parallel_fallbacks") == 1


class _RecordingFactory:
    """Picklable SSMDVFS factory that records which object built each
    policy (``built_by`` is per process, so only in-process calls land
    in the caller's list)."""

    built_by: list = []

    def __init__(self, model, preset):
        self.model = model
        self.preset = preset

    def __call__(self):
        _RecordingFactory.built_by.append(id(self))
        return SSMDVFSController(self.model, self.preset)


def _model_digest(model):
    digest = hashlib.sha256()
    for mlp in (model.decision_model, model.calibrator_model):
        for layer in mlp.layers:
            for array in (layer.weights, layer.bias, layer.mask):
                digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def test_serial_campaigns_run_on_the_callers_factories(arch, model):
    """At workers=1 the groups call the caller's own factory objects —
    no pickled private copy of the context."""
    factory = _RecordingFactory(model, 0.10)
    _RecordingFactory.built_by.clear()
    kernels = _grid_kernels()
    compare_policies({"ssmdvfs": factory}, kernels, arch, preset=0.10,
                     seed=1, workers=1)
    assert _RecordingFactory.built_by == [id(factory)] * len(kernels)

    _RecordingFactory.built_by.clear()
    jobs = build_trace(arch, TraceConfig(trace="steady", jobs=10, nodes=2,
                                         seed=4))
    scheduler = ClusterScheduler(arch, factory, num_nodes=2,
                                 policy_name="ssmdvfs", seed=4, workers=1)
    scheduler._simulate(sorted(jobs, key=lambda j: (j.arrival_s, j.job_id)))
    assert _RecordingFactory.built_by == [id(factory)] * len(jobs)


@pytest.mark.parametrize("workers", [1, 2])
def test_campaigns_never_write_the_callers_model(arch, workers):
    """Neither campaign layer writes the caller's weights, biases or
    masks, serially (live objects) or through the pool (pickled)."""
    model = _synth_model(len(arch.vf_table), seed=11)
    before = _model_digest(model)
    factory = _RecordingFactory(model, 0.10)
    compare_policies({"ssmdvfs": factory}, _grid_kernels(), arch,
                     preset=0.10, seed=1, workers=workers)
    jobs = build_trace(arch, TraceConfig(trace="steady", jobs=10, nodes=2,
                                         seed=4))
    ClusterScheduler(arch, factory, num_nodes=2, policy_name="ssmdvfs",
                     seed=4, workers=workers).run(jobs)
    assert _model_digest(model) == before


def test_cached_comparison_never_resumes_per_task_checkpoint(tmp_path, arch,
                                                             model):
    """A per-run checkpoint under the untagged grid name and key (the
    shape a per-task grid wrote) is never resumed as group results."""
    factories = {"ssmdvfs": functools.partial(SSMDVFSController, model,
                                              0.10)}
    kernels = _grid_kernels()
    key = comparison_cache_key(list(factories), kernels, arch, 0.10, seed=2)
    planted = tmp_path / f"grid-{key}.ckpt"
    # One bogus (time, energy, epochs, counters) outcome per run.
    CampaignCheckpoint(planted, key=key).save(
        {index: (1.0, 1.0, 1, {}) for index in range(2 * len(kernels))})
    stats = CampaignStats()
    result = cached_comparison(tmp_path, factories, kernels, arch, 0.10,
                               seed=2, stats=stats, checkpoint=True)
    alone = oracle.compare_policies(factories, kernels, arch, preset=0.10,
                                    seed=2)
    assert _grid_payload(result) == _grid_payload(alone)
    assert stats.counter("campaign_tasks_resumed") == 0
    # The group checkpoint lives under its own tagged name (and is
    # cleared on completion); the planted file is left alone.
    assert stats.counter("campaign_checkpoint_saves") > 0
    assert not (tmp_path / f"grid-{key}.{GROUP_TAG}.ckpt").exists()
    assert planted.exists()


def test_cached_comparison_resumes_group_checkpoint(tmp_path, arch, model):
    """A run interrupted after its first group resumes from the tagged
    group checkpoint, and the grid is unchanged."""
    def factories(interrupt_after=None):
        calls = []

        def build(preset):
            calls.append(preset)
            if interrupt_after is not None and len(calls) > interrupt_after:
                raise RuntimeError("interrupted")
            return SSMDVFSController(model, preset)
        return {f"ssmdvfs-{preset:g}": functools.partial(build, preset)
                for preset in _GRID_PRESETS}

    kernels = _grid_kernels()
    # The first group holds two kernels' runs: baseline + 3 presets each.
    with pytest.raises(RuntimeError, match="interrupted"):
        cached_comparison(tmp_path, factories(interrupt_after=6), kernels,
                          arch, 0.10, seed=2, checkpoint=True)
    stats = CampaignStats()
    resumed = cached_comparison(tmp_path, factories(), kernels, arch, 0.10,
                                seed=2, stats=stats, checkpoint=True)
    assert stats.counter("campaign_tasks_resumed") == 1
    alone = oracle.compare_policies(factories(), kernels, arch, preset=0.10,
                                    seed=2)
    assert _grid_payload(resumed) == _grid_payload(alone)


def test_fleet_phase1_and_export_match_oracle(tmp_path, arch, model):
    """Fleet phase 1 equals each job alone; so does the exported fleet."""
    trace = build_trace(arch, TraceConfig(trace="steady", jobs=12, nodes=2,
                                          seed=4))
    factory = functools.partial(SSMDVFSController, model, 0.10)

    def scheduler(stats):
        return ClusterScheduler(arch, factory, num_nodes=2,
                                policy_name="ssmdvfs", seed=4, stats=stats)

    jobs = sorted(trace, key=lambda j: (j.arrival_s, j.job_id))
    stats = CampaignStats()
    grouped = scheduler(stats)._simulate(jobs)
    alone = oracle.simulate_jobs(scheduler(CampaignStats()), jobs)
    assert pickle.dumps(grouped) == pickle.dumps(alone)
    assert stats.counter("fused_tasks") == len(jobs)
    assert stats.counter("fused_groups") == 2

    def export(alone_phase1):
        fleet = scheduler(CampaignStats())
        if alone_phase1:
            fleet._simulate = functools.partial(oracle.simulate_jobs, fleet)
        path = tmp_path / f"fleet-{alone_phase1}.json"
        fleet.run(trace, trace_name="fused-test").export_json(path)
        return path.read_bytes()

    assert export(False) == export(True)
