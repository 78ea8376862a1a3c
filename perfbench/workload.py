"""One workload process of the benchmark (always a fresh interpreter).

Usage (normally spawned by ``run.py``)::

    python3 perfbench/workload.py setup <spec.json>
    python3 perfbench/workload.py body <spec.json>

``setup`` imports the program and builds the workload's fixtures (for
``serve-online`` and ``fleet-pool`` a trained pair, saved under the
spec's ``fixture`` directory), then prints ``READY <json>``.  ``body``
loads the fixtures, runs the timed body once and prints ``RESULT
<json>``: timings, modelled results, output digests and, when the spec
asks for tracing, the per-layer summary.

The program is driven through its public Python API with scenario
arguments only (arch, kernels, presets, seed, horizon, nodes/jobs and
workers); no engine-selection flag is ever passed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: Scenario sizes: ``full`` is the measured benchmark, ``tiny`` the
#: self-test (same code paths, seconds instead of tens of seconds).
SIZES = {
    "paper-titan": {
        "full": {"arch": "titan", "breakpoints": 1, "kernels": 2,
                 "duration_us": 120.0, "presets": (0.10, 0.20),
                 "train_epochs": 60},
        "tiny": {"arch": "small", "breakpoints": 1, "kernels": 2,
                 "duration_us": 60.0, "presets": (0.10,),
                 "train_epochs": 8},
    },
    "serve-online": {
        "full": {"streams": 4, "ticks": 1000},
        "tiny": {"streams": 2, "ticks": 160},
    },
    "fleet-pool": {
        "full": {"trace": "burst", "nodes": 16, "jobs": 192, "load": 0.9},
        "tiny": {"trace": "burst", "nodes": 4, "jobs": 12, "load": 0.9},
    },
}

#: The pair that serve-online and fleet-pool deploy: a base pair trained
#: on duration-scaled training kernels, as the ``soak`` command does.
#: It is trained with a fixed seed: the workload seed makes the traffic
#: (streams, job trace), and every traffic seed meets the same model.
PAIR_SEED = 0
PAIR = {
    "full": {"duration_us": 200.0, "breakpoints": 2, "train_epochs": 40},
    "tiny": {"duration_us": 100.0, "breakpoints": 1, "train_epochs": 8},
}


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def dataset_digest(dataset) -> str:
    """Digest of every array and name list the dataset holds."""
    import numpy as np
    h = hashlib.sha256()
    for name in sorted(vars(dataset)):
        value = getattr(dataset, name)
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(str(value.dtype).encode() + str(value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()[:16]


def file_digest(path: Path) -> str:
    return sha256(Path(path).read_bytes())


def _arch(name: str):
    from repro.gpu.arch import small_test_config, titan_x_config
    return titan_x_config() if name == "titan" else small_test_config()


def _pipeline_config(seed: int, epochs: int):
    """Paper features; patience = epochs, so no seed stops training early
    and every seed trains for the same number of epochs."""
    from repro.cli import PAPER_FEATURES
    from repro.core.pipeline import PipelineConfig
    from repro.nn.trainer import TrainConfig
    finetune = max(1, epochs // 3)
    return PipelineConfig(
        feature_names=PAPER_FEATURES,
        train=TrainConfig(epochs=epochs, patience=epochs,
                          learning_rate=2e-3, seed=seed),
        finetune=TrainConfig(epochs=finetune, patience=finetune,
                             learning_rate=5e-4, seed=seed),
        seed=seed)


# ---------------------------------------------------------------------------
# Setup
# ---------------------------------------------------------------------------

def setup(spec: dict) -> dict:
    """Import the program and build the workload's fixtures."""
    import repro.cli  # noqa: F401  (every CLI command pays this import)
    from repro.datagen.cache import cached_dataset
    from repro.datagen.protocol import ProtocolConfig
    from repro.core.pipeline import build_from_dataset
    from repro.parallel import CampaignStats
    from repro.workloads.suites import scale_kernel_to_duration, training_suite

    if spec["workload"] == "paper-titan":
        # The cold pipeline *is* the body; setup is the imports only.
        return {}
    size = PAIR[spec["size"]]
    seed = PAIR_SEED
    arch = _arch("small")
    stats = CampaignStats()
    kernels = [scale_kernel_to_duration(k, arch, size["duration_us"] * 1e-6)
               for k in training_suite()]
    start = time.perf_counter()
    dataset = cached_dataset(
        Path(spec["fixture"]) / "cache", kernels, arch,
        ProtocolConfig(max_breakpoints_per_kernel=size["breakpoints"],
                       seed=seed),
        workers=1, stats=stats)
    datagen_s = time.perf_counter() - start
    start = time.perf_counter()
    pipeline = build_from_dataset(
        dataset, arch, _pipeline_config(seed, size["train_epochs"]),
        variants=("base",), workers=1, stats=stats)
    train_s = time.perf_counter() - start
    model = pipeline.models["base"]
    model.save(Path(spec["fixture"]) / "pair")
    return {"datagen_s": datagen_s, "train_s": train_s,
            "dm_accuracy_pct": float(model.metadata["accuracy_pct"]),
            "digests": {"dataset": dataset_digest(dataset),
                        "pair": sha256(model.to_bytes())}}


# ---------------------------------------------------------------------------
# Timed bodies
# ---------------------------------------------------------------------------

def _fig4_decisions(result) -> int:
    return sum(run.epochs for comparison in result.comparisons.values()
               for policy in comparison.policies()
               for run in comparison.series(policy))


def body_paper_titan(spec: dict, stats, workdir: Path) -> dict:
    """Cold datagen -> train -> Fig. 4, then the warm cache-hit repeat."""
    from repro.core.pipeline import build_from_dataset
    from repro.datagen.cache import cached_dataset
    from repro.datagen.protocol import ProtocolConfig
    from repro.evaluation.experiments import run_fig4
    from repro.evaluation.export import export_fig4_json
    from repro.workloads.suites import (evaluation_suite,
                                        scale_kernel_to_duration,
                                        training_suite)
    size = SIZES["paper-titan"][spec["size"]]
    seed = spec["seed"]
    arch = _arch(size["arch"])
    cache = workdir / "cache"
    protocol = ProtocolConfig(max_breakpoints_per_kernel=size["breakpoints"],
                              seed=seed)
    suite = training_suite()
    kernels = [scale_kernel_to_duration(k, arch, size["duration_us"] * 1e-6)
               for k in evaluation_suite()[:size["kernels"]]]
    presets = tuple(size["presets"])

    t0 = time.perf_counter()
    dataset = cached_dataset(cache, suite, arch, protocol, workers=1,
                             stats=stats)
    t1 = time.perf_counter()
    pipeline = build_from_dataset(
        dataset, arch, _pipeline_config(seed, size["train_epochs"]),
        workers=1, stats=stats)
    models = {"base": pipeline.models["base"],
              "pruned": pipeline.models["pruned"]}
    t2 = time.perf_counter()
    fig4 = run_fig4(models, kernels, arch, presets=presets, seed=seed,
                    workers=1, stats=stats, cache_dir=str(cache))
    t3 = time.perf_counter()
    warm_dataset = cached_dataset(cache, suite, arch, protocol, workers=1,
                                  stats=stats)
    warm_fig4 = run_fig4(models, kernels, arch, presets=presets, seed=seed,
                         workers=1, stats=stats, cache_dir=str(cache))
    t4 = time.perf_counter()

    export_fig4_json(fig4, workdir / "fig4-cold.json")
    export_fig4_json(warm_fig4, workdir / "fig4-warm.json")
    decisions = _fig4_decisions(fig4)
    runs = sum(len(comparison.series(policy))
               for comparison in fig4.comparisons.values()
               for policy in comparison.policies())
    ssm = "ssmdvfs-pruned"
    return {
        "window": [t0, t4], "wall_s": t4 - t0,
        "datagen_s": t1 - t0, "train_s": t2 - t1,
        "fig4_s": t3 - t2, "warm_s": t4 - t3,
        "decisions_per_s": decisions / (t3 - t2),
        "attempted": runs, "shed": 0, "failed_ops": 0,
        "checks": [],
        "model": {
            "decisions": decisions,
            "edp_norm": fig4.mean_over_presets("edp", ssm),
            "latency_norm": fig4.mean_over_presets("latency", ssm),
            "dm_accuracy_pct": float(
                pipeline.models["base"].metadata["accuracy_pct"]),
            "headline": fig4.headline(),
        },
        "digests": {
            "dataset": dataset_digest(dataset),
            "dataset_warm": dataset_digest(warm_dataset),
            "fig4": file_digest(workdir / "fig4-cold.json"),
            "fig4_warm": file_digest(workdir / "fig4-warm.json"),
        },
    }


def _stage_s(stats, name: str) -> float:
    """Summed seconds of one named CampaignStats stage."""
    return sum(stage.seconds for stage in stats.stages if stage.name == name)


def _load_pair(spec: dict):
    from repro.core.combined import SSMDVFSModel
    return SSMDVFSModel.load(Path(spec["fixture"]) / "pair")


def body_serve_online(spec: dict, stats, workdir: Path) -> dict:
    """One fault-free, online-calibrating serving replay."""
    from repro.serve import ServeConfig, ServingRuntime
    size = SIZES["serve-online"][spec["size"]]
    seed = spec["seed"]
    arch = _arch("small")
    model = _load_pair(spec)
    runtime = ServingRuntime(
        arch, ServeConfig(streams=size["streams"], ticks=size["ticks"],
                          seed=seed),
        model=model, store_root=workdir / "store", workers=1, stats=stats)
    t0 = time.perf_counter()
    result = runtime.run()
    t1 = time.perf_counter()
    wall = t1 - t0
    result.export_json(workdir / "serve.json")
    reasons: dict[str, int] = {}
    for record in result.shed_records:
        reasons[record.reason] = reasons.get(record.reason, 0) + 1
    return {
        "window": [t0, t1], "wall_s": wall,
        "decisions_per_s": result.served / wall,
        "attempted": result.submitted, "shed": result.shed,
        "failed_ops": result.failed,
        "checks": [["served + shed + failed == submitted",
                    result.served + result.shed + result.failed
                    == result.submitted]],
        "model": {"wait_p99_ticks": result.wait_percentile(0.99),
                  "served": result.served, "shed": result.shed,
                  "failed": result.failed, "submitted": result.submitted},
        "layer": {
            "serve.telemetry_stage.s": _stage_s(stats, "serve-telemetry"),
            "serve.online.promoted": result.counters.get(
                "online_updates_promoted", 0),
            "serve.breaker_trips": result.counters.get("breaker_trips", 0),
            "serve.shed_overflow": reasons.get("overflow", 0),
            "serve.shed_deadline": reasons.get("deadline", 0),
        },
        "digests": {"serve": file_digest(workdir / "serve.json")},
    }


def body_fleet_pool(spec: dict, stats, workdir: Path) -> dict:
    """One burst-trace fleet replay with the process pool on the path."""
    from repro.fleet import (ClusterScheduler, ThermalConfig, TraceConfig,
                             build_trace, policy_factory)
    size = SIZES["fleet-pool"][spec["size"]]
    seed = spec["seed"]
    arch = _arch("small")
    model = _load_pair(spec)
    jobs = build_trace(arch, TraceConfig(
        trace=size["trace"], jobs=size["jobs"], nodes=size["nodes"],
        load=size["load"], seed=seed))
    scheduler = ClusterScheduler(
        arch, policy_factory("ssmdvfs-guarded", preset=0.10, model=model),
        num_nodes=size["nodes"], policy_name="ssmdvfs-guarded", seed=seed,
        thermal=ThermalConfig(), workers=nproc(), stats=stats)
    t0 = time.perf_counter()
    result = scheduler.run(jobs, trace_name=size["trace"])
    t1 = time.perf_counter()
    wall = t1 - t0
    result.export_json(workdir / "fleet.json")
    completed = len(result.outcomes)
    decisions = sum(outcome.epochs for outcome in result.outcomes)
    return {
        "window": [t0, t1], "wall_s": wall,
        "decisions_per_s": decisions / wall,
        "attempted": result.jobs_submitted, "shed": len(result.shed),
        "failed_ops": 0,
        "checks": [["completed + shed == submitted",
                    completed + len(result.shed) == result.jobs_submitted],
                   ["jobs conserved", bool(result.conserved)]],
        "model": {"slo_miss_frac": result.slo_violation_rate(),
                  "decisions": decisions,
                  "completed": completed, "shed": len(result.shed)},
        "layer": {
            "fleet.simulate_stage.s": _stage_s(stats, "fleet-simulate"),
            "fleet.replay_stage.s": _stage_s(stats, "fleet-replay"),
            "fleet.queue_peak_depth": result.peak_queue_depth,
        },
        "digests": {"fleet": file_digest(workdir / "fleet.json")},
    }


BODIES = {"paper-titan": body_paper_titan,
          "serve-online": body_serve_online,
          "fleet-pool": body_fleet_pool}


def _counter_layers(stats, summary: dict, decide_us: list) -> dict:
    """Per-layer numbers read from CampaignStats and the span summary."""
    import numpy as np
    hit = stats.counter("solve_cache_batch_hit")
    miss = stats.counter("solve_cache_batch_miss")
    calls = summary["gpu.run_epoch_batch.calls"]
    return {
        "gpu.solution_cache.hit_ratio": hit / (hit + miss) if hit + miss
        else 0.0,
        "gpu.solve_cache_batch_hit": hit,
        "gpu.solve_cache_batch_miss": miss,
        "gpu.host_us_per_sim_epoch": (
            summary["gpu.run_epoch_batch.s"] * 1e6 / calls if calls else 0.0),
        "nn.train_epochs": stats.counter("train_epochs"),
        "core.decide_us.p50": float(np.percentile(decide_us, 50))
        if decide_us else 0.0,
        "core.decide_us.p99": float(np.percentile(decide_us, 99))
        if decide_us else 0.0,
        "evaluation.cache_hit": stats.counter("comparison_cache_hit"),
        "evaluation.cache_miss": stats.counter("comparison_cache_miss"),
    }


def body(spec: dict) -> dict:
    """Load fixtures, run the timed body once, report."""
    import repro.cli  # noqa: F401
    from repro.parallel import CampaignStats
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    stats = CampaignStats()
    out = BODIES[spec["workload"]](spec, stats, workdir)
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        window = out["window"]
        layer = tracer.summary(*window)
        layer.update(_counter_layers(
            stats, layer, tracer.durations_us("core.controller.decide",
                                              *window)))
        layer.update(out.get("layer", {}))
        out["layer"] = layer
        sidecar = Path(spec["sidecar"])
        sidecar.parent.mkdir(parents=True, exist_ok=True)
        sidecar.write_text(json.dumps(
            {"columns": ["name", "start_ns", "end_ns", "parent"],
             "spans": tracer.spans}))
    else:
        out.pop("layer", None)
    return out


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    spec = json.loads(Path(spec_path).read_text())
    if mode == "setup":
        print("READY " + json.dumps(setup(spec)), flush=True)
    elif mode == "body":
        print("RESULT " + json.dumps(body(spec)), flush=True)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
