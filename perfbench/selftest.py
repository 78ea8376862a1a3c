"""Self-test of the benchmark at tiny scale (about a minute).

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` at the ``tiny`` size, once
untraced and once traced, and checks that

* every declared metric is printed with its unit and direction, and
  appears in the final JSON line;
* every layer gets at least one span in the traced run of each
  workload where the layer does its work;
* the counters read from ``CampaignStats`` are nonzero where the layer
  does work;
* without the program source the benchmark exits non-zero and prints
  no result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3

#: Layer -> workloads whose traced run must hold a span of that layer.
#: Simulator layers inside fleet-pool run in pool children, whose spans
#: are lost by design, so only the parent-side layers are listed there.
SPANS_IN = {
    "gpu": ("paper-titan", "serve-online"),
    "power": ("paper-titan", "serve-online"),
    "datagen": ("paper-titan",),
    "nn": ("paper-titan", "serve-online"),
    "core": ("paper-titan", "serve-online"),
    "baselines": ("paper-titan",),
    "evaluation": ("paper-titan",),
    "serve": ("serve-online",),
    "store": ("paper-titan", "serve-online"),
    "parallel": ("paper-titan", "serve-online", "fleet-pool"),
    "fleet": ("fleet-pool",),
}

#: Per-layer counters that must be nonzero on the given workload.
NONZERO = {
    "paper-titan": ("gpu.solve_cache_batch_hit", "gpu.solve_cache_batch_miss",
                    "nn.train_epochs", "evaluation.cache_hit",
                    "evaluation.cache_miss", "store.bytes_written",
                    "core.decide_us.p50", "import.repro.s"),
    "serve-online": ("serve.telemetry_stage.s", "serve.online.promoted",
                     "store.bytes_written", "core.decide_us.p50",
                     "import.repro.s"),
    "fleet-pool": ("fleet.simulate_stage.s", "fleet.queue_peak_depth",
                   "parallel.tasks", "parallel.busy_frac", "import.repro.s"),
}


def fail(message: str) -> None:
    print(f"SELFTEST FAILED: {message}")
    sys.exit(1)


def run(workload: str, trace: int, cwd: Path = ROOT
        ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_printed(workload: str, out: str, defs: list[dict]) -> dict:
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"]:
        fail(f"{workload}: output checks failed")
    for definition in defs:
        name, unit = definition["name"], definition["unit"]
        prefix = f"metric {name} = "
        printed = [line for line in lines if line.startswith(prefix)]
        if not printed or not printed[0].endswith(
                f" {unit} ({definition['better']} is better)"):
            fail(f"{workload}: metric {name} not printed with unit and "
                 "direction")
        if result["metrics"].get(name, {}).get("unit") != unit:
            fail(f"{workload}: metric {name} missing from the result")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in declared["workloads"]:
        workload = entry["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}:\n"
                     f"{proc.stderr[-2000:]}")
            values = check_printed(workload, proc.stdout, declared[key])
            print(f"ok  {workload} trace={trace}: {len(values)} metrics "
                  "printed with unit and direction")
        sidecar = ROOT / ".perfbench" / "traces" / f"{workload}-s{SEED}.json"
        layers = {span[0].split(".")[0]
                  for span in json.loads(sidecar.read_text())["spans"]}
        for layer, workloads in SPANS_IN.items():
            if workload in workloads and layer not in layers:
                fail(f"{workload}: no {layer} span in the traced run")
        for name in NONZERO[workload]:
            if not values.get(name):
                fail(f"{workload}: per-layer counter {name} is zero")
        expected = sorted(layer for layer, workloads in SPANS_IN.items()
                          if workload in workloads)
        print(f"ok  {workload}: spans for {expected}; counters "
              f"{list(NONZERO[workload])} nonzero")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in declared["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(declared["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("the benchmark ran without the program source")
    print("ok  without the program source: exit "
          f"{proc.returncode}, no result printed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
