"""Repository benchmark: end-to-end wall-clock and a traced layer breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-titan --seed 1 \
        --seconds 40 --trace 0

Workloads, metrics, units, directions and regression bounds are
declared in ``BENCHMARK.json`` at the repository root; ``README.md``
next to this file says what each metric measures on each workload.

Every measurement runs in a fresh interpreter (``workload.py``), so no
process-global memo or ``lru_cache`` of the program carries over from
one repeat to the next, and every repeat gets fresh cache and store
directories.  With ``--trace 0`` the run repeats rounds of import
probes, a setup and a body for ``--seconds`` (at least ``MIN_ROUNDS``)
and reports the end-to-end metrics: means of the samples (set-up
time: the median) rescaled to the reference host speed by the run's
host probes (see ``end_to_end``).  With
``--trace 1`` it alternates untraced and traced body repeats and
reports the per-layer metrics of the traced ones, the share of the
body no span covers and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when an output check fails or the program cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("paper-titan", "serve-online", "fleet-pool")
#: Rounds (import probes + setup + body) an untraced run takes at least.
MIN_ROUNDS = 3
#: Import probes per round: they are short, so they get more samples.
IMPORTS_PER_ROUND = 3
#: Seconds ``host_probe`` takes on the unloaded host: a 2-vCPU Intel
#: Xeon KVM guest, Python 3.11, numpy 2.4.  Timings are reported at
#: this host speed.
REFERENCE_S = 0.060
#: A run must end within this many seconds of its start.
RUN_BUDGET_S = 165.0
#: Repository subpackages whose import cost ``-X importtime`` reports.
SUBPACKAGES = ("baselines", "core", "datagen", "evaluation", "fleet", "gpu",
               "hardware", "nn", "power", "serve", "workloads")
#: BLAS/OpenMP pools pinned to one thread in every workload process, so
#: pool workers x BLAS threads never exceeds the CPU count.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")
PAPER_HEADLINE = {"vs_baseline": 0.1109, "vs_pcstall": 0.1317,
                  "vs_flemma": 0.3680}


class BenchError(Exception):
    """The program could not be run or a child process failed."""


class Runner:
    """Spawns workload processes inside one run directory."""

    def __init__(self, rundir: Path, deadline: float) -> None:
        self.rundir = rundir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"
        for name in THREAD_ENV:
            self.env[name] = "1"
        self._serial = 0

    def spawn(self, argv: list[str], marker: str) -> tuple[str, float, str]:
        """Run one child; returns (payload after ``marker``, seconds from
        spawn to the marker line, stderr text)."""
        self._serial += 1
        err_path = self.rundir / f"stderr-{self._serial}.txt"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        with open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                    env=self.env, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            payload, elapsed = None, 0.0
            try:
                for line in proc.stdout:
                    if payload is None and line.startswith(marker + " "):
                        elapsed = time.perf_counter() - start
                        payload = line[len(marker) + 1:]
                proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        stderr = err_path.read_text()
        if proc.returncode != 0 or payload is None:
            tail = "\n".join(stderr.strip().splitlines()[-15:])
            raise BenchError(f"child {argv[:2]} exited {proc.returncode}:"
                             f"\n{tail}")
        return payload, elapsed, stderr

    def spec(self, spec: dict) -> str:
        self._serial += 1
        path = self.rundir / f"spec-{self._serial}.json"
        path.write_text(json.dumps(spec))
        return str(path)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.cli; "
                "print('IMPORT', time.perf_counter() - t)")


def host_probe() -> float:
    """Seconds of a fixed host-speed kernel, run in this process.

    Small-array numpy and interpreter work, the mix the program does,
    so the kernel slows down with the program when the host is loaded.
    It uses no code of the program."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 64)
    w = np.outer(x, x[::-1]) / 64.0
    acc = 0.0
    start = time.perf_counter()
    for step in range(4800):
        x = np.clip(np.tanh(w @ x + step * 1e-3), 0.0, 1.0)
        acc += float(np.sum(x))
        table = {k: k * acc for k in range(48)}
        acc += len(table) + sum(sorted(table.values())[:4])
    return time.perf_counter() - start


def import_probe(runner: Runner) -> dict:
    return {"import_s": float(runner.spawn(["-c", IMPORT_PROBE],
                                           "IMPORT")[0])}


def import_breakdown(runner: Runner) -> dict[str, float]:
    """Cumulative import seconds per ``repro`` subpackage."""
    _, _, stderr = runner.spawn(
        ["-X", "importtime", "-c", "import repro.cli; print('DONE x')"],
        "DONE")
    out = {f"import.{name}.s": 0.0 for name in ("repro",) + SUBPACKAGES}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        module = fields[2].strip()
        if not fields[1].strip().isdigit():
            continue
        if module == "repro" or (module.startswith("repro.")
                                 and module.count(".") == 1):
            key = f"import.{module.split('.')[-1]}.s"
            if key in out:
                out[key] = int(fields[1]) / 1e6
    return out


def run_setup(runner: Runner, base: dict, index: int) -> dict:
    fixture = runner.rundir / f"fixture-{index}"
    spec = runner.spec({**base, "fixture": str(fixture)})
    payload, elapsed, _ = runner.spawn(
        [str(HERE / "workload.py"), "setup", spec], "READY")
    return {**json.loads(payload), "setup_s": elapsed}


def run_body(runner: Runner, base: dict, index: int, trace: bool) -> dict:
    spec = runner.spec({
        **base, "trace": trace, "fixture": str(runner.rundir / "fixture-0"),
        "workdir": str(runner.rundir / f"body-{index}"),
        "sidecar": str(ROOT / ".perfbench" / "traces"
                       / f"{base['workload']}-s{base['seed']}.json")})
    start = time.perf_counter()
    payload, _, _ = runner.spawn([str(HERE / "workload.py"), "body", spec],
                                 "RESULT")
    result = json.loads(payload)
    result["process_s"] = time.perf_counter() - start
    # Fresh cache and store directories for every repeat.
    shutil.rmtree(runner.rundir / f"body-{index}", ignore_errors=True)
    return result


def measure(runner: Runner, base: dict, seconds: float, trace: bool):
    """All samples of one run: (imports, setups, untraced bodies, traced
    bodies, host probes).

    The run is a sequence of rounds, each taking samples of every kind:
    import probes, a setup and a body (untraced) or an untraced and a
    traced body (traced).  Rounds repeat for ``seconds``, so every
    metric samples the whole run rather than one stretch of it.  A
    round starts only if at least half of it fits, so a run overshoots
    ``seconds`` by half a round at most.  A host probe runs after
    every sample, so the probes sample the host's speed across the run."""
    # One untimed import first, so bytecode is compiled and the OS page
    # cache is warm, as for any CLI call after the first.
    import_probe(runner)
    probes = [host_probe()]

    def sample(fn, *args) -> dict:
        result = fn(*args)
        probes.append(host_probe())
        return result

    imports: list[dict] = []
    setups: list[dict] = []
    plain: list[dict] = []
    traced: list[dict] = []
    end = time.monotonic() + seconds
    min_rounds = 1 if trace else MIN_ROUNDS
    round_s = 0.0
    while (len(plain) < min_rounds
           or time.monotonic() + round_s / 2 < end):
        if plain and time.monotonic() + 1.3 * round_s > runner.deadline:
            break
        round_start = time.monotonic()
        if trace:
            if not setups:
                setups.append(sample(run_setup, runner, base, 0))
            for traced_now in (False, True):
                result = sample(run_body, runner, base,
                                len(plain) + len(traced), traced_now)
                (traced if traced_now else plain).append(result)
        else:
            imports += [sample(import_probe, runner)
                        for _ in range(IMPORTS_PER_ROUND)]
            setups.append(sample(run_setup, runner, base, len(setups)))
            plain.append(sample(run_body, runner, base, len(plain), False))
        round_s = max(round_s, time.monotonic() - round_start)
    return imports, setups, plain, traced, probes


# ---------------------------------------------------------------------------
# Checks and report
# ---------------------------------------------------------------------------

class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def check_outputs(checks: Checks, setups: list[dict],
                  bodies: list[dict]) -> None:
    """Determinism, cold/warm identity and conservation checks."""
    for key in setups[0].get("digests", {}):
        checks.check(f"setup digest {key} repeats",
                     len({s["digests"][key] for s in setups}) == 1)
    checks.check("setup accuracy repeats",
                 len({s.get("dm_accuracy_pct") for s in setups}) == 1)
    first = bodies[0]
    for key in first["digests"]:
        checks.check(f"digest {key} repeats",
                     len({b["digests"][key] for b in bodies}) == 1)
    checks.check("modelled results repeat",
                 all(b["model"] == first["model"] for b in bodies))
    for cold, warm in (("dataset", "dataset_warm"), ("fig4", "fig4_warm")):
        if warm in first["digests"]:
            checks.check(f"{cold} cold == warm",
                         first["digests"][cold] == first["digests"][warm])
    for body in bodies:
        for name, ok in body["checks"]:
            checks.check(name, bool(ok))


def environment() -> dict:
    import numpy
    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "threads": {name: os.environ.get(name) for name in THREAD_ENV},
            "workload_threads": {name: "1" for name in THREAD_ENV},
            "host_solution_cache": "starts empty in every repeat",
            "modelled_caches": "analytic in the interval model: "
                               "no modelled warm-up"}


def median(values) -> float:
    return float(statistics.median(values))


def error_frac(first: dict, checks: Checks) -> float:
    """(shed + failed + failed output checks) / attempted operations."""
    return ((first["shed"] + first["failed_ops"] + len(checks.failures))
            / first["attempted"])


def time_samples(workload: str, imports, setups, bodies) -> dict:
    """Every timed sample of an untraced run, per end-to-end metric."""
    stages = bodies if workload == "paper-titan" else setups
    return {"wall_s": [b["wall_s"] for b in bodies],
            "setup_s": [s["setup_s"] for s in setups],
            "import_s": [i["import_s"] for i in imports],
            "datagen_s": [s["datagen_s"] for s in stages],
            "train_s": [s["train_s"] for s in stages],
            "decisions_per_s": [b["decisions_per_s"] for b in bodies]}


def end_to_end(workload: str, samples: dict, probes: list[float], setups,
               bodies, checks) -> dict:
    """Means of the samples (the median for set-up time), rescaled to
    the reference host speed.

    The host is a shared VM whose speed swings by up to 1.8x from one
    run to the next and within a run, for every piece of code alike:
    statistics of the raw samples of 40 s runs spread by 10-67 % over
    five to ten runs.  Each time is therefore scaled by ``REFERENCE_S``
    over the mean host probe of the run, and each rate by its inverse.
    A sample's time is its duration times the host's mean slowdown
    over it, so the means of the samples and of the probes estimate the
    same slowdown; medians of the two did not.  The raw samples, their
    medians and the probes are printed beside the metrics."""
    first = bodies[0]
    if workload == "paper-titan":
        accuracy = first["model"]["dm_accuracy_pct"]
    else:
        accuracy = setups[0]["dm_accuracy_pct"]
    scale = REFERENCE_S / statistics.fmean(probes)
    values = {name: statistics.fmean(series) * scale
              for name, series in samples.items()}
    values["setup_s"] = median(samples["setup_s"]) * scale
    values["decisions_per_s"] = (statistics.fmean(samples["decisions_per_s"])
                                 / scale)
    values.update({
        "peak_rss_mb": median(b["peak_rss_mb"] for b in bodies),
        "ok_frac": 1.0 - error_frac(first, checks),
        "dm_accuracy_pct": accuracy,
    })
    return values


def per_layer(names: list[str], plain: list[dict], traced: list[dict],
              imports: dict) -> dict:
    values = {}
    for name in names:
        samples = [t["layer"].get(name, 0.0) for t in traced]
        values[name] = median(samples) if samples else 0.0
    values.update({k: v for k, v in imports.items() if k in names})
    values["trace_overhead_frac"] = (
        median(t["wall_s"] for t in traced)
        / median(b["wall_s"] for b in plain) - 1.0)
    return values


def details(bodies: list[dict], checks: Checks) -> dict:
    """Workload-specific and modelled results printed beside the metrics."""
    first = bodies[0]
    out = dict(first["model"])
    out.pop("headline", None)
    out["error_frac"] = error_frac(first, checks)
    out["attempted_ops"] = first["attempted"]
    for key in ("fig4_s", "warm_s"):
        if key in first:
            out[key] = median(b[key] for b in bodies)
    return out


def print_fidelity(bodies: list[dict]) -> None:
    headline = bodies[0]["model"].get("headline")
    if not headline:
        return
    parts = [f"{name} {100 * headline[name]:.2f}% (paper "
             f"{100 * PAPER_HEADLINE[name]:.2f}%)" for name in PAPER_HEADLINE]
    print("fidelity  Fig. 4 EDP improvement of ssmdvfs-pruned: "
          + ", ".join(parts))
    print("fidelity  the model is unvalidated against silicon: the "
          "repository holds no hardware measurements, only the paper's "
          "figures")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test scale")
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps its child and removes its
    # run directory: SystemExit unwinds through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_defs = declared["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    rundir = (ROOT / ".perfbench"
              / f"run-{args.workload}-s{args.seed}-p{os.getpid()}")
    rundir.mkdir(parents=True, exist_ok=True)
    runner = Runner(rundir, start + RUN_BUDGET_S)
    base = {"workload": args.workload, "seed": args.seed, "size": args.size}
    try:
        imports, setups, plain, traced, probes = measure(
            runner, base, args.seconds, bool(args.trace))
        layer_imports = import_breakdown(runner) if args.trace else {}
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    checks = Checks()
    check_outputs(checks, setups, plain + traced)
    samples = time_samples(args.workload, imports, setups, plain)
    if args.trace:
        metrics = per_layer([m["name"] for m in metric_defs], plain, traced,
                            layer_imports)
    else:
        metrics = end_to_end(args.workload, samples, probes, setups, plain,
                             checks)
    for name, value in metrics.items():
        checks.check(f"{name} is finite", math.isfinite(value))

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"size={args.size} trace={args.trace} repeats={len(plain)} "
          f"traced_repeats={len(traced)} setups={len(setups)} "
          f"imports={len(imports)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("digests " + json.dumps(plain[0]["digests"], sort_keys=True))
    print("modelled " + json.dumps(details(plain, checks), sort_keys=True))
    print_fidelity(plain)
    print("samples " + json.dumps(samples))
    print("raw_medians " + json.dumps({name: median(values)
                                       for name, values in samples.items()
                                       if values}))
    print("host_probe_s " + json.dumps(probes))
    for definition in metric_defs:
        name = definition["name"]
        print(f"metric {name} = {metrics.get(name, float('nan')):.6g} "
              f"{definition['unit']} ({definition['better']} is better)")
    if args.trace:
        print(f"trace  sidecar .perfbench/traces/{args.workload}-"
              f"s{args.seed}.json; body time no span covers: "
              f"{metrics['trace.uncovered_s']:.4f} s; overhead "
              f"{100 * metrics['trace_overhead_frac']:.1f}%")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures),
              "metrics": {d["name"]: {"value": metrics[d["name"]],
                                      "unit": d["unit"]}
                          for d in metric_defs}}
    print(json.dumps(result))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
