"""Chaos campaigns: one skeleton, per-domain trial runners and checkers.

The paper's promise — hold latency within the preset under drift and
faults — is certified at three scales.  The chaos soak
(:mod:`repro.evaluation.soak`) batters a single controller stack; the
fleet campaign replays seeded :class:`~repro.faults.NodeFaultPlan`
trains (crashes, hangs, thermal runaway, sensor storms) through the
:class:`~repro.fleet.scheduler.ClusterScheduler`; the serve campaign
replays seeded :class:`~repro.faults.ServeFaultPlan` trains (worker
crashes and hangs, inference stalls, telemetry storms and gaps,
poisoned updates, overload bursts) through the always-on
:class:`~repro.serve.runtime.ServingRuntime`.  All three report
through :class:`ChaosResult` and its crash-write torture phase
(:func:`crash_write_torture`); the fleet and serve campaigns also share
the seeded, determinism-checked trial loop :func:`run_trials`.

The per-domain checkers hold the invariants.  Fleet
(:func:`_check_fleet_trial`): every job completed or shed exactly once
across crashes and migrations, a byte-stable export, no node wedged in
quarantine, and no latency-class job admission-shed.  Serve
(:func:`_check_serve_trial`): no invalid decision served,
``served + shed + failed == submitted``, every worker outage healed
within the recovery budget, a byte-stable export, and no
deadline-class request shed under capacity.

``repro-ssmdvfs fleet-chaos`` / ``serve-chaos`` and the CI
``chaos-smoke`` target gate on :attr:`ChaosResult.passed`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

from ..core.combined import SSMDVFSModel
from ..errors import FleetError, ServeError
from ..faults import (NodeFaultConfig, NodeFaultEvent, NodeFaultPlan,
                      ServeFaultConfig, derive_fault_seed)
from ..fleet.jobs import LATENCY, TraceConfig, build_trace
from ..fleet.metrics import FleetResult
from ..fleet.queue import AdmissionConfig
from ..fleet.scheduler import ClusterScheduler, MigrationConfig
from ..fleet.tracker import QUARANTINED, HealthPolicy, ThermalConfig
from ..gpu.arch import GPUArchConfig
from ..parallel import CampaignStats
from ..store import ArtifactStore, SimulatedCrash, atomic_write_text

if TYPE_CHECKING:  # repro.serve stays unloaded until a serve campaign runs
    from ..serve import ServeConfig, ServeResult

#: Payload keys that differ from the header attribute they export.
_PAYLOAD_KEYS = {"policy_name": "policy"}


# ---------------------------------------------------------------------------
# The skeleton
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class ChaosResult:
    """Aggregate campaign outcome: records + counters + verdicts.

    A subclass's own (positional) fields are its header.  It sets the
    report spec: ``headline`` (a format string over the header),
    ``records_key``, ``columns`` (heading, alignment + width, cell
    getter) and ``verdict`` (violations heading, all-clear line).
    """

    records: list = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    crash_trials: int = 0
    crash_torn_reads: int = 0
    violations: list[str] = field(default_factory=list)

    headline: ClassVar[str]
    records_key: ClassVar[str] = "trials"
    columns: ClassVar[tuple[tuple[str, str, Callable], ...]]
    verdict: ClassVar[tuple[str, str]]

    @property
    def trials(self) -> list:
        """The per-trial records (the trial campaigns' name for them)."""
        return self.records

    @property
    def passed(self) -> bool:
        """True when every invariant held."""
        return not self.violations

    def merge_counters(self, counters: dict[str, int]) -> None:
        """Accumulate one run's counters into the campaign totals."""
        for name, amount in counters.items():
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    def torture(self, store: ArtifactStore, name: str, payload: bytes,
                trials: int, seed: int) -> None:
        """Run the crash-write torture; a torn read is a violation."""
        self.crash_trials, self.crash_torn_reads = crash_write_torture(
            store, name, payload, trials, seed=seed)
        if self.crash_torn_reads:
            self.violations.append(
                f"crash-write torture observed {self.crash_torn_reads} "
                f"torn reads in {self.crash_trials} kills")

    def to_payload(self) -> dict:
        """JSON-ready dict (no wall-clock: seeded runs export bit-equal)."""
        payload = {_PAYLOAD_KEYS.get(f.name, f.name): getattr(self, f.name)
                   for f in fields(self) if not f.kw_only}
        payload.update({
            "passed": self.passed,
            self.records_key: [asdict(record) for record in self.records],
            "counters": dict(sorted(self.counters.items())),
            "crash_trials": self.crash_trials,
            "crash_torn_reads": self.crash_torn_reads,
            "violations": list(self.violations),
        })
        return payload

    def export_json(self, path: str | Path) -> Path:
        """Atomically write the payload as JSON; returns the path."""
        path = Path(path)
        atomic_write_text(path, json.dumps(self.to_payload(), indent=2,
                                           sort_keys=True))
        return path

    def render(self) -> str:
        """Human-readable campaign report."""
        lines = [self.headline.format(**vars(self)),
                 " ".join(format(title, spec)
                          for title, spec, _ in self.columns)]
        lines.extend(" ".join(format(cell(record), spec)
                              for _, spec, cell in self.columns)
                     for record in self.records)
        lines.append(f"crash-write torture: {self.crash_trials} kills, "
                     f"{self.crash_torn_reads} torn reads")
        heading, all_clear = self.verdict
        if self.violations:
            lines.append(heading)
            lines.extend(f"  - {violation}"
                         for violation in self.violations)
        else:
            lines.append(all_clear)
        return "\n".join(lines)


def crash_write_torture(store: ArtifactStore, name: str, payload: bytes,
                        trials: int, seed: int = 0) -> tuple[int, int]:
    """Kill ``put`` at sampled offsets; returns (kills, torn_reads).

    After every simulated kill the artifact must read back as the
    last committed payload — never a prefix of the aborted write — and
    a follow-up clean ``put`` must succeed (leftover temp files cannot
    wedge the store).  The byte-exhaustive variant lives in the test
    suite; this samples ``trials`` offsets across the encoded length
    (at most the ``len(payload) + 2`` distinct ones) so long payloads
    stay cheap.
    """
    if trials <= 0:
        return 0, 0
    baseline = store.put(name, payload, schema="soak-torture/v1",
                         mark_good=False)
    expected = store.get(name, baseline, fallback=False)
    rng = np.random.default_rng(seed)
    # Cover both boundaries (0 bytes written; written-but-not-renamed)
    # plus random interior offsets.
    offsets = {0, len(payload) + 1}
    while len(offsets) < min(trials, len(payload) + 2):
        offsets.add(int(rng.integers(0, len(payload) + 2)))
    torn = 0
    for offset in sorted(offsets):
        try:
            store.put(name, payload, schema="soak-torture/v1",
                      crash_after=offset)
        except SimulatedCrash:
            pass
        observed = store.get(name, fallback=True)
        if observed != expected:
            torn += 1
    # The store must still accept clean writes after every abort.
    final = store.put(name, payload, schema="soak-torture/v1")
    if store.get(name, final, fallback=False) != expected:
        torn += 1
    return len(offsets) + 1, torn


@dataclass(frozen=True)
class TrialCampaignConfig:
    """Knobs every trial campaign shares (see :func:`run_trials`).

    ``determinism_trials`` of the ``trials`` are replayed twice to pin
    byte-stability without doubling every trial.  Subclasses name
    their ``error`` type and report ``label``.
    """

    trials: int = 3
    determinism_trials: int = 1
    seed: int = 0
    crash_write_trials: int = 16

    error: ClassVar[type[Exception]]
    label: ClassVar[str]

    def _check(self, faults) -> None:
        if self.trials < 1:
            raise self.error(f"{self.label} needs at least one trial")
        if not 0 <= self.determinism_trials <= self.trials:
            raise self.error("determinism_trials must be within "
                             "[0, trials]")
        if self.crash_write_trials < 0:
            raise self.error("crash_write_trials cannot be negative")
        if not faults.any_active:
            raise self.error(f"{self.label} without any active fault "
                             f"rate tests nothing; enable at least one")


def run_trials(result: ChaosResult, config: TrialCampaignConfig,
               run: Callable[[int, int, bool], object],
               tally: Callable[[int, int, object, bool | None], object],
               torture_root: str | Path | None) -> None:
    """The seeded trial loop plus the torture phase, filling ``result``.

    Every trial derives its own seed from ``config.seed``, so the
    campaign is a pure function of its config.  ``run(trial, seed,
    replay)`` runs one trial (``replay`` selects the serial
    determinism re-run) and returns an outcome with ``to_payload()``.
    ``tally(trial, seed, outcome, byte_stable)`` merges the outcome's
    counters, checks its invariants and returns its record
    (``byte_stable`` is None when the dual run was skipped).
    The first trial's export is the torture victim, stored under
    ``torture_root`` when given.
    """
    domain = config.label.replace(" ", "-")
    first_payload = b""
    for trial in range(config.trials):
        seed = derive_fault_seed(config.seed, domain, trial)
        outcome = run(trial, seed, False)
        byte_stable: bool | None = None
        if trial < config.determinism_trials:
            replay = run(trial, seed, True)
            byte_stable = (json.dumps(replay.to_payload(), sort_keys=True)
                           == json.dumps(outcome.to_payload(),
                                         sort_keys=True))
        if not first_payload:
            first_payload = json.dumps(outcome.to_payload(), indent=2,
                                       sort_keys=True).encode()
        result.records.append(tally(trial, seed, outcome, byte_stable))
        result.merge_counters({f"{config.label.replace(' ', '_')}_trials": 1})
    if torture_root is not None and config.crash_write_trials:
        result.torture(ArtifactStore(torture_root), f"{domain}-export",
                       first_payload, config.crash_write_trials,
                       config.seed)


@dataclass
class TrialRecord:
    """What every trial campaign records about one seeded trial."""

    trial: int
    seed: int
    fault_counts: dict[str, int]
    submitted: int
    shed: int
    conserved: bool
    byte_stable: bool | None  # None when the dual-run check was skipped


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "NO"


def _trial_columns(*middle: tuple) -> tuple:
    """Trial and fault count, the domain's ``middle``, then verdicts."""
    return (("trial", ">5", attrgetter("trial")),
            ("faults", ">6", lambda t: sum(t.fault_counts.values())),
            *middle,
            ("conserved", ">9", lambda t: _yes_no(t.conserved)),
            ("stable", ">6", lambda t: "-" if t.byte_stable is None
             else _yes_no(t.byte_stable)))


# ---------------------------------------------------------------------------
# Fleet campaign
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FleetChaosConfig(TrialCampaignConfig):
    """Knobs of one fleet-chaos campaign (all invariants included).

    Each trial's seed drives both its fault train and its arrival
    trace.  ``horizon_slack_s`` extends the fault-plan horizon past
    the last arrival so late faults can still strike in-flight work.
    """

    trace: str = "burst"
    jobs: int = 24
    nodes: int = 4
    load: float = 1.1
    faults: NodeFaultConfig = field(default_factory=lambda: NodeFaultConfig(
        crash_rate=0.5, hang_rate=0.3, thermal_rate=0.4, storm_rate=0.4))
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    admission: AdmissionConfig = field(
        default_factory=lambda: AdmissionConfig(enabled=True))
    health: HealthPolicy = field(default_factory=HealthPolicy)
    horizon_slack_s: float = 2e-3

    error = FleetError
    label = "fleet chaos"

    def __post_init__(self) -> None:
        self._check(self.faults)
        if self.horizon_slack_s < 0:
            raise FleetError("horizon_slack_s cannot be negative")


@dataclass
class ChaosTrial(TrialRecord):
    """One randomized fault train replayed over one trace."""

    completed: int
    migrations: int
    quarantines: int
    recoveries: int
    still_quarantined: int
    slo_violation_rate: float
    shed_rate: float


@dataclass
class FleetChaosResult(ChaosResult):
    """Aggregate fleet-chaos outcome: per-trial records + verdicts."""

    policy_name: str
    nodes: int
    jobs: int
    seed: int

    headline = ("fleet chaos  policy={policy_name}  nodes={nodes}  "
                "jobs={jobs}  seed={seed}")
    columns = _trial_columns(("done", ">5", attrgetter("completed")),
                             ("shed", ">5", attrgetter("shed")),
                             ("migr", ">5", attrgetter("migrations")),
                             ("quar", ">5", attrgetter("quarantines")),
                             ("recov", ">5", attrgetter("recoveries")))
    verdict = ("FLEET INVARIANT VIOLATIONS:", "all fleet invariants held")


def _check_fleet_trial(result: FleetResult, record: ChaosTrial,
                       violations: list[str]) -> None:
    """Assert the per-trial fleet invariants, appending violations."""
    prefix = f"trial {record.trial}"
    if not record.conserved:
        violations.append(
            f"{prefix}: job conservation broken — submitted "
            f"{record.submitted} != completed {record.completed} + shed "
            f"{record.shed} (or duplicated ids)")
    if record.byte_stable is False:
        violations.append(
            f"{prefix}: export payload differs between serial and "
            f"parallel replay of the same seed")
    if record.recoveries < record.quarantines - record.still_quarantined:
        violations.append(
            f"{prefix}: {record.quarantines} quarantines but only "
            f"{record.recoveries} recoveries with "
            f"{record.still_quarantined} outages still open — a node "
            f"wedged in quarantine")
    for shed in result.shed:
        if shed.job_class == LATENCY and shed.reason == "unmeetable":
            violations.append(
                f"{prefix}: admission control shed latency-class job "
                f"{shed.job_id} — latency jobs must run and be "
                f"accounted as SLO violations instead")


def run_fleet_chaos(arch: GPUArchConfig, factory,
                    config: FleetChaosConfig | None = None, *,
                    policy_name: str = "policy",
                    workers: int | None = None,
                    store_root: str | Path | None = None,
                    stats: CampaignStats | None = None
                    ) -> FleetChaosResult:
    """Run the fleet-chaos campaign; returns per-trial records + verdicts.

    ``factory`` is a picklable zero-arg per-node policy factory (see
    :func:`repro.fleet.policy_factory`).  When ``store_root`` is given,
    the crash-write torture phase runs against an
    :class:`~repro.store.ArtifactStore` there using the first trial's
    export payload as the victim artifact.  The whole result is a pure
    function of ``(arch, factory, config)``.
    """
    config = config or FleetChaosConfig()
    stats = stats if stats is not None else CampaignStats()
    result = FleetChaosResult(policy_name=policy_name, nodes=config.nodes,
                              jobs=config.jobs, seed=config.seed)

    def run(trial: int, seed: int, replay: bool) -> FleetResult:
        jobs = build_trace(arch, TraceConfig(
            trace=config.trace, jobs=config.jobs, nodes=config.nodes,
            load=config.load, seed=seed))
        horizon_s = (max(job.arrival_s for job in jobs)
                     + config.horizon_slack_s)
        plan = NodeFaultPlan.build(config.faults.with_seed(seed),
                                   config.nodes, horizon_s)
        scheduler = ClusterScheduler(
            arch, factory, num_nodes=config.nodes, policy_name=policy_name,
            seed=seed, thermal=ThermalConfig(),
            workers=1 if replay else workers,
            stats=CampaignStats() if replay else stats, fault_plan=plan,
            migration=config.migration, admission=config.admission,
            health=config.health)
        return scheduler.run(jobs, trace_name=config.trace)

    def tally(trial: int, seed: int, fleet: FleetResult,
              byte_stable: bool | None) -> ChaosTrial:
        counters = fleet.counters
        plan = NodeFaultPlan(NodeFaultEvent(**event)
                             for event in fleet.fault_events)
        record = ChaosTrial(
            trial=trial, seed=seed, fault_counts=plan.counts_by_kind(),
            submitted=fleet.jobs_submitted,
            completed=len(fleet.outcomes), shed=len(fleet.shed),
            migrations=fleet.migrations_total(),
            quarantines=counters.get("node_state_quarantined", 0),
            recoveries=counters.get("node_state_recovering", 0),
            still_quarantined=sum(1 for node in fleet.node_summaries
                                  if node["health"] == QUARANTINED),
            conserved=fleet.conserved, byte_stable=byte_stable,
            slo_violation_rate=fleet.slo_violation_rate(),
            shed_rate=fleet.shed_rate())
        result.merge_counters(counters)
        result.merge_counters(fleet.policy_counters)
        _check_fleet_trial(fleet, record, result.violations)
        return record

    run_trials(result, config, run, tally, store_root)
    return result


# ---------------------------------------------------------------------------
# Serve campaign
# ---------------------------------------------------------------------------

#: Default chaotic fault mix (expected events per target per run).
CHAOS_FAULTS = ServeFaultConfig(crash_rate=1.5, hang_rate=1.0,
                                stall_rate=1.0, storm_rate=1.0,
                                gap_rate=1.0, poison_rate=1.0,
                                burst_rate=1.0)


def _chaos_serve_config() -> ServeConfig:
    from ..serve import ServeConfig
    return ServeConfig(faults=CHAOS_FAULTS)


@dataclass(frozen=True)
class ServeChaosConfig(TrialCampaignConfig):
    """Knobs of one serve-chaos campaign (all five invariants included).

    Each trial's seed reaches the fault train and arrival jitter
    through the serve config's ``with_seed``.
    ``recovery_budget_ticks`` must cover the supervisor's worst-case
    backoff plus one liveness window — the bound invariant 3 enforces.
    """

    serve: ServeConfig = field(default_factory=_chaos_serve_config)
    recovery_budget_ticks: int = 48

    error = ServeError
    label = "serve chaos"

    def __post_init__(self) -> None:
        self._check(self.serve.faults)
        floor = (self.serve.supervisor.backoff_cap_ticks
                 + self.serve.supervisor.liveness_ticks)
        if self.recovery_budget_ticks < floor:
            raise ServeError(
                f"recovery_budget_ticks {self.recovery_budget_ticks} is "
                f"below the supervisor's own worst case {floor}")


@dataclass
class ServeChaosTrial(TrialRecord):
    """One seeded fault train replayed through the serving runtime."""

    served: int
    failed: int
    recoveries: int
    max_recovery_ticks: int
    quarantined: int
    unrecovered: int
    invalid_decisions: int
    bad_deadline_sheds: int


@dataclass
class ServeChaosResult(ChaosResult):
    """Aggregate serve-chaos outcome: trial records + invariant verdicts."""

    policy_name: str
    streams: int
    num_workers: int
    seed: int

    headline = ("serve chaos  policy={policy_name}  streams={streams}  "
                "workers={num_workers}  seed={seed}")
    columns = _trial_columns(("subm", ">5", attrgetter("submitted")),
                             ("served", ">6", attrgetter("served")),
                             ("shed", ">5", attrgetter("shed")),
                             ("fail", ">5", attrgetter("failed")),
                             ("recov", ">5", attrgetter("recoveries")),
                             ("maxrt", ">5",
                              attrgetter("max_recovery_ticks")))
    verdict = ("SERVE INVARIANT VIOLATIONS:", "all serving invariants held")


def _check_serve_trial(result: ServeResult, record: ServeChaosTrial,
                       budget_ticks: int, violations: list[str]) -> None:
    """Assert the per-trial serving invariants, appending violations."""
    prefix = f"trial {record.trial}"
    if record.invalid_decisions:
        violations.append(
            f"{prefix}: {record.invalid_decisions} invalid decisions "
            f"reached the serve boundary — the validation layer leaked")
    if record.served == 0:
        violations.append(
            f"{prefix}: the runtime served nothing — every request was "
            f"shed or failed, which no fault train here justifies")
    if result.min_level_served is not None and result.num_levels:
        if not (0 <= result.min_level_served
                and result.max_level_served < result.num_levels):
            violations.append(
                f"{prefix}: served levels "
                f"[{result.min_level_served}, {result.max_level_served}] "
                f"escape the V/f table [0, {result.num_levels})")
    if not record.conserved:
        violations.append(
            f"{prefix}: request conservation broken — submitted "
            f"{record.submitted} != served {record.served} + shed "
            f"{record.shed} + failed {record.failed}")
    if record.max_recovery_ticks > budget_ticks:
        violations.append(
            f"{prefix}: a worker outage took {record.max_recovery_ticks} "
            f"ticks to recover (budget {budget_ticks})")
    if record.unrecovered:
        violations.append(
            f"{prefix}: {record.unrecovered} worker(s) still down after "
            f"the drain window without being quarantined")
    if record.byte_stable is False:
        violations.append(
            f"{prefix}: export payload differs between serial and "
            f"parallel replay of the same seed")
    if record.bad_deadline_sheds:
        violations.append(
            f"{prefix}: {record.bad_deadline_sheds} deadline-class "
            f"request(s) shed while the system was under capacity")


def run_serve_chaos(arch: GPUArchConfig,
                    config: ServeChaosConfig | None = None, *,
                    model=None, store_root: str | Path | None = None,
                    workers: int | None = None,
                    stats: CampaignStats | None = None
                    ) -> ServeChaosResult:
    """Run the serve-chaos campaign; returns trial records + verdicts.

    ``model`` is an optional :class:`~repro.core.combined.SSMDVFSModel`
    pair (None certifies the governor-backed runtime, which keeps the
    smoke model-free); each trial rebuilds it from bytes so trials and
    determinism replays start from identical state.  ``store_root``
    hosts one store subdirectory per replay plus the crash-write
    torture victim.  The whole result is a pure function of
    ``(arch, config, model)``.
    """
    from ..serve import ServingRuntime
    config = config or ServeChaosConfig()
    stats = stats if stats is not None else CampaignStats()
    model_bytes = model.to_bytes() if model is not None else None
    root = Path(store_root) if store_root is not None else None
    policy_name = ("ssmdvfs+serve" if model is not None
                   else "governor+serve")
    result = ServeChaosResult(policy_name=policy_name,
                              streams=config.serve.streams,
                              num_workers=config.serve.num_workers,
                              seed=config.seed)

    def run(trial: int, seed: int, replay: bool) -> ServeResult:
        name = f"trial{trial:03d}" + ("-replay" if replay else "")
        trial_root = root / name if root is not None else None
        runtime = ServingRuntime(
            arch, config.serve.with_seed(seed),
            model=(SSMDVFSModel.from_bytes(model_bytes)
                   if model_bytes is not None else None),
            store_root=trial_root, workers=0 if replay else workers,
            stats=CampaignStats() if replay else stats)
        return runtime.run()

    def tally(trial: int, seed: int, serve: ServeResult,
              byte_stable: bool | None) -> ServeChaosTrial:
        record = ServeChaosTrial(
            trial=trial, seed=seed, fault_counts=dict(serve.fault_counts),
            submitted=serve.submitted, served=serve.served,
            shed=serve.shed, failed=serve.failed,
            conserved=serve.conserved, byte_stable=byte_stable,
            recoveries=len(serve.recovery_ticks),
            max_recovery_ticks=max(serve.recovery_ticks, default=0),
            quarantined=serve.quarantined,
            unrecovered=serve.unrecovered,
            invalid_decisions=serve.counters.get(
                "serve_invalid_decisions", 0),
            bad_deadline_sheds=sum(
                1 for shed in serve.shed_records
                if shed.deadline_class and shed.under_capacity))
        result.merge_counters(serve.counters)
        _check_serve_trial(serve, record, config.recovery_budget_ticks,
                           result.violations)
        return record

    run_trials(result, config, run, tally,
               root / "torture" if root is not None else None)
    return result
