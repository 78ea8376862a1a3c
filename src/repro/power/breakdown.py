"""Energy breakdown accounting.

Answers "where did the savings come from?" by splitting a run's energy
into the components the power model computes: instruction (EPI) energy,
clock-tree energy, cluster leakage, uncore static, DRAM traffic and L2
traffic.  DVFS can only shrink the V- and f-dependent slices; the
breakdown makes that headroom explicit per workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..gpu.cluster import EpochActivity
from .model import REFERENCE_VOLTAGE, PowerModel


@dataclass
class EnergyBreakdown:
    """Joules per component, accumulated over a run."""

    instruction_j: float = 0.0
    clock_j: float = 0.0
    cluster_leakage_j: float = 0.0
    uncore_static_j: float = 0.0
    dram_j: float = 0.0
    l2_j: float = 0.0

    COMPONENTS = ("instruction", "clock", "cluster_leakage",
                  "uncore_static", "dram", "l2")

    @property
    def total_j(self) -> float:
        """Sum over every component."""
        return (self.instruction_j + self.clock_j + self.cluster_leakage_j
                + self.uncore_static_j + self.dram_j + self.l2_j)

    def fraction(self, component: str) -> float:
        """One component's share of the total."""
        if component not in self.COMPONENTS:
            raise ConfigError(f"unknown component {component!r}")
        total = self.total_j
        if total <= 0:
            return 0.0
        return getattr(self, f"{component}_j") / total

    @property
    def dvfs_scalable_fraction(self) -> float:
        """Share of energy that V/f scaling can actually shrink.

        Instruction and clock energy scale with V^2 (and f through
        time); leakage scales with voltage.  Uncore static and traffic
        energy are frequency-invariant — the floor under any DVFS gain.
        """
        total = self.total_j
        if total <= 0:
            return 0.0
        return (self.instruction_j + self.clock_j
                + self.cluster_leakage_j) / total

    def add(self, other: "EnergyBreakdown") -> None:
        """Accumulate another breakdown in place."""
        self.instruction_j += other.instruction_j
        self.clock_j += other.clock_j
        self.cluster_leakage_j += other.cluster_leakage_j
        self.uncore_static_j += other.uncore_static_j
        self.dram_j += other.dram_j
        self.l2_j += other.l2_j

    def render(self) -> str:
        """One-line percentage rendering."""
        parts = [f"{name}={self.fraction(name):5.1%}"
                 for name in self.COMPONENTS]
        return ("[" + " ".join(parts)
                + f"] total={self.total_j * 1e3:.2f} mJ "
                + f"(DVFS-scalable {self.dvfs_scalable_fraction:.1%})")


def breakdown_for_epoch(activities: list[EpochActivity],
                        power_model: PowerModel,
                        duration_s: float) -> EnergyBreakdown:
    """Component energies of one epoch across all clusters."""
    if duration_s <= 0:
        raise ConfigError("duration must be positive")
    cfg = power_model.config
    breakdown = EnergyBreakdown()
    for activity in activities:
        vratio = activity.voltage_v / REFERENCE_VOLTAGE
        v2 = vratio * vratio
        inst_energy = sum(
            count * cfg.epi_table.get(cls, 0.0)
            for cls, count in activity.inst_by_class.items()) * v2
        clock_energy = (activity.cycles * cfg.clock_energy_per_cycle_j * v2)
        leak_power = cfg.cluster_leakage_w * (
            vratio ** cfg.leakage_voltage_exponent)
        breakdown.instruction_j += inst_energy
        breakdown.clock_j += clock_energy
        breakdown.cluster_leakage_j += leak_power * activity.duration_s
    dram_bytes = sum(a.dram_bytes for a in activities)
    l2_accesses = sum(a.l2_access for a in activities)
    breakdown.dram_j = dram_bytes * cfg.dram_energy_per_byte_j
    breakdown.l2_j = l2_accesses * cfg.l2_energy_per_access_j
    breakdown.uncore_static_j = cfg.uncore_static_w * duration_s
    return breakdown


def run_with_breakdown(simulator, policy,
                       max_epochs: int = 100_000) -> tuple:
    """Run a policy while accumulating the energy breakdown.

    Returns ``(run_result, breakdown)``.  The breakdown's total closely
    tracks the run's accounted energy (final-epoch truncation excepted).
    """
    from ..gpu.cluster import build_counters
    from ..gpu.counters import CounterSet
    from ..gpu.quantum import epoch_activities
    from ..gpu.simulator import EpochRecord, RunResult
    from .energy import EnergyAccount

    policy.reset(simulator)
    account = EnergyAccount()
    breakdown = EnergyBreakdown()
    epochs = 0
    while not simulator.finished:
        if epochs >= max_epochs:
            raise ConfigError("run exceeded the epoch budget")
        # Step the clusters through the epoch engine and recompute the
        # components from per-cluster activity records.
        start_time_s = simulator.time_s
        activities = epoch_activities(simulator.clusters, simulator.epoch_s)
        epoch_breakdown = breakdown_for_epoch(
            activities, simulator.power_model, simulator.epoch_s)
        breakdown.add(epoch_breakdown)
        account.add(epoch_breakdown.total_j, simulator.epoch_s)
        simulator.time_s += simulator.epoch_s
        simulator.epoch_index += 1
        epochs += 1
        if simulator.finished:
            break
        # Rebuild a record for the policy from the same activities.
        cluster_counters = []
        for activity in activities:
            power = simulator.power_model.cluster_power(activity)
            counters = build_counters(activity, simulator.arch)
            counters["power_per_core"] = power.total_w
            counters["power_dynamic"] = power.dynamic_w
            counters["power_static"] = power.static_w
            counters["energy_epoch"] = power.energy_j
            cluster_counters.append(counters)
        record = EpochRecord(
            index=epochs - 1, start_time_s=start_time_s,
            duration_s=simulator.epoch_s,
            levels=[c.level for c in simulator.clusters],
            counters=CounterSet.average(cluster_counters),
            cluster_counters=cluster_counters,
            instructions=sum(a.instructions for a in activities),
            cluster_energy_j=epoch_breakdown.total_j,
            uncore_energy_j=0.0,
            all_finished=all(a.finished for a in activities),
            finish_time_s=max(a.busy_s for a in activities))
        simulator.apply_decision(policy.decide(record))
    result = RunResult(policy_name=policy.name,
                       kernel_name=simulator.workload_name,
                       account=account, epochs=epochs, records=[])
    return result, breakdown
