"""Span recorder for the traced benchmark run.

The tracer wraps coarse public entry points of each layer of the
``repro`` package from the outside: the program itself is unchanged.
A wrapped call records one span ``[name, start_ns, end_ns, parent]``
in memory; :meth:`Tracer.summary` turns the spans into per-layer
inclusive and self times after the run.

Names imported with ``from x import f`` are rebound in every loaded
``repro`` module that holds the same object, so a wrapper sees the
calls made through ``repro.gpu.simulator.run_epoch_batch`` as well as
through ``repro.gpu.quantum.run_epoch_batch``.

Process-pool children are forked, so spans they record never reach
the parent.  ``parallel_map`` is therefore timed from the parent, and
its task callable is wrapped in :class:`TimedTask`, which returns the
task's own duration alongside its result.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, attribute path, span name) of every wrapped entry point.
#: A dotted attribute path names a method; two targets may share one
#: span name (snapshot + restore count as one layer operation).
TARGETS = (
    ("repro.gpu.quantum", "run_epoch_batch", "gpu.run_epoch_batch"),
    ("repro.gpu.interval_model", "solve_throughput_batch",
     "gpu.solve_throughput_batch"),
    ("repro.gpu.interval_model", "SolutionCache.probe_batch",
     "gpu.solution_cache.probe"),
    ("repro.gpu.simulator", "GPUSimulator.snapshot", "gpu.snapshot_restore"),
    ("repro.gpu.simulator", "GPUSimulator.restore", "gpu.snapshot_restore"),
    ("repro.power.model", "PowerModel.cluster_power_batch",
     "power.cluster_power_batch"),
    ("repro.datagen.cache", "cached_dataset", "datagen.cached_dataset"),
    ("repro.datagen.protocol", "generate_chunks_for_suite",
     "datagen.generate_chunks_for_suite"),
    ("repro.datagen.dataset", "DVFSDataset.from_breakpoint_chunks",
     "datagen.from_breakpoint_chunks"),
    ("repro.datagen.dataset", "DVFSDataset.save", "datagen.dataset_save"),
    ("repro.datagen.dataset", "DVFSDataset.load", "datagen.dataset_load"),
    ("repro.nn.trainer", "fit", "nn.fit"),
    ("repro.core.pipeline", "build_from_dataset", "core.build_from_dataset"),
    ("repro.core.controller", "SSMDVFSController.decide",
     "core.controller.decide"),
    ("repro.core.guarded", "GuardedController.decide", "core.guarded.decide"),
    ("repro.core.decision_maker", "DecisionMaker.predict_levels",
     "core.decision_maker.predict_levels"),
    ("repro.core.calibrator", "Calibrator.predict_instructions_batch",
     "core.calibrator.predict_instructions_batch"),
    ("repro.core.drift", "RollbackManager.recover", "core.drift.recover"),
    ("repro.baselines.pcstall", "PCSTALLPolicy.decide",
     "baselines.pcstall.decide"),
    ("repro.baselines.flemma", "FLEMMAPolicy.decide",
     "baselines.flemma.decide"),
    ("repro.evaluation.experiments", "run_fig4", "evaluation.run_fig4"),
    ("repro.evaluation.runner", "compare_policies",
     "evaluation.compare_policies"),
    ("repro.evaluation.cache", "cached_comparison",
     "evaluation.cached_comparison"),
    ("repro.serve.runtime", "ServingRuntime.run", "serve.run"),
    ("repro.serve.online", "OnlineCalibrator.maybe_update",
     "serve.online.maybe_update"),
    ("repro.store", "ArtifactStore.put", "store.put"),
    ("repro.store", "ArtifactStore.get", "store.get"),
    ("repro.store", "atomic_write_bytes", "store.atomic_write"),
    ("repro.parallel", "parallel_map", "parallel.map"),
    ("repro.fleet.scheduler", "ClusterScheduler.run", "fleet.run"),
)

#: Every span name, in report order.
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class TimedTask:
    """Picklable task wrapper: returns ``(result, duration_ns)``."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, task):
        start = time.perf_counter_ns()
        result = self.fn(task)
        return result, time.perf_counter_ns() - start


class Tracer:
    """In-memory span recorder with per-layer aggregation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: (perf_counter_ns, name, amount) of counted quantities.
        self.events: list[tuple[int, str, int]] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, time.perf_counter_ns(), 0,
                      stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
        return wrapper

    def _wrap_atomic_write(self, fn):
        def counted(path, data, *args, **kwargs):
            self.events.append((time.perf_counter_ns(),
                                "store.bytes_written", len(data)))
            return fn(path, data, *args, **kwargs)
        return functools.wraps(fn)(counted)

    def _wrap_parallel_map(self, fn):
        from repro.parallel import resolve_workers

        def timed_map(task_fn, tasks, **kwargs):
            tasks = list(tasks)
            workers = min(resolve_workers(kwargs.get("workers")),
                          max(1, len(tasks)))
            start = time.perf_counter_ns()
            pairs = fn(TimedTask(task_fn), tasks, **kwargs)
            now = time.perf_counter_ns()
            self.events += [(now, "parallel.tasks", len(pairs)),
                            (now, "parallel.busy_ns",
                             sum(ns for _, ns in pairs)),
                            (now, "parallel.capacity_ns",
                             (now - start) * workers)]
            return [result for result, _ in pairs]
        return functools.wraps(fn)(timed_map)

    def install(self) -> None:
        """Wrap every target and rebind it wherever it was imported."""
        import importlib
        for module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    setattr(cls, attr,
                            classmethod(self._wrap(original.__func__, name)))
                else:
                    setattr(cls, attr, self._wrap(original, name))
                continue
            original = getattr(module, path)
            inner = original
            if name == "store.atomic_write":
                inner = self._wrap_atomic_write(inner)
            elif name == "parallel.map":
                inner = self._wrap_parallel_map(inner)
            wrapped = self._wrap(inner, name)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapped)

    # -- aggregation -----------------------------------------------------
    def _inside(self, start_s: float, end_s: float):
        """Indices of the spans inside the window [start_s, end_s]."""
        lo, hi = int(start_s * 1e9), int(end_s * 1e9)
        return [index for index, (_, start, end, _) in enumerate(self.spans)
                if start >= lo and end <= hi]

    def summary(self, start_s: float, end_s: float) -> dict:
        """Per-span inclusive/self seconds and calls of the spans inside
        a ``perf_counter`` window, plus the window time no span covers."""
        inside = self._inside(start_s, end_s)
        child_ns = [0] * len(self.spans)
        root_ns = 0
        for index in inside:
            _, start, end, parent = self.spans[index]
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                root_ns += end - start
        totals = {name: [0, 0, 0] for name in SPAN_NAMES}
        for index in inside:
            name, start, end, _ = self.spans[index]
            entry = totals[name]
            entry[0] += end - start
            entry[1] += end - start - child_ns[index]
            entry[2] += 1
        out = {}
        for name, (incl, self_ns, calls) in totals.items():
            out[f"{name}.s"] = incl / 1e9
            out[f"{name}.self_s"] = self_ns / 1e9
            out[f"{name}.calls"] = calls
        out["trace.uncovered_s"] = max(0.0, end_s - start_s - root_ns / 1e9)
        out["trace.spans"] = len(inside)
        lo, hi = int(start_s * 1e9), int(end_s * 1e9)
        counted = {"store.bytes_written": 0, "parallel.tasks": 0,
                   "parallel.busy_ns": 0, "parallel.capacity_ns": 0}
        for when, name, amount in self.events:
            if lo <= when <= hi:
                counted[name] += amount
        out["store.bytes_written"] = counted["store.bytes_written"]
        out["parallel.tasks"] = counted["parallel.tasks"]
        capacity = counted["parallel.capacity_ns"]
        out["parallel.busy_frac"] = (counted["parallel.busy_ns"] / capacity
                                     if capacity else 0.0)
        return out

    def durations_us(self, name: str, start_s: float,
                     end_s: float) -> list[float]:
        """Per-call durations of one span name inside a window, in us."""
        return [(self.spans[i][2] - self.spans[i][1]) / 1e3
                for i in self._inside(start_s, end_s)
                if self.spans[i][0] == name]
