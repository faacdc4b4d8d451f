"""Spans around the calls the benchmark makes into each layer.

Tracing is done from outside the program: :meth:`Tracer.install`
replaces a public function or method with a wrapper that records one
span per call, and :meth:`Tracer.restore` puts every original back.  A
module-level function is replaced at *every* import site, because
several modules bind names directly (``from repro.sched.state import
load_state``); the wrapper is installed wherever the original object
is bound in a loaded ``repro`` module.

Spans are kept in memory: name, start, end, parent and thread.  The
campaign service replays the journal on its own threads, so each thread
has its own span stack; a thread's outermost span takes as parent the
span open on the main thread at the time (the client request that
caused it).  Self time is a span's duration minus the durations of its
children on the same thread.
"""

from __future__ import annotations

import collections
import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Span record fields (kept as lists: cheap to build on hot paths).
NAME, START, END, PARENT, THREAD = range(5)

Hook = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = collections.Counter()
        self.series: Dict[str, List[float]] = collections.defaultdict(list)
        self._stacks: Dict[int, List[int]] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._installed: List[tuple] = []

    def reset(self) -> None:
        """Drop recorded spans and counters (wrappers stay installed)."""
        with self._lock:
            self.spans = []
            self.counts = collections.Counter()
            self.series = collections.defaultdict(list)
            self._stacks = {}

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and ident != self._main else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               ident])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installing wrappers.
    # ------------------------------------------------------------------
    def install(self, owner: Any, attr: str, name: str,
                hook: Optional[Hook] = None) -> None:
        """Wrap ``owner.attr`` (a class method or a module function)."""
        original = vars(owner)[attr]
        wrapper = self.wrap(name, original, hook)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [
                (module, key)
                for module in list(sys.modules.values())
                if module is not None
                and getattr(module, "__name__", "").split(".")[0] == "repro"
                for key, value in list(vars(module).items())
                if value is original
            ]
        for site, key in sites:
            setattr(site, key, wrapper)
            self._installed.append((site, key, original))

    def restore(self) -> None:
        """Put every wrapped original back, newest first."""
        while self._installed:
            site, key, original = self._installed.pop()
            setattr(site, key, original)

    @property
    def installed(self) -> int:
        return len(self._installed)

    # ------------------------------------------------------------------
    # Derived views.
    # ------------------------------------------------------------------
    def closed(self) -> List[list]:
        return [s for s in self.spans if s[END] is not None]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name (same-thread children only)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[PARENT]
            if (span[END] is not None and parent >= 0
                    and spans[parent][THREAD] == span[THREAD]):
                child_time[parent] += span[END] - span[START]
        totals: Dict[str, float] = collections.defaultdict(float)
        for index, span in enumerate(spans):
            if span[END] is not None:
                totals[span[NAME]] += (span[END] - span[START]
                                       - child_time[index])
        return dict(totals)

    def busy(self) -> Dict[str, float]:
        """Total inclusive time per span name."""
        totals: Dict[str, float] = collections.defaultdict(float)
        for span in self.closed():
            totals[span[NAME]] += span[END] - span[START]
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        return dict(collections.Counter(s[NAME] for s in self.closed()))

    def dump(self) -> List[dict]:
        """Spans as plain records (for writing out at exit)."""
        names = {}
        return [
            {"name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT],
             "thread": names.setdefault(s[THREAD], len(names))}
            for s in self.spans
        ]


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanContext":
        self._index = self._tracer.open(self._name)
        return self

    def __exit__(self, *_exc) -> None:
        self._tracer.close(self._index)


# ----------------------------------------------------------------------
# The layer boundaries the benchmark traces.
# ----------------------------------------------------------------------
def _count_cycles(tracer: Tracer, args: tuple, _result: Any) -> None:
    tracer.counts["core.run_cycles.cycles"] += args[1]


def _count_cache_hit(tracer: Tracer, _args: tuple, result: Any) -> None:
    if result is not None:
        tracer.counts["experiments.cache.hits"] += 1


def _count_append(tracer: Tracer, args: tuple, _result: Any) -> None:
    if args[1].get("event") == "requeue":
        tracer.counts["sched.worker.requeues"] += 1


def _count_records(tracer: Tracer, _args: tuple, result: Any) -> None:
    tracer.counts["sched.state.records_replayed"] += len(result)
    tracer.series["sched.state.replay_sizes"].append(len(result))


def _count_rebuild(tracer: Tracer, _args: tuple, _result: Any) -> None:
    tracer.counts["multicore.machine.rebuilds"] += 1


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary listed in ``NOTES.md``."""
    from repro.core import simulator
    from repro.experiments import cache, parallel
    from repro.multicore import alloc, driver, machine
    from repro.sched import journal, state, worker
    from repro.service import client
    from repro.workloads import images, mixes, synthetic

    # Import every module that binds one of the wrapped names first, so
    # the wrapper reaches all of its import sites.
    import repro.sched.campaign  # noqa: F401
    import repro.service.server  # noqa: F401

    sim = simulator.Simulator
    tracer.install(synthetic, "generate_program", "workloads.generate_program")
    tracer.install(mixes, "cached_program", "workloads.cached_program")
    tracer.install(images, "capture", "workloads.images.capture")
    tracer.install(images, "restore", "workloads.images.restore")
    tracer.install(sim, "functional_warmup", "isa.functional_warmup")
    tracer.install(parallel, "build_simulator", "core.build")
    tracer.install(machine, "build_core", "core.build", _count_rebuild)
    tracer.install(sim, "run_cycles", "core.run_cycles", _count_cycles)
    tracer.install(cache.ResultCache, "get", "experiments.cache.get",
                   _count_cache_hit)
    tracer.install(cache.ResultCache, "put", "experiments.cache.put")
    tracer.install(parallel, "execute_runs", "experiments.parallel")
    tracer.install(parallel.RunSpec, "key", "experiments.parallel.key")
    tracer.install(journal.JournalWriter, "append", "sched.journal.append",
                   _count_append)
    tracer.install(journal, "read_records", "sched.journal.read",
                   _count_records)
    tracer.install(state, "load_state", "sched.state.replay")
    tracer.install(worker.Worker, "claim_task", "sched.worker.claim")
    tracer.install(worker.Worker, "execute", "sched.worker.execute")
    tracer.install(worker.Worker, "finish_task", "sched.worker.finish")
    tracer.install(worker.Worker, "send_heartbeat", "sched.worker.heartbeat")
    for verb in ("submit", "status", "results"):
        tracer.install(client.ServiceClient, verb, f"service.client.{verb}")
    tracer.install(driver.OpenSystemDriver, "tick", "multicore.driver.tick")
    tracer.install(driver.OpenSystemDriver, "check_invariants",
                   "multicore.driver.check_invariants")
    for value in list(vars(alloc).values()):
        if (isinstance(value, type) and issubclass(value, alloc.Allocator)
                and "choose" in vars(value)):
            tracer.install(value, "choose", "multicore.alloc.choose")


# ----------------------------------------------------------------------
# Per-layer metrics of one traced campaign.
# ----------------------------------------------------------------------
#: Every per-layer metric, with its unit (BENCHMARK.json lists the same).
PER_LAYER = {
    "workloads.generate_program.calls": "count",
    "workloads.generate_program.busy_s": "s",
    "workloads.images.capture_s": "s",
    "workloads.images.restore_s": "s",
    "workloads.images.hit_ratio": "ratio",
    "isa.functional_warmup.busy_s": "s",
    "core.build.calls": "count",
    "core.build.busy_s": "s",
    "core.run_cycles.calls": "count",
    "core.run_cycles.cycles": "count",
    "core.run_cycles.busy_s": "s",
    "core.run_cycles.kcycles_per_s": "kcycles/s",
    "experiments.cache.get_s": "s",
    "experiments.cache.put_s": "s",
    "experiments.cache.hit_ratio": "ratio",
    "experiments.parallel.self_s": "s",
    "experiments.parallel.key_s": "s",
    "sched.journal.appends": "count",
    "sched.journal.bytes": "bytes",
    "sched.journal.append_s": "s",
    "sched.journal.read_s": "s",
    "sched.state.replays": "count",
    "sched.state.records_replayed": "count",
    "sched.state.replay_s": "s",
    "sched.state.records_per_task": "count",
    "sched.state.records_per_replay_first_quarter": "count",
    "sched.state.records_per_replay_last_quarter": "count",
    "sched.worker.claim_s": "s",
    "sched.worker.execute_s": "s",
    "sched.worker.finish_s": "s",
    "sched.worker.heartbeats": "count",
    "sched.worker.requeues": "count",
    "service.client.submit_rtt_s": "s",
    "service.client.status_rtt_s": "s",
    "service.client.results_rtt_s": "s",
    "service.client.retries": "count",
    "multicore.driver.tick_self_s": "s",
    "multicore.driver.check_invariants_s": "s",
    "multicore.alloc.choose_s": "s",
    "multicore.machine.rebuilds": "count",
    "host.probe_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_metrics(tracer: Tracer) -> Dict[str, float]:
    """Layer metrics of one traced set-up."""
    return {
        "workloads.generate_program.calls":
            tracer.calls().get("workloads.generate_program", 0),
        "workloads.generate_program.busy_s":
            tracer.busy().get("workloads.generate_program", 0.0),
    }


def campaign_metrics(tracer: Tracer, root: str, tasks: int) -> Dict[str, float]:
    """Layer metrics from the spans of one traced campaign.

    ``root`` names the benchmark's own span around the timed region;
    probe spans inside it are host-speed measurement, not campaign work,
    and are left out of the accounted wall time.
    """
    busy = tracer.busy()
    own = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def mean(name: str) -> float:
        return _ratio(busy.get(name, 0.0), calls.get(name, 0))

    wall = busy.get(root, 0.0) - busy.get("host.probe", 0.0)
    captures = calls.get("workloads.images.capture", 0)
    restores = calls.get("workloads.images.restore", 0)
    gets = calls.get("experiments.cache.get", 0)
    replays = calls.get("sched.state.replay", 0)
    records = counts.get("sched.state.records_replayed", 0)
    sizes = tracer.series["sched.state.replay_sizes"]
    quarter = max(1, len(sizes) // 4)
    run_busy = busy.get("core.run_cycles", 0.0)
    return {
        "workloads.images.capture_s": busy.get("workloads.images.capture", 0.0),
        "workloads.images.restore_s": busy.get("workloads.images.restore", 0.0),
        "workloads.images.hit_ratio": _ratio(restores, restores + captures),
        "isa.functional_warmup.busy_s": busy.get("isa.functional_warmup", 0.0),
        "core.build.calls": calls.get("core.build", 0),
        "core.build.busy_s": busy.get("core.build", 0.0),
        "core.run_cycles.calls": calls.get("core.run_cycles", 0),
        "core.run_cycles.cycles": counts.get("core.run_cycles.cycles", 0),
        "core.run_cycles.busy_s": run_busy,
        "core.run_cycles.kcycles_per_s": _ratio(
            counts.get("core.run_cycles.cycles", 0) / 1000.0, run_busy),
        "experiments.cache.get_s": busy.get("experiments.cache.get", 0.0),
        "experiments.cache.put_s": busy.get("experiments.cache.put", 0.0),
        "experiments.cache.hit_ratio": _ratio(
            counts.get("experiments.cache.hits", 0), gets),
        "experiments.parallel.self_s": own.get("experiments.parallel", 0.0),
        "experiments.parallel.key_s": busy.get("experiments.parallel.key", 0.0),
        "sched.journal.appends": calls.get("sched.journal.append", 0),
        "sched.journal.append_s": busy.get("sched.journal.append", 0.0),
        "sched.journal.read_s": busy.get("sched.journal.read", 0.0),
        "sched.state.replays": replays,
        "sched.state.records_replayed": records,
        "sched.state.replay_s": busy.get("sched.state.replay", 0.0),
        "sched.state.records_per_task": _ratio(records, tasks),
        "sched.state.records_per_replay_first_quarter": _ratio(
            sum(sizes[:quarter]), len(sizes[:quarter])),
        "sched.state.records_per_replay_last_quarter": _ratio(
            sum(sizes[-quarter:]), len(sizes[-quarter:])),
        "sched.worker.claim_s": busy.get("sched.worker.claim", 0.0),
        "sched.worker.execute_s": busy.get("sched.worker.execute", 0.0),
        "sched.worker.finish_s": busy.get("sched.worker.finish", 0.0),
        "sched.worker.heartbeats": calls.get("sched.worker.heartbeat", 0),
        "sched.worker.requeues": counts.get("sched.worker.requeues", 0),
        "service.client.submit_rtt_s": mean("service.client.submit"),
        "service.client.status_rtt_s": mean("service.client.status"),
        "service.client.results_rtt_s": mean("service.client.results"),
        "multicore.driver.tick_self_s": own.get("multicore.driver.tick", 0.0),
        "multicore.driver.check_invariants_s": busy.get(
            "multicore.driver.check_invariants", 0.0),
        "multicore.alloc.choose_s": busy.get("multicore.alloc.choose", 0.0),
        "multicore.machine.rebuilds": counts.get(
            "multicore.machine.rebuilds", 0),
        "host.probe_ms": mean("host.probe") * 1000.0,
        "trace.accounted_frac": 1.0 - _ratio(own.get(root, 0.0), wall),
    }
