"""The benchmark's four workloads, each run inside this one process.

Every workload builds its inputs from the seed alone, sets up (program
generation, plus a server for ``served-campaign``), then runs fixed-size
*campaigns* against throwaway state, one after another, until the
measuring time is spent.  All timed work is chained through a
:class:`~measure.HostClock`, so every unit carries its host-speed
correction factor.  Verification runs after the timed region and never
inside it.

Why these four (one line each, also in BENCHMARK.json):

* ``policy-sweep``: cold-cache serial ``execute_runs`` over distinct
  configs; the core loop and emulator do nearly all the work and warm
  images are pure overhead (every image is captured, none reused).
* ``mshr-sweep``: the Section-7 MSHR sensitivity batch; every warm state
  is restored three times out of four, so warm images pay off here.
* ``served-campaign``: one client, an in-process campaign server on a
  Unix socket and an in-process worker; tiny runs, so journal replay,
  leases and socket round trips dominate.
* ``alloc-open``: the multicore open system; many short ``run_cycles``
  calls and frequent core rebuilds instead of long stretches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Tuple

from measure import HostClock

#: Re-run this many seeded units of each campaign on the reference path.
REFERENCE_SAMPLES = 3

#: Policies of the paper's Figure 5/6 comparison, all at ``.2.8``.
POLICIES = ("RR", "BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN")


@dataclass
class Campaign:
    """What one timed campaign produced."""

    clock: HostClock
    #: Per-unit latencies the caller waited on, ``(raw_s, factor)``.
    latencies: List[Tuple[float, float]]
    committed: int
    digest: str
    attempted: int
    failed: int
    #: Everything verification needs (results, directories, ...).
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: Whether the campaign ran with the layer wrappers installed.
    traced: bool = False


@dataclass
class Checks:
    """Verification outcome: how many checks passed, and what failed."""

    failures: List[str] = field(default_factory=list)
    passed: int = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    @property
    def attempted(self) -> int:
        return self.passed + len(self.failures)


def seeded_order(seed: int, specs: List[Any]) -> List[Any]:
    """The batch in the order the seed picks.

    The seed changes the order runs are submitted, executed and
    reported in, never the set of runs: the work per campaign, and so
    every speed metric, is then the same for every seed."""
    specs = list(specs)
    random.Random(seed).shuffle(specs)
    return specs


def digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_fields(result: Any) -> Dict[str, Any]:
    return dataclasses.asdict(result)


def mismatched_fields(expected: Dict[str, Any],
                      actual: Dict[str, Any]) -> List[str]:
    """Names of the fields whose values differ (missing counts too)."""
    return sorted(
        name for name in set(expected) | set(actual)
        if expected.get(name, object()) != actual.get(name, object())
    )


def reference_result(spec: Any) -> Any:
    """Re-run one spec on the reference path: the per-cycle ``step()``
    loop and a functional warmup from scratch (no warm image)."""
    from repro.experiments.parallel import build_simulator

    sim = build_simulator(spec)
    sim.use_fast_step = False
    budget = spec.budget
    return sim.run(
        warmup_cycles=budget.warmup_cycles,
        measure_cycles=budget.measure_cycles,
        functional_warmup_instructions=budget.functional_warmup_instructions,
    )


def check_against_reference(checks: Checks, specs: List[Any],
                            results: List[Any], rng: random.Random,
                            label: str) -> None:
    for index in sorted(rng.sample(range(len(specs)),
                                   min(REFERENCE_SAMPLES, len(specs)))):
        got = results[index]
        if got is None:
            checks.expect(False, f"{label}[{index}]: no result")
            continue
        bad = mismatched_fields(result_fields(reference_result(specs[index])),
                                result_fields(got))
        checks.expect(not bad, f"{label}[{index}]: fields differ "
                               f"from the reference path: {bad}")


# ----------------------------------------------------------------------
class Workload:
    """Common shape: seeded inputs, repeatable setup, timed campaigns."""

    name = ""

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self._campaigns = 0

    def programs(self) -> Iterable[Tuple[str, int]]:
        """``(profile, generator seed)`` of every program set-up makes:
        all eight profiles.  Every workload runs programs of the default
        generator seed; the benchmark seed picks how they are combined."""
        from repro.workloads.profiles import profile_names

        return [(name, 0) for name in profile_names()]

    def setup(self, final: bool) -> None:
        """One set-up: generate every program the workload needs.

        Non-final set-ups regenerate the programs directly (they only
        exist to time set-up again); the final one goes through the
        shared program cache the campaigns read.
        """
        from repro.workloads.mixes import cached_program
        from repro.workloads.profiles import PROFILES
        from repro.workloads.synthetic import generate_program

        for name, seed in sorted(set(self.programs())):
            if final:
                cached_program(name, seed)
            else:
                generate_program(PROFILES[name], seed=seed)

    def prepare(self) -> None:
        """Untimed work before each campaign."""

    def campaign(self, clock: HostClock) -> Campaign:
        raise NotImplementedError

    def verify(self, campaign: Campaign, checks: Checks) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop anything set-up started."""

    def detail(self, campaign: Campaign) -> Dict[str, Any]:
        """Diagnostics for the detail line: the campaign's scalar outputs."""
        return {k: v for k, v in campaign.outputs.items()
                if isinstance(v, (int, float))}

    def layer_counts(self, campaign: Campaign) -> Dict[str, float]:
        """Per-layer counts measured by the workload, not by spans."""
        return {
            "sched.journal.bytes": campaign.outputs.get("journal_bytes", 0),
            "service.client.retries": campaign.outputs.get("retries", 0),
        }

    def fresh_dir(self, stem: str) -> str:
        self._campaigns += 1
        path = os.path.join(self.scratch, f"{stem}{self._campaigns}")
        os.makedirs(path)
        return path


class _Sweep(Workload):
    """A serial cold-cache ``execute_runs`` batch."""

    def specs(self) -> List[Any]:
        raise NotImplementedError

    def campaign(self, clock: HostClock) -> Campaign:
        from repro.experiments import parallel
        from repro.experiments.cache import ResultCache
        from repro.workloads import images

        specs = self.specs()
        cache = ResultCache(self.fresh_dir("cache"))
        images.clear()
        laps_before = len(clock.laps)
        clock.restart()
        results = parallel.execute_runs(
            specs, jobs=1, use_cache=True, cache=cache,
            progress=lambda _progress: clock.lap(),
        )
        clock.lap()
        # Lap 0 is the cache scan and the last one the return; the laps
        # between are one simulated run each.
        laps = clock.laps[laps_before:]
        failed = sum(1 for r in results if r is None)
        return Campaign(
            clock=clock,
            latencies=laps[1:1 + len(specs)],
            committed=sum(r.committed for r in results if r is not None),
            digest=digest([result_fields(r) if r is not None else None
                           for r in results]),
            attempted=len(specs),
            failed=failed,
            outputs={"specs": specs, "results": results,
                     "cache_hits": cache.hits,
                     "image_hits": images.hits,
                     "image_misses": images.misses},
        )

    def verify(self, campaign: Campaign, checks: Checks) -> None:
        out = campaign.outputs
        checks.expect(out["cache_hits"] == 0,
                      f"cold campaign served {out['cache_hits']} cache hits")
        check_against_reference(checks, out["specs"], out["results"],
                                random.Random(self.seed), self.name)


class PolicySweep(_Sweep):
    name = "policy-sweep"
    #: Short runs: the functional warmup and the core loop share the
    #: time much as in a ``--fast`` figure sweep.
    budget = dict(warmup_cycles=250, measure_cycles=900,
                  functional_warmup_instructions=3000, rotations=1)

    def specs(self):
        from repro.core.config import scheme
        from repro.experiments.parallel import RunSpec
        from repro.experiments.runner import RunBudget

        budget = RunBudget(**self.budget)
        return seeded_order(self.seed, [
            RunSpec(config=scheme(policy, 2, 8, n_threads=threads),
                    rotation=i % 8, budget=budget)
            for i, (policy, threads) in enumerate(
                (p, t) for p in POLICIES for t in (2, 4, 8))
        ])


class MshrSweep(_Sweep):
    name = "mshr-sweep"
    budget = dict(warmup_cycles=250, measure_cycles=800,
                  functional_warmup_instructions=3000, rotations=1)
    counts = (1, 4, 16, 32)

    def specs(self):
        from repro.core.config import scheme
        from repro.experiments.parallel import RunSpec
        from repro.experiments.runner import RunBudget

        budget = RunBudget(**self.budget)
        base = scheme("ICOUNT", 2, 8, n_threads=8)
        return seeded_order(self.seed, [
            RunSpec(config=base, rotation=r, budget=budget,
                    dcache_mshrs=count)
            for count in self.counts
            for r in range(4)
        ])


# ----------------------------------------------------------------------
class ServedCampaign(Workload):
    """Closed loop, one client: submit, drain in-process, then a burst."""

    name = "served-campaign"
    #: Tiny runs: 50 measured cycles.  The 200-instruction functional
    #: warmup only preloads the L3: from a cold machine no instruction
    #: commits within the first few hundred cycles.
    budget = dict(warmup_cycles=0, measure_cycles=50,
                  functional_warmup_instructions=200, rotations=1)
    burst = 200
    #: Worker steps / requests per host-speed probe.
    group = 8

    def specs(self):
        from repro.core.config import scheme
        from repro.experiments.parallel import RunSpec
        from repro.experiments.runner import RunBudget

        budget = RunBudget(**self.budget)
        return seeded_order(self.seed, [
            RunSpec(config=scheme(p, 2, 8, n_threads=t), rotation=r,
                    budget=budget)
            for p in POLICIES for t in (1, 2, 4) for r in range(4)
        ])

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self._server = None
        self.retries = 0

    def setup(self, final: bool) -> None:
        super().setup(final)
        self._stop_server()
        self._start_server()
        if not final:
            self._stop_server()

    def _start_server(self) -> None:
        from repro.service.server import ServerThread

        directory = self.fresh_dir("campaign")
        # A relative socket path stays under the 108-byte limit however
        # deep the checkout is.
        self._socket = os.path.relpath(os.path.join(directory, "s.sock"))
        self._directory = directory
        self._server = ServerThread(directory, unix_path=self._socket,
                                    use_env_token=False).start()

    def _stop_server(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None

    def close(self) -> None:
        self._stop_server()

    def _count_retry(self, delay: float) -> None:
        self.retries += 1
        time.sleep(delay)

    def prepare(self) -> None:
        if self._server is None:  # a later campaign: a fresh journal
            self._start_server()

    def campaign(self, clock: HostClock) -> Campaign:
        from repro.sched.journal import journal_path
        from repro.sched.worker import Worker
        from repro.service.client import ServiceClient, ServiceError

        specs = self.specs()
        retries = self.retries
        client = ServiceClient(self._socket, sleep=self._count_retry)
        worker = Worker(self._directory, worker_id="perfbench")
        latencies: List[Tuple[float, float]] = []
        failed_requests = 0

        def timed(call: Callable[[], Any], group: List[float]) -> Any:
            nonlocal failed_requests
            started = time.perf_counter()
            try:
                return call()
            except ServiceError:
                failed_requests += 1
                return None
            finally:
                group.append(time.perf_counter() - started)

        def close_group(group: List[float]) -> None:
            _raw, factor = clock.lap()
            latencies.extend((raw, factor) for raw in group)
            group.clear()

        clock.restart()
        group: List[float] = []
        timed(lambda: client.submit(specs), group)
        close_group(group)
        steps = 0
        while worker.step():
            steps += 1
            if steps % self.group == 0:
                clock.lap()
        clock.lap()
        report = timed(client.results, group)
        close_group(group)
        for i in range(self.burst):
            timed(client.status, group)
            if (i + 1) % self.group == 0:
                close_group(group)
        if group:
            close_group(group)
        self._stop_server()
        rows = (report or {}).get("tasks", [])
        done = [row for row in rows if row.get("state") == "done"]
        return Campaign(
            clock=clock,
            latencies=latencies,
            committed=sum(row["result"]["committed"] for row in done),
            digest=digest(report),
            attempted=len(specs) + 2 + self.burst,
            failed=len(specs) - len(done) + failed_requests,
            outputs={"specs": specs, "report": report,
                     "directory": self._directory, "steps": steps,
                     "tasks": len(specs),
                     "retries": self.retries - retries,
                     "journal_bytes": os.path.getsize(
                         journal_path(self._directory))},
        )

    def verify(self, campaign: Campaign, checks: Checks) -> None:
        from repro.experiments.cache import result_from_dict
        from repro.experiments.export import fabric_report_bytes
        from repro.sched.campaign import campaign_report

        out = campaign.outputs
        report = out["report"]
        if report is None:
            checks.expect(False, "no report fetched over the socket")
            return
        local = campaign_report(out["directory"], rerun_missing=False)
        checks.expect(fabric_report_bytes(local)
                      == fabric_report_bytes(report),
                      "socket report differs from the in-process report")
        by_key = {row["key"]: row for row in report["tasks"]}
        specs = out["specs"]
        results = [
            result_from_dict(by_key[spec.key()]["result"])
            if by_key.get(spec.key(), {}).get("result") else None
            for spec in specs
        ]
        check_against_reference(checks, specs, results,
                                random.Random(self.seed), self.name)


# ----------------------------------------------------------------------
class AllocOpen(Workload):
    """The multicore open system, driven one quantum at a time.

    A campaign runs a fixed set of open systems, one per arrival seed in
    :attr:`systems`, in the order the benchmark seed picks.  Arrival
    processes differ in the work they cause (the host time of one open
    system moves by about 10% from one arrival seed to the next), so a
    fixed set keeps the work the same for every benchmark seed, as in
    the sweeps.
    """

    name = "alloc-open"
    systems = (1, 2, 3)
    jobs = 12
    service_instructions = 1500
    rate_per_kcycle = 2.0
    #: Driver ticks per host-speed probe.
    group = 10
    #: Whole systems re-run on the reference path by verification.
    reference_systems = 2

    def run_spec(self, arrival_seed: int):
        from repro.core.config import scheme
        from repro.multicore.driver import ArrivalConfig, MulticoreRunSpec

        return MulticoreRunSpec(
            n_cores=2, allocator="PAIRING",
            config=scheme("ICOUNT", 2, 8, n_threads=4),
            seed=arrival_seed,
            arrival=ArrivalConfig(
                jobs=self.jobs, rate_per_kcycle=self.rate_per_kcycle,
                service_instructions=self.service_instructions,
                seed=arrival_seed),
        )

    def run_specs(self):
        return seeded_order(self.seed,
                            [self.run_spec(s) for s in self.systems])

    def campaign(self, clock: HostClock) -> Campaign:
        from repro.multicore.driver import OpenSystemDriver

        specs = self.run_specs()
        latencies: List[Tuple[float, float]] = []
        group: List[float] = []

        def close_group() -> None:
            _raw, factor = clock.lap()
            latencies.extend((raw, factor) for raw in group)
            group.clear()

        results = []
        clock.restart()
        for spec in specs:
            driver = OpenSystemDriver(spec)
            while not driver.done() and driver.clock < spec.max_cycles:
                started = time.perf_counter()
                driver.tick()
                group.append(time.perf_counter() - started)
                if len(group) == self.group:
                    close_group()
            results.append(driver.result())
        close_group()
        documents = [result.to_dict() for result in results]
        return Campaign(
            clock=clock,
            latencies=latencies,
            committed=sum(job.committed for result in results
                          for job in result.jobs),
            digest=digest(documents),
            attempted=sum(result.jobs_total for result in results),
            failed=sum(result.jobs_total - result.jobs_completed
                       for result in results),
            outputs={"specs": specs, "documents": documents,
                     "ticks": len(latencies)},
        )

    def verify(self, campaign: Campaign, checks: Checks) -> None:
        from repro.multicore.driver import OpenSystemDriver

        # The reference path for a seeded sample of whole systems: the
        # per-cycle step() loop on every core the driver builds.
        out = campaign.outputs
        rng = random.Random(self.seed)
        for index in sorted(rng.sample(range(len(out["specs"])),
                                       self.reference_systems)):
            os.environ["REPRO_NO_FAST_STEP"] = "1"
            try:
                reference = OpenSystemDriver(out["specs"][index]).run()
            finally:
                del os.environ["REPRO_NO_FAST_STEP"]
            bad = mismatched_fields(reference.to_dict(),
                                    out["documents"][index])
            checks.expect(not bad, f"{self.name}[{index}]: fields differ "
                                   f"from the reference path: {bad}")


WORKLOADS = {cls.name: cls for cls in
             (PolicySweep, MshrSweep, ServedCampaign, AllocOpen)}
