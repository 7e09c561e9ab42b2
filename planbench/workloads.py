"""The two workloads: set-up, the closed client loop, checks and metrics.

Every workload serves the same bundle: the twelve BLAS Level 3 keys on the
``gadi`` preset, installed, saved and loaded again during set-up.  One
client thread drives the program through its public entry points only.

* ``bulk-hot-observed`` — ``ServingEngine.plan_many`` micro-batches drawn
  with the program's own skewed (1/rank) popularity from a pool that mostly
  fits the predictors' LRUs, every plan followed by ``record_observation``
  and two rows in an async ``RunJournal``: intake, fallback, LRU, plan
  assembly, telemetry and the journal do the work.
* ``sharded-fresh`` — bulk batches of fresh shapes through a process-backed
  ``ShardedFrontend`` with two shards: the frontend, the pipe codec, the
  worker round trip and, inside the workers, compiled model evaluation and
  simulator timing with every cache missed.  Its traced run also sends
  fresh batches through one in-process ``AdsalaRuntime``, to split the
  workers' engine time into layers.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import checks
from inputs import ROUTINES, FreshStream, SkewedPool, dim_names
from spans import Patches, Tracer

_now = time.perf_counter_ns

#: The installation campaign every workload sets up (``install_adsala`` keywords).
INSTALL = {
    "platform": "gadi",
    "n_samples": 80,
    "threads_per_shape": 14,
    "n_test_shapes": 30,
    "candidate_models": ["LinearRegression", "DecisionTree"],
    "seed": 0,
    "n_jobs": 1,
}
#: Timed set-ups per run; ``setup_s`` is their median.  Install is CPU-bound
#: and the host's speed moves in phases of seconds, so one set-up is noisy.
#: One more, untimed and with a small campaign, runs first so that imports,
#: the native kernel build and first-call costs land in none of them.
SETUPS = 5
WARMUP_INSTALL = dict(INSTALL, n_samples=8, threads_per_shape=4, n_test_shapes=4)
ROUTINE_INDEX = {routine: index for index, routine in enumerate(ROUTINES)}


def cpu_ticks():
    """(steal, total) jiffies of the machine from ``/proc/stat``, or None.

    Steal is time the hypervisor ran something else on this VM's CPUs.
    """
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def steal_share(before, after) -> float:
    """Share of the machine's CPU time stolen between two :func:`cpu_ticks`."""
    if before is None or after is None:
        return 0.0
    steal, total = (b - a for a, b in zip(before, after))
    return steal / total if total else 0.0


class Phase:
    """What one measured stretch of client calls did."""

    def __init__(self):
        self.latency_ns: List[int] = []
        #: CPU time of the program (every thread and shard worker) per call.
        self.cpu_ns: List[int] = []
        self.plans = 0
        self.observations = 0
        self.routine_idx: List[np.ndarray] = []
        self.dims: List[np.ndarray] = []
        self.threads: List[np.ndarray] = []
        self.problems: List[str] = []

    def rate(self) -> float:
        """Plans per second of call time."""
        return self.plans / sum(self.latency_ns) * 1e9

    def latency_us(self, q: float) -> float:
        """Percentile ``q`` of the call durations."""
        return float(np.percentile(np.asarray(self.latency_ns, dtype=np.float64), q)) / 1e3

    def cpu_us_per_plan(self) -> float:
        """The program's CPU time over every call, per plan."""
        return sum(self.cpu_ns) / self.plans / 1e3

    def cpu_us(self, q: float) -> float:
        """Percentile ``q`` of the program's CPU time per call."""
        return float(np.percentile(np.asarray(self.cpu_ns, dtype=np.float64), q)) / 1e3

    def keep(self, requests, plans) -> None:
        """Check one call's answer against its requests, then keep it compactly.

        Exactly one plan per request, in request order, echoing the
        request's routine and dims.
        """
        if len(plans) != len(requests):
            self.problems.append(f"{len(plans)} plans answered {len(requests)} requests")
            return
        routine_idx = np.empty(len(requests), dtype=np.int64)
        dims = np.zeros((len(requests), 3), dtype=np.int64)
        threads = np.empty(len(requests), dtype=np.int64)
        for row, ((routine, want), plan) in enumerate(zip(requests, plans)):
            if plan.routine != routine or plan.dims != want:
                self.problems.append(f"request {routine} {want} answered by {plan.routine} {plan.dims}")
            routine_idx[row] = ROUTINE_INDEX[routine]
            for col, name in enumerate(dim_names(routine)):
                dims[row, col] = want[name]
            threads[row] = plan.threads
        self.routine_idx.append(routine_idx)
        self.dims.append(dims)
        self.threads.append(threads)

    def arrays(self):
        return (
            np.concatenate(self.routine_idx),
            np.concatenate(self.dims),
            np.concatenate(self.threads),
        )


def _timed(phases: Dict[str, float], key: str, start_ns: int) -> None:
    phases[key] = phases.get(key, 0.0) + (_now() - start_ns) / 1e9


def _parent_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _task_cpu_ns(pid: int) -> int:
    """CPU time of every thread of process ``pid``, from ``/proc``.

    ``schedstat`` counts nanoseconds on a CPU; time the hypervisor stole
    from the virtual CPU is not in it.
    """
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        with open(task / "schedstat") as stat:
            total += int(stat.read().split()[0])
    return total


def _worker_hwm_mb(pid: int) -> float:
    """Peak resident size of a worker process, read from ``/proc``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


class Workload:
    """Set-up, client loop and checks shared by the workloads."""

    name = ""
    #: Client calls per block: requests are generated a block at a time,
    #: before the calls that use them.
    calls_per_block = 1

    def __init__(self, seed: int, workdir: Path, tracer: Optional[Tracer]):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.bundle = None
        self.setups: List[Dict[str, float]] = []
        self.rss = {"parent": 0.0, "workers": 0.0}
        self._setup_count = 0

    # -- set-up ------------------------------------------------------------------
    def _load_bundle(self, phases: Dict[str, float], campaign: dict):
        from repro import get_platform, install_adsala
        from repro.core.persistence import load_bundle, save_bundle

        config = dict(campaign, platform=get_platform(campaign["platform"]))
        start = _now()
        installed = install_adsala(routines=list(ROUTINES), **config)
        _timed(phases, "install", start)
        start = _now()
        directory = save_bundle(installed, self.workdir / f"bundle-{self._setup_count}")
        loaded = load_bundle(directory)
        _timed(phases, "persist", start)
        start = _now()
        for key in loaded.routines:
            loaded.predictor(key).compile()
        _timed(phases, "compile", start)
        return loaded

    def setup(self) -> None:
        """Run one untimed and :data:`SETUPS` timed set-ups; serve from the last."""
        patches = None
        if self.tracer is not None:
            import repro.core.install as install_mod

            patches = Patches(self.tracer)
            patches.wrap(install_mod.DataGatherer, "gather", "setup.gather")
            patches.wrap(install_mod.DataGatherer, "gather_test_set", "setup.gather")
            patches.wrap(install_mod, "fit_routine_installation", "setup.select")
        try:
            for repetition in range(SETUPS + 1):
                if repetition:
                    self.close()
                if self.tracer is not None:
                    self.tracer.reset()
                phases: Dict[str, float] = {}
                start = _now()
                self.bundle = self._load_bundle(phases, INSTALL if repetition else WARMUP_INSTALL)
                begin = _now()
                self.start()
                _timed(phases, "start", begin)
                _timed(phases, "total", start)
                if self.tracer is not None:
                    phases["gather"] = self.tracer.self_ns("setup.gather") / 1e9
                    phases["select"] = self.tracer.self_ns("setup.select") / 1e9
                if repetition:
                    self.setups.append(phases)
                self._setup_count += 1
        finally:
            if patches is not None:
                patches.restore()
                self.tracer.reset()

    def setup_s(self) -> float:
        return statistics.median(s["total"] for s in self.setups)

    # -- client loop ---------------------------------------------------------------
    def measure(self, seconds: float, traced: bool = False, phase: Optional[Phase] = None) -> Phase:
        """Run whole blocks of client calls until ``seconds`` have passed."""
        phase = phase if phase is not None else Phase()
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.bind_client()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            phase.plans += self.block(phase, tracer)
        return phase

    def _call(self, phase: Phase, tracer: Optional[Tracer], fn, *args, **kwargs):
        """One timed client call into the program (the trace's root span)."""
        workers = self.workers_cpu_ns()
        cpu = time.process_time_ns()
        frame = tracer.open("client") if tracer is not None else None
        start = _now()
        result = fn(*args, **kwargs)
        elapsed = _now() - start
        if frame is not None:
            tracer.close(frame)
        cpu = time.process_time_ns() - cpu
        phase.cpu_ns.append(cpu + self.workers_cpu_ns() - workers)
        phase.latency_ns.append(elapsed)
        return result

    def workers_cpu_ns(self) -> int:
        """CPU time of the program's worker processes so far."""
        return 0

    # -- result --------------------------------------------------------------------
    def check(self, phases: List[Phase]) -> List[str]:
        """Problems found in every phase's plans (empty = all correct)."""
        problems: List[str] = []
        for phase in phases:
            problems.extend(phase.problems)
            routine_idx, dims, threads = phase.arrays()
            problems.extend(checks.check_threads(self.bundle, routine_idx, dims, threads))
        routine_idx, dims, threads = phases[0].arrays()
        if not checks.self_test(self.bundle, routine_idx, dims, threads):
            problems.append("self-test: a perturbed thread count passed the oracle check")
        return problems

    def speedup_gmean(self, phases: List[Phase]) -> float:
        simulator = checks.speedup_simulator()
        values = [checks.speedups(simulator, *phase.arrays()) for phase in phases]
        return checks.gmean(np.concatenate(values))

    def oracle_speedup_gmean(self, phase: Phase, limit: int = 4096) -> float:
        """Best reachable speedup over the run's first ``limit`` plans."""
        routine_idx, dims, _ = phase.arrays()
        simulator = checks.speedup_simulator()
        return checks.gmean(
            checks.oracle_speedups(simulator, routine_idx[:limit], dims[:limit])
        )

    def record_rss(self) -> None:
        self.rss["parent"] = _parent_rss_mb()

    def close(self) -> None:
        """Release the serving objects of the current set-up."""

    def finish(self) -> None:
        self.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- tracing -------------------------------------------------------------------
    def wrap_layers(self, patches: Patches) -> None:
        """Put span wrappers around the public calls into each layer."""
        raise NotImplementedError

    def layer_stats(self) -> dict:
        """The serving objects' own counters, read before and after a traced phase."""
        raise NotImplementedError

    def layers(self, tracer: Tracer, phases: List[Phase], before: dict, after: dict) -> Dict[str, float]:
        """Per-layer metrics of a traced run.

        ``phases`` is ``[untraced, traced]``.  Span times are per plan of the
        traced phase; ratios and counts from the program's own statistics
        (``before``/``after`` the whole measurement) are per plan of both.
        """
        raise NotImplementedError

    def _wrap_engine(self, patches: Patches, engine) -> None:
        import repro.serving.engine as engine_mod

        patches.wrap(engine_mod, "normalize_request", "engine.intake")
        for method in ("plan", "plan_many", "record_observation"):
            patches.wrap(engine, method, "engine")
        patches.wrap(engine.fallback, "resolve", "fallback.resolve")
        telemetry = engine.telemetry
        patches.wrap(telemetry, "record_plan", "telemetry.record")
        patches.wrap(telemetry, "record_latency", "telemetry.record")
        patches.wrap(telemetry, "record_batch", "telemetry.batch")
        patches.wrap(telemetry, "record_observation", "telemetry.observe")
        for key in self.bundle.routines:
            predictor = self.bundle.predictor(key)
            patches.wrap(predictor, "plan_batch", "predictor")
            patches.wrap(
                predictor.compile(), "predict_runtimes_batch", "compiled.evaluate",
                items=lambda args: len(args[0]),
            )
        patches.wrap(
            self.bundle.simulator, "time_batch", "simulator.time", items=lambda args: len(args[2])
        )

    @staticmethod
    def _cache_layers(plans: int, before: dict, after: dict) -> Dict[str, float]:
        """Ratios from an engine's ``cache_statistics()`` (or a frontend's merge)."""

        def delta(*path):
            a, b = before, after
            for key in path:
                a, b = a[key], b[key]
            return b - a

        def ratio(hits, misses):
            return hits / (hits + misses) if hits + misses else 0.0

        return {
            "predictor.cache_hit_ratio": ratio(delta("cache_hits"), delta("cache_misses")),
            "predictor.evaluations_per_plan": delta("model_evaluations") / plans,
            "engine.timing_hit_ratio": ratio(delta("timing", "hits"), delta("timing", "misses")),
        }

    def _engine_layers(self, tracer: Tracer, plans: int, counted: int, before: dict, after: dict) -> Dict[str, float]:
        """Engine layers from spans over ``plans`` traced plans, and from
        cache statistics taken ``before``/``after`` ``counted`` plans."""
        batches = tracer.calls("telemetry.batch")
        evaluations = tracer.calls("compiled.evaluate")
        metrics = {
            "engine.intake_us_per_plan": tracer.us("engine.intake") / plans,
            "fallback.resolve_us_per_plan": tracer.us("fallback.resolve") / plans,
            "engine.self_us_per_plan": tracer.us("engine") / plans,
            "engine.batch_size_mean": plans / batches,
            "engine.groups_per_batch": tracer.calls("predictor") / batches,
            "predictor.self_us_per_plan": tracer.us("predictor") / plans,
            "telemetry.record_us_per_plan": (tracer.us("telemetry.record") + tracer.us("telemetry.batch")) / plans,
            "compiled.evaluate_us_per_plan": tracer.us("compiled.evaluate") / plans,
            "compiled.shapes_per_call": tracer.items("compiled.evaluate") / evaluations if evaluations else 0.0,
            "simulator.time_us_per_plan": tracer.us("simulator.time") / plans,
            "simulator.rows_per_plan": tracer.items("simulator.time") / plans,
        }
        metrics.update(self._cache_layers(counted, before, after))
        return metrics


class BulkHotObserved(Workload):
    """Skewed engine micro-batches with observations and a journal."""

    name = "bulk-hot-observed"
    calls_per_block = 64
    BATCH = 64
    #: ``pool_size`` of the program's skewed mix: a pool of 240 shapes, 1.25
    #: times the 192 slots of the twelve predictors' 16-entry LRUs, so the
    #: pool mostly fits.  An assumption, not measured traffic.
    POOL_SIZE = 60

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.pool = SkewedPool(seed, self.POOL_SIZE)
        self.observed = self._observed_times(seed)
        self.engine = None
        self.journal = None
        self.journal_path = None
        self.drain_s = 0.0
        self.journal_rows = 0
        self.served: List[np.ndarray] = []  # thread counts in the order served

    def _observed_times(self, seed: int) -> List[List[float]]:
        """Runtime of every pool shape at every thread count, from a simulator
        seeded apart from the bundle's: the stand-in for executing the call."""
        from repro import get_platform
        from repro.machine.simulator import TimingSimulator

        simulator = TimingSimulator(get_platform("gadi"), seed=1_000_003 + seed)
        threads = np.arange(1, simulator.platform.max_threads + 1)
        return [
            simulator.time_batch(routine, [dims], threads).tolist()
            for routine, dims in self.pool.requests
        ]

    def start(self) -> None:
        from repro import ServingEngine
        from repro.obs.journal import RunJournal

        self.engine = ServingEngine(self.bundle, max_batch_size=self.BATCH)
        self.journal_path = self.workdir / f"journal-{self._setup_count}.jsonl"
        self.journal = RunJournal(self.journal_path, async_writer=True)
        # Ready to serve: every pool shape planned once, so the LRUs hold
        # what fits of the pool before the clock starts.
        self.engine.plan_many(self.pool.requests)

    def _round(self, requests, indices):
        engine, journal, observed = self.engine, self.journal, self.observed
        plans = engine.plan_many(requests)
        for plan, index in zip(plans, indices):
            runtime = observed[index][plan.threads - 1]
            engine.record_observation(plan, runtime)
            journal.record_plan(
                plan.routine, plan.dims, plan.threads, plan.predicted_time,
                plan.baseline_time, plan.from_cache, plan.fallback_from, plan.policy,
            )
            journal.record_observation(
                plan.routine, plan.threads, plan.predicted_time, runtime, plan.baseline_time
            )
        return plans

    def block(self, phase: Phase, tracer) -> int:
        draws = self.pool.take(self.calls_per_block * self.BATCH).reshape(-1, self.BATCH)
        pool = self.pool.requests
        for indices in draws.tolist():
            requests = [pool[i] for i in indices]
            plans = self._call(phase, tracer, self._round, requests, indices)
            phase.keep(requests, plans)
            self.served.append(phase.threads[-1])
        phase.observations += draws.size
        return draws.size

    def close(self) -> None:
        if self.journal is not None:
            start = _now()
            self.journal.close()
            self.drain_s = (_now() - start) / 1e9
            self.journal = None

    def check(self, phases: List[Phase]) -> List[str]:
        from repro.obs.journal import read_journal

        problems = super().check(phases)
        plans = sum(phase.plans for phase in phases)
        issued = sum(phase.observations for phase in phases)
        counted = sum(r["observations"] for r in self.engine.stats()["routines"].values())
        if counted != issued:
            problems.append(f"engine counted {counted} observations, {issued} were recorded")
        self.close()
        rows = {"plan": 0, "observation": 0}
        journal_threads = []
        for row in read_journal(self.journal_path):
            rows[row["event"]] = rows.get(row["event"], 0) + 1
            if row["event"] == "plan":
                journal_threads.append(row["threads"])
        self.journal_rows = sum(rows.values())
        if rows["plan"] != plans or rows["observation"] != issued:
            problems.append(
                f"journal holds {rows['plan']} plan and {rows['observation']} observation "
                f"rows; {plans} and {issued} were written"
            )
        if not np.array_equal(np.asarray(journal_threads), np.concatenate(self.served)):
            problems.append("journal plan rows do not repeat the served thread counts in order")
        return problems

    def wrap_layers(self, patches: Patches) -> None:
        self._wrap_engine(patches, self.engine)
        patches.wrap(self.journal, "record_plan", "journal.enqueue")
        patches.wrap(self.journal, "record_observation", "journal.enqueue")

    def layer_stats(self) -> dict:
        return self.engine.cache_statistics()

    def layers(self, tracer, phases, before, after):
        metrics = self._engine_layers(tracer, phases[1].plans, sum(p.plans for p in phases), before, after)
        metrics.update({
            "telemetry.observe_us_per_observation": tracer.us("telemetry.observe") / phases[1].observations,
            "journal.enqueue_us_per_row": tracer.us("journal.enqueue") / tracer.calls("journal.enqueue"),
            "journal.drain_s": self.drain_s,
            "journal.rows": self.journal_rows,
        })
        return metrics


class ShardedFresh(Workload):
    """Bulk batches of fresh shapes through a two-shard process frontend."""

    name = "sharded-fresh"
    calls_per_block = 16
    BATCH = 128
    SHARDS = 2
    #: Batches sent through both the frontend and one in-process engine.
    ENGINE_COMPARISON = 48
    #: Batches then sent, traced, through the in-process engine alone.
    REPLICA_TRACED = 24

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.stream = FreshStream(seed, salt=0)
        self.warm = FreshStream(seed, salt=1)
        self.frontend = None
        self.engine_speedup = 0.0
        self.comparison = Phase()
        self.replica = Phase()
        self.replica_layers: Dict[str, float] = {}

    def start(self) -> None:
        from repro import ShardedFrontend

        self.frontend = ShardedFrontend.from_bundle(
            self.bundle, self.SHARDS, backend="process", max_batch_size=64
        )
        self.frontend.start()
        # Ready to serve: every worker spawned and every routine planned
        # once on every shard, on shapes the measured stream never uses.
        self.frontend.plan_many(_one_per_routine(self.warm, self.stream, self.SHARDS))

    def block(self, phase: Phase, tracer) -> int:
        for _ in range(self.calls_per_block):
            requests = self.stream.take(self.BATCH)
            plans = self._call(phase, tracer, self.frontend.plan_many, requests)
            phase.keep(requests, plans)
        return self.calls_per_block * self.BATCH

    def workers_cpu_ns(self) -> int:
        return sum(_task_cpu_ns(shard.worker_pid) for shard in self.frontend.shards)

    def record_rss(self) -> None:
        super().record_rss()
        self.rss["workers"] = sum(_worker_hwm_mb(shard.worker_pid) for shard in self.frontend.shards)

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
            self.frontend = None

    def compare_with_engine(self) -> None:
        """Compare the frontend with one in-process engine on the same stream.

        The engine sits behind an ``AdsalaRuntime`` (its default micro-batch
        is the workers' 64).  Fresh batches go through both, alternating
        which goes first, so drift of the machine falls on both alike; each
        side sees every shape once, and the two must choose the same thread
        counts.  The engine's call time over the frontend's is the
        frontend's speedup.  Then more fresh batches go through the engine alone
        with span wrappers on its layers: the workers' engines do the same
        work, but the parent cannot wrap calls inside them.
        """
        from repro import AdsalaRuntime

        runtime = AdsalaRuntime(self.bundle)
        engine_ns = frontend_ns = 0
        for call in range(self.ENGINE_COMPARISON):
            requests = self.stream.take(self.BATCH)
            order = [("engine", runtime.plan_many), ("frontend", self.frontend.plan_many)]
            if call % 2:
                order.reverse()
            answers, spent = {}, {}
            for side, plan_many in order:
                start = _now()
                answers[side] = plan_many(requests)
                spent[side] = _now() - start
            engine_ns += spent["engine"]
            frontend_ns += spent["frontend"]
            self.comparison.keep(requests, answers["frontend"])
            self.comparison.plans += len(requests)
            if [p.threads for p in answers["engine"]] != [p.threads for p in answers["frontend"]]:
                self.comparison.problems.append("engine and frontend chose different thread counts")
        self.engine_speedup = engine_ns / frontend_ns

        tracer = Tracer()
        patches = Patches(tracer)
        patches.wrap(runtime, "plan_many", "runtime.facade")
        self._wrap_engine(patches, runtime.engine)
        before = runtime.engine.cache_statistics()
        tracer.bind_client()
        try:
            for _ in range(self.REPLICA_TRACED):
                requests = self.stream.take(self.BATCH)
                plans = self._call(self.replica, tracer, runtime.plan_many, requests)
                self.replica.keep(requests, plans)
                self.replica.plans += len(requests)
        finally:
            patches.restore()
        after = runtime.engine.cache_statistics()
        plans = self.replica.plans
        self.replica_layers = self._engine_layers(tracer, plans, plans, before, after)
        self.replica_layers["runtime.facade_us_per_plan"] = tracer.us("runtime.facade") / plans

    def check(self, phases: List[Phase]) -> List[str]:
        extra = [p for p in (self.comparison, self.replica) if p.plans]
        return super().check(phases + extra)

    def wrap_layers(self, patches: Patches) -> None:
        import repro.serving.frontend as frontend_mod
        import repro.serving.procshard as procshard_mod

        patches.wrap(self.frontend, "plan_many", "frontend")
        patches.wrap(frontend_mod, "normalize_request", "frontend.intake")
        patches.wrap(procshard_mod, "encode_requests", "procshard.encode", items=lambda args: len(args[0]))
        patches.wrap(procshard_mod, "decode_plans", "procshard.decode")
        for shard in self.frontend.shards:
            patches.wrap(
                shard, "execute", f"procshard.execute.{shard.index}", items=lambda args: len(args[0])
            )

    def layer_stats(self) -> dict:
        return self.frontend.stats()

    def layers(self, tracer, phases, before, after):
        plans = phases[1].plans
        micro_batches = tracer.calls("procshard.encode")
        executes = [f"procshard.execute.{index}" for index in range(self.SHARDS)]
        per_shard = [tracer.items(name) for name in executes]

        def latency(stats, field):
            return sum(entry["latency"][field] for entry in stats["routines"].values())

        worker_plans = latency(after, "count") - latency(before, "count")
        # Engine layers come from the traced in-process replica; counts and
        # ratios the workers report themselves replace the replica's.
        metrics = dict(self.replica_layers)
        metrics.update({
            "frontend.intake_us_per_plan": tracer.us("frontend.intake") / plans,
            "frontend.self_us_per_plan": tracer.us("frontend") / plans,
            "procshard.encode_us_per_plan": tracer.us("procshard.encode") / plans,
            "procshard.decode_us_per_plan": tracer.us("procshard.decode") / plans,
            "procshard.roundtrip_us_per_batch": sum(tracer.us(name) for name in executes) / micro_batches,
            "shard.engine_us_per_plan": (latency(after, "sum") - latency(before, "sum")) * 1e6 / worker_plans,
            "frontend.batch_size_mean": tracer.items("procshard.encode") / micro_batches,
            "frontend.shard_balance": min(per_shard) / max(per_shard),
            "supervisor.restarts": after["supervision"]["restarts"],
            "frontend.speedup_vs_engine": self.engine_speedup,
            "engine.batch_size_mean": (after["requests"] - before["requests"])
            / (after["batches"] - before["batches"]),
        })
        metrics.update(self._cache_layers(sum(p.plans for p in phases), before["cache"], after["cache"]))
        return metrics


def _one_per_routine(warm: FreshStream, measured: FreshStream, shards: int):
    """Warm-up requests: one fresh shape per routine and shard.

    The shapes are drawn from their own stream and marked as seen in the
    measured stream, so no measured request repeats one.
    """
    from repro.serving.frontend import shard_index

    wanted = {(routine, shard) for routine in ROUTINES for shard in range(shards)}
    requests = []
    while wanted:
        for routine, dims in warm.take(4 * len(wanted)):
            shard = shard_index(routine, tuple(sorted(dims.items())), shards)
            if (routine, shard) in wanted:
                wanted.discard((routine, shard))
                requests.append((routine, dims))
    for routine, dims in requests:
        measured.seen.add(measured.key(routine, dims))
    return requests


WORKLOADS = {cls.name: cls for cls in (BulkHotObserved, ShardedFresh)}
