"""Planning benchmark: one workload per invocation.

Run from the repository root::

    python3 planbench/run.py --workload sharded-fresh --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures half
the time untraced and half traced and prints the per-layer metrics.  Both
print a provenance line, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric
names and units come from ``BENCHMARK.json`` at the repository root.

The benchmark builds nothing outside ``.bench_build/planbench`` in the
repository root: the native kernel cache, temporary files, saved bundles
and the run journal all live there, and each run removes its own files.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
BUILD = ROOT / ".bench_build" / "planbench"
#: Untraced/traced slice pairs in a traced run.
TRACE_SLICES = 4


def _prepare_environment() -> None:
    """Point the program's native build cache and temporary files into the build dir."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["ADSALA_NATIVE_CACHE"] = str(BUILD / "native")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    os.environ.pop("ADSALA_JOBS", None)
    sys.path.insert(0, str(SOURCE))


def _git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _native_stages() -> dict:
    from repro.ml import _native

    kernels = _native.load_kernels()
    if kernels is None:
        return {"library": False}
    return {
        "library": True,
        "fill": kernels.feature_fill is not None,
        "transform": kernels.fused_transform is not None,
        "descent": kernels.descent is not None,
        "fused_evaluate": kernels.fused_evaluate is not None,
        "svml_bridged": bool(kernels.svml_bridged),
    }


def _provenance(args, workload) -> dict:
    import numpy as np

    from workloads import INSTALL, SETUPS

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native": _native_stages(),
        "bundle": dict(INSTALL, routines="12 BLAS L3 keys"),
        "setups_timed": SETUPS,
        "setup_phases_s": workload.setups,
    }


def _child_pids() -> list:
    """Processes whose parent is this one, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name in parentheses may hold spaces; state and parent follow it.
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _stop_child_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    The shard workers end in ``ShardedFrontend.close()``.  The process
    backend's shared memory starts multiprocessing's resource tracker, which
    on its own ends only a moment after this process exits; it is stopped
    here.  Anything else still a child of this process is killed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def run(args) -> dict:
    from spans import Patches, Tracer
    from workloads import WORKLOADS, Phase, cpu_ticks, steal_share

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, BUILD / f"run-{os.getpid()}", tracer)
    try:
        provenance = {}
        workload.setup()
        # Garbage and objects left from set-up stay out of the timed phase.
        gc.collect()
        gc.freeze()
        ticks = cpu_ticks()
        if args.trace:
            # Untraced and traced slices alternate, so drift of the machine
            # falls on both halves alike.
            untraced, traced = Phase(), Phase()
            before = workload.layer_stats()
            for _ in range(TRACE_SLICES):
                workload.measure(args.seconds / (2 * TRACE_SLICES), phase=untraced)
                patches = Patches(tracer)
                workload.wrap_layers(patches)
                try:
                    workload.measure(args.seconds / (2 * TRACE_SLICES), traced=True, phase=traced)
                finally:
                    patches.restore()
            after = workload.layer_stats()
            phases = [untraced, traced]
        else:
            phases = [workload.measure(args.seconds)]
        workload.record_rss()
        gc.unfreeze()
        provenance["steal_share"] = steal_share(ticks, cpu_ticks())
        if args.trace and hasattr(workload, "compare_with_engine"):
            workload.compare_with_engine()
        problems = workload.check(phases)
        provenance.update(_provenance(args, workload))
        provenance["plans"] = sum(phase.plans for phase in phases)
        provenance["latency_samples"] = sum(len(phase.latency_ns) for phase in phases)
        provenance["oracle_speedup_gmean"] = workload.oracle_speedup_gmean(phases[0])
        provenance["problems"] = problems[:10]
        provenance["problem_count"] = len(problems)

        if args.trace:
            values = {name["name"]: 0.0 for name in names}
            values.update(workload.layers(tracer, phases, before, after))
            setups = workload.setups
            for key in ("install", "gather", "select", "persist", "compile", "start"):
                values[f"setup.{key}_s"] = sorted(s[key] for s in setups)[len(setups) // 2]
            values["rss.parent_mb"] = workload.rss["parent"]
            values["rss.workers_mb"] = workload.rss["workers"]
            values["trace.unattributed_us_per_plan"] = tracer.us("client") / traced.plans
            values["trace.bookkeeping_us_per_plan"] = tracer.bookkeeping_us() / traced.plans
            values["trace.overhead_pct"] = (untraced.rate() / traced.rate() - 1.0) * 100.0
            provenance["untraced_plans_per_s"] = untraced.rate()
            provenance["traced_plans_per_s"] = traced.rate()
        else:
            phase = phases[0]
            # Wall-clock figures are reported, not gated: on a VM whose host
            # steals CPU time in phases of minutes they follow the steal
            # share more than the program (README, "End-to-end metrics").
            provenance["plans_per_s"] = phase.rate()
            for q in (50, 90, 99):
                provenance[f"latency_p{q}_us"] = phase.latency_us(q)
            provenance["call_cpu_p99_us"] = phase.cpu_us(99)
            values = {
                "cpu_us_per_plan": phase.cpu_us_per_plan(),
                "call_cpu_p50_us": phase.cpu_us(50),
                "speedup_gmean": workload.speedup_gmean(phases),
                "setup_s": workload.setup_s(),
                "peak_rss_mb": workload.rss["parent"] + workload.rss["workers"],
            }
        unknown = set(values) - {name["name"] for name in names}
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        print("provenance: " + json.dumps(provenance, sort_keys=True))
        attempted = sum(phase.plans + phase.observations for phase in phases)
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": 0,
            "metrics": {
                name["name"]: {"value": float(values[name["name"]]), "unit": name["unit"]}
                for name in names
            },
        }
    finally:
        workload.finish()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SOURCE}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} not found", file=sys.stderr)
        return 2
    _prepare_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    finally:
        _stop_child_processes()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
