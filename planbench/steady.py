"""Steadiness check: repeat every workload and compare each spread with its bound.

Run from the repository root::

    python3 planbench/steady.py --runs 10

Every workload in ``BENCHMARK.json`` runs ``--runs`` times for
``run_seconds``, with seeds 1, 2, ...; the workloads take turns (seed 1 of
each, then seed 2 of each, ...), so a slow stretch of the machine falls on
all of them alike.  For every end-to-end metric the command prints

* the spread: the distance between the first and third quartile of the
  runs (``statistics.quantiles(values, n=4)``) as a share of their median;
* the drift: how much worse the median of the later half of the runs is
  than the median of the earlier half, as a share of the earlier median.
  The halves are two sets of runs of the same code taken minutes apart.

Both are printed next to the metric's bound.  The command exits 1 when a run
is incorrect or fails an operation, or when a drift of any end-to-end metric
or a spread of any but ``setup_s`` reaches its bound.  The spread of
``setup_s`` is printed but not gated: a run's set-up is a few seconds of
CPU-bound install, and the host's speed moves in phases of about that
length, so even the median of five set-ups spread 28% over ten runs of
``bulk-hot-observed`` while the medians of two such sets of runs differed by
9%.  Set-up time is held to its bound through the drift.

Each workload's summary line also gives the range of the machine's steal
share over its runs (CPU time the hypervisor gave to something else while
the timed calls ran) and the spreads of the wall-clock figures each run
prints in its provenance line, which are reported, not gated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Wall-clock and tail figures of the provenance line whose spreads are shown.
REPORTED = ("plans_per_s", "latency_p50_us", "latency_p99_us", "call_cpu_p99_us")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "planbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    for line in lines:
        if line.startswith("provenance: "):
            provenance = json.loads(line[len("provenance: "):])
            result["steal_share"] = provenance["steal_share"]
            result["reported"] = {name: provenance[name] for name in REPORTED}
    return result


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def drift(values, better: str) -> float:
    """How much worse the later half's median is than the earlier half's."""
    half = len(values) // 2
    early, late = statistics.median(values[:half]), statistics.median(values[half:])
    return (late - early) / early if better == "lower" else (early - late) / early


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 to give quartiles")

    workloads = [w["name"] for w in spec["workloads"]]
    results = {workload: [] for workload in workloads}
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            result = run_once(workload, seed, spec["run_seconds"])
            print(json.dumps({"workload": workload, "seed": seed, **result}), flush=True)
            results[workload].append(result)
    return 0 if report(spec, results) else 1


def report(spec: dict, results: dict) -> bool:
    """Print spreads and drifts of ``results`` (runs per workload, in run
    order); True when every gated one is inside its bound."""
    healthy = True
    rows = []
    for workload, runs in results.items():
        if not all(r["correct"] and not r["failed"] for r in runs):
            healthy = False
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            share, moved = spread(values), drift(values, metric["better"])
            gated_share = share if metric["name"] != "setup_s" else 0.0
            if gated_share >= metric["bound"] or moved >= metric["bound"]:
                healthy = False
            rows.append((workload, metric["name"], statistics.median(values), share, moved,
                         metric["bound"], max(gated_share, moved) / metric["bound"]))
        reported = ", ".join(
            f"{name} median {statistics.median(v):.4g} spread {spread(v):.2%}"
            for name in REPORTED
            for v in [[r["reported"][name] for r in runs]]
        )
        steal = [r["steal_share"] for r in runs]
        print(
            f"# {workload}: failed share {sorted({r['failed'] / r['attempted'] for r in runs})}, "
            f"wall {sum(r['wall_s'] for r in runs):.0f} s, steal share {min(steal):.1%}-{max(steal):.1%}; "
            f"reported, not gated: {reported}"
        )

    print(f"{'workload':<20} {'metric':<16} {'median':>12} {'spread':>8} {'drift':>8} {'bound':>6} "
          f"{'gated/bound':>11}")
    for workload, name, median, share, moved, bound, worst in rows:
        print(f"{workload:<20} {name:<16} {median:>12.4g} {share:>8.2%} {moved:>8.2%} {bound:>6.2f} "
              f"{worst:>11.2f}")
    return healthy


if __name__ == "__main__":
    sys.exit(main())
