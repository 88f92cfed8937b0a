#!/usr/bin/env python3
"""Benchmark of the ``hptools`` CLI: three fixed workloads, timed end to end
with tracing off, and per layer in a separate traced run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
same checkout and driven in-process through ``hptools.cli.main(argv)`` by one
closed-loop client (one call at a time, one thread).  A run sets up before
each pass and repeats whole passes of its workload until ``--seconds`` have
elapsed and p90 of each per-call latency has at least 10 samples beyond
it; it then sets up again until it has set up ``SETUP_REPEATS`` times.
Every time is taken at a reference speed (see ``workloads.Clock``) and
reported as a median over the repeats.  With ``--trace 1`` it then wraps
each module boundary (see ``tracer.py``) and runs two traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (commit, Python, nproc, load averages, pass times, failed
calls).  When the program cannot be imported the run exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Client, Clock  # noqa: E402

SETUP_REPEATS = 11
TRACED_PASSES = 2
LATENCY_COMMANDS = ("decompose", "verify")

# name -> unit; reported with --trace 0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; reported with --trace 1.  Names of the form
# <module>.<function>.<stat> and <module>.self_s come from the tracer.
PER_LAYER = {
    "hereditary.enumerate_property.self_s": "s",
    "hereditary.enumerate_property.yielded": "count",
    "hereditary.count_hrv.calls": "count",
    "hereditary.count_hrv.self_s": "s",
    "hereditary.count_hrv.accept_ratio": "ratio",
    "hereditary.speed.self_s": "s",
    "graphs.enumerate_labeled.self_s": "s",
    "graphs.enumerate_labeled.scanned": "count",
    "structure.decompose.calls": "count",
    "structure.decompose.self_s": "s",
    "structure.decompose.failed": "count",
    "structure.max_bad_set.self_s": "s",
    "structure.alpha_adjust.self_s": "s",
    "structure.verify_decomposition.self_s": "s",
    "structure.extract_universal_packing.calls": "count",
    "structure.extract_universal_packing.self_s": "s",
    "structure.extract_universal_packing.pieces": "count",
    "graphs.max_clique.calls": "count",
    "graphs.max_clique.self_s": "s",
    "graphs.induced_subgraph.self_s": "s",
    "freeness.find_uk_copy.calls": "count",
    "freeness.find_uk_copy.self_s": "s",
    "freeness.find_uk_copy.found_ratio": "ratio",
    "regularity.min_intra_edges_parts.calls": "count",
    "regularity.min_intra_edges_parts.self_s": "s",
    "regularity.toy_bbs_parts.calls": "count",
    "regularity.toy_bbs_parts.self_s": "s",
    "regularity.toy_szemeredi_partition.self_s": "s",
    "regularity.is_epsilon_regular.calls": "count",
    "regularity.is_epsilon_regular.self_s": "s",
    "freeness.count_uk_free_bipartite.self_s": "s",
    "freeness.count_uk_free_bipartite.patterns": "count",
    "freeness.count_uk_free_bipartite.patterns_per_s": "1/s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "graphs.graph6_decode.self_s": "s",
    "graphs.graph6_encode.self_s": "s",
    "universal.shatters.calls": "count",
    "universal.shatters.self_s": "s",
    "universal.shatters.found_ratio": "ratio",
    "structure.verify_packing_report.self_s": "s",
    "structure.verify_packing_maximality.self_s": "s",
    "cli.self_s": "s",
    "graphs.self_s": "s",
    "universal.self_s": "s",
    "hereditary.self_s": "s",
    "freeness.self_s": "s",
    "regularity.self_s": "s",
    "structure.self_s": "s",
    "trace.overhead_ratio": "ratio",
    # from the untraced passes of the same run
    "failed_ratio": "ratio",
    "decompose_p50_ms": "ms",
    "decompose_p90_ms": "ms",
    "decompose_samples": "count",
    "verify_p50_ms": "ms",
    "verify_p90_ms": "ms",
    "verify_samples": "count",
}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import ``hptools.cli`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules
                 if m == "hptools" or m.startswith("hptools.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("hptools.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import hptools from {SRC}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"hptools imported from {cli.__file__}, "
                             f"not from {SRC}")
    return cli


def read_commit() -> str:
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def latency_ms(client: Client, cmd: str) -> list[float]:
    return [scaled * 1000 for c, _, scaled in client.timed if c == cmd]


def latency_metrics(client: Client) -> dict:
    """Per-call latency of ``LATENCY_COMMANDS``; 0 with 0 samples on a
    workload that makes no such call."""
    out = {"failed_ratio": len(client.failures) / client.attempted}
    for cmd in LATENCY_COMMANDS:
        xs = latency_ms(client, cmd)  # long enough: see run()
        out[f"{cmd}_p50_ms"] = statistics.median(xs) if xs else 0.0
        out[f"{cmd}_p90_ms"] = statistics.quantiles(
            xs, n=10, method="inclusive")[-1] if xs else 0.0
        out[f"{cmd}_samples"] = len(xs)
    return out


def latency_short(client: Client) -> bool:
    """True while p90 of some per-call latency has fewer than 10 samples
    beyond it."""
    return any(xs and len(xs) - math.ceil(0.9 * len(xs)) < 10
               for xs in (latency_ms(client, cmd) for cmd in LATENCY_COMMANDS))


def pass_seconds(passes: list[list[tuple]], at_reference: bool = True) -> float:
    """Seconds of one pass: the sum, over the calls of a pass, of each
    call's median over ``passes``; at the reference speed, or as measured."""
    field = 2 if at_reference else 1
    return sum(statistics.median(call[field] for call in calls)
               for calls in zip(*passes))


def traced_passes(workload, client: Client,
                  untraced_wall: float) -> tuple[dict, list]:
    """Run ``TRACED_PASSES`` traced passes with ``client``.  Returns the
    per-layer metrics and the list of trace-check problems."""
    tracer = Tracer()
    passes, counters, values = [], [], []
    tracer.install()
    try:
        for _ in range(TRACED_PASSES):
            tracer.reset()
            n0 = len(client.timed)
            workload.run_pass(client)
            passes.append(client.timed[n0:])
            counters.append(tracer.counters())
            values.append({m: tracer.value(m) for m in PER_LAYER
                           if m.split(".")[0] in LAYERS})
    finally:
        tracer.uninstall()
    problems = []
    if any(c != counters[0] for c in counters[1:]):
        diff = sorted(q for q in counters[0]
                      if any(c[q] != counters[0][q] for c in counters[1:]))
        problems.append(f"counters differ across traced passes: {diff}")
    for q, c in counters[0].items():
        if q in workload.busy and (c["calls"] == 0 or tracer.stats[q].self_s <= 0):
            problems.append(f"{q} reads zero but should work on {workload.name}")
        if q not in workload.busy and c["calls"]:
            problems.append(f"{q} ran {c['calls']} times but should not "
                            f"run on {workload.name}")
    metrics = {m: statistics.median(v[m] for v in values) for m in values[0]}
    metrics["trace.overhead_ratio"] = pass_seconds(passes) / untraced_wall
    return metrics, problems


def run(args) -> dict:
    workload = WORKLOADS[args.workload]()
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": read_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }
    try:
        clock = Clock()
        setup, passes = [], []

        def set_up():
            shutil.rmtree(work, ignore_errors=True)
            clock.start()
            cli = import_program()
            work.mkdir(parents=True)
            workload.setup(work, args.seed)
            setup.append(clock.stop())
            return cli

        # a set-up before each pass, so that the set-up times sample the
        # machine across the whole run, not only at its start.
        # Passes go on past --seconds until p90 of each latency has 10
        # samples beyond it.
        client = Client(None, clock)
        start = perf_counter()
        while (not passes or perf_counter() - start < args.seconds
               or latency_short(client)):
            client.cli = set_up()
            n0 = len(client.timed)
            workload.run_pass(client)
            passes.append(client.timed[n0:])
        while len(setup) < SETUP_REPEATS:
            client.cli = set_up()
        wall = pass_seconds(passes)
        problems = []
        if args.trace:
            metrics = latency_metrics(client)
            traced, problems = traced_passes(workload, client, wall)
            metrics.update(traced)
        else:
            metrics = {
                "setup_s": statistics.median(scaled for _, scaled in setup),
                "wall_s": wall,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # not empty, or never made
    for problem in problems:
        print(f"TRACE CHECK: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    failures, attempted = client.failures, client.attempted
    record.update({
        "loadavg_end": loadavg(),
        "reference_s": {"min": min(clock.reference_s),
                        "median": statistics.median(clock.reference_s),
                        "max": max(clock.reference_s)},
        "passes": len(passes),
        "wall_s_measured": pass_seconds(passes, at_reference=False),
        "setup_s_measured": [seconds for seconds, _ in setup],
        "attempted": attempted, "failed": len(failures),
        "failed_ratio": len(failures) / attempted, "failures": failures,
        "trace_problems": problems,
    })
    print(json.dumps({"record": record}))
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("HPTOOLS_THREADS", None)
    sys.path.insert(0, str(SRC))
    try:
        result = run(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
