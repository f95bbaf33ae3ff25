"""Layered benchmark for polyconvex.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing needs building.  One process, one thread, one client in a
closed loop: the next op starts when the previous one has returned, so there
is no queue and no waiting time to report.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures for half
the time untraced and half traced, and prints the per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it repeat every
metric by name with its unit, plus the ungated ops_per_s, op_p50_ms and
error_rate, and the provenance.
Results and spans are also written under ``.perfbench_out/``.  See README.md
in this directory for the workloads and what each metric moves.
"""

from __future__ import annotations

import sys

# With an empty bytecode cache (set in main) and no writes to it, every
# set-up compiles the package from source, whatever __pycache__ holds.
sys.dont_write_bytecode = True

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace
from typing import NamedTuple

from tracing import PER_LAYER_UNITS, NullTracer, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("geometry", "polyfile", "fast_test", "oracles", "generator", "cli")
SETUPS = 12
P90_MIN_SAMPLES = 100

# Gated end-to-end metrics (BENCHMARK.json) and the ones only printed.
END_TO_END_UNITS = {"setup_s": "s", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
REPORTED_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "error_rate": "ratio"}


def load_package():
    """Import polyconvex from src/ afresh and return its modules."""
    for name in [m for m in sys.modules
                 if m == "polyconvex" or m.startswith("polyconvex.")]:
        del sys.modules[name]
    pkg = importlib.import_module("polyconvex")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"polyconvex imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"polyconvex.{name}")
                              for name in MODULES})


def set_up(workload, seed, workdir, traced):
    """Import the package and build the inputs; returns (pkg, tracer, state,
    inputs, preflight errors)."""
    pkg = load_package()
    tracer = Tracer(pkg) if traced else NullTracer()
    with tracer.op("setup"):
        state, inputs, errors = workload.setup(pkg, seed, workdir, tracer)
    return pkg, tracer, state, inputs, errors


class Loop(NamedTuple):
    samples: list  # (kind, ms) of every correct op
    attempted: int
    failed: int
    wall_s: float
    first_error: str | None

    @classmethod
    def join(cls, loops) -> "Loop":
        return cls([s for loop in loops for s in loop.samples],
                   sum(loop.attempted for loop in loops),
                   sum(loop.failed for loop in loops),
                   sum(loop.wall_s for loop in loops),
                   next((loop.first_error for loop in loops
                         if loop.first_error), None))

    @property
    def ops_per_s(self) -> float:
        return len(self.samples) / self.wall_s

    def op_p90_ms(self) -> float:
        """Each op kind's 90th percentile, averaged over the ops.

        A percentile over ops of very different kinds (a 0.2 ms random
        polygon and a 30 ms witness) lands in the middle of one kind and
        measures the mix; per kind it stays in each kind's slow tail.
        """
        by_kind = defaultdict(list)
        for kind, ms in self.samples:
            by_kind[kind].append(ms)
        return sum(len(times) * (statistics.quantiles(times, n=10)[-1]
                                 if len(times) > 1 else times[0])
                   for times in by_kind.values()) / max(1, len(self.samples))


def measure(workload, pkg, state, seconds, tracer) -> Loop:
    """Closed loop over whole rounds of ops until ``seconds`` have passed."""
    gc.collect()
    samples, attempted, failed, first_error = [], 0, 0, None
    start = perf_counter()
    deadline = start + seconds
    while True:
        for op in workload.cycle(pkg, state, tracer):
            attempted += 1
            try:
                t0 = perf_counter_ns()
                with tracer.op(op.kind):
                    result = op.run()
                elapsed = perf_counter_ns() - t0
                error = op.check(result)
            except Exception:  # a crashing op is a failed op; keep measuring
                error = traceback.format_exc()
            if error is None:
                samples.append((op.kind, elapsed / 1e6))
            else:
                failed += 1
                first_error = first_error or f"{op.kind}: {error}"
        if perf_counter() >= deadline:
            break
    return Loop(samples, attempted, failed, perf_counter() - start, first_error)


def plain_run(workload, seed, seconds, workdir):
    """SETUPS timed set-ups, each followed by an equal share of the measured
    loop, so that set-up and ops sample the same stretches of the run.  A
    share that overran its end by part of a round shortens the next one."""
    setup_s, loops, errors = [], [], []
    for share in range(1, SETUPS + 1):
        t0 = perf_counter()
        pkg, tracer, state, inputs, setup_errors = set_up(workload, seed, workdir,
                                                          traced=False)
        setup_s.append(perf_counter() - t0)
        errors += setup_errors
        loops.append(measure(workload, pkg, state, seconds * share / SETUPS
                             - sum(loop.wall_s for loop in loops), tracer))
        del pkg, tracer, state
    loop = Loop.join(loops)
    times = [ms for _, ms in loop.samples]
    per_kind = dict(Counter(kind for kind, _ in loop.samples))
    metrics = {
        "setup_s": statistics.quantiles(setup_s, n=4)[2],
        "op_p90_ms": loop.op_p90_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": loop.ops_per_s,
        "op_p50_ms": statistics.median(times) if times else 0.0,
    }
    extra = {"samples": len(times), "samples_per_kind": per_kind,
             "p90_kinds_below_min": sorted(kind for kind, count in per_kind.items()
                                           if count < P90_MIN_SAMPLES),
             "wall_s": loop.wall_s,
             "setup_s_each": setup_s, "samples_ms": loop.samples}
    return metrics, END_TO_END_UNITS, [loop], errors, inputs, extra, None


def traced_run(workload, seed, seconds, workdir):
    pkg, _, state, inputs, errors = set_up(workload, seed, workdir, traced=False)
    untraced = measure(workload, pkg, state, seconds / 2, NullTracer())
    del pkg, state
    pkg, tracer, state, _, traced_errors = set_up(workload, seed, workdir,
                                                  traced=True)
    traced = measure(workload, pkg, state, seconds / 2, tracer)
    metrics = tracer.layer_metrics(traced.attempted)
    metrics["trace.ops_per_s_untraced"] = untraced.ops_per_s
    metrics["trace.ops_per_s_traced"] = traced.ops_per_s
    metrics["trace.overhead_pct"] = 100 * (
        1 - traced.ops_per_s / untraced.ops_per_s)
    extra = {"samples_untraced": len(untraced.samples),
             "samples_traced": len(traced.samples), "spans": len(tracer.spans)}
    return (metrics, PER_LAYER_UNITS, [untraced, traced],
            errors + traced_errors, inputs, extra, tracer)


def provenance(workload, seed, seconds, trace, inputs):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "inputs": inputs,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
            "git_commit": git_commit(), "source_sha256": digest.hexdigest()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "polyconvex" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'polyconvex'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Look for bytecode only in this empty directory, never in src/.
    sys.pycache_prefix = str(workdir / "pycache")
    run = traced_run if args.trace else plain_run
    try:
        metrics, units, loops, errors, inputs, extra, tracer = run(
            workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops) + len(errors)
    failed = sum(loop.failed for loop in loops) + len(errors)
    for error in errors + [loop.first_error for loop in loops if loop.first_error]:
        print(f"error: {error}", file=sys.stderr)
    metrics["error_rate"] = failed / attempted
    info = provenance(args.workload, args.seed, args.seconds, args.trace, inputs)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**result, "reported": {name: metrics.get(name) for name in REPORTED_UNITS},
         **extra, "provenance": info}, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  inputs {json.dumps(inputs)}")
    for name, unit in {**units, **REPORTED_UNITS}.items():
        if name in metrics:
            print(f"  {name:<30} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"  op_p90_ms samples per kind: {extra['samples_per_kind']}")
        if extra["p90_kinds_below_min"]:
            print(f"  warning: op_p90_ms of {', '.join(extra['p90_kinds_below_min'])}"
                  f" rests on fewer than {P90_MIN_SAMPLES} samples", file=sys.stderr)
    print(f"  {failed} failed of {attempted} attempted; queue wait: none "
          f"(one client, closed loop, no queue)")
    print("  " + " ".join(f"{k}={v}" for k, v in extra.items()
                          if isinstance(v, (int, float))))
    print(f"  provenance {json.dumps(info)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
