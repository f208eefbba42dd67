"""Run one benchmark workload, check its outcome, print its metrics.

From the repository root::

    python3 perfbench/run.py --workload fabric-steady --seed 1 \\
        --seconds 10 --trace 0

The run repeats set-up plus one timed call for ``--seconds`` seconds
(at least three times). ``pps`` is the total over the repetitions, the
other metrics are medians over them. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
first repeats untraced for half the time, then installs the layer
wrappers of ``spans.py`` and repeats traced for the other half, and
prints the per-layer metrics. Every repetition's simulated outcome is
reduced to a digest; a digest that differs from the recorded reference
(``reference.json``), from the other repetitions, or from the serial
run a process-backend run simulates fails the run. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (offered packets, over all repetitions, and those in
repetitions that failed a check) and ``metrics``. The exit code is 0
only when the run is correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
MIN_REPS = 3
#: Settings that would change the engines' hot path; the benchmark
#: always measures the defaults.
PROGRAM_ENV = ("REPRO_ENGINE_CLASSIFIER", "REPRO_ENGINE_CERTIFY")

END_TO_END = {"pps": "pkt/s", "setup_s": "s", "peak_rss_mb": "MB",
              "drop_share": "fraction"}
PER_LAYER = {
    **spans.layer_units(),
    "engine.batches": "count",
    "engine.packets_per_batch": "pkt/batch",
    "engine.cache_hit_share": "fraction",
    "engine.compiled_share": "fraction",
    "engine.scalar_share": "fraction",
    "engine.compile_rebuilds": "count",
    "sim.events_per_packet": "event/pkt",
    "trace.overhead": "ratio",
}


@dataclass
class Rep:
    setup_s: float
    run_s: float
    outcome: workloads.Outcome


def pps(reps: List[Rep]) -> float:
    """Offered packets completed per host second of the timed calls.

    Summed over the repetitions, not a median of per-repetition rates:
    the host's speed can switch between two levels for seconds at a
    time, and a median then jumps to whichever level most repetitions
    met, where the sum moves with the share of time spent in each."""
    return (sum(r.outcome.offered for r in reps)
            / sum(r.run_s for r in reps))


def measure(workload, seed: int, seconds: float, min_reps: int,
            tracer: Optional[spans.Tracer] = None) -> List[Rep]:
    """Set up and run the workload ``min_reps`` times, then again as
    long as another repetition, as long as the last, ends within
    ``seconds`` of the start."""
    reps: List[Rep] = []
    deadline = perf_counter() + seconds
    last = 0.0
    while len(reps) < min_reps or perf_counter() + last < deadline:
        begin = perf_counter()
        gc.collect()
        if tracer is None:
            t0 = perf_counter()
            prepared = workload.setup(seed)
            t1 = perf_counter()
            result = workload.run(prepared)
            t2 = perf_counter()
        else:
            tracer.begin_run()
            t0 = perf_counter()
            prepared = tracer.span(spans.SETUP, workload.setup, seed)
            t1 = perf_counter()
            result = tracer.span(spans.TIMED, workload.run, prepared)
            t2 = perf_counter()
            tracer.end_run()
        reps.append(Rep(t1 - t0, t2 - t1,
                        workload.outcome(prepared, result, not reps)))
        del prepared, result
        last = perf_counter() - begin
    return reps


def reference_digest(name: str, seed: int) -> Optional[str]:
    """The digest recorded for this workload and seed, if any."""
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as f:
        digests = json.load(f)["digests"]
    name = workloads.REFERENCE_OF.get(name, name)
    return digests.get(name, {}).get(str(seed))


def check(reps: List[Rep], expected: Optional[str]):
    """(failed packets, problems): a repetition fails on a digest
    other than ``expected`` (or, without one, the first repetition's)
    or one that broke an invariant in any repetition."""
    baseline = expected or reps[0].outcome.digest
    broken = {rep.outcome.digest for rep in reps if rep.outcome.problems}
    failed = 0
    problems: List[str] = []
    for i, rep in enumerate(reps):
        faults = list(rep.outcome.problems)
        if rep.outcome.digest != baseline:
            faults.append(f"digest {rep.outcome.digest[:16]} != "
                          f"{baseline[:16]}")
        elif rep.outcome.digest in broken and not faults:
            faults.append("same digest as a repetition that broke an "
                          "invariant")
        if faults:
            failed += rep.outcome.offered
            problems += [f"repetition {i}: {fault}" for fault in faults]
    return failed, problems


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS, plus ``workers`` times the largest
    peak among its finished child processes (an upper bound on the
    workers' sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def end_to_end(reps: List[Rep], workers: int) -> Dict[str, float]:
    return {
        "pps": pps(reps),
        "setup_s": statistics.median(r.setup_s for r in reps),
        "peak_rss_mb": peak_rss_mb(workers),
        "drop_share": statistics.median(
            r.outcome.dropped / r.outcome.offered for r in reps),
    }


def per_layer(tracer: spans.Tracer, untraced: List[Rep],
              traced: List[Rep]) -> Dict[str, float]:
    metrics = tracer.metrics()
    levels = {key: statistics.median(r.outcome.engine[key] for r in traced)
              for key in traced[0].outcome.engine}
    packets = levels["packets"]
    share = (lambda n: n / packets) if packets else (lambda n: 0.0)
    scalar = (packets - levels["early_drops"] - levels["reconfig_flushes"]
              - levels["cache_hits"] - levels["compiled_hits"])
    offered = statistics.median(r.outcome.offered for r in traced)
    metrics.update({
        "engine.batches": levels["batches"],
        "engine.packets_per_batch": (packets / levels["batches"]
                                     if levels["batches"] else 0.0),
        "engine.cache_hit_share": share(levels["cache_hits"]),
        "engine.compiled_share": share(levels["compiled_hits"]),
        "engine.scalar_share": share(scalar),
        "engine.compile_rebuilds": levels["compile_rebuilds"],
        "sim.events_per_packet": metrics["sim.events"] / offered,
        "trace.overhead": pps(traced) / pps(untraced),
    })
    return metrics


def git_commit() -> Optional[str]:
    """HEAD of the repository holding this benchmark, if it is one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the program's Python sources (paths and contents),
    which identifies the code where there is no git history."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for file in sorted(files):
            if file.endswith(".py"):
                path = os.path.join(folder, file)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def stamp(name: str, seed: int, seconds: float, trace: bool,
          workload) -> Dict:
    return {
        "workload": name, "seed": seed,
        "params": asdict(workload.params), "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def bench(name: str, seed: int, seconds: float, trace: bool,
          tiny: bool = False, expected: Optional[str] = None) -> Dict:
    """Measure and check one workload; returns the result document
    (``result``: the benchmark's last output line, plus ``stamp``,
    per-repetition ``reps``, the ``reference`` digest, ``problems``
    and, traced, the ``tracer``).

    ``expected`` overrides the digest every repetition must match;
    by default it is the recorded reference (full-size runs only)."""
    for var in PROGRAM_ENV:
        os.environ.pop(var, None)
    workload = workloads.make(name, tiny)
    workers = getattr(workload.params, "workers", None) or 0
    if expected is None and not tiny:
        expected = reference_digest(name, seed)
    tracer = None
    if trace:
        untraced = measure(workload, seed, seconds / 2, 2)
        tracer = spans.Tracer()
        tracer.install(parent_only=workers > 0)
        try:
            traced = measure(workload, seed, seconds / 2, 2, tracer)
        finally:
            tracer.uninstall()
        reps = untraced + traced
        metrics = per_layer(tracer, untraced, traced)
        units = PER_LAYER
    else:
        reps = measure(workload, seed, seconds, MIN_REPS)
        metrics = end_to_end(reps, workers)
        units = END_TO_END
    if expected is None and name in workloads.REFERENCE_OF:
        # No recorded reference: the run must reproduce the serial
        # simulation of the same fabric, tenants and seed.
        serial = workloads.make(workloads.REFERENCE_OF[name], tiny)
        expected = measure(serial, seed, 0, 1)[0].outcome.digest
    failed, problems = check(reps, expected)
    result = {
        "correct": failed == 0,
        "attempted": sum(r.outcome.offered for r in reps),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit}
                    for m, unit in units.items()},
    }
    return {"result": result,
            "stamp": stamp(name, seed, seconds, trace, workload),
            "reps": [{"setup_s": r.setup_s, "run_s": r.run_s,
                      "offered": r.outcome.offered,
                      "digest": r.outcome.digest} for r in reps],
            "reference": expected, "problems": problems, "tracer": tracer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int,
                        default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import repro
    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        parser.error(f"the program under {ROOT}/src is missing "
                     f"(repro imports from {repro.__file__})")

    doc = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    result = doc["result"]
    os.makedirs(OUT, exist_ok=True)
    base = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}")
    with open(base + ".json", "w") as f:
        json.dump({key: doc[key] for key in
                   ("stamp", "reps", "reference", "problems", "result")},
                  f, indent=1)
    if doc["tracer"] is not None:
        doc["tracer"].write(os.path.join(OUT, f"{args.workload}.spans"))

    print("stamp " + json.dumps(doc["stamp"], sort_keys=True))
    for problem in doc["problems"]:
        print(f"FAILED {problem}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
