"""The wblow benchmark: seeded workloads run in a closed loop, verdicts checked.

Usage, from the root of a checkout (the library is imported from ``src``):

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

One caller in one process sends the next case only after the previous one
returned.  Each case is timed from the caller's side and its verdict checked
against an answer that does not come from the code under test (see
``workloads.py``).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs a fixed set of cases untraced, traced and profiled, and prints the
per-layer metrics (see ``tracing.py``).  Spans and the cProfile top-10 are
written to ``.bench_out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SOURCE = os.path.join(ROOT, "src")
OUT_DIR = ".bench_out"   # spans and profiles, under ROOT

SETUP_PROBES = 5          # fresh processes timed for setup_s; the median is reported
TRACE_BLOCKS = {"classify": 2, "lift": 20, "curves": 1}
TRACE_BUDGET_FACTOR = 4   # tracing and profiling slow every case down
EXIT_FAILED = 2


class BudgetExceeded(Exception):
    """Raised by SIGALRM when a case overruns its wall budget."""


def _overrun(signum, frame):
    raise BudgetExceeded()


def _import_library():
    """Import ``wblow`` from this checkout's ``src``, or exit without a result."""
    sys.path.insert(0, SOURCE)
    try:
        import wblow
    except ImportError as error:
        print(f"bench: cannot import wblow from {SOURCE}: {error}", file=sys.stderr)
        sys.exit(EXIT_FAILED)
    origin = os.path.dirname(os.path.dirname(os.path.abspath(wblow.__file__)))
    if origin != SOURCE:
        print(f"bench: wblow was imported from {origin}, not {SOURCE}", file=sys.stderr)
        sys.exit(EXIT_FAILED)
    return wblow


def setup_probe(workload: str, seed: int) -> None:
    """Body of one fresh set-up process: import and build the first block."""
    start = time.perf_counter()
    _import_library()
    from workloads import WORKLOADS
    WORKLOADS[workload].block(seed, 0)
    print(f"{time.perf_counter() - start:.9f}")


def measure_setup(workload: str, seed: int) -> List[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            sys.exit(EXIT_FAILED)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_case(workload, case, budget: Optional[float]):
    """Run one case; returns (outcome, seconds).  An overrun is timed at the budget."""
    from workloads import Outcome
    stdout, stderr = sys.stdout, sys.stderr
    start = time.perf_counter()
    if budget:
        signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        outcome = workload.run(case)
    except BudgetExceeded:
        outcome = Outcome(False, "overrun")
    except Exception as error:  # a library exception fails the case, not the run
        outcome = Outcome(False, f"error {type(error).__name__}: {error}")
    finally:
        if budget:
            signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout, sys.stderr = stdout, stderr
    elapsed = time.perf_counter() - start
    if outcome.verdict == "overrun":
        elapsed = budget
    return outcome, elapsed


def _digest(cases) -> str:
    sha = hashlib.sha256()
    for case in cases:
        sha.update(case.text.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _unexpected(case, outcome) -> bool:
    """A failure outside the documented defect strata means a wrong verdict."""
    if not outcome.ok and not case.known_defect:
        print(f"bench: case {case.id} ({case.family}) failed: {outcome.verdict}; "
              f"input {case.text}", file=sys.stderr)
        return True
    return False


def timed_run(workload, seed: int, seconds: float) -> Tuple[dict, dict]:
    setup = measure_setup(workload.name, seed)
    samples: List[float] = []
    attempted = failed = unexpected = 0
    loop_s = 0.0
    block = 0
    first_block = []
    first_verdicts: Dict[str, str] = {}
    consumed = hashlib.sha256()
    while loop_s < seconds:
        cases = workload.block(seed, block)
        consumed.update(_digest(cases).encode())
        start = time.perf_counter()
        for case in cases:
            outcome, elapsed = run_case(workload, case, workload.budget_s)
            samples.append(elapsed)
            attempted += 1
            failed += not outcome.ok
            unexpected += _unexpected(case, outcome)
            if block == 0:
                first_verdicts[case.id] = outcome.verdict
        loop_s += time.perf_counter() - start
        if block == 0:
            first_block = cases
        block += 1

    mismatched = []
    if workload.repeat_check:
        for case in first_block:
            if first_verdicts[case.id] != "overrun":
                outcome, _ = run_case(workload, case, workload.budget_s)
                if outcome.verdict != first_verdicts[case.id]:
                    mismatched.append(case.id)

    deciles = statistics.quantiles(samples, n=10)
    p90 = deciles[8]
    metrics = {
        "verdicts_per_s": (attempted / loop_s, "1/s"),
        "case_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "case_p90_ms": (p90 * 1e3, "ms"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {
        "workload": workload.name, "seed": seed, "blocks": block,
        "inputs_sha256": _digest(first_block), "consumed_sha256": consumed.hexdigest(),
        "samples": len(samples), "beyond_p90": sum(s > p90 for s in samples),
        "loop_s": loop_s, "failed": failed, "unexpected_failures": unexpected,
        "repeat_mismatches": mismatched, "budget_s": workload.budget_s,
        "setup_samples_s": setup,
    }
    result = {"correct": unexpected == 0 and not mismatched,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, detail


def _pass(workload, cases, budget, tracer=None):
    outcomes = []
    start = time.perf_counter()
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.case_id = index
        outcomes.append(run_case(workload, case, budget)[0])
        if tracer is not None:
            tracer.reset_stack()
    return outcomes, time.perf_counter() - start


def traced_run(workload, seed: int) -> Tuple[dict, dict]:
    from tracing import PER_LAYER_METRICS, Tracer
    cases = [case for block in range(TRACE_BLOCKS[workload.name])
             for case in workload.block(seed, block)]
    slow_budget = workload.budget_s and workload.budget_s * TRACE_BUDGET_FACTOR
    # the first untraced pass warms the interpreter up and is the verdict
    # reference; the overhead is timed against the second one
    reference, _ = _pass(workload, cases, slow_budget)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = _pass(workload, cases, slow_budget, tracer)
    finally:
        tracer.uninstall()
    plain, plain_s = _pass(workload, cases, slow_budget)

    profile = cProfile.Profile()
    profile.enable()
    try:
        _pass(workload, cases, slow_budget)
    finally:
        profile.disable()

    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}")
    tracer.write_spans(os.path.join(ROOT, stem + ".spans.csv.gz"))
    with open(os.path.join(ROOT, stem + ".profile.txt"), "w") as out:
        for order in ("tottime", "cumulative"):
            out.write(f"# cProfile top-10 by {order}, {len(cases)} cases\n")
            pstats.Stats(profile, stream=out).sort_stats(order).print_stats(10)

    mismatched = [case.id for case, *passes in zip(cases, reference, traced, plain)
                  if len({outcome.verdict for outcome in passes}) > 1]
    unexpected = sum(_unexpected(case, outcome) for case, outcome in zip(cases, traced))
    extra = {
        "resolve.charts": sum(o.counts.get("charts", 0) for o in traced),
        "resolve.blowups": sum(o.counts.get("blowups", 0) for o in traced),
        "cli.emit_bytes": sum(o.emitted for o in traced),
        "trace.overhead_ratio": traced_s / plain_s,
    }
    values = tracer.layer_metrics(extra)
    failed = sum(not o.ok for o in traced)
    result = {"correct": unexpected == 0 and not mismatched,
              "attempted": len(cases), "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in PER_LAYER_METRICS}}
    detail = {"workload": workload.name, "seed": seed, "cases": len(cases),
              "inputs_sha256": _digest(cases), "untraced_s": plain_s, "traced_s": traced_s,
              "trace_mismatches": mismatched, "spans_stored": tracer.stored,
              "spans_dropped": tracer.dropped, "spans": stem + ".spans.csv.gz",
              "profile": stem + ".profile.txt"}
    return result, detail


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("classify", "lift", "curves"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return

    _import_library()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _overrun)
    if args.trace:
        result, detail = traced_run(workload, args.seed)
    else:
        result, detail = timed_run(workload, args.seed, args.seconds)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
