#!/usr/bin/env python3
"""santagap benchmark: time to answer seeded queries, end to end and per layer.

    python3 bench/run.py --workload gap-random --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload four-phase --seed 1 --trace 1 --smoke

One run is one workload in one fresh process with one client in a closed
loop.  It imports santagap from ``src/``, builds the workload's seeded
batch of queries (set-up), then answers the batch in passes, as many
whole passes as fit in ``--seconds`` and at least one, clearing the eta
cache before each pass.  Every answer of the first pass is then checked
against an independent oracle.  Times are scaled by a speed probe (see
``probe``).

``--trace 1`` then answers the batch once more with every layer function
wrapped (see tracing.py) and once more without, prints per-layer calls,
times and domain counts, and fails if the layer self-check does.
``--smoke`` shrinks the batch to a few queries.  The last line of stdout
is the JSON result; the exit code is nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 3
COLD_STARTS = 3
# Seconds the speed probe takes on the machine that defined the benchmark,
# and the seconds of queries between two probes.
PROBE_REF_S = 0.04
PROBE_EVERY_S = 1.0
# Queries per batch.  At the commit that defined the benchmark (2-core
# x86 VM, python 3.11) one pass takes about 20 s on gap-random, 15-20 s
# on two-value and 2-3 s on four-phase, whose set-up costs more than
# its queries.
BATCH = {"gap-random": 200, "two-value": 120, "four-phase": 600}
SMOKE_BATCH = {"gap-random": 4, "two-value": 3, "four-phase": 24}


def tail_percentile(n: int) -> float:
    """The highest of p99.9, p99, p95 and p90 with at least ten of n queries
    beyond it by nearest rank, else p50.  It depends only on the batch size,
    so a faster program does not change which percentile is reported."""
    for pct in (99.9, 99.0, 95.0, 90.0):
        if n - int(-(-n * pct // 100)) >= 10:
            return pct
    return 50.0


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many values lie beyond it."""
    ordered = sorted(values)
    idx = max(0, -int(-len(ordered) * pct // 100) - 1)
    return ordered[idx], len(ordered) - idx - 1


def probe() -> float:
    """Seconds for a fixed job of Fraction sums and dict, tuple and frozenset
    churn, the operations santagap spends its time on.

    The machine this benchmark was defined on runs such code up to 50%
    slower for seconds to minutes at a time.  Every time metric is scaled
    by PROBE_REF_S / (the probe time around it), so that drift cancels and
    the metric reads in seconds of a machine where the probe takes
    PROBE_REF_S.  The probe calls no santagap code, so a change to the
    package cannot move it.
    """
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(8000):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 97, frozenset(range(i % 9)))
        seen[key] = seen.get(key, 0) ^ (i * 2654435761 & 0xFFFF)
    return time.perf_counter() - start


def one_pass(wl, queries, call):
    """Answers in order, with a probe about every PROBE_EVERY_S of queries.

    Returns outputs, raw and scaled per-query seconds, and errors; a query's
    scale comes from the mean of the probes before and after its stretch.
    """
    outs, raw, errors = [], [], {}
    probes, stretch = [probe()], []
    clock = time.perf_counter
    since = 0.0
    for i, q in enumerate(queries):
        start = clock()
        try:
            outs.append(call(i, wl.answer, q))
        except Exception:  # a failed query is counted, not fatal
            outs.append(None)
            errors[i] = traceback.format_exc(limit=3)
        raw.append(clock() - start)
        stretch.append(len(probes) - 1)
        since += raw[-1]
        if since >= PROBE_EVERY_S or i == len(queries) - 1:
            probes.append(probe())
            since = 0.0
    scale = [2 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]
    scaled = [t * scale[k] for t, k in zip(raw, stretch)]
    return outs, raw, scaled, errors


def untraced(i, answer, q):
    return answer(q)


def measure(wl, queries, seconds: float, topology):
    """Whole passes while they fit in ``seconds``; outputs of the first.

    Returns the first pass's outputs and errors, each query's scaled
    seconds (median over passes), and the raw and scaled seconds of each
    pass.
    """
    passes = []
    begin = time.perf_counter()
    while True:
        topology.clear_eta_cache()
        passes.append(one_pass(wl, queries, untraced))
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(sum(p[1]) for p in passes) > seconds:
            break
    outs, _, _, errors = passes[0]
    per_query = [statistics.median(col) for col in zip(*(p[2] for p in passes))]
    return outs, errors, per_query, [sum(p[1]) for p in passes], [sum(p[2]) for p in passes]


def traced(wl, queries, tracing, topology):
    """A traced pass, an untraced pass to compare it with, and the first
    quarter of the batch traced again to confirm the counts."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        topology.clear_eta_cache()
        _, raw, scaled, _ = one_pass(wl, queries, tracer.query)
    finally:
        tracer.uninstall()
    # The process is warm by now; so is this reference, unlike the first pass.
    topology.clear_eta_cache()
    reference_s = sum(one_pass(wl, queries, untraced)[2])
    prefix = max(1, len(queries) // 4)
    rerun = tracing.Tracer()
    rerun.install()
    try:
        topology.clear_eta_cache()
        one_pass(wl, queries[:prefix], rerun.query)
    finally:
        rerun.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    problems = tracing.self_check(
        metrics,
        tracing.counts_only(tracing.layer_metrics(rerun.spans)),
        tracing.counts_only(tracing.layer_metrics(tracer.spans, prefix)),
    )
    return tracer, metrics, sum(raw), sum(scaled), reference_s, problems


def cold_start_s() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "santagap", "f-gap", "1/6"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a batch of a few queries")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "santagap", "__init__.py")):
        print(f"santagap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    t_import = time.perf_counter()
    import santagap.cli  # noqa: F401  (the package and every module the CLI loads)
    import tracing
    from santagap import topology
    from workloads import WORKLOADS, stratified
    import_s = time.perf_counter() - t_import

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 64
    wl = WORKLOADS[args.workload]
    n = (SMOKE_BATCH if args.smoke else BATCH)[wl.name]

    probes = [probe()]
    setup_times, inputs = [], set()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        queries = stratified(wl.candidates(args.seed), wl.SHARES, n)
        setup_times.append(time.perf_counter() - start)
        probes.append(probe())
        inputs.add(tuple(q.inst.serialize() for q in queries))
    if len(inputs) != 1:
        print("set-up gave different inputs for the same seed", file=sys.stderr)
        return 1
    raw_setup_s = import_s + statistics.median(setup_times)
    setup_s = import_s * PROBE_REF_S / probes[0] + statistics.median(
        t * 2 * PROBE_REF_S / (a + b) for t, a, b in zip(setup_times, probes, probes[1:]))

    outs, errors, per_query, raw_passes, scaled_passes = measure(
        wl, queries, args.seconds, topology)
    wall_s = statistics.median(scaled_passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lines = []
    trace_problems = []
    if args.trace:
        tracer, per_layer, raw_traced_s, traced_s, reference_s, trace_problems = traced(
            wl, queries, tracing, topology)
        per_layer.pop("lp_core.compute_t_star.clp_calls")
        per_layer["cli.cold_start_s"] = cold_start_s()
        per_layer["trace.wall_s"] = traced_s
        per_layer["trace.overhead_s"] = traced_s - reference_s
        per_layer["trace.spans"] = len(tracer.spans)
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans-{wl.name}-{args.seed}.jsonl.gz")
        tracer.write(span_file)
        lines.append(f"spans written to {os.path.relpath(span_file, ROOT)}")

    # The checks run after every timed pass, so they cannot warm the eta cache.
    failures = dict(errors)
    inconclusive = 0
    for i, (q, out) in enumerate(zip(queries, outs)):
        if out is None:
            continue
        inconclusive += not wl.conclusive(out)
        try:
            problem = wl.check(q, out)
        except Exception:
            problem = traceback.format_exc(limit=3)
        if problem:
            failures[i] = problem

    pct = tail_percentile(n)
    tail, beyond = nearest_rank(per_query, pct)
    e2e = {
        "wall_s": (wall_s, "s"),
        "query_s.p50": (statistics.median(per_query), "s"),
        "query_s.tail": (tail, "s"),
        "conclusive_frac": (1 - inconclusive / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    lines.append(f"workload {wl.name} seed {args.seed}: {n} queries, one client, closed loop, "
                 f"{len(raw_passes)} pass(es)")
    lines.append(f"  raw seconds: wall_s {statistics.median(raw_passes):.6g}, "
                 f"setup_s {raw_setup_s:.6g}; times below are scaled by the speed probe")
    for name, (value, unit) in e2e.items():
        lines.append(f"  {name:<18} {value:.6g} {unit}")
    lines.append(f"  query_s.tail is p{pct:g}: {beyond} of {n} queries lie beyond it")
    lines.append(f"  failed_frac        {len(failures) / n:.6g} ({len(failures)} of {n})")
    lines.append(f"  inconclusive_frac  {inconclusive / n:.6g}")
    for i, problem in sorted(failures.items()):
        lines.append(f"  FAILED {queries[i].label}: {problem.strip()}")
    if args.trace:
        lines.extend(f"  {name:<52} {value:.6g}" for name, value in per_layer.items())
        lines.extend(f"  TRACE SELF-CHECK FAILED: {p}" for p in trace_problems)
        shares = tracing.as_shares(per_layer, raw_traced_s)
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in shares.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    correct = not failures and not trace_problems
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": n, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
