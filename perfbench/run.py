"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload tnn_shared --seed 1 --seconds 20 --trace 0

Sets the workload up several times (``setup_s`` is the median), runs timed
passes for ``--seconds``, checks a seeded sample of the answers against a
reference outside the timed region, and prints two JSON lines: the run
record (provenance, raw wall-clock diagnostics, probe times, error rate)
and, last, the result ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics plus the
tracing overhead.  Every timing is host-normalised (see ``probe.py``).

Seeds: ``1`` is the default seed and ``7919`` the holdout seed; a
performance claim made while tuning on the default seed is re-checked on
the holdout seed.  The record and, for traced runs, the spans are also
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
HOLDOUT_SEED = 7919

#: Variables that select a different code path: a run under any of them
#: would measure another program, so the benchmark refuses to start.
REFUSED_VARS = ("REPRO_NO_KERNELS", "REPRO_SCALAR_TUNERS", "REPRO_NO_NODE_STORE",
                "REPRO_SHARED_MIN_LANE", "REPRO_DIST_CHAOS")
REFUSED_PREFIXES = ("REPRO_KERNEL_MIN_", "REPRO_CHAOS_")

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "access_time_pages": "pages",
    "tune_in_pages": "pages",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "build.index_s": "s",
    "build.program_s": "s",
    "build.env_s": "s",
    "build.warmup_s": "s",
    "executor.batch_s": "s",
    "executor.self_s": "s",
    "executor.rounds": "count",
    "executor.lane_blocks_s": "s",
    "executor.lane_blocks_calls": "count",
    "executor.node_store_s": "s",
    "executor.node_store_calls": "count",
    "arena.begin_round_s": "s",
    "arena.serve_s": "s",
    "arena.serve_rows": "count",
    "arena.flush_s": "s",
    "arena.stage_lane_s": "s",
    "arena.stage_lane_rows": "count",
    "ledger.flush_s": "s",
    "ledger.flush_rows": "count",
    "ledger.faulty_flush_s": "s",
    "ledger.faulty_rows": "count",
    "ledger.retry_share": "ratio",
    "kernels.multi_calls": "count",
    "kernels.multi_width": "count",
    "kernels.multi_s": "s",
    "perquery.run_all_s": "s",
    "perquery.run_all_calls": "count",
    "perquery.self_s": "s",
    "campaign.worker_ready_s": "s",
    "campaign.welcome_bytes": "bytes",
    "campaign.frames": "count",
    "campaign.frame_bytes": "bytes",
    "campaign.merge_s": "s",
    "campaign.leases": "count",
    "campaign.revocations": "count",
    "campaign.chunks": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

#: Metrics that are times: host-normalised, with a raw twin in the record.
TIMING = ("setup_s", "throughput_qps", "query_p50_ms", "query_p99_ms")


def refused_env(environ=os.environ) -> List[str]:
    return sorted(
        k for k in environ
        if k in REFUSED_VARS or k.startswith(REFUSED_PREFIXES)
    )


def percentile(samples: List[Tuple[float, int]], q: float) -> float:
    """Nearest-rank percentile of weighted ``(value, weight)`` samples."""
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    rank = max(1, math.ceil(q * total))
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= rank:
            return value
    return ordered[-1][0]


def _timing_metrics(setups, passes, raw: bool) -> Dict[str, float]:
    """Median set-up, throughput over all passes, latency percentiles."""
    lat = [s for p in passes for s in (p.raw_latencies if raw else p.latencies)]
    return {
        "setup_s": statistics.median(s[0] if raw else s[1] for s in setups),
        "throughput_qps": sum(p.n_queries for p in passes) / sum(
            p.raw_s if raw else p.norm_s for p in passes
        ),
        "query_p50_ms": percentile(lat, 0.50),
        "query_p99_ms": percentile(lat, 0.99),
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child (the campaign worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def provenance(name: str, seed: int, sizes, clock) -> dict:
    import numpy

    from probe import BRACKET_PROBES, PROBE_OBJECTS, REF_PROBE_S, SAMPLE_EVERY_S

    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": name,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "sizes": asdict(sizes),
        "probe": {
            "ref_s": REF_PROBE_S,
            "objects": PROBE_OBJECTS,
            "bracket_probes": BRACKET_PROBES,
            "sample_every_s": SAMPLE_EVERY_S,
            "region_means_s": [round(t, 8) for t in clock.region_probes],
            "median_s": statistics.median(clock.region_probes),
        },
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }


def _scaled(raw: Dict[str, float], factor: float) -> Dict[str, float]:
    """Rescale the time sums of an aggregate by a host factor."""
    return {k: v * factor if k.endswith("_s") else v for k, v in raw.items()}


def _mean_of(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None, clock=None, spans_path=None) -> Tuple[dict, dict]:
    """One benchmark run; returns ``(result, record)``.

    A traced run writes its spans to ``spans_path`` (when given) once, at
    the end.
    """
    from probe import HostClock
    from tracer import UNMEASURED, Tracer, aggregate
    from workloads import FULL, WORKLOADS

    sizes = sizes or FULL
    clock = clock or HostClock()
    workload = WORKLOADS[name](traced=trace)
    tracer = Tracer() if trace else None
    inp = workload.inputs(seed, sizes)

    # Set-up, several times: raw points -> environment -> warm-up call.
    setups: List[Tuple[float, float]] = []
    build_layers: List[Dict[str, float]] = []
    env = None
    for _ in range(sizes.setups):
        env = None
        gc.collect()
        mark = (lambda: tracer.span("bench.warmup")) if tracer else nullcontext
        if tracer:
            first = len(tracer.spans)
            tracer.install()
        try:
            env, region = clock.time_call(
                lambda: workload.setup(inp, sizes, mark)
            )
        finally:
            if tracer:
                tracer.uninstall()
        setups.append((region.raw_s, region.norm_s))
        if tracer:
            build_layers.append(
                _scaled(aggregate(tracer.spans[first:], 0.0), region.factor)
            )
    state = workload.prepare(env, inp, sizes)
    if workload.warm_pass:
        # One untimed pass: the allocator's first touch of a full-size
        # pass's memory otherwise lands on the first timed pass only.
        gc.collect()
        workload.run_pass(state, clock, sizes)

    # Timed passes.  A traced run alternates untraced and traced passes.
    passes = []
    traced_passes = []
    layers: List[Dict[str, float]] = []
    min_passes = 1 if trace else sizes.min_passes
    t_start = time.perf_counter()
    durations: List[float] = []
    while True:
        for traced in ((False, True) if trace else (False,)):
            gc.collect()
            t0 = time.perf_counter()
            if traced:
                first = len(tracer.spans)
                tracer.install()
                try:
                    out = workload.run_pass(state, clock, sizes)
                finally:
                    tracer.uninstall()
                row = _scaled(
                    aggregate(tracer.spans[first:], t0), out.norm_s / out.raw_s
                )
                for key in ("leases", "revocations", "chunks"):
                    row[f"campaign.{key}"] = float(out.stats.get(key, 0))
                layers.append(row)
                traced_passes.append(out)
            else:
                out = workload.run_pass(state, clock, sizes)
                passes.append(out)
            durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        samples = sum(w for p in passes for _, w in p.latencies)
        if (len(passes) >= min_passes
                and samples >= sizes.perquery_min_samples
                and elapsed + statistics.median(durations) > seconds):
            break
    peak_rss = _peak_rss_mb()

    # Answers: every pass must book identical costs, and a seeded sample
    # of the last pass must match the reference.
    every = passes + traced_passes
    notes: List[str] = []
    valid = True
    if len({(p.access_sum, p.tune_in_sum) for p in every}) != 1:
        valid = False
        notes.append("passes disagree on access/tune-in totals")
    modes = sorted({p.stats["mode"] for p in every if "mode" in p.stats})
    if modes and modes != ["distributed"]:
        valid = False
        notes.append(f"campaign ran in mode(s) {modes}, not distributed: "
                     "a different program was measured")
    n = workload.n_queries(sizes)
    k = sizes.check_brute if name == "tnn_per_query" else sizes.check_sample
    indices = sorted(random.Random(f"check:{name}:{seed}").sample(range(n), min(k, n)))
    checked, failed, check_notes = workload.check(state, passes[-1], indices)
    notes.extend(check_notes)

    last = passes[-1]
    if trace:
        build = _mean_of(build_layers)
        per_pass = _mean_of(layers)
        metrics = {k: (build if k.startswith("build.") else per_pass)[k]
                   for k in PER_LAYER if k != "trace.overhead_pct"}
        untraced = statistics.median(p.norm_s for p in passes)
        traced_s = statistics.median(p.norm_s for p in traced_passes)
        metrics["trace.overhead_pct"] = (traced_s / untraced - 1.0) * 100.0
        units = PER_LAYER
    else:
        metrics = _timing_metrics(setups, passes, raw=False)
        metrics["access_time_pages"] = last.access_sum / last.n_queries
        metrics["tune_in_pages"] = last.tune_in_sum / last.n_queries
        metrics["peak_rss_mb"] = peak_rss
        units = END_TO_END

    result = {
        "correct": valid and failed == 0,
        "attempted": checked,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "provenance": provenance(name, seed, sizes, clock),
        "trace": bool(trace),
        "error_rate": failed / checked if checked else None,
        "checked": checked,
        "notes": notes,
        "raw": _timing_metrics(setups, passes, raw=True),
        "setups": [{"raw_s": r, "norm_s": s} for r, s in setups],
        "passes": [
            {"raw_s": p.raw_s, "norm_s": p.norm_s, "queries": p.n_queries,
             **({"campaign": p.stats} if p.stats else {})}
            for p in passes
        ],
    }
    if trace:
        record["traced_passes"] = [
            {"raw_s": p.raw_s, "norm_s": p.norm_s} for p in traced_passes
        ]
        record["unmeasured"] = UNMEASURED
        if name == "campaign_lossy":
            record["worker"] = ("in-process thread through run_worker (traced "
                                "run), so worker-side spans are visible; "
                                "campaign.worker_ready_s excludes interpreter "
                                "start-up")
        if spans_path is not None:
            tracer.dump(spans_path)
    return result, record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bad = refused_env()
    if bad:
        print(f"refusing to run: {', '.join(bad)} select(s) a different code "
              "path; unset them", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        spans_path=out_dir / f"{stem}.spans.jsonl",
    )
    record["result"] = result
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
