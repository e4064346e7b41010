"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-topk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (``BENCHMARK.json``
``end_to_end``); ``--trace 1`` runs the same untraced passes, then one
traced pass, and prints the per-layer metrics (``per_layer``) with the
accounting checks.  Every answer is checked against ``naive_top_k``; a
wrong, failed or unfinished query, or a failed accounting check, makes
the run exit 1.  The last line of standard output is ``{"correct",
"attempted", "failed", "metrics"}``.  Run records are appended to
``.perfbench_out/ledger.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, WORKLOADS
from ledger import per_layer_metrics, server_window
from tracing import Tracer, install
from workloads import InProcess, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 5
#: Percentiles tried for ``latency_tail_ms``, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_benchmark_json() -> str | None:
    """None when BENCHMARK.json lists exactly the catalog's metrics."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read BENCHMARK.json: {exc}"
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if e2e != END_TO_END:
        return "BENCHMARK.json end_to_end differs from perfbench/catalog.py"
    if layer != {k: (v[1], v[2]) for k, v in PER_LAYER.items()}:
        return "BENCHMARK.json per_layer differs from perfbench/catalog.py"
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        return "BENCHMARK.json workloads differ from perfbench/catalog.py"
    return None


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of :data:`TAIL_LADDER`
    with at least ten samples above it."""
    import numpy as np

    n = len(values)
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) >= 1000.0), 50.0)
    return pct, float(np.percentile(values, pct))


def end_to_end(passes, setup_times: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of a run's passes over one query list.

    A query's latency and time to first result for the medians are the
    lower of its passes: a shared 2-vCPU host ran the same code at speeds
    up to 1.7x apart, switching every few seconds, and a median of single
    samples jumped with the share of the run spent slow.  The tail is each pass's own, so slow
    cases stay in it, and the run reports their median; ``qps`` counts
    every execution.
    """
    executions = [o for result in passes for o in result.outcomes]
    window = sum(r.window[1] - r.window[0] for r in passes)
    per_query = list(zip(*(r.outcomes for r in passes)))
    latencies = [min(o.t_done - o.t_submit for o in runs) for runs in per_query]
    firsts = [min(o.t_first - o.t_submit for o in runs)
              for runs in per_query if all(o.t_first is not None for o in runs)]
    tails = [tail([o.t_done - o.t_submit for o in r.outcomes]) for r in passes]
    pct = tails[0][0]
    tail_value = statistics.median(value for _, value in tails)
    peaks = [r.peak_rss_mb for r in passes if r.peak_rss_mb is not None]
    peak = max(peaks) if peaks else (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    depths = [sum(o.pulls for o in r.outcomes) for r in passes]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "qps": len(executions) / window,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "ttfr_p50_ms": statistics.median(firsts) * 1e3 if firsts else 0.0,
        # The work of the query list once; every pass repeats it.
        "sum_depths": depths[0],
        "peak_rss_mb": peak,
    }
    facts = {"tail_percentile": pct, "tails_ms": [v * 1e3 for _, v in tails],
             "samples": len(executions),
             "queries": len(latencies), "passes": len(passes),
             "ttfr_samples": len(firsts), "window_s": window,
             "sum_depths_per_pass": depths}
    return metrics, facts


def mix_shares(queries, outcomes) -> dict:
    """Share of each query kind, how answers were served, and each kind's
    median latency and time to first result."""
    kinds = Counter(q.kind for q in queries)
    total = sum(kinds.values())
    shares = {kind: round(count / total, 4) for kind, count in sorted(kinds.items())}
    served = Counter("from_cache" if o.from_cache else "computed" for o in outcomes)

    def p50_ms(kind, first):
        values = [(o.t_first if first else o.t_done) - o.t_submit
                  for o in outcomes if o.kind == kind
                  and (o.t_first is not None or not first)]
        return round(statistics.median(values) * 1e3, 3) if values else None

    return {"by_kind": shares, "served": dict(served),
            "latency_p50_ms_by_kind": {k: p50_ms(k, False) for k in shares},
            "ttfr_p50_ms_by_kind": {k: p50_ms(k, True) for k in shares}}


def traced_pass(workload, queries, untraced: dict, in_process: bool) -> dict:
    """Run the same work with every layer wrapped; the per-layer ledger."""
    import numpy as np

    tracer = Tracer()
    if in_process:
        installation = install(tracer)
        try:
            traced = workload.run_pass(queries, tracer=tracer)
        finally:
            installation.undo()
        cols, names = tracer.arrays(), tracer.names
        spans_path = OUT / f"spans-{workload.name}.npz"
        tracer.dump(spans_path)
        window = traced.window
        steps = [o.steps for o in traced.outcomes]
        waits = [o.queue_wait for o in traced.outcomes if o.queue_wait is not None]
    else:
        # The server installs its own wrappers before it builds itself.
        server = workload.start_server(trace=True)
        traced = workload.run_pass(queries, tracer=tracer, server=server)
        spans_path = traced.spans_path
        with np.load(spans_path) as archive:
            names = [str(x) for x in archive["names"]]
            cols = {k: archive[k] for k in archive.files if k != "names"}
        cols, window = server_window(cols, names)
        steps = traced.server.get("steps", [])
        waits = traced.server.get("queue_waits", [])
    traced_pulls = sum(o.pulls for o in traced.outcomes)
    qps_traced = len(traced.outcomes) / (traced.window[1] - traced.window[0])
    overheads = [o.t_done - o.t_submit - o.server_latency
                 for o in traced.outcomes if o.server_latency is not None]
    layer, acc = per_layer_metrics(
        cols, names, window,
        queries=len(traced.outcomes), queue_waits=waits, steps=steps,
        wire_overheads=overheads,
        wire_requests=tracer.counts.get("wire.requests", 0),
        qps_traced=qps_traced, qps_untraced=untraced["qps"],
    )
    checks = dict(acc["checks"])
    checks["operator.pulls == sum_depths"] = (
        layer["operator.pulls"] == untraced["sum_depths"])
    checks["traced sum_depths == untraced"] = (
        traced_pulls == untraced["sum_depths"])
    return {"outcomes": traced.outcomes, "metrics": layer, "checks": checks,
            "accounting": acc["details"], "spans": str(spans_path)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        return fail(f"no program sources under {ROOT / 'src' / 'repro'}")
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(WORKLOADS)}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    problem = check_benchmark_json()
    if problem:
        return fail(problem)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    # Hidden state: no inherited REPRO_* override; every set-up points
    # XDG_CACHE_HOME at an empty directory the benchmark owns.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    import numpy as np

    workload = make_workload(args.workload, args.seed, args.seconds,
                             root=ROOT, out=OUT)
    in_process = isinstance(workload, InProcess)
    ledger = None
    try:
        setup_times = [workload.setup_timed() for _ in range(SETUP_REPS)]
        queries = workload.queries()
        passes = []
        for _ in range(workload.PASSES):
            # Every pass starts from the same heap: what set-up or the last
            # pass left is freed first, so peak RSS does not depend on when
            # the collector last ran.
            gc.collect()
            passes.append(workload.run_pass(queries))
        metrics, facts = end_to_end(passes, setup_times)
        if args.trace:
            ledger = traced_pass(workload, queries, metrics, in_process)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    executions = [o for result in passes for o in result.outcomes]
    outcomes = executions + (ledger["outcomes"] if ledger else [])
    failed = [o for o in outcomes if not o.ok]
    checks = ledger["checks"] if ledger else {}
    correct = not failed and all(checks.values())
    error_rate = len(failed) / len(outcomes)
    if in_process:
        from repro import kernels

        routes = kernels.dispatch_routes()
    else:
        routes = passes[0].server.get("routes")

    print(f"workload {args.workload} seed {args.seed}: {workload.sizes()}")
    print(f"  {facts['queries']} queries x {facts['passes']} pass(es) in "
          f"{facts['window_s']:.3f} s; "
          f"set-up runs {', '.join(f'{t:.3f}' for t in setup_times)} s")
    for name, (unit, _, _) in END_TO_END.items():
        print(f"  {name:<18} {metrics[name]:>14.4f} {unit}")
    # error_rate is not a BENCHMARK.json metric: it is 0 on every correct
    # run, and any failure already fails the run.
    print(f"  {'error_rate':<18} {error_rate:>14.4f} ratio "
          f"({len(failed)} of {len(outcomes)})")
    print(f"  latency_tail_ms is the median over {facts['passes']} pass(es) "
          f"of p{facts['tail_percentile']:g} over each pass's "
          f"{facts['queries']} queries; medians over {facts['queries']} "
          f"queries (ttfr {facts['ttfr_samples']}), each the lower of its "
          f"{facts['passes']} pass(es)")
    for outcome in failed[:5]:
        print(f"  FAILED {outcome.kind}: state {outcome.state} "
              f"{outcome.error or ''} scores {outcome.scores[:3]}")
    if ledger:
        print("  accounting: " + ", ".join(
            f"{k}: {v:.3f}" if isinstance(v, float) else f"{k}: {v}"
            for k, v in ledger["accounting"].items()))
        for name, ok in checks.items():
            print(f"  check {name}: {'ok' if ok else 'FAILED'}")
        width = max(len(k) for k in PER_LAYER)
        for name, value in ledger["metrics"].items():
            print(f"  {name:<{width}} {value:>14.4f}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "sizes": workload.sizes(),
        "setup_runs_s": setup_times, "metrics": metrics,
        "error_rate": error_rate, **facts,
        "mix": mix_shares(queries, executions),
        "kernel_routes": routes,
    }
    if ledger:
        record.update({"per_layer": ledger["metrics"], "checks": checks,
                       "accounting": ledger["accounting"],
                       "spans": ledger["spans"]})
    print("record " + json.dumps(record, default=str))
    with open(OUT / "ledger.jsonl", "a") as trajectory:
        trajectory.write(json.dumps(record, default=str) + "\n")

    if ledger:
        reported = {k: (ledger["metrics"][k], v[1]) for k, v in PER_LAYER.items()}
    else:
        reported = {k: (metrics[k], v[0]) for k, v in END_TO_END.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash seeding changes set and dict order of strings; pin it so a
        # seed always means the same work.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
