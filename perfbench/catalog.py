"""Names, units and meaning of every metric and workload the benchmark has.

``BENCHMARK.json`` at the repository root lists the same metrics (name,
unit, better direction, bound); ``run.py`` refuses to run when the two
disagree.  This file also records what the JSON format has no room for:
the layer of each per-layer metric and the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "qps": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "ttfr_p50_ms": ("ms", "lower", 0.25),
    "sum_depths": ("count", "lower", 0.1),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

WORKLOADS = {
    "paper-topk": (
        "closed loop, 1 client, in process, cache off; TPC-H L-O 600x150, "
        "e 2/3, c .25/.5, K=10; HRJN*, FRPA, a-FRPA, any-k, HRJN* on 2 "
        "serial shards: operators and kernels dominate"
    ),
    "service-cold": (
        "closed loop, 1 client, in process, default cache; each query fresh "
        "500x500 e=2 arrays, HRJN*/any-k/auto, K 10/50: relation build, "
        "fingerprint, sort, plan and cache writes"
    ),
    "serve-warm": (
        "closed loop, 2 TCP connections to a fresh server; TPC-H L-O "
        "3000x750 x2 seeds; repeats, k-shrinks, k-extensions, 1/6 fresh "
        "misses: wire, cache reads, scheduler queueing"
    ),
}

_TAIL_PK = [("latency_tail_ms", "paper-topk"), ("qps", "paper-topk")]
_COLD = [("latency_p50_ms", "service-cold"), ("qps", "service-cold")]
_SLICE_PK = [("qps", "paper-topk"), ("latency_p50_ms", "paper-topk"),
             ("ttfr_p50_ms", "paper-topk")]
_WARM_TAIL = [("latency_tail_ms", "serve-warm"), ("ttfr_p50_ms", "serve-warm")]

#: name -> (layer, unit, better, [(end-to-end metric, workload), ...])
PER_LAYER: dict[str, tuple[str, str, str, list]] = {
    "wire.overhead_ms_p50": ("wire", "ms", "lower", [("latency_p50_ms", "serve-warm")]),
    "wire.requests": ("wire", "count", "lower", [("latency_p50_ms", "serve-warm")]),
    "service.submit_self_ms": ("service", "ms", "lower", _COLD),
    "query.fingerprint_ms": ("service", "ms", "lower", _COLD),
    "query.build_operator_self_ms": ("service", "ms", "lower", _COLD),
    "planner.resolves": ("planner", "count", "lower", [("latency_p50_ms", "service-cold")]),
    "planner.resolve_ms": ("planner", "ms", "lower", [("latency_p50_ms", "service-cold")]),
    "relation.from_arrays_ms": ("relation", "ms", "lower", _COLD),
    "relation.from_arrays_calls": ("relation", "count", "lower", _COLD),
    "relation.fingerprint_ms": ("relation", "ms", "lower", _COLD),
    "relation.fingerprint_calls": ("relation", "count", "lower", _COLD),
    "relation.instance_sort_ms": ("relation", "ms", "lower", _COLD),
    "relation.instance_sort_calls": ("relation", "count", "lower", _COLD),
    "cache.hits": ("cache", "count", "higher",
                   [("latency_p50_ms", "serve-warm"), ("sum_depths", "serve-warm")]),
    "cache.misses": ("cache", "count", "lower",
                     [("latency_p50_ms", "serve-warm"), ("sum_depths", "serve-warm")]),
    "cache.hit_ratio": ("cache", "ratio", "higher",
                        [("latency_p50_ms", "serve-warm"), ("sum_depths", "serve-warm")]),
    "cache.extensions": ("cache", "count", "higher",
                         [("latency_p50_ms", "serve-warm"), ("sum_depths", "serve-warm")]),
    "cache.lookup_ms": ("cache", "ms", "lower",
                        [("latency_p50_ms", "serve-warm"), ("sum_depths", "serve-warm")]),
    "cache.store_ms": ("cache", "ms", "lower", [("latency_p50_ms", "service-cold")]),
    "scheduler.ticks": ("scheduler", "count", "lower", _WARM_TAIL),
    "scheduler.tick_self_ms": ("scheduler", "ms", "lower", _WARM_TAIL),
    "session.steps_per_query": ("scheduler", "count", "lower", _WARM_TAIL),
    "scheduler.queue_wait_ms_p50": ("scheduler", "ms", "lower", _WARM_TAIL),
    # The sharded slice is also paper-topk's median query.
    "exec.merge_offers": ("exec", "count", "lower", _SLICE_PK),
    "exec.merge_ms": ("exec", "ms", "lower", _SLICE_PK),
    "exec.try_next_self_ms": ("exec", "ms", "lower", _SLICE_PK),
    "operator.try_next_ms": ("operator", "ms", "lower", _TAIL_PK),
    "operator.pull_ms": ("operator", "ms", "lower", _TAIL_PK),
    "operator.bound_update_ms": ("operator", "ms", "lower", _TAIL_PK),
    "operator.bound_updates": ("operator", "count", "lower", _TAIL_PK),
    "operator.choose_ms": ("operator", "ms", "lower", _TAIL_PK),
    "operator.self_ms": ("operator", "ms", "lower", _TAIL_PK),
    "operator.pulls": ("operator", "count", "lower",
                       _TAIL_PK + [("sum_depths", w) for w in WORKLOADS]),
    "operator.results": ("operator", "count", "higher", _TAIL_PK),
    "operator.pulls_per_result": ("operator", "count", "lower", _TAIL_PK),
}

KERNEL_OPS = (
    "dominates_any", "weak_dominance_mask", "strict_dominance_mask",
    "skyline_filter", "cover_corner_scores", "max_corner_score",
    "cross_product_max", "cover_carve", "grid_cell_assign", "antichain",
    "grid_carve",
)
for _op in KERNEL_OPS:
    PER_LAYER[f"kernels.{_op}.calls"] = ("kernels", "count", "lower", _TAIL_PK)
    PER_LAYER[f"kernels.{_op}.ms"] = ("kernels", "ms", "lower", _TAIL_PK)

#: The ledger: self time per layer, the remainder, and the tracing cost.
LAYERS = ("wire", "service", "planner", "relation", "cache", "scheduler",
          "exec", "operator", "kernels")
for _layer in LAYERS:
    PER_LAYER[f"self_ms.{_layer}"] = (_layer, "ms", "lower", [])
PER_LAYER["self_ms.unattributed"] = ("ledger", "ms", "lower", [])
PER_LAYER["wall_ms"] = ("ledger", "ms", "lower", [])
PER_LAYER["trace.spans"] = ("ledger", "count", "lower", [])
PER_LAYER["trace.overhead_pct"] = ("ledger", "%", "lower", [])
