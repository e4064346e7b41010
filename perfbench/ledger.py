"""Per-layer metrics and accounting checks from one traced pass.

Self time is a span's duration minus the part its children cover.
Children on the same thread are nested calls and are disjoint; shard
children on other threads may overlap, so their subtrees are scaled by
``|union of their intervals| / (sum of their durations)``.  With that
split the self times of a tree add up to its root's duration, and the
self times of all spans plus the uncovered ``unattributed`` remainder add
up to the wall time of the pass.
"""

from __future__ import annotations

import numpy as np

from catalog import KERNEL_OPS, LAYERS, PER_LAYER
from tracing import layer_of

#: Slack for comparing clock readings (perf_counter is monotonic and
#: shared by threads and processes on one host).
EPS = 1e-9


def _union_length(starts, ends) -> float:
    order = np.argsort(starts)
    total, cur_start, cur_end = 0.0, None, None
    for s, e in zip(starts[order], ends[order]):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def attribute(cols: dict, window: tuple[float, float]) -> dict:
    """Self time of every span, and the accounting checks.

    Returns a dict with per-span ``dur``, ``self`` and ``weight`` arrays
    (weights below 1 only under overlapping shard threads), the
    ``unattributed`` remainder of the window, and the check results.
    """
    ids, parent = cols["id"], cols["parent"]
    start, end, thread = cols["start"], cols["end"], cols["thread"]
    n = len(ids)
    dur = end - start
    has_parent = parent > 0
    pidx = np.searchsorted(ids, parent)
    pidx[~has_parent] = 0
    known = has_parent & (pidx < n)
    known[known] = ids[pidx[known]] == parent[known]
    orphans = int((has_parent & ~known).sum())
    child = np.nonzero(known)[0]
    par = pidx[child]
    contained = (start[child] >= start[par] - EPS) & (end[child] <= end[par] + EPS)
    same = thread[child] == thread[par]

    covered = np.bincount(par[same], weights=dur[child[same]], minlength=n)
    factor = np.ones(n)
    cross = child[~same]
    if len(cross):
        cross_par = pidx[cross]
        for p in np.unique(cross_par):
            members = cross[cross_par == p]
            union = _union_length(start[members], end[members])
            total = dur[members].sum()
            covered[p] += union
            if total > 0:
                factor[members] = union / total
    self_time = dur - covered
    # Propagate shard-overlap factors down each subtree (fixed point).
    weight = factor.copy()
    for _ in range(128):
        nxt = factor * np.where(known, weight[pidx], 1.0)
        if np.array_equal(nxt, weight):
            break
        weight = nxt

    t0, t1 = window
    wall = t1 - t0
    roots = np.nonzero(~has_parent)[0]
    inside = (start[roots] >= t0 - EPS) & (end[roots] <= t1 + EPS)
    root_union = _union_length(start[roots], end[roots]) if len(roots) else 0.0
    attributed = float((self_time * weight).sum())
    unattributed = wall - root_union
    checks = {
        "children within parent": bool(contained.all()) and orphans == 0,
        "self time non-negative": bool((self_time >= -1e-7).all()),
        "roots inside window": bool(inside.all()),
        "self times + unattributed = wall":
            abs(attributed + unattributed - wall) <= 1e-6 * max(wall, 1.0),
    }
    details = {
        "spans": n,
        "children": int(len(child)),
        "cross-thread children": int(len(cross)),
        "orphans": orphans,
        "uncontained": int((~contained).sum()),
        "attributed_ms": attributed * 1e3,
        "unattributed_ms": unattributed * 1e3,
        "wall_ms": wall * 1e3,
    }
    return {"dur": dur, "self": self_time, "weight": weight,
            "unattributed": unattributed, "wall": wall,
            "checks": checks, "details": details}


def per_layer_metrics(cols: dict, names: list[str], window, *,
                      queries: int, queue_waits: list, steps: list,
                      wire_overheads: list, wire_requests: int,
                      qps_traced: float, qps_untraced: float) -> tuple[dict, dict]:
    """Every per-layer metric of the catalog, plus the check results."""
    acc = attribute(cols, window)
    w = acc["weight"]
    dur_w = acc["dur"] * w
    self_w = acc["self"] * w
    name_col = cols["name"]
    values, flags = cols["value"], cols["flag"]
    n_names = len(names)

    def by_name(weights):
        return np.bincount(name_col, weights=weights, minlength=n_names)

    counts = np.bincount(name_col, minlength=n_names)
    dur_by, self_by = by_name(dur_w), by_name(self_w)
    value_by, flag_by = by_name(values.astype(float)), by_name(flags.astype(float))
    index = {name: i for i, name in enumerate(names)}

    def count(name):
        return int(counts[index[name]]) if name in index else 0

    def ms(name):
        return float(dur_by[index[name]]) * 1e3 if name in index else 0.0

    def self_ms(name):
        return float(self_by[index[name]]) * 1e3 if name in index else 0.0

    def value(name):
        return int(value_by[index[name]]) if name in index else 0

    def flag(name):
        return int(flag_by[index[name]]) if name in index else 0

    lookups = count("cache.lookup")
    hits = value("cache.lookup")
    extensions = value("cache.take_continuation")
    pulls = value("operator.try_next")
    results = flag("operator.try_next")
    m = {
        "wire.overhead_ms_p50": (float(np.median(wire_overheads)) * 1e3
                                 if wire_overheads else 0.0),
        "wire.requests": wire_requests,
        "service.submit_self_ms": self_ms("service.submit"),
        "query.fingerprint_ms": ms("query.fingerprint"),
        "query.build_operator_self_ms": self_ms("query.build_operator"),
        "planner.resolves": count("planner.resolve"),
        "planner.resolve_ms": ms("planner.resolve"),
        "relation.from_arrays_ms": ms("relation.from_arrays"),
        "relation.from_arrays_calls": count("relation.from_arrays"),
        "relation.fingerprint_ms": ms("relation.fingerprint"),
        "relation.fingerprint_calls": count("relation.fingerprint"),
        "relation.instance_sort_ms": ms("relation.instance_sort"),
        "relation.instance_sort_calls": count("relation.instance_sort"),
        "cache.hits": hits,
        "cache.misses": lookups - hits - extensions,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.extensions": extensions,
        "cache.lookup_ms": ms("cache.lookup") + ms("cache.take_continuation"),
        "cache.store_ms": ms("cache.store"),
        "scheduler.ticks": count("scheduler.tick"),
        "scheduler.tick_self_ms": self_ms("scheduler.tick"),
        "session.steps_per_query": sum(steps) / queries if queries else 0.0,
        "scheduler.queue_wait_ms_p50": (float(np.median(queue_waits)) * 1e3
                                        if queue_waits else 0.0),
        "exec.merge_offers": count("exec.merge_offer"),
        "exec.merge_ms": ms("exec.merge_offer") + ms("exec.merge_pop"),
        "exec.try_next_self_ms": self_ms("exec.try_next"),
        "operator.try_next_ms": ms("operator.try_next"),
        "operator.pull_ms": ms("operator.pull"),
        "operator.bound_update_ms": ms("operator.bound_update"),
        "operator.bound_updates": count("operator.bound_update"),
        "operator.choose_ms": ms("operator.choose"),
        "operator.self_ms": self_ms("operator.try_next"),
        "operator.pulls": pulls,
        "operator.results": results,
        "operator.pulls_per_result": pulls / results if results else 0.0,
    }
    for op in KERNEL_OPS:
        m[f"kernels.{op}.calls"] = count(f"kernels.{op}")
        m[f"kernels.{op}.ms"] = ms(f"kernels.{op}")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, i in index.items():
        layer_self[layer_of(name)] += float(self_by[i]) * 1e3
    for layer in LAYERS:
        m[f"self_ms.{layer}"] = layer_self[layer]
    m["self_ms.unattributed"] = acc["unattributed"] * 1e3
    m["wall_ms"] = acc["wall"] * 1e3
    m["trace.spans"] = int(len(cols["id"]))
    m["trace.overhead_pct"] = ((qps_untraced / qps_traced - 1.0) * 100.0
                               if qps_traced else 0.0)
    missing = set(PER_LAYER) - set(m)
    extra = set(m) - set(PER_LAYER)
    if missing or extra:
        raise AssertionError(f"ledger out of step with catalog: "
                             f"missing {sorted(missing)}, extra {sorted(extra)}")
    return m, acc


def server_window(cols: dict, names: list[str]):
    """The server's busy window, and only the span trees inside it.

    From the first ``service.submit`` to the end of the root span holding
    the last ``service.submit`` or ``session.step``; idle scheduler ticks
    before and after are dropped with their subtrees.
    """
    name_col, start, end = cols["name"], cols["start"], cols["end"]
    ids, parent = cols["id"], cols["parent"]
    submits = name_col == names.index("service.submit")
    busy = submits | (name_col == names.index("session.step"))
    t0 = float(start[submits].min())
    last = float(end[busy].max())
    roots = parent == 0
    keep_root = roots & (start >= t0) & (start <= last)
    t1 = float(end[keep_root].max())
    # Root of every span: follow parents until none is left.
    ancestor = ids.copy()
    for _ in range(128):
        up = parent[np.searchsorted(ids, ancestor)]
        if not (up > 0).any():
            break
        ancestor = np.where(up > 0, up, ancestor)
    keep = keep_root[np.searchsorted(ids, ancestor)]
    return {k: v[keep] for k, v in cols.items()}, (t0, t1)
