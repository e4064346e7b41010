"""Span tracing from outside the program.

The benchmark never edits ``src/``.  :func:`install` replaces the public
functions at each layer boundary with thin wrappers that record one span
per call (name, start, end, parent span, request id, thread) into
per-thread in-memory buffers; :meth:`Installation.undo` puts the
originals back.  ``ledger.py`` turns the spans of one traced pass into
per-layer metrics.

Rules the wrappers follow:

* A call nested inside an open call of the same span name counts once
  (``AFRBound.update`` calls ``FRStarBound.update``; any-k's
  ``get_next`` calls its own ``try_next``).
* A span opened on a thread with no open span adopts the *bridge*
  parent: the innermost ``exec.try_next`` span of the thread that
  dispatched the shard round.  Shard workers on the thread backend
  therefore hang under the exec span that waits for them.
"""

from __future__ import annotations

import functools
import itertools
import threading
from array import array
from time import perf_counter

import numpy as np

#: Span-name prefix -> layer (layers are named after modules).
LAYER_OF_PREFIX = {
    "wire": "wire",
    "service": "service",
    "query": "service",
    "planner": "planner",
    "relation": "relation",
    "cache": "cache",
    "scheduler": "scheduler",
    "session": "scheduler",
    "exec": "exec",
    "operator": "operator",
    "kernels": "kernels",
}


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


class _Buffer:
    """One thread's spans, as parallel typed arrays (compact in memory)."""

    __slots__ = ("ids", "parents", "names", "requests", "starts", "ends",
                 "values", "flags", "stack", "open_names", "request")

    def __init__(self) -> None:
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.requests = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.values = array("q")
        self.flags = array("b")
        #: Open spans on this thread: (span id, name id, request id).
        self.stack: list[tuple[int, int, int]] = []
        self.open_names: dict[int, int] = {}
        #: Request id for root spans opened on this thread.
        self.request = 0


class Tracer:
    """Collects spans in memory; one instance per traced pass."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._requests: dict[object, int] = {}
        #: (span id, request id) adopted by spans opening on idle threads.
        self.bridge: tuple[int, int] = (0, 0)
        #: Plain counters kept at the same boundaries (no span needed).
        self.counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        with self._lock:
            found = self._name_ids.get(name)
            if found is None:
                found = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return found

    def request_id(self, key) -> int:
        """A small integer for a request key (trace id, session id...)."""
        with self._lock:
            found = self._requests.get(key)
            if found is None:
                found = self._requests[key] = len(self._requests) + 1
            return found

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def set_request(self, key) -> None:
        """Request id for root spans the calling thread opens next."""
        self.buffer().request = self.request_id(key) if key is not None else 0

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    def wrap(self, name, fn, *, before=None, after=None, request=None,
             bridge=False):
        """A traced version of ``fn``.

        ``name`` is a span name or a callable ``(args) -> name id`` (the
        kernel dispatcher names its span after the op argument).
        ``before(args)`` returns a token handed to ``after(args, token,
        result, request id) -> (value, flag)``, stored on the span.
        ``request(args, kwargs)`` returns the span's request id (``None``:
        inherit the parent's).
        ``bridge`` makes this span the parent of spans opened on idle
        threads while it runs.
        """
        tracer = self
        fixed_id = self.name_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer.buffer()
            name_id = fixed_id if fixed_id is not None else name(args)
            open_names = buf.open_names
            if open_names.get(name_id):
                return fn(*args, **kwargs)
            stack = buf.stack
            if stack:
                parent, _, req = stack[-1]
            else:
                parent, req = tracer.bridge
                if not parent:
                    req = buf.request
            if request is not None:
                own = request(args, kwargs)
                if own is not None:
                    req = own
            span_id = next(tracer._ids)
            token = before(args) if before is not None else None
            stack.append((span_id, name_id, req))
            open_names[name_id] = 1
            saved_bridge = tracer.bridge
            if bridge:
                tracer.bridge = (span_id, req)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                if bridge:
                    tracer.bridge = saved_bridge
                stack.pop()
                open_names[name_id] = 0
                value, flag = (after(args, token, result, req)
                               if after is not None else (0, 0))
                buf.ids.append(span_id)
                buf.parents.append(parent)
                buf.names.append(name_id)
                buf.requests.append(req)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.values.append(value)
                buf.flags.append(flag)

        return traced

    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """Every span of the pass as parallel numpy columns, id order."""
        with self._lock:
            buffers = list(self._buffers)
        columns = {key: [] for key in ("id", "parent", "name", "request",
                                       "start", "end", "value", "flag",
                                       "thread")}
        for index, buf in enumerate(buffers):
            columns["id"].append(np.array(buf.ids, dtype=np.int64))
            columns["parent"].append(np.array(buf.parents, dtype=np.int64))
            columns["name"].append(np.array(buf.names, dtype=np.int32))
            columns["request"].append(np.array(buf.requests, dtype=np.int64))
            columns["start"].append(np.array(buf.starts, dtype=np.float64))
            columns["end"].append(np.array(buf.ends, dtype=np.float64))
            columns["value"].append(np.array(buf.values, dtype=np.int64))
            columns["flag"].append(np.array(buf.flags, dtype=np.int8))
            columns["thread"].append(np.full(len(buf.ids), index, dtype=np.int32))
        merged = {
            key: (np.concatenate(parts) if parts else np.zeros(0))
            for key, parts in columns.items()
        }
        order = np.argsort(merged["id"], kind="stable")
        return {key: value[order] for key, value in merged.items()}

    def dump(self, path) -> None:
        """Write the spans out: a numpy archive of columns + name table."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


# ----------------------------------------------------------------------
# Installing wrappers at the layer boundaries
# ----------------------------------------------------------------------
class Installation:
    """The patches one :func:`install` made; :meth:`undo` reverts them."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every in-process layer boundary the ledger reads."""
    from repro import kernels
    from repro.anyk.engine import AnyKRankJoin
    from repro.core import afr_bound, bounds, fr_bound, frstar_bound
    from repro.core.pbrj import PBRJ
    from repro.core.pulling import PullingStrategy
    from repro.core.stepping import PENDING
    from repro.exec.engine import ShardedRankJoin
    from repro.exec.merge import GlobalTopKMerger
    from repro.exec.worker import ShardWorker
    from repro.planner.planner import Planner
    from repro.relation.relation import RankJoinInstance, Relation
    from repro.relation.sources import TupleSource
    from repro.service.cache import ResultCache
    from repro.service.query import QuerySpec
    from repro.service.scheduler import Scheduler
    from repro.service.service import QueryService
    from repro.service.session import QuerySession

    inst = Installation()

    def method(cls, attr, name, **kw):
        inst.patch(cls, attr, tracer.wrap(name, cls.__dict__[attr], **kw))

    # service: a submit's request id follows its session into every step
    session_requests: dict[str, int] = {}

    def submit_request(args, kwargs):
        trace = kwargs.get("trace")
        return tracer.request_id(trace.trace_id) if trace is not None else None

    def submitted(args, token, session_id, req):
        if session_id is not None:
            session_requests[session_id] = req
        return 0, 0

    method(QueryService, "submit", "service.submit",
           request=submit_request, after=submitted)
    method(QuerySpec, "fingerprint", "query.fingerprint")
    method(QuerySpec, "build_operator", "query.build_operator")
    # planner
    method(Planner, "plan", "planner.resolve")
    # relation
    from_arrays = Relation.__dict__["from_arrays"].__func__
    inst.patch(Relation, "from_arrays",
               classmethod(tracer.wrap("relation.from_arrays", from_arrays)))
    method(Relation, "fingerprint", "relation.fingerprint")
    method(RankJoinInstance, "__init__", "relation.instance_sort")
    # cache
    def found(args, token, result, req):
        return int(result is not None), 0

    method(ResultCache, "lookup", "cache.lookup", after=found)
    method(ResultCache, "take_continuation", "cache.take_continuation",
           after=found)
    method(ResultCache, "store", "cache.store")
    # scheduler
    method(Scheduler, "tick", "scheduler.tick")

    def step_request(args, kwargs):
        return session_requests.get(args[0].session_id)

    method(QuerySession, "step", "session.step", request=step_request)
    # exec
    for attr in ("try_next", "get_next"):
        method(ShardedRankJoin, attr, "exec.try_next", bridge=True)
    method(ShardWorker, "advance", "exec.advance")
    method(GlobalTopKMerger, "offer", "exec.merge_offer")
    method(GlobalTopKMerger, "pop_ready", "exec.merge_pop")

    # operator: pulls and emitted results are read at the try_next boundary
    def pulls_before(args):
        return args[0].pulls

    def pulled(args, before, result, req):
        emitted = result is not None and result is not PENDING
        return args[0].pulls - before, int(emitted)

    for cls in (PBRJ, AnyKRankJoin):
        for attr in ("try_next", "get_next"):
            method(cls, attr, "operator.try_next",
                   before=pulls_before, after=pulled)
    method(TupleSource, "next", "operator.pull")
    for cls in (bounds.CornerBound, fr_bound.FRBound,
                frstar_bound.FRStarBound, afr_bound.AFRBound):
        for attr in ("update", "notify_exhausted"):
            if attr in cls.__dict__:
                method(cls, attr, "operator.bound_update")
    for cls in _subclasses(PullingStrategy):
        if "choose" in cls.__dict__:
            method(cls, "choose", "operator.choose")
    # kernels: every dispatch op funnels through repro.kernels._call
    kernel_ids = {op: tracer.name_id(f"kernels.{op}") for op in kernels.KERNEL_OPS}
    inst.patch(kernels, "_call",
               tracer.wrap(lambda args: kernel_ids[args[0]],
                           kernels.__dict__["_call"]))
    return inst


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def count_requests(tracer: Tracer, client) -> None:
    """Count one client's wire requests (``request`` and ``stream_raw``)."""
    for attr in ("request", "stream_raw"):
        fn = getattr(client, attr)

        def counted(*args, _fn=fn, **kwargs):
            tracer.count("wire.requests")
            return _fn(*args, **kwargs)

        setattr(client, attr, counted)
