"""The benchmark's workloads: inputs from a seed, set-up, timed passes.

Every workload is a fixed list of queries derived from ``--seed`` and
sized by ``--seconds`` (a nominal rate per second on the reference
machine), so the work, the pull counts and the oracle are exact functions
of the seed; only the timings vary between runs.  A *pass* runs the list
once through the program with one closed-loop client per connection, on
a fresh service or server; a run makes ``PASSES`` of them, and the
nominal rates size the work of the whole run, so one pass gets
``seconds / PASSES`` of it.

* ``paper-topk``: the paper's Lineitem ⋈ Orders instances, in process,
  cache off.
* ``service-cold``: fresh raw arrays per query, in process, default
  cache (every query misses, then stores).
* ``serve-warm``: a fresh server process per pass, two connections
  streaming a mix of repeats, k-shrinks, k-extensions and fresh misses.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CLOCK = time.perf_counter
HERE = Path(__file__).resolve().parent

#: Score tolerance of the oracle check in process, and over the wire
#: (the server rounds scores to 6 decimals).
IN_PROCESS_TOL = 1e-9
WIRE_TOL = 5e-7 + 1e-12


def derive_seed(*parts: int) -> int:
    """A generator seed for one input, from the workload seed and indices."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class Query:
    """One query of a pass, with the oracle's expected score sequence."""

    index: int
    kind: str  # mix label (operator/core, or hit/extension/miss)
    make: object  # () -> QuerySpec, or the wire request fields
    expected: list | None = None
    connection: int = 0


@dataclass
class Outcome:
    """What one query did, as the client saw it."""

    kind: str
    t_submit: float
    t_first: float | None
    t_done: float
    state: str
    pulls: int
    scores: list
    ok: bool
    steps: int = 0
    queue_wait: float | None = None
    from_cache: bool = False
    server_latency: float | None = None
    error: str | None = None


@dataclass
class PassResult:
    """One pass over the query list."""

    outcomes: list
    window: tuple[float, float]
    peak_rss_mb: float | None = None
    #: Server-side session facts for serve-warm (queue waits, steps).
    server: dict = field(default_factory=dict)
    spans_path: str | None = None


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def scores_match(got, expected, tol) -> bool:
    return len(got) == len(expected) and all(
        abs(a - b) <= tol for a, b in zip(got, expected)
    )


def clear_planner_caches() -> None:
    """Forget content-addressed planner statistics, so a pass is cold."""
    from repro.planner import clear_depth_cache, clear_stats_caches

    clear_stats_caches()
    clear_depth_cache()


def resolve_kernel_thresholds() -> None:
    """Drop resolved crossover thresholds and resolve them again.

    ``XDG_CACHE_HOME`` points at a fresh directory the benchmark owns, so
    resolution finds no cached file and calibrates on this machine.
    """
    from repro import kernels
    from repro.kernels import dispatch

    dispatch.reset()
    kernels.dispatch_thresholds()


def pin_planner() -> None:
    """Library-default planner coefficients: plan choice (and so
    ``sum_depths``) becomes a function of the inputs, not of a timing
    probe."""
    from repro.planner import CostCoefficients, set_coefficients

    set_coefficients(CostCoefficients())


# ----------------------------------------------------------------------
# In-process closed loop (paper-topk, service-cold)
# ----------------------------------------------------------------------
def run_in_process(service, queries, *, tracer=None) -> PassResult:
    """One client: submit, tick until DONE, next query."""
    outcomes = []
    start = CLOCK()
    for query in queries:
        if tracer is not None:
            tracer.set_request(query.index)
        t_submit = CLOCK()
        try:
            session_id = service.submit(query.make())
            session = service.session(session_id)
            t_first = t_submit if session.results else None
            while session.live:
                service.tick()
                if t_first is None and session.results:
                    t_first = CLOCK()
            t_done = CLOCK()
        except Exception as exc:  # noqa: BLE001 - one failed query is counted
            outcomes.append(Outcome(query.kind, t_submit, None, CLOCK(), "ERROR",
                                    0, [], False, error=repr(exc)))
            continue
        scores = [r.score for r in session.answer()]
        state = session.state.value
        outcomes.append(Outcome(
            kind=query.kind,
            t_submit=t_submit,
            t_first=t_first,
            t_done=t_done,
            state=state,
            pulls=session.pulls,
            scores=scores,
            ok=state == "DONE" and scores_match(scores, query.expected,
                                                IN_PROCESS_TOL),
            steps=session.steps,
            queue_wait=(session.started_at - session.submitted_at
                        if session.started_at is not None else None),
            from_cache=session.from_cache,
        ))
    return PassResult(outcomes, (start, CLOCK()))


class InProcess:
    """Set-up shared by the in-process workloads."""

    out: Path

    def setup_timed(self) -> float:
        """One timed set-up: kernel-threshold resolution against an empty
        cache directory, planner pinning, data generation, registration."""
        xdg = fresh_dir(self.out / f"xdg-{os.getpid()}")
        os.environ["XDG_CACHE_HOME"] = str(xdg)
        try:
            started = CLOCK()
            resolve_kernel_thresholds()
            pin_planner()
            self.setup()
            return CLOCK() - started
        finally:
            shutil.rmtree(xdg, ignore_errors=True)

    def run_pass(self, queries, *, tracer=None) -> PassResult:
        clear_planner_caches()
        return run_in_process(self.make_service(), queries, tracer=tracer)


class PaperTopK(InProcess):
    """Table 2's binary TPC-H instances through a cache-off service."""

    name = "paper-topk"
    #: Lineitem ⋈ Orders at this TPC-H scale factor: 600 x 150 tuples.
    SCALE = 0.0001
    #: (e, c) axis points of Table 2 at z = .5, K = 10.
    AXES = ((2, 0.25), (2, 0.5), (3, 0.25), (3, 0.5))
    #: (label, operator, algorithm, shards) run on every instance.
    OPERATORS = (
        ("HRJN*", "HRJN*", "pbrj", 1),
        ("FRPA", "FRPA", "pbrj", 1),
        ("a-FRPA", "a-FRPA", "pbrj", 1),
        ("any-k", "HRJN*", "anyk", 1),
    )
    #: The sharded slice: HRJN* on two shards.  With two fast single-shard
    #: queries (HRJN*, any-k) and two slow ones (FRPA, a-FRPA) per
    #: instance, the median query is this slice: the medians sit in one
    #: dense group of latencies, not in the gap between the fast and the
    #: slow operators, where they would move with the draw of instances
    #: more than with the program.  The shards run on the serial backend:
    #: on the thread backend this query's latency rose 70% when the
    #: shared host slowed the rest of the run by 20%, so the medians
    #: measured the host's scheduler.
    SLICE = (("HRJN* x2", "HRJN*", "pbrj", 2),)
    K = 10
    #: 8 rounds per pass at 30 s: 160 queries, under 200, so a pass's
    #: tail is p90 with 16 queries beyond it, in the middle of the e=3
    #: FRPA and a-FRPA group rather than among its few slowest instances.
    ROUNDS_PER_SECOND = 0.55
    PASSES = 2

    def __init__(self, seed: int, seconds: int, out: Path) -> None:
        self.seed, self.out = seed, out
        self.rounds = max(1, round(seconds * self.ROUNDS_PER_SECOND
                                   / self.PASSES))
        self.instances: list = []

    def sizes(self) -> str:
        return (f"{self.rounds} round(s) x {len(self.AXES)} TPC-H L⋈O "
                f"instances at scale {self.SCALE}")

    def setup(self) -> None:
        """Data generation and relation registration."""
        from repro.data.workload import WorkloadParams, lineitem_orders_instance

        self.instances = []
        for rnd in range(self.rounds):
            for axis, (e, c) in enumerate(self.AXES):
                params = WorkloadParams(
                    e=e, c=c, z=0.5, k=self.K, scale=self.SCALE,
                    seed=derive_seed(self.seed, rnd, axis),
                )
                instance = lineitem_orders_instance(params)
                self.instances.append((instance.left, instance.right))

    def make_service(self):
        from repro.service import QueryService

        return QueryService(cache_capacity=0)

    def queries(self) -> list[Query]:
        from repro.core.naive import naive_top_k
        from repro.core.scoring import SumScore
        from repro.service import QuerySpec

        queries = []
        for left, right in self.instances:
            expected = [r.score for r in naive_top_k(left, right, SumScore(), self.K)]
            for label, operator, algorithm, shards in self.OPERATORS + self.SLICE:
                def make(left=left, right=right, operator=operator,
                         algorithm=algorithm, shards=shards):
                    # The backend only matters to the sharded slice.
                    return QuerySpec(
                        relations=(left, right), k=self.K, operator=operator,
                        algorithm=algorithm, shards=shards,
                        exec_backend="serial",
                    )
                queries.append(Query(len(queries), label, make, expected))
        return queries


class ServiceCold(InProcess):
    """Fresh raw arrays per query through a default-cache service."""

    name = "service-cold"
    N = 500  # tuples per side
    E = 2
    #: (label, operator, algorithm), crossed with K in (10, 50).
    MIX = (("HRJN*", "HRJN*", "pbrj"), ("any-k", "HRJN*", "anyk"),
           ("auto", "FRPA", "auto"))
    KS = (10, 50)
    #: 450 queries per pass at 30 s: under 1000, so a pass's tail is p95
    #: of query latency (at 1000 or more it becomes p99, which is set by
    #: the dozen full garbage collections a pass triggers).
    QUERIES_PER_SECOND = 45
    PASSES = 3

    def __init__(self, seed: int, seconds: int, out: Path) -> None:
        self.seed, self.out = seed, out
        cells = len(self.MIX) * len(self.KS)
        self.count = cells * max(1, round(
            seconds * self.QUERIES_PER_SECOND / self.PASSES / cells))
        self.arrays: list = []

    def sizes(self) -> str:
        return (f"{self.count} fresh instances of {self.N}x{self.N}, "
                f"e={self.E}, keys uniform over {self.N}")

    def setup(self) -> None:
        """Data generation: the raw arrays each query arrives as."""
        from repro.data.scores import generate_score_vectors

        self.arrays = []
        for index in range(self.count):
            rng = np.random.default_rng(derive_seed(self.seed, index))
            sides = []
            for _ in range(2):
                keys = rng.integers(0, self.N, size=self.N).tolist()
                scores = generate_score_vectors(rng, self.N, self.E,
                                                skew=0.5, cut=0.5)
                sides.append((keys, scores))
            self.arrays.append(sides)

    def make_service(self):
        from repro.service import QueryService

        return QueryService()

    def queries(self) -> list[Query]:
        from repro.core.naive import naive_top_k
        from repro.core.scoring import SumScore
        from repro.relation.relation import Relation
        from repro.service import QuerySpec

        cells = [(label, operator, algorithm, k)
                 for k in self.KS for label, operator, algorithm in self.MIX]
        queries = []
        for index, ((lk, ls), (rk, rs)) in enumerate(self.arrays):
            label, operator, algorithm, k = cells[index % len(cells)]
            expected = [r.score for r in naive_top_k(
                Relation.from_arrays("R1", lk, ls),
                Relation.from_arrays("R2", rk, rs), SumScore(), k)]

            def make(lk=lk, ls=ls, rk=rk, rs=rs, operator=operator,
                     algorithm=algorithm, k=k):
                # Relation registration is on the clock: the query arrives
                # as raw arrays.
                left = Relation.from_arrays("R1", lk, ls)
                right = Relation.from_arrays("R2", rk, rs)
                return QuerySpec(relations=(left, right), k=k,
                                 operator=operator, algorithm=algorithm)
            queries.append(Query(index, f"{label} k={k}", make, expected))
        return queries


# ----------------------------------------------------------------------
# Over the wire (serve-warm)
# ----------------------------------------------------------------------
SERVE_SCALE = 0.0005  # Lineitem ⋈ Orders: 3000 x 750 tuples per seed


def serve_relations(seed: int) -> dict:
    """The relations a serve-warm server registers: two TPC-H seeds."""
    from repro.data.workload import WorkloadParams, lineitem_orders_instance

    relations = {}
    for pair in (0, 1):
        instance = lineitem_orders_instance(WorkloadParams(
            e=2, c=0.5, z=0.5, k=20, scale=SERVE_SCALE,
            seed=derive_seed(seed, 1000 + pair),
        ))
        relations[f"lineitem{pair}"] = instance.left
        relations[f"orders{pair}"] = instance.right
    return relations


class ServerProcess:
    """A ``serve_main.py`` child: started, announced, shut down, reaped."""

    def __init__(self, root: Path, out: Path, seed: int, *, trace: bool,
                 tag: str) -> None:
        self.xdg = fresh_dir(out / f"xdg-server-{tag}")
        env = environment_for_program(self.xdg)
        self.stats_path = out / f"server-{tag}.json"
        self.spans_path = out / f"server-{tag}-spans.npz"
        self.log_path = out / f"server-{tag}.log"
        for path in (self.stats_path, self.spans_path):
            if path.exists():
                path.unlink()
        command = [sys.executable, str(HERE / "serve_main.py"),
                   "--seed", str(seed), "--stats", str(self.stats_path)]
        if trace:
            command += ["--spans", str(self.spans_path)]
        self._log = open(self.log_path, "wb")
        started = CLOCK()
        try:
            self.proc = subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.PIPE,
                stderr=self._log,
            )
        except OSError:
            self._log.close()
            raise
        try:
            line = self._readline(timeout=120.0)
            announce = json.loads(line)
        except Exception:
            self.stop(force=True)
            raise
        self.setup_s = CLOCK() - started
        self.port = int(announce["port"])

    def _readline(self, timeout: float) -> bytes:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError("server did not announce its port")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited early; see {self.log_path}")
        return line

    def stop(self, *, force: bool = False) -> dict:
        """Shut the server down and wait for it; returns its stats file."""
        if not force and self.proc.poll() is None:
            try:
                from repro.service import ServiceClient

                with ServiceClient("127.0.0.1", self.port, timeout=30.0) as client:
                    client.shutdown()
                self.proc.wait(timeout=60)
            except Exception:  # noqa: BLE001 - fall through to kill
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        shutil.rmtree(self.xdg, ignore_errors=True)
        if force or not self.stats_path.exists():
            return {}
        return json.loads(self.stats_path.read_text())


class ServeWarm:
    """Two streaming connections against a fresh server process."""

    name = "serve-warm"
    CONNECTIONS = 2
    #: One block per fresh query: (kind, k) in submit order, all on the
    #: connection that ran the fresh query, each after the previous ended.
    #: Blocks alternate between the two shapes, so one query in six is a
    #: fresh miss, one in twelve a k-extension and the rest hits (exact
    #: repeats and k-shrinks).  Both connections walk their blocks in
    #: lockstep.
    BLOCKS = (
        (("miss", 10), ("hit", 10), ("hit", 4), ("extension", 20),
         ("hit", 20), ("hit", 15)),
        (("miss", 10), ("hit", 10), ("hit", 4), ("hit", 7), ("hit", 10),
         ("hit", 5)),
    )
    FRESH = (("HRJN*", "pbrj"), ("HRJN*", "anyk"))
    #: 41 blocks per connection and pass at 30 s: 492 queries, so a
    #: pass's tail is p95.
    BLOCKS_PER_SECOND = 4.1  # per connection
    PASSES = 3

    def __init__(self, seed: int, seconds: int, *, root: Path,
                 out: Path) -> None:
        self.seed = seed
        self.blocks = max(1, round(seconds * self.BLOCKS_PER_SECOND
                                   / self.PASSES))
        self.root, self.out = root, out
        self.server: ServerProcess | None = None
        self._setups = 0

    def sizes(self) -> str:
        return (f"{self.CONNECTIONS} connections x {self.blocks} blocks of "
                f"{len(self.BLOCKS[0])} queries; 2 TPC-H L⋈O seeds of 3000x750")

    def start_server(self, *, trace: bool) -> ServerProcess:
        self._setups += 1
        return ServerProcess(self.root, self.out, self.seed, trace=trace,
                             tag=f"{self._setups}")

    def setup_timed(self) -> float:
        """One server start, timed from spawn to the announced port:
        interpreter, data generation, registration, kernel-threshold
        resolution against an empty cache directory, listening socket.
        The previous set-up's server is stopped first, off the clock."""
        if self.server is not None:
            self.server.stop()
        self.server = self.start_server(trace=False)
        return self.server.setup_s

    def queries(self) -> list[Query]:
        from repro.core.naive import naive_top_k
        from repro.core.scoring import WeightedSum

        relations = serve_relations(self.seed)
        queries = []
        for conn in range(self.CONNECTIONS):
            rng = np.random.default_rng(derive_seed(self.seed, 2000 + conn))
            for block in range(self.blocks):
                pair = (block + conn) % 2
                operator, algorithm = self.FRESH[block % len(self.FRESH)]
                weights = [[round(float(w), 3) for w in rng.uniform(0.5, 1.0, 2)]
                           for _ in range(2)]
                scoring = WeightedSum([w for side in weights for w in side])
                shape = self.BLOCKS[block % len(self.BLOCKS)]
                top = [r.score for r in naive_top_k(
                    relations[f"lineitem{pair}"], relations[f"orders{pair}"],
                    scoring, max(k for _, k in shape))]
                for kind, k in shape:
                    fields = {"left": f"lineitem{pair}",
                              "right": f"orders{pair}", "k": k,
                              "operator": operator, "algorithm": algorithm,
                              "weights": weights}
                    queries.append(Query(len(queries), kind, fields,
                                         top[:k], connection=conn))
        return queries

    def run_pass(self, queries, *, tracer=None, server=None) -> PassResult:
        """Drive one server (``server``, else the set-up one, else a fresh
        one started before the pass) and stop it."""
        from repro.service import ServiceClient
        from tracing import count_requests

        server = server or self.server or self.start_server(trace=False)
        per_conn = [[q for q in queries if q.connection == c]
                    for c in range(self.CONNECTIONS)]
        outcomes: list[list] = [[] for _ in per_conn]
        barrier = threading.Barrier(len(per_conn))

        def client_loop(conn: int) -> None:
            try:
                with ServiceClient("127.0.0.1", server.port,
                                   timeout=60.0) as client:
                    if tracer is not None:
                        count_requests(tracer, client)
                    for query in per_conn[conn]:
                        # Lockstep: both connections run the same block
                        # position together (misses with misses, hits
                        # with hits), so who queues behind whom is fixed
                        # by the query list rather than by thread timing.
                        barrier.wait(timeout=120.0)
                        outcomes[conn].append(_wire_query(client, query))
            except (OSError, threading.BrokenBarrierError) as exc:
                barrier.abort()
                for query in per_conn[conn][len(outcomes[conn]):]:
                    outcomes[conn].append(Outcome(
                        query.kind, CLOCK(), None, CLOCK(), "ERROR", 0, [],
                        False, error=repr(exc)))

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(len(per_conn))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        flat = [o for conn in outcomes for o in conn]
        stats = server.stop()
        if server is self.server:
            self.server = None
        window = (min(o.t_submit for o in flat), max(o.t_done for o in flat))
        result = PassResult(flat, window, peak_rss_mb=stats.get("peak_rss_mb"),
                            server=stats)
        if server.spans_path.exists():
            result.spans_path = str(server.spans_path)
        return result

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def _wire_query(client, query: Query) -> Outcome:
    t_submit = CLOCK()
    t_first = None
    scores: list = []
    try:
        session_id = client.submit(**query.make)
        final = None
        for event in client.stream(session_id):
            if event.get("event") == "result":
                if t_first is None:
                    t_first = CLOCK()
                scores.append(event["score"])
            elif event.get("event") == "done":
                final = event
        t_done = CLOCK()
    except Exception as exc:  # noqa: BLE001 - one failed query is counted
        return Outcome(query.kind, t_submit, None, CLOCK(), "ERROR", 0, [],
                       False, error=repr(exc))
    state = final["state"] if final else "LOST"
    return Outcome(
        kind=query.kind,
        t_submit=t_submit,
        t_first=t_first,
        t_done=t_done,
        state=state,
        pulls=int(final["pulls"]) if final else 0,
        scores=scores,
        ok=state == "DONE" and scores_match(scores, query.expected, WIRE_TOL),
        steps=int(final["steps"]) if final else 0,
        from_cache=bool(final and final["from_cache"]),
        server_latency=final.get("latency") if final else None,
    )


def make_workload(name: str, seed: int, seconds: int, *, root: Path,
                  out: Path):
    if name == PaperTopK.name:
        return PaperTopK(seed, seconds, out)
    if name == ServiceCold.name:
        return ServiceCold(seed, seconds, out)
    if name == ServeWarm.name:
        return ServeWarm(seed, seconds, root=root, out=out)
    raise ValueError(f"unknown workload {name!r}")


def environment_for_program(xdg: Path) -> dict:
    """A server's environment: no inherited overrides, its own cache dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["XDG_CACHE_HOME"] = str(xdg)
    env["PYTHONHASHSEED"] = "0"
    return env
