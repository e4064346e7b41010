"""Server process of the serve-warm workload.

Run by ``run.py``, never by hand::

    python perfbench/serve_main.py --seed 7 --stats out.json [--spans s.npz]

Builds a fresh :class:`repro.service.RankJoinServer` over the workload's
relations, prints one JSON line ``{"port": ...}`` once the socket
listens, serves until a ``shutdown`` request, then writes its stats (peak
RSS, per-session queue waits and steps) and, when ``--spans`` is given,
the spans of every layer it ran.  With ``--spans`` the tracing wrappers
are installed before the server is built.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    from repro import kernels
    from repro.service import QueryService, RankJoinServer
    from workloads import resolve_kernel_thresholds, serve_relations

    resolve_kernel_thresholds()
    relations = serve_relations(args.seed)
    service = QueryService()
    server = RankJoinServer(service, relations, host="127.0.0.1", port=0)

    def announce() -> None:
        server.ready.wait()
        print(json.dumps({"port": server.port}), flush=True)

    threading.Thread(target=announce, daemon=True).start()
    server.run()

    sessions = service.scheduler.finished_sessions
    stats = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "queue_waits": [s.started_at - s.submitted_at for s in sessions
                        if s.started_at is not None],
        "steps": [s.steps for s in sessions],
        "sessions": len(sessions),
        "routes": kernels.dispatch_routes(),
    }
    if tracer is not None:
        tracer.dump(args.spans)
    Path(args.stats).write_text(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
