"""Server side of the serving workloads: one server or router fleet.

Run by the benchmark driver as its own process::

    python3 perfbench/launcher.py --mode direct|fleet --n N --seed S \
        --trace 0|1

It generates the seeded instance graphs, starts the program's server
(``direct``: one :class:`SensitivityService`; ``fleet``: a
:class:`RouterTier` with two worker processes, replication 2), builds
the instances and prints one ``READY {...}`` line with the TCP port,
the role → pid map, and the generation/build timings. It then serves
until a ``shutdown`` request arrives.

The driver sends commands over stdin. ``metrics`` prints the result
of the server's own ``metrics`` op handler as one ``METRICS {...}``
line; it is fetched here rather than over TCP because the router's
JSON encoder fails on the numpy integers its counters hold after binary
relay traffic, which closes the asking connection.

With ``--trace 1`` (``direct`` only) the span wrappers of
:mod:`tracer` are installed before anything is built: ``reset`` clears
the aggregates at the start of the measured window, ``dump`` prints
them as one ``TRACE {...}`` line. Fleet workers are forkserver children
started by the program, so no wrapper reaches them; their numbers come
from the ``metrics`` op.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: Instances served by each mode (name = tree shape of the graph).
INSTANCES = {"direct": ("random",), "fleet": ("random", "power_law")}


def _say(tag: str, payload) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload, default=_plain)}\n")
    sys.stdout.flush()


def _plain(obj):
    """numpy scalars in the program's counters -> JSON numbers."""
    return obj.item()


def _control(tracer, loop, server) -> None:
    """stdin commands from the driver: metrics, trace reset/dump."""
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "metrics":
            fut = asyncio.run_coroutine_threadsafe(_metrics(server), loop)
            _say("METRICS", fut.result(timeout=60))
        elif cmd == "reset" and tracer is not None:
            tracer.reset()
            _say("RESET", {})
        elif cmd == "dump" and tracer is not None:
            _say("TRACE", tracer.snapshot())


async def _metrics(server):
    if hasattr(server, "router_metrics"):
        return await server.router_metrics()
    return server.metrics()


async def _serve(args, tracer) -> None:
    from repro.service import (RouterConfig, RouterTier, SensitivityService,
                               ServiceConfig)
    from repro.oracle import SensitivityOracle

    names = INSTANCES[args.mode]
    t0 = time.perf_counter()
    graphs = {name: common.make_graph(name, args.n, args.seed, salt=i)
              for i, name in enumerate(names)}
    generate_s = time.perf_counter() - t0

    pids = {"front": os.getpid()}
    if args.mode == "direct":
        server = SensitivityService(ServiceConfig(shards=2, port=0))
        t0 = time.perf_counter()
        for name, g in graphs.items():
            server.add_instance(name, g)
        build_s = time.perf_counter() - t0
        rounds = sum(inst.updater.oracle.precompute_rounds
                     for inst in server.instances.values())
        await server.start(serve_tcp=True)
    else:
        server = RouterTier(RouterConfig(workers=2, replication=2, shards=2,
                                         port=0))
        await server.start(serve_tcp=True)
        t0 = time.perf_counter()
        infos = [await server.add_instance(name, g)
                 for name, g in graphs.items()]
        build_s = time.perf_counter() - t0
        # the snapshot each replica maps records the build's rounds
        rounds = sum(SensitivityOracle.load(info["path"], mmap_mode="r")
                     .precompute_rounds for info in infos)
        for w in server.workers.values():
            pids[f"worker{w.worker_id}"] = w.proc.pid
    host, port = server.tcp_address
    threading.Thread(target=_control, daemon=True,
                     args=(tracer, asyncio.get_running_loop(), server)).start()
    _say("READY", {"host": host, "port": port, "pids": pids,
                   "generate_s": generate_s, "build_s": build_s,
                   "build_rounds": rounds, "traced": tracer is not None,
                   "m": {name: g.m for name, g in graphs.items()}})
    try:
        await server.serve_forever()
    finally:
        await server.stop()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=sorted(INSTANCES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    common.use_checkout_paths()

    tracer = None
    if args.trace and args.mode == "direct":
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())
    asyncio.run(_serve(args, tracer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
