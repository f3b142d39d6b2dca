"""The asyncio query service: sharded, micro-batching, updateable.

One :class:`SensitivityService` hosts any number of named graph
instances. Per instance it keeps the authoritative weights, an
:class:`~repro.pipeline.ArtifactStore` (for incremental rebuilds), and
``shards`` edge-range :class:`~repro.service.shards.OracleShard`
workers, each fronted by a
:class:`~repro.service.batching.MicroBatcher`. Reads route by edge
index to a shard queue and come back micro-batched; writes serialise
through the instance's update lock and either patch in place
(oracle-preserving) or rebuild + atomically swap a new oracle
generation (see :mod:`repro.service.updates`). Rebuilds run on a
worker thread, so the event loop keeps serving reads from the old
generation throughout.

Two front doors share one dispatch path:

* in-process: :class:`ServiceClient` (tests, benchmarks, embedding) —
  no serialisation, plain dicts;
* TCP JSON-lines: one request object per line, one response per line,
  ``id`` echoed when present (``python -m repro serve`` +
  :mod:`repro.service.loadgen`). Non-finite floats use Python's JSON
  extension (``Infinity``/``NaN`` literals), matching the stdlib on
  both ends.

Wire ops: the four point queries (``sensitivity`` / ``survives`` /
``replacement_edge`` / ``entry_threshold``), ``update``,
``update_batch`` (streamed structural ops — see
:mod:`repro.service.streaming`), ``metrics``, ``depth``,
``instances``, ``ping``, ``shutdown``. Overload is a structured
``{"ok": false, "shed": true}`` response, not an ever-growing queue.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import ServiceError, ValidationError
from ..graph.graph import WeightedGraph
from ..mpc import MPCConfig
from ..oracle import SensitivityOracle
from ..pipeline import ArtifactStore
from . import wire
from .batching import QUERY_OPS, MicroBatcher, ServiceOverloaded
from .metrics import merged_latency
from .shards import OracleShard, ShardSpec, plan_shards, route
from .streaming import StreamIngestor
from .updates import BatchReport, InstanceUpdater, UpdateReport

__all__ = ["ServiceConfig", "SensitivityService", "ServiceClient"]


def _edge_id(edge) -> int:
    """A request's edge index as an ``int``, or a ValidationError (JSON
    ``1e400`` is ``inf``, which ``int`` refuses with OverflowError)."""
    try:
        return int(edge)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"edge index must be an integer, got {edge!r}") from None


@dataclass
class ServiceConfig:
    """Deployment knobs for one service process."""

    shards: int = 2                  #: edge-range shards per instance
    max_batch: int = 512             #: micro-batch size cap
    batch_window_s: float = 0.002    #: latency window a batch may wait
    queue_depth: int = 4096          #: per-shard bound before shedding
    engine: str = "local"            #: pipeline engine for (re)builds
    oracle_labels: bool = True       #: treat rooting/DFS as black boxes
    config: Optional[MPCConfig] = None
    cache_dir: Optional[str] = None  #: persistent artifact store
    mmap_dir: Optional[str] = None   #: share oracle snapshots via mmap
    stream_depth: int = 64           #: pending structural batches before shed
    host: str = "127.0.0.1"
    port: int = 7464


@dataclass
class _Instance:
    name: str
    updater: InstanceUpdater
    shards: List[OracleShard]
    batchers: List[MicroBatcher]
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    ingestor: Optional[StreamIngestor] = None  #: created on first batch

    @property
    def specs(self) -> List[ShardSpec]:
        return [s.spec for s in self.shards]


class SensitivityService:
    """Front-end + shard pool + write path for N graph instances."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.instances: Dict[str, _Instance] = {}
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._started = False
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        #: per-connection-negotiated protocols share one listener; the
        #: symbol registry interns instance names to dense u16 ids and
        #: the per-protocol WireMetrics account both front doors
        self.wire_symbols = wire.WireSymbols()
        self.wire = {"json": wire.WireMetrics(),
                     "binary": wire.WireMetrics()}

    # -- instance lifecycle ----------------------------------------------------

    def add_instance(self, name: str, graph: WeightedGraph,
                     oracle: Optional[SensitivityOracle] = None) -> None:
        """Register ``name`` and build (or adopt) its first generation.

        The graph is copied — the service owns the authoritative
        weights from here on. With ``oracle`` given the build is
        skipped (it must belong to this graph).
        """
        if name in self.instances:
            raise ValidationError(f"instance {name!r} already registered")
        cfg = self.config
        graph = graph.copy()
        store = (ArtifactStore(cache_dir=cfg.cache_dir)
                 if cfg.cache_dir is not None else ArtifactStore())
        if oracle is None:
            updater = InstanceUpdater.build(
                name, graph, engine=cfg.engine, config=cfg.config,
                oracle_labels=cfg.oracle_labels, store=store,
                mmap_dir=cfg.mmap_dir,
            )
        else:
            updater = InstanceUpdater(
                name, graph, oracle, engine=cfg.engine, config=cfg.config,
                oracle_labels=cfg.oracle_labels, store=store,
                mmap_dir=cfg.mmap_dir,
            )
        specs = plan_shards(graph.m, cfg.shards)
        self._register(name, updater, specs,
                       updater.shard_oracles(len(specs)))

    def _register(self, name: str, updater: InstanceUpdater,
                  specs: List[ShardSpec],
                  oracles: List[SensitivityOracle]) -> None:
        """Serve ``updater``'s current generation from ``oracles``."""
        inst = _Instance(name=name, updater=updater, shards=[], batchers=[])
        self._install_generation(inst, specs, oracles)
        self.instances[name] = inst

    # -- lifecycle -------------------------------------------------------------

    async def start(self, serve_tcp: bool = False) -> None:
        """Start shard workers (and, optionally, the TCP front door)."""
        self._started = True
        self.started_at = time.perf_counter()
        for inst in self.instances.values():
            for b in inst.batchers:
                b.start()
        if serve_tcp:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )

    @property
    def tcp_address(self) -> Optional[tuple]:
        """Actual ``(host, port)`` once TCP is up (port 0 resolves here)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        """Drain every shard queue, stop workers, close the listener.

        Open connections are closed server-side first so their handler
        tasks exit on EOF instead of being cancelled at loop teardown.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for inst in self.instances.values():
            if inst.ingestor is not None:
                await inst.ingestor.stop()
            for b in inst.batchers:
                await b.stop()
        self._started = False
        self._shutdown.set()

    async def serve_forever(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`stop`) arrives."""
        await self._shutdown.wait()

    # -- read path -------------------------------------------------------------

    def _instance(self, name: Optional[str]) -> _Instance:
        if name is None and len(self.instances) == 1:
            return next(iter(self.instances.values()))
        if name not in self.instances:
            raise ValidationError(
                f"unknown instance {name!r} "
                f"(have: {sorted(self.instances)})"
            )
        return self.instances[name]

    def submit_nowait(self, op: str, edge: int,
                      weight: Optional[float] = None,
                      instance: Optional[str] = None) -> "asyncio.Future":
        """Pipelined fast path: enqueue without awaiting.

        Returns the shard future resolving to ``(generation, ok,
        value, error_kind)``. This is how a multiplexing in-process
        client keeps
        hundreds of point queries in flight (the wire analogue is
        HTTP/2-style pipelining); the batcher sees exactly the same
        queue items as :meth:`query`. Raises
        :class:`~repro.service.batching.ServiceOverloaded` on a full
        queue and :class:`~repro.errors.ValidationError` on a bad
        instance/edge/op.
        """
        if op not in QUERY_OPS:
            raise ValidationError(f"unknown query op {op!r}")
        inst = self._instance(instance)
        edge = _edge_id(edge)
        return inst.batchers[route(inst.specs, edge)].submit(op, edge, weight)

    async def query(self, op: str, edge: int,
                    weight: Optional[float] = None,
                    instance: Optional[str] = None) -> Dict:
        """One point query; resolves when its micro-batch dispatches."""
        if op not in QUERY_OPS:
            return {"ok": False, "error": f"unknown query op {op!r}"}
        try:
            inst = self._instance(instance)
            edge = _edge_id(edge)
            shard_i = route(inst.specs, edge)
        except ValidationError as exc:
            return {"ok": False, "error": str(exc)}
        try:
            fut = inst.batchers[shard_i].submit(op, edge, weight)
        except ServiceOverloaded as exc:
            return {"ok": False, "shed": True, "error": str(exc)}
        except ValidationError as exc:  # e.g. service not started
            return {"ok": False, "error": str(exc)}
        generation, ok, value, error_kind = await fut
        resp = {"ok": ok, "generation": generation, "shard": shard_i}
        resp["result" if ok else "error"] = value
        if error_kind is not None:
            resp["error_kind"] = error_kind
        return resp

    # -- write path ------------------------------------------------------------

    async def update(self, edge: int, weight: float,
                     instance: Optional[str] = None) -> Dict:
        """Commit ``w(edge) := weight`` (serialised per instance).

        A rebuild is the one-op reprice batch (see
        :meth:`InstanceUpdater.apply`), committed and installed exactly
        like an ``update_batch``.
        """
        try:
            inst = self._instance(instance)
            edge = _edge_id(edge)
            weight = float(weight)
            if not 0 <= edge < inst.updater.graph.m:
                raise ValidationError(
                    f"edge index {edge} out of range "
                    f"[0, {inst.updater.graph.m})"
                )
            if not np.isfinite(weight):
                raise ValidationError("edge weights must be finite")
        except (ValidationError, TypeError, ValueError,
                OverflowError) as exc:
            return {"ok": False, "error": str(exc)}
        try:
            report: UpdateReport = await self._commit(
                inst, lambda: inst.updater.apply(inst.shards, edge, weight))
        except ServiceError as exc:
            return {"ok": False, "error": str(exc), "error_kind": exc.kind}
        out = report.to_dict()
        out["ok"] = report.action != "rejected"
        return out

    # -- streaming structural write path ---------------------------------------

    async def update_batch(self, ops, instance: Optional[str] = None) -> Dict:
        """Stream one batch of structural ops through the ingestor.

        The per-instance :class:`StreamIngestor` bounds, coalesces and
        serialises structural batches; concurrent callers may find
        their ops folded into a single rebuild (the response then
        carries ``coalesced_requests > 1`` and the shared report).
        """
        try:
            inst = self._instance(instance)
        except ValidationError as exc:
            return {"ok": False, "error": str(exc)}
        if inst.ingestor is None:
            inst.ingestor = StreamIngestor(self, inst.name,
                                           depth=self.config.stream_depth)
        return await inst.ingestor.submit(ops)

    async def _apply_structural(self, instance: str, ops) -> Dict:
        """Apply one coalesced op batch and install the new generation
        (runs on the ingestor's drain loop)."""
        inst = self.instances[instance]
        report: BatchReport = await self._commit(
            inst, lambda: inst.updater.apply_batch(list(ops)))
        out = report.to_dict()
        out["ok"] = report.action != "rejected"
        out["report"] = report  # for StreamMetrics; popped by the ingestor
        return out

    async def _commit(self, inst: _Instance, write):
        """Run ``write()`` under the instance lock; install what it built.

        The write — and, for a rebuild, the new generation's shard
        oracles (a snapshot publish in mmap mode) — run on a worker
        thread, so reads keep flowing from the old generation. The
        install itself is synchronous (see :meth:`_install_generation`);
        superseded batchers drain their queued queries on the generation
        they were routed to, outside the lock.
        """
        def work():
            report = write()
            if report.action != "rebuilt":
                return report, None, None
            updater = inst.updater
            specs = plan_shards(updater.graph.m, self.config.shards)
            oracles = updater.shard_oracles(len(specs))
            report.snapshot_path = updater.snapshot_path
            report.snapshot_digest = updater.snapshot_digest
            return report, specs, oracles

        old_batchers: List[MicroBatcher] = []
        async with inst.lock:
            report, specs, oracles = await asyncio.get_running_loop() \
                .run_in_executor(None, work)
            if specs is not None:
                old_batchers = self._install_generation(inst, specs, oracles)
        for b in old_batchers:
            await b.stop()
        return report

    def _install_generation(self, inst: _Instance, specs: List[ShardSpec],
                            oracles: List[SensitivityOracle]
                            ) -> List[MicroBatcher]:
        """Install the updater's current generation — synchronously.

        With an unchanged shard plan (same ``m``) every shard swaps its
        oracle in place. Otherwise the shard/batcher tuples for the new
        plan replace the old ones in one block: ``submit_nowait`` reads
        specs and batchers with no await between them, so it sees old
        or new, never a mix. Shard counters carry over positionally.
        Returns the superseded batchers for the caller to stop outside
        the instance lock.
        """
        generation = inst.updater.generation
        if specs == inst.specs:
            for shard, orc in zip(inst.shards, oracles):
                shard.swap(orc, generation)
            return []
        cfg = self.config
        shards = [OracleShard(spec, orc, generation=generation)
                  for spec, orc in zip(specs, oracles)]
        for new, old in zip(shards, inst.shards):
            new.metrics = old.metrics
            new.metrics.swaps += 1
        batchers = [
            MicroBatcher(s, max_batch=cfg.max_batch,
                         window_s=cfg.batch_window_s,
                         queue_depth=cfg.queue_depth)
            for s in shards
        ]
        old_batchers = inst.batchers
        inst.shards = shards          # no await between these two
        inst.batchers = batchers      # assignments: atomic vs the loop
        if self._started:
            for b in batchers:
                b.start()
        return old_batchers

    # -- introspection ---------------------------------------------------------

    def describe_instances(self) -> Dict:
        return {
            name: {
                "n": inst.updater.graph.n,
                "m": inst.updater.graph.m,
                "m_tree": inst.updater.graph.m_tree,
                "generation": inst.updater.generation,
                "shards": [
                    {"shard": s.spec.shard_id, "edge_lo": s.spec.edge_lo,
                     "edge_hi": s.spec.edge_hi}
                    for s in inst.shards
                ],
            }
            for name, inst in self.instances.items()
        }

    def metrics(self) -> Dict:
        uptime = (time.perf_counter() - self.started_at
                  if self.started_at is not None else 0.0)
        per_instance = {}
        total_queries = total_shed = 0
        reservoirs = []
        for name, inst in self.instances.items():
            shard_snaps = [s.metrics.snapshot(uptime) for s in inst.shards]
            total_queries += sum(s["queries"] for s in shard_snaps)
            total_shed += sum(s["shed"] for s in shard_snaps)
            reservoirs.extend(s.metrics.latency for s in inst.shards)
            per_instance[name] = {
                "generation": inst.updater.generation,
                "shards": shard_snaps,
                "updates": inst.updater.metrics.snapshot(),
                "store": inst.updater.store.stats(),
            }
            if inst.ingestor is not None:
                per_instance[name]["stream"] = inst.ingestor.metrics.snapshot()
        return {
            "uptime_s": round(uptime, 3),
            "queries": total_queries,
            "qps": round(total_queries / uptime, 1) if uptime else 0.0,
            "shed": total_shed,
            # service-wide percentiles: pooled shard reservoirs, not a
            # percentile of per-shard percentiles (which composes wrong)
            "latency": merged_latency(reservoirs),
            "wire": {proto: wm.snapshot()
                     for proto, wm in self.wire.items()},
            "instances": per_instance,
        }

    def queue_depths(self) -> Dict:
        """Per-instance queued-query totals — the backpressure signal.

        The router polls this (wire op ``depth``) and sheds at its own
        tier before forwarding once an instance's fraction of its total
        queue bound crosses the shed watermark.
        """
        out = {}
        for name, inst in self.instances.items():
            queued = sum(b.depth for b in inst.batchers)
            bound = sum(b.queue_depth for b in inst.batchers)
            out[name] = {
                "queued": queued,
                "bound": bound,
                "fraction": round(queued / bound, 4) if bound else 0.0,
                "generation": inst.updater.generation,
            }
        return out

    # -- TCP JSON-lines front door ---------------------------------------------

    async def handle_request(self, req: Dict) -> Dict:
        """Dispatch one already-parsed request object (shared path)."""
        op = req.get("op")
        if op in QUERY_OPS:
            resp = await self.query(op, req.get("edge", -1),
                                    weight=req.get("weight"),
                                    instance=req.get("instance"))
        elif op == "update":
            resp = await self.update(req.get("edge", -1),
                                     req.get("weight", float("nan")),
                                     instance=req.get("instance"))
        elif op == "update_batch":
            resp = await self.update_batch(req.get("ops"),
                                           instance=req.get("instance"))
        elif op == "metrics":
            resp = {"ok": True, "result": self.metrics()}
        elif op == "depth":
            resp = {"ok": True, "result": self.queue_depths()}
        elif op == "instances":
            resp = {"ok": True, "result": self.describe_instances()}
        elif op == "ping":
            resp = {"ok": True, "result": "pong"}
        elif op == "hello":
            resp = self.hello(req)
        elif op == "shutdown":
            resp = {"ok": True, "result": "bye"}
        else:
            resp = {"ok": False, "error": f"unknown op {op!r}"}
        if "id" in req:
            resp["id"] = req["id"]
        return resp

    def hello(self, req: Dict) -> Dict:
        """Binary-protocol negotiation: intern names, return the table.

        With an explicit ``instances`` list the names are interned *in
        the given order* — the router uses this to dictate its own
        global id order to every worker, so relayed frames never need
        id rewriting. Without one, every currently registered instance
        is interned in sorted order (what a standalone client wants).
        Ids are dense, append-only and process-global, so repeated
        hellos only ever extend the table.
        """
        names = req.get("instances")
        if names is None:
            names = sorted(self.instances)
        try:
            symbols = self.wire_symbols.intern_all(str(n) for n in names)
        except wire.WireError as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True,
                "result": {"wire": wire.WIRE_VERSION, "symbols": symbols}}

    #: In-flight pipelined requests allowed per connection before the
    #: reader stops pulling new lines (per-shard queues bound the real
    #: backlog; this only stops one connection from hogging the loop).
    PIPELINE_LIMIT = 1024

    #: bytes pulled per read on a binary connection (a few thousand
    #: point frames per syscall when the client pipelines deeply)
    READ_SIZE = 1 << 16

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One connection, protocol negotiated by its very first byte.

        ``0xB7`` (:data:`~repro.service.wire.MAGIC`) can never open a
        JSON request and ``{`` can never open a binary frame, so the
        first byte routes the whole connection to the matching handler
        — old JSON-lines clients keep working untouched on the same
        port, new clients opt into the binary framing per connection.
        """
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._conn_writers.add(writer)
        try:
            try:
                first = await reader.readexactly(1)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return
            if first[0] == wire.MAGIC:
                self.wire["binary"].connections += 1
                await self._serve_binary(reader, writer, first)
            else:
                self.wire["json"].connections += 1
                await self._serve_jsonl(reader, writer, first)
        finally:
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_jsonl(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           first: bytes) -> None:
        """One JSON-lines connection, **pipelined with in-order replies**.

        The reader keeps pulling request lines and dispatches each as
        its own task; a writer coroutine awaits those tasks strictly in
        arrival order and writes one response line per request. Clients
        may therefore keep many requests in flight on one connection
        (the response order IS the request order — no ids needed for
        correlation), which is what makes a micro-batching shard fill
        its batches from a single TCP peer, and what the router tier's
        FIFO-correlated worker links are built on. A serial
        one-request-at-a-time client observes exactly the old protocol.
        """
        wm = self.wire["json"]
        order: asyncio.Queue = asyncio.Queue(maxsize=self.PIPELINE_LIMIT)

        async def write_in_order() -> None:
            while True:
                item = await order.get()
                if item is None:
                    return
                fut, is_shutdown = item
                try:
                    resp = await fut
                except Exception as exc:  # noqa: BLE001 - answer, don't die
                    resp = {"ok": False,
                            "error": f"{type(exc).__name__}: {exc}"}
                t0 = time.perf_counter_ns()
                payload = wire.dumps_line(resp)
                wm.record_encode(1, time.perf_counter_ns() - t0)
                wm.json_encodes += 1
                wm.frames_out += 1
                wm.bytes_out += len(payload)
                writer.write(payload)
                await writer.drain()
                if is_shutdown:
                    self._shutdown.set()
                    return

        wtask = asyncio.get_running_loop().create_task(write_in_order())
        try:
            while not wtask.done():
                try:
                    line = first + await reader.readline()
                    first = b""
                except (ConnectionError, OSError):
                    break
                except ValueError:  # past the line limit: answer, close
                    fut = asyncio.get_running_loop().create_future()
                    fut.set_result({"ok": False, "error": wire.LINE_TOO_LONG,
                                    "error_kind": "protocol"})
                    await order.put((fut, False))
                    break
                if not line:
                    break
                wm.frames_in += 1
                wm.bytes_in += len(line)
                try:
                    t0 = time.perf_counter_ns()
                    req = json.loads(line)
                    wm.record_decode(1, time.perf_counter_ns() - t0)
                    wm.json_decodes += 1
                    if not isinstance(req, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    fut: asyncio.Future = asyncio.get_running_loop() \
                        .create_future()
                    fut.set_result(
                        {"ok": False, "error": f"bad request: {exc}"})
                    await order.put((fut, False))
                    continue
                handling = asyncio.get_running_loop().create_task(
                    self.handle_request(req))
                await order.put((handling, req.get("op") == "shutdown"))
                if req.get("op") == "shutdown":
                    break
        finally:
            if not wtask.done():
                try:
                    order.put_nowait(None)
                except asyncio.QueueFull:
                    # writer stalled against a full pipeline (dead peer
                    # mid-drain): nothing left to deliver in order
                    wtask.cancel()
            try:
                await wtask
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass  # peer vanished mid-write: drop queued answers
            while not order.empty():
                item = order.get_nowait()
                if item is not None:
                    item[0].cancel()
                    try:
                        await item[0]
                    except (asyncio.CancelledError, Exception):  # noqa: BLE001
                        pass

    async def _serve_binary(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            first: bytes) -> None:
        """One binary connection: batched decode, columnar answers.

        Same pipelined in-order discipline as the JSON door, but the
        unit of work is a *run* of frames per read, not a line:
        contiguous 16-byte point frames lift into numpy columns with
        one ``frombuffer`` and answer with one ``tobytes``; bulk and
        escape frames dispatch individually. A framing violation (bad
        magic — e.g. a JSON client that negotiated binary — unknown
        type, oversized length) answers with a structured escape error
        and closes the connection; it never hangs and never kills the
        handler task.
        """
        wm = self.wire["binary"]
        loop = asyncio.get_running_loop()
        order: asyncio.Queue = asyncio.Queue(maxsize=self.PIPELINE_LIMIT)

        async def write_in_order() -> None:
            while True:
                item = await order.get()
                if item is None:
                    return
                fut, is_shutdown = item
                try:
                    payload = await fut
                except Exception as exc:  # noqa: BLE001 - answer, don't die
                    wm.json_encodes += 1
                    payload = wire.encode_escape(
                        {"ok": False,
                         "error": f"{type(exc).__name__}: {exc}"})
                wm.bytes_out += len(payload)
                writer.write(payload)
                await writer.drain()
                if is_shutdown:
                    self._shutdown.set()
                    return

        wtask = loop.create_task(write_in_order())
        buf = bytearray(first)
        closing = False
        try:
            while not wtask.done() and not closing:
                try:
                    data = await reader.read(self.READ_SIZE)
                except (ConnectionError, OSError):
                    break
                if not data:
                    break
                buf += data
                while buf and not closing:
                    run = wire.point_run_length(buf)
                    if run:
                        t0 = time.perf_counter_ns()
                        arr = np.frombuffer(
                            bytes(buf[:run * wire.POINT_LEN]),
                            dtype=wire.POINT_DTYPE)
                        del buf[:run * wire.POINT_LEN]
                        wm.record_decode(run, time.perf_counter_ns() - t0)
                        wm.frames_in += run
                        wm.bytes_in += run * wire.POINT_LEN
                        await order.put(
                            (loop.create_task(
                                self._answer_point_run(arr, wm)), False))
                        continue
                    length = wire.frame_length(buf)
                    if length is None or len(buf) < length:
                        break  # incomplete frame: wait for more bytes
                    frame = bytes(buf[:length])
                    del buf[:length]
                    wm.frames_in += 1
                    wm.bytes_in += length
                    ftype = frame[1]
                    if ftype == wire.ESCAPE:
                        wm.json_decodes += 1
                        req = wire.decode_escape(frame)
                        is_shutdown = req.get("op") == "shutdown"
                        await order.put(
                            (loop.create_task(
                                self._answer_escape(req, wm)), is_shutdown))
                        if is_shutdown:
                            closing = True
                    elif wire.POINT_OF_BULK.get(ftype) is not None:
                        t0 = time.perf_counter_ns()
                        op, iid, edges, weights = \
                            wire.decode_bulk_request(frame)
                        wm.record_decode(1, time.perf_counter_ns() - t0)
                        await order.put(
                            (loop.create_task(
                                self._answer_bulk(op, int(iid), edges,
                                                  weights, wm)), False))
                    else:
                        raise wire.WireError(
                            f"frame type 0x{ftype:02x} is not a request")
        except wire.WireError as exc:
            wm.json_encodes += 1
            fut: asyncio.Future = loop.create_future()
            fut.set_result(wire.encode_escape(
                {"ok": False, "error": f"wire protocol error: {exc}",
                 "error_kind": "protocol"}))
            try:
                order.put_nowait((fut, False))
            except asyncio.QueueFull:  # pragma: no cover - dead peer
                pass
        finally:
            if not wtask.done():
                try:
                    order.put_nowait(None)
                except asyncio.QueueFull:
                    wtask.cancel()
            try:
                await wtask
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass  # peer vanished mid-write: drop queued answers
            while not order.empty():
                item = order.get_nowait()
                if item is not None:
                    item[0].cancel()
                    try:
                        await item[0]
                    except (asyncio.CancelledError, Exception):  # noqa: BLE001
                        pass

    def _group_point_columns(self, arr: np.ndarray, statuses: np.ndarray,
                             resp: np.ndarray) -> list:
        """Split one decoded run into per-(instance, op, shard) vector
        submissions.

        Rows that cannot be routed (unknown instance id, shed at
        submit time) get their status written in place; everything
        else comes back as ``(rows, shard_id, future)`` work for the
        caller to gather. No per-request dicts anywhere.
        """
        pending = []
        iids = arr["iid"]
        for iid in np.unique(iids):
            pos = np.flatnonzero(iids == iid)
            name = self.wire_symbols.name_of(int(iid))
            inst = self.instances.get(name) if name is not None else None
            if inst is None:
                statuses[pos] = wire.ST_UNKNOWN_INSTANCE
                continue
            specs, batchers = inst.specs, inst.batchers
            edges = arr["edge"][pos].astype(np.int64)
            if len(specs) == 1:
                shard_of = np.zeros(len(pos), dtype=np.int64)
            else:
                # out-of-range ids clip to the edge shards, whose
                # batchers answer them with the exact range error
                bounds = np.array([s.edge_lo for s in specs[1:]],
                                  dtype=np.int64)
                shard_of = np.searchsorted(bounds, edges, side="right")
            types = arr["type"][pos]
            for op_code in np.unique(types):
                op = wire.OP_NAME[int(op_code)]
                sel = types == op_code
                for shard_i in np.unique(shard_of[sel]):
                    take = np.flatnonzero(sel & (shard_of == shard_i))
                    rows = pos[take]
                    weights = (arr["weight"][rows]
                               if op == "survives" else None)
                    try:
                        fut = batchers[shard_i].submit_vector(
                            op, edges[take], weights)
                    except ServiceOverloaded:
                        statuses[rows] = wire.ST_SHED
                        resp["shard"][rows] = shard_i
                        resp["value"][rows] = batchers[shard_i].queue_depth
                        continue
                    pending.append((rows, int(shard_i), fut))
        return pending

    async def _answer_point_run(self, arr: np.ndarray, wm) -> bytes:
        """Answer one decoded run of point frames, columnar end to end."""
        n = len(arr)
        resp = np.zeros(n, dtype=wire.RESP_DTYPE)
        resp["magic"] = wire.MAGIC
        statuses = np.zeros(n, dtype=np.uint8)
        pending = self._group_point_columns(arr, statuses, resp)
        for rows, shard_i, fut in pending:
            generation, st, vals = await fut
            statuses[rows] = st
            resp["generation"][rows] = generation
            resp["shard"][rows] = shard_i
            resp["value"][rows] = vals
        t0 = time.perf_counter_ns()
        resp["type"] = wire.RESP_BASE | statuses
        payload = resp.tobytes()
        wm.record_encode(n, time.perf_counter_ns() - t0)
        wm.frames_out += n
        return payload

    async def _answer_bulk(self, op: str, iid: int, edges: np.ndarray,
                           weights, wm) -> bytes:
        """Answer one columnar bulk query with one columnar response.

        The response carries a single generation field; a query that
        spans shards reports the newest generation touched (per-row
        generations would cost 4 bytes/row on a path built to be lean
        — the point path carries them exactly).
        """
        n = len(edges)
        statuses = np.zeros(n, dtype=np.uint8)
        values = np.zeros(n, dtype=np.float64)
        name = self.wire_symbols.name_of(iid)
        inst = self.instances.get(name) if name is not None else None
        if inst is None:
            statuses[:] = wire.ST_UNKNOWN_INSTANCE
            return wire.encode_bulk_response(
                wire.OP_CODE[op], 0xFFFF, 0, statuses, values)
        arr = np.zeros(n, dtype=wire.POINT_DTYPE)
        arr["type"] = wire.OP_CODE[op]
        arr["iid"] = iid
        arr["edge"] = edges
        if weights is not None:
            arr["weight"] = weights
        resp = np.zeros(n, dtype=wire.RESP_DTYPE)  # scratch for shed rows
        pending = self._group_point_columns(arr, statuses, resp)
        generation, shard = 0, 0xFFFF
        for rows, shard_i, fut in pending:
            gen, st, vals = await fut
            statuses[rows] = st
            values[rows] = vals
            generation = max(generation, int(gen))
            shard = shard_i if len(pending) == 1 else 0xFFFF
        shed = statuses == wire.ST_SHED
        if shed.any():
            values[shed] = resp["value"][shed]
        t0 = time.perf_counter_ns()
        payload = wire.encode_bulk_response(
            wire.OP_CODE[op], shard, generation, statuses, values)
        wm.record_encode(1, time.perf_counter_ns() - t0)
        wm.frames_out += 1
        return payload

    async def _answer_escape(self, req: Dict, wm) -> bytes:
        """Control ops ride JSON inside the escape frame, both ways."""
        resp = await self.handle_request(req)
        wm.json_encodes += 1
        wm.frames_out += 1
        return wire.encode_escape(resp)


class ServiceClient:
    """One client, two transports: in-process dispatch or TCP.

    Construct with a :class:`SensitivityService` for in-process use
    (the wire protocol without the wire), or with
    ``await ServiceClient.connect(host, port)`` for a real JSON-lines
    connection. Typed helpers raise on error responses; :meth:`call`
    returns the raw response dict (what a TCP client would read back),
    which is what tests use to observe sheds and structured errors.

    Transport failures never leak raw socket exceptions: a server that
    drops the connection mid-call — a worker being restarted under the
    router, a ``shutdown`` racing a query — surfaces as
    :class:`~repro.errors.ServiceError` with ``kind="disconnected"``,
    so callers distinguish "peer said no" from "peer went away".
    """

    #: one point request/response frame (client side encodes one at a
    #: time under the call lock; pipelined encoding lives in loadgen)
    _POINT = struct.Struct("<BBHId")

    def __init__(self, service: Optional[SensitivityService] = None,
                 instance: Optional[str] = None):
        self.service = service
        self.instance = instance
        self.wire_mode = "json"
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock: Optional[asyncio.Lock] = None
        self._symbols: Dict[str, int] = {}

    @classmethod
    async def connect(cls, host: str, port: int,
                      instance: Optional[str] = None,
                      connect_timeout_s: float = 10.0,
                      wire_mode: str = "json") -> "ServiceClient":
        """Open a TCP connection to a running service.

        ``wire_mode="binary"`` negotiates the binary protocol on this
        connection (a ``hello`` handshake interns instance names); the
        default keeps the JSON-lines protocol byte-for-byte as before.
        """
        if wire_mode not in ("json", "binary"):
            raise ValidationError(f"unknown wire mode {wire_mode!r}")
        client = cls(instance=instance)
        client.wire_mode = wire_mode
        try:
            client._reader, client._writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), connect_timeout_s
            )
        except asyncio.TimeoutError:
            raise ServiceError(
                f"connect to {host}:{port} timed out "
                f"after {connect_timeout_s:.1f}s", kind="disconnected")
        except OSError as exc:
            raise ServiceError(f"connect to {host}:{port} failed: {exc}",
                               kind="disconnected")
        client._lock = asyncio.Lock()
        if wire_mode == "binary":
            await client._hello()
        return client

    async def _hello(self, names: Optional[List[str]] = None) -> None:
        """(Re-)negotiate the symbol table over an escape frame."""
        req = {"op": "hello"}
        if names is not None:
            req["instances"] = names
        resp = await self._roundtrip_escape(req)
        if not resp.get("ok"):
            raise ServiceError(
                f"hello rejected: {resp.get('error')}", kind="protocol")
        self._symbols.update(resp["result"]["symbols"])

    async def _read_frame(self) -> bytes:
        """One complete binary frame off the connection (under lock)."""
        head = await self._reader.readexactly(wire.HEADER_LEN)
        length = wire.frame_length(head)
        if length == wire.HEADER_LEN:
            return head
        return head + await self._reader.readexactly(length - wire.HEADER_LEN)

    async def _roundtrip_escape(self, req: Dict) -> Dict:
        """One control op as an escape frame, response decoded to dict."""
        async with self._lock:
            try:
                self._writer.write(wire.encode_escape(req))
                await self._writer.drain()
                frame = await self._read_frame()
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError) as exc:
                raise ServiceError(
                    f"connection lost mid-call ({req.get('op')}): "
                    f"{type(exc).__name__}: {exc}", kind="disconnected")
        if frame[1] != wire.ESCAPE:
            raise ServiceError(
                f"expected escape response, got frame type "
                f"0x{frame[1]:02x}", kind="protocol")
        return wire.decode_escape(frame)

    def _iid_of(self, name: Optional[str]) -> Optional[int]:
        """Resolve an instance name to its interned id, if possible.

        ``None`` means "fall back to the escape frame" — an unnamed
        instance on a multi-instance server, or a name the server has
        not interned for us yet — where the JSON dispatch produces the
        exact error envelope this client should see.
        """
        if name is None:
            if len(self._symbols) == 1:
                return next(iter(self._symbols.values()))
            return None
        return self._symbols.get(name)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def call(self, op: str, **kw) -> Dict:
        req = {"op": op, **kw}
        if "instance" not in req and self.instance is not None:
            req["instance"] = self.instance
        if self.service is not None:
            return await self.service.handle_request(req)
        if self._writer is None:
            raise ServiceError("client is not connected",
                               kind="disconnected")
        if self.wire_mode == "binary":
            return await self._call_binary(op, req)
        async with self._lock:  # one request in flight per connection
            try:
                self._writer.write(wire.dumps_line(req))
                await self._writer.drain()
                line = await self._reader.readline()
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError) as exc:
                raise ServiceError(
                    f"connection lost mid-call ({op}): "
                    f"{type(exc).__name__}: {exc}", kind="disconnected")
        if not line:
            raise ServiceError(
                f"server closed the connection mid-call ({op})",
                kind="disconnected")
        try:
            return json.loads(line)
        except ValueError as exc:
            raise ServiceError(f"unparseable response line: {exc}",
                               kind="protocol")

    async def _call_binary(self, op: str, req: Dict) -> Dict:
        """One request over the binary connection.

        Point queries that fit the fixed frame (known instance, u32
        edge, real weight) go as 16-byte frames and decode back to the
        exact dict the JSON path would return. Everything else —
        control ops, and the degenerate queries whose error envelopes
        only the JSON dispatch can produce (negative edge, missing
        survives weight, unknown instance) — rides the escape frame
        and comes back as the server's own JSON.
        """
        if op in QUERY_OPS:
            iid = self._iid_of(req.get("instance"))
            if iid is None and req.get("instance") is not None:
                await self._hello()  # maybe interned since we connected
                iid = self._iid_of(req.get("instance"))
            edge, weight = req.get("edge"), req.get("weight")
            fits = (iid is not None
                    and isinstance(edge, int)
                    and 0 <= edge < 2 ** 32
                    and (weight is not None or op != "survives")
                    and "id" not in req)
            if fits:
                frame = self._POINT.pack(
                    wire.MAGIC, wire.OP_CODE[op], iid, edge,
                    float(weight) if weight is not None else 0.0)
                async with self._lock:
                    try:
                        self._writer.write(frame)
                        await self._writer.drain()
                        resp = await self._read_frame()
                    except (ConnectionError, asyncio.IncompleteReadError,
                            OSError) as exc:
                        raise ServiceError(
                            f"connection lost mid-call ({op}): "
                            f"{type(exc).__name__}: {exc}",
                            kind="disconnected")
                if resp[1] == wire.ESCAPE:
                    return wire.decode_escape(resp)
                rec = np.frombuffer(resp, dtype=wire.RESP_DTYPE)[0]
                name = req.get("instance")
                if name is None:  # the single interned instance
                    name = next(n for n, i in self._symbols.items()
                                if i == iid)
                return wire.point_response_to_dict(op, edge, rec, name)
        try:
            return await self._roundtrip_escape(req)
        except asyncio.IncompleteReadError:
            raise ServiceError(
                f"server closed the connection mid-call ({op})",
                kind="disconnected")

    async def bulk(self, op: str, edges, weights=None,
                   instance: Optional[str] = None):
        """One columnar bulk query over a binary connection.

        Returns ``(shard, generation, statuses, values)`` — raw wire
        columns, zero boxing. ``shard`` is 0xFFFF when the query
        spanned shards (or failed before reaching one).
        """
        if self.wire_mode != "binary" or self._writer is None:
            raise ServiceError(
                "bulk queries need a binary TCP connection "
                "(ServiceClient.connect(..., wire_mode='binary'))",
                kind="protocol")
        name = instance if instance is not None else self.instance
        iid = self._iid_of(name)
        if iid is None:
            await self._hello()
            iid = self._iid_of(name)
        if iid is None:
            raise ValidationError(f"unknown instance {name!r}")
        frame = wire.encode_bulk_request(op, iid, edges, weights)
        async with self._lock:
            try:
                self._writer.write(frame)
                await self._writer.drain()
                resp = await self._read_frame()
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError) as exc:
                raise ServiceError(
                    f"connection lost mid-call (bulk {op}): "
                    f"{type(exc).__name__}: {exc}", kind="disconnected")
        if resp[1] == wire.ESCAPE:
            err = wire.decode_escape(resp)
            raise ServiceError(str(err.get("error")), kind="protocol")
        return wire.decode_bulk_response(resp)

    async def _value(self, op: str, **kw):
        resp = await self.call(op, **kw)
        if not resp.get("ok"):
            raise ValidationError(resp.get("error", "query failed"))
        return resp["result"]

    async def sensitivity(self, edge: int, **kw) -> float:
        return await self._value("sensitivity", edge=edge, **kw)

    async def survives(self, edge: int, weight: float, **kw) -> bool:
        return await self._value("survives", edge=edge, weight=weight, **kw)

    async def replacement_edge(self, edge: int, **kw) -> Optional[int]:
        return await self._value("replacement_edge", edge=edge, **kw)

    async def entry_threshold(self, edge: int, **kw) -> float:
        return await self._value("entry_threshold", edge=edge, **kw)

    async def update(self, edge: int, weight: float, **kw) -> Dict:
        return await self.call("update", edge=edge, weight=weight, **kw)

    async def update_batch(self, ops, **kw) -> Dict:
        """Submit one structural batch (add/remove/reprice op dicts)."""
        return await self.call("update_batch", ops=list(ops), **kw)

    async def metrics(self) -> Dict:
        return await self._value("metrics")
