"""One router-tier worker: a service process that adopts snapshots.

A worker process runs a full :class:`~repro.service.server.
SensitivityService` (shards, micro-batchers, update path) plus the
three control ops the router tier needs:

``adopt``
    Register an instance from a shipped, digest-addressed oracle
    snapshot: verify the file's content hash against the advertised
    digest, memory-map it (one page-cached copy shared by every worker
    process on the box), reconstruct the authoritative graph from the
    snapshot's own edge arrays, and start serving at the shipped
    generation. No pipeline stage runs — adoption is O(mmap).
    Re-adopting an already-registered instance is idempotent: it
    routes through ``swap``, which is how a rejoining or resyncing
    replica re-aligns with the router's generation ledger.

``swap``
    Zero-downtime generation swap: verify + map a newer snapshot and
    atomically publish it to every shard (the same one-tuple swap the
    in-process update path uses), while in-flight batches finish on
    the generation they started on. This is how a replica follows a
    rebuild that happened *once* on the primary — the router ships the
    digest and path, never the work.

``depth`` (inherited)
    The queue-depth report the router polls for backpressure.

The module-level :func:`worker_entry` is the ``multiprocessing`` target
(explicit forkserver/spawn context — the same discipline as
:mod:`repro.mpc.parallel`): it boots the service, binds TCP on an
ephemeral port, reports ``("ready", worker_id, port)`` through its
pipe, and serves until a ``shutdown`` op arrives.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ValidationError
from ..graph.graph import WeightedGraph
from ..mpc import MPCConfig
from ..oracle import SensitivityOracle
from ..pipeline import ArtifactStore
from ..serialize import file_digest
from .server import SensitivityService, ServiceConfig
from .shards import plan_shards
from .updates import InstanceUpdater

__all__ = ["WorkerSpec", "WorkerService", "worker_entry"]


@dataclass
class WorkerSpec:
    """Plain-field worker bootstrap config (crosses the spawn pipe)."""

    worker_id: int
    host: str = "127.0.0.1"
    shards: int = 2
    max_batch: int = 512
    batch_window_s: float = 0.002
    queue_depth: int = 4096
    engine: str = "local"
    delta: float = 0.35
    oracle_labels: bool = True
    mmap_dir: Optional[str] = None
    cache_dir: Optional[str] = None

    def service_config(self) -> ServiceConfig:
        config = (MPCConfig(delta=self.delta)
                  if self.engine == "distributed" else None)
        return ServiceConfig(
            shards=self.shards, max_batch=self.max_batch,
            batch_window_s=self.batch_window_s,
            queue_depth=self.queue_depth, engine=self.engine,
            oracle_labels=self.oracle_labels, config=config,
            cache_dir=self.cache_dir, mmap_dir=self.mmap_dir,
            host=self.host, port=0,
        )


def _verified_load(path: str, digest: str, n_copies: int):
    """Digest-check ``path`` once, then map it ``n_copies`` times.

    Returns ``n_copies`` independent :class:`SensitivityOracle` objects
    over the same page-cached bytes (each shard patches copy-on-write
    independently, exactly like
    :meth:`~repro.service.updates.InstanceUpdater.shard_oracles`).
    """
    actual = file_digest(path)
    if actual != digest:
        raise ValidationError(
            f"snapshot digest mismatch for {path!r}: "
            f"advertised {digest[:16]}…, file is {actual[:16]}…"
        )
    return [SensitivityOracle.load(path, mmap_mode="r")
            for _ in range(n_copies)]


def _graph_of(oracle: SensitivityOracle) -> WeightedGraph:
    """The authoritative graph of a mapped snapshot: private writable
    copies of its edge arrays (the big threshold / topology arrays stay
    mapped and shared)."""
    return WeightedGraph(
        n=len(oracle.parent), u=oracle.u.copy(), v=oracle.v.copy(),
        w=oracle.w.copy(), tree_mask=oracle.tree_mask.copy(),
    )


class WorkerService(SensitivityService):
    """A :class:`SensitivityService` that can adopt shipped snapshots."""

    async def handle_request(self, req: Dict) -> Dict:
        op = req.get("op")
        if op == "adopt":
            resp = await self._adopt(req)
        elif op == "swap":
            resp = await self._swap(req)
        else:
            return await super().handle_request(req)
        if "id" in req:
            resp["id"] = req["id"]
        return resp

    # -- snapshot adoption -----------------------------------------------------

    def adopt_instance(self, name: str, path: str, digest: str,
                       generation: int = 0) -> None:
        """Register ``name`` from a digest-addressed snapshot file."""
        if name in self.instances:
            raise ValidationError(f"instance {name!r} already registered")
        cfg = self.config
        specs = plan_shards(self._snapshot_m(path, digest), cfg.shards)
        oracles = _verified_load(path, digest, len(specs) + 1)
        template = oracles.pop()
        store = (ArtifactStore(cache_dir=cfg.cache_dir)
                 if cfg.cache_dir is not None else ArtifactStore())
        updater = InstanceUpdater(
            name, _graph_of(template), template, engine=cfg.engine,
            config=cfg.config, oracle_labels=cfg.oracle_labels,
            store=store, mmap_dir=cfg.mmap_dir,
        )
        updater.generation = int(generation)
        updater.snapshot_path = path
        updater.snapshot_digest = digest
        self._register(name, updater, specs, oracles)

    def _snapshot_m(self, path: str, digest: str) -> int:
        # edge count comes from the snapshot itself; one cheap map
        probe = SensitivityOracle.load(path, mmap_mode="r")
        return len(probe)

    async def _adopt(self, req: Dict) -> Dict:
        try:
            name = req["instance"]
            if name in self.instances:
                # idempotent re-adopt: a rejoining or resyncing worker
                # re-aligns an already-registered instance via the
                # atomic swap path instead of erroring out
                return await self._swap(req)
            self.adopt_instance(name, req["path"], req["digest"],
                                int(req.get("generation", 0)))
        except (KeyError, ValidationError, OSError, ValueError) as exc:
            return {"ok": False, "error": f"adopt failed: {exc}"}
        inst = self.instances[name]
        return {"ok": True,
                "result": {"instance": name, "m": inst.updater.graph.m,
                           "generation": inst.updater.generation}}

    async def _swap(self, req: Dict) -> Dict:
        """Atomically adopt a newer generation under live reads.

        The snapshot is verified and mapped off the loop, then installed
        by the same helper the in-process write path uses: an in-place
        shard swap when ``m`` is unchanged, a re-planned shard set when
        the primary's batch grew or shrank the edge set.
        """
        try:
            name = req["instance"]
            path, digest = req["path"], req["digest"]
            generation = int(req["generation"])
            inst = self._instance(name)
        except (KeyError, ValidationError, ValueError) as exc:
            return {"ok": False, "error": f"swap failed: {exc}"}
        async with inst.lock:  # serialise against local updates
            specs = plan_shards(self._snapshot_m(path, digest),
                                self.config.shards)
            try:
                oracles = await asyncio.get_running_loop().run_in_executor(
                    None, _verified_load, path, digest, len(specs) + 1)
            except (ValidationError, OSError, ValueError) as exc:
                return {"ok": False, "error": f"swap failed: {exc}"}
            updater = inst.updater
            updater.oracle = oracles.pop()
            # authoritative weights and tree membership come from the
            # new generation; the primary's run is no splice prior here
            updater.graph = _graph_of(updater.oracle)
            updater.last_run = None
            updater.generation = generation
            updater.snapshot_path = path
            updater.snapshot_digest = digest
            old_batchers = self._install_generation(inst, specs, oracles)
        for b in old_batchers:
            await b.stop()
        return {"ok": True,
                "result": {"instance": name, "generation": generation,
                           "m": inst.updater.graph.m}}


async def _worker_async(conn, spec: WorkerSpec) -> None:
    service = WorkerService(spec.service_config())
    await service.start(serve_tcp=True)
    host, port = service.tcp_address
    conn.send(("ready", spec.worker_id, port))
    conn.close()
    try:
        await service.serve_forever()
    finally:
        await service.stop()


def worker_entry(conn, spec: WorkerSpec) -> None:
    """``multiprocessing`` target: run one worker until shutdown."""
    asyncio.run(_worker_async(conn, spec))
