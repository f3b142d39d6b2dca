"""The write path: committed weight updates against a live instance.

Every update ``w(e) := x`` is triaged with the serving oracle's own
thresholds — no pipeline work — into one of three outcomes:

``rejected``
    ``survives(e, x)`` is false: the flagged tree would stop being an
    MST, so the update would invalidate the structure every query is
    about. The service refuses it and reports the threshold crossed
    (callers see exactly how far they can re-price).

``patched`` (oracle-preserving)
    Every stored threshold provably keeps its value, so the update is
    a two-cell in-place patch served with zero pipeline stages. The
    preserved cases, with the one-line proofs:

    * *no-op* (``x == w(e)``): nothing changed.
    * *bridge tree edge*: no non-tree edge covers ``e`` (``mc = ∞``),
      so no ``pathmax`` crosses it and no ``mc`` mentions it.
    * *non-tree edge, raised, not a covering minimiser*
      (``x ≥ w(e)`` and ``e ∉ cover_edge``): ``e`` attains no tree
      edge's ``mc``, and raising a non-minimum keeps every minimum;
      ``pathmax`` never reads non-tree weights. (Old weight ≥ its
      pathmax on a served MST, so ``survives`` holds automatically.)

    Only the edge's own slack depends on its weight, so the patch is
    ``w[e] = x; sens[e] = ±(threshold[e] - x)``.

``rebuilt`` (structure-changing)
    Any other update can move thresholds, so it is applied as the
    one-op structural batch ``[{"kind": "reprice", ...}]`` through
    :meth:`InstanceUpdater.apply_batch` — the one write path that
    builds a new generation. There the Theorem 4.1 pipeline re-runs
    against the instance's artifact store, splicing the per-edge stages
    from the previous run when the tree is unchanged (a re-priced
    non-tree edge recomputes only its own rows) and replaying every
    stage whose weight-scoped key (``Stage.weight_scope``) still holds.
    The caller installs the new oracle into its shards as one new
    generation; in-flight batches finish on their snapshot.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ServiceError
from ..graph.graph import WeightedGraph
from ..graph.mutations import apply_ops, coalesce_ops
from ..mpc import MPCConfig
from ..oracle import SensitivityOracle
from ..pipeline import ArtifactStore, run_sensitivity, verification_pipeline
from ..pipeline.pipeline import PipelineRun
from ..serialize import file_digest
from .metrics import UpdateMetrics
from .shards import OracleShard, route

__all__ = ["UpdateReport", "BatchReport", "InstanceUpdater"]

#: Stage names of the Theorem 3.1 prefix (for re-run accounting).
VERIFICATION_STAGE_NAMES = tuple(verification_pipeline().stage_names())


@dataclass
class UpdateReport:
    """Flat, JSON-friendly outcome of one weight update."""

    instance: str
    edge: int
    old_weight: float
    new_weight: float
    action: str                     # "rejected" | "patched" | "rebuilt"
    survives: bool
    threshold: float
    generation: int
    stages_executed: int = 0
    stages_cached: int = 0
    verification_reruns: int = 0
    executed: List[str] = field(default_factory=list)
    cached: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    #: With ``mmap_dir`` set, a rebuild publishes its oracle snapshot
    #: to a digest-addressed file — the handoff the router ships to
    #: replicas instead of rebuilding everywhere.
    snapshot_path: Optional[str] = None
    snapshot_digest: Optional[str] = None

    def to_dict(self) -> Dict:
        return asdict(self)


class InstanceUpdater:
    """Owns one instance's authoritative weights and its rebuild loop."""

    def __init__(self, name: str, graph: WeightedGraph,
                 oracle: SensitivityOracle, *,
                 engine: str = "local", config: Optional[MPCConfig] = None,
                 oracle_labels: bool = True,
                 store: Optional[ArtifactStore] = None,
                 mmap_dir: Optional[str] = None):
        self.name = name
        self.graph = graph          # authoritative (mutated by updates)
        self.oracle = oracle        # latest generation (shared or template)
        self.engine = engine
        self.config = config
        self.oracle_labels = oracle_labels
        self.store = store if store is not None else ArtifactStore()
        self.mmap_dir = mmap_dir
        self.generation = 0
        self.metrics = UpdateMetrics()
        #: Latest published snapshot (digest-addressed), if any — the
        #: handoff a router ships to replica workers.
        self.snapshot_path: Optional[str] = None
        self.snapshot_digest: Optional[str] = None
        #: The most recent pipeline run over ``self.graph`` — the prior
        #: the next batch splices — or ``None`` once an in-place patch
        #: has moved the weights underneath it.
        self.last_run: Optional[PipelineRun] = None

    def publish_snapshot(self) -> str:
        """Persist the current oracle to a digest-addressed ``.npz``.

        The file is written uncompressed (mmap-able), hashed, and
        renamed to ``<name>-<digest16>.npz`` — content-addressed, so a
        replica can verify the bytes it maps against the digest it was
        told to adopt, and re-publishing identical content is a no-op
        rename onto the same name. The superseded snapshot is unlinked
        (already-mapped pages stay valid on POSIX).
        """
        os.makedirs(self.mmap_dir, exist_ok=True)
        tmp = os.path.join(
            self.mmap_dir, f".{self.name}-gen{self.generation:04d}.tmp.npz"
        )
        self.oracle.save(tmp, compressed=False)
        digest = file_digest(tmp)
        path = os.path.join(self.mmap_dir,
                            f"{self.name}-{digest[:16]}.npz")
        os.replace(tmp, path)
        if self.snapshot_path not in (None, path):
            try:
                os.unlink(self.snapshot_path)
            except OSError:  # pragma: no cover - e.g. mapped on Windows
                pass
        self.snapshot_path = path
        self.snapshot_digest = digest
        return path

    def shard_oracles(self, n_shards: int) -> List[SensitivityOracle]:
        """The oracle objects a new generation hands to its shards.

        Without ``mmap_dir`` every shard shares the in-memory oracle.
        With it, the generation is snapshotted once to an uncompressed
        digest-addressed ``.npz`` and every shard maps that file
        read-only — one page-cached copy behind N workers (or N
        processes: the router ships exactly this file to replicas).
        """
        if self.mmap_dir is None:
            return [self.oracle] * n_shards
        path = self.publish_snapshot()
        return [SensitivityOracle.load(path, mmap_mode="r")
                for _ in range(n_shards)]

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, name: str, graph: WeightedGraph, *,
              engine: str = "local", config: Optional[MPCConfig] = None,
              oracle_labels: bool = True,
              store: Optional[ArtifactStore] = None,
              mmap_dir: Optional[str] = None) -> "InstanceUpdater":
        """Cold-build the first oracle generation (populates the store)."""
        store = store if store is not None else ArtifactStore()
        result, run = run_sensitivity(
            graph, engine=engine, config=config,
            oracle_labels=oracle_labels, store=store,
        )
        oracle = SensitivityOracle.from_result(graph, result)
        updater = cls(name, graph, oracle, engine=engine, config=config,
                      oracle_labels=oracle_labels, store=store,
                      mmap_dir=mmap_dir)
        updater.last_run = run
        return updater

    # -- classification --------------------------------------------------------

    def classify(self, edge: int, new_weight: float) -> str:
        """Triage one update: ``rejected`` / ``patched`` / ``rebuilt``."""
        oracle = self.oracle
        if not oracle.survives(edge, new_weight):
            return "rejected"
        old = float(oracle.w[edge])
        if new_weight == old:
            return "patched"  # no-op
        if oracle.tree_mask[edge]:
            if not float("-inf") < oracle.threshold[edge] < float("inf"):
                return "patched"  # bridge: nothing covers it
            return "rebuilt"
        if new_weight >= old and not oracle.covering_edges()[edge]:
            return "patched"
        return "rebuilt"

    # -- application (synchronous; the server serialises + offloads it) --------

    def apply(self, shards: List[OracleShard], edge: int,
              new_weight: float) -> UpdateReport:
        """Triage ``w(edge) := new_weight`` and apply it.

        ``patched`` writes the two cells into ``shards`` (and every
        other oracle object behind them); ``rebuilt`` runs the one-op
        reprice batch through :meth:`apply_batch`, after which the
        caller installs the new generation into its shards.
        """
        t0 = time.perf_counter()
        oracle = self.oracle
        edge = int(edge)
        new_weight = float(new_weight)
        if not 0 <= edge < self.graph.m:
            # wire input: a structured bad_request, never an IndexError
            # escaping into the connection handler (negative ids would
            # otherwise silently wrap into the wrong edge)
            raise ServiceError(
                f"edge id {edge} out of range [0, {self.graph.m})",
                kind="bad_request",
            )
        old = float(self.graph.w[edge])
        action = self.classify(edge, new_weight)
        report = UpdateReport(
            instance=self.name, edge=edge, old_weight=old,
            new_weight=new_weight, action=action,
            survives=action != "rejected",
            threshold=float(oracle.threshold[edge]),
            generation=self.generation,
        )
        if action == "rejected":
            self.metrics.rejected += 1
        elif action == "patched":
            self.graph.w[edge] = new_weight
            patched = set()
            owner = shards[route([s.spec for s in shards], edge)]
            owner.reprice(edge, new_weight)
            patched.add(id(owner.oracle))
            # mmap mode gives every shard (and the updater) its own
            # oracle object over shared pages; patch each one once
            for other in shards:
                if id(other.oracle) not in patched:
                    other.oracle.reprice(edge, new_weight)
                    patched.add(id(other.oracle))
            if id(self.oracle) not in patched:
                self.oracle.reprice(edge, new_weight)
            self.metrics.applied_preserving += 1
            # the patch wrote the weight underneath the last run; the
            # next batch takes one unspliced rebuild
            self.last_run = None
        else:
            batch = self.apply_batch(
                [{"kind": "reprice", "edge": edge, "weight": new_weight}])
            report.generation = batch.generation
            report.executed = batch.executed
            report.cached = batch.cached
            report.stages_executed = batch.stages_executed
            report.stages_cached = batch.stages_cached
            report.verification_reruns = sum(
                1 for s in batch.executed if s in VERIFICATION_STAGE_NAMES)
        report.wall_s = time.perf_counter() - t0
        return report

    # -- structural batches (the streaming write path) --------------------------

    def apply_batch(self, ops: Sequence[Dict]) -> "BatchReport":
        """Apply one coalesced batch of structural ops; one generation swap.

        :func:`~repro.graph.mutations.apply_ops` repairs the MST
        exactly, then the pipeline runs with the previous run as its
        splice prior: when the candidate tree is unchanged, the per-edge
        stages (lca, adgraph, labels, pathmax, decide) keep their rows
        for untouched edges and compute only the touched ones, and just
        the sensitivity aggregation re-runs. A tree-affecting batch
        splices nothing and re-runs through whatever the narrowed
        fingerprint scopes still cache. Either way decide's cycle-rule
        verdict covers every row, and the oracle is rebuilt through
        :meth:`SensitivityOracle.from_result`, whose validation
        cross-checks it against an independent cover recovery — a
        splice bug fails loudly instead of shipping.
        """
        t0 = time.perf_counter()
        received = list(ops)
        coalesced = coalesce_ops(received)
        old_graph = self.graph
        new_graph, effect = apply_ops(old_graph, coalesced)
        report = BatchReport(
            instance=self.name, action="rejected",
            n_ops=len(received), n_coalesced=len(coalesced),
            n_applied=effect.applied, tree_affected=effect.tree_affected,
            generation=self.generation, m=old_graph.m,
            m_tree=old_graph.m_tree, counts=dict(effect.counts),
            rejected_ops=[[int(i), r] for i, r in effect.rejected],
        )
        if effect.applied == 0:
            self.metrics.rejected += 1
            report.wall_s = time.perf_counter() - t0
            return report
        result, run = run_sensitivity(
            new_graph, engine=self.engine, config=self.config,
            oracle_labels=self.oracle_labels, store=self.store,
            prior=self.last_run, old_to_new=effect.old_to_new,
        )
        self.oracle = SensitivityOracle.from_result(new_graph, result)
        self.graph = new_graph
        self.generation += 1
        self.last_run = run
        report.action = "rebuilt"
        report.scoped = bool(run.spliced_stages)
        report.generation = self.generation
        report.m = new_graph.m
        report.m_tree = new_graph.m_tree
        report.added_ids = [int(i) for i in effect.added_ids]
        report.removed_ids = [
            int(i) for i in np.flatnonzero(effect.old_to_new < 0)
        ]
        report.stages_spliced = len(run.spliced_stages)
        report.stages_executed = len(run.executed_stages)
        report.stages_cached = len(run.cached_stages)
        report.executed = list(run.executed_stages)
        report.cached = list(run.cached_stages)
        self.metrics.applied_rebuild += 1
        self.metrics.stages_executed += report.stages_executed
        self.metrics.stages_cached += report.stages_cached
        report.wall_s = time.perf_counter() - t0
        self.metrics.rebuild_wall_s += report.wall_s
        return report


@dataclass
class BatchReport:
    """Flat, JSON-friendly outcome of one structural batch."""

    instance: str
    action: str                     # "rejected" | "rebuilt"
    n_ops: int = 0                  # ops received (pre-coalesce)
    n_coalesced: int = 0            # ops after coalescing
    n_applied: int = 0
    tree_affected: bool = False
    scoped: bool = False            # splice path used
    generation: int = 0
    m: int = 0
    m_tree: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    rejected_ops: List = field(default_factory=list)
    added_ids: List[int] = field(default_factory=list)
    removed_ids: List[int] = field(default_factory=list)
    stages_spliced: int = 0
    stages_executed: int = 0
    stages_cached: int = 0
    executed: List[str] = field(default_factory=list)
    cached: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    snapshot_path: Optional[str] = None
    snapshot_digest: Optional[str] = None

    def to_dict(self) -> Dict:
        return asdict(self)
