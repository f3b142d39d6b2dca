"""The stage graph: 14 typed stages behind one ``Stage`` protocol.

Each stage declares its phase path (``substrate``/``core`` × name, used
for round attribution), the artifacts it consumes (``deps``) and the
pipeline parameters that enter its cache key (``params``). The bodies
are the exact computations the monolithic ``verify_mst`` /
``mst_sensitivity`` drivers used to run inline — moving them behind the
protocol is what lets :class:`~repro.pipeline.pipeline.Pipeline` cache,
replay and recombine them (Observation 4.2: the two theorems share
their machinery).
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.adgraph import split_at_lca
from ..core.cluster_sens import run_cluster_sensitivity
from ..core.contraction_sens import SensContractionState, run_sensitivity_contraction
from ..core.hierarchy import build_hierarchy
from ..core.labeling import evaluate_pathmax, run_weight_labeling
from ..core.lca import all_edges_lca
from ..core.unwind import run_unwind
from ..graph.tree import RootedTree
from ..mpc.table import Table
from ..trees.connectivity import mpc_is_spanning_tree
from ..trees.doubling import diameter_estimate
from ..trees.euler import euler_intervals
from ..trees.rooting import root_tree
from .artifacts import (
    AdgraphArtifact,
    Artifact,
    ClusteringArtifact,
    DecideArtifact,
    DfsArtifact,
    DiameterArtifact,
    LabelsArtifact,
    LcaArtifact,
    PathmaxArtifact,
    RootingArtifact,
    SensClusterArtifact,
    SensContractArtifact,
    SensFinalizeArtifact,
    SensUnwindArtifact,
    ValidateArtifact,
    concat_mc,
)

__all__ = [
    "Stage",
    "StageContext",
    "VERIFICATION_STAGES",
    "SENSITIVITY_STAGES",
]


class StageContext:
    """Everything a stage may touch: graph, runtime, knobs, artifacts.

    The edge-array splits are row-local (free) and shared by several
    stages, so they are materialised once here.
    """

    def __init__(self, graph, rt, params, artifacts: Optional[Dict] = None):
        self.graph = graph
        self.rt = rt
        self.params = params
        self.artifacts: Dict[str, Artifact] = artifacts if artifacts is not None else {}
        self.tu, self.tv, self.tw = graph.tree_edges()
        self.nontree_index = np.flatnonzero(~graph.tree_mask)
        self.nu = graph.u[self.nontree_index]
        self.nv = graph.v[self.nontree_index]
        self.nw = graph.w[self.nontree_index]

    def art(self, name: str) -> Artifact:
        return self.artifacts[name]

    def restrict(self, rows: np.ndarray,
                 artifacts: Dict[str, Artifact]) -> "StageContext":
        """This context over a subset of its non-tree rows (a splice's
        delta), reading ``artifacts`` instead of the run's."""
        sub = copy.copy(self)
        sub.artifacts = artifacts
        sub.nontree_index = self.nontree_index[rows]
        sub.nu, sub.nv, sub.nw = self.nu[rows], self.nv[rows], self.nw[rows]
        return sub


class Stage:
    """One pipeline phase: named, typed inputs/outputs, cache-keyed."""

    #: stage name == artifact key == cost phase name
    name: str = ""
    #: top-level phase group ("substrate" = cited prior work, "core" = paper)
    group: str = "core"
    #: artifact keys this stage reads
    deps: Tuple[str, ...] = ()
    #: PipelineParams fields that enter this stage's cache key
    params: Tuple[str, ...] = ()
    #: graph-fingerprint scope for this stage's cache key: the
    #: narrowest :data:`~repro.pipeline.artifacts.FINGERPRINT_SCOPES`
    #: entry covering the graph data the body reads *directly*
    #: (dependence reaching it through an upstream artifact is carried
    #: by the Merkle-chained dep keys instead). Subgraph scopes hash
    #: edge subsequences, so e.g. a non-tree-only structural batch
    #: leaves every tree-scoped key valid. "full" is the always-safe
    #: default.
    weight_scope: str = "full"

    @property
    def phase(self) -> Tuple[str, str]:
        return (self.group, self.name)

    def run(self, ctx: StageContext) -> Artifact:
        """Execute inside the stage's cost phases; returns its artifact."""
        with ctx.rt.phase(self.group):
            with ctx.rt.phase(self.name):
                return self.compute(ctx)

    def compute(self, ctx: StageContext) -> Artifact:
        raise NotImplementedError

    def failure(self, artifact: Artifact) -> Optional[str]:
        """A reason string aborts the pipeline after this stage."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stage {self.name} deps={self.deps}>"


# -- substrate stages (cited prior work; DESIGN.md §3) ------------------------------


class ValidateStage(Stage):
    name = "validate"
    group = "substrate"
    weight_scope = "tree-structure"

    def compute(self, ctx):
        ok = mpc_is_spanning_tree(ctx.rt, ctx.graph.n, ctx.tu, ctx.tv)
        return ValidateArtifact(ok=bool(ok))

    def failure(self, artifact):
        return None if artifact.ok else "not-spanning-tree"


class RootingStage(Stage):
    name = "rooting"
    group = "substrate"
    deps = ("validate",)
    params = ("root", "oracle_labels")
    weight_scope = "tree"

    def compute(self, ctx):
        if ctx.params.oracle_labels:
            rooted = RootedTree.from_edges(
                ctx.graph.n, ctx.tu, ctx.tv, ctx.tw, root=ctx.params.root
            )
            parent, wpar = rooted.parent, rooted.weight
        else:
            parent, wpar = root_tree(
                ctx.rt, ctx.graph.n, ctx.tu, ctx.tv, ctx.tw,
                root=ctx.params.root,
            )
        return RootingArtifact(parent=parent, wpar=wpar)


class DfsStage(Stage):
    name = "dfs"
    group = "substrate"
    deps = ("rooting",)
    params = ("oracle_labels",)
    weight_scope = "none"

    def compute(self, ctx):
        rooting = ctx.art("rooting")
        if ctx.params.oracle_labels:
            rooted = RootedTree(parent=rooting.parent.copy(),
                                root=ctx.params.root,
                                weight=rooting.wpar)
            _, low, high = rooted.euler_intervals()
        else:
            _, low, high = euler_intervals(ctx.rt, rooting.parent,
                                           ctx.params.root)
        return DfsArtifact(low=low, high=high)


class DiameterStage(Stage):
    name = "diameter"
    group = "substrate"
    deps = ("rooting",)
    weight_scope = "none"

    def compute(self, ctx):
        d_hat, _depths = diameter_estimate(ctx.rt, ctx.art("rooting").parent,
                                           ctx.params.root)
        return DiameterArtifact(d_hat=int(d_hat))


# -- core verification stages (Theorem 3.1) -----------------------------------------


class ClusteringStage(Stage):
    name = "clustering"
    deps = ("rooting", "dfs", "diameter")
    params = ("coin_bias", "reduction_exponent")
    weight_scope = "none"

    def compute(self, ctx):
        rooting = ctx.art("rooting")
        dfs = ctx.art("dfs")
        hierarchy = build_hierarchy(
            ctx.rt, rooting.parent, rooting.wpar, ctx.params.root,
            dfs.low, dfs.high, ctx.art("diameter").d_hat,
            coin_bias=ctx.params.coin_bias,
            reduction_exponent=ctx.params.reduction_exponent,
        )
        return ClusteringArtifact(hierarchy=hierarchy)


class LcaStage(Stage):
    name = "lca"
    deps = ("clustering", "dfs", "diameter")
    weight_scope = "nontree-structure"

    def compute(self, ctx):
        dfs = ctx.art("dfs")
        lca = all_edges_lca(
            ctx.rt, ctx.art("clustering").hierarchy, dfs.low, dfs.high,
            ctx.nu, ctx.nv, ctx.art("diameter").d_hat,
        )
        return LcaArtifact(lca=lca)


class AdgraphStage(Stage):
    name = "adgraph"
    deps = ("lca",)
    weight_scope = "nontree"

    def compute(self, ctx):
        halves = split_at_lca(ctx.rt, ctx.nu, ctx.nv, ctx.nw,
                              ctx.art("lca").lca)
        return AdgraphArtifact(eid=halves.eid, lo=halves.lo, hi=halves.hi,
                               w=halves.w)


class LabelsStage(Stage):
    name = "labels"
    deps = ("clustering", "adgraph", "dfs")
    weight_scope = "none"

    def compute(self, ctx):
        dfs = ctx.art("dfs")
        labeled = run_weight_labeling(
            ctx.rt, ctx.art("clustering").hierarchy,
            ctx.art("adgraph").half_edges(), dfs.low, dfs.high,
        )
        return LabelsArtifact.from_labeled(labeled)


class PathmaxStage(Stage):
    name = "pathmax"
    deps = ("clustering", "labels", "adgraph")
    weight_scope = "none"

    def compute(self, ctx):
        labeled = ctx.art("labels").labeled(ctx.art("adgraph").half_edges())
        pm_half = evaluate_pathmax(ctx.rt, ctx.art("clustering").hierarchy,
                                   labeled)
        return PathmaxArtifact(pm_half=pm_half)


class DecideStage(Stage):
    name = "decide"
    deps = ("adgraph", "pathmax")
    weight_scope = "nontree"

    def compute(self, ctx):
        rt = ctx.rt
        halves = ctx.art("adgraph")
        pm_half = ctx.art("pathmax").pm_half
        if len(halves.eid) > 0:
            per_edge = rt.reduce_by_key(
                Table(eid=halves.eid, pm=pm_half), ("eid",),
                {"pm": ("pm", "max")},
            )
            got = rt.lookup(
                Table(eid=np.arange(len(ctx.nu), dtype=np.int64)), ("eid",),
                per_edge, ("eid",), {"pm": "pm"},
                default={"pm": -np.inf},
            )
            pathmax = got.col("pm")
        else:
            pathmax = np.full(len(ctx.nu), -np.inf, dtype=np.float64)
        bad = ctx.nw < pathmax
        # the violation count is one global sum (charged here); the
        # artifact derives ``n_bad`` from its rows, so spliced rows count
        rt.scalar(Table(b=bad.astype(np.int64)), "b", "sum")
        return DecideArtifact(pathmax=pathmax, bad=bad)


# -- core sensitivity stages (Theorem 4.1) ------------------------------------------


class SensContractStage(Stage):
    name = "sens-contract"
    deps = ("clustering", "adgraph", "dfs")
    weight_scope = "none"

    def compute(self, ctx):
        dfs = ctx.art("dfs")
        state = run_sensitivity_contraction(
            ctx.rt, ctx.art("clustering").hierarchy,
            ctx.art("adgraph").half_edges(), dfs.low, dfs.high,
        )
        return SensContractArtifact(
            edges=state.edges, clusters=state.clusters,
            notes_table=state.notes.table, notes_peak=state.notes.peak,
            mc1=concat_mc(state.mc_updates), leader=state.leader,
        )


class SensClusterStage(Stage):
    name = "sens-cluster"
    deps = ("clustering", "sens-contract")
    weight_scope = "none"

    def compute(self, ctx):
        contract = ctx.art("sens-contract")
        state = SensContractionState(
            edges=contract.edges, clusters=contract.clusters,
            notes=contract.notes(), mc_updates=[], leader=contract.leader,
        )
        mc2 = run_cluster_sensitivity(ctx.rt, ctx.art("clustering").hierarchy,
                                      state)
        return SensClusterArtifact(
            mc2=concat_mc(mc2), notes_table=state.notes.table,
            notes_peak=state.notes.peak,
        )


class SensUnwindStage(Stage):
    name = "sens-unwind"
    deps = ("clustering", "sens-cluster", "dfs")
    weight_scope = "none"

    def compute(self, ctx):
        dfs = ctx.art("dfs")
        notes = ctx.art("sens-cluster").notes()
        mc3 = run_unwind(ctx.rt, ctx.art("clustering").hierarchy, notes,
                         dfs.low, dfs.high)
        return SensUnwindArtifact(mc3=concat_mc(mc3), notes_peak=notes.peak)


class SensFinalizeStage(Stage):
    name = "sens-finalize"
    deps = ("sens-contract", "sens-cluster", "sens-unwind")
    weight_scope = "none"

    def compute(self, ctx):
        rt = ctx.rt
        updates = [
            t for t in (
                ctx.art("sens-contract").mc1,
                ctx.art("sens-cluster").mc2,
                ctx.art("sens-unwind").mc3,
            ) if len(t)
        ]
        n = ctx.graph.n
        if updates:
            allup = Table.concat([t.select(["key", "w"]) for t in updates])
            mins = rt.reduce_by_key(allup, ("key",), {"mc": ("w", "min")})
            got = rt.lookup(
                Table(v=np.arange(n, dtype=np.int64)), ("v",),
                mins, ("key",), {"mc": "mc"}, default={"mc": np.inf},
            )
            mc = got.col("mc")
        else:
            mc = np.full(n, np.inf, dtype=np.float64)
        return SensFinalizeArtifact(mc=mc)


#: Theorem 3.1 stage order (a topological order of the DAG).
VERIFICATION_STAGES: Tuple[Stage, ...] = (
    ValidateStage(), RootingStage(), DfsStage(), DiameterStage(),
    ClusteringStage(), LcaStage(), AdgraphStage(), LabelsStage(),
    PathmaxStage(), DecideStage(),
)

#: Theorem 4.1 = the full verification prefix + the four sens stages
#: (Observation 4.2: the machinery is shared, so the stages are too).
SENSITIVITY_STAGES: Tuple[Stage, ...] = VERIFICATION_STAGES + (
    SensContractStage(), SensClusterStage(), SensUnwindStage(),
    SensFinalizeStage(),
)
