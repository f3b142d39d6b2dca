"""Typed stage artifacts and the content-addressed :class:`ArtifactStore`.

Every pipeline stage produces exactly one artifact — a small dataclass
wrapping the arrays/objects the downstream stages consume, plus the
:class:`~repro.mpc.cost.CostDelta` the stage charged. Artifacts are
content-addressed by *graph fingerprint × stage-config hash × upstream
keys* (a Merkle chain: changing ``coin_bias`` invalidates clustering and
everything after it, but not the substrate prefix), and persist through
the shared :mod:`repro.serialize` npz protocol, so a store directory can
be handed to another process — batch workers warm-start from it.

Replaying a cached artifact re-charges its recorded rounds, which keeps
a warm :class:`~repro.mpc.cost.CostReport` bit-identical to a cold run.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple, Type

import numpy as np

from ..core.adgraph import HalfEdges
from ..core.hierarchy import ClusterHierarchy, MergeLevel
from ..core.labeling import LabeledHalfEdges
from ..core.notes import NoteSet
from ..mpc.cost import CostDelta
from ..mpc.table import Table
from ..serialize import load_npz, save_npz

__all__ = [
    "Artifact",
    "ArtifactStore",
    "graph_fingerprint",
    "FINGERPRINT_SCOPES",
    "ARTIFACT_KINDS",
    "ValidateArtifact",
    "RootingArtifact",
    "DfsArtifact",
    "DiameterArtifact",
    "ClusteringArtifact",
    "LcaArtifact",
    "AdgraphArtifact",
    "LabelsArtifact",
    "PathmaxArtifact",
    "DecideArtifact",
    "SensContractArtifact",
    "SensClusterArtifact",
    "SensUnwindArtifact",
    "SensFinalizeArtifact",
]

#: Registry ``kind -> class`` used to rehydrate persisted artifacts.
ARTIFACT_KINDS: Dict[str, Type["Artifact"]] = {}


def register(cls: Type["Artifact"]) -> Type["Artifact"]:
    ARTIFACT_KINDS[cls.kind] = cls
    return cls


#: Fingerprint scopes, from graph-blind to weight-complete. A stage is
#: keyed by the narrowest scope covering what its body actually reads
#: (dep keys Merkle-chain the rest), so an update invalidates only the
#: stages whose scope intersects it — the incremental-rebuild lever the
#: service layer's write path and the streaming subsystem stand on.
#:
#: The subgraph-scoped entries hash *subsequences*: ``tree``-family
#: scopes see only the candidate-tree rows, ``nontree``-family scopes
#: only the non-tree rows. A structural batch that adds/removes/reprices
#: non-tree edges therefore leaves every tree-scoped fingerprint
#: untouched even though absolute edge-array positions shift.
FINGERPRINT_SCOPES = (
    "none",               # vertex count only
    "tree-structure",     # + candidate-tree endpoints
    "tree",               # + candidate-tree weights
    "nontree-structure",  # n + non-tree endpoints
    "nontree",            # + non-tree weights
    "topology",           # n + all endpoints + tree flags (legacy)
    "full",               # + all weights (always safe)
)


def graph_fingerprint(graph, scope: str = "full") -> str:
    """Content hash of an instance at the requested scope.

    ``none`` covers the vertex count only; the ``tree`` /
    ``nontree``-family scopes cover the respective edge *subsequence*
    (endpoints, then also weights); ``topology`` covers all endpoints
    plus tree flags and ``full`` adds every weight.
    """
    if scope not in FINGERPRINT_SCOPES:
        raise ValueError(f"unknown fingerprint scope {scope!r}")
    h = hashlib.sha256()
    h.update(scope.encode())
    h.update(str(int(graph.n)).encode())
    if scope in ("tree-structure", "tree"):
        sel = graph.tree_mask
        for arr in (graph.u[sel], graph.v[sel]):
            h.update(np.ascontiguousarray(arr).tobytes())
        if scope == "tree":
            h.update(np.ascontiguousarray(graph.w[sel]).tobytes())
    elif scope in ("nontree-structure", "nontree"):
        sel = ~graph.tree_mask
        for arr in (graph.u[sel], graph.v[sel]):
            h.update(np.ascontiguousarray(arr).tobytes())
        if scope == "nontree":
            h.update(np.ascontiguousarray(graph.w[sel]).tobytes())
    elif scope in ("topology", "full"):
        for arr in (graph.u, graph.v, graph.tree_mask):
            h.update(np.ascontiguousarray(arr).tobytes())
        if scope == "full":
            h.update(np.ascontiguousarray(graph.w).tobytes())
    return h.hexdigest()[:24]


# -- (de)serialisation helpers ------------------------------------------------------


def _pack_table(arrays: Dict, meta: Dict, prefix: str, table: Table) -> None:
    meta[f"{prefix}__cols"] = list(table.columns)
    for c in table.columns:
        arrays[f"{prefix}__{c}"] = table.col(c)


def _unpack_table(arrays: Dict, meta: Dict, prefix: str) -> Table:
    return Table({c: arrays[f"{prefix}__{c}"] for c in meta[f"{prefix}__cols"]})


MC_SCHEMA = {"key": np.int64, "w": np.float64}


def concat_mc(tables: List[Table]) -> Table:
    """Collapse a list of ``(key, w)`` mc-update tables into one."""
    keep = [t.select(["key", "w"]) for t in tables if len(t)]
    if not keep:
        return Table.empty(MC_SCHEMA)
    return Table.concat(keep)


class Artifact:
    """Base class: typed payload + the stage's recorded cost delta."""

    kind: ClassVar[str] = ""
    #: Row axis of a per-edge artifact (``None`` for every other one):
    #: ``"nontree"`` holds one row per non-tree edge, in edge order;
    #: ``"half"`` holds one row per half-edge, where the ``eid`` row
    #: field names each row's non-tree edge (artifacts without ``eid``
    #: align positionally with the adgraph's rows). A row depends only
    #: on its own edge and the stage's non-row-wise deps, which is what
    #: lets :class:`~repro.pipeline.pipeline.Pipeline` splice a prior
    #: run's rows instead of recomputing them.
    row_axis: ClassVar[Optional[str]] = None
    #: the fields that carry rows; every other field is a function of
    #: the non-row-wise deps alone
    row_fields: ClassVar[Tuple[str, ...]] = ()
    #: set by the pipeline right after the stage executes
    cost: Optional[CostDelta] = None

    def payload(self) -> Tuple[Dict, Dict]:
        """``(arrays, meta)`` for the npz protocol."""
        raise NotImplementedError

    @classmethod
    def from_payload(cls, arrays: Dict, meta: Dict) -> "Artifact":
        raise NotImplementedError

    # -- persistence (one .npz per artifact) ---------------------------------------

    def save(self, path: str) -> None:
        arrays, meta = self.payload()
        wrapped = {
            "artifact": self.kind,
            "cost": self.cost.to_dict() if self.cost is not None else None,
            "meta": meta,
        }
        # atomic write: concurrent batch workers may race on one key
        d = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            os.close(fd)
            save_npz(tmp, arrays, wrapped)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "Artifact":
        arrays, wrapped = load_npz(path)
        kind = wrapped.get("artifact")
        if kind not in ARTIFACT_KINDS:
            raise ValueError(f"{path!r} does not hold a pipeline artifact")
        art = ARTIFACT_KINDS[kind].from_payload(arrays, wrapped["meta"])
        if wrapped.get("cost") is not None:
            art.cost = CostDelta.from_dict(wrapped["cost"])
        return art


# -- verification-stage artifacts ---------------------------------------------------


@register
@dataclass
class ValidateArtifact(Artifact):
    """Remark 2.2 spanning-tree check verdict."""

    kind: ClassVar[str] = "validate"
    ok: bool = True

    def payload(self):
        return {}, {"ok": bool(self.ok)}

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(ok=bool(meta["ok"]))


@register
@dataclass
class RootingArtifact(Artifact):
    """Per-vertex parent pointer and parent-edge weight."""

    kind: ClassVar[str] = "rooting"
    parent: np.ndarray = None
    wpar: np.ndarray = None

    def payload(self):
        return {"parent": self.parent, "wpar": self.wpar}, {}

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(parent=arrays["parent"], wpar=arrays["wpar"])


@register
@dataclass
class DfsArtifact(Artifact):
    """Lemma 2.14 DFS interval labels."""

    kind: ClassVar[str] = "dfs"
    low: np.ndarray = None
    high: np.ndarray = None

    def payload(self):
        return {"low": self.low, "high": self.high}, {}

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(low=arrays["low"], high=arrays["high"])


@register
@dataclass
class DiameterArtifact(Artifact):
    """Remark 2.3 2-approximate diameter estimate."""

    kind: ClassVar[str] = "diameter"
    d_hat: int = 0

    def payload(self):
        return {}, {"d_hat": int(self.d_hat)}

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(d_hat=int(meta["d_hat"]))


_LEVEL_FIELDS = (
    ("junior", np.int64),
    ("parent_vertex", np.int64),
    ("senior", np.int64),
    ("cross_w", np.float64),
    ("junior_low", np.int64),
    ("junior_high", np.int64),
    ("junior_formed", np.int64),
    ("senior_prev_formed", np.int64),
)


@register
@dataclass
class ClusteringArtifact(Artifact):
    """The Lemma 2.8 / Corollary 3.6 cluster hierarchy."""

    kind: ClassVar[str] = "clustering"
    hierarchy: ClusterHierarchy = None

    def payload(self):
        h = self.hierarchy
        arrays = {
            "lv_level": np.asarray([lv.level for lv in h.levels], dtype=np.int64),
            "lv_sizes": np.asarray([len(lv) for lv in h.levels], dtype=np.int64),
            "final_leader": h.final_leader,
            "counts": np.asarray(h.counts, dtype=np.int64),
            "parent": h.parent,
            "wpar": h.wpar,
        }
        for name, dt in _LEVEL_FIELDS:
            parts = [getattr(lv, name) for lv in h.levels]
            arrays[f"lv_{name}"] = (
                np.concatenate(parts) if parts else np.empty(0, dtype=dt)
            )
        meta = {
            "n": int(h.n),
            "root": int(h.root),
            "target": int(h.target),
            "hit_target": bool(h.hit_target),
        }
        _pack_table(arrays, meta, "fc", h.final_clusters)
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays, meta):
        sizes = arrays["lv_sizes"]
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        levels = []
        for i, lvl in enumerate(arrays["lv_level"]):
            lo, hi = offsets[i], offsets[i + 1]
            levels.append(MergeLevel(
                level=int(lvl),
                **{name: arrays[f"lv_{name}"][lo:hi] for name, _ in _LEVEL_FIELDS},
            ))
        h = ClusterHierarchy(
            n=int(meta["n"]),
            root=int(meta["root"]),
            levels=levels,
            final_leader=arrays["final_leader"],
            final_clusters=_unpack_table(arrays, meta, "fc"),
            counts=arrays["counts"].tolist(),
            target=int(meta["target"]),
            hit_target=bool(meta["hit_target"]),
            parent=arrays["parent"],
            wpar=arrays["wpar"],
        )
        return cls(hierarchy=h)


@register
@dataclass
class LcaArtifact(Artifact):
    """Theorem 2.15 all-edges LCA answers (per non-tree edge)."""

    kind: ClassVar[str] = "lca"
    row_axis: ClassVar[str] = "nontree"
    row_fields: ClassVar[Tuple[str, ...]] = ("lca",)
    lca: np.ndarray = None

    def payload(self):
        return {"lca": self.lca}, {}

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(lca=arrays["lca"])


@register
@dataclass
class AdgraphArtifact(Artifact):
    """Corollary 2.19 ancestor–descendant half-edges."""

    kind: ClassVar[str] = "adgraph"
    row_axis: ClassVar[str] = "half"
    row_fields: ClassVar[Tuple[str, ...]] = ("eid", "lo", "hi", "w")
    eid: np.ndarray = None
    lo: np.ndarray = None
    hi: np.ndarray = None
    w: np.ndarray = None

    def half_edges(self) -> HalfEdges:
        return HalfEdges(eid=self.eid, lo=self.lo, hi=self.hi, w=self.w)

    def payload(self):
        return {"eid": self.eid, "lo": self.lo, "hi": self.hi, "w": self.w}, {}

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(eid=arrays["eid"], lo=arrays["lo"], hi=arrays["hi"],
                   w=arrays["w"])


@register
@dataclass
class LabelsArtifact(Artifact):
    """Lemma 3.5 weight-labelling replay outputs (``(θ, ω)`` state)."""

    kind: ClassVar[str] = "labels"
    row_axis: ClassVar[str] = "half"
    row_fields: ClassVar[Tuple[str, ...]] = (
        "omega_lo", "omega_hi", "cl_lo", "cl_hi", "internal")
    omega_lo: np.ndarray = None
    omega_hi: np.ndarray = None
    cl_lo: np.ndarray = None
    cl_hi: np.ndarray = None
    internal: np.ndarray = None
    clusters: Table = None

    @classmethod
    def from_labeled(cls, labeled: LabeledHalfEdges) -> "LabelsArtifact":
        return cls(
            omega_lo=labeled.omega_lo, omega_hi=labeled.omega_hi,
            cl_lo=labeled.cl_lo, cl_hi=labeled.cl_hi,
            internal=labeled.internal, clusters=labeled.clusters,
        )

    def labeled(self, half: HalfEdges) -> LabeledHalfEdges:
        return LabeledHalfEdges(
            half=half, omega_lo=self.omega_lo, omega_hi=self.omega_hi,
            cl_lo=self.cl_lo, cl_hi=self.cl_hi, internal=self.internal,
            clusters=self.clusters,
        )

    def payload(self):
        arrays = {
            "omega_lo": self.omega_lo, "omega_hi": self.omega_hi,
            "cl_lo": self.cl_lo, "cl_hi": self.cl_hi,
            "internal": self.internal,
        }
        meta: Dict = {}
        _pack_table(arrays, meta, "cl", self.clusters)
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(
            omega_lo=arrays["omega_lo"], omega_hi=arrays["omega_hi"],
            cl_lo=arrays["cl_lo"], cl_hi=arrays["cl_hi"],
            internal=arrays["internal"],
            clusters=_unpack_table(arrays, meta, "cl"),
        )


@register
@dataclass
class PathmaxArtifact(Artifact):
    """Observation 3.3 per-half-edge tree-path maxima."""

    kind: ClassVar[str] = "pathmax"
    row_axis: ClassVar[str] = "half"
    row_fields: ClassVar[Tuple[str, ...]] = ("pm_half",)
    pm_half: np.ndarray = None

    def payload(self):
        return {"pm_half": self.pm_half}, {}

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(pm_half=arrays["pm_half"])


@register
@dataclass
class DecideArtifact(Artifact):
    """Per-non-tree-edge path maxima and the cycle-rule verdict."""

    kind: ClassVar[str] = "decide"
    row_axis: ClassVar[str] = "nontree"
    row_fields: ClassVar[Tuple[str, ...]] = ("pathmax", "bad")
    pathmax: np.ndarray = None
    bad: np.ndarray = None

    @property
    def n_bad(self) -> int:
        return int(np.count_nonzero(self.bad))

    def payload(self):
        return {"pathmax": self.pathmax, "bad": self.bad}, {}

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(pathmax=arrays["pathmax"], bad=arrays["bad"])


# -- sensitivity-stage artifacts ----------------------------------------------------


@register
@dataclass
class SensContractArtifact(Artifact):
    """Algorithm 5 output: truncated edges, notes, first mc bounds."""

    kind: ClassVar[str] = "sens-contract"
    edges: Table = None
    clusters: Table = None
    notes_table: Table = None
    notes_peak: int = 0
    mc1: Table = None
    leader: np.ndarray = None

    def notes(self) -> NoteSet:
        return NoteSet(table=self.notes_table, peak=self.notes_peak)

    def payload(self):
        arrays = {"leader": self.leader}
        meta: Dict = {"notes_peak": int(self.notes_peak)}
        _pack_table(arrays, meta, "edges", self.edges)
        _pack_table(arrays, meta, "clusters", self.clusters)
        _pack_table(arrays, meta, "notes", self.notes_table)
        _pack_table(arrays, meta, "mc1", self.mc1)
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(
            edges=_unpack_table(arrays, meta, "edges"),
            clusters=_unpack_table(arrays, meta, "clusters"),
            notes_table=_unpack_table(arrays, meta, "notes"),
            notes_peak=int(meta["notes_peak"]),
            mc1=_unpack_table(arrays, meta, "mc1"),
            leader=arrays["leader"],
        )


@register
@dataclass
class SensClusterArtifact(Artifact):
    """Algorithm 6 output: inter-cluster mc bounds + updated notes."""

    kind: ClassVar[str] = "sens-cluster"
    mc2: Table = None
    notes_table: Table = None
    notes_peak: int = 0

    def notes(self) -> NoteSet:
        return NoteSet(table=self.notes_table, peak=self.notes_peak)

    def payload(self):
        arrays: Dict = {}
        meta: Dict = {"notes_peak": int(self.notes_peak)}
        _pack_table(arrays, meta, "mc2", self.mc2)
        _pack_table(arrays, meta, "notes", self.notes_table)
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(
            mc2=_unpack_table(arrays, meta, "mc2"),
            notes_table=_unpack_table(arrays, meta, "notes"),
            notes_peak=int(meta["notes_peak"]),
        )


@register
@dataclass
class SensUnwindArtifact(Artifact):
    """Algorithm 7 output: intra-cluster mc bounds + final notes peak."""

    kind: ClassVar[str] = "sens-unwind"
    mc3: Table = None
    notes_peak: int = 0

    def payload(self):
        arrays: Dict = {}
        meta: Dict = {"notes_peak": int(self.notes_peak)}
        _pack_table(arrays, meta, "mc3", self.mc3)
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(mc3=_unpack_table(arrays, meta, "mc3"),
                   notes_peak=int(meta["notes_peak"]))


@register
@dataclass
class SensFinalizeArtifact(Artifact):
    """Per-vertex minimum covering weight ``mc`` (Definition 2.1)."""

    kind: ClassVar[str] = "sens-finalize"
    mc: np.ndarray = None

    def payload(self):
        return {"mc": self.mc}, {}

    @classmethod
    def from_payload(cls, arrays, meta):
        return cls(mc=arrays["mc"])


# -- the store ----------------------------------------------------------------------


class ArtifactStore:
    """Content-addressed artifact cache (in-memory, optionally on disk).

    ``cache_dir`` makes the store persistent and shareable: every ``put``
    also writes ``<key>.npz`` (atomically, so concurrent batch workers
    may race on a key), and ``get`` falls back to disk on a memory miss.
    Keys are computed by the pipeline (stage name + content digest), so
    a store can safely hold artifacts of many graphs, engines and knob
    settings side by side. A disk entry that will not load (truncated,
    foreign or otherwise damaged) is deleted, counted as ``corrupt`` and
    treated as a miss, so the pipeline recomputes that stage.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self._mem: Dict[str, Artifact] = {}
        self.cache_dir = cache_dir
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corrupt = 0
        self.stores = 0

    def __len__(self) -> int:
        return len(self._mem)

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.npz")

    def contains(self, key: str) -> bool:
        """Availability probe that does not touch the hit/miss counters."""
        if key in self._mem:
            return True
        return self.cache_dir is not None and os.path.exists(self._path(key))

    def get(self, key: str) -> Optional[Artifact]:
        art = self._mem.get(key)
        if art is not None:
            self.hits += 1
            return art
        if self.cache_dir is not None:
            path = self._path(key)
            if os.path.exists(path):
                try:
                    art = Artifact.load(path)
                except Exception:  # noqa: BLE001 - any damage is a miss
                    self.corrupt += 1
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                else:
                    self._mem[key] = art
                    self.hits += 1
                    self.disk_hits += 1
                    return art
        self.misses += 1
        return None

    def put(self, key: str, artifact: Artifact) -> None:
        self._mem[key] = artifact
        self.stores += 1
        if self.cache_dir is not None:
            artifact.save(self._path(key))

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._mem), "hits": self.hits,
            "misses": self.misses, "disk_hits": self.disk_hits,
            "corrupt": self.corrupt, "stores": self.stores,
        }
