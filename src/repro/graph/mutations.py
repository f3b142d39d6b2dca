"""Structural mutation ops over a served instance, with exact MST repair.

The streaming subsystem feeds batches of ops — ``add`` / ``remove`` /
``reprice`` — against a live :class:`~repro.graph.graph.WeightedGraph`
whose ``tree_mask`` flags a minimum spanning tree. :func:`apply_ops`
applies a batch and *repairs the flagged tree exactly* so the mutated
instance is again "a graph plus an MST" — the input contract of every
pipeline stage. The repair rules are the classical exchange arguments:

* adding an edge cheaper than the path maximum between its endpoints
  swaps it in and demotes the path's maximum edge (cycle rule);
* removing a tree edge promotes the minimum-weight non-tree edge
  crossing the cut it leaves behind (cut rule), and is rejected if the
  edge is a bridge (the graph would disconnect);
* re-pricing moves an edge across the same two thresholds.

Everything here is sequential bookkeeping on the serving host — the
distributed pipeline then *verifies* the repaired tree from scratch
(decide asserts zero bad edges), so a repair bug cannot silently ship.

Edge ids inside one batch refer to the **pre-batch** numbering; the
returned :class:`BatchEffect` carries the ``old_to_new`` id map that
shard routing and clients use to re-address surviving edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError
from .graph import WeightedGraph
from .tree import RootedTree, build_adjacency

__all__ = ["BatchEffect", "coalesce_ops", "apply_ops"]

OP_KINDS = ("add", "remove", "reprice")


@dataclass
class BatchEffect:
    """What one applied batch did to the instance."""

    #: pre-batch edge id -> post-batch edge id (-1 for removed rows)
    old_to_new: np.ndarray
    #: post-batch ids of edges appended by ``add`` ops, in op order
    added_ids: List[int] = field(default_factory=list)
    #: True iff the candidate-tree subsequence (endpoints *or* weights)
    #: changed — the scoped-replay classifier's decision bit
    tree_affected: bool = False
    #: applied-op tally per kind
    counts: Dict[str, int] = field(default_factory=dict)
    #: ``(op index, reason)`` for ops that could not be applied
    rejected: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def applied(self) -> int:
        return sum(self.counts.values())


def coalesce_ops(ops: Sequence[Dict]) -> List[Dict]:
    """Collapse redundant ops targeting the same pre-batch edge id.

    Later ops win (``reprice`` then ``reprice`` keeps the last price;
    ``reprice`` then ``remove`` is just the removal), except that
    ``remove`` is terminal — once an id is removed, later ops on it are
    dropped. ``add`` ops are never coalesced (each appends a row).
    Output order is deterministic: edge-targeted ops in first-seen edge
    order, then adds in arrival order.
    """
    by_edge: Dict[object, Dict] = {}
    order: List[object] = []
    adds: List[Dict] = []
    for op in ops:
        kind = op.get("kind")
        if kind == "add":
            adds.append(op)
            continue
        try:
            edge = int(op.get("edge", -1))
        except (TypeError, ValueError, OverflowError):
            edge = object()  # a bad id never coalesces; apply rejects it
        prev = by_edge.get(edge)
        if prev is not None and prev.get("kind") == "remove":
            continue  # terminal: the edge is gone for the rest of the batch
        if prev is None:
            order.append(edge)
        by_edge[edge] = op
    return [by_edge[e] for e in order] + adds


class _MutableInstance:
    """Working state while a batch applies: arrays + a lazily rebuilt tree."""

    def __init__(self, graph: WeightedGraph):
        self.n = graph.n
        self.u = graph.u.copy()
        self.v = graph.v.copy()
        self.w = graph.w.copy()
        self.mask = graph.tree_mask.copy()
        self.removed = np.zeros(graph.m, dtype=bool)
        self.add_u: List[int] = []
        self.add_v: List[int] = []
        self.add_w: List[float] = []
        self.add_tree: List[bool] = []
        self._tree: Optional[RootedTree] = None
        #: per-child ref into the *current* edge set: (is_add, index)
        self._edge_ref: Optional[List[Optional[Tuple[bool, int]]]] = None

    # -- current edge views -----------------------------------------------------

    def _tree_rows(self):
        orig = np.flatnonzero(self.mask & ~self.removed)
        au = [self.add_u[k] for k in range(len(self.add_u)) if self.add_tree[k]]
        av = [self.add_v[k] for k in range(len(self.add_v)) if self.add_tree[k]]
        aw = [self.add_w[k] for k in range(len(self.add_w)) if self.add_tree[k]]
        aref = [k for k in range(len(self.add_u)) if self.add_tree[k]]
        tu = np.concatenate([self.u[orig], np.asarray(au, dtype=np.int64)])
        tv = np.concatenate([self.v[orig], np.asarray(av, dtype=np.int64)])
        tw = np.concatenate([self.w[orig], np.asarray(aw, dtype=np.float64)])
        refs = [(False, int(i)) for i in orig] + [(True, k) for k in aref]
        return tu, tv, tw, refs

    def tree(self) -> RootedTree:
        """The current candidate tree, rebuilt after structural repairs."""
        if self._tree is None:
            tu, tv, tw, refs = self._tree_rows()
            if len(tu) != self.n - 1:
                raise ValidationError("candidate tree lost spanning size")
            # BFS rooting that remembers which edge row produced each
            # parent pointer, so repairs can demote the exact row
            offsets, nbr, eid = build_adjacency(self.n, tu, tv)
            parent = np.full(self.n, -1, dtype=np.int64)
            weight = np.zeros(self.n, dtype=np.float64)
            ref: List[Optional[Tuple[bool, int]]] = [None] * self.n
            parent[0] = 0
            frontier = [0]
            while frontier:
                nxt = []
                for x in frontier:
                    for j in range(offsets[x], offsets[x + 1]):
                        y = int(nbr[j])
                        if parent[y] == -1:
                            parent[y] = x
                            weight[y] = tw[eid[j]]
                            ref[y] = refs[eid[j]]
                            nxt.append(y)
                frontier = nxt
            self._tree = RootedTree(parent=parent, root=0, weight=weight)
            self._edge_ref = ref
        return self._tree

    def dirty(self):
        self._tree = None
        self._edge_ref = None

    # -- queries over the current tree -------------------------------------------

    def path_argmax(self, a: int, b: int) -> Tuple[float, Tuple[bool, int]]:
        """(max weight, edge ref) over the tree path a..b; deterministic.

        Ties resolve to the first maximum met walking a→lca then b→lca.
        """
        t = self.tree()
        lca = int(t.lca(np.asarray([a]), np.asarray([b]))[0])
        best = -np.inf
        best_ref: Optional[Tuple[bool, int]] = None
        for start in (a, b):
            x = start
            while x != lca:
                if float(t.weight[x]) > best:
                    best = float(t.weight[x])
                    best_ref = self._edge_ref[x]
                x = int(t.parent[x])
        if best_ref is None:
            raise ValidationError("empty tree path (parallel endpoints?)")
        return best, best_ref

    def min_crossing(self, child: int,
                     exclude: Optional[Tuple[bool, int]] = None):
        """Cheapest non-tree edge with exactly one endpoint in
        ``subtree(child)`` of the current tree, or ``None`` (bridge).

        Deterministic tie-break: original rows in id order first, then
        added rows in arrival order.
        """
        t = self.tree()
        _, low, high = t.euler_intervals()
        lo_c, hi_c = low[child], high[child]

        def inside(x):
            return (lo_c <= low[x]) & (low[x] <= hi_c)

        best = None  # (w, order, ref)
        orig = np.flatnonzero(~self.mask & ~self.removed)
        if len(orig):
            cross = inside(self.u[orig]) != inside(self.v[orig])
            cand = orig[cross]
            if exclude is not None and not exclude[0]:
                cand = cand[cand != exclude[1]]
            if len(cand):
                ws = self.w[cand]
                i = int(np.lexsort((cand, ws))[0])
                best = (float(ws[i]), int(cand[i]), (False, int(cand[i])))
        for k in range(len(self.add_u)):
            if self.add_tree[k] or (exclude is not None and exclude[0]
                                    and exclude[1] == k):
                continue
            if bool(inside(self.add_u[k])) == bool(inside(self.add_v[k])):
                continue
            key = (self.add_w[k], len(self.u) + k)
            if best is None or key < (best[0], best[1]):
                best = (self.add_w[k], len(self.u) + k, (True, k))
        return None if best is None else best[2]

    # -- repairs ------------------------------------------------------------------

    def set_tree_flag(self, ref: Tuple[bool, int], value: bool):
        is_add, idx = ref
        if is_add:
            self.add_tree[idx] = value
        else:
            self.mask[idx] = value
        self.dirty()

    def get_w(self, ref: Tuple[bool, int]) -> float:
        is_add, idx = ref
        return self.add_w[idx] if is_add else float(self.w[idx])


def apply_ops(graph: WeightedGraph, ops: Sequence[Dict]
              ) -> Tuple[WeightedGraph, BatchEffect]:
    """Apply a batch of structural ops; returns the mutated graph + effect.

    Ops that cannot be applied (bad ids, bridge removals, malformed
    records) are recorded in ``effect.rejected`` and skipped — a batch
    never partially fails mid-op. The input graph is not modified.
    """
    st = _MutableInstance(graph)
    eff = BatchEffect(old_to_new=np.empty(0, dtype=np.int64))
    counts: Dict[str, int] = {}

    def reject(i, reason):
        eff.rejected.append((i, reason))

    def resolve(i, op):
        """Validate an edge-targeted op's id against current state."""
        try:
            edge = int(op["edge"])
        except (KeyError, TypeError, ValueError, OverflowError):
            reject(i, "missing or non-integer edge id")
            return None
        if not 0 <= edge < graph.m:
            reject(i, f"edge id {edge} out of range [0, {graph.m})")
            return None
        if st.removed[edge]:
            reject(i, f"edge id {edge} removed earlier in batch")
            return None
        return edge

    for i, op in enumerate(ops):
        kind = op.get("kind")
        if kind == "add":
            try:
                a, b = int(op["u"]), int(op["v"])
                w = float(op["weight"])
            except (KeyError, TypeError, ValueError, OverflowError):
                reject(i, "add needs integer u, v and numeric weight")
                continue
            if not (0 <= a < st.n and 0 <= b < st.n):
                reject(i, f"endpoint out of range [0, {st.n})")
                continue
            if a == b:
                reject(i, "self-loops are not allowed")
                continue
            if not np.isfinite(w):
                reject(i, "weight must be finite")
                continue
            pm, pm_ref = st.path_argmax(a, b)
            enters = w < pm  # ties stay out: the tree is already minimal
            st.add_u.append(a)
            st.add_v.append(b)
            st.add_w.append(w)
            st.add_tree.append(bool(enters))
            if enters:
                st.set_tree_flag(pm_ref, False)  # demote the cycle max
                eff.tree_affected = True
        elif kind == "remove":
            edge = resolve(i, op)
            if edge is None:
                continue
            if st.mask[edge]:
                # cut rule: promote the cheapest crossing non-tree edge
                t = st.tree()
                child = edge_child(t, st, edge)
                repl = st.min_crossing(child, exclude=(False, edge))
                if repl is None:
                    reject(i, f"edge id {edge} is a bridge; removal would "
                              "disconnect the graph")
                    continue
                st.removed[edge] = True
                st.mask[edge] = False
                st.set_tree_flag(repl, True)
                eff.tree_affected = True
            else:
                # removing a non-tree edge never moves the MST
                st.removed[edge] = True
        elif kind == "reprice":
            edge = resolve(i, op)
            if edge is None:
                continue
            try:
                x = float(op["weight"])
            except (KeyError, TypeError, ValueError, OverflowError):
                reject(i, "reprice needs a numeric weight")
                continue
            if not np.isfinite(x):
                reject(i, "weight must be finite")
                continue
            old = float(st.w[edge])
            if x == old:
                counts[kind] = counts.get(kind, 0) + 1
                continue  # no-op
            if st.mask[edge]:
                if x > old:
                    t = st.tree()
                    child = edge_child(t, st, edge)
                    repl = st.min_crossing(child, exclude=(False, edge))
                    if repl is not None and st.get_w(repl) < x:
                        # the raise prices the edge out of the tree
                        st.w[edge] = x
                        st.mask[edge] = False
                        st.set_tree_flag(repl, True)
                        eff.tree_affected = True
                        counts[kind] = counts.get(kind, 0) + 1
                        continue
                st.w[edge] = x
                st.dirty()  # tree weights changed
                eff.tree_affected = True
            else:
                pm, pm_ref = st.path_argmax(int(st.u[edge]), int(st.v[edge]))
                st.w[edge] = x
                if x < pm:
                    # the cut prices the edge into the tree
                    st.mask[edge] = True
                    st.set_tree_flag(pm_ref, False)
                    eff.tree_affected = True
        else:
            reject(i, f"unknown op kind {kind!r}")
            continue
        counts[kind] = counts.get(kind, 0) + 1

    # ---- materialise the post-batch instance -----------------------------------
    keep = ~st.removed
    old_to_new = np.where(keep, np.cumsum(keep) - 1, -1).astype(np.int64)
    base = int(keep.sum())
    new_u = np.concatenate([st.u[keep], np.asarray(st.add_u, dtype=np.int64)])
    new_v = np.concatenate([st.v[keep], np.asarray(st.add_v, dtype=np.int64)])
    new_w = np.concatenate([st.w[keep], np.asarray(st.add_w, dtype=np.float64)])
    new_mask = np.concatenate([st.mask[keep],
                               np.asarray(st.add_tree, dtype=bool)])
    eff.old_to_new = old_to_new
    eff.added_ids = [base + k for k in range(len(st.add_u))]
    eff.counts = counts
    out = WeightedGraph(n=st.n, u=new_u, v=new_v, w=new_w, tree_mask=new_mask)
    return out, eff


def edge_child(t: RootedTree, st: _MutableInstance, edge: int) -> int:
    """The child-side vertex of original tree row ``edge`` in ``t``."""
    a, b = int(st.u[edge]), int(st.v[edge])
    if int(t.parent[a]) == b:
        return a
    if int(t.parent[b]) == a:
        return b
    raise ValidationError(f"edge {edge} is not a tree edge of the rooted tree")
