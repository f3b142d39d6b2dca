"""Vectorised MPC engine with model-cost accounting.

Executes every runtime primitive as whole-column NumPy operations while
charging exactly the rounds the distributed realisation would. This is
the engine used for experiments at scale; the message-level engine
(:mod:`.distributed`) validates it on smaller inputs (tests assert both
produce identical outputs and identical charged rounds).

Each primitive is split into a *charged eager* method (``_sort`` ...,
used when the planner is off — behaviour identical to the pre-planner
engine, including the per-call ``_sorted_order`` fast paths) and an
uncharged *physical executor* (``_exec_sort`` ...) that the planner
invokes after logical charging, optionally with a precomputed
:class:`~repro.mpc.optimizer.JoinPlan` carrying the optimizer's
physical-operator choice. Both paths share the result-assembly code, so
planned and eager outputs are bit-identical by construction.

Because this engine declares the ``rewrite`` capability,
``MPCConfig(executor="process")`` additionally routes flushed plan
segments through the process-parallel executor
(:mod:`~repro.mpc.parallel`): independent deferred sorts run in pool
workers over shared-memory column buffers, with the elision decisions —
and the charged cost stream — unchanged.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from ..errors import ProtocolError, ValidationError
from .kernels import op_identity, segment_starts, segmented_scan
from .runtime import Runtime, pack_columns, pack_pair
from .table import Table

__all__ = ["LocalRuntime"]


def _default_fill(n: int, src: np.ndarray, default) -> np.ndarray:
    """An output column prefilled with ``default``, dtype-widened if needed."""
    if src.dtype.kind == "f" or (
        isinstance(default, float) and not float(default).is_integer()
    ) or default in (float("inf"), float("-inf")):
        return np.full(n, float(default), dtype=np.float64)
    return np.full(n, int(default), dtype=src.dtype)


def _sorted_order(key: np.ndarray) -> np.ndarray | None:
    """Stable sort order of ``key``, or ``None`` when already sorted.

    A stable argsort of a non-decreasing array is the identity, so
    callers can skip both the argsort and the gathers it would feed.
    This per-call scan is the eager engine's fast path; with the
    planner on, the same decision comes from memoised array facts
    (:class:`~repro.mpc.plan.FactRegistry`) instead.
    """
    if len(key) > 1 and np.any(key[:-1] > key[1:]):
        return np.argsort(key, kind="stable")
    return None


class LocalRuntime(Runtime):
    """Single-process engine: NumPy semantics + MPC cost model."""

    plan_capabilities = frozenset({"rewrite"})

    # -- charged eager primitives --------------------------------------------------

    def _sort(self, table: Table, by: Sequence[str]) -> Table:
        key = pack_columns(table, by)
        self.tracker.charge("sort", table.words)
        return self._exec_sort(table, key)

    def _scan(
        self,
        table: Table,
        value_col: str,
        op: str,
        by: Sequence[str] = (),
        exclusive: bool = False,
        identity=None,
    ) -> np.ndarray:
        self._check_op(op)
        keys = pack_columns(table, by) if by else None
        self.tracker.charge("scan", table.words)
        return self._exec_scan(table, keys, value_col, op, exclusive)

    def _lookup(
        self,
        queries: Table,
        qkey: Sequence[str],
        data: Table,
        dkey: Sequence[str],
        payload: Mapping[str, str],
        default: Mapping[str, float] | None = None,
        check_unique: bool = True,
    ) -> Table:
        qk, dk = pack_pair(queries, qkey, data, dkey)
        self.tracker.charge("lookup", queries.words + data.words)
        return self._exec_lookup(queries, qk, data, dk, payload, default,
                                 check_unique, None)

    def _predecessor(
        self,
        queries: Table,
        qkey: str,
        data: Table,
        dkey: str,
        payload: Mapping[str, str],
        default: Mapping[str, float],
    ) -> Table:
        qk = queries.col(qkey)
        dk = data.col(dkey)
        if qk.dtype.kind != "i" or dk.dtype.kind != "i":
            raise ValidationError("predecessor keys must be integer columns")
        self.tracker.charge("predecessor", queries.words + data.words)
        return self._exec_predecessor(queries, qk, data, dk, payload,
                                      default, None)

    def _reduce_by_key(
        self,
        table: Table,
        by: Sequence[str],
        aggs: Mapping[str, Tuple[str, str]],
    ) -> Table:
        for _, (_, op) in aggs.items():
            self._check_op(op)
        key = pack_columns(table, by)
        self.tracker.charge("reduce", table.words)
        return self._exec_reduce(table, key, by, aggs, _sorted_order(key))

    def _filter(self, table: Table, mask: np.ndarray) -> Table:
        self.tracker.charge("filter", table.words)
        return self._exec_filter(table, mask)

    def _scalar(self, table: Table, value_col: str, op: str):
        self._check_op(op)
        self.tracker.charge("scalar", table.words)
        return self._exec_scalar(table, value_col, op)

    # -- uncharged physical executors (planner entry points) -----------------------

    def _exec_sort(self, table: Table, key: np.ndarray) -> Table:
        order = np.argsort(key, kind="stable")
        return table.take(order)

    def _exec_scan(self, table: Table, keys, value_col: str, op: str,
                   exclusive: bool) -> np.ndarray:
        vals = table.col(value_col)
        starts = segment_starts(keys, len(vals))
        return segmented_scan(vals, op, starts, exclusive=exclusive)

    def _exec_lookup(self, queries: Table, qk: np.ndarray, data: Table,
                     dk: np.ndarray, payload, default, check_unique,
                     jp) -> Table:
        nq = len(qk)
        if jp is not None:
            return self._join_assemble(queries, qk, data, payload, default,
                                       jp, exact=True)
        order = _sorted_order(dk)
        dks = dk if order is None else dk[order]
        if check_unique and len(dks) > 1 and np.any(dks[1:] == dks[:-1]):
            dup = dks[1:][dks[1:] == dks[:-1]][0]
            raise ProtocolError(f"lookup data has duplicate key {int(dup)}")
        if len(dks) == 0:
            hit = np.zeros(nq, dtype=bool)
            pos = np.zeros(nq, dtype=np.int64)
        else:
            pos = np.searchsorted(dks, qk, side="left")
            inside = pos < len(dks)
            pos_c = np.minimum(pos, len(dks) - 1)
            hit = inside & (dks[pos_c] == qk)
            pos = pos_c
        if default is None and not hit.all():
            missing = qk[~hit][:3].tolist()
            raise ProtocolError(f"lookup misses with no default (keys {missing})")
        out_cols = {}
        for out_name, src_name in payload.items():
            src = data.col(src_name)
            if order is not None:
                src = src[order]
            if hit.all():
                out_cols[out_name] = src[pos] if len(src) else np.empty(0, src.dtype)
            else:
                col = _default_fill(nq, src, default[out_name])
                if len(src):
                    col[hit] = src[pos[hit]].astype(col.dtype, copy=False)
                out_cols[out_name] = col
        return queries.with_cols(**out_cols)

    def _exec_predecessor(self, queries: Table, qk: np.ndarray, data: Table,
                          dk: np.ndarray, payload, default, jp) -> Table:
        nq = len(qk)
        if jp is not None:
            return self._join_assemble(queries, qk, data, payload, default,
                                       jp, exact=False)
        order = _sorted_order(dk)
        dks = dk if order is None else dk[order]
        if len(dks) == 0:
            hit = np.zeros(nq, dtype=bool)
            pos = np.zeros(nq, dtype=np.int64)
        else:
            pos = np.searchsorted(dks, qk, side="right") - 1
            hit = pos >= 0
            pos = np.maximum(pos, 0)
        out_cols = {}
        for out_name, src_name in payload.items():
            src = data.col(src_name)
            if order is not None:
                src = src[order]
            col = _default_fill(nq, src, default[out_name])
            if len(src):
                col[hit] = src[pos[hit]].astype(col.dtype, copy=False)
            out_cols[out_name] = col
        return queries.with_cols(**out_cols)

    def _join_assemble(self, queries: Table, qk: np.ndarray, data: Table,
                       payload, default, jp, *, exact) -> Table:
        """Planned-path result assembly from a resolved ``JoinPlan``.

        Values and dtypes are bit-identical to the eager loops above.
        One row index per join, with ``order`` folded in, maps queries
        into the unsorted data, so each payload column is one gather:
        ``src[idx]`` when every query hits (cast to the fill dtype for
        predecessor, which eager always fills first), else
        ``padded[idx]`` with the default at row 0 of the fill-dtype
        column and ``idx`` 0 on misses — no fill and no mask scatter.
        """
        order, pos, hit = jp.order, jp.pos, jp.hit
        all_hit = bool(hit.all())
        if exact and default is None and not all_hit:
            missing = qk[~hit][:3].tolist()
            raise ProtocolError(f"lookup misses with no default (keys {missing})")
        if all_hit:
            idx = pos if order is None else order[pos]
        else:
            idx = pos + 1
            idx *= hit  # misses read row 0; much cheaper than np.where
            if order is not None:
                idx = np.concatenate(([0], order + 1))[idx]
        out_cols = {}
        for out_name, src_name in payload.items():
            src = data.col(src_name)
            if all_hit and exact:
                out_cols[out_name] = src[idx]
            elif all_hit:
                fill_dtype = _default_fill(0, src, default[out_name]).dtype
                out_cols[out_name] = src[idx].astype(fill_dtype, copy=False)
            else:
                head = _default_fill(1, src, default[out_name])
                padded = np.concatenate((head, src), dtype=head.dtype)
                out_cols[out_name] = padded[idx]
        return queries.with_cols(**out_cols)

    def _exec_reduce(self, table: Table, key: np.ndarray, by, aggs,
                     order) -> Table:
        if order is None:  # already grouped: no argsort, no row gather
            sorted_tab, ks = table, key
        else:
            sorted_tab = table.take(order)
            ks = key[order]
        n = len(ks)
        starts = segment_starts(ks, n)
        start_idx = np.flatnonzero(starts)
        out = {c: sorted_tab.col(c)[start_idx] for c in by}
        for out_name, (src_name, op) in aggs.items():
            vals = sorted_tab.col(src_name)
            if n == 0:
                out[out_name] = vals[:0]
                continue
            ufunc = {"sum": np.add, "max": np.maximum, "min": np.minimum}[op]
            out[out_name] = ufunc.reduceat(vals, start_idx)
        return Table(out)

    def _exec_filter(self, table: Table, mask: np.ndarray) -> Table:
        return table.mask(mask)

    def _exec_scalar(self, table: Table, value_col: str, op: str):
        vals = table.col(value_col)
        if len(vals) == 0:
            ident = op_identity(op, vals.dtype)
            return ident
        if op == "sum":
            total = vals.sum()
        elif op == "max":
            total = vals.max()
        else:
            total = vals.min()
        return total.item()
