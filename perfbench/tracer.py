"""Spans around the program's public calls, recorded from outside.

:func:`install` replaces a fixed set of program functions with timing
wrappers (the program itself is not edited). Each wrapper keeps a
per-thread span stack, so a span's *self* time is its duration minus
the time its child spans cover — the rebuild threads of a server and
its event-loop thread each get their own stack. Spans are aggregated
in memory (calls, total and self seconds, rows) and read out once at
the end of the run.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

QUERY_OPS = ("sensitivity", "survives", "replacement_edge", "entry_threshold")


class Tracer:
    """Aggregated spans plus plain counters and maxima."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tls = threading.local()
        #: span name -> [calls, total_s, self_s, rows]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _close(self, name: str, dur: float, child: float, rows: int) -> None:
        with self._lock:
            agg = self.spans[name]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child
            agg[3] += rows

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            if value > self.maxima[key]:
                self.maxima[key] = value

    def timed(self, fn: Callable, name: Callable[..., str],
              rows: Optional[Callable[..., int]] = None,
              around: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span named ``name(*args)``.

        ``around(args, kwargs)`` may return a callback that receives the
        call's result after the span closes (hit/miss, rounds charged).
        """
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            after = around(args, kwargs) if around is not None else None
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self._close(name(*args), dur, frame[0],
                            rows(*args) if rows is not None else 0)
                if after is not None:
                    after(result)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (function, method or classmethod).

        A target the program no longer has fails the traced run: its
        layer would otherwise read 0 as if it had been bypassed.
        """
        raw = (owner.__dict__.get(attr) if isinstance(owner, type)
               else getattr(owner, attr, None))
        if raw is None:
            raise AttributeError(f"trace target {getattr(owner, '__name__', owner)}"
                                 f".{attr} not found in the program")
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def span(self, name: str) -> Tuple[int, float, float, int]:
        calls, total, self_s, rows = self.spans.get(name, (0, 0.0, 0.0, 0))
        return int(calls), total, self_s, int(rows)

    # -- transfer (server process -> driver) ------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far (start of the measured window)."""
        with self._lock:
            self.spans.clear()
            self.counts.clear()
            self.maxima.clear()

    def snapshot(self) -> Dict:
        with self._lock:
            return {"spans": {k: list(v) for k, v in self.spans.items()},
                    "counts": dict(self.counts),
                    "maxima": dict(self.maxima)}

    @classmethod
    def from_snapshot(cls, snap: Dict) -> "Tracer":
        out = cls()
        out.spans.update({k: list(v) for k, v in snap["spans"].items()})
        out.counts.update(snap["counts"])
        out.maxima.update(snap["maxima"])
        return out


def stage_metric_name(stage: str) -> str:
    """``sens-finalize`` -> ``sens_finalize`` (metric-name spelling)."""
    return stage.replace("-", "_")


def install(tracer: Tracer) -> Tracer:
    """Wrap every program call the per-layer metrics are taken from.

    * ``Stage.run`` — one span per stage execution, plus the rounds it
      charged and the tracker's peak words;
    * ``Pipeline.run`` and ``run_sensitivity`` — their self time is the
      pipeline glue (fingerprints, keys, replay, result assembly);
    * ``ArtifactStore.get``/``put`` with hit/miss counts;
    * ``SensitivityOracle.from_result`` and the four ``*_bulk`` kernels;
    * ``InstanceUpdater.apply``/``apply_batch``/``publish_snapshot`` and
      ``OracleShard.swap`` (the server's write path);
    * ``CostTracker.record_wall`` — the program's own per-primitive wall
      attribution, summed across every runtime the run creates.
    """
    import repro.pipeline as pipeline_pkg
    from repro.mpc.cost import CostTracker
    from repro.oracle import SensitivityOracle
    from repro.pipeline import ArtifactStore, Pipeline, Stage
    from repro.service import updates as updates_mod
    from repro.service.shards import OracleShard

    def stage_around(args, kwargs):
        ctx = args[1]
        before = ctx.rt.tracker.rounds_total
        stage = stage_metric_name(args[0].name)

        def after(_result):
            tr = ctx.rt.tracker
            tracer.add(f"pipeline.{stage}.rounds", tr.rounds_total - before)
            rep = tr.report()
            tracer.peak("mpc.peak_global_words", rep.peak_global_words)
            tracer.peak("mpc.peak_machine_words", rep.peak_machine_words)
        return after

    tracer.patch(Stage, "run", lambda fn: tracer.timed(
        fn, lambda self, ctx: f"pipeline.{stage_metric_name(self.name)}",
        around=stage_around))
    tracer.patch(Pipeline, "run", lambda fn: tracer.timed(
        fn, lambda *a, **k: "pipeline.run"))
    driver = tracer.timed(pipeline_pkg.run_sensitivity,
                          lambda *a, **k: "pipeline.driver")
    for mod in (pipeline_pkg, updates_mod):
        tracer.patch(mod, "run_sensitivity", lambda _fn: driver)

    def get_around(args, kwargs):
        return lambda art: tracer.add(
            "pipeline.cache_hits" if art is not None else "pipeline.cache_misses", 1)

    tracer.patch(ArtifactStore, "get", lambda fn: tracer.timed(
        fn, lambda *a: "pipeline.artifact_get", around=get_around))
    tracer.patch(ArtifactStore, "put", lambda fn: tracer.timed(
        fn, lambda *a: "pipeline.artifact_put"))

    tracer.patch(SensitivityOracle, "from_result", lambda fn: tracer.timed(
        fn, lambda *a, **k: "oracle.from_result"))
    for op in QUERY_OPS:
        tracer.patch(SensitivityOracle, f"{op}_bulk",
                     lambda fn, op=op: tracer.timed(
                         fn, lambda *a: f"oracle.bulk.{op}",
                         rows=lambda self, edges, *rest: len(edges)))

    for meth in ("apply", "apply_batch", "publish_snapshot"):
        tracer.patch(updates_mod.InstanceUpdater, meth,
                     lambda fn, meth=meth: tracer.timed(
                         fn, lambda *a, **k: f"updates.{meth}"))
    tracer.patch(OracleShard, "swap", lambda fn: tracer.timed(
        fn, lambda *a: "shards.swap"))

    def record_wall(fn):
        def wrapper(self, primitive, seconds):
            tracer.add(f"mpc.{primitive}.calls", 1)
            tracer.add(f"mpc.{primitive}.s", seconds)
            return fn(self, primitive, seconds)
        return wrapper

    tracer.patch(CostTracker, "record_wall", record_wall)
    return tracer


#: Stage order of the sensitivity pipeline (validate ... sens_finalize).
def stage_names() -> List[str]:
    from repro.pipeline import SENSITIVITY_STAGES

    return [stage_metric_name(s.name) for s in SENSITIVITY_STAGES]


MPC_PRIMITIVES = ("sort", "scan", "lookup", "predecessor", "reduce",
                  "filter", "scalar")


def program_layers(tracer: Tracer) -> Dict[str, float]:
    """Per-layer values the spans give, named as in ``BENCHMARK.json``."""
    out: Dict[str, float] = {}
    stage_s = 0.0
    for st in stage_names():
        calls, total, _self, _rows = tracer.span(f"pipeline.{st}")
        out[f"pipeline.{st}.s"] = total
        stage_s += total
        # rounds per execution: repeats exactly for a given input
        rounds = tracer.counts.get(f"pipeline.{st}.rounds", 0.0)
        out[f"pipeline.{st}.rounds"] = rounds / calls if calls else 0.0
    out["pipeline.glue_s"] = (tracer.span("pipeline.run")[2]
                              + tracer.span("pipeline.driver")[2])
    out["pipeline.cache_hits"] = tracer.counts.get("pipeline.cache_hits", 0.0)
    out["pipeline.cache_misses"] = tracer.counts.get("pipeline.cache_misses", 0.0)
    out["pipeline.artifact_get_s"] = tracer.span("pipeline.artifact_get")[1]
    out["pipeline.artifact_put_s"] = tracer.span("pipeline.artifact_put")[1]
    prim_s = 0.0
    for p in MPC_PRIMITIVES:
        out[f"mpc.{p}.calls"] = tracer.counts.get(f"mpc.{p}.calls", 0.0)
        out[f"mpc.{p}.s"] = tracer.counts.get(f"mpc.{p}.s", 0.0)
        prim_s += out[f"mpc.{p}.s"]
    out["mpc.outside_primitives_share"] = (
        max(0.0, 1.0 - prim_s / stage_s) if stage_s else 0.0)
    out["mpc.peak_global_words"] = tracer.maxima.get("mpc.peak_global_words", 0.0)
    out["mpc.peak_machine_words"] = tracer.maxima.get("mpc.peak_machine_words", 0.0)
    out["oracle.from_result_s"] = tracer.span("oracle.from_result")[1]
    for op in QUERY_OPS:
        calls, total, _self, rows = tracer.span(f"oracle.bulk.{op}")
        out[f"oracle.bulk.{op}.calls"] = calls
        out[f"oracle.bulk.{op}.rows"] = rows
        out[f"oracle.bulk.{op}.s"] = total
    out["updates.publish_snapshot_s"] = tracer.span("updates.publish_snapshot")[1]
    out["shards.swap_s"] = tracer.span("shards.swap")[1]
    return out


def waterfall_rows(tracer: Tracer) -> List[Tuple[str, float]]:
    """Self time per layer, in the order a build passes through them.

    Stage rows are split into MPC primitive time and the rest of the
    stage; together with glue, artifact I/O, oracle assembly and the
    write-path self time they partition every instrumented interval.
    """
    rows: List[Tuple[str, float]] = []
    stage_s = sum(tracer.span(f"pipeline.{st}")[2] for st in stage_names())
    prim_s = sum(tracer.counts.get(f"mpc.{p}.s", 0.0) for p in MPC_PRIMITIVES)
    rows.append(("mpc primitives (inside stages)", prim_s))
    rows.append(("stages outside primitives", stage_s - prim_s))
    rows.append(("pipeline glue", tracer.span("pipeline.run")[2]
                 + tracer.span("pipeline.driver")[2]))
    rows.append(("artifact store get/put", tracer.span("pipeline.artifact_get")[2]
                 + tracer.span("pipeline.artifact_put")[2]))
    rows.append(("oracle.from_result", tracer.span("oracle.from_result")[2]))
    for meth in ("apply", "apply_batch", "publish_snapshot"):
        rows.append((f"updates.{meth} (self)", tracer.span(f"updates.{meth}")[2]))
    rows.append(("shards.swap", tracer.span("shards.swap")[2]))
    return rows
