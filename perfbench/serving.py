"""Driver side of the serving workloads: ``fleet_read`` and ``churn``.

One driver process, at most two load connections, both closed-loop:

* ``fleet_read`` — a router with two workers (replication 2) serves
  ``random`` and ``power_law``. Connection 1 sends binary point-query
  chunks, connection 2 JSON-lines chunks, over the same window.
* ``churn`` — one single-process server serves ``random``. Connection 1
  sends binary point-query chunks; connection 2 sends a fixed seeded
  JSON write schedule (preserving update, rebuild-forcing update, then
  an ``update_batch`` add → reprice → remove cycle).

Every request payload is encoded before the window, so driver encode
time stays outside every round-trip clock; each RTT is the wall time of
one whole chunk (write → last response byte). Answers are checked
against the benchmark's own reference oracle after the clock stops.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
import tracer as tracing

OPS = tracing.QUERY_OPS
#: update_batch size of the churn schedule (E17's batch)
BATCH_OPS = 16
#: survives weight of the correctness probe (both outcomes occur)
PROBE_WEIGHT = 1.25


# -- the server process -----------------------------------------------------------


class Launched:
    """One launcher process: spawned, READY, and stopped again."""

    def __init__(self, mode: str, n: int, seed: int, trace: bool):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(common.HERE, "launcher.py"),
             "--mode", mode, "--n", str(n), "--seed", str(seed),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        try:
            self.info = self._expect("READY", timeout_s=300)
        except BaseException:
            self.kill()
            raise
        self.host, self.port = self.info["host"], self.info["port"]
        self.pids: Dict[str, int] = self.info["pids"]

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _expect(self, tag: str, timeout_s: float) -> Dict:
        deadline = time.perf_counter() + timeout_s
        while True:
            left = deadline - time.perf_counter()
            try:
                line = self._lines.get(timeout=max(left, 0.01))
            except queue.Empty:
                raise TimeoutError(f"launcher sent no {tag} in {timeout_s}s")
            if line is None:
                raise RuntimeError(
                    f"launcher exited ({self.proc.wait()}) before {tag}")
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])

    def command(self, cmd: str, tag: str) -> Dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self._expect(tag, timeout_s=60)

    def first_answer(self, instance: str) -> float:
        """Seconds from spawn until one point query is answered."""
        with socket.create_connection((self.host, self.port), timeout=60) as s:
            req = {"op": "sensitivity", "instance": instance, "edge": 0}
            s.sendall((json.dumps(req) + "\n").encode())
            resp = json.loads(s.makefile("rb").readline())
        if not resp.get("ok"):
            raise RuntimeError(f"first query failed: {resp}")
        return time.perf_counter() - self.t_spawn

    def peak_rss_kib(self) -> int:
        return sum(common.peak_rss_kib(p)
                   for p in common.process_tree(self.proc.pid))

    #: a clean shutdown takes well under a second; past this the
    #: process group is killed so one stuck shutdown cannot stall a run
    STOP_TIMEOUT_S = 20.0

    def stop(self) -> None:
        """Graceful ``shutdown``; the process group is killed if it hangs."""
        t0 = time.perf_counter()
        try:
            with socket.create_connection((self.host, self.port),
                                          timeout=10) as s:
                s.sendall(b'{"op": "shutdown"}\n')
                s.makefile("rb").readline()
            self.proc.wait(timeout=self.STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            print(f"warning: server did not shut down cleanly after "
                  f"{time.perf_counter() - t0:.1f}s ({exc!r}); killed",
                  file=sys.stderr)
            self.kill()
        self.proc.stdin.close()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def setups(mode: str, n: int, seed: int, trace: bool, count: int,
           first_instance: str) -> Tuple[Launched, Dict]:
    """Set the server up ``count`` times; keep the last one running.

    ``setup_s`` is spawn → first answer (graph generation, server or
    fleet start, build); the median over the set-ups is reported.
    """
    setup_s, build_s, generate_s = [], [], []
    server = None
    for k in range(count):
        server = Launched(mode, n, seed, trace)
        try:
            setup_s.append(server.first_answer(first_instance))
        except BaseException:
            server.kill()
            raise
        build_s.append(server.info["build_s"])
        generate_s.append(server.info["generate_s"])
        if k < count - 1:
            server.stop()
    return server, {"setup_s": common.median(setup_s),
                    "build_s": common.median(build_s),
                    "generate_s": common.median(generate_s),
                    "build_rounds": server.info["build_rounds"],
                    "setup_samples": setup_s}


# -- requests and expected answers ------------------------------------------------


def expected_answers(oracle, ops: np.ndarray, edges: np.ndarray,
                     weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(status, value) per query as the binary protocol encodes them."""
    from repro.service import wire

    status = np.full(len(edges), wire.ST_OK, dtype=np.uint8)
    value = np.zeros(len(edges), dtype=np.float64)
    inside = edges < oracle.m
    status[~inside] = wire.ST_RANGE
    value[~inside] = oracle.m
    e = np.where(inside, edges, 0)
    tree = oracle.tree_mask[e]
    for code, op in enumerate(OPS, start=1):
        sel = (ops == code) & inside
        if op == "sensitivity":
            value[sel] = oracle.sens[e[sel]]
        elif op == "survives":
            thr = oracle.threshold[e[sel]]
            x = weights[sel]
            value[sel] = np.where(tree[sel], x <= thr, x >= thr)
        else:
            wrong = sel & (~tree if op == "replacement_edge" else tree)
            right = sel & ~wrong
            status[wrong] = wire.ST_TYPE
            value[right] = (oracle.cover_edge[e[right]] if op == "replacement_edge"
                            else oracle.threshold[e[right]])
    return status, value


def json_answers(lines: List[bytes]) -> Tuple[np.ndarray, np.ndarray]:
    """JSON-lines responses → the same (status, value) encoding."""
    from repro.service import wire

    status = np.empty(len(lines), dtype=np.uint8)
    value = np.zeros(len(lines), dtype=np.float64)
    for i, line in enumerate(lines):
        d = json.loads(line)
        if d.get("ok"):
            status[i] = wire.ST_OK
            r = d["result"]
            value[i] = -1.0 if r is None else float(r)
        elif d.get("error_kind") == "type":
            status[i] = wire.ST_TYPE
        else:
            status[i] = wire.ST_ERROR
    return status, value


def mismatches(status, value, exp_status, exp_value, values: bool) -> int:
    bad = status != exp_status
    if values:
        ok = status == 0
        bad |= ok & (value != exp_value)
    return int(np.count_nonzero(bad))


@dataclass
class Plan:
    """Pre-encoded read chunks over one or more instances."""

    binary: List[bytes]
    json: List[bytes]
    bounds: List[Tuple[int, int]]
    exp_status: np.ndarray
    exp_value: np.ndarray
    encode_s: float


def make_plan(oracles: Dict, symbols: Dict[str, int], length: int,
              depth: int, seed: int) -> Plan:
    """The default loadgen op mix, one instance per chunk, packed for
    both protocols up front.

    Chunks alternate over the instances: a caller pipelines a batch of
    questions about one graph. (The router relays each same-instance
    run of a chunk separately, so chunks that interleave instances at
    random measure that split instead of the relay.)
    """
    from repro.service import wire
    from repro.service.loadgen import QueryPlan
    from repro.service.loadgen import make_plan as loadgen_plan

    names = sorted(oracles)
    per = length // len(names)
    parts = {name: loadgen_plan({name: oracles[name].m}, per, seed=seed + i)
             for i, name in enumerate(names)}
    chunks = [(name, lo) for lo in range(0, per, depth) for name in names]
    take = [np.arange(lo, min(lo + depth, per)) for _, lo in chunks]
    plan = QueryPlan(
        ops=[parts[name].ops[i] for (name, _), ix in zip(chunks, take)
             for i in ix],
        instances=[name for (name, _), ix in zip(chunks, take) for _ in ix],
        edges=np.concatenate([parts[name].edges[ix]
                              for (name, _), ix in zip(chunks, take)]),
        weights=np.concatenate([parts[name].weights[ix]
                                for (name, _), ix in zip(chunks, take)]))
    length = len(plan)
    ops = np.array([wire.OP_CODE[op] for op in plan.ops], dtype=np.uint8)
    who = np.array(plan.instances)
    exp_status = np.empty(length, dtype=np.uint8)
    exp_value = np.empty(length, dtype=np.float64)
    for name, oracle in oracles.items():
        sel = who == name
        exp_status[sel], exp_value[sel] = expected_answers(
            oracle, ops[sel], plan.edges[sel], plan.weights[sel])

    t0 = time.perf_counter()
    arr = np.zeros(length, dtype=wire.POINT_DTYPE)
    arr["magic"] = wire.MAGIC
    arr["type"] = ops
    arr["iid"] = np.array([symbols[w] for w in plan.instances], dtype=np.uint16)
    arr["edge"] = plan.edges.astype(np.uint32)
    arr["weight"] = plan.weights
    ends = np.cumsum([len(ix) for ix in take])
    bounds = [(int(hi - len(ix)), int(hi)) for hi, ix in zip(ends, take)]
    binary = [arr[lo:hi].tobytes() for lo, hi in bounds]
    jsonl = [wire.join_lines(plan.request(i) for i in range(lo, hi))
             for lo, hi in bounds]
    return Plan(binary, jsonl, bounds, exp_status, exp_value,
                time.perf_counter() - t0)


# -- connections ------------------------------------------------------------------


class Conn:
    """One TCP connection; binary after :meth:`hello`, else JSON lines."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Conn":
        return cls(*await asyncio.open_connection(host, port))

    async def hello(self) -> Dict[str, int]:
        from repro.service import wire

        self.writer.write(wire.encode_escape({"op": "hello",
                                              "wire": wire.WIRE_VERSION}))
        await self.writer.drain()
        head = await self.reader.readexactly(wire.HEADER_LEN)
        body = await self.reader.readexactly(wire.frame_length(head)
                                             - wire.HEADER_LEN)
        resp = wire.decode_escape(head + body)
        if not resp.get("ok"):
            raise ConnectionError(f"binary hello rejected: {resp}")
        return {k: int(v) for k, v in resp["result"]["symbols"].items()}

    async def binary_run(self, payload: bytes) -> np.ndarray:
        from repro.service import wire

        self.writer.write(payload)
        await self.writer.drain()
        data = await self.reader.readexactly(len(payload))
        return np.frombuffer(data, dtype=wire.RESP_DTYPE)

    async def json_lines(self, payload: bytes, count: int) -> List[bytes]:
        self.writer.write(payload)
        await self.writer.drain()
        buf, seen = bytearray(), 0
        while seen < count:
            data = await self.reader.read(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            seen += data.count(b"\n")
            buf += data
        return bytes(buf).split(b"\n")[:count]

    async def call(self, req: Dict) -> Dict:
        return json.loads((await self.json_lines(
            (json.dumps(req) + "\n").encode(), 1))[0])

    def close(self) -> None:
        self.writer.close()


class Window:
    """The measured window. Reads run until its end; on ``churn`` the end
    also waits for the fixed write schedule to finish, so every write
    runs against the read load."""

    def __init__(self, seconds: float, wait_for_writes: bool):
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.wait_for_writes = wait_for_writes
        self.writes_done: Optional[float] = None

    def open(self) -> bool:
        return (time.perf_counter() < self.deadline
                or (self.wait_for_writes and self.writes_done is None))

    @property
    def end(self) -> float:
        return max(self.deadline, self.writes_done or 0.0)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Stream:
    """What one closed-loop stream observed: one entry per chunk (or
    write) with its completion time, RTT and answered count."""

    ends: List[float] = field(default_factory=list)
    rtts: List[float] = field(default_factory=list)
    answered: List[int] = field(default_factory=list)
    attempted: int = 0         #: everything sent, in the window or not
    failed: int = 0

    def add(self, t0: float, t1: float, answered: int) -> None:
        self.ends.append(t1)
        self.rtts.append(t1 - t0)
        self.answered.append(answered)

    def summary(self, window: Window) -> Dict[str, float]:
        """Rate and RTT percentiles of entries that end inside the window."""
        inside = [i for i, t in enumerate(self.ends) if t <= window.end]
        rtts = [self.rtts[i] for i in inside]
        return {"rate": sum(self.answered[i] for i in inside) / window.seconds,
                "p50_ms": 1e3 * common.pct(rtts, 50),
                "mean_ms": 1e3 * sum(rtts) / len(rtts),
                "p90_ms": 1e3 * common.pct(rtts, 90),
                "p99_ms": 1e3 * common.pct(rtts, 99), "n": len(rtts)}


async def read_stream(conn: Conn, plan: Plan, binary: bool, start: int,
                      keep_going, out: Stream, values: bool) -> None:
    """Closed-loop chunks while ``keep_going()``; every answer is checked
    after its chunk's clock stops."""
    from repro.service import wire

    i = start
    while keep_going():
        k = i % len(plan.bounds)
        i += 1
        lo, hi = plan.bounds[k]
        t0 = time.perf_counter()
        if binary:
            resp = await conn.binary_run(plan.binary[k])
            t1 = time.perf_counter()
            status = resp["type"] & 0x0F
            value = resp["value"]
        else:
            lines = await conn.json_lines(plan.json[k], hi - lo)
            t1 = time.perf_counter()
            status, value = json_answers(lines)
        out.attempted += hi - lo
        out.failed += mismatches(status, value, plan.exp_status[lo:hi],
                                 plan.exp_value[lo:hi], values)
        out.add(t0, t1, int(np.count_nonzero(
            (status == wire.ST_OK) | (status == wire.ST_TYPE))))


async def probe(bconn: Conn, jconn: Conn, oracles: Dict, symbols: Dict,
                stride: int) -> Tuple[int, int]:
    """Strided probe of all four ops, with out-of-range and wrong-kind
    edges: binary and JSON must answer identically, and equal the
    reference. Returns ``(attempted, failed)``."""
    from repro.service import wire

    attempted = failed = 0
    for name, oracle in oracles.items():
        edges = np.concatenate([np.arange(0, oracle.m, stride),
                                [oracle.m, oracle.m + 7]])
        ops = np.repeat(np.arange(1, 5, dtype=np.uint8), len(edges))
        edges = np.tile(edges, 4)
        weights = np.full(len(edges), PROBE_WEIGHT)
        exp_status, exp_value = expected_answers(oracle, ops, edges, weights)
        for lo in range(0, len(edges), 256):
            hi = min(lo + 256, len(edges))
            arr = np.zeros(hi - lo, dtype=wire.POINT_DTYPE)
            arr["magic"] = wire.MAGIC
            arr["type"] = ops[lo:hi]
            arr["iid"] = symbols[name]
            arr["edge"] = edges[lo:hi]
            arr["weight"] = weights[lo:hi]
            reqs = []
            for op, e in zip(ops[lo:hi], edges[lo:hi]):
                req = {"op": OPS[op - 1], "instance": name, "edge": int(e)}
                if req["op"] == "survives":
                    req["weight"] = PROBE_WEIGHT
                reqs.append(req)
            resp = await bconn.binary_run(arr.tobytes())
            lines = await jconn.json_lines(
                b"".join((json.dumps(r) + "\n").encode() for r in reqs),
                hi - lo)
            failed += mismatches(resp["type"] & 0x0F, resp["value"],
                                 exp_status[lo:hi], exp_value[lo:hi],
                                 values=True)
            for req, rec, line in zip(reqs, resp, lines):
                as_dict = wire.point_response_to_dict(
                    req["op"], req["edge"], rec, instance=name)
                failed += as_dict != json.loads(line)
            attempted += 2 * (hi - lo)
    return attempted, failed


# -- churn write schedule ---------------------------------------------------------


class WriteSchedule:
    """Preserving update, rebuild-forcing update, then an add → reprice →
    remove ``update_batch`` cycle of heavy non-tree edges, repeated.

    Edges are classified by the reference oracle: preserving updates
    raise a non-tree edge that covers no tree edge's minimum
    (``covering_edges``), rebuild-forcing ones halve a covered tree
    edge. Neither changes any later edge's class. Every applied write
    is kept as structural ops so the final graph can be rebuilt.
    """

    def __init__(self, oracle, seed: int):
        rng = np.random.default_rng(seed)
        covered = np.isfinite(oracle.threshold) & oracle.tree_mask
        free = ~oracle.tree_mask & ~oracle.covering_edges()
        self.preserving = iter(rng.permutation(np.flatnonzero(free)))
        self.rebuilding = iter(rng.permutation(np.flatnonzero(covered)))
        self.w = oracle.w
        self.n = int(oracle.parent.shape[0])
        self.m0 = oracle.m
        self.heavy = float(oracle.w.max()) + 1.0
        self.step = 0
        self.applied: List[List[Dict]] = []   # replayable ops, in order

    KINDS = ("patch", "rebuild", "batch", "batch", "batch")

    def next(self) -> Tuple[str, Dict, Dict]:
        """(kind, request, expected) for the next write."""
        phase = self.step % len(self.KINDS)
        cycle = self.step // len(self.KINDS)
        self.step += 1
        if phase == 0:
            e = int(next(self.preserving))
            return "patch", {"op": "update", "instance": "random", "edge": e,
                             "weight": float(self.w[e]) + 0.5}, {"action": "patched"}
        if phase == 1:
            e = int(next(self.rebuilding))
            return "rebuild", {"op": "update", "instance": "random", "edge": e,
                               "weight": float(self.w[e]) * 0.5}, {"action": "rebuilt"}
        added = range(self.m0, self.m0 + BATCH_OPS)
        if phase == 2:
            ops = [{"kind": "add", "u": (17 * cycle + 13 * j) % self.n,
                    "v": (17 * cycle + 13 * j + 1 + j) % self.n,
                    "weight": self.heavy + j} for j in range(BATCH_OPS)]
            m = self.m0 + BATCH_OPS
        elif phase == 3:
            ops = [{"kind": "reprice", "edge": e,
                    "weight": self.heavy + 100 + k} for k, e in enumerate(added)]
            m = self.m0 + BATCH_OPS
        else:
            ops = [{"kind": "remove", "edge": e} for e in added]
            m = self.m0
        return "batch", {"op": "update_batch", "instance": "random",
                         "ops": ops}, {"action": "rebuilt", "scoped": True, "m": m}

    def record(self, req: Dict) -> None:
        if req["op"] == "update":
            self.applied.append([{"kind": "reprice", "edge": req["edge"],
                                  "weight": req["weight"]}])
        else:
            self.applied.append(req["ops"])

    def final_graph(self, graph):
        from repro.graph.mutations import apply_ops

        for ops in self.applied:
            graph, _effect = apply_ops(graph, ops)
        return graph


@dataclass
class Writes:
    """The churn writer's record: per write, per class and per cycle."""

    stream: Stream = field(default_factory=Stream)
    by_kind: Dict[str, List[float]] = field(default_factory=dict)
    cycles: List[float] = field(default_factory=list)  #: wall of each cycle
    late_s: float = 0.0   #: how far cycle starts slipped behind schedule


async def write_stream(conn: Conn, schedule: WriteSchedule, window: Window,
                       cycles: int, cycle_s: float, out: Writes) -> None:
    """``cycles`` write cycles, one due every ``cycle_s`` from the window
    start; the writes of a cycle are closed-loop (each waits for its
    ack). A cycle that falls behind starts late and the slip is
    recorded."""
    try:
        for c in range(cycles):
            delay = window.start + c * cycle_s - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            else:
                out.late_s += -delay
            c0 = time.perf_counter()
            for _ in schedule.KINDS:
                kind, req, expect = schedule.next()
                t0 = time.perf_counter()
                resp = await conn.call(req)
                t1 = time.perf_counter()
                out.stream.attempted += 1
                if resp.get("ok"):   # applied: the final graph must show it
                    schedule.record(req)
                if resp.get("ok") and all(resp.get(k) == v
                                          for k, v in expect.items()):
                    out.stream.add(t0, t1, 1)
                else:
                    out.stream.failed += 1
                    print(f"write failed: {kind} {resp}", file=sys.stderr)
                out.by_kind.setdefault(kind, []).append(t1 - t0)
            out.cycles.append(time.perf_counter() - c0)
    finally:
        window.writes_done = time.perf_counter()


# -- per-layer numbers from the metrics op ----------------------------------------

_WIRE_COUNTS = ("frames_in", "bytes_in", "bytes_out", "json_decodes")
_WIRE_RATES = ("decode_ns_per_frame", "encode_ns_per_frame")


def _wire(layers: Dict, side: str, befores: List[Dict], afters: List[Dict]) -> None:
    """Window deltas of the wire counters of one side (summed over its
    listeners); per-frame codec costs are frame-weighted means."""
    for proto in ("binary", "json"):
        for key in _WIRE_COUNTS:
            layers[f"wire.{side}.{proto}.{key}"] = sum(
                a[proto][key] - b[proto][key] for a, b in zip(afters, befores))
        frames = sum(a[proto]["frames_in"] for a in afters)
        for key in _WIRE_RATES:
            layers[f"wire.{side}.{proto}.{key}"] = (sum(
                (a[proto][key] or 0.0) * a[proto]["frames_in"] for a in afters)
                / frames if frames else 0.0)


def _batching(layers: Dict, befores: List[Dict], afters: List[Dict]) -> None:
    """Micro-batcher counters over every service instance's shards."""
    def total(snaps, key):
        return sum(s[key] for m in snaps for inst in m["instances"].values()
                   for s in inst["shards"])

    batches = total(afters, "batches") - total(befores, "batches")
    queries = total(afters, "queries") - total(befores, "queries")
    layers["batching.batches"] = batches
    layers["batching.occupancy"] = queries / batches if batches else 0.0
    layers["batching.shed"] = total(afters, "shed") - total(befores, "shed")
    # pooled reservoirs are per process: weight p50 by traffic, take max p99
    lat = [(m["latency"], m["queries"]) for m in afters
           if m["latency"]["p50_ms"] is not None]
    weight = sum(q for _, q in lat)
    layers["batching.queue_p50_ms"] = (sum(l["p50_ms"] * q for l, q in lat)
                                       / weight if weight else 0.0)
    layers["batching.queue_p99_ms"] = max((l["p99_ms"] for l, _ in lat),
                                          default=0.0)


def _updates(layers: Dict, before: Dict, after: Dict) -> None:
    """Write-path counters of the churn server's one instance."""
    b, a = before["instances"]["random"], after["instances"]["random"]
    for key in ("preserving", "rebuilds", "stages_executed", "stages_cached",
                "rebuild_wall_s"):
        layers[f"updates.{key}"] = a["updates"][key] - b["updates"][key]
    # the instance reports ``stream`` once its first batch has arrived
    sa = a["stream"]
    for key in ("batches_applied", "scoped_replays", "full_replays",
                "stages_spliced"):
        layers[f"stream.{key}"] = sa[key] - b.get("stream", {key: 0})[key]
    layers["stream.apply_p50_ms"] = sa["apply_p50_ms"]


def _router(layers: Dict, before: Dict, after: Dict) -> None:
    b, a = before["router"], after["router"]
    for key in ("forwarded", "replica_hits", "shed_router", "worker_errors",
                "depth_polls"):
        layers[f"router.{key}"] = a[key] - b[key]
    layers["router.forward_p50_ms"] = a["forward_p50_ms"]
    layers["router.forward_p99_ms"] = a["forward_p99_ms"]


def _service_layers(layers: Dict, churn: bool, before: Dict,
                    after: Dict) -> None:
    """Per-layer counters from two ``metrics`` op results. A field the
    program no longer reports fails the traced run."""
    _wire(layers, "front", [before["wire"]], [after["wire"]])
    if churn:
        _batching(layers, [before], [after])
        _updates(layers, before, after)
    else:
        wb = [before["workers"][k] for k in sorted(before["workers"])]
        wa = [after["workers"][k] for k in sorted(after["workers"])]
        _wire(layers, "worker", [w["wire"] for w in wb], [w["wire"] for w in wa])
        _batching(layers, wb, wa)
        _router(layers, before, after)


# -- the two workloads ------------------------------------------------------------


def _reference(names, n: int, seed: int) -> Tuple[Dict, Dict]:
    """The benchmark's own reference: the same seeded graphs, built here."""
    from repro.oracle import build_oracle

    graphs = {name: common.make_graph(name, n, seed, salt=i)
              for i, name in enumerate(names)}
    return graphs, {name: build_oracle(g) for name, g in graphs.items()}


async def _measure(server: Launched, streams, window_s: float,
                   churn: bool, trace: bool):
    """Run ``streams`` (coroutine factories taking the window) over one
    measured window; returns the window, CPU shares and the span dump."""
    traced = trace and server.info["traced"]
    if traced:
        server.command("reset", "RESET")
    cpu = common.CpuWindow({"driver": os.getpid(), **server.pids})
    window = Window(window_s, wait_for_writes=churn)
    await asyncio.gather(*(make(window) for make in streams))
    shares = cpu.shares()
    spans = server.command("dump", "TRACE") if traced else None
    return window, shares, spans


def run_serving(workload: str, seed: int, seconds: float, trace: bool,
                size: common.Size) -> common.Outcome:
    mode, names = (("fleet", ("random", "power_law")) if workload == "fleet_read"
                   else ("direct", ("random",)))
    graphs, oracles = _reference(names, size.serve_n, seed)
    server, setup = setups(mode, size.serve_n, seed, trace, size.setups,
                           names[0])
    try:
        return asyncio.run(_drive(workload, server, setup, graphs, oracles,
                                  seed, seconds, trace, size))
    finally:
        server.stop()


async def _drive(workload, server, setup, graphs, oracles, seed, seconds,
                 trace, size) -> common.Outcome:
    from repro.oracle import build_oracle

    bconn = await Conn.open(server.host, server.port)
    jconn = await Conn.open(server.host, server.port)
    out = common.Outcome()
    try:
        symbols = await bconn.hello()
        plan = make_plan(oracles, symbols, size.plan_len, size.depth, seed)
        a, f = await probe(bconn, jconn, oracles, symbols, size.probe_stride)
        out.count(a, f)
        churn = workload == "churn"
        # untimed warm-up storm (the first storm runs measurably slower)
        warm = Stream()
        until = time.perf_counter() + size.warm_s
        keep = lambda: time.perf_counter() < until  # noqa: E731
        await asyncio.gather(
            read_stream(bconn, plan, True, 0, keep, warm, not churn),
            *(() if churn else (read_stream(jconn, plan, False, 0, keep,
                                            warm, True),)))
        out.count(warm.attempted, warm.failed)
        before = server.command("metrics", "METRICS") if trace else None

        main, side, writes = Stream(), Stream(), Writes()
        if churn:
            schedule = WriteSchedule(oracles["random"], seed)
            cycles = max(1, int(seconds // size.cycle_s))
            side_task = lambda w: write_stream(  # noqa: E731
                jconn, schedule, w, cycles, size.cycle_s, writes)
        else:
            side_task = lambda w: read_stream(  # noqa: E731
                jconn, plan, False, len(plan.bounds) // 2, w.open, side, True)
        window, shares, spans = await _measure(
            server,
            [lambda w: read_stream(bconn, plan, True, 0, w.open, main,
                                   not churn),
             side_task],
            seconds, churn, trace)
        rss_kib = server.peak_rss_kib() + common.self_peak_rss_kib()
        after = server.command("metrics", "METRICS") if trace else None
        out.count(main.attempted, main.failed)
        out.count(side.attempted + writes.stream.attempted,
                  side.failed + writes.stream.failed)

        if churn:
            # the served state must equal a cold build of the final graph
            final = schedule.final_graph(graphs["random"])
            cold = {"random": build_oracle(final)}
            a, f = await probe(bconn, jconn, cold, symbols, size.probe_stride)
            out.count(a, f)
    finally:
        bconn.close()
        jconn.close()

    m = main.summary(window)
    if churn:
        # one write cycle is what a caller waits for; its wall is
        # unimodal where the five write classes are not. The rate is
        # acked writes per second spent writing, not per second of the
        # fixed cycle schedule, so it tracks the write path.
        s = {"rate": len(writes.stream.ends) / sum(writes.cycles),
             "p50_ms": 1e3 * common.pct(writes.cycles, 50),
             "mean_ms": 1e3 * sum(writes.cycles) / len(writes.cycles),
             "p90_ms": 1e3 * common.pct(writes.cycles, 90),
             "p99_ms": 1e3 * common.pct(writes.cycles, 99),
             "n": len(writes.cycles)}
    else:
        s = side.summary(window)
    out.e2e = {"setup_s": setup["setup_s"], "build_s": setup["build_s"],
               "build_rounds": setup["build_rounds"],
               "peak_rss_mb": rss_kib / 1024.0,
               "main_rate": m["rate"], "main_p50_ms": m["p50_ms"],
               "main_mean_ms": m["mean_ms"], "side_rate": s["rate"],
               "side_p50_ms": s["p50_ms"], "side_mean_ms": s["mean_ms"]}
    if churn:   # one process, no router; no worker processes
        out.bypass("router.", "wire.worker.", "proc.worker")
    else:
        # the workers are forkserver children the launcher cannot wrap,
        # and the window runs no pipeline or write: every span-based
        # layer reads 0 here (oracle.bulk is used but not measurable)
        out.bypass("pipeline.", "mpc.", "oracle.", "updates.", "stream.",
                   "shards.")
    layers = out.layers
    layers["graph.generate_s"] = setup["generate_s"]
    layers["driver.encode_s"] = plan.encode_s
    for role, share in shares.items():
        layers[f"proc.{role}.cpu_share"] = share
    out.driver_share = shares["driver"]
    if trace:
        _service_layers(layers, churn, before, after)

    out.samples = {"main_n": m["n"], "side_n": s["n"],
                   "main_p90_ms": m["p90_ms"], "main_p99_ms": m["p99_ms"],
                   "side_p90_ms": s["p90_ms"], "side_p99_ms": s["p99_ms"],
                   "window_s": window.seconds,
                   "setup_s": setup["setup_samples"]}
    if churn:
        out.samples["cycles_late_s"] = writes.late_s
        for kind, lat in writes.by_kind.items():
            out.samples[f"{kind}_p50_ms"] = 1e3 * common.median(lat)
            out.samples[f"{kind}_n"] = len(lat)
    out.params = {"n": size.serve_n, "instances": list(graphs),
                  "m": {k: g.m for k, g in graphs.items()},
                  "mode": "router x2 workers, replication 2" if not churn
                  else "single process", "shards": 2, "depth": size.depth,
                  "plan_len": size.plan_len, "setups": size.setups}
    if spans is not None:
        tr = tracing.Tracer.from_snapshot(spans)
        layers.update(tracing.program_layers(tr))
        rows = tracing.waterfall_rows(tr)
        out.waterfall("write acks (sum of send-to-ack times)",
                      sum(writes.stream.rtts), rows)
    elif trace:
        out.cpu_table(window.seconds, shares)
    return out
