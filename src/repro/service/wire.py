"""The binary columnar wire protocol (S25): zero-parse framing.

JSON-lines made the data plane debuggable; at router scale it is the
dominant hot path — one ``json.loads`` per request on the server, a
full parse per forwarded line on the router, and a loadgen driver that
saturates a core on ``json.dumps`` alone. This module defines a
versioned binary protocol that rides the *same* TCP ports: the first
byte of a connection disambiguates (``MAGIC`` ``0xB7`` can never open a
JSON request, ``{`` ``0x7B`` can never open a binary frame), so old
clients keep working untouched.

Design rules, in order of importance:

1. **Every frame's length is derivable from its first 8 bytes.** The
   type byte alone fixes the grammar (point frames are 16 bytes flat;
   bulk and escape frames carry an explicit count/length in the
   header), so a relay can split a byte stream into frames without
   understanding — or parsing — any payload.
2. **Point frames are uniform 16-byte records** so a whole pipelined
   read decodes with ONE ``np.frombuffer`` into columns (and a whole
   response batch encodes with one ``tobytes``). The ``weight`` field
   is present for every op and meaningful only for ``survives`` — 8
   padding bytes per frame buy vectorised codecs on both ends, which
   is the entire point.
3. **Correlation is FIFO order**, exactly like the JSON-lines path:
   the k-th response frame on a connection answers the k-th request
   frame. No ids on the wire.
4. **Instance names are interned** into ``u16`` symbol ids by a
   ``hello`` handshake (an escape frame), so the hot-path header
   carries a fixed-width id instead of a variable-length name. Ids are
   assigned by the responder (dense, append-only); the router dictates
   the same global order to every worker so relays never rewrite ids.
5. **Control ops stay JSON** inside a length-prefixed *escape frame*
   (type ``0x7E``): ``metrics``, ``update``, ``adopt``, ``chaos``, …
   keep their debuggable representation — only the hot path changes.

Frame grammar (all little-endian; full table in DESIGN.md §6.5)::

    point request   16B  <u8 magic, u8 op(0x01..0x04), u16 iid,
                          u32 edge, f64 weight>
    bulk request    var  <u8 magic, u8 op(0x11..0x14), u16 iid,
                          u32 count> + count*u32 edges
                          [+ count*f64 weights  (survives only)]
    point response  16B  <u8 magic, u8 0x40|status, u16 shard,
                          u32 generation, f64 value>
    bulk response   var  <u8 magic, u8 0x51..0x54, u16 shard,
                          u32 count, u32 generation, u32 reserved>
                          + count*u8 statuses + count*f64 values
    escape          var  <u8 magic, u8 0x7E, u16 reserved, u32 length>
                          + length bytes of JSON (either direction)

Values are ``f64`` pass-through of the oracle's own float64 kernels —
bit-identical to the JSON path, which round-trips the same doubles
through ``repr`` (``survives`` booleans ride as 0.0/1.0 and
``replacement_edge``'s bridge sentinel as -1.0; the client maps them
back). Error envelopes map to compact status codes; the client-side
decoder reconstructs the service's exact error strings for the
deterministic kinds (type/range/shed) from the op, edge and the value
field, so a differential test can demand dict-equality across
protocols.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "MAGIC", "WIRE_VERSION", "HEADER_LEN", "POINT_LEN", "MAX_FRAME_LEN",
    "OP_CODE", "OP_NAME", "BULK_OF", "POINT_OF_BULK",
    "ESCAPE", "RESP_BASE", "BULK_RESP_BASE",
    "ST_OK", "ST_TYPE", "ST_RANGE", "ST_BAD_REQUEST", "ST_INTERNAL",
    "ST_SHED", "ST_SHED_ROUTER", "ST_UNKNOWN_INSTANCE",
    "ST_DISCONNECTED", "ST_ERROR",
    "STATUS_TO_KIND", "KIND_TO_STATUS",
    "POINT_DTYPE", "RESP_DTYPE",
    "dumps", "dumps_line", "join_lines",
    "WireError", "WireSymbols", "WireMetrics",
    "frame_length", "point_run_length",
    "encode_point_requests", "encode_escape", "decode_escape",
    "encode_bulk_request", "decode_bulk_request",
    "encode_bulk_response", "decode_bulk_response",
    "point_response_to_dict", "response_to_status",
]

#: First byte of every binary frame. Chosen so no JSON request can ever
#: start with it (JSON objects open with ``{`` = 0x7B) and vice versa.
MAGIC = 0xB7

#: Protocol version carried in the ``hello`` handshake.
WIRE_VERSION = 1

HEADER_LEN = 8        #: fixed header prefix every frame starts with
POINT_LEN = 16        #: point request and point response frames
#: Upper bound on any single frame (bulk payloads, escape JSON). An
#: advertised length beyond this is a protocol error, not an alloc.
MAX_FRAME_LEN = 64 * 1024 * 1024
#: A JSON-lines request longer than the reader's line limit (asyncio's
#: 64 KiB default) gets this ``protocol`` error, then the door closes.
LINE_TOO_LONG = "request line exceeds the 64 KiB JSON-lines limit"

# -- type bytes ---------------------------------------------------------------

#: Point-request op codes 0x01..0x04 (order matches QUERY_OPS).
OP_CODE: Dict[str, int] = {
    "sensitivity": 0x01,
    "survives": 0x02,
    "replacement_edge": 0x03,
    "entry_threshold": 0x04,
}
OP_NAME: Dict[int, str] = {v: k for k, v in OP_CODE.items()}

#: Bulk-request op codes 0x11..0x14 mirror the point codes.
BULK_OF: Dict[int, int] = {code: code | 0x10 for code in OP_NAME}
POINT_OF_BULK: Dict[int, int] = {v: k for k, v in BULK_OF.items()}

ESCAPE = 0x7E           #: length-prefixed JSON escape frame
RESP_BASE = 0x40        #: point response: 0x40 | status
BULK_RESP_BASE = 0x50   #: bulk response: 0x50 | point op code

_POINT_MIN, _POINT_MAX = 0x01, 0x04
_BULK_MIN, _BULK_MAX = 0x11, 0x14
_RESP_MIN, _RESP_MAX = 0x40, 0x4F
_BRESP_MIN, _BRESP_MAX = 0x51, 0x54

# -- status codes -------------------------------------------------------------

ST_OK = 0x0                #: success; value field holds the answer
ST_TYPE = 0x1              #: wrong edge kind for the op
ST_RANGE = 0x2             #: edge index out of range (value = m)
ST_BAD_REQUEST = 0x3       #: malformed query
ST_INTERNAL = 0x4          #: kernel raised; answer, don't die
ST_SHED = 0x5              #: shard queue full (shard=id, value=bound)
ST_SHED_ROUTER = 0x6       #: router-tier backpressure shed
ST_UNKNOWN_INSTANCE = 0x7  #: iid not registered at the responder
ST_DISCONNECTED = 0x8      #: no live replica within the retry deadline
ST_ERROR = 0x9             #: other structured error

#: status → the JSON path's ``error_kind`` string (and back).
STATUS_TO_KIND: Dict[int, Optional[str]] = {
    ST_OK: None,
    ST_TYPE: "type",
    ST_RANGE: "range",
    ST_BAD_REQUEST: "bad-request",
    ST_INTERNAL: "internal",
    ST_DISCONNECTED: "worker-disconnected",
}
KIND_TO_STATUS: Dict[str, int] = {
    "type": ST_TYPE,
    "range": ST_RANGE,
    "bad-request": ST_BAD_REQUEST,
    "internal": ST_INTERNAL,
    "worker-disconnected": ST_DISCONNECTED,
}

# -- columnar dtypes ----------------------------------------------------------

#: One 16-byte point request. Uniform stride across all four ops is
#: what lets a whole pipelined read decode with one ``frombuffer``.
POINT_DTYPE = np.dtype([
    ("magic", "u1"), ("type", "u1"), ("iid", "<u2"),
    ("edge", "<u4"), ("weight", "<f8"),
])

#: One 16-byte point response (type = RESP_BASE | status).
RESP_DTYPE = np.dtype([
    ("magic", "u1"), ("type", "u1"), ("shard", "<u2"),
    ("generation", "<u4"), ("value", "<f8"),
])

assert POINT_DTYPE.itemsize == POINT_LEN
assert RESP_DTYPE.itemsize == POINT_LEN

_HEADER = struct.Struct("<BBHI")       #: magic, type, u16, u32

# -- compact JSON (the separator-optimised fast path) -------------------------


def dumps(obj) -> str:
    """``json.dumps`` without the default ``", "`` / ``": "`` padding.

    The separators are pure wire fat — ~8–12% of a typical response
    line — and every hot path (server, router, loadgen, escape frames)
    encodes through here so the JSON baseline stays honest in E19.
    """
    return json.dumps(obj, separators=(",", ":"))


def dumps_line(obj) -> bytes:
    """One compact JSON-lines record, newline included, encoded."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def join_lines(objs) -> bytes:
    """Encode many records with a single join (one write per chunk)."""
    return "".join(
        json.dumps(o, separators=(",", ":")) + "\n" for o in objs
    ).encode()


class WireError(Exception):
    """A framing violation: bad magic, unknown type, absurd length.

    Handlers answer with a structured escape error frame where they
    still can, then close — never hang, never leak a raw exception.
    """


# -- frame splitting ----------------------------------------------------------


def frame_length(buf) -> Optional[int]:
    """Total length of the frame opening ``buf``, or ``None`` if the
    header itself is still incomplete. Raises :class:`WireError` on bad
    magic, an unknown type byte, or an oversized advertised length."""
    if len(buf) < HEADER_LEN:
        return None
    magic, ftype, _u16, u32 = _HEADER.unpack_from(bytes(buf[:HEADER_LEN]))
    if magic != MAGIC:
        raise WireError(
            f"bad magic 0x{magic:02x} at frame boundary "
            f"(expected 0x{MAGIC:02x}; is this a JSON client on a "
            f"binary-negotiated connection?)")
    if _POINT_MIN <= ftype <= _POINT_MAX or _RESP_MIN <= ftype <= _RESP_MAX:
        return POINT_LEN
    if _BULK_MIN <= ftype <= _BULK_MAX:
        n = HEADER_LEN + 4 * u32
        if ftype == BULK_OF[OP_CODE["survives"]]:
            n += 8 * u32
        if n > MAX_FRAME_LEN:
            raise WireError(
                f"bulk request advertises {u32} edges "
                f"({n} bytes > {MAX_FRAME_LEN} cap)")
        return n
    if _BRESP_MIN <= ftype <= _BRESP_MAX:
        n = HEADER_LEN + 8 + 9 * u32
        if n > MAX_FRAME_LEN:
            raise WireError(
                f"bulk response advertises {u32} rows "
                f"({n} bytes > {MAX_FRAME_LEN} cap)")
        return n
    if ftype == ESCAPE:
        if HEADER_LEN + u32 > MAX_FRAME_LEN:
            raise WireError(
                f"escape frame advertises {u32} payload bytes "
                f"(> {MAX_FRAME_LEN} cap)")
        return HEADER_LEN + u32
    raise WireError(f"unknown frame type 0x{ftype:02x}")


def point_run_length(buf, *, lo: int = _POINT_MIN,
                     hi: int = _POINT_MAX) -> int:
    """How many leading complete frames of ``buf`` form a uniform run
    of 16-byte point frames with type in ``[lo, hi]``.

    One vectorised scan over the candidate records — the relay and the
    server both use this to lift a whole pipelined read into columns
    without a per-frame Python loop. Returns 0 when the first frame is
    not a point frame (callers then fall back to :func:`frame_length`).
    """
    k = len(buf) // POINT_LEN
    if k == 0:
        return 0
    view = np.frombuffer(buf, dtype=POINT_DTYPE, count=k)
    bad = np.flatnonzero((view["magic"] != MAGIC)
                         | (view["type"] < lo) | (view["type"] > hi))
    return int(bad[0]) if len(bad) else k


# -- codecs -------------------------------------------------------------------


def encode_point_requests(ops: np.ndarray, iids: np.ndarray,
                          edges: np.ndarray,
                          weights: Optional[np.ndarray] = None) -> bytes:
    """Vectorised client-side encode: columns in, one buffer out."""
    n = len(ops)
    out = np.empty(n, dtype=POINT_DTYPE)
    out["magic"] = MAGIC
    out["type"] = ops
    out["iid"] = iids
    out["edge"] = edges
    out["weight"] = weights if weights is not None else 0.0
    return out.tobytes()


def encode_escape(obj) -> bytes:
    """One control request/response as a length-prefixed JSON frame."""
    payload = dumps(obj).encode()
    return _HEADER.pack(MAGIC, ESCAPE, 0, len(payload)) + payload


def decode_escape(frame: bytes) -> Dict:
    """Parse an escape frame's JSON payload (the frame is complete)."""
    try:
        obj = json.loads(frame[HEADER_LEN:])
        if not isinstance(obj, dict):
            raise ValueError("escape payload must be a JSON object")
        return obj
    except ValueError as exc:
        raise WireError(f"bad escape payload: {exc}")


def encode_bulk_request(op: str, iid: int, edges: np.ndarray,
                        weights: Optional[np.ndarray] = None) -> bytes:
    """Columnar bulk query: header + raw u32 edge ids (+ f64 weights)."""
    code = BULK_OF[OP_CODE[op]]
    edges = np.ascontiguousarray(edges, dtype="<u4")
    head = _HEADER.pack(MAGIC, code, iid, len(edges))
    if op == "survives":
        if weights is None:
            raise WireError("bulk survives needs a weights column")
        weights = np.ascontiguousarray(weights, dtype="<f8")
        return head + edges.tobytes() + weights.tobytes()
    return head + edges.tobytes()


def decode_bulk_request(frame: bytes) -> Tuple[str, int, np.ndarray,
                                               Optional[np.ndarray]]:
    """(op, iid, edges, weights|None) from a complete bulk frame."""
    _m, ftype, iid, count = _HEADER.unpack_from(frame)
    op = OP_NAME[POINT_OF_BULK[ftype]]
    edges = np.frombuffer(frame, dtype="<u4", count=count,
                          offset=HEADER_LEN)
    weights = None
    if op == "survives":
        weights = np.frombuffer(frame, dtype="<f8", count=count,
                                offset=HEADER_LEN + 4 * count)
    return op, iid, edges, weights


def encode_bulk_response(op_code: int, shard: int, generation: int,
                         statuses: np.ndarray,
                         values: np.ndarray) -> bytes:
    """Columnar bulk answer: statuses and values as raw buffers."""
    count = len(statuses)
    head = _HEADER.pack(MAGIC, BULK_RESP_BASE | op_code, shard, count)
    head += struct.pack("<II", generation, 0)
    return (head + np.ascontiguousarray(statuses, dtype="u1").tobytes()
            + np.ascontiguousarray(values, dtype="<f8").tobytes())


def decode_bulk_response(frame: bytes) -> Tuple[int, int, np.ndarray,
                                                np.ndarray]:
    """(shard, generation, statuses, values) from a bulk response."""
    _m, _t, shard, count = _HEADER.unpack_from(frame)
    generation, _r = struct.unpack_from("<II", frame, HEADER_LEN)
    statuses = np.frombuffer(frame, dtype="u1", count=count,
                             offset=HEADER_LEN + 8)
    values = np.frombuffer(frame, dtype="<f8", count=count,
                           offset=HEADER_LEN + 8 + count)
    return shard, generation, statuses, values


# -- response → JSON-envelope mapping -----------------------------------------


def _wrap_value(op: str, value: float):
    """Map an f64 wire value back to the op's JSON result type."""
    if op == "survives":
        return bool(value)
    if op == "replacement_edge":
        return None if value < 0 else int(value)
    return float(value)


def point_response_to_dict(op: str, edge: int, rec,
                           instance: Optional[str] = None) -> Dict:
    """Decode one point response record into the exact dict the JSON
    path would have produced for the same query.

    The deterministic error kinds (type/range/shed) reconstruct the
    service's error strings verbatim — the frame carries the missing
    operand in its ``value``/``shard`` fields — which is what lets the
    cross-protocol differential test assert dict equality, not just
    value equality.
    """
    status = rec["type"] & 0x0F
    generation = int(rec["generation"])
    shard = int(rec["shard"])
    value = float(rec["value"])
    if status == ST_OK:
        return {"ok": True, "generation": generation, "shard": shard,
                "result": _wrap_value(op, value)}
    if status == ST_TYPE:
        kind = "tree" if op == "replacement_edge" else "non-tree"
        return {"ok": False, "generation": generation, "shard": shard,
                "error": f"edge {edge} is not a {kind} edge",
                "error_kind": "type"}
    if status == ST_RANGE:
        # the JSON path rejects these at route() time, before any shard
        # is chosen — reconstruct that envelope exactly (no shard keys)
        return {"ok": False,
                "error": f"edge index {edge} out of range "
                         f"[0, {int(value)})"}
    if status == ST_SHED:
        return {"ok": False, "shed": True,
                "error": f"shard {shard} queue full ({int(value)})"}
    if status == ST_SHED_ROUTER:
        return {"ok": False, "shed": True, "where": "router",
                "error": f"all {int(value)} replica(s) of {instance!r} "
                         f"are past the shed watermark"}
    if status == ST_UNKNOWN_INSTANCE:
        return {"ok": False, "error": f"unknown instance {instance!r}"}
    if status == ST_DISCONNECTED:
        # value distinguishes the router's two retry-deadline messages
        msg = (f"no live replica of {instance!r} within the retry "
               f"deadline" if value < 1.0 else
               f"replicas of {instance!r} kept disconnecting within "
               f"the retry deadline")
        return {"ok": False, "error": msg,
                "error_kind": "worker-disconnected"}
    if status == ST_BAD_REQUEST:
        return {"ok": False, "generation": generation, "shard": shard,
                "error": "survives needs a weight",
                "error_kind": "bad-request"}
    if status == ST_INTERNAL:
        return {"ok": False, "generation": generation, "shard": shard,
                "error": "internal error", "error_kind": "internal"}
    return {"ok": False, "error": f"wire status 0x{status:x}"}


def response_to_status(resp: Dict) -> int:
    """Classify a JSON response dict into a compact status code."""
    if resp.get("ok"):
        return ST_OK
    if resp.get("shed"):
        return (ST_SHED_ROUTER if resp.get("where") == "router"
                else ST_SHED)
    return KIND_TO_STATUS.get(resp.get("error_kind", ""), ST_ERROR)


# -- symbol interning ---------------------------------------------------------


class WireSymbols:
    """Append-only instance-name → dense ``u16`` id registry.

    One registry per responder process. Ids are assigned in intern
    order and never reused, so a ``hello`` reply is always a superset
    of every earlier reply on the same process — connections cache the
    mapping without invalidation. The router keeps its own registry
    and *dictates* it to workers (hello with the full name list in
    global-id order), so a relayed frame's iid means the same instance
    on both sides of the splice — no rewriting.
    """

    MAX = 0xFFFF

    def __init__(self):
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []

    def __len__(self) -> int:
        return len(self._names)

    @property
    def version(self) -> int:
        """Monotone registry size — links compare this to re-hello."""
        return len(self._names)

    def intern(self, name: str) -> int:
        iid = self._ids.get(name)
        if iid is None:
            if len(self._names) >= self.MAX:
                raise WireError("symbol table full (65535 instances)")
            iid = len(self._names)
            self._ids[name] = iid
            self._names.append(name)
        return iid

    def intern_all(self, names) -> Dict[str, int]:
        return {name: self.intern(name) for name in names}

    def name_of(self, iid: int) -> Optional[str]:
        return self._names[iid] if 0 <= iid < len(self._names) else None

    def names(self) -> List[str]:
        """All names in id order (id k is ``names()[k]``)."""
        return list(self._names)

    def table(self) -> Dict[str, int]:
        return dict(self._ids)


# -- per-protocol accounting --------------------------------------------------


class WireMetrics:
    """Per-protocol wire counters for one listener (or relay side).

    ``frames_*``/``bytes_*`` count data-plane traffic; ``json_decodes``
    / ``json_encodes`` count JSON parser invocations on the same path —
    the zero-parse assertion for binary relays is exactly "frames grew,
    json_decodes did not". Decode/encode wall time is recorded per
    *batch* (vectorised codecs amortise it) and reported as mean ns per
    frame.
    """

    def __init__(self):
        self.connections = 0
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.json_decodes = 0
        self.json_encodes = 0
        self.decode_ns = 0
        self.decode_frames = 0
        self.encode_ns = 0
        self.encode_frames = 0

    def record_decode(self, frames: int, ns: int) -> None:
        self.decode_frames += frames
        self.decode_ns += ns

    def record_encode(self, frames: int, ns: int) -> None:
        self.encode_frames += frames
        self.encode_ns += ns

    def snapshot(self) -> Dict:
        return {
            "connections": self.connections,
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "json_decodes": self.json_decodes,
            "json_encodes": self.json_encodes,
            "decode_ns_per_frame": (
                round(self.decode_ns / self.decode_frames, 1)
                if self.decode_frames else None),
            "encode_ns_per_frame": (
                round(self.encode_ns / self.encode_frames, 1)
                if self.encode_frames else None),
        }
