"""Shared pieces of the benchmark: sizes, seeded inputs, process stats,
the run record and the one-line result.

Everything here runs in the benchmark's own processes (the driver and
the server launcher); the program under test only ever receives the
graphs built by :func:`make_graph`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: run records, spools and temp files; inside the checkout, gitignored
OUT_DIR = os.path.join(ROOT, ".perfbench")


def use_checkout_paths() -> None:
    """Import the program from the checkout and keep temp files in it.

    ``TMPDIR`` is inherited by the server launcher and every process it
    starts (forkserver socket, router snapshot spool), so nothing is
    written outside the checkout.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


# -- sizes ----------------------------------------------------------------------


@dataclass(frozen=True)
class Size:
    """Workload parameters; ``full`` is the benchmark, ``tiny`` the self-test."""

    build_n: int          #: vertices per build graph (m = 3n - 1)
    build_diameter: int   #: D_T of the backbone build graph
    serve_n: int          #: vertices per served instance
    depth: int            #: pipelined point queries per chunk
    setups: int           #: server set-ups per run (setup_s is their median)
    warm_s: float         #: untimed warm-up storm before the window
    plan_len: int         #: distinct pre-drawn read queries (cycled)
    probe_stride: int     #: strided correctness probe over edge ids
    cycle_s: float        #: churn: one write cycle is due every cycle_s


SIZES = {
    "full": Size(build_n=32768, build_diameter=2048, serve_n=16384,
                 depth=128, setups=5, warm_s=1.5, plan_len=1 << 16,
                 probe_stride=97, cycle_s=3.0),
    "tiny": Size(build_n=512, build_diameter=64, serve_n=512, depth=32,
                 setups=1, warm_s=0.2, plan_len=2048, probe_stride=7,
                 cycle_s=0.5),
}


def make_graph(kind: str, n: int, seed: int, salt: int = 0,
               diameter: int = 0):
    """One seeded input graph whose flagged tree is the unique MST.

    ``kind`` is a tree shape of :mod:`repro.graph.generators`
    (``random``, ``power_law``) or ``backbone``, a tree of diameter
    ``diameter`` (the E1/E3 ``diameter_instance`` recipe); ``2n``
    non-tree edges are attached, so ``m = 3n - 1``.

    The topology (tree, D_T, non-tree endpoints) is fixed per ``kind``,
    ``n`` and ``salt``, because it sets the pipeline's round count: a
    round count that moved with the seed would read as noise. The seed
    draws every weight, so every answer changes with it.
    """
    import numpy as np
    from repro.graph.generators import (attach_nontree_edges, backbone_tree,
                                        tree_instance)
    from repro.graph.graph import WeightedGraph

    shape_rng = 101 * (salt + 1)
    tree = (backbone_tree(n, diameter, rng=shape_rng) if kind == "backbone"
            else tree_instance(kind, n, rng=shape_rng))
    rng = np.random.default_rng([seed, salt])
    g = attach_nontree_edges(tree, 2 * n, rng=shape_rng + 1, mode="mst",
                             tree_weights=rng.uniform(0.0, 1.0, size=n))
    # extra seeded slack keeps every non-tree edge above its path maximum
    w = g.w.copy()
    w[~g.tree_mask] += rng.uniform(0.0, 1.0, size=int((~g.tree_mask).sum()))
    return WeightedGraph(n=g.n, u=g.u, v=g.v, w=w, tree_mask=g.tree_mask)


# -- statistics -----------------------------------------------------------------


def pct(values, q: float) -> float:
    """Percentile ``q`` (0-100) of ``values`` by linear interpolation."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


# -- processes ------------------------------------------------------------------

_CLK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # comm may contain spaces; fields restart after the closing paren
    return raw[raw.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """utime + stime of a live process (all its threads)."""
    f = _stat_fields(pid)
    if f is None:
        return 0.0
    return (int(f[11]) + int(f[12])) / _CLK


def self_cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def process_tree(root_pid: int) -> List[int]:
    """``root_pid`` and every live descendant (forkserver children too)."""
    parent_of: Dict[int, int] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            f = _stat_fields(int(name))
            if f is not None:
                parent_of[int(name)] = int(f[1])
    out, frontier = [root_pid], [root_pid]
    while frontier:
        nxt = [p for p, pp in parent_of.items() if pp in frontier]
        out.extend(nxt)
        frontier = nxt
    return out


def peak_rss_kib(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def self_peak_rss_kib() -> int:
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class CpuWindow:
    """CPU share of named processes over one measured window."""

    def __init__(self, pids: Dict[str, int]):
        self.pids = pids
        self._t0 = time.perf_counter()
        self._c0 = {role: self._cpu(pid) for role, pid in pids.items()}

    @staticmethod
    def _cpu(pid: int) -> float:
        return self_cpu_seconds() if pid == os.getpid() else cpu_seconds(pid)

    def shares(self) -> Dict[str, float]:
        """CPU seconds per wall second since construction (1.0 = a core)."""
        wall = time.perf_counter() - self._t0
        return {role: (self._cpu(pid) - self._c0[role]) / wall
                for role, pid in self.pids.items()}


# -- run record -----------------------------------------------------------------


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the program's source files: identifies the code even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _host_id() -> str:
    try:
        with open("/etc/machine-id") as fh:
            return fh.read().strip()[:16] or socket.gethostname()
    except OSError:
        return socket.gethostname()


def run_record(workload: str, seed: int, seconds: int, trace: bool,
               size: str, params: Dict) -> Dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "params": params,
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "host": _host_id(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "unix_time": round(time.time(), 1),
    }


def append_record(record: Dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record, default=float) + "\n")


def latest_untraced(workload: str, src_sha256: str) -> Optional[Dict]:
    """The newest untraced record of ``workload`` for the same code."""
    path = os.path.join(OUT_DIR, "runs.jsonl")
    if not os.path.exists(path):
        return None
    found = None
    with open(path) as fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if (rec.get("workload") == workload and not rec.get("trace")
                    and rec.get("src_sha256") == src_sha256
                    and rec.get("size") == "full"):
                found = rec
    return found


# -- one run's outcome -----------------------------------------------------------


@dataclass
class Outcome:
    """What a workload measured, before it is printed."""

    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: CPU share of the driver while it generated load (serving only)
    driver_share: float = 0.0
    samples: Dict = field(default_factory=dict)
    params: Dict = field(default_factory=dict)
    #: trace accounting: per-layer time against one measured wall
    wall_label: str = ""
    wall_s: float = 0.0
    rows: List[Tuple[str, float]] = field(default_factory=list)
    #: True when ``rows`` are span self times that must account for
    #: ``wall_s`` (the 10% gate); False for the per-process CPU table
    gated: bool = False

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def bypass(self, *prefixes: str) -> None:
        """Set to 0 the declared per-layer metrics (by name prefix) of
        layers this workload does not pass through. Call before the
        measured layers are filled in; any declared metric that is neither
        measured nor bypassed fails the run."""
        for d in load_spec()["per_layer"]:
            if d["name"].startswith(prefixes):
                self.layers[d["name"]] = 0.0

    def waterfall(self, label: str, wall_s: float,
                  rows: List[Tuple[str, float]]) -> None:
        self.wall_label, self.wall_s, self.rows = label, wall_s, rows
        self.gated = True

    def cpu_table(self, seconds: float, shares: Dict[str, float]) -> None:
        """Where the box's core-seconds went, per process; what no
        process used is idle. Not a per-layer accounting."""
        cores = os.cpu_count() or 1
        self.wall_label = f"core-seconds ({cores} cores x {seconds:g} s window)"
        self.wall_s = cores * seconds
        self.rows = [(f"{role} cpu", share * seconds)
                     for role, share in sorted(shares.items())]
        self.gated = False

    @property
    def accounted_share(self) -> float:
        return sum(s for _, s in self.rows) / self.wall_s if self.wall_s else 0.0


# -- output ---------------------------------------------------------------------


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], declared: List[Dict]) -> str:
    """The final stdout line: every declared metric, with its unit.

    Raises ``KeyError`` naming any declared metric the workload did not
    measure, so a gap can never be printed as a result.
    """
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {d["name"]: {"value": float(values[d["name"]]),
                           "unit": d["unit"]} for d in declared}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def table(rows: List[List], headers: List[str]) -> str:
    cells = [headers] + [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
