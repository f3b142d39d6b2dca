"""Round and memory accounting for MPC runtime engines.

The complexity currency of the MPC model is the number of synchronous
communication rounds and the memory footprint (global ``g`` and
per-machine ``s``). Every runtime primitive charges rounds here, tagged
with the *phase* that is currently active, so experiments can report
both end-to-end and per-phase round counts (e.g. "substrate" vs "this
paper's contribution"; see DESIGN.md section 2.3).

Two charging modes are provided:

``unit``
    every communication primitive costs one round. This is the standard
    proxy used when MPC papers say "O(1) sorts and prefix sums per
    round"; it is what benchmarks report by default.
``theory``
    primitives are charged the round constants of their [GSZ11]
    realisations on an ``s = n^delta`` machine (a sort is ``O(1/delta)``
    rounds, etc.). Shapes are identical; constants differ.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["CostModel", "CostTracker", "CostReport", "CostDelta", "PRIMITIVES"]

#: Communication primitives the runtimes may charge.
PRIMITIVES = (
    "sort",
    "scan",
    "lookup",
    "predecessor",
    "reduce",
    "filter",
    "scalar",
    "broadcast",
    "route",
)


@dataclass(frozen=True)
class CostModel:
    """Maps a primitive invocation to a round charge."""

    mode: str = "unit"
    delta: float = 0.35

    def rounds_for(self, primitive: str) -> int:
        if primitive not in PRIMITIVES:
            raise ValueError(f"unknown primitive {primitive!r}")
        if self.mode == "unit":
            return 1
        if self.mode == "theory":
            # [GSZ11]: sorting N records on machines with s = N^delta local
            # words takes O(1/delta) rounds; scans/broadcasts use an
            # s-ary aggregation tree of depth ceil(1/delta).
            depth = max(1, math.ceil(1.0 / self.delta))
            per = {
                "sort": depth,
                "scan": depth,
                "lookup": depth + 2,  # co-sort + copy-down + route back
                "predecessor": depth + 2,
                "reduce": depth + 1,
                "filter": 1,
                "scalar": depth,
                "broadcast": depth,
                "route": 1,
            }
            return per[primitive]
        raise ValueError(f"unknown cost mode {self.mode!r}")


@dataclass
class CostReport:
    """Immutable summary of a tracked computation."""

    rounds_total: int
    rounds_by_phase: Dict[str, int]
    primitives_by_phase: Dict[str, Counter]
    peak_global_words: int
    peak_machine_words: int
    transport_rounds: int

    def rounds_in(self, prefix: str) -> int:
        """Total rounds charged to phases whose path starts with ``prefix``."""
        return sum(
            r
            for phase, r in self.rounds_by_phase.items()
            if phase == prefix or phase.startswith(prefix + "/")
        )

    # -- serialization (results persistence, batch workers) ----------------------

    def to_dict(self) -> Dict:
        """A JSON-able representation (see :meth:`from_dict`)."""
        return {
            "rounds_total": int(self.rounds_total),
            "rounds_by_phase": {k: int(v) for k, v in self.rounds_by_phase.items()},
            "primitives_by_phase": {
                phase: {p: int(c) for p, c in counts.items()}
                for phase, counts in self.primitives_by_phase.items()
            },
            "peak_global_words": int(self.peak_global_words),
            "peak_machine_words": int(self.peak_machine_words),
            "transport_rounds": int(self.transport_rounds),
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "CostReport":
        return cls(
            rounds_total=int(d["rounds_total"]),
            rounds_by_phase={k: int(v) for k, v in d["rounds_by_phase"].items()},
            primitives_by_phase={
                phase: Counter({p: int(c) for p, c in counts.items()})
                for phase, counts in d["primitives_by_phase"].items()
            },
            peak_global_words=int(d["peak_global_words"]),
            peak_machine_words=int(d["peak_machine_words"]),
            transport_rounds=int(d["transport_rounds"]),
        )

    def phases(self) -> List[str]:
        return list(self.rounds_by_phase)

    def as_rows(self) -> List[Tuple[str, int]]:
        return sorted(self.rounds_by_phase.items())

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"rounds={self.rounds_total} peak_words={self.peak_global_words}"]
        for phase, r in sorted(self.rounds_by_phase.items()):
            lines.append(f"  {phase}: {r}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CostDelta:
    """The rounds charged between two tracker marks (one pipeline stage).

    Stored alongside cached stage artifacts so that a warm-started run
    can *replay* the charge without re-executing the stage: warm and
    cold runs then produce bit-identical :class:`CostReport`\\ s. The
    peaks are the tracker's cumulative peaks at the *end* of the stage
    (replaying in stage order reproduces the running maximum exactly).
    """

    rounds_by_phase: Dict[str, int]
    primitives_by_phase: Dict[str, Dict[str, int]]
    transport_rounds: int
    peak_global_words: int
    peak_machine_words: int

    @property
    def rounds_total(self) -> int:
        return sum(self.rounds_by_phase.values())

    def to_dict(self) -> Dict:
        return {
            "rounds_by_phase": {k: int(v) for k, v in self.rounds_by_phase.items()},
            "primitives_by_phase": {
                phase: {p: int(c) for p, c in counts.items()}
                for phase, counts in self.primitives_by_phase.items()
            },
            "transport_rounds": int(self.transport_rounds),
            "peak_global_words": int(self.peak_global_words),
            "peak_machine_words": int(self.peak_machine_words),
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "CostDelta":
        return cls(
            rounds_by_phase={k: int(v) for k, v in d["rounds_by_phase"].items()},
            primitives_by_phase={
                phase: {p: int(c) for p, c in counts.items()}
                for phase, counts in d["primitives_by_phase"].items()
            },
            transport_rounds=int(d["transport_rounds"]),
            peak_global_words=int(d["peak_global_words"]),
            peak_machine_words=int(d["peak_machine_words"]),
        )


class CostTracker:
    """Mutable accumulator used by runtimes while an algorithm executes."""

    def __init__(self, model: CostModel | None = None):
        self.model = model or CostModel()
        self._rounds_total = 0
        self._rounds_by_phase: Dict[str, int] = {}
        self._prims_by_phase: Dict[str, Counter] = {}
        self._phase_stack: List[str] = []
        self._resident: Dict[str, int] = {}
        self._peak_global = 0
        self._peak_machine = 0
        self._transport_rounds = 0
        self._wall_by_primitive: Dict[str, float] = {}
        self._calls_by_primitive: Counter = Counter()

    # -- phases ---------------------------------------------------------------

    @property
    def current_phase(self) -> str:
        return "/".join(self._phase_stack) if self._phase_stack else "<root>"

    def push_phase(self, name: str) -> None:
        if "/" in name:
            raise ValueError("phase names must not contain '/'")
        self._phase_stack.append(name)

    def pop_phase(self, name: str) -> None:
        if not self._phase_stack or self._phase_stack[-1] != name:
            raise ValueError(f"phase stack corruption popping {name!r}")
        self._phase_stack.pop()

    # -- charging ---------------------------------------------------------------

    def charge(self, primitive: str, words_touched: int = 0) -> None:
        rounds = self.model.rounds_for(primitive)
        phase = self.current_phase
        self._rounds_total += rounds
        self._rounds_by_phase[phase] = self._rounds_by_phase.get(phase, 0) + rounds
        self._prims_by_phase.setdefault(phase, Counter())[primitive] += 1
        if words_touched:
            self.observe_global_words(words_touched)

    def charge_transport_round(self, count: int = 1) -> None:
        """Record actual message-exchange rounds (distributed engine only)."""
        self._transport_rounds += count

    # -- wall attribution (``python -m repro profile``) ---------------------------

    def record_wall(self, primitive: str, seconds: float) -> None:
        """Attribute measured wall time (one call) to a primitive."""
        self._wall_by_primitive[primitive] = (
            self._wall_by_primitive.get(primitive, 0.0) + seconds
        )
        self._calls_by_primitive[primitive] += 1

    def wall_profile(self) -> List[Tuple[str, int, float]]:
        """``(primitive, calls, wall_seconds)`` rows, slowest first.

        Deliberately *not* part of :class:`CostReport`: reports must stay
        bit-identical between cold and warm-started pipeline runs, and
        wall time is the one quantity that cannot be replayed.
        """
        return sorted(
            ((p, int(self._calls_by_primitive[p]), w)
             for p, w in self._wall_by_primitive.items()),
            key=lambda r: r[2], reverse=True,
        )

    # -- stage deltas (pipeline warm-start) --------------------------------------

    def mark(self) -> Dict:
        """Snapshot the charge state; pair with :meth:`delta_since`."""
        return {
            "rounds_by_phase": dict(self._rounds_by_phase),
            "prims_by_phase": {k: Counter(v) for k, v in self._prims_by_phase.items()},
            "transport_rounds": self._transport_rounds,
        }

    def delta_since(self, mark: Dict) -> CostDelta:
        """Everything charged since ``mark``, as a replayable delta."""
        before_r = mark["rounds_by_phase"]
        before_p = mark["prims_by_phase"]
        rounds = {
            phase: r - before_r.get(phase, 0)
            for phase, r in self._rounds_by_phase.items()
            if r - before_r.get(phase, 0)
        }
        prims = {}
        for phase, counts in self._prims_by_phase.items():
            diff = counts - before_p.get(phase, Counter())
            if diff:
                prims[phase] = dict(diff)
        return CostDelta(
            rounds_by_phase=rounds,
            primitives_by_phase=prims,
            transport_rounds=self._transport_rounds - mark["transport_rounds"],
            peak_global_words=self._peak_global,
            peak_machine_words=self._peak_machine,
        )

    def replay(self, delta: CostDelta) -> None:
        """Re-charge a recorded stage delta without executing the stage."""
        for phase, r in delta.rounds_by_phase.items():
            self._rounds_total += r
            self._rounds_by_phase[phase] = self._rounds_by_phase.get(phase, 0) + r
        for phase, counts in delta.primitives_by_phase.items():
            self._prims_by_phase.setdefault(phase, Counter()).update(counts)
        self._transport_rounds += delta.transport_rounds
        if delta.peak_global_words > self._peak_global:
            self._peak_global = delta.peak_global_words
        if delta.peak_machine_words > self._peak_machine:
            self._peak_machine = delta.peak_machine_words

    # -- memory -----------------------------------------------------------------

    def retain(self, key: str, words: int) -> None:
        """Register long-lived storage (counts toward global memory peaks)."""
        self._resident[key] = int(words)
        self.observe_global_words(0)

    def release(self, key: str) -> None:
        self._resident.pop(key, None)

    @property
    def resident_words(self) -> int:
        return sum(self._resident.values())

    def observe_global_words(self, transient_words: int) -> None:
        total = self.resident_words + int(transient_words)
        if total > self._peak_global:
            self._peak_global = total

    def observe_machine_words(self, words: int) -> None:
        if words > self._peak_machine:
            self._peak_machine = words

    # -- reporting ----------------------------------------------------------------

    @property
    def rounds_total(self) -> int:
        return self._rounds_total

    @property
    def peak_global_words(self) -> int:
        return self._peak_global

    def report(self) -> CostReport:
        return CostReport(
            rounds_total=self._rounds_total,
            rounds_by_phase=dict(self._rounds_by_phase),
            primitives_by_phase={k: Counter(v) for k, v in self._prims_by_phase.items()},
            peak_global_words=self._peak_global,
            peak_machine_words=self._peak_machine,
            transport_rounds=self._transport_rounds,
        )
