"""A per-point JSONL progress bus for live sweep telemetry.

A sweep that fans out over a process pool is invisible while it runs:
the parent's progress line only moves when a point *finishes*.  The bus
makes the in-flight state observable.  When armed (``bus_dir`` on the
runner, or the ``TAQ_OBS_BUS`` environment variable), the parent writes
a sweep header, then one ``cached`` record naming every point the
result cache served with the wall time each one saved, and every
worker appends ``start`` / ``heartbeat`` / ``done`` events to the point
it computes, in that point's own append-only JSONL file:

    bus/
      _sweep.jsonl            {"kind": "sweep", "total": 40, ...}
                              {"kind": "cached", "points": {"p001-...": 9.8}}
      p000-taq-load-0.4.jsonl {"kind": "start", "pid": ...}
                              {"kind": "heartbeat", "elapsed": 5.0}
                              {"kind": "done", "wall": 12.3}
      p002-....jsonl          ...

:func:`read_bus` expands a ``cached`` record into one ``done`` event
(``cached: true``) per point, placed by its time among the point's own
events, so a bus whose hits each have a file of their own (as older
sweeps wrote them) reads the same.  One writing process per file and
whole-line appends keep the format safe without file locks: a point's
``start`` precedes its registration with the process's one beat
thread, and its ``done`` or ``failed`` follows its unregistration, so
the thread's beats never interleave with them or outlive them.
``taq-obs tail BUS_DIR`` follows the directory and renders a live
table; any other consumer can read the files with one ``json.loads``
per line.  The bus records progress only — results never pass through
it — so an armed sweep stays bit-identical to an unarmed one.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["ProgressBus", "point_key", "read_bus", "render_tail"]

SWEEP_KEY = "_sweep"
SWEEP_FILE = SWEEP_KEY + ".jsonl"

#: Seconds between worker heartbeats.
HEARTBEAT_INTERVAL = 5.0

#: The name of a bus's beat thread (one per bus, see :class:`ProgressBus`).
BEAT_THREAD = "taq-bus-beat"

#: A point with no beat for this many intervals renders as "stalled?".
STALL_INTERVALS = 3.0

_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")

#: One event's JSON (``json.dumps`` with these arguments, minus the
#: encoder it would build per call).
_encode = json.JSONEncoder(separators=(",", ":")).encode


def point_key(index: int, label: str) -> str:
    """Stable, filesystem-safe key for one sweep point."""
    slug = _UNSAFE.sub("-", label).strip("-")[:40] or "point"
    return f"p{index:03d}-{slug}"


class ProgressBus:
    """Append-only event writer rooted at one sweep's bus directory, and
    the one heartbeat thread that beats for every point it is running.

    A process keeps one bus per bus directory for as long as it runs
    points into it (a sweep on the calling thread, or a pool worker):
    per point it pays two appends and a registration, never a
    directory check or a thread.  The beat thread starts with the first
    registered point and writes one ``heartbeat`` per registered point
    per interval, under the lock registration takes, so once
    :meth:`unregister` returns no beat of that point can follow.  :meth:`post` is the best-effort write every per-point event
    goes through: the first ``OSError`` (disk full, bus directory
    removed) silences the bus for good, because the bus records
    progress only and must never fail the point it reports on.
    """

    def __init__(self, bus_dir: str) -> None:
        self.dir = Path(bus_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._prefix = os.path.join(bus_dir, "")
        #: False once a write failed; a silenced bus writes nothing more.
        self.writable = True
        self._lock = threading.Lock()
        #: Registered point key -> when its computation started.
        self._beating: Dict[str, float] = {}
        self._thread: Optional[threading.Thread] = None
        self._quit = threading.Event()
        self._interval = HEARTBEAT_INTERVAL

    def emit(self, key: str, kind: str, **fields: Any) -> None:
        payload = {"t": time.time(), "kind": kind, **fields}
        with open(f"{self._prefix}{key}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(_encode(payload) + "\n")

    def post(self, key: str, kind: str, **fields: Any) -> None:
        """:meth:`emit`, best-effort: never raises, and after the first
        failed write the bus stays silent."""
        if self.writable:
            try:
                self.emit(key, kind, **fields)
            except OSError:
                self.writable = False

    def announce(self, total: int, label: str) -> None:
        """Write the sweep header (total point count, sweep label)."""
        self.emit(SWEEP_KEY, "sweep", total=total, label=label)

    def announce_cached(self, walls: Dict[str, float]) -> None:
        """Record every point the result cache served, in one line:
        point key -> the wall time its original computation took."""
        if walls:
            self.emit(SWEEP_KEY, "cached", points=walls)

    # -- the beat thread -------------------------------------------------
    def register(self, key: str, interval: Optional[float] = None) -> None:
        """Beat for *key* from now on; the first registration starts the
        beat thread, every *interval* seconds (:data:`HEARTBEAT_INTERVAL`
        by default)."""
        with self._lock:
            self._beating[key] = time.time()
            if self._thread is None and self.writable:
                if interval is not None:
                    self._interval = interval
                # Each thread its own quit event: one that outlived its
                # join never beats beside its successor.
                self._quit = threading.Event()
                self._thread = threading.Thread(
                    target=self._beat, name=BEAT_THREAD, daemon=True,
                    args=(self._quit, self._interval))
                self._thread.start()

    def unregister(self, key: str) -> None:
        """Beat no more for *key*: when this returns, no beat of it is
        being written or will be."""
        with self._lock:
            self._beating.pop(key, None)

    def _beat(self, halt: threading.Event, interval: float) -> None:
        while not halt.wait(interval):
            with self._lock:
                now = time.time()
                for key, started in self._beating.items():
                    self.post(key, "heartbeat", elapsed=now - started)
                if not self.writable:
                    return  # bus gone (disk full, dir removed): beat no more

    def stop(self) -> bool:
        """Stop and join the beat thread (idempotent); True once none
        runs.  A later registration starts a new one."""
        thread = self._thread
        if thread is None:
            return True
        self._quit.set()
        thread.join(timeout=self._interval + 1.0)
        self._thread = None
        return not thread.is_alive()


class Heartbeat:
    """The context a worker computes one point in: the point's key is
    registered with its bus's beat thread on entry and unregistered on
    exit — on clean completion and on the crash path alike — so no
    heartbeat follows the point's ``done`` or ``failed``.
    :meth:`stop` is idempotent and safe from any path.
    """

    def __init__(self, bus: ProgressBus, key: str,
                 interval: Optional[float] = None) -> None:
        self.bus = bus
        self.key = key
        self.interval = interval

    @property
    def alive(self) -> bool:
        """True while the bus beats for this point."""
        thread = self.bus._thread
        return (self.key in self.bus._beating and thread is not None
                and thread.is_alive())

    def stop(self) -> bool:
        """Stop beating for this point (idempotent); True when stopped."""
        self.bus.unregister(self.key)
        return True

    def __enter__(self) -> "Heartbeat":
        self.bus.register(self.key, self.interval)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Reader side (taq-obs tail)
# ----------------------------------------------------------------------
def _read_events(path: Path) -> List[Dict[str, Any]]:
    events = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                continue  # torn tail write mid-append
    return events


def read_bus(bus_dir: str) -> Dict[str, Any]:
    """Parse a bus directory into a point-state snapshot."""
    import heapq  # the reader's alone: a sweep that writes never loads it

    root = Path(bus_dir)
    state: Dict[str, Any] = {"total": None, "label": None, "points": {}}
    if not root.is_dir():
        return state
    by_point: Dict[str, List[Dict[str, Any]]] = {}
    served: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(root.glob("*.jsonl")):
        events = _read_events(path)
        if path.name != SWEEP_FILE:
            by_point[path.stem] = events
            continue
        for event in events:
            kind = event.get("kind")
            if kind == "sweep":
                state["total"] = event.get("total")
                state["label"] = event.get("label")
            elif kind == "cached":
                for key, wall in (event.get("points") or {}).items():
                    served.setdefault(key, []).append(
                        {"t": event.get("t"), "kind": "done", "wall": wall,
                         "cached": True})
    for key in sorted(set(by_point) | set(served)):
        # Each source is in time order already; merging keeps it so.
        events = heapq.merge(by_point.get(key, []), served.get(key, []),
                             key=lambda event: event.get("t") or 0.0)
        state["points"][key] = _fold(events)
    return state


def _fold(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """One point's state after its events, in order."""
    point: Dict[str, Any] = {"status": "pending", "elapsed": 0.0,
                             "last_seen": None, "wall": None,
                             "cached": False, "error": None}
    for event in events:
        kind = event.get("kind")
        point["last_seen"] = event.get("t")
        if kind == "start":
            point["status"] = "running"
            point["started"] = event.get("t")
            point["pid"] = event.get("pid")
        elif kind == "heartbeat":
            point["elapsed"] = event.get("elapsed", point["elapsed"])
        elif kind == "done":
            point["status"] = "cached" if event.get("cached") else "done"
            point["wall"] = event.get("wall")
            point["cached"] = bool(event.get("cached"))
        elif kind == "failed":
            point["status"] = "failed"
            point["error"] = event.get("error")
    return point


def render_tail(state: Dict[str, Any], now: Optional[float] = None) -> str:
    """One live-progress frame for a bus snapshot."""
    now = time.time() if now is None else now
    points = state["points"]
    total = state["total"] if state["total"] is not None else len(points)
    finished = sum(1 for p in points.values() if p["status"] in ("done", "cached"))
    running = sum(1 for p in points.values() if p["status"] == "running")
    failed = sum(1 for p in points.values() if p["status"] == "failed")
    label = state["label"] or "sweep"
    head = f"{label}: {finished}/{total} done, {running} running"
    if failed:
        head += f", {failed} failed"
    lines = [head]
    for key, point in sorted(points.items()):
        status = point["status"]
        if status == "running":
            started = point.get("started")
            elapsed = now - started if started else point["elapsed"]
            detail = f"running {elapsed:6.1f}s"
            last = point["last_seen"]
            if last is not None and now - last > STALL_INTERVALS * HEARTBEAT_INTERVAL:
                detail += "  (stalled?)"
        elif status in ("done", "cached"):
            wall = point["wall"]
            spent = f" in {wall:.1f}s" if wall is not None else ""
            detail = f"{status}{spent}"
        elif status == "failed":
            error = point.get("error")
            detail = f"failed: {error}" if error else "failed"
        else:
            detail = status
        lines.append(f"  {key:<46} {detail}")
    return "\n".join(lines)
