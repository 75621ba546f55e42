"""The durable job store: a persistent, schema-versioned sweep queue.

A sweep used to exist only as a Python list inside one process — kill
the process and the fact that points 0..N were in flight died with it.
The job store makes the sweep itself durable: every point is a *job* (the
:class:`~repro.parallel.spec.PointSpec`: function, arguments and label)
with a state machine

    pending -> running -> done
                      \\-> failed

persisted to an append-only JSONL log (``jobs.jsonl`` under the store
directory).  The log is written once per phase, not once per record:
``submit`` writes all its new ``job`` records in one ``write()``, the
runner marks all the points it served from the cache ``done`` in one
more, and each computed point logs its ``running`` and its ``done`` or
``failed`` as it happens.  No handle is held between calls.  A SIGKILL
in the middle of a batch leaves a torn tail, which replay skips, and
everything it loses can be rebuilt:

- a lost ``job`` record is submitted again by the resumed sweep, and
  submit is idempotent;
- a lost cached ``done`` record reads back as ``pending``, and the
  resumed sweep serves that point from the cache again;

so no point is computed twice and none is lost.  On reopen, jobs found
``running`` revert to ``pending`` (their worker died mid-point; they
are the *interrupted* set), jobs ``done`` stay done, and a resumed
sweep re-executes only what the result cache cannot serve.  The log is
compacted (snapshot rewrite via tmp-file + rename) once state churn
dominates, so a 10k-point sweep's log stays proportional to the job
count, not the attempt count.

Job ids are the cache keys (:func:`repro.parallel.cache.spec_key`), so
the job store and every cache backend agree on identity: a ``done``
job's value is the cache entry under its id.  The one datum a job
record does not hold, the code version its id was hashed under, is
logged once per run of the store, in a ``jobstore`` record next to the
first job that run appends — where ``spec_key`` has just computed it,
never at open.

``JobStore(None)`` is the in-memory degenerate case — same API, no
file — which is what a plain one-shot ``ParallelRunner.run`` uses.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.parallel.cache import atomic_write, code_version, spec_key
from repro.parallel.spec import PointSpec

__all__ = ["Job", "JobStore", "JOBS_FILE", "JOBS_SCHEMA_VERSION", "JOB_STATES"]

#: Bump when the log record format changes incompatibly.
JOBS_SCHEMA_VERSION = 1

JOBS_FILE = "jobs.jsonl"

JOB_STATES = ("pending", "running", "done", "failed")

#: Compact when the log holds more than this many records per job.
COMPACT_RECORDS_PER_JOB = 4

#: One log line's JSON (``json.dumps`` with these arguments, minus the
#: encoder it would build per call).
_encode = json.JSONEncoder(separators=(",", ":"), default=repr).encode


@dataclasses.dataclass
class Job:
    """One durable unit of sweep work and its current state."""

    job_id: str
    spec: PointSpec
    state: str = "pending"
    #: True when the finishing run served the value from the cache.
    cached: bool = False
    #: Wall seconds of the finishing computation (0.0 until done).
    wall_time: float = 0.0
    #: repr() of the exception for failed jobs ("" otherwise).
    error: str = ""
    #: Times this job entered ``running``.
    attempts: int = 0

    def spec_payload(self) -> Dict[str, Any]:
        return {
            "fn": self.spec.fn,
            "kwargs": self.spec.kwargs,
            "label": self.spec.label,
        }


class JobStore:
    """Append-only JSONL job queue with compaction and crash replay.

    Parameters
    ----------
    root:
        Store directory (created if missing); the log lives at
        ``root/jobs.jsonl``.  ``None`` keeps the store purely in
        memory — same API, nothing persisted.
    version:
        Code-version string for job ids (see
        :func:`repro.parallel.cache.spec_key`); defaults to the live
        package source hash so ids always match the cache keys the
        runner will look up.

    Single-writer by design: one orchestrating process appends; worker
    processes never touch the log (results travel through the cache).
    """

    def __init__(self, root: Optional[str], version: Optional[str] = None) -> None:
        self.root = Path(root) if root is not None else None
        self._log = None if root is None else os.path.join(root, JOBS_FILE)
        self.version = version
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        #: Jobs found mid-run on open (crashed sweep), reverted to pending.
        self.interrupted = 0
        self._log_records = 0
        #: The code version the log last recorded (None until one is).
        self._code: Optional[str] = None
        #: True once this run of the store has logged its code version.
        self._stamped = False
        #: True while the log ends in a torn line: the next write starts
        #: a fresh one, so the torn bytes never swallow a whole record.
        self._torn = False
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._replay()

    # -- persistence ----------------------------------------------------
    def _header(self, **fields: Any) -> Dict[str, Any]:
        return {"kind": "jobstore", "schema": JOBS_SCHEMA_VERSION,
                "t": time.time(), **fields}

    def _write(self, records: List[Dict[str, Any]]) -> None:
        """Append *records* to the log in one ``write()``."""
        if self._log is None or not records:
            return
        text = "".join([_encode(record) + "\n" for record in records])
        if self._torn:
            text = "\n" + text
            self._torn = False
        with open(self._log, "a", encoding="utf-8") as handle:
            handle.write(text)
        self._log_records += len(records)

    def _replay(self) -> None:
        """Rebuild state from the log; torn lines are ignored."""
        if not os.path.isfile(self._log):
            self._write([self._header()])
            return
        with open(self._log, encoding="utf-8") as handle:
            for line in handle:
                self._torn = not line.endswith("\n")
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail write from a killed process
                self._log_records += 1
                self._apply(record)
        # A job caught mid-run belonged to a process that is gone.
        for job in self.jobs.values():
            if job.state == "running":
                job.state = "pending"
                self.interrupted += 1

    def _apply(self, record: Dict[str, Any]) -> None:
        kind = record.get("kind")
        if kind == "jobstore":
            schema = record.get("schema", 0)
            if schema > JOBS_SCHEMA_VERSION:
                raise ValueError(
                    f"job store schema v{schema} is newer than supported "
                    f"v{JOBS_SCHEMA_VERSION}"
                )
            self._code = record.get("code", self._code)
            return
        if kind == "job":
            job_id = record.get("id")
            if not job_id or job_id in self.jobs:
                return
            payload = record.get("spec", {})
            spec = PointSpec(
                fn=payload.get("fn", ""),
                kwargs=payload.get("kwargs", {}) or {},
                label=payload.get("label", "") or "",
            )
            job = Job(
                job_id=job_id,
                spec=spec,
                state=record.get("state", "pending"),
                cached=bool(record.get("cached", False)),
                wall_time=float(record.get("wall", 0.0)),
                error=record.get("error", "") or "",
                attempts=int(record.get("attempts", 0)),
            )
            if job.state not in JOB_STATES:
                job.state = "pending"
            self.jobs[job_id] = job
            self._order.append(job_id)
            return
        if kind == "state":
            job = self.jobs.get(record.get("id", ""))
            if job is None:
                return
            state = record.get("state")
            if state not in JOB_STATES:
                return
            job.state = state
            if state == "running":
                job.attempts = int(record.get("attempt", job.attempts + 1))
                job.error = ""
            elif state == "done":
                job.wall_time = float(record.get("wall", 0.0))
                job.cached = bool(record.get("cached", False))
                job.error = ""
            elif state == "failed":
                job.error = record.get("error", "") or ""

    def compact(self) -> None:
        """Rewrite the log as one snapshot record per job (atomic)."""
        if self._log is None:
            return
        header = self._header(compacted=True)
        if self._code is not None:
            header["code"] = self._code
        lines = [_encode(header)]
        for job_id in self._order:
            job = self.jobs[job_id]
            lines.append(_encode({
                "kind": "job",
                "id": job.job_id,
                "spec": job.spec_payload(),
                "state": job.state,
                "cached": job.cached,
                "wall": job.wall_time,
                "error": job.error,
                "attempts": job.attempts,
                "t": header["t"],
            }))
        lines.append("")
        atomic_write(self._log, "\n".join(lines).encode("utf-8"))
        self._log_records = len(lines) - 1
        self._torn = False

    def maybe_compact(self) -> None:
        """Compact when state churn dominates the log."""
        if self.root is None or not self.jobs:
            return
        if self._log_records > COMPACT_RECORDS_PER_JOB * len(self.jobs) + 16:
            self.compact()

    # -- queue surface ---------------------------------------------------
    def submit(self, specs: List[PointSpec]) -> List[Job]:
        """Register *specs* as jobs (idempotent by id); returns one job
        per spec, in spec order — duplicates map to the same job.  The
        new jobs' records reach the log in one write."""
        out: List[Job] = []
        records: List[Dict[str, Any]] = []
        durable = self._log is not None
        now = time.time()
        for spec in specs:
            job_id = spec_key(spec, self.version)
            job = self.jobs.get(job_id)
            if job is None:
                job = Job(job_id=job_id, spec=spec)
                self.jobs[job_id] = job
                self._order.append(job_id)
                if durable:
                    if not self._stamped:
                        # spec_key has just hashed the sources (or was
                        # given a version); opening a store never does.
                        self._stamped = True
                        self._code = (self.version if self.version is not None
                                      else code_version())
                        records.append(self._header(code=self._code))
                    records.append({"kind": "job", "id": job_id,
                                    "spec": job.spec_payload(), "t": now})
            out.append(job)
        self._write(records)
        return out

    def mark_running(self, job_id: str, pid: int = 0) -> None:
        job = self.jobs[job_id]
        job.state = "running"
        job.attempts += 1
        job.error = ""
        self._write([{"kind": "state", "id": job_id, "state": "running",
                      "attempt": job.attempts, "pid": pid,
                      "t": time.time()}])

    def mark_done(self, job_id: str, wall_time: float = 0.0,
                  cached: bool = False) -> None:
        self.mark_all_done(((job_id, wall_time),), cached)

    def mark_all_done(self, finished: Iterable[Tuple[str, float]],
                      cached: bool = False) -> None:
        """Mark every ``(job_id, wall_time)`` of *finished* ``done``, in
        one write: what the runner does with the points the cache
        served."""
        records = []
        now = time.time()
        for job_id, wall_time in finished:
            job = self.jobs[job_id]
            job.state = "done"
            job.wall_time = wall_time
            job.cached = cached
            job.error = ""
            records.append({"kind": "state", "id": job_id, "state": "done",
                            "wall": wall_time, "cached": cached, "t": now})
        self._write(records)

    def mark_failed(self, job_id: str, error: str) -> None:
        job = self.jobs[job_id]
        job.state = "failed"
        job.error = error
        self._write([{"kind": "state", "id": job_id, "state": "failed",
                      "error": error, "t": time.time()}])

    # -- views -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        for job_id in self._order:
            yield self.jobs[job_id]

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def by_state(self, state: str) -> List[Job]:
        return [job for job in self if job.state == state]

    def pending(self) -> List[Job]:
        return self.by_state("pending")

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            out[job.state] += 1
        return out

    def summary(self) -> Dict[str, Any]:
        """Status payload (what ``taq-serve`` returns from /status)."""
        return {
            "schema": JOBS_SCHEMA_VERSION,
            "root": str(self.root) if self.root is not None else None,
            "total": len(self.jobs),
            "counts": self.counts(),
            "interrupted": self.interrupted,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.root) if self.root is not None else "memory"
        counts = ", ".join(f"{k}={v}" for k, v in self.counts().items() if v)
        return f"JobStore({where!r}, {len(self.jobs)} jobs{', ' + counts if counts else ''})"
