"""The durable job store: a persistent, schema-versioned sweep queue.

A sweep used to exist only as a Python list inside one process — kill
the process and the fact that points 0..N were in flight died with it.
The job store makes the sweep itself durable: every point is a *job* (the
:class:`~repro.parallel.spec.PointSpec`: function, arguments, label and
canonical scenario document) with a state machine

    pending -> running -> done
                      \\-> failed

persisted to an append-only JSONL log (``jobs.jsonl`` under the store
directory).  Appends are one ``write()`` of one line, so a SIGKILL at
any instant loses at most the final line — and the reader tolerates a
torn tail.  On reopen, jobs found ``running`` revert to ``pending``
(their worker died mid-point; they are the *interrupted* set), jobs
``done`` stay done, and a resumed sweep re-executes only what the
result cache cannot serve.  The log is compacted (snapshot rewrite via
tmp-file + rename) once state churn dominates, so a 10k-point sweep's
log stays proportional to the job count, not the attempt count.

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
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.parallel.cache import code_version, spec_key
from repro.parallel.spec import PointSpec

__all__ = ["Job", "JobStore", "JOBS_FILE", "JOBS_SCHEMA_VERSION", "JOB_STATES"]

#: Bump when the log record format changes incompatibly.
JOBS_SCHEMA_VERSION = 1

JOBS_FILE = "jobs.jsonl"

JOB_STATES = ("pending", "running", "done", "failed")

#: Compact when the log holds more than this many records per job.
COMPACT_RECORDS_PER_JOB = 4


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
            "scenario": self.spec.scenario,
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
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._replay()

    # -- persistence ----------------------------------------------------
    @property
    def log_path(self) -> Optional[Path]:
        return None if self.root is None else self.root / JOBS_FILE

    def _header(self, **fields: Any) -> Dict[str, Any]:
        return {"kind": "jobstore", "schema": JOBS_SCHEMA_VERSION,
                "t": time.time(), **fields}

    def _append(self, record: Dict[str, Any]) -> None:
        if self.root is None:
            return
        line = json.dumps(record, separators=(",", ":"), default=repr)
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self._log_records += 1

    def _replay(self) -> None:
        """Rebuild state from the log; torn tail lines are ignored."""
        path = self.log_path
        if path is None or not path.is_file():
            self._append(self._header())
            return
        with open(path, encoding="utf-8") as handle:
            for line in handle:
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
                scenario=payload.get("scenario"),
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
        if self.root is None:
            return
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        records = 1
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            header = self._header(compacted=True)
            if self._code is not None:
                header["code"] = self._code
            handle.write(json.dumps(header, separators=(",", ":")) + "\n")
            for job_id in self._order:
                job = self.jobs[job_id]
                record = {
                    "kind": "job",
                    "id": job.job_id,
                    "spec": job.spec_payload(),
                    "state": job.state,
                    "cached": job.cached,
                    "wall": job.wall_time,
                    "error": job.error,
                    "attempts": job.attempts,
                    "t": header["t"],
                }
                handle.write(
                    json.dumps(record, separators=(",", ":"), default=repr) + "\n"
                )
                records += 1
        os.replace(tmp, self.log_path)
        self._log_records = records

    def maybe_compact(self) -> None:
        """Compact when state churn dominates the log."""
        if self.root is None or not self.jobs:
            return
        if self._log_records > COMPACT_RECORDS_PER_JOB * len(self.jobs) + 16:
            self.compact()

    # -- queue surface ---------------------------------------------------
    def submit(self, specs: List[PointSpec]) -> List[Job]:
        """Register *specs* as jobs (idempotent by id); returns one job
        per spec, in spec order — duplicates map to the same job."""
        out: List[Job] = []
        for spec in specs:
            job_id = spec_key(spec, self.version)
            job = self.jobs.get(job_id)
            if job is None:
                if not self._stamped and self.root is not None:
                    # spec_key has just hashed the sources (or was given
                    # a version); opening a store never does.
                    self._stamped = True
                    self._code = (self.version if self.version is not None
                                  else code_version())
                    self._append(self._header(code=self._code))
                job = Job(job_id=job_id, spec=spec)
                self.jobs[job_id] = job
                self._order.append(job_id)
                self._append({
                    "kind": "job",
                    "id": job_id,
                    "spec": job.spec_payload(),
                    "t": time.time(),
                })
            out.append(job)
        return out

    def mark_running(self, job_id: str, pid: int = 0) -> None:
        job = self.jobs[job_id]
        job.state = "running"
        job.attempts += 1
        job.error = ""
        self._append({"kind": "state", "id": job_id, "state": "running",
                      "attempt": job.attempts, "pid": pid,
                      "t": time.time()})

    def mark_done(self, job_id: str, wall_time: float = 0.0,
                  cached: bool = False) -> None:
        job = self.jobs[job_id]
        job.state = "done"
        job.wall_time = wall_time
        job.cached = cached
        job.error = ""
        self._append({"kind": "state", "id": job_id, "state": "done",
                      "wall": wall_time, "cached": cached,
                      "t": time.time()})

    def mark_failed(self, job_id: str, error: str) -> None:
        job = self.jobs[job_id]
        job.state = "failed"
        job.error = error
        self._append({"kind": "state", "id": job_id, "state": "failed",
                      "error": error, "t": time.time()})

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
