"""The job service: worker pool, shared warm state, crash recovery.

:class:`SynthesisService` is the in-process core of ``repro serve`` —
the HTTP front end is a thin shell over it, and tests drive it
directly.  It owns:

- a :class:`~repro.server.jobs.FairJobQueue` drained by a pool of
  worker threads (the MILP solves release the GIL inside HiGHS, and
  each entry point can itself fan out through the batch runner);
- one warm :class:`~repro.runtime.cache.EncodeCache` shared by every
  job, so repeated problems skip the path-loss/Yen encode work;
- a :class:`~repro.server.hub.ProgressHub` attached to the process
  tracer, giving every job a streamable record log;
- per-job persistence in ``state_dir`` through the
  :mod:`repro.resilience.checkpoint` format: a *state* file recording
  the request and every lifecycle transition, plus (for kstar/pareto)
  a *sweep* file the entry point itself checkpoints into.  A process
  that dies mid-job leaves a state file whose last record is not
  terminal; :meth:`recover` re-enqueues exactly those jobs with
  ``resume=True``, so completed rungs/points replay instead of
  re-solving.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from pathlib import Path

from repro.core.api import JobRequest, JobResult, result_to_dict
from repro.core.results import SynthesisResult
from repro.network.topology import Architecture
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointError,
    read_checkpoint,
)
from repro.runtime.cache import EncodeCache
from repro.server.hub import ProgressHub
from repro.server.jobs import FairJobQueue, Job, JobState
from repro.telemetry.metrics import counter, gauge
from repro.telemetry.trace import add_sink, remove_sink, span

#: Job-state checkpoint files: ``job-<id>.state.jsonl`` next to the
#: sweep files ``job-<id>.sweep.jsonl`` the entry points write.
_STATE_SUFFIX = ".state.jsonl"
_SWEEP_SUFFIX = ".sweep.jsonl"

#: How many completed jobs' architectures stay addressable as a
#: scenario job's ``base`` (warm start for what-if re-solves).
_ARCHITECTURE_CAP = 32


class SynthesisService:
    """Accept jobs, run them fairly, survive being killed."""

    def __init__(
        self,
        *,
        state_dir: str | Path | None = None,
        workers: int = 2,
        cache: EncodeCache | None = None,
        recover: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.cache = cache if cache is not None else EncodeCache()
        self.hub = ProgressHub()
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self.queue = FairJobQueue()
        self._jobs: dict[str, Job] = {}
        self._checkpoints: dict[str, Checkpoint] = {}
        #: job id -> result architecture, LRU-bounded.  In-memory only:
        #: a recovered process re-solves rather than warm-starting.
        self._architectures: OrderedDict[str, Architecture] = OrderedDict()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        add_sink(self.hub)
        #: Jobs re-enqueued from a prior process's state dir at startup.
        self.recovered: list[Job] = []
        if recover and self.state_dir is not None:
            self.recovered = self.recover()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission and inspection -------------------------------------

    def submit(
        self, request: JobRequest | dict, *, job_id: str | None = None
    ) -> Job:
        """Queue one job; returns immediately with its handle."""
        if isinstance(request, dict):
            request = JobRequest.from_dict(request)
        if self._stop.is_set():
            raise RuntimeError("service is shutting down")
        job = Job(id=job_id or uuid.uuid4().hex[:12], request=request)
        with self._lock:
            if job.id in self._jobs:
                raise ValueError(f"job id {job.id!r} already exists")
            self._jobs[job.id] = job
        self.hub.open_job(job.id)
        self._persist_new(job)
        counter("server.jobs_submitted").inc()
        gauge("server.queue_depth").set(float(len(self.queue)))
        self.queue.push(job)
        return job

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def architecture(self, job_id: str) -> Architecture | None:
        """The result architecture of a completed job, if still held."""
        with self._lock:
            arch = self._architectures.get(job_id)
            if arch is not None:
                self._architectures.move_to_end(job_id)
            return arch

    def _store_architecture(self, job_id: str, arch: Architecture) -> None:
        with self._lock:
            self._architectures[job_id] = arch
            self._architectures.move_to_end(job_id)
            while len(self._architectures) > _ARCHITECTURE_CAP:
                self._architectures.popitem(last=False)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state."""
        job = self.job(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if not job.finished.wait(timeout):
            raise TimeoutError(f"job {job_id!r} still {job.state.value}")
        return job

    def shutdown(self, *, timeout: float = 30.0) -> None:
        """Stop accepting jobs, let running ones finish, detach."""
        self._stop.set()
        self.queue.close()
        for worker in self._workers:
            worker.join(timeout)
        remove_sink(self.hub)

    # -- crash recovery ------------------------------------------------

    def recover(self) -> list[Job]:
        """Re-register every persisted job; re-enqueue unfinished ones.

        Jobs whose last recorded transition is terminal come back as
        completed history (result payload included); anything else was
        in flight when the previous process died and is resubmitted
        with ``resume=True`` so its sweep checkpoint replays.
        """
        if self.state_dir is None:
            return []
        recovered: list[Job] = []
        for path in sorted(self.state_dir.glob(f"job-*{_STATE_SUFFIX}")):
            try:
                kind, meta, records = read_checkpoint(path)
            except CheckpointError:
                continue  # unreadable state is skipped, never fatal
            if kind != "job" or "request" not in meta:
                continue
            job_id = str(meta.get("job_id", ""))
            if not job_id:
                continue
            with self._lock:
                if job_id in self._jobs:
                    continue
            try:
                request = JobRequest.from_dict(meta["request"])
            except (TypeError, ValueError):
                continue
            job = Job(id=job_id, request=request)
            last = records[-1] if records else {}
            state = last.get("state")
            ckpt = Checkpoint(path, "job", meta)
            ckpt.load()
            with self._lock:
                self._jobs[job_id] = job
                self._checkpoints[job_id] = ckpt
            if state in (JobState.DONE.value, JobState.FAILED.value):
                job.state = JobState(state)
                if "result" in last:
                    job.result = JobResult.from_dict(last["result"])
                job.finished.set()
                continue
            # In flight (queued/running) when the last process died.
            job.resumed = True
            self.hub.open_job(job.id)
            counter("server.jobs_recovered").inc()
            self.queue.push(job)
            recovered.append(job)
        return recovered

    # -- worker side ---------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.pop(timeout=0.2)
            if job is None:
                if self._stop.is_set():
                    return
                continue
            try:
                self._run_job(job)
            finally:
                gauge("server.queue_depth").set(float(len(self.queue)))

    def _run_job(self, job: Job) -> None:
        started = time.monotonic()
        try:
            with span(
                "server.job",
                job_id=job.id,
                kind=job.request.kind,
                tenant=job.tenant,
                resumed=job.resumed,
            ) as job_span:
                # Bind before any child span fires so the job's stream
                # is complete from the first record.
                self.hub.bind(job.id, job_span.trace_id)
                self._transition(job, JobState.RUNNING)
                previous = None
                base = job.request.problem.get("base")
                if job.request.kind == "scenario" and base:
                    # Missing base (evicted, or a recovered process that
                    # no longer holds it) degrades to a cold-start solve;
                    # the warm start is an optimization, not semantics.
                    previous = self.architecture(str(base))
                    job_span.set_attribute(
                        "warm_start", previous is not None
                    )
                try:
                    result = job.request.run(
                        cache=self.cache,
                        checkpoint=self._sweep_path(job),
                        resume=job.resumed,
                        previous=previous,
                    )
                except Exception as exc:  # noqa: BLE001 - job boundary
                    job.result = JobResult.failure(
                        job.request.kind, f"{type(exc).__name__}: {exc}",
                        seconds=time.monotonic() - started,
                    )
                    job_span.set_attribute("outcome", "failed")
                else:
                    if (
                        isinstance(result, SynthesisResult)
                        and result.architecture is not None
                    ):
                        self._store_architecture(job.id, result.architecture)
                    job.result = JobResult(
                        kind=job.request.kind, ok=True,
                        result=result_to_dict(result),
                        seconds=time.monotonic() - started,
                    )
                    job_span.set_attribute("outcome", "done")
        finally:
            # The root span record was just emitted (span closed above):
            # seal the stream, then persist the terminal transition.
            self.hub.close_job(job.id)
            state = (
                JobState.DONE if job.result is not None and job.result.ok
                else JobState.FAILED
            )
            self._transition(job, state, result=job.result)
            counter(
                "server.jobs_completed" if state is JobState.DONE
                else "server.jobs_failed"
            ).inc()
            job.finished.set()

    # -- persistence ---------------------------------------------------

    def _sweep_path(self, job: Job) -> str | None:
        """Where the job's own sweep checkpoints (kstar/pareto rungs)."""
        if self.state_dir is None or not job.request.resumable:
            return None
        return str(self.state_dir / f"job-{job.id}{_SWEEP_SUFFIX}")

    def _persist_new(self, job: Job) -> None:
        if self.state_dir is None:
            return
        path = self.state_dir / f"job-{job.id}{_STATE_SUFFIX}"
        ckpt = Checkpoint(
            path, "job",
            {"job_id": job.id, "request": job.request.to_dict()},
        )
        ckpt.append({"state": JobState.QUEUED.value})
        with self._lock:
            self._checkpoints[job.id] = ckpt

    def _transition(
        self, job: Job, state: JobState, *, result: JobResult | None = None
    ) -> None:
        job.state = state
        with self._lock:
            ckpt = self._checkpoints.get(job.id)
        if ckpt is None:
            return
        record: dict = {"state": state.value}
        if result is not None:
            record["result"] = result.to_dict()
        ckpt.append(record)
