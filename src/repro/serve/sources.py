"""Job sources and the source watcher — continuous ingestion for the daemon.

A *source* turns the outside world into :class:`~repro.api.PreprocessJob`s:
a watched spool directory where producers drop job-spec JSON files, a
synthetic generator standing in for live inference traffic, or any user
subclass of :class:`JobSource`.  The :class:`SourceWatcher` polls every
attached source on a fixed cadence and submits what it finds — but only up
to the queue's free capacity, so ingestion cooperates with backpressure
instead of blocking the poll loop or flooding the pool.

``repro serve --watch`` / ``--synthetic`` construct the two built-ins
directly; any other source plugs into a running service as an instance,
without touching the daemon::

    class MyQueueSource(JobSource):
        def take(self, limit): ...

    service.attach_source(MyQueueSource())
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import threading
from typing import Callable, Dict, List, Optional

from repro.api.preprocess import PreprocessJob
from repro.errors import ConfigurationError, QueueClosedError, ReproError, is_int
from repro.serve.records import JobRecord


def servable(job: PreprocessJob) -> PreprocessJob:
    """``job``, or a :class:`ConfigurationError` if it sets ``processes``:
    the service runs each job inline on one pool worker, so a process
    count would never take effect."""
    if job.processes is not None:
        raise ConfigurationError(
            f"the service runs each job on one worker; refusing "
            f"processes={job.processes!r}"
        )
    return job


class JobSource:
    """One stream of incoming preprocessing jobs.

    Subclasses implement :meth:`take`, returning at most ``limit`` new jobs
    per call; the watcher calls it with the queue's current free capacity,
    so a source never has to handle rejection — work it holds back is simply
    picked up on a later poll.  A job the service refuses (one that sets
    ``processes``) is skipped and audited in ``SourceWatcher.refused``.
    """

    #: label recorded on every JobRecord this source submits
    name: str = "source"

    def take(self, limit: int) -> List[PreprocessJob]:
        raise NotImplementedError


class DirectoryJobSource(JobSource):
    """Watch a directory for dropped job-spec JSON files.

    Producers attach by writing ``PreprocessJob.to_dict()`` JSON as
    ``*.json`` files into the directory; each file becomes exactly one job
    (files are remembered by name, oldest name first, and never re-read).
    A file that does not parse as a job the service can run (one that sets
    ``processes`` included) is remembered as rejected — loudly
    listed in :attr:`rejected`, never retried, never crashing the watcher.
    """

    def __init__(self, path: str) -> None:
        if not path:
            raise ConfigurationError("directory source needs a path")
        self.path = path
        self.name = f"watch:{path}"
        self._seen: set = set()
        #: filename -> error for files that were not valid job specs
        self.rejected: Dict[str, str] = {}
        os.makedirs(path, exist_ok=True)

    def take(self, limit: int) -> List[PreprocessJob]:
        jobs: List[PreprocessJob] = []
        for filename in sorted(glob.glob(os.path.join(self.path, "*.json"))):
            if len(jobs) >= limit:
                break
            if filename in self._seen:
                continue
            self._seen.add(filename)
            try:
                with open(filename) as handle:
                    payload = json.load(handle)
                jobs.append(servable(PreprocessJob.from_dict(payload)))
            except (ValueError, OSError, ReproError) as exc:
                self.rejected[filename] = str(exc)
        return jobs


class SyntheticJobSource(JobSource):
    """Emit ``count`` synthetic-table jobs, one seed per job.

    The stand-in for continuous inference traffic: every emitted job asks
    for the same model/rows/shards shape but a distinct ``seed``, so the
    daemon preprocesses a stream of distinct tables.
    """

    def __init__(
        self,
        model: str = "RM1",
        num_rows: int = 8192,
        num_shards: int = 1,
        count: int = 1,
        seed: int = 0,
    ) -> None:
        if not is_int(count) or count <= 0:
            raise ConfigurationError(
                f"synthetic source count must be a positive int, got {count!r}"
            )
        # validate the shape eagerly — a bad spec should fail at attach time
        self._template = PreprocessJob(
            model=model, num_rows=num_rows, num_shards=num_shards, seed=seed
        )
        self.count = count
        self.emitted = 0
        self.name = f"synthetic:{self._template.model}"

    def take(self, limit: int) -> List[PreprocessJob]:
        jobs = []
        while self.emitted < self.count and len(jobs) < limit:
            jobs.append(
                dataclasses.replace(
                    self._template, seed=self._template.seed + self.emitted
                )
            )
            self.emitted += 1
        return jobs

    @property
    def exhausted(self) -> bool:
        return self.emitted >= self.count


# --------------------------------------------------------------------------
# the watcher
# --------------------------------------------------------------------------


class SourceWatcher:
    """Poll attached sources and feed the service, capacity-aware.

    Each tick asks the queue how many slots are free and offers exactly
    that many to the sources (round-robin, attachment order) — cooperative
    backpressure: a full queue simply pauses ingestion until workers catch
    up.  Sources can be attached and detached while the watcher runs.
    """

    def __init__(
        self,
        submit: Callable[[PreprocessJob, str], JobRecord],
        free_slots: Callable[[], int],
        poll_interval: float = 0.2,
    ) -> None:
        if poll_interval <= 0:
            raise ConfigurationError("poll_interval must be positive")
        self._submit = submit
        self._free_slots = free_slots
        self.poll_interval = poll_interval
        self._sources: List[JobSource] = []
        #: (source name, error) per job the service refused; the rest go on
        self.refused: List[tuple] = []
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    def attach(self, source: JobSource) -> None:
        with self._lock:
            self._sources.append(source)
        self._wake.set()

    def detach(self, source: JobSource) -> None:
        with self._lock:
            self._sources.remove(source)

    def sources(self) -> List[JobSource]:
        with self._lock:
            return list(self._sources)

    def poll_once(self) -> int:
        """One tick: offer free queue slots to each source; submitted count."""
        submitted = 0
        for source in self.sources():
            free = self._free_slots()
            if free <= 0:
                break
            for job in source.take(free):
                try:
                    self._submit(job, source.name)
                    submitted += 1
                except QueueClosedError:
                    return submitted
                except ConfigurationError as exc:
                    self.refused.append((source.name, str(exc)))
        return submitted

    # -- background loop -----------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stopped = False
        self._thread = threading.Thread(
            target=self._loop, name="serve-watcher", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = None) -> None:
        self._stopped = True
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _loop(self) -> None:
        while not self._stopped:
            self.poll_once()
            self._wake.wait(self.poll_interval)
            self._wake.clear()
