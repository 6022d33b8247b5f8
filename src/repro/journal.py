"""Crash-safe append-only JSONL files — the shared journal core.

Both durable ledgers in this repo — the serve tier's
:class:`~repro.serve.records.JobLogIndex` and the batch tier's
:class:`~repro.batch.journal.BatchJournal` — are append-only JSONL files
that must survive the writer being SIGKILLed mid-append.  This module
holds the machinery they share, extracted from ``serve/records.py``:

* **torn-tail healing** — a process killed mid-``write`` leaves a final
  half-line.  On open, the journal detects a newline-less tail and arms a
  truncate-to offset at the last complete line; the next successful
  append truncates first, so a half-line never becomes loud *interior*
  corruption.  Readers tolerate exactly one torn final line and raise on
  corruption anywhere else.
* **failed-append healing** — an append that raises (disk full, injected
  torn write) remembers the pre-write size and truncates back to it
  before the next append.
* **durability** — ``fsync=True`` flushes + ``os.fsync``s every append.
* **atomic rewrite** — compaction writes a temp file in the same
  directory, fsyncs, and ``os.replace``s it over the original, so a
  crash mid-rewrite leaves the old journal intact.
* **fault probes** — every append runs the ``disk-full`` and
  ``torn-write`` fault points with the caller's context, so both tiers'
  journals are chaos-testable through one code path.

The core is deliberately schema-free: it appends and returns *lines*.
Record semantics (last line per job wins, task outcome states) stay in
the owning tier.
"""

from __future__ import annotations

import os
import threading
from typing import Any, List, Optional, Tuple

from repro.errors import FaultError
from repro.faults.injector import fault_point


class JsonlJournal:
    """One append-only JSONL file with torn-tail healing (thread-safe)."""

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = bool(fsync)
        self._lock = threading.Lock()
        self.lines = self._count_lines()  # lines on disk (approximate floor)
        # truncate target after a torn write; seeded from disk so a torn
        # final line a killed process left behind is healed before this
        # process's first append instead of growing interior corruption
        self._heal_to: Optional[int] = self._detect_torn_tail()
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)

    def _count_lines(self) -> int:
        try:
            with open(self.path, "rb") as handle:
                return sum(1 for _ in handle)
        except OSError:
            return 0

    def _detect_torn_tail(self) -> Optional[int]:
        """Offset just past the last complete line, or ``None`` if clean."""
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        if not data or data.endswith(b"\n"):
            return None
        return data.rfind(b"\n") + 1  # 0 when the whole file is one half-line

    # -- writing -------------------------------------------------------------

    def append(self, line: str, **fault_context: Any) -> None:
        """Durably append one line (no trailing newline expected).

        With ``fsync`` on, the line is flushed and fsynced before this
        returns; otherwise durability is left to the OS page cache.
        ``fault_context`` feeds the ``disk-full``/``torn-write`` probes so
        injection is deterministic per record identity.
        """
        with self._lock:
            # probes: disk-full raises ENOSPC before any byte lands;
            # torn-write is cooperative — enacted below, mid-line
            fault_point("disk-full", **fault_context)
            torn = fault_point("torn-write", **fault_context)
            size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
            if self._heal_to is not None and self._heal_to < size:
                with open(self.path, "r+") as handle:
                    handle.truncate(self._heal_to)
                size = self._heal_to
            self._heal_to = None
            with open(self.path, "a") as handle:
                if torn is not None and torn.action == "torn":
                    handle.write(line[: max(1, len(line) // 2)])
                    handle.flush()
                    self._heal_to = size
                    raise FaultError(
                        "injected fault: journal append torn mid-line "
                        f"({self.path})"
                    )
                handle.write(line + "\n")
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            self.lines += 1

    def rewrite(self, lines: List[str]) -> None:
        """Atomically replace the journal's contents with ``lines``.

        Temp file in the same directory + fsync + ``os.replace`` — a
        crash mid-rewrite leaves the old journal intact.  Also clears any
        remembered torn tail (the rewrite heals it by construction).
        """
        with self._lock:
            tmp = f"{self.path}.rewrite.{os.getpid()}"
            with open(tmp, "w") as handle:
                for line in lines:
                    handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            self.lines = len(lines)
            self._heal_to = None

    # -- reading -------------------------------------------------------------

    def read(self) -> List[Tuple[int, bytes, bool]]:
        """Every non-empty line as ``(number, line, complete)``.

        ``line`` is the line's bytes, undecoded: a damaged byte is one
        corrupt line, so each caller decodes its lines inside the same
        ``ValueError`` handler that parses them (``UnicodeDecodeError`` is
        a ``ValueError``).  ``complete`` is ``False`` only for a
        newline-less final line — the torn tail a killed writer leaves;
        callers skip it silently and treat a decode or parse failure on any
        *complete* line as loud corruption.
        """
        with self._lock:
            return self._read_locked()

    def _read_locked(self) -> List[Tuple[int, bytes, bool]]:
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as handle:
            raw = handle.readlines()
        out: List[Tuple[int, bytes, bool]] = []
        for number, line in enumerate(raw, start=1):
            text = line.strip()
            if not text:
                continue
            complete = line.endswith(b"\n") or number != len(raw)
            out.append((number, text, complete))
        return out
