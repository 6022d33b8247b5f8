"""Line-oriented JSON protocol: attach, submit, stream, detach.

External processes talk to a running :class:`PreprocessService` over a
local TCP socket, one JSON object per line:

    -> {"op": "submit", "job": {"model": "RM1", "num_rows": 4096, ...}}
    <- {"ok": true, "result": {"job_id": "job-000001", "state": "queued", ...}}

    -> {"op": "watch", "job_id": "job-000001"}
    <- {"ok": true, "event": {... "state": "running", ...}}
    <- {"ok": true, "event": {... "state": "completed", ...}, "done": true}

Ops: ``ping``, ``submit`` (optional ``"wait": true`` blocks until
terminal), ``status``, ``jobs`` (optional ``"state"`` filter), ``cancel``,
``watch`` (streams a line per transition — the minibatch-ready
notification feed), ``counts``, and ``shutdown`` (optional ``"drain"``,
default true).  Failures come back as ``{"ok": false, "error": ...,
"kind": "<error class>"}`` and :class:`ServiceClient` re-raises the typed
:mod:`repro.errors` family, so backpressure (``QueueFullError``) is as
explicit across the wire as in process.

Every client request opens a fresh connection — attaching and detaching is
the protocol's default mode; the daemon's state lives in the service, not
the socket.  The server writes ``endpoint.json`` (host, port, pid) into the
spool directory so clients can discover a daemon by spool path alone.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
from typing import Any, Dict, Iterator, List, Optional

from repro import errors
from repro.errors import ProtocolError, ReproError, ServeError, is_int
from repro.faults.injector import fault_point
from repro.serve.records import JobRecord
from repro.serve.service import PreprocessService

#: protocol revision, negotiated nowhere — checked in ping for sanity
PROTOCOL_VERSION = 1

#: seconds a client waits to connect, and for the reply to an op that
#: does not block on a job
CLIENT_TIMEOUT_S = 30.0

ENDPOINT_FILENAME = "endpoint.json"


def _error_payload(exc: BaseException) -> Dict[str, Any]:
    return {"ok": False, "error": str(exc), "kind": type(exc).__name__}


def _raise_remote(payload: Dict[str, Any]) -> None:
    """Re-raise a server-side error as its typed local counterpart."""
    kind = payload.get("kind", "ServeError")
    message = payload.get("error", "remote error")
    exc_type = getattr(errors, kind, None)
    if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
        raise exc_type(message)
    if kind == "TimeoutError":
        raise TimeoutError(message)
    raise ServeError(f"{kind}: {message}")


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read request lines, answer (or stream) per line."""

    def handle(self) -> None:
        for raw in self.rfile:
            try:
                # a non-UTF-8 line is a UnicodeDecodeError, a ValueError
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                request = json.loads(line)
                if not isinstance(request, dict) or "op" not in request:
                    raise ProtocolError(
                        "requests must be JSON objects with an 'op' key"
                    )
                keep_going = self._dispatch(request)
            except (ValueError, ReproError, TimeoutError) as exc:
                keep_going = self._send(_error_payload(exc))
            except BrokenPipeError:
                return
            if not keep_going:
                return

    def _send(self, payload: Dict[str, Any]) -> bool:
        # fault point: the connection dies mid-reply — the client sees EOF
        # (or a half line) instead of an answer; service state is unaffected
        if fault_point("conn-drop") is not None:
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return False
        try:
            self.wfile.write((json.dumps(payload) + "\n").encode("utf-8"))
            self.wfile.flush()
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            return False  # client detached mid-stream: fine, stop sending

    def _dispatch(self, request: Dict[str, Any]) -> bool:
        server: "ServiceServer" = self.server  # type: ignore[assignment]
        service = server.service
        op = request["op"]
        if op == "ping":
            return self._send(
                {"ok": True, "result": "pong", "version": PROTOCOL_VERSION}
            )
        if op == "submit":
            if "job" not in request:
                raise ProtocolError("submit needs a 'job' object")
            record = service.submit(
                request["job"],
                source=request.get("source", "client"),
                timeout=request.get("timeout"),
            )
            if request.get("wait"):
                record = service.wait(
                    record.job_id, timeout=request.get("wait_timeout")
                )
            return self._send({"ok": True, "result": record.to_dict()})
        if op == "status":
            record = service.status(_job_id(request))
            return self._send({"ok": True, "result": record.to_dict()})
        if op == "jobs":
            records = service.jobs(state=request.get("state"))
            return self._send(
                {"ok": True, "result": [r.to_dict() for r in records]}
            )
        if op == "counts":
            return self._send({"ok": True, "result": service.counts()})
        if op == "cancel":
            cancelled = service.cancel(_job_id(request))
            return self._send({"ok": True, "result": {"cancelled": cancelled}})
        if op == "watch":
            for record in service.watch(
                _job_id(request), timeout=request.get("timeout")
            ):
                payload: Dict[str, Any] = {"ok": True, "event": record.to_dict()}
                if record.is_terminal:
                    payload["done"] = True
                if not self._send(payload):
                    return False  # client detached; daemon keeps running
            return True
        if op == "shutdown":
            drain = request.get("drain", True)
            self._send({"ok": True, "result": {"draining": bool(drain)}})
            server.request_shutdown(drain=drain)
            return False
        raise ProtocolError(f"unknown op {request['op']!r}")


def _job_id(request: Dict[str, Any]) -> str:
    job_id = request.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise ProtocolError(f"{request['op']} needs a 'job_id' string")
    return job_id


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ServiceServer:
    """Serve one :class:`PreprocessService` on a local TCP endpoint."""

    def __init__(
        self,
        service: PreprocessService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._server = _TcpServer((host, port), _Handler)
        self._server.service = service  # type: ignore[attr-defined]
        self._server.request_shutdown = self.request_shutdown  # type: ignore[attr-defined]
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._shutdown_drain: Optional[bool] = None
        self._done = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServiceServer":
        """Start the service and accept connections on a daemon thread."""
        self.service.start()
        self._write_endpoint()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serve-acceptor",
            daemon=True,
        )
        self._thread.start()
        return self

    def request_shutdown(self, drain: bool = True) -> None:
        """Initiate shutdown from a handler thread (returns immediately)."""
        self._shutdown_drain = drain
        threading.Thread(target=self.stop, kwargs={"drain": drain},
                         name="serve-shutdown", daemon=True).start()

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting, stop the service (drain or cancel), clean up."""
        if self._done.is_set():
            return
        self._server.shutdown()
        self._server.server_close()
        self.service.stop(drain=drain, timeout=timeout)
        self._remove_endpoint()
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until a shutdown request has fully completed."""
        return self._done.wait(timeout)

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- endpoint discovery --------------------------------------------------

    @property
    def endpoint_path(self) -> Optional[str]:
        if self.service.spool_dir is None:
            return None
        return os.path.join(self.service.spool_dir, ENDPOINT_FILENAME)

    def _write_endpoint(self) -> None:
        if self.endpoint_path is None:
            return
        payload = {"host": self.host, "port": self.port, "pid": os.getpid(),
                   "version": PROTOCOL_VERSION}
        # atomic publish: a client racing the daemon's startup (or a crash
        # mid-write) must see either no endpoint or a complete one — never
        # a half-written JSON object
        tmp = f"{self.endpoint_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.endpoint_path)

    def _remove_endpoint(self) -> None:
        if self.endpoint_path is not None:
            try:
                os.remove(self.endpoint_path)
            except OSError:
                pass


def read_endpoint(spool_dir: str) -> Dict[str, Any]:
    """Read a daemon's ``endpoint.json`` from its spool directory.

    A SIGKILLed daemon never removes its endpoint file, so the recorded pid
    is checked: if that process no longer exists the endpoint is *stale*
    and a clear "daemon died" error is raised instead of letting the caller
    time out against a dead port.
    """
    path = os.path.join(spool_dir, ENDPOINT_FILENAME)
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise ServeError(
            f"no daemon endpoint at {path} — is `repro serve` running "
            "with this spool?"
        )
    except ValueError as exc:
        raise ServeError(f"corrupt endpoint file {path}: {exc}")
    if "host" not in payload or "port" not in payload:
        raise ServeError(f"endpoint file {path} lacks host/port")
    pid = payload.get("pid")
    if is_int(pid) and not _pid_alive(pid):
        raise ServeError(
            f"stale endpoint {path}: daemon pid {pid} died without "
            "cleaning up — restart `repro serve` on this spool to "
            "recover its interrupted jobs"
        )
    return payload


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal 0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # can't tell: don't invent staleness
    return True


class ServiceClient:
    """Attach-per-request client for the serve protocol."""

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        spool_dir: Optional[str] = None,
    ) -> None:
        if host is None or port is None:
            if spool_dir is None:
                raise ServeError(
                    "client needs host+port or a spool_dir with endpoint.json"
                )
            endpoint = read_endpoint(spool_dir)
            host = host or endpoint["host"]
            port = port or int(endpoint["port"])
        self.host = host
        self.port = port

    # -- plumbing ------------------------------------------------------------

    def _connect(self, timeout: Optional[float]) -> socket.socket:
        """A connection whose socket ops give up after ``timeout`` seconds;
        ``None`` blocks, as a wait with no deadline must."""
        try:
            return socket.create_connection((self.host, self.port), timeout=timeout)
        except OSError as exc:
            raise ServeError(
                f"cannot reach daemon at {self.host}:{self.port}: {exc}"
            )

    def _roundtrip(self, request: Dict[str, Any]) -> Dict[str, Any]:
        # blocking ops (submit --wait) outlive the default socket timeout:
        # wait as long as the caller asked, or indefinitely if unbounded
        socket_timeout: Optional[float] = CLIENT_TIMEOUT_S
        if request.get("wait") or request["op"] == "watch":
            wait_timeout = request.get("wait_timeout", request.get("timeout"))
            socket_timeout = (
                None if wait_timeout is None else float(wait_timeout) + 10.0
            )
        with self._connect(timeout=socket_timeout) as conn:
            conn.sendall((json.dumps(request) + "\n").encode("utf-8"))
            reader = conn.makefile("r", encoding="utf-8")
            line = reader.readline()
        if not line:
            raise ProtocolError("daemon closed the connection without replying")
        payload = json.loads(line)
        if not payload.get("ok"):
            _raise_remote(payload)
        return payload

    # -- the client surface --------------------------------------------------

    def ping(self) -> bool:
        return self._roundtrip({"op": "ping"})["result"] == "pong"

    def submit(
        self,
        job,
        source: str = "client",
        wait: bool = False,
        wait_timeout: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> JobRecord:
        job_dict = job.to_dict() if hasattr(job, "to_dict") else dict(job)
        request: Dict[str, Any] = {
            "op": "submit", "job": job_dict, "source": source,
        }
        if wait:
            request["wait"] = True
            if wait_timeout is not None:
                request["wait_timeout"] = wait_timeout
        if timeout is not None:
            request["timeout"] = timeout
        return JobRecord.from_dict(self._roundtrip(request)["result"])

    def status(self, job_id: str) -> JobRecord:
        payload = self._roundtrip({"op": "status", "job_id": job_id})
        return JobRecord.from_dict(payload["result"])

    def jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        request: Dict[str, Any] = {"op": "jobs"}
        if state is not None:
            request["state"] = state
        payload = self._roundtrip(request)
        return [JobRecord.from_dict(r) for r in payload["result"]]

    def counts(self) -> Dict[str, int]:
        return self._roundtrip({"op": "counts"})["result"]

    def cancel(self, job_id: str) -> bool:
        payload = self._roundtrip({"op": "cancel", "job_id": job_id})
        return bool(payload["result"]["cancelled"])

    def watch(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Iterator[JobRecord]:
        """Stream record snapshots until the job is terminal."""
        request: Dict[str, Any] = {"op": "watch", "job_id": job_id}
        if timeout is not None:
            request["timeout"] = timeout
        socket_timeout = None if timeout is None else float(timeout) + 10.0
        with self._connect(timeout=socket_timeout) as conn:
            conn.sendall((json.dumps(request) + "\n").encode("utf-8"))
            reader = conn.makefile("r", encoding="utf-8")
            for line in reader:
                payload = json.loads(line)
                if not payload.get("ok"):
                    _raise_remote(payload)
                yield JobRecord.from_dict(payload["event"])
                if payload.get("done"):
                    return
        raise ProtocolError("watch stream ended before the job was terminal")

    def shutdown(self, drain: bool = True) -> bool:
        payload = self._roundtrip({"op": "shutdown", "drain": drain})
        return bool(payload["result"]["draining"]) == drain
