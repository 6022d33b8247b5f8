"""Seeded byte-mutation fuzz of the serve protocol's request frames.

A client may send any bytes.  A live :class:`ServiceServer` must answer
each request line with exactly one reply — ``{"ok": true, ...}`` or a typed
``{"ok": false, "kind": ...}`` payload — and keep the connection: a ``ping``
sent after the damaged line on the same connection is answered.  Each case
replaces one to three bytes of a clean ``ping`` / ``status`` / ``jobs`` /
``counts`` / ``cancel`` frame with a seeded draw from every byte value but
the newline that ends a frame, so many of the damaged lines are not UTF-8.
"""

import json
import random
import socket

import pytest

from repro.api import PreprocessJob
from repro.serve import PreprocessService, ServiceServer

MUTATIONS = 60  # per op
JOB = PreprocessJob(model="RM1", num_rows=64, num_shards=1)
PING = b'{"op": "ping"}\n'


@pytest.fixture()
def server(tmp_path):
    service = PreprocessService(
        spool_dir=str(tmp_path), num_workers=1,
        runner=lambda job, record_stage: "0" * 64,
    )
    server = ServiceServer(service, host="127.0.0.1", port=0).start()
    job_id = service.submit(JOB).job_id
    assert service.wait(job_id, timeout=30.0).state == "completed"
    yield server, job_id
    server.stop(drain=True, timeout=30.0)


def frames(job_id):
    return [
        json.dumps(request).encode()
        for request in (
            {"op": "ping"},
            {"op": "status", "job_id": job_id},
            {"op": "jobs", "state": "completed"},
            {"op": "counts"},
            {"op": "cancel", "job_id": job_id},
        )
    ]


def mutated(clean, rng):
    data = bytearray(clean)
    for _ in range(rng.randint(1, 3)):
        data[rng.randrange(len(data))] = rng.choice(
            [b for b in range(256) if b != ord("\n")]
        )
    return bytes(data)


def exchange(server, *lines):
    """Send ``lines`` on one connection; return one decoded reply each."""
    with socket.create_connection((server.host, server.port), timeout=10.0) as conn:
        conn.sendall(b"".join(line.rstrip(b"\n") + b"\n" for line in lines))
        reader = conn.makefile("rb")
        return [json.loads(reader.readline()) for _ in lines]


def assert_typed(reply):
    assert isinstance(reply, dict) and isinstance(reply.get("ok"), bool), reply
    if not reply["ok"]:
        assert isinstance(reply.get("kind"), str) and reply["kind"], reply


#: request lines that are not UTF-8, each a different decode failure
NOT_UTF8 = {
    "no lead byte": b"\xff\xfe",
    "lone continuation": b"\x80",
    "overlong slash": b"\xc0\xaf",
    "encoded surrogate": b"\xed\xa0\x80",
    "truncated sequence": b"\xe2\x82",
    "inside a string": b'{"op": "ping", "x": "\xff"}',
}


@pytest.mark.parametrize("line", NOT_UTF8.values(), ids=list(NOT_UTF8))
def test_a_line_that_is_not_utf8_is_a_typed_error_and_the_connection_lives(
        server, line):
    server, _ = server
    error, pong = exchange(server, line, PING)
    assert error["ok"] is False
    assert error["kind"] == "UnicodeDecodeError"
    assert pong["result"] == "pong"


OPS = ("ping", "status", "jobs", "counts", "cancel")


@pytest.mark.parametrize("op", OPS)
def test_every_damaged_frame_gets_one_typed_reply(server, op):
    server, job_id = server
    rng = random.Random(f"{op}-7")
    clean = frames(job_id)[OPS.index(op)]
    kinds = {}
    for _ in range(MUTATIONS):
        reply, pong = exchange(server, mutated(clean, rng), PING)
        assert_typed(reply)
        assert pong["result"] == "pong"
        kind = "ok" if reply["ok"] else reply["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
    # the damage reaches every layer: the decode, the JSON and the ops
    assert {"UnicodeDecodeError", "JSONDecodeError", "ProtocolError"} <= set(kinds)
