"""A single-threaded closed-loop HTTP/1.1 load generator.

One generator thread drives ``connections`` keep-alive sockets.  Each
socket carries one outstanding request; its next request is sent only
after the response arrives (a closed loop with ``connections`` clients).
Latency is timed from just before the send to the last response byte.
Response bodies are kept and checked after the timed phase, so checking
costs nothing inside it.
"""

from __future__ import annotations

import gc
import json
import selectors
import socket
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass


@dataclass(slots=True)
class Op:
    """One request/response exchange of a closed-loop phase."""

    index: int
    expression: str
    e: int
    sent: float
    done: float = 0.0
    status: int = 0
    body: bytes = b""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


def request_bytes(op_id: str, expression: str, e: int, max_nodes: int | None) -> bytes:
    body = json.dumps(
        {"tenant": "cupid", "expression": expression, "e": e}, sort_keys=True
    ).encode()
    lines = [
        "POST /v1/complete HTTP/1.1",
        "Host: bench",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"X-Request-Id: {op_id}",
    ]
    if max_nodes is not None:
        lines.append(f"X-Max-Nodes: {max_nodes}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class _Conn:
    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.op: Op | None = None

    def parse(self) -> tuple[int, bytes] | None:
        """(status, body) once a whole response is buffered."""
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self.buf[:end]).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        if len(self.buf) < total:
            return None
        body = bytes(self.buf[end + 4 : total])
        del self.buf[:total]
        return int(head[0].split(" ")[1]), body


def closed_loop(
    address: tuple[str, int],
    connections: int,
    inputs: Iterator[tuple[str, int]],
    seconds: float,
    min_ops: int,
    max_nodes: int | None,
    op_prefix: str,
    on_send: Callable[[str], None] | None = None,
    on_done: Callable[[str, float, float], None] | None = None,
    pause_gc: bool = False,
) -> tuple[list[Op], float]:
    """Run the loop; returns (ops in send order, phase wall seconds).

    Sending stops once ``seconds`` have passed *and* ``min_ops`` ops
    were sent, so the deterministic prefix the exact-repeat counters
    read is always complete.  ``on_send``/``on_done`` let the traced run
    open and close each op's root span.  ``pause_gc`` keeps this
    process's garbage collector out of the timed phase; pass it only
    when the program under test runs in another process.
    """
    conns = [_Conn(address) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    ops: list[Op] = []
    if pause_gc:
        gc.disable()
    started = time.perf_counter()
    deadline = started + seconds

    def send(conn: _Conn) -> None:
        expression, e = next(inputs)
        op_id = f"{op_prefix}{len(ops)}"
        payload = request_bytes(op_id, expression, e, max_nodes)
        if on_send is not None:
            on_send(op_id)
        op = Op(len(ops), expression, e, time.perf_counter())
        ops.append(op)
        conn.op = op
        conn.sock.sendall(payload)

    try:
        for conn in conns:
            send(conn)
        busy = len(conns)
        while busy:
            events = selector.select(timeout=30)
            if not events:
                raise TimeoutError("no response within 30 s")
            for key, _ in events:
                conn = key.data
                chunk = conn.sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                conn.buf += chunk
                parsed = conn.parse()
                if parsed is None:
                    continue
                op = conn.op
                op.done = time.perf_counter()
                op.status, op.body = parsed
                if on_done is not None:
                    on_done(f"{op_prefix}{op.index}", op.sent, op.done)
                conn.op = None
                if op.done < deadline or len(ops) < min_ops:
                    send(conn)
                else:
                    busy -= 1
        elapsed = time.perf_counter() - started
    finally:
        if pause_gc:
            gc.enable()
        selector.close()
        for conn in conns:
            conn.sock.close()
    return ops, elapsed
