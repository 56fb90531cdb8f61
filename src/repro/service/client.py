"""Blocking client for the SER-service daemon.

The consumption side of :mod:`repro.service.daemon`: open a socket,
send one newline-delimited JSON request per call, read lines until
the response with the matching ``id`` arrives.  Progress lines (from
``watch=True``) are handed to an ``on_event`` callback as they
stream.  Used by ``repro-ser query`` and the test/CI harnesses; no
asyncio on this side — a plain socket keeps the client usable from
any context (shell loops, notebooks, other services).
"""

from __future__ import annotations

import itertools
import socket
from typing import Callable, Optional

from ..errors import ServiceError
from .protocol import QuerySpec, decode_line, encode_line

__all__ = ["ServiceClient"]


class ServiceClient:
    """Talk to a running daemon over its unix or TCP socket."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ):
        if socket_path is None and port is None:
            raise ServiceError("need a unix socket path or a TCP port")
        self.socket_path = socket_path
        self.host = host if host is not None else "127.0.0.1"
        self.port = port
        self.timeout_s = timeout_s
        self._ids = itertools.count(1)
        self._sock: Optional[socket.socket] = None
        self._recv_buffer = b""

    # -- plumbing --------------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.timeout_s)
                sock.connect(self.socket_path)
            except BaseException:
                # a failed connect must not leak the fresh socket
                sock.close()
                raise
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
        self._sock = sock
        return sock

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._recv_buffer = b""

    def __enter__(self):
        self._connect()
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _read_line(self) -> bytes:
        sock = self._connect()
        while b"\n" not in self._recv_buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ServiceError("server closed the connection")
            self._recv_buffer += chunk
        line, self._recv_buffer = self._recv_buffer.split(b"\n", 1)
        return line

    def _roundtrip(
        self,
        message: dict,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        request_id = next(self._ids)
        message = dict(message, id=request_id)
        sock = self._connect()
        sock.sendall(encode_line(message))
        while True:
            reply = decode_line(self._read_line())
            if reply.get("id") != request_id:
                continue  # a pipelined sibling's line; not ours
            if "event" in reply:
                if on_event is not None:
                    on_event(reply["event"])
                continue
            return reply

    # -- operations ------------------------------------------------------------

    def query(
        self,
        spec,
        tenant: str = "default",
        watch: bool = False,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """Run one SER query; returns the full response envelope.

        ``spec`` is a :class:`~repro.service.protocol.QuerySpec` or a
        plain dict of its fields.  Raises :class:`ServiceError` on a
        rejection or campaign failure (the error code is in the
        message).
        """
        if isinstance(spec, QuerySpec):
            spec = spec.to_dict()
        reply = self._roundtrip(
            {
                "op": "query",
                "tenant": tenant,
                "spec": spec,
                "watch": bool(watch or on_event is not None),
            },
            on_event=on_event,
        )
        if not reply.get("ok"):
            raise ServiceError(
                f"query {reply.get('code', 'failed')}: {reply.get('error')}"
            )
        return reply

    def ping(self) -> bool:
        return bool(self._roundtrip({"op": "ping"}).get("pong"))

    def stats(self) -> dict:
        reply = self._roundtrip({"op": "stats"})
        if not reply.get("ok"):
            raise ServiceError(f"stats failed: {reply.get('error')}")
        return reply["stats"]

    def shutdown(self) -> bool:
        reply = self._roundtrip({"op": "shutdown"})
        return bool(reply.get("stopping"))
