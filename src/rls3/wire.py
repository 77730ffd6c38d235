"""Newline-delimited JSON wire protocol for external judge processes.

One JSON object per line, UTF-8. Requests carry a u64 id assigned by the
client; responses must echo it. Transport is either a spawned child process
(stdin/stdout pipes) or a TCP connection.
"""

from __future__ import annotations

import contextlib
import json
import selectors
import shlex
import socket
import subprocess
import time


class WireError(RuntimeError):
    pass


class WireTimeout(WireError):
    pass


class WireProtocolError(WireError):
    """Malformed response line."""


class WireIdMismatch(WireError):
    """Response id does not match the outstanding request."""


class NdjsonClient:
    """Synchronous request/response client; one outstanding request at a time."""

    def __init__(self, timeout: float = 30.0):
        self.timeout = timeout
        self._next_id = 0
        self._proc: subprocess.Popen | None = None
        self._sock: socket.socket | None = None
        self._buf = b""

    @classmethod
    def spawn(cls, argv: list[str], timeout: float = 30.0) -> "NdjsonClient":
        client = cls(timeout=timeout)
        try:
            client._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=False,
            )
        except OSError as exc:
            raise WireError(f"cannot start external judge {argv!r}: {exc}") from exc
        return client

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 30.0) -> "NdjsonClient":
        client = cls(timeout=timeout)
        try:
            client._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise WireError(f"cannot connect to external judge at {host}:{port}: {exc}") from exc
        return client

    def close(self) -> None:
        if self._proc is not None:
            if self._proc.stdin:
                # flushing what a failed send left buffered fails again
                with contextlib.suppress(BrokenPipeError):
                    self._proc.stdin.close()
            self._proc.terminate()
            self._proc.wait(timeout=5)
            self._proc.stdout.close()
            self._proc = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    # -- transport

    def _send_line(self, line: bytes) -> None:
        try:
            if self._proc is not None:
                assert self._proc.stdin is not None
                self._proc.stdin.write(line)
                self._proc.stdin.flush()
            elif self._sock is not None:
                self._sock.sendall(line)
            else:
                raise WireError("client not connected")
        except BrokenPipeError as exc:
            raise WireProtocolError("peer closed the stream") from exc
        except OSError as exc:
            raise WireError(f"cannot send to external judge: {exc}") from exc

    def _recv_chunk(self, remaining: float) -> bytes:
        if self._proc is not None:
            assert self._proc.stdout is not None
            sel = selectors.DefaultSelector()
            try:
                sel.register(self._proc.stdout, selectors.EVENT_READ)
                if not sel.select(timeout=remaining):
                    return b""
            finally:
                sel.close()
            chunk = self._proc.stdout.read1(65536)
            if not chunk:
                raise WireProtocolError("peer closed the stream")
            return chunk
        if self._sock is not None:
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                return b""
            if not chunk:
                raise WireProtocolError("peer closed the connection")
            return chunk
        raise WireError("client not connected")

    def _read_line(self) -> bytes:
        deadline = time.monotonic() + self.timeout
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WireTimeout("timed out waiting for response")
            self._buf += self._recv_chunk(remaining)
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    # -- protocol

    def request(self, payload: dict) -> dict:
        req_id = self._next_id
        self._next_id += 1
        body = dict(payload)
        body["id"] = req_id
        self._send_line(json.dumps(body, sort_keys=True).encode("utf-8") + b"\n")
        line = self._read_line()
        try:
            resp = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireProtocolError(f"malformed response line: {exc}") from exc
        if not isinstance(resp, dict) or "id" not in resp:
            raise WireProtocolError("response is not an object with an id")
        if resp["id"] != req_id:
            raise WireIdMismatch(f"expected id {req_id}, got {resp['id']}")
        return resp


def client_for_address(addr: str, timeout: float = 30.0) -> NdjsonClient:
    """'host:port' connects over TCP; anything else is treated as a command line."""
    host, sep, port = addr.rpartition(":")
    if sep and port.isdigit():
        return NdjsonClient.connect(host or "127.0.0.1", int(port), timeout=timeout)
    try:
        argv = shlex.split(addr)
    except ValueError as exc:
        raise WireError(f"cannot parse external judge command {addr!r}: {exc}") from exc
    if not argv:
        raise WireError(f"empty external judge command {addr!r}")
    return NdjsonClient.spawn(argv, timeout=timeout)
