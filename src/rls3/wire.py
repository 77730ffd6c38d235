"""Newline-delimited JSON wire protocol for external judge processes.

One JSON object per line, UTF-8. Requests carry a u64 id assigned by the
client; responses must echo it. The client holds a non-blocking (read fd,
write fd) pair: a spawned child's stdout and stdin, or one TCP socket twice.
One send loop and one receive loop serve both, and every OS error on the
stream is a WireError. A request's samples are the records' JSON lines.
"""

from __future__ import annotations

import contextlib
import json
import os
import selectors
import shlex
import socket
import subprocess
import time

# how long close() lets a terminated judge take to exit before it kills it
_TERMINATE_GRACE_S = 5.0


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
        self._fds: tuple[int, int] | None = None  # (read, write)
        self._buf = b""

    def _use(self, read_fd: int, write_fd: int) -> "NdjsonClient":
        for fd in (read_fd, write_fd):
            os.set_blocking(fd, False)  # both loops wait in a selector
        self._fds = (read_fd, write_fd)
        return self

    @classmethod
    def spawn(cls, argv: list[str], timeout: float = 30.0) -> "NdjsonClient":
        client = cls(timeout=timeout)
        try:
            client._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise WireError(f"cannot start external judge {argv!r}: {exc}") from exc
        return client._use(client._proc.stdout.fileno(), client._proc.stdin.fileno())

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 30.0) -> "NdjsonClient":
        client = cls(timeout=timeout)
        try:
            client._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise WireError(f"cannot connect to external judge at {host}:{port}: {exc}") from exc
        return client._use(client._sock.fileno(), client._sock.fileno())

    def close(self) -> None:
        """End the transport; never raises. A spawned judge gets SIGTERM, and
        SIGKILL if it is still running after the grace period; it is reaped."""
        self._fds = None
        if self._proc is not None:
            proc, self._proc = self._proc, None
            with contextlib.suppress(OSError):  # closing must not raise
                proc.stdin.close()
            proc.terminate()
            try:
                proc.wait(timeout=_TERMINATE_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    # -- transport

    def _send_line(self, data: memoryview, deadline: float) -> None:
        fd = self._fds[1]
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_WRITE)
            while data:
                if sel.select(_remaining(deadline, "sending request")):
                    with contextlib.suppress(BlockingIOError):
                        data = data[os.write(fd, data):]

    def _read_line(self, deadline: float) -> bytes:
        fd = self._fds[0]
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._buf:
                if sel.select(_remaining(deadline, "waiting for response")):
                    with contextlib.suppress(BlockingIOError):
                        chunk = os.read(fd, 65536)
                        if not chunk:
                            raise WireProtocolError("peer closed the stream")
                        self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    # -- protocol

    def request(self, payload: dict) -> dict:
        """Send `payload` under a fresh id as one compact JSON line and return
        the reply that echoes the id. `samples`, if present, is a list of JSON
        texts (the records' `samples.jsonl` lines), written into the line as
        they are. One deadline, `timeout` seconds away, covers send and reply."""
        if self._fds is None:
            raise WireError("client not connected")
        deadline = time.monotonic() + self.timeout
        req_id = self._next_id
        self._next_id += 1
        head = {key: value for key, value in payload.items() if key != "samples"}
        head["id"] = req_id
        text = json.dumps(head, sort_keys=True, separators=(",", ":"))
        if "samples" in payload:
            text = f'{text[:-1]},"samples":[{",".join(payload["samples"])}]}}'
        try:
            self._send_line(memoryview(text.encode("utf-8") + b"\n"), deadline)
            line = self._read_line(deadline)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise WireProtocolError("peer closed the stream") from exc
        except OSError as exc:
            raise WireError(f"external judge stream failed: {exc}") from exc
        try:
            resp = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # also too many digits, too deep nesting
            raise WireProtocolError(f"malformed response line: {exc}") from exc
        if not isinstance(resp, dict) or "id" not in resp:
            raise WireProtocolError("response is not an object with an id")
        if type(resp["id"]) is not int or resp["id"] != req_id:  # no bool, no float
            raise WireIdMismatch(f"expected id {req_id}, got {resp['id']!r}")
        return resp


def _remaining(deadline: float, doing: str) -> float:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WireTimeout(f"timed out {doing}")
    return remaining


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
