"""Newline-delimited JSON wire protocol for external judge processes.

One JSON object per line, UTF-8. Requests carry a u64 id assigned by the
client; responses must echo it. Transport is either a spawned child process
(stdin/stdout pipes) or a TCP connection. A request's samples are the
records' JSON lines, sent as they are.
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
        os.set_blocking(client._proc.stdin.fileno(), False)  # sends wait in a selector
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
        """End the transport; never raises. A spawned judge gets SIGTERM, and
        SIGKILL if it is still running after the grace period; it is reaped."""
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

    def _send_line(self, line: bytes, deadline: float) -> None:
        try:
            if self._proc is not None:
                self._write_pipe(memoryview(line), deadline)
            elif self._sock is not None:
                self._sock.settimeout(_remaining(deadline, "sending request"))
                self._sock.sendall(line)
            else:
                raise WireError("client not connected")
        except BrokenPipeError as exc:
            raise WireProtocolError("peer closed the stream") from exc
        except TimeoutError as exc:
            raise WireTimeout("timed out sending request") from exc
        except OSError as exc:
            raise WireError(f"cannot send to external judge: {exc}") from exc

    def _write_pipe(self, data: memoryview, deadline: float) -> None:
        fd = self._proc.stdin.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_WRITE)
            while data:
                if sel.select(timeout=_remaining(deadline, "sending request")):
                    with contextlib.suppress(BlockingIOError):
                        data = data[os.write(fd, data):]

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

    def _read_line(self, deadline: float) -> bytes:
        while b"\n" not in self._buf:
            self._buf += self._recv_chunk(_remaining(deadline, "waiting for response"))
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    # -- protocol

    def request(self, payload: dict) -> dict:
        """Send `payload` under a fresh id as one compact JSON line and return
        the reply that echoes the id. `samples`, if present, is a list of JSON
        texts (the records' `samples.jsonl` lines), written into the line as
        they are. One deadline, `timeout` seconds away, covers send and reply."""
        deadline = time.monotonic() + self.timeout
        req_id = self._next_id
        self._next_id += 1
        head = {key: value for key, value in payload.items() if key != "samples"}
        head["id"] = req_id
        text = json.dumps(head, sort_keys=True, separators=(",", ":"))
        if "samples" in payload:
            text = f'{text[:-1]},"samples":[{",".join(payload["samples"])}]}}'
        self._send_line(text.encode("utf-8") + b"\n", deadline)
        line = self._read_line(deadline)
        try:
            resp = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # also too many digits, too deep nesting
            raise WireProtocolError(f"malformed response line: {exc}") from exc
        if not isinstance(resp, dict) or "id" not in resp:
            raise WireProtocolError("response is not an object with an id")
        if resp["id"] != req_id:
            raise WireIdMismatch(f"expected id {req_id}, got {resp['id']}")
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
