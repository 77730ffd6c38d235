import contextlib
import json
import math
import os
import shlex
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

from rls3 import wire
from rls3.datasets import generate_fixed_records
from rls3.external_stub import handle_request
from rls3.judges import ExternalJudge, JudgeError, verdict_scores
from rls3.orchestrator import desk_config, infer_and_reward, run_loop
from rls3.scene import builtin_suite
from rls3.wire import (
    NdjsonClient,
    WireError,
    WireIdMismatch,
    WireProtocolError,
    WireTimeout,
    client_for_address,
)

from oracles import record_to_dict

STUB = [sys.executable, "-m", "rls3.external_stub"]


@pytest.fixture(scope="module")
def records():
    return generate_fixed_records(builtin_suite("train"), 12, seed=5)


def test_spawned_stub_round_trip():
    with contextlib.closing(
        NdjsonClient.spawn(STUB + ["--behavior", "all_correct"], timeout=10)
    ) as client:
        resp = client.request({"op": "finetune", "mode": "generative", "samples": []})
        assert resp["ok"] is True


def test_request_ids_increment():
    with contextlib.closing(NdjsonClient.spawn(STUB, timeout=10)) as client:
        a = client.request({"op": "finetune", "samples": []})
        b = client.request({"op": "finetune", "samples": []})
        assert b["id"] == a["id"] + 1


def test_external_generative_judge_all_correct(records):
    with contextlib.closing(
        NdjsonClient.spawn(STUB + ["--behavior", "all_correct"], timeout=10)
    ) as client:
        judge = ExternalJudge(client, mode="generative")
        verdicts, loss = judge.infer(records)
        assert all(v.rubric == 5 for v in verdicts)
        assert judge.validation_metric(judge.encode(records)) == 5.0
        assert loss == 1.0
        assert infer_and_reward(judge, records)[1] == 1.0
        assert judge.finetune(records, steps=4) == []


@pytest.mark.parametrize(
    "behavior, sent, accuracy",
    [("all_correct", (1.0, 0.0, 0.0), 1.0), ("echo", (0.0, 0.0, 0.0), 0.0)],
    ids=["all_correct", "echo"],
)
def test_external_contrastive_judge_rankings(records, behavior, sent, accuracy):
    argv = STUB + ["--behavior", behavior, "--loss", "0.8"]
    with contextlib.closing(NdjsonClient.spawn(argv, timeout=10)) as client:
        judge = ExternalJudge(client, mode="contrastive")
        assert judge.metric_name == "retrieval_accuracy"
        verdicts, loss = judge.infer(records)
        assert loss == 0.8 and [v.sample_id for v in verdicts] == [r.id for r in records]
        assert all(v.similarities == sent for v in verdicts)
        assert verdict_scores(verdicts).tolist() == [accuracy] * len(records)
        assert judge.validation_metric(judge.encode(records)) == accuracy
        assert infer_and_reward(judge, records)[1] == pytest.approx(0.64)


class _ReplyClient:
    """Answers every request with one fixed reply."""

    def __init__(self, reply):
        self.reply = reply

    def request(self, payload):
        return self.reply


@pytest.mark.parametrize(
    "similarities",
    [None, "1 0 0", [[1.0, 0.0, 0.0]], [[1.0, 0.0]] * 2, [[1.0, 0.0, 0.0, 0.0]] * 2,
     [[float("nan"), 0.0, 0.0]] * 2, [[1.0, float("inf"), 0.0]] * 2, [[1.0, 0.0, 10**400]] * 2,
     [[True, False, False]] * 2, [["1", 0.0, 0.0]] * 2],
)
def test_external_contrastive_judge_rejects_malformed_similarities(records, similarities):
    reply = {"loss": 0.5} if similarities is None else {"loss": 0.5, "similarities": similarities}
    judge = ExternalJudge(_ReplyClient(reply), mode="contrastive")
    with pytest.raises(JudgeError, match="malformed similarities list"):
        judge.infer(records[:2])


@pytest.mark.parametrize(
    "terms",
    [None, "left", [["left"]], [None, ["left"]], [[["left"]], ["left"]], ["left", ["left"]],
     [[1], ["left"]], [[None], ["left"]]],
    ids=["missing", "string", "short", "null-entry", "nested-entry", "bare-string-entry",
         "int-term", "null-term"],
)
def test_external_generative_judge_rejects_malformed_terms(records, terms):
    reply = {} if terms is None else {"terms": terms}
    judge = ExternalJudge(_ReplyClient(reply), mode="generative")
    for call in (judge.infer, lambda samples: judge.validation_metric(judge.encode(samples))):
        with pytest.raises(JudgeError, match="malformed terms list"):
            call(records[:2])


@pytest.mark.parametrize("loss", [None, "0.5", True, float("nan"), float("inf")])
def test_external_contrastive_judge_rejects_malformed_loss(records, loss):
    reply = {"loss": loss, "similarities": [[1.0, 0.0, 0.0]] * 2}
    judge = ExternalJudge(_ReplyClient(reply), mode="contrastive")
    with pytest.raises(JudgeError, match="malformed loss"):
        judge.infer(records[:2])
    reply["loss"] = 1  # an int is a JSON number too
    assert judge.infer(records[:2])[1] == 1.0


def test_tcp_transport(records):
    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            for line in self.rfile:
                req = json.loads(line)
                resp = handle_request(req, "all_correct", 0.5)
                self.wfile.write((json.dumps(resp) + "\n").encode())

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with contextlib.closing(NdjsonClient.connect("127.0.0.1", port, timeout=10)) as client:
            judge = ExternalJudge(client, mode="generative")
            assert judge.validation_metric(judge.encode(records)) == 5.0
    finally:
        server.shutdown()
        server.server_close()


def test_timeout():
    # a server that accepts but never answers
    srv = socket.create_server(("127.0.0.1", 0))
    port = srv.getsockname()[1]
    try:
        client = NdjsonClient.connect("127.0.0.1", port, timeout=0.3)
        with pytest.raises(WireTimeout):
            client.request({"op": "infer", "samples": []})
        client.close()
    finally:
        srv.close()


def test_peer_exited_before_request():
    client = NdjsonClient.spawn([sys.executable, "-c", "pass"], timeout=5)
    client._proc.wait(timeout=10)  # the send, not the read, meets the closed pipe
    with pytest.raises(WireProtocolError, match="peer closed the stream"):
        client.request({"op": "infer"})
    client.close()  # must not raise, and must reap the child
    assert client._proc is None


def test_transport_os_errors_become_wire_errors():
    with pytest.raises(WireError, match="cannot start external judge"):
        NdjsonClient.spawn(["/nonexistent/judge"])
    srv = socket.create_server(("127.0.0.1", 0))
    port = srv.getsockname()[1]
    srv.close()  # nothing listens on the port now
    with pytest.raises(WireError, match="cannot connect to external judge"):
        NdjsonClient.connect("127.0.0.1", port, timeout=2)


def test_client_for_address_dispatch():
    client = client_for_address(" ".join(STUB), timeout=10)
    try:
        assert client.request({"op": "finetune", "samples": []})["ok"] is True
    finally:
        client.close()


def test_client_for_address_splits_like_a_shell(records):
    command = f"{shlex.quote(sys.executable)} -m rls3.external_stub --behavior 'all_correct'"
    with contextlib.closing(client_for_address(command, timeout=10)) as client:
        resp = client.request(
            {"op": "infer", "mode": "generative", "samples": [r.line for r in records[:2]]}
        )
        assert resp["terms"] == [sorted(r.terms) for r in records[:2]]
    with pytest.raises(WireError, match="cannot parse external judge command"):
        client_for_address(command + " '")


def test_external_judge_rejects_malformed_terms(records):
    code = (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    terms = [['sideways'], ['left']][:len(req['samples'])]\n"
        "    print(json.dumps({'id': req['id'], 'terms': terms}), flush=True)\n"
    )
    with contextlib.closing(NdjsonClient.spawn([sys.executable, "-c", code], timeout=5)) as client:
        judge = ExternalJudge(client, mode="generative")
        verdicts, _ = judge.infer(records[:2])
        assert verdicts[0].flagged and not verdicts[1].flagged
        # the flagged entry has a NaN score and is left out of the metric
        scores = judge.scores(judge.encode(records[:2]))
        assert math.isnan(scores[0]) and scores[1] == verdicts[1].rubric
        np.testing.assert_array_equal(verdict_scores(verdicts), scores)
        assert judge.validation_metric(judge.encode(records[:2])) == scores[1]
        with pytest.raises(JudgeError, match="no scored verdicts"):
            judge.infer(records[:1])  # every verdict flagged
        with pytest.raises(JudgeError, match="malformed terms list"):
            judge.infer(records[:3])  # length mismatch


def test_external_judge_reports_peer_errors(records):
    code = (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    print(json.dumps({'id': req['id'], 'error': 'no model loaded'}), flush=True)\n"
    )
    with contextlib.closing(NdjsonClient.spawn([sys.executable, "-c", code], timeout=5)) as client:
        for mode in ("generative", "contrastive"):
            judge = ExternalJudge(client, mode=mode)
            for op, call in (
                ("infer", judge.infer),
                ("infer", lambda samples: judge.validation_metric(judge.encode(samples))),
                ("finetune", lambda samples: judge.finetune(samples, 1)),
            ):
                with pytest.raises(JudgeError, match=f"failed to {op}: no model loaded"):
                    call(records[:2])


class _OutOfVocabularyClient:
    """Answers every infer request with a term outside the six primitives."""

    def request(self, payload):
        return {"terms": [["sideways"]] * len(payload["samples"])}


def test_external_validation_metric_needs_scored_verdicts(records):
    judge = ExternalJudge(_OutOfVocabularyClient(), mode="generative")
    with pytest.raises(JudgeError, match="no scored verdicts"):
        judge.infer(records)
    with pytest.raises(JudgeError, match="no scored verdicts"):
        judge.validation_metric(judge.encode(records))


def test_stub_handles_sample_payload(records):
    req = {
        "id": 0,
        "op": "infer",
        "mode": "generative",
        "samples": [record_to_dict(r) for r in records[:3]],
    }
    resp = handle_request(req, "all_correct", 0.5)
    for rec, terms in zip(records[:3], resp["terms"]):
        assert set(terms) == set(rec.terms)


def test_stub_starts_without_numpy_and_the_package_still_resolves():
    code = (
        "import sys, rls3.external_stub\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('rls3.')))\n"
        "import rls3\n"
        "print([name for name in rls3.__all__ if getattr(rls3, name) is None])\n"
        "print(rls3.SampleRecord is rls3.datasets.SampleRecord, rls3.wire.__name__)\n"
        "print(hasattr(rls3, 'no_such_name'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["['rls3.external_stub']", "[]", "True rls3.wire", "False"]


class _Peer:
    """A local TCP judge: for each connection it reads one request line, keeps
    it in `requests`, writes `reply` and closes the connection."""

    def __init__(self):
        self.requests: list[bytes] = []
        self.reply = b""
        peer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                peer.requests.append(self.rfile.readline())
                self.wfile.write(peer.reply)

        self.server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    def request(self, payload: dict, reply: bytes) -> dict:
        self.reply = reply
        port = self.server.server_address[1]
        with contextlib.closing(NdjsonClient.connect("127.0.0.1", port, timeout=10)) as client:
            return client.request(payload)


class _PipePeer:
    """The same judge over pipes: a process spawned for each request reads one
    request line, writes `reply` and exits."""

    CODE = (
        "import sys; sys.stdin.buffer.readline(); "
        "sys.stdout.buffer.write(bytes.fromhex(sys.argv[1]))"
    )

    def request(self, payload: dict, reply: bytes) -> dict:
        argv = [sys.executable, "-S", "-c", self.CODE, reply.hex()]
        with contextlib.closing(NdjsonClient.spawn(argv, timeout=10)) as client:
            return client.request(payload)


@pytest.fixture(scope="module")
def tcp_peer():
    peer = _Peer()
    yield peer
    peer.server.shutdown()
    peer.server.server_close()


@pytest.fixture(scope="module", params=["pipe", "tcp"])
def peer(request, tcp_peer):
    return _PipePeer() if request.param == "pipe" else tcp_peer


def test_malformed_response(peer):
    with pytest.raises(WireProtocolError, match="malformed response line"):
        peer.request({"op": "infer"}, b"this is not json\n")


def test_id_mismatch(peer):
    with pytest.raises(WireIdMismatch, match="expected id 0, got 9999"):
        peer.request({"op": "infer"}, b'{"id": 9999, "ok": true}\n')


@pytest.mark.parametrize("ids", [[False], [0, 1.0]], ids=["false-for-0", "float-for-1"])
def test_reply_id_must_be_the_int_request_id(ids):
    # the peer answers request k with id ids[k]; only the last answer is wrong
    code = (
        "import sys, json\n"
        f"ids = {ids!r}\n"
        "for k, line in enumerate(sys.stdin):\n"
        "    print(json.dumps({'id': ids[k], 'ok': True}), flush=True)\n"
    )
    with contextlib.closing(NdjsonClient.spawn([sys.executable, "-c", code], timeout=10)) as client:
        for _ in ids[:-1]:
            assert client.request({"op": "finetune", "samples": []})["ok"] is True
        with pytest.raises(WireIdMismatch, match=f"expected id {len(ids) - 1}, got {ids[-1]!r}"):
            client.request({"op": "finetune", "samples": []})


def test_peer_closure(peer):
    # the peer reads the request and closes its end without a reply
    with pytest.raises(WireProtocolError, match="peer closed the stream"):
        peer.request({"op": "infer"}, b"")


@contextlib.contextmanager
def _resetting_judge():
    """The port of a TCP judge that reads one request line and then resets
    the connection: SO_LINGER 0 makes its close send RST, not FIN."""
    srv = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = srv.accept()
        with conn, conn.makefile("rb") as rfile:
            rfile.readline()
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    with srv:
        yield srv.getsockname()[1]
    thread.join(timeout=10)


def test_connection_reset_is_a_wire_error():
    with _resetting_judge() as port:
        with contextlib.closing(NdjsonClient.connect("127.0.0.1", port, timeout=10)) as client:
            with pytest.raises(WireError, match="peer closed the stream"):
                client.request({"op": "infer", "samples": []})


def test_connection_reset_fails_the_run(tmp_path):
    with _resetting_judge() as port:
        report = run_loop(desk_config(
            iterations=1, episodes_per_iteration=1, samples_per_episode=5, agent="random",
            judge=f"external:127.0.0.1:{port}", finetune_steps=1, validation_count=5,
            test_count=5,
        ), tmp_path)
    assert report.failure == "peer closed the stream"
    assert json.loads((tmp_path / "report.json").read_text())["failure"] == report.failure


def _stub_reply(payload: dict) -> bytes:
    """The stub's reply to `payload` sent as a client's first request."""
    req = {**payload, "id": 0, "samples": [json.loads(s) for s in payload["samples"]]}
    return (json.dumps(handle_request(req, "all_correct", 0.5)) + "\n").encode()


def test_request_writes_sample_lines_into_compact_json(records, tcp_peer):
    payload = {"op": "infer", "mode": "generative", "samples": [r.line for r in records]}
    resp = tcp_peer.request(payload, _stub_reply(payload))
    assert resp["terms"] == [sorted(r.terms) for r in records]
    doc = json.loads(tcp_peer.requests[-1])
    assert doc == {
        "id": 0, "op": "infer", "mode": "generative",
        "samples": [record_to_dict(r) for r in records],
    }
    compact = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert tcp_peer.requests[-1] == compact.encode() + b"\n"


def test_deeply_nested_reply_is_a_protocol_error(tcp_peer):
    with pytest.raises(WireProtocolError, match="malformed response line"):
        tcp_peer.request({"op": "infer", "samples": []}, b"[" * 100_000 + b"\n")


def _json_containers(inner):
    """One level of JSON nesting around `inner`. A module-level function, not a
    lambda: hypothesis parses the source of `extend` to check that it uses its
    argument, and for a lambda inside a call that parse can go wrong and warn
    that the strategy cannot recurse."""
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    _json_containers,
    max_leaves=8,
)


def test_json_values_nest_containers():
    nested = find(
        _JSON_VALUES, lambda v: isinstance(v, list) and any(isinstance(x, (list, dict)) for x in v)
    )
    assert isinstance(nested, list)

_REPLIES = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda b: b + b"\n"),
    st.builds(
        lambda doc, reply_id: (json.dumps({**doc, "id": reply_id}) + "\n").encode(),
        st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=3),
        st.sampled_from([0, 1, -1, 0.0, "0", None, True, 10**30]),
    ),
    _JSON_VALUES.map(lambda doc: (json.dumps(doc) + "\n").encode()),
    st.sampled_from([b"[" * 5000 + b"\n", b"1" * 5000 + b"\n", b"\xff\xfe\n", b"\n"]),
)


def _outcome(peer, reply: bytes) -> str:
    """The answer to `reply`, or the WireError it raises, as text."""
    try:
        resp = peer.request({"op": "infer", "samples": []}, reply)
    except WireError as exc:
        return repr(exc)
    assert isinstance(resp, dict) and resp["id"] == 0
    return repr(resp)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reply=_REPLIES)
def test_any_reply_is_the_answer_or_a_wire_error(tcp_peer, reply):
    # the same reply reads the same over pipes as over TCP
    assert _outcome(_PipePeer(), reply) == _outcome(tcp_peer, reply)


@pytest.mark.parametrize(
    "transport, pad",
    [("pipe", 200_000), ("tcp", 16_000_000)],  # past what the pipe or socket buffers hold
)
def test_send_is_bounded_by_the_timeout(transport, pad):
    # the judge never reads, so the request cannot be sent in full
    with contextlib.ExitStack() as stack:
        if transport == "pipe":
            argv = [sys.executable, "-c", "import time; time.sleep(60)"]
            client = NdjsonClient.spawn(argv, timeout=0.5)
        else:
            srv = stack.enter_context(socket.create_server(("127.0.0.1", 0)))
            client = NdjsonClient.connect("127.0.0.1", srv.getsockname()[1], timeout=0.5)
        stack.enter_context(contextlib.closing(client))
        start = time.monotonic()
        with pytest.raises(WireTimeout, match="timed out sending request"):
            client.request({"op": "infer", "pad": "x" * pad})
        assert time.monotonic() - start < 5


IGNORES_SIGTERM = [
    sys.executable, "-c",
    "import signal, time\n"
    "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
    "print('{\"id\": 0, \"ok\": true}', flush=True)\n"
    "time.sleep(60)\n",
]


def test_close_kills_a_judge_that_ignores_sigterm(monkeypatch):
    monkeypatch.setattr(wire, "_TERMINATE_GRACE_S", 0.5)
    client = NdjsonClient.spawn(IGNORES_SIGTERM, timeout=10)
    # the reply comes after the judge has set SIGTERM aside
    assert client.request({"op": "finetune", "samples": []})["ok"] is True
    proc = client._proc
    client.close()  # must not raise
    assert proc.returncode == -9
    with pytest.raises(ProcessLookupError):
        os.kill(proc.pid, 0)  # reaped, not a zombie
    client.close()  # closing again does nothing
