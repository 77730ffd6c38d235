import json
import socket
import socketserver
import subprocess
import sys
import threading

import pytest

from rls3.datasets import generate_fixed_records, record_to_dict
from rls3.external_stub import handle_request
from rls3.judges import ExternalJudge, JudgeError
from rls3.scene import builtin_suite
from rls3.wire import (
    NdjsonClient,
    WireIdMismatch,
    WireProtocolError,
    WireTimeout,
    client_for_address,
)

STUB = [sys.executable, "-m", "rls3.external_stub"]


@pytest.fixture(scope="module")
def records():
    return generate_fixed_records(builtin_suite("train"), 12, seed=5)


def test_spawned_stub_round_trip():
    with NdjsonClient.spawn(STUB + ["--behavior", "all_correct"], timeout=10) as client:
        resp = client.request({"op": "finetune", "mode": "generative", "samples": []})
        assert resp["ok"] is True


def test_request_ids_increment():
    with NdjsonClient.spawn(STUB, timeout=10) as client:
        a = client.request({"op": "finetune", "samples": []})
        b = client.request({"op": "finetune", "samples": []})
        assert b["id"] == a["id"] + 1


def test_external_generative_judge_all_correct(records):
    with NdjsonClient.spawn(STUB + ["--behavior", "all_correct"], timeout=10) as client:
        judge = ExternalJudge(client, mode="generative")
        verdicts = judge.infer(records)
        assert all(v.rubric == 5 for v in verdicts)
        assert judge.validation_metric(records) == 5.0
        assert judge.batch_reward(verdicts) == 1.0
        report = judge.finetune(records, steps=4)
        assert report.losses == []


def test_external_contrastive_judge_fixed_loss(records):
    argv = STUB + ["--behavior", "fixed_loss", "--loss", "0.8"]
    with NdjsonClient.spawn(argv, timeout=10) as client:
        judge = ExternalJudge(client, mode="contrastive")
        verdicts, loss = judge.infer(records)
        assert loss == 0.8 and len(verdicts) == len(records)
        assert judge.batch_reward_from_loss(loss) == pytest.approx(0.64)


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
        with NdjsonClient.connect("127.0.0.1", port, timeout=10) as client:
            judge = ExternalJudge(client, mode="generative")
            assert judge.validation_metric(records) == 5.0
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


def test_malformed_response():
    argv = [sys.executable, "-c", "print('this is not json'); import sys; sys.stdout.flush(); sys.stdin.read()"]
    client = NdjsonClient.spawn(argv, timeout=5)
    try:
        with pytest.raises(WireProtocolError):
            client.request({"op": "infer"})
    finally:
        client.close()


def test_id_mismatch():
    code = (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    print(json.dumps({'id': 9999, 'ok': True}), flush=True)\n"
    )
    client = NdjsonClient.spawn([sys.executable, "-c", code], timeout=5)
    try:
        with pytest.raises(WireIdMismatch):
            client.request({"op": "infer"})
    finally:
        client.close()


def test_peer_closure():
    client = NdjsonClient.spawn([sys.executable, "-c", "pass"], timeout=5)
    try:
        with pytest.raises(WireProtocolError):
            client.request({"op": "infer"})
    finally:
        client.close()


def test_client_for_address_dispatch():
    client = client_for_address(" ".join(STUB), timeout=10)
    try:
        assert client.request({"op": "finetune", "samples": []})["ok"] is True
    finally:
        client.close()


def test_external_judge_rejects_malformed_terms(records):
    code = (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    print(json.dumps({'id': req['id'], 'terms': [['sideways']]}), flush=True)\n"
    )
    with NdjsonClient.spawn([sys.executable, "-c", code], timeout=5) as client:
        judge = ExternalJudge(client, mode="generative")
        verdicts = judge.infer(records[:1])
        assert verdicts[0].flagged
        with pytest.raises(JudgeError):
            judge.infer(records[:2])  # length mismatch


class _OutOfVocabularyClient:
    """Answers every infer request with a term outside the six primitives."""

    def request(self, payload):
        return {"terms": [["sideways"]] * len(payload["samples"])}


def test_external_validation_metric_needs_scored_verdicts(records):
    judge = ExternalJudge(_OutOfVocabularyClient(), mode="generative")
    assert all(v.flagged for v in judge.infer(records))
    with pytest.raises(JudgeError, match="no scored verdicts"):
        judge.validation_metric(records)


def test_stub_handles_sample_payload(records):
    req = {
        "id": 0,
        "op": "infer",
        "mode": "generative",
        "samples": [record_to_dict(r) for r in records[:3]],
    }
    resp = handle_request(req, "all_correct", 0.5)
    for rec, terms in zip(records[:3], resp["terms"]):
        assert set(terms) == set(rec.truth_terms())
