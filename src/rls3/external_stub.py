"""Reference external judge speaking the NDJSON wire protocol.

Useful for wiring tests and as a template for hooking up a real model server.
An infer request is {"id", "op": "infer", "mode", "samples"}; the reply is
{"id", "terms": [[term, ...] per sample]} in generative mode and
{"id", "similarities": [[positive, term-swapped, object-swapped] per sample],
"loss"} in contrastive mode. A finetune request gets {"id", "ok": true}.
Behaviors:
  all_correct  -- generative: every sample's true terms (rubric 5);
                  contrastive: the positive ranked first, [1, 0, 0] (accuracy 1)
  echo         -- generative: empty term sets (rubric 1);
                  contrastive: three equal similarities, [0, 0, 0] (accuracy 0)
In contrastive mode every behavior reports --loss as the batch loss.

Run on stdin/stdout (default) or as a TCP server with --listen PORT.
"""

from __future__ import annotations

import argparse
import io
import json
import socketserver
import sys


def _truth_terms(sample: dict) -> list[str]:
    rel = sample["relation"]
    terms = list(rel["horizontal"])
    if rel["vertical"]:
        terms.append(rel["vertical"])
    return sorted(terms)


def handle_request(req: dict, behavior: str, loss: float) -> dict:
    resp: dict = {"id": req["id"]}
    op = req.get("op")
    samples = req.get("samples", [])
    if op == "infer":
        if req.get("mode") == "contrastive":
            triple = [1.0, 0.0, 0.0] if behavior == "all_correct" else [0.0, 0.0, 0.0]
            resp["similarities"] = [triple for _ in samples]
            resp["loss"] = loss
        elif behavior == "all_correct":
            resp["terms"] = [_truth_terms(s) for s in samples]
        else:
            resp["terms"] = [[] for _ in samples]
    elif op == "finetune":
        resp["ok"] = True
    else:
        resp["error"] = f"unknown op {op!r}"
    return resp


def serve_stream(rfile, wfile, behavior: str, loss: float) -> None:
    """rfile/wfile are text streams; one JSON object per line each way."""
    for line in rfile:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        wfile.write(json.dumps(handle_request(req, behavior, loss), sort_keys=True) + "\n")
        wfile.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--behavior", choices=("all_correct", "echo"), default="all_correct")
    parser.add_argument("--loss", type=float, default=0.5)
    parser.add_argument("--listen", type=int, metavar="PORT", default=None)
    args = parser.parse_args(argv)

    if args.listen is not None:
        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                reader = io.TextIOWrapper(self.rfile, encoding="utf-8")
                writer = io.TextIOWrapper(self.wfile, encoding="utf-8", write_through=True)
                serve_stream(reader, writer, args.behavior, args.loss)

        with socketserver.ThreadingTCPServer(("127.0.0.1", args.listen), Handler) as srv:
            srv.serve_forever()
        return 0

    serve_stream(sys.stdin, sys.stdout, args.behavior, args.loss)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
