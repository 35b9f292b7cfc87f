"""Loopback OpenAI-compatible chat-completions server standing in for the model.

It answers from the generated plan through the same ``Responder`` as the
scripted workloads, after a fixed injected latency. Requests with model id
``calibration`` get an immediate fixed reply and are not counted.

* HTTP/1.1 with keep-alive and a buffered ``wfile``: an unbuffered
  ``wfile`` splits each reply into several small writes, and Nagle's
  algorithm with delayed ACKs then stalls a keep-alive client ~40 ms per call.
* A fixed pool of handler threads (``--threads``, at most ``nproc``).
* ``GET /health`` is the readiness probe; ``GET /stats`` returns the
  server-side request and prompt-character counts.

Usage: python3 bench/loopback.py --plan plan.json --latency-ms 20 --threads 2
Prints ``READY <port>`` on stdout once it listens on 127.0.0.1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from responder import Responder  # noqa: E402


class PooledHTTPServer(HTTPServer):
    """Hands each accepted connection to a bounded thread pool."""

    def __init__(self, address, handler, threads: int, responder: Responder, latency_s: float):
        super().__init__(address, handler)
        self.pool = ThreadPoolExecutor(max_workers=threads)
        self.responder = responder
        self.latency_s = latency_s

    def process_request(self, request, client_address):
        self.pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    wbufsize = -1  # buffered: one write per response
    timeout = 30  # an idle keep-alive connection frees its thread after this

    def log_message(self, format, *args):  # noqa: A002 - silence access logs
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802
        if self.path == "/health":
            self._send(200, {"ok": True})
        elif self.path == "/stats":
            calls, chars = self.server.responder.counts()
            self._send(200, {"requests": calls, "prompt_chars": chars})
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length", "0"))
        request = json.loads(self.rfile.read(length))
        prompt = request["messages"][-1]["content"]
        if request.get("model") == "calibration":
            text = "SELECT 1"
        else:
            try:
                text = self.server.responder.consume(prompt)
            except Exception as exc:  # surfaces as a failed call in the run
                self._send(500, {"error": str(exc)})
                return
            time.sleep(self.server.latency_s)
        self._send(200, {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": len(prompt) // 4, "completion_tokens": len(text) // 4},
        })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    parser.add_argument("--threads", type=int, required=True)
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    server = PooledHTTPServer(
        ("127.0.0.1", 0), Handler, args.threads, Responder(plan), args.latency_ms / 1000.0
    )
    print(f"READY {server.server_address[1]}", flush=True)
    server.serve_forever()  # until the benchmark terminates this process
    return 0


if __name__ == "__main__":
    sys.exit(main())
