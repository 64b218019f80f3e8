"""The benchmark's own OpenAI-compatible endpoint.

Run as its own process, so its CPU time is not charged to the measured one:

    python3 bench/stub.py --seed 1

It prints ``PORT <n>`` once it listens on 127.0.0.1 and serves until it gets
SIGTERM or its standard input closes.

* ``POST .../chat/completions`` returns the k-th seeded completion for the
  requirement tag ``[req:<id>]`` found in the prompt (``gen.chat_reply``).
  The first few attempts of each requirement include one HTTP 500 at a
  seeded position, so the client's retry path runs on every set.
* ``POST .../embeddings`` takes a string or a list ``input`` and returns one
  vector per item. Each text's first request fails with HTTP 500 with a
  seeded probability of 1/20; a retried text never fails again.
* ``GET /stats`` returns the request, failure and item counters.

Every request, failed or not, is answered ``SERVICE_DELAY_S`` after it
arrived.

Every traffic figure here, and the reply mix in ``gen.chat_reply``, is an
unmeasured assumption: neither the paper nor a published measurement of an
OpenAI-compatible endpoint gives them. They are fixed so that every seed
costs the same; a change that measures a real endpoint should replace them.
"""
from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import gen

_TAG_RE = re.compile(r"\[req:([^\]]+)\]")

# Assumed, not measured: the service time of every request, chat and
# embeddings alike. It decides the network share of an online-gate-n20 op
# and how much fewer round trips (a batched /embeddings client) can save.
SERVICE_DELAY_S = 0.060
# Assumed, not measured: one HTTP 500 among each requirement's first ten
# chat attempts, so the client's retry path runs on every set.
CHAT_FAILURE_WINDOW = 10
# Assumed, not measured: a text's first embedding request fails with
# probability 1/20.
EMBED_FAILURE_ODDS = 20


class Stub:
    def __init__(self, seed: int):
        self.seed = seed
        self.stats: Counter = Counter()
        self._attempts: Counter = Counter()
        self._served: Counter = Counter()
        self._lock = threading.Lock()

    def chat(self, body: dict) -> tuple[int, dict]:
        content = body["messages"][0]["content"]
        match = _TAG_RE.search(content)
        tag = match.group(1) if match else content
        fail_at = gen.stable_seed(self.seed, "chat-fail", tag) % CHAT_FAILURE_WINDOW
        with self._lock:
            attempt = self._attempts[tag]
            self._attempts[tag] += 1
            self.stats["chat_requests"] += 1
            if attempt == fail_at:
                self.stats["chat_failures"] += 1
                return 500, {"error": "transient"}
            k = self._served[tag]
            self._served[tag] += 1
        raw = gen.chat_reply(self.seed, tag, k)
        logprobs = [{"token": f"t{i}", "logprob": -0.05 * (1 + (k + i) % 5)}
                    for i in range(8)]
        return 200, {"choices": [{
            "message": {"content": raw},
            "finish_reason": "stop",
            "logprobs": {"content": logprobs},
        }]}

    def embeddings(self, body: dict) -> tuple[int, dict]:
        items = body["input"]
        if isinstance(items, str):
            items = [items]
        with self._lock:
            self.stats["embed_requests"] += 1
            first = items[0] if items else ""
            attempt = self._attempts["embed\x00" + first]
            self._attempts["embed\x00" + first] += 1
            if attempt == 0 and gen.stable_seed(self.seed, "embed-fail", first) % EMBED_FAILURE_ODDS == 0:
                self.stats["embed_failures"] += 1
                return 500, {"error": "transient"}
            self.stats["embed_items"] += len(items)
        data = [{"object": "embedding", "index": i,
                 "embedding": gen.embedding_vector(self.seed, text)}
                for i, text in enumerate(items)]
        return 200, {"object": "list", "data": data}


def serve(stub: Stub) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _reply(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path.rstrip("/").endswith("/stats"):
                with stub._lock:
                    self._reply(200, dict(stub.stats))
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            start = time.perf_counter()
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length))
            if self.path.endswith("/embeddings"):
                status, payload = stub.embeddings(body)
            elif self.path.endswith("/chat/completions"):
                status, payload = stub.chat(body)
            else:
                status, payload = 404, {"error": "not found"}
            # the delay includes the stub's own work, so a slower machine
            # does not make the stub slower
            time.sleep(max(0.0, SERVICE_DELAY_S - (time.perf_counter() - start)))
            self._reply(status, payload)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    server = serve(Stub(args.seed))

    def stop(*_):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, stop)

    def watch_stdin():
        sys.stdin.read()
        stop()

    threading.Thread(target=watch_stdin, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
