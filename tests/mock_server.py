"""Deterministic in-process OpenAI-compatible mock server for tests.

Behavior is steered by markers embedded in the prompt text:
  STABLE     -> always return the same program regardless of temperature
  NOFENCE    -> return prose without a code fence
  NOLOGPROBS -> omit the logprobs payload
  FAILTWICE  -> return HTTP 500 for the first two attempts of each request body
  EMPTY      -> return an empty completion
  ONLYZERO   -> empty completion unless temperature == 0.0
Judge prompts (containing "Answer with exactly one word") get a fixed
Yes/No top-logprobs distribution, overridable via server.judge_alternatives.
Embedding requests get one vector per ``input`` item, in order; a text that
starts with FIXEDVEC gets (0.6, 0.8), and one that starts with ZEROVEC gets
(0.0, 0.0). server.embedding_requests counts them, and server.on_embeddings,
when set, is called before each one is answered.
server.requests records each request as (path, headers), in arrival order.
An ``input`` of more than EMBEDDING_INPUT_CAP items gets HTTP 400, as from
text-embeddings-inference at its default --max-client-batch-size.
A server built with threaded=False answers requests one at a time on its own
thread, so it starts no thread per request.
"""
from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

from corpus import PYTHON_CORPUS

EMBEDDING_INPUT_CAP = 32


def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class MockLLMServer:
    def __init__(self, delay: float = 0.0, threaded: bool = True):
        self.delay = delay
        self.on_embeddings = None
        self.judge_alternatives = [("Yes", math.log(0.7)), ("No", math.log(0.2))]
        self.request_count = 0
        self.embedding_requests = 0
        self.requests: list[tuple[str, dict[str, str]]] = []
        self.max_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        self._fail_counters: dict[str, int] = {}

        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length))
                with outer._lock:
                    outer.request_count += 1
                    outer.embedding_requests += self.path.endswith("/embeddings")
                    outer.requests.append((self.path, dict(self.headers)))
                    outer._in_flight += 1
                    outer.max_in_flight = max(outer.max_in_flight, outer._in_flight)
                try:
                    if outer.delay:
                        time.sleep(outer.delay)
                    if self.path.endswith("/embeddings"):
                        if outer.on_embeddings is not None:
                            outer.on_embeddings()
                        status, payload = outer._embeddings(body)
                    else:
                        status, payload = outer._chat(body)
                finally:
                    with outer._lock:
                        outer._in_flight -= 1
                data = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        server = ThreadingHTTPServer if threaded else HTTPServer
        self.httpd = server(("127.0.0.1", 0), Handler)
        self.endpoint = f"http://127.0.0.1:{self.httpd.server_address[1]}/v1"
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def start(self):
        self.thread.start()
        return self

    def stop(self):
        self.httpd.shutdown()
        self.httpd.server_close()

    # --- endpoint behaviors -------------------------------------------------

    def _embeddings(self, body) -> tuple[int, dict]:
        if len(body["input"]) > EMBEDDING_INPUT_CAP:
            return 400, {"error": f"batch size {len(body['input'])} > {EMBEDDING_INPUT_CAP}"}
        return 200, {"data": [{"embedding": self._vector(text)} for text in body["input"]]}

    @staticmethod
    def _vector(text: str) -> list[float]:
        if text.startswith("FIXEDVEC"):
            return [0.6, 0.8]
        if text.startswith("ZEROVEC"):
            return [0.0, 0.0]
        h = _stable_hash(text)
        return [((h >> (8 * i)) & 0xFF) / 255.0 + 0.01 for i in range(8)]

    def _chat(self, body) -> tuple[int, dict]:
        content = body["messages"][0]["content"]
        temperature = body.get("temperature", 1.0)

        if "FAILTWICE" in content:
            key = json.dumps(body, sort_keys=True)
            with self._lock:
                seen = self._fail_counters.get(key, 0)
                self._fail_counters[key] = seen + 1
            if seen < 2:
                return 500, {"error": "transient"}

        if "Answer with exactly one word" in content:
            alts = [{"token": tok, "logprob": lp}
                    for tok, lp in self.judge_alternatives]
            choice = {
                "message": {"content": alts[0]["token"] if alts else ""},
                "finish_reason": "stop",
                "logprobs": {"content": [{
                    "token": alts[0]["token"] if alts else "",
                    "logprob": alts[0]["logprob"] if alts else 0.0,
                    "top_logprobs": alts,
                }]},
            }
            if "NOLOGPROBS" in content:
                choice["logprobs"] = None
            return 200, {"choices": [choice]}

        if "EMPTY" in content or ("ONLYZERO" in content and temperature != 0.0):
            return 200, {"choices": [{"message": {"content": ""},
                                      "finish_reason": "stop",
                                      "logprobs": None}]}
        if "NOFENCE" in content:
            raw = "I would start by writing a helper function, no code needed."
        else:
            h = _stable_hash(content + ("" if "STABLE" in content
                                        else repr(temperature)))
            source = PYTHON_CORPUS[h % len(PYTHON_CORPUS)]
            raw = f"```python\n{source}```"

        h = _stable_hash(raw)
        logprobs = {"content": [
            {"token": f"t{i}", "logprob": -0.05 * (1 + (h >> i) % 5)}
            for i in range(4)
        ]}
        if "NOLOGPROBS" in content:
            logprobs = None
        return 200, {"choices": [{
            "message": {"content": raw},
            "finish_reason": "stop",
            "logprobs": logprobs,
        }]}
