"""A request that fails below the reply's JSON shape (the connection drops,
the status line is not HTTP, the body is cut short or is not JSON, the server
stalls) counts as a failed attempt: each ends in the endpoint's typed error
after exactly ``retries + 1`` connections, and nothing else escapes."""
import socket
import threading

import pytest

from honest.client import SamplingConfig, sample_programs
from honest.embeddings import EmbeddingProviderConfig, ProviderKind, prefetch
from honest.errors import EndpointError, ProviderUnavailable
from honest.model import Language

RETRIES = 2
TIMEOUT = 0.2  # the chat request timeout; the server stalls well past it
STALL = 2.0


def _read_request(conn):
    """Read one request, headers and Content-Length body, so that closing the
    socket afterwards sends a FIN and not a reset."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = next((int(line.split(b":", 1)[1]) for line in head.split(b"\r\n")
                   if line.lower().startswith(b"content-length:")), 0)
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            return
        body += chunk


def _ok(body):
    return (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n%s" % (len(body), body))


# What the server does after reading each request, by case.
REPLIES = {
    "close-before-status-line": None,
    "bad-status-line": b"NOT-HTTP garbage\r\n\r\n",
    # a whole JSON value, cut short of its Content-Length
    "short-body": (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                   b"Content-Length: 100\r\nConnection: close\r\n\r\n" + b'{"data":1}'),
    "non-json-body": _ok(b"this is not json"),
    "stall": "stall",
}


class RawServer:
    """A listening socket that answers every connection with one case of
    ``REPLIES`` and counts the connections it accepts."""

    def __init__(self, case):
        self.case = case
        self.reply = REPLIES[case]
        self.connections = 0
        self._done = threading.Event()
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.endpoint = f"http://127.0.0.1:{self._sock.getsockname()[1]}/v1"
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def _accept(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:  # the listening socket was shut down
                return
            self.connections += 1
            handler = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self._threads.append(handler)
            handler.start()

    def _serve(self, conn):
        with conn:
            _read_request(conn)
            if self.reply == "stall":
                self._done.wait(STALL)
            elif self.reply is not None:
                conn.sendall(self.reply)

    def stop(self):
        self._done.set()
        self._sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self._sock.close()
        for thread in self._threads:
            thread.join(timeout=STALL + 1)
            assert not thread.is_alive()


@pytest.fixture
def server(request):
    raw = RawServer(request.param)
    yield raw
    raw.stop()


def sample(endpoint):
    config = SamplingConfig(endpoint=endpoint, model="m", n=1, parallelism=1,
                            retries=RETRIES, backoff=0.0, timeout=TIMEOUT)
    return sample_programs("reverse a string", Language.PYTHON, config)


def embed(endpoint):
    config = EmbeddingProviderConfig(kind=ProviderKind.REMOTE, endpoint=endpoint,
                                     model_name="m", retries=RETRIES, backoff=0.0)
    prefetch(["reverse a string"], config)


@pytest.mark.parametrize("server", list(REPLIES), indirect=True)
def test_chat_transport_failure_is_retried_then_endpoint_error(server):
    with pytest.raises(EndpointError) as raised:
        sample(server.endpoint)
    assert server.connections == RETRIES + 1
    assert server.case == "non-json-body" or "malformed reply" not in str(raised.value)


# not "stall": the /embeddings request timeout is a fixed 60 s
@pytest.mark.parametrize("server", [case for case in REPLIES if case != "stall"],
                         indirect=True)
def test_embeddings_transport_failure_is_retried_then_provider_unavailable(server):
    with pytest.raises(ProviderUnavailable) as raised:
        embed(server.endpoint)
    assert server.connections == RETRIES + 1
    assert server.case == "non-json-body" or "malformed reply" not in str(raised.value)
