"""Outside-in tracing: wrap each layer's public functions at the names their
callers look up, record one span per call, and compute self times.

Nothing inside ``honest`` changes. ``Tracer.install`` replaces every module
attribute in the ``honest`` package that refers to a traced function, so a
call through ``honest.confidence.sim_text`` and one through
``honest.similarity.sim_text`` are both seen. ``Tracer.restore`` puts every
original back. A traced name that a later version no longer has is skipped
and simply reports zero calls.
"""
from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# (home module, function name) -> span name. The span name is the layer
# module plus the function, as the per-layer metrics name them.
TRACED = [
    ("honest.model", "tokenize"),
    ("honest.analysis", "parse_cst"),
    ("honest.analysis", "extract_subtrees"),
    ("honest.analysis", "extract_dataflow"),
    ("honest.embeddings", "embed"),
    ("honest.similarity", "sim_text"),
    ("honest.similarity", "sim_syntax"),
    ("honest.similarity", "sim_dataflow"),
    ("honest.similarity", "sim_embed"),
    ("honest.similarity", "sim_hybrid"),
    ("honest.confidence", "estimate_confidence"),
    ("honest.confidence", "modality_means"),
    ("honest.confidence", "tune_weights_from_modality_means"),
    ("honest.evaluation", "auroc"),
    ("honest.evaluation", "aucpr"),
    ("honest.evaluation", "threshold_sweep"),
    ("honest.baselines", "knn_confidence"),
    ("honest.baselines", "tune_k"),
    ("honest.dataset", "load_samples"),
    ("honest.dataset", "load_benchmark"),
    ("honest.client", "sample_programs"),
    ("honest.gate", "decide"),
    ("honest.cli", "main"),
]

# Names of the spans wrapped around HTTP requests, keyed by URL suffix.
HTTP_SPANS = {"/embeddings": "embeddings.http", "/chat/completions": "client.http"}


def span_name(module: str, function: str) -> str:
    return module.split(".", 1)[1] + "." + function


class _ModuleProxy:
    """Stands in for a module inside one ``honest`` module, overriding a few
    attributes and delegating everything else."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        # (span id, parent id, name, op, start, end); appended when a span ends
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]):
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to the main thread's open span
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = self._parent(stack)
        op = self.op
        self.count(name)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, op, start, end))

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "honest" or n.startswith("honest."))]
        for home, function in TRACED:
            original = getattr(sys.modules.get(home), function, None)
            if original is None:
                continue
            wrapper = self._wrapper(span_name(home, function), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

        analysis = sys.modules.get("honest.analysis")
        if analysis is not None and hasattr(analysis, "ast"):
            real_parse = analysis.ast.parse

            def counted_parse(*args, **kwargs):
                self.count("analysis.ast_parse")
                return real_parse(*args, **kwargs)

            self._patch(analysis, "ast", _ModuleProxy(analysis.ast, parse=counted_parse))

        import requests.sessions

        real_request = requests.sessions.Session.request
        tracer = self

        def traced_request(session, method, url, *args, **kwargs):
            name = next((span for suffix, span in HTTP_SPANS.items()
                         if str(url).endswith(suffix)), "http.other")
            return tracer.call(name, real_request, session, method, url, *args, **kwargs)

        self._patch(requests.sessions.Session, "request", traced_request)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> seconds not covered by its child spans."""
        children: dict[int, list[tuple]] = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append(span)
        out = {}
        for span_id, _, _, _, start, end in self.spans:
            covered = union_length([(max(s[4], start), min(s[5], end))
                                    for s in children.get(span_id, ())])
            out[span_id] = (end - start) - covered
        return out


def union_length(intervals) -> float:
    total = 0.0
    reach = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total
