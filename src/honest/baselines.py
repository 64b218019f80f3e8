"""Non-neural baseline confidence estimators: token-probability pooling,
yes/no self-asking, and K-nearest-neighbor search over training requirements
(BM25 or embedding cosine).

Scores are added left to right, the order ``sum()`` used before CPython 3.12
compensated it, so every interpreter gives the same bits."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Sequence

from .client import (
    CODE_JUDGE_PROMPT,
    REQUIREMENT_JUDGE_PROMPT,
    SamplingConfig,
    ask_yes_no,
)
from .embeddings import (EmbeddingProviderConfig, EmbeddingVector, cosine, embed_text,
                         prefetch, text_tokens)
from .errors import EmptyCorpus, EmptyInput, MissingLogprobs, SingleClass
from .evaluation import rank_auroc
from .model import Origin, Program

BM25_K1 = 1.2
BM25_B = 0.75

K_SWEEP = (1, 3, 5, 10, 20)


def _require_probs(origins: Sequence[Origin]) -> None:
    if not origins:
        raise EmptyInput("no generation records")
    for o in origins:
        if not o.token_probs:
            raise MissingLogprobs("record without token probabilities")


def avg_prob(origins: Sequence[Origin]) -> float:
    """Mean of all token probabilities pooled across the programs' origins."""
    _require_probs(origins)
    probs = [p for o in origins for p in o.token_probs]
    return reduce(add, probs, 0.0) / len(probs)


def product_prob(origins: Sequence[Origin]) -> float:
    """Per-program probability product (log space), averaged across programs."""
    _require_probs(origins)
    products = [math.exp(reduce(add, map(math.log, o.token_probs), 0.0)) for o in origins]
    return reduce(add, products, 0.0) / len(products)


def self_ask_code(requirement: str, programs: Sequence[Program],
                  config: SamplingConfig) -> float:
    """Mean Yes-probability over per-program correctness judgments."""
    if not programs:
        raise EmptyInput("no programs to judge")
    scores = [
        ask_yes_no(CODE_JUDGE_PROMPT.format(requirement=requirement,
                                            program=p.source), config)
        for p in programs
    ]
    return reduce(add, scores, 0.0) / len(scores)


def self_ask_requirement(requirement: str, config: SamplingConfig) -> float:
    return ask_yes_no(REQUIREMENT_JUDGE_PROMPT.format(requirement=requirement),
                      config)


@dataclass(frozen=True)
class KnnConfig:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class Bm25Index:
    """Okapi BM25 over tokenized requirements with passed/failed labels."""

    documents: list[list[str]] = field(default_factory=list)
    labels: list[bool] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.documents)
        avg_doc_len = sum(map(len, self.documents)) / n if n else 0.0
        postings: dict[str, list[tuple[int, int, float]]] = {}
        for doc_id, doc in enumerate(self.documents):
            length_norm = BM25_K1 * (1.0 - BM25_B
                                     + BM25_B * len(doc) / (avg_doc_len or 1.0))
            for term, freq in Counter(doc).items():
                postings.setdefault(term, []).append((doc_id, freq, length_norm))
        # term -> (doc, the term's share of that doc's score) in corpus order;
        # a term's document frequency is the length of its list
        self._postings: dict[str, list[tuple[int, float]]] = {}
        for term, docs in postings.items():
            idf = math.log(1.0 + (n - len(docs) + 0.5) / (len(docs) + 0.5))
            self._postings[term] = [
                (doc_id, idf * freq * (BM25_K1 + 1) / (freq + length_norm))
                for doc_id, freq, length_norm in docs]

    @classmethod
    def build(cls, requirements: Sequence[str],
              labels: Sequence[bool]) -> "Bm25Index":
        return cls(documents=[text_tokens(r) for r in requirements],
                   labels=list(labels))

    def __len__(self) -> int:
        return len(self.documents)

    def scores(self, requirement: str) -> list[float]:
        """BM25 of the requirement against every stored one, in corpus order,
        a query term at a time: each document adds its share of each query
        token it holds, in query order, as a per-document loop would."""
        totals = [0.0] * len(self.documents)
        for term in text_tokens(requirement):
            for doc_id, share in self._postings.get(term, ()):
                totals[doc_id] += share
        return totals


@dataclass
class EmbeddingCorpus:
    """Pre-embedded requirements with labels for embedding K-NNS."""

    vectors: list[EmbeddingVector]
    labels: list[bool]
    provider: EmbeddingProviderConfig

    @classmethod
    def build(cls, requirements: Sequence[str], labels: Sequence[bool],
              provider: EmbeddingProviderConfig) -> "EmbeddingCorpus":
        prefetch(requirements, provider)
        return cls(vectors=[embed_text(r, provider) for r in requirements],
                   labels=list(labels), provider=provider)

    def __len__(self) -> int:
        return len(self.vectors)

    def scores(self, requirement: str) -> list[float]:
        """Cosine of the requirement's embedding with every stored vector."""
        query_vec = embed_text(requirement, self.provider)
        return [cosine(query_vec, v) for v in self.vectors]


def _ranked_labels(requirement: str, index: Bm25Index | EmbeddingCorpus,
                   held_out: int = -1) -> list[bool]:
    """The stored labels, most similar requirement first, leaving out position
    *held_out*; score ties keep corpus insertion order."""
    if len(index) == 0:
        raise EmptyCorpus("no stored requirements")
    scores = index.scores(requirement)
    # a stable sort stays stable reversed: equal scores keep corpus order
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    return [index.labels[i] for i in order if i != held_out]


def _passed_fraction(ranked: Sequence[bool], config: KnnConfig) -> float:
    k = min(config.k, len(ranked))
    return sum(ranked[:k]) / k


def knn_confidence(requirement: str, index: Bm25Index | EmbeddingCorpus,
                   config: KnnConfig) -> float:
    """Fraction of passed labels among the k most similar stored requirements.

    Score ties are broken by corpus insertion order; k is clamped to the
    corpus size so tiny corpora never error.
    """
    return _passed_fraction(_ranked_labels(requirement, index), config)


def tune_k(train_queries: Sequence[str], train_labels: Sequence[bool],
           index: Bm25Index | EmbeddingCorpus) -> int:
    """Pick k from K_SWEEP by leave-one-out training AUROC, smallest k on ties.

    The index holds the training requirements in query order, so query q is
    ranked against every stored requirement but position q: it cannot find
    itself, though a copy stored elsewhere still counts. Each query is ranked
    once; every k reads a prefix. A single requirement has no neighbour and
    one label has no AUROC, so it gets the first k.
    """
    if len(index) == 1:
        return K_SWEEP[0]
    ranked = [_ranked_labels(query, index, held_out=q)
              for q, query in enumerate(train_queries)]
    best_k, best_score = K_SWEEP[0], -1.0
    for k in K_SWEEP:
        cfg = KnnConfig(k=k)
        try:
            score = rank_auroc([_passed_fraction(r, cfg) for r in ranked],
                               train_labels)
        except SingleClass:
            score = 0.5
        if score > best_score:
            best_k, best_score = k, score
    return best_k
