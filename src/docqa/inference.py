"""Answer-string decoding from begin/end probability grids."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import DocumentQuestionPair, normalized_words, span_strings
from .labeling import SpanLabel
from .probability import LogProbGrid, logsumexp

DEFAULT_TOP_K = 20
DEFAULT_MAX_ANSWER_LENGTH = 8


class AnswerAggregation(Enum):
    """How multiple mentions of one answer string pool their probability."""

    MAX = "max"
    SUM = "sum"

    @classmethod
    def parse(cls, text: str) -> "AnswerAggregation":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown aggregation {text!r}; expected max or sum") from None


class InferenceError(RuntimeError):
    """No scoreable candidate answer exists for a pair."""


@dataclass(frozen=True)
class InferenceSpec:
    """Decoding configuration."""

    aggregation: AnswerAggregation = AnswerAggregation.SUM
    top_k: int = DEFAULT_TOP_K
    max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.max_answer_length < 1:
            raise ValueError("max_answer_length must be at least 1")


@dataclass
class Prediction:
    """The winning answer string with its log score and supporting spans."""

    answer: str
    score: float
    support: tuple[SpanLabel, ...]


def _top_positions(log_probs: np.ndarray, limit: int | None) -> np.ndarray:
    """Indices of the largest entries, ranked stably so smaller prefixes nest."""
    return np.argsort(-log_probs, kind="stable")[:limit]


def _pool(probs, pair, aggregation, top_k, max_answer_length):
    """Pool the candidate spans of every paragraph by normalized string.

    Returns the strings in order of first sight, their pooled log scores, and
    each candidate's string index and (paragraph, begin, end) row.
    """
    if probs.n_paragraphs != len(pair.paragraphs):
        raise InferenceError("probability grid does not match the document")
    texts, log_ps, triples = [], [], []
    for k, paragraph in enumerate(pair.paragraphs):
        begins = _top_positions(probs.log_begin[k][:-1], top_k)
        ends = _top_positions(probs.log_end[k][:-1], top_k)
        # row-major over ranked begins x ranked ends: the order SUM pools in
        offsets = ends[None, :] - begins[:, None]
        rows, cols = np.nonzero((offsets >= 0) & (offsets < max_answer_length))
        b, e = begins[rows], ends[cols]
        # Each distinct begin's strings run to the furthest end it pairs with;
        # every token those runs cover is normalized once.
        firsts = np.flatnonzero(np.diff(rows, prepend=-1))
        starts, stops = b[firsts], np.maximum.reduceat(e, firsts) + 1
        n = len(paragraph) + 1
        depth = np.cumsum(np.bincount(starts, minlength=n) - np.bincount(stops, minlength=n))
        covered = np.flatnonzero(depth).tolist()
        words = dict(zip(covered, normalized_words([paragraph.tokens[j] for j in covered])))
        runs = zip(starts.tolist(), stops.tolist())
        strings = {i: span_strings([words[j] for j in range(i, stop)]) for i, stop in runs}
        texts += [strings[i][d] for i, d in zip(b.tolist(), (e - b).tolist())]
        log_ps.append(probs.log_begin[k][b] + probs.log_end[k][e])
        triples.append(np.stack([np.full_like(b, k), b, e], axis=1))
    found = list(dict.fromkeys(filter(None, texts)))
    if not found:
        return found, np.empty(0), np.empty(0, np.intp), np.empty((0, 3), np.intp)
    ids = {text: g for g, text in enumerate(found)} | {"": -1}
    group = np.fromiter(map(ids.__getitem__, texts), np.intp, len(texts))
    keep = group >= 0
    group, log_p, triple = group[keep], np.concatenate(log_ps)[keep], np.concatenate(triples)[keep]
    # A stable sort keeps each string's mentions in candidate order.
    sizes = np.bincount(group)
    heads = np.cumsum(sizes) - sizes
    pooled = log_p[np.argsort(group, kind="stable")]
    if aggregation is AnswerAggregation.MAX:
        scores = np.maximum.reduceat(pooled, heads)
    else:
        # logsumexp of one entry is exactly that entry + 0.0
        scores = pooled[heads] + 0.0
        for g in np.flatnonzero(sizes > 1).tolist():
            scores[g] = logsumexp(pooled[heads[g] : heads[g] + sizes[g]])
    return found, scores, group, triple


def score_strings(
    probs: LogProbGrid,
    pair: DocumentQuestionPair,
    aggregation: AnswerAggregation,
    top_k: int | None = DEFAULT_TOP_K,
    max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH,
) -> dict[str, float]:
    """Aggregate log score per candidate answer string.

    top_k=None scores every span up to the length cap.
    """
    texts, scores, _, _ = _pool(probs, pair, aggregation, top_k, max_answer_length)
    return dict(zip(texts, scores.tolist()))


def _best(texts, scores, group, triple) -> Prediction:
    """The top-scoring string, ties to the smallest, with its spans in order."""
    if not texts:
        raise InferenceError("no candidate answer string")
    best = np.flatnonzero(scores == scores.max()).tolist()
    winner = min(best, key=texts.__getitem__)
    support = tuple(
        SpanLabel(k, b, e, matched_string=texts[winner])
        for k, b, e in sorted(map(tuple, triple[group == winner].tolist()))
    )
    return Prediction(answer=texts[winner], score=float(scores[winner]), support=support)


def predict(
    probs: LogProbGrid, pair: DocumentQuestionPair, spec: InferenceSpec
) -> Prediction:
    """Decode the best answer string from top-k begin/end candidates.

    Candidate spans come from the top_k begin and top_k end positions of each
    paragraph, keep begin <= end within the length cap, skip null outcomes,
    and pool document-wide by normalized string.  Score ties break toward the
    lexicographically smallest string.
    """
    return _best(*_pool(probs, pair, spec.aggregation, spec.top_k, spec.max_answer_length))


def exhaustive_predict(
    probs: LogProbGrid,
    pair: DocumentQuestionPair,
    aggregation: AnswerAggregation,
    max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH,
) -> Prediction:
    """Decode with every legal span considered.

    predict gives the same answer and score once top_k covers every position
    (top_k at least the longest paragraph).  With a smaller top_k its
    candidates are a subset of these, so its score never exceeds this one.
    """
    return _best(*_pool(probs, pair, aggregation, None, max_answer_length))
