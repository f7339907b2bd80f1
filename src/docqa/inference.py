"""Answer-string decoding from begin/end probability grids."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .corpus import DocumentQuestionPair, normalize_string
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
    order = np.argsort(-log_probs, kind="stable")
    if limit is not None:
        order = order[:limit]
    return order


def _candidate_spans(
    probs: LogProbGrid,
    top_k: int | None,
    max_answer_length: int,
) -> Iterable[tuple[int, int, int]]:
    for k, (log_begin, log_end) in enumerate(zip(probs.log_begin, probs.log_end)):
        begins = _top_positions(log_begin[:-1], top_k)
        ends = _top_positions(log_end[:-1], top_k)
        for b in begins:
            for e in ends:
                if b <= e < b + max_answer_length:
                    yield (k, int(b), int(e))


def _grouped_scores(
    probs: LogProbGrid,
    pair: DocumentQuestionPair,
    spans: Iterable[tuple[int, int, int]],
    aggregation: AnswerAggregation,
) -> dict[str, tuple[float, list[tuple[float, tuple[int, int, int]]]]]:
    groups: dict[str, list[tuple[float, tuple[int, int, int]]]] = {}
    for k, b, e in spans:
        text = normalize_string(pair.paragraphs[k].text(b, e))
        if not text:
            continue
        log_p = float(probs.log_begin[k][b] + probs.log_end[k][e])
        groups.setdefault(text, []).append((log_p, (k, b, e)))
    out = {}
    for text, members in groups.items():
        logs = np.array([m[0] for m in members])
        if aggregation is AnswerAggregation.SUM:
            score = float(logsumexp(logs))
        else:
            score = float(np.max(logs))
        out[text] = (score, members)
    return out


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
    grouped = _grouped_scores(
        probs, pair, _candidate_spans(probs, top_k, max_answer_length), aggregation
    )
    return {text: score for text, (score, _) in grouped.items()}


def _pick_winner(
    grouped: dict[str, tuple[float, list[tuple[float, tuple[int, int, int]]]]]
) -> Prediction:
    if not grouped:
        raise InferenceError("no candidate answer string")
    answer = min(grouped, key=lambda text: (-grouped[text][0], text))
    score, members = grouped[answer]
    support = tuple(
        SpanLabel(k, b, e, matched_string=answer)
        for _, (k, b, e) in sorted(members, key=lambda m: m[1])
    )
    return Prediction(answer=answer, score=score, support=support)


def predict(
    probs: LogProbGrid, pair: DocumentQuestionPair, spec: InferenceSpec
) -> Prediction:
    """Decode the best answer string from top-k begin/end candidates.

    Candidate spans come from the top_k begin and top_k end positions of each
    paragraph, keep begin <= end within the length cap, skip null outcomes,
    and pool document-wide by normalized string.  Score ties break toward the
    lexicographically smallest string.
    """
    if probs.n_paragraphs != len(pair.paragraphs):
        raise InferenceError("probability grid does not match the document")
    grouped = _grouped_scores(
        probs,
        pair,
        _candidate_spans(probs, spec.top_k, spec.max_answer_length),
        spec.aggregation,
    )
    return _pick_winner(grouped)


def exhaustive_predict(
    probs: LogProbGrid,
    pair: DocumentQuestionPair,
    aggregation: AnswerAggregation,
    max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH,
) -> Prediction:
    """Decode with every legal span considered; the top-k path must match this."""
    if probs.n_paragraphs != len(pair.paragraphs):
        raise InferenceError("probability grid does not match the document")
    grouped = _grouped_scores(
        probs,
        pair,
        _candidate_spans(probs, None, max_answer_length),
        aggregation,
    )
    return _pick_winner(grouped)
