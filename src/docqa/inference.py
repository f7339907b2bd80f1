"""Answer-string decoding from begin/end probability grids."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import ARTICLES, DocumentQuestionPair
from .labeling import SpanLabel
from .probability import LogProbGrid, logsumexp_runs

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


@dataclass(frozen=True)
class Candidates:
    """The candidate spans of one document, grouped by normalized string.

    Groups are numbered in order of first sight.  Candidates are stored
    sorted stably by group, so each group's mentions form one run
    log_p[heads[g] : heads[g] + sizes[g]] in candidate order, and triples
    holds their (paragraph, begin, end) rows in the same order.  keys[g] is
    group g's string as word ids into words, zero padded; id 0 is "".
    """

    words: tuple[str, ...]
    keys: np.ndarray
    log_p: np.ndarray
    triples: np.ndarray
    heads: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def text(self, g: int) -> str:
        return " ".join(self.words[i] for i in self.keys[g].tolist() if i)

    def scores(self, aggregation: AnswerAggregation) -> np.ndarray:
        """Each group's pooled log score: the maximum of its mentions, or
        probability.logsumexp over them in candidate order."""
        if not len(self):
            return np.empty(0)
        if aggregation is AnswerAggregation.MAX:
            return np.maximum.reduceat(self.log_p, self.heads)
        return logsumexp_runs(self.log_p, self.heads)

    def best(self, aggregation: AnswerAggregation) -> Prediction:
        """The top-scoring string, ties to the smallest, with its spans in order."""
        scores = self.scores(aggregation)
        if not scores.size:
            raise InferenceError("no candidate answer string")
        tied = {g: self.text(g) for g in np.flatnonzero(scores == scores.max()).tolist()}
        winner = min(tied, key=tied.__getitem__)
        head = self.heads[winner]
        mentions = self.triples[head : head + self.sizes[winner]].tolist()
        support = tuple(
            SpanLabel(k, b, e, matched_string=tied[winner]) for k, b, e in sorted(map(tuple, mentions))
        )
        return Prediction(answer=tied[winner], score=float(scores[winner]), support=support)


def candidates(
    probs: LogProbGrid,
    pair: DocumentQuestionPair,
    top_k: int | None = DEFAULT_TOP_K,
    max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH,
) -> Candidates:
    """Every paragraph's candidate spans at once, grouped by normalized string.

    Rank: one stable argsort ranks the begins and the ends of every paragraph,
    ties to the earlier position.  Pair: each of the top_k ranked begins of a
    paragraph takes the top_k ranked ends among its next max_answer_length
    positions, in end rank order, so candidates run by paragraph, then begin
    rank, then end rank.  Key: each candidate's string is its row of
    normalized word ids, gathered through the pair's WordTable, with empty
    words and leading ARTICLES dropped; spans left with no word are skipped,
    and equal rows form one group.  top_k=None takes every position.
    """
    counts = probs.token_counts()
    if counts != pair.paragraph_lengths():
        raise InferenceError("probability grid does not match the document")
    n, longest = len(counts), max(counts)
    top = longest if top_k is None else min(top_k, longest)
    span = min(max_answer_length, longest)
    width = longest + span  # room in a row for a window from any position
    lengths = np.array(counts)[:, None]
    # Rank: begin and end log probabilities padded to (2, n, longest).  The
    # pads read the null slot and become NaN, which sorts after every position.
    at = np.minimum(np.arange(longest), lengths)
    table = probs.vector[np.reshape(probs.offsets[: 2 * n], (2, n, 1)) + at]
    table[:, at == lengths] = np.nan
    ranked = np.argsort(-table, axis=-1, kind="stable")[..., :top]
    begins = ranked[0]
    # Pair: the end ranks over each begin's window of span positions.  A pad,
    # a position past its row and one outside the top rank at or after the
    # row's limit.
    end_rank = np.full((n, width), longest)
    end_rank[np.arange(n)[:, None], ranked[1]] = np.arange(top)
    windows = (np.arange(n) * width)[:, None, None] + begins[:, :, None] + np.arange(span)
    rank = end_rank.ravel()[windows]
    is_end = rank < np.minimum(lengths, top)[:, :, None]
    # Key: every position's normalized word as an id into the document's
    # distinct normalized words, read from the pair's word table.
    vocab = {"": 0}
    key_of = [vocab.setdefault(word, len(vocab)) for word in pair.table.normalized]
    word_at = np.zeros(n * width, np.min_scalar_type(len(vocab)))
    word_at.reshape(n, width)[np.arange(width) < lengths] = np.take(key_of, pair.table.ids)
    words = word_at[windows]
    nonempty = words != 0
    article = np.array([word in ARTICLES for word in vocab])
    kept = nonempty & np.logical_or.accumulate(nonempty & ~article[words], axis=-1)
    n_words = np.cumsum(kept, axis=-1)
    compact = np.zeros_like(words)  # each window's kept words, moved to its front
    k, i, d = np.nonzero(kept)
    compact[k, i, n_words[k, i, d] - 1] = words[k, i, d]
    # Pair each begin with its ends in rank order, skipping spans with no word.
    rank[~(is_end & (n_words > 0))] = longest
    rank.sort(axis=-1)
    k, i, d = np.nonzero(rank < longest)
    b = begins[k, i]
    e = ranked[1, k, rank[k, i, d]]
    keys = np.where(np.arange(span) < n_words[k, i, e - b][:, None], compact[k, i], 0)
    _, first, inverse = np.unique(
        keys.view(np.dtype((np.void, keys.strides[0]))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    group = np.argsort(np.argsort(first))[inverse]  # numbered in order of first sight
    by_group = np.argsort(group, kind="stable")
    sizes = np.bincount(group, minlength=len(first))
    return Candidates(
        words=tuple(vocab),
        keys=keys[np.sort(first)],
        log_p=(table[0, k, b] + table[1, k, e])[by_group],
        triples=np.stack([k, b, e], axis=1)[by_group],
        heads=np.cumsum(sizes) - sizes,
        sizes=sizes,
    )


def score_strings(
    probs: LogProbGrid,
    pair: DocumentQuestionPair,
    aggregation: AnswerAggregation,
    top_k: int | None = DEFAULT_TOP_K,
    max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH,
) -> dict[str, float]:
    """Aggregate log score per candidate answer string, in order of first sight.

    top_k=None scores every span up to the length cap.
    """
    found = candidates(probs, pair, top_k, max_answer_length)
    texts = [found.text(g) for g in range(len(found))]
    return dict(zip(texts, found.scores(aggregation).tolist()))


def predict(
    probs: LogProbGrid, pair: DocumentQuestionPair, spec: InferenceSpec
) -> Prediction:
    """Decode the best answer string from top-k begin/end candidates.

    Candidate spans come from the top_k begin and top_k end positions of each
    paragraph, keep begin <= end within the length cap, skip null outcomes,
    and pool document-wide by normalized string.  Score ties break toward the
    lexicographically smallest string.
    """
    found = candidates(probs, pair, spec.top_k, spec.max_answer_length)
    return found.best(spec.aggregation)


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
    return candidates(probs, pair, None, max_answer_length).best(aggregation)
