"""Answer-string decoding from begin/end probability grids."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import DocumentQuestionPair
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
        _check_sizes(self.top_k, self.max_answer_length)


def _check_sizes(top_k: int | None, max_answer_length: int) -> None:
    """Reject a top_k or answer length cap below one; top_k=None is every position."""
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be at least 1")
    if max_answer_length < 1:
        raise ValueError("max_answer_length must be at least 1")


@dataclass
class Prediction:
    """The winning answer string with its pooled log score."""

    answer: str
    score: float


@dataclass(frozen=True)
class Candidates:
    """The candidate spans of one document, grouped by normalized string.

    Equal strings are found by one lexsort of the candidates' key rows, and
    groups are numbered in order of first sight.  Candidates are stored
    sorted stably by group, so each group's mentions form one run
    log_p[heads[g] : heads[g + 1]] in candidate order, the last running to
    the end.  keys[g] is group g's string as keys into words, the pair's
    WordTable.keys in key order, zero padded; key 0 is "".
    """

    words: tuple[str, ...]
    keys: np.ndarray
    log_p: np.ndarray
    heads: np.ndarray

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
        """The top-scoring string, ties to the smallest, with its score."""
        scores = self.scores(aggregation)
        if not scores.size:
            raise InferenceError("no candidate answer string")
        tied = {g: self.text(g) for g in np.flatnonzero(scores == scores.max()).tolist()}
        winner = min(tied, key=tied.__getitem__)
        return Prediction(answer=tied[winner], score=float(scores[winner]))


def _rank_top(order: np.ndarray, top: int) -> np.ndarray:
    """The first top positions of every row's stable ascending order of the
    last axis: np.argsort(order, kind="stable")[..., :top] for keys without
    NaN.  Keys greater than a row's top-th smallest, found by np.partition,
    are set to +inf in place.  At least top keys stay as they were, in the
    same relative order, so the stable sort ranks them first, and it gallops
    over the masked rest instead of ordering it.
    """
    kth = np.partition(order, top - 1, axis=-1)[..., top - 1 : top]
    order[order > kth] = np.inf
    return np.argsort(order, axis=-1, kind="stable")[..., :top]


def candidates(
    probs: LogProbGrid,
    pair: DocumentQuestionPair,
    top_k: int | None = DEFAULT_TOP_K,
    max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH,
) -> Candidates:
    """Every paragraph's candidate spans at once, grouped by normalized string.

    Rank: each paragraph's begins and ends are ranked by log probability,
    ties to the earlier position, and the first top kept: one stable argsort
    over the padded (2, paragraphs, longest) table, after masking every
    position whose log probability falls below its row's top-th largest
    (see _rank_top).
    Pair: each of the top_k ranked begins of a paragraph takes the top_k
    ranked ends among its next max_answer_length positions, in end rank
    order, so candidates run by paragraph, then begin rank, then end rank.
    Key: each candidate's string is its row of normalized word keys, read
    from the pair's WordTable (key_of of every position, gathered once per
    call), with empty words and leading ARTICLES dropped; spans left with no
    word are skipped.  Group: one np.lexsort of the rows puts equal rows
    together, in candidate order, and the groups are numbered by first sight.
    top_k=None takes every position.  A top_k or max_answer_length below one
    raises ValueError, as InferenceSpec does; a grid that does not match the
    pair, or that holds NaN, raises InferenceError.
    """
    _check_sizes(top_k, max_answer_length)
    counts = probs.token_counts()
    if counts != pair.paragraph_lengths():
        raise InferenceError("probability grid does not match the document")
    if np.isnan(probs.vector).any():
        raise InferenceError("probability grid holds NaN")
    n, longest = len(counts), max(counts)
    top = longest if top_k is None else min(top_k, longest)
    span = min(max_answer_length, longest)
    width = longest + span  # room in a row for a window from any position
    lengths = np.array(counts)[:, None]
    # Rank: begin and end log probabilities padded to (2, n, longest).  The
    # pads read the null slot; their sort keys become +inf, which ranks them
    # after every position of their row.
    at = np.minimum(np.arange(longest), lengths)
    table = probs.vector[np.reshape(probs.offsets[: 2 * n], (2, n, 1)) + at]
    order = -table
    order[:, at == lengths] = np.inf
    ranked = _rank_top(order, top)
    begins = ranked[0]
    # Pair: the end ranks over each begin's window of span positions.  A pad,
    # a position past its row and one outside the top rank at or after the
    # row's limit.
    end_rank = np.full((n, width), longest)
    end_rank[np.arange(n)[:, None], ranked[1]] = np.arange(top)
    windows = (np.arange(n) * width)[:, None, None] + begins[:, :, None] + np.arange(span)
    rank = end_rank.ravel()[windows]
    is_end = rank < np.minimum(lengths, top)[:, :, None]
    # Key: every position's normalized word key, from the pair's word table.
    word_table = pair.table
    word_at = np.zeros(n * width, word_table.key_of.dtype)
    word_at.reshape(n, width)[np.arange(width) < lengths] = word_table.key_of[word_table.ids]
    words = word_at[windows]
    nonempty = words != 0
    kept = nonempty & np.logical_or.accumulate(nonempty & ~word_table.article[words], axis=-1)
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
    keys = compact[k, i] * (np.arange(span) < n_words[k, i, e - b][:, None])
    # Group: the rows in key order, equal rows in candidate order (lexsort is
    # stable), cut into runs where a row changes; the runs are then laid out
    # in order of their first candidate.
    by_key = np.lexsort(keys.T[::-1])
    rows = keys[by_key]
    cut = np.ones(len(rows) + 1, bool)  # before each run, and after the last
    cut[1:-1] = (rows[1:] != rows[:-1]).any(axis=1)
    bounds = np.flatnonzero(cut)
    first = by_key[bounds[:-1]]
    by_sight = np.argsort(first)
    sizes = np.diff(bounds)[by_sight]
    heads = np.cumsum(sizes) - sizes
    by_group = by_key[np.arange(len(rows)) + np.repeat(bounds[by_sight] - heads, sizes)]
    return Candidates(
        words=tuple(word_table.keys),
        keys=keys[first[by_sight]],
        log_p=(table[0, k, b] + table[1, k, e])[by_group],
        heads=heads,
    )


def score_strings(
    probs: LogProbGrid,
    pair: DocumentQuestionPair,
    aggregation: AnswerAggregation,
    top_k: int | None = DEFAULT_TOP_K,
    max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH,
) -> dict[str, float]:
    """Aggregate log score per candidate answer string, in order of first sight.

    top_k=None scores every span up to the length cap.  Bad sizes raise
    ValueError and a grid that holds NaN raises InferenceError, as candidates
    describes.
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
    lexicographically smallest string.  InferenceError is raised when no
    candidate has a word, and for a grid that does not match the pair or that
    holds NaN anywhere, null slots included: NaN has no place in a ranking.
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
    It raises InferenceError where predict does, a grid holding NaN included,
    and ValueError for a max_answer_length below one.
    """
    return candidates(probs, pair, None, max_answer_length).best(aggregation)
