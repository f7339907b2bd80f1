"""Answer-string decoding from begin/end probability grids."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import DocumentQuestionPair
from .probability import LogProbGrid, Runs, logsumexp_over

DEFAULT_TOP_K = 20
DEFAULT_MAX_ANSWER_LENGTH = 8
# _LOW_BYTES[size][n] keeps the low n keys of size bytes of a uint64 word.
_LOW_BYTES = {
    size: np.array([(1 << (8 * size * n)) - 1 for n in range(8 // size + 1)], np.uint64)
    for size in (1, 2, 4, 8)
}

# Decoding runs once per document on small arrays, so it calls array methods
# (a.take, a.nonzero) and ufunc reductions (np.maximum.reduce) directly:
# numpy's module wrappers (np.where, np.full, np.ones) and ndarray.max, .any
# and .sum each cost a Python frame before they reach C.

# The grid runs, the benchmark and the oracle diagnostic decode every grid
# under both aggregations, and building the candidates is the largest share
# of a decode, so candidates keeps what it builds with the read-only grid,
# at most once per pair, top_k and length cap.


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
    """The candidate spans of one document, in candidate order.

    Candidate c's string is the slice sequence[lo[c] : hi[c]] of the
    document's non-empty normalized word keys (SpanKeys.sequence), which
    index words, the pair's WordTable.keys in key order, and log_p[c] is its
    log probability.  windows is SpanKeys.windows, the keys read 8 bytes at
    a time.  Spans are grouped by string only where pooling reads
    the groups (see pooled); MAX needs none to find its best string.
    """

    words: tuple[str, ...]
    sequence: np.ndarray
    windows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    log_p: np.ndarray

    def text(self, c: int) -> str:
        return " ".join([self.words[w] for w in self.sequence[self.lo[c] : self.hi[c]].tolist()])

    def pooled(self, aggregation: AnswerAggregation) -> tuple[np.ndarray, np.ndarray]:
        """(first, scores): for each distinct string, its first candidate and
        its pooled log score, the maximum of its mentions or
        probability.logsumexp over them in candidate order.  Strings come in
        no meaningful order (that of their packed rows), not of first sight.

        Equal strings are found by one stable sort of the candidates' key
        rows (see _packed_rows), so each string's mentions form one run in
        candidate order.  A row of one word sorts as one column; wider rows
        go through np.lexsort.  Only strings with two or more mentions go
        through logsumexp_over: the log-sum-exp of one entry x is 0.0 + x,
        bit for bit, -inf included.
        """
        if not len(self.log_p):
            return np.empty(0, np.intp), np.empty(0)
        packed = _packed_rows(self.sequence, self.windows, self.lo, self.hi)
        if packed.ndim == 1:
            by_key = packed.argsort(kind="stable")
            rows = packed[by_key]
            differs = rows[1:] != rows[:-1]
        else:
            by_key = np.lexsort(packed.T)
            rows = packed[by_key]
            differs = np.logical_or.reduce(rows[1:] != rows[:-1], axis=1)
        cut = np.empty(len(rows) + 1, bool)  # before each run, and after the last
        cut[0] = cut[-1] = True
        cut[1:-1] = differs
        bounds = cut.nonzero()[0]
        heads = bounds[:-1]
        log_p = self.log_p[by_key]
        first = by_key[heads]
        if aggregation is AnswerAggregation.MAX:
            return first, np.maximum.reduceat(log_p, heads)
        scores = log_p[heads] + 0.0  # as logsumexp of one entry, which turns -0.0 into 0.0
        sizes = bounds[1:] - heads
        shared = sizes > 1
        if np.logical_or.reduce(shared):
            lengths = sizes[shared]
            edges = np.empty(len(lengths) + 1, np.intp)  # the shared runs' bounds, packed
            edges[0] = 0
            np.add.accumulate(lengths, out=edges[1:])
            scores[shared] = logsumexp_over(log_p[shared.repeat(sizes)], Runs.of(edges))
        return first, scores

    def best(self, aggregation: AnswerAggregation) -> Prediction:
        """The top-scoring string, ties to the smallest, with its score.

        Under MAX a string's score is that of its best mention, so the winner
        is the smallest string among the top-scoring mentions, found without
        grouping.
        """
        if not len(self.log_p):
            raise InferenceError("no candidate answer string")
        if aggregation is AnswerAggregation.MAX:
            top = np.maximum.reduce(self.log_p)
            tied = (self.log_p == top).nonzero()[0].tolist()
            return Prediction(answer=min({self.text(c) for c in tied}), score=float(top))
        first, scores = self.pooled(aggregation)
        top = np.maximum.reduce(scores)
        tied = (scores == top).nonzero()[0].tolist()
        return Prediction(answer=min(self.text(first[g]) for g in tied), score=float(top))


def _packed_rows(
    sequence: np.ndarray, windows: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Each span's key row: its keys sequence[lo : hi], zero padded to whole
    8-byte words and read as uint64.  Keys are never 0, so two rows are equal
    exactly when their strings are.

    When every row fits one word (up to 8 uint8 or 4 uint16 keys) the rows
    come as one column.  Each is the span's window, windows[lo], the 8 bytes
    from its first key on read as one little-endian uint64 (SpanKeys.windows),
    ANDed with the mask that keeps its own keys' bytes, the low ones
    (_LOW_BYTES[size][length]).  Wider
    rows come as a (spans, words) table read by one clipped gather of the
    sequence, zeroed from each span's hi on.
    """
    size = sequence.itemsize
    per_word = 8 // size
    lengths = hi - lo
    longest = int(np.maximum.reduce(lengths))
    if longest <= per_word:
        return windows.take(lo) & _LOW_BYTES[size].take(lengths)
    at = lo[:, None] + np.arange(-(-longest // per_word) * per_word)
    rows = sequence.take(at, mode="clip")
    rows[at >= hi[:, None]] = 0
    return rows.view(np.uint64)


def _rank_top(order: np.ndarray, top: int) -> np.ndarray:
    """The first top positions of every row's stable ascending order of the
    last axis: np.argsort(order, kind="stable")[..., :top] for keys without
    NaN.  Keys greater than a row's top-th smallest, found by partitioning a
    copy, are set to +inf in place.  At least top keys stay as they were, in
    the same relative order, so the stable sort ranks them first, and it
    gallops over the masked rest instead of ordering it.
    """
    kth = order.copy()
    kth.partition(top - 1, axis=-1)
    order[order > kth[..., top - 1 : top]] = np.inf
    return order.argsort(axis=-1, kind="stable")[..., :top]


def candidates(
    probs: LogProbGrid,
    pair: DocumentQuestionPair,
    top_k: int | None = DEFAULT_TOP_K,
    max_answer_length: int = DEFAULT_MAX_ANSWER_LENGTH,
) -> Candidates:
    """Every paragraph's candidate spans at once, each keyed by a slice of the
    document's word sequence.

    Rank: each paragraph's begins and ends are ranked by log probability,
    ties to the earlier position, and the first top kept: one stable argsort
    over the padded (2, paragraphs, longest) table, after masking every
    position whose log probability falls below its row's top-th largest
    (see _rank_top).
    Pair: each of a paragraph's top_k ranked ends is compared with each of
    its top_k ranked begins' window, the positions from the begin's first
    word to its max_answer_length-th position, within the paragraph: top_k
    squared booleans per paragraph, read out in order, so candidates run by
    paragraph, then begin rank, then end rank.
    Key: a span's string is the non-empty words from its begin's first word
    (the first at or after it that is neither empty nor one of ARTICLES) to
    its end, a slice of the sequence of non-empty words; spans with no such
    first word are skipped.
    Only the ranking and pairing depend on probs.  The padded table's gather
    index and pad mask, and the span keys, are read from the pair's WordTable
    (grid_layout and span_keys), which lays them out once per pair.
    top_k=None takes every position.  A top_k or max_answer_length below one
    raises ValueError, as InferenceSpec does; a grid that does not match the
    pair, or that holds NaN, raises InferenceError, on every call.

    The candidates are kept with probs, whose log probabilities cannot
    change, under the pair's WordTable (by identity), top_k and
    max_answer_length: a second call with the same arguments returns the same
    read-only Candidates without building them again.  top_k=None and a top_k
    covering every position are kept apart.  Nothing is kept when building
    raises.
    """
    _check_sizes(top_k, max_answer_length)
    key = (pair.table, top_k, max_answer_length)
    found = probs._decoded.get(key)
    if found is None:
        found = _build_candidates(probs, pair, top_k, max_answer_length)
        for array in (found.lo, found.hi, found.log_p):
            array.flags.writeable = False
        probs._decoded[key] = found
    return found


def _build_candidates(
    probs: LogProbGrid, pair: DocumentQuestionPair, top_k: int | None, max_answer_length: int
) -> Candidates:
    """The body of candidates, run once per kept entry."""
    layout, keys = pair.table.grid_layout, pair.table.span_keys
    if probs.shape is not layout.shape and probs.shape != layout.shape:
        raise InferenceError("probability grid does not match the document")
    # maximum propagates NaN, so the largest entry is NaN exactly when one is.
    if np.isnan(np.maximum.reduce(probs.vector)):
        raise InferenceError("probability grid holds NaN")
    n, longest = layout.pad.shape
    top = longest if top_k is None or top_k > longest else top_k
    # Rank: begin and end log probabilities padded to (2, n, longest).  The
    # pads read the null slot; their sort keys become +inf, which ranks them
    # after every position of their row.
    table = probs.vector.take(layout.gather)
    order = -table
    order[:, layout.pad] = np.inf
    begins, ends = _rank_top(order, top)
    rows = np.arange(n)[:, None]
    # Key: each ranked begin's first word over the document's positions,
    # paragraphs concatenated.  A pad begin lands past its paragraph; past
    # the last one, the clipped take reads the last position's first word.
    bounds = np.array(pair.table.starts)
    starts = bounds[:-1, None]
    flat_begins = starts + begins
    lead = keys.first.take(flat_begins, mode="clip")
    # Pair: (n, top, top) booleans, each ranked end against each ranked
    # begin's window, which runs from its first word, never before the begin
    # itself, to its length cap or its paragraph's end, so no pad pairs.  In
    # C order the pairs run by paragraph, then begin rank, then end rank.
    flat_ends = starts + ends
    at = flat_ends[:, None, :]
    paired = np.maximum(lead, flat_begins)[:, :, None] <= at
    paired &= at < np.minimum(flat_begins + max_answer_length, bounds[1:, None])[:, :, None]
    found = paired.ravel().nonzero()[0]
    begin = found // top  # into the flattened ranked begins
    end = begin - begin % top + found % top  # into the flattened ranked ends
    return Candidates(
        words=tuple(pair.table.keys),
        sequence=keys.sequence,
        windows=keys.windows,
        lo=keys.upto.take(lead.take(begin)) - 1,
        hi=keys.upto[flat_ends.take(end)],
        log_p=table[0, rows, begins].take(begin) + table[1, rows, ends].take(end),
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
    first, scores = found.pooled(aggregation)
    by_sight = first.argsort()
    return dict(zip(map(found.text, first[by_sight].tolist()), scores[by_sight].tolist()))


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
