"""Weak span labeling: find paragraph spans consistent with the answer set."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import (
    DatasetSchemaError,
    DocumentQuestionPair,
    normalize_string,
    read_json_lines,
    write_json_lines,
)
from .metrics import lcs_row_step, rouge_f

DEFAULT_MAX_SPAN_LENGTH = 8
DEFAULT_ROUGE_THRESHOLD = 0.5


@dataclass(frozen=True)
class SpanLabel:
    """An inclusive token span [begin, end] inside one paragraph."""

    paragraph: int
    begin: int
    end: int
    matched_string: str = ""

    def __post_init__(self):
        if self.paragraph < 0:
            raise ValueError("paragraph index must be non-negative")
        if not 0 <= self.begin <= self.end:
            raise ValueError("need 0 <= begin <= end")

    def triple(self) -> tuple[int, int, int]:
        return (self.paragraph, self.begin, self.end)


_TRIPLE = attrgetter("paragraph", "begin", "end")


@dataclass(frozen=True)
class ConsistentLabelSet:
    """All weakly labeled spans of one pair, in (paragraph, begin, end) order.

    The constructor sorts the spans.  A negative n_paragraphs, a span whose
    paragraph is not below n_paragraphs, or a (paragraph, begin, end) that
    repeats raises ValueError.
    """

    n_paragraphs: int
    spans: tuple[SpanLabel, ...]

    def __post_init__(self):
        if self.n_paragraphs < 0:
            raise ValueError("n_paragraphs must not be negative")
        spans = sorted(self.spans, key=_TRIPLE)
        triples = list(map(_TRIPLE, spans))
        if triples and triples[-1][0] >= self.n_paragraphs:
            raise ValueError("span paragraph index out of range")
        if len(set(triples)) < len(triples):
            repeat = next(b for a, b in zip(triples, triples[1:]) if a == b)
            raise ValueError(f"span {list(repeat)} repeats")
        object.__setattr__(self, "spans", tuple(spans))

    @property
    def total_spans(self) -> int:
        return len(self.spans)

    def is_null(self, k: int) -> bool:
        """True when paragraph k has no consistent span."""
        return all(span.paragraph != k for span in self.spans)

    def all_spans(self) -> list[SpanLabel]:
        return list(self.spans)


def _begins(keys: Sequence[int], article: np.ndarray, s: int, max_span_length: int) -> range:
    """The begins i whose spans normalize to text that starts with keys[s].

    keys holds WordTable keys, keys[s] one no normalized text skips.  The
    begins are s and the run of empty words (key 0) and article keys just
    before it, at most max_span_length - 1 of them, since a span from i must
    reach s.
    """
    i = s
    floor = max(0, s - max_span_length + 1)
    while i > floor and (keys[i - 1] == 0 or article[keys[i - 1]]):
        i -= 1
    return range(i, s + 1)


def find_consistent_spans_exact(
    pair: DocumentQuestionPair, max_span_length: int = DEFAULT_MAX_SPAN_LENGTH
) -> ConsistentLabelSet:
    """Label every span whose normalized text equals some normalized answer.

    Spans longer than max_span_length tokens are never considered.  Spans that
    normalize to the empty string never match.

    The document's normalized words come from its WordTable: a span [i, j]
    normalizes to the non-empty words of [s, j], where s is the first
    non-empty, non-article word at or after i.  So spans are compared as
    tuples of WordTable keys, answers included: each answer word is looked up
    in the table's keys once, and an answer holding a word the document lacks
    matches nothing.  One gather reads the key of every position of the
    document once; it finds the positions s that hold some answer's first
    word, and only the keys around them are sliced from it.  From s, the scan
    grows the key tuple of each span [s, j], and stops before it would hold
    more keys than the longest answer, notes the ends whose tuple is an
    answer, then walks back over the empty words and articles before s to the
    begins that share them.
    """
    if max_span_length < 1:
        raise ValueError("max_span_length must be at least 1")
    table = pair.table
    targets = {}  # the key tuple of each answer -> its normalized text
    for answer in pair.answers.normalized:
        keyed = tuple(table.keys.get(word, -1) for word in answer.split())
        if keyed and -1 not in keyed:
            targets[keyed] = answer
    longest = max(map(len, targets), default=0)
    is_first = np.zeros(len(table.keys), bool)
    is_first[[keyed[0] for keyed in targets]] = True
    position_keys = table.key_of.take(table.ids)
    starts = table.starts
    spans = []
    for s in is_first.take(position_keys).nonzero()[0].tolist():
        k = bisect_right(starts, s) - 1
        # The keys of paragraph k from the furthest begin to the furthest end.
        lo = max(starts[k], s - max_span_length + 1)
        stop = min(starts[k + 1], s + max_span_length)
        keys = position_keys[lo:stop].tolist()
        matches, keyed = [], ()
        for j, key in enumerate(keys[s - lo :], start=s):
            if key:
                if len(keyed) == longest:
                    break  # no answer holds more words
                keyed += (key,)
            if keyed in targets:
                matches.append((j, targets[keyed]))
        if not matches:
            continue
        base = starts[k]
        for i in _begins(keys, table.article, s - lo, max_span_length):
            spans.extend(
                SpanLabel(k, lo + i - base, j - base, matched_string=text)
                for j, text in matches
                if j < lo + i + max_span_length
            )
    return ConsistentLabelSet(len(pair.paragraphs), spans)


def _rouge_scores(
    words: Sequence[int],
    s: int,
    stop: int,
    references: list[tuple[list[int], set[int]]],
) -> list[float]:
    """The best similarity to any reference of each span [s, j], s <= j < stop.

    words and each reference hold WordTable keys.  Carries one LCS row per
    reference across the ends, stepping it only for words the reference holds
    (any other word leaves the row as it was).  An empty word (key 0) adds
    nothing, so its span repeats the previous entry.
    """
    rows = [[0] * (len(reference) + 1) for reference, _ in references]
    out = []
    length = 0
    score = 0.0
    for j in range(s, stop):
        word = words[j]
        if word:
            length += 1
            score = 0.0
            for k, (reference, vocabulary) in enumerate(references):
                if word in vocabulary:
                    rows[k] = lcs_row_step(rows[k], word, reference)
                value = rouge_f(rows[k][-1], length, len(reference))
                if value > score:
                    score = value
        out.append(score)
    return out


def _text(names: Sequence[str], words: Sequence[int], s: int, j: int) -> str:
    """The normalized text of every span [i, j] whose begin i walks up to s:
    the non-empty words of keys words[s : j + 1], joined by spaces."""
    return " ".join(names[w] for w in words[s : j + 1] if w)


def find_consistent_spans_rouge(
    pair: DocumentQuestionPair,
    max_span_length: int = DEFAULT_MAX_SPAN_LENGTH,
    threshold: float = DEFAULT_ROUGE_THRESHOLD,
) -> ConsistentLabelSet:
    """Label spans by similarity to the raw answer strings.

    Keeps every span whose best similarity is positive and reaches the
    threshold, and always keeps each paragraph's best-scoring span when its
    similarity is positive, even below the threshold.  A span of similarity 0
    is never kept, so threshold 0 keeps exactly the spans of positive
    similarity.  Ties go to the earliest (begin, end).  Similarity is
    metrics.rouge_l, computed on the span's normalized words, and each label's
    matched string is that normalized text, as for exact labels.

    Spans are scored per first word: for each position s whose word a
    normalized text can start with, and that some answer word follows within
    max_span_length tokens, one pass over the ends j carries an LCS row per
    answer (metrics.lcs_row_step), comparing WordTable keys; an answer word
    the document lacks is -1, which matches nothing.  One pass over the
    document's word ids finds the positions s.  Every begin that walks up to s
    over empty words and articles reads its spans' scores from that pass.
    """
    if max_span_length < 1:
        raise ValueError("max_span_length must be at least 1")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    table = pair.table
    references = []
    for answer in pair.answers.raw:
        reference = [table.keys.get(word, -1) for word in normalize_string(answer).split()]
        references.append((reference, set(reference)))
    # Spans sharing no word with any answer score 0 and are never kept, so a
    # first word s needs a word some answer holds before its stop.
    is_held = np.zeros(len(table.keys), bool)
    is_held[[key for reference, _ in references for key in reference if key >= 0]] = True
    held = np.flatnonzero(is_held[table.key_of][table.ids])
    positions = np.arange(len(table.ids))
    next_held = np.append(held, len(positions))[np.searchsorted(held, positions)]
    ends = np.repeat(table.starts[1:], np.diff(table.starts))
    # A normalized text never starts with the empty word (key 0) or an article.
    can_start = ~table.article
    can_start[0] = False
    reach = next_held < np.minimum(positions + max_span_length, ends)
    firsts = np.flatnonzero(can_start[table.key_of][table.ids] & reach)
    cuts = np.searchsorted(firsts, table.starts).tolist()
    names = list(table.keys)
    spans = []
    for k in range(len(pair.paragraphs)):
        if cuts[k] == cuts[k + 1]:
            continue
        words = table.key_of[table.paragraph(k)].tolist()
        n = len(words)
        best = None
        best_score = 0.0
        for s in (firsts[cuts[k] : cuts[k + 1]] - table.starts[k]).tolist():
            stop = min(s + max_span_length, n)
            scores = _rouge_scores(words, s, stop, references)
            for i in _begins(words, table.article, s, max_span_length):
                for j in range(s, min(i + max_span_length, n)):
                    score = scores[j - s]
                    if score <= 0.0:
                        continue
                    if score > best_score:
                        best_score, best = score, (i, j, s)
                    if score >= threshold:
                        spans.append(SpanLabel(k, i, j, _text(names, words, s, j)))
        # Each (begin, end) is scored once, so the best span is already kept
        # exactly when it reaches the threshold.
        if best is not None and best_score < threshold:
            i, j, s = best
            spans.append(SpanLabel(k, i, j, _text(names, words, s, j)))
    return ConsistentLabelSet(len(pair.paragraphs), spans)


def save_labels(
    pairs: Sequence[DocumentQuestionPair],
    labels: Sequence[ConsistentLabelSet],
    path: str | Path,
) -> None:
    """Write one {"id", "spans": [[paragraph, begin, end], ...]} record per pair."""
    if len(pairs) != len(labels):
        raise ValueError("pairs and labels must align")
    records = (
        {"id": pair.id, "spans": [list(s.triple()) for s in label_set.all_spans()]}
        for pair, label_set in zip(pairs, labels)
    )
    write_json_lines(path, records)


def read_span_records(
    pairs: Sequence[DocumentQuestionPair],
    path: str | Path,
    spans_key: str,
    text_keys: tuple[str, ...] = (),
) -> list[tuple[dict, list[SpanLabel]]]:
    """The JSONL record of each pair, with its spans checked against the pair.

    Every record is a JSON object with a string "id", a list of
    [paragraph, begin, end] integer triples under spans_key, and a string
    under each of text_keys.  Each span must lie inside the loaded (possibly
    truncated) paragraph and appear once in its record; its matched string is
    rebuilt from the paragraph text.  A bad line fails as read_json_lines
    describes, and a bad or repeated span raises DatasetSchemaError; a pair without a record raises a ValueError
    that starts with the path.  When an id repeats, its last record wins.
    """
    by_id: dict[str, tuple[int, dict]] = {}
    keys = ("id", spans_key, *text_keys)
    for number, record in read_json_lines(path, keys, ("id", *text_keys)):
        triples = record[spans_key]
        if not isinstance(triples, list) or not all(
            isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t)
            for t in triples
        ):
            raise DatasetSchemaError(
                path,
                number,
                f"{spans_key!r} must be a list of [paragraph, begin, end] integer triples",
            )
        if len(set(map(tuple, triples))) < len(triples):
            repeat = next(t for at, t in enumerate(triples) if t in triples[:at])
            raise DatasetSchemaError(path, number, f"span {repeat} repeats in {spans_key!r}")
        by_id[record["id"]] = (number, record)
    out = []
    for pair in pairs:
        if pair.id not in by_id:
            raise ValueError(f"{path}: no record for pair {pair.id!r}")
        number, record = by_id[pair.id]
        spans = []
        for k, i, j in record[spans_key]:
            if not 0 <= k < len(pair.paragraphs):
                raise DatasetSchemaError(
                    path,
                    number,
                    f"paragraph {k} is outside document {pair.id!r}"
                    f" of {len(pair.paragraphs)} paragraphs",
                )
            paragraph = pair.paragraphs[k]
            if not 0 <= i <= j < len(paragraph):
                raise DatasetSchemaError(
                    path,
                    number,
                    f"span [{k}, {i}, {j}] is not inside paragraph {k}"
                    f" of {len(paragraph)} tokens",
                )
            text = normalize_string(paragraph.text(i, j))
            spans.append(SpanLabel(k, i, j, matched_string=text))
        out.append((record, spans))
    return out


def load_labels(
    pairs: Sequence[DocumentQuestionPair], path: str | Path
) -> list[ConsistentLabelSet]:
    """Read a label file back, rebuilding matched strings from the paragraphs.

    Bad lines and spans fail as read_span_records describes.
    """
    return [
        ConsistentLabelSet(len(pair.paragraphs), spans)
        for pair, (_, spans) in zip(pairs, read_span_records(pairs, path, "spans"))
    ]
