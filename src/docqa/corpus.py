"""Documents, questions, answer sets, and the JSONL reader and writer."""

from __future__ import annotations

import json
import string
import sys
from dataclasses import InitVar, dataclass, field, fields
from functools import cached_property
from itertools import accumulate, chain, count, repeat
from operator import add, sub
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .probability import GridShape

DEFAULT_MAX_PARAGRAPHS = 8
DEFAULT_MAX_TOKENS = 400

ARTICLES = frozenset({"a", "an", "the"})
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class _JsonLineError(ValueError):
    """A fault in one line of a JSONL file, reported as "<path>:<line>: <fault>"."""

    def __init__(self, path: str | Path, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.line_number = line_number


class DatasetParseError(_JsonLineError):
    """A JSONL line is not valid UTF-8 or not valid JSON."""


class DatasetSchemaError(_JsonLineError):
    """A JSONL line is valid JSON but not a record its file can hold."""


def normalize_string(text: str) -> str:
    """Canonical form used for answer comparison.

    Lowercases, strips punctuation characters, collapses whitespace, and
    drops leading articles.  Idempotent: applying it twice changes nothing.
    """
    words = text.lower().translate(_PUNCT_TABLE).split()
    start = 0
    while start < len(words) and words[start] in ARTICLES:
        start += 1
    return " ".join(words[start:])


def _normalized(texts: Sequence[str]) -> Sequence[str]:
    """Each token text lowercased and stripped of punctuation ("" for a
    punctuation-only text such as ","), or texts itself when that changes
    none, so that a WordTable's keys hold the interned words and no copies.
    The texts are joined by spaces and normalized at once, which acts on each
    as on it alone: they hold no whitespace, which is neither cased nor
    case-ignorable, so lowercasing (final sigma included) and punctuation
    stripping see the same text."""
    joined = " ".join(texts)
    normalized = joined.lower().translate(_PUNCT_TABLE)
    return texts if normalized == joined else normalized.split(" ")


@dataclass(frozen=True, slots=True)
class Token:
    """One whitespace-delimited unit of text.

    A plain record: the pair's word table checks each distinct text once.
    make_pair builds one instance per table word, shared by the question and
    every paragraph, and slots keep each instance to a single reference.
    """

    text: str


@dataclass(frozen=True)
class Paragraph:
    """A contiguous, non-empty token sequence of one document."""

    tokens: tuple[Token, ...]

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise ValueError("paragraph must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    def text(self, begin: int | None = None, end: int | None = None) -> str:
        """Surface string of the paragraph, or of the inclusive span [begin, end].

        end=None runs the span through the last token.
        """
        stop = None if end is None else end + 1
        return " ".join(t.text for t in self.tokens[begin:stop])


@dataclass(frozen=True)
class AnswerStringSet:
    """Reference answer strings: raw surface forms plus deduplicated normalized forms."""

    raw: tuple[str, ...]
    normalized: tuple[str, ...]

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "AnswerStringSet":
        raw = tuple(strings)
        normalized = tuple(sorted({normalize_string(s) for s in raw}))
        return cls(raw=raw, normalized=normalized)

    def __len__(self) -> int:
        return len(self.normalized)


class SpanKeys(NamedTuple):
    """How decoding keys spans, over a WordTable's paragraph positions.

    sequence holds the keys of the non-empty words in position order, first[i]
    the first position at or after i whose word is neither empty nor one of
    ARTICLES (len(ids) where none follows), and upto[i] the count of
    non-empty words up to and including position i.  Span [i, j] of one
    paragraph normalizes to the words of sequence[upto[first[i]] - 1 :
    upto[j]], or to "" when first[i] > j.

    sequence is the head of a read-only buffer that pads it with 8 zero
    bytes, and windows[i] reads the 8 bytes of that buffer from key i on as
    one little-endian uint64 (see inference._packed_rows): a strided view of
    the buffer, not a copy, that reads the padding past the last key.
    """

    sequence: np.ndarray
    windows: np.ndarray
    first: np.ndarray
    upto: np.ndarray


class GridLayout(NamedTuple):
    """Where a WordTable's positions sit in a score grid.

    counts holds tokens per paragraph, and shape is the GridShape of every
    grid scored from the pair, whose sizes count each paragraph's slots, its
    tokens and its null slot.  gather[h, k, p] indexes the
    grid vector at position p of paragraph k in half h (begin, then end),
    padded to the longest paragraph; where pad[k, p], p lies past the
    paragraph and gather reads its null slot.  occurrences[k, w] counts word w
    in paragraph k, and slots maps each slot of one grid half, token slots and
    null slots in grid order, to a column of a table that holds one column
    per word followed by one per paragraph null slot.
    """

    counts: np.ndarray
    shape: GridShape
    gather: np.ndarray
    pad: np.ndarray
    occurrences: np.ndarray
    slots: np.ndarray


@dataclass(frozen=True, eq=False)
class WordTable:
    """A pair's words and normalized words, indexed once when the pair is built.

    words holds the pair's distinct token texts in order of first sight,
    question first, each non-empty and free of whitespace.  question holds the
    id into words of every question position, and ids that of every paragraph
    position, paragraphs concatenated: paragraph k's positions are
    ids[starts[k] : starts[k + 1]], in the narrowest unsigned dtype that holds
    len(words).

    keys numbers the distinct normalized words (lowercased, punctuation
    stripped) in order of first sight, "" first as key 0 whether or not it
    occurs.  key_of[w] is the key of words[w], in the narrowest unsigned dtype
    that holds len(keys), and article[key] is whether that word is one of
    ARTICLES.  For every span of positions, joining the words of its non-zero
    keys with single spaces and dropping leading ARTICLES gives exactly
    normalize_string of the span's words joined by spaces.

    span_keys and grid_layout derive from these fields alone.  Each is
    computed on its first read and kept for the table's life, so a pair is
    laid out once however often it is scored or decoded, and building,
    loading or labeling a pair computes neither.  Their arrays are read-only,
    in the narrowest dtype that holds their values (narrowest_unsigned, a
    comparison of Python ints).  The builders take every per-paragraph
    quantity (lengths, heads, null slots, the longest paragraph) from starts
    as Python ints, put the small ones into one intp array, and build each
    per-position array with a few whole-array numpy calls; the only numpy
    Python frame they enter is np.bincount's dispatcher.  A pickle carries
    the fields only, so its copy lays itself out anew.
    """

    words: tuple[str, ...]
    question: np.ndarray
    ids: np.ndarray
    starts: tuple[int, ...]
    keys: dict[str, int]
    key_of: np.ndarray
    article: np.ndarray

    def paragraph(self, k: int) -> np.ndarray:
        return self.ids[self.starts[k] : self.starts[k + 1]]

    def __getstate__(self) -> dict:
        """The fields alone: the layouts cached beside them stay behind."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def span_keys(self) -> SpanKeys:
        key = self.key_of.take(self.ids)
        size = len(key)
        dtype = narrowest_unsigned(size)
        nonempty = key != 0
        # A position leads a span's words unless its word is empty or an article.
        cannot_lead = nonempty <= self.article.take(key)
        first = np.arange(size, dtype=dtype)
        first[cannot_lead] = size
        first = np.minimum.accumulate(first[::-1])[::-1]
        upto = np.add.accumulate(nonempty, dtype=dtype)
        sequence = key[nonempty]
        n_keys, itemsize = len(sequence), key.itemsize
        padded = np.zeros(n_keys + 8 // itemsize, key.dtype)
        padded[:n_keys] = sequence
        for array in (padded, first, upto):
            array.setflags(write=False)
        return SpanKeys(
            padded[:n_keys], np.ndarray(n_keys, _WINDOW, padded, strides=(itemsize,)), first, upto
        )

    @cached_property
    def grid_layout(self) -> GridLayout:
        starts, n_words = self.starts, len(self.words)
        n = len(starts) - 1
        half = starts[-1] + n  # the slots of one grid half
        lengths = list(map(sub, starts[1:], starts))
        longest = max(lengths, default=0)
        # Paragraph k's slots in a grid half run from heads[k] = starts[k] + k
        # to its null slot, nulls[k] = starts[k + 1] + k.
        heads = list(map(add, starts, range(n)))
        # One read-only intp table of n-long rows: the lengths (counts), the
        # null slots, and the heads in the begin half and in the end half.
        table = np.array(
            [*lengths, *map(add, starts[1:], range(n)), *heads, *map(add, heads, repeat(half))],
            np.intp,
        )
        table.setflags(write=False)
        counts, nulls = table[:n], table[n : 2 * n]
        across = np.arange(longest)
        ends = counts[:, None]
        gather = np.minimum(across, ends)
        gather = (gather + table[2 * n :].reshape(2, n, 1)).astype(narrowest_unsigned(2 * half))
        pad = across >= ends
        # Cell k * n_words + w counts word w in paragraph k; no words means no
        # paragraphs, for which any nonzero step gives no cells.
        cells = np.arange(0, n * n_words, n_words or 1).repeat(counts)
        cells += self.ids
        occurrences = np.bincount(cells, minlength=n * n_words).astype(narrowest_unsigned(longest))
        is_token = np.empty(half, bool)
        is_token.fill(True)
        is_token[nulls] = False
        dtype = narrowest_unsigned(n_words + n)
        slots = np.empty(half, dtype)
        slots[is_token] = self.ids
        slots[nulls] = np.arange(n_words, n_words + n, dtype=dtype)
        for array in (gather, pad, occurrences, slots):
            array.setflags(write=False)
        shape = GridShape(list(map(add, lengths, repeat(1))))
        return GridLayout(counts, shape, gather, pad, occurrences.reshape(n, n_words), slots)


_WINDOW = np.dtype("<u8")


def narrowest_unsigned(bound: int) -> np.dtype:
    """The narrowest unsigned dtype that holds bound, a non-negative Python
    int: np.min_scalar_type(bound), found by comparison without entering
    numpy's Python dispatcher."""
    if bound <= 0xFF:
        return _UINT8
    if bound <= 0xFFFF:
        return _UINT16
    return _UINT32 if bound <= 0xFFFF_FFFF else _UINT64


_UINT8, _UINT16, _UINT32, _UINT64 = map(np.dtype, (np.uint8, np.uint16, np.uint32, np.uint64))


def _word_table(question: Sequence[str], paragraphs: Sequence[Sequence[str]]) -> WordTable:
    """The WordTable of a pair whose question and paragraphs hold these token
    texts; its words are interned.

    Raises ValueError for the first distinct text, in order of first sight,
    that is empty or holds whitespace.  All are checked by one split: joined
    by spaces, valid texts split back into exactly themselves.
    """
    positions = list(chain(question, *paragraphs))
    index = dict(zip(dict.fromkeys(positions), count()))
    if " ".join(index).split() != list(index):
        bad = next(text for text in index if text.split() != [text])
        if not bad:
            raise ValueError("token text must be non-empty")
        raise ValueError(f"token text must not contain whitespace: {bad!r}")
    words = tuple(map(sys.intern, index))
    dtype = narrowest_unsigned(len(words))
    ids = np.fromiter(map(index.__getitem__, positions), dtype, len(positions))
    keys = {"": 0}
    key_of = [keys.setdefault(word, len(keys)) for word in _normalized(words)]
    article = np.zeros(len(keys), bool)
    article[[keys[word] for word in ARTICLES if word in keys]] = True
    return WordTable(
        words=words,
        question=ids[: len(question)],
        ids=ids[len(question) :],
        starts=tuple(accumulate(map(len, paragraphs), initial=0)),
        keys=keys,
        key_of=np.fromiter(key_of, narrowest_unsigned(len(keys)), len(key_of)),
        article=article,
    )


@dataclass(frozen=True)
class DocumentQuestionPair:
    """One question paired with the paragraphs of one document.

    table is the pair's WordTable.  It is derived from the tokens unless
    make_pair passes in the one it built; equality and repr ignore it.
    """

    id: str
    question: tuple[Token, ...]
    paragraphs: tuple[Paragraph, ...]
    answers: AnswerStringSet
    word_table: InitVar[WordTable | None] = None
    table: WordTable = field(init=False, repr=False, compare=False)

    def __post_init__(self, word_table: WordTable | None):
        if word_table is None:
            word_table = _word_table(
                [t.text for t in self.question],
                [[t.text for t in p.tokens] for p in self.paragraphs],
            )
        object.__setattr__(self, "table", word_table)

    def paragraph_lengths(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.paragraphs)


def make_pair(
    id: str,
    question: str | Sequence[str],
    paragraphs: Sequence[str | Sequence[str]],
    answers: Iterable[str],
    max_paragraphs: int = DEFAULT_MAX_PARAGRAPHS,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> DocumentQuestionPair:
    """Build a pair from plain strings, applying truncation rules.

    A string is lowercased, stripped of punctuation and split on whitespace,
    articles kept; a list of strings gives its words as they are.  Paragraphs
    beyond max_paragraphs are dropped in order, each survivor is cut to its
    first max_tokens tokens, and paragraphs left empty are removed.  The
    pair's WordTable is built first, checking each distinct word once, and
    its words give one Token each, so equal words share one Token.
    """
    if max_paragraphs < 1 or max_tokens < 1:
        raise ValueError("max_paragraphs and max_tokens must be at least 1")

    def split(raw: str | Sequence[str]) -> list[str]:
        return raw.lower().translate(_PUNCT_TABLE).split() if isinstance(raw, str) else list(raw)

    q_words = split(question)
    kept = [w for w in (split(raw)[:max_tokens] for raw in list(paragraphs)[:max_paragraphs]) if w]
    table = _word_table(q_words, kept)
    shared = np.fromiter(map(Token, table.words), object, len(table.words))

    def tokens(ids: np.ndarray) -> tuple[Token, ...]:
        return tuple(shared[ids].tolist())

    return DocumentQuestionPair(
        id=id,
        question=tokens(table.question),
        paragraphs=tuple(
            Paragraph(tokens(table.paragraph(k))) for k in range(len(kept))
        ),
        answers=AnswerStringSet.from_strings(answers),
        word_table=table,
    )


def read_json_lines(
    path: str | Path, keys: tuple[str, ...], string_keys: tuple[str, ...]
) -> Iterator[tuple[int, dict]]:
    """Each non-blank line of a JSONL file as (line number, record).

    A line that is not UTF-8 or not JSON raises DatasetParseError.  One that
    is not an object, lacks one of keys, or holds a non-string under one of
    string_keys raises DatasetSchemaError.  Only a line feed ends a line.
    """
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except UnicodeDecodeError:
                raise DatasetParseError(path, number, "not valid UTF-8") from None
            except (ValueError, RecursionError) as exc:
                # Too-long integers and too-deep nesting fail outside JSONDecodeError.
                fault = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise DatasetParseError(path, number, f"not valid JSON: {fault}") from None
            if not isinstance(record, dict):
                raise DatasetSchemaError(path, number, "record must be a JSON object")
            for key in keys:
                if key not in record:
                    raise DatasetSchemaError(path, number, f"missing key {key!r}")
            for key in string_keys:
                if not isinstance(record[key], str):
                    raise DatasetSchemaError(path, number, f"{key!r} must be a string")
            yield number, record


def write_json_lines(path: str | Path, records: Iterable[dict]) -> None:
    """Write each record as one line of JSON, in the form read_json_lines reads."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def load_dataset(
    path: str | Path,
    max_paragraphs: int = DEFAULT_MAX_PARAGRAPHS,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> list[DocumentQuestionPair]:
    """Read line-delimited JSON records into pairs.

    Each record holds a unique string id, a string question, and lists of
    strings under paragraphs and answers.  A bad line fails as read_json_lines
    describes; a repeated id raises DatasetSchemaError.
    """
    pairs = []
    first_line: dict[str, int] = {}
    keys = ("id", "question", "paragraphs", "answers")  # make_pair's parameters
    for number, record in read_json_lines(path, keys, ("id", "question")):
        for key in ("paragraphs", "answers"):
            value = record[key]
            if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
                raise DatasetSchemaError(path, number, f"{key!r} must be a list of strings")
        doc_id = record["id"]
        if doc_id in first_line:
            raise DatasetSchemaError(
                path, number, f"id {doc_id!r} repeats the id of line {first_line[doc_id]}"
            )
        first_line[doc_id] = number
        fields = {key: record[key] for key in keys}
        pairs.append(make_pair(**fields, max_paragraphs=max_paragraphs, max_tokens=max_tokens))
    return pairs


def save_dataset(pairs: Iterable[DocumentQuestionPair], path: str | Path) -> None:
    """Write pairs back out as line-delimited JSON of tokenized content.

    load_dataset lowercases a text and strips its punctuation, so a pair with
    a word that this changes ("Pisa") or drops (",") would load back as other
    tokens.  Such a pair raises ValueError naming its id and its first such
    word, in order of first sight, before the file is opened.
    """
    pairs = list(pairs)
    for pair in pairs:
        words = pair.table.words
        normalized = _normalized(words)
        if normalized is not words:
            word, read = next((w, n) for w, n in zip(words, normalized) if w != n)
            fate = f"would load back as {read!r}" if read else "would be dropped on loading"
            raise ValueError(f"pair {pair.id!r}: word {word!r} {fate}")
    records = (
        {
            "id": pair.id,
            "question": " ".join(t.text for t in pair.question),
            "paragraphs": [p.text() for p in pair.paragraphs],
            "answers": list(pair.answers.raw),
        }
        for pair in pairs
    )
    write_json_lines(path, records)
