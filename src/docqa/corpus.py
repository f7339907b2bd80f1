"""Documents, questions, answer sets, and the JSONL reader and writer."""

from __future__ import annotations

import json
import string
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


def normalized_words(tokens: Sequence["Token"]) -> list[str]:
    """Each token's text lowercased and stripped of punctuation.

    Each distinct token text is normalized once per call, into a table that
    every token is then mapped through: a paragraph holds few distinct words.
    A punctuation-only token such as "," gives "".  For every span
    tokens[i..j], joining the non-empty words of [i..j] with single spaces and
    dropping leading ARTICLES gives exactly
    normalize_string(" ".join(t.text for t in tokens[i : j + 1])).  This holds
    because tokens contain no whitespace, which is neither cased nor
    case-ignorable: lowercasing (final sigma included) and punctuation
    stripping act on each token as they act on it inside the joined span.
    """
    texts = [t.text for t in tokens]
    table = word_table(texts)
    return [table[text] for text in texts]


def word_table(texts: Iterable[str]) -> dict[str, str]:
    """Each distinct token text, in order of first sight, mapped to its
    normalized_words word."""
    table = dict.fromkeys(texts)
    for text in table:
        word = text.lower()
        # No punctuation character is alphanumeric: skip the slower translate.
        table[text] = word if word.isalnum() else word.translate(_PUNCT_TABLE)
    return table


def span_strings(words: Sequence[str]) -> list[str]:
    """Normalized text of words[:1], words[:2], ... for normalized_words output:
    empty words are skipped, and so are ARTICLES until the first kept word."""
    strings, text = [], ""
    for word in words:
        if word and (text or word not in ARTICLES):
            text = f"{text} {word}" if text else word
        strings.append(text)
    return strings


def tokenize(text: str) -> list["Token"]:
    """Split text into lowercased, punctuation-stripped tokens.

    Articles are kept; only normalize_string removes them.  Equal words share
    one Token.
    """
    return _shared_tokens(_words(text), {})


def _words(text: str) -> list[str]:
    return text.lower().translate(_PUNCT_TABLE).split()


def _shared_tokens(words: Sequence[str], table: dict[str, "Token"]) -> list["Token"]:
    """One Token per distinct word, kept in table: a word already in the table
    reuses its instance, so each new word is checked once, in order of first
    occurrence."""
    for word in dict.fromkeys(words):
        if word not in table:
            table[word] = Token(word)
    return [table[word] for word in words]


@dataclass(frozen=True, slots=True)
class Token:
    """One whitespace-delimited unit of text.

    make_pair builds one instance per distinct word per document, shared by
    the question and every paragraph, so the text is checked once per word.
    Texts are interned, and slots keep each instance to a single reference.
    """

    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("token text must be non-empty")
        if self.text.split() != [self.text]:
            raise ValueError(f"token text must not contain whitespace: {self.text!r}")
        object.__setattr__(self, "text", sys.intern(str(self.text)))


@dataclass(frozen=True)
class Paragraph:
    """A contiguous token sequence with its position in the document."""

    index: int
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("paragraph index must be non-negative")
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

    def __contains__(self, normalized_string: str) -> bool:
        return normalized_string in self.normalized


@dataclass(frozen=True)
class DocumentQuestionPair:
    """One question paired with the paragraphs of one document."""

    id: str
    question: tuple[Token, ...]
    paragraphs: tuple[Paragraph, ...]
    answers: AnswerStringSet

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

    Paragraphs beyond max_paragraphs are dropped in order, each survivor is cut
    to its first max_tokens tokens, and paragraphs left empty are removed.
    Equal words anywhere in the pair share one Token.
    """
    if max_paragraphs < 1 or max_tokens < 1:
        raise ValueError("max_paragraphs and max_tokens must be at least 1")
    table: dict[str, Token] = {}

    def shared(raw: str | Sequence[str], cap: int | None = None) -> tuple[Token, ...]:
        words = _words(raw) if isinstance(raw, str) else list(raw)
        return tuple(_shared_tokens(words[:cap], table))

    q_tokens = shared(question)
    kept = []
    for raw in list(paragraphs)[:max_paragraphs]:
        toks = shared(raw, max_tokens)
        if toks:
            kept.append(toks)
    built = tuple(Paragraph(index=k, tokens=toks) for k, toks in enumerate(kept))
    return DocumentQuestionPair(
        id=id,
        question=q_tokens,
        paragraphs=built,
        answers=AnswerStringSet.from_strings(answers),
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
    """Write pairs back out as line-delimited JSON of tokenized content."""
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
