"""Documents, questions, answer sets, and the JSONL dataset format."""

from __future__ import annotations

import json
import string
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

DEFAULT_MAX_PARAGRAPHS = 8
DEFAULT_MAX_TOKENS = 400

ARTICLES = frozenset({"a", "an", "the"})
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class DatasetParseError(ValueError):
    """A dataset line is not valid JSON."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DatasetSchemaError(ValueError):
    """A dataset record is valid JSON but missing or mistyping a field."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


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
    table = dict.fromkeys(texts)
    for text in table:
        word = text.lower()
        # No punctuation character is alphanumeric: skip the slower translate.
        table[text] = word if word.isalnum() else word.translate(_PUNCT_TABLE)
    return [table[text] for text in texts]


def tokenize(text: str) -> list["Token"]:
    """Split text into lowercased, punctuation-stripped tokens.

    Articles are kept; only normalize_string removes them.
    """
    return [Token(w) for w in text.lower().translate(_PUNCT_TABLE).split()]


@dataclass(frozen=True, slots=True)
class Token:
    """One whitespace-delimited unit of text.

    Tokens of one word share one interned string, and slots keep each token
    to a single reference: a corpus holds many tokens of few distinct words.
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
    """
    if max_paragraphs < 1 or max_tokens < 1:
        raise ValueError("max_paragraphs and max_tokens must be at least 1")
    if isinstance(question, str):
        q_tokens = tuple(tokenize(question))
    else:
        q_tokens = tuple(Token(w) for w in question)
    kept = []
    for raw in list(paragraphs)[:max_paragraphs]:
        if isinstance(raw, str):
            toks = tokenize(raw)[:max_tokens]
        else:
            toks = [Token(w) for w in list(raw)[:max_tokens]]
        if toks:
            kept.append(tuple(toks))
    built = tuple(Paragraph(index=k, tokens=toks) for k, toks in enumerate(kept))
    return DocumentQuestionPair(
        id=id,
        question=q_tokens,
        paragraphs=built,
        answers=AnswerStringSet.from_strings(answers),
    )


def _require(record: dict, field: str, kind, line_number: int):
    if field not in record:
        raise DatasetSchemaError(f"missing field {field!r}", line_number)
    value = record[field]
    if not isinstance(value, kind):
        raise DatasetSchemaError(
            f"field {field!r} must be {kind.__name__}, got {type(value).__name__}",
            line_number,
        )
    return value


def load_dataset(
    path: str | Path,
    max_paragraphs: int = DEFAULT_MAX_PARAGRAPHS,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> list[DocumentQuestionPair]:
    """Read line-delimited JSON records into pairs.

    Each record holds id, question, paragraphs (list of strings), and answers
    (list of strings).  Malformed JSON or a bad schema raises an error that
    carries the offending line number.
    """
    pairs = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetParseError(str(exc), line_number) from exc
            if not isinstance(record, dict):
                raise DatasetSchemaError("record must be a JSON object", line_number)
            doc_id = _require(record, "id", str, line_number)
            question = _require(record, "question", str, line_number)
            paragraphs = _require(record, "paragraphs", list, line_number)
            answers = _require(record, "answers", list, line_number)
            for item in paragraphs:
                if not isinstance(item, str):
                    raise DatasetSchemaError("paragraphs must be strings", line_number)
            for item in answers:
                if not isinstance(item, str):
                    raise DatasetSchemaError("answers must be strings", line_number)
            pairs.append(
                make_pair(
                    id=doc_id,
                    question=question,
                    paragraphs=paragraphs,
                    answers=answers,
                    max_paragraphs=max_paragraphs,
                    max_tokens=max_tokens,
                )
            )
    return pairs


def save_dataset(pairs: Iterable[DocumentQuestionPair], path: str | Path) -> None:
    """Write pairs back out as line-delimited JSON of tokenized content."""
    with open(path, "w", encoding="utf-8") as handle:
        for pair in pairs:
            record = {
                "id": pair.id,
                "question": " ".join(t.text for t in pair.question),
                "paragraphs": [p.text() for p in pair.paragraphs],
                "answers": list(pair.answers.raw),
            }
            handle.write(json.dumps(record) + "\n")
