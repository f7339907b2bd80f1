"""A small differentiable scorer that fills begin/end score grids.

The scorer embeds tokens, mixes each with the mean question embedding and an
elementwise interaction, and applies linear heads for begin, end, and the two
per-paragraph null scores.  It exists to make objectives trainable end to end
at desk scale, not to compete with real encoders.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import DocumentQuestionPair, WordTable
from .probability import ScoreGrid

UNKNOWN_TOKEN = "<unk>"
DEFAULT_EMBEDDING_DIM = 32
DEFAULT_INIT_SCALE = 0.5

PARAM_NAMES = (
    "embedding",
    "begin_head",
    "end_head",
    "null_begin_head",
    "null_end_head",
)


class Vocabulary:
    """Sorted token-to-id mapping with id 0 reserved for unknown tokens."""

    def __init__(self, tokens: Sequence[str]):
        if not tokens or tokens[0] != UNKNOWN_TOKEN:
            raise ValueError("vocabulary must start with the unknown token")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary tokens must be unique")
        self.tokens = tuple(tokens)
        self._index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def id_of(self, text: str) -> int:
        return self._index.get(text, 0)

    def encode(self, pair: DocumentQuestionPair) -> "EncodedPair":
        """The vocabulary id of each of the pair's distinct words, looked up
        once, with the pair's WordTable."""
        table = pair.table
        get = self._index.get
        words = np.fromiter(map(get, table.words, repeat(0)), np.int64, len(table.words))
        return EncodedPair(vocab=self, words=words, table=table)

    @classmethod
    def from_pairs(cls, pairs: Iterable[DocumentQuestionPair]) -> "Vocabulary":
        seen = set()
        for pair in pairs:
            seen.update(pair.table.words)
        seen.discard(UNKNOWN_TOKEN)
        return cls((UNKNOWN_TOKEN, *sorted(seen)))

    def to_json(self) -> str:
        return json.dumps(list(self.tokens))

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        """The vocabulary that to_json wrote; anything but a JSON list of
        strings raises ValueError."""
        tokens = json.loads(text)
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ValueError("vocabulary is not a JSON list of strings")
        return cls(tuple(tokens))


@dataclass(frozen=True, eq=False)
class EncodedPair:
    """One pair's words under one vocabulary.

    words holds the vocabulary id of each word of table, the pair's own
    WordTable, so words[table.ids] are the paragraph tokens' vocabulary ids
    and words[table.question] the question's.  The scorer reads everything
    else from the table and its grid_layout, laid out once per pair and
    shared by every encoding of it.
    """

    vocab: Vocabulary
    words: np.ndarray
    table: WordTable


class ToyScorer:
    """Linear scorer over token embedding, question mean, and their product.

    Each head h = [h_x, h_q, h_xq] scores a token embedding x against the
    question mean qbar as x @ h_x + qbar @ h_q + (x * qbar) @ h_xq.  Folding
    qbar into the head gives W = h_x + qbar * h_xq and c = h_q @ qbar, so a
    whole document scores as one product x @ W + c.  A paragraph's null slots
    score its mean token embedding with the null heads the same way.

    A token's scores depend only on its word, so scores and gradients are
    computed once per distinct word of the document and weighted by how often
    each word occurs.  They equal the per-token formulas above up to the order
    of summation.

    params is one flat vector: the embedding rows, then the begin, end,
    null-begin and null-end heads.  The attributes of those names are views of
    it, so updating params in place updates them.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        embedding: np.ndarray,
        begin_head: np.ndarray,
        end_head: np.ndarray,
        null_begin_head: np.ndarray,
        null_end_head: np.ndarray,
    ):
        """Copy the named arrays into a new parameter vector."""
        heads = (begin_head, end_head, null_begin_head, null_end_head)
        dim = np.shape(embedding)[-1] if np.ndim(embedding) else 0
        shapes = [(len(vocab), dim)] + [(3 * dim,)] * 4
        for name, array, shape in zip(PARAM_NAMES, (embedding, *heads), shapes):
            if np.shape(array) != shape:
                raise ValueError(f"{name} must have shape {shape}, got {np.shape(array)}")
        self.vocab = vocab
        self.params = np.concatenate([np.ravel(embedding), *heads], dtype=np.float64)
        self._embedding_shape = np.shape(embedding)
        for name, view in self.views(self.params).items():
            setattr(self, name, view)
        self._heads = self.params[self.embedding.size :].reshape(4, 3, dim)

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """The named parts of a vector laid out like params."""
        if np.shape(vector) != self.params.shape:
            raise ValueError(f"expected a vector of shape {self.params.shape}")
        split = self._embedding_shape[0] * self._embedding_shape[1]
        heads = vector[split:].reshape(4, -1)
        return dict(zip(PARAM_NAMES, (vector[:split].reshape(self._embedding_shape), *heads)))

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]

    @classmethod
    def initialize(
        cls,
        vocab: Vocabulary,
        dim: int = DEFAULT_EMBEDDING_DIM,
        seed: int = 0,
        init_scale: float = DEFAULT_INIT_SCALE,
    ) -> "ToyScorer":
        """Random embeddings, zero heads; scores start uniform."""
        rng = np.random.default_rng(seed)
        embedding = rng.normal(0.0, init_scale, size=(len(vocab), dim))
        return cls(vocab, embedding, *np.zeros((4, 3 * dim)))

    def _encoded(self, pair: DocumentQuestionPair | EncodedPair) -> EncodedPair:
        if not isinstance(pair, EncodedPair):
            return self.vocab.encode(pair)
        if pair.vocab is not self.vocab and pair.vocab != self.vocab:
            raise ValueError("pair was encoded under another vocabulary")
        return pair

    def _fold(self, doc: EncodedPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Question mean qbar, then W (4, dim) and c (4,) of the four heads."""
        question = doc.table.question
        rows = self.embedding[doc.words.take(question)]
        qbar = np.add.reduce(rows, axis=0) / max(1, len(question))
        return qbar, self._heads[:, 0] + qbar * self._heads[:, 2], self._heads[:, 1] @ qbar

    def score(self, pair: DocumentQuestionPair | EncodedPair) -> ScoreGrid:
        """Fill the begin/end score grid, one trailing null slot per paragraph.

        Each word's four head scores are computed once; a null slot is its
        paragraph's mean per-token null-head score.  The WordTable's
        grid_layout maps each grid slot to a column of a table that holds one
        score per word, then one per paragraph null slot.  A plain pair is
        encoded on the call, which looks its words up.
        """
        doc = self._encoded(pair)
        layout = doc.table.grid_layout
        _, weights, bias = self._fold(doc)
        per_word = weights @ self.embedding[doc.words].T
        n_words = len(doc.words)
        table = np.empty((2, n_words + len(layout.counts)))
        np.add(per_word[:2], bias[:2, None], out=table[:, :n_words])
        nulls = per_word[2:] @ layout.occurrences.T
        nulls /= layout.counts
        np.add(nulls, bias[2:, None], out=table[:, n_words:])
        return ScoreGrid(table.take(layout.slots, axis=1).ravel(), layout.shape)

    def backprop(self, pair: DocumentQuestionPair | EncodedPair, grad: ScoreGrid) -> np.ndarray:
        """Push a score-grid gradient back onto a vector laid out like params.

        g holds each head's gradient summed per distinct word, a null slot's
        spread evenly over its paragraph's tokens, and X the words'
        embeddings.  Head j gets X^T g_j on h_x, qbar * sum(g_j) on h_q and
        qbar * (X^T g_j) on h_xq, and the words get g^T W, added onto their
        rows.  This equals the per-token gradient up to the order of summation.
        """
        doc = self._encoded(pair)
        layout = doc.table.grid_layout
        qbar, weights, _ = self._fold(doc)
        n_words = len(doc.words)
        columns = n_words + len(layout.counts)
        halves = grad.vector.reshape(2, -1)
        sums = np.empty((2, columns))
        for half, h in zip(sums, halves):
            half[:] = np.bincount(layout.slots, weights=h, minlength=columns)
        g = np.empty((4, n_words))
        g[:2] = sums[:, :n_words]
        g[2:] = sums[:, n_words:] / layout.counts @ layout.occurrences
        g_x = g @ self.embedding[doc.words]
        g_sum = np.add.reduce(g, axis=1)
        out = np.empty(self.params.shape)
        split = self.embedding.size
        # Head j's gradient: X^T g_j on h_x, qbar * sum(g_j) on h_q, qbar * (X^T g_j) on h_xq.
        heads = out[split:].reshape(4, 3, self.dim)
        heads[:, 0] = g_x
        np.multiply(g_sum[:, None], qbar, out=heads[:, 1])
        np.multiply(g_x, qbar, out=heads[:, 2])
        d_qbar = g_sum @ self._heads[:, 1] + np.add.reduce(g_x * self._heads[:, 2], axis=0)
        question = doc.words[doc.table.question]
        # Every word's row gradient, then each question position's share of d_qbar.
        ids = np.empty(n_words + len(question), doc.words.dtype)
        ids[:n_words] = doc.words
        ids[n_words:] = question
        d_rows = np.empty((len(ids), self.dim))
        d_rows[:n_words] = g.T @ weights
        d_rows[n_words:] = d_qbar / max(1, len(question))
        # One scatter that adds every row's gradient onto the flat embedding:
        # unknown words share row 0, so rows must never be assigned.
        cells = (ids[:, None] * self.dim + np.arange(self.dim)).ravel()
        out[:split] = np.bincount(cells, weights=d_rows.ravel(), minlength=split)
        return out


@dataclass
class Checkpoint:
    """Serializable snapshot: parameters, vocabulary, config digest, history."""

    params: dict[str, np.ndarray]
    vocab: Vocabulary
    fingerprint: str
    history: dict

    @classmethod
    def from_scorer(
        cls, scorer: ToyScorer, fingerprint: str, history: dict
    ) -> "Checkpoint":
        return cls(
            params={name: getattr(scorer, name).copy() for name in PARAM_NAMES},
            vocab=scorer.vocab,
            fingerprint=fingerprint,
            history=history,
        )

    def to_scorer(self) -> ToyScorer:
        """A scorer with its own copy of the parameters."""
        return ToyScorer(self.vocab, *(self.params[name] for name in PARAM_NAMES))

    def save(self, path: str | Path) -> None:
        # A temporary file beside the target replaces it only once complete, so
        # a failed write keeps the old checkpoint; the handle avoids a .npz suffix.
        path = Path(path)
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(temp, "wb") as handle:
                np.savez(
                    handle,
                    vocab_json=np.array(self.vocab.to_json()),
                    fingerprint=np.array(self.fingerprint),
                    history_json=np.array(json.dumps(self.history)),
                    **self.params,
                )
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        """Read a checkpoint that save wrote.

        Any other file, one whose history is not a JSON object, or one whose
        parameters hold a NaN or an infinity, fails with a ValueError that
        names the path and the fault.
        """
        try:
            data = np.load(path, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile):
            data = None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"{path}: not a checkpoint (.npz archive)")
        with data:
            for name in (*PARAM_NAMES, "vocab_json", "fingerprint", "history_json"):
                if name not in data.files:
                    raise ValueError(f"{path}: checkpoint has no {name!r} array")
            try:
                checkpoint = cls(
                    params={name: data[name].copy() for name in PARAM_NAMES},
                    vocab=Vocabulary.from_json(str(data["vocab_json"])),
                    fingerprint=str(data["fingerprint"]),
                    history=json.loads(str(data["history_json"])),
                )
                if not isinstance(checkpoint.history, dict):
                    raise ValueError("history is not a JSON object")
                checkpoint.to_scorer()  # checks every array's shape
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}: {exc}") from None
        for name, array in checkpoint.params.items():
            if not np.isfinite(array).all():
                raise ValueError(f"{path}: parameter {name!r} holds a non-finite value")
        return checkpoint
