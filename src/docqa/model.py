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
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import DocumentQuestionPair
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

    @classmethod
    def from_pairs(cls, pairs: Iterable[DocumentQuestionPair]) -> "Vocabulary":
        seen = set()
        for pair in pairs:
            seen.update(t.text for t in pair.question)
            for paragraph in pair.paragraphs:
                seen.update(t.text for t in paragraph.tokens)
        seen.discard(UNKNOWN_TOKEN)
        return cls((UNKNOWN_TOKEN, *sorted(seen)))

    def to_json(self) -> str:
        return json.dumps(list(self.tokens))

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        return cls(tuple(json.loads(text)))


class ToyScorer:
    """Linear scorer over token embedding, question mean, and their product.

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

    def clone(self) -> "ToyScorer":
        return ToyScorer(self.vocab, *self.views(self.params).values())

    def _question_mean(self, pair: DocumentQuestionPair) -> tuple[list[int], np.ndarray]:
        ids = [self.vocab.id_of(t.text) for t in pair.question]
        return ids, self.embedding[ids].mean(axis=0) if ids else np.zeros(self.dim)

    def _features(self, token_ids: list[int], qbar: np.ndarray) -> np.ndarray:
        x = self.embedding[token_ids]
        tiled = np.broadcast_to(qbar, x.shape)
        return np.concatenate([x, tiled, x * qbar], axis=1)

    def score(self, pair: DocumentQuestionPair) -> ScoreGrid:
        """Fill the begin/end score grid, one trailing null slot per paragraph."""
        _, qbar = self._question_mean(pair)
        grid = ScoreGrid.zeros([len(p) for p in pair.paragraphs])
        for paragraph, begin, end in zip(pair.paragraphs, grid.begin, grid.end):
            ids = [self.vocab.id_of(t.text) for t in paragraph.tokens]
            features = self._features(ids, qbar)
            mean_feature = features.mean(axis=0)
            begin[:-1] = features @ self.begin_head
            begin[-1] = mean_feature @ self.null_begin_head
            end[:-1] = features @ self.end_head
            end[-1] = mean_feature @ self.null_end_head
        return grid

    def backprop(self, pair: DocumentQuestionPair, grad: ScoreGrid) -> np.ndarray:
        """Push a score-grid gradient back onto a vector laid out like params."""
        out = np.zeros_like(self.params)
        grads = self.views(out)
        q_ids, qbar = self._question_mean(pair)
        dim = self.dim
        d_qbar = np.zeros(dim)
        token_ids, d_xs = [], []
        for paragraph, db_full, de_full in zip(pair.paragraphs, grad.begin, grad.end):
            n = len(paragraph)
            ids = [self.vocab.id_of(t.text) for t in paragraph.tokens]
            features = self._features(ids, qbar)
            mean_feature = features.mean(axis=0)
            db, de = db_full[:n], de_full[:n]
            d_null_b, d_null_e = float(db_full[n]), float(de_full[n])
            grads["begin_head"] += features.T @ db
            grads["end_head"] += features.T @ de
            grads["null_begin_head"] += d_null_b * mean_feature
            grads["null_end_head"] += d_null_e * mean_feature
            d_null = (d_null_b * self.null_begin_head + d_null_e * self.null_end_head) / n
            d_features = np.outer(db, self.begin_head) + np.outer(de, self.end_head) + d_null
            x = self.embedding[ids]
            token_ids += ids
            d_xs.append(d_features[:, :dim] + d_features[:, 2 * dim :] * qbar)
            d_qbar += d_features[:, dim : 2 * dim].sum(axis=0)
            d_qbar += (d_features[:, 2 * dim :] * x).sum(axis=0)
        np.add.at(grads["embedding"], token_ids, np.concatenate(d_xs))
        if q_ids:
            np.add.at(grads["embedding"], q_ids, d_qbar / len(q_ids))
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

        Any other file fails with a ValueError that names the path and the fault.
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
                checkpoint.to_scorer()  # checks every array's shape
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}: {exc}") from None
        return checkpoint
