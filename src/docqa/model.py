"""A small differentiable scorer that fills begin/end score grids.

The scorer embeds tokens, mixes each with the mean question embedding and an
elementwise interaction, and applies linear heads for begin, end, and the two
per-paragraph null scores.  It exists to make objectives trainable end to end
at desk scale, not to compete with real encoders.
"""

from __future__ import annotations

import json
import os
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


@dataclass
class ParamGradients:
    """Gradients aligned with ToyScorer parameters."""

    embedding: np.ndarray
    begin_head: np.ndarray
    end_head: np.ndarray
    null_begin_head: np.ndarray
    null_end_head: np.ndarray

    @classmethod
    def zeros_like(cls, scorer: "ToyScorer") -> "ParamGradients":
        return cls(*(np.zeros_like(getattr(scorer, name)) for name in PARAM_NAMES))

    def add_(self, other: "ParamGradients", weight: float = 1.0) -> None:
        for name in PARAM_NAMES:
            getattr(self, name).__iadd__(weight * getattr(other, name))

    def scale_(self, factor: float) -> None:
        for name in PARAM_NAMES:
            getattr(self, name).__imul__(factor)


class ToyScorer:
    """Linear scorer over token embedding, question mean, and their product."""

    def __init__(
        self,
        vocab: Vocabulary,
        embedding: np.ndarray,
        begin_head: np.ndarray,
        end_head: np.ndarray,
        null_begin_head: np.ndarray,
        null_end_head: np.ndarray,
    ):
        dim = embedding.shape[1]
        if embedding.shape[0] != len(vocab):
            raise ValueError("embedding rows must match vocabulary size")
        for head in (begin_head, end_head, null_begin_head, null_end_head):
            if head.shape != (3 * dim,):
                raise ValueError("heads must have three times the embedding width")
        self.vocab = vocab
        self.embedding = np.asarray(embedding, dtype=np.float64)
        self.begin_head = np.asarray(begin_head, dtype=np.float64)
        self.end_head = np.asarray(end_head, dtype=np.float64)
        self.null_begin_head = np.asarray(null_begin_head, dtype=np.float64)
        self.null_end_head = np.asarray(null_end_head, dtype=np.float64)

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
        return cls(
            vocab=vocab,
            embedding=rng.normal(0.0, init_scale, size=(len(vocab), dim)),
            begin_head=np.zeros(3 * dim),
            end_head=np.zeros(3 * dim),
            null_begin_head=np.zeros(3 * dim),
            null_end_head=np.zeros(3 * dim),
        )

    def clone(self) -> "ToyScorer":
        return ToyScorer(
            self.vocab,
            self.embedding.copy(),
            self.begin_head.copy(),
            self.end_head.copy(),
            self.null_begin_head.copy(),
            self.null_end_head.copy(),
        )

    def _question_mean(self, pair: DocumentQuestionPair) -> tuple[list[int], np.ndarray]:
        ids = [self.vocab.id_of(t.text) for t in pair.question]
        if ids:
            qbar = self.embedding[ids].mean(axis=0)
        else:
            qbar = np.zeros(self.dim)
        return ids, qbar

    def _features(self, token_ids: list[int], qbar: np.ndarray) -> np.ndarray:
        x = self.embedding[token_ids]
        tiled = np.broadcast_to(qbar, x.shape)
        return np.concatenate([x, tiled, x * qbar], axis=1)

    def score(self, pair: DocumentQuestionPair) -> ScoreGrid:
        """Fill the begin/end score grid, one trailing null slot per paragraph."""
        _, qbar = self._question_mean(pair)
        begin, end = [], []
        for paragraph in pair.paragraphs:
            ids = [self.vocab.id_of(t.text) for t in paragraph.tokens]
            features = self._features(ids, qbar)
            mean_feature = features.mean(axis=0)
            begin.append(
                np.concatenate(
                    [features @ self.begin_head, [mean_feature @ self.null_begin_head]]
                )
            )
            end.append(
                np.concatenate(
                    [features @ self.end_head, [mean_feature @ self.null_end_head]]
                )
            )
        return ScoreGrid(begin=begin, end=end)

    def backprop(
        self,
        pair: DocumentQuestionPair,
        grad_begin: Sequence[np.ndarray],
        grad_end: Sequence[np.ndarray],
    ) -> ParamGradients:
        """Push score-grid gradients back onto the parameters."""
        grads = ParamGradients.zeros_like(self)
        q_ids, qbar = self._question_mean(pair)
        dim = self.dim
        d_qbar = np.zeros(dim)
        for paragraph, db_full, de_full in zip(pair.paragraphs, grad_begin, grad_end):
            n = len(paragraph)
            ids = [self.vocab.id_of(t.text) for t in paragraph.tokens]
            features = self._features(ids, qbar)
            mean_feature = features.mean(axis=0)
            db = np.asarray(db_full[:n])
            de = np.asarray(de_full[:n])
            d_null_b = float(db_full[n])
            d_null_e = float(de_full[n])
            grads.begin_head += features.T @ db
            grads.end_head += features.T @ de
            grads.null_begin_head += d_null_b * mean_feature
            grads.null_end_head += d_null_e * mean_feature
            d_features = (
                np.outer(db, self.begin_head)
                + np.outer(de, self.end_head)
                + (d_null_b * self.null_begin_head + d_null_e * self.null_end_head)[
                    None, :
                ]
                / n
            )
            x = self.embedding[ids]
            d_x = d_features[:, :dim] + d_features[:, 2 * dim :] * qbar
            np.add.at(grads.embedding, ids, d_x)
            d_qbar += d_features[:, dim : 2 * dim].sum(axis=0)
            d_qbar += (d_features[:, 2 * dim :] * x).sum(axis=0)
        if q_ids:
            np.add.at(grads.embedding, q_ids, d_qbar / len(q_ids))
        return grads

    def apply_update(self, grads: ParamGradients, step: float) -> None:
        """Move parameters along grads scaled by step (gradient ascent)."""
        for name in PARAM_NAMES:
            getattr(self, name).__iadd__(step * getattr(grads, name))

    def params_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, name).ravel() for name in PARAM_NAMES])

    def set_params_vector(self, vector: np.ndarray) -> None:
        offset = 0
        for name in PARAM_NAMES:
            array = getattr(self, name)
            size = array.size
            array[...] = vector[offset : offset + size].reshape(array.shape)
            offset += size
        if offset != vector.size:
            raise ValueError("parameter vector has the wrong length")


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
        return ToyScorer(self.vocab, *(self.params[name].copy() for name in PARAM_NAMES))

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
        with np.load(path, allow_pickle=False) as data:
            return cls(
                params={name: data[name].copy() for name in PARAM_NAMES},
                vocab=Vocabulary.from_json(str(data["vocab_json"])),
                fingerprint=str(data["fingerprint"]),
                history=json.loads(str(data["history_json"])),
            )
