"""Begin/end score grids and their two probability normalizations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class SpaceKind(Enum):
    """Which pool of positions competes for probability mass.

    PARAGRAPH normalizes each paragraph separately, with a per-paragraph null
    outcome taking part.  DOCUMENT normalizes across every position of every
    paragraph jointly and has no null outcome.
    """

    PARAGRAPH = "P"
    DOCUMENT = "D"

    @classmethod
    def parse(cls, text: str) -> "SpaceKind":
        key = text.strip().upper()
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown probability space {text!r}; expected P or D")


@dataclass
class ScoreGrid:
    """Raw begin and end scores per paragraph.

    Each array has one entry per token position plus a trailing slot for the
    paragraph's null outcome.
    """

    begin: list[np.ndarray]
    end: list[np.ndarray]

    def __post_init__(self):
        if len(self.begin) != len(self.end):
            raise ValueError("begin and end must cover the same paragraphs")
        if not self.begin:
            raise ValueError("grid must cover at least one paragraph")
        self.begin = [np.asarray(a, dtype=np.float64) for a in self.begin]
        self.end = [np.asarray(a, dtype=np.float64) for a in self.end]
        for b, e in zip(self.begin, self.end):
            if b.ndim != 1 or e.ndim != 1:
                raise ValueError("score arrays must be one dimensional")
            if b.shape != e.shape:
                raise ValueError("begin and end arrays must share a shape")
            if b.shape[0] < 2:
                raise ValueError("each paragraph needs a position and a null slot")

    @property
    def n_paragraphs(self) -> int:
        return len(self.begin)

    def token_counts(self) -> tuple[int, ...]:
        """Positions per paragraph, excluding the null slot."""
        return tuple(a.shape[0] - 1 for a in self.begin)

    def null_index(self, k: int) -> int:
        return self.begin[k].shape[0] - 1

    @classmethod
    def zeros(cls, token_counts: Sequence[int]) -> "ScoreGrid":
        return cls(
            begin=[np.zeros(n + 1) for n in token_counts],
            end=[np.zeros(n + 1) for n in token_counts],
        )

    def copy(self) -> "ScoreGrid":
        return ScoreGrid(
            begin=[a.copy() for a in self.begin],
            end=[a.copy() for a in self.end],
        )

    def to_vector(self) -> np.ndarray:
        """Flatten all entries, begin arrays then end arrays, paragraph order."""
        return np.concatenate(self.begin + self.end)

    def with_vector(self, vector: np.ndarray) -> "ScoreGrid":
        """Rebuild a grid of this shape from a flat vector."""
        sizes = [a.shape[0] for a in self.begin]
        if vector.shape[0] != 2 * sum(sizes):
            raise ValueError("vector length does not match grid shape")
        pieces = np.split(np.asarray(vector, dtype=np.float64), np.cumsum(sizes + sizes)[:-1])
        return ScoreGrid(begin=pieces[: len(sizes)], end=pieces[len(sizes) :])


@dataclass
class LogProbGrid:
    """Log probabilities for begin and end positions under one space.

    Arrays mirror ScoreGrid shapes.  Under DOCUMENT the null slots hold -inf.
    log_z_begin and log_z_end are per-paragraph arrays under PARAGRAPH and
    zero-dimensional under DOCUMENT.
    """

    space: SpaceKind
    log_begin: list[np.ndarray]
    log_end: list[np.ndarray]
    log_z_begin: np.ndarray
    log_z_end: np.ndarray

    @property
    def n_paragraphs(self) -> int:
        return len(self.log_begin)


def logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a 1-D array, shifted by its maximum.

    The entries equal to the maximum are counted rather than exponentiated,
    and the remaining mass enters through log1p, so every result is
    bit-identical to the reference log-sum-exp that the tests compare against.
    A non-finite maximum (all -inf, +inf or nan) falls back to the direct sum.
    """
    top = a.max()
    if not math.isfinite(top):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.log(np.exp(a).sum())
    mask = a == top
    count = np.float64(np.count_nonzero(mask))
    rest = np.exp(np.where(mask, -np.inf, a) - top).sum()
    return np.log1p(rest / count) + np.log(count) + top


def _paragraph_normalize(arrays: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    zs = np.array([logsumexp(a) for a in arrays])
    return [a - z for a, z in zip(arrays, zs)], zs


def _document_normalize(arrays: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    z = logsumexp(np.concatenate([a[:-1] for a in arrays]))
    out = []
    for a in arrays:
        shifted = np.empty_like(a)
        shifted[:-1] = a[:-1] - z
        shifted[-1] = -np.inf
        out.append(shifted)
    return out, np.asarray(z)


def log_partition(grid: ScoreGrid, space: SpaceKind) -> LogProbGrid:
    """Normalize a score grid into log probabilities.

    PARAGRAPH: every paragraph's positions plus its null slot sum to one.
    DOCUMENT: all positions across paragraphs sum to one; null is excluded.
    All work happens in the log domain so extreme scores stay finite.
    """
    if space is SpaceKind.PARAGRAPH:
        log_begin, zb = _paragraph_normalize(grid.begin)
        log_end, ze = _paragraph_normalize(grid.end)
    elif space is SpaceKind.DOCUMENT:
        log_begin, zb = _document_normalize(grid.begin)
        log_end, ze = _document_normalize(grid.end)
    else:
        raise ValueError(f"unknown space {space!r}")
    return LogProbGrid(
        space=space,
        log_begin=log_begin,
        log_end=log_end,
        log_z_begin=zb,
        log_z_end=ze,
    )


def log_span_prob(probs: LogProbGrid, k: int, begin: int, end: int) -> float:
    """Log probability of the span [begin, end] in paragraph k.

    Span probability factorizes as begin times end.  The null slot may be
    addressed as (null_index, null_index).
    """
    if not 0 <= k < probs.n_paragraphs:
        raise ValueError(f"paragraph index {k} out of range")
    size = probs.log_begin[k].shape[0]
    if not 0 <= begin <= end < size:
        raise ValueError(f"invalid span ({begin}, {end}) for paragraph of {size - 1} tokens")
    return float(probs.log_begin[k][begin] + probs.log_end[k][end])
