"""Begin/end score grids and their two probability normalizations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
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


class ScoreGrid:
    """Raw begin and end scores of one document in one flat vector.

    Each paragraph has one entry per token position plus a trailing slot for
    its null outcome; sizes counts both.  vector holds every paragraph's begin
    entries, then every paragraph's end entries, in paragraph order, so
    paragraph k of n starts at offsets[k] on the begin side and at
    offsets[n + k] on the end side.  begin[k] and end[k] are views of those
    stretches: writing through them writes the vector.
    """

    def __init__(self, begin: Sequence[np.ndarray], end: Sequence[np.ndarray]):
        """Copy per-paragraph begin and end arrays into one vector."""
        if len(begin) != len(end):
            raise ValueError("begin and end must cover the same paragraphs")
        arrays = [np.asarray(a, dtype=np.float64) for a in [*begin, *end]]
        if any(a.ndim != 1 for a in arrays):
            raise ValueError("score arrays must be one dimensional")
        sizes = [a.shape[0] for a in arrays[: len(begin)]]
        if sizes != [a.shape[0] for a in arrays[len(begin) :]]:
            raise ValueError("begin and end arrays must share a shape")
        self._lay_out(np.concatenate(arrays) if arrays else np.empty(0), sizes)

    @classmethod
    def from_vector(cls, vector: np.ndarray, sizes: Sequence[int]) -> "ScoreGrid":
        """Views over a vector in this layout; the grid shares its memory."""
        grid = cls.__new__(cls)
        grid._lay_out(np.asarray(vector, dtype=np.float64), sizes)
        return grid

    def _lay_out(self, vector: np.ndarray, sizes: Sequence[int]) -> None:
        if not sizes:
            raise ValueError("grid must cover at least one paragraph")
        if min(sizes) < 2:
            raise ValueError("each paragraph needs a position and a null slot")
        if vector.shape != (2 * sum(sizes),):
            raise ValueError("vector length does not match grid shape")
        self.vector = vector
        self.sizes = tuple(int(s) for s in sizes)
        self.offsets = tuple(accumulate(self.sizes * 2, initial=0))
        pieces = [vector[a:b] for a, b in zip(self.offsets, self.offsets[1:])]
        self.begin, self.end = pieces[: len(sizes)], pieces[len(sizes) :]

    @property
    def n_paragraphs(self) -> int:
        return len(self.sizes)

    def token_counts(self) -> tuple[int, ...]:
        """Positions per paragraph, excluding the null slot."""
        return tuple(s - 1 for s in self.sizes)

    def null_index(self, k: int) -> int:
        return self.sizes[k] - 1

    @classmethod
    def zeros(cls, token_counts: Sequence[int]) -> "ScoreGrid":
        sizes = [n + 1 for n in token_counts]
        return cls.from_vector(np.zeros(2 * sum(sizes)), sizes)


@dataclass
class LogProbGrid:
    """Log probabilities for begin and end positions under one space.

    log is laid out like the ScoreGrid it normalizes.  Under DOCUMENT the null
    slots hold -inf.  log_z_begin and log_z_end are per-paragraph arrays under
    PARAGRAPH and zero-dimensional under DOCUMENT.
    """

    space: SpaceKind
    log: ScoreGrid
    log_z_begin: np.ndarray
    log_z_end: np.ndarray

    @property
    def log_begin(self) -> list[np.ndarray]:
        return self.log.begin

    @property
    def log_end(self) -> list[np.ndarray]:
        return self.log.end

    @property
    def n_paragraphs(self) -> int:
        return self.log.n_paragraphs


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


def logsumexp_runs(a: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """logsumexp of each run a[heads[g] : heads[g + 1]], the last run ending
    with a, bit-identical to calling logsumexp on each run.

    The maxima, counts and exponentials are those logsumexp computes, taken
    for every run at once.  numpy sums fewer than eight floats left to right,
    so the rest of every run that short is one cumulative sum across a table
    of seven columns; each longer run is summed on its own, as logsumexp sums
    it.  A run with a non-finite maximum goes through logsumexp itself.
    """
    sizes = np.diff(heads, append=len(a))
    run = np.repeat(np.arange(len(heads)), sizes)
    top = np.maximum.reduceat(a, heads)
    mask = a == top[run]
    count = np.bincount(run, weights=mask, minlength=len(heads))
    with np.errstate(invalid="ignore"):
        terms = np.exp(np.where(mask, -np.inf, a) - top[run])
    short = sizes < 8
    table = np.zeros((len(heads), 7))
    at = short[run]
    table[run[at], (np.arange(len(a)) - heads[run])[at]] = terms[at]
    rest = table.cumsum(axis=1)[:, -1]
    for g in np.flatnonzero(~short).tolist():
        rest[g] = terms[heads[g] : heads[g] + sizes[g]].sum()
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log1p(rest / count) + np.log(count) + top
    for g in np.flatnonzero(~np.isfinite(top)).tolist():
        out[g] = logsumexp(a[heads[g] : heads[g] + sizes[g]])
    return out


def log_partition(grid: ScoreGrid, space: SpaceKind) -> LogProbGrid:
    """Normalize a score grid into log probabilities.

    PARAGRAPH: every paragraph's positions plus its null slot sum to one.
    DOCUMENT: all positions across paragraphs sum to one; null is excluded.
    All work happens in the log domain so extreme scores stay finite.
    """
    n = grid.n_paragraphs
    if space is SpaceKind.PARAGRAPH:
        zs = np.array([logsumexp(a) for a in grid.begin + grid.end])
        log = grid.vector - np.repeat(zs, grid.sizes * 2)
        zb, ze = zs[:n], zs[n:]
    elif space is SpaceKind.DOCUMENT:
        positions = np.ones(grid.vector.shape, dtype=bool)
        positions[np.subtract(grid.offsets[1:], 1)] = False  # the null slots
        scores = grid.vector[positions]
        zb, ze = (np.asarray(logsumexp(side)) for side in np.split(scores, 2))
        log = np.full(grid.vector.shape, -np.inf)
        log[positions] = scores - np.repeat([zb, ze], scores.shape[0] // 2)
    else:
        raise ValueError(f"unknown space {space!r}")
    return LogProbGrid(space, ScoreGrid.from_vector(log, grid.sizes), zb, ze)
