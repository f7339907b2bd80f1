"""Begin/end score grids and their two probability normalizations."""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate
from typing import Sequence

import numpy as np

# log_partition runs once per document per scoring, so its hot path calls
# array methods and ufunc reductions (np.add.reduce) directly: numpy's module
# wrappers and ndarray.max and .sum each cost a Python frame before they
# reach C.


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
    offsets[n + k] on the end side.  The grid shares the vector's memory when
    it is already float64.
    """

    def __init__(self, vector: np.ndarray, sizes: Sequence[int]):
        if not sizes:
            raise ValueError("grid must cover at least one paragraph")
        if min(sizes) < 2:
            raise ValueError("each paragraph needs a position and a null slot")
        self.vector = np.asarray(vector, dtype=np.float64)
        if self.vector.shape != (2 * sum(sizes),):
            raise ValueError("vector length does not match grid shape")
        self.sizes = tuple(int(s) for s in sizes)
        self.offsets = tuple(accumulate(self.sizes * 2, initial=0))

    @classmethod
    def zeros(cls, token_counts: Sequence[int]) -> "ScoreGrid":
        sizes = [n + 1 for n in token_counts]
        return cls(np.zeros(2 * sum(sizes)), sizes)

    def _views(self, first: int) -> list[np.ndarray]:
        at = self.offsets[first : first + len(self.sizes) + 1]
        return [self.vector[a:b] for a, b in zip(at, at[1:])]

    @property
    def begin(self) -> list[np.ndarray]:
        """Each paragraph's begin entries, made on each read as views of the
        vector: writing through them writes the vector."""
        return self._views(0)

    @property
    def end(self) -> list[np.ndarray]:
        """Each paragraph's end entries, views of the vector like begin."""
        return self._views(len(self.sizes))

    @property
    def n_paragraphs(self) -> int:
        return len(self.sizes)


class LogProbGrid(ScoreGrid):
    """Log probabilities for begin and end positions under one space, laid out
    like the ScoreGrid they normalize.  Under DOCUMENT the null slots hold -inf.

    The grid takes its own copy of the vector and marks it read-only, so its
    begin and end views are read-only too and writing the source array later
    leaves the grid as it was.  A grid that cannot change can keep what is
    decoded from it: inference.candidates stores the candidates it builds in
    the grid's private _decoded dict, empty at construction, and looks them
    up there before building them again.
    """

    def __init__(self, vector: np.ndarray, sizes: Sequence[int]):
        super().__init__(np.array(vector, dtype=np.float64), sizes)
        self.vector.flags.writeable = False
        self._decoded: dict = {}

    # Aliases of begin and end that the bench still reads.
    log_begin = ScoreGrid.begin
    log_end = ScoreGrid.end


def logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a 1-D array, shifted by its maximum.

    The entries equal to the maximum are counted rather than exponentiated,
    and the remaining mass enters through log1p, so every result is
    bit-identical to the reference log-sum-exp that the tests compare against.
    A non-finite maximum (all -inf, +inf or nan) falls back to the direct sum.
    """
    top = np.maximum.reduce(a)
    if not math.isfinite(top):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.log(np.add.reduce(np.exp(a)))
    mask = a == top
    count = np.add.reduce(mask, dtype=np.float64)
    terms = np.exp(a - top)
    terms[mask] = 0.0  # the tied terms, counted above
    rest = np.add.reduce(terms)
    return np.log1p(rest / count) + np.log(count) + top


def logsumexp_runs(a: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """logsumexp of each run a[heads[g] : heads[g + 1]], the last run ending
    with a, bit-identical to calling logsumexp on each run.

    The maxima, counts and exponentials are those logsumexp computes, taken
    for every run at once.  Each run's exponentials are summed by one
    np.add.reduceat over a copy in which a zero leads every run: reduceat
    keeps a segment's first entry and adds numpy's pairwise sum of the rest,
    so 0 plus that sum is what ndarray.sum gives for the run.  A run with a
    non-finite maximum goes through logsumexp itself.
    """
    sizes = np.empty_like(heads)
    sizes[:-1] = heads[1:] - heads[:-1]
    sizes[-1] = len(a) - heads[-1]
    top = np.maximum.reduceat(a, heads)
    leads = heads + np.arange(len(heads))
    padded = np.zeros(len(a) + len(heads))
    is_term = np.ones(len(padded), bool)
    is_term[leads] = False
    with np.errstate(invalid="ignore", divide="ignore"):
        shifted = a - top.repeat(sizes)
        # a - top is 0 exactly where a equals a finite top.
        mask = shifted == 0
        count = np.add.reduceat(mask, heads, dtype=np.intp)
        terms = np.exp(shifted)
        terms[mask] = 0.0
        padded[is_term] = terms
        rest = np.add.reduceat(padded, leads)
        out = np.log1p(rest / count) + np.log(count) + top
    for g in (~np.isfinite(top)).nonzero()[0].tolist():
        out[g] = logsumexp(a[heads[g] : heads[g] + sizes[g]])
    return out


def log_partition(grid: ScoreGrid, space: SpaceKind) -> LogProbGrid:
    """Normalize a score grid into log probabilities.

    PARAGRAPH: every paragraph's positions plus its null slot sum to one.
    DOCUMENT: all positions across paragraphs sum to one; null is excluded.
    All work happens in the log domain so extreme scores stay finite.
    """
    if space is SpaceKind.PARAGRAPH:
        zs = logsumexp_runs(grid.vector, np.array(grid.offsets[:-1]))
        log = grid.vector - zs.repeat(grid.sizes * 2)
    elif space is SpaceKind.DOCUMENT:
        positions = np.ones(grid.vector.shape, dtype=bool)
        positions[np.subtract(grid.offsets[1:], 1)] = False  # the null slots
        scores = grid.vector[positions]  # a copy, so each half is normalized in place
        half = len(scores) // 2
        for side in (scores[:half], scores[half:]):
            side -= logsumexp(side)
        log = np.full(grid.vector.shape, -np.inf)
        log[positions] = scores
    else:
        raise ValueError(f"unknown space {space!r}")
    return LogProbGrid(log, grid.sizes)
