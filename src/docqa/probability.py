"""Begin/end score grids and their two probability normalizations."""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from itertools import accumulate, repeat
from operator import index, sub
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# log_partition runs once per document per scoring, so its hot path calls
# array methods and ufunc reductions (np.add.reduce) directly: numpy's module
# wrappers, np.ones, np.full, np.errstate and ndarray.max and .sum each cost a
# Python frame before they reach C.


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


class GridShape:
    """The layout of one document's score grids, shared by every grid of it.

    sizes counts each paragraph's slots, its token positions plus its null
    slot.  A grid's vector holds every paragraph's begin slots, then every
    paragraph's end slots, in paragraph order, so paragraph k of n starts at
    offsets[k] on the begin side and at offsets[n + k] on the end side, and
    offsets[-1] is the vector's length.  The sizes may come from any
    iterable, an iterator included.  Each size passes through
    operator.index, so numpy integers are taken as Python ints and a float,
    a string or None raises ValueError naming it; a size below 2 raises
    ValueError too.  No sizes is the shape of a document without paragraphs,
    which no grid takes.  Shapes are equal when their sizes are.

    Everything else a shape holds derives from sizes alone, is computed on
    its first read and kept, read-only, for the shape's life: the runs
    log_partition normalizes under each space, built by Runs.of from the
    offsets as one intp array, and the document space's null-slot mask.
    WordTable.grid_layout keeps one shape per pair, so the grids scored from
    one pair share these; a shape built from sizes lays itself out on its own
    first use.
    """

    def __init__(self, sizes: Iterable[int]):
        sizes = tuple(sizes)  # walked twice when a size is bad
        try:
            sizes = tuple(map(index, sizes))
        except TypeError:
            for size in sizes:
                try:
                    index(size)
                except TypeError:
                    raise ValueError(f"paragraph size must be an integer, got {size!r}") from None
            raise
        if sizes and min(sizes) < 2:
            raise ValueError("each paragraph needs a position and a null slot")
        self.sizes = sizes
        self.offsets = tuple(accumulate(sizes * 2, initial=0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridShape):
            return NotImplemented
        return self.sizes == other.sizes

    def __hash__(self) -> int:
        return hash(self.sizes)

    @cached_property
    def paragraph_runs(self) -> Runs:
        """One run per paragraph half, begin halves then end halves: what
        PARAGRAPH normalizes."""
        return Runs.of(np.array(self.offsets, np.intp))._sealed()

    @cached_property
    def positions(self) -> np.ndarray:
        """Whether each slot of the vector is a token position rather than a
        null slot: the entries DOCUMENT normalizes."""
        offsets = self.offsets
        positions = np.empty(offsets[-1], bool)
        positions.fill(True)
        positions[list(map(sub, offsets[1:], repeat(1)))] = False
        positions.setflags(write=False)
        return positions

    @cached_property
    def document_runs(self) -> Runs:
        """The begin and end halves of the positions, two runs."""
        half = self.offsets[-1] // 2 - len(self.sizes)
        return Runs.of(np.array((0, half, 2 * half), np.intp))._sealed()


class Runs(NamedTuple):
    """Runs a[heads[g] : heads[g] + lengths[g]] that cover an array a in
    order, laid out for logsumexp_over.

    In a copy of a with a zero leading every run, run g starts at leads[g]
    and is_term marks every other entry.
    """

    heads: np.ndarray
    lengths: np.ndarray
    leads: np.ndarray
    is_term: np.ndarray

    @classmethod
    def of(cls, bounds: np.ndarray) -> "Runs":
        """The runs a[bounds[g] : bounds[g + 1]] of an intp array of bounds
        that starts at 0 and strictly increases; heads is a view of it."""
        heads = bounds[:-1]
        leads = heads + np.arange(heads.size)
        is_term = np.empty(heads.size + int(bounds[-1]), bool)
        is_term.fill(True)
        is_term[leads] = False
        return cls(heads, bounds[1:] - heads, leads, is_term)

    def _sealed(self) -> "Runs":
        for array in self:
            array.flags.writeable = False
        return self


class ScoreGrid:
    """Raw begin and end scores of one document in one flat vector.

    vector is laid out as shape, a GridShape, describes.  The constructor
    takes a shape, or the sizes to build one from, and shares the vector's
    memory when it is already float64.
    """

    def __init__(self, vector: np.ndarray, shape: GridShape | Sequence[int]):
        if not isinstance(shape, GridShape):
            shape = GridShape(shape)
        if not shape.sizes:
            raise ValueError("grid must cover at least one paragraph")
        self.vector = np.asarray(vector, dtype=np.float64)
        if self.vector.shape != (shape.offsets[-1],):
            raise ValueError("vector length does not match grid shape")
        self.shape = shape

    @classmethod
    def zeros(cls, token_counts: Sequence[int]) -> "ScoreGrid":
        shape = GridShape([n + 1 for n in token_counts])
        return cls(np.zeros(shape.offsets[-1]), shape)

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.shape.sizes

    @property
    def offsets(self) -> tuple[int, ...]:
        return self.shape.offsets

    @property
    def n_paragraphs(self) -> int:
        return len(self.shape.sizes)

    def _views(self, first: int) -> list[np.ndarray]:
        at = self.offsets[first : first + self.n_paragraphs + 1]
        return [self.vector[a:b] for a, b in zip(at, at[1:])]

    @property
    def begin(self) -> list[np.ndarray]:
        """Each paragraph's begin entries, made on each read as views of the
        vector: writing through them writes the vector."""
        return self._views(0)

    @property
    def end(self) -> list[np.ndarray]:
        """Each paragraph's end entries, views of the vector like begin."""
        return self._views(self.n_paragraphs)


class LogProbGrid(ScoreGrid):
    """Log probabilities for begin and end positions under one space, laid out
    like the ScoreGrid they normalize.  Under DOCUMENT the null slots hold -inf.

    The constructor takes its own copy of the vector and marks it read-only,
    so its begin and end views are read-only too and writing the source array
    later leaves the grid as it was.  log_partition instead hands over the
    array it has just built, which nothing else holds, without a second copy.
    A grid that cannot change can keep what is decoded from it:
    inference.candidates stores the candidates it builds in the grid's
    private _decoded dict, empty at construction, and looks them up there
    before building them again.
    """

    def __init__(self, vector: np.ndarray, shape: GridShape | Sequence[int]):
        super().__init__(np.array(vector, dtype=np.float64), shape)
        self._seal()

    @classmethod
    def _taking(cls, vector: np.ndarray, shape: GridShape) -> "LogProbGrid":
        """A grid of shape that owns vector, a new float64 array of the
        shape's length, without copying or checking it again."""
        grid = cls.__new__(cls)
        grid.vector, grid.shape = vector, shape
        grid._seal()
        return grid

    def _seal(self) -> None:
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


def logsumexp_over(a: np.ndarray, runs: Runs) -> np.ndarray:
    """logsumexp of each run of a, bit-identical to calling logsumexp on
    each run a[runs.heads[g] : runs.heads[g] + runs.lengths[g]].

    The maxima, counts and exponentials are those logsumexp computes, taken
    for every run at once.  Each run's exponentials are summed by one
    np.add.reduceat over a copy in which a zero leads every run: reduceat
    keeps a segment's first entry and adds numpy's pairwise sum of the rest,
    so 0 plus that sum is what ndarray.sum gives for the run.  Only when some
    run's maximum is non-finite (all -inf, +inf or nan) are floating-point
    warnings silenced, and those runs go through logsumexp itself.
    """
    top = np.maximum.reduceat(a, runs.heads)
    finite = np.isfinite(top)
    if np.logical_and.reduce(finite):
        return _logsumexp_finite(a, runs, top)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = _logsumexp_finite(a, runs, top)
    heads, lengths = runs.heads, runs.lengths
    for g in (~finite).nonzero()[0].tolist():
        out[g] = logsumexp(a[heads[g] : heads[g] + lengths[g]])
    return out


def _logsumexp_finite(a: np.ndarray, runs: Runs, top: np.ndarray) -> np.ndarray:
    """The body of logsumexp_over, exact for the runs whose maximum top[g]
    is finite."""
    padded = np.zeros(runs.is_term.shape)
    shifted = a - top.repeat(runs.lengths)
    # a - top is 0 exactly where a equals a finite top.
    mask = shifted == 0
    count = np.add.reduceat(mask, runs.heads, dtype=np.intp)
    terms = np.exp(shifted)
    terms[mask] = 0.0
    padded[runs.is_term] = terms
    rest = np.add.reduceat(padded, runs.leads)
    return np.log1p(rest / count) + np.log(count) + top


def log_partition(grid: ScoreGrid, space: SpaceKind) -> LogProbGrid:
    """Normalize a score grid into log probabilities.

    PARAGRAPH: every paragraph's positions plus its null slot sum to one.
    DOCUMENT: all positions across paragraphs sum to one; null is excluded.
    All work happens in the log domain so extreme scores stay finite.  The
    runs and the null-slot mask come from the grid's shape, which the result
    shares.
    """
    shape = grid.shape
    if space is SpaceKind.PARAGRAPH:
        runs = shape.paragraph_runs
        log = grid.vector - logsumexp_over(grid.vector, runs).repeat(runs.lengths)
    elif space is SpaceKind.DOCUMENT:
        positions, runs = shape.positions, shape.document_runs
        scores = grid.vector[positions]  # a copy, so both halves are normalized in place
        scores -= logsumexp_over(scores, runs).repeat(runs.lengths)
        log = np.empty(grid.vector.shape)
        log.fill(-np.inf)
        log[positions] = scores
    else:
        raise ValueError(f"unknown space {space!r}")
    return LogProbGrid._taking(log, shape)
