import math
import re

import numpy as np
import pytest
from scipy.special import logsumexp

from docqa import probability
from docqa.diagnostics import ALL_CELLS, random_scored_pair
from docqa.inference import AnswerAggregation, InferenceError, InferenceSpec, candidates, predict
from docqa.model import ToyScorer, Vocabulary
from docqa.objectives import ObjectiveSpec, combine, evaluate
from docqa.probability import GridShape, LogProbGrid, ScoreGrid, SpaceKind, log_partition
from docqa.synthlab import NoiseProfile, generate


def log_span_prob(probs: LogProbGrid, k: int, begin: int, end: int) -> float:
    """Log probability of the span [begin, end] in paragraph k: begin times end.

    The null slot may be addressed as (null_index, null_index).
    """
    if not 0 <= k < probs.n_paragraphs:
        raise ValueError(f"paragraph index {k} out of range")
    size = probs.log_begin[k].shape[0]
    if not 0 <= begin <= end < size:
        raise ValueError(f"invalid span ({begin}, {end}) for paragraph of {size - 1} tokens")
    return float(probs.log_begin[k][begin] + probs.log_end[k][end])


def over_runs(a: np.ndarray, sizes) -> np.ndarray:
    """logsumexp_over a, cut into consecutive runs of these sizes."""
    bounds = np.zeros(len(sizes) + 1, np.intp)
    np.cumsum(sizes, out=bounds[1:])
    return probability.logsumexp_over(a, probability.Runs.of(bounds))


def fixture_grid():
    grid = ScoreGrid.zeros([2, 1])
    grid.begin[0][:] = [0.2, -0.3, 0.1]
    grid.begin[1][:] = [1.5, -0.7]
    grid.end[0][:] = [0.0, 0.0, 0.0]
    grid.end[1][:] = [0.0, 0.0]
    return grid


class TestParagraphSpace:
    def test_partition_matches_direct_sum(self):
        # frozen from summing exp(score) by hand with the math module
        grid = fixture_grid()
        lp = log_partition(grid, SpaceKind.PARAGRAPH)
        # each paragraph's normalizer is its score minus its log probability
        for k, log_z in enumerate([1.1208276555532595, 1.6050833197686958]):
            np.testing.assert_allclose(grid.begin[k] - lp.begin[k], log_z, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            lp.log_begin[0][0], -0.9208276555532595, rtol=0, atol=1e-12
        )

    def test_null_slot_included(self):
        grid = ScoreGrid.zeros([3])
        lp = log_partition(grid, SpaceKind.PARAGRAPH)
        # four uniform outcomes: three tokens plus the null slot
        np.testing.assert_allclose(lp.log_begin[0], math.log(1 / 4), atol=1e-12)

    def test_shift_invariance(self):
        grid = fixture_grid()
        lp = log_partition(grid, SpaceKind.PARAGRAPH)
        shifted = ScoreGrid(grid.vector.copy(), grid.sizes)
        for arr in shifted.begin + shifted.end:
            arr += 123.456
        lp2 = log_partition(shifted, SpaceKind.PARAGRAPH)
        for k in range(2):
            np.testing.assert_allclose(lp.log_begin[k], lp2.log_begin[k], atol=1e-9)


class TestDocumentSpace:
    def test_pooled_partition(self):
        grid = fixture_grid()
        lp = log_partition(grid, SpaceKind.DOCUMENT)
        for k in range(2):
            np.testing.assert_allclose(
                grid.begin[k][:-1] - lp.begin[k][:-1], 1.8631355063687536, atol=1e-12
            )
        np.testing.assert_allclose(lp.log_begin[1][0], -0.3631355063687536, atol=1e-12)

    def test_null_slot_excluded(self):
        lp = log_partition(fixture_grid(), SpaceKind.DOCUMENT)
        assert lp.log_begin[0][2] == -np.inf
        assert lp.log_end[1][1] == -np.inf

    def test_matches_flat_softmax(self):
        rng = np.random.default_rng(23)
        grid = ScoreGrid.zeros([3, 2])
        for arr in grid.begin + grid.end:
            arr[:] = rng.normal(0, 2, arr.shape)
        lp = log_partition(grid, SpaceKind.DOCUMENT)
        flat = np.concatenate([a[:-1] for a in grid.begin])
        expected = flat - logsumexp(flat)
        got = np.concatenate([a[:-1] for a in lp.log_begin])
        np.testing.assert_allclose(got, expected, atol=1e-12)


def oracle_log_partition(grid, space):
    """Per-paragraph normalization as it was before the flat layout; a bitwise
    oracle.  Returns the begin arrays, then the end arrays."""
    if space is SpaceKind.PARAGRAPH:
        return [[a - probability.logsumexp(a) for a in arrays] for arrays in (grid.begin, grid.end)]
    sides = []
    for arrays in (grid.begin, grid.end):
        z = probability.logsumexp(np.concatenate([a[:-1] for a in arrays]))
        out = []
        for a in arrays:
            shifted = np.empty_like(a)
            shifted[:-1] = a[:-1] - z
            shifted[-1] = -np.inf
            out.append(shifted)
        sides.append(out)
    return sides


class TestFlatLayout:
    def test_log_partition_returns_a_grid_in_the_same_layout(self):
        grid = fixture_grid()
        for space in SpaceKind:
            lp = log_partition(grid, space)
            assert isinstance(lp, ScoreGrid)
            assert (lp.sizes, lp.offsets) == (grid.sizes, grid.offsets)
            for views in (lp.begin, lp.end, lp.log_begin, lp.log_end):
                assert all(np.shares_memory(a, lp.vector) for a in views)

    def test_matches_per_paragraph_oracle_bitwise(self):
        rng = np.random.default_rng(24)
        for trial in range(400):
            sizes = [int(n) for n in rng.integers(1, 8, int(rng.integers(1, 5)))]
            grid = ScoreGrid.zeros(sizes)
            scale = [1.0, 30.0, 1e4][trial % 3]
            grid.vector[:] = rng.normal(0.0, scale, grid.vector.shape)
            if trial % 7 == 0:
                grid.vector[rng.integers(0, grid.vector.size)] = -np.inf
            for space in SpaceKind:
                # a side whose only position is -inf normalizes to nan in both
                with np.errstate(invalid="ignore"):
                    lp = log_partition(grid, space)
                    expected = oracle_log_partition(grid, space)
                assert lp.sizes == grid.sizes
                for got, want in zip((lp.log_begin, lp.log_end), expected):
                    for a, b in zip(got, want):
                        np.testing.assert_array_equal(a, b)


    def test_paragraph_normalizers_equal_per_paragraph_logsumexp(self):
        # paragraphs of 1 to 60 positions, integer scores that tie at the
        # maximum, scattered -inf entries and one all -inf paragraph
        rng = np.random.default_rng(26)
        for trial in range(300):
            sizes = [int(n) for n in rng.integers(1, rng.choice([8, 60]), int(rng.integers(1, 7)))]
            grid = ScoreGrid.zeros(sizes)
            grid.vector[:] = rng.normal(0.0, 3.0, grid.vector.shape)
            if trial % 2:
                grid.vector[:] = np.round(grid.vector)
            grid.vector[rng.random(grid.vector.size) < 0.1] = -np.inf
            side = grid.begin if trial % 3 else grid.end
            side[int(rng.integers(len(sizes)))][:] = -np.inf
            want = [probability.logsumexp(a) for a in grid.begin + grid.end]
            # an all -inf paragraph normalizes to nan in both
            with np.errstate(invalid="ignore"):
                lp = log_partition(grid, SpaceKind.PARAGRAPH)
                for got, a, z in zip(lp.begin + lp.end, grid.begin + grid.end, want):
                    np.testing.assert_array_equal(got, a - z)
            assert np.isneginf(want).any()


class TestLogSumExp:
    def test_bit_identical_to_scipy(self):
        # exact equality, not a tolerance: checkpoints and acceptance EM rely on it
        rng = np.random.default_rng(24)
        cases = [
            np.array([0.7]),
            np.array([-np.inf]),
            np.array([-np.inf, -np.inf, -np.inf]),
            np.array([2.0, 2.0, -1.0, 2.0]),
            np.array([-np.inf, 0.5, -np.inf, -3.0]),
            np.array([1e4, -1e4, 1e4 - 1.0]),
            np.array([-1e4, -1e4 - 0.5]),
        ]
        for _ in range(2000):
            n = int(rng.integers(1, 16))
            arr = rng.normal(0, float(rng.choice([0.1, 3.0, 40.0])), n)
            if rng.random() < 0.3:
                arr[rng.integers(0, n, int(rng.integers(1, n + 1)))] = arr.max()
            if rng.random() < 0.3:
                arr[rng.random(n) < 0.4] = -np.inf
            if rng.random() < 0.2:
                arr = rng.uniform(-1e4, 1e4, n)
            cases.append(arr)
        for arr in cases:
            got = probability.logsumexp(arr)
            np.testing.assert_array_equal(got, logsumexp(arr), err_msg=repr(arr))
        assert probability.logsumexp(np.full(4, -np.inf)) == -np.inf

    def test_runs_bit_identical_to_logsumexp_per_run(self):
        # runs of 1 to 150 entries cross numpy's 8-entry and 128-entry
        # summation blocks; ties at the maximum, -inf and +inf entries too
        rng = np.random.default_rng(25)
        for _ in range(300):
            sizes = rng.integers(1, rng.choice([4, 12, 150]), int(rng.integers(1, 12)))
            a = rng.normal(0.0, float(rng.choice([0.1, 3.0, 40.0])), int(sizes.sum()))
            if rng.random() < 0.3:
                a = np.round(a)
            if rng.random() < 0.2:
                a[rng.random(a.size) < 0.3] = -np.inf
            if rng.random() < 0.05:
                a[rng.integers(a.size)] = np.inf
            got = over_runs(a, sizes)
            want = [probability.logsumexp(run) for run in np.split(a, np.cumsum(sizes)[:-1])]
            np.testing.assert_array_equal(got, want, err_msg=repr((a, sizes)))

    def test_runs_with_non_finite_maxima(self):
        # a run whose maximum is +inf, -inf or nan goes through logsumexp with
        # warnings silenced; finite runs beside it, -inf entries included,
        # raise none either way
        runs = [
            [0.5, -np.inf, 2.0],
            [np.inf, 1.0],
            [-np.inf, -np.inf],
            [np.nan, 3.0, 3.0],
            [np.inf, -np.inf, np.inf],
            [-1.0],
            [-np.inf],
        ]
        a = np.concatenate(runs)
        with np.errstate(all="raise"):
            got = over_runs(a, [len(run) for run in runs])
            finite = over_runs(a[:3], [3])
        with np.errstate(all="ignore"):
            want = [probability.logsumexp(np.array(run)) for run in runs]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got[:3], [logsumexp(runs[0]), np.inf, -np.inf])
        assert np.isnan(got[3]) and got[4] == np.inf
        assert finite == got[0]


class TestSpanProb:
    def test_factorizes(self):
        lp = log_partition(fixture_grid(), SpaceKind.PARAGRAPH)
        value = log_span_prob(lp, 1, 0, 0)
        np.testing.assert_allclose(
            value, lp.log_begin[1][0] + lp.log_end[1][0], atol=1e-12
        )

    def test_null_index_allowed_in_paragraph_space(self):
        lp = log_partition(fixture_grid(), SpaceKind.PARAGRAPH)
        value = log_span_prob(lp, 0, 2, 2)
        assert np.isfinite(value)

    def test_out_of_range_rejected(self):
        lp = log_partition(fixture_grid(), SpaceKind.PARAGRAPH)
        with pytest.raises(ValueError):
            log_span_prob(lp, 0, 3, 3)
        with pytest.raises(ValueError):
            log_span_prob(lp, 5, 0, 0)
        with pytest.raises(ValueError):
            log_span_prob(lp, 0, -1, 0)


class TestScoreGrid:
    def test_vector_round_trip(self):
        grid = fixture_grid()
        vec = grid.vector
        # begin arrays then end arrays, paragraph order
        np.testing.assert_array_equal(vec, [0.2, -0.3, 0.1, 1.5, -0.7, 0, 0, 0, 0, 0])
        assert grid.sizes == (3, 2)
        assert grid.offsets == (0, 3, 5, 8, 10)
        back = ScoreGrid(vec + 1.0, grid.sizes)
        np.testing.assert_array_equal(back.vector, vec + 1.0)
        np.testing.assert_array_equal(back.end[1], [1.0, 1.0])
        # original untouched
        np.testing.assert_array_equal(grid.begin[1], [1.5, -0.7])
        with pytest.raises(ValueError):
            ScoreGrid(vec[:-1], grid.sizes)

    def test_paragraphs_are_views_of_the_vector(self):
        grid = fixture_grid()
        grid.end[1][0] = 4.0
        assert grid.vector[8] == 4.0
        grid.vector[0] = -2.0
        assert grid.begin[0][0] == -2.0
        vec = np.arange(10.0)
        shared = ScoreGrid(vec, grid.sizes)
        vec[3] = 7.0
        assert shared.begin[1][0] == 7.0

    def test_shapes_validated(self):
        # a paragraph without a position, and a vector that is not flat
        with pytest.raises(ValueError):
            ScoreGrid(np.zeros(2), [1])
        with pytest.raises(ValueError):
            ScoreGrid(np.zeros((2, 2)), [2])

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            ScoreGrid.zeros([])

    def test_space_parse(self):
        assert SpaceKind.parse("P") is SpaceKind.PARAGRAPH
        assert SpaceKind.parse("D") is SpaceKind.DOCUMENT
        with pytest.raises(ValueError):
            SpaceKind.parse("Q")

    @pytest.mark.parametrize("space", ["P", None])
    def test_log_partition_rejects_a_value_that_is_no_space(self, space):
        with pytest.raises(ValueError, match=f"unknown space {space!r}"):
            log_partition(fixture_grid(), space)


class TestGridShape:
    """Every grid of one pair shares the pair's GridShape; grids built from
    plain sizes build an equal one and behave the same."""

    @staticmethod
    def scored_pairs():
        pairs, labels, _ = generate(NoiseProfile(documents=6, tokens_per_paragraph=24, seed=41))
        vocab = Vocabulary.from_pairs(pairs)
        rng = np.random.default_rng(41)
        scorer = ToyScorer(vocab, rng.normal(size=(len(vocab), 4)), *rng.normal(size=(4, 12)))
        return scorer, [(p, l) for p, l in zip(pairs, labels) if l.spans]

    def test_grids_of_one_pair_carry_its_shape(self):
        scorer, examples = self.scored_pairs()
        assert examples
        for pair, labels in examples:
            shape = pair.table.grid_layout.shape
            assert isinstance(shape, GridShape)
            assert shape.sizes == tuple(len(p) + 1 for p in pair.paragraphs)
            grid = scorer.score(pair)
            assert grid.shape is shape
            assert scorer.score(scorer.vocab.encode(pair)).shape is shape
            for space in SpaceKind:
                assert log_partition(grid, space).shape is shape
            for cell in ALL_CELLS:
                assert evaluate(cell, grid, labels).grad.shape is shape
            cells = [ObjectiveSpec.parse("H2-P-pos-mml"), ObjectiveSpec.parse("H3-D-span-hardem")]
            assert combine(cells, [0.5, 1.0], grid, labels).grad.shape is shape

    def test_constructors_build_equal_shapes(self):
        vector = np.arange(10.0)
        shapes = [
            ScoreGrid(vector, [3, 2]).shape,
            ScoreGrid(vector, (3, 2)).shape,
            ScoreGrid.zeros([2, 1]).shape,
            LogProbGrid(vector, [3, 2]).shape,
            GridShape([3, 2]),
        ]
        for shape in shapes:
            assert shape == shapes[0] and hash(shape) == hash(shapes[0])
            assert (shape.sizes, shape.offsets) == ((3, 2), (0, 3, 5, 8, 10))
        assert GridShape([3, 2]) != GridShape([2, 3])
        shared = ScoreGrid(vector, shapes[0])
        assert shared.shape is shapes[0] and shared.vector is vector

    @pytest.mark.parametrize(
        "build", [ScoreGrid, LogProbGrid, lambda _, sizes: ScoreGrid.zeros([s - 1 for s in sizes])]
    )
    def test_constructors_keep_their_checks(self, build):
        with pytest.raises(ValueError, match="at least one paragraph"):
            build(np.zeros(0), [])
        with pytest.raises(ValueError, match="a position and a null slot"):
            build(np.zeros(6), [2, 1])

    @pytest.mark.parametrize("bad", [3.9, 2.0, np.float64(3.0), "3", None, [3]])
    @pytest.mark.parametrize("build", [GridShape, lambda sizes: ScoreGrid(np.zeros(10), sizes)])
    def test_a_size_that_is_not_an_integer_is_named(self, build, bad):
        for sizes in ([3, bad], iter([3, bad])):
            with pytest.raises(ValueError, match=f"paragraph size must be an integer, got {re.escape(repr(bad))}"):
                build(sizes)

    def test_numpy_integer_sizes_build_the_shape(self):
        for sizes in (np.array([3, 2]), np.array([3, 2], np.uint8), [np.int64(3), np.uint16(2)]):
            shape = GridShape(sizes)
            assert shape == GridShape([3, 2]) and shape.offsets == (0, 3, 5, 8, 10)
            assert all(type(size) is int for size in shape.sizes + shape.offsets)
            assert ScoreGrid(np.zeros(10), sizes).shape == shape
        assert GridShape(np.zeros(0, np.intp)).sizes == ()
        with pytest.raises(ValueError, match="a position and a null slot"):
            GridShape(np.array([3, 1]))

    @pytest.mark.parametrize("cls", [ScoreGrid, LogProbGrid])
    def test_a_vector_of_another_length_is_rejected(self, cls):
        for shape in ([2], GridShape([2])):
            for vector in (np.zeros(5), np.zeros(3), np.zeros((2, 2))):
                with pytest.raises(ValueError, match="vector length"):
                    cls(vector, shape)

    def test_plain_sizes_decode_as_the_shared_shape(self):
        # generated pairs, whose paragraphs share one length, and random ones
        scorer, examples = self.scored_pairs()
        grids = [scorer.score(pair) for pair, _ in examples]
        pairs = [pair for pair, _ in examples]
        rng = np.random.default_rng(42)
        for _ in range(20):
            pair, grid = random_scored_pair(rng, max_tokens=10)
            grids.append(ScoreGrid(grid.vector, pair.table.grid_layout.shape))
            pairs.append(pair)
        assert any(len(set(grid.sizes)) > 1 for grid in grids)
        for pair, grid in zip(pairs, grids):
            plain = ScoreGrid(grid.vector.copy(), list(grid.sizes))
            assert plain.shape is not grid.shape
            for space in SpaceKind:
                probs = log_partition(grid, space)
                rebuilt = log_partition(plain, space)
                assert rebuilt.vector.tobytes() == probs.vector.tobytes()
                copied = LogProbGrid(probs.vector, list(probs.sizes))
                for top_k in (1, 3, None):
                    mine = candidates(probs, pair, top_k, 4)
                    for other in (rebuilt, copied):
                        theirs = candidates(other, pair, top_k, 4)
                        for name in ("lo", "hi", "log_p"):
                            a, b = getattr(mine, name), getattr(theirs, name)
                            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                        for aggregation in AnswerAggregation if len(mine.log_p) else ():
                            assert repr(mine.best(aggregation)) == repr(theirs.best(aggregation))

    def test_a_grid_of_other_sizes_raises(self):
        _, examples = self.scored_pairs()
        pair = examples[0][0]
        sizes = list(pair.table.grid_layout.shape.sizes)
        for other in (sizes + [2], sizes[:-1] + [sizes[-1] + 1], [sum(sizes)]):
            probs = log_partition(ScoreGrid.zeros([s - 1 for s in other]), SpaceKind.PARAGRAPH)
            for _ in range(2):
                with pytest.raises(InferenceError, match="does not match"):
                    predict(probs, pair, InferenceSpec())
