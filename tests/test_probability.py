import math

import numpy as np
import pytest
from scipy.special import logsumexp

from docqa import probability
from docqa.probability import LogProbGrid, ScoreGrid, SpaceKind, log_partition


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
            heads = np.cumsum(sizes) - sizes
            got = probability.logsumexp_runs(a, heads)
            want = [probability.logsumexp(run) for run in np.split(a, heads[1:])]
            np.testing.assert_array_equal(got, want, err_msg=repr((a, heads)))

    def test_runs_of_nothing(self):
        got = probability.logsumexp_runs(np.empty(0), np.empty(0, np.intp))
        assert got.shape == (0,) and got.dtype == np.float64

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
        heads = np.cumsum([len(run) for run in runs]) - [len(run) for run in runs]
        with np.errstate(all="raise"):
            got = probability.logsumexp_runs(a, heads)
            finite = probability.logsumexp_runs(a[:3], np.array([0]))
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
