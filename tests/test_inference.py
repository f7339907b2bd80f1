import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from docqa.corpus import load_dataset, make_pair, normalize_string, save_dataset
from docqa.diagnostics import RAW_TOKENS, random_scored_pair
from docqa.inference import (
    AnswerAggregation,
    InferenceError,
    InferenceSpec,
    _packed_rows,
    candidates,
    exhaustive_predict,
    predict,
    score_strings,
)
from docqa.labeling import find_consistent_spans_exact
from docqa.metrics import exact_match, token_f1
from docqa.model import ToyScorer, Vocabulary
from docqa.probability import (
    LogProbGrid,
    Runs,
    ScoreGrid,
    SpaceKind,
    log_partition,
    logsumexp,
    logsumexp_over,
)
from docqa.synthlab import NoiseProfile, generate


def scored_pair(texts, scores_begin, scores_end):
    pair = make_pair("t", "q", texts, ["placeholder"])
    grid = ScoreGrid.zeros([len(p.tokens) for p in pair.paragraphs])
    for k, values in enumerate(scores_begin):
        grid.begin[k][: len(values)] = values
    for k, values in enumerate(scores_end):
        grid.end[k][: len(values)] = values
    return pair, grid


def oracle_grouped(probs, pair, aggregation, top_k, max_answer_length):
    """Independent decoder: loop over ranked begin x end pairs, renormalize each
    span's text from scratch, and pool every string's mentions in loop order."""
    groups = {}
    for k, (log_begin, log_end) in enumerate(zip(probs.log_begin, probs.log_end)):
        begins = np.argsort(-log_begin[:-1], kind="stable")[:top_k]
        ends = np.argsort(-log_end[:-1], kind="stable")[:top_k]
        for b in begins:
            for e in ends:
                if b <= e < b + max_answer_length:
                    text = normalize_string(pair.paragraphs[k].text(b, e))
                    if text:
                        log_p = float(log_begin[b] + log_end[e])
                        groups.setdefault(text, []).append((log_p, (k, int(b), int(e))))
    out = {}
    for text, members in groups.items():
        logs = np.array([m[0] for m in members])
        if aggregation is AnswerAggregation.SUM:
            out[text] = (float(logsumexp(logs)), members)
        else:
            out[text] = (float(np.max(logs)), members)
    return out


def oracle_predict(probs, pair, aggregation, top_k, max_answer_length):
    """(answer, score) of oracle_grouped's best string."""
    grouped = oracle_grouped(probs, pair, aggregation, top_k, max_answer_length)
    if not grouped:
        raise InferenceError("no candidate answer string")
    answer = min(grouped, key=lambda text: (-grouped[text][0], text))
    return answer, grouped[answer][0]


EMPTY_TOKENS = [",", "--", "The", "an", "a"]


def decode(probs, pair, aggregation, top_k, max_answer_length):
    """predict, or exhaustive_predict for top_k=None."""
    if top_k is None:
        return exhaustive_predict(probs, pair, aggregation, max_answer_length)
    spec = InferenceSpec(aggregation=aggregation, top_k=top_k, max_answer_length=max_answer_length)
    return predict(probs, pair, spec)


class TestDecoderAgainstOracle:
    """predict, score_strings and exhaustive_predict equal the nested-loop
    oracle bit for bit, including top_k below the paragraph length."""

    def check(self, probs, pair, aggregation, top_k, max_answer_length):
        expected = oracle_grouped(probs, pair, aggregation, top_k, max_answer_length)
        scores = score_strings(probs, pair, aggregation, top_k, max_answer_length)
        assert list(scores.items()) == [(t, s) for t, (s, _) in expected.items()]
        try:
            answer, score = oracle_predict(
                probs, pair, aggregation, top_k, max_answer_length
            )
        except InferenceError:
            with pytest.raises(InferenceError):
                decode(probs, pair, aggregation, top_k, max_answer_length)
            return 1
        got = decode(probs, pair, aggregation, top_k, max_answer_length)
        assert got.answer == answer
        assert got.score == score
        assert type(got.score) is float
        return 0

    def test_fuzz_matches_oracle(self):
        rng = np.random.default_rng(61)
        empty = below = 0
        for max_answer_length in range(1, 10):
            for _ in range(40):
                pair, grid = random_scored_pair(rng)
                longest = max(pair.paragraph_lengths())
                for space in SpaceKind:
                    probs = log_partition(grid, space)
                    for aggregation in AnswerAggregation:
                        for top_k in (1, 2, 3, 5, None):
                            below += top_k is not None and top_k < longest
                            empty += self.check(
                                probs, pair, aggregation, top_k, max_answer_length
                            )
        # the sweep must reach the truncating and the no-candidate cases
        assert below > 2000
        assert empty > 50

    def test_large_groups_pool_in_candidate_order(self):
        # "rome" and "Rome." normalize alike, so with length-1 spans SUM pools
        # up to 15 mentions in one group
        rng = np.random.default_rng(62)
        for _ in range(200):
            n = int(rng.integers(3, 13))
            pair = make_pair("g", "q", [["rome"] * n, ["Rome.", ","] * 3], ["rome"])
            grid = ScoreGrid.zeros([n, 6])
            for arr in grid.begin + grid.end:
                arr[:] = rng.normal(0.0, 3.0, arr.shape)
            for space in SpaceKind:
                probs = log_partition(grid, space)
                for top_k in (3, 5, None):
                    self.check(probs, pair, AnswerAggregation.SUM, top_k, 1)

    def test_shape_limits_match_oracle(self):
        # up to 8 paragraphs of 1 to 40 tokens, top_k above some paragraph
        # lengths and below others, one paragraph whose every span normalizes
        # to "", and integer scores that tie across paragraphs
        rng = np.random.default_rng(63)
        above = below = 0
        for _ in range(24):
            counts = [int(rng.integers(1, 41)) for _ in range(int(rng.integers(2, 9)))]
            paragraphs = [
                [RAW_TOKENS[i] for i in rng.integers(0, len(RAW_TOKENS), n)] for n in counts
            ]
            silent = int(rng.integers(len(counts)))
            paragraphs[silent] = [
                EMPTY_TOKENS[i] for i in rng.integers(0, len(EMPTY_TOKENS), counts[silent])
            ]
            pair = make_pair("s", "q", paragraphs, ["rome"])
            grid = ScoreGrid.zeros(counts)
            grid.vector[:] = rng.integers(-2, 3, grid.vector.shape)
            middle = sorted(counts)[len(counts) // 2]
            max_answer_length = int(rng.integers(1, 9))
            for space in SpaceKind:
                probs = log_partition(grid, space)
                for aggregation in AnswerAggregation:
                    for top_k in (1, middle, None):
                        self.check(probs, pair, aggregation, top_k, max_answer_length)
                    above += sum(n < middle for n in counts)
                    below += sum(n > middle for n in counts)
        assert above > 100 and below > 100
        # a last paragraph shorter than top_k that ends in a word that can
        # lead a span: its pad begins fall past the document, where a clipped
        # read of the first words lands on that last word
        pair = make_pair("s", "q", [["the", "rome", "a", "pisa"], ["the", "rome"]], ["rome"])
        grid = ScoreGrid.zeros([4, 2])
        grid.vector[:] = [0, 1, -1, 2, 1, 0, 2, 1, -2, 1, 0, 2, 1, -1, 2, 0]
        for space in SpaceKind:
            probs = log_partition(grid, space)
            for aggregation in AnswerAggregation:
                for max_answer_length in (1, 2, 3):
                    self.check(probs, pair, aggregation, 3, max_answer_length)

    def test_longest_documents_match_oracle(self):
        # 8 paragraphs of 400 tokens over about 30 words, the loader's largest
        # document: rows this long make the stable sort merge runs, and the
        # top_k cut falls inside long runs of tied integer scores
        rng = np.random.default_rng(64)
        words = RAW_TOKENS + [f"w{i}" for i in range(21)]
        for trial in range(4):
            paragraphs = [[words[i] for i in rng.integers(0, len(words), 400)] for _ in range(8)]
            pair = make_pair("l", "q", paragraphs, ["rome"])
            grid = ScoreGrid.zeros([400] * 8)
            if trial % 2:
                grid.vector[:] = rng.normal(0.0, 2.0, grid.vector.shape)
            else:
                grid.vector[:] = rng.integers(-2, 3, grid.vector.shape)
            grid.vector[rng.random(grid.vector.size) < 0.02] = -np.inf
            max_answer_length = (1, 8)[trial // 2]
            for space in SpaceKind:
                probs = log_partition(grid, space)
                for aggregation in AnswerAggregation:
                    for top_k in (1, 20, 100):
                        self.check(probs, pair, aggregation, top_k, max_answer_length)

    def test_no_candidate_raises(self):
        pair = make_pair("e", "q", [["The", ",", "--", "an"], [","]], ["rome"])
        grid = ScoreGrid.zeros([4, 1])
        for space in SpaceKind:
            probs = log_partition(grid, space)
            assert score_strings(probs, pair, AnswerAggregation.SUM, None) == {}
            for top_k in (1, 3, None):
                with pytest.raises(InferenceError):
                    decode(probs, pair, AnswerAggregation.MAX, top_k, 4)


class TestPoolingPaths:
    """MAX finds its winner among the top-scoring mentions without grouping,
    and SUM scores a one-mention string as the mention itself; both must
    agree with the grouped scores of score_strings."""

    def test_predict_is_top_of_score_strings(self):
        rng = np.random.default_rng(65)
        tied = silent = flat = 0
        for _ in range(60):
            pair, grid = random_scored_pair(rng)
            grid.vector[:] = rng.integers(-2, 3, grid.vector.shape)
            # no position, one paragraph's positions, or every position at
            # -inf; the null slots stay finite
            blank = int(rng.integers(3))
            for k in range(grid.n_paragraphs) if blank == 2 else range(blank):
                grid.begin[k][:-1] = -np.inf
                grid.end[k][:-1] = -np.inf
            for space in SpaceKind:
                with np.errstate(invalid="ignore"):  # -inf - -inf is NaN
                    probs = log_partition(grid, space)
                for aggregation in AnswerAggregation:
                    for top_k in range(1, 21):
                        spec = InferenceSpec(aggregation=aggregation, top_k=top_k)
                        try:
                            scores = score_strings(probs, pair, aggregation, top_k)
                        except InferenceError:  # a DOCUMENT grid with no finite position
                            with pytest.raises(InferenceError):
                                predict(probs, pair, spec)
                            silent += 1
                            continue
                        if not scores:
                            with pytest.raises(InferenceError):
                                predict(probs, pair, spec)
                            continue
                        best = max(scores.values())
                        winners = sorted(text for text, score in scores.items() if score == best)
                        got = predict(probs, pair, spec)
                        assert (got.answer, got.score) == (winners[0], best)
                        tied += len(winners) > 1
                        flat += best == -np.inf
        assert tied > 1000 and silent > 500 and flat > 500

    @staticmethod
    def bits(x):
        return np.float64(x).tobytes()

    def test_one_mention_sum_is_the_mention(self):
        # "pisa" is mentioned once and "rome" twice, with length-1 spans
        pair = make_pair("o", "q", [["rome", "pisa", "rome"]], ["rome"])
        for value in (-1.25, -np.inf, -0.0):
            vector = np.full(8, -2.0)
            vector[[1, 5]] = value, value  # pisa's begin and end
            probs = LogProbGrid(vector, [4])
            mention = probs.log_begin[0][1] + probs.log_end[0][1]
            scores = score_strings(probs, pair, AnswerAggregation.SUM, None, 1)
            assert self.bits(scores["pisa"]) == self.bits(logsumexp(np.array([mention])))
            assert scores["pisa"] == mention
            spec = InferenceSpec(aggregation=AnswerAggregation.SUM, max_answer_length=1)
            got = predict(probs, pair, spec)
            answer = max(scores, key=scores.__getitem__)
            assert got.answer == answer and self.bits(got.score) == self.bits(scores[answer])

    def test_mixed_groups_equal_logsumexp_per_string(self):
        rng = np.random.default_rng(66)
        singles = shared = 0
        for _ in range(50):
            pair, grid = random_scored_pair(rng, max_tokens=20)
            probs = log_partition(grid, SpaceKind.DOCUMENT)
            grouped = oracle_grouped(probs, pair, AnswerAggregation.SUM, None, 3)
            scores = score_strings(probs, pair, AnswerAggregation.SUM, None, 3)
            assert list(scores) == list(grouped)
            for text, (_, members) in grouped.items():
                logs = np.array([log_p for log_p, _ in members])
                assert self.bits(scores[text]) == self.bits(logsumexp(logs))
                singles += len(logs) == 1
                shared += len(logs) > 1
        assert singles > 200 and shared > 200


class TestPackedPooling:
    """pooled groups spans by their key rows read as uint64 words: 8 uint8 or
    4 uint16 keys a word.  Rows of one, two and three words, and strings that
    share their first word of keys and differ in a later one, must group
    exactly as their texts do."""

    PHRASE = [f"p{i}" for i in range(8)]

    def document(self, rng, n_words):
        # four paragraphs of 90 words drawn from n_words, each with the phrase's
        # first 4 or all 8 words, then "x" or "y", spliced in twice
        words = [f"w{i}" for i in range(n_words)]
        drawn = rng.permutation(words * (1 + 360 // n_words))[:360].tolist()
        paragraphs = [drawn[i : i + 90] for i in range(0, 360, 90)]
        for k, paragraph in enumerate(paragraphs):
            for shared in (4, 8):
                for last in ("x", "y"):
                    at = int(rng.integers(len(paragraph)))
                    paragraph[at:at] = self.PHRASE[:shared] + [last]
        return make_pair("packed", "q", paragraphs, ["x"])

    @staticmethod
    def brute_force(found, aggregation):
        """Each candidate text's log probabilities in candidate order, pooled."""
        groups = {}
        for c, log_p in enumerate(found.log_p.tolist()):
            groups.setdefault(found.text(c), []).append(log_p)
        if aggregation is AnswerAggregation.MAX:
            return {text: max(logs) for text, logs in groups.items()}
        return {text: float(logsumexp(np.array(logs))) for text, logs in groups.items()}

    @pytest.mark.parametrize("n_words, dtype", [(40, np.uint8), (300, np.uint16)])
    def test_rows_of_one_to_three_words_match_oracles(self, n_words, dtype):
        rng = np.random.default_rng(67)
        pair = self.document(rng, n_words)
        assert pair.table.span_keys.sequence.dtype == dtype
        grid = ScoreGrid.zeros(pair.paragraph_lengths())
        grid.vector[:] = rng.normal(0.0, 2.0, grid.vector.shape)
        split = 0
        for max_answer_length in (3, 8, 9, 12):
            for space in SpaceKind:
                probs = log_partition(grid, space)
                found = candidates(probs, pair, None, max_answer_length)
                for aggregation in AnswerAggregation:
                    scores = score_strings(probs, pair, aggregation, None, max_answer_length)
                    want = self.brute_force(found, aggregation)
                    assert list(scores.items()) == list(want.items())
                    for top_k in (10, None):
                        got = decode(probs, pair, aggregation, top_k, max_answer_length)
                        best = oracle_predict(probs, pair, aggregation, top_k, max_answer_length)
                        assert (got.answer, got.score) == best
                # the strings that agree in their first word and differ after it
                for shared in (4, 8):
                    if shared < max_answer_length:
                        phrase = " ".join(self.PHRASE[:shared])
                        assert {f"{phrase} x", f"{phrase} y"} <= set(scores)
                        split += 1
        assert split == 10


def gather_packed(sequence, lo, hi):
    """Key rows by one clipped gather of the sequence, zeroed from each hi
    on and read as (rows, words) uint64: the reference the windows match."""
    per_word = 8 // sequence.itemsize
    words = -(-int(np.max(hi - lo)) // per_word)
    at = lo[:, None] + np.arange(words * per_word)
    keys = sequence.take(at, mode="clip")
    keys[at >= hi[:, None]] = 0
    return keys.view(np.uint64)


def gather_pooled(found, aggregation):
    """Candidates.pooled with its rows from gather_packed."""
    packed = gather_packed(found.sequence, found.lo, found.hi)
    if packed.shape[1] == 1:
        packed = packed.ravel()
        by_key = packed.argsort(kind="stable")
        rows = packed[by_key]
        differs = rows[1:] != rows[:-1]
    else:
        by_key = np.lexsort(packed.T)
        rows = packed[by_key]
        differs = np.logical_or.reduce(rows[1:] != rows[:-1], axis=1)
    bounds = np.flatnonzero(np.concatenate([[True], differs, [True]]))
    heads = bounds[:-1]
    log_p = found.log_p[by_key]
    if aggregation is AnswerAggregation.MAX:
        return by_key[heads], np.maximum.reduceat(log_p, heads)
    scores = log_p[heads] + 0.0
    sizes = bounds[1:] - heads
    shared = sizes > 1
    if shared.any():
        edges = np.concatenate([[0], sizes[shared].cumsum()])
        scores[shared] = logsumexp_over(log_p[shared.repeat(sizes)], Runs.of(edges))
    return by_key[heads], scores


class TestWindowPacking:
    """A key row of one word is the span's uint64 window of the zero-padded
    key sequence ANDed with a length mask; it must equal the zero-padded
    gather it replaced, including windows that read the padding."""

    @pytest.mark.parametrize("n_words, dtype", [(40, np.uint8), (300, np.uint16)])
    def test_every_one_word_row_packs_as_the_gather(self, n_words, dtype):
        pair = TestPackedPooling().document(np.random.default_rng(68), n_words)
        keys = pair.table.span_keys
        sequence = keys.sequence
        assert sequence.dtype == dtype
        assert sequence.base[len(sequence) :].tobytes() == bytes(8)  # the padding
        assert keys.windows.base is sequence.base  # a view of the padded buffer, not a copy
        per_word = 8 // sequence.itemsize
        lo = np.array(
            [i for i in range(len(sequence)) for n in range(1, per_word + 1) if i + n <= len(sequence)],
            keys.upto.dtype,
        )
        hi = np.array(
            [i + n for i in range(len(sequence)) for n in range(1, per_word + 1) if i + n <= len(sequence)],
            keys.upto.dtype,
        )
        assert (hi == len(sequence)).sum() == per_word  # rows that end at the last key
        packed = _packed_rows(sequence, keys.windows, lo, hi)
        assert packed.shape == lo.shape and packed.dtype == np.uint64
        assert packed.tobytes() == gather_packed(sequence, lo, hi).ravel().tobytes()
        for length in range(1, per_word + 1):  # each length alone, at the sequence's end too
            short = hi - lo == length
            assert (
                _packed_rows(sequence, keys.windows, lo[short], hi[short]).tobytes()
                == gather_packed(sequence, lo[short], hi[short]).tobytes()
            )

    @pytest.mark.parametrize("n_words", [40, 300])
    def test_pooled_is_bit_identical_to_the_gather(self, n_words, monkeypatch):
        rng = np.random.default_rng(69)
        pair = TestPackedPooling().document(rng, n_words)
        per_word = 8 // pair.table.span_keys.sequence.itemsize
        grid = ScoreGrid.zeros(pair.paragraph_lengths())
        grid.vector[:] = rng.normal(0.0, 2.0, grid.vector.shape)
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys)) or lexsort(keys))
        for max_answer_length in (1, per_word, per_word + 1, 12):
            for space in SpaceKind:
                found = candidates(log_partition(grid, space), pair, None, max_answer_length)
                for aggregation in AnswerAggregation:
                    before = len(sorts)
                    got = found.pooled(aggregation)
                    wide = int(np.max(found.hi - found.lo)) > per_word
                    assert len(sorts) - before == wide  # rows wider than one word go through lexsort
                    want = gather_pooled(found, aggregation)
                    for mine, theirs in zip(got, want):
                        assert mine.dtype == theirs.dtype
                        assert mine.tobytes() == theirs.tobytes()
        assert sorts and all(n > 1 for n in sorts)


class TestAggregationFlip:
    def build(self):
        # "rome" appears twice with moderate mass, "pisa" once with the most:
        # each rome mention scores 4.6, pisa scores 5.0, and pooled rome mass
        # 2 * e^4.6 beats e^5.0 while a single mention does not.
        pair, grid = scored_pair(
            ["rome beats pisa", "rome again"],
            [[2.3, -5.0, 2.5], [2.3, -5.0]],
            [[2.3, -5.0, 2.5], [2.3, -5.0]],
        )
        return pair, log_partition(grid, SpaceKind.DOCUMENT)

    def test_max_prefers_single_strong_mention(self):
        pair, probs = self.build()
        spec = InferenceSpec(aggregation=AnswerAggregation.MAX, max_answer_length=1)
        assert predict(probs, pair, spec).answer == "pisa"

    def test_sum_pools_repeated_mentions(self):
        pair, probs = self.build()
        spec = InferenceSpec(aggregation=AnswerAggregation.SUM, max_answer_length=1)
        prediction = predict(probs, pair, spec)
        assert prediction.answer == "rome"
        scores = score_strings(probs, pair, AnswerAggregation.SUM, max_answer_length=1)
        np.testing.assert_allclose(prediction.score, scores["rome"], atol=1e-12)
        assert scores["rome"] > scores["pisa"]

    def test_sum_equals_log_of_summed_mention_mass(self):
        pair, probs = self.build()
        sums = score_strings(probs, pair, AnswerAggregation.SUM, max_answer_length=1)
        maxes = score_strings(probs, pair, AnswerAggregation.MAX, max_answer_length=1)
        # rome mentions: (0,0,0) and (1,0,0), identical scores in this grid
        mention = (
            probs.log_begin[0][0] + probs.log_end[0][0]
        )
        np.testing.assert_allclose(sums["rome"], mention + math.log(2.0), atol=1e-12)
        np.testing.assert_allclose(maxes["rome"], mention, atol=1e-12)
        np.testing.assert_allclose(sums["pisa"], maxes["pisa"], atol=1e-12)


class TestWinnerSelection:
    def test_tie_breaks_lexicographically(self):
        pair, grid = scored_pair(["zebra apple"], [[1.0, 1.0]], [[1.0, 1.0]])
        probs = log_partition(grid, SpaceKind.PARAGRAPH)
        spec = InferenceSpec(aggregation=AnswerAggregation.MAX, max_answer_length=1)
        assert predict(probs, pair, spec).answer == "apple"

    def test_sum_pools_every_mention(self):
        pair, grid = scored_pair(
            ["echo delta echo", "echo"],
            [[1.0, 0.0, 1.0], [1.0]],
            [[1.0, 0.0, 1.0], [1.0]],
        )
        probs = log_partition(grid, SpaceKind.DOCUMENT)
        spec = InferenceSpec(aggregation=AnswerAggregation.SUM, max_answer_length=1)
        prediction = predict(probs, pair, spec)
        assert prediction.answer == "echo"
        # the mentions (0, 0, 0), (0, 2, 2) and (1, 0, 0), in candidate order
        mentions = [
            probs.log_begin[k][i] + probs.log_end[k][i] for k, i in ((0, 0), (0, 2), (1, 0))
        ]
        assert prediction.score == float(logsumexp(np.array(mentions)))

    def test_normalization_groups_article_variants(self):
        pair, grid = scored_pair(["the lake shore"], [[1.0, 1.0, -9.0]], [[-9.0, 1.0, -9.0]])
        probs = log_partition(grid, SpaceKind.PARAGRAPH)
        spec = InferenceSpec(aggregation=AnswerAggregation.SUM, max_answer_length=2)
        prediction = predict(probs, pair, spec)
        # "the lake" (0, 0, 1) and "lake" (0, 1, 1) pool into one candidate string
        assert prediction.answer == "lake"
        mentions = [probs.log_begin[0][b] + probs.log_end[0][1] for b in (0, 1)]
        assert prediction.score == float(logsumexp(np.array(mentions)))

    def test_null_outcome_never_predicted(self):
        pair, grid = scored_pair(["word"], [[-50.0]], [[-50.0]])
        grid.begin[0][1] = 50.0
        grid.end[0][1] = 50.0
        probs = log_partition(grid, SpaceKind.PARAGRAPH)
        prediction = predict(probs, pair, InferenceSpec())
        assert prediction.answer == "word"

    def test_empty_candidates_raise(self):
        pair, grid = scored_pair(["the"], [[0.0]], [[0.0]])
        probs = log_partition(grid, SpaceKind.PARAGRAPH)
        # the lone token normalizes to the empty string
        with pytest.raises(InferenceError):
            predict(probs, pair, InferenceSpec())

    def test_mismatched_grid_raises(self):
        # more paragraphs, and a paragraph shorter or longer than the pair's
        pair, _ = scored_pair(["rome pisa lake"], [[0.0] * 3], [[0.0] * 3])
        for counts in ([3, 2], [2], [4]):
            probs = log_partition(ScoreGrid.zeros(counts), SpaceKind.PARAGRAPH)
            with pytest.raises(InferenceError):
                predict(probs, pair, InferenceSpec())
            with pytest.raises(InferenceError):
                score_strings(probs, pair, AnswerAggregation.SUM)


class TestNaNGrid:
    """A probability grid holding NaN anywhere, null slots included, has no
    defined ranking, so every decoder raises InferenceError."""

    def grids(self):
        pair, grid = scored_pair(
            ["rome pisa lake", "rome"], [[1.0, 0.0, 2.0], [0.5]], [[0.0] * 3, [0.0]]
        )
        for space in SpaceKind:
            probs = log_partition(grid, space)
            # a begin, a null slot, the last begin and the first end entry
            for at in (0, probs.offsets[1] - 1, probs.offsets[2] - 2, probs.offsets[2]):
                vector = probs.vector.copy()
                vector[at] = np.nan
                yield pair, LogProbGrid(vector, probs.sizes)
        grid.begin[0][1] = np.nan  # spreads through log_partition
        for space in SpaceKind:
            yield pair, log_partition(grid, space)

    def test_every_decoder_raises(self):
        for pair, probs in self.grids():
            for aggregation in AnswerAggregation:
                for top_k in (1, 20, None):
                    with pytest.raises(InferenceError, match="NaN"):
                        decode(probs, pair, aggregation, top_k, 3)
                with pytest.raises(InferenceError, match="NaN"):
                    score_strings(probs, pair, aggregation)

    def test_infinite_entries_without_nan_decode(self):
        # +inf and -inf among the begins, a finite end grid: every span's log
        # probability is +inf, finite or -inf, and NaN appears nowhere
        pair, grid = scored_pair(["rome pisa lake", "rome"], [[0.0], [0.0]], [[0.0], [0.0]])
        vector = log_partition(grid, SpaceKind.DOCUMENT).vector.copy()
        vector[1] = np.inf  # begin "pisa"
        vector[2] = -np.inf  # begin "lake"
        probs = LogProbGrid(vector, grid.sizes)
        for _ in range(2):
            for aggregation in AnswerAggregation:
                for top_k in (1, 3, 20, None):
                    got = decode(probs, pair, aggregation, top_k, 3)
                    assert (got.answer, got.score) == oracle_predict(probs, pair, aggregation, top_k, 3)
                    if top_k != 1:  # one ranked end, "rome", lies before "pisa"
                        assert (got.answer, got.score) == ("pisa", math.inf)

    def test_nan_in_one_null_slot_raises_on_every_call(self):
        pair, grid = scored_pair(["rome pisa lake", "rome"], [[1.0, 0.0, 2.0], [0.5]], [[0.0] * 3, [0.0]])
        for space in SpaceKind:
            probs = log_partition(grid, space)
            for null in (probs.offsets[1] - 1, probs.offsets[-1] - 1):
                vector = probs.vector.copy()
                vector[null] = np.nan
                nan_grid = LogProbGrid(vector, probs.shape)
                for _ in range(3):
                    for aggregation in AnswerAggregation:
                        with pytest.raises(InferenceError, match="NaN"):
                            decode(nan_grid, pair, aggregation, 20, 3)
                    with pytest.raises(InferenceError, match="NaN"):
                        candidates(nan_grid, pair, None)
                assert nan_grid._decoded == {}


class TestKeptCandidates:
    """A LogProbGrid is a read-only copy of its vector and keeps the
    candidates built from it, once per pair, top_k and length cap."""

    @staticmethod
    def probs(space=SpaceKind.PARAGRAPH):
        pair, grid = scored_pair(
            ["rome pisa lake", "rome"], [[1.0, 0.0, 2.0], [0.5]], [[0.0, 0.0, 3.0], [0.0]]
        )
        return pair, log_partition(grid, space)

    def test_equal_arguments_return_the_same_candidates(self):
        pair, probs = self.probs()
        found = candidates(probs, pair, 2, 3)
        assert candidates(probs, pair, 2, 3) is found
        assert candidates(probs, pair, 3, 3) is not found
        assert candidates(probs, pair, 2, 2) is not found
        for array in (found.lo, found.hi, found.log_p):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_each_pair_gets_its_own_answer(self):
        # equal paragraph lengths, so one grid fits both pairs
        rome = make_pair("a", "q", [["rome", "pisa", "lake"]], ["rome"])
        oslo = make_pair("b", "q", [["oslo", "bern", "riga"]], ["oslo"])
        grid = ScoreGrid.zeros([3])
        grid.begin[0][1] = grid.end[0][1] = 4.0
        probs = log_partition(grid, SpaceKind.PARAGRAPH)
        for aggregation in AnswerAggregation:
            spec = InferenceSpec(aggregation=aggregation, max_answer_length=1)
            assert predict(probs, rome, spec).answer == "pisa"
            assert predict(probs, oslo, spec).answer == "bern"
            assert predict(probs, rome, spec).answer == "pisa"

    def test_writing_the_source_vector_changes_no_decode(self):
        pair, probs = self.probs()
        source = probs.vector.copy()
        grid = LogProbGrid(source, probs.sizes)
        # the same paragraphs with "rome" ahead of "lake"
        other = log_partition(
            scored_pair(["rome pisa lake", "rome"], [[3.0], [0.0]], [[3.0], [0.0]])[1],
            SpaceKind.PARAGRAPH,
        ).vector
        assert predict(LogProbGrid(other, probs.sizes), pair, InferenceSpec()).answer == "rome"
        assert predict(grid, pair, InferenceSpec()).answer == "lake"
        source[:] = other
        for top_k in (20, 1):  # candidates kept before the write, then built after it
            for aggregation in AnswerAggregation:
                spec = InferenceSpec(aggregation, top_k)
                assert predict(grid, pair, spec) == predict(probs, pair, spec)
        assert grid.vector.tobytes() == probs.vector.tobytes()

    def test_grid_and_its_views_are_read_only(self):
        for space in SpaceKind:
            pair, probs = self.probs(space)
            for view in (probs.vector, probs.begin[1], probs.end[0], probs.log_begin[0]):
                with pytest.raises(ValueError):
                    view[0] = 0.0
            with pytest.raises(ValueError):
                probs.vector += 1.0

    def test_every_position_is_kept_apart_from_none(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            pair, grid = random_scored_pair(rng, max_tokens=12)
            longest = max(len(p.tokens) for p in pair.paragraphs)
            for space in SpaceKind:
                probs = log_partition(grid, space)
                every = candidates(probs, pair, None, 3)
                top = candidates(probs, pair, longest, 3)
                assert every is not top
                assert candidates(probs, pair, None, 3) is every
                for aggregation in AnswerAggregation if len(every.log_p) else ():
                    assert repr(every.best(aggregation)) == repr(top.best(aggregation))

    def test_nan_grid_raises_on_every_call(self):
        pair, probs = self.probs()
        vector = probs.vector.copy()
        vector[1] = np.nan
        grid = LogProbGrid(vector, probs.sizes)
        for _ in range(3):
            with pytest.raises(InferenceError, match="NaN"):
                candidates(grid, pair)
            for aggregation in AnswerAggregation:
                with pytest.raises(InferenceError, match="NaN"):
                    predict(grid, pair, InferenceSpec(aggregation))


class TestTopKAgainstExhaustive:
    def test_truncated_top_k_never_outscores_exhaustive(self):
        # paragraphs of 10-40 tokens from 6 words, so strings pool several
        # mentions, and top_k below every paragraph's length
        rng = np.random.default_rng(54)
        lower = 0
        for _ in range(60):
            counts = [int(rng.integers(10, 41)) for _ in range(int(rng.integers(1, 4)))]
            texts = [" ".join(f"w{int(rng.integers(0, 6))}" for _ in range(n)) for n in counts]
            pair = make_pair("t", "q", texts, ["w0"])
            grid = ScoreGrid.zeros(counts)
            for arr in grid.begin + grid.end:
                arr[:] = rng.normal(0.0, 2.0, arr.shape)
            for space in SpaceKind:
                probs = log_partition(grid, space)
                for aggregation in AnswerAggregation:
                    best = exhaustive_predict(probs, pair, aggregation, max_answer_length=4)
                    for top_k in (1, 2, 5, min(counts) - 1):
                        spec = InferenceSpec(
                            aggregation=aggregation, top_k=top_k, max_answer_length=4
                        )
                        try:
                            score = predict(probs, pair, spec).score
                        except InferenceError:
                            score = -np.inf
                        assert score <= best.score + 1e-12
                        lower += score < best.score - 1e-12
        # truncation must actually lose mass in a good share of the cases
        assert lower > 400

    def test_exhaustive_is_top_k_fixed_point(self):
        rng = np.random.default_rng(53)
        pair, grid = random_scored_pair(rng)
        probs = log_partition(grid, SpaceKind.PARAGRAPH)
        big = predict(
            probs,
            pair,
            InferenceSpec(aggregation=AnswerAggregation.SUM, top_k=1000, max_answer_length=8),
        )
        slow = exhaustive_predict(probs, pair, AnswerAggregation.SUM, max_answer_length=8)
        assert big.answer == slow.answer
        np.testing.assert_allclose(big.score, slow.score, atol=1e-12)


class TestRepeatedDecoding:
    def test_a_pair_decodes_again_as_a_fresh_pair(self):
        """The second decode of a pair reads the layouts the first laid out;
        it must match a fresh copy's decode bit for bit at every top_k."""
        rng = np.random.default_rng(62)
        for _ in range(30):
            pair, grid = random_scored_pair(rng, max_tokens=16)
            texts = [[t.text for t in p.tokens] for p in pair.paragraphs]
            longest = max(map(len, texts))
            for space in SpaceKind:
                probs = log_partition(grid, space)
                for top_k in range(1, longest + 1):
                    candidates(probs, pair, top_k)
                    # a new grid keeps no candidates, so this builds them again
                    again = candidates(LogProbGrid(probs.vector, probs.sizes), pair, top_k)
                    fresh = candidates(probs, make_pair("f", "q", texts, ["rome"]), top_k)
                    assert again.words == fresh.words
                    for name in ("sequence", "lo", "hi", "log_p"):
                        mine, theirs = getattr(again, name), getattr(fresh, name)
                        assert mine.dtype == theirs.dtype
                        assert mine.tobytes() == theirs.tobytes()
                    for aggregation in AnswerAggregation if len(fresh.log_p) else ():
                        assert repr(again.best(aggregation)) == repr(fresh.best(aggregation))


class TestNoNumpyWrappers:
    def test_decode_path_enters_no_numpy_wrapper(self, tmp_path):
        """Labeling, scoring, normalizing, decoding and scoring the answer of a
        freshly loaded pair, layouts and encoding included, calls numpy only
        through C entry points: the one numpy .py frame it enters is
        np.bincount's dispatcher, which grid_layout runs once per pair to
        count each paragraph's words."""
        profile = NoiseProfile(
            vocab_size=80, documents=6, paragraphs_per_document=4, tokens_per_paragraph=40,
            alias_rate=0.4, multi_answer_rate=0.5, seed=27,
        )
        save_dataset(generate(profile)[0], tmp_path / "data.jsonl")
        pairs = load_dataset(tmp_path / "data.jsonl")
        vocab = Vocabulary.from_pairs(pairs)
        rng = np.random.default_rng(27)
        scorer = ToyScorer(vocab, rng.normal(size=(len(vocab), 8)), *rng.normal(size=(4, 24)))
        specs = [InferenceSpec(aggregation=a) for a in AnswerAggregation]
        entered = []

        def record(frame, event, arg):
            path = Path(frame.f_code.co_filename)
            if event == "call" and "numpy" in path.parts and path.suffix == ".py":
                entered.append(f"{path.name}:{frame.f_code.co_name}")

        for pair in pairs:
            sys.setprofile(record)
            try:
                find_consistent_spans_exact(pair)
                grid = scorer.score(pair)
                for space in SpaceKind:
                    probs = log_partition(grid, space)
                    for spec in specs:
                        answer = predict(probs, pair, spec).answer
                        exact_match(answer, pair.answers.raw)
                        token_f1(answer, pair.answers.raw)
            finally:
                sys.setprofile(None)
        assert entered == ["multiarray.py:bincount"] * len(pairs)

    def test_laid_out_pairs_enter_no_numpy_python_frame(self):
        """Once a pair's layouts are built, scoring it, normalizing the grid in
        both spaces and decoding it under both aggregations enters no frame of
        any numpy .py file.  The once-per-pair layouts (span_keys, grid_layout)
        may; they are built before profiling.  One frame stays by design: a
        key row wider than one uint64 word (here, more than 8 keys under a
        length cap of 9) is grouped by np.lexsort, whose Python dispatcher
        runs before the C sort."""
        profile = NoiseProfile(
            vocab_size=80, documents=6, paragraphs_per_document=4, tokens_per_paragraph=40,
            alias_rate=0.4, multi_answer_rate=0.5, seed=27,
        )
        pairs = generate(profile)[0]
        vocab = Vocabulary.from_pairs(pairs)
        rng = np.random.default_rng(27)
        scorer = ToyScorer(vocab, rng.normal(size=(len(vocab), 8)), *rng.normal(size=(4, 24)))
        frames = {8: [], 9: []}
        for pair in pairs:
            pair.table.span_keys, pair.table.grid_layout  # laid out before profiling
            for cap, entered in frames.items():

                def record(frame, event, arg):
                    path = Path(frame.f_code.co_filename)
                    if event == "call" and "numpy" in path.parts and path.suffix == ".py":
                        entered.append(f"{path.name}:{frame.f_code.co_name}")

                sys.setprofile(record)
                try:
                    grid = scorer.score(pair)
                    for space in SpaceKind:
                        probs = log_partition(grid, space)
                        for aggregation in AnswerAggregation:
                            predict(probs, pair, InferenceSpec(aggregation, max_answer_length=cap))
                finally:
                    sys.setprofile(None)
        assert frames[8] == []
        assert frames[9] and set(frames[9]) == {"multiarray.py:lexsort"}


class TestMemory:
    def test_exhaustive_peak_on_largest_document(self):
        # 8 x 400 tokens, the loader's largest document.  The bound is the
        # traced peak that an earlier k x k pairing reached here.  Keying
        # spans as slices of the word sequence, with key rows built only for
        # grouping, and pairing by one comparison of top_k x top_k booleans
        # per paragraph measured a 2,927,904-byte peak.
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(60)] + ["the", ",", "a"]
        texts = [[words[i] for i in rng.integers(0, len(words), 400)] for _ in range(8)]
        pair = make_pair("x", "q", texts, ["w0"])
        grid = ScoreGrid.zeros([400] * 8)
        grid.vector[:] = rng.normal(0.0, 2.0, grid.vector.shape)
        probs = log_partition(grid, SpaceKind.DOCUMENT)
        exhaustive_predict(probs, pair, AnswerAggregation.SUM)  # lays out the pair
        fresh = LogProbGrid(probs.vector, probs.sizes)  # keeps no candidates yet
        tracemalloc.start()
        try:
            exhaustive_predict(fresh, pair, AnswerAggregation.SUM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7_175_313


class TestLengthCap:
    def test_long_spans_excluded(self):
        pair, grid = scored_pair(
            ["alpha beta gamma"],
            [[5.0, -1.0, -1.0]],
            [[-1.0, -1.0, 5.0]],
        )
        probs = log_partition(grid, SpaceKind.PARAGRAPH)
        capped = predict(
            probs,
            pair,
            InferenceSpec(aggregation=AnswerAggregation.MAX, max_answer_length=2),
        )
        assert capped.answer != "alpha beta gamma"
        uncapped = predict(
            probs,
            pair,
            InferenceSpec(aggregation=AnswerAggregation.MAX, max_answer_length=3),
        )
        assert uncapped.answer == "alpha beta gamma"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            InferenceSpec(top_k=0)
        with pytest.raises(ValueError):
            InferenceSpec(max_answer_length=0)
        with pytest.raises(ValueError):
            AnswerAggregation.parse("mean")
        assert AnswerAggregation.parse(" SUM ") is AnswerAggregation.SUM

    @pytest.mark.parametrize(
        "top_k, max_answer_length, message",
        [
            (0, 8, "top_k must be at least 1"),
            (-3, 8, "top_k must be at least 1"),
            (20, 0, "max_answer_length must be at least 1"),
            (None, -2, "max_answer_length must be at least 1"),
        ],
    )
    def test_every_decoder_rejects_bad_sizes(self, top_k, max_answer_length, message):
        pair, grid = scored_pair(
            ["rome pisa lake", "lake rome pisa"], [[1.0, 0.0, 2.0]] * 2, [[0.0, 1.0, 2.0]] * 2
        )
        probs = log_partition(grid, SpaceKind.PARAGRAPH)
        with pytest.raises(ValueError, match=message):
            candidates(probs, pair, top_k, max_answer_length)
        with pytest.raises(ValueError, match=message):
            score_strings(probs, pair, AnswerAggregation.SUM, top_k, max_answer_length)
        with pytest.raises(ValueError, match=message):
            decode(probs, pair, AnswerAggregation.MAX, top_k, max_answer_length)
        if max_answer_length < 1:  # exhaustive_predict takes no top_k
            with pytest.raises(ValueError, match=message):
                exhaustive_predict(probs, pair, AnswerAggregation.MAX, max_answer_length)
