import numpy as np
import pytest

from docqa.metrics import (
    _lcs_length,
    exact_match,
    lcs_row_step,
    partition_analysis,
    rouge_l,
    summarize,
    token_f1,
)


class TestExactMatch:
    def test_normalized_equality(self):
        assert exact_match("The Beatles!", ["beatles"]) == 1.0

    def test_any_gold_counts(self):
        assert exact_match("queen", ["beatles", "Queen"]) == 1.0

    def test_mismatch(self):
        assert exact_match("stones", ["beatles"]) == 0.0

    def test_empty_against_empty(self):
        assert exact_match("", [""]) == 1.0


class TestTokenF1:
    def test_hand_oracle_half(self):
        """Two shared tokens, precision 1, recall 2/6."""
        value = token_f1("mount helicon", ["in the spring at mount helicon"])
        np.testing.assert_allclose(value, 0.5)

    def test_max_over_golds(self):
        value = token_f1("mount helicon", ["nothing shared", "mount helicon"])
        assert value == 1.0

    def test_em_implies_f1(self):
        rng = np.random.default_rng(3)
        words = ["alpha", "beta", "gamma", "the", "of"]
        for _ in range(200):
            n = int(rng.integers(1, 5))
            text = " ".join(words[i] for i in rng.integers(0, len(words), n))
            if exact_match(text, [text]) == 1.0:
                assert token_f1(text, [text]) == 1.0

    def test_no_overlap(self):
        assert token_f1("alpha", ["beta"]) == 0.0

    def test_empty_prediction(self):
        assert token_f1("", ["beta"]) == 0.0
        assert token_f1("", [""]) == 1.0


class TestRougeL:
    def test_hand_oracle(self):
        np.testing.assert_allclose(rouge_l("mount helicon", "at mount helicon"), 0.8)

    def test_both_directions(self):
        """Balanced F makes the measure symmetric; test both orders explicitly."""
        np.testing.assert_allclose(rouge_l("at mount helicon", "mount helicon"), 0.8)
        rng = np.random.default_rng(9)
        words = ["a", "b", "c", "d"]
        for _ in range(100):
            left = " ".join(words[i] for i in rng.integers(0, 4, int(rng.integers(1, 6))))
            right = " ".join(words[i] for i in rng.integers(0, 4, int(rng.integers(1, 6))))
            np.testing.assert_allclose(rouge_l(left, right), rouge_l(right, left))

    def test_identity(self):
        assert rouge_l("some span here", "some span here") == 1.0

    def test_subsequence_not_substring(self):
        # b d is a subsequence of b c d
        np.testing.assert_allclose(rouge_l("b d", "b c d"), 0.8)

    def test_empty_sides(self):
        assert rouge_l("", "thing") == 0.0
        assert rouge_l("thing", "") == 0.0
        assert rouge_l("the", "thing") == 0.0

    def test_range(self):
        rng = np.random.default_rng(11)
        words = ["x", "y", "z", "w", "v"]
        for _ in range(200):
            left = " ".join(words[i] for i in rng.integers(0, 5, int(rng.integers(1, 7))))
            right = " ".join(words[i] for i in rng.integers(0, 5, int(rng.integers(1, 7))))
            assert 0.0 <= rouge_l(left, right) <= 1.0


def full_table_lcs(a, b):
    """Textbook LCS: the whole (len(a)+1) x (len(b)+1) table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table


class TestLcsFold:
    def test_fold_matches_full_table(self):
        rng = np.random.default_rng(12)
        words = ["p", "q", "r", "s"]
        for _ in range(500):
            a = [words[i] for i in rng.integers(0, 4, int(rng.integers(0, 9)))]
            b = [words[i] for i in rng.integers(0, 4, int(rng.integers(0, 9)))]
            table = full_table_lcs(a, b)
            assert _lcs_length(a, b) == table[-1][-1]
            # Each step of the fold is one row of the table.
            row = [0] * (len(b) + 1)
            for i, x in enumerate(a, start=1):
                row = lcs_row_step(row, x, b)
                assert row == table[i]

    def test_absent_word_keeps_the_row(self):
        row = lcs_row_step([0] * 4, "q", ["p", "q", "q"])
        assert row == [0, 0, 1, 1]
        assert lcs_row_step(row, "z", ["p", "q", "q"]) == row


class TestSummarize:
    def test_means(self):
        means = summarize({"em": [1.0, 0.0], "f1": [1.0, 0.5]})
        assert means == {"em": 50.0, "f1": 75.0}

    def test_points_are_one_hundred_times_the_mean(self):
        # 100 * (1 / 3) is 33.33333333333333; 100 * 1 / 3 would be 33.333333333333336
        assert summarize({"em": [1.0, 0.0, 0.0]})["em"] == 100.0 * (1 / 3)

    def test_empty_column_scores_zero(self):
        assert summarize({"em": [], "f1": []}) == {"em": 0.0, "f1": 0.0}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            summarize({"em": [1.0], "f1": []})


class TestPartitionAnalysis:
    def test_subset_assignment(self):
        scores = {"a": [1.0, 1.0, 0.0, 0.0], "b": [0.0, 1.0, 1.0, 0.0]}
        labels = [(1, 3), (2, 7), (1, 9), (4, 2)]
        subsets = partition_analysis(scores, labels)
        assert subsets == {
            "ss": {"size": 1, "means": {"a": 100.0, "b": 0.0}},
            "sl": {"size": 1, "means": {"a": 0.0, "b": 100.0}},
            "ls": {"size": 1, "means": {"a": 0.0, "b": 0.0}},
            "ll": {"size": 1, "means": {"a": 100.0, "b": 100.0}},
        }

    def test_sizes_sum_to_total(self):
        rng = np.random.default_rng(21)
        n = 50
        scores = {"only": list(rng.random(n))}
        labels = [(int(rng.integers(1, 4)), int(rng.integers(0, 12))) for _ in range(n)]
        subsets = partition_analysis(scores, labels)
        assert sum(s["size"] for s in subsets.values()) == n

    def test_thresholds_are_inclusive(self):
        scores = {"m": [1.0]}
        subsets = partition_analysis(scores, [(1, 5)], answer_threshold=1, span_threshold=5)
        assert subsets["ss"]["size"] == 1

    def test_empty_subset_scores_zero(self):
        subsets = partition_analysis({"em": [1.0]}, [(1, 1)])
        assert subsets["ll"] == {"size": 0, "means": {"em": 0.0}}

    def test_counts_must_align(self):
        with pytest.raises(ValueError):
            partition_analysis({"em": [1.0, 0.0]}, [(1, 1)])
