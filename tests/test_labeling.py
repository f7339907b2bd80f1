import json

import numpy as np
import pytest

from docqa.corpus import load_dataset, make_pair, normalize_string, save_dataset
from docqa.labeling import (
    ConsistentLabelSet,
    SpanLabel,
    counts,
    find_consistent_spans_exact,
    find_consistent_spans_rouge,
    load_labels,
    save_labels,
)
from docqa.metrics import rouge_l
from docqa.synthlab import load_predictions, load_truth
from test_objectives import label_positions


def oracle_exact(pair, max_span_length=8):
    """Independent matcher: renormalize every span from scratch and scan."""
    targets = {normalize_string(a) for a in pair.answers.raw}
    targets.discard("")
    found = []
    for k, paragraph in enumerate(pair.paragraphs):
        words = [t.text for t in paragraph.tokens]
        for i in range(len(words)):
            for j in range(i, len(words)):
                if j - i + 1 > max_span_length:
                    continue
                if normalize_string(" ".join(words[i : j + 1])) in targets:
                    found.append((k, i, j))
    return sorted(found)


def oracle_rouge(pair, max_span_length=8, threshold=0.5):
    """Independent rouge matcher: score every span's surface text with rouge_l."""
    found = []
    for k, paragraph in enumerate(pair.paragraphs):
        words = [t.text for t in paragraph.tokens]
        kept, best, best_score = [], None, 0.0
        for i in range(len(words)):
            for j in range(i, min(i + max_span_length, len(words))):
                text = " ".join(words[i : j + 1])
                score, matched = 0.0, ""
                for answer in pair.answers.raw:
                    value = rouge_l(text, answer)
                    if value > score:
                        score, matched = value, normalize_string(answer)
                if score <= 0.0:
                    continue
                label = (k, i, j, matched)
                if score > best_score:
                    best_score, best = score, label
                if score >= threshold:
                    kept.append(label)
        if best is not None and best not in kept:
            kept.append(best)
        found.extend(kept)
    return sorted(found)


# Raw tokens that normalize in every way a span can: punctuation-only tokens
# that vanish, upper case, articles, punctuation inside a word, and non-ASCII
# lowercasing (final sigma, dotted capital I).
RAW_TOKENS = [
    "cat", "Cat.", "dog", "do-g", ",", "--", "'", "the", "THE", "a", "An",
    "ΟΔΟΣ", "οδος", "İx", "i̇x", "cat's", "ΣΑΣ",
]


def random_raw_pair(rng, n_paragraphs=3, max_tokens=14, max_answers=3):
    """A pair built from raw token lists, and answers joined from the same tokens."""
    paragraphs = [
        [RAW_TOKENS[k] for k in rng.integers(0, len(RAW_TOKENS), int(rng.integers(1, max_tokens)))]
        for _ in range(int(rng.integers(1, n_paragraphs + 1)))
    ]
    answers = [
        " ".join(RAW_TOKENS[k] for k in rng.integers(0, len(RAW_TOKENS), int(rng.integers(1, 4))))
        for _ in range(int(rng.integers(1, max_answers + 1)))
    ]
    return make_pair("f", "q", paragraphs, answers)


class TestExactMatcher:
    def test_multiple_mentions(self):
        pair = make_pair(
            "x",
            "who",
            ["joan rivers spoke and joan rivers left", "nothing here"],
            ["Joan Rivers."],
        )
        labels = find_consistent_spans_exact(pair)
        assert [s.triple() for s in labels.all_spans()] == [(0, 0, 1), (0, 4, 5)]
        assert labels.is_null(1)
        assert not labels.is_null(0)

    def test_nested_answer_variants(self):
        pair = make_pair(
            "x",
            "where",
            ["poems composed in the spring at mount helicon by hesiod"],
            ["Mount Helicon", "in the spring at Mount Helicon"],
        )
        labels = find_consistent_spans_exact(pair)
        triples = {s.triple() for s in labels.all_spans()}
        assert (0, 6, 7) in triples  # mount helicon
        assert (0, 2, 7) in triples  # in the spring at mount helicon
        assert labels.num_answers == 2

    def test_leading_article_in_span_matches(self):
        pair = make_pair("x", "q", ["saw the beatles live"], ["Beatles"])
        labels = find_consistent_spans_exact(pair)
        triples = {s.triple() for s in labels.all_spans()}
        # both the bare token and the article-prefixed span normalize to beatles
        assert (0, 2, 2) in triples
        assert (0, 1, 2) in triples

    def test_length_cap(self):
        words = "p q r s t u v w x"
        pair = make_pair("x", "q", [words], [words])
        labels = find_consistent_spans_exact(pair, max_span_length=8)
        assert labels.total_spans == 0
        relaxed = find_consistent_spans_exact(pair, max_span_length=9)
        assert [s.triple() for s in relaxed.all_spans()] == [(0, 0, 8)]

    def test_no_match(self):
        pair = make_pair("x", "q", ["alpha beta"], ["gamma"])
        labels = find_consistent_spans_exact(pair)
        assert labels.total_spans == 0
        assert counts(labels) == (1, 0)

    def test_empty_answer_never_matches(self):
        pair = make_pair("x", "q", ["the a an"], ["The"])
        labels = find_consistent_spans_exact(pair)
        assert labels.total_spans == 0

    def test_matches_oracle_on_random_documents(self):
        rng = np.random.default_rng(13)
        vocab = ["ant", "bee", "cat", "dog", "elk", "the", "fox"]
        for _ in range(150):
            n_paragraphs = int(rng.integers(1, 4))
            paragraphs = [
                " ".join(vocab[i] for i in rng.integers(0, len(vocab), int(rng.integers(1, 15))))
                for _ in range(n_paragraphs)
            ]
            n_answers = int(rng.integers(1, 3))
            answers = [
                " ".join(vocab[i] for i in rng.integers(0, len(vocab), int(rng.integers(1, 3))))
                for _ in range(n_answers)
            ]
            pair = make_pair("r", "q", paragraphs, answers)
            labels = find_consistent_spans_exact(pair)
            assert sorted(s.triple() for s in labels.all_spans()) == oracle_exact(pair)

    def test_matched_strings_are_sound(self):
        rng = np.random.default_rng(14)
        vocab = ["un", "deux", "trois", "the"]
        for _ in range(100):
            paragraphs = [
                " ".join(vocab[i] for i in rng.integers(0, len(vocab), 10))
            ]
            pair = make_pair("r", "q", paragraphs, ["deux trois"])
            labels = find_consistent_spans_exact(pair)
            for span in labels.all_spans():
                text = pair.paragraphs[span.paragraph].text(span.begin, span.end)
                assert normalize_string(text) == span.matched_string
                assert span.matched_string in pair.answers.normalized

    def test_matches_oracle_on_raw_tokens(self):
        """Per-token normalization must agree with normalizing each span's text."""
        rng = np.random.default_rng(16)
        for max_span_length in range(1, 10):
            for _ in range(300):
                pair = random_raw_pair(rng)
                labels = find_consistent_spans_exact(pair, max_span_length)
                triples = sorted(s.triple() for s in labels.all_spans())
                assert triples == oracle_exact(pair, max_span_length)
                for span in labels.all_spans():
                    text = pair.paragraphs[span.paragraph].text(span.begin, span.end)
                    assert span.matched_string == normalize_string(text)


# Tokens that never start a span's normalized text: articles in any case and
# punctuation-only tokens, which normalize to "".
SKIPPED_TOKENS = ["the", ",", "A", "--", "an", "'", "THE", "..."]


class TestExactScanEdges:
    """The scan walks back from answer words over articles and empty words."""

    @pytest.mark.parametrize("run_length", [0, 1, 6, 7, 8, 9, 12])
    @pytest.mark.parametrize("lead", [[], ["dog"], ["cat", "the", "dog"]])
    def test_skipped_run_before_answer_word(self, run_length, lead):
        run = [SKIPPED_TOKENS[k % len(SKIPPED_TOKENS)] for k in range(run_length)]
        tokens = lead + run + ["Cat", "dog", ",", "the", "cat"]
        answers = ["The cat", "cat dog", "a, cat the cat", "dog the cat"]
        pair = make_pair("e", "q", [tokens], answers)
        cat = len(lead) + run_length
        for max_span_length in range(1, 11):
            labels = find_consistent_spans_exact(pair, max_span_length)
            triples = sorted(s.triple() for s in labels.all_spans())
            assert triples == oracle_exact(pair, max_span_length)
            # Every begin in the run that can still reach "Cat" labels it.
            first = max(len(lead), cat - max_span_length + 1)
            begins = {
                s.begin
                for s in labels.all_spans()
                if s.end == cat and s.matched_string == "cat"
            }
            assert begins == set(range(first, cat + 1))

    def test_empty_words_inside_an_answer_count_toward_the_cap(self):
        run = [",", "--", "'", "...", ",", "--", "'"]
        pair = make_pair("e", "q", [["the", "cat", *run, "dog"]], ["cat dog"])
        longest = len(run) + 3
        for max_span_length in range(1, longest + 2):
            labels = find_consistent_spans_exact(pair, max_span_length)
            triples = [s.triple() for s in labels.all_spans()]
            assert triples == oracle_exact(pair, max_span_length)
            expected = [(0, 0, longest - 1)] if max_span_length >= longest else []
            if max_span_length >= longest - 1:
                expected.append((0, 1, longest - 1))
            assert triples == expected

    def test_matches_oracle_on_article_heavy_paragraphs(self):
        rng = np.random.default_rng(18)
        pool = SKIPPED_TOKENS + ["cat", "Dog", "cat,"]
        answers = ["The cat", "the the dog", "cat the dog", "A", "dog, cat", ","]
        for max_span_length in range(1, 11):
            for _ in range(60):
                paragraphs = [
                    [pool[k] for k in rng.integers(0, len(pool), int(rng.integers(1, 20)))]
                    for _ in range(int(rng.integers(1, 3)))
                ]
                chosen = [answers[k] for k in rng.choice(len(answers), 2, replace=False)]
                pair = make_pair("e", "q", paragraphs, chosen)
                labels = find_consistent_spans_exact(pair, max_span_length)
                triples = sorted(s.triple() for s in labels.all_spans())
                assert triples == oracle_exact(pair, max_span_length)


class TestRougeMatcher:
    def test_matches_oracle_on_raw_tokens(self):
        rng = np.random.default_rng(17)
        for max_span_length in range(1, 10):
            for threshold in (0.0, 0.3, 0.6, 1.0):
                for _ in range(25):
                    pair = random_raw_pair(rng, n_paragraphs=2, max_tokens=12)
                    labels = find_consistent_spans_rouge(pair, max_span_length, threshold)
                    found = sorted(
                        (*s.triple(), s.matched_string) for s in labels.all_spans()
                    )
                    assert found == oracle_rouge(pair, max_span_length, threshold)

    def test_threshold_keeps_partial_overlap(self):
        pair = make_pair("x", "q", ["stories about mount helicon myths"], ["at mount helicon"])
        labels = find_consistent_spans_rouge(pair, threshold=0.5)
        triples = {s.triple() for s in labels.all_spans()}
        assert (0, 2, 3) in triples  # mount helicon scores 0.8

    def test_argmax_kept_below_threshold(self):
        pair = make_pair("x", "q", ["only helicon appears here"], ["at mount helicon"])
        labels = find_consistent_spans_rouge(pair, threshold=0.9)
        assert labels.total_spans == 1
        best = labels.all_spans()[0]
        text = pair.paragraphs[0].text(best.begin, best.end)
        assert "helicon" in text

    def test_zero_similarity_paragraph_stays_null(self):
        pair = make_pair("x", "q", ["totally unrelated words"], ["mount helicon"])
        labels = find_consistent_spans_rouge(pair)
        assert labels.total_spans == 0

    def test_exact_span_kept_at_any_threshold(self):
        pair = make_pair("x", "q", ["visit mount helicon today"], ["mount helicon"])
        labels = find_consistent_spans_rouge(pair, threshold=1.0)
        assert (0, 1, 2) in {s.triple() for s in labels.all_spans()}

    def test_kept_spans_reach_threshold(self):
        rng = np.random.default_rng(15)
        vocab = ["road", "to", "mount", "helicon", "springs"]
        for _ in range(60):
            paragraphs = [
                " ".join(vocab[i] for i in rng.integers(0, len(vocab), 12))
            ]
            pair = make_pair("r", "q", paragraphs, ["mount helicon springs"])
            labels = find_consistent_spans_rouge(pair, threshold=0.6)
            by_score = {}
            for span in labels.all_spans():
                text = pair.paragraphs[0].text(span.begin, span.end)
                by_score[span.triple()] = max(
                    rouge_l(text, a) for a in pair.answers.raw
                )
            if not by_score:
                continue
            below = [t for t, s in by_score.items() if s < 0.6]
            # at most the single argmax span may sit below the threshold
            assert len(below) <= 1


class TestLabelSet:
    def test_projections(self):
        spans = [
            SpanLabel(0, 1, 2, "x"),
            SpanLabel(0, 1, 4, "x"),
            SpanLabel(0, 3, 4, "x"),
        ]
        labels = ConsistentLabelSet.from_spans(2, spans, num_answers=1)
        assert label_positions(labels, 0) == ((1, 3), (2, 4))
        assert label_positions(labels, 1) == ((), ())
        assert labels.is_null(1)
        assert labels.total_spans == 3

    def test_wrong_paragraph_rejected(self):
        with pytest.raises(ValueError):
            ConsistentLabelSet.from_spans(1, [SpanLabel(3, 0, 0, "x")], num_answers=1)

    def test_round_trip_through_file(self, tmp_path):
        pair = make_pair(
            "doc9", "who", ["joan rivers spoke and joan rivers left"], ["Joan Rivers."]
        )
        labels = [find_consistent_spans_exact(pair)]
        path = tmp_path / "labels.jsonl"
        save_labels([pair], labels, path)
        loaded = load_labels([pair], path)
        assert [s.triple() for s in loaded[0].all_spans()] == [
            s.triple() for s in labels[0].all_spans()
        ]
        assert loaded[0].all_spans()[0].matched_string == "joan rivers"


def joan_pair():
    return make_pair(
        "doc9", "who", ["joan rivers spoke and joan rivers left"], ["Joan Rivers."]
    )


class TestLabelFiles:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "not valid JSON"),
            ("[1, 2]", "record must be a JSON object"),
            ('{"spans": []}', "missing key 'id'"),
            ('{"id": "doc9"}', "missing key 'spans'"),
            ('{"id": 9, "spans": []}', "'id' must be a string"),
            ('{"id": "doc9", "spans": [0, 1, 2]}', "integer triples"),
            ('{"id": "doc9", "spans": [[0, 1]]}', "integer triples"),
            ('{"id": "doc9", "spans": [[0, 1.0, 2]]}', "integer triples"),
            ('{"id": "doc9", "spans": [[0, true, 2]]}', "integer triples"),
            ('{"id": "doc9", "spans": [[1, 0, 0]]}', "paragraph 1 is outside"),
            ('{"id": "doc9", "spans": [[-1, 0, 0]]}', "paragraph -1 is outside"),
            ('{"id": "doc9", "spans": [[0, 2, 1]]}', "span [0, 2, 1] is not inside"),
            ('{"id": "doc9", "spans": [[0, -1, 0]]}', "span [0, -1, 0] is not inside"),
            ('{"id": "doc9", "spans": [[0, 5, 7]]}', "paragraph 0 of 7 tokens"),
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"id": "other", "spans": [[0, 0, 0]]}\n\n' + line + "\n")
        with pytest.raises(ValueError) as info:
            load_labels([joan_pair()], path)
        assert str(info.value).startswith(f"{path}:3: ")
        assert message in str(info.value)

    def test_last_token_is_inside(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"id": "doc9", "spans": [[0, 4, 6]]}\n')
        (labels,) = load_labels([joan_pair()], path)
        assert labels.all_spans()[0].matched_string == "joan rivers left"

    def test_missing_pair_names_the_file(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"id": "other", "spans": []}\n')
        with pytest.raises(ValueError, match="doc9") as error:
            load_labels([joan_pair()], path)
        assert str(error.value) == f"{path}: no record for pair 'doc9'"

    def test_spans_checked_against_truncated_paragraphs(self, tmp_path):
        pair = joan_pair()
        data = tmp_path / "data.jsonl"
        save_dataset([pair], data)
        path = tmp_path / "labels.jsonl"
        save_labels([pair], [find_consistent_spans_exact(pair)], path)
        assert load_labels(load_dataset(data), path)[0].total_spans == 2
        with pytest.raises(ValueError, match=r"labels\.jsonl:1: span \[0, 4, 5\]"):
            load_labels(load_dataset(data, max_tokens=5), path)

    @pytest.mark.parametrize(
        "first, last, read, expected",
        [
            (
                {"spans": [[0, 0, 1]]},
                {"spans": [[0, 4, 5]]},
                lambda path: [s.triple() for s in load_labels([joan_pair()], path)[0].all_spans()],
                [(0, 4, 5)],
            ),
            (
                {"gold": "joan", "correct_spans": [[0, 0, 1]]},
                {"gold": "rivers", "correct_spans": [[0, 4, 5], [0, 1, 1]]},
                lambda path: [
                    (t.gold_answer, [s.triple() for s in t.correct_spans])
                    for t in load_truth([joan_pair()], path)
                ],
                [("rivers", [(0, 4, 5), (0, 1, 1)])],
            ),
            (
                {"answer": "joan", "score": -1.0},
                {"answer": "rivers", "score": -2.5},
                load_predictions,
                {"doc9": ("rivers", -2.5), "other": ("joan", -1.0)},
            ),
        ],
        ids=["labels", "truth", "predictions"],
    )
    def test_repeated_id_keeps_its_last_record(self, tmp_path, first, last, read, expected):
        path = tmp_path / "records.jsonl"
        lines = [{"id": "doc9", **first}, {"id": "other", **first}, {"id": "doc9", **last}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert read(path) == expected

    def test_truth_file_shares_the_checks(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text(
            '{"id": "doc9", "gold": "joan rivers", "correct_spans": [[0, 0, 1]]}\n'
            '{"id": "doc9", "correct_spans": []}\n'
        )
        with pytest.raises(ValueError, match=r"truth\.jsonl:2: missing key 'gold'"):
            load_truth([joan_pair()], path)
        path.write_text('{"id": "doc9", "gold": "joan rivers", "correct_spans": [[0, 0, 9]]}\n')
        with pytest.raises(ValueError, match=r"truth\.jsonl:1: span \[0, 0, 9\]"):
            load_truth([joan_pair()], path)
        path.write_text('{"id": "doc9", "gold": 3, "correct_spans": []}\n')
        with pytest.raises(ValueError, match=r"truth\.jsonl:1: 'gold' must be a string"):
            load_truth([joan_pair()], path)
