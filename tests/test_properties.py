"""Property-based checks: per-token normalization, the decoder's top-k
ranking, and round trips of the JSONL file formats and the noise profile."""

import math
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from docqa.corpus import (
    DatasetParseError,
    DatasetSchemaError,
    load_dataset,
    make_pair,
    normalize_string,
    save_dataset,
)
from docqa.inference import _rank_top
from docqa.labeling import ConsistentLabelSet, SpanLabel, load_labels, save_labels
from docqa.synthlab import (
    CUES_PER_TOPIC,
    NoiseProfile,
    SyntheticTruth,
    load_predictions,
    load_truth,
    save_predictions,
    save_truth,
)

# Deterministic: the same examples on every run, and no example database.
PROPERTY_SETTINGS = settings(
    max_examples=50,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Any code point, surrogates included, mixed with whitespace and punctuation so
# that tokenizing has separators and punctuation-only words to deal with.
SEPARATORS = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0    　"
CHARACTERS = st.one_of(
    st.characters(blacklist_categories=()),
    st.sampled_from(SEPARATORS + string.punctuation),
)
TEXT = st.text(CHARACTERS, max_size=40)


@st.composite
def documents(draw, max_pairs=4):
    """Pairs built by make_pair from arbitrary unicode text, with distinct ids."""
    count = draw(st.integers(1, max_pairs))
    return [
        make_pair(
            id=f"{draw(st.text(max_size=6))}#{k}",
            question=draw(TEXT),
            paragraphs=draw(st.lists(TEXT, max_size=10)),
            answers=draw(st.lists(TEXT, max_size=3)),
        )
        for k in range(count)
    ]


def drawn_spans(data, pair):
    """Up to three distinct spans per paragraph, each with its normalized text."""
    spans = []
    for k, paragraph in enumerate(pair.paragraphs):
        bounds = st.integers(0, len(paragraph) - 1)
        for i, j in data.draw(st.lists(st.tuples(bounds, bounds), max_size=3, unique=True)):
            i, j = min(i, j), max(i, j)
            spans.append(SpanLabel(k, i, j, normalize_string(paragraph.text(i, j))))
    return list(dict.fromkeys(spans))


@given(st.lists(TEXT, max_size=6))
@PROPERTY_SETTINGS
def test_normalized_words_strip_each_token(texts):
    """The word table gives each token exactly its own normalization."""
    words = " ".join(texts + texts[:2]).split()
    table = make_pair("n", words, [words] if words else [], []).table
    punctuation = str.maketrans("", "", string.punctuation)
    expected = [word.lower().translate(punctuation) for word in words]
    names = list(table.keys)
    assert [names[key] for key in table.key_of[table.question].tolist()] == expected
    assert [names[key] for key in table.key_of[table.ids].tolist()] == expected


# Few distinct values, so rows tie; both infinities and both zeros.
KEYS = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 1.0, 2.0, np.inf])


@st.composite
def padded_rows(draw):
    """One to three rows of up to 90 keys, past timsort's shortest run, each
    ending in a tail of +inf pads as candidates pads its rows."""
    length = draw(st.integers(1, 90))
    rows = st.lists(KEYS, min_size=length, max_size=length)
    order = np.array(draw(st.lists(rows, min_size=1, max_size=3)))
    for row in order:
        row[length - draw(st.integers(0, length - 1)) :] = np.inf
    return order


@given(padded_rows())
@example(np.resize([-1.5, 1.0, 0.0, -0.0, 2.0, np.inf], (2, 90)))
@PROPERTY_SETTINGS
def test_rank_top_is_the_stable_argsort_prefix(order):
    """Every top from 1 to the row length ranks like the full stable sort."""
    full = np.argsort(order, axis=-1, kind="stable")
    for top in range(1, order.shape[1] + 1):
        np.testing.assert_array_equal(_rank_top(order.copy(), top), full[:, :top])


@given(documents())
@PROPERTY_SETTINGS
def test_dataset_round_trip(pairs):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "data.jsonl"
        save_dataset(pairs, path)
        assert load_dataset(path) == pairs


@given(documents(), st.data())
@PROPERTY_SETTINGS
def test_labels_round_trip(pairs, data):
    labels = [
        ConsistentLabelSet(len(pair.paragraphs), drawn_spans(data, pair))
        for pair in pairs
    ]
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "labels.jsonl"
        save_labels(pairs, labels, path)
        assert load_labels(pairs, path) == labels


@given(documents(), st.data())
@PROPERTY_SETTINGS
def test_truth_round_trip(pairs, data):
    truths = [
        SyntheticTruth(gold_answer=data.draw(TEXT), correct_spans=tuple(drawn_spans(data, pair)))
        for pair in pairs
    ]
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "truth.jsonl"
        save_truth(pairs, truths, path)
        assert load_truth(pairs, path) == truths


@given(
    st.dictionaries(
        st.text(),
        st.tuples(
            st.text(CHARACTERS),
            st.one_of(st.floats(allow_nan=False), st.just(float("-inf"))),
        ),
        max_size=6,
    )
)
@PROPERTY_SETTINGS
def test_predictions_round_trip(predictions):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "pred.jsonl"
        save_predictions(predictions, path)
        loaded = load_predictions(path)
    assert loaded == predictions
    assert list(loaded) == list(predictions)


# Arbitrary bytes, near-miss records and the JSON lines of both formats, so
# that reads reach every check past parsing.
LINES = st.one_of(
    st.binary(max_size=30),
    st.text(CHARACTERS, max_size=30).map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.sampled_from(
        [
            b'{"id": "a", "answer": "x", "score": -Infinity}',
            b'{"id": "a", "answer": "x", "score": NaN}',
            b'{"id": "a", "answer": "x", "score": true}',
            b'{"id": "a", "question": "q", "paragraphs": ["p q"], "answers": ["p"]}',
            b'{"id": "a", "question": "q", "paragraphs": "p", "answers": []}',
            b'{"id": "b", "question": 1, "paragraphs": [], "answers": [2]}',
            b"[]",
        ]
    ),
)


@pytest.mark.parametrize("read", [load_dataset, load_predictions])
@given(lines=st.lists(LINES, max_size=5))
@example(lines=[b'{"id": "\xff"}'])
@example(lines=[b"1" * 5000])  # past the integer digit limit
@example(lines=[b"[" * 100000])  # past the recursion limit
@PROPERTY_SETTINGS
def test_readers_fail_only_with_line_errors(read, lines):
    """Any file reads to records or fails with a "<path>:<line>: " message."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "any.jsonl"
        content = b"\n".join(lines)
        path.write_bytes(content)
        try:
            read(path)
        except (DatasetParseError, DatasetSchemaError) as exc:
            assert 1 <= exc.line_number <= content.count(b"\n") + 1
            assert str(exc).startswith(f"{path}:{exc.line_number}: ")


RATES = st.floats(0.0, 1.0)


@st.composite
def profiles(draw):
    """Any NoiseProfile the constructor accepts."""
    mention_counts = draw(
        st.lists(
            st.tuples(
                st.integers(1, 99),
                st.floats(0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=4,
        ).filter(lambda pairs: math.isfinite(sum(weight for _, weight in pairs)))
    )
    longest = 4 * max(count for count, _ in mention_counts)
    return NoiseProfile(
        vocab_size=draw(st.integers(60, 10**6)),
        documents=draw(st.integers(1, 10**6)),
        dev_documents=draw(st.integers(0, 10**6)),
        paragraphs_per_document=draw(st.integers(1, 8)),
        tokens_per_paragraph=draw(st.integers(longest + 4, 400)),
        question_length=draw(st.integers(1, CUES_PER_TOPIC)),
        alias_rate=draw(RATES),
        distractor_rate=draw(RATES),
        multi_answer_rate=draw(RATES),
        mention_counts=tuple(mention_counts),
        seed=draw(st.integers(0, 2**70)),
    )


@given(profiles())
@PROPERTY_SETTINGS
def test_profile_round_trip(profile):
    assert NoiseProfile.from_json(profile.to_json()) == profile
