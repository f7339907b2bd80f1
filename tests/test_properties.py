"""Property-based round trips of the JSONL file formats."""

import string
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from docqa.corpus import load_dataset, make_pair, normalize_string, save_dataset
from docqa.labeling import ConsistentLabelSet, SpanLabel, load_labels, save_labels

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
    labels = []
    for pair in pairs:
        spans = []
        for k, paragraph in enumerate(pair.paragraphs):
            bounds = st.integers(0, len(paragraph) - 1)
            for i, j in data.draw(st.lists(st.tuples(bounds, bounds), max_size=3, unique=True)):
                i, j = min(i, j), max(i, j)
                spans.append(SpanLabel(k, i, j, normalize_string(paragraph.text(i, j))))
        spans = list(dict.fromkeys(spans))
        labels.append(ConsistentLabelSet.from_spans(len(pair.paragraphs), spans, len(pair.answers)))
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "labels.jsonl"
        save_labels(pairs, labels, path)
        assert load_labels(pairs, path) == labels
