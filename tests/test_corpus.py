import dataclasses
import json
import pickle
import string
import sys
from functools import cached_property
from itertools import accumulate

import numpy as np
import pytest

from docqa.corpus import (
    ARTICLES,
    AnswerStringSet,
    DatasetParseError,
    DatasetSchemaError,
    DocumentQuestionPair,
    Paragraph,
    Token,
    WordTable,
    load_dataset,
    make_pair,
    normalize_string,
    save_dataset,
)
from docqa.diagnostics import RAW_TOKENS, random_scored_pair
from docqa.inference import AnswerAggregation, score_strings
from docqa.labeling import find_consistent_spans_exact, find_consistent_spans_rouge
from docqa.model import ToyScorer, Vocabulary
from docqa.probability import ScoreGrid, SpaceKind, log_partition
from docqa.synthlab import NoiseProfile, generate
from test_inference import decode, oracle_predict

PUNCTUATION = str.maketrans("", "", string.punctuation)


def normalized_words(table, ids):
    """The normalized word of each id into table.words, read through its key."""
    names = list(table.keys)
    return [names[key] for key in table.key_of[ids].tolist()]


def words_of(text):
    """The words make_pair's string path makes of text."""
    return [t.text for t in make_pair("t", text, [], []).question]


class TestNormalizeString:
    def test_punctuation_and_case(self):
        assert normalize_string("Joan Rivers.") == "joan rivers"

    def test_leading_article_and_whitespace(self):
        assert normalize_string("the Mount  Helicon") == "mount helicon"

    def test_empty(self):
        assert normalize_string("") == ""

    def test_repeated_articles_stripped(self):
        assert normalize_string("a a the an cat") == "cat"

    def test_interior_article_kept(self):
        assert normalize_string("war of the worlds") == "war of the worlds"

    def test_all_articles_yield_empty(self):
        assert normalize_string("The A An") == ""

    def test_idempotent_on_random_strings(self):
        """Normalizing twice must equal normalizing once."""
        rng = np.random.default_rng(42)
        alphabet = list("abcdef XY.,!?'\"-()the an a  \t")
        for _ in range(500):
            n = int(rng.integers(0, 30))
            text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), n))
            once = normalize_string(text)
            assert normalize_string(once) == once

    def test_never_leads_with_article(self):
        rng = np.random.default_rng(7)
        words = ["a", "an", "the", "cat", "dog", "thé"]
        for _ in range(200):
            text = " ".join(words[i] for i in rng.integers(0, len(words), 5))
            out = normalize_string(text)
            if out:
                assert out.split()[0] not in {"a", "an", "the"}

    def test_normalized_words_rebuild_every_span(self):
        """Joining a span's non-empty words, minus leading articles, is its normalized text."""
        rng = np.random.default_rng(11)
        raw = ["Cat.", ",", "--", "THE", "a", "An", "ΟΔΟΣ", "İx", "don't", "dog", "ΣΑΣ"]
        for _ in range(200):
            drawn = [raw[i] for i in rng.integers(0, len(raw), int(rng.integers(1, 10)))]
            pair = make_pair("n", [], [drawn], [])
            tokens = pair.paragraphs[0].tokens
            words = normalized_words(pair.table, pair.table.paragraph(0))
            for i in range(len(tokens)):
                for j in range(i, len(tokens)):
                    kept = [w for w in words[i : j + 1] if w]
                    while kept and kept[0] in {"a", "an", "the"}:
                        kept.pop(0)
                    text = " ".join(t.text for t in tokens[i : j + 1])
                    assert " ".join(kept) == normalize_string(text)


class TestTokenize:
    """make_pair's string path: lowercase, strip punctuation, split."""

    def test_collapses_whitespace(self):
        assert words_of(" a  b ") == ["a", "b"]

    def test_keeps_articles(self):
        assert words_of("The Cat") == ["the", "cat"]

    def test_drops_pure_punctuation(self):
        pair = make_pair("t", "...  !!", ["...  !!"], [])
        assert pair.question == () and pair.paragraphs == ()

    def test_tokens_are_valid(self):
        for token in make_pair("t", "Some-Text, with;  Punctuation!", [], []).question:
            assert token.text
            assert not any(c.isspace() for c in token.text)


def unshared_pair(id, question, paragraphs, answers, max_paragraphs=8, max_tokens=400):
    """make_pair with one fresh Token per position: the form shared tokens
    must be indistinguishable from."""

    def words(raw):
        return words_of(raw) if isinstance(raw, str) else list(raw)

    kept = [words(raw)[:max_tokens] for raw in paragraphs[:max_paragraphs]]
    return DocumentQuestionPair(
        id=id,
        question=tuple(Token(w) for w in words(question)),
        paragraphs=tuple(
            Paragraph(tuple(Token(w) for w in toks)) for toks in kept if toks
        ),
        answers=AnswerStringSet.from_strings(answers),
    )


def assert_one_token_per_word(tokens):
    by_text = {}
    for token in tokens:
        assert by_text.setdefault(token.text, token) is token
    assert len({id(t) for t in tokens}) == len(by_text)


class TestSharedTokens:
    def test_string_path_shares_across_question_and_paragraphs(self):
        pair = make_pair(
            "s", "The cat?", ["the cat, the MAT", "Cat and the mat."], ["cat"]
        )
        tokens = [*pair.question, *(t for p in pair.paragraphs for t in p.tokens)]
        assert_one_token_per_word(tokens)
        assert pair.question[1] is pair.paragraphs[1].tokens[0]
        assert pair.paragraphs[0].tokens[3] is pair.paragraphs[1].tokens[3]

    def test_pretokenized_path_shares_across_question_and_paragraphs(self):
        pair = make_pair(
            "p", ["cat", "The"], [["The", "cat", "The"], "the cat", ["cat", "the"]], ["cat"]
        )
        tokens = [*pair.question, *(t for p in pair.paragraphs for t in p.tokens)]
        assert_one_token_per_word(tokens)
        first, second, third = (p.tokens for p in pair.paragraphs)
        assert first[0] is first[2] is pair.question[1]
        assert first[1] is second[1] is third[0] is pair.question[0]
        assert second[0] is third[1]
        assert second[0] is not first[0]  # "the" and "The" are different words

    def test_no_sharing_between_calls(self):
        # the table lives for one call: nothing is cached between pairs
        one = make_pair("1", "q", ["word"], [])
        two = make_pair("2", "q", ["word"], [])
        assert one.paragraphs[0].tokens[0] is not two.paragraphs[0].tokens[0]

    @pytest.mark.parametrize("bad, message", [("", "non-empty"), ("a b", "whitespace")])
    def test_bad_pretokenized_word_raises(self, bad, message):
        with pytest.raises(ValueError, match=message):
            make_pair("b", "q", [[bad]], [])
        with pytest.raises(ValueError, match=message):
            make_pair("b", "q", [["a", "b", "a", bad]], [])
        with pytest.raises(ValueError, match=message):
            make_pair("b", "q", [["a", "b"], ["b", "a", bad, "c"]], [])
        with pytest.raises(ValueError, match=message):
            make_pair("b", ["a", bad], [["a"]], [])
        # words past the token cap are dropped before they are checked
        assert make_pair("b", "q", [["a", bad]], [], max_tokens=1).paragraphs[0].text() == "a"

    def test_tokenize_matches_one_token_per_position(self):
        rng = np.random.default_rng(17)
        alphabet = list("aAbB ,.-'\t\nΣς")
        for _ in range(300):
            text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 30))))
            words = text.lower().translate(str.maketrans("", "", ",.-'")).split()
            assert make_pair("t", text, [], []).question == tuple(map(Token, words))

    def test_pairs_and_saved_bytes_match_unshared_tokens(self, tmp_path):
        rng = np.random.default_rng(18)
        words = ["the", "The", "cat", "Cat.", "a", "mat", "ΣΑΣ"]
        shared, unshared = [], []
        for i in range(100):
            paragraphs = []
            for _ in range(int(rng.integers(0, 5))):
                drawn = [str(w) for w in rng.choice(words, size=int(rng.integers(0, 12)))]
                paragraphs.append(" ".join(drawn) if rng.random() < 0.5 else drawn)
            question = " ".join(rng.choice(words, size=3))
            caps = dict(max_paragraphs=int(rng.integers(1, 5)), max_tokens=int(rng.integers(1, 9)))
            args = (f"d{i}", question, paragraphs, ["cat"])
            shared.append(make_pair(*args, **caps))
            unshared.append(unshared_pair(*args, **caps))
        assert shared == unshared
        # each pair saves the same bytes, or is refused with the same message
        # for a cased or punctuated word that would not load back
        outcomes = []
        for pairs in (shared, unshared):
            outcomes.append([])
            for pair in pairs:
                path = tmp_path / "saved.jsonl"
                try:
                    save_dataset([pair], path)
                    outcomes[-1].append(path.read_bytes())
                except ValueError as error:
                    outcomes[-1].append(str(error))
        assert outcomes[0] == outcomes[1]
        assert {type(outcome) for outcome in outcomes[0]} == {bytes, str}


def assert_same_table(pair, other):
    mine, theirs = pair.table, other.table
    assert mine.words == theirs.words
    assert list(mine.keys.items()) == list(theirs.keys.items())
    assert mine.starts == theirs.starts
    pairs = [(mine.question, theirs.question), (mine.ids, theirs.ids)]
    pairs += [(mine.key_of, theirs.key_of), (mine.article, theirs.article)]
    for a, b in pairs:
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def assert_table_describes(pair):
    """The table holds exactly the pair's tokens, by id, and their words."""
    table = pair.table
    question = [t.text for t in pair.question]
    paragraphs = [[t.text for t in p.tokens] for p in pair.paragraphs]
    assert table.words == tuple(dict.fromkeys([*question, *(w for p in paragraphs for w in p)]))
    assert table.ids.dtype == np.min_scalar_type(len(table.words))
    assert [table.words[i] for i in table.question.tolist()] == question
    assert len(table.ids) == table.starts[-1] == sum(map(len, paragraphs))
    for k, texts in enumerate(paragraphs):
        ids = table.paragraph(k).tolist()
        assert [table.words[i] for i in ids] == texts
        expected = [t.text.lower().translate(PUNCTUATION) for t in pair.paragraphs[k].tokens]
        assert normalized_words(table, ids) == expected
    # keys: "" first, then every normalized word in order of first sight
    normalized = [w.lower().translate(PUNCTUATION) for w in table.words]
    assert list(table.keys) == list(dict.fromkeys(["", *normalized]))
    assert list(table.keys.values()) == list(range(len(table.keys)))
    assert table.key_of.dtype == np.min_scalar_type(len(table.keys))
    assert normalized_words(table, np.arange(len(table.words))) == normalized
    assert table.article.tolist() == [w in {"a", "an", "the"} for w in table.keys]
    if normalized == list(table.words):  # the keys share the words' strings
        assert all(key is word for key, word in zip(list(table.keys)[1:], table.words))


class TestWordTable:
    CASES = [
        (("s", "The cat?", ["the cat, the MAT", "Cat and the mat."], ["cat"]), {}),
        (
            (
                "p",
                ["Which", "CAT", "--"],
                [["The", "cat", ",", "--", "An"], ["A", "mat.", "THE", "Cat"], ["!!"]],
                ["cat"],
            ),
            {},
        ),
        (
            ("t", "alpha", ["alpha beta gamma", ["Delta", "beta"], "epsilon zeta"], []),
            {"max_paragraphs": 2, "max_tokens": 2},
        ),
    ]

    @pytest.mark.parametrize("args, caps", CASES)
    def test_make_pair_table_equals_the_derived_one(self, args, caps):
        pair = make_pair(*args, **caps)
        assert_table_describes(pair)
        assert_same_table(pair, unshared_pair(*args, **caps))

    def test_truncated_words_stay_out(self):
        args, caps = self.CASES[2]
        table = make_pair(*args, **caps).table
        assert table.words == ("alpha", "beta", "Delta")
        assert list(table.keys) == ["", "alpha", "beta", "delta"]
        assert table.starts == (0, 2, 4)

    def test_random_pairs_match_direct_pairs(self):
        rng = np.random.default_rng(23)
        words = ["the", "The", "cat", "Cat.", "a", "AN", "mat", ",", "--", "ΣΑΣ", "İx"]
        for i in range(200):
            paragraphs = []
            for _ in range(int(rng.integers(0, 5))):
                drawn = [str(w) for w in rng.choice(words, size=int(rng.integers(0, 12)))]
                paragraphs.append(" ".join(drawn) if rng.random() < 0.5 else drawn)
            drawn = [str(w) for w in rng.choice(words, size=int(rng.integers(0, 4)))]
            question = " ".join(drawn) if rng.random() < 0.5 else drawn
            caps = dict(max_paragraphs=int(rng.integers(1, 5)), max_tokens=int(rng.integers(1, 9)))
            args = (f"d{i}", question, paragraphs, ["cat"])
            pair = make_pair(*args, **caps)
            assert_table_describes(pair)
            assert_same_table(pair, unshared_pair(*args, **caps))

    def test_key_table_numbers_normalized_words(self):
        # "" is key 0; "CAT", "cat" and "Cat" share a key; "--", "," and "!!" read key 0
        table = make_pair(*self.CASES[1][0]).table
        words = ("Which", "CAT", "--", "The", "cat", ",", "An", "A", "mat.", "THE", "Cat", "!!")
        assert table.words == words
        assert table.keys == {"": 0, "which": 1, "cat": 2, "the": 3, "an": 4, "a": 5, "mat": 6}
        assert table.key_of.tolist() == [1, 2, 0, 3, 2, 0, 4, 5, 6, 3, 2, 0]
        assert table.key_of.dtype == np.uint8
        assert table.article.tolist() == [False, False, False, True, True, True, False]

    def test_table_is_left_out_of_equality_hash_and_repr(self):
        pair = make_pair(*self.CASES[0][0])
        other = make_pair(*self.CASES[0][0])
        assert pair.table is not other.table
        assert pair == other and hash(pair) == hash(other)
        assert "table" not in repr(pair) and "WordTable" not in repr(pair)

    def test_replace_derives_a_new_table(self):
        pair = make_pair(*self.CASES[1][0])
        cut = dataclasses.replace(pair, paragraphs=pair.paragraphs[1:2])
        assert_table_describes(cut)
        assert "mat." in cut.table.words and "An" not in cut.table.words

    def test_wide_table_round_trips(self, tmp_path):
        """More distinct words than uint8 holds: ids widen, and labeling,
        encoding and decoding read them right."""
        words = [f"w{i}" for i in range(300)]
        pair = make_pair("wide", "w0 w299", [" ".join(words)], ["w298 w299", "w3"])
        assert pair.table.ids.dtype == np.uint16
        assert_table_describes(pair)
        save_dataset([pair], tmp_path / "wide.jsonl")
        (loaded,) = load_dataset(tmp_path / "wide.jsonl")
        assert loaded == pair
        assert_same_table(loaded, pair)
        spans = find_consistent_spans_exact(loaded).all_spans()
        assert [(s.begin, s.end, s.matched_string) for s in spans] == [
            (3, 3, "w3"),
            (298, 299, "w298 w299"),
        ]
        assert find_consistent_spans_rouge(loaded, threshold=1.0).total_spans == 2
        vocab = Vocabulary.from_pairs([loaded])
        doc = vocab.encode(loaded)
        assert doc.words[doc.table.ids].tolist() == [vocab.id_of(w) for w in words]
        scorer = ToyScorer.initialize(vocab, dim=4, seed=0)
        probs = log_partition(scorer.score(loaded), SpaceKind.PARAGRAPH)
        scored = score_strings(probs, loaded, AnswerAggregation.SUM, None, max_answer_length=2)
        assert set(scored) == {*words, *(" ".join(words[i : i + 2]) for i in range(299))}


LAYOUTS = [name for name, value in vars(WordTable).items() if isinstance(value, cached_property)]


def computed_layouts(pair):
    return set(LAYOUTS) & set(vars(pair.table))


def laid_out(table):
    """Every field of the table's layouts, by name."""
    return {**table.span_keys._asdict(), **table.grid_layout._asdict()}


def oracle_layouts(pair):
    """Every layout of the pair's table, from its tokens by plain loops."""
    normalized = [t.text.lower().translate(PUNCTUATION) for p in pair.paragraphs for t in p.tokens]
    size, counts = len(normalized), [len(p) for p in pair.paragraphs]
    n, longest = len(counts), max(counts, default=0)
    offsets = list(accumulate([c + 1 for c in counts] * 2, initial=0))
    words = pair.table.words
    sequence = [pair.table.keys[w] for w in normalized if w]
    itemsize = pair.table.key_of.itemsize
    padded = b"".join(key.to_bytes(itemsize, "little") for key in sequence) + bytes(8)
    slots = []
    for k, paragraph in enumerate(pair.paragraphs):
        slots += [words.index(t.text) for t in paragraph.tokens] + [len(words) + k]
    return {
        "sequence": sequence,
        "windows": [
            int.from_bytes(padded[i * itemsize : i * itemsize + 8], "little") for i in range(len(sequence))
        ],
        "first": [
            next((j for j in range(i, size) if normalized[j] not in ARTICLES | {""}), size)
            for i in range(size)
        ],
        "upto": list(accumulate(map(bool, normalized))),
        "counts": counts,
        "shape": tuple(c + 1 for c in counts),
        "gather": [
            [[offsets[h * n + k] + min(p, c) for p in range(longest)] for k, c in enumerate(counts)]
            for h in range(2)
        ],
        "pad": [[p >= c for p in range(longest)] for c in counts],
        "occurrences": [[[t.text for t in p.tokens].count(w) for w in words] for p in pair.paragraphs],
        "slots": slots,
    }


def assert_layouts_match_oracle(pair):
    table, expected = pair.table, oracle_layouts(pair)
    layouts = laid_out(table)
    assert sorted(expected) == sorted(layouts)
    for name, value in expected.items():
        mine = layouts[name]
        assert (mine.sizes if name == "shape" else mine.tolist()) == value, name
    size, n = len(table.ids), len(layouts["counts"])
    dtypes = {
        "sequence": table.key_of.dtype,
        "windows": np.dtype("<u8"),
        "first": np.min_scalar_type(size),
        "upto": np.min_scalar_type(size),
        "gather": np.min_scalar_type(2 * (size + n)),
        "occurrences": np.min_scalar_type(max(expected["counts"], default=0)),
        "slots": np.min_scalar_type(len(table.words) + n),
    }
    for name, dtype in dtypes.items():
        assert layouts[name].dtype == dtype, name
    # SpanKeys' invariant: span [i, j] normalizes to a slice of sequence.
    names = list(table.keys)
    span_keys = table.span_keys
    sequence, first, upto = span_keys.sequence, span_keys.first, span_keys.upto
    for k, paragraph in enumerate(pair.paragraphs):
        texts = [t.text for t in paragraph.tokens]
        for i in range(len(texts)):
            for j in range(i, min(i + 8, len(texts))):
                at, end = table.starts[k] + i, table.starts[k] + j
                lead = first[at]
                keys = sequence[upto[lead] - 1 : upto[end]] if lead <= end else []
                assert " ".join(names[key] for key in keys) == normalize_string(" ".join(texts[i : j + 1]))


class TestLayouts:
    def test_building_loading_generating_and_labeling_lay_out_nothing(self, tmp_path):
        pairs, _, _ = generate(NoiseProfile(documents=3, tokens_per_paragraph=20))
        save_dataset(pairs, tmp_path / "d.jsonl")
        loaded = load_dataset(tmp_path / "d.jsonl")
        pairs.append(make_pair(*TestWordTable.CASES[1][0]))  # cased and punctuated: not saved
        replaced = dataclasses.replace(pairs[0], id="other")
        for pair in [*pairs, *loaded, replaced]:
            find_consistent_spans_exact(pair)
            find_consistent_spans_rouge(pair)
            assert computed_layouts(pair) == set()

    def test_layouts_match_the_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(150):
            pair, _ = random_scored_pair(rng, max_tokens=20)
            assert_layouts_match_oracle(pair)
        for args, caps in TestWordTable.CASES:
            assert_layouts_match_oracle(make_pair(*args, **caps))
        assert_layouts_match_oracle(make_pair("none", "q", ["!! ,"], []))
        # the loader's largest document: 8 x 400 tokens, so positions need uint16
        paragraphs = [[RAW_TOKENS[i] for i in rng.integers(0, len(RAW_TOKENS), 400)] for _ in range(8)]
        long = make_pair("long", "q", paragraphs, [])
        assert_layouts_match_oracle(long)
        assert long.table.span_keys.first.dtype == long.table.grid_layout.gather.dtype == np.uint16

    def test_layouts_are_read_only(self):
        pair, grid = random_scored_pair(np.random.default_rng(72))
        for space in SpaceKind:  # builds every array the shape keeps
            score_strings(log_partition(grid, space), pair, AnswerAggregation.SUM)
        shape = pair.table.grid_layout.shape
        assert isinstance(shape.sizes, tuple) and isinstance(shape.offsets, tuple)
        kept = [shape.positions, *shape.paragraph_runs, *shape.document_runs]
        assert len(kept) == 9
        arrays = [value for name, value in laid_out(pair.table).items() if name != "shape"]
        for value in arrays + kept:
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0

    def test_replace_and_pickle_lay_out_anew(self):
        pair, grid = random_scored_pair(np.random.default_rng(73), max_tokens=20)
        probs = log_partition(grid, SpaceKind.PARAGRAPH)
        decoded = score_strings(probs, pair, AnswerAggregation.SUM, None)
        assert computed_layouts(pair) == set(LAYOUTS)
        assert not set(LAYOUTS) & set(vars(dataclasses.replace(pair.table)))
        copy = pickle.loads(pickle.dumps(pair))
        assert copy == pair and computed_layouts(copy) == set()
        assert score_strings(probs, copy, AnswerAggregation.SUM, None) == decoded
        theirs = laid_out(pair.table)
        for name, value in laid_out(copy.table).items():
            if name != "shape":
                np.testing.assert_array_equal(value, theirs[name])
                assert not value.flags.writeable


def pairs_holding(*words):
    """Each way to build a pair from words it does not split itself: make_pair
    on pre-tokenized input, a pair built from Token tuples, and replace."""
    base = make_pair("w", ["q"], [["a"]], [])
    yield lambda: make_pair("w", ["q"], [["a", *words]], [])
    tokens = (Paragraph((Token("a"), *map(Token, words))),)
    yield lambda: DocumentQuestionPair("w", (Token("q"),), tokens, base.answers)
    yield lambda: dataclasses.replace(base, question=tuple(map(Token, words)))


def assert_rejected(message, *words):
    for build in pairs_holding(*words):
        with pytest.raises(ValueError, match=message):
            build()


class TestTypes:
    def test_token_rejects_whitespace(self):
        assert_rejected("token text must not contain whitespace: 'a b'", "a b")
        assert_rejected("token text must be non-empty", "")

    def test_first_bad_word_in_first_sight_order_is_reported(self):
        # an empty word and one holding whitespace split to as many words as they are
        assert_rejected("token text must be non-empty", "b", "", "a b", "")
        assert_rejected("token text must not contain whitespace: 'a b'", "b", "a b", "")
        assert_rejected(r"whitespace: 'c\\td'", "c\td", "a b")

    def test_whitespace_check_agrees_with_isspace_on_every_code_point(self):
        characters = [chr(c) for c in range(sys.maxunicode + 1)]
        spaces = [ch for ch in characters if ch.isspace()]
        assert len(spaces) > 20
        for ch in spaces:
            for text in (ch, f"a{ch}", f"{ch}a", f"a{ch}b"):
                assert_rejected("must not contain whitespace", text)
        # every other code point is accepted: all of them in one token
        others = "".join(ch for ch in characters if not ch.isspace())
        for build in pairs_holding(others):
            assert others in build().table.words
        assert_rejected("must be non-empty", "")

    @pytest.mark.parametrize("caps", [{"max_paragraphs": 0}, {"max_tokens": 0}])
    def test_make_pair_caps_below_one_rejected(self, caps):
        with pytest.raises(ValueError, match="max_paragraphs and max_tokens must be at least 1"):
            make_pair("x", "who", ["iron"], ["iron"], **caps)

    def test_paragraph_needs_tokens(self):
        with pytest.raises(ValueError):
            Paragraph(tokens=())

    def test_answer_set_normalizes_and_dedupes(self):
        answers = AnswerStringSet.from_strings(["The Beatles", "beatles!", "Queen"])
        assert answers.normalized == ("beatles", "queen")
        assert len(answers) == 2

    def test_span_text(self):
        pair = make_pair("x", "q", ["alpha beta gamma"], ["beta"])
        assert pair.paragraphs[0].text(1, 2) == "beta gamma"

    def test_span_text_without_end_runs_to_last_token(self):
        paragraph = make_pair("x", "q", ["alpha beta gamma"], ["beta"]).paragraphs[0]
        assert paragraph.text(1) == "beta gamma"
        assert paragraph.text(2, None) == "gamma"
        assert paragraph.text(0) == paragraph.text()


class TestLoadDataset:
    def write(self, tmp_path, records):
        path = tmp_path / "data.jsonl"
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return path

    def record(self, **kwargs):
        base = {
            "id": "d0",
            "question": "who sang",
            "paragraphs": ["first paragraph here", "second one"],
            "answers": ["Someone"],
        }
        base.update(kwargs)
        return base

    def test_basic_load(self, tmp_path):
        pairs = load_dataset(self.write(tmp_path, [self.record()]))
        assert len(pairs) == 1
        assert pairs[0].id == "d0"
        assert [t.text for t in pairs[0].question] == ["who", "sang"]
        assert pairs[0].paragraph_lengths() == (3, 2)

    def test_paragraph_cap_drops_in_order(self, tmp_path):
        record = self.record(paragraphs=[f"token{i}" for i in range(10)])
        pairs = load_dataset(self.write(tmp_path, [record]))
        assert len(pairs[0].paragraphs) == 8
        assert pairs[0].paragraphs[7].text() == "token7"

    def test_token_cap_keeps_prefix(self, tmp_path):
        words = " ".join(f"w{i}" for i in range(450))
        record = self.record(paragraphs=[words])
        pairs = load_dataset(self.write(tmp_path, [record]))
        assert len(pairs[0].paragraphs[0]) == 400
        assert pairs[0].paragraphs[0].tokens[399].text == "w399"

    def test_empty_paragraphs_removed_and_reindexed(self, tmp_path):
        record = self.record(paragraphs=["one", "...", "three"])
        pairs = load_dataset(self.write(tmp_path, [record]))
        assert [p.text() for p in pairs[0].paragraphs] == ["one", "three"]

    def test_cap_applies_before_empty_removal(self, tmp_path):
        paragraphs = ["..."] * 8 + ["real content"]
        record = self.record(paragraphs=paragraphs)
        pairs = load_dataset(self.write(tmp_path, [record]))
        assert pairs[0].paragraphs == ()

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(self.record()) + "\nnot json{\n")
        with pytest.raises(DatasetParseError) as err:
            load_dataset(path)
        assert err.value.line_number == 2
        assert str(err.value).startswith(f"{path}:2: ")

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(json.dumps(self.record()).encode() + b'\n{"id": "\xff"}\n')
        with pytest.raises(DatasetParseError) as err:
            load_dataset(path)
        assert err.value.line_number == 2
        assert str(err.value) == f"{path}:2: not valid UTF-8"

    def test_repeated_id_is_schema_error(self, tmp_path):
        records = [self.record(), self.record(paragraphs=["alpha"]), self.record()]
        path = self.write(tmp_path, records)
        with pytest.raises(DatasetSchemaError) as err:
            load_dataset(path)
        assert err.value.line_number == 2
        assert str(err.value).startswith(f"{path}:2: id 'd0' repeats")

    def test_schema_error_on_missing_field(self, tmp_path):
        record = self.record()
        del record["answers"]
        with pytest.raises(DatasetSchemaError) as err:
            load_dataset(self.write(tmp_path, [record]))
        assert "answers" in str(err.value)

    def test_schema_error_on_wrong_type(self, tmp_path):
        record = self.record(paragraphs="not a list")
        with pytest.raises(DatasetSchemaError):
            load_dataset(self.write(tmp_path, [record]))

    def test_round_trip(self, tmp_path):
        records = [
            self.record(),
            self.record(id="d1", paragraphs=["More, text! here"], answers=["A", "B"]),
        ]
        first = load_dataset(self.write(tmp_path, records))
        out = tmp_path / "round.jsonl"
        save_dataset(first, out)
        second = load_dataset(out)
        assert first == second

    @pytest.mark.parametrize(
        "question, paragraphs, message",
        [
            (
                ["where", "is", "pisa"],
                [["Pisa", ",", "near", "Rome", "."], ["Rome", "is", "far"]],
                "pair 'd1': word 'Pisa' would load back as 'pisa'",
            ),
            (
                ["Where", "is", "Pisa", "?"],
                [["Pisa", ",", "near", "Rome", "."], ["Rome", "is", "far"]],
                "pair 'd1': word 'Where' would load back as 'where'",
            ),
            (
                ["where", "is", "pisa"],
                [["pisa", ",", "near", "Rome"]],
                "pair 'd1': word ',' would be dropped on loading",
            ),
        ],
    )
    def test_saving_a_word_the_loader_would_change_raises(
        self, tmp_path, question, paragraphs, message
    ):
        kept = make_pair("d0", "who sang", ["first paragraph here"], ["Someone"])
        pair = make_pair("d1", question, paragraphs, ["Rome"])
        out = tmp_path / "pairs.jsonl"
        with pytest.raises(ValueError) as error:
            save_dataset(iter([kept, pair]), out)
        assert str(error.value) == message
        assert not out.exists()


def straddling_pair(rng, lengths, vocabulary):
    """A pair whose paragraphs have these lengths, over the distinct token
    texts vocabulary, each used at least once (so the table holds exactly
    them after the question's "q"), in random order and with repeats."""
    tokens = list(vocabulary) + rng.choice(vocabulary, sum(lengths) - len(vocabulary)).tolist()
    rng.shuffle(tokens)
    bounds = list(accumulate(lengths, initial=0))
    pair = make_pair("b", "q", [tokens[a:b] for a, b in zip(bounds, bounds[1:])], ["w0"])
    assert pair.paragraph_lengths() == tuple(lengths) and len(pair.table.words) == len(vocabulary) + 1
    return pair


def vocabulary_of(count):
    """count distinct token texts: articles and punctuation, then w0, w1, ..."""
    extra = ["the", ",", "A", "an"]
    return extra + [f"w{i}" for i in range(count - len(extra))]


class TestLayoutDtypeBoundaries:
    """Documents on both sides of every switch to a wider layout dtype lay
    out as the oracle does, dtypes included, and decode as the decoding
    oracle does: a builder that picked too narrow a dtype would wrap around
    silently here."""

    CASES = {
        # size (tokens) of 255 and 256: first and upto
        "size 255": ([255], 40),
        "size 256": ([256], 40),
        "size 256 in two": ([128, 128], 40),
        # size + paragraphs of 127 and 128: gather indexes 2 * (size + n) slots
        "size + n 127": ([31, 31, 31, 30], 30),
        "size + n 128": ([31, 31, 31, 31], 30),
        "size + n 128 in one": ([127], 30),
        # words + paragraphs of 255 and 256: slots
        "words + n 255": ([200, 200], 252),
        "words + n 256": ([200, 200], 253),
        # the longest paragraph of 255 and 256 tokens: occurrences
        "longest 255": ([255, 3], 20),
        "longest 256": ([256, 3], 20),
        # 255 and 256 keys ("" and "q" among them): key_of, the sequence and packed rows
        "keys 255": ([300, 100], 254),
        "keys 256": ([300, 100], 255),
    }

    @classmethod
    def pair(cls, name, rng):
        lengths, count = cls.CASES[name]
        return straddling_pair(rng, lengths, vocabulary_of(count))

    @staticmethod
    def check(pair, rng):
        assert_layouts_match_oracle(pair)
        grid = ScoreGrid.zeros(pair.paragraph_lengths())
        grid.vector[:] = rng.normal(0.0, 2.0, grid.vector.shape)
        for space in SpaceKind:
            probs = log_partition(grid, space)
            for aggregation in AnswerAggregation:
                answer, score = oracle_predict(probs, pair, aggregation, 20, 8)
                got = decode(probs, pair, aggregation, 20, 8)
                assert (got.answer, got.score) == (answer, score)

    @pytest.mark.parametrize("name", list(CASES))
    def test_each_side_of_a_dtype_switch(self, name):
        rng = np.random.default_rng(sorted(self.CASES).index(name))
        self.check(self.pair(name, rng), rng)

    def test_the_cases_straddle_every_switch(self):
        def itemsize(name, field):
            return laid_out(self.pair(name, np.random.default_rng(0)).table)[field].itemsize

        for field, below, above in [
            ("first", "size 255", "size 256"),
            ("upto", "size 255", "size 256 in two"),
            ("gather", "size + n 127", "size + n 128"),
            ("gather", "size + n 127", "size + n 128 in one"),
            ("slots", "words + n 255", "words + n 256"),
            ("occurrences", "longest 255", "longest 256"),
            ("sequence", "keys 255", "keys 256"),
        ]:
            assert (itemsize(below, field), itemsize(above, field)) == (1, 2), (field, below, above)

    def test_ragged_documents_of_eight_paragraphs(self):
        rng = np.random.default_rng(83)
        shapes = [[1, 400, 2, 399, 255, 256, 127, 128]]
        shapes += [rng.integers(1, 401, 8).tolist() for _ in range(3)]
        for lengths in shapes:
            self.check(straddling_pair(rng, lengths, vocabulary_of(int(rng.integers(5, 300)))), rng)
