import numpy as np
import pytest

from docqa.corpus import make_pair
from docqa.labeling import find_consistent_spans_exact
from docqa.model import (
    PARAM_NAMES,
    UNKNOWN_TOKEN,
    Checkpoint,
    ToyScorer,
    Vocabulary,
)
from docqa.objectives import ObjectiveSpec, combine, evaluate
from docqa.probability import ScoreGrid


def sample_pair():
    return make_pair(
        "m1",
        "which town",
        ["the town of delft makes tiles", "delft sits near the coast"],
        ["delft"],
    )


def build_scorer(seed=3):
    pair = sample_pair()
    vocab = Vocabulary.from_pairs([pair])
    return pair, ToyScorer.initialize(vocab, dim=5, seed=seed)


def scorer_at(scorer, vector):
    """A scorer over scorer's vocabulary whose params are a copy of vector."""
    return ToyScorer(scorer.vocab, *scorer.views(vector).values())


def oracle_question_mean(scorer, pair):
    ids = [scorer.vocab.id_of(t.text) for t in pair.question]
    return ids, scorer.embedding[ids].mean(axis=0) if ids else np.zeros(scorer.dim)


def oracle_features(scorer, ids, qbar):
    """Each token's [x, qbar, x * qbar] row, 3 * dim wide."""
    x = scorer.embedding[ids]
    return np.concatenate([x, np.broadcast_to(qbar, x.shape), x * qbar], axis=1)


def oracle_score(scorer, pair):
    """The per-paragraph score over feature rows that the folded one replaced."""
    _, qbar = oracle_question_mean(scorer, pair)
    begin, end = [], []
    for paragraph in pair.paragraphs:
        ids = [scorer.vocab.id_of(t.text) for t in paragraph.tokens]
        features = oracle_features(scorer, ids, qbar)
        mean_feature = features.mean(axis=0)
        begin.append([*features @ scorer.begin_head, mean_feature @ scorer.null_begin_head])
        end.append([*features @ scorer.end_head, mean_feature @ scorer.null_end_head])
    return ScoreGrid(np.concatenate([*begin, *end]), [len(a) for a in begin])


def oracle_backprop(scorer, pair, grad_begin, grad_end):
    """The per-paragraph backprop over five named gradient arrays and feature
    rows that the folded one replaced; returns them in the params layout."""
    grads = {name: np.zeros_like(getattr(scorer, name)) for name in PARAM_NAMES}
    q_ids, qbar = oracle_question_mean(scorer, pair)
    dim = scorer.dim
    d_qbar = np.zeros(dim)
    for paragraph, db_full, de_full in zip(pair.paragraphs, grad_begin, grad_end):
        n = len(paragraph)
        ids = [scorer.vocab.id_of(t.text) for t in paragraph.tokens]
        features = oracle_features(scorer, ids, qbar)
        mean_feature = features.mean(axis=0)
        db = np.asarray(db_full[:n])
        de = np.asarray(de_full[:n])
        d_null_b = float(db_full[n])
        d_null_e = float(de_full[n])
        grads["begin_head"] += features.T @ db
        grads["end_head"] += features.T @ de
        grads["null_begin_head"] += d_null_b * mean_feature
        grads["null_end_head"] += d_null_e * mean_feature
        d_features = (
            np.outer(db, scorer.begin_head)
            + np.outer(de, scorer.end_head)
            + (d_null_b * scorer.null_begin_head + d_null_e * scorer.null_end_head)[
                None, :
            ]
            / n
        )
        x = scorer.embedding[ids]
        d_x = d_features[:, :dim] + d_features[:, 2 * dim :] * qbar
        np.add.at(grads["embedding"], ids, d_x)
        d_qbar += d_features[:, dim : 2 * dim].sum(axis=0)
        d_qbar += (d_features[:, 2 * dim :] * x).sum(axis=0)
    if q_ids:
        np.add.at(grads["embedding"], q_ids, d_qbar / len(q_ids))
    return np.concatenate([grads[name].ravel() for name in PARAM_NAMES])


def assert_matches_oracle(actual, expected):
    """Equal to 1e-12 relative to the largest expected magnitude: the fold
    reorders float operations, so the per-paragraph oracle is not bitwise."""
    scale = np.abs(expected).max()
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


class TestVocabulary:
    def test_sorted_with_reserved_zero(self):
        vocab = Vocabulary.from_pairs([sample_pair()])
        assert vocab.tokens[0] == UNKNOWN_TOKEN
        assert list(vocab.tokens[1:]) == sorted(vocab.tokens[1:])
        assert vocab.id_of(UNKNOWN_TOKEN) == 0

    def test_unseen_token_maps_to_zero(self):
        vocab = Vocabulary.from_pairs([sample_pair()])
        assert vocab.id_of("zeppelin") == 0
        assert vocab.id_of("delft") > 0

    def test_json_round_trip(self):
        vocab = Vocabulary.from_pairs([sample_pair()])
        assert Vocabulary.from_json(vocab.to_json()) == vocab

    def test_validation(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "b"))
        with pytest.raises(ValueError):
            Vocabulary((UNKNOWN_TOKEN, "a", "a"))


class TestScoring:
    def test_fresh_scorer_is_uniform(self):
        pair, scorer = build_scorer()
        grid = scorer.score(pair)
        for arr in grid.begin + grid.end:
            np.testing.assert_allclose(arr, 0.0, atol=1e-12)

    def test_grid_shape_includes_null_slot(self):
        pair, scorer = build_scorer()
        grid = scorer.score(pair)
        assert grid.token_counts() == tuple(len(p) for p in pair.paragraphs)
        for k, paragraph in enumerate(pair.paragraphs):
            assert grid.begin[k].shape == (len(paragraph) + 1,)

    def test_deterministic_in_seed(self):
        pair, a = build_scorer(seed=9)
        _, b = build_scorer(seed=9)
        _, c = build_scorer(seed=10)
        np.testing.assert_array_equal(a.params, b.params)
        assert not np.array_equal(a.params, c.params)

    def test_shared_tokens_share_scores(self):
        # both "delft" mentions see the same features, hence the same score
        pair, scorer = build_scorer()
        rng = np.random.default_rng(0)
        scorer.params[:] = rng.normal(0, 0.3, scorer.params.shape)
        grid = scorer.score(pair)
        tokens0 = [t.text for t in pair.paragraphs[0].tokens]
        tokens1 = [t.text for t in pair.paragraphs[1].tokens]
        i0 = tokens0.index("delft")
        i1 = tokens1.index("delft")
        np.testing.assert_allclose(grid.begin[0][i0], grid.begin[1][i1], atol=1e-12)


class TestBackprop:
    def test_matches_finite_differences(self):
        pair, scorer = build_scorer()
        rng = np.random.default_rng(7)
        scorer.params[:] = rng.normal(0, 0.4, scorer.params.shape)
        grid = scorer.score(pair)
        # arbitrary smooth function of the grid: weighted sum of entries
        weights = ScoreGrid(rng.normal(0, 1, grid.vector.shape), grid.sizes)

        def objective(vec):
            return float(weights.vector @ scorer_at(scorer, vec).score(pair).vector)

        flat = scorer.backprop(pair, weights)
        base = scorer.params.copy()
        eps = 1e-6
        worst = 0.0
        for idx in range(0, base.size, 7):
            bumped = base.copy()
            bumped[idx] += eps
            high = objective(bumped)
            bumped[idx] = base[idx] - eps
            low = objective(bumped)
            fd = (high - low) / (2 * eps)
            worst = max(worst, abs(fd - flat[idx]) / max(1.0, abs(fd), abs(flat[idx])))
        assert worst < 1e-7

    def test_chains_through_training_objective(self):
        pair, scorer = build_scorer()
        rng = np.random.default_rng(8)
        scorer.params[:] = rng.normal(0, 0.4, scorer.params.shape)
        labels = find_consistent_spans_exact(pair)
        spec = ObjectiveSpec.parse("H2-P-span-mml")

        def value_at(vec):
            return evaluate(spec, scorer_at(scorer, vec).score(pair), labels).value

        result = evaluate(spec, scorer.score(pair), labels)
        flat = scorer.backprop(pair, result.grad)
        base = scorer.params.copy()
        eps = 1e-5
        worst = 0.0
        for idx in range(0, base.size, 5):
            bumped = base.copy()
            bumped[idx] += eps
            high = value_at(bumped)
            bumped[idx] = base[idx] - eps
            low = value_at(bumped)
            fd = (high - low) / (2 * eps)
            worst = max(worst, abs(fd - flat[idx]) / max(1.0, abs(fd), abs(flat[idx])))
        assert worst < 1e-6

    def test_unknown_question_tokens_share_gradient(self):
        pair = make_pair("m2", "zzz yyy", ["one two"], ["two"])
        vocab = Vocabulary.from_pairs([make_pair("v", "q", ["one two"], ["two"])])
        scorer = ToyScorer.initialize(vocab, dim=4, seed=1)
        scorer.params[:] = np.random.default_rng(1).normal(0, 0.4, scorer.params.shape)
        grid = scorer.score(pair)
        ones = ScoreGrid(np.ones_like(grid.vector), grid.sizes)
        grads = scorer.backprop(pair, ones)
        assert grads.shape == scorer.params.shape
        named = scorer.views(grads)
        assert named["embedding"].shape == scorer.embedding.shape
        # both question tokens map to the unknown row, which alone collects
        # the question's gradient beside the paragraph's own rows
        touched = np.flatnonzero(np.abs(named["embedding"]).sum(axis=1))
        assert list(touched) == sorted({0, vocab.id_of("one"), vocab.id_of("two")})


def long_pair():
    """8 paragraphs of 400 tokens over 34 words, 24 of them outside
    sample_pair's vocabulary, so that many words share the unknown row."""
    rng = np.random.default_rng(41)
    words = sample_pair().table.words + tuple(f"x{i}" for i in range(24))
    paragraphs = [[str(w) for w in rng.choice(words, size=400)] for _ in range(8)]
    return make_pair("long", "which x0 town x1", paragraphs, ["delft"])


def oracle_cases():
    """Seeded (scorer, pair) cases for the per-paragraph scorer oracles."""
    pairs = [
        sample_pair(),
        # unknown question and paragraph tokens, tokens repeated across paragraphs
        make_pair("u", "which zzz town", ["delft tiles qqq delft", "tiles delft", "zzz"], ["delft"]),
        # an empty question
        make_pair("e", "", ["the town of delft", "delft"], ["delft"]),
        # one-token paragraphs only
        make_pair("o", "which town", ["delft", "tiles", "delft"], ["delft"]),
        long_pair(),
    ]
    vocab = Vocabulary.from_pairs([sample_pair()])
    for seed, pair in enumerate(pairs):
        scorer = ToyScorer.initialize(vocab, dim=4, seed=seed)
        scorer.params[:] = np.random.default_rng(seed).normal(0, 0.5, scorer.params.shape)
        yield seed, scorer, pair


class TestBackpropOracle:
    def test_folded_gradient_matches_per_paragraph_oracle(self):
        cases = list(oracle_cases())
        _, scorer, repeated = cases[1]
        ids = [scorer.vocab.id_of(t.text) for p in repeated.paragraphs for t in p.tokens]
        assert 0 in ids and len(set(ids)) < len(ids)
        assert not cases[2][2].question
        assert all(len(p) == 1 for p in cases[3][2].paragraphs)
        _, scorer, long = cases[4]
        doc = scorer.vocab.encode(long)
        assert long.paragraph_lengths() == (400,) * 8
        assert len(doc.words) == 34 and np.count_nonzero(doc.words == 0) == 24
        checked = 0
        for seed, scorer, pair in cases:
            rng = np.random.default_rng(100 + seed)
            grid = scorer.score(pair)
            labels = find_consistent_spans_exact(pair)
            specs = [ObjectiveSpec.parse("H2-P-span-mml"), ObjectiveSpec.parse("H1-P-pos-hardem")]
            grads = [
                ScoreGrid(rng.normal(0, 1, grid.vector.shape), grid.sizes),
                combine(specs, [0.5, 1.0], grid, labels).grad,
            ]
            for grad in grads:
                expected = oracle_backprop(scorer, pair, grad.begin, grad.end)
                assert_matches_oracle(scorer.backprop(pair, grad), expected)
                checked += 1
        assert checked == 10

    def test_folded_score_matches_per_paragraph_oracle(self):
        for _, scorer, pair in oracle_cases():
            grid, expected = scorer.score(pair), oracle_score(scorer, pair)
            assert grid.sizes == expected.sizes
            assert_matches_oracle(grid.vector, expected.vector)


class TestEncoding:
    def test_ids_are_id_of_each_token(self):
        for _, scorer, pair in oracle_cases():
            doc = scorer.vocab.encode(pair)
            tokens = [t for p in pair.paragraphs for t in p.tokens]
            assert doc.words[doc.ids].tolist() == [scorer.vocab.id_of(t.text) for t in tokens]
            assert doc.words[doc.question_ids].tolist() == [
                scorer.vocab.id_of(t.text) for t in pair.question
            ]
            # the encoding keeps the word table's position ids, not a copy
            assert np.shares_memory(doc.ids, pair.table.ids)
            assert doc.question_ids is pair.table.question
            assert doc.counts.tolist() == [len(p) for p in pair.paragraphs]
            assert doc.sizes == tuple(len(p) + 1 for p in pair.paragraphs)
            for k, paragraph in enumerate(pair.paragraphs):
                ids = [pair.table.words.index(t.text) for t in paragraph.tokens]
                assert doc.occurrences[k].tolist() == np.bincount(
                    ids, minlength=len(doc.words)
                ).tolist()
            # a grid half reads each paragraph's words, then its null column
            slots = []
            for k in range(len(pair.paragraphs)):
                slots += [*pair.table.paragraph(k).tolist(), len(doc.words) + k]
            assert doc.slots.tolist() == slots

    def test_vocabulary_and_encoding_equal_per_token_lookups_on_random_pairs(self):
        # The vocabulary sees half the pairs, so the other half holds unknown words.
        rng = np.random.default_rng(29)
        words = [f"w{i}" for i in range(40)] + ["The", "the", "Cat.", ",", UNKNOWN_TOKEN]
        pairs = []
        for i in range(60):
            paragraphs = [
                [str(w) for w in rng.choice(words, size=int(rng.integers(1, 30)))]
                for _ in range(int(rng.integers(1, 5)))
            ]
            question = [str(w) for w in rng.choice(words, size=int(rng.integers(0, 5)))]
            pairs.append(make_pair(f"r{i}", question, paragraphs, []))
        vocab = Vocabulary.from_pairs(pairs[::2])
        seen = {t.text for pair in pairs[::2] for t in pair.question}
        seen |= {t.text for pair in pairs[::2] for p in pair.paragraphs for t in p.tokens}
        assert vocab == Vocabulary((UNKNOWN_TOKEN, *sorted(seen - {UNKNOWN_TOKEN})))
        unknown = 0
        for pair in pairs:
            doc = vocab.encode(pair)
            expected = [vocab.id_of(t.text) for p in pair.paragraphs for t in p.tokens]
            assert doc.words.dtype == np.int64
            assert doc.words[doc.ids].tolist() == expected
            assert doc.words[doc.question_ids].tolist() == [
                vocab.id_of(t.text) for t in pair.question
            ]
            assert np.shares_memory(doc.ids, pair.table.ids)
            unknown += expected.count(0)
        assert unknown > 0

    def test_scoring_an_encoding_equals_scoring_its_pair_bitwise(self):
        for seed, scorer, pair in oracle_cases():
            doc = scorer.vocab.encode(pair)
            grid = scorer.score(pair)
            np.testing.assert_array_equal(scorer.score(doc).vector, grid.vector)
            grad = ScoreGrid(
                np.random.default_rng(seed).normal(0, 1, grid.vector.shape), grid.sizes
            )
            np.testing.assert_array_equal(scorer.backprop(doc, grad), scorer.backprop(pair, grad))

    def test_encoding_must_share_the_scorer_vocabulary(self):
        pair, scorer = build_scorer()
        equal = Vocabulary(scorer.vocab.tokens)
        np.testing.assert_array_equal(
            scorer.score(equal.encode(pair)).vector, scorer.score(pair).vector
        )
        other = Vocabulary((*scorer.vocab.tokens, "zeppelin"))
        with pytest.raises(ValueError, match="another vocabulary"):
            scorer.score(other.encode(pair))

    def test_pair_without_paragraphs_has_no_grid(self):
        pair, scorer = build_scorer()
        empty = make_pair("x", "which town", ["!!! ,,,"], ["delft"])
        assert empty.paragraphs == ()
        assert scorer.vocab.encode(empty).ids.shape == (0,)
        with pytest.raises(ValueError, match="at least one paragraph"):
            scorer.score(empty)


class TestParams:
    def test_named_attributes_view_params(self):
        _, scorer = build_scorer()
        for name in PARAM_NAMES:
            assert np.shares_memory(getattr(scorer, name), scorer.params)
        vocab_rows, dim = scorer.embedding.shape
        assert scorer.params.shape == (vocab_rows * dim + 4 * 3 * dim,)
        scorer.params += 1.0
        np.testing.assert_array_equal(scorer.begin_head, np.ones(3 * dim))
        scorer.null_end_head[0] = 5.0
        assert scorer.params[-3 * dim] == 5.0
        scorer.embedding[1, 2] = -3.0
        assert scorer.params[dim + 2] == -3.0
        # views names the parts of any vector in the same layout
        other = np.arange(scorer.params.size, dtype=np.float64)
        named = scorer.views(other)
        assert list(named) == list(PARAM_NAMES)
        assert named["embedding"][1, 2] == dim + 2
        assert named["null_end_head"][0] == scorer.params.size - 3 * dim
        with pytest.raises(ValueError):
            scorer.views(other[:-1])

    def test_to_scorer_owns_its_params(self):
        _, scorer = build_scorer()
        ckpt = Checkpoint.from_scorer(scorer, "f", {})
        restored = ckpt.to_scorer()
        np.testing.assert_array_equal(restored.params, scorer.params)
        restored.params += 1.0
        for name in PARAM_NAMES:
            assert not np.shares_memory(getattr(restored, name), ckpt.params[name])
            np.testing.assert_array_equal(getattr(restored, name), ckpt.params[name] + 1.0)

    def test_checkpoint_does_not_share_scorer_params(self):
        _, scorer = build_scorer()
        ckpt = Checkpoint.from_scorer(scorer, "f", {})
        before = {name: array.copy() for name, array in ckpt.params.items()}
        scorer.params += 1.0
        scorer.embedding[0, 0] = 9.0
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(ckpt.params[name], before[name])

    def test_scorer_does_not_share_checkpoint_params(self):
        _, scorer = build_scorer()
        ckpt = Checkpoint.from_scorer(scorer, "f", {})
        restored = ckpt.to_scorer()
        before = restored.params.copy()
        for array in ckpt.params.values():
            array += 1.0
        np.testing.assert_array_equal(restored.params, before)
        np.testing.assert_array_equal(restored.params, scorer.params)

    def test_shapes_validated(self):
        _, scorer = build_scorer()
        arrays = [getattr(scorer, name) for name in PARAM_NAMES]
        rows, dim = scorer.embedding.shape
        with pytest.raises(ValueError, match=rf"embedding must have shape \({rows}, {dim}\)"):
            ToyScorer(scorer.vocab, arrays[0][:-1], *arrays[1:])
        with pytest.raises(ValueError, match=r"embedding must have shape"):
            ToyScorer(scorer.vocab, arrays[0].ravel(), *arrays[1:])
        with pytest.raises(ValueError, match=rf"end_head must have shape \({3 * dim},\)"):
            ToyScorer(scorer.vocab, arrays[0], arrays[1], arrays[2][:-1], *arrays[3:])


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        pair, scorer = build_scorer()
        rng = np.random.default_rng(2)
        scorer.params[:] = rng.normal(0, 0.5, scorer.params.shape)
        ckpt = Checkpoint.from_scorer(
            scorer, fingerprint="abc123", history={"objective_values": [1.0, 2.0]}
        )
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        assert path.exists()
        loaded = Checkpoint.load(path)
        assert loaded.fingerprint == "abc123"
        assert loaded.history == {"objective_values": [1.0, 2.0]}
        assert loaded.vocab == scorer.vocab
        restored = loaded.to_scorer()
        np.testing.assert_array_equal(restored.params, scorer.params)
        grid = restored.score(pair)
        original = scorer.score(pair)
        for a, b in zip(grid.begin + grid.end, original.begin + original.end):
            np.testing.assert_array_equal(a, b)

    def test_exact_path_preserved(self, tmp_path):
        _, scorer = build_scorer()
        ckpt = Checkpoint.from_scorer(scorer, "f", {})
        path = tmp_path / "no_suffix"
        ckpt.save(path)
        assert path.exists()
        assert not (tmp_path / "no_suffix.npz").exists()

    def test_failed_save_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        _, scorer = build_scorer()
        path = tmp_path / "model.ckpt"
        Checkpoint.from_scorer(scorer, "old", {}).save(path)
        before = path.read_bytes()

        def broken_savez(handle, **arrays):
            handle.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            Checkpoint.from_scorer(scorer, "new", {"epochs": 1}).save(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
