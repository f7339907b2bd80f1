import numpy as np
import pytest

from docqa.corpus import make_pair
from docqa.model import (
    PARAM_NAMES,
    UNKNOWN_TOKEN,
    Checkpoint,
    ParamGradients,
    ToyScorer,
    Vocabulary,
)
from docqa.objectives import ObjectiveSpec, evaluate


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
        np.testing.assert_array_equal(a.params_vector(), b.params_vector())
        assert not np.array_equal(a.params_vector(), c.params_vector())

    def test_shared_tokens_share_scores(self):
        # both "delft" mentions see the same features, hence the same score
        pair, scorer = build_scorer()
        rng = np.random.default_rng(0)
        scorer.set_params_vector(rng.normal(0, 0.3, scorer.params_vector().shape))
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
        scorer.set_params_vector(rng.normal(0, 0.4, scorer.params_vector().shape))
        grid = scorer.score(pair)
        # arbitrary smooth function of the grid: weighted sum of entries
        weights_b = [rng.normal(0, 1, a.shape) for a in grid.begin]
        weights_e = [rng.normal(0, 1, a.shape) for a in grid.end]

        def objective(vec):
            probe = scorer.clone()
            probe.set_params_vector(vec)
            g = probe.score(pair)
            return sum(
                float(w @ a) for w, a in zip(weights_b + weights_e, g.begin + g.end)
            )

        grads = scorer.backprop(pair, weights_b, weights_e)
        flat = np.concatenate([getattr(grads, n).ravel() for n in PARAM_NAMES])
        base = scorer.params_vector()
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
        scorer.set_params_vector(rng.normal(0, 0.4, scorer.params_vector().shape))
        from docqa.labeling import find_consistent_spans_exact

        labels = find_consistent_spans_exact(pair)
        spec = ObjectiveSpec.parse("H2-P-span-mml")

        def value_at(vec):
            probe = scorer.clone()
            probe.set_params_vector(vec)
            return evaluate(spec, probe.score(pair), labels).value

        result = evaluate(spec, scorer.score(pair), labels)
        grads = scorer.backprop(pair, result.grad_begin, result.grad_end)
        flat = np.concatenate([getattr(grads, n).ravel() for n in PARAM_NAMES])
        base = scorer.params_vector()
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
        grid = scorer.score(pair)
        gb = [np.ones_like(a) for a in grid.begin]
        ge = [np.ones_like(a) for a in grid.end]
        grads = scorer.backprop(pair, gb, ge)
        assert grads.embedding.shape == scorer.embedding.shape


class TestUpdates:
    def test_apply_update_ascends(self):
        pair, scorer = build_scorer()
        grads = ParamGradients.zeros_like(scorer)
        grads.begin_head[:] = 1.0
        before = scorer.begin_head.copy()
        scorer.apply_update(grads, step=0.25)
        np.testing.assert_allclose(scorer.begin_head, before + 0.25, atol=1e-15)

    def test_gradient_accumulator_ops(self):
        _, scorer = build_scorer()
        a = ParamGradients.zeros_like(scorer)
        b = ParamGradients.zeros_like(scorer)
        a.end_head[:] = 2.0
        b.end_head[:] = 1.0
        a.add_(b, weight=0.5)
        np.testing.assert_allclose(a.end_head, 2.5)
        a.scale_(2.0)
        np.testing.assert_allclose(a.end_head, 5.0)

    def test_params_vector_round_trip(self):
        _, scorer = build_scorer()
        vec = scorer.params_vector()
        scorer.set_params_vector(vec * 2.0)
        np.testing.assert_allclose(scorer.params_vector(), vec * 2.0)
        with pytest.raises(ValueError):
            scorer.set_params_vector(vec[:-1])


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        pair, scorer = build_scorer()
        rng = np.random.default_rng(2)
        scorer.set_params_vector(rng.normal(0, 0.5, scorer.params_vector().shape))
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
        np.testing.assert_array_equal(restored.params_vector(), scorer.params_vector())
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
