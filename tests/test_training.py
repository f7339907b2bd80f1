import warnings

import numpy as np
import pytest

from docqa.corpus import make_pair
from docqa.labeling import ConsistentLabelSet, SpanLabel, find_consistent_spans_exact
from docqa.model import Vocabulary
from docqa.objectives import LabelError, ObjectiveSpec, evaluate
from docqa.training import (
    TrainConfig,
    TrainingDivergedError,
    pretrain_clean,
    train,
)


def tiny_dataset():
    pairs = [
        make_pair(
            f"d{i}",
            "name the metal",
            [
                f"the metal is iron in sample {i}",
                "nothing useful in this paragraph",
            ],
            ["iron"],
        )
        for i in range(6)
    ]
    labels = [find_consistent_spans_exact(p) for p in pairs]
    return pairs, labels


class TestTrainBasics:
    def test_bit_identical_across_runs(self):
        pairs, labels = tiny_dataset()
        config = TrainConfig(epochs=2, seed=4)
        a = train(config, pairs, labels)
        b = train(config, pairs, labels)
        np.testing.assert_array_equal(
            a.to_scorer().params, b.to_scorer().params
        )
        assert a.history == b.history
        assert a.fingerprint == b.fingerprint

    def test_seed_changes_run(self):
        pairs, labels = tiny_dataset()
        a = train(TrainConfig(epochs=2, seed=4), pairs, labels)
        b = train(TrainConfig(epochs=2, seed=5), pairs, labels)
        assert not np.array_equal(
            a.to_scorer().params, b.to_scorer().params
        )

    def test_objective_improves(self):
        pairs, labels = tiny_dataset()
        ckpt = train(TrainConfig(epochs=5, learning_rate=0.5), pairs, labels)
        values = ckpt.history["objective_values"]
        assert len(values) == 5
        assert values[-1] > values[0]

    def test_training_moves_probability_onto_answer(self):
        pairs, labels = tiny_dataset()
        ckpt = train(TrainConfig(epochs=8, learning_rate=0.8), pairs, labels)
        scorer = ckpt.to_scorer()
        spec = ObjectiveSpec.parse("H2-P-span-mml")
        trained = np.mean(
            [evaluate(spec, scorer.score(p), l).value for p, l in zip(pairs, labels)]
        )
        fresh_ckpt = train(
            TrainConfig(epochs=1, learning_rate=1e-9), pairs, labels
        )
        fresh = np.mean(
            [
                evaluate(spec, fresh_ckpt.to_scorer().score(p), l).value
                for p, l in zip(pairs, labels)
            ]
        )
        assert trained > fresh + 0.5

    def test_history_counts(self):
        pairs, labels = tiny_dataset()
        ckpt = train(TrainConfig(epochs=1), pairs, labels)
        assert ckpt.history["trained_examples"] == len(pairs)
        assert ckpt.history["skipped_examples"] == 0
        assert ckpt.history["initialized_from"] is None

    def test_history_records_objectives(self):
        # library runs record them too, so eval --space auto decodes in D
        pairs, labels = tiny_dataset()
        ckpt = train(TrainConfig(objectives=("H3-D-pos-mml",), epochs=1), pairs, labels)
        assert ckpt.history["objectives"] == ["H3-D-pos-mml"]
        assert list(ckpt.history)[-2:] == ["initialized_from", "objectives"]

    def test_warm_start_records_source(self):
        pairs, labels = tiny_dataset()
        first = train(TrainConfig(epochs=1), pairs, labels)
        second = train(TrainConfig(epochs=1), pairs, labels, init=first)
        assert second.history["initialized_from"] == first.fingerprint


class TestSkipping:
    def test_document_space_skips_unlabeled(self):
        pairs, labels = tiny_dataset()
        pairs = pairs + [make_pair("dx", "name the metal", ["no answer here"], ["iron"])]
        labels = labels + [find_consistent_spans_exact(pairs[-1])]
        assert labels[-1].total_spans == 0
        doc = train(
            TrainConfig(objectives=("H2-D-span-mml",), epochs=1), pairs, labels
        )
        assert doc.history["skipped_examples"] == 1
        assert doc.history["trained_examples"] == len(pairs) - 1
        par = train(
            TrainConfig(objectives=("H2-P-span-mml",), epochs=1), pairs, labels
        )
        assert par.history["skipped_examples"] == 0

    def test_mixed_combo_inherits_skip_rule(self):
        pairs, labels = tiny_dataset()
        pairs = pairs + [make_pair("dx", "q", ["no answer here"], ["iron"])]
        labels = labels + [find_consistent_spans_exact(pairs[-1])]
        combo = train(
            TrainConfig(
                objectives=("H2-P-span-mml", "H3-D-span-mml"),
                weights=(0.5, 0.5),
                epochs=1,
            ),
            pairs,
            labels,
        )
        assert combo.history["skipped_examples"] == 1

    def test_pair_without_paragraphs_counted_and_logged(self, caplog):
        labeled = make_pair("c0", "which metal", ["iron sample"], ["iron"])
        empty = make_pair("c1", "which metal", [], ["iron"])
        pairs = [labeled, empty]
        labels = [find_consistent_spans_exact(p) for p in pairs]
        with caplog.at_level("INFO", logger="docqa.training"):
            for ckpt in (
                train(TrainConfig(epochs=1), pairs, labels),
                pretrain_clean(TrainConfig(pretrain_epochs=1), pairs, labels),
            ):
                assert ckpt.history["skipped_examples"] == 1
                assert ckpt.history["trained_examples"] == 1
        assert [r.getMessage() for r in caplog.records] == [
            "skipping 1 examples: 1 without paragraphs, 0 with no consistent span"
        ] * 2


class TestDivergence:
    def test_parameter_overflow_aborts(self):
        # momentum keeps growing the heads until they overflow float range,
        # at which point the scores stop being finite and training must stop
        pairs, labels = tiny_dataset()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                train(
                    TrainConfig(epochs=20, learning_rate=1e307, momentum=0.9),
                    pairs,
                    labels,
                )

    def test_overflow_in_the_last_update_aborts_without_warning(self):
        # One example, one step: the objective is finite, but the update
        # (gradient entries above 10 at this init scale) overflows.
        pairs, labels = tiny_dataset()
        config = TrainConfig(epochs=1, learning_rate=1e308, init_scale=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError, match="non-finite parameters"):
                train(config, pairs[:1], labels[:1])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(objectives=("H2-P-span-mml",), weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            TrainConfig(objectives=())
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)

    @pytest.mark.parametrize(
        "fields, fault",
        [
            ({"embedding_dim": 0}, "embedding dimension must be at least 1"),
            ({"learning_rate": float("nan")}, "learning rate must be positive and finite"),
            ({"learning_rate": float("inf")}, "learning rate must be positive and finite"),
            ({"weights": (float("nan"),)}, "weights must be finite and non-negative"),
            ({"weights": (float("inf"),)}, "weights must be finite and non-negative"),
            ({"weights": (-0.5,)}, "weights must be finite and non-negative"),
            ({"seed": -1}, "seed must be non-negative"),
            ({"init_scale": -1.0}, "init scale must be positive and finite"),
            ({"init_scale": 0.0}, "init scale must be positive and finite"),
            ({"init_scale": float("nan")}, "init scale must be positive and finite"),
            ({"init_scale": float("inf")}, "init scale must be positive and finite"),
        ],
    )
    def test_rejects_values_training_cannot_use(self, fields, fault):
        with pytest.raises(ValueError, match=fault):
            TrainConfig(**fields)
        # the edges that stay valid
        edges = dict(embedding_dim=1, learning_rate=1e308, weights=(0.0,), seed=0, init_scale=1e-300)
        assert TrainConfig(**edges).epochs == 3

    def test_fingerprint_tracks_settings(self):
        a = TrainConfig(seed=0)
        b = TrainConfig(seed=1)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == TrainConfig(seed=0).fingerprint()
        assert a.fingerprint() == "5f0cae4af6829754"

    def test_bad_objective_surfaces_at_parse(self):
        config = TrainConfig(objectives=("H3-P-span-mml",))
        with pytest.raises(Exception):
            config.parsed_objectives()


class TestTemperatureRamp:
    def multi_mention_dataset(self):
        # two mentions per positive paragraph, so the latent choice is real
        pairs = [
            make_pair(
                f"d{i}",
                "name the metal",
                [f"iron came first in {i} then iron again"],
                ["iron"],
            )
            for i in range(6)
        ]
        return pairs, [find_consistent_spans_exact(p) for p in pairs]

    def test_ramp_changes_hardem_run(self):
        pairs, labels = self.multi_mention_dataset()
        plain = train(
            TrainConfig(objectives=("H2-P-span-hardem",), epochs=3, learning_rate=0.4),
            pairs,
            labels,
        )
        ramped = train(
            TrainConfig(
                objectives=("H2-P-span-hardem",),
                epochs=3,
                learning_rate=0.4,
                hardem_temperature_ramp=True,
            ),
            pairs,
            labels,
        )
        assert not np.array_equal(
            plain.to_scorer().params, ramped.to_scorer().params
        )

    def test_ramp_inert_for_marginal_objectives(self):
        pairs, labels = tiny_dataset()
        plain = train(TrainConfig(epochs=2), pairs, labels)
        ramped = train(
            TrainConfig(epochs=2, hardem_temperature_ramp=True), pairs, labels
        )
        np.testing.assert_array_equal(
            plain.to_scorer().params, ramped.to_scorer().params
        )


class TestPretrain:
    def clean_dataset(self):
        pairs = [
            make_pair(
                f"c{i}",
                "which metal",
                [f"iron sample number {i}"],
                ["iron"],
            )
            for i in range(4)
        ]
        labels = [find_consistent_spans_exact(p) for p in pairs]
        return pairs, labels

    def test_rejects_multiple_spans_per_paragraph(self):
        pair = make_pair("c", "q", ["iron and iron again"], ["iron"])
        labels = find_consistent_spans_exact(pair)
        assert labels.total_spans == 2
        with pytest.raises(LabelError):
            pretrain_clean(TrainConfig(), [pair], [labels])

    def test_empty_data_returns_initialization(self):
        config = TrainConfig(seed=2, embedding_dim=6)
        ckpt = pretrain_clean(config, [], [], vocab=Vocabulary(("<unk>", "a")))
        assert ckpt.history["objective_values"] == []
        assert ckpt.history["pretraining"] is True
        assert ckpt.history["objectives"] == ["H1-P-span-mml"]

    def test_explicit_vocab_respected(self):
        pairs, labels = self.clean_dataset()
        vocab = Vocabulary.from_pairs(pairs + [make_pair("x", "extra word", ["here"], ["here"])])
        ckpt = pretrain_clean(TrainConfig(), pairs, labels, vocab=vocab)
        assert ckpt.vocab == vocab

    def test_warm_start_beats_cold_on_training_value(self):
        pairs, labels = self.clean_dataset()
        config = TrainConfig(epochs=2, pretrain_epochs=3, learning_rate=0.5)
        warm = pretrain_clean(config, pairs, labels)
        spec = ObjectiveSpec.parse("H1-P-span-mml")
        scorer = warm.to_scorer()
        value = np.mean(
            [evaluate(spec, scorer.score(p), l).value for p, l in zip(pairs, labels)]
        )
        cold = np.mean(
            [
                evaluate(
                    spec,
                    train(
                        TrainConfig(epochs=1, learning_rate=1e-9), pairs, labels
                    ).to_scorer().score(p),
                    l,
                ).value
                for p, l in zip(pairs, labels)
            ]
        )
        assert value > cold


class TestAlignment:
    def test_mismatched_lengths_rejected(self):
        pairs, labels = tiny_dataset()
        with pytest.raises(ValueError):
            train(TrainConfig(), pairs, labels[:-1])
        with pytest.raises(ValueError):
            pretrain_clean(TrainConfig(), pairs, labels[:-1])

    def test_label_paragraph_mismatch_surfaces(self):
        pairs, _ = tiny_dataset()
        bad = [ConsistentLabelSet.from_spans(1, [SpanLabel(0, 0, 0, "x")], 1)] * len(pairs)
        with pytest.raises(LabelError):
            train(TrainConfig(epochs=1), pairs, bad)
