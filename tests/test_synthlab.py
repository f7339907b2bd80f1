import json
from dataclasses import replace

import numpy as np
import pytest

from docqa import synthlab
from docqa.corpus import make_pair
from docqa.inference import AnswerAggregation, InferenceSpec
from docqa.labeling import find_consistent_spans_exact
from docqa.model import ToyScorer
from docqa.probability import SpaceKind
from docqa.synthlab import (
    NoiseProfile,
    decode_corpus,
    dev_profile,
    evaluate_checkpoint,
    generate,
    inference_space,
    load_truth,
    run_grid,
    save_table,
    save_truth,
    score_answers,
)
from docqa.training import TrainConfig, train


def small_profile(**overrides):
    settings = dict(
        vocab_size=80,
        documents=60,
        dev_documents=20,
        paragraphs_per_document=3,
        tokens_per_paragraph=24,
        question_length=3,
        seed=9,
    )
    settings.update(overrides)
    return NoiseProfile(**settings)


class TestGeneration:
    def test_deterministic(self):
        profile = small_profile()
        pairs_a, labels_a, truths_a = generate(profile)
        pairs_b, labels_b, truths_b = generate(profile)
        for a, b in zip(pairs_a, pairs_b):
            assert a.id == b.id
            assert [t.text for t in a.question] == [t.text for t in b.question]
            for pa, pb in zip(a.paragraphs, b.paragraphs):
                assert [t.text for t in pa.tokens] == [t.text for t in pb.tokens]
        for la, lb in zip(labels_a, labels_b):
            assert [s.triple() for s in la.all_spans()] == [
                s.triple() for s in lb.all_spans()
            ]
        for ta, tb in zip(truths_a, truths_b):
            assert ta.gold_answer == tb.gold_answer
            assert ta.correct_spans == tb.correct_spans

    def test_labels_are_matcher_output(self):
        pairs, labels, _ = generate(small_profile(alias_rate=0.4))
        for pair, label_set in zip(pairs, labels):
            rerun = find_consistent_spans_exact(pair)
            assert [s.triple() for s in rerun.all_spans()] == [
                s.triple() for s in label_set.all_spans()
            ]

    def test_truth_is_subset_of_labels(self):
        pairs, labels, truths = generate(small_profile(alias_rate=0.4, multi_answer_rate=0.5))
        for label_set, truth in zip(labels, truths):
            labeled = {s.triple() for s in label_set.all_spans()}
            genuine = {s.triple() for s in truth.correct_spans}
            assert genuine <= labeled
            assert genuine, "rejection sampling must leave a correct mention"

    def test_gold_answer_listed_first(self):
        pairs, _, truths = generate(small_profile())
        for pair, truth in zip(pairs, truths):
            assert truth.gold_answer in pair.answers.raw
            assert truth.gold_answer in truth.gold_strings()

    def test_alias_in_answers_but_not_gold(self):
        profile = small_profile(alias_rate=0.9, distractor_rate=0.0, documents=80)
        pairs, labels, truths = generate(profile)
        alias_docs = 0
        for pair, label_set, truth in zip(pairs, labels, truths):
            extra = set(pair.answers.normalized) - truth.gold_strings()
            if not extra:
                continue
            alias_docs += 1
            genuine = {s.triple() for s in truth.correct_spans}
            alias_spans = [
                s for s in label_set.all_spans() if s.matched_string in extra
            ]
            assert alias_spans, "alias token should be labeled somewhere"
            for span in alias_spans:
                assert span.triple() not in genuine
        assert alias_docs > 40

    def test_all_distractor_documents_keep_one_correct_paragraph(self):
        # every draw is all distractors, so after 64 redraws one random
        # paragraph of each document is made correct
        _, labels, truths = generate(small_profile(distractor_rate=1.0, documents=20))
        picked = set()
        for label_set, truth in zip(labels, truths):
            paragraphs = {s.paragraph for s in truth.correct_spans}
            assert len(paragraphs) == 1
            assert {s.paragraph for s in label_set.all_spans()} == paragraphs
            picked |= paragraphs
        assert len(picked) > 1

    def test_alias_fraction_near_rate(self):
        profile = small_profile(
            documents=300,
            paragraphs_per_document=6,
            alias_rate=0.3,
            distractor_rate=0.1,
            seed=3,
        )
        pairs, labels, truths = generate(profile)
        positives = 0
        alias_only = 0
        for label_set, truth in zip(labels, truths):
            genuine_paragraphs = {s.paragraph for s in truth.correct_spans}
            for k in range(label_set.n_paragraphs):
                if all(s.paragraph != k for s in label_set.spans):
                    continue
                positives += 1
                if k not in genuine_paragraphs:
                    alias_only += 1
        rate = alias_only / positives
        assert abs(rate - 0.3) < 0.05

    def test_multi_answer_nests_spans(self):
        profile = small_profile(multi_answer_rate=1.0, documents=80, seed=4)
        pairs, labels, truths = generate(profile)
        nested = 0
        for truth in truths:
            strings = {s.matched_string for s in truth.correct_spans}
            if len(strings) > 1:
                nested += 1
                long = max(strings, key=len)
                assert truth.gold_answer in long
        assert nested > 10

    def test_question_uses_requested_length(self):
        pairs, _, _ = generate(small_profile(question_length=2))
        for pair in pairs:
            assert len(pair.question) == 2

    def test_id_prefix(self):
        pairs, _, _ = generate(small_profile(documents=3), id_prefix="syn")
        assert [p.id for p in pairs] == ["syn00000", "syn00001", "syn00002"]


class TestMentionCountDraw:
    @pytest.mark.parametrize(
        "mention_counts",
        [
            ((1, 0.5), (2, 0.3), (3, 0.2)),
            ((2, 0.4), (3, 0.4), (4, 0.2)),
            ((1, 1.0),),
            ((3, 7.0), (1, 1e-9), (2, 2.5)),
            tuple((c, float(c % 3 + 1)) for c in range(1, 12)),
        ],
    )
    def test_draws_as_generator_choice(self, mention_counts):
        counts = np.array([c for c, _ in mention_counts])
        weights = np.array([w for _, w in mention_counts])
        draw = synthlab._mention_count_draw(mention_counts)
        for seed in (0, 3, 7, 4242):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = [draw(rng) for _ in range(300)]
            expected = [int(reference.choice(counts, p=weights / weights.sum())) for _ in range(300)]
            assert drawn == expected
            assert rng.bit_generator.state == reference.bit_generator.state


class TestProfile:
    def test_json_round_trip(self):
        profile = small_profile(alias_rate=0.25, mention_counts=((1, 0.7), (2, 0.3)))
        again = NoiseProfile.from_json(profile.to_json())
        assert again == profile
        # an integer is a valid rate; left-out fields keep their defaults
        assert NoiseProfile.from_json('{"alias_rate": 0}') == NoiseProfile(alias_rate=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_profile(vocab_size=10)
        with pytest.raises(ValueError):
            small_profile(alias_rate=1.5)
        with pytest.raises(ValueError):
            small_profile(paragraphs_per_document=0)
        with pytest.raises(ValueError):
            small_profile(tokens_per_paragraph=4, mention_counts=((3, 1.0),))
        with pytest.raises(ValueError):
            small_profile(mention_counts=())
        for length in (0, 5):
            with pytest.raises(ValueError, match=r"question length must lie in \[1, 4\]"):
                small_profile(question_length=length)
        with pytest.raises(ValueError, match="field 'seed' must be a non-negative integer, got -1"):
            small_profile(seed=-1)
        for weight in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="positive, finite weights"):
                small_profile(mention_counts=((1, 0.5), (2, weight)))
        with pytest.raises(ValueError, match="weights whose sum is not finite"):
            small_profile(mention_counts=((2, 1e308), (3, 1e308)))
        # a JSON integer weight beyond float range: float() overflows
        with pytest.raises(ValueError, match="'mention_counts' needs .* finite weights"):
            NoiseProfile.from_json('{"mention_counts": [[1, 1' + "0" * 400 + "]]}")

    def test_dev_profile_changes_seed_and_size(self):
        profile = small_profile()
        dev = dev_profile(profile)
        assert dev.documents == profile.dev_documents
        assert dev.seed != profile.seed
        assert dev.alias_rate == profile.alias_rate
        dev_pairs, _, _ = generate(dev)
        train_pairs, _, _ = generate(profile)
        assert dev_pairs[0].paragraphs[0].tokens != train_pairs[0].paragraphs[0].tokens

    def test_dev_documents_may_be_zero_but_not_negative(self):
        profile = small_profile(dev_documents=0)
        with pytest.raises(ValueError, match="profile has no dev documents"):
            dev_profile(profile)
        with pytest.raises(ValueError, match="dev_documents must not be negative"):
            small_profile(dev_documents=-1)


class TestTruthFiles:
    def test_round_trip(self, tmp_path):
        pairs, _, truths = generate(small_profile(multi_answer_rate=0.5))
        path = tmp_path / "truth.jsonl"
        save_truth(pairs, truths, path)
        loaded = load_truth(pairs, path)
        for a, b in zip(truths, loaded):
            assert a.gold_answer == b.gold_answer
            assert [s.triple() for s in a.correct_spans] == [
                s.triple() for s in b.correct_spans
            ]
            assert a.gold_strings() == b.gold_strings()

    def test_misaligned_truths_raise(self, tmp_path):
        pairs, _, truths = generate(small_profile(documents=20))
        path = tmp_path / "truth.jsonl"
        with pytest.raises(ValueError, match="20 pairs but 3 truths"):
            save_truth(pairs, truths[:3], path)
        assert not path.exists()


class TestInferenceSpace:
    def test_single_objectives(self):
        assert inference_space("H2-P-span-mml") is SpaceKind.PARAGRAPH
        assert inference_space("H1-P-pos-mml") is SpaceKind.PARAGRAPH
        assert inference_space("H3-D-span-mml") is SpaceKind.DOCUMENT

    def test_mixed_combo_prefers_document(self):
        assert inference_space("H2-P-span-mml+H3-D-span-mml") is SpaceKind.DOCUMENT
        assert inference_space("H2-P-span-mml+H1-P-span-mml") is SpaceKind.PARAGRAPH


class TestEvaluation:
    def test_fresh_scorer_scores_in_range(self):
        profile = small_profile(documents=20)
        pairs, labels, truths = generate(profile)
        checkpoint = train(TrainConfig(epochs=1, learning_rate=1e-9), pairs, labels)
        scores = evaluate_checkpoint(
            checkpoint,
            pairs,
            [t.gold_strings() for t in truths],
            InferenceSpec(aggregation=AnswerAggregation.SUM),
            SpaceKind.PARAGRAPH,
        )
        assert 0.0 <= scores["em"] <= 100.0
        assert scores["em"] <= scores["f1"] <= 100.0

    def test_misaligned_gold_sets_raise(self, monkeypatch):
        with pytest.raises(ValueError, match="2 answers but 1 gold string sets"):
            score_answers(["rome", "pisa"], [{"rome"}])
        with pytest.raises(ValueError, match="1 answers but 2 gold string sets"):
            score_answers(["rome"], [{"rome"}, {"pisa"}])
        pairs, labels, truths = generate(small_profile(documents=20))
        checkpoint = train(TrainConfig(epochs=1), pairs, labels)
        golds = [t.gold_strings() for t in truths]
        spec = InferenceSpec(aggregation=AnswerAggregation.SUM)

        def no_decoding(*args):
            raise AssertionError("decoded before checking the gold sets")

        # The lengths are checked before any pair is decoded.
        monkeypatch.setattr(synthlab, "decode_corpus", no_decoding)
        with pytest.raises(ValueError, match="20 answers but 5 gold string sets"):
            evaluate_checkpoint(checkpoint, pairs, golds[:5], spec, SpaceKind.PARAGRAPH)

    def test_training_lifts_accuracy(self):
        profile = small_profile(documents=120, seed=6)
        pairs, labels, truths = generate(profile)
        golds = [t.gold_strings() for t in truths]
        spec = InferenceSpec(aggregation=AnswerAggregation.SUM)
        random_ckpt = train(TrainConfig(epochs=1, learning_rate=1e-9), pairs, labels)
        trained_ckpt = train(TrainConfig(epochs=3, learning_rate=0.5), pairs, labels)
        before = evaluate_checkpoint(random_ckpt, pairs, golds, spec, SpaceKind.PARAGRAPH)
        after = evaluate_checkpoint(trained_ckpt, pairs, golds, spec, SpaceKind.PARAGRAPH)
        assert after["em"] > before["em"] + 20

    def test_pair_without_paragraphs_is_a_failed_decode(self):
        pairs, labels, truths = generate(small_profile(documents=20))
        checkpoint = train(TrainConfig(epochs=1), pairs, labels)
        empty = make_pair("empty1", "what", ["!!! ,,,"], ["x"])
        assert empty.paragraphs == ()
        spec = InferenceSpec(aggregation=AnswerAggregation.SUM)
        golds = [t.gold_strings() for t in truths]
        for space in SpaceKind:
            [decoded] = decode_corpus(checkpoint, [*pairs[:3], empty, pairs[3]], [spec], space)
            assert decoded[3] == ("", float("-inf"))
            assert [decoded[:3] + decoded[4:]] == decode_corpus(checkpoint, pairs[:4], [spec], space)
            alone = evaluate_checkpoint(checkpoint, pairs, golds, spec, space)
            padded = evaluate_checkpoint(checkpoint, [*pairs, empty], [*golds, {"x"}], spec, space)
            for name in ("em", "f1"):
                assert padded[name] == pytest.approx(alone[name] * len(pairs) / (len(pairs) + 1))


    def test_nan_grid_is_a_failed_decode(self):
        # finite heads so large that scores overflow to +inf and -inf, which
        # log_partition turns into NaN: no decoder ranks it
        pairs, labels, _ = generate(small_profile(documents=6))
        checkpoint = train(TrainConfig(epochs=1), pairs, labels)
        signs = np.resize([1.0, -1.0], checkpoint.params["begin_head"].shape)
        huge = replace(checkpoint, params={**checkpoint.params, "begin_head": 1e308 * signs})
        spec = InferenceSpec(aggregation=AnswerAggregation.MAX)
        with np.errstate(over="ignore", invalid="ignore"):
            for space in SpaceKind:
                assert decode_corpus(huge, pairs, [spec], space) == [[("", float("-inf"))] * len(pairs)]


class TestGrid:
    def test_rows_cover_cells(self, tmp_path):
        profile = small_profile(documents=40, seed=8)
        pairs, labels, truths = generate(profile)
        rows = run_grid(
            pairs,
            labels,
            truths,
            objective_combos=["H1-P-span-mml", "H2-P-span-mml"],
            inference_specs=[
                InferenceSpec(aggregation=AnswerAggregation.MAX),
                InferenceSpec(aggregation=AnswerAggregation.SUM),
            ],
            seeds=[0, 1],
            config=TrainConfig(epochs=1),
        )
        assert len(rows) == 2 * 2 * 2
        seen = {(r["objective"], r["seed"], r["inference"]) for r in rows}
        assert ("H2-P-span-mml", 1, "sum") in seen
        for row in rows:
            assert 0.0 <= row["em"] <= 100.0
            assert row["train_objective"] is not None

        csv_path = tmp_path / "grid.csv"
        save_table(rows, csv_path)
        text = csv_path.read_text().splitlines()
        assert text[0].startswith("objective,")
        assert len(text) == 1 + len(rows)

        json_path = tmp_path / "grid.json"
        save_table(rows, json_path)
        assert len(json.loads(json_path.read_text())) == len(rows)

    def test_parallel_matches_serial(self):
        profile = small_profile(documents=30, seed=10)
        pairs, labels, truths = generate(profile)
        kwargs = dict(
            objective_combos=["H2-P-span-mml"],
            inference_specs=[InferenceSpec(aggregation=AnswerAggregation.SUM)],
            seeds=[0, 1],
            config=TrainConfig(epochs=1),
        )
        serial = run_grid(pairs, labels, truths, **kwargs)
        # The serial run laid the pairs out; the workers receive them so.
        assert {"span_keys", "grid_layout"} <= set(vars(pairs[0].table))
        parallel = run_grid(pairs, labels, truths, jobs=2, **kwargs)
        assert serial == parallel

    def test_rows_do_not_depend_on_layouts_laid_out_before(self):
        """Cells that share pairs reuse each pair's layouts; every row equals
        the row of a run on fresh copies of the corpora."""
        profile = small_profile(documents=20, dev_documents=8, seed=14)
        kwargs = dict(
            inference_specs=[
                InferenceSpec(aggregation=AnswerAggregation.SUM),
                InferenceSpec(aggregation=AnswerAggregation.MAX),
            ],
            config=TrainConfig(epochs=1),
        )

        def grid(combos, seeds):
            pairs, labels, truths = generate(profile)
            dev_pairs, _, dev_truths = generate(dev_profile(profile), id_prefix="dev")
            return run_grid(
                pairs, labels, truths, combos, seeds=seeds,
                dev_pairs=dev_pairs, dev_truths=dev_truths, **kwargs,
            )

        combos, seeds = ["H2-P-pos-mml", "H3-D-pos-mml"], [0, 1]
        fresh = [row for combo in combos for seed in seeds for row in grid([combo], [seed])]
        assert grid(combos, seeds) == fresh

    def test_each_dev_document_scored_once_per_cell(self, monkeypatch):
        profile = small_profile(documents=20, dev_documents=10, seed=13)
        pairs, labels, truths = generate(profile)
        dev_pairs, _, dev_truths = generate(dev_profile(profile), id_prefix="dev")
        specs = [
            InferenceSpec(aggregation=AnswerAggregation.SUM),
            InferenceSpec(aggregation=AnswerAggregation.MAX),
        ]
        config = TrainConfig(epochs=1)
        calls = []
        score = ToyScorer.score
        monkeypatch.setattr(
            ToyScorer, "score", lambda self, pair: calls.append(1) or score(self, pair)
        )
        rows = run_grid(
            pairs,
            labels,
            truths,
            objective_combos=["H2-P-span-mml"],
            inference_specs=specs,
            seeds=[0],
            dev_pairs=dev_pairs,
            dev_truths=dev_truths,
            config=config,
        )
        assert len(calls) == 20 + 10
        # The rows equal decoding each spec on its own.
        checkpoint = train(
            replace(config, objectives=("H2-P-span-mml",), weights=(1.0,), seed=0),
            pairs,
            labels,
        )
        golds = [t.gold_strings() for t in dev_truths]
        for spec, row in zip(specs, rows):
            alone = evaluate_checkpoint(
                checkpoint, dev_pairs, golds, spec, SpaceKind.PARAGRAPH
            )
            assert (row["inference"], row["em"], row["f1"]) == (
                spec.aggregation.value,
                alone["em"],
                alone["f1"],
            )

    def test_dev_split_used_when_given(self):
        profile = small_profile(documents=30, seed=12)
        pairs, labels, truths = generate(profile)
        dev_pairs, _, dev_truths = generate(dev_profile(profile), id_prefix="dev")
        rows = run_grid(
            pairs,
            labels,
            truths,
            objective_combos=["H2-P-span-mml"],
            inference_specs=[InferenceSpec(aggregation=AnswerAggregation.SUM)],
            seeds=[0],
            dev_pairs=dev_pairs,
            dev_truths=dev_truths,
            config=TrainConfig(epochs=1),
        )
        rows_self = run_grid(
            pairs,
            labels,
            truths,
            objective_combos=["H2-P-span-mml"],
            inference_specs=[InferenceSpec(aggregation=AnswerAggregation.SUM)],
            seeds=[0],
            config=TrainConfig(epochs=1),
        )
        assert rows[0]["em"] != rows_self[0]["em"]

    def test_misaligned_dev_truth_rejected(self):
        profile = small_profile(documents=20)
        pairs, labels, truths = generate(profile)
        with pytest.raises(ValueError):
            run_grid(
                pairs,
                labels,
                truths,
                objective_combos=["H2-P-span-mml"],
                inference_specs=[InferenceSpec()],
                seeds=[0],
                dev_pairs=pairs,
                dev_truths=truths[:-1],
            )
