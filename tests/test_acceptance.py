"""Acceptance suite: algebraic invariants plus directional training studies.

Each test prints one PASS/FAIL line with the measured numbers so a plain
``pytest -v -s tests/test_acceptance.py`` reads as a checklist.  The six
algebra tests and the metric fixtures run the same checks as ``docqa check``,
each from ``docqa.diagnostics`` with its own seed, trial count and time bound,
and finish in seconds; only the scorer's end-to-end gradient check and the
metric partition live here.  The four training studies build small synthetic
corpora and take under a minute together; every arm trains and scores through
run_grid except the warm-started one, which pretrains by hand.  Every EM is in
points from metrics.summarize, the path docqa eval reports through.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from docqa import (
    AnswerAggregation,
    InferenceSpec,
    NoiseProfile,
    TrainConfig,
    Vocabulary,
    dev_profile,
    evaluate_checkpoint,
    generate,
    inference_space,
    pretrain_clean,
    run_grid,
    train,
)
from docqa import diagnostics
from docqa.corpus import make_pair
from docqa.labeling import find_consistent_spans_exact
from docqa.metrics import partition_analysis
from docqa.model import ToyScorer
from docqa.objectives import ObjectiveSpec, evaluate


def verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def check_verdict(name, check, seed, budget, seconds):
    """Run a docqa.diagnostics check on a generator seeded with seed; it must
    pass within seconds."""
    started = time.perf_counter()
    result = check(np.random.default_rng(seed), budget)
    elapsed = time.perf_counter() - started
    verdict(name, result.ok and elapsed < seconds, f"{result.detail}, {elapsed:.1f}s")


def scorer_at(scorer, vector):
    """A scorer over scorer's vocabulary whose params are a copy of vector."""
    return ToyScorer(scorer.vocab, *scorer.views(vector).values())


def test_normalization_sums_to_one():
    check_verdict(
        "normalization over 1000 normal and 1000 uniform grids, both spaces",
        diagnostics._check_normalization, 101, 1000, 5.0,
    )


def test_all_mentions_span_position_equivalence():
    check_verdict(
        "all-mentions span, position, mml and hard-EM agree on 1000 instances",
        diagnostics._check_h1_granularity, 102, 1000, 5.0,
    )


def test_position_marginal_lower_bound():
    check_verdict(
        "position marginal bounds span marginal on 1000 instances",
        diagnostics._check_position_bound, 103, 1000, 10.0,
    )


def test_marginal_dominates_maximum():
    check_verdict(
        "marginalizing dominates maximizing on 1000 instances",
        diagnostics._check_mml_bound, 104, 1000, 5.0,
    )


def test_gradients_match_finite_differences():
    started = time.perf_counter()
    grid_check = diagnostics._check_gradients(np.random.default_rng(105), 4)

    worst_model = 0.0
    for trial in range(3):
        pair = make_pair(
            f"g{trial}",
            "which metal",
            ["the metal is iron here", "iron again and tin"],
            ["iron"],
        )
        labels = find_consistent_spans_exact(pair)
        scorer = ToyScorer.initialize(
            Vocabulary.from_pairs([pair]), dim=4, seed=trial
        )
        probe_rng = np.random.default_rng(trial)
        scorer.params[:] = probe_rng.normal(0.0, 0.4, scorer.params.shape)
        spec = ObjectiveSpec.parse("H2-P-span-mml")
        result = evaluate(spec, scorer.score(pair), labels)
        flat = scorer.backprop(pair, result.grad)
        base = scorer.params.copy()
        eps = 1e-4
        for idx in range(base.size):
            bumped = base.copy()
            bumped[idx] += eps
            high = evaluate(spec, scorer_at(scorer, bumped).score(pair), labels).value
            bumped[idx] = base[idx] - eps
            low = evaluate(spec, scorer_at(scorer, bumped).score(pair), labels).value
            fd = (high - low) / (2 * eps)
            worst_model = max(
                worst_model, abs(fd - flat[idx]) / max(1.0, abs(fd), abs(flat[idx]))
            )
    elapsed = time.perf_counter() - started
    verdict(
        "gradient checks across all 10 cells and through the scorer",
        grid_check.ok and worst_model < 1e-4 and elapsed < 30.0,
        f"grid {grid_check.detail}, worst end-to-end {worst_model:.2e}, {elapsed:.1f}s",
    )


def test_topk_decoding_matches_exhaustive():
    check_verdict(
        "top-k decoding equals exhaustive decoding on 200 documents",
        diagnostics._check_inference_oracle, 106, 200, 30.0,
    )


SEEDS = (0, 1, 2, 3, 4)
SUM_SPEC = InferenceSpec(aggregation=AnswerAggregation.SUM)
MAX_SPEC = InferenceSpec(aggregation=AnswerAggregation.MAX)


@pytest.fixture(scope="session")
def alias_study():
    """Shared trainings on the aliased corpus: plain, combined, warm-started.

    run_grid trains the plain and combined arms.  It trains a plus-joined
    combo with unit weights, so the combined arm runs at half the learning
    rate: that gives the parameters of weights (0.5, 0.5) at the full rate bit
    for bit, since scaling by a power of two is exact."""
    started = time.perf_counter()
    profile = NoiseProfile(
        documents=600,
        dev_documents=200,
        alias_rate=0.3,
        distractor_rate=0.25,
        multi_answer_rate=0.2,
        seed=5,
    )
    pairs, labels, truths = generate(profile)
    dev_pairs, _, dev_truths = generate(dev_profile(profile), id_prefix="dev")
    config = TrainConfig(epochs=6, learning_rate=0.5)

    def grid_em(combos, config):
        rows = run_grid(
            pairs, labels, truths, combos, [SUM_SPEC], SEEDS,
            dev_pairs=dev_pairs, dev_truths=dev_truths, config=config,
        )
        ems = {}
        for row in rows:
            ems.setdefault(row["objective"], []).append(row["em"])
        return ems

    plain = grid_em(["H2-P-pos-mml", "H3-D-pos-mml"], config)
    combined = grid_em(["H2-P-pos-mml+H3-D-pos-mml"], replace(config, learning_rate=0.25))

    clean_profile = NoiseProfile(
        documents=400,
        dev_documents=1,
        alias_rate=0.0,
        distractor_rate=0.25,
        multi_answer_rate=0.0,
        mention_counts=((1, 1.0),),
        seed=77,
    )
    clean_pairs, clean_labels, _ = generate(clean_profile, id_prefix="clean")
    shared_vocab = Vocabulary.from_pairs(list(clean_pairs) + list(pairs))
    golds = [t.gold_strings() for t in dev_truths]
    warm = []
    for s in SEEDS:
        warm_config = replace(config, objectives=("H2-P-pos-mml",), seed=s)
        init = pretrain_clean(warm_config, clean_pairs, clean_labels, vocab=shared_vocab)
        checkpoint = train(warm_config, pairs, labels, init=init)
        space = inference_space("H2-P-pos-mml")
        warm.append(evaluate_checkpoint(checkpoint, dev_pairs, golds, SUM_SPEC, space)["em"])
    return {
        "h2": plain["H2-P-pos-mml"],
        "h3": plain["H3-D-pos-mml"],
        "combined": combined["H2-P-pos-mml+H3-D-pos-mml"],
        "warm": warm,
        "seconds": time.perf_counter() - started,
    }


def test_alias_regime_prefers_one_per_document(alias_study):
    h2 = float(np.mean(alias_study["h2"]))
    h3 = float(np.mean(alias_study["h3"]))
    margin = h3 - h2
    verdict(
        "aliased corpus: H3-D-pos-mml beats H2-P-pos-mml by 2 EM",
        margin >= 2.0 and alias_study["seconds"] < 600.0,
        f"H3-D {h3:.1f} vs H2-P {h2:.1f} over {len(SEEDS)} seeds, "
        f"margin {margin:+.1f}, block {alias_study['seconds']:.0f}s",
    )


@pytest.fixture(scope="session")
def clean_study():
    """Multi-mention corpus with no aliases, scored with both decoders.

    run_grid trains each (combo, seed) and decodes each dev document once for
    Sum and Max together."""
    started = time.perf_counter()
    profile = NoiseProfile(
        vocab_size=800,
        documents=200,
        dev_documents=200,
        question_length=2,
        alias_rate=0.0,
        distractor_rate=0.35,
        multi_answer_rate=0.3,
        mention_counts=((2, 0.4), (3, 0.4), (4, 0.2)),
        seed=11,
    )
    pairs, labels, truths = generate(profile)
    dev_pairs, _, dev_truths = generate(dev_profile(profile), id_prefix="dev")
    combos = ("H2-P-pos-mml", "H2-D-pos-mml", "H3-D-pos-mml")
    rows = run_grid(
        pairs,
        labels,
        truths,
        combos,
        [SUM_SPEC, MAX_SPEC],
        (0, 1, 2, 3),
        dev_pairs=dev_pairs,
        dev_truths=dev_truths,
        config=TrainConfig(epochs=1, learning_rate=0.3),
    )
    ems = {}
    for row in rows:
        ems.setdefault((row["objective"], row["inference"]), []).append(row["em"])
    results = {
        combo: {decoder: float(np.mean(ems[combo, decoder])) for decoder in ("sum", "max")}
        for combo in combos
    }
    results["seconds"] = time.perf_counter() - started
    return results


def test_clean_regime_prefers_per_paragraph_and_sum(clean_study):
    h2p = clean_study["H2-P-pos-mml"]
    h2d = clean_study["H2-D-pos-mml"]
    h3d = clean_study["H3-D-pos-mml"]
    h2_beats_h3 = h2p["sum"] >= h3d["sum"] and h2d["sum"] >= h3d["sum"]
    sum_beats_max = all(
        clean_study[c]["sum"] >= clean_study[c]["max"]
        for c in ("H2-P-pos-mml", "H2-D-pos-mml", "H3-D-pos-mml")
    )
    verdict(
        "clean multi-mention corpus: H2 beats H3-D and Sum beats Max",
        h2_beats_h3 and sum_beats_max and clean_study["seconds"] < 600.0,
        f"Sum EM: H2-P {h2p['sum']:.1f}, H2-D {h2d['sum']:.1f}, H3-D {h3d['sum']:.1f}; "
        f"Max EM: {h2p['max']:.1f}/{h2d['max']:.1f}/{h3d['max']:.1f}, "
        f"block {clean_study['seconds']:.0f}s",
    )


def test_combined_objective_keeps_constituent_accuracy(alias_study):
    combined = float(np.mean(alias_study["combined"]))
    h2 = float(np.mean(alias_study["h2"]))
    h3 = float(np.mean(alias_study["h3"]))
    ok = combined >= h2 - 0.5 and combined >= h3 - 0.5
    verdict(
        "combined H2-P + H3-D stays within 0.5 EM of both constituents",
        ok and alias_study["seconds"] < 900.0,
        f"combined {combined:.1f} vs H2-P {h2:.1f} and H3-D {h3:.1f} "
        f"over {len(SEEDS)} seeds",
    )


def test_clean_pretraining_helps(alias_study):
    warm = float(np.mean(alias_study["warm"]))
    cold = float(np.mean(alias_study["h2"]))
    verdict(
        "clean warm start matches or beats cold fine-tuning",
        warm >= cold and alias_study["seconds"] < 900.0,
        f"warm {warm:.1f} vs cold {cold:.1f} over {len(SEEDS)} seeds",
    )


def test_metric_fixtures_and_partition():
    fixtures = diagnostics._check_metric_fixtures(None, 1)

    per_example = {"base": [1.0, 0.0, 1.0, 0.0], "other": [1.0, 1.0, 0.0, 0.0]}
    counts = [(1, 5), (1, 6), (2, 5), (2, 6)]
    subsets = partition_analysis(per_example, counts, answer_threshold=1, span_threshold=5)
    sizes = {key: subset["size"] for key, subset in subsets.items()}
    partition_ok = sizes == {"ss": 1, "sl": 1, "ls": 1, "ll": 1}
    gaps = {key: s["means"]["other"] - s["means"]["base"] for key, s in subsets.items()}
    gaps_ok = gaps == {"ss": 0.0, "sl": 100.0, "ls": -100.0, "ll": 0.0}
    verdict(
        "metric fixtures and partition thresholds",
        fixtures.ok and partition_ok and gaps_ok,
        f"{fixtures.detail}, subset sizes {sizes}",
    )
