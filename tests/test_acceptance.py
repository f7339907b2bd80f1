"""Acceptance suite: algebraic invariants plus directional training studies.

Each test prints one PASS/FAIL line with the measured numbers so a plain
``pytest -v -s tests/test_acceptance.py`` reads as a checklist.  The first
six checks and the metric fixtures finish in seconds; the four training
studies build small synthetic corpora and take a few minutes together.
"""

import time

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
    train,
)
from docqa.corpus import make_pair
from docqa.diagnostics import random_instance
from docqa.inference import InferenceError, exhaustive_predict, predict
from docqa.labeling import find_consistent_spans_exact
from docqa.metrics import partition_analysis, rouge_l, token_f1
from docqa.model import ToyScorer
from docqa.objectives import (
    Aggregation,
    ObjectiveSpec,
    evaluate,
    grad_check,
)
from docqa.probability import ScoreGrid, SpaceKind, log_partition

CELLS = [
    ObjectiveSpec.parse(text)
    for text in (
        "H1-P-span-mml",
        "H1-P-pos-mml",
        "H1-D-span-mml",
        "H1-D-pos-mml",
        "H2-P-span-mml",
        "H2-P-pos-mml",
        "H2-D-span-mml",
        "H2-D-pos-mml",
        "H3-D-span-mml",
        "H3-D-pos-mml",
    )
]

LATENT_BASES = ("H2-P", "H2-D", "H3-D")


def verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def random_grid(rng, low=-1e4, high=1e4):
    sizes = [int(n) for n in rng.integers(1, 6, int(rng.integers(1, 4)))]
    grid = ScoreGrid.zeros(sizes)
    for arr in grid.begin + grid.end:
        arr[:] = rng.uniform(low, high, arr.shape)
    return grid


def scorer_at(scorer, vector):
    """A scorer over scorer's vocabulary whose params are a copy of vector."""
    return ToyScorer(scorer.vocab, *scorer.views(vector).values())


def test_normalization_sums_to_one():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        grid = random_grid(rng)
        par = log_partition(grid, SpaceKind.PARAGRAPH)
        for k in range(grid.n_paragraphs):
            worst = max(worst, abs(np.exp(par.log_begin[k]).sum() - 1.0))
            worst = max(worst, abs(np.exp(par.log_end[k]).sum() - 1.0))
        doc = log_partition(grid, SpaceKind.DOCUMENT)
        total_b = sum(np.exp(a[:-1]).sum() for a in doc.log_begin)
        total_e = sum(np.exp(a[:-1]).sum() for a in doc.log_end)
        worst = max(worst, abs(total_b - 1.0), abs(total_e - 1.0))
    elapsed = time.perf_counter() - started
    verdict(
        "normalization over 1000 grids, both spaces",
        worst < 1e-9 and elapsed < 5.0,
        f"worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_all_mentions_span_position_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        grid, labels = random_instance(rng, max_tokens=5)
        for space in ("P", "D"):
            span = evaluate(ObjectiveSpec.parse(f"H1-{space}-span-mml"), grid, labels)
            pos = evaluate(ObjectiveSpec.parse(f"H1-{space}-pos-mml"), grid, labels)
            worst = max(worst, abs(span.value - pos.value))
    elapsed = time.perf_counter() - started
    verdict(
        "all-mentions span equals position on 1000 instances",
        worst < 1e-9 and elapsed < 5.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_position_marginal_lower_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = np.inf
    for _ in range(1000):
        grid, labels = random_instance(rng, max_tokens=5)
        for base in LATENT_BASES:
            span = evaluate(ObjectiveSpec.parse(f"{base}-span-mml"), grid, labels)
            pos = evaluate(ObjectiveSpec.parse(f"{base}-pos-mml"), grid, labels)
            worst = min(worst, pos.value - span.value)
    elapsed = time.perf_counter() - started
    verdict(
        "position marginal bounds span marginal on 1000 instances",
        worst > -1e-9 and elapsed < 10.0,
        f"worst margin {worst:.2e}, {elapsed:.1f}s",
    )


def test_marginal_dominates_maximum():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = np.inf
    for _ in range(1000):
        grid, labels = random_instance(rng, max_tokens=5)
        for base in LATENT_BASES:
            for gran in ("span", "pos"):
                soft = evaluate(ObjectiveSpec.parse(f"{base}-{gran}-mml"), grid, labels)
                hard = evaluate(
                    ObjectiveSpec.parse(f"{base}-{gran}-hardem"), grid, labels
                )
                worst = min(worst, soft.value - hard.value)
    elapsed = time.perf_counter() - started
    verdict(
        "marginalizing dominates maximizing on 1000 instances",
        worst > -1e-9 and elapsed < 5.0,
        f"worst margin {worst:.2e}, {elapsed:.1f}s",
    )


def test_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    worst_grid = 0.0
    for cell in CELLS:
        for agg in (Aggregation.MML, Aggregation.HARD_EM):
            spec = ObjectiveSpec(cell.hypothesis, cell.space, cell.granularity, agg)
            for _ in range(4):
                grid, labels = random_instance(rng, max_tokens=5)
                worst_grid = max(worst_grid, grad_check(spec, grid, labels))

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
        worst_grid < 1e-5 and worst_model < 1e-4 and elapsed < 30.0,
        f"worst grid {worst_grid:.2e}, worst end-to-end {worst_model:.2e}, {elapsed:.1f}s",
    )


def test_topk_decoding_matches_exhaustive():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    mismatches = 0
    for index in range(200):
        n_par = int(rng.integers(1, 4))
        counts = [int(rng.integers(1, 31)) for _ in range(n_par)]
        texts = [
            " ".join(f"w{int(rng.integers(0, 8))}" for _ in range(n)) for n in counts
        ]
        pair = make_pair(f"o{index}", "q", texts, ["w0"])
        grid = ScoreGrid.zeros([len(p.tokens) for p in pair.paragraphs])
        for arr in grid.begin + grid.end:
            arr[:] = rng.normal(0.0, 2.0, arr.shape)
        space = SpaceKind.PARAGRAPH if rng.random() < 0.5 else SpaceKind.DOCUMENT
        probs = log_partition(grid, space)
        top_k = max(counts)
        for agg in AnswerAggregation:
            fast = predict(
                probs, pair, InferenceSpec(aggregation=agg, top_k=top_k)
            )
            slow = exhaustive_predict(probs, pair, agg)
            if fast.answer != slow.answer:
                mismatches += 1
            worst = max(worst, abs(fast.score - slow.score))
        if index % 5 == 0:
            last = -np.inf
            for k in (1, 2, 4, 8, 16, top_k):
                try:
                    score = predict(
                        probs,
                        pair,
                        InferenceSpec(aggregation=AnswerAggregation.MAX, top_k=k),
                    ).score
                except InferenceError:
                    score = -np.inf
                if score < last - 1e-12:
                    mismatches += 1
                last = score
    elapsed = time.perf_counter() - started
    verdict(
        "top-k decoding equals exhaustive decoding on 200 documents",
        mismatches == 0 and worst < 1e-9 and elapsed < 30.0,
        f"{mismatches} mismatches, worst score gap {worst:.2e}, {elapsed:.1f}s",
    )


SEEDS = (0, 1, 2, 3, 4)
SUM_SPEC = InferenceSpec(aggregation=AnswerAggregation.SUM)
MAX_SPEC = InferenceSpec(aggregation=AnswerAggregation.MAX)


@pytest.fixture(scope="session")
def alias_study():
    """Shared trainings on the aliased corpus: plain, combined, warm-started."""
    started = time.perf_counter()
    profile = NoiseProfile(
        documents=600,
        dev_documents=200,
        alias_rate=0.3,
        distractor_rate=0.25,
        multi_answer_rate=0.2,
        seed=5,
    )
    pairs, labels, _ = generate(profile)
    dev_pairs, _, dev_truths = generate(dev_profile(profile), id_prefix="dev")
    golds = [t.gold_strings() for t in dev_truths]

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

    def fit(objectives, weights, seed, init=None):
        config = TrainConfig(
            objectives=objectives,
            weights=weights,
            epochs=6,
            learning_rate=0.5,
            seed=seed,
            pretrain_epochs=2,
        )
        checkpoint = train(config, pairs, labels, init=init)
        space = inference_space("+".join(objectives))
        return evaluate_checkpoint(checkpoint, dev_pairs, golds, SUM_SPEC, space)["em"]

    h2 = [fit(("H2-P-pos-mml",), (1.0,), s) for s in SEEDS]
    h3 = [fit(("H3-D-pos-mml",), (1.0,), s) for s in SEEDS]
    combined = [
        fit(("H2-P-pos-mml", "H3-D-pos-mml"), (0.5, 0.5), s) for s in SEEDS
    ]
    warm = []
    for s in SEEDS:
        config = TrainConfig(
            objectives=("H2-P-pos-mml",),
            epochs=6,
            learning_rate=0.5,
            seed=s,
            pretrain_epochs=2,
        )
        init = pretrain_clean(config, clean_pairs, clean_labels, vocab=shared_vocab)
        warm.append(fit(("H2-P-pos-mml",), (1.0,), s, init=init))
    return {
        "h2": h2,
        "h3": h3,
        "combined": combined,
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
    """Multi-mention corpus with no aliases, scored with both decoders."""
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
    pairs, labels, _ = generate(profile)
    dev_pairs, _, dev_truths = generate(dev_profile(profile), id_prefix="dev")
    golds = [t.gold_strings() for t in dev_truths]
    results = {}
    for combo in ("H2-P-pos-mml", "H2-D-pos-mml", "H3-D-pos-mml"):
        sums, maxes = [], []
        for seed in (0, 1, 2, 3):
            config = TrainConfig(
                objectives=(combo,), epochs=1, learning_rate=0.3, seed=seed
            )
            checkpoint = train(config, pairs, labels)
            space = inference_space(combo)
            sums.append(
                evaluate_checkpoint(checkpoint, dev_pairs, golds, SUM_SPEC, space)["em"]
            )
            maxes.append(
                evaluate_checkpoint(checkpoint, dev_pairs, golds, MAX_SPEC, space)["em"]
            )
        results[combo] = {
            "sum": float(np.mean(sums)),
            "max": float(np.mean(maxes)),
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
    f1 = token_f1("mount helicon", ["in the spring at mount helicon"])
    r_forward = rouge_l("mount helicon", "at mount helicon")
    r_backward = rouge_l("at mount helicon", "mount helicon")
    fixtures_ok = f1 == 0.5 and r_forward == 0.8 and r_backward == 0.8

    per_example = {"base": [1.0, 0.0, 1.0, 0.0], "other": [1.0, 1.0, 0.0, 0.0]}
    labels = [(1, 5), (1, 6), (2, 5), (2, 6)]
    report = partition_analysis(per_example, labels, answer_threshold=1, span_threshold=5)
    sizes = {key: subset.size for key, subset in report.subsets.items()}
    partition_ok = sizes == {"ss": 1, "sl": 1, "ls": 1, "ll": 1}
    deltas_ok = (
        report.subsets["ss"].delta == 0.0
        and report.subsets["sl"].delta == 1.0
        and report.subsets["ls"].delta == -1.0
    )
    verdict(
        "metric fixtures and partition thresholds",
        fixtures_ok and partition_ok and deltas_ok,
        f"token F1 {f1}, rouge {r_forward}/{r_backward}, subset sizes {sizes}",
    )
