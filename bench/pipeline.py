"""One benchmark pass over docqa's public functions, the correctness gate and input properties.

Library functions are always called through their module attribute
(``labeling.find_consistent_spans_exact`` rather than an imported name), so
the tracer's wrappers see the benchmark's calls as well as the library's own.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from docqa import corpus, inference, labeling, metrics, model, probability, synthlab, training
from docqa.inference import AnswerAggregation, InferenceError, InferenceSpec
from docqa.probability import SpaceKind
from docqa.synthlab import NoiseProfile
from docqa.training import TrainConfig

from calibration import Calibration
from workloads import Workload

SPECS = {
    "sum": InferenceSpec(aggregation=AnswerAggregation.SUM),
    "max": InferenceSpec(aggregation=AnswerAggregation.MAX),
}
PARTITION_TOLERANCE = 1e-9
AGREEMENT_TOLERANCE = 1e-9


@dataclass
class Corpora:
    train_pairs: list
    train_labels: list
    train_truths: list
    dev_pairs: list
    dev_labels: list
    dev_truths: list

    def digest(self) -> str:
        h = hashlib.sha256()
        for pairs, labels, truths in (
            (self.train_pairs, self.train_labels, self.train_truths),
            (self.dev_pairs, self.dev_labels, self.dev_truths),
        ):
            for pair, label_set, truth in zip(pairs, labels, truths):
                record = [
                    pair.id,
                    [t.text for t in pair.question],
                    [p.text() for p in pair.paragraphs],
                    list(pair.answers.raw),
                    [s.triple() for s in label_set.all_spans()],
                    truth.gold_answer,
                    [s.triple() for s in truth.correct_spans],
                ]
                h.update(json.dumps(record).encode("utf-8"))
        return h.hexdigest()[:16]


def generate_corpora(workload: Workload, seed: int) -> Corpora:
    profile = NoiseProfile(**workload.profile, seed=seed)
    train = synthlab.generate(profile)
    dev = synthlab.generate(synthlab.dev_profile(profile), id_prefix="dev")
    return Corpora(*train, *dev)


def checkpoint_digest(checkpoint) -> str:
    h = hashlib.sha256()
    for name in model.PARAM_NAMES:
        array = np.ascontiguousarray(checkpoint.params[name], dtype=np.float64)
        h.update(name.encode("utf-8"))
        h.update(repr(array.shape).encode("utf-8"))
        h.update(array.tobytes())
    return h.hexdigest()[:16]


@dataclass
class PassResult:
    """What one pass over the stages measured and produced."""

    dev_slice: slice
    stage_s: dict = field(default_factory=dict)
    total_s: float = 0.0
    label_documents: int = 0
    doc_epochs: int = 0
    trained_examples: int = 0
    offered_examples: int = 0
    exact_label_ms: list = field(default_factory=list)
    decode_ms: list = field(default_factory=list)
    # The same latencies over the reference routine's time just before each document.
    exact_label_ref: list = field(default_factory=list)
    decode_ref: list = field(default_factory=list)
    # Per trained cell: its time per document-epoch over the reference routine's time.
    train_ref: list = field(default_factory=list)
    em: dict = field(default_factory=lambda: {agg: [] for agg in SPECS})
    f1: dict = field(default_factory=lambda: {agg: [] for agg in SPECS})
    predictions: dict = field(default_factory=lambda: {agg: [] for agg in SPECS})
    checkpoints: dict = field(default_factory=dict)
    inference_failures: int = 0
    repeat_mismatches: int = 0
    grid_rows: list = field(default_factory=list)
    attempted: int = 0
    round_trip_ok: bool = False
    labels_ok: bool = False

    def prediction_digest(self) -> str:
        return predictions_digest([self])

    def grid_digest(self) -> str:
        payload = json.dumps(
            [[r["objective"], r["seed"], r["inference"], repr(r["em"]), repr(r["f1"]), repr(r["train_objective"])] for r in self.grid_rows]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def predictions_digest(passes) -> str:
    payload = json.dumps(
        {agg: [[a, repr(s)] for p in passes for a, s in p.predictions[agg]] for agg in SPECS},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def dev_slice(workload: Workload, n_dev: int, index: int) -> slice:
    """The part of the dev split a pass decodes; consecutive passes cycle through all of it."""
    k = workload.dev_slices
    i = index % k
    return slice(i * n_dev // k, (i + 1) * n_dev // k)


def _labels_equal(a, b) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def run_pass(workload: Workload, data: Corpora, index: int, workdir: Path, calibration: Calibration) -> PassResult:
    """Round trip, label, train, decode and score, grid; each stage timed.

    The pass works on the whole training split and on one slice of the dev
    split, so that a run's first dev_slices passes score every dev document.
    """
    out = PassResult(dev_slice=dev_slice(workload, len(data.dev_pairs), index))
    dev_pairs_in = data.dev_pairs[out.dev_slice]
    dev_truths = data.dev_truths[out.dev_slice]
    clock = time.perf_counter
    started = clock()

    # JSONL round trip of the training split, the dev slice and the training labels.
    t = clock()
    train_path, dev_path, labels_path = (workdir / n for n in ("train.jsonl", "dev.jsonl", "labels.jsonl"))
    corpus.save_dataset(data.train_pairs, train_path)
    corpus.save_dataset(dev_pairs_in, dev_path)
    labeling.save_labels(data.train_pairs, data.train_labels, labels_path)
    train_pairs = corpus.load_dataset(train_path)
    dev_pairs = corpus.load_dataset(dev_path)
    loaded_labels = labeling.load_labels(train_pairs, labels_path)
    out.stage_s["round_trip"] = clock() - t
    out.attempted += 6

    # Weak labeling: exact over the training split and the dev slice, rouge over a prefix of train.
    t = clock()
    exact = []
    for pair in train_pairs + dev_pairs:
        ref_ms = calibration.ref_ms()
        doc_start = clock()
        exact.append(labeling.find_consistent_spans_exact(pair))
        ms = 1000.0 * (clock() - doc_start)
        out.exact_label_ms.append(ms)
        out.exact_label_ref.append(ms / ref_ms)
    train_labels, dev_labels = exact[: len(train_pairs)], exact[len(train_pairs) :]
    for pair in train_pairs[: workload.rouge_documents]:
        labeling.find_consistent_spans_rouge(pair)
    out.stage_s["label"] = clock() - t
    out.label_documents = len(train_pairs) + len(dev_pairs) + min(workload.rouge_documents, len(train_pairs))
    out.attempted += out.label_documents

    # Training: every cell of the workload.
    t = clock()
    for cell in workload.cells:
        config = TrainConfig(
            objectives=cell.objectives,
            weights=cell.weights,
            epochs=workload.epochs,
            learning_rate=workload.learning_rate,
        )
        ref_ms = calibration.ref_ms()
        cell_start = clock()
        checkpoint = training.train(config, train_pairs, train_labels)
        ms = 1000.0 * (clock() - cell_start)
        out.checkpoints[cell.name] = checkpoint
        trained = checkpoint.history["trained_examples"]
        if trained:
            # The cell takes seconds, so the reference is averaged over its start and end.
            out.train_ref.append(ms / (trained * workload.epochs) / ((ref_ms + calibration.ref_ms()) / 2))
        out.doc_epochs += trained * workload.epochs
        out.trained_examples += trained
        out.offered_examples += trained + checkpoint.history["skipped_examples"]
        out.attempted += 1
    out.stage_s["train"] = clock() - t

    # Decode and score the dev slice with the headline model, both decoders.  The
    # first repetition is scored; later ones must repeat its predictions exactly.
    t = clock()
    headline = workload.cells[0].name
    scorer = out.checkpoints[headline].to_scorer()
    space = synthlab.inference_space(headline)
    for repeat in range(workload.decode_repeats):
        for position, (pair, truth) in enumerate(zip(dev_pairs, dev_truths)):
            ref_ms = calibration.ref_ms()
            doc_start = clock()
            golds = truth.gold_strings()
            probs = probability.log_partition(scorer.score(pair), space)
            for agg, spec in SPECS.items():
                out.attempted += 1
                try:
                    prediction = inference.predict(probs, pair, spec)
                except InferenceError:
                    out.inference_failures += 1
                    if not repeat:
                        out.em[agg].append(0.0)
                        out.f1[agg].append(0.0)
                        out.predictions[agg].append(["", float("nan")])
                    continue
                if repeat:
                    out.repeat_mismatches += out.predictions[agg][position] != [prediction.answer, prediction.score]
                    continue
                out.em[agg].append(metrics.exact_match(prediction.answer, golds))
                out.f1[agg].append(metrics.token_f1(prediction.answer, golds))
                out.predictions[agg].append([prediction.answer, prediction.score])
            ms = 1000.0 * (clock() - doc_start)
            out.decode_ms.append(ms)
            out.decode_ref.append(ms / ref_ms)
    out.stage_s["decode"] = clock() - t

    # Grid: a small run_grid in this process.
    t = clock()
    n_train, n_dev = workload.grid_train_documents, workload.grid_dev_documents
    out.grid_rows = synthlab.run_grid(
        train_pairs[:n_train],
        train_labels[:n_train],
        data.train_truths[:n_train],
        workload.grid_combos,
        list(SPECS.values()),
        workload.grid_seeds,
        dev_pairs=dev_pairs[:n_dev],
        dev_truths=dev_truths[:n_dev],
        config=TrainConfig(epochs=workload.grid_epochs, learning_rate=workload.learning_rate),
    )
    out.stage_s["grid"] = clock() - t
    out.attempted += 1
    out.total_s = clock() - started

    # Outside the timed pass: the round trip and the labeling stage must reproduce the generator's output.
    out.round_trip_ok = (
        train_pairs == data.train_pairs
        and dev_pairs == dev_pairs_in
        and _labels_equal(loaded_labels, data.train_labels)
    )
    out.labels_ok = _labels_equal(train_labels, data.train_labels) and _labels_equal(
        dev_labels, data.dev_labels[out.dev_slice]
    )
    return out


def dev_scores(workload: Workload, passes: list[PassResult], table: str = "em") -> dict:
    """Per-decoder mean, in points, over the first cycle of passes, which covers the dev split once."""
    cycle = passes[: workload.dev_slices]
    return {
        agg: 100.0 * float(np.mean([v for p in cycle for v in getattr(p, table)[agg]]))
        for agg in SPECS
    }


def gate(workload: Workload, data: Corpora, passes: list[PassResult], setup_digests: list[str]) -> list[tuple[str, bool, str]]:
    """Correctness checks on the run's outputs; each returns (name, ok, detail)."""
    checks = []
    first = passes[0]

    checks.append(("setup_deterministic", len(set(setup_digests)) == 1, f"{len(setup_digests)} generations, corpus digests {sorted(set(setup_digests))}"))
    checks.append(("jsonl_round_trip", all(p.round_trip_ok for p in passes), "loaded datasets and labels equal the generated ones in every pass"))
    checks.append(("exact_labels", all(p.labels_ok for p in passes), "labeling stage reproduces the generator's labels in every pass"))

    bad = []
    for name, checkpoint in first.checkpoints.items():
        values = checkpoint.history["objective_values"]
        if not all(np.isfinite(v) for v in values):
            bad.append(f"{name} objective")
        if not all(np.all(np.isfinite(a)) for a in checkpoint.params.values()):
            bad.append(f"{name} params")
    for p in passes:
        for agg, preds in p.predictions.items():
            if not all(np.isfinite(score) for _, score in preds):
                bad.append(f"{agg} prediction scores")
        for row in p.grid_rows:
            if row["train_objective"] is None or not np.isfinite(row["train_objective"]):
                bad.append(f"grid {row['objective']} objective")
    checks.append(("finite", not bad, ", ".join(sorted(set(bad))) or "objective values, parameters and scores finite"))

    headline = workload.cells[0].name
    checkpoint = first.checkpoints[headline]
    scorer = checkpoint.to_scorer()
    sample = data.dev_pairs[first.dev_slice][: workload.gate_documents]
    worst = 0.0
    finite_grids = True
    for pair in sample:
        grid = scorer.score(pair)
        finite_grids &= all(np.all(np.isfinite(a)) for a in grid.begin + grid.end)
        for space in SpaceKind:
            probs = probability.log_partition(grid, space)
            for side in (probs.log_begin, probs.log_end):
                if space is SpaceKind.PARAGRAPH:
                    totals = [float(np.exp(a).sum()) for a in side]
                else:
                    totals = [float(sum(np.exp(a).sum() for a in side))]
                worst = max(worst, max(abs(x - 1.0) for x in totals))
    checks.append(("log_partition_sums_to_one", worst <= PARTITION_TOLERANCE and finite_grids, f"worst |sum - 1| = {worst:.3g} over {len(sample)} grids, both spaces"))

    values = list(dev_scores(workload, passes, "em").values()) + list(dev_scores(workload, passes, "f1").values())
    values += [v for p in passes for row in p.grid_rows for v in (row["em"], row["f1"])]
    checks.append(("em_f1_in_range", all(0.0 <= v <= 100.0 for v in values), f"{len(values)} EM/F1 figures in [0, 100]"))

    space = synthlab.inference_space(headline)
    golds = [t.gold_strings() for t in data.dev_truths[first.dev_slice][: len(sample)]]
    diffs = []
    for agg, spec in SPECS.items():
        reference = synthlab.evaluate_checkpoint(checkpoint, sample, golds, spec, space)
        own_em = 100.0 * float(np.mean(first.em[agg][: len(sample)]))
        own_f1 = 100.0 * float(np.mean(first.f1[agg][: len(sample)]))
        diffs += [abs(reference["em"] - own_em), abs(reference["f1"] - own_f1)]
    checks.append(("agrees_with_evaluate_checkpoint", max(diffs) <= AGREEMENT_TOLERANCE, f"worst EM/F1 difference {max(diffs):.3g} on {len(sample)} dev documents"))

    model_digests = {tuple(checkpoint_digest(c) for c in p.checkpoints.values()) for p in passes}
    slice_digests = {}
    for p in passes:
        slice_digests.setdefault(p.dev_slice.start, set()).add((p.prediction_digest(), p.grid_digest()))
    ok = len(model_digests) == 1 and all(len(d) == 1 for d in slice_digests.values())
    checks.append(("passes_identical", ok, f"{len(passes)} passes: checkpoints, and predictions and grid rows per dev slice, repeat bit for bit"))

    mismatches = sum(p.repeat_mismatches for p in passes)
    checks.append(("decode_repeats_identical", mismatches == 0, f"{mismatches} predictions differ between repeated decodes of a dev slice ({workload.decode_repeats} per pass)"))

    failures = sum(p.inference_failures for p in passes)
    checks.append(("no_inference_errors", failures == 0, f"{failures} InferenceError documents"))
    return checks


def input_properties(data: Corpora) -> dict:
    """Exact counts of the input properties the layers depend on."""
    top_k = SPECS["sum"].top_k
    max_len = SPECS["sum"].max_answer_length
    train_spans = sum(ls.total_spans for ls in data.train_labels)
    dev_spans = sum(ls.total_spans for ls in data.dev_labels)
    candidates = 0
    for pair in data.dev_pairs:
        strings = set()
        for paragraph in pair.paragraphs:
            texts = [t.text for t in paragraph.tokens]
            for i in range(len(texts)):
                for j in range(i, min(i + max_len, len(texts))):
                    strings.add(corpus.normalize_string(" ".join(texts[i : j + 1])))
        strings.discard("")
        candidates += len(strings)
    repeated = 0
    for label_set, truth in zip(data.dev_labels, data.dev_truths):
        gold = corpus.normalize_string(truth.gold_answer)
        if sum(s.matched_string == gold for s in label_set.all_spans()) >= 2:
            repeated += 1
    positions = sum(len(p) for pair in data.dev_pairs for p in pair.paragraphs)
    paragraphs = sum(len(pair.paragraphs) for pair in data.dev_pairs)
    skipped = sum(ls.total_spans == 0 for ls in data.train_labels)
    n_train, n_dev = len(data.train_pairs), len(data.dev_pairs)
    return {
        "train_documents": n_train,
        "dev_documents": n_dev,
        "spans_per_doc": f"{train_spans + dev_spans}/{n_train + n_dev} = {(train_spans + dev_spans) / (n_train + n_dev):.3f}",
        "candidate_strings_per_doc": f"{candidates}/{n_dev} = {candidates / n_dev:.2f} (all spans up to {max_len} tokens)",
        "gold_repeated_dev_share": f"{repeated}/{n_dev} = {repeated / n_dev:.3f}",
        "top_k_over_paragraph_length": f"{top_k}/{positions / paragraphs:g} = {top_k * paragraphs / positions:.3f}",
        "skipped_under_D_share": f"{skipped}/{n_train} = {skipped / n_train:.3f}",
    }


def probe_decoders(workload: Workload, data: Corpora, checkpoint) -> dict:
    """Candidate strings per document and how often top-k changes the answer."""
    scorer = checkpoint.to_scorer()
    space = synthlab.inference_space(workload.cells[0].name)
    sample = data.dev_pairs[: workload.probe_documents]
    strings = 0
    changed = 0
    for pair in sample:
        probs = probability.log_partition(scorer.score(pair), space)
        strings += len(inference.score_strings(probs, pair, AnswerAggregation.SUM, top_k=SPECS["sum"].top_k))
        for spec in SPECS.values():
            top = inference.predict(probs, pair, spec).answer
            exact = inference.exhaustive_predict(probs, pair, spec.aggregation, spec.max_answer_length).answer
            changed += top != exact
    return {
        "strings_per_doc": strings / len(sample),
        "topk_changes_answer_frac": changed / (len(sample) * len(SPECS)),
        "probe_documents": len(sample),
    }
