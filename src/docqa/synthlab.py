"""Synthetic corpora with controllable weak-label noise, plus grid experiments.

Documents are built from a fixed token universe: each topic owns an answer
token, a prefix token for a two-token answer variant, and a pool of cue tokens
that questions are made of.  Correct mentions are answer tokens planted next
to their topic's cues; alias mentions are another topic's answer token planted
in plain filler, so they match the answer set while being wrong.  Ground
truth records which labeled spans are genuine.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import (
    DatasetSchemaError,
    DocumentQuestionPair,
    make_pair,
    normalize_string,
    read_json_lines,
    write_json_lines,
)
from .inference import InferenceError, InferenceSpec, predict
from .labeling import (
    ConsistentLabelSet,
    SpanLabel,
    find_consistent_spans_exact,
    read_span_records,
)
from .metrics import exact_match, summarize, token_f1
from .model import Checkpoint
from .objectives import parse_combo
from .probability import SpaceKind, log_partition
from .training import TrainConfig, train

CUES_PER_TOPIC = 4
_BAD_MENTION_COUNTS = "field 'mention_counts' needs counts >= 1 and positive, finite weights"


@dataclass(frozen=True)
class NoiseProfile:
    """Knobs of the synthetic corpus.

    alias_rate is the chance a positive paragraph carries only an alias
    mention; distractor_rate the chance a paragraph carries no mention at
    all.  mention_counts weights how many correct mentions a mention-bearing
    paragraph holds.  multi_answer_rate adds a nested two-token answer
    variant to the answer set.
    """

    vocab_size: int = 400
    documents: int = 2000
    dev_documents: int = 500
    paragraphs_per_document: int = 4
    tokens_per_paragraph: int = 40
    question_length: int = 4
    alias_rate: float = 0.0
    distractor_rate: float = 0.25
    multi_answer_rate: float = 0.0
    mention_counts: tuple[tuple[int, float], ...] = ((1, 0.5), (2, 0.3), (3, 0.2))
    seed: int = 0

    def __post_init__(self):
        for rate in (self.alias_rate, self.distractor_rate, self.multi_answer_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must lie in [0, 1]")
        if self.documents < 1:
            raise ValueError("need at least one training document")
        if self.dev_documents < 0:
            raise ValueError("dev_documents must not be negative")
        if not 1 <= self.paragraphs_per_document <= 8:
            raise ValueError("paragraphs per document must lie in [1, 8]")
        if not 1 <= self.question_length <= CUES_PER_TOPIC:
            raise ValueError(f"question length must lie in [1, {CUES_PER_TOPIC}]")
        if not self.mention_counts:
            raise ValueError("mention_counts must not be empty")
        for count, weight in self.mention_counts:
            if count < 1 or not 0 < weight < math.inf:
                raise ValueError(_BAD_MENTION_COUNTS)
        if not math.isfinite(sum(w for _, w in self.mention_counts)):
            raise ValueError("field 'mention_counts' has weights whose sum is not finite")
        longest = 4 * max(c for c, _ in self.mention_counts)
        if not longest + 4 <= self.tokens_per_paragraph <= 400:
            raise ValueError("tokens_per_paragraph too small for the mention load")
        if self.vocab_size < 60:
            raise ValueError("vocab_size must be at least 60")
        if self.seed < 0:
            raise ValueError(f"field 'seed' must be a non-negative integer, got {self.seed}")

    def to_json(self) -> str:
        record = asdict(self)
        record["mention_counts"] = [list(p) for p in self.mention_counts]
        return json.dumps(record, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "NoiseProfile":
        """Read to_json output; any field may be left out for its default.

        A non-object, an unknown field or a field of the wrong type raises
        ValueError naming the field.
        """
        record = json.loads(text)
        if not isinstance(record, dict):
            raise ValueError("profile must be a JSON object")
        defaults = asdict(cls())
        for key, value in record.items():
            if key not in defaults:
                raise ValueError(f"unknown field {key!r}")
            if key == "mention_counts":
                well_formed = isinstance(value, list) and all(
                    isinstance(p, list) and len(p) == 2
                    and _is_number(p[0], int) and _is_number(p[1], float)
                    for p in value
                )
                if not well_formed:
                    raise ValueError(
                        "field 'mention_counts' must be a list of [count, weight] pairs"
                    )
                try:
                    record[key] = tuple((c, float(w)) for c, w in value)
                except OverflowError:
                    raise ValueError(_BAD_MENTION_COUNTS) from None
            elif not _is_number(value, type(defaults[key])):
                kind = "an integer" if type(defaults[key]) is int else "a number"
                raise ValueError(f"field {key!r} must be {kind}, got {value!r}")
        return cls(**record)


def _is_number(value, kind: type) -> bool:
    """An int, or for kind float also a float; bools are neither."""
    allowed = (int, float) if kind is float else int
    return isinstance(value, allowed) and not isinstance(value, bool)


@dataclass(frozen=True)
class SyntheticTruth:
    """What the generator knows: the real answer and the genuine label spans."""

    gold_answer: str
    correct_spans: tuple[SpanLabel, ...]

    def gold_strings(self) -> set[str]:
        return {self.gold_answer} | {s.matched_string for s in self.correct_spans}


@dataclass(frozen=True)
class _Universe:
    answers: tuple[str, ...]
    prefixes: tuple[str, ...]
    cues: tuple[tuple[str, ...], ...]
    filler: tuple[str, ...]


def _build_universe(profile: NoiseProfile) -> _Universe:
    n_topics = max(4, profile.vocab_size // 10)
    answers = tuple(f"ans{t}" for t in range(n_topics))
    prefixes = tuple(f"pre{t}" for t in range(n_topics))
    cues = tuple(
        tuple(f"cue{t}w{c}" for c in range(CUES_PER_TOPIC)) for t in range(n_topics)
    )
    n_filler = profile.vocab_size - n_topics * (2 + CUES_PER_TOPIC)
    if n_filler < 20:
        raise ValueError("vocab_size leaves too few filler tokens")
    filler = tuple(f"fil{m}" for m in range(n_filler))
    return _Universe(answers, prefixes, cues, filler)


def _draw_roles(rng, profile: NoiseProfile) -> list[str]:
    # Redraw until the document keeps at least one genuine mention.
    for _ in range(64):
        roles = []
        for _ in range(profile.paragraphs_per_document):
            if rng.random() < profile.distractor_rate:
                roles.append("distractor")
            elif rng.random() < profile.alias_rate:
                roles.append("alias")
            else:
                roles.append("correct")
        if "correct" in roles:
            return roles
    roles[int(rng.integers(profile.paragraphs_per_document))] = "correct"
    return roles


def _draw(rng, pool: Sequence[str], n: int) -> list[str]:
    """n uniform draws with replacement from pool, consuming the same random
    numbers as rng.choice(pool, size=n)."""
    return [pool[i] for i in rng.integers(0, len(pool), size=n).tolist()]


def _assemble(rng, filler_pool, segments: list[list[str]], length: int) -> list[str]:
    used = sum(len(s) for s in segments)
    n_filler = length - used
    if n_filler < 0:
        raise ValueError("paragraph too short for its mentions")
    backbone = _draw(rng, filler_pool, n_filler)
    gaps = sorted(
        (int(rng.integers(n_filler + 1)), order) for order, _ in enumerate(segments)
    )
    out = []
    cursor = 0
    for gap, order in gaps:
        out.extend(backbone[cursor:gap])
        out.extend(segments[order])
        cursor = gap
    out.extend(backbone[cursor:])
    return out


def _mention_count_draw(mention_counts: Sequence[tuple[int, float]]):
    """A function of a Generator that draws one count of mention_counts by
    its weight, as rng.choice(counts, p=weights / weights.sum()) does: one
    rng.random() searched in choice's own normalized cumulative weights, the
    same draw and the same generator state after it, without the checks of p
    that choice repeats on every call (NoiseProfile has made them).
    """
    counts = [c for c, _ in mention_counts]
    weights = np.array([w for _, w in mention_counts], dtype=np.float64)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return lambda rng: counts[cdf.searchsorted(rng.random(), side="right")]


def generate(
    profile: NoiseProfile, id_prefix: str = "doc"
) -> tuple[list[DocumentQuestionPair], list[ConsistentLabelSet], list[SyntheticTruth]]:
    """Generate documents, weak labels, and ground truth.

    Labels come from the real exact matcher run on the finished text, never
    from the generator's bookkeeping, so they contain exactly the noise the
    profile injected.  Identical seeds reproduce identical corpora.
    """
    universe = _build_universe(profile)
    n_topics = len(universe.answers)
    rng = np.random.default_rng(profile.seed)
    draw_mentions = _mention_count_draw(profile.mention_counts)

    pairs, labels, truths = [], [], []
    for doc_index in range(profile.documents):
        topic = int(rng.integers(n_topics))
        question = [
            universe.cues[topic][i]
            for i in rng.permutation(CUES_PER_TOPIC)[: profile.question_length]
        ]
        multi = rng.random() < profile.multi_answer_rate
        base = universe.answers[topic]
        extended = f"{universe.prefixes[topic]} {base}"
        gold_strings = {base} | ({extended} if multi else set())
        roles = _draw_roles(rng, profile)
        alias_token = None
        if "alias" in roles:
            other = int(rng.integers(n_topics - 1))
            alias_token = universe.answers[other if other < topic else other + 1]
        paragraphs = []
        for role in roles:
            segments: list[list[str]] = []
            if role == "correct":
                n_mentions = draw_mentions(rng)
                for _ in range(n_mentions):
                    mention = [base]
                    if multi and rng.random() < 0.5:
                        mention = [universe.prefixes[topic], base]
                    before, after = _draw(rng, universe.cues[topic], 2)
                    segments.append([before, *mention, after])
            elif role == "alias":
                segments.append([alias_token])
            paragraphs.append(
                _assemble(rng, universe.filler, segments, profile.tokens_per_paragraph)
            )
        answers = [base]
        if multi:
            answers.append(extended)
        if alias_token is not None:
            answers.append(alias_token)
        pair = make_pair(
            id=f"{id_prefix}{doc_index:05d}",
            question=question,
            paragraphs=paragraphs,
            answers=answers,
        )
        label_set = find_consistent_spans_exact(pair)
        correct = tuple(s for s in label_set.spans if s.matched_string in gold_strings)
        pairs.append(pair)
        labels.append(label_set)
        truths.append(SyntheticTruth(gold_answer=base, correct_spans=correct))
    return pairs, labels, truths


def dev_profile(profile: NoiseProfile) -> NoiseProfile:
    """The same corpus distribution with fresh randomness for held-out data.

    A profile with dev_documents 0 has no held-out data and raises ValueError.
    """
    if not profile.dev_documents:
        raise ValueError("profile has no dev documents")
    return replace(profile, documents=profile.dev_documents, seed=profile.seed + 7919)


def save_truth(
    pairs: Sequence[DocumentQuestionPair],
    truths: Sequence[SyntheticTruth],
    path: str | Path,
) -> None:
    """Write one {"id", "gold", "correct_spans"} record per pair."""
    if len(pairs) != len(truths):
        raise ValueError(f"{len(pairs)} pairs but {len(truths)} truths: they must align")
    records = (
        {
            "id": pair.id,
            "gold": truth.gold_answer,
            "correct_spans": [list(s.triple()) for s in truth.correct_spans],
        }
        for pair, truth in zip(pairs, truths)
    )
    write_json_lines(path, records)


def load_truth(
    pairs: Sequence[DocumentQuestionPair], path: str | Path
) -> list[SyntheticTruth]:
    """Read a truth file back; bad lines fail as read_span_records describes."""
    records = read_span_records(pairs, path, "correct_spans", text_keys=("gold",))
    return [
        SyntheticTruth(gold_answer=record["gold"], correct_spans=tuple(spans))
        for record, spans in records
    ]


def save_predictions(predictions: dict[str, tuple[str, float]], path: str | Path) -> None:
    """Write one {"id", "answer", "score"} record per id, in insertion order."""
    records = ({"id": i, "answer": a, "score": s} for i, (a, s) in predictions.items())
    write_json_lines(path, records)


def load_predictions(path: str | Path) -> dict[str, tuple[str, float]]:
    """{id: (answer, score)} from a save_predictions file.

    A bad line fails as read_json_lines describes, and a score that is not a
    number raises DatasetSchemaError.  When an id repeats, its last record wins.
    """
    predictions = {}
    for number, record in read_json_lines(path, ("id", "answer", "score"), ("id", "answer")):
        if not _is_number(record["score"], float):
            raise DatasetSchemaError(path, number, "'score' must be a number")
        predictions[record["id"]] = (record["answer"], record["score"])
    return predictions


def inference_space(combo: str) -> SpaceKind:
    """Probability space a trained objective mix should decode with.

    Any document-space constituent makes decoding document-level; otherwise
    the paragraph space is kept.
    """
    specs = parse_combo(combo)
    if any(s.space is SpaceKind.DOCUMENT for s in specs):
        return SpaceKind.DOCUMENT
    return SpaceKind.PARAGRAPH


def decode_corpus(
    checkpoint: Checkpoint,
    pairs: Sequence[DocumentQuestionPair],
    specs: Sequence[InferenceSpec],
    space: SpaceKind,
) -> list[list[tuple[str, float]]]:
    """(answer, log score) per pair, one list per spec; ("", -inf) when no
    candidate decodes, as for a pair without paragraphs.

    Each pair is scored and normalized once and decoded by predict under each
    spec; the grid keeps the candidates predict builds (see
    inference.candidates), so specs that differ only in aggregation build
    them once and only pool them apart.
    """
    scorer = checkpoint.to_scorer()
    out: list[list[tuple[str, float]]] = [[] for _ in specs]
    failed = ("", float("-inf"))
    for pair in pairs:
        if not pair.paragraphs:
            for decoded in out:
                decoded.append(failed)
            continue
        probs = log_partition(scorer.score(pair), space)
        for spec, decoded in zip(specs, out):
            try:
                prediction = predict(probs, pair, spec)
                decoded.append((prediction.answer, prediction.score))
            except InferenceError:
                decoded.append(failed)
    return out


def evaluate_checkpoint(
    checkpoint: Checkpoint,
    pairs: Sequence[DocumentQuestionPair],
    gold_strings: Sequence[set[str]],
    inference: InferenceSpec,
    space: SpaceKind,
) -> dict[str, float]:
    """Mean EM and token F1, in points, of a checkpoint's predictions.

    A pair with no decodable answer scores zero on both.  Pairs and gold sets
    must align, as score_answers requires; differing lengths raise ValueError
    before any pair is decoded.
    """
    _check_aligned(len(pairs), gold_strings)
    decoded = decode_corpus(checkpoint, pairs, [inference], space)[0]
    return _mean_points(decoded, gold_strings)


def _mean_points(
    decoded: Sequence[tuple[str, float]], gold_strings: Sequence[set[str]]
) -> dict[str, float]:
    return summarize(score_answers([answer for answer, _ in decoded], gold_strings))


def _check_aligned(answers: int, gold_strings: Sequence[set[str]]) -> None:
    if answers != len(gold_strings):
        raise ValueError(f"{answers} answers but {len(gold_strings)} gold string sets")


def score_answers(
    answers: Sequence[str], gold_strings: Sequence[set[str]]
) -> dict[str, list[float]]:
    """Per-answer exact match and token F1 against each answer's gold strings.

    An answer that normalizes to nothing ("", "the", ",") is no answer and
    scores zero on both, even when a gold string (such as "The") normalizes to
    nothing too.  Answers and gold sets must align: differing lengths raise
    ValueError.
    """
    _check_aligned(len(answers), gold_strings)
    scores: dict[str, list[float]] = {"em": [], "f1": []}
    for answer, golds in zip(answers, gold_strings):
        given = bool(normalize_string(answer))
        scores["em"].append(exact_match(answer, golds) if given else 0.0)
        scores["f1"].append(token_f1(answer, golds) if given else 0.0)
    return scores


def _run_cell(
    combo: str,
    seed: int,
    config: TrainConfig,
    train_pairs: Sequence[DocumentQuestionPair],
    train_labels: Sequence[ConsistentLabelSet],
    dev_pairs: Sequence[DocumentQuestionPair],
    dev_golds: Sequence[set[str]],
    inference_specs: Sequence[InferenceSpec],
) -> list[dict]:
    specs = parse_combo(combo)
    cell_config = replace(
        config,
        objectives=tuple(str(s) for s in specs),
        weights=tuple(1.0 for _ in specs),
        seed=seed,
    )
    checkpoint = train(cell_config, train_pairs, train_labels)
    space = inference_space(combo)
    values = checkpoint.history.get("objective_values", [])
    rows = []
    decoded = decode_corpus(checkpoint, dev_pairs, inference_specs, space)
    for inf_spec, answers in zip(inference_specs, decoded):
        scores = _mean_points(answers, dev_golds)
        rows.append(
            {
                "objective": combo,
                "seed": seed,
                "inference": inf_spec.aggregation.value,
                "em": scores["em"],
                "f1": scores["f1"],
                "train_objective": values[-1] if values else None,
            }
        )
    return rows


def run_grid(
    pairs: Sequence[DocumentQuestionPair],
    labels: Sequence[ConsistentLabelSet],
    truths: Sequence[SyntheticTruth],
    objective_combos: Sequence[str],
    inference_specs: Sequence[InferenceSpec],
    seeds: Sequence[int],
    dev_pairs: Sequence[DocumentQuestionPair] | None = None,
    dev_truths: Sequence[SyntheticTruth] | None = None,
    config: TrainConfig | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Train one model per (objective combo, seed) and score both decoders.

    Plus-joined combos train a weighted mix with equal unit weights.  Held-out
    pairs and truth default to the training set when absent.  Rows report EM
    and token F1 against each document's genuine answer strings: the gold
    answer plus every correct-span string.
    """
    if config is None:
        config = TrainConfig()
    if dev_pairs is None:
        dev_pairs, dev_truths = pairs, truths
    if dev_truths is None or len(dev_truths) != len(dev_pairs):
        raise ValueError("held-out pairs need aligned truth records")
    dev_golds = [t.gold_strings() for t in dev_truths]
    combos = [combo for combo in objective_combos for _ in seeds]
    cell_seeds = [seed for _ in objective_combos for seed in seeds]
    shared = map(repeat, (config, pairs, labels, dev_pairs, dev_golds, inference_specs))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell, combos, cell_seeds, *shared))
    else:
        results = list(map(_run_cell, combos, cell_seeds, *shared))
    return [row for rows in results for row in rows]


def save_table(rows: Sequence[dict], path: str | Path) -> None:
    """Write grid rows as JSON or CSV depending on the file suffix."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        fields = ["objective", "seed", "inference", "em", "f1", "train_objective"]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(list(rows), handle, indent=2)
