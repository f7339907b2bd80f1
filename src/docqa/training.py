"""Deterministic gradient-ascent training of the scorer under any objective mix."""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .corpus import DocumentQuestionPair
from .labeling import ConsistentLabelSet
from .model import DEFAULT_EMBEDDING_DIM, DEFAULT_INIT_SCALE, Checkpoint, ToyScorer, Vocabulary
from .objectives import Aggregation, LabelError, ObjectiveSpec, combine
from .probability import SpaceKind

logger = logging.getLogger(__name__)

PRETRAIN_OBJECTIVE = "H1-P-span-mml"
MIN_RAMP_TEMPERATURE = 0.05


class TrainingDivergedError(RuntimeError):
    """The objective or the parameters stopped being finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run besides the data itself."""

    objectives: tuple[str, ...] = ("H2-P-span-mml",)
    weights: tuple[float, ...] = (1.0,)
    learning_rate: float = 0.5
    epochs: int = 3
    batch_size: int = 8
    seed: int = 0
    embedding_dim: int = DEFAULT_EMBEDDING_DIM
    init_scale: float = DEFAULT_INIT_SCALE
    momentum: float = 0.0
    hardem_temperature_ramp: bool = False
    pretrain_path: str | None = None
    pretrain_epochs: int = 2

    def __post_init__(self):
        if self.epochs < 1 or self.pretrain_epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.embedding_dim < 1:
            raise ValueError("embedding dimension must be at least 1")
        if len(self.objectives) != len(self.weights):
            raise ValueError("one weight per objective required")
        if not all(0 <= w < math.inf for w in self.weights):
            raise ValueError("weights must be finite and non-negative")
        if not self.objectives:
            raise ValueError("need at least one objective")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 < self.init_scale < math.inf:
            raise ValueError("init scale must be positive and finite")

    def parsed_objectives(self) -> list[ObjectiveSpec]:
        return [ObjectiveSpec.parse(s) for s in self.objectives]

    def fingerprint(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _usable_examples(
    specs: Sequence[ObjectiveSpec],
    pairs: Sequence[DocumentQuestionPair],
    labels: Sequence[ConsistentLabelSet],
) -> tuple[list[tuple[DocumentQuestionPair, ConsistentLabelSet]], int]:
    """The examples the objectives can score, and how many were dropped.

    A pair without paragraphs is always dropped; under a document-space
    objective so is a pair without a single consistent span.
    """
    needs_spans = any(s.space is SpaceKind.DOCUMENT for s in specs)
    kept = []
    no_paragraphs = no_spans = 0
    for pair, label_set in zip(pairs, labels):
        if not pair.paragraphs:
            no_paragraphs += 1
        elif needs_spans and label_set.total_spans == 0:
            no_spans += 1
        else:
            kept.append((pair, label_set))
    if no_paragraphs or no_spans:
        logger.info(
            "skipping %d examples: %d without paragraphs, %d with no consistent span",
            no_paragraphs + no_spans,
            no_paragraphs,
            no_spans,
        )
    return kept, no_paragraphs + no_spans


def _ramp_temperature(step: int, total_steps: int) -> float:
    """Linear anneal from soft toward hard over the whole run."""
    if total_steps <= 1:
        return MIN_RAMP_TEMPERATURE
    fraction = step / (total_steps - 1)
    return max(MIN_RAMP_TEMPERATURE, 1.0 - fraction)


def _run_epochs(
    scorer: ToyScorer,
    specs: Sequence[ObjectiveSpec],
    weights: Sequence[float],
    examples: list[tuple[DocumentQuestionPair, ConsistentLabelSet]],
    config: TrainConfig,
    epochs: int,
) -> list[float]:
    """Shared ascent loop; mutates the scorer, returns per-epoch mean values.

    Each example is encoded under the scorer's vocabulary once per run.
    """
    if not examples:
        return []
    rng = np.random.default_rng(config.seed)
    use_ramp = config.hardem_temperature_ramp and any(
        s.aggregation is Aggregation.HARD_EM for s in specs
    )
    n_batches = (len(examples) + config.batch_size - 1) // config.batch_size
    total_steps = epochs * n_batches
    velocity = np.zeros_like(scorer.params)
    encoded = [scorer.vocab.encode(pair) for pair, _ in examples]
    history = []
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(examples))
        epoch_value = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            batch = sorted(batch, key=lambda i: examples[i][0].id)
            temperature = _ramp_temperature(step, total_steps) if use_ramp else None
            accumulated = np.zeros_like(scorer.params)
            for i in batch:
                pair, label_set = examples[i]
                grid = scorer.score(encoded[i])
                loss = combine(list(specs), list(weights), grid, label_set, temperature)
                if not np.isfinite(loss.value):
                    raise TrainingDivergedError(
                        f"non-finite objective at epoch {epoch}, pair {pair.id!r}"
                    )
                epoch_value += loss.value
                accumulated += scorer.backprop(encoded[i], loss.grad)
            accumulated *= 1.0 / len(batch)
            # Momentum 0 is the plain step bit for bit, as -0.0 + g == g.
            velocity *= config.momentum
            velocity += accumulated
            scorer.params += config.learning_rate * velocity
            step += 1
        history.append(epoch_value / len(examples))
    return history


def _fit(
    config: TrainConfig,
    specs: Sequence[ObjectiveSpec],
    weights: Sequence[float],
    epochs: int,
    pairs: Sequence[DocumentQuestionPair],
    labels: Sequence[ConsistentLabelSet],
    last_entry: dict,
    init: Checkpoint | None = None,
    vocab: Vocabulary | None = None,
) -> Checkpoint:
    """The body of train and pretrain_clean: starts from init's parameters, else from a
    fresh scorer over vocab or the pairs' own; the history ends with last_entry."""
    if len(pairs) != len(labels):
        raise ValueError("pairs and labels must align")
    examples, skipped = _usable_examples(specs, pairs, labels)
    if init is not None:
        scorer = init.to_scorer()
    else:
        vocab = vocab if vocab is not None else Vocabulary.from_pairs(pairs)
        scorer = ToyScorer.initialize(
            vocab, dim=config.embedding_dim, seed=config.seed, init_scale=config.init_scale
        )
    # Overflow and invalid values surface as a non-finite objective or
    # parameter, which raises TrainingDivergedError, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        values = _run_epochs(scorer, specs, weights, examples, config, epochs)
    if not np.all(np.isfinite(scorer.params)):
        raise TrainingDivergedError("non-finite parameters after the last epoch")
    history = {
        "objective_values": values,
        "skipped_examples": skipped,
        "trained_examples": len(examples),
        **last_entry,
        "objectives": [str(s) for s in specs],
    }
    return Checkpoint.from_scorer(scorer, config.fingerprint(), history)


def train(
    config: TrainConfig,
    pairs: Sequence[DocumentQuestionPair],
    labels: Sequence[ConsistentLabelSet],
    init: Checkpoint | None = None,
) -> Checkpoint:
    """Train a scorer from scratch or from a checkpoint's parameters.

    Batches are whole documents, shuffled once per epoch from the config seed;
    within a batch, gradients reduce in document-id order, so runs with one
    seed are bit-for-bit reproducible.  When any objective lives in the
    document space, examples without a single consistent span are skipped;
    so are pairs without paragraphs.  Both are counted in the returned history.
    """
    specs = config.parsed_objectives()
    entry = {"initialized_from": init.fingerprint if init is not None else None}
    return _fit(config, specs, config.weights, config.epochs, pairs, labels, entry, init=init)


def pretrain_clean(
    config: TrainConfig,
    pairs: Sequence[DocumentQuestionPair],
    labels: Sequence[ConsistentLabelSet],
    vocab: Vocabulary | None = None,
) -> Checkpoint:
    """Supervised warm start on cleanly labeled data.

    Labels must be singletons: at most one span per paragraph, so the
    all-mentions and one-per-paragraph objectives coincide and the run is
    plain maximum likelihood in the paragraph space.  Passing an explicit
    vocabulary lets the warm start share token ids with later fine-tuning.
    Empty data returns the untouched initialization.
    """
    for label_set in labels:
        paragraphs = [span.paragraph for span in label_set.spans]
        if len(set(paragraphs)) < len(paragraphs):
            raise LabelError("clean pretraining expects at most one span per paragraph")
    specs = [ObjectiveSpec.parse(PRETRAIN_OBJECTIVE)]
    entry = {"pretraining": True}
    return _fit(config, specs, [1.0], config.pretrain_epochs, pairs, labels, entry, vocab=vocab)
