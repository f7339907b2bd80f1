"""Latent-variable training objectives over weakly labeled spans.

Every objective is a log likelihood built from the begin/end probability
grids.  They differ along four axes: which probability space normalizes the
scores, which latent structure the label set feeds (every labeled mention, one
mention per positive paragraph, or one mention per document), whether whole
spans or begin/end positions carry the likelihood, and whether the latent
choice is marginalized or maximized.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .labeling import ConsistentLabelSet
from .probability import ScoreGrid, SpaceKind, log_partition, logsumexp


class Hypothesis(Enum):
    """How many labeled mentions are assumed to be true answer occurrences.

    ALL_MENTIONS treats every consistent span as correct.  PER_PARAGRAPH
    assumes exactly one correct mention inside each positive paragraph.
    PER_DOCUMENT assumes exactly one correct mention in the whole document
    and therefore requires the document probability space.
    """

    ALL_MENTIONS = "H1"
    PER_PARAGRAPH = "H2"
    PER_DOCUMENT = "H3"


class Granularity(Enum):
    """Whether likelihood attaches to whole spans or to begin/end positions."""

    SPAN = "span"
    POSITION = "pos"


class Aggregation(Enum):
    """How the latent choice is resolved: marginalized or maximized."""

    MML = "mml"
    HARD_EM = "hardem"


class ObjectiveSpecError(ValueError):
    """An objective string is malformed or names an invalid cell."""


class LabelError(ValueError):
    """A label set cannot feed the requested objective."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """One point in the objective design space."""

    hypothesis: Hypothesis
    space: SpaceKind
    granularity: Granularity
    aggregation: Aggregation

    def __post_init__(self):
        if (
            self.hypothesis is Hypothesis.PER_DOCUMENT
            and self.space is SpaceKind.PARAGRAPH
        ):
            raise ObjectiveSpecError(
                "the one-per-document hypothesis requires the document space"
            )

    @classmethod
    def parse(cls, text: str) -> "ObjectiveSpec":
        """Parse strings like H2-P-span-mml or H3-D-pos-hardem."""
        parts = text.strip().split("-")
        if len(parts) != 4:
            raise ObjectiveSpecError(
                f"objective spec {text!r} must have four dash-separated fields"
            )
        readers = (
            ("hypothesis", lambda key: Hypothesis(key.upper())),
            ("space", SpaceKind.parse),
            ("granularity", lambda key: Granularity(key.lower())),
            ("aggregation", lambda key: Aggregation(key.lower())),
        )
        fields = []
        for (name, read), key in zip(readers, parts):
            try:
                fields.append(read(key))
            except ValueError:
                raise ObjectiveSpecError(f"unknown {name} {key!r}") from None
        return cls(*fields)

    def __str__(self) -> str:
        return "-".join(
            (
                self.hypothesis.value,
                self.space.value,
                self.granularity.value,
                self.aggregation.value,
            )
        )


def parse_combo(text: str) -> list[ObjectiveSpec]:
    """Parse a plus-joined list of objective specs."""
    parts = [p for p in text.split("+") if p.strip()]
    if not parts:
        raise ObjectiveSpecError("empty objective combination")
    return [ObjectiveSpec.parse(p) for p in parts]


@dataclass
class LossResult:
    """An objective's value (a log likelihood) and its gradient with respect
    to the scores, a grid in the scored grid's layout."""

    value: float
    grad: ScoreGrid


def _aggregate(
    logs: np.ndarray, aggregation: Aggregation, temperature: float | None
) -> tuple[float, np.ndarray]:
    """Combine log probabilities of one latent set.

    Returns the contribution to the objective and the weight each outcome
    receives in the gradient.  Marginalizing uses log-sum-exp with softmax
    weights; maximizing gives weight one to the first-listed maximum, which
    realizes the lowest-index tie break.  A temperature in (0, 1] softens the
    maximum into a tempered log-sum-exp.
    """
    if aggregation is Aggregation.MML:
        if logs.shape[0] == 1:  # a lone outcome is its own log-sum-exp
            return float(logs[0]), np.array([1.0])
        value = float(logsumexp(logs))
        return value, np.exp(logs - value)
    if temperature is None:
        idx = int(np.argmax(logs))
        weights = np.zeros_like(logs)
        weights[idx] = 1.0
        return float(logs[idx]), weights
    scaled = logs / temperature
    norm = float(logsumexp(scaled))
    return temperature * norm, np.exp(scaled - norm)


# The hypothesis only picks the latent group a labeled mention joins: its own
# (by rank), its paragraph's, or the document's.
_GROUP_KEY = {
    Hypothesis.ALL_MENTIONS: lambda rank, span: rank,
    Hypothesis.PER_PARAGRAPH: lambda rank, span: span.paragraph,
    Hypothesis.PER_DOCUMENT: lambda rank, span: 0,
}


def evaluate(
    spec: ObjectiveSpec,
    grid: ScoreGrid,
    labels: ConsistentLabelSet,
    temperature: float | None = None,
) -> LossResult:
    """Compute one objective and its analytic gradient.

    One recipe serves every cell.  The labeled mentions form latent groups:
    one per mention (H1), per positive paragraph (H2) or for the document
    (H3), and under P each unlabeled paragraph's null outcome forms one more.
    Each group aggregates the log probabilities of its whole spans, or of its
    distinct begin and end positions separately, scatters the aggregation
    weights into the gradient and presses once on its normalization unit (its
    paragraph under P, the document under D).  H1 and null groups hold one
    outcome each, which takes weight one.  Under hard EM a group's weight one
    goes to its first-listed maximum: spans in label order, positions in
    (paragraph, position) order, so ties break to the lowest.

    A document-space example with no consistent span is a label error the
    caller must skip.  temperature only affects maximizing objectives and
    exists for annealed training schedules; left at None the maximum is exact.
    """
    if temperature is not None and not 0.0 < temperature <= 1.0:
        raise ValueError("temperature must lie in (0, 1]")
    if labels.n_paragraphs != grid.n_paragraphs:
        raise LabelError(
            f"labels cover {labels.n_paragraphs} paragraphs, grid has {grid.n_paragraphs}"
        )
    sizes = grid.sizes
    key = _GROUP_KEY[spec.hypothesis]
    grouped: dict[int, list[tuple[int, int, int]]] = {}
    for rank, span in enumerate(labels.spans):
        if span.end >= sizes[span.paragraph] - 1:
            raise LabelError(
                f"span {span.triple()} exceeds paragraph length {sizes[span.paragraph] - 1}"
            )
        grouped.setdefault(key(rank, span), []).append(span.triple())
    if spec.space is SpaceKind.DOCUMENT and not grouped:
        raise LabelError("document-space objective needs at least one consistent span")

    # In the grid's flat layout position i of paragraph k sits at offset[k] + i
    # on the begin side and at offset[n + k] + i on the end side.
    log_probs = log_partition(grid, spec.space).vector
    n = grid.n_paragraphs
    offset = grid.offsets
    groups = list(grouped.values())
    # Only the first `latent` groups choose: H1 groups and null groups hold one
    # outcome, which marginalizing resolves to itself with weight one.
    latent = 0 if spec.hypothesis is Hypothesis.ALL_MENTIONS else len(groups)
    if spec.space is SpaceKind.PARAGRAPH:
        labeled = {span.paragraph for span in labels.spans}
        groups += [[(k, sizes[k] - 1, sizes[k] - 1)] for k in range(n) if k not in labeled]

    # Whole spans pair begins[g][i] with ends[g][i]; positions are distinct.
    if spec.granularity is Granularity.SPAN:
        begins = [[(k, b) for k, b, _ in group] for group in groups]
        ends = [[(k, e) for k, _, e in group] for group in groups]
    else:
        begins = [sorted({(k, b) for k, b, _ in group}) for group in groups]
        ends = [sorted({(k, e) for k, _, e in group}) for group in groups]
    at = [offset[k] + b for side in begins for k, b in side]
    n_begin = len(at)
    at += [offset[n + k] + e for side in ends for k, e in side]
    logs = log_probs[at]
    weights = np.ones(len(at))

    value = 0.0
    b0, e0 = 0, n_begin
    for g in range(latent):
        b1, e1 = b0 + len(begins[g]), e0 + len(ends[g])
        if spec.granularity is Granularity.SPAN:
            term, w = _aggregate(logs[b0:b1] + logs[e0:e1], spec.aggregation, temperature)
            weights[b0:b1] = weights[e0:e1] = w
        else:
            term_b, weights[b0:b1] = _aggregate(logs[b0:b1], spec.aggregation, temperature)
            term_e, weights[e0:e1] = _aggregate(logs[e0:e1], spec.aggregation, temperature)
            term = term_b + term_e
        value += term
        b0, e0 = b1, e1
    # Each remaining group adds its one outcome's begin plus end log probability.
    for term in (logs[b0:n_begin] + logs[e0:]).tolist():
        value += term

    # Each group presses once on its paragraph under P, on the document under D.
    if spec.space is SpaceKind.PARAGRAPH:
        presses = [0] * n
        for group in groups:
            presses[group[0][0]] += 1
        pressure = np.repeat(presses * 2, sizes * 2)
    else:
        pressure = len(groups)
    grad = np.bincount(at, weights, offset[-1])
    grad -= pressure * np.exp(log_probs)
    return LossResult(float(value), ScoreGrid(grad, sizes))


def combine(
    specs: list[ObjectiveSpec],
    weights: list[float],
    grid: ScoreGrid,
    labels: ConsistentLabelSet,
    temperature: float | None = None,
) -> LossResult:
    """Weighted sum of several objectives sharing one grid and label set."""
    if not specs:
        raise ObjectiveSpecError("need at least one objective")
    if len(specs) != len(weights):
        raise ObjectiveSpecError("one weight per objective required")
    for w in weights:
        if not np.isfinite(w) or w < 0:
            raise ObjectiveSpecError("weights must be finite and non-negative")
    value = 0.0
    grad = np.zeros_like(grid.vector)
    for spec, weight in zip(specs, weights):
        result = evaluate(spec, grid, labels, temperature)
        value += weight * result.value
        grad += weight * result.grad.vector
    return LossResult(float(value), ScoreGrid(grad, grid.sizes))


def grad_check(
    spec: ObjectiveSpec,
    grid: ScoreGrid,
    labels: ConsistentLabelSet,
    temperature: float | None = None,
) -> float:
    """Worst relative disagreement between analytic grads and central
    differences with step 1e-4.

    Relative error for one coordinate is |fd - g| / max(1, |fd|, |g|).
    """
    eps = 1e-4
    analytic = evaluate(spec, grid, labels, temperature).grad.vector
    base = grid.vector
    worst = 0.0
    for idx in range(base.shape[0]):
        bumped = np.copy(base)
        bumped[idx] = base[idx] + eps
        high = evaluate(spec, ScoreGrid(bumped, grid.sizes), labels, temperature).value
        bumped[idx] = base[idx] - eps
        low = evaluate(spec, ScoreGrid(bumped, grid.sizes), labels, temperature).value
        fd = (high - low) / (2.0 * eps)
        err = abs(fd - analytic[idx]) / max(1.0, abs(fd), abs(analytic[idx]))
        worst = max(worst, err)
    return worst
