"""Randomized self-checks of the core algebra, used by the check subcommand."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, product
from typing import Callable

import numpy as np

from .corpus import make_pair
from .inference import AnswerAggregation, InferenceSpec, exhaustive_predict, predict
from .labeling import ConsistentLabelSet, SpanLabel
from .metrics import rouge_l, token_f1
from .objectives import (
    Aggregation,
    Granularity,
    Hypothesis,
    ObjectiveSpec,
    ObjectiveSpecError,
    evaluate,
    grad_check,
)
from .probability import ScoreGrid, SpaceKind, log_partition


def _valid_cells():
    """Every valid marginal cell, in enum order: H1-P-span-mml, H1-P-pos-mml, ..."""
    for fields in product(Hypothesis, SpaceKind, Granularity):
        try:
            yield ObjectiveSpec(*fields, Aggregation.MML)
        except ObjectiveSpecError:
            pass


ALL_CELLS = tuple(_valid_cells())
LATENT_CELLS = tuple(c for c in ALL_CELLS if c.hypothesis is not Hypothesis.ALL_MENTIONS)


def random_instance(
    rng: np.random.Generator,
    max_paragraphs: int = 3,
    max_tokens: int = 6,
    score_scale: float = 3.0,
    max_span_length: int = 3,
    ensure_positive: bool = True,
) -> tuple[ScoreGrid, ConsistentLabelSet]:
    """A random score grid with a random consistent label set over it.

    Each paragraph draws zero to three spans of up to max_span_length tokens.
    With ensure_positive an instance that drew none gets the span (0, 0, 0)
    without a further draw.  The label set records one answer string.
    """
    n_paragraphs = int(rng.integers(1, max_paragraphs + 1))
    token_counts = [int(rng.integers(1, max_tokens + 1)) for _ in range(n_paragraphs)]
    grid = ScoreGrid(
        begin=[rng.normal(0.0, score_scale, n + 1) for n in token_counts],
        end=[rng.normal(0.0, score_scale, n + 1) for n in token_counts],
    )
    chosen = set()
    for k, n in enumerate(token_counts):
        for _ in range(int(rng.integers(0, 4))):
            i = int(rng.integers(0, n))
            j = int(rng.integers(i, min(i + max_span_length, n)))
            chosen.add((k, i, j))
    if ensure_positive and not chosen:
        chosen.add((0, 0, 0))
    spans = [SpanLabel(k, i, j, matched_string="x") for k, i, j in sorted(chosen)]
    return grid, ConsistentLabelSet.from_spans(n_paragraphs, spans, num_answers=1)


def random_scored_pair(rng: np.random.Generator, vocab: int = 6):
    """A small document with repeating tokens plus a random grid over it."""
    n_paragraphs = int(rng.integers(1, 4))
    token_counts = [int(rng.integers(1, 7)) for _ in range(n_paragraphs)]
    paragraphs = [
        [f"t{int(rng.integers(vocab))}" for _ in range(n)] for n in token_counts
    ]
    pair = make_pair(
        id="diag", question="q", paragraphs=paragraphs, answers=["t0"]
    )
    grid = ScoreGrid(
        begin=[rng.normal(0.0, 2.0, n + 1) for n in token_counts],
        end=[rng.normal(0.0, 2.0, n + 1) for n in token_counts],
    )
    return pair, grid


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check_normalization(rng, trials) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        grid, _ = random_instance(rng, score_scale=1e4, ensure_positive=False)
        for space in SpaceKind:
            probs = log_partition(grid, space)
            if space is SpaceKind.PARAGRAPH:
                for k in range(grid.n_paragraphs):
                    worst = max(worst, abs(np.exp(probs.log_begin[k]).sum() - 1.0))
                    worst = max(worst, abs(np.exp(probs.log_end[k]).sum() - 1.0))
            else:
                total_b = sum(np.exp(a[:-1]).sum() for a in probs.log_begin)
                total_e = sum(np.exp(a[:-1]).sum() for a in probs.log_end)
                worst = max(worst, abs(total_b - 1.0), abs(total_e - 1.0))
    return CheckResult("normalization sums to one", worst < 1e-9, f"worst {worst:.2e}")


def _trial_values(rng, trials, specs):
    """Each trial's objective values of specs, on one fresh random instance."""
    for _ in range(trials):
        grid, labels = random_instance(rng)
        yield [evaluate(spec, grid, labels).value for spec in specs]


def _pair_gaps(rng, trials, pairs):
    """value(a) - value(b) for each spec pair (a, b), on each trial's instance."""
    specs = [spec for pair in pairs for spec in pair]
    for values in _trial_values(rng, trials, specs):
        yield from (a - b for a, b in zip(values[::2], values[1::2]))


def _check_h1_granularity(rng, trials) -> CheckResult:
    spans = [
        replace(cell, aggregation=agg)
        for cell in ALL_CELLS
        if cell.hypothesis is Hypothesis.ALL_MENTIONS and cell.granularity is Granularity.SPAN
        for agg in Aggregation
    ]
    pairs = [(span, replace(span, granularity=Granularity.POSITION)) for span in spans]
    worst = max([0.0, *map(abs, _pair_gaps(rng, trials, pairs))])
    return CheckResult(
        "all-mentions span and position variants coincide", worst < 1e-9, f"worst {worst:.2e}"
    )


def _check_position_bound(rng, trials) -> CheckResult:
    spans = [cell for cell in LATENT_CELLS if cell.granularity is Granularity.SPAN]
    pairs = [(replace(span, granularity=Granularity.POSITION), span) for span in spans]
    worst = min([0.0, *_pair_gaps(rng, trials, pairs)])
    return CheckResult(
        "position marginal upper-bounds span marginal", worst > -1e-9, f"worst gap {worst:.2e}"
    )


def _check_mml_bound(rng, trials) -> CheckResult:
    pairs = [(cell, replace(cell, aggregation=Aggregation.HARD_EM)) for cell in LATENT_CELLS]
    worst = min([0.0, *_pair_gaps(rng, trials, pairs)])
    return CheckResult(
        "marginalizing dominates maximizing", worst > -1e-9, f"worst gap {worst:.2e}"
    )


def _check_gradients(rng, instances_per_cell) -> CheckResult:
    worst = 0.0
    for spec in ALL_CELLS:
        for agg in (Aggregation.MML, Aggregation.HARD_EM):
            cell = ObjectiveSpec(spec.hypothesis, spec.space, spec.granularity, agg)
            for _ in range(instances_per_cell):
                grid, labels = random_instance(rng, max_tokens=4)
                worst = max(worst, grad_check(cell, grid, labels))
    return CheckResult(
        "analytic gradients match finite differences", worst < 1e-5, f"worst {worst:.2e}"
    )


def _check_inference_oracle(rng, trials) -> CheckResult:
    ok = True
    detail = ""
    for _ in range(trials):
        pair, grid = random_scored_pair(rng)
        space = SpaceKind.PARAGRAPH if rng.random() < 0.5 else SpaceKind.DOCUMENT
        probs = log_partition(grid, space)
        # k = the longest paragraph keeps every position: the smallest k that
        # must reproduce exhaustive decoding exactly
        top_k = max(pair.paragraph_lengths())
        for agg in AnswerAggregation:
            spec = InferenceSpec(aggregation=agg, top_k=top_k, max_answer_length=3)
            fast = predict(probs, pair, spec)
            slow = exhaustive_predict(probs, pair, agg, max_answer_length=3)
            if fast != slow:
                ok = False
                detail = f"{fast.answer!r} {fast.score!r} vs {slow.answer!r} {slow.score!r}"
                break
    return CheckResult(
        "top-k at k = paragraph length equals exhaustive decoding, bitwise", ok, detail
    )


def _check_metric_fixtures(rng, trials) -> CheckResult:
    checks = [
        abs(token_f1("mount helicon", ["in the spring at mount helicon"]) - 0.5) < 1e-12,
        abs(rouge_l("mount helicon", "at mount helicon") - 0.8) < 1e-12,
        abs(rouge_l("at mount helicon", "mount helicon") - 0.8) < 1e-12,
        rouge_l("alpha", "beta") == 0.0,
    ]
    return CheckResult("metric fixtures", all(checks))


def _check_values_nonpositive(rng, trials) -> CheckResult:
    worst = max([0.0, *chain.from_iterable(_trial_values(rng, trials, ALL_CELLS))])
    return CheckResult("log likelihoods are non-positive", worst < 1e-9, f"max {worst:.2e}")


def run_all(seed: int = 0, trials: int = 100) -> list[CheckResult]:
    """Run every self-check with a fresh generator per check."""
    suite: list[tuple[Callable, int]] = [
        (_check_normalization, trials),
        (_check_h1_granularity, trials),
        (_check_position_bound, trials),
        (_check_mml_bound, trials),
        (_check_gradients, max(2, trials // 25)),
        (_check_inference_oracle, trials),
        (_check_metric_fixtures, 1),
        (_check_values_nonpositive, trials),
    ]
    results = []
    for index, (check, budget) in enumerate(suite):
        rng = np.random.default_rng(seed + index * 9973)
        results.append(check(rng, budget))
    return results
