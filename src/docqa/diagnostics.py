"""Randomized self-checks of the core algebra: the one implementation of each
invariant, run by the check subcommand and called by the tests."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, product
from typing import Callable

import numpy as np

from .corpus import make_pair
from .inference import (
    AnswerAggregation,
    InferenceError,
    InferenceSpec,
    exhaustive_predict,
    predict,
)
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


def _random_sizes(rng: np.random.Generator, max_paragraphs: int, max_tokens: int) -> list[int]:
    """One to max_paragraphs paragraphs of one to max_tokens tokens each."""
    n_paragraphs = int(rng.integers(1, max_paragraphs + 1))
    return [int(rng.integers(1, max_tokens + 1)) for _ in range(n_paragraphs)]


def _filled_grid(sizes: list[int], draw: Callable[[int], np.ndarray]) -> ScoreGrid:
    """A grid over sizes whose begin and end rows, in turn, are draw(row length)."""
    grid = ScoreGrid.zeros(sizes)
    for a in grid.begin + grid.end:
        a[:] = draw(a.shape[0])
    return grid


def random_instance(
    rng: np.random.Generator, max_tokens: int = 6
) -> tuple[ScoreGrid, ConsistentLabelSet]:
    """A random score grid with a random consistent label set over it.

    The grid has one to three paragraphs of one to max_tokens tokens, with
    scores drawn normal with scale 3.  Each paragraph draws zero to three
    spans of up to three tokens; an instance that drew none gets the span
    (0, 0, 0) without a further draw, so every instance has a positive span.
    """
    token_counts = _random_sizes(rng, 3, max_tokens)
    grid = _filled_grid(token_counts, lambda n: rng.normal(0.0, 3.0, n))
    chosen = set()
    for k, n in enumerate(token_counts):
        for _ in range(int(rng.integers(0, 4))):
            i = int(rng.integers(0, n))
            j = int(rng.integers(i, min(i + 3, n)))
            chosen.add((k, i, j))
    if not chosen:
        chosen.add((0, 0, 0))
    spans = [SpanLabel(k, i, j, matched_string="x") for k, i, j in chosen]
    return grid, ConsistentLabelSet(len(token_counts), spans)


RAW_TOKENS = ["rome", "pisa", "Rome.", "lake", ",", "--", "The", "an", "shore"]


def random_scored_pair(rng: np.random.Generator, max_tokens: int = 12):
    """A document of raw tokens plus a random score grid over it.

    The tokens come from RAW_TOKENS, so strings repeat and spans normalize to
    "" or to article-stripped variants.  Each grid row is either integers in
    [-2, 2], so ranks tie, or normal with scale 2.
    """
    counts = _random_sizes(rng, 3, max_tokens)
    paragraphs = [
        [RAW_TOKENS[i] for i in rng.integers(0, len(RAW_TOKENS), n)] for n in counts
    ]
    pair = make_pair("f", "q", paragraphs, ["rome"])
    grid = _filled_grid(
        counts,
        lambda n: rng.integers(-2, 3, n) if rng.random() < 0.5 else rng.normal(0.0, 2.0, n),
    )
    return pair, grid


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check_normalization(rng, trials) -> CheckResult:
    """Each trial draws a normal grid with scale 1e4 and a uniform one on
    [-1e4, 1e4]; in both spaces every normalization unit must sum to one."""
    worst = 0.0
    for _ in range(trials):
        grids = (
            _filled_grid(_random_sizes(rng, 3, 6), lambda n: rng.normal(0.0, 1e4, n)),
            _filled_grid(_random_sizes(rng, 3, 6), lambda n: rng.uniform(-1e4, 1e4, n)),
        )
        for grid, space in product(grids, SpaceKind):
            probs = log_partition(grid, space)
            if space is SpaceKind.PARAGRAPH:
                totals = [np.exp(a).sum() for a in probs.begin + probs.end]
            else:
                totals = [
                    sum(np.exp(a[:-1]).sum() for a in half) for half in (probs.begin, probs.end)
                ]
            worst = max(worst, *(abs(total - 1.0) for total in totals))
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


def _both_aggregations(cells):
    return [replace(cell, aggregation=agg) for cell in cells for agg in Aggregation]


def _check_h1_granularity(rng, trials) -> CheckResult:
    """The four all-mentions variants of each space (span or position, mml or
    hard EM) must give one value."""
    # ordered by space, then granularity, then aggregation: one row per space
    specs = _both_aggregations(c for c in ALL_CELLS if c.hypothesis is Hypothesis.ALL_MENTIONS)
    spreads = (
        np.ptp(np.reshape(values, (len(SpaceKind), -1)), axis=1).max()
        for values in _trial_values(rng, trials, specs)
    )
    worst = max([0.0, *spreads])
    return CheckResult("all-mentions variants coincide", worst < 1e-9, f"worst {worst:.2e}")


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
    for cell in _both_aggregations(ALL_CELLS):
        for _ in range(instances_per_cell):
            grid, labels = random_instance(rng, max_tokens=5)
            worst = max(worst, grad_check(cell, grid, labels))
    return CheckResult(
        "analytic gradients match finite differences", worst < 1e-5, f"worst {worst:.2e}"
    )


def _decode(probs, pair, aggregation, top_k, max_answer_length):
    """predict, or exhaustive_predict for top_k=None; None where it raises
    InferenceError."""
    try:
        if top_k is None:
            return exhaustive_predict(probs, pair, aggregation, max_answer_length)
        return predict(probs, pair, InferenceSpec(aggregation, top_k, max_answer_length))
    except InferenceError:
        return None


def _check_inference_oracle(rng, trials) -> CheckResult:
    """In both spaces, top-k decoding at k = the longest paragraph equals
    exhaustive decoding bitwise, or both raise InferenceError, and the MAX
    score never falls as k grows."""
    mismatches = decreases = 0
    for _ in range(trials):
        pair, grid = random_scored_pair(rng, max_tokens=30)
        length = int(rng.integers(1, 9))
        # k = the longest paragraph keeps every position: the smallest k that
        # must reproduce exhaustive decoding exactly
        longest = max(pair.paragraph_lengths())
        for space in SpaceKind:
            probs = log_partition(grid, space)
            for agg in AnswerAggregation:
                fast = _decode(probs, pair, agg, longest, length)
                mismatches += fast != _decode(probs, pair, agg, None, length)
            last = -np.inf
            for k in (1, 2, 4, 8, 16, longest):
                found = _decode(probs, pair, AnswerAggregation.MAX, k, length)
                score = -np.inf if found is None else found.score
                decreases += score < last
                last = score
    return CheckResult(
        "top-k at k = paragraph length equals exhaustive decoding, bitwise",
        mismatches == decreases == 0,
        f"{mismatches} mismatches, {decreases} decreases",
    )


def _check_metric_fixtures(rng, trials) -> CheckResult:
    f1 = token_f1("mount helicon", ["in the spring at mount helicon"])
    forward = rouge_l("mount helicon", "at mount helicon")
    backward = rouge_l("at mount helicon", "mount helicon")
    ok = f1 == 0.5 and forward == backward == 0.8 and rouge_l("alpha", "beta") == 0.0
    return CheckResult("metric fixtures", ok, f"token F1 {f1}, rouge {forward}/{backward}")


def _check_values_nonpositive(rng, trials) -> CheckResult:
    cells = _both_aggregations(ALL_CELLS)
    worst = max([0.0, *chain.from_iterable(_trial_values(rng, trials, cells))])
    return CheckResult("log likelihoods are non-positive", worst <= 1e-12, f"max {worst:.2e}")


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
