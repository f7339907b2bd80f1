"""Answer-string metrics and the partitioned evaluation report."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .corpus import normalize_string

DEFAULT_SPAN_THRESHOLD = 5
DEFAULT_ANSWER_THRESHOLD = 1


def exact_match(prediction: str, golds: Iterable[str]) -> float:
    """1.0 when the normalized prediction equals any normalized gold string."""
    pred = normalize_string(prediction)
    return float(any(pred == normalize_string(g) for g in golds))


def _f1_bags(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    overlap = Counter(pred_tokens) & Counter(gold_tokens)
    common = sum(overlap.values())
    if common == 0:
        return 0.0
    precision = common / len(pred_tokens)
    recall = common / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def token_f1(prediction: str, golds: Iterable[str]) -> float:
    """Best bag-of-tokens F1 between the prediction and any gold string.

    Token bags come from the normalized forms, so leading articles are gone
    but interior ones still count.
    """
    pred_tokens = normalize_string(prediction).split()
    scores = [_f1_bags(pred_tokens, normalize_string(g).split()) for g in golds]
    return max(scores, default=0.0)


def lcs_row_step(row: Sequence[int], word: str, reference: Sequence[str]) -> list[int]:
    """One step of the longest-common-subsequence dynamic program.

    row[j] is the LCS length of some word sequence against reference[:j];
    the result is the same row for that sequence with word appended.  Rows
    never decrease along j, so a word absent from reference returns a row
    equal to the one given.
    """
    out = [0]
    for j, y in enumerate(reference):
        out.append(row[j] + 1 if word == y else max(row[j + 1], out[j]))
    return out


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # A fold of lcs_row_step over a, from the row of the empty sequence.
    row: Sequence[int] = [0] * (len(b) + 1)
    for x in a:
        row = lcs_row_step(row, x, b)
    return row[-1]


def rouge_f(lcs: int, prediction_length: int, reference_length: int) -> float:
    """The balanced Rouge-L F measure from an LCS length and both lengths."""
    if lcs == 0:
        return 0.0
    precision = lcs / prediction_length
    recall = lcs / reference_length
    return 2 * precision * recall / (precision + recall)


def rouge_l(prediction: str, reference: str) -> float:
    """Longest-common-subsequence F measure over normalized tokens.

    With the balanced F (beta = 1) this reduces to 2*LCS / (|a| + |b|) and is
    symmetric in its arguments.  Returns 0 when either side normalizes to
    nothing.
    """
    a, b = normalize_string(prediction).split(), normalize_string(reference).split()
    return rouge_f(_lcs_length(a, b), len(a), len(b))


@dataclass
class SubsetReport:
    """Metric means over one slice of the evaluation set."""

    size: int
    means: dict[str, float]
    delta: float | None = None


@dataclass
class MetricsReport:
    """Per-system aggregate scores, optionally broken out by subset."""

    per_example: dict[str, tuple[float, ...]]
    aggregates: dict[str, float]
    subsets: dict[str, SubsetReport] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "aggregates": dict(self.aggregates),
            "count": len(next(iter(self.per_example.values()), ())),
        }
        if self.subsets:
            out["subsets"] = {
                name: {"size": s.size, "means": dict(s.means), "delta": s.delta}
                for name, s in self.subsets.items()
            }
        return out


def summarize(per_example: Mapping[str, Sequence[float]]) -> MetricsReport:
    """Mean each system's per-example scores; empty input yields an empty report."""
    columns = {name: tuple(values) for name, values in per_example.items()}
    sizes = {len(v) for v in columns.values()}
    if len(sizes) > 1:
        raise ValueError("all systems must score the same examples")
    aggregates = {}
    for name, values in columns.items():
        if values:
            aggregates[name] = float(sum(values) / len(values))
    return MetricsReport(per_example=columns, aggregates=aggregates)


def _subset_key(
    n_answers: int, n_spans: int, answer_threshold: int, span_threshold: int
) -> str:
    first = "s" if n_answers <= answer_threshold else "l"
    second = "s" if n_spans <= span_threshold else "l"
    return first + second


def partition_analysis(
    per_example: Mapping[str, Sequence[float]],
    labels: Sequence,
    answer_threshold: int = DEFAULT_ANSWER_THRESHOLD,
    span_threshold: int = DEFAULT_SPAN_THRESHOLD,
) -> MetricsReport:
    """Slice scores by answer-set size and consistent-span count.

    labels supplies one (number of answer strings, number of consistent spans)
    pair per example, either as plain tuples or as label-set objects exposing
    num_answers and total_spans.  Subsets are keyed ss, sl, ls, ll where the
    first letter says whether the answer set stayed at or under
    answer_threshold and the second does the same for spans.  With exactly two
    systems each subset also reports the mean difference, second minus first.
    """
    label_counts = [
        item if isinstance(item, tuple) else (item.num_answers, item.total_spans)
        for item in labels
    ]
    report = summarize(per_example)
    columns = report.per_example
    n = len(next(iter(columns.values()), ()))
    if len(label_counts) != n:
        raise ValueError("labels must align with the scored examples")
    names = list(columns)
    subsets: dict[str, SubsetReport] = {}
    for key in ("ss", "sl", "ls", "ll"):
        members = [
            i
            for i, (n_answers, n_spans) in enumerate(label_counts)
            if _subset_key(n_answers, n_spans, answer_threshold, span_threshold) == key
        ]
        if not members:
            subsets[key] = SubsetReport(size=0, means={})
            continue
        means = {
            name: float(sum(columns[name][i] for i in members) / len(members))
            for name in names
        }
        delta = None
        if len(names) == 2:
            delta = means[names[1]] - means[names[0]]
        subsets[key] = SubsetReport(size=len(members), means=means, delta=delta)
    report.subsets = subsets
    return report
