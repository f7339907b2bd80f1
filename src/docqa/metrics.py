"""Answer-string metrics, and their means in points, whole or partitioned."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from .corpus import normalize_string

DEFAULT_SPAN_THRESHOLD = 5
DEFAULT_ANSWER_THRESHOLD = 1


def exact_match(prediction: str, golds: Iterable[str]) -> float:
    """1.0 when the normalized prediction equals any normalized gold string."""
    pred = normalize_string(prediction)
    return float(any(pred == normalize_string(g) for g in golds))


def _f1_bags(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if pred_tokens == gold_tokens:
        return 1.0  # what the formula gives for equal bags, exactly
    if not pred_tokens or not gold_tokens:
        return 0.0
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


def summarize(per_example: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """Each column's mean in points (100 times the mean); 0.0 for an empty column.

    All columns must score the same examples: differing lengths raise
    ValueError.
    """
    if len({len(v) for v in per_example.values()}) > 1:
        raise ValueError("all columns must score the same examples")
    return {
        name: 100.0 * (sum(values) / len(values)) if len(values) else 0.0
        for name, values in per_example.items()
    }


def _subset_key(
    n_answers: int, n_spans: int, answer_threshold: int, span_threshold: int
) -> str:
    first = "s" if n_answers <= answer_threshold else "l"
    second = "s" if n_spans <= span_threshold else "l"
    return first + second


def partition_analysis(
    per_example: Mapping[str, Sequence[float]],
    counts: Sequence[tuple[int, int]],
    answer_threshold: int = DEFAULT_ANSWER_THRESHOLD,
    span_threshold: int = DEFAULT_SPAN_THRESHOLD,
) -> dict[str, dict]:
    """Slice scores by answer-set size and consistent-span count.

    counts supplies one (number of answer strings, number of consistent spans)
    pair per example.  Returns {"size": n, "means": summarize(members)} under
    each of ss, sl, ls, ll, where the first letter says whether the answer set
    stayed at or under answer_threshold and the second does the same for
    spans.  An empty subset has size 0 and means of 0.0.
    """
    if any(len(values) != len(counts) for values in per_example.values()):
        raise ValueError("counts must align with the scored examples")
    members: dict[str, list[int]] = {key: [] for key in ("ss", "sl", "ls", "ll")}
    for i, (n_answers, n_spans) in enumerate(counts):
        members[_subset_key(n_answers, n_spans, answer_threshold, span_threshold)].append(i)
    return {
        key: {
            "size": len(indices),
            "means": summarize(
                {name: [values[i] for i in indices] for name, values in per_example.items()}
            ),
        }
        for key, indices in members.items()
    }
