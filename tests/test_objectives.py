import math

import numpy as np
import pytest

from docqa.diagnostics import ALL_CELLS, LATENT_CELLS, random_instance
from docqa.labeling import ConsistentLabelSet, SpanLabel
from docqa.objectives import (
    Aggregation,
    Granularity,
    Hypothesis,
    LabelError,
    ObjectiveSpec,
    ObjectiveSpecError,
    combine,
    evaluate,
    grad_check,
    parse_combo,
)
from docqa.probability import ScoreGrid, SpaceKind, log_partition

ALL_SPECS = [
    ObjectiveSpec.parse(f"{hyp}-{space}-{gran}-{agg}")
    for hyp in ("H1", "H2", "H3")
    for space in ("P", "D")
    for gran in ("span", "pos")
    for agg in ("mml", "hardem")
    if not (hyp == "H3" and space == "P")
]


def two_span_case():
    grid = ScoreGrid.zeros([2])
    grid.begin[0][:] = [0.4, -0.2, 0.0]
    grid.end[0][:] = [0.1, 0.3, -0.5]
    labels = ConsistentLabelSet.from_spans(
        1, [SpanLabel(0, 0, 0, "x"), SpanLabel(0, 1, 1, "y")], num_answers=1
    )
    return grid, labels


def probability_tables(grid, space):
    """Plain-exp normalization, independent of the log-domain code."""
    if space is SpaceKind.PARAGRAPH:
        pb = [np.exp(a) / np.exp(a).sum() for a in grid.begin]
        pe = [np.exp(a) / np.exp(a).sum() for a in grid.end]
        return pb, pe
    zb = sum(np.exp(a[:-1]).sum() for a in grid.begin)
    ze = sum(np.exp(a[:-1]).sum() for a in grid.end)
    pb = [np.append(np.exp(a[:-1]) / zb, 0.0) for a in grid.begin]
    pe = [np.append(np.exp(a[:-1]) / ze, 0.0) for a in grid.end]
    return pb, pe


def label_positions(labels, k):
    """The distinct begin offsets and the distinct end offsets of paragraph k's
    spans, each ascending."""
    spans = labels.spans_by_paragraph[k]
    return tuple(sorted({s.begin for s in spans})), tuple(sorted({s.end for s in spans}))


def oracle_value(spec, grid, labels):
    """Evaluate the objective straight from its probability definition."""
    pb, pe = probability_tables(grid, spec.space)
    positive = [k for k in range(grid.n_paragraphs) if labels.spans_by_paragraph[k]]
    reduce = sum if spec.aggregation is Aggregation.MML else max
    total = 0.0
    if spec.hypothesis is Hypothesis.ALL_MENTIONS:
        for k in positive:
            for s in labels.spans_by_paragraph[k]:
                total += math.log(pb[k][s.begin]) + math.log(pe[k][s.end])
    elif spec.hypothesis is Hypothesis.PER_PARAGRAPH:
        for k in positive:
            spans = labels.spans_by_paragraph[k]
            if spec.granularity is Granularity.SPAN:
                total += math.log(reduce(pb[k][s.begin] * pe[k][s.end] for s in spans))
            else:
                begins, ends = label_positions(labels, k)
                total += math.log(reduce(pb[k][i] for i in begins))
                total += math.log(reduce(pe[k][j] for j in ends))
    else:
        if spec.granularity is Granularity.SPAN:
            total += math.log(
                reduce(
                    pb[k][s.begin] * pe[k][s.end]
                    for k in positive
                    for s in labels.spans_by_paragraph[k]
                )
            )
        else:
            total += math.log(
                reduce(pb[k][i] for k in positive for i in label_positions(labels, k)[0])
            )
            total += math.log(
                reduce(pe[k][j] for k in positive for j in label_positions(labels, k)[1])
            )
    if spec.space is SpaceKind.PARAGRAPH:
        for k in range(grid.n_paragraphs):
            if k not in positive:
                null = grid.sizes[k] - 1
                total += math.log(pb[k][null]) + math.log(pe[k][null])
    return total


class TestFixtures:
    """Values frozen from hand computation with the math module."""

    def test_all_mentions_span(self):
        grid, labels = two_span_case()
        for text in ("H1-P-span-mml", "H1-P-pos-mml", "H1-P-span-hardem"):
            result = evaluate(ObjectiveSpec.parse(text), grid, labels)
            np.testing.assert_allclose(result.value, -4.032081402094578, atol=1e-12)

    def test_per_paragraph_span(self):
        grid, labels = two_span_case()
        mml = evaluate(ObjectiveSpec.parse("H2-P-span-mml"), grid, labels)
        np.testing.assert_allclose(mml.value, -1.3030254486473363, atol=1e-12)
        hard = evaluate(ObjectiveSpec.parse("H2-P-span-hardem"), grid, labels)
        np.testing.assert_allclose(hard.value, -1.8160407010472888, atol=1e-12)

    def test_per_paragraph_position(self):
        grid, labels = two_span_case()
        result = evaluate(ObjectiveSpec.parse("H2-P-pos-mml"), grid, labels)
        np.testing.assert_allclose(result.value, -0.5804138811798114, atol=1e-12)

    def test_uniform_scores_single_paragraph(self):
        grid = ScoreGrid.zeros([2])
        labels = ConsistentLabelSet.from_spans(1, [SpanLabel(0, 0, 0, "x")], 1)
        result = evaluate(ObjectiveSpec.parse("H1-P-span-mml"), grid, labels)
        np.testing.assert_allclose(result.value, 2 * math.log(1 / 3), atol=1e-12)
        doc = evaluate(ObjectiveSpec.parse("H1-D-span-mml"), grid, labels)
        np.testing.assert_allclose(doc.value, 2 * math.log(1 / 2), atol=1e-12)


class TestAgainstOracle:
    def test_every_cell_matches_probability_domain(self):
        rng = np.random.default_rng(31)
        for _ in range(120):
            grid, labels = random_instance(rng, max_tokens=4)
            for spec in ALL_SPECS:
                got = evaluate(spec, grid, labels).value
                want = oracle_value(spec, grid, labels)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=str(spec))

    def test_values_nonpositive(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            grid, labels = random_instance(rng, max_tokens=4)
            for spec in ALL_SPECS:
                assert evaluate(spec, grid, labels).value <= 1e-12


class TestIdentities:
    def test_all_mentions_ignores_granularity_and_aggregation(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            grid, labels = random_instance(rng, max_tokens=4)
            for space in ("P", "D"):
                values = {
                    evaluate(
                        ObjectiveSpec.parse(f"H1-{space}-{g}-{a}"), grid, labels
                    ).value
                    for g in ("span", "pos")
                    for a in ("mml", "hardem")
                }
                assert max(values) - min(values) < 1e-9

    def test_all_mentions_granularity_grads_match(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            grid, labels = random_instance(rng, max_tokens=4)
            span = evaluate(ObjectiveSpec.parse("H1-P-span-mml"), grid, labels)
            pos = evaluate(ObjectiveSpec.parse("H1-P-pos-mml"), grid, labels)
            np.testing.assert_allclose(span.grad.vector, pos.grad.vector, atol=1e-12)
            assert pos.value == span.value

    def test_singleton_spans_collapse_hypotheses(self):
        # With one span per positive paragraph there is nothing latent left.
        rng = np.random.default_rng(35)
        for _ in range(60):
            n_par = int(rng.integers(1, 4))
            sizes = [int(rng.integers(1, 5)) for _ in range(n_par)]
            grid = ScoreGrid.zeros(sizes)
            for arr in grid.begin + grid.end:
                arr[:] = rng.normal(0.0, 2.0, arr.shape)
            spans = []
            for k, n in enumerate(sizes):
                if rng.random() < 0.7:
                    b = int(rng.integers(0, n))
                    spans.append(SpanLabel(k, b, b, "s"))
            if not spans:
                spans = [SpanLabel(0, 0, 0, "s")]
            labels = ConsistentLabelSet.from_spans(n_par, spans, 1)
            h1 = evaluate(ObjectiveSpec.parse("H1-P-span-mml"), grid, labels)
            for text in ("H2-P-span-mml", "H2-P-span-hardem", "H2-P-pos-mml"):
                other = evaluate(ObjectiveSpec.parse(text), grid, labels)
                np.testing.assert_allclose(other.value, h1.value, atol=1e-9)
                np.testing.assert_allclose(
                    other.grad.vector, h1.grad.vector, atol=1e-9
                )

    def test_marginal_dominates_maximum(self):
        rng = np.random.default_rng(36)
        for _ in range(150):
            grid, labels = random_instance(rng, max_tokens=4)
            for text in ("H2-P", "H2-D", "H3-D"):
                for gran in ("span", "pos"):
                    soft = evaluate(
                        ObjectiveSpec.parse(f"{text}-{gran}-mml"), grid, labels
                    ).value
                    hard = evaluate(
                        ObjectiveSpec.parse(f"{text}-{gran}-hardem"), grid, labels
                    ).value
                    assert soft >= hard - 1e-9

    def test_position_marginal_dominates_span_marginal(self):
        rng = np.random.default_rng(37)
        for _ in range(150):
            grid, labels = random_instance(rng, max_tokens=4)
            for text in ("H2-P", "H2-D", "H3-D"):
                span = evaluate(
                    ObjectiveSpec.parse(f"{text}-span-mml"), grid, labels
                ).value
                pos = evaluate(
                    ObjectiveSpec.parse(f"{text}-pos-mml"), grid, labels
                ).value
                assert pos >= span - 1e-9


class TestGradients:
    def test_finite_differences_every_cell(self):
        rng = np.random.default_rng(38)
        for spec in ALL_SPECS:
            worst = 0.0
            for _ in range(3):
                grid, labels = random_instance(rng, max_tokens=4)
                worst = max(worst, grad_check(spec, grid, labels))
            assert worst < 1e-5, f"{spec}: {worst:.2e}"

    def test_tempered_gradients(self):
        rng = np.random.default_rng(39)
        spec = ObjectiveSpec.parse("H2-P-span-hardem")
        for _ in range(5):
            grid, labels = random_instance(rng, max_tokens=4)
            assert grad_check(spec, grid, labels, temperature=0.4) < 1e-5

    def test_gradient_sums_to_zero_in_document_space(self):
        # Shift invariance of the pooled softmax forces a zero-sum gradient.
        rng = np.random.default_rng(40)
        for _ in range(40):
            grid, labels = random_instance(rng, max_tokens=4)
            result = evaluate(ObjectiveSpec.parse("H3-D-span-mml"), grid, labels)
            total_b = sum(a[:-1].sum() for a in result.grad.begin)
            total_e = sum(a[:-1].sum() for a in result.grad.end)
            np.testing.assert_allclose(total_b, 0.0, atol=1e-9)
            np.testing.assert_allclose(total_e, 0.0, atol=1e-9)

    def test_null_entries_untouched_in_document_space(self):
        rng = np.random.default_rng(41)
        grid, labels = random_instance(rng, max_tokens=4)
        result = evaluate(ObjectiveSpec.parse("H2-D-span-mml"), grid, labels)
        for k in range(grid.n_paragraphs):
            assert result.grad.begin[k][-1] == 0.0
            assert result.grad.end[k][-1] == 0.0


class TestNegativeParagraphs:
    def test_null_factor_added_in_paragraph_space(self):
        grid = ScoreGrid.zeros([2, 3])
        grid.begin[0][:] = [0.4, -0.2, 0.0]
        grid.end[0][:] = [0.1, 0.3, -0.5]
        grid.begin[1][:] = [1.0, -1.0, 0.5, 0.2]
        grid.end[1][:] = [0.0, 0.3, -0.7, 1.1]
        labels = ConsistentLabelSet.from_spans(2, [SpanLabel(0, 0, 1, "x")], 1)
        with_neg = evaluate(ObjectiveSpec.parse("H2-P-span-mml"), grid, labels)
        # the negative paragraph multiplies in its null begin and end mass
        null = grid.sizes[1] - 1
        pb = np.exp(grid.begin[1]) / np.exp(grid.begin[1]).sum()
        pe = np.exp(grid.end[1]) / np.exp(grid.end[1]).sum()
        short = ScoreGrid(np.concatenate([grid.begin[0], grid.end[0]]), grid.sizes[:1])
        alone = evaluate(
            ObjectiveSpec.parse("H2-P-span-mml"),
            short,
            ConsistentLabelSet.from_spans(1, [SpanLabel(0, 0, 1, "x")], 1),
        )
        np.testing.assert_allclose(
            with_neg.value,
            alone.value + math.log(pb[null]) + math.log(pe[null]),
            atol=1e-12,
        )

    def test_negative_paragraph_silent_in_document_space(self):
        rng = np.random.default_rng(42)
        grid, labels = random_instance(rng, max_tokens=4)
        spans = labels.all_spans()
        wider = ScoreGrid(
            np.concatenate([*grid.begin, np.zeros(4), *grid.end, np.zeros(4)]),
            grid.sizes + (4,),
        )
        wider_labels = ConsistentLabelSet.from_spans(
            grid.n_paragraphs + 1, list(spans), 1
        )
        base = evaluate(ObjectiveSpec.parse("H2-D-span-mml"), grid, labels)
        wide = evaluate(ObjectiveSpec.parse("H2-D-span-mml"), wider, wider_labels)
        # value shifts because the pooled partition grew, no null factor appears
        assert wide.value < base.value
        assert np.all(wide.grad.begin[-1][-1:] == 0.0)


def committed_slots(text, grid, labels):
    """The begin and end slots, as (paragraph, position), to which an exact
    hard-EM cell gives aggregation weight one, read from its gradient.

    evaluate's gradient is the aggregation weights minus pressure times each
    slot's probability.  Every latent group presses once on its unit: under P
    each paragraph holds one group (its labels' or its null outcome's), under
    D the document is pressed once per group.  Every slot's weight must be
    zero or one.
    """
    spec = ObjectiveSpec.parse(text)
    result = evaluate(spec, grid, labels)
    if spec.space is SpaceKind.DOCUMENT and spec.hypothesis is Hypothesis.PER_PARAGRAPH:
        pressure = len({span.paragraph for span in labels.all_spans()})
    else:
        pressure = 1
    probs = np.exp(log_partition(grid, spec.space).vector)
    weights = result.grad.vector + pressure * probs
    one = np.isclose(weights, 1.0, rtol=0.0, atol=1e-12)
    assert np.all(one | np.isclose(weights, 0.0, rtol=0.0, atol=1e-12)), text
    marks = ScoreGrid(one.astype(float), grid.sizes)

    def ones(side):
        return [(k, int(i)) for k, row in enumerate(side) for i in np.flatnonzero(row)]

    return ones(marks.begin), ones(marks.end)


class TestHardSelection:
    def test_committed_outcome_is_argmax(self):
        grid, labels = two_span_case()
        # span (0, 0) carries more mass than (1, 1) under these scores
        assert committed_slots("H2-P-span-hardem", grid, labels) == ([(0, 0)], [(0, 0)])

    def test_tie_breaks_to_first_listed(self):
        grid = ScoreGrid.zeros([3])
        labels = ConsistentLabelSet.from_spans(
            1, [SpanLabel(0, 0, 0, "x"), SpanLabel(0, 2, 2, "y")], 1
        )
        assert committed_slots("H2-P-span-hardem", grid, labels) == ([(0, 0)], [(0, 0)])

    def test_ties_break_to_lowest_paragraph_and_position(self):
        # Tied maxima lie in different paragraphs and at different positions.
        grid = ScoreGrid.zeros([3, 3])
        grid.begin[0][:] = [0.0, -1.0, 2.0, 0.0]
        grid.end[0][:] = [0.0, -1.0, 1.0, 0.0]
        grid.begin[1][:] = [2.0, 0.0, 0.0, 0.0]
        grid.end[1][:] = [2.0, 0.0, 2.0, 0.0]
        labels = ConsistentLabelSet.from_spans(
            2,
            [
                SpanLabel(0, 1, 1, "x"),
                SpanLabel(0, 2, 2, "x"),
                SpanLabel(1, 0, 0, "x"),
                SpanLabel(1, 0, 2, "x"),
            ],
            1,
        )
        per_paragraph = ([(0, 2), (1, 0)], [(0, 2), (1, 0)])
        expected = {
            "H2-P-span-hardem": per_paragraph,
            "H2-P-pos-hardem": per_paragraph,
            "H2-D-span-hardem": per_paragraph,
            "H2-D-pos-hardem": per_paragraph,
            # spans (1, 0, 0) and (1, 0, 2) tie for the document maximum
            "H3-D-span-hardem": ([(1, 0)], [(1, 0)]),
            # begins (0, 2) and (1, 0) tie, ends (1, 0) and (1, 2) tie
            "H3-D-pos-hardem": ([(0, 2)], [(1, 0)]),
        }
        for text, want in expected.items():
            assert committed_slots(text, grid, labels) == want, text


class TestTemperature:
    def test_unit_temperature_recovers_marginal(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            grid, labels = random_instance(rng, max_tokens=4)
            for text in ("H2-P-span-hardem", "H3-D-pos-hardem"):
                spec = ObjectiveSpec.parse(text)
                tempered = evaluate(spec, grid, labels, temperature=1.0)
                mml = evaluate(
                    ObjectiveSpec(
                        spec.hypothesis, spec.space, spec.granularity, Aggregation.MML
                    ),
                    grid,
                    labels,
                )
                np.testing.assert_allclose(tempered.value, mml.value, atol=1e-9)
                np.testing.assert_allclose(
                    tempered.grad.vector, mml.grad.vector, atol=1e-9
                )

    def test_cold_temperature_approaches_maximum(self):
        rng = np.random.default_rng(44)
        spec = ObjectiveSpec.parse("H2-P-span-hardem")
        for _ in range(30):
            grid, labels = random_instance(rng, max_tokens=4)
            cold = evaluate(spec, grid, labels, temperature=0.01)
            hard = evaluate(spec, grid, labels)
            assert abs(cold.value - hard.value) < 0.05
            assert cold.value >= hard.value - 1e-9

    def test_temperature_ignored_by_marginal(self):
        grid, labels = two_span_case()
        spec = ObjectiveSpec.parse("H2-P-span-mml")
        a = evaluate(spec, grid, labels)
        b = evaluate(spec, grid, labels, temperature=0.3)
        np.testing.assert_allclose(a.value, b.value, atol=1e-12)

    def test_out_of_range_rejected(self):
        grid, labels = two_span_case()
        spec = ObjectiveSpec.parse("H2-P-span-hardem")
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                evaluate(spec, grid, labels, temperature=bad)


class TestCombine:
    def test_weighted_sum(self):
        grid, labels = two_span_case()
        specs = [ObjectiveSpec.parse("H2-P-span-mml"), ObjectiveSpec.parse("H1-P-span-mml")]
        combined = combine(specs, [0.3, 0.7], grid, labels)
        parts = [evaluate(s, grid, labels) for s in specs]
        np.testing.assert_allclose(
            combined.value, 0.3 * parts[0].value + 0.7 * parts[1].value, atol=1e-12
        )
        np.testing.assert_allclose(
            combined.grad.vector,
            0.3 * parts[0].grad.vector + 0.7 * parts[1].grad.vector,
            atol=1e-12,
        )

    def test_validation(self):
        grid, labels = two_span_case()
        spec = ObjectiveSpec.parse("H2-P-span-mml")
        with pytest.raises(ObjectiveSpecError):
            combine([], [], grid, labels)
        with pytest.raises(ObjectiveSpecError):
            combine([spec], [1.0, 2.0], grid, labels)
        with pytest.raises(ObjectiveSpecError):
            combine([spec], [-1.0], grid, labels)
        with pytest.raises(ObjectiveSpecError):
            combine([spec], [float("nan")], grid, labels)


class TestSpecParsing:
    def test_round_trip(self):
        for spec in ALL_SPECS:
            assert ObjectiveSpec.parse(str(spec)) == spec

    def test_case_insensitive(self):
        assert ObjectiveSpec.parse("h2-p-SPAN-MML") == ObjectiveSpec.parse("H2-P-span-mml")

    def test_per_document_needs_document_space(self):
        with pytest.raises(ObjectiveSpecError):
            ObjectiveSpec.parse("H3-P-span-mml")
        with pytest.raises(ObjectiveSpecError):
            ObjectiveSpec(
                Hypothesis.PER_DOCUMENT,
                SpaceKind.PARAGRAPH,
                Granularity.SPAN,
                Aggregation.MML,
            )

    def test_malformed_rejected(self):
        for bad in ("H2-P-span", "H4-P-span-mml", "H2-X-span-mml", "H2-P-word-mml", "H2-P-span-avg", ""):
            with pytest.raises(ObjectiveSpecError):
                ObjectiveSpec.parse(bad)

    def test_diagnostic_cells_in_enum_order(self):
        assert [str(s) for s in ALL_CELLS] == [
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
        ]
        assert [str(s) for s in LATENT_CELLS] == [
            "H2-P-span-mml",
            "H2-P-pos-mml",
            "H2-D-span-mml",
            "H2-D-pos-mml",
            "H3-D-span-mml",
            "H3-D-pos-mml",
        ]

    def test_combo_parsing(self):
        specs = parse_combo("H2-P-span-mml+H3-D-span-mml")
        assert [str(s) for s in specs] == ["H2-P-span-mml", "H3-D-span-mml"]
        with pytest.raises(ObjectiveSpecError):
            parse_combo("")
        with pytest.raises(ObjectiveSpecError):
            parse_combo("+")


class TestLabelValidation:
    def test_document_space_needs_a_span(self):
        grid = ScoreGrid.zeros([2, 2])
        labels = ConsistentLabelSet.from_spans(2, [], 0)
        with pytest.raises(LabelError):
            evaluate(ObjectiveSpec.parse("H2-D-span-mml"), grid, labels)
        # paragraph space happily scores the all-null outcome
        result = evaluate(ObjectiveSpec.parse("H2-P-span-mml"), grid, labels)
        np.testing.assert_allclose(result.value, 4 * math.log(1 / 3), atol=1e-12)

    def test_paragraph_count_mismatch(self):
        grid = ScoreGrid.zeros([2, 2])
        labels = ConsistentLabelSet.from_spans(1, [SpanLabel(0, 0, 0, "x")], 1)
        with pytest.raises(LabelError):
            evaluate(ObjectiveSpec.parse("H2-P-span-mml"), grid, labels)

    def test_span_outside_paragraph(self):
        grid = ScoreGrid.zeros([2])
        labels = ConsistentLabelSet.from_spans(1, [SpanLabel(0, 1, 3, "x")], 1)
        with pytest.raises(LabelError):
            evaluate(ObjectiveSpec.parse("H2-P-span-mml"), grid, labels)
