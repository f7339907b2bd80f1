"""Deterministic call counts of generating, labeling, decoding and training, pinned.

A sys.setprofile counter counts, on the golden profile's corpus, three kinds
of work per generated document, per labeled document, per decoded document
and per training document-epoch:

- "docqa": frames of docqa's own Python functions (generators count each
  resumption);
- "numpy_py": frames of numpy's Python files, its wrappers and dispatchers;
- "c_calls": calls of C functions and methods, numpy's array methods and
  ufunc methods such as np.add.reduce included.  Calling a ufunc itself
  (np.exp(a)) and arithmetic operators are not C calls by this count.

Generating runs synthlab.generate on the golden profile once more, after
the corpora the other stages use are generated.  Labeling runs exact
labeling (labeling.find_consistent_spans_exact at its defaults) on those
train and dev pairs.  Decoding scores a pair,
normalizes its grid in both spaces and predicts
under both aggregations, first on fresh pairs, whose layouts the first call
builds, then on the same pairs laid out.  Training runs one step of a cell
per document on pairs a first epoch laid out: score, combine and backprop,
the body of training's epoch loop.

The counts are exact, so they show "same work, different time" that a
wall clock cannot; they miss vectorized work and bytes.  Every count must
be at most the one in tests/call_counts.json, which records the Python and
numpy versions it was taken under; C-call counts move with the numpy
version, so other versions skip the test.  Regenerate the file with

    PYTHONPATH=src python tests/test_call_counts.py

which prints, for each stage and kind, the pinned count, the new count and
the change per document, then writes the file and prints it; say in
CHANGES.md why the counts moved.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from docqa.inference import AnswerAggregation, InferenceSpec, predict
from docqa.labeling import find_consistent_spans_exact
from docqa.model import ToyScorer, Vocabulary
from docqa.objectives import ObjectiveSpec, combine
from docqa.probability import SpaceKind, log_partition
from docqa.synthlab import NoiseProfile, dev_profile, generate

COUNTS = Path(__file__).parent / "call_counts.json"
PROFILE = Path(__file__).parent / "golden" / "profile.json"
TRAIN_CELLS = ("H2-P-pos-mml", "H3-D-pos-mml")
KINDS = ("docqa", "numpy_py", "c_calls")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


class Counter:
    """Counts frames and C calls while active, by kind (see the module doc)."""

    def __init__(self):
        self.counts = dict.fromkeys(KINDS, 0)

    def __call__(self, frame, event, arg):
        if event == "c_call":
            self.counts["c_calls"] += 1
        elif event == "call":
            path = Path(frame.f_code.co_filename)
            if path.parent.name == "docqa":
                self.counts["docqa"] += 1
            elif "numpy" in path.parts and path.suffix == ".py":
                self.counts["numpy_py"] += 1

    def run(self, work) -> None:
        sys.setprofile(self)
        try:
            work()
        finally:
            sys.setprofile(None)
        self.counts["c_calls"] -= 1  # setprofile(None) itself


def _decode(scorer, pairs, specs):
    def work():
        for pair in pairs:
            grid = scorer.score(pair)
            for space in SpaceKind:
                probs = log_partition(grid, space)
                for spec in specs:
                    predict(probs, pair, spec)

    return work


def _label_exact(pairs):
    def work():
        for pair in pairs:
            find_consistent_spans_exact(pair)

    return work


def _train_steps(scorer, spec, examples):
    def work():
        for encoded, labels in examples:
            grid = scorer.score(encoded)
            loss = combine([spec], [1.0], grid, labels)
            scorer.backprop(encoded, loss.grad)

    return work


def measure() -> dict:
    """Each stage's counts, totals over the documents it covers."""
    profile = NoiseProfile(**json.loads(PROFILE.read_text(encoding="utf-8")))
    train_pairs, train_labels, _ = generate(profile)
    dev_pairs = generate(dev_profile(profile))[0]
    vocab = Vocabulary.from_pairs(train_pairs)
    rng = np.random.default_rng(31)
    scorer = ToyScorer(vocab, rng.normal(0.0, 0.1, (len(vocab), 8)), *rng.normal(0.0, 0.1, (4, 24)))
    specs = [InferenceSpec(aggregation=a) for a in AnswerAggregation]
    stages = {}

    def record(name, documents, work):
        counter = Counter()
        counter.run(work)
        stages[name] = {"documents": documents, **counter.counts}

    record("generate", profile.documents, lambda: generate(profile))
    record("label_exact", len(train_pairs) + len(dev_pairs), _label_exact(train_pairs + dev_pairs))
    record("decode_fresh", len(dev_pairs), _decode(scorer, dev_pairs, specs))
    record("decode_laid_out", len(dev_pairs), _decode(scorer, dev_pairs, specs))
    examples = [
        (vocab.encode(pair), labels)
        for pair, labels in zip(train_pairs, train_labels)
        if labels.spans
    ]
    cells = [ObjectiveSpec.parse(cell) for cell in TRAIN_CELLS]
    for spec in cells:
        _train_steps(scorer, spec, examples)()  # a first epoch lays the pairs out
    for cell, spec in zip(TRAIN_CELLS, cells):
        record(f"train_{cell}", len(examples), _train_steps(scorer, spec, examples))
    return stages


def test_counts_do_not_exceed_the_file():
    pinned = json.loads(COUNTS.read_text(encoding="utf-8"))
    if pinned["versions"] != versions():
        pytest.skip(f"counts pinned under {pinned['versions']}, running {versions()}")
    got = measure()
    assert sorted(got) == sorted(pinned["stages"])
    over = [
        f"{stage} {kind}: {got[stage][kind]} > {pinned['stages'][stage][kind]}"
        for stage in got
        for kind in KINDS
        if got[stage][kind] > pinned["stages"][stage][kind]
    ]
    assert not over, "; ".join(over)
    for stage in got:
        assert got[stage]["documents"] == pinned["stages"][stage]["documents"], stage


def test_counts_repeat_exactly():
    profile = NoiseProfile(**json.loads(PROFILE.read_text(encoding="utf-8")))
    pairs = generate(profile)[0][:4]
    vocab = Vocabulary.from_pairs(pairs)
    rng = np.random.default_rng(5)
    scorer = ToyScorer(vocab, rng.normal(size=(len(vocab), 4)), *rng.normal(size=(4, 12)))
    specs = [InferenceSpec(aggregation=a) for a in AnswerAggregation]
    work = _decode(scorer, pairs, specs)
    work()  # lays the pairs out
    runs = []
    for _ in range(2):
        counter = Counter()
        counter.run(work)
        runs.append(counter.counts)
    assert runs[0] == runs[1]
    assert runs[0]["docqa"] > 0 and runs[0]["c_calls"] > 0


def report(pinned: dict, stages: dict) -> str:
    """One line per stage and kind: the pinned count, the new one, and the
    change per document."""
    lines = []
    for stage, counts in stages.items():
        before = pinned.get(stage, {})
        for kind in KINDS:
            old = before.get(kind)
            change = "new" if old is None else f"{(counts[kind] - old) / counts['documents']:+.2f}/doc"
            lines.append(f"{stage:20s} {kind:9s} {old if old is not None else '-':>6} -> {counts[kind]:>6}  {change}")
    return "\n".join(lines)


if __name__ == "__main__":
    pinned = json.loads(COUNTS.read_text(encoding="utf-8"))["stages"] if COUNTS.exists() else {}
    record = {"versions": versions(), "stages": measure()}
    print(report(pinned, record["stages"]))
    COUNTS.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
