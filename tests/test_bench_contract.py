"""The docqa names that the benchmark under bench/ reads still exist.

bench/ lives outside the package, so removing a name it reads would fail
only a benchmark run.  These tests install and remove the benchmark's tracer,
which looks up every traced name, and run its digest and probe helpers on a
corpus of 6 training and 4 dev documents.  Nothing is written to disk.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from docqa import labeling, model, training

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import pipeline
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return pipeline, tracing, workloads


def test_tracer_finds_every_traced_name(bench):
    _, tracing, _ = bench
    exact = labeling.find_consistent_spans_exact
    id_of = model.Vocabulary.id_of
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert labeling.find_consistent_spans_exact is not exact
    finally:
        tracer.uninstall()
    assert labeling.find_consistent_spans_exact is exact
    assert model.Vocabulary.id_of is id_of


def test_digests_and_probes_run_on_a_small_corpus(bench):
    pipeline, _, workloads = bench
    alias = workloads.WORKLOADS["alias-train"]
    workload = dataclasses.replace(
        alias, profile={**alias.profile, "documents": 6, "dev_documents": 4}, probe_documents=2
    )
    data = pipeline.generate_corpora(workload, seed=0)
    assert (len(data.train_pairs), len(data.dev_pairs)) == (6, 4)
    assert data.digest() == pipeline.generate_corpora(workload, seed=0).digest()
    properties = pipeline.input_properties(data)
    assert (properties["train_documents"], properties["dev_documents"]) == (6, 4)
    config = training.TrainConfig(objectives=workload.cells[0].objectives, epochs=1)
    checkpoint = training.train(config, data.train_pairs, data.train_labels)
    assert len(pipeline.checkpoint_digest(checkpoint)) == 16
    probe = pipeline.probe_decoders(workload, data, checkpoint)
    assert probe["probe_documents"] == 2
    assert 0.0 <= probe["topk_changes_answer_frac"] <= 1.0
