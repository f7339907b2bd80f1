"""The benchmark's workloads: one synthetic regime each, weighting the stages differently.

Every workload runs the same stages (generate, JSONL round trip, label, train,
decode and score, a small in-process grid), so every layer is measured on
every workload; the sizes decide which layer dominates.  A pass takes a few
seconds on a 2-CPU machine with numpy 2.4 and scipy 1.17, so a run of the
default length makes several passes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    """One trained model: an objective mix with its weights."""

    objectives: tuple[str, ...]
    weights: tuple[float, ...] = (1.0,)

    @property
    def name(self) -> str:
        return "+".join(self.objectives)


@dataclass(frozen=True)
class Workload:
    name: str
    # NoiseProfile fields other than the seed, which comes from --seed.
    profile: dict
    # The first cell is the headline model: its dev predictions are scored.
    cells: tuple[Cell, ...]
    epochs: int
    learning_rate: float
    rouge_documents: int
    grid_combos: tuple[str, ...]
    grid_seeds: tuple[int, ...]
    grid_train_documents: int
    grid_dev_documents: int
    grid_epochs: int
    # Passes cycle through this many slices of the dev split; EM covers all of them.
    dev_slices: int = 3
    # Each pass decodes its dev slice this many times, for more per-document latency samples.
    decode_repeats: int = 1
    # Dev documents sampled for the gate and for the exhaustive-decoder probe.
    gate_documents: int = 12
    probe_documents: int = 8


ALIAS_PROFILE = dict(
    vocab_size=400,
    paragraphs_per_document=4,
    tokens_per_paragraph=40,
    alias_rate=0.3,
    distractor_rate=0.25,
    multi_answer_rate=0.2,
)

WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance alias regime and the paper's headline comparison.
        # Training dominates (model, probability, objectives, training); the
        # dev split is decoded a slice per pass, so inference stays smaller.
        Workload(
            name="alias-train",
            profile=dict(ALIAS_PROFILE, documents=160, dev_documents=144),
            dev_slices=4,
            cells=(
                Cell(("H3-D-pos-mml",)),
                Cell(("H2-P-pos-mml",)),
                Cell(("H2-P-pos-mml", "H3-D-pos-mml"), (0.5, 0.5)),
                Cell(("H2-P-span-hardem",)),
            ),
            epochs=2,
            learning_rate=0.5,
            rouge_documents=4,
            grid_combos=("H2-P-pos-mml",),
            grid_seeds=(0,),
            grid_train_documents=24,
            grid_dev_documents=4,
            grid_epochs=1,
        ),
        # The clean multi-mention regime of the sum-vs-max study: answers
        # repeat, so string pooling in inference dominates; one short epoch of
        # one cell keeps training and labeling small.
        Workload(
            name="clean-decode",
            profile=dict(
                vocab_size=800,
                paragraphs_per_document=4,
                tokens_per_paragraph=40,
                question_length=2,
                alias_rate=0.0,
                distractor_rate=0.35,
                multi_answer_rate=0.3,
                mention_counts=((2, 0.4), (3, 0.4), (4, 0.2)),
                documents=300,
                dev_documents=240,
            ),
            dev_slices=4,
            cells=(Cell(("H2-P-pos-mml",)),),
            epochs=1,
            learning_rate=0.3,
            rouge_documents=2,
            grid_combos=("H3-D-pos-mml",),
            grid_seeds=(0,),
            grid_train_documents=24,
            grid_dev_documents=4,
            grid_epochs=1,
        ),
        # The loader's maximum document, 8 paragraphs of 400 tokens: exact and
        # rouge labeling and the JSONL round trip dominate.  top_k=20 covers 5%
        # of a paragraph here instead of half, so inference is exercised the
        # opposite way from clean-decode.  A small vocabulary lets a brief
        # training run learn the task.  Its dev slices are short, so each is
        # decoded six times per pass for enough per-document latencies.
        Workload(
            name="long-doc",
            profile=dict(
                vocab_size=60,
                paragraphs_per_document=8,
                tokens_per_paragraph=400,
                alias_rate=0.0,
                multi_answer_rate=0.2,
                documents=24,
                dev_documents=36,
            ),
            cells=(Cell(("H2-P-pos-mml",)),),
            epochs=3,
            learning_rate=0.5,
            rouge_documents=4,
            grid_combos=("H3-D-pos-mml",),
            grid_seeds=(0,),
            grid_train_documents=4,
            grid_dev_documents=2,
            grid_epochs=1,
            decode_repeats=6,
            gate_documents=4,
            probe_documents=1,
        ),
    )
}
