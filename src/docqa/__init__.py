"""Distantly supervised extractive QA over multi-paragraph documents."""

from .corpus import (
    AnswerStringSet,
    DatasetParseError,
    DatasetSchemaError,
    DocumentQuestionPair,
    Paragraph,
    Token,
    load_dataset,
    make_pair,
    normalize_string,
    save_dataset,
)
from .inference import (
    AnswerAggregation,
    InferenceError,
    InferenceSpec,
    Prediction,
    exhaustive_predict,
    predict,
    score_strings,
)
from .labeling import (
    ConsistentLabelSet,
    SpanLabel,
    counts,
    find_consistent_spans_exact,
    find_consistent_spans_rouge,
    load_labels,
    save_labels,
)
from .metrics import (
    MetricsReport,
    exact_match,
    partition_analysis,
    rouge_l,
    summarize,
    token_f1,
)
from .model import Checkpoint, ToyScorer, Vocabulary
from .objectives import (
    Aggregation,
    Granularity,
    Hypothesis,
    LabelError,
    LossResult,
    ObjectiveSpec,
    ObjectiveSpecError,
    combine,
    evaluate,
    grad_check,
    parse_combo,
)
from .probability import (
    LogProbGrid,
    ScoreGrid,
    SpaceKind,
    log_partition,
)
from .synthlab import (
    NoiseProfile,
    SyntheticTruth,
    decode_corpus,
    dev_profile,
    evaluate_checkpoint,
    generate,
    inference_space,
    run_grid,
    save_table,
)
from .training import (
    TrainConfig,
    TrainingDivergedError,
    pretrain_clean,
    train,
)

__version__ = "0.1.0"
