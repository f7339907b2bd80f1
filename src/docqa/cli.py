"""Command-line interface: label, train, eval, grid, simulate, check."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .corpus import (
    DEFAULT_MAX_PARAGRAPHS,
    DEFAULT_MAX_TOKENS,
    load_dataset,
    save_dataset,
)
from .diagnostics import run_all
from .inference import (
    DEFAULT_MAX_ANSWER_LENGTH,
    DEFAULT_TOP_K,
    AnswerAggregation,
    InferenceSpec,
)
from .labeling import (
    DEFAULT_MAX_SPAN_LENGTH,
    DEFAULT_ROUGE_THRESHOLD,
    find_consistent_spans_exact,
    find_consistent_spans_rouge,
    load_labels,
    save_labels,
)
from .metrics import (
    DEFAULT_ANSWER_THRESHOLD,
    DEFAULT_SPAN_THRESHOLD,
    partition_analysis,
    summarize,
)
from .model import Checkpoint, Vocabulary
from .objectives import ObjectiveSpecError, parse_combo
from .probability import SpaceKind
from .synthlab import (
    NoiseProfile,
    decode_corpus,
    dev_profile,
    generate,
    inference_space,
    load_predictions,
    load_truth,
    run_grid,
    save_predictions,
    save_table,
    save_truth,
    score_answers,
)
from .training import TrainConfig, pretrain_clean, train

logger = logging.getLogger("docqa")


class UsageError(ValueError):
    """Bad flags or flag combinations; maps to exit status 2."""


def _int_at_least(low: int, kind: str, what: str):
    """An argparse type for an integer of at least low; errors name what it counts."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be a {kind} integer, got {text!r}")
        return value

    return parse


def _positive_int(what: str):
    return _int_at_least(1, "positive", what)


_count = _positive_int("value")
_seed = _int_at_least(0, "non-negative", "seed")


def _seed_list(text: str) -> list[int]:
    """An argparse type for comma-separated seeds, at least one."""
    seeds = [_seed(s) for s in text.split(",") if s.strip()]
    if not seeds:
        raise argparse.ArgumentTypeError(f"need at least one seed, got {text!r}")
    return seeds


def _threshold(text: str) -> float:
    """An argparse type for a similarity threshold in [0, 1]."""
    try:
        if 0.0 <= (value := float(text)) <= 1.0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"threshold must lie in [0, 1], got {text!r}")


def _add_loader_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-paragraphs", type=_count, default=DEFAULT_MAX_PARAGRAPHS)
    parser.add_argument("--max-tokens", type=_count, default=DEFAULT_MAX_TOKENS)


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    """The options train and grid share, with TrainConfig's defaults."""
    defaults = TrainConfig()
    parser.add_argument("--lr", type=float, default=defaults.learning_rate)
    parser.add_argument("--epochs", type=_count, default=defaults.epochs)
    parser.add_argument("--batch-size", type=_count, default=defaults.batch_size)
    parser.add_argument("--dim", type=_count, default=defaults.embedding_dim)


def _training_settings(args) -> dict:
    """The TrainConfig keywords of the flags _add_training_flags adds."""
    return dict(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        embedding_dim=args.dim,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docqa",
        description="Distantly supervised extractive QA toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_label = sub.add_parser("label", help="write weak span labels for a dataset")
    p_label.add_argument("data", help="dataset JSONL path")
    p_label.add_argument("--out", required=True, help="label JSONL output path")
    p_label.add_argument("--matcher", choices=("exact", "rouge"), default="exact")
    p_label.add_argument(
        "--threshold", type=_threshold, default=DEFAULT_ROUGE_THRESHOLD,
        help="similarity threshold for the rouge matcher; a span of similarity 0 is"
        " never kept, so 0 keeps exactly the spans of positive similarity",
    )
    p_label.add_argument("--max-span-length", type=_count, default=DEFAULT_MAX_SPAN_LENGTH)
    _add_loader_flags(p_label)
    p_label.set_defaults(func=cmd_label)

    p_train = sub.add_parser("train", help="train a scorer under an objective mix")
    p_train.add_argument("data", help="dataset JSONL path")
    p_train.add_argument("--labels", help="label JSONL path (default: exact matcher)")
    p_train.add_argument(
        "--objective",
        action="append",
        default=None,
        help="objective spec such as H2-P-span-mml; repeat or join with +",
    )
    p_train.add_argument("--weights", help="comma-separated objective weights")
    _add_training_flags(p_train)
    p_train.add_argument("--momentum", type=float, default=0.0)
    p_train.add_argument(
        "--hardem-ramp",
        action="store_true",
        help="anneal maximizing objectives from soft to hard",
    )
    p_train.add_argument("--pretrain", help="cleanly labeled dataset for a warm start")
    p_train.add_argument("--pretrain-labels", help="labels for the warm-start dataset")
    p_train.add_argument("--pretrain-epochs", type=_count, default=2)
    p_train.add_argument("--max-span-length", type=_count, default=DEFAULT_MAX_SPAN_LENGTH)
    p_train.add_argument("--seed", type=_seed, default=0, help="random seed")
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    _add_loader_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="decode answers and score them")
    p_eval.add_argument("data", help="dataset JSONL path")
    p_eval.add_argument("--ckpt", help="checkpoint to decode with")
    p_eval.add_argument("--pred", help="existing predictions JSONL to score instead")
    p_eval.add_argument("--infer", choices=("sum", "max"), default="sum")
    p_eval.add_argument("--space", choices=("P", "D", "auto"), default="auto")
    p_eval.add_argument("--top-k", type=_count, default=DEFAULT_TOP_K)
    p_eval.add_argument("--max-answer-length", type=_count, default=DEFAULT_MAX_ANSWER_LENGTH)
    p_eval.add_argument("--pred-out", help="write per-example predictions JSONL here")
    p_eval.add_argument("--out", help="metrics report JSON path (default stdout)")
    p_eval.add_argument("--truth", help="synthetic truth JSONL to score against")
    p_eval.add_argument(
        "--partition",
        action="store_true",
        help="break metrics out by answer-set size and span count",
    )
    p_eval.add_argument("--labels", help="labels for --partition (default: exact matcher)")
    p_eval.add_argument(
        "--answer-threshold",
        type=_int_at_least(0, "non-negative", "answer threshold"),
        default=DEFAULT_ANSWER_THRESHOLD,
    )
    p_eval.add_argument(
        "--span-threshold",
        type=_int_at_least(0, "non-negative", "span threshold"),
        default=DEFAULT_SPAN_THRESHOLD,
    )
    _add_loader_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_grid = sub.add_parser("grid", help="train and score a grid of objectives")
    p_grid.add_argument("--data", help="directory produced by simulate")
    p_grid.add_argument("--profile", help="noise profile JSON to generate from")
    p_grid.add_argument(
        "--specs", required=True, help="comma-separated objective combos"
    )
    p_grid.add_argument("--seeds", type=_seed_list, default="0", help="comma-separated seeds")
    p_grid.add_argument("--infer", choices=("both", "sum", "max"), default="both")
    _add_training_flags(p_grid)
    # A string default goes through its type at parse time, so a bad
    # DOCQA_JOBS is reported as a usage error like a bad --jobs.
    p_grid.add_argument(
        "--jobs",
        type=_positive_int("worker count (--jobs or DOCQA_JOBS)"),
        default=os.environ.get("DOCQA_JOBS", "1"),
        help="worker processes for grid cells (env DOCQA_JOBS)",
    )
    p_grid.add_argument("--out", required=True, help="table path (.json or .csv)")
    p_grid.set_defaults(func=cmd_grid)

    p_sim = sub.add_parser("simulate", help="generate a synthetic corpus")
    p_sim.add_argument("--profile", help="noise profile JSON path")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=_seed, help="random seed (default: the profile's)")
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check", help="run the randomized self-check suite")
    p_check.add_argument("--trials", type=_positive_int("trial count"), default=100)
    p_check.add_argument("--seed", type=_seed, default=0, help="random seed")
    p_check.set_defaults(func=cmd_check)

    return parser


def _load_pairs(args):
    return load_dataset(
        args.data, max_paragraphs=args.max_paragraphs, max_tokens=args.max_tokens
    )


def _labels_for(pairs, path, max_span_length):
    if path:
        return load_labels(pairs, path)
    return [find_consistent_spans_exact(p, max_span_length) for p in pairs]


def cmd_label(args) -> int:
    pairs = _load_pairs(args)
    if args.matcher == "exact":
        labels = _labels_for(pairs, None, args.max_span_length)
    else:
        labels = [
            find_consistent_spans_rouge(p, args.max_span_length, args.threshold)
            for p in pairs
        ]
    save_labels(pairs, labels, args.out)
    positive = sum(1 for l in labels if l.total_spans)
    logger.info(
        "labeled %d pairs, %d with at least one span, %d spans total",
        len(pairs),
        positive,
        sum(l.total_spans for l in labels),
    )
    return 0


def _train_config(args) -> TrainConfig:
    combos = args.objective or ["H2-P-span-mml"]
    specs = [spec for combo in combos for spec in parse_combo(combo)]
    if args.weights:
        weights = tuple(float(w) for w in args.weights.split(","))
    else:
        weights = tuple(1.0 for _ in specs)
    return TrainConfig(
        objectives=tuple(str(s) for s in specs),
        weights=weights,
        seed=args.seed,
        momentum=args.momentum,
        hardem_temperature_ramp=args.hardem_ramp,
        pretrain_path=args.pretrain,
        pretrain_epochs=args.pretrain_epochs,
        **_training_settings(args),
    )


def cmd_train(args) -> int:
    if args.pretrain_labels and not args.pretrain:
        raise UsageError("--pretrain-labels needs --pretrain")
    try:
        config = _train_config(args)
    except (ObjectiveSpecError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    pairs = _load_pairs(args)
    labels = _labels_for(pairs, args.labels, args.max_span_length)
    logger.info("config fingerprint %s, seed %d", config.fingerprint(), config.seed)
    init = None
    if config.pretrain_path:
        clean_pairs = load_dataset(
            config.pretrain_path,
            max_paragraphs=args.max_paragraphs,
            max_tokens=args.max_tokens,
        )
        clean_labels = _labels_for(clean_pairs, args.pretrain_labels, args.max_span_length)
        vocab = Vocabulary.from_pairs(list(clean_pairs) + list(pairs))
        init = pretrain_clean(config, clean_pairs, clean_labels, vocab=vocab)
        logger.info("warm start trained on %d clean pairs", len(clean_pairs))
    checkpoint = train(config, pairs, labels, init=init)
    checkpoint.save(args.out)
    values = checkpoint.history.get("objective_values", [])
    logger.info(
        "trained %d epochs, final objective %s, wrote %s",
        config.epochs,
        f"{values[-1]:.4f}" if values else "n/a",
        args.out,
    )
    return 0


def _eval_space(args, checkpoint) -> SpaceKind:
    """--space, or under auto the space the checkpoint's objectives decode in.

    A history whose objectives are not a list of valid specs is a fault of
    the checkpoint file, not a usage error.
    """
    if args.space != "auto":
        return SpaceKind.parse(args.space)
    objectives = checkpoint.history.get("objectives")
    if not objectives:
        return SpaceKind.PARAGRAPH
    if not isinstance(objectives, list):
        raise ValueError(f"{args.ckpt}: history 'objectives' is not a list")
    try:
        return inference_space("+".join(objectives))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{args.ckpt}: {exc}") from None


def cmd_eval(args) -> int:
    if bool(args.ckpt) == bool(args.pred):
        raise UsageError("exactly one of --ckpt and --pred is required")
    if args.labels and not args.partition:
        raise UsageError("--labels needs --partition")
    pairs = _load_pairs(args)
    if args.truth:
        truths = load_truth(pairs, args.truth)
        golds = [t.gold_strings() for t in truths]
    else:
        golds = [set(p.answers.normalized) for p in pairs]
    if args.ckpt:
        checkpoint = Checkpoint.load(args.ckpt)
        space = _eval_space(args, checkpoint)
        spec = InferenceSpec(
            aggregation=AnswerAggregation.parse(args.infer),
            top_k=args.top_k,
            max_answer_length=args.max_answer_length,
        )
        decoded = decode_corpus(checkpoint, pairs, [spec], space)[0]
        predictions = {pair.id: p for pair, p in zip(pairs, decoded)}
        logger.info("decoded %d pairs in space %s", len(pairs), space.value)
    else:
        found = load_predictions(args.pred)
        predictions = {pair.id: found.get(pair.id, ("", float("-inf"))) for pair in pairs}
    if args.pred_out:
        save_predictions(predictions, args.pred_out)
    answers = [answer for answer, _ in predictions.values()]
    per_example = score_answers(answers, golds)
    payload = {"aggregates": summarize(per_example), "count": len(answers)}
    if args.partition:
        labels = _labels_for(pairs, args.labels, DEFAULT_MAX_SPAN_LENGTH)
        payload["subsets"] = partition_analysis(
            per_example,
            [(len(p.answers), l.total_spans) for p, l in zip(pairs, labels)],
            answer_threshold=args.answer_threshold,
            span_threshold=args.span_threshold,
        )
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _load_profile(path) -> NoiseProfile:
    try:
        return NoiseProfile.from_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _dev_split(profile: NoiseProfile) -> tuple[list, list, list]:
    """generate's held-out split of a profile, empty when the profile asks for
    no dev documents."""
    if not profile.dev_documents:
        return [], [], []
    return generate(dev_profile(profile), id_prefix="dev")


def cmd_grid(args) -> int:
    if bool(args.data) == bool(args.profile):
        raise UsageError("exactly one of --data and --profile is required")
    combos = [c.strip() for c in args.specs.split(",") if c.strip()]
    if not combos:
        raise UsageError("need at least one spec")
    for combo in combos:
        parse_combo(combo)  # an ObjectiveSpecError is a usage error
    try:
        config = TrainConfig(**_training_settings(args))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.data:
        root = Path(args.data)
        train_pairs = load_dataset(root / "train.jsonl")
        train_labels = load_labels(train_pairs, root / "labels_train.jsonl")
        train_truth = load_truth(train_pairs, root / "truth_train.jsonl")
        dev_pairs = load_dataset(root / "dev.jsonl")
        dev_truth = load_truth(dev_pairs, root / "truth_dev.jsonl")
    else:
        profile = _load_profile(args.profile)
        train_pairs, train_labels, train_truth = generate(profile, id_prefix="train")
        dev_pairs, _, dev_truth = _dev_split(profile)
    if args.infer == "both":
        inference = [
            InferenceSpec(aggregation=AnswerAggregation.SUM),
            InferenceSpec(aggregation=AnswerAggregation.MAX),
        ]
    else:
        inference = [InferenceSpec(aggregation=AnswerAggregation.parse(args.infer))]
    logger.info(
        "grid: %d combos x %d seeds, fingerprint %s",
        len(combos),
        len(args.seeds),
        config.fingerprint(),
    )
    rows = run_grid(
        train_pairs,
        train_labels,
        train_truth,
        combos,
        inference,
        args.seeds,
        dev_pairs=dev_pairs,
        dev_truths=dev_truth,
        config=config,
        jobs=args.jobs,
    )
    save_table(rows, args.out)
    means: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        means.setdefault((row["objective"], row["inference"]), []).append(row["em"])
    for (objective, inference_name), ems in sorted(means.items()):
        print(
            f"{objective:<28} {inference_name:<4} "
            f"mean EM {sum(ems) / len(ems):6.2f} over {len(ems)} seeds"
        )
    logger.info("wrote %d rows to %s", len(rows), args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.profile:
        profile = _load_profile(args.profile)
    else:
        profile = NoiseProfile()
    if args.seed is not None:
        profile = replace(profile, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_pairs, train_labels, train_truth = generate(profile, id_prefix="train")
    dev_pairs, dev_labels, dev_truth = _dev_split(profile)
    save_dataset(train_pairs, out / "train.jsonl")
    save_labels(train_pairs, train_labels, out / "labels_train.jsonl")
    save_truth(train_pairs, train_truth, out / "truth_train.jsonl")
    save_dataset(dev_pairs, out / "dev.jsonl")
    save_labels(dev_pairs, dev_labels, out / "labels_dev.jsonl")
    save_truth(dev_pairs, dev_truth, out / "truth_dev.jsonl")
    (out / "profile.json").write_text(profile.to_json() + "\n", encoding="utf-8")
    positive = alias_only = 0
    for labels, truth in zip(train_labels, train_truth):
        labeled = {s.paragraph for s in labels.spans}
        positive += len(labeled)
        alias_only += len(labeled - {s.paragraph for s in truth.correct_spans})
    fraction = alias_only / positive if positive else 0.0
    logger.info(
        "wrote %d train / %d dev documents to %s", len(train_pairs), len(dev_pairs), out
    )
    logger.info(
        "%d positive paragraphs, %.1f%% alias-only (target %.1f%%)",
        positive,
        100.0 * fraction,
        100.0 * profile.alias_rate,
    )
    return 0


def cmd_check(args) -> int:
    results = run_all(seed=args.seed, trials=args.trials)
    for result in results:
        status = "ok  " if result.ok else "FAIL"
        detail = f"  ({result.detail})" if result.detail else ""
        print(f"{status} {result.name}{detail}")
    failed = sum(1 for r in results if not r.ok)
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ObjectiveSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
