import io
import json
import logging
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from docqa.cli import build_parser, main
from docqa.corpus import load_dataset
from docqa.diagnostics import CheckResult
from docqa.labeling import load_labels
from docqa.metrics import DEFAULT_ANSWER_THRESHOLD, DEFAULT_SPAN_THRESHOLD
from docqa.model import Checkpoint
from docqa.synthlab import NoiseProfile, _mean_points
from docqa.training import TrainConfig, train


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated corpus plus a trained checkpoint, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    profile = NoiseProfile(
        vocab_size=80,
        documents=40,
        dev_documents=12,
        paragraphs_per_document=3,
        tokens_per_paragraph=24,
        question_length=3,
        alias_rate=0.2,
        seed=5,
    )
    profile_path = root / "profile.json"
    profile_path.write_text(profile.to_json())
    data_dir = root / "corpus"
    assert (
        main(["simulate", "--profile", str(profile_path), "--out", str(data_dir)]) == 0
    )
    ckpt_path = root / "model.ckpt"
    status = main(
        [
            "train",
            str(data_dir / "train.jsonl"),
            "--labels",
            str(data_dir / "labels_train.jsonl"),
            "--objective",
            "H2-P-span-mml",
            "--epochs",
            "2",
            "--out",
            str(ckpt_path),
        ]
    )
    assert status == 0
    return {"root": root, "data": data_dir, "ckpt": ckpt_path, "profile": profile_path}


class TestSimulate:
    def test_writes_expected_files(self, workspace):
        names = {p.name for p in workspace["data"].iterdir()}
        assert names == {
            "train.jsonl",
            "labels_train.jsonl",
            "truth_train.jsonl",
            "dev.jsonl",
            "labels_dev.jsonl",
            "truth_dev.jsonl",
            "profile.json",
        }

    def test_label_file_format(self, workspace):
        lines = (workspace["data"] / "labels_train.jsonl").read_text().splitlines()
        assert len(lines) == 40
        record = json.loads(lines[0])
        assert set(record) == {"id", "spans"}
        for span in record["spans"]:
            assert len(span) == 3

    def test_default_profile_without_profile_flag(self, tmp_path):
        out = tmp_path / "default"
        assert main(["simulate", "--out", str(out), "--seed", "4"]) == 0
        written = NoiseProfile.from_json((out / "profile.json").read_text())
        assert written == NoiseProfile(seed=4)
        assert len((out / "train.jsonl").read_text().splitlines()) == NoiseProfile().documents

    def test_zero_dev_documents_write_an_empty_dev_split(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"documents": 3, "dev_documents": 0}))
        out = tmp_path / "out"
        assert main(["simulate", "--profile", str(profile), "--out", str(out)]) == 0
        assert len((out / "train.jsonl").read_text().splitlines()) == 3
        for name in ("dev.jsonl", "labels_dev.jsonl", "truth_dev.jsonl"):
            assert (out / name).read_text() == ""

    def test_seed_zero_overrides_profile_seed(self, workspace, tmp_path):
        out = tmp_path / "seed0"
        status = main(
            ["simulate", "--profile", str(workspace["profile"]), "--seed", "0", "--out", str(out)]
        )
        assert status == 0
        assert json.loads((out / "profile.json").read_text())["seed"] == 0
        assert (out / "train.jsonl").read_text() != (
            workspace["data"] / "train.jsonl"
        ).read_text()


class TestJobs:
    GRID = ["grid", "--specs", "H2-P-span-mml", "--out", "table.json"]

    def test_zero_jobs_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*self.GRID, "--jobs", "0"])
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_env_jobs_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("DOCQA_JOBS", "x")
        with pytest.raises(SystemExit) as exit_info:
            main(self.GRID)
        assert exit_info.value.code == 2
        assert "DOCQA_JOBS" in capsys.readouterr().err

    def test_env_jobs_is_read(self, monkeypatch):
        monkeypatch.setenv("DOCQA_JOBS", "3")
        assert build_parser().parse_args(self.GRID).jobs == 3

    def test_check_ignores_env_jobs(self, monkeypatch, capsys):
        monkeypatch.setenv("DOCQA_JOBS", "x")
        assert main(["check", "--trials", "1"]) == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--jobs", "2"])
        assert exit_info.value.code == 2


class TestSeeds:
    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        # the relative --out paths below must never land in the working directory
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--seed", "-1", "--trials", "1"],
            ["simulate", "--seed", "-1", "--out", "never"],
            ["train", "data.jsonl", "--seed", "-1", "--out", "never"],
            ["check", "--seed", "x"],
        ],
    )
    def test_bad_seed_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        bad = argv[argv.index("--seed") + 1]
        err = capsys.readouterr().err
        assert f"error: argument --seed: seed must be a non-negative integer, got '{bad}'" in err

    @pytest.mark.parametrize(
        "seeds, fault",
        [
            ("0,-1", "seed must be a non-negative integer, got '-1'"),
            ("1,x", "seed must be a non-negative integer, got 'x'"),
            (" , ", "need at least one seed, got ' , '"),
        ],
    )
    def test_bad_grid_seeds_are_usage_errors(self, seeds, fault, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*TestJobs.GRID, "--seeds", seeds])
        assert exit_info.value.code == 2
        assert f"error: argument --seeds: {fault}" in capsys.readouterr().err

    def test_seeds_parse(self):
        assert build_parser().parse_args(TestJobs.GRID).seeds == [0]
        args = build_parser().parse_args([*TestJobs.GRID, "--seeds", "3, 0,"])
        assert args.seeds == [3, 0]
        assert build_parser().parse_args(["check", "--seed", "0"]).seed == 0


def run(argv):
    """main's exit status, whether argparse exits or main returns."""
    try:
        return main(argv)
    except SystemExit as exit_info:
        return exit_info.code


class TestOptionRanges:
    """Out-of-range options are usage errors that name the option, reported
    before the missing data files every case below points at."""

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    LABEL = ["label", "missing.jsonl", "--out", "labels.jsonl"]
    TRAIN = ["train", "missing.jsonl", "--out", "model.ckpt"]
    EVAL = ["eval", "missing.jsonl", "--ckpt", "missing.ckpt"]
    GRID = ["grid", "--specs", "H2-P-span-mml", "--profile", "missing.json", "--out", "t.json"]

    @pytest.mark.parametrize(
        "argv, option, bad",
        [
            (LABEL, "--max-span-length", "0"),
            (LABEL, "--max-paragraphs", "0"),
            (LABEL, "--max-tokens", "-1"),
            (TRAIN, "--max-tokens", "0"),
            (TRAIN, "--max-paragraphs", "x"),
            (TRAIN, "--max-span-length", "0"),
            (TRAIN, "--pretrain-epochs", "0"),
            (TRAIN, "--epochs", "0"),
            (TRAIN, "--batch-size", "0"),
            (TRAIN, "--dim", "0"),
            (EVAL, "--top-k", "0"),
            (EVAL, "--max-answer-length", "0"),
            (EVAL, "--max-tokens", "0"),
            (GRID, "--epochs", "0"),
            (GRID, "--batch-size", "0"),
            (GRID, "--dim", "0"),
        ],
    )
    def test_non_positive_integer(self, argv, option, bad, capsys):
        assert run([*argv, option, bad]) == 2
        err = capsys.readouterr().err
        assert f"error: argument {option}: value must be a positive integer, got '{bad}'" in err

    @pytest.mark.parametrize("option, what", [
        ("--answer-threshold", "answer threshold"), ("--span-threshold", "span threshold")
    ])
    def test_negative_partition_threshold(self, option, what, capsys):
        assert run([*self.EVAL, option, "-1"]) == 2
        err = capsys.readouterr().err
        assert f"error: argument {option}: {what} must be a non-negative integer, got '-1'" in err

    def test_partition_thresholds_default_to_metrics_and_accept_zero(self):
        args = build_parser().parse_args(self.EVAL)
        assert (args.answer_threshold, args.span_threshold) == (
            DEFAULT_ANSWER_THRESHOLD,
            DEFAULT_SPAN_THRESHOLD,
        )
        zeros = ["--answer-threshold", "0", "--span-threshold", "0"]
        args = build_parser().parse_args([*self.EVAL, *zeros])
        assert (args.answer_threshold, args.span_threshold) == (0, 0)

    @pytest.mark.parametrize("bad", ["2", "-0.1", "nan", "x"])
    def test_threshold_outside_unit_interval(self, bad, capsys):
        assert run([*self.LABEL, "--matcher", "rouge", "--threshold", bad]) == 2
        err = capsys.readouterr().err
        assert f"error: argument --threshold: threshold must lie in [0, 1], got '{bad}'" in err

    @pytest.mark.parametrize(
        "argv, fault",
        [
            ([*TRAIN, "--lr", "nan"], "learning rate must be positive and finite"),
            ([*TRAIN, "--lr", "inf"], "learning rate must be positive and finite"),
            ([*TRAIN, "--weights", "nan"], "weights must be finite and non-negative"),
            ([*TRAIN, "--weights", "-1"], "weights must be finite and non-negative"),
            ([*GRID, "--lr", "nan"], "learning rate must be positive and finite"),
            ([*GRID, "--lr", "0"], "learning rate must be positive and finite"),
            ([*TRAIN, "--pretrain-labels", "clean.jsonl"], "--pretrain-labels needs --pretrain"),
            ([*GRID, "--specs", ","], "need at least one spec"),
        ],
    )
    def test_bad_training_setting(self, argv, fault, capsys):
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {fault}\n"

    def test_eval_labels_need_partition(self, capsys):
        assert run([*self.EVAL, "--labels", "missing.jsonl"]) == 2
        assert capsys.readouterr().err == "error: --labels needs --partition\n"

    @pytest.mark.parametrize("argv", [TRAIN, GRID])
    def test_shared_defaults_are_train_configs(self, argv):
        args = build_parser().parse_args(argv)
        config = TrainConfig(
            learning_rate=args.lr,
            epochs=args.epochs,
            batch_size=args.batch_size,
            embedding_dim=args.dim,
        )
        assert config.fingerprint() == TrainConfig().fingerprint() == "5f0cae4af6829754"


class TestLabel:
    def test_exact_matcher_round_trip(self, workspace, tmp_path):
        out = tmp_path / "labels.jsonl"
        status = main(
            [
                "label",
                str(workspace["data"] / "train.jsonl"),
                "--out",
                str(out),
            ]
        )
        assert status == 0
        assert out.read_text() == (
            workspace["data"] / "labels_train.jsonl"
        ).read_text()

    def test_rouge_matcher_runs(self, workspace, tmp_path):
        out = tmp_path / "labels_rouge.jsonl"
        status = main(
            [
                "label",
                str(workspace["data"] / "train.jsonl"),
                "--matcher",
                "rouge",
                "--threshold",
                "0.6",
                "--out",
                str(out),
            ]
        )
        assert status == 0
        assert len(out.read_text().splitlines()) == 40


class TestTrain:
    def test_checkpoint_records_objectives(self, workspace):
        ckpt = Checkpoint.load(workspace["ckpt"])
        assert ckpt.history["objectives"] == ["H2-P-span-mml"]
        assert len(ckpt.history["objective_values"]) == 2

    def test_invalid_cell_is_usage_error(self, workspace, tmp_path):
        status = main(
            [
                "train",
                str(workspace["data"] / "train.jsonl"),
                "--objective",
                "H3-P-span-mml",
                "--out",
                str(tmp_path / "x.ckpt"),
            ]
        )
        assert status == 2

    def test_bad_weights_are_usage_error(self, workspace, tmp_path):
        status = main(
            [
                "train",
                str(workspace["data"] / "train.jsonl"),
                "--objective",
                "H2-P-span-mml",
                "--weights",
                "1.0,2.0",
                "--out",
                str(tmp_path / "x.ckpt"),
            ]
        )
        assert status == 2

    def _train_argv(self, workspace, out, *extra):
        return [
            "train",
            str(workspace["data"] / "train.jsonl"),
            "--labels",
            str(workspace["data"] / "labels_train.jsonl"),
            "--epochs",
            "1",
            "--out",
            str(out),
            *extra,
        ]

    def test_warm_start_flag(self, workspace, tmp_path):
        # One mention per positive paragraph and no aliases or nested
        # variants: every clean paragraph holds at most one span.
        clean = NoiseProfile(
            vocab_size=80,
            documents=12,
            dev_documents=0,
            paragraphs_per_document=3,
            tokens_per_paragraph=24,
            question_length=3,
            alias_rate=0.0,
            multi_answer_rate=0.0,
            mention_counts=((1, 1.0),),
            seed=9,
        )
        profile_path = tmp_path / "clean.json"
        profile_path.write_text(clean.to_json())
        clean_dir = tmp_path / "clean"
        assert main(["simulate", "--profile", str(profile_path), "--out", str(clean_dir)]) == 0
        warm, cold = tmp_path / "warm.ckpt", tmp_path / "cold.ckpt"
        pretrain = ["--pretrain", str(clean_dir / "train.jsonl"), "--pretrain-epochs", "1"]
        assert main(self._train_argv(workspace, warm, *pretrain)) == 0
        assert main(self._train_argv(workspace, cold)) == 0
        warm_ckpt, cold_ckpt = Checkpoint.load(warm), Checkpoint.load(cold)
        assert warm_ckpt.history["initialized_from"] is not None
        assert cold_ckpt.history["initialized_from"] is None
        assert warm_ckpt.params.keys() == cold_ckpt.params.keys()
        assert not all(np.array_equal(warm_ckpt.params[k], cold_ckpt.params[k]) for k in cold_ckpt.params)

    def test_warm_start_rejects_several_spans_per_paragraph(self, workspace, tmp_path, capsys):
        # The dev split has aliases and several mentions per paragraph.
        argv = self._train_argv(
            workspace, tmp_path / "warm.ckpt", "--pretrain", str(workspace["data"] / "dev.jsonl")
        )
        assert main(argv) == 1
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if not line.startswith("INFO ")]
        assert lines == ["error: clean pretraining expects at most one span per paragraph"]
        assert not (tmp_path / "warm.ckpt").exists()

    def test_divergence_prints_the_error_and_no_numpy_warning(self, workspace, tmp_path, capfd):
        # A fresh process, since pytest would record the warnings in this one.
        # The learning rate overflows the scores after the first update.
        argv = [
            "train",
            str(workspace["data"] / "train.jsonl"),
            "--labels",
            str(workspace["data"] / "labels_train.jsonl"),
            "--lr",
            "1e300",
            "--out",
            str(tmp_path / "x.ckpt"),
        ]
        proc = subprocess.run([sys.executable, "-m", "docqa.cli", *argv], timeout=300)
        assert proc.returncode == 1
        err = capfd.readouterr().err
        assert "Warning" not in err
        lines = [line for line in err.splitlines() if not line.startswith("INFO ")]
        assert len(lines) == 1 and lines[0].startswith("error: non-finite objective at epoch 0")
        assert not (tmp_path / "x.ckpt").exists()


class TestEval:
    def test_report_and_predictions(self, workspace, tmp_path, capsys):
        pred_path = tmp_path / "pred.jsonl"
        report_path = tmp_path / "report.json"
        status = main(
            [
                "eval",
                str(workspace["data"] / "dev.jsonl"),
                "--ckpt",
                str(workspace["ckpt"]),
                "--truth",
                str(workspace["data"] / "truth_dev.jsonl"),
                "--pred-out",
                str(pred_path),
                "--out",
                str(report_path),
            ]
        )
        assert status == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["aggregates"]["em"] <= 100.0
        assert 0.0 <= report["aggregates"]["f1"] <= 100.0
        records = [json.loads(l) for l in pred_path.read_text().splitlines()]
        assert len(records) == 12
        assert set(records[0]) == {"id", "answer", "score"}

    def test_scoring_predictions_file_matches(self, workspace, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        report_a = tmp_path / "a.json"
        report_b = tmp_path / "b.json"
        main(
            [
                "eval",
                str(workspace["data"] / "dev.jsonl"),
                "--ckpt",
                str(workspace["ckpt"]),
                "--truth",
                str(workspace["data"] / "truth_dev.jsonl"),
                "--pred-out",
                str(pred_path),
                "--out",
                str(report_a),
            ]
        )
        status = main(
            [
                "eval",
                str(workspace["data"] / "dev.jsonl"),
                "--pred",
                str(pred_path),
                "--truth",
                str(workspace["data"] / "truth_dev.jsonl"),
                "--out",
                str(report_b),
            ]
        )
        assert status == 0
        assert json.loads(report_a.read_text())["aggregates"] == json.loads(
            report_b.read_text()
        )["aggregates"]

    def test_partition_breakdown(self, workspace, tmp_path):
        report_path = tmp_path / "partition.json"
        status = main(
            [
                "eval",
                str(workspace["data"] / "dev.jsonl"),
                "--ckpt",
                str(workspace["ckpt"]),
                "--labels",
                str(workspace["data"] / "labels_dev.jsonl"),
                "--partition",
                "--out",
                str(report_path),
            ]
        )
        assert status == 0
        report = json.loads(report_path.read_text())
        assert set(report["subsets"]) == {"ss", "sl", "ls", "ll"}
        assert sum(s["size"] for s in report["subsets"].values()) == 12
        for subset in report["subsets"].values():
            assert set(subset) == {"size", "means"}
            assert set(subset["means"]) == {"em", "f1"}

    def test_space_follows_the_checkpoint_unless_given(self, workspace, tmp_path, caplog):
        # the workspace checkpoint is H2-P from the CLI; a library-trained
        # H3-D checkpoint records its objectives too, so auto decodes it in D;
        # a history that lists no objectives decodes in P
        pairs = load_dataset(workspace["data"] / "train.jsonl")
        labels = load_labels(pairs, workspace["data"] / "labels_train.jsonl")
        library = tmp_path / "h3d.ckpt"
        checkpoint = train(TrainConfig(objectives=("H3-D-pos-mml",), epochs=1), pairs, labels)
        checkpoint.save(library)
        unlisted = tmp_path / "unlisted.ckpt"
        replace(checkpoint, history={}).save(unlisted)
        cases = [
            (workspace["ckpt"], "auto", "P"),
            (workspace["ckpt"], "D", "D"),
            (library, "auto", "D"),
            (library, "P", "P"),
            (unlisted, "auto", "P"),
        ]
        for ckpt, flag, expected in cases:
            argv = ["eval", str(workspace["data"] / "dev.jsonl"), "--ckpt", str(ckpt)]
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="docqa"):
                assert main([*argv, "--space", flag, "--out", str(tmp_path / "r.json")]) == 0
            assert f"decoded 12 pairs in space {expected}" in caplog.text, (ckpt, flag)

    def test_needs_exactly_one_source(self, workspace):
        data = str(workspace["data"] / "dev.jsonl")
        assert main(["eval", data]) == 2
        assert (
            main(
                [
                    "eval",
                    data,
                    "--ckpt",
                    str(workspace["ckpt"]),
                    "--pred",
                    "whatever.jsonl",
                ]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "pred_line, points",
        [
            ('{"id": "x", "answer": "", "score": 0}', 0.0),
            ('{"id": "other", "answer": "paris", "score": 0}', 0.0),
            ('{"id": "x", "answer": "The", "score": 0}', 0.0),
            ('{"id": "x", "answer": "Paris", "score": 0}', 100.0),
        ],
        ids=["empty-answer", "missing-id", "article-only", "answer"],
    )
    def test_no_answer_scores_zero(self, tmp_path, capsys, pred_line, points):
        # "The" normalizes to the empty string, which must not match no answer
        data = tmp_path / "data.jsonl"
        record = {"id": "x", "question": "where", "paragraphs": ["paris is here"], "answers": ["The", "paris"]}
        data.write_text(json.dumps(record) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(pred_line + "\n")
        assert main(["eval", str(data), "--pred", str(pred)]) == 0
        assert json.loads(capsys.readouterr().out)["aggregates"] == {"em": points, "f1": points}

    def test_eval_and_grid_mean_points_agree(self, tmp_path, capsys):
        # 100 * (1 / 3) is 33.33333333333333; 100 * 1 / 3 would be 33.333333333333336
        data, pred = tmp_path / "data.jsonl", tmp_path / "pred.jsonl"
        golds, answers = ["rome", "x", "y"], ["rome", "pisa", "lake"]
        data.write_text("".join(
            json.dumps({"id": f"q{i}", "question": "where", "paragraphs": ["rome pisa lake"], "answers": [gold]}) + "\n"
            for i, gold in enumerate(golds)
        ))
        pred.write_text("".join(
            json.dumps({"id": f"q{i}", "answer": answer, "score": 0}) + "\n" for i, answer in enumerate(answers)
        ))
        assert main(["eval", str(data), "--pred", str(pred)]) == 0
        reported = json.loads(capsys.readouterr().out)["aggregates"]
        decoded = [(answer, 0.0) for answer in answers]
        assert reported == _mean_points(decoded, [{gold} for gold in golds])
        assert reported["em"] == 100.0 * (1 / 3)
        assert _mean_points([], []) == {"em": 0.0, "f1": 0.0}

    def test_empty_dataset_and_empty_subsets_report_zero(self, tmp_path, capsys):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        assert main(["eval", str(data), "--pred", str(data), "--partition"]) == 0
        zero = {"em": 0.0, "f1": 0.0}
        subsets = {key: {"size": 0, "means": zero} for key in ("ss", "sl", "ls", "ll")}
        assert json.loads(capsys.readouterr().out) == {"aggregates": zero, "count": 0, "subsets": subsets}

    @pytest.mark.parametrize("paragraphs", [["!!! ,,,"], []], ids=["punctuation", "none"])
    def test_document_without_paragraphs_scores_zero(self, workspace, tmp_path, paragraphs):
        data = tmp_path / "dev.jsonl"
        record = {"id": "empty1", "question": "what", "paragraphs": paragraphs, "answers": ["x"]}
        data.write_text((workspace["data"] / "dev.jsonl").read_text() + json.dumps(record) + "\n")
        reports = {}
        for name, path in (("dev", workspace["data"] / "dev.jsonl"), ("padded", data)):
            pred, out = tmp_path / f"{name}.pred.jsonl", tmp_path / f"{name}.json"
            args = ["eval", str(path), "--ckpt", str(workspace["ckpt"]), "--pred-out", str(pred)]
            assert main([*args, "--out", str(out)]) == 0
            reports[name] = json.loads(out.read_text())
        records = [json.loads(l) for l in pred.read_text().splitlines()]
        assert len(records) == 13
        assert records[-1] == {"id": "empty1", "answer": "", "score": float("-inf")}
        assert reports["padded"]["count"] == 13
        for name in ("em", "f1"):
            expected = reports["dev"]["aggregates"][name] * 12 / 13
            assert reports["padded"]["aggregates"][name] == pytest.approx(expected)

    def test_missing_data_is_runtime_error(self, workspace):
        status = main(
            ["eval", "no_such_file.jsonl", "--ckpt", str(workspace["ckpt"])]
        )
        assert status == 1


class TestBadRecordFiles:
    def test_label_record_without_spans(self, workspace, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        labels.write_text('{"id": "d0"}\n')
        out = tmp_path / "x.ckpt"
        status = main(
            [
                "train",
                str(workspace["data"] / "train.jsonl"),
                "--labels",
                str(labels),
                "--out",
                str(out),
            ]
        )
        assert status == 1
        assert f"error: {labels}:1: missing key 'spans'" in capsys.readouterr().err
        assert not out.exists()

    def test_label_record_with_a_repeated_span(self, workspace, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        labels.write_text('{"id": "d0", "spans": [[0, 0, 0], [0, 0, 0]]}\n')
        out = tmp_path / "x.ckpt"
        data = workspace["data"] / "train.jsonl"
        assert main(["train", str(data), "--labels", str(labels), "--out", str(out)]) == 1
        assert f"error: {labels}:1: span [0, 0, 0] repeats in 'spans'\n" in capsys.readouterr().err
        assert not out.exists()

    def test_labels_past_truncated_paragraphs(self, workspace, tmp_path, capsys):
        labels = workspace["data"] / "labels_train.jsonl"
        status = main(
            [
                "train",
                str(workspace["data"] / "train.jsonl"),
                "--labels",
                str(labels),
                "--max-tokens",
                "3",
                "--out",
                str(tmp_path / "x.ckpt"),
            ]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert f"error: {labels}:" in err
        assert "of 3 tokens" in err

    def test_invalid_utf8_dataset_and_labels(self, workspace, tmp_path, capsys):
        data = workspace["data"] / "train.jsonl"
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(data.read_bytes().replace(b"\n", b"\n\xff", 1))
        assert main(["label", str(bad), "--out", str(tmp_path / "labels.jsonl")]) == 1
        assert f"error: {bad}:2: not valid UTF-8" in capsys.readouterr().err
        labels = workspace["data"] / "labels_train.jsonl"
        bad.write_bytes(labels.read_bytes().replace(b"\n", b"\n\xff", 1))
        status = main(["train", str(data), "--labels", str(bad), "--out", str(tmp_path / "x.ckpt")])
        assert status == 1
        assert f"error: {bad}:2: not valid UTF-8" in capsys.readouterr().err

    def test_truth_line_not_json(self, workspace, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        truth.write_text("{not json\n")
        status = main(
            [
                "eval",
                str(workspace["data"] / "dev.jsonl"),
                "--ckpt",
                str(workspace["ckpt"]),
                "--truth",
                str(truth),
            ]
        )
        assert status == 1
        assert f"error: {truth}:1: not valid JSON" in capsys.readouterr().err

    def test_labels_without_a_pair(self, workspace, tmp_path, capsys):
        labels = workspace["data"] / "labels_train.jsonl"
        status = main(
            [
                "train",
                str(workspace["data"] / "dev.jsonl"),
                "--labels",
                str(labels),
                "--out",
                str(tmp_path / "x.ckpt"),
            ]
        )
        assert status == 1
        assert f"error: {labels}: no record for pair 'dev00000'\n" in capsys.readouterr().err

    def test_truth_without_a_pair(self, workspace, capsys):
        truth = workspace["data"] / "truth_train.jsonl"
        status = main(
            [
                "eval",
                str(workspace["data"] / "dev.jsonl"),
                "--ckpt",
                str(workspace["ckpt"]),
                "--truth",
                str(truth),
            ]
        )
        assert status == 1
        assert f"error: {truth}: no record for pair 'dev00000'\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"answer": "x", "score": 0.0}', "missing key 'id'"),
            ('{"id": "dev00000", "score": 0.0}', "missing key 'answer'"),
            ('{"id": "dev00000", "answer": "x"}', "missing key 'score'"),
            ('{"id": 7, "answer": "x", "score": 0.0}', "'id' must be a string"),
            ('{"id": "dev00000", "answer": 3, "score": 1}', "'answer' must be a string"),
            ('{"id": "dev00000", "answer": "x", "score": "1"}', "'score' must be a number"),
            ('{"id": "dev00000", "answer": "x", "score": true}', "'score' must be a number"),
            ('["dev00000", "x", 0.0]', "record must be a JSON object"),
            ("{not json", "not valid JSON"),
        ],
    )
    def test_bad_prediction_line(self, workspace, tmp_path, capsys, line, message):
        pred = tmp_path / "pred.jsonl"
        good = '{"id": "dev00001", "answer": "x", "score": -Infinity}'
        pred.write_text(f"{good}\n\n{line}\n")
        status = main(["eval", str(workspace["data"] / "dev.jsonl"), "--pred", str(pred)])
        assert status == 1
        assert f"error: {pred}:3: {message}" in capsys.readouterr().err

    def test_integer_prediction_score_is_accepted(self, workspace, tmp_path):
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"id": "dev00000", "answer": "x", "score": 1}\n')
        assert main(["eval", str(workspace["data"] / "dev.jsonl"), "--pred", str(pred)]) == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"vocab_size": "x"}', "field 'vocab_size' must be an integer, got 'x'"),
            ('{"documents": 4.0}', "field 'documents' must be an integer"),
            ('{"alias_rate": true}', "field 'alias_rate' must be a number"),
            ('{"vocab": 80}', "unknown field 'vocab'"),
            ('{"mention_counts": [[1, 0.5, 2]]}', "field 'mention_counts' must be a list"),
            ('{"mention_counts": [["1", 0.5]]}', "field 'mention_counts' must be a list"),
            ('{"mention_counts": {"1": 0.5}}', "field 'mention_counts' must be a list"),
            ("[400]", "profile must be a JSON object"),
            ('{"alias_rate": 2.0}', "rates must lie in [0, 1]"),
            ('{"documents": 0}', "need at least one training document"),
            ('{"dev_documents": -1}', "dev_documents must not be negative"),
            ('{"seed": -1}', "field 'seed' must be a non-negative integer, got -1"),
            ('{"mention_counts": [[1, NaN]]}', "field 'mention_counts' needs counts >= 1 and positive, finite weights"),
            ('{"mention_counts": [[1, 0.5], [2, Infinity]]}', "field 'mention_counts' needs counts >= 1 and positive, finite weights"),
            ('{"mention_counts": [[2, 1e308], [3, 1e308]]}', "field 'mention_counts' has weights whose sum is not finite"),
            pytest.param(
                '{"mention_counts": [[1, 1' + "0" * 400 + "]]}",
                "field 'mention_counts' needs counts >= 1 and positive, finite weights",
                id="integer-weight-beyond-float-range",
            ),
            ("{", "Expecting property name"),
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "grid"])
    def test_bad_profile(self, tmp_path, capsys, command, text, message):
        profile = tmp_path / "profile.json"
        profile.write_text(text)
        argv = [command, "--profile", str(profile), "--out", str(tmp_path / "out")]
        if command == "grid":
            argv += ["--specs", "H2-P-span-mml", "--epochs", "1"]
        status = main(argv)
        assert status == 1
        assert f"error: {profile}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


class TestBadCheckpoint:
    def _eval(self, workspace, ckpt):
        return main(["eval", str(workspace["data"] / "dev.jsonl"), "--ckpt", str(ckpt)])

    def _rewrite(self, workspace, path, **changes):
        with np.load(workspace["ckpt"], allow_pickle=False) as data:
            arrays = {name: changes.get(name, data[name]) for name in data.files}
        with open(path, "wb") as handle:
            np.savez(handle, **{name: a for name, a in arrays.items() if a is not None})

    @pytest.mark.parametrize(
        "content",
        [b"not a checkpoint\n", b"", npy_bytes(np.zeros(3))],
        ids=["text", "empty", "npy-array"],
    )
    def test_not_a_checkpoint(self, workspace, tmp_path, capsys, content):
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(content)
        assert self._eval(workspace, ckpt) == 1
        err = capsys.readouterr().err
        assert f"error: {ckpt}: not a checkpoint (.npz archive)" in err
        assert "pickle" not in err

    def test_missing_array(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        self._rewrite(workspace, ckpt, end_head=None)
        assert self._eval(workspace, ckpt) == 1
        assert f"error: {ckpt}: checkpoint has no 'end_head' array" in capsys.readouterr().err

    def test_misshaped_embedding(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        embedding = Checkpoint.load(workspace["ckpt"]).params["embedding"]
        self._rewrite(workspace, ckpt, embedding=embedding[:-1])
        assert self._eval(workspace, ckpt) == 1
        err = capsys.readouterr().err
        rows, dim = embedding.shape
        assert f"error: {ckpt}: embedding must have shape ({rows}, {dim}), got ({rows - 1}, {dim})" in err

    @pytest.mark.parametrize(
        "history, message",
        [
            ([], "history is not a JSON object"),
            ({"objectives": "H"}, "history 'objectives' is not a list"),
            ({"objectives": ["H"]}, "objective spec 'H' must have four dash-separated fields"),
        ],
        ids=["list", "string-objectives", "bad-spec"],
    )
    def test_bad_history(self, workspace, tmp_path, capsys, history, message):
        ckpt = tmp_path / "model.ckpt"
        self._rewrite(workspace, ckpt, history_json=np.array(json.dumps(history)))
        assert self._eval(workspace, ckpt) == 1
        assert f"error: {ckpt}: {message}\n" in capsys.readouterr().err

    def test_vocabulary_not_a_list(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        tokens = Checkpoint.load(workspace["ckpt"]).vocab.tokens
        self._rewrite(workspace, ckpt, vocab_json=np.array(json.dumps(dict.fromkeys(tokens, 0))))
        assert self._eval(workspace, ckpt) == 1
        assert f"error: {ckpt}: vocabulary is not a JSON list of strings\n" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter(self, workspace, tmp_path, capsys, value):
        ckpt = tmp_path / "model.ckpt"
        head = Checkpoint.load(workspace["ckpt"]).params["end_head"].copy()
        head.flat[-1] = value
        self._rewrite(workspace, ckpt, end_head=head)
        assert self._eval(workspace, ckpt) == 1
        assert f"error: {ckpt}: parameter 'end_head' holds a non-finite value" in capsys.readouterr().err


class TestGrid:
    def test_profile_driven_grid(self, workspace, tmp_path, capsys):
        table = tmp_path / "grid.csv"
        status = main(
            [
                "grid",
                "--profile",
                str(workspace["profile"]),
                "--specs",
                "H1-P-span-mml,H2-P-span-mml",
                "--seeds",
                "0",
                "--epochs",
                "1",
                "--out",
                str(table),
            ]
        )
        assert status == 0
        lines = table.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # two combos, both decoders
        printed = capsys.readouterr().out
        assert "mean EM" in printed

    def test_profile_without_dev_documents_scores_zero(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"documents": 4, "dev_documents": 0}))
        table = tmp_path / "grid.json"
        argv = ["grid", "--profile", str(profile), "--specs", "H2-P-span-mml", "--seeds", "0"]
        assert main([*argv, "--epochs", "1", "--out", str(table)]) == 0
        rows = json.loads(table.read_text())
        assert [(row["inference"], row["em"], row["f1"]) for row in rows] == [
            ("sum", 0.0, 0.0),
            ("max", 0.0, 0.0),
        ]

    def test_data_dir_grid(self, workspace, tmp_path):
        table = tmp_path / "grid.json"
        status = main(
            [
                "grid",
                "--data",
                str(workspace["data"]),
                "--specs",
                "H2-P-span-mml",
                "--seeds",
                "0",
                "--infer",
                "sum",
                "--epochs",
                "1",
                "--out",
                str(table),
            ]
        )
        assert status == 0
        rows = json.loads(table.read_text())
        assert len(rows) == 1
        assert rows[0]["objective"] == "H2-P-span-mml"

    def test_bad_spec_is_usage_error(self, workspace, tmp_path):
        status = main(
            [
                "grid",
                "--profile",
                str(workspace["profile"]),
                "--specs",
                "H9-P-span-mml",
                "--out",
                str(tmp_path / "t.csv"),
            ]
        )
        assert status == 2

    def test_needs_exactly_one_source(self, workspace, tmp_path):
        status = main(
            ["grid", "--specs", "H2-P-span-mml", "--out", str(tmp_path / "t.csv")]
        )
        assert status == 2


class TestCheck:
    def test_passes_and_prints(self, capsys):
        status = main(["check", "--trials", "5"])
        assert status == 0
        out = capsys.readouterr().out
        assert "all 8 checks passed" in out
        assert out.count("ok  ") == 8

    def test_failed_check_exits_one(self, monkeypatch, capsys):
        results = [CheckResult("first", True), CheckResult("second", False, "worst 1e-3")]
        monkeypatch.setattr("docqa.cli.run_all", lambda seed, trials: results)
        assert main(["check"]) == 1
        assert capsys.readouterr().out == (
            "ok   first\nFAIL second  (worst 1e-3)\n1 of 2 checks failed\n"
        )

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, trials, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--trials", trials])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --trials:" in err
        assert f"trial count must be a positive integer, got '{trials}'" in err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "docqa.cli", "check", "--trials", "2"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "checks passed" in proc.stdout


def test_readme_python_blocks_run():
    """The README's documented entry points keep importing as the API changes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
