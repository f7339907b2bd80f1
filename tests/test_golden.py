"""Golden files: the CLI's outputs on a small profile, pinned.

The steps below run docqa.cli.main in-process: simulate, label (exact and
rouge), train, eval under sum and under max, grid and check.  Text outputs
must match the files under tests/golden/ byte for byte; checkpoint
parameters, prediction scores and grid training objectives must match to
1e-12, and prediction answers and grid EM/F1 exactly.

Regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md why they changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from docqa.cli import main
from docqa.model import PARAM_NAMES, Checkpoint

GOLDEN = Path(__file__).parent / "golden"
TOLERANCE = 1e-12

# Outputs compared byte for byte, relative to the working directory.
EXACT_FILES = (
    "data/train.jsonl",
    "data/dev.jsonl",
    "data/labels_train.jsonl",
    "data/labels_dev.jsonl",
    "data/truth_train.jsonl",
    "data/truth_dev.jsonl",
    "data/profile.json",
    "labels_exact.jsonl",
    "labels_rouge.jsonl",
    "metrics_sum.json",
    "metrics_max.json",
    "check.txt",
)
PREDICTIONS = ("predictions_sum.jsonl", "predictions_max.jsonl")


def _run(argv: list[str]) -> str:
    """Run one CLI command, fail unless it exits 0, and return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    assert status == 0, f"{argv} exited {status}"
    return out.getvalue()


def run_steps(root: Path) -> None:
    """Write every golden output into root."""
    data = root / "data"
    _run(["simulate", "--profile", str(GOLDEN / "profile.json"), "--out", str(data)])
    train = str(data / "train.jsonl")
    dev = str(data / "dev.jsonl")
    _run(["label", train, "--out", str(root / "labels_exact.jsonl")])
    _run(["label", train, "--matcher", "rouge", "--out", str(root / "labels_rouge.jsonl")])
    model = root / "model.npz"
    _run(
        [
            "train", train, "--labels", str(data / "labels_train.jsonl"),
            "--objective", "H2-P-pos-mml+H3-D-pos-mml", "--epochs", "2",
            "--out", str(model),
        ]
    )
    checkpoint = Checkpoint.load(model)
    params = {name: checkpoint.params[name].ravel().tolist() for name in PARAM_NAMES}
    (root / "checkpoint.json").write_text(json.dumps(params) + "\n", encoding="utf-8")
    _run(
        [
            "eval", dev, "--ckpt", str(model), "--infer", "sum",
            "--partition", "--labels", str(data / "labels_dev.jsonl"),
            "--pred-out", str(root / "predictions_sum.jsonl"),
            "--out", str(root / "metrics_sum.json"),
        ]
    )
    _run(
        [
            "eval", dev, "--ckpt", str(model), "--infer", "max",
            "--truth", str(data / "truth_dev.jsonl"),
            "--pred-out", str(root / "predictions_max.jsonl"),
            "--out", str(root / "metrics_max.json"),
        ]
    )
    _run(
        [
            "grid", "--data", str(data), "--specs", "H2-P-span-mml,H3-D-pos-mml",
            "--epochs", "2", "--out", str(root / "grid.json"),
        ]
    )
    check = _run(["check", "--trials", "5", "--seed", "0"])
    (root / "check.txt").write_text(check, encoding="utf-8")


def _close(a: float | None, b: float | None) -> bool:
    if a is None or b is None or math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOLERANCE


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_cli_outputs_match_golden_files(tmp_path):
    run_steps(tmp_path)
    for name in EXACT_FILES:
        got = (tmp_path / name).read_bytes()
        assert got == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"

    expected = json.loads((GOLDEN / "checkpoint.json").read_text(encoding="utf-8"))
    got = json.loads((tmp_path / "checkpoint.json").read_text(encoding="utf-8"))
    assert list(got) == list(expected)
    for name in PARAM_NAMES:
        assert len(got[name]) == len(expected[name]), name
        gap = np.max(np.abs(np.subtract(got[name], expected[name])), initial=0.0)
        assert gap <= TOLERANCE, f"{name} differs by {gap:.3g}"

    for name in PREDICTIONS:
        got, expected = _jsonl(tmp_path / name), _jsonl(GOLDEN / name)
        assert [(r["id"], r["answer"]) for r in got] == [
            (r["id"], r["answer"]) for r in expected
        ], name
        for a, b in zip(got, expected):
            assert _close(a["score"], b["score"]), (name, a, b)

    got = json.loads((tmp_path / "grid.json").read_text(encoding="utf-8"))
    expected = json.loads((GOLDEN / "grid.json").read_text(encoding="utf-8"))
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert {k: v for k, v in a.items() if k != "train_objective"} == {
            k: v for k, v in b.items() if k != "train_objective"
        }
        assert _close(a["train_objective"], b["train_objective"]), (a, b)


if __name__ == "__main__":
    # Regenerate: run every step in a fresh directory, then keep only the
    # compared outputs beside profile.json.
    with tempfile.TemporaryDirectory() as work:
        run_steps(Path(work))
        shutil.rmtree(GOLDEN / "data", ignore_errors=True)
        (GOLDEN / "data").mkdir()
        for name in (*EXACT_FILES, *PREDICTIONS, "checkpoint.json", "grid.json"):
            shutil.copyfile(Path(work) / name, GOLDEN / name)
    print(f"wrote golden files under {GOLDEN}", file=sys.stderr)
