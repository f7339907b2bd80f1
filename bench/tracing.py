"""In-memory spans around docqa's public functions, installed from outside src/.

Each wrapper is bound under the name its caller imported the function by
(``docqa.training.combine``, ``docqa.synthlab.predict`` and so on), so calls
made inside the library are traced as well as the benchmark's own calls.
Nothing is patched unless a Tracer is installed, so untraced runs execute the
library exactly as shipped.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from docqa import corpus, inference, labeling, metrics, model, objectives, probability, synthlab, training


def _one(args, result):
    return 1


def _first_len(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


def _generated(args, result):
    return len(result[0])


def _doc_epochs(args, result):
    return result.history["trained_examples"] * args[0].epochs


def _space_name(base):
    def name(args):
        return f"{base}.{args[1].value}"

    return name


# (module, attribute, span name or namer, units per call)
TARGETS = [
    (corpus, "save_dataset", "corpus.save_dataset", _first_len),
    (corpus, "load_dataset", "corpus.load_dataset", _result_len),
    (synthlab, "make_pair", "corpus.make_pair", _one),
    (labeling, "find_consistent_spans_exact", "labeling.exact", _one),
    (synthlab, "find_consistent_spans_exact", "labeling.exact", _one),
    (labeling, "find_consistent_spans_rouge", "labeling.rouge", _one),
    (labeling, "save_labels", "labeling.save_labels", _first_len),
    (labeling, "load_labels", "labeling.load_labels", _result_len),
    (synthlab, "generate", "synthlab.generate", _generated),
    (synthlab, "run_grid", "synthlab.run_grid", _one),
    (synthlab, "evaluate_checkpoint", "synthlab.evaluate_checkpoint", _one),
    (model.ToyScorer, "score", "model.score", _one),
    (model.ToyScorer, "backprop", "model.backprop", _one),
    (probability, "log_partition", _space_name("probability.log_partition"), _one),
    (objectives, "log_partition", _space_name("probability.log_partition"), _one),
    (synthlab, "log_partition", _space_name("probability.log_partition"), _one),
    (training, "combine", "objectives.combine", _one),
    (objectives, "evaluate", "objectives.evaluate", _one),
    (training, "train", "training.train", _doc_epochs),
    (synthlab, "train", "training.train", _doc_epochs),
    (inference, "predict", "inference.predict", _one),
    (synthlab, "predict", "inference.predict", _one),
    (metrics, "exact_match", "metrics.exact_match", _one),
    (synthlab, "exact_match", "metrics.exact_match", _one),
    (metrics, "token_f1", "metrics.token_f1", _one),
    (synthlab, "token_f1", "metrics.token_f1", _one),
]


class Tracer:
    """Records spans (id, name, start, end, parent, run id, units) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self.id_of_in_train = 0
        self._stack: list[int] = []
        self._train_depth = 0
        self._undo: list[tuple] = []

    def begin(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([span_id, name, time.perf_counter(), None, parent, self.run_id, 0])
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int, units: int = 0) -> None:
        record = self.spans[span_id]
        record[3] = time.perf_counter()
        record[6] = units
        self._stack.pop()

    def _wrap(self, fn, namer, units):
        tracer = self

        def traced(*args, **kwargs):
            name = namer(args) if callable(namer) else namer
            is_train = name == "training.train"
            tracer._train_depth += is_train
            span_id = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(span_id)
                tracer._train_depth -= is_train
                raise
            tracer.end(span_id, units(args, result))
            tracer._train_depth -= is_train
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, namer, units in TARGETS:
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, namer, units))

        tracer = self
        id_of = model.Vocabulary.id_of

        def counted_id_of(vocab, text):
            if tracer._train_depth:
                tracer.id_of_in_train += 1
            return id_of(vocab, text)

        self._undo.append((model.Vocabulary, "id_of", id_of))
        model.Vocabulary.id_of = counted_id_of

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, run_id, units in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": run_id,
                    "units": units,
                }
                handle.write(json.dumps(record) + "\n")


class SpanTotals:
    """Per-name call counts, units, total and self time derived from spans."""

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.units = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        child_time = defaultdict(float)
        for _, _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for span_id, name, start, end, _, _, units in spans:
            duration = end - start
            self.calls[name] += 1
            self.units[name] += units
            self.total[name] += duration
            self.self_time[name] += duration - child_time[span_id]

    def per_call(self, name: str, field: str = "total") -> float:
        values = self.total if field == "total" else self.self_time
        return values[name] / self.calls[name] if self.calls[name] else 0.0

    def per_unit(self, name: str, field: str = "total") -> float:
        values = self.total if field == "total" else self.self_time
        return values[name] / self.units[name] if self.units[name] else 0.0

    def layer_self(self) -> dict[str, float]:
        """Self time summed by layer, the part of a span name before the dot."""
        out = defaultdict(float)
        for name, value in self.self_time.items():
            out[name.split(".")[0]] += value
        return dict(out)
