"""Spans around calls into setfusion's modules, recorded from outside the program.

``Tracer.install`` replaces module attributes that the library looks up at
call time (for example ``training.optimizer_step``, which ``_run`` calls
once per step) with thin wrappers that record a span; ``uninstall`` puts the
originals back, so untraced code runs with no wrapper at all.

A span is ``(name, context, start, end, parent, count)``: ``context`` is the
training stage the benchmark is in (``stage1``, ``stage2``, ``joint``) or
``None``; ``parent`` is the index of the enclosing span or -1; ``count`` is a
number measured at the boundary (tape entries, parameters updated, samples
generated) or ``None``.

Training steps have no call of their own. A step opens when ``_run`` calls
``sample_minibatch`` and closes when its ``optimizer_step`` returns, and
every span in between is a child of that ``training.step`` span.
"""

from __future__ import annotations

import contextlib
import statistics
import time

STAGES = ("stage1", "stage2", "joint")


@contextlib.contextmanager
def step_clock(training, out: list):
    """Append the duration in ms of each training step run inside the block.

    The only hook of an untraced run: one timestamp when ``_run`` calls
    ``sample_minibatch`` and one when its ``optimizer_step`` returns.
    """
    sample, optimize = training.sample_minibatch, training.optimizer_step
    begun: list[float] = []

    def timed_sample(*args, **kwargs):
        begun.append(time.perf_counter())
        return sample(*args, **kwargs)

    def timed_optimize(*args, **kwargs):
        try:
            return optimize(*args, **kwargs)
        finally:
            if begun:
                out.append((time.perf_counter() - begun.pop()) * 1000.0)

    training.sample_minibatch, training.optimizer_step = timed_sample, timed_optimize
    try:
        yield out
    finally:
        training.sample_minibatch, training.optimizer_step = sample, optimize


NAME, CTX, START, END, PARENT, COUNT = range(6)


class Tracer:
    def __init__(self, sf):
        """``sf`` maps module names (``data``, ``training``, ``tensor``,
        ``model``, ``metrics``) to the imported setfusion modules."""
        self.sf = sf
        self.spans: list[list] = []
        self.context: str | None = None
        self._stack: list[int] = []
        self._step: int | None = None
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str, count=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.context, time.perf_counter(), None, parent, count])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        while self._stack and self._stack.pop() != idx:
            pass

    def _close_step(self) -> None:
        if self._step is not None:
            self._close(self._step)
            self._step = None

    def _spanned(self, fn, name, count_of=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name, count_of(*args, **kwargs) if count_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _stage(self, fn, stage):
        def wrapper(*args, **kwargs):
            outer, self.context = self.context, stage
            idx = self._open(f"training.{stage}")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_step()
                self._close(idx)
                self.context = outer
        return wrapper

    def _sample(self, fn):
        def wrapper(*args, **kwargs):
            if self.context in STAGES:
                self._close_step()
                self._step = self._open("training.step")
            idx = self._open("training.sample")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _optimizer(self, fn):
        def wrapper(params, group, *args, **kwargs):
            updated = sum(t.size for _, _, t in params.named(group))
            idx = self._open("training.optimizer", updated)
            try:
                return fn(params, group, *args, **kwargs)
            finally:
                self._close(idx)
                self._close_step()
        return wrapper

    def _backward(self, fn):
        def wrapper(tape, loss):
            idx = self._open("tensor.backward", (len(tape.entries), len(tape.tensors)))
            try:
                return fn(tape, loss)
            finally:
                self._close(idx)
        return wrapper

    # ----------------------------------------------------------- patching

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def install(self) -> None:
        if self._saved:
            return
        sf = self.sf
        training, model, tensor = sf["training"], sf["model"], sf["tensor"]
        spanned = self._spanned
        for stage, attr in zip(STAGES, ("faset_stage1", "faset_stage2", "joint_train")):
            self._patch(training, attr, lambda fn, s=stage: self._stage(fn, s))
        self._patch(training, "sample_minibatch", self._sample)
        self._patch(training, "optimizer_step", self._optimizer)
        self._patch(tensor.Tape, "backward", self._backward)
        self._patch(tensor, "bce_loss", lambda fn: spanned(fn, "tensor.loss"))
        for owner in (training, model):
            self._patch(owner, "encode_batch", lambda fn: spanned(fn, "model.encode"))
            self._patch(owner, "aggregate", lambda fn: spanned(fn, "aggregators.aggregate"))
            self._patch(owner, "decode_batch", lambda fn: spanned(fn, "model.decode"))
        self._patch(model, "predict", lambda fn: spanned(fn, "model.predict"))
        self._patch(model, "load_checkpoint", lambda fn: spanned(fn, "model.checkpoint_load"))
        self._patch(model, "save_checkpoint", lambda fn: spanned(fn, "model.checkpoint_save"))
        self._patch(sf["data"], "load_dataset", lambda fn: spanned(fn, "data.load"))
        self._patch(sf["data"], "generate_dataset", lambda fn: spanned(
            fn, "data.generate", lambda meta, *_: meta.train_count + meta.test_count))
        self._patch(sf["metrics"], "eval_sweep", lambda fn: spanned(fn, "metrics.eval_sweep"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._stack.clear()
        self._step = None
        self.context = None

    # ------------------------------------------------------------ summary

    def layer_metrics(self) -> dict:
        """Per-layer figures from the recorded spans, as {name: (value, unit)}."""
        spans = self.spans
        dur = [(s[END] - s[START]) * 1000.0 for s in spans]
        children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            children.setdefault(s[PARENT], []).append(i)
        out: dict = {}

        def per(parent_ids, child_name):
            total = sum(dur[c] for p in parent_ids for c in children.get(p, ())
                        if spans[c][NAME] == child_name)
            return total / len(parent_ids) if parent_ids else 0.0

        for stage in STAGES:
            steps = [i for i, s in enumerate(spans) if s[NAME] == "training.step" and s[CTX] == stage]
            n = max(len(steps), 1)
            out[f"training.steps.{stage}"] = (len(steps), "count")
            out[f"training.step_ms.{stage}"] = (sum(dur[i] for i in steps) / n, "ms")
            for layer, child in (("training.sample_ms", "training.sample"),
                                 ("model.encode_ms", "model.encode"),
                                 ("aggregators.aggregate_ms", "aggregators.aggregate"),
                                 ("model.decode_ms", "model.decode"),
                                 ("tensor.loss_ms", "tensor.loss"),
                                 ("tensor.backward_ms", "tensor.backward"),
                                 ("training.optimizer_ms", "training.optimizer")):
                out[f"{layer}.{stage}"] = (per(steps, child), "ms")
            self_ms = sum(dur[i] - sum(dur[c] for c in children.get(i, ())) for i in steps)
            out[f"training.self_ms.{stage}"] = (self_ms / n, "ms")
            counts = {name: [spans[c][COUNT] for i in steps for c in children.get(i, ())
                             if spans[c][NAME] == name]
                      for name in ("tensor.backward", "training.optimizer")}
            tape = counts["tensor.backward"]
            out[f"tensor.tape_entries.{stage}"] = (sum(e for e, _ in tape) / n, "count")
            out[f"tensor.tape_nodes.{stage}"] = (sum(v for _, v in tape) / n, "count")
            out[f"training.optimizer_params.{stage}"] = (sum(counts["training.optimizer"]) / n, "count")

        predicts = [i for i, s in enumerate(spans) if s[NAME] == "model.predict"]
        out["model.predicts"] = (len(predicts), "count")
        out["model.predict_ms"] = (sum(dur[i] for i in predicts) / max(len(predicts), 1), "ms")
        for layer, child in (("model.encode_ms", "model.encode"),
                             ("aggregators.aggregate_ms", "aggregators.aggregate"),
                             ("model.decode_ms", "model.decode")):
            out[f"{layer}.predict"] = (per(predicts, child), "ms")

        def mean_of(name):
            vals = [dur[i] for i, s in enumerate(spans) if s[NAME] == name]
            return statistics.fmean(vals) if vals else 0.0

        out["model.checkpoint_load_ms"] = (mean_of("model.checkpoint_load"), "ms")
        out["model.checkpoint_save_ms"] = (mean_of("model.checkpoint_save"), "ms")
        out["data.load_ms"] = (mean_of("data.load"), "ms")
        gens = [i for i, s in enumerate(spans) if s[NAME] == "data.generate"]
        samples = sum(spans[i][COUNT] for i in gens)
        out["data.generate_ms"] = (sum(dur[i] for i in gens) / max(samples, 1), "ms")
        sweeps = [i for i, s in enumerate(spans) if s[NAME] == "metrics.eval_sweep"]
        search = [dur[i] - per([i], "model.predict") for i in sweeps]
        out["metrics.search_ms"] = (statistics.fmean(search) if search else 0.0, "ms")
        return out

    def dump(self) -> dict:
        """Spans as plain lists, times in microseconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return {"fields": ["name", "context", "start_us", "end_us", "parent", "count"],
                "spans": [[s[NAME], s[CTX], round((s[START] - t0) * 1e6, 1),
                           round((s[END] - t0) * 1e6, 1) if s[END] is not None else None,
                           s[PARENT], s[COUNT]] for s in self.spans]}
