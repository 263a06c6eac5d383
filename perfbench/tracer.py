"""Span tracing of curvo's layers from outside the package.

The tracer replaces public functions of each curvo module at their module
attribute with a wrapper that records a span: name, start, end, parent span,
op id and whether the call raised. curvo's modules call each other through
module globals (``md.forward_sequence``, ``geo.compose``, ...), so a wrapper
installed on the module attribute sees every call, and nothing in the package
is edited. ``uninstall`` puts the original functions back.

Spans are kept in compact arrays in memory and written out by ``write_csv``
when the benchmark ends. Geometry records only calls that enter the layer
from another one: its helpers call each other thousands of times per op, and
a span for each would swamp both memory and the layer's own timing.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

# autodiff's tape ops (matmul, add, ...) run ~700 times per training step; the
# tape length counts them instead of a span each.
AUTODIFF_WRAPPED = ("backward", "adam_step", "ParamStore.save", "ParamStore.grad_norm")
WRAPPED_MODULES = (
    "model", "loss", "geometry", "evaluation", "trainer", "curriculum", "synthdata",
    "cli", "svgplot",
)
BOUNDARY_ONLY = {"geometry"}


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self, grad_clip: float, op_boundary: str | None = None):
        self.grad_clip = grad_clip
        self.op_boundary = op_boundary  # span whose end starts the next op
        self.names: list[str] = []
        self.calls: list[int] = []  # calls per name id
        self.counters: Counter = Counter()
        self.stage_epochs: Counter = Counter()  # (train call, stage) -> epochs
        self.op = -1
        self._ids: dict[str, int] = {}
        self._next = 0
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.idx = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")

    # --- installation -------------------------------------------------------

    def install(self, curvo) -> None:
        hooks = self._hooks()
        for short in WRAPPED_MODULES:
            module = getattr(curvo, short)
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                self._patch(module, attr, self.wrap(fn, name, short, hooks.get(name)))
        ad = curvo.autodiff
        for dotted in AUTODIFF_WRAPPED:
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(ad, owner_name) if owner_name else ad
            name = f"autodiff.{dotted}"
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, "autodiff",
                                               hooks.get(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str, layer: str, hook=None):
        """``fn`` with a span around each call; ``hook`` = (before, after) observers."""
        name_id = self._intern(name)
        stack = self._stack
        calls = self.calls
        clock = time.perf_counter
        boundary_only = layer in BOUNDARY_ONLY
        ends_op = name == self.op_boundary
        before, after = hook if hook else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if boundary_only and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            token = None
            if before is not None:
                token, args, kwargs = before(args, kwargs)
            idx = self._next
            self._next = idx + 1
            parent = stack[-1][0] if stack else -1
            calls[name_id] += 1
            stack.append((idx, layer))
            raised = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                end = clock()
                stack.pop()
                self.idx.append(idx)
                self.parent.append(parent)
                self.op_of.append(self.op)
                self.name_of.append(name_id)
                self.start.append(start)
                self.end.append(end)
                self.raised.append(raised)
                if ends_op:
                    self.op += 1
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return wrapper

    # --- observers that turn call arguments and results into counts ----------

    def _hooks(self):
        c = self.counters

        def tape_len_before(args, kwargs):
            return len(args[0]), args, kwargs

        def forward_after(before_len, args, kwargs, result):
            tape, features = args[0], args[1]
            c["model.frames"] += len(features)
            c["model.nodes"] += len(tape) - before_len

        def backward_after(_, args, kwargs, result):
            c["autodiff.backward_nodes"] += len(args[0].tape)

        def grad_norm_after(_, args, kwargs, norm):
            c["autodiff.clipped"] += int(self.grad_clip > 0.0 and norm > self.grad_clip)

        def composite_after(_, args, kwargs, result):
            state_in = args[2] if len(args) > 2 else kwargs["state"]
            raw = result[1].previous_window_loss
            prev = state_in.previous_window_loss
            c["loss.gate_open"] += int(prev is None or raw > prev)

        def segments_after(_, args, kwargs, report):
            c["evaluation.segments"] += sum(report.segment_counts)

        def advance_after(_, args, kwargs, result):
            self.stage_epochs[(c["trainer.train_calls"], args[0].stage_index)] += 1

        def train_before(args, kwargs):
            c["trainer.train_calls"] += 1
            return None, args, kwargs

        def train_after(_, args, kwargs, result):
            c["trainer.epochs"] += result[1].final_metrics["epochs"]

        return {
            "model.forward_sequence": (tape_len_before, forward_after),
            "autodiff.backward": (None, backward_after),
            "autodiff.ParamStore.grad_norm": (None, grad_norm_after),
            "loss.composite_loss": (None, composite_after),
            "evaluation.segment_errors": (None, segments_after),
            "curriculum.advance": (None, advance_after),
            "trainer.train": (train_before, train_after),
        }

    # --- exact counts -------------------------------------------------------

    def snapshot(self) -> dict:
        """Every call count and counter so far; deterministic for fixed inputs."""
        counts = dict(zip(self.names, self.calls))
        counts.update(self.counters)
        return counts

    # --- output -------------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("span,parent,op,name,start_s,end_s,raised\n")
            for row in zip(self.idx, self.parent, self.op_of, self.name_of, self.start,
                           self.end, self.raised):
                f.write(f"{row[0]},{row[1]},{row[2]},{self.names[row[3]]},"
                        f"{row[4]!r},{row[5]!r},{row[6]}\n")


# --- per-layer figures from the recorded spans --------------------------------

ARTIFACT_SPANS = ("cli.write_manifest", "trainer.save_runlog", "trainer.save_transitions")


class _Spans:
    """The recorded spans as arrays indexed by span id."""

    def __init__(self, tracer: Tracer):
        n = tracer._next
        ids = np.frombuffer(tracer.idx, dtype=np.int64)
        self.names = tracer.names
        self.name = np.empty(n, dtype=np.int64)
        self.name[ids] = np.frombuffer(tracer.name_of, dtype=np.int32)
        self.parent = np.empty(n, dtype=np.int64)
        self.parent[ids] = np.frombuffer(tracer.parent, dtype=np.int64)
        self.op = np.empty(n, dtype=np.int64)
        self.op[ids] = np.frombuffer(tracer.op_of, dtype=np.int64)
        self.dur = np.empty(n)
        self.dur[ids] = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        has_parent = self.parent >= 0
        children = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                               minlength=n)
        self.self_time = self.dur - children
        self.layer = np.array([nm.split(".")[0] for nm in self.names])[self.name]
        self.in_phase = self.op >= 0
        # a span is validation work if it or an ancestor is a validation span
        self.in_validation = self.name == self.id("trainer.validation_loss")
        while True:
            inherited = self.in_validation | (has_parent & self.in_validation[self.parent])
            if (inherited == self.in_validation).all():
                break
            self.in_validation = inherited

    def id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def of(self, name: str, phase_only=True):
        mask = self.name == self.id(name)
        return mask & self.in_phase if phase_only else mask

    def of_layer(self, layer: str):
        return (self.layer == layer) & self.in_phase


def summarize(tracer: Tracer, ops: int, commands: int) -> tuple[dict, dict]:
    """Per-layer figures over the traced ops, and why any of them is absent.

    ``ops`` counts the workload's ops (steps or sequences) and
    ``commands`` its top-level calls into curvo.
    """
    spans = _Spans(tracer)
    c = tracer.counters
    values: dict[str, float] = {}
    absent: dict[str, str] = {}

    def ratio(metric, num, den, why, scale=1.0):
        if den:
            values[metric] = num / den * scale
        else:
            values[metric] = 0.0
            absent[metric] = f"absent: {why}"

    def mean_duration(metric, name, scale, phase_only=True):
        mask = spans.of(name, phase_only)
        ratio(metric, float(spans.dur[mask].sum()), int(mask.sum()),
              f"{name} is never called", scale)

    steps = int(spans.of("autodiff.adam_step").sum())
    frames = c["model.frames"]
    no_forward = "no forward pass"
    ratio("model.forward_us_per_frame", float(spans.self_time[spans.of_layer("model")].sum()),
          frames, no_forward, 1e6)
    ratio("model.tape_nodes_per_frame", c["model.nodes"], frames, no_forward)

    mean_duration("autodiff.backward_ms", "autodiff.backward", 1e3)
    ratio("autodiff.tape_nodes_per_step", c["autodiff.backward_nodes"],
          int(spans.of("autodiff.backward").sum()), "autodiff.backward is never called")
    mean_duration("autodiff.adam_step_us", "autodiff.adam_step", 1e6)
    mean_duration("autodiff.checkpoint_save_ms", "autodiff.ParamStore.save", 1e3)
    ratio("autodiff.clip_frac", c["autodiff.clipped"],
          int(spans.of("autodiff.ParamStore.grad_norm").sum()), "no training steps")

    ratio("loss.sequence_loss_ms", float(spans.self_time[spans.of_layer("loss")].sum()),
          int(spans.of("loss.sequence_loss").sum()), "loss.sequence_loss is never called", 1e3)
    mean_duration("loss.windowed_compose_us", "loss.windowed_compose", 1e6)
    train_windows = spans.of("loss.windowed_compose") & ~spans.in_validation
    ratio("loss.windows_per_step", int(train_windows.sum()), steps, "no training steps")
    ratio("loss.gate_open_frac", c["loss.gate_open"],
          int(spans.of("loss.composite_loss").sum()), "no window is composed")

    geometry = spans.of_layer("geometry")
    ratio("geometry.calls_per_op", int(geometry.sum()), ops, "no ops")
    ratio("geometry.self_ms_per_op", float(spans.self_time[geometry].sum()), ops, "no ops", 1e3)
    mean_duration("geometry.compose_with_jacobians_us", "geometry.compose_with_jacobians", 1e6)

    for short in ("segment_errors", "rpe", "ate"):
        mean_duration(f"evaluation.{short}_ms", f"evaluation.{short}", 1e3)
    ratio("evaluation.segments_per_op", c["evaluation.segments"],
          ops if spans.of("evaluation.segment_errors").any() else 0,
          "evaluation.segment_errors is never called")

    mean_duration("trainer.validation_loss_ms", "trainer.validation_loss", 1e3)
    mean_duration("trainer.predicted_trajectory_ms", "trainer.predicted_trajectory", 1e3)
    ratio("trainer.epochs_trained", c["trainer.epochs"],
          commands if c["trainer.train_calls"] else 0, "trainer.train is never called")
    ratio("curriculum.epochs_per_stage", sum(tracer.stage_epochs.values()),
          len(tracer.stage_epochs), "trainer.train is never called")

    # generation also runs in the traced set-up, so every span counts here
    mean_duration("synthdata.generate_ms", "synthdata.generate", 1e3, phase_only=False)
    mean_duration("synthdata.sample_subsequences_us", "synthdata.sample_subsequences", 1e6)

    artifacts = spans.of_layer("svgplot")
    for name in ARTIFACT_SPANS:
        artifacts |= spans.of(name)
    ratio("cli.artifacts_ms", float(spans.dur[artifacts].sum()),
          int(spans.of("cli.main").sum()), "no command goes through curvo.cli.main", 1e3)
    return values, absent
