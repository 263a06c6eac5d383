"""The benchmark's two workloads and the closed loop that times them.

- train: ``curvo train`` with the default config and a fixed epoch budget.
- infer: for each held-out sequence, with untrained weights, the relative
  validation loss, the predicted trajectory, then segment errors, RPE and ATE.

Each workload is a single-process closed loop: one caller waits for each
result before sending the next. Inputs come from the workload seed through
trainer's own data path (``prepare_data``, ``holdout_sequences``); the
program receives only the config files and inputs made here. Every op's
output is checked, and an op that raises or fails a check counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gradcheck
from tracer import Tracer, summarize

# a config small enough to run a whole command in well under a second
TINY_CONFIG = dict(
    n_sequences=3, seq_length=60, lstm_sizes=(8,), subseq_count=2, subseq_min=5, subseq_max=8,
)


@dataclass(frozen=True)
class Scale:
    """The budgets of one benchmark size."""

    config: dict  # RunConfig overrides on top of curvo's defaults
    seconds: float | None  # untraced measuring time; None takes it from the command line
    train_epochs: int  # per stage; patience is set equal, so every stage runs them all
    infer_pool: int  # distinct held-out sequences, cycled through in order
    infer_min_ops: int  # enough latencies that at least 10 lie beyond p90
    setup_repeats: int
    gradcheck_cases: int


FULL = Scale(config={}, seconds=None, train_epochs=3, infer_pool=16, infer_min_ops=110,
             setup_repeats=7, gradcheck_cases=3)
SMOKE = Scale(config=TINY_CONFIG, seconds=0.0, train_epochs=1, infer_pool=3, infer_min_ops=4,
              setup_repeats=1, gradcheck_cases=1)


@dataclass
class Unit:
    """One timed call of a workload: a command, or a single sequence for infer."""

    ops: int
    latencies: list[float]  # seconds, one per op that could be timed
    problems: list[str]


@dataclass
class Measurement:
    units: int = 0
    ops: int = 0
    failed_ops: int = 0
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    unit_ops: list[int] = field(default_factory=list)
    unit_ends: list[float] = field(default_factory=list)  # seconds since the first unit began
    counts: list[tuple[object, dict]] = field(default_factory=list)  # (repeat key, unit's counts)


class OpClock:
    """Records the start and end of every call to ``owner.attr`` while active."""

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.calls: list[tuple[float, float]] = []

    def __enter__(self):
        self.original = original = getattr(self.owner, self.attr)
        calls, clock = self.calls, time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            calls.append((start, clock()))
            return result

        timed.__module__ = original.__module__
        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)


def write_ini(cli, config, path: Path) -> None:
    """The whole RunConfig as a ``curvo`` config file."""
    lines = []
    for section, keys in cli.CONFIG_SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (field_name, _) in keys.items():
            value = getattr(config, field_name)
            if value is None:
                value = ""
            elif isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")


def finite_floats(text: str, columns: slice) -> bool:
    rows = [line.split(",")[columns] for line in text.splitlines()[1:]]
    return all(math.isfinite(float(v)) for row in rows for v in row)


class Workload:
    name = ""
    op_boundary: str | None = None  # the span that ends an op, when curvo runs the loop
    min_units = 1
    window_units = 1  # consecutive units of equal work, over which a rate is taken
    # units in each half of a traced run: a fixed amount of work, so that exact
    # counts repeat from run to run, and two units so they can be compared
    traced_units = 2

    def __init__(self, curvo, seed: int, scale: Scale, workdir: Path):
        self.curvo = curvo
        self.tr = curvo.trainer
        self.seed = seed
        self.scale = scale
        self.workdir = workdir / self.name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.reference = None  # the first unit's output; later units must repeat it

    def run_config(self, **overrides):
        return self.tr.RunConfig(**{**self.scale.config, **overrides, "seed": self.seed})

    def prepare(self, config, holdout_count: int):
        """Data, model config, held-out set and initial parameters for one config."""
        data = self.tr.prepare_data(config)
        model_cfg = config.regressor_config(data.input_dim)
        holdouts = self.tr.holdout_sequences(config, data.stats, holdout_count)
        store = self.curvo.model.init_params(model_cfg, seed=config.seed)
        return data, model_cfg, holdouts, store

    def repeat_key(self, index: int):
        """Units with equal keys get equal inputs, so their exact counts must match."""
        return None

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def expected_ops(self) -> int:
        raise NotImplementedError

    def quality(self) -> float:
        raise NotImplementedError


class Train(Workload):
    name = "train"
    op_boundary = "autodiff.adam_step"

    def setup(self):
        epochs = self.scale.train_epochs
        self.config = self.run_config(max_epochs_per_stage=epochs, patience=epochs)
        self.ini = self.workdir / "train.ini"
        write_ini(self.curvo.cli, self.config, self.ini)
        self.data, self.model_cfg, _, self.store = self.prepare(self.config, 0)

    def expected_ops(self):
        cfg = self.config
        return len(cfg.alphas) * cfg.max_epochs_per_stage * len(self.data.train) * cfg.subseq_count

    def command(self, ini: Path, out: Path) -> tuple[int, str]:
        """``curvo train`` with its console output captured."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.curvo.cli.main(["train", "--config", str(ini), "--out", str(out)])
        return code, stderr.getvalue().strip()

    def warm_up(self):
        """One untimed command on a tiny config."""
        tiny = self.run_config(**TINY_CONFIG, max_epochs_per_stage=1, patience=1)
        ini = self.workdir / "warm_up.ini"
        write_ini(self.curvo.cli, tiny, ini)
        code, err = self.command(ini, self.workdir / "warm_up")
        if code != 0:
            raise RuntimeError(f"warm-up train exited {code}: {err}")

    def unit(self, index):
        out = self.workdir / "run"
        with OpClock(self.curvo.autodiff, "adam_step") as clock:
            code, err = self.command(self.ini, out)
        ends = [end for _, end in clock.calls]
        latencies = list(np.diff(ends))
        if code != 0:
            return Unit(self.expected_ops(), latencies, [f"train exited {code}: {err}"])
        problems = []
        if len(ends) != self.expected_ops():
            problems.append(f"{len(ends)} Adam steps, expected {self.expected_ops()}")
        runlog = (out / "runlog.csv").read_text()
        checkpoint = (out / "checkpoint_final.txt").read_text()
        if not finite_floats(runlog, slice(3, 5)):
            problems.append("runlog.csv holds a non-finite loss")
        stages = [line.split(",")[1] for line in runlog.splitlines()[1:]]
        budget = [str(s) for s in range(len(self.config.alphas))
                  for _ in range(self.config.max_epochs_per_stage)]
        if stages != budget:
            problems.append(f"epochs per stage differ from the fixed budget: {stages}")
        store = self.curvo.autodiff.ParamStore.load(out / "checkpoint_final.txt")
        shapes = {name: p.shape for name, p in store.params.items()}
        if shapes != {name: p.shape for name, p in self.store.params.items()}:
            problems.append("checkpoint parameters differ from the model config")
        if not all(np.isfinite(p).all() for p in store.params.values()):
            problems.append("checkpoint holds non-finite parameters")
        if self.reference is None:
            self.reference = (runlog, checkpoint)
            self.trained = store
        elif (runlog, checkpoint) != self.reference:
            problems.append("runlog.csv or checkpoint_final.txt differs from the first run")
        return Unit(self.expected_ops(), latencies, problems)

    def quality(self):
        return self.tr.relative_validation_loss(
            self.trained, self.model_cfg, self.config, self.data.val)


class Infer(Workload):
    name = "infer"

    def __init__(self, *args):
        super().__init__(*args)
        self.min_units = self.scale.infer_min_ops
        self.reports: dict[int, tuple] = {}

    def setup(self):
        self.config = self.run_config()
        _, self.model_cfg, self.pool, self.store = self.prepare(
            self.config, self.scale.infer_pool)

    def expected_ops(self):
        return 1

    def repeat_key(self, index):
        return index % len(self.pool)

    @property
    def traced_units(self):
        return 2 * len(self.pool)

    @property
    def window_units(self):
        return len(self.pool)

    def evaluate(self, sequence) -> tuple:
        tr, ev = self.tr, self.curvo.evaluation
        loss = tr.relative_validation_loss(self.store, self.model_cfg, self.config, [sequence])
        estimate = tr.predicted_trajectory(self.store, self.model_cfg, sequence)
        segments = ev.segment_errors(sequence.trajectory, estimate, ev.WALKER_SEGMENT_LENGTHS)
        rpe = ev.rpe(sequence.trajectory, estimate)
        ate = ev.ate(sequence.trajectory, estimate)
        return (loss, *segments.trans_err_pct, *segments.rot_err_deg_per_m,
                *segments.segment_counts, rpe.trans_err_pct, rpe.rot_err_deg,
                rpe.skipped_frames, ate.rmse)

    def warm_up(self):
        for sequence in self.pool[:2]:
            self.evaluate(sequence)

    def unit(self, index):
        key = self.repeat_key(index)
        started = time.perf_counter()
        report = self.evaluate(self.pool[key])
        latency = time.perf_counter() - started
        problems = []
        if not all(math.isfinite(v) for v in report):
            problems.append(f"sequence {key}: non-finite report {report}")
        if self.reports.setdefault(key, report) != report:
            problems.append(f"sequence {key}: report differs from its first evaluation")
        return Unit(1, [latency], problems)

    def quality(self):
        return float(np.mean([self.reports[k][0] for k in sorted(self.reports)]))


WORKLOADS = {w.name: w for w in (Train, Infer)}


def measure(workload: Workload, seconds=None, min_units=1, units=None, tracer=None
            ) -> Measurement:
    """Run ``units`` units, or else at least ``min_units`` and then as many as
    end nearest to ``seconds``."""
    m = Measurement()
    before = tracer.snapshot() if tracer is not None else {}
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if units is not None:
            if m.units >= units:
                break
        elif m.units >= min_units and elapsed + elapsed / m.units / 2 >= seconds:
            break
        if tracer is not None and workload.op_boundary is None:
            tracer.op = m.ops
        try:
            unit = workload.unit(m.units)
        except Exception:  # noqa: BLE001 - a raising op is counted, and the run goes on
            unit = Unit(workload.expected_ops(), [], [traceback.format_exc(limit=3)])
        if tracer is not None:
            after = tracer.snapshot()
            m.counts.append((workload.repeat_key(m.units),
                             {k: v - before.get(k, 0) for k, v in after.items()
                              if v != before.get(k, 0)}))
            before = after
        m.units += 1
        m.ops += unit.ops
        m.unit_ops.append(unit.ops)
        m.unit_ends.append(time.perf_counter() - started)
        m.latencies += unit.latencies
        if unit.problems:
            m.failed_ops += unit.ops
            for problem in unit.problems:
                print(f"perfbench: {workload.name} unit {m.units - 1}: {problem}",
                      file=sys.stderr)
    m.wall = time.perf_counter() - started
    return m


def sustained_ops_per_s(m: Measurement, window: int) -> float:
    """The lowest rate, in ops per second, of any window of ``window`` units in
    the run. A shared host runs at a steady base speed with bursts of extra
    speed that come and go; nearly every run has a window at the base speed,
    so this figure repeats where a mean or median over windows takes in
    however much of the run a burst covered."""
    ends = [0.0] + m.unit_ends
    return min(sum(m.unit_ops[i:i + window]) / (ends[i + window] - ends[i])
               for i in range(0, m.units - window + 1, window))


def timed_setups(workload: Workload, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
    return times


def count_mismatches(counts: list[tuple[object, dict]]) -> list[str]:
    """Units fed equal inputs must record identical exact counts."""
    first: dict[object, dict] = {}
    problems = []
    for index, (key, delta) in enumerate(counts):
        if first.setdefault(key, delta) != delta:
            changed = sorted(k for k in set(delta) | set(first[key])
                             if delta.get(k) != first[key].get(k))
            problems.append(f"unit {index}: exact counts differ from an earlier unit "
                            f"with the same input: {', '.join(changed)}")
    return problems


def peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run(curvo, name: str, seed: int, seconds: float, trace: bool, scale: Scale,
        workdir: Path) -> dict:
    """One benchmark run; returns the result and everything printed beside it."""
    workload = WORKLOADS[name](curvo, seed, scale, workdir)
    # half the set-ups before the timed units and half after, so that their
    # median samples the host's speed at both ends of the run
    setup_times = timed_setups(workload, scale.setup_repeats - scale.setup_repeats // 2)
    # run-level checks, each counted as one attempted check; name -> problems found
    checks = {"gradient check": gradcheck.check(curvo, scale.gradcheck_cases)}
    workload.warm_up()

    notes: dict[str, str] = {}
    if not trace:
        measured = measure(workload, seconds, workload.min_units)
        setup_times += timed_setups(workload, scale.setup_repeats // 2)
        attempted, failed = measured.ops, measured.failed_ops
        p50, p90 = np.percentile(measured.latencies or [math.nan], [50, 90])
        metrics = {
            "setup_s": float(np.median(setup_times)),
            "sustained_ops_per_s": sustained_ops_per_s(measured, workload.window_units),
            "ops_per_s": measured.ops / measured.wall,
            "op_ms_p50": float(p50) * 1e3,
            "op_ms_p90": float(p90) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        plain = measure(workload, units=workload.traced_units)
        tracer = Tracer(workload.config.grad_clip, workload.op_boundary)
        tracer.install(curvo)
        try:
            workload.setup()  # traced once; train and infer build their inputs here
            tracer.op = 0
            cpu_before = cpu_seconds()
            measured = measure(workload, units=plain.units, tracer=tracer)
            cpu = cpu_seconds() - cpu_before
        finally:
            tracer.uninstall()
        attempted = plain.ops + measured.ops
        failed = plain.failed_ops + measured.failed_ops
        metrics, notes = summarize(tracer, measured.ops, measured.units)
        metrics["trainer.cpu_util"] = cpu / (measured.wall * len(os.sched_getaffinity(0)))
        metrics["trace.overhead_pct"] = (measured.wall / plain.wall - 1.0) * 100.0
        checks["exact counts"] = count_mismatches(measured.counts)
        checks["epoch budget"] = [
            f"train call {train_call} ran {epochs} epochs in stage {stage}"
            for (train_call, stage), epochs in sorted(tracer.stage_epochs.items())
            if epochs != workload.config.max_epochs_per_stage]
        tracer.write_csv(workdir / f"trace_{name}.csv")
    try:
        metrics["quality_err"] = workload.quality()
    except Exception:  # noqa: BLE001 - no output to score is a failed check, not a crash
        metrics["quality_err"] = math.nan
    checks["quality_err"] = [] if math.isfinite(metrics["quality_err"]) else ["not finite"]
    for check, problems in checks.items():
        for problem in problems:
            print(f"perfbench: {name}: {check}: {problem}", file=sys.stderr)
    attempted += len(checks)
    failed += sum(1 for problems in checks.values() if problems)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "error_rate": failed / attempted,
        "latency_samples": len(measured.latencies),
        "notes": notes,
    }
