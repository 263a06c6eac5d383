"""Training orchestration: epoch loop, staged objective, ablation, alpha sweep.

A run is fully determined by its RunConfig: the master seed derives, in fixed
order, the data seeds, the parameter-init seed, and the per-epoch sampling
seeds, so two runs with the same config produce bit-identical logs and
checkpoints. Each epoch draws random contiguous spans of every training
sequence, takes one Adam step per span (gradients clipped by global norm),
evaluates the validation loss under the stage's own weights, and feeds it to
the stage scheduler. At every stage boundary the run log keeps a copy of the
parameters, saved as that stage's checkpoint; the final ones are saved at the
end. The log's transitions are the last epoch record of each stage.

The schedule is the tuple ``alphas``, one stage per value in the order given:
the anti-curriculum is the reversed tuple, and a fixed run repeats one value.
``RunConfig`` checks the loss weights and the stage rules when it is built, so
a bad config fails before any file is written.

The ablation grid and alpha sweep hold data and initialization fixed per seed
so that only the objective schedule differs between the compared runs. The
ablation scores each stage from the run log's parameter copies; its held-out
sequences come from the generator, so it needs generated data.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import curriculum as cur
from . import evaluation as ev
from . import geometry as geo
from . import loss as ls
from . import model as md
from . import synthdata as sd

ABLATION_MODES = ("curriculum", "anti-curriculum", "fixed-relative", "fixed-bounded")
HOLDOUT_COUNT = 3  # held-out sequences per ablation seed


class NonFiniteLossError(RuntimeError):
    """A non-finite loss, located by epoch, stage and, for a training loss,
    the index of the training sequence in ``PreparedData.train``.
    """

    def __init__(self, epoch: int, stage: int, kind: str, value: float, sequence: int | None = None):
        where = f"epoch {epoch}, stage {stage}"
        if sequence is not None:
            where += f", training sequence {sequence}"
        super().__init__(f"non-finite {kind} loss ({value}) at {where}")
        self.epoch = epoch
        self.stage = stage
        self.sequence = sequence


@dataclass(frozen=True)
class DataSpec:
    """What generated data depends on: ``gen-data``'s settings, named as in RunConfig.
    Building one runs ``generate``'s and the feature model's checks, without a model."""

    preset: str
    seq_length: int
    feature_dim: int
    nuisance_dim: int
    noise_sigma: float
    noise_rho: float
    bias_sigma: float
    seed: int

    def __post_init__(self):
        if self.preset not in sd.MOTION_PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        sd.check_length(self.seq_length)
        sd.check_feature_settings(self.feature_dim, self.noise_sigma, self.nuisance_dim,
                                  self.noise_rho, self.bias_sigma)


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run needs; flat so it maps 1:1 onto config files."""

    # data: an on-disk dataset, or generation parameters
    dataset_dir: str | None = None
    preset: str = "walker"
    n_sequences: int = 5
    seq_length: int = 200
    feature_dim: int = 8
    nuisance_dim: int = 2
    noise_sigma: float = 0.02
    noise_rho: float = 0.0
    bias_sigma: float = 0.0
    # model
    lstm_sizes: tuple[int, ...] = (16, 16)
    # objective schedule
    alphas: tuple[float, ...] = cur.DEFAULT_ALPHAS
    delta: float = 1.0
    zeta: float = 10.0
    window: int = 2
    max_epochs_per_stage: int = 30
    patience: int = 5
    min_delta: float = 1e-4
    # optimization
    learning_rate: float = 1e-3
    grad_clip: float = 5.0
    subseq_count: int = 10
    subseq_min: int = 10
    subseq_max: int = 20
    val_split: float = 0.2
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if not 0.0 < self.val_split < 1.0:
            raise ValueError("val_split must be in (0, 1)")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.grad_clip < math.inf:  # 0 turns clipping off
            raise ValueError(f"grad_clip must be finite and >= 0, got {self.grad_clip}")
        if self.preset not in sd.MOTION_PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        # the layer sizes as RegressorConfig checks and stores them
        object.__setattr__(self, "lstm_sizes", self.regressor_config(1).lstm_sizes)
        if self.dataset_dir is None:  # generated data
            if self.n_sequences < 2:  # one to train on, one to validate on
                raise ValueError(f"need n_sequences >= 2, got {self.n_sequences}")
            self.data_spec()
        if self.subseq_count < 1 or not 1 <= self.subseq_min <= self.subseq_max:
            raise ValueError("need subseq_count >= 1 and 1 <= subseq_min <= subseq_max")
        if self.dataset_dir is None and self.subseq_max > self.seq_length:
            raise ValueError(f"subseq_max {self.subseq_max} exceeds seq_length {self.seq_length}")
        self.schedule()  # the loss-weight and stage checks

    def data_spec(self) -> DataSpec:
        return DataSpec(**{f.name: getattr(self, f.name) for f in fields(DataSpec)})

    def regressor_config(self, input_dim: int) -> md.RegressorConfig:
        return md.RegressorConfig(input_dim=input_dim, lstm_sizes=self.lstm_sizes)

    def schedule(self) -> cur.CurriculumSchedule:
        """One stage per alpha, in the order given; every other setting is shared."""
        return cur.CurriculumSchedule(
            stages=tuple(ls.LossWeights(alpha=a, delta=self.delta, zeta=self.zeta,
                                        window=self.window) for a in self.alphas),
            max_epochs=self.max_epochs_per_stage,
            patience=self.patience,
            min_delta=self.min_delta,
        )


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    stage: int
    alpha: float
    train_loss: float
    val_loss: float
    wall_time: float  # informational; never persisted (runs must be replayable)


@dataclass
class RunLog:
    records: list[EpochRecord] = field(default_factory=list)
    stage_params: list[ad.ParamStore] = field(default_factory=list)  # one per stage, at its end
    final_metrics: dict = field(default_factory=dict)

    @property
    def transitions(self) -> list[EpochRecord]:
        """The last epoch of each stage, in stage order: the one that ended it."""
        return list({r.stage: r for r in self.records}.values())


def save_runlog(runlog: RunLog, path) -> None:
    geo.write_csv(
        path,
        ("epoch", "stage", "alpha", "train_loss", "val_loss"),
        ((r.epoch, r.stage, r.alpha, r.train_loss, r.val_loss) for r in runlog.records),
    )


def save_transitions(runlog: RunLog, path) -> None:
    geo.write_csv(
        path,
        ("epoch", "stage", "alpha", "val_loss"),
        ((t.epoch, t.stage, t.alpha, t.val_loss) for t in runlog.transitions),
    )


@dataclass
class PreparedData:
    train: list[sd.Sequence]
    val: list[sd.Sequence]
    stats: np.ndarray  # the training-set feature mean
    input_dim: int


def _seed_streams(master_seed: int):
    """Fixed-order child seeds: (data, init, epochs, holdout)."""
    children = np.random.SeedSequence(master_seed).spawn(4)
    return tuple(np.random.default_rng(child) for child in children)


def synthesize(spec: DataSpec, count: int, stream: int = 0) -> list[sd.Sequence]:
    """``count`` sequences seeded from ``_seed_streams(spec.seed)[stream]``, made by
    one ``generate`` call: the one generation path, behind ``train``'s data, the
    held-out sequences and ``gen-data``. A count below 1 builds no feature model.

    The feature model always takes the first draw of the data stream, so the
    training and held-out sequences share one feature encoding.
    """
    if count < 1:
        return []
    streams = _seed_streams(spec.seed)
    feature_model = sd.FeatureModel.seeded(
        spec.feature_dim, seed=int(streams[0].integers(2**31)), noise_sigma=spec.noise_sigma,
        nuisance_dim=spec.nuisance_dim, noise_rho=spec.noise_rho, bias_sigma=spec.bias_sigma)
    seeds = [int(streams[stream].integers(2**31)) for _ in range(count)]
    return sd.generate(sd.MOTION_PRESETS[spec.preset](), feature_model, spec.seq_length, seeds)


def prepare_data(config: RunConfig) -> PreparedData:
    """The config's data, loaded or generated, split at the sequence level, less the
    training-set mean; ValueError names the first training sequence shorter than ``subseq_max``."""
    if config.dataset_dir is not None:
        sequences, _ = sd.load_dataset(config.dataset_dir)
    else:
        sequences = synthesize(config.data_spec(), config.n_sequences)
    if len(sequences) < 2:
        raise ValueError("need at least 2 sequences to hold out validation data")
    n_val = max(1, int(round(config.val_split * len(sequences))))
    n_val = min(n_val, len(sequences) - 1)
    train_seqs = sequences[: len(sequences) - n_val]
    val_seqs = sequences[len(sequences) - n_val :]
    for index, seq in enumerate(train_seqs):  # every span is drawn from one sequence
        if len(seq) < config.subseq_max:
            raise ValueError(f"training sequence {index} has {len(seq)} steps, fewer than "
                             f"subseq_max {config.subseq_max}")
    train_norm, stats = sd.normalize_features(train_seqs)
    val_norm = [sd.apply_feature_stats(s, stats) for s in val_seqs]
    return PreparedData(
        train=train_norm,
        val=val_norm,
        stats=stats,
        input_dim=train_norm[0].features.shape[1],
    )


def validation_loss(store, model_cfg, sequences, weights, truths=None) -> float:
    """Mean per-step objective, from the no-grad forward and loss; ``truths`` holds
    each sequence's truth windows, if given."""
    truths = truths or [None] * len(sequences)
    return float(np.mean([ls.sequence_loss_value(md.predict(seq.features, model_cfg, store),
                                                 seq.relatives, weights, windows) / len(seq)
                          for seq, windows in zip(sequences, truths)]))


def relative_validation_loss(store, model_cfg, config: RunConfig, sequences) -> float:
    """Pure relative objective (alpha=1): the common yardstick across modes."""
    weights = ls.LossWeights(alpha=1.0, delta=config.delta, zeta=config.zeta, window=1)
    return validation_loss(store, model_cfg, sequences, weights)


def relative_pose_errors(store, model_cfg, sequences) -> tuple[float, float]:
    """Mean per-frame translation error (m) and rotation error (deg)."""
    truth = np.vstack([seq.relatives for seq in sequences])
    predicted = np.vstack([md.predict(seq.features, model_cfg, store) for seq in sequences])
    trans, angle, _ = ev._mismatch(geo._vector_arrays(truth), geo._vector_arrays(predicted))
    return float(np.mean(trans)), float(np.mean(np.degrees(angle)))


def predicted_trajectory(store, model_cfg, sequence: sd.Sequence) -> geo.Trajectory:
    return geo.accumulate_vectors(md.predict(sequence.features, model_cfg, store))


def span_gradients(store: ad.ParamStore, model_cfg: md.RegressorConfig, features, gt, weights,
                   truth_windows=None) -> float:
    """One span's objective total, from the zero state; when it is finite, the
    span's gradient is added into ``store.grads``, and otherwise they are left as
    they were. The forward, the objective and the reverse sweep are each looked
    up on their module, where the benchmark's tracer wraps them."""
    preds, _ = md.forward_sequence(ad.Tape(), features, model_cfg, store)
    total = ls.sequence_loss(preds, gt, weights, truth_windows)
    value = total.item()
    if math.isfinite(value):
        ad.backward(total)
    return value


def train(config: RunConfig, data: PreparedData | None = None) -> tuple[ad.ParamStore, RunLog]:
    """Run the full staged loop; returns the trained store and its log."""
    schedule = config.schedule()
    if data is None:
        data = prepare_data(config)
    model_cfg = config.regressor_config(data.input_dim)
    _, init_rng, epoch_rng, _ = _seed_streams(config.seed)
    store = md.init_params(model_cfg, seed=int(init_rng.integers(2**31)))

    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    # every stage shares the window, so each sequence's truth windows are built once;
    # a span's are a slice of them, with the same bits
    truths, val_truths = ([ls.ground_truth_window_relatives(seq.relatives, config.window)
                           for seq in seqs] if min(config.alphas) < 1.0 else None
                          for seqs in (data.train, data.val))
    runlog = RunLog()
    progress = cur.StageProgress()
    epoch = 0
    while not progress.complete:
        weights = schedule.stages[progress.stage_index]
        epoch += 1
        started = time.perf_counter()
        batch_losses = []
        for seq_index, seq in enumerate(data.train):
            sample_seed = int(epoch_rng.integers(2**31))
            spans = sd.subsequence_spans(
                len(seq), config.subseq_count, config.subseq_min, config.subseq_max, sample_seed
            )
            for start, length in spans:
                end = start + max(0, length - config.window + 1)  # the span's windows
                windows = truths and tuple(a[start:end] for a in truths[seq_index])
                value = span_gradients(store, model_cfg, seq.features[start : start + length],
                                       seq.relatives[start : start + length], weights, windows)
                if not math.isfinite(value):
                    raise NonFiniteLossError(epoch, progress.stage_index, "train", value, seq_index)
                if config.grad_clip > 0.0:
                    norm = store.grad_norm()
                    if norm > config.grad_clip:
                        store.scale_grads(config.grad_clip / norm)
                ad.adam_step(store, lr=config.learning_rate)
                batch_losses.append(value / length)
        train_loss = float(np.mean(batch_losses))
        val_loss = validation_loss(store, model_cfg, data.val, weights, val_truths)
        if not math.isfinite(val_loss):
            raise NonFiniteLossError(epoch, progress.stage_index, "validation", val_loss)
        runlog.records.append(EpochRecord(epoch, progress.stage_index, weights.alpha, train_loss,
                                          val_loss, wall_time=time.perf_counter() - started))
        progress, moved = cur.advance(progress, val_loss, schedule)
        if moved:  # the epoch just logged ended its stage
            runlog.stage_params.append(store.params_copy())
            if out_dir is not None:
                stage = runlog.records[-1].stage
                runlog.stage_params[-1].save(out_dir / f"checkpoint_stage{stage}.txt")

    runlog.final_metrics["epochs"] = epoch
    if out_dir is not None:
        store.save(out_dir / "checkpoint_final.txt")
        save_runlog(runlog, out_dir / "runlog.csv")
        save_transitions(runlog, out_dir / "transitions.csv")
    return store, runlog


# --- controlled comparisons ----------------------------------------------------


@dataclass(frozen=True)
class StageMetrics:
    """One ``ablation.csv`` line: one mode's scores at one stage end. Only the segment scores
    are held out; ``val_relative_loss`` is on ``data.val``, whose loss set the stage ends."""

    mode: str
    seed: int
    stage: int
    val_relative_loss: float
    segment_trans_pct: float
    segment_rot_deg_per_m: float


def _mode_config(config: RunConfig, mode: str) -> RunConfig:
    """``config`` with the alphas (and, for fixed-bounded, the window) of one of
    the ablation's named schedules."""
    stages = len(config.alphas)
    if mode == "curriculum":
        return config
    if mode == "anti-curriculum":
        return replace(config, alphas=config.alphas[::-1])
    if mode == "fixed-relative":
        return replace(config, alphas=(1.0,) * stages)
    if mode == "fixed-bounded":
        return replace(config, alphas=(0.5,) * stages, window=2)
    raise ValueError(f"unknown ablation mode {mode!r}")


def check_ablation(config: RunConfig, seeds) -> None:
    """ValueError unless ``ablate`` can run ``config`` over ``seeds``."""
    if config.dataset_dir is not None:
        raise ValueError("ablate needs generated data: its held-out sequences come from "
                         "the generator, so dataset_dir must be unset")
    if len(seeds) < 2:
        raise ValueError("ablation needs at least 2 seeds")


def holdout_sequences(config: RunConfig, mean: np.ndarray, count: int) -> list[sd.Sequence]:
    """Extra sequences never seen in training, normalized like test data."""
    return [sd.apply_feature_stats(seq, mean) for seq in synthesize(config.data_spec(), count, 3)]


def _segment_metrics(store, model_cfg, holdouts, lengths) -> tuple[float, float]:
    trans, rot = [], []
    for holdout in holdouts:
        est = predicted_trajectory(store, model_cfg, holdout)
        report = ev.segment_errors(holdout.trajectory, est, lengths)
        trans.append(report.mean_trans_pct())
        rot.append(report.mean_rot_deg_per_m())
    return float(np.mean(trans)), float(np.mean(rot))


def ablate(config: RunConfig, seeds) -> list[StageMetrics]:
    """Train every one of ``ABLATION_MODES`` on identical data and init per seed; one
    row per stage of each run, by seed, then mode, then stage.

    Modes share the full stage structure (fixed baselines repeat their single
    weight setting across the same number of stages), so every run gets the
    same epoch budget and plateau rule and only the objective differs.
    Segment metrics average over ``HOLDOUT_COUNT`` fresh sequences, at the preset's
    segment lengths. Every seed's held-out paths must fit a segment, which is
    checked before any training.
    """
    seeds = list(seeds)
    check_ablation(config, seeds)
    segment_lengths = (
        ev.WALKER_SEGMENT_LENGTHS if config.preset == "walker" else ev.VEHICLE_SEGMENT_LENGTHS
    )
    runs = []
    for seed in seeds:
        base = replace(config, seed=int(seed), out_dir=None)
        data = prepare_data(base)
        holdouts = holdout_sequences(base, data.stats, HOLDOUT_COUNT)
        for index, holdout in enumerate(holdouts):
            try:
                ev._segment_spans(holdout.trajectory, segment_lengths)
            except ev.SegmentTooLongError as exc:
                raise ev.SegmentTooLongError(
                    f"seed {seed}, held-out sequence {index}: {exc}") from None
        runs.append((seed, base, data, holdouts))
    rows = []
    for seed, base, data, holdouts in runs:
        for mode in ABLATION_MODES:
            mode_cfg = _mode_config(base, mode)
            model_cfg = mode_cfg.regressor_config(data.input_dim)
            _, runlog = train(mode_cfg, data=data)
            rows.extend(
                StageMetrics(mode, int(seed), stage,
                             relative_validation_loss(store, model_cfg, base, data.val),
                             *_segment_metrics(store, model_cfg, holdouts, segment_lengths))
                for stage, store in enumerate(runlog.stage_params))
    return rows


def write_ablation_csv(rows: list[StageMetrics], path) -> None:
    geo.write_csv(path, [f.name for f in fields(StageMetrics)], map(astuple, rows))


@dataclass(frozen=True)
class SweepRow:
    """One ``sweep.csv`` line: the validation errors of one alpha, raw and normalized."""

    alpha: float
    trans_err_m: float
    rot_err_deg: float
    trans_norm: float
    rot_norm: float


def sweep_configs(config: RunConfig, alphas, epochs: int) -> list[RunConfig]:
    """One first-stage-only config per alpha: a single fixed stage of ``epochs``
    epochs. Building them checks each alpha and the epoch count (ValueError)."""
    if not alphas:
        raise ValueError("an alpha sweep needs at least one alpha")
    return [
        replace(config, alphas=(alpha,), max_epochs_per_stage=epochs,
                patience=epochs, out_dir=None)
        for alpha in alphas
    ]


def alpha_sweep(config: RunConfig, alphas, epochs: int,
                data: PreparedData | None = None) -> list[SweepRow]:
    """First-stage-only training at each fixed alpha, on shared data (``prepare_data``'s
    of the config unless given) and init.

    Errors are measured on the validation sequences and normalized so the
    worst alpha in the sweep maps to 1.0.
    """
    alphas = [float(a) for a in alphas]
    configs = sweep_configs(config, alphas, epochs)
    if data is None:
        data = prepare_data(config)
    raw = []
    for sweep_cfg in configs:
        store, _ = train(sweep_cfg, data=data)
        model_cfg = sweep_cfg.regressor_config(data.input_dim)
        raw.append(relative_pose_errors(store, model_cfg, data.val))
    max_trans = max(r[0] for r in raw) or 1.0
    max_rot = max(r[1] for r in raw) or 1.0
    return [SweepRow(alpha, trans, rot, trans / max_trans, rot / max_rot)
            for alpha, (trans, rot) in zip(alphas, raw)]


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    geo.write_csv(path, [f.name for f in fields(SweepRow)], map(astuple, rows))
