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

The schedule is the tuple ``alphas``, one stage per value: ``RunConfig``
reverses it for the anti-curriculum, requires one repeated value for a fixed
run, and checks the mode, the loss weights and the stage rules when it is
built, so a bad config fails before any file is written.

The ablation grid and alpha sweep hold data and initialization fixed per seed
so that only the objective schedule differs between the compared runs. The
ablation scores each stage from the run log's parameter copies; its held-out
sequences come from the generator, so it needs generated data.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import curriculum as cur
from . import evaluation as ev
from . import geometry as geo
from . import loss as ls
from . import model as md
from . import synthdata as sd

SCHEDULE_MODES = ("curriculum", "anti-curriculum", "fixed")
ABLATION_MODES = ("curriculum", "anti-curriculum", "fixed-relative", "fixed-bounded")
SWEEP_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


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
    head_hidden: int | None = None
    dropout: float = 0.0
    # objective schedule
    mode: str = "curriculum"
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
        if self.preset not in sd.MOTION_PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.mode not in SCHEDULE_MODES:
            raise ValueError(f"mode must be one of {SCHEDULE_MODES}, got {self.mode!r}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "lstm_sizes", tuple(int(n) for n in self.lstm_sizes))
        if self.mode == "fixed" and len(set(self.alphas)) != 1:
            raise ValueError("fixed mode needs a single alpha value")
        if self.dataset_dir is None:  # generated data: generate's and the feature model's rules
            if self.n_sequences < 2:  # one to train on, one to validate on
                raise ValueError(f"need n_sequences >= 2, got {self.n_sequences}")
            sd.check_length(self.seq_length)
            build_feature_model(self, np.random.default_rng(0))
        if self.subseq_count < 1 or not 1 <= self.subseq_min <= self.subseq_max:
            raise ValueError("need subseq_count >= 1 and 1 <= subseq_min <= subseq_max")
        if self.dataset_dir is None and self.subseq_max > self.seq_length:
            raise ValueError(f"subseq_max {self.subseq_max} exceeds seq_length {self.seq_length}")
        self.schedule()  # the loss-weight and stage checks

    def regressor_config(self, input_dim: int) -> md.RegressorConfig:
        return md.RegressorConfig(
            input_dim=input_dim,
            lstm_sizes=self.lstm_sizes,
            head_hidden=self.head_hidden,
            dropout=self.dropout,
        )

    def schedule(self) -> cur.CurriculumSchedule:
        """One stage per alpha: reversed for the anti-curriculum, as given otherwise."""
        return cur.build_schedule(
            self.alphas[::-1] if self.mode == "anti-curriculum" else self.alphas,
            delta=self.delta,
            zeta=self.zeta,
            window=self.window,
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
    stats: sd.FeatureStats
    input_dim: int


def _seed_streams(master_seed: int):
    """Fixed-order child seeds: (data, init, epochs, holdout)."""
    children = np.random.SeedSequence(master_seed).spawn(4)
    return tuple(np.random.default_rng(child) for child in children)


def build_feature_model(config: RunConfig, data_rng) -> sd.FeatureModel:
    encoding_seed = int(data_rng.integers(2**31))
    return sd.FeatureModel.seeded(
        config.feature_dim,
        seed=encoding_seed,
        noise_sigma=config.noise_sigma,
        nuisance_dim=config.nuisance_dim,
        nuisance_sigma=config.noise_sigma * 5.0,
        noise_rho=config.noise_rho,
        bias_sigma=config.bias_sigma,
    )


def _synthesize(config: RunConfig, count: int, stream: int) -> list[sd.Sequence]:
    """``count`` sequences seeded from ``_seed_streams(config.seed)[stream]``.

    The feature model always takes the first draw of the data stream, so the
    training and held-out sequences share one feature encoding.
    """
    streams = _seed_streams(config.seed)
    motion = sd.MOTION_PRESETS[config.preset]()
    feature_model = build_feature_model(config, streams[0])
    seeds = [int(streams[stream].integers(2**31)) for _ in range(count)]
    return [
        sd.generate(motion, feature_model, length=config.seq_length, seed=s) for s in seeds
    ]


def generate_sequences(config: RunConfig, count: int | None = None) -> list[sd.Sequence]:
    """The run's synthetic dataset, as ``train`` and ``gen-data`` build it."""
    return _synthesize(config, count if count is not None else config.n_sequences, 0)


def prepare_data(config: RunConfig, sequences: list[sd.Sequence] | None = None) -> PreparedData:
    """Split at the sequence level and normalize with training-set statistics."""
    if sequences is None:
        if config.dataset_dir is not None:
            sequences, _ = sd.load_dataset(config.dataset_dir)
        else:
            sequences = generate_sequences(config)
    if len(sequences) < 2:
        raise ValueError("need at least 2 sequences to hold out validation data")
    n_val = max(1, int(round(config.val_split * len(sequences))))
    n_val = min(n_val, len(sequences) - 1)
    train_seqs = sequences[: len(sequences) - n_val]
    val_seqs = sequences[len(sequences) - n_val :]
    train_norm, stats = sd.normalize_features(train_seqs)
    val_norm = [sd.apply_feature_stats(s, stats) for s in val_seqs]
    return PreparedData(
        train=train_norm,
        val=val_norm,
        stats=stats,
        input_dim=train_norm[0].features.shape[1],
    )


def sequence_objective(
    store: ad.ParamStore,
    model_cfg: md.RegressorConfig,
    sequence: sd.Sequence,
    weights: ls.LossWeights,
) -> float:
    """Per-step objective of one sequence, from the no-grad forward and loss."""
    rows = predict_relatives(store, model_cfg, sequence)
    return ls.sequence_loss_value(rows, sequence.relatives, weights) / len(sequence)


def validation_loss(store, model_cfg, sequences, weights) -> float:
    return float(np.mean([sequence_objective(store, model_cfg, s, weights) for s in sequences]))


def relative_validation_loss(store, model_cfg, config: RunConfig, sequences) -> float:
    """Pure relative objective (alpha=1): the common yardstick across modes."""
    weights = ls.LossWeights(alpha=1.0, delta=config.delta, zeta=config.zeta, window=1)
    return validation_loss(store, model_cfg, sequences, weights)


def predict_relatives(store, model_cfg, sequence: sd.Sequence) -> np.ndarray:
    return md.predict(sequence.features, model_cfg, store)


def relative_pose_errors(store, model_cfg, sequences) -> tuple[float, float]:
    """Mean per-frame translation error (m) and rotation error (deg)."""
    truth = np.vstack([seq.relatives for seq in sequences])
    predicted = np.vstack([predict_relatives(store, model_cfg, seq) for seq in sequences])
    trans, angle, _ = ev._mismatch(geo._vector_arrays(truth), geo._vector_arrays(predicted))
    return float(np.mean(trans)), float(np.mean(np.degrees(angle)))


def predicted_trajectory(store, model_cfg, sequence: sd.Sequence) -> geo.Trajectory:
    return geo.accumulate_vectors(predict_relatives(store, model_cfg, sequence))


def span_gradients(store: ad.ParamStore, model_cfg: md.RegressorConfig, features, gt, weights,
                   truth_windows=None, dropout_rng=None) -> float:
    """One span's objective total, from the zero state; when it is finite, the
    span's gradient is added into ``store.grads``, and otherwise they are left as
    they were. The forward, the objective and the reverse sweep are each looked
    up on their module, where the benchmark's tracer wraps them."""
    preds, _ = md.forward_sequence(ad.Tape(), features, model_cfg, store, dropout_rng=dropout_rng)
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
    truths = [ls.ground_truth_window_relatives(seq.relatives, config.window)
              for seq in data.train] if min(config.alphas) < 1.0 else None
    runlog = RunLog()
    progress = cur.StageProgress()
    epoch = 0
    while not progress.complete:
        weights = cur.current_weights(progress, schedule)
        epoch += 1
        started = time.perf_counter()
        batch_losses = []
        for seq_index, seq in enumerate(data.train):
            sample_seed = int(epoch_rng.integers(2**31))
            spans = sd.subsequence_spans(
                len(seq), config.subseq_count, config.subseq_min, config.subseq_max, sample_seed
            )
            for start, length in spans:
                dropout_rng = None
                if model_cfg.dropout > 0.0:
                    dropout_rng = np.random.default_rng(int(epoch_rng.integers(2**31)))
                end = start + max(0, length - config.window + 1)  # the span's windows
                windows = truths and tuple(a[start:end] for a in truths[seq_index])
                value = span_gradients(store, model_cfg, seq.features[start : start + length],
                                       seq.relatives[start : start + length], weights, windows,
                                       dropout_rng)
                if not math.isfinite(value):
                    raise NonFiniteLossError(epoch, progress.stage_index, "train", value, seq_index)
                if config.grad_clip > 0.0:
                    norm = store.grad_norm()
                    if norm > config.grad_clip:
                        store.scale_grads(config.grad_clip / norm)
                ad.adam_step(store, lr=config.learning_rate)
                batch_losses.append(value / length)
        train_loss = float(np.mean(batch_losses))
        val_loss = validation_loss(store, model_cfg, data.val, weights)
        if not math.isfinite(val_loss):
            raise NonFiniteLossError(epoch, progress.stage_index, "validation", val_loss)
        runlog.records.append(
            EpochRecord(
                epoch=epoch,
                stage=progress.stage_index,
                alpha=weights.alpha,
                train_loss=train_loss,
                val_loss=val_loss,
                wall_time=time.perf_counter() - started,
            )
        )
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
    stage: int
    val_relative_loss: float
    segment_trans_pct: float
    segment_rot_deg_per_m: float


@dataclass(frozen=True)
class AblationRow:
    mode: str
    seed: int
    stages: tuple[StageMetrics, ...]

    def final(self) -> StageMetrics:
        return self.stages[-1]


@dataclass
class AblationReport:
    rows: list[AblationRow] = field(default_factory=list)
    segment_lengths: tuple[float, ...] = ()

    def modes(self):
        seen = []
        for row in self.rows:
            if row.mode not in seen:
                seen.append(row.mode)
        return seen

    def rows_for(self, mode: str):
        return [row for row in self.rows if row.mode == mode]


def _mode_config(config: RunConfig, mode: str) -> RunConfig:
    stages = len(config.alphas)
    if mode == "curriculum":
        return replace(config, mode="curriculum")
    if mode == "anti-curriculum":
        return replace(config, mode="anti-curriculum")
    if mode == "fixed-relative":
        return replace(config, mode="fixed", alphas=(1.0,) * stages)
    if mode == "fixed-bounded":
        return replace(config, mode="fixed", alphas=(0.5,) * stages, window=2)
    raise ValueError(f"unknown ablation mode {mode!r}")


def check_ablation(config: RunConfig, seeds) -> None:
    """ValueError unless ``ablate`` can run ``config`` over ``seeds``."""
    if config.dataset_dir is not None:
        raise ValueError("ablate needs generated data: its held-out sequences come from "
                         "the generator, so dataset_dir must be unset")
    if len(seeds) < 2:
        raise ValueError("ablation needs at least 2 seeds")


def holdout_sequences(config: RunConfig, stats: sd.FeatureStats, count: int) -> list[sd.Sequence]:
    """Extra sequences never seen in training, normalized like test data."""
    return [sd.apply_feature_stats(seq, stats) for seq in _synthesize(config, count, 3)]


def _segment_metrics(store, model_cfg, holdouts, lengths) -> tuple[float, float]:
    trans, rot = [], []
    for holdout in holdouts:
        est = predicted_trajectory(store, model_cfg, holdout)
        report = ev.segment_errors(holdout.trajectory, est, lengths)
        trans.append(report.mean_trans_pct())
        rot.append(report.mean_rot_deg_per_m())
    return float(np.mean(trans)), float(np.mean(rot))


def ablate(
    config: RunConfig,
    seeds,
    modes=ABLATION_MODES,
    segment_lengths=None,
    holdout_count: int = 3,
) -> AblationReport:
    """Train every mode on identical data and init per seed; compare per stage.

    Modes share the full stage structure (fixed baselines repeat their single
    weight setting across the same number of stages), so every run gets the
    same epoch budget and plateau rule and only the objective differs.
    Held-out metrics average over ``holdout_count`` fresh sequences.
    """
    seeds = list(seeds)
    check_ablation(config, seeds)
    if segment_lengths is None:
        segment_lengths = (
            ev.WALKER_SEGMENT_LENGTHS if config.preset == "walker" else ev.VEHICLE_SEGMENT_LENGTHS
        )
    report = AblationReport(segment_lengths=tuple(segment_lengths))
    for seed in seeds:
        base = replace(config, seed=int(seed), out_dir=None)
        data = prepare_data(base)
        holdouts = holdout_sequences(base, data.stats, holdout_count)
        for mode in modes:
            mode_cfg = _mode_config(base, mode)
            model_cfg = mode_cfg.regressor_config(data.input_dim)
            _, runlog = train(mode_cfg, data=data)
            stages = tuple(
                StageMetrics(stage, relative_validation_loss(store, model_cfg, base, data.val),
                             *_segment_metrics(store, model_cfg, holdouts, segment_lengths))
                for stage, store in enumerate(runlog.stage_params)
            )
            report.rows.append(AblationRow(mode=mode, seed=int(seed), stages=stages))
    return report


def write_ablation_csv(report: AblationReport, path) -> None:
    geo.write_csv(
        path,
        ("mode", "seed", "stage", "val_relative_loss", "segment_trans_pct",
         "segment_rot_deg_per_m"),
        (
            (row.mode, row.seed, sm.stage, sm.val_relative_loss, sm.segment_trans_pct,
             sm.segment_rot_deg_per_m)
            for row in report.rows
            for sm in row.stages
        ),
    )


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    trans_err_m: float
    rot_err_deg: float
    trans_norm: float
    rot_norm: float


@dataclass
class SweepReport:
    rows: list[SweepRow] = field(default_factory=list)


def sweep_configs(config: RunConfig, alphas, epochs: int) -> list[RunConfig]:
    """One first-stage-only config per alpha: a single fixed stage of ``epochs``
    epochs. Building them checks each alpha and the epoch count (ValueError)."""
    if not alphas:
        raise ValueError("an alpha sweep needs at least one alpha")
    return [
        replace(config, mode="fixed", alphas=(alpha,), max_epochs_per_stage=epochs,
                patience=epochs, out_dir=None)
        for alpha in alphas
    ]


def alpha_sweep(config: RunConfig, alphas=SWEEP_ALPHAS, epochs: int = 10) -> SweepReport:
    """First-stage-only training at each fixed alpha, on shared data and init.

    Errors are measured on the validation sequences and normalized so the
    worst alpha in the sweep maps to 1.0.
    """
    alphas = [float(a) for a in alphas]
    configs = sweep_configs(config, alphas, epochs)
    data = prepare_data(replace(config, out_dir=None))
    raw = []
    for sweep_cfg in configs:
        store, _ = train(sweep_cfg, data=data)
        model_cfg = sweep_cfg.regressor_config(data.input_dim)
        raw.append(relative_pose_errors(store, model_cfg, data.val))
    max_trans = max(r[0] for r in raw) or 1.0
    max_rot = max(r[1] for r in raw) or 1.0
    return SweepReport(
        rows=[
            SweepRow(
                alpha=alpha,
                trans_err_m=trans,
                rot_err_deg=rot,
                trans_norm=trans / max_trans,
                rot_norm=rot / max_rot,
            )
            for alpha, (trans, rot) in zip(alphas, raw)
        ]
    )


def write_sweep_csv(report: SweepReport, path) -> None:
    geo.write_csv(
        path,
        ("alpha", "trans_err_m", "rot_err_deg", "trans_norm", "rot_norm"),
        ((r.alpha, r.trans_err_m, r.rot_err_deg, r.trans_norm, r.rot_norm) for r in report.rows),
    )
