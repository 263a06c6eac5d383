"""Deterministic synthetic trajectories and per-step feature vectors.

Motion: body speed and angular rates follow mean-reverting (OU) processes
integrated with the exact conditional update, so trajectories are smooth.
Pitch and roll angles are hard-clipped well clear of the Euler singularity,
which guarantees the gimbal guard for every derived relative pose. Two
presets: "vehicle" (fast, gentle turning) and "walker" (slow with an
oscillatory yaw sweep).

Features stand in for a flow front end: a fixed random full-rank linear
encoding of the 6-DoF step motion plus Gaussian observation noise, with
optional pure-noise nuisance channels appended. With zero noise the step
motion is exactly recoverable by least squares, so the regression task is
well posed by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import geometry as geo

_MIN_PITCH_MARGIN = 0.1  # rad between the clamp and pi/2


class InvalidRangeError(ValueError):
    """Subsequence sampling bounds are inconsistent with the source length."""


@dataclass(frozen=True)
class OuParams:
    """Mean-reverting process: d x = -reversion (x - mean) dt + sigma dW."""

    mean: float = 0.0
    reversion: float = 1.0
    sigma: float = 0.0


@dataclass(frozen=True)
class MotionModel:
    dt: float = 0.1
    speed: OuParams = field(default_factory=lambda: OuParams(mean=1.0, reversion=1.0, sigma=0.1))
    roll_rate: OuParams = field(default_factory=lambda: OuParams(reversion=3.0, sigma=0.02))
    pitch_rate: OuParams = field(default_factory=lambda: OuParams(reversion=3.0, sigma=0.02))
    yaw_rate: OuParams = field(default_factory=lambda: OuParams(reversion=1.5, sigma=0.1))
    yaw_oscillation_amp: float = 0.0  # rad/s added to the yaw rate mean
    yaw_oscillation_period: float = 4.0  # seconds
    pitch_clamp: float = 0.4  # |pitch| bound, rad
    roll_clamp: float = 0.3

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("timestep must be positive")
        for name, clamp in (("pitch_clamp", self.pitch_clamp), ("roll_clamp", self.roll_clamp)):
            if clamp < 0 or math.pi / 2 - clamp < _MIN_PITCH_MARGIN:
                raise ValueError(f"{name} must leave >= {_MIN_PITCH_MARGIN} rad of gimbal margin")


def vehicle_motion() -> MotionModel:
    """Driving-like preset: ~10 m/s, low angular rates."""
    return MotionModel(
        dt=0.1,
        speed=OuParams(mean=10.0, reversion=0.5, sigma=0.8),
        roll_rate=OuParams(reversion=4.0, sigma=0.01),
        pitch_rate=OuParams(reversion=4.0, sigma=0.01),
        yaw_rate=OuParams(reversion=1.0, sigma=0.06),
        pitch_clamp=0.25,
        roll_clamp=0.15,
    )


def walker_motion() -> MotionModel:
    """Head-mounted walking preset: ~1.4 m/s with a sweeping yaw pattern."""
    return MotionModel(
        dt=0.1,
        speed=OuParams(mean=1.4, reversion=1.0, sigma=0.25),
        roll_rate=OuParams(reversion=3.0, sigma=0.05),
        pitch_rate=OuParams(reversion=3.0, sigma=0.05),
        yaw_rate=OuParams(reversion=1.5, sigma=0.25),
        yaw_oscillation_amp=0.8,
        yaw_oscillation_period=4.0,
        pitch_clamp=0.35,
        roll_clamp=0.25,
    )


MOTION_PRESETS = {"vehicle": vehicle_motion, "walker": walker_motion}


@dataclass(frozen=True)
class FeatureModel:
    """Fixed linear encoding of the 6-DoF step motion, plus noise channels.

    Observation noise of std ``noise_sigma`` can be frame-correlated (AR(1) with
    coefficient ``noise_rho``) and carry a per-sequence constant offset of std
    ``bias_sigma``, mimicking calibration drift of a flow front end. The
    ``nuisance_dim`` pure-noise channels appended draw at five times ``noise_sigma``,
    with the same correlation. No setting has a default; a run's come from RunConfig.
    """

    encoding: np.ndarray  # (feature_dim, 6), full column rank
    noise_sigma: float
    nuisance_dim: int
    noise_rho: float
    bias_sigma: float

    def __post_init__(self):
        enc = np.array(self.encoding, dtype=np.float64)
        if enc.ndim != 2 or enc.shape[1] != 6:
            raise ValueError(f"encoding must be (feature_dim, 6), got {enc.shape}")
        check_feature_settings(len(enc), self.noise_sigma, self.nuisance_dim, self.noise_rho,
                               self.bias_sigma)
        if np.linalg.matrix_rank(enc) != 6:
            raise ValueError("encoding must have full column rank")
        enc.flags.writeable = False
        object.__setattr__(self, "encoding", enc)

    @staticmethod
    def seeded(feature_dim: int, seed: int, **settings) -> "FeatureModel":
        """A (feature_dim, 6) standard-normal encoding drawn from ``seed``, with ``settings``."""
        return FeatureModel(np.random.default_rng(seed).normal(size=(feature_dim, 6)), **settings)

    def _observation_noise(self, length: int, rng: np.random.Generator) -> np.ndarray:
        """AR(1) noise with stationary std noise_sigma, plus the sequence bias."""
        width = self.encoding.shape[0]
        noise = np.zeros((length, width))
        if self.noise_sigma > 0:
            noise = _ar1(self.noise_sigma * rng.normal(size=(length, width)), self.noise_rho)
        if self.bias_sigma > 0:
            noise = noise + self.bias_sigma * rng.normal(size=width)
        return noise


def check_feature_settings(feature_dim, noise_sigma, nuisance_dim, noise_rho, bias_sigma) -> None:
    """The rules on a feature model's settings, checked without drawing an encoding:
    a seeded encoding of at least 6 rows has full column rank."""
    if feature_dim < 6:
        raise ValueError("feature_dim must be >= 6 for a full-rank encoding")
    if not 0.0 <= noise_sigma < math.inf or nuisance_dim < 0:
        raise ValueError("noise parameters must be finite and non-negative")
    if not 0.0 <= noise_rho < 1.0:
        raise ValueError("noise_rho must be in [0, 1)")
    if not 0.0 <= bias_sigma < math.inf:
        raise ValueError("bias_sigma must be finite and non-negative")


def _ar1(innovations: np.ndarray, rho: float) -> np.ndarray:
    """x_t = rho x_(t-1) + sqrt(1 - rho^2) e_t from x_0 = e_0, computed in place over rows."""
    if rho != 0.0:
        scale = math.sqrt(1.0 - rho**2)
        for t in range(1, len(innovations)):
            innovations[t] = rho * innovations[t - 1] + scale * innovations[t]
    return innovations


@dataclass(frozen=True)
class Sequence:
    """Ground-truth trajectory, its per-step 6-DoF relatives, and features."""

    trajectory: geo.Trajectory
    relatives: np.ndarray  # (T, 6)
    features: np.ndarray  # (T, feature_dim)
    seed: int

    def __post_init__(self):
        if len(self.trajectory) != len(self.relatives) + 1:
            raise ValueError("trajectory must have exactly one more pose than relatives")
        if len(self.relatives) != len(self.features):
            raise ValueError("features must align with relatives")

    def __len__(self) -> int:
        return len(self.relatives)


def _ou_scan(process: OuParams, x: float, dt: float, draws, length: int) -> np.ndarray:
    """``length`` exact OU updates of ``process`` from ``x``, one per step; ``draws``
    holds each step's standard normal z, or is None for a process without noise."""
    decay = math.exp(-process.reversion * dt)
    pull = process.mean * (1.0 - decay)
    if draws is None:
        return np.array([x := x * decay + pull for _ in range(length)])
    std = process.sigma * math.sqrt((1.0 - decay * decay) / (2.0 * process.reversion))
    return np.array([x := x * decay + pull + std * z for z in draws])


def _clamp_scan(steps: np.ndarray, clamp: float) -> np.ndarray:
    """Running sum of ``steps`` from 0.0, put back into [-clamp, clamp] after each step
    as min(max(angle, -clamp), clamp) does."""
    angle, low = 0.0, -clamp
    return np.array([angle := low if low > (a := angle + step) else clamp if clamp < a else a
                     for step in steps.tolist()])


def check_length(length: int) -> None:
    """The rule on ``generate``'s step count."""
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")


def _motion(motion: MotionModel, rngs, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The raw (K, length+1, 3) positions and (K, length+1, 4) quaternions of one
    trajectory per generator, each drawn in order from its own generator. Only the
    draws and the scalar OU and clamp scans run per sequence; the rest are row kernels
    over all sequences' rows at once. Its working arrays are freed on return."""
    count, dt = len(rngs), motion.dt
    # exact OU updates x' = x decay + mean (1 - decay) + std z, each process its own
    # scalar scan; column j of a sequence's innovations holds the z of the j-th process
    # with sigma != 0, in the order of ``processes``
    processes = (motion.speed, motion.roll_rate, motion.pitch_rate, motion.yaw_rate)
    rates = np.empty((4, count, length))  # speed, roll, pitch and yaw rates
    angles = np.empty((count, length, 3))  # (roll, pitch, yaw) of poses 1 .. length
    for k, rng in enumerate(rngs):
        innovations = iter(rng.normal(
            size=(length, sum(p.sigma != 0.0 for p in processes))).T.tolist())
        for j, (p, start) in enumerate(zip(processes, (motion.speed.mean, 0.0, 0.0, 0.0))):
            rates[j, k] = _ou_scan(p, start, dt, next(innovations) if p.sigma != 0.0 else None,
                                   length)
        angles[k, :, 0] = _clamp_scan(rates[1, k] * dt, motion.roll_clamp)
        angles[k, :, 1] = _clamp_scan(rates[2, k] * dt, motion.pitch_clamp)
    speed, _, _, yaw_rate = rates

    if motion.yaw_oscillation_amp != 0.0:  # the sweep is the same for every sequence
        phases = 2.0 * math.pi * (np.arange(length) * dt) / motion.yaw_oscillation_period
        yaw_rate = yaw_rate + motion.yaw_oscillation_amp * np.array(
            list(map(math.sin, phases.tolist())))
    # the yaw sums add step by step from 0.0, as the clamp scans do
    angles[..., 2] = np.add.accumulate(
        np.hstack([np.zeros((count, 1)), yaw_rate * dt]), axis=1)[:, 1:]

    quaternions = np.zeros((count, length + 1, 4))
    quaternions[:, 0, 0] = 1.0
    quaternions[:, 1:] = geo._euler_quats(angles).reshape(count, length, 4)
    advances = np.zeros((count, length, 3))  # body-frame step of each k, at pose k's heading
    advances[..., 0] = speed * dt
    headings = geo._normalize_quat(quaternions[:, :-1])
    moves = np.zeros((count, length + 1, 3))
    moves[:, 1:] = geo._rotate(headings, advances.reshape(-1, 3)).reshape(count, length, 3)
    # cumsum adds step by step from the zero origin, as `position + step` would
    return np.cumsum(moves, axis=1), quaternions


def generate(motion: MotionModel, feature_model: FeatureModel, length: int,
             seeds) -> list[Sequence]:
    """One sequence of ``length`` relative steps (length+1 absolute poses) per seed, in
    order. The motion comes from ``_motion`` and the step relatives from one row kernel
    over all sequences, so each sequence holds the bits it would hold alone."""
    check_length(length)
    seeds = list(seeds)
    if not seeds:
        return []
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # each Trajectory copies its own raw rows and normalizes its quaternions, which is
    # not idempotent; the raw arrays are freed before the relatives are formed
    trajectories = [geo.Trajectory(t, q) for t, q in zip(*_motion(motion, rngs, length))]
    relatives = geo._step_vectors(np.stack([traj.positions for traj in trajectories]),
                                  np.stack([traj.quaternions for traj in trajectories]))
    sequences = []
    for trajectory, rel, rng, seed in zip(trajectories, relatives, rngs, seeds):
        # the feature noise draws follow the motion's on the sequence's own generator
        features = rel @ feature_model.encoding.T
        if feature_model.noise_sigma > 0 or feature_model.bias_sigma > 0:
            features = features + feature_model._observation_noise(length, rng)
        if feature_model.nuisance_dim > 0:
            # nuisance channels draw at five times the noise and share its correlation
            noise = feature_model.noise_sigma * 5.0 * rng.normal(
                size=(length, feature_model.nuisance_dim)
            )
            features = np.hstack([features, _ar1(noise, feature_model.noise_rho)])
        sequences.append(Sequence(trajectory=trajectory, relatives=rel, features=features,
                                  seed=seed))
    return sequences


def subsequence_spans(
    total: int, count: int, min_len: int, max_len: int, seed: int
) -> list[tuple[int, int]]:
    """(start, length) of ``count`` random contiguous slices of ``total`` steps."""
    if not (1 <= min_len <= max_len <= total):
        raise InvalidRangeError(
            f"need 1 <= min_len <= max_len <= {total}, got [{min_len}, {max_len}]"
        )
    rng = np.random.default_rng(seed)
    spans = []
    for _ in range(count):
        length = int(rng.integers(min_len, max_len + 1))
        spans.append((int(rng.integers(0, total - length + 1)), length))
    return spans


def apply_feature_stats(sequence: Sequence, mean: np.ndarray) -> Sequence:
    """``sequence`` with the training-set feature ``mean`` removed, as at test time."""
    return replace(sequence, features=sequence.features - mean)


def normalize_features(dataset: list[Sequence]) -> tuple[list[Sequence], np.ndarray]:
    """Remove the per-dimension dataset mean; returns the mean for reuse."""
    if not dataset:
        raise ValueError("dataset is empty")
    mean = np.vstack([seq.features for seq in dataset]).mean(axis=0)
    return [apply_feature_stats(seq, mean) for seq in dataset], mean


# --- dataset directory layout -------------------------------------------------
#
#   poses/NN.txt      ground-truth trajectory, 3x4-per-line layout
#   relatives/NN.csv  header row, then the generated (t, r) row of each step
#   features/NN.csv   header row, then one feature row per relative step
#   meta.txt          flat key=value lines (seeds, model parameters)
#
# The tables go through ``geometry.write_csv``, so every array reads back bit for bit.

_RELATIVE_COLUMNS = ("tx", "ty", "tz", "roll", "pitch", "yaw")


def _read_array(path) -> np.ndarray:
    return np.array(geo.read_csv(path)[1], dtype=np.float64)


def save_dataset(directory, sequences: list[Sequence], meta: dict) -> None:
    directory = Path(directory)
    for sub in ("poses", "relatives", "features"):
        (directory / sub).mkdir(parents=True, exist_ok=True)
    for index, seq in enumerate(sequences):
        geo.save_trajectory_kitti(seq.trajectory, directory / "poses" / f"{index:02d}.txt")
        geo.write_csv(
            directory / "relatives" / f"{index:02d}.csv", _RELATIVE_COLUMNS, seq.relatives.tolist()
        )
        feature_header = [f"feat_{i}" for i in range(seq.features.shape[1])]
        geo.write_csv(
            directory / "features" / f"{index:02d}.csv", feature_header, seq.features.tolist()
        )
    lines = dict(meta)
    lines["sequences"] = len(sequences)
    for index, seq in enumerate(sequences):
        lines[f"seed_{index:02d}"] = seq.seed
    with open(directory / "meta.txt", "w") as f:
        for key in sorted(lines):
            f.write(f"{key} = {lines[key]}\n")


def load_dataset(directory) -> tuple[list[Sequence], dict]:
    directory = Path(directory)
    meta = {}
    with open(directory / "meta.txt") as f:
        for line in f:
            if "=" in line:
                key, _, value = line.partition("=")
                meta[key.strip()] = value.strip()
    count = int(meta.get("sequences", 0))
    sequences = []
    for index in range(count):
        trajectory = geo.load_trajectory_kitti(directory / "poses" / f"{index:02d}.txt")
        relatives = _read_array(directory / "relatives" / f"{index:02d}.csv")
        features = _read_array(directory / "features" / f"{index:02d}.csv")
        seed = int(meta.get(f"seed_{index:02d}", 0))
        sequences.append(
            Sequence(trajectory=trajectory, relatives=relatives, features=features, seed=seed)
        )
    return sequences, meta
