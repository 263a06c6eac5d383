"""Synthetic motion and features: presets, sampling, dataset layout.

Run:  python3 demos/03_synthetic_trajectories.py
Artifacts land in demos/output/.
"""

from pathlib import Path

import numpy as np

from curvo import geometry as geo
from curvo import svgplot
from curvo import synthdata as sd

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

features = sd.FeatureModel.seeded(8, seed=0, noise_sigma=0.03, nuisance_dim=2, noise_rho=0.0,
                                   bias_sigma=0.0)

paths = []
for name in ("walker", "vehicle"):
    seq = sd.generate(sd.MOTION_PRESETS[name](), features, length=400, seeds=[7])[0]
    positions = seq.trajectory.positions
    paths.append((name, positions[:, :2]))
    yaw_rate = np.abs(seq.relatives[:, 5]).mean() / sd.MOTION_PRESETS[name]().dt
    speed = np.linalg.norm(seq.relatives[:, :3], axis=1).mean() / sd.MOTION_PRESETS[name]().dt
    print(f"{name:8s}: mean speed {speed:5.2f} m/s   mean |yaw rate| {yaw_rate:5.3f} rad/s")

svgplot.save_plot(
    svgplot.trajectory_plot(paths, title="motion presets (top-down)"),
    out_dir / "presets.svg",
)
print(f"\nwrote {out_dir / 'presets.svg'}")

# Each training step takes a random contiguous span of a sequence's steps.
seq = sd.generate(sd.MOTION_PRESETS["walker"](), features, length=200, seeds=[1])[0]
spans = sd.subsequence_spans(len(seq), count=3, min_len=20, max_len=50, seed=2)
print("\nthree random spans of a 200-step walker sequence:")
for k, (start, length) in enumerate(spans):
    path = np.linalg.norm(seq.relatives[start : start + length, :3], axis=1).sum()
    print(f"  span {k}: steps {start}..{start + length - 1} ({length} steps, {path:.2f} m)")

# Datasets persist as KITTI-style pose files plus feature CSVs.
dataset_dir = out_dir / "walker_dataset"
sequences = sd.generate(sd.MOTION_PRESETS["walker"](), features, length=100, seeds=(10, 11, 12))
sd.save_dataset(dataset_dir, sequences, {"preset": "walker"})
loaded, meta = sd.load_dataset(dataset_dir)
rebuilt = geo.accumulate_vectors(loaded[0].relatives)
drift = np.linalg.norm(
    rebuilt.positions - loaded[0].trajectory.positions, axis=1
).max()
print(f"\ndataset round trip: {len(loaded)} sequences, "
      f"accumulate-vs-file max drift {drift:.2e} m")
