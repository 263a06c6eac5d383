"""Trajectory metrics: segment errors, frame-to-frame errors, ATE CDF.

Trains a small model, integrates its predictions into a trajectory, and
compares it to the ground truth with each metric.

Run:  python3 demos/06_trajectory_metrics.py        (about a minute)
Artifacts land in demos/output/metrics/.
"""

from pathlib import Path

from curvo import cli
from curvo import evaluation as ev
from curvo import geometry as geo
from curvo import svgplot
from curvo import trainer as tr

out_dir = Path(__file__).parent / "output" / "metrics"
out_dir.mkdir(parents=True, exist_ok=True)

config = tr.RunConfig(
    preset="walker", n_sequences=5, seq_length=200, noise_sigma=0.03,
    lstm_sizes=(16, 16), max_epochs_per_stage=8, patience=3, seed=0,
)
data = tr.prepare_data(config)
store, _ = tr.train(config, data=data)
model_cfg = config.regressor_config(data.input_dim)

held_out = data.val[0]
est = tr.predicted_trajectory(store, model_cfg, held_out)
gt = held_out.trajectory

segment = ev.segment_errors(gt, est, (5, 10, 15, 20))
print("segment errors (averaged over all spans of each length):")
for row in zip(segment.lengths, segment.trans_err_pct, segment.rot_err_deg_per_m,
               segment.segment_counts):
    print(f"  {row[0]:5.1f} m: translation {row[1]:6.2f}%  "
          f"rotation {row[2]:7.4f} deg/m  ({row[3]} spans)")

rpe = ev.rpe(gt, est)
print(f"\nframe-to-frame: translation {rpe.trans_err_pct:.2f}% of step, "
      f"rotation {rpe.rot_err_deg:.5f} deg/frame "
      f"({rpe.skipped_frames} degenerate frames skipped)")

ate = ev.ate(gt, est)
print(f"absolute position error: rmse {ate.rmse:.3f} m, "
      f"max {ate.errors.max():.3f} m")

geo.save_trajectory_kitti(gt, out_dir / "gt.txt")
geo.save_trajectory_kitti(est, out_dir / "est.txt")
ev.write_segment_csv(segment, out_dir / "segment_errors.csv")
ev.write_rpe_csv(rpe, out_dir / "rpe.csv")
ev.write_ate_csv(ate, out_dir / "ate.csv", out_dir / "ate_cdf.csv")

svgplot.save_plot(
    svgplot.trajectory_plot(
        [("ground truth", gt.positions[:, :2]), ("estimate", est.positions[:, :2])]
    ),
    out_dir / "trajectory.svg",
)
for report in ("segment_errors", "ate_cdf"):  # plotted from the CSVs, as `curvo eval` does
    svgplot.save_plot(cli.plot_csv(out_dir / f"{report}.csv"), out_dir / f"{report}.svg")
print(f"\npose files, CSV reports, and SVG plots in {out_dir}")
print("the same reports are available from the CLI:  "
      f"curvo eval --gt {out_dir/'gt.txt'} --est {out_dir/'est.txt'} --out <dir>")
