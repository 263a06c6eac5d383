"""Comparing objective schedules: alpha sweep and the four-way ablation.

Small-scale version of the package's headline experiment: train the same
model on the same data under different objective schedules and compare
first-stage difficulty and final drift.

Run:  python3 demos/07_schedule_comparison.py        (several minutes)
Artifacts land in demos/output/comparison/.
"""

from pathlib import Path

import numpy as np

from curvo import cli
from curvo import svgplot
from curvo import trainer as tr

out_dir = Path(__file__).parent / "output" / "comparison"
out_dir.mkdir(parents=True, exist_ok=True)

config = tr.RunConfig(
    preset="walker", n_sequences=5, seq_length=200,
    noise_sigma=0.03, noise_rho=0.8, bias_sigma=0.04,
    lstm_sizes=(16, 16), zeta=5.0, window=2,
    max_epochs_per_stage=8, patience=3, seed=0,
)

print("alpha sweep (first stage only, shared data and init):")
sweep = tr.alpha_sweep(config, alphas=(0.0, 0.25, 0.5, 0.75, 1.0), epochs=8)
for row in sweep:
    print(f"  alpha {row.alpha:4.2f}: translation {row.trans_err_m:.4f} m "
          f"(normalized {row.trans_norm:.3f})  rotation {row.rot_err_deg:.4f} deg "
          f"(normalized {row.rot_norm:.3f})")
tr.write_sweep_csv(sweep, out_dir / "sweep.csv")
svgplot.save_plot(cli.plot_csv(out_dir / "sweep.csv"), out_dir / "sweep.svg")

print("\nfour-way ablation over 2 seeds (staged vs reversed vs fixed):")
rows = tr.ablate(config, seeds=(0, 1), holdout_count=3)
tr.write_ablation_csv(rows, out_dir / "ablation.csv")
for mode in dict.fromkeys(row.mode for row in rows):
    per_stage = [np.mean([row.segment_trans_pct for row in rows
                          if row.mode == mode and row.stage == stage]) for stage in range(3)]
    trace = " -> ".join(f"{v:.1f}%" for v in per_stage)
    print(f"  {mode:17s} held-out segment translation by stage: {trace}")

for metric, name in (("trans", "ablation_translation.svg"), ("rot", "ablation_rotation.svg")):
    svgplot.save_plot(cli.plot_csv(out_dir / "ablation.csv", metric), out_dir / name)
print(f"\nreports and plots in {out_dir}")
