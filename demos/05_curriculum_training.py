"""A full staged training run on synthetic walker data.

Run:  python3 demos/05_curriculum_training.py        (about a minute)
Artifacts land in demos/output/run/.
"""

from pathlib import Path

from curvo import svgplot
from curvo import trainer as tr

out_dir = Path(__file__).parent / "output" / "run"

config = tr.RunConfig(
    preset="walker",
    n_sequences=5,
    seq_length=200,
    noise_sigma=0.03,
    lstm_sizes=(16, 16),
    alphas=(1.0, 0.5, 0.1),     # one stage per alpha, in this order
    max_epochs_per_stage=8,
    patience=3,
    seed=0,
    out_dir=str(out_dir),
)

store, runlog = tr.train(config)

print("epoch  stage  alpha   train      val")
for r in runlog.records:
    print(f"{r.epoch:5d}  {r.stage:5d}  {r.alpha:5.2f}  {r.train_loss:9.6f}  {r.val_loss:9.6f}")

print("\nstage transitions (epoch, stage, alpha, validation loss):")
for t in runlog.transitions:
    print(f"  epoch {t.epoch:3d}: stage {t.stage} (alpha {t.alpha}) val {t.val_loss:.6f}")

epochs = [r.epoch for r in runlog.records]
svgplot.save_plot(
    svgplot.line_plot(
        [
            ("train loss", epochs, [r.train_loss for r in runlog.records]),
            ("validation loss", epochs, [r.val_loss for r in runlog.records]),
        ],
        title="staged training curve",
        xlabel="epoch",
        ylabel="loss (per step)",
    ),
    out_dir / "training_curve.svg",
)
print(f"\ncheckpoints, logs, and training_curve.svg in {out_dir}")
