"""Anatomy of the objective: step errors, window composites, the rise gate.

Run:  python3 demos/04_training_objective.py
"""

import numpy as np

from curvo import autodiff as ad
from curvo import loss

rng = np.random.default_rng(0)

# Ground-truth relative motions for a short sequence, and noisy estimates.
gt = rng.uniform(-0.3, 0.3, size=(6, 6))
estimates = gt + rng.normal(scale=0.05, size=gt.shape)

# The per-step term is a weighted squared pose error: the objective of one
# step at alpha = 1.
weights6 = np.array([1.0] * 3 + [5.0] * 3)
step0 = loss.sequence_loss_value(estimates[:1], gt[:1], loss.LossWeights(zeta=5.0))
print(f"step-0 pose error: {step0:.6f}")

# The window composite chains steps through SE(3) composition; the estimates'
# composite is compared against the matching ground-truth span.
window = 2
est_windows = loss.ground_truth_window_relatives(estimates, window)
truth_windows = loss.ground_truth_window_relatives(gt, window)
print("window composite over steps 0-1:", np.round(est_windows[1], 4))
print("ground-truth window relative:   ", np.round(truth_windows[1], 4))

# The composite only contributes where its raw value rises vs the previous
# step; falling windows contribute exactly zero (and no gradient).
print("\ngating trace (t, raw window loss, contributed):")
previous = None
for t in range(window - 1, len(gt)):
    d = est_windows[t] - truth_windows[t]
    raw = float(np.sum(weights6 * (d * d)))
    contributed = raw if previous is None or raw > previous else 0.0
    print(f"  t={t}: raw {raw:.6f} contributed {contributed:.6f}")
    previous = raw

# The full objective blends both term families in one tape node; alpha = 1
# turns the composite machinery off entirely.
for alpha in (1.0, 0.5, 0.1):
    tape = ad.Tape()
    predictions = tape.leaf(estimates)
    w = loss.LossWeights(alpha=alpha, delta=1.0, zeta=5.0, window=window)
    total = loss.sequence_loss(predictions, gt, w)
    ad.backward(total)
    grad_norm = float(np.sqrt(np.sum(predictions.grad**2)))
    print(f"alpha={alpha:4.2f}: total {total.item():.6f}  |grad| {grad_norm:.4f}")
