"""Anatomy of the objective: step errors, window composites, the rise gate.

Run:  python3 demos/04_training_objective.py
"""

import math

import numpy as np

from curvo import autodiff as ad
from curvo import geometry as geo
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
# composite (t, q) is compared against the matching ground-truth span. Its
# rotation error is the geodesic angle between the two composites, so it is
# small even where an Euler angle would wrap past +-pi.
window = 2
est_t, est_q = loss.ground_truth_window_relatives(estimates, window)
truth_t, truth_q = loss.ground_truth_window_relatives(gt, window)
print("window composite over steps 0-1:", np.round(est_t[0], 4), np.round(est_q[0], 4))
print("ground-truth window relative:   ", np.round(truth_t[0], 4), np.round(truth_q[0], 4))


def geodesic_angle(q_truth, q_est):
    """Rotation angle of R_truth^T R_est, from its skew and trace parts: the short way round."""
    m = geo.quat_to_matrix(q_truth).T @ geo.quat_to_matrix(q_est)
    skew = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    return math.atan2(float(np.linalg.norm(skew)) / 2.0, (np.trace(m) - 1.0) / 2.0)


# The composite only contributes where its raw value rises vs the previous
# step; falling windows contribute exactly zero (and no gradient).
print("\ngating trace (t, raw window loss, contributed):")
previous, gated = None, 0.0
for i in range(len(est_t)):
    d = est_t[i] - truth_t[i]
    raw = float(d @ d + 5.0 * geodesic_angle(truth_q[i], est_q[i]) ** 2)
    contributed = raw if previous is None or raw > previous else 0.0
    gated += contributed
    print(f"  t={i + window - 1}: raw {raw:.6f} contributed {contributed:.6f}")
    previous = raw
kernel = loss.sequence_loss_value(estimates, gt, loss.LossWeights(alpha=0.0, zeta=5.0, window=window))
print(f"sum of contributions {gated:.9f} vs the objective at alpha=0: {kernel:.9f}")

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
