"""Tour of the SE(3) pose algebra: composition, inversion, trajectories.

Run:  python3 demos/01_pose_composition.py
"""

import math

import numpy as np

from curvo import autodiff as ad
from curvo import geometry as geo
from curvo import loss

# A pose is a translation plus a unit quaternion; build one from Euler angles.
step = geo.euler_to_pose([1.0, 0.0, 0.0], [0.0, 0.0, math.pi / 2])
print("one step forward, then turn left 90 degrees:")
print("  translation:", step.translation)
print("  quaternion (w,x,y,z):", np.round(step.quaternion, 6))

# Composing four of these walks a closed unit square.
square = geo.accumulate([step] * 4)
print("\nwalking four such steps traces a unit square:")
for k, pose in enumerate(square.poses):
    t, r = geo.pose_to_euler(pose)
    print(f"  pose {k}: position {np.round(t, 9)} yaw {math.degrees(r[2]):7.2f} deg")

# inverse() undoes a transform; relative_between() recovers a step.
recovered = geo.relative_between(square.poses[1], square.poses[2])
print("\nrelative transform between poses 1 and 2 recovers the step:")
print("  translation:", np.round(recovered.translation, 9))

# At alpha = 0 with a window of 2, sequence_loss over two steps is the error
# of their composite against the composed truth: the squared translation
# error plus the squared geodesic angle between the two rotations. Its tape
# gradient, one tape node for the whole objective, is checked here against
# central differences of the same window error computed through compose().
rng = np.random.default_rng(0)
rows = np.concatenate([rng.uniform(-1, 1, (2, 3)), rng.uniform(-0.5, 0.5, (2, 3))], axis=1)
gt = np.concatenate([rng.uniform(-1, 1, (2, 3)), rng.uniform(-0.5, 0.5, (2, 3))], axis=1)
weights = loss.LossWeights(alpha=0.0, window=2)

tape = ad.Tape()
leaf = tape.leaf(rows)
objective = loss.sequence_loss(leaf, gt, weights)
ad.backward(objective)
analytic = leaf.grad.reshape(-1)
print(f"\nsequence_loss records {len(tape) - 1} tape node")


def window_error(flat):
    left, right = (geo.vector_to_pose(v) for v in flat.reshape(2, 6))
    truth = geo.compose(geo.vector_to_pose(gt[0]), geo.vector_to_pose(gt[1]))
    composite = geo.compose(left, right)
    d = composite.translation - truth.translation
    q = geo.relative_between(truth, composite).quaternion  # w >= 0: the short way round
    angle = 2.0 * math.atan2(float(np.linalg.norm(q[1:])), q[0])
    return float(d @ d) + angle**2


step_size = 1e-6
flat = rows.reshape(-1)
fd = np.zeros_like(flat)
for i in range(flat.size):
    hi, lo = flat.copy(), flat.copy()
    hi[i] += step_size
    lo[i] -= step_size
    fd[i] = (window_error(hi) - window_error(lo)) / (2 * step_size)
err = np.abs(analytic - fd).max()
print(f"window error {objective.item():.6f} vs {window_error(flat):.6f} through compose()")
print(f"its tape gradient vs central differences: max |diff| = {err:.2e}")
