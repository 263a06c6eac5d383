"""Tour of SE(3) pose rows: composition, relative poses, trajectories.

Run:  python3 demos/01_pose_composition.py
"""

import math

import numpy as np

from curvo import autodiff as ad
from curvo import geometry as geo
from curvo import loss


def matrix(row):
    """4x4 homogeneous matrix of a 6-vector (t, r), R = Rz(yaw) Ry(pitch) Rx(roll)."""
    roll, pitch, yaw = row[3:]
    cr, sr, cp, sp, cy, sy = (f(a) for a in (roll, pitch, yaw) for f in (math.cos, math.sin))
    m = np.eye(4)
    m[:3, :3] = (np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
                 @ np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
                 @ np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]]))
    m[:3, 3] = row[:3]
    return m


def pose_matrices(trajectory):
    """The 4x4 matrix of each pose of a trajectory."""
    out = np.tile(np.eye(4), (len(trajectory), 1, 1))
    out[:, :3, :3] = [geo.quat_to_matrix(q) for q in trajectory.quaternions]
    out[:, :3, 3] = trajectory.positions
    return out


def angle(m):
    """Rotation angle of the 3x3 block of m, from its skew and trace parts."""
    skew = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    return math.atan2(float(np.linalg.norm(skew)) / 2.0, (np.trace(m[:3, :3]) - 1.0) / 2.0)


# A pose is a 6-vector (t, r): one step forward, then a left turn of 90 degrees.
step = np.array([1.0, 0.0, 0.0, 0.0, 0.0, math.pi / 2])
print("one step forward, then turn left 90 degrees:")
print(np.round(matrix(step), 6))

# Integrating four of these walks a closed unit square: each pose is the previous
# one times the step, T_(k+1) = T_k @ T_step.
square = geo.accumulate_vectors([step] * 4)
print("\nwalking four such steps traces a unit square:")
for k, m in enumerate(pose_matrices(square)):
    yaw = math.degrees(math.atan2(m[1, 0], m[0, 0]))
    print(f"  pose {k}: position {np.round(m[:3, 3], 9)} yaw {yaw:7.2f} deg")
chain = np.linalg.matrix_power(matrix(step), 4)
print(f"  against the 4x4 product of the steps: max |diff| = "
      f"{np.abs(pose_matrices(square)[-1] - chain).max():.1e}")

# inv(T_1) @ T_2, the relative pose between poses 1 and 2, recovers the step.
t1, t2 = pose_matrices(square)[1:3]
recovered = np.linalg.inv(t1) @ t2
print("\nrelative transform between poses 1 and 2 recovers the step:")
print("  translation:", np.round(recovered[:3, 3], 9))

# At alpha = 0 with a window of 2, sequence_loss over two steps is the error
# of their composite against the composed truth: the squared translation
# error plus the squared geodesic angle between the two rotations. Its tape
# gradient, one tape node for the whole objective, is checked here against
# central differences of the same window error computed with 4x4 matrices.
rng = np.random.default_rng(0)
rows = np.concatenate([rng.uniform(-1, 1, (2, 3)), rng.uniform(-0.5, 0.5, (2, 3))], axis=1)
gt = np.concatenate([rng.uniform(-1, 1, (2, 3)), rng.uniform(-0.5, 0.5, (2, 3))], axis=1)
weights = loss.LossWeights(alpha=0.0, delta=1.0, zeta=1.0, window=2)

tape = ad.Tape()
leaf = tape.leaf(rows)
objective = loss.sequence_loss(leaf, gt, weights)
ad.backward(objective)
analytic = leaf.grad.reshape(-1)
print(f"\nsequence_loss records {len(tape) - 1} tape node")


def window_error(flat):
    left, right = flat.reshape(2, 6)
    truth = matrix(gt[0]) @ matrix(gt[1])
    composite = matrix(left) @ matrix(right)
    d = composite[:3, 3] - truth[:3, 3]
    return float(d @ d) + angle(truth[:3, :3].T @ composite[:3, :3]) ** 2


step_size = 1e-6
flat = rows.reshape(-1)
fd = np.zeros_like(flat)
for i in range(flat.size):
    hi, lo = flat.copy(), flat.copy()
    hi[i] += step_size
    lo[i] -= step_size
    fd[i] = (window_error(hi) - window_error(lo)) / (2 * step_size)
err = np.abs(analytic - fd).max()
print(f"window error {objective.item():.6f} vs {window_error(flat):.6f} with 4x4 matrices")
print(f"its tape gradient vs central differences: max |diff| = {err:.2e}")
