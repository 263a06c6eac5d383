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

# loss.windowed_compose chains two (t, roll, pitch, yaw) vectors in one tape
# node. Its tape gradient with respect to the first operand is checked here
# against central differences of compose().
rng = np.random.default_rng(0)
v_left = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3)])
v_right = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3)])

jac = np.zeros((6, 6))
for i in range(6):
    tape = ad.Tape()
    left = tape.leaf(v_left.reshape(6, 1))
    composite = loss.windowed_compose([left, tape.constant(v_right)], window=2)
    ad.backward(ad.sum(ad.mul_elementwise(composite, tape.constant(np.eye(6)[:, i]))))
    jac[i] = left.grad.reshape(-1)

step_size = 1e-6
b = geo.vector_to_pose(v_right)
fd = np.zeros((6, 6))
for i in range(6):
    hi, lo = v_left.copy(), v_left.copy()
    hi[i] += step_size
    lo[i] -= step_size
    f_hi = geo.pose_to_vector(geo.compose(geo.vector_to_pose(hi), b))
    f_lo = geo.pose_to_vector(geo.compose(geo.vector_to_pose(lo), b))
    fd[:, i] = (f_hi - f_lo) / (2 * step_size)
err = np.abs(jac - fd).max()
print(f"\nwindow composite's tape gradient vs central differences: max |diff| = {err:.2e}")
