"""Independent reference computations used as test oracles.

Everything here deliberately avoids the library's own conversion and
composition code: rotations go through scipy or explicit axis matrices,
composition through plain 4x4 homogeneous numpy products, and derivatives
through central finite differences.
"""

import numpy as np
from scipy.spatial.transform import Rotation


def rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)


def euler_matrix(roll, pitch, yaw):
    """Reference rotation for the package's Euler convention."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def quat_wxyz_to_matrix(q):
    """Rotation matrix via scipy (which uses xyzw ordering)."""
    w, x, y, z = q
    return Rotation.from_quat([x, y, z, w]).as_matrix()


def homogeneous(t, rotation):
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = np.asarray(t, dtype=float)
    return m


def pose_matrix(pose):
    """4x4 matrix of a Pose, built through scipy instead of the library."""
    return homogeneous(pose.translation, quat_wxyz_to_matrix(pose.quaternion))


def random_pose_matrix(rng, angle_scale=0.8, trans_scale=2.0):
    """A random homogeneous transform with pitch kept clear of the gimbal."""
    roll, yaw = rng.uniform(-angle_scale, angle_scale, size=2)
    pitch = rng.uniform(-min(angle_scale, 1.2), min(angle_scale, 1.2))
    t = rng.uniform(-trans_scale, trans_scale, size=3)
    return homogeneous(t, euler_matrix(roll, pitch, yaw))


def euler_from_matrix(m):
    """(roll, pitch, yaw) via scipy, matching R = Rz @ Ry @ Rx."""
    return Rotation.from_matrix(m[:3, :3]).as_euler("xyz")


def geodesic_angle(m):
    """Rotation angle of a rotation matrix: atan2 of its skew and trace parts."""
    skew = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    return np.arctan2(np.linalg.norm(skew) / 2.0, (np.trace(m[:3, :3]) - 1.0) / 2.0)


def gradients_close(analytic, numeric, rtol=1e-5):
    """Norm-wise gradient check with an absolute floor for near-zero grads."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(1.0, np.linalg.norm(analytic), np.linalg.norm(numeric))
    return np.linalg.norm(analytic - numeric) <= rtol * scale
