"""Rigid-body poses on SE(3): composition, inversion, conversions, Jacobians.

Conventions, fixed once for the whole package:

- Rotations are stored as unit quaternions ``(w, x, y, z)``, normalized and
  canonicalized to ``w >= 0`` after every public operation.
- The 6-DoF parameter vector of a pose is ``(tx, ty, tz, roll, pitch, yaw)``
  with Euler angles applied as ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``.
- ``compose(parent, child)`` is the homogeneous matrix product
  ``T_parent @ T_child``: the child transform expressed in the parent frame.
- Absolute poses live in the world frame; relative poses are parent-frame.

All functions are pure and operate on float64 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_QUAT_NORM_TOL = 1e-12
_GIMBAL_GUARD = 1e-6


class GimbalLockError(ValueError):
    """Pitch is too close to +-pi/2 for a well-defined Euler decomposition."""


class KittiParseError(ValueError):
    """A pose file line could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _normalize_quat(q: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(q)
    if norm < _QUAT_NORM_TOL:
        raise ValueError("quaternion norm is numerically zero")
    q = q / norm
    if q[0] < 0.0:  # double-cover canonicalization
        q = -q
    return q


def quat_mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product of two (w, x, y, z) quaternions, not normalized."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Quaternion (w, x, y, z) of a rotation matrix, Shepperd's method."""
    if m[2, 2] < 0:
        if m[0, 0] > m[1, 1]:
            t = 1 + m[0, 0] - m[1, 1] - m[2, 2]
            q = [m[2, 1] - m[1, 2], t, m[0, 1] + m[1, 0], m[2, 0] + m[0, 2]]
        else:
            t = 1 - m[0, 0] + m[1, 1] - m[2, 2]
            q = [m[0, 2] - m[2, 0], m[0, 1] + m[1, 0], t, m[1, 2] + m[2, 1]]
    else:
        if m[0, 0] < -m[1, 1]:
            t = 1 - m[0, 0] - m[1, 1] + m[2, 2]
            q = [m[1, 0] - m[0, 1], m[2, 0] + m[0, 2], m[1, 2] + m[2, 1], t]
        else:
            t = 1 + m[0, 0] + m[1, 1] + m[2, 2]
            q = [t, m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]]
    return _normalize_quat(np.array(q) * (0.5 / math.sqrt(t)))


@dataclass(frozen=True)
class Pose:
    """A rigid transform: translation (meters) plus unit quaternion rotation.

    The quaternion is renormalized and sign-canonicalized (w >= 0) on
    construction, so every Pose in circulation satisfies the invariants.
    The stored arrays are marked read-only.
    """

    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    quaternion: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))

    def __post_init__(self):
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        q = _normalize_quat(np.array(self.quaternion, dtype=np.float64).reshape(4))
        t.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "quaternion", q)

    @staticmethod
    def identity() -> "Pose":
        return Pose()

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.quaternion)

    def as_matrix(self) -> np.ndarray:
        """Homogeneous 4x4 transform."""
        m = np.eye(4)
        m[:3, :3] = self.rotation_matrix()
        m[:3, 3] = self.translation
        return m

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Pose":
        return Pose(m[:3, 3], matrix_to_quat(m[:3, :3]))


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered absolute poses, optionally with strictly increasing stamps."""

    poses: tuple[Pose, ...]
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        poses = tuple(self.poses)
        if not poses:
            raise ValueError("a trajectory needs at least one pose")
        object.__setattr__(self, "poses", poses)
        if self.timestamps is not None:
            ts = np.array(self.timestamps, dtype=np.float64).reshape(len(poses))
            if np.any(np.diff(ts) <= 0):
                raise ValueError("timestamps must be strictly increasing")
            ts.flags.writeable = False
            object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return len(self.poses)

    def positions(self) -> np.ndarray:
        """(N, 3) array of world-frame positions."""
        return np.array([p.translation for p in self.poses])


def compose(parent: Pose, child: Pose) -> Pose:
    """Apply ``child`` in ``parent``'s frame: T_parent @ T_child."""
    q = quat_mul(parent.quaternion, child.quaternion)
    t = parent.translation + quat_to_matrix(parent.quaternion) @ child.translation
    return Pose(t, q)


def inverse(p: Pose) -> Pose:
    """The transform undoing ``p``: compose(p, inverse(p)) == identity."""
    q = p.quaternion * np.array([1.0, -1.0, -1.0, -1.0])
    t = -(quat_to_matrix(q) @ p.translation)
    return Pose(t, q)


def relative_between(a: Pose, b: Pose) -> Pose:
    """The transform taking frame ``a`` to frame ``b``: inverse(a) o b."""
    return compose(inverse(a), b)


def accumulate(relatives, initial: Pose | None = None) -> Trajectory:
    """Chain relative transforms into an absolute trajectory.

    pose[0] is ``initial`` (identity by default) and
    pose[k+1] = compose(pose[k], relatives[k]).
    """
    steps = [(*p.translation.tolist(), *p.quaternion.tolist()) for p in relatives]
    return _accumulate(steps, initial if initial is not None else Pose.identity())


def accumulate_vectors(rows) -> Trajectory:
    """``accumulate`` of (N, 6) vector rows (t, r), without a Pose per row."""
    return _accumulate(np.hstack(_vector_arrays(rows)).tolist(), Pose.identity())


def _accumulate(steps, initial: Pose) -> Trajectory:
    """The scan behind both over (t, q) 7-float steps: it renormalizes q each
    step, as ``compose`` into a Pose does, and builds the Poses once, at the end."""
    rows = [(*initial.translation.tolist(), *initial.quaternion.tolist())]
    tx, ty, tz, w, x, y, z = rows[0]
    for vx, vy, vz, bw, bx, by, bz in steps:
        tx += (1 - 2 * (y * y + z * z)) * vx + 2 * (x * y - w * z) * vy + 2 * (x * z + w * y) * vz
        ty += 2 * (x * y + w * z) * vx + (1 - 2 * (x * x + z * z)) * vy + 2 * (y * z - w * x) * vz
        tz += 2 * (x * z - w * y) * vx + 2 * (y * z + w * x) * vy + (1 - 2 * (x * x + y * y)) * vz
        w, x, y, z = (
            w * bw - x * bx - y * by - z * bz,
            w * bx + x * bw + y * bz - z * by,
            w * by - x * bz + y * bw + z * bx,
            w * bz + x * by - y * bx + z * bw,
        )
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / norm, x / norm, y / norm, z / norm
        rows.append((tx, ty, tz, w, x, y, z))
    return Trajectory(tuple(Pose(row[:3], row[3:]) for row in rows))


def euler_to_pose(t, r) -> Pose:
    """Pose from translation and (roll, pitch, yaw); R = Rz(yaw) Ry(pitch) Rx(roll)."""
    roll, pitch, yaw = np.asarray(r, dtype=np.float64).reshape(3)
    qx = np.array([math.cos(roll / 2), math.sin(roll / 2), 0.0, 0.0])
    qy = np.array([math.cos(pitch / 2), 0.0, math.sin(pitch / 2), 0.0])
    qz = np.array([math.cos(yaw / 2), 0.0, 0.0, math.sin(yaw / 2)])
    return Pose(np.asarray(t, dtype=np.float64), quat_mul(qz, quat_mul(qy, qx)))


def pose_to_euler(p: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Translation and (roll, pitch, yaw) of a pose.

    Raises GimbalLockError if |pitch| is within 1e-6 of pi/2, where the
    decomposition degenerates.
    """
    return p.translation.copy(), np.array(_quat_to_euler(*p.quaternion))


def _quat_to_euler(w, x, y, z) -> tuple[float, float, float]:
    """(roll, pitch, yaw) of a unit quaternion; GimbalLockError near pitch +-pi/2."""
    sin_pitch = -2.0 * (x * z - w * y)
    pitch = math.asin(max(-1.0, min(1.0, sin_pitch)))
    if math.pi / 2 - abs(pitch) <= _GIMBAL_GUARD:
        raise GimbalLockError(f"pitch {pitch:.9f} is within {_GIMBAL_GUARD} of +-pi/2")
    roll = math.atan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y))
    yaw = math.atan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z))
    return roll, pitch, yaw


def pose_to_vector(p: Pose) -> np.ndarray:
    """6-vector (t, r) view of a pose."""
    t, r = pose_to_euler(p)
    return np.concatenate([t, r])


def vector_to_pose(v) -> Pose:
    """Pose from a 6-vector (t, r)."""
    v = np.asarray(v, dtype=np.float64).reshape(6)
    return euler_to_pose(v[:3], v[3:])


def _euler_quat(roll: float, pitch: float, yaw: float) -> tuple[float, float, float, float]:
    """Quaternion (w, x, y, z) of Rz(yaw) Ry(pitch) Rx(roll)."""
    cr, sr = math.cos(roll / 2), math.sin(roll / 2)
    cp, sp = math.cos(pitch / 2), math.sin(pitch / 2)
    cy, sy = math.cos(yaw / 2), math.sin(yaw / 2)
    return (
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    )


def _vector_arrays(rows) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) translations and (N, 4) quaternions of (N, 6) vector rows."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 6)
    quaternions = np.array([_euler_quat(*r) for r in rows[:, 3:].tolist()]).reshape(-1, 4)
    return rows[:, :3], quaternions


# --- derivatives of the composition in (t, r) coordinates -------------------
#
# Building blocks of the window composition's VJP (loss._compose_chain_vjp).
# The chain runs through the quaternion representation:
#   r -> q (per operand), q_out = q_parent x q_child, q_out -> r_out,
#   t_out = t_parent + R(q_parent) t_child.
# Quaternion multiplication is bilinear, so its derivatives are the left/right
# multiplication matrices below. The Euler extraction derivative is evaluated
# on the (exactly unit-norm) raw product; perturbations of the Euler inputs
# stay on the unit sphere, so no normalization term is needed.


def _left_mult_matrix(q: np.ndarray) -> np.ndarray:
    """L(q) with quat_mul(q, p) == L(q) @ p."""
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


def _right_mult_matrix(p: np.ndarray) -> np.ndarray:
    """R(p) with quat_mul(q, p) == R(p) @ q."""
    w, x, y, z = p
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, z, -y],
            [y, -z, w, x],
            [z, y, -x, w],
        ]
    )


def _dquat_deuler(r: np.ndarray) -> np.ndarray:
    """4x3 derivative of the (roll, pitch, yaw) -> quaternion map."""
    roll, pitch, yaw = r
    qx = np.array([math.cos(roll / 2), math.sin(roll / 2), 0.0, 0.0])
    qy = np.array([math.cos(pitch / 2), 0.0, math.sin(pitch / 2), 0.0])
    qz = np.array([math.cos(yaw / 2), 0.0, 0.0, math.sin(yaw / 2)])
    dqx = 0.5 * np.array([-qx[1], qx[0], 0.0, 0.0])
    dqy = 0.5 * np.array([-qy[2], 0.0, qy[0], 0.0])
    dqz = 0.5 * np.array([-qz[3], 0.0, 0.0, qz[0]])
    jac = np.empty((4, 3))
    jac[:, 0] = _left_mult_matrix(quat_mul(qz, qy)) @ dqx
    jac[:, 1] = _left_mult_matrix(qz) @ (_right_mult_matrix(qx) @ dqy)
    jac[:, 2] = _right_mult_matrix(quat_mul(qy, qx)) @ dqz
    return jac


def _deuler_dquat(q: np.ndarray) -> np.ndarray:
    """3x4 derivative of the quaternion -> (roll, pitch, yaw) map at unit q."""
    w, x, y, z = q
    m20 = 2.0 * (x * z - w * y)
    m21 = 2.0 * (y * z + w * x)
    m22 = 1.0 - 2.0 * (x * x + y * y)
    m10 = 2.0 * (x * y + w * z)
    m00 = 1.0 - 2.0 * (y * y + z * z)
    d_m20 = 2.0 * np.array([-y, z, -w, x])
    d_m21 = 2.0 * np.array([x, w, z, y])
    d_m22 = np.array([0.0, -4.0 * x, -4.0 * y, 0.0])
    d_m10 = 2.0 * np.array([z, y, x, w])
    d_m00 = np.array([0.0, 0.0, -4.0 * y, -4.0 * z])
    pitch_denom = 1.0 - m20 * m20
    if pitch_denom <= _GIMBAL_GUARD**2:
        raise GimbalLockError("composition Jacobian undefined at pitch +-pi/2")
    jac = np.empty((3, 4))
    jac[0] = (m22 * d_m21 - m21 * d_m22) / (m21 * m21 + m22 * m22)
    jac[1] = -d_m20 / math.sqrt(pitch_denom)
    jac[2] = (m00 * d_m10 - m10 * d_m00) / (m10 * m10 + m00 * m00)
    return jac


def _drotate_dquat(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """3x4 derivative of R(q) @ v with respect to q, at unit q."""
    w, x, y, z = q
    vx, vy, vz = v
    # columns: d/dw, d/dx, d/dy, d/dz of the quadratic-form rotation
    return 2.0 * np.array(
        [
            [-z * vy + y * vz, y * vy + z * vz, -2 * y * vx + x * vy + w * vz, -2 * z * vx - w * vy + x * vz],
            [z * vx - x * vz, y * vx - 2 * x * vy - w * vz, x * vx + z * vz, w * vx - 2 * z * vy + y * vz],
            [-y * vx + x * vy, z * vx + w * vy - 2 * x * vz, -w * vx + z * vy - 2 * y * vz, x * vx + y * vy],
        ]
    )


# --- trajectory file I/O (KITTI odometry ground-truth layout) ----------------


def save_trajectory_kitti(trajectory: Trajectory, path) -> None:
    """Write one pose per line: the 12 row-major entries of the upper 3x4."""
    with open(path, "w") as f:
        for pose in trajectory.poses:
            m = pose.as_matrix()
            f.write(" ".join(repr(float(v)) for v in m[:3, :].reshape(12)))
            f.write("\n")


def load_trajectory_kitti(path) -> Trajectory:
    """Read a pose-per-line 3x4 file; raises KittiParseError with line number."""
    poses = []
    with open(path) as f:
        for line_number, line in enumerate(f, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 12:
                raise KittiParseError(f"expected 12 values, got {len(parts)}", line_number)
            try:
                values = np.array([float(p) for p in parts])
            except ValueError as exc:
                raise KittiParseError(str(exc), line_number) from None
            m = np.eye(4)
            m[:3, :] = values.reshape(3, 4)
            try:
                poses.append(Pose.from_matrix(m))
            except ValueError as exc:
                raise KittiParseError(f"invalid rotation block: {exc}", line_number) from None
    if not poses:
        raise KittiParseError("file contains no poses", 1)
    return Trajectory(tuple(poses))
