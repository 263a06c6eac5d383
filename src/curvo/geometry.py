"""Rigid-body poses on SE(3) as rows of arrays: relative poses, trajectories,
Euler/quaternion conversions, file I/O.

Conventions, fixed once for the whole package:

- Rotations are stored as unit quaternions ``(w, x, y, z)``, normalized and
  canonicalized to ``w >= 0`` by one kernel, ``_normalize_quat``.
- The 6-DoF parameter vector of a pose is ``(tx, ty, tz, roll, pitch, yaw)``
  with Euler angles applied as ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``.
- A child pose applied in its parent's frame is the homogeneous matrix product
  ``T_parent @ T_child``; the relative pose from A to B is ``inv(T_A) @ T_B``.
- Absolute poses live in the world frame; relative poses are parent-frame.

A ``Trajectory`` is two arrays of canonical rows, and every kernel here works on
rows. ``_qmul`` (Hamilton product) and ``_qrot`` (rotation of a 3-vector) run on
floats or on columns: on floats in the trajectory's heading scan here and, in
``loss``, in the window chain and its reverse scan; ``_qrot`` on columns is
``_rotate``, the one kernel that rotates rows of vectors, which the trajectory
scan, ``_between`` and generation share. ``_between`` is the one relative-pose
kernel, and its rotation half ``_qrel`` is also the loss's log-map argument.
``_accumulate`` is the one composition scan, behind ``accumulate_vectors``.
``_euler_quats`` and ``_quats_to_euler`` are the one pair of Euler/quaternion
row kernels; every conversion goes through them. No derivatives live here: the
objective differentiates its chain in quaternions, so Euler extraction, and with
it ``GimbalLockError``, happens only in generated step relatives.

All functions are pure and operate on float64 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_QUAT_NORM_TOL = 1e-12
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])
_GIMBAL_GUARD = 1e-6
_ROTATION_TOL = 1e-4  # a pose file's rotation blocks; admits 7 significant digits
# _euler_quats' picks, 0 for cos and 1 for sin: the (yaw, pitch) pair and the roll of
# each component's two terms, and the sign that joins them
_EULER_PAIRS = (np.array([[0, 0, 0, 1], [1, 1, 1, 0]]), np.array([[0, 0, 1, 0], [1, 1, 0, 1]]))
_EULER_ROLLS = np.array([[0, 1, 0, 0], [1, 0, 1, 1]])
_EULER_SIGNS = np.array([[1.0], [-1.0], [1.0], [-1.0]])


class GimbalLockError(ValueError):
    """Pitch is too close to +-pi/2 for a well-defined Euler decomposition."""


class KittiParseError(ValueError):
    """A pose file line could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _normalize_quat(q: np.ndarray) -> np.ndarray:
    """Unit, ``w >= 0`` rows of (N, 4) quaternions: the one normalization kernel. Each
    row's norm is computed from that row alone, so a row keeps its bits in any
    company. Not idempotent."""
    q = np.asarray(q, dtype=np.float64).reshape(-1, 4)
    norm = np.linalg.norm(q, axis=1, keepdims=True)
    if not (norm >= _QUAT_NORM_TOL).all() or not np.isfinite(norm).all():
        raise ValueError("quaternion norm is numerically zero or not finite")
    q = q / norm
    return np.where(q[:, :1] < 0.0, -q, q)  # double-cover canonicalization


def _qmul(q1, q2) -> tuple:
    """Hamilton product of two 4-sequences; on floats, or on arrays one quaternion per column."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _qrel(qa, qb) -> tuple:
    """qa* x qb as (a w + u.v, (a v - w u) - u x v), which is exactly v = 0 for equal
    rotations; on floats, or on arrays one quaternion per column."""
    a, ux, uy, uz = qa
    w, vx, vy, vz = qb
    return (a * w + (ux * vx + uy * vy + uz * vz), (a * vx - w * ux) - (uy * vz - uz * vy),
            (a * vy - w * uy) - (uz * vx - ux * vz), (a * vz - w * uz) - (ux * vy - uy * vx))


def _qrot(q, v) -> tuple:
    """quat_to_matrix(q) @ v on floats, row by row; with q's conjugate it is R(q)^T @ v."""
    w, x, y, z = q
    vx, vy, vz = v
    return (
        (1 - 2 * (y * y + z * z)) * vx + 2 * (x * y - w * z) * vy + 2 * (x * z + w * y) * vz,
        2 * (x * y + w * z) * vx + (1 - 2 * (x * x + z * z)) * vy + 2 * (y * z - w * x) * vz,
        2 * (x * z - w * y) * vx + 2 * (y * z + w * x) * vy + (1 - 2 * (x * x + y * y)) * vz,
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
    return _normalize_quat(np.array(q) * (0.5 / math.sqrt(t)))[0]


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered absolute poses: read-only (N, 3) positions, (N, 4) quaternions.
    The constructor canonicalizes the quaternions with ``_normalize_quat``, row by
    row, so row k holds the bits of normalizing quaternion k alone."""

    positions: np.ndarray
    quaternions: np.ndarray

    def __post_init__(self):
        t = np.array(self.positions, dtype=np.float64).reshape(-1, 3)
        q = _normalize_quat(self.quaternions)
        if not len(q) or len(t) != len(q):
            raise ValueError(f"need >= 1 pose, got {len(t)} positions, {len(q)} quaternions")
        t.flags.writeable = q.flags.writeable = False
        self.__dict__.update(positions=t, quaternions=q)

    def __len__(self) -> int:
        return len(self.positions)


def _between(ta, qa, tb, qb) -> tuple[np.ndarray, np.ndarray]:
    """The one relative-pose kernel, rows inv(A_k) B_k of (N, 3) positions and (N, 4)
    quaternions: R(qa)^T (tb - ta) and qa* x qb, not normalized. Row-wise, so
    a row's bits do not depend on its company, and exactly zero for equal poses."""
    return _rotate(qa * _CONJUGATE, tb - ta), np.array(_qrel(qa.T, qb.T)).T


def accumulate_vectors(rows) -> Trajectory:
    """The absolute trajectory of (N, 6) vector rows (t, r) from the identity:
    pose[k+1] = pose[k] @ step[k] as homogeneous matrices."""
    return _accumulate(*_vector_arrays(rows))


def _accumulate(t: np.ndarray, q: np.ndarray) -> Trajectory:
    """The scan over (N, 3) steps ``t`` and (N, 4) turns ``q`` from the identity: only
    the heading P_(k+1) = P_k x q_k, renormalized, runs per step; all steps are then
    rotated at once and summed from the origin."""
    w, x, y, z = 1.0, 0.0, 0.0, 0.0
    headings = [(w, x, y, z)]
    for step in q.tolist():
        w, x, y, z = _qmul((w, x, y, z), step)
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / norm, x / norm, y / norm, z / norm
        headings.append((w, x, y, z))
    headings = np.array(headings)
    moves = _rotate(headings[:-1], t)
    positions = np.add.accumulate(np.vstack([np.zeros(3), moves]), axis=0)
    return Trajectory(positions, headings)


def _euler_quats(angles) -> np.ndarray:
    """(N, 4) quaternions (w, x, y, z) of Rz(yaw) Ry(pitch) Rx(roll) for (N, 3) rows
    (roll, pitch, yaw), half of the row-kernel pair: with (a, b, c, d) = (cy cp, sy sp,
    cy sp, sy cp), w = a cr + b sr, x = a sr - b cr, y = c cr + d sr, z = d cr - c sr in
    array ops. sin and cos come from ``math``, so no bit depends on numpy's SIMD dispatch."""
    half = (np.asarray(angles, dtype=np.float64).reshape(-1, 3) / 2).ravel().tolist()
    trig = np.array([list(map(math.cos, half)), list(map(math.sin, half))]).reshape(2, -1, 3)
    roll, pitch, yaw = trig[..., 0], trig[..., 1], trig[..., 2]  # rows (cos, sin)
    terms = (yaw[:, None] * pitch)[_EULER_PAIRS] * roll[_EULER_ROLLS]  # (2 terms, 4, N)
    return (terms[0] + terms[1] * _EULER_SIGNS).T.copy()


def _quats_to_euler(q) -> np.ndarray:
    """(N, 3) rows (roll, pitch, yaw) of (N, 4) finite unit quaternions: the other half
    of the pair. GimbalLockError names the first row whose pitch is within the guard of
    +-pi/2. asin and atan2 come from ``math``: numpy's arctan2 rounds otherwise."""
    w, x, y, z = np.asarray(q, dtype=np.float64).reshape(-1, 4).T
    pitch = list(map(math.asin, np.clip(-2.0 * (x * z - w * y), -1.0, 1.0).tolist()))
    locked = np.flatnonzero(math.pi / 2 - np.abs(pitch) <= _GIMBAL_GUARD)
    if locked.size:
        raise GimbalLockError(f"pitch {pitch[locked[0]]:.9f} is within {_GIMBAL_GUARD} of +-pi/2")
    roll = map(math.atan2, (2.0 * (y * z + w * x)).tolist(), (1.0 - 2.0 * (x * x + y * y)).tolist())
    yaw = map(math.atan2, (2.0 * (x * y + w * z)).tolist(), (1.0 - 2.0 * (y * y + z * z)).tolist())
    return np.stack([list(roll), pitch, list(yaw)], axis=1)


def _step_vectors(positions: np.ndarray, quaternions: np.ndarray) -> np.ndarray:
    """(..., N - 1, 6) rows (t, r) of the step from each pose to the next along the
    pose axis of (..., N, 3) positions and (..., N, 4) quaternions, so a stack of
    trajectories pairs only its own rows: ``_between`` of consecutive rows, its
    quaternion normalized, then ``_quats_to_euler``."""
    t, q = positions, quaternions
    rel_t, rel_q = _between(t[..., :-1, :].reshape(-1, 3), q[..., :-1, :].reshape(-1, 4),
                            t[..., 1:, :].reshape(-1, 3), q[..., 1:, :].reshape(-1, 4))
    steps = np.hstack([rel_t, _quats_to_euler(_normalize_quat(rel_q))])
    return steps.reshape(*t.shape[:-2], t.shape[-2] - 1, 6)


def _rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows quat_to_matrix(q[k]) @ v[k] of (N, 4) quaternions and (N, 3) vectors:
    ``_qrot`` on columns, elementwise, so each row keeps its bits in any company."""
    return np.array(_qrot(q.T, v.T)).T


def _vector_arrays(rows) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) translations and (N, 4) quaternions of (N, 6) vector rows."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 6)
    return rows[:, :3], _euler_quats(rows[:, 3:])


# --- trajectory file I/O (KITTI odometry ground-truth layout) ----------------


def save_trajectory_kitti(trajectory: Trajectory, path) -> None:
    """Write one pose per line: the 12 row-major entries of the upper 3x4."""
    rotations = np.moveaxis(quat_to_matrix(trajectory.quaternions.T), -1, 0)
    blocks = np.concatenate([rotations, trajectory.positions[:, :, None]], axis=2)
    with open(path, "w") as f:
        for row in blocks.reshape(-1, 12).tolist():
            f.write(" ".join(map(repr, row)) + "\n")


def load_trajectory_kitti(path) -> Trajectory:
    """Read a pose-per-line 3x4 file. KittiParseError names the first line that does not
    hold 12 finite values, or whose 3x3 block is not a rotation: max|R^T R - I| above
    ``_ROTATION_TOL``, or det R < 0."""
    positions, quaternions = [], []
    with open(path) as f:
        for line_number, line in enumerate(f, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 12:
                raise KittiParseError(f"expected 12 values, got {len(parts)}", line_number)
            try:
                values = [float(p) for p in parts]
                if not all(map(math.isfinite, values)):
                    raise ValueError("non-finite value")
            except ValueError as exc:
                raise KittiParseError(str(exc), line_number) from None
            m = np.array(values).reshape(3, 4)
            rotation = m[:, :3]
            error, det = np.abs(rotation.T @ rotation - np.eye(3)).max(), np.linalg.det(rotation)
            if error > _ROTATION_TOL or det < 0:
                raise KittiParseError(f"3x3 block is not a rotation: max |R^T R - I| = "
                                      f"{error:.3g}, det R = {det:.3g}", line_number)
            quaternions.append(matrix_to_quat(rotation))
            positions.append(m[:, 3])
    if not positions:
        raise KittiParseError("file contains no poses", 1)
    return Trajectory(np.array(positions), np.array(quaternions))


# --- CSV tables: dataset arrays and reports -----------------------------------
#
# A header line of column names, then one line per row of ``str()`` of each
# Python scalar. A float's ``str()`` is its ``repr``, so it reads back bit for bit.


def write_csv(path, header, rows) -> None:
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(str, row)) + "\n")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The column names and the text fields of each non-blank row."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        return header, [line.strip().split(",") for line in f if line.strip()]
