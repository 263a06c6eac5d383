"""Independent reference computations used as test oracles.

Everything here deliberately avoids the library's own conversion and
composition code: rotations go through scipy or explicit axis matrices,
composition through plain 4x4 homogeneous numpy products, and derivatives
through central finite differences. ``chain_trajectory`` builds a test
trajectory from step rows that way, so fixtures need none of the library's
scan. The one exception is ``reference_generate``: the generator's per-step
motion loop, one scalar draw and one OU update per process and step, which
pins the generator's vectorized draws bit for bit, so it builds the sequence
from its motion through the library's own geometry and feature code.
``per_layer_predict`` is the regressor's forward as it ran before the layers
shared one wavefront loop: each layer over all T steps, then the next, which
pins the wavefront's rows bit for bit; its step is ``lstm_cell``, one gemv of the
layer's rows of the same zero-padded block (``block_rows``) with the full stacked
row, and ``taped_cell`` records that step as three tape nodes, one per cell equation,
each with the VJP of its own equation, so the BPTT's gradients are checked
against a graph that shares no code with ``model``. ``euler_quat``,
``quat_to_euler`` and ``accumulate_scan`` are the one-row-at-a-time
conversions and trajectory scan that pin geometry's row kernels bit for bit,
and ``reference_generate`` uses them in place of those kernels.
"""

import math

import numpy as np
from scipy.spatial.transform import Rotation

from curvo import autodiff as ad
from curvo import geometry as geo
from curvo import synthdata as sd


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


def pose_matrix(t, q):
    """4x4 matrix of translation ``t`` and quaternion ``q``, built through scipy instead
    of the library."""
    return homogeneous(t, quat_wxyz_to_matrix(q))


def vector_matrix(row):
    """4x4 matrix of a 6-vector (t, r) in the package's Euler convention."""
    return homogeneous(row[:3], euler_matrix(*row[3:]))


def trajectory_matrices(traj):
    """The 4x4 matrix of each pose of a ``Trajectory``."""
    return [pose_matrix(t, q) for t, q in zip(traj.positions, traj.quaternions)]


def chain_trajectory(rows):
    """The ``Trajectory`` of (N, 6) vector rows (t, r) from the identity, chained by 4x4
    products: pose[k+1] = pose[k] @ step[k], each rotation turned into a quaternion
    by scipy."""
    poses = [np.eye(4)]
    for row in np.asarray(rows, dtype=float).reshape(-1, 6):
        poses.append(poses[-1] @ vector_matrix(row))
    poses = np.array(poses)
    x, y, z, w = Rotation.from_matrix(poses[:, :3, :3]).as_quat().T
    return geo.Trajectory(poses[:, :3, 3], np.stack([w, x, y, z], axis=1))


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


def euler_quat(roll, pitch, yaw):
    """Quaternion (w, x, y, z) of Rz(yaw) Ry(pitch) Rx(roll), one row on plain floats."""
    cr, sr = math.cos(roll / 2), math.sin(roll / 2)
    cp, sp = math.cos(pitch / 2), math.sin(pitch / 2)
    cy, sy = math.cos(yaw / 2), math.sin(yaw / 2)
    return (
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    )


def quat_to_euler(w, x, y, z):
    """(roll, pitch, yaw) of a unit quaternion on plain floats; GimbalLockError when
    pitch is within the package's guard of +-pi/2."""
    sin_pitch = -2.0 * (x * z - w * y)
    pitch = math.asin(max(-1.0, min(1.0, sin_pitch)))
    if math.pi / 2 - abs(pitch) <= geo._GIMBAL_GUARD:
        raise geo.GimbalLockError(f"pitch {pitch:.9f} is within {geo._GIMBAL_GUARD} of +-pi/2")
    roll = math.atan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y))
    yaw = math.atan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z))
    return roll, pitch, yaw


def accumulate_scan(rows):
    """The trajectory of (N, 6) vector rows (t, r) from the identity, one step at a time
    on plain floats: t += R(P) t_k, then P = P x q_k renormalized; rows (t, P) as
    ``Trajectory`` canonicalizes them."""
    tx = ty = tz = x = y = z = 0.0
    w = 1.0
    out = [(tx, ty, tz, w, x, y, z)]
    for vx, vy, vz, *angles in np.asarray(rows, dtype=float).reshape(-1, 6).tolist():
        tx += (1 - 2 * (y * y + z * z)) * vx + 2 * (x * y - w * z) * vy + 2 * (x * z + w * y) * vz
        ty += 2 * (x * y + w * z) * vx + (1 - 2 * (x * x + z * z)) * vy + 2 * (y * z - w * x) * vz
        tz += 2 * (x * z - w * y) * vx + 2 * (y * z + w * x) * vy + (1 - 2 * (x * x + y * y)) * vz
        a, b, c, d = euler_quat(*angles)
        w, x, y, z = (w * a - x * b - y * c - z * d, w * b + x * a + y * d - z * c,
                      w * c - x * d + y * a + z * b, w * d + x * c - y * b + z * a)
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / norm, x / norm, y / norm, z / norm
        out.append((tx, ty, tz, w, x, y, z))
    out = np.array(out)
    return out[:, :3], geo._normalize_quat(out[:, 3:])


def _ou_step(process, x, dt, rng):
    """One exact conditional update of a mean-reverting process, one draw if noisy."""
    decay = math.exp(-process.reversion * dt)
    if process.sigma == 0.0:
        return x * decay + process.mean * (1.0 - decay)
    std = process.sigma * math.sqrt((1.0 - decay * decay) / (2.0 * process.reversion))
    return x * decay + process.mean * (1.0 - decay) + std * rng.normal()


def reference_generate(motion, feature_model, length, seed):
    """``synthdata.generate`` with its motion simulated one step and one draw at a time."""
    rng = np.random.default_rng(seed)
    dt = motion.dt
    speed = motion.speed.mean
    roll_rate = pitch_rate = yaw_rate = 0.0
    roll = pitch = yaw = 0.0
    advances = np.zeros((length, 3))
    angles = []
    for k in range(length):
        speed = _ou_step(motion.speed, speed, dt, rng)
        roll_rate = _ou_step(motion.roll_rate, roll_rate, dt, rng)
        pitch_rate = _ou_step(motion.pitch_rate, pitch_rate, dt, rng)
        yaw_rate = _ou_step(motion.yaw_rate, yaw_rate, dt, rng)
        swept_rate = yaw_rate
        if motion.yaw_oscillation_amp != 0.0:
            swept_rate += motion.yaw_oscillation_amp * math.sin(
                2.0 * math.pi * (k * dt) / motion.yaw_oscillation_period
            )
        advances[k, 0] = speed * dt
        roll = float(np.clip(roll + roll_rate * dt, -motion.roll_clamp, motion.roll_clamp))
        pitch = float(np.clip(pitch + pitch_rate * dt, -motion.pitch_clamp, motion.pitch_clamp))
        yaw = yaw + swept_rate * dt
        angles.append((roll, pitch, yaw))

    quaternions = np.array([(1.0, 0.0, 0.0, 0.0)] + [euler_quat(*a) for a in angles])
    headings = geo._normalize_quat(quaternions[:-1])
    positions = np.cumsum(np.vstack([np.zeros(3), geo._rotate(headings, advances)]), axis=0)
    trajectory = geo.Trajectory(positions, quaternions)
    t, q = trajectory.positions, trajectory.quaternions
    rel_t, rel_q = geo._between(t[:-1], q[:-1], t[1:], q[1:])
    relatives = np.hstack([rel_t, [quat_to_euler(*row) for row in geo._normalize_quat(rel_q).tolist()]])
    features = relatives @ feature_model.encoding.T
    if feature_model.noise_sigma > 0 or feature_model.bias_sigma > 0:
        features = features + feature_model._observation_noise(length, rng)
    if feature_model.nuisance_dim > 0:
        noise = feature_model.noise_sigma * 5.0 * rng.normal(
            size=(length, feature_model.nuisance_dim)
        )
        features = np.hstack([features, sd._ar1(noise, feature_model.noise_rho)])
    return sd.Sequence(trajectory=trajectory, relatives=relatives, features=features, seed=seed)


def block_rows(w, b, lo, width):
    """A layer's rows of the regressor's zero-padded block, in the layer's own gate order
    (i, f, o, g) and unnegated: W at the operand columns from ``lo``, the bias in the
    last of ``width`` columns, zeros elsewhere."""
    rows = np.zeros((w.shape[0], width))
    rows[:, lo : lo + w.shape[1]] = w
    rows[:, -1] = b.reshape(-1)
    return rows


def lstm_cell(operand, c, rows, lo):
    """One LSTM step on the layer's (m + n,) operand (x, h) and the (n,) cell state ``c``
    with the ops of the wavefront loop: one gemv of the layer's ``block_rows`` with the
    full stacked row, the operand at columns from ``lo``, a 1 last and zeros elsewhere;
    the logistic function as 1 / (1 + exp(-a)), tanh, c' and h'. A row subset of a gemv
    keeps each row's bits, and negating a row negates its sum exactly, so this is the
    wavefront's arithmetic. Returns the (4n,) gates (i, f, o, g), c' and h'."""
    n, row = len(c), np.zeros(rows.shape[1])
    row[lo : lo + len(operand)], row[-1] = operand, 1.0
    act = np.dot(rows, row)
    act[: 3 * n] = 1.0 / (1.0 + np.exp(-act[: 3 * n]))
    act[3 * n :] = np.tanh(act[3 * n :])
    i, f, o, g = act.reshape(4, n)
    c = f * c + i * g
    return act, c, o * np.tanh(c)


def _lstm_layer(x, w, b, lo, width):
    """One LSTM layer over the (T, m) rows ``x`` from the zero state, one ``lstm_cell``
    at a time on its block rows of ``width`` columns from ``lo``; returns the (T, n) hs."""
    n, rows = w.shape[0] // 4, block_rows(w, b, lo, width)
    h, c, hs = np.zeros(n), np.zeros(n), np.empty((len(x), n))
    for row, h_t in zip(x, hs):
        _, c, h = lstm_cell(np.concatenate([row, h]), c, rows, lo)
        h_t[...] = h
    return hs


def taped_cell(x, state, weights, bias, lo, width):
    """One cell update as three tape nodes over (m, 1) and (n, 1) columns: the gates
    (i, f, o, g) from (x, h, W, b), then c' = f c + i g, then h' = o tanh(c'). The
    forward is ``lstm_cell`` on the layer's block rows of ``width`` columns from ``lo``.
    Each VJP is the derivative of its own equation, so the tape adds the gates' two
    adjoints and c''s. Returns (h', c')."""
    h_prev, c_prev = state
    row = np.concatenate([x.data, h_prev.data]).reshape(-1)
    w, c0, m, n = weights.data, c_prev.data.reshape(-1), x.data.shape[0], c_prev.data.shape[0]
    act, c, h = lstm_cell(row, c0, block_rows(w, bias.data, lo, width), lo)
    i, f, o, g = act.reshape(4, n)
    slopes = np.concatenate([i * (1.0 - i), f * (1.0 - f), o * (1.0 - o), 1.0 - g * g])

    def gates_vjp(d_act):
        d_pre = d_act * slopes[:, None]
        d_row = w.T @ d_pre
        return d_row[:m], d_row[m:], d_pre @ row[None, :], d_pre

    def c_vjp(gc):
        gc = gc.reshape(-1)
        return np.concatenate([gc * g, gc * c0, np.zeros(n), gc * i])[:, None], (gc * f)[:, None]

    def h_vjp(gh):
        gh, tanh_c = gh.reshape(-1), np.tanh(c)
        d_act = np.concatenate([np.zeros(2 * n), gh * tanh_c, np.zeros(n)])[:, None]
        return d_act, (gh * o * (1.0 - tanh_c * tanh_c))[:, None]

    gates = ad.fused((x, h_prev, weights, bias), act[:, None], gates_vjp)
    c_value = ad.fused((gates, c_prev), c[:, None], c_vjp)
    return ad.fused((gates, c_value), h[:, None], h_vjp), c_value


def per_layer_predict(features, sizes, params):
    """The (T, 6) rows of the regressor with ``lstm_sizes`` ``sizes``: each layer over
    all T steps in turn, then the head over the top layer's hs as (T, k, 1) columns."""
    x, lo = np.asarray(features, dtype=float), 0
    width = x.shape[1] + sum(sizes) + 1  # the block's columns: x, every layer's h, 1
    for layer in range(len(sizes)):
        w, b = params[f"lstm{layer}.W"], params[f"lstm{layer}.b"]
        # layer l + 1's operand starts where layer l's input ends
        x, lo = _lstm_layer(x, w, b, lo, width), lo + x.shape[1]
    return (np.matmul(params["head.W"], x[:, :, None]) + params["head.b"]).reshape(-1, 6)
