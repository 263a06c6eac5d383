"""The training objective: per-step relative errors and rise-gated window
composites, blended by alpha.

A prediction is a (t, r) row with Euler angles r = (roll, pitch, yaw). The
per-step term compares rows as they are, which is the paper's form: the
weighted squared error delta*||t_hat - t||^2 + zeta*||r_hat - r||^2.

The window composite chains the last w step predictions through SE(3)
composition in chronological order (the step w frames back is applied first),
so with perfect predictions it reproduces the ground-truth pose of frame t
relative to frame t-w. Predictions and the ground truth go through the same
closed-form chain, ``_compose_chains``: one quaternion per row straight from
its Euler angles (``geometry._euler_quats`` over all rows at once), then
t += R(P) t_k and P = P x q_k on plain floats, with ``geometry._qmul`` and
``_qrot``. The composite stays a (t, q) pair. Its rotation residual is the
log map of q_d = q_gt* x q, with q_d's sign chosen so that w >= 0 (the short
way round): phi = 2 atan2(|v|, w) v / |v|, with a series near |v| = 0, so |phi| is the
geodesic angle between the two rotations (Sola et al., arXiv 1812.01537;
Hartley et al., "Rotation averaging"). The composite term is
delta*||t_hat - t||^2 + zeta*||phi||^2. No Euler angles are extracted from a
composite: Euler differences jump by 2 pi where an angle wraps past +-pi, and
their extraction is undefined at pitch +-pi/2, so the composite term is
smooth there and training never meets ``GimbalLockError``.

The composite term at step t contributes only when its value exceeds the
previous step's value (strictly); otherwise it contributes nothing and passes
no gradient. The comparison itself never carries gradient.

The whole objective is one kernel, ``_objective``, with a hand-written VJP:
``sequence_loss`` records it as a single tape node, and
``sequence_loss_value`` runs it with no tape. A window's VJP is its chain
run backwards on floats: the log map's adjoint gives the composite
quaternion's, each product P x q_k hands back g x q_k* and P* x g, each
translation R(P)^T g, and dq/dr is taken at the input angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import _euler_quats, _qmul, _qrel, _qrot

_IDENTITY = (1.0, 0.0, 0.0, 0.0)
_I, _K = (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)
_SERIES_BELOW = 1e-4  # |v| under which the log map and its adjoint use their series


def _conj(q) -> tuple:
    w, x, y, z = q
    return w, -x, -y, -z


@dataclass(frozen=True)
class LossWeights:
    """Full parameterization of the objective: blend, term weights, window."""

    alpha: float
    delta: float
    zeta: float
    window: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (0.0 <= self.delta < math.inf and 0.0 <= self.zeta < math.inf):
            raise ValueError("delta and zeta must be finite and non-negative")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


def _compose_chains(rows: np.ndarray, window: int) -> list[tuple]:
    """Compose each full window of (T, 6) rows (t, r) left to right (oldest first) in
    closed form, from one quaternion per row. Returns, per window, the composite
    translation and quaternion, each operand's quaternion and prefix product
    P_k = q_0 x ... x q_(k-1) (P_0 is the identity); t accumulates R(P_k) t_k."""
    quats, rows, chains = _euler_quats(rows[:, 3:]).tolist(), rows.tolist(), []
    for start in range(len(rows) - window + 1):
        operands, operand_quats = rows[start : start + window], quats[start : start + window]
        prefixes = [_IDENTITY]
        tx, ty, tz = operands[0][:3]
        q = operand_quats[0]
        for row, q_k in zip(operands[1:], operand_quats[1:]):
            prefixes.append(q)
            rx, ry, rz = _qrot(q, row[:3])
            tx, ty, tz = tx + rx, ty + ry, tz + rz
            q = _qmul(q, q_k)
        chains.append(((tx, ty, tz), q, operand_quats, prefixes))
    return chains


def _log_map(q_gt, q):
    """The rotation residual phi = log(q_gt* x q), taken the short way round,
    and its adjoint: g -> the (w, x, y, z) adjoint of q."""
    w, x, y, z = _qrel(q_gt, q)  # exactly v = 0 for equal rotations
    sign = 1.0
    if w < 0.0:
        sign, w, x, y, z = -1.0, -w, -x, -y, -z
    n2 = x * x + y * y + z * z
    if n2 > _SERIES_BELOW**2:
        n = math.sqrt(n2)
        scale = 2.0 * math.atan2(n, w) / n  # |phi| / |v|
        curve = (2.0 * w / (n2 + w * w) - scale) / n2  # d(scale)/d|v| / |v|
    else:  # both, to second order in s = |v|^2 / w^2
        s = n2 / (w * w)
        scale = 2.0 / w * (1.0 - s / 3.0)
        curve = 2.0 / w**3 * (-2.0 / 3.0 + 0.8 * s)

    def vjp(g):
        gx, gy, gz = g
        dot = x * gx + y * gy + z * gz
        g_d = (-2.0 * dot / (n2 + w * w), scale * gx + curve * dot * x,
               scale * gy + curve * dot * y, scale * gz + curve * dot * z)
        return _qmul(q_gt, [sign * c for c in g_d])  # adjoint of q_gt* x q in q

    return (scale * x, scale * y, scale * z), vjp


def _euler_adjoint(r, q, g) -> list[float]:
    """(roll, pitch, yaw) adjoint of q = _euler_quats(r) at the input angles, where
    dq/dr = 1/2 (q x i, (-sin yaw, cos yaw, 0) x q, k x q), so it holds over the
    whole Euler range, not only for pitch inside (-pi/2, pi/2)."""
    yaw = r[2]
    tangents = (_qmul(q, _I), _qmul((0.0, -math.sin(yaw), math.cos(yaw), 0.0), q), _qmul(_K, q))
    return [0.5 * (a[0] * g[0] + a[1] * g[1] + a[2] * g[2] + a[3] * g[3]) for a in tangents]


def _compose_chain_vjp(rows, quats, prefixes, g_t, g_q) -> list[list[float]]:
    """Adjoint of one ``_compose_chains`` window at ``rows``: one (t, r) 6-list per operand.

    The scan runs backwards from the adjoints of the composite translation
    (``g_t``, the same for every operand's term) and quaternion (``g_q``).
    Operand k entered as t += R(P_k) t_k and P_(k+1) = P_k x q_k, so t_k gets
    R(P_k)^T g_t, q_k gets P_k* x g_q, and P_k gets g_q x q_k* plus the adjoint
    of R(P_k) t_k, which is -2 P_k x (h x t_k) with h = R(P_k)^T g_t as pure
    quaternions (exact along the unit sphere, where every perturbation stays).
    """
    out = [None] * len(rows)
    for k in range(len(rows) - 1, -1, -1):
        p, t_k = _conj(prefixes[k]), rows[k][:3]
        h = _qrot(p, g_t)
        out[k] = [*h, *_euler_adjoint(rows[k][3:], quats[k], _qmul(p, g_q))]
        if k:
            turn = _qmul(prefixes[k], _qmul((0.0, *h), (0.0, *t_k)))
            g_q = [a - 2.0 * b for a, b in zip(_qmul(g_q, _conj(quats[k])), turn)]
    return out


def ground_truth_window_relatives(gt_relatives, window: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) translations and (N, 4) quaternions of the N = T - window + 1 full
    windows of (T, 6) rows: row i composes steps i .. i + window - 1, the pose of
    frame i + window relative to frame i."""
    chains = _compose_chains(np.asarray(gt_relatives, float).reshape(-1, 6), window)
    return (np.array([c[0] for c in chains]).reshape(-1, 3),
            np.array([c[1] for c in chains]).reshape(-1, 4))


def _objective(rows: np.ndarray, gt_relatives, weights: LossWeights, truth_windows=None):
    """The blended objective of (T, 6) predicted rows; returns ((1, 1) total, vjp).

    Relative terms run over every step; composite terms start at the first
    step with a full window and pass through the rising-value gate. Each sum
    adds left to right. At alpha = 1 the windows are skipped entirely, which
    keeps the total bit-identical to a composite-free sum of the relative
    terms. ``truth_windows`` defaults to ``ground_truth_window_relatives`` of the
    truth rows. ``vjp(g)`` maps the total's adjoint to ``(rows' (T, 6) adjoint,)``.
    """
    gt_relatives = np.asarray(gt_relatives, dtype=np.float64)
    steps = len(rows)
    if steps < 1:
        raise ValueError("sequence_loss needs at least one prediction")
    if rows.shape != (steps, 6):
        raise ad.ShapeMismatchError("sequence_loss", rows.shape, (steps, 6))
    if gt_relatives.shape != (steps, 6):
        raise ad.ShapeMismatchError("sequence_loss", gt_relatives.shape, (steps, 6))
    alpha, window = weights.alpha, weights.window
    w6 = np.array([weights.delta] * 3 + [weights.zeta] * 3).reshape(6, 1)

    diff = (rows - gt_relatives).T  # (6, T), one column per step
    rel = 0.0
    for term in np.sum(w6 * (diff * diff), axis=0).tolist():
        rel += term
    total = rel * alpha
    opened: list[int] = []  # window i covers rows i .. i + window - 1
    if alpha < 1.0:
        chains = rows.tolist()
        windows = _compose_chains(rows, window)
        truth_t, truth_q = truth_windows or ground_truth_window_relatives(gt_relatives, window)
        if truth_t.shape != (len(windows), 3):
            raise ad.ShapeMismatchError("sequence_loss", truth_t.shape, (len(windows), 3))
        logs = [_log_map(q_gt, chain[1]) for q_gt, chain in zip(truth_q.tolist(), windows)]
        com_diff = np.hstack([np.array([chain[0] for chain in windows]).reshape(-1, 3) - truth_t,
                              np.array([phi for phi, _ in logs]).reshape(-1, 3)]).T
        com, previous = 0.0, None
        for i, raw in enumerate(np.sum(w6 * (com_diff * com_diff), axis=0).tolist()):
            if previous is None or raw > previous:
                com += raw
                opened.append(i)
            previous = raw
        total += com * (1.0 - alpha)

    def vjp(g):
        adjoint = g[0, 0] * alpha * w6 * 2.0 * diff  # (6, T): the relative terms
        if opened:
            com_g = (g[0, 0] * (1.0 - alpha) * w6 * 2.0 * com_diff).T.tolist()
            window_parts = [[0.0] * 6 for _ in range(steps)]
            for i in opened:
                _, _, quats, prefixes = windows[i]
                g_q = logs[i][1](com_g[i][3:])
                parts = _compose_chain_vjp(chains[i : i + window], quats, prefixes, com_g[i][:3], g_q)
                for total_k, part in zip(window_parts[i : i + window], parts):
                    total_k[:] = [a + b for a, b in zip(total_k, part)]
            adjoint += np.array(window_parts).T
        return (adjoint.T,)

    return np.array([[total]]), vjp


def sequence_loss(
    predictions: ad.Value,
    gt_relatives: np.ndarray,
    weights: LossWeights,
    truth_windows: tuple[np.ndarray, np.ndarray] | None = None,
) -> ad.Value:
    """The objective over ``forward_sequence``'s (T, 6) predictions, as one tape node."""
    total, vjp = _objective(predictions.data, gt_relatives, weights, truth_windows)
    return ad.fused((predictions,), total, vjp)


def sequence_loss_value(rows: np.ndarray, gt_relatives: np.ndarray, weights: LossWeights,
                        truth_windows: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """``sequence_loss`` of plain (T, 6) rows, with no tape: the no-grad twin."""
    return _objective(np.asarray(rows, float), gt_relatives, weights, truth_windows)[0].item()
