"""The training objective: per-step relative errors and rise-gated window
composites, blended by alpha.

A prediction is a (t, r) row. The window composite chains the last w step
predictions through SE(3) composition in chronological order (the step w
frames back is applied first), so with perfect predictions it reproduces the
ground-truth pose of frame t relative to frame t-w. Predictions and the ground
truth go through the same closed-form chain: quaternions straight from the
Euler inputs, one product per operand, Euler angles extracted once at the
end, no Pose objects.

Every term is the weighted squared error delta*||t_hat - t||^2 +
zeta*||r_hat - r||^2. The composite term at step t contributes only when its
value exceeds the previous step's value (strictly); otherwise it contributes
nothing and passes no gradient. The comparison itself never carries gradient.

The whole objective is one kernel, ``_objective``, with a hand-written VJP:
``sequence_loss`` records it as a single tape node, and
``sequence_loss_value`` runs it with no tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .geometry import _euler_quat


@dataclass(frozen=True)
class LossWeights:
    """Full parameterization of the objective: blend, term weights, window."""

    alpha: float = 1.0
    delta: float = 1.0
    zeta: float = 1.0
    window: int = 2

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.delta < 0 or self.zeta < 0:
            raise ValueError("delta and zeta must be non-negative")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


def _compose_chain(rows: list[list[float]]):
    """Compose (t, r) rows left to right (oldest first) in closed form.

    Returns the composite (t, r) as a list and each operand's quaternion.
    The translation accumulates t += R(q) t_k and the rotation q = q x q_k;
    Euler angles are extracted once, from the final product (GimbalLockError
    if its pitch is at +-pi/2).
    """
    quats = [_euler_quat(*row[3:]) for row in rows]
    tx, ty, tz = rows[0][:3]
    w, x, y, z = quats[0]
    for row, (bw, bx, by, bz) in zip(rows[1:], quats[1:]):
        vx, vy, vz = row[:3]
        tx += (1 - 2 * (y * y + z * z)) * vx + 2 * (x * y - w * z) * vy + 2 * (x * z + w * y) * vz
        ty += 2 * (x * y + w * z) * vx + (1 - 2 * (x * x + z * z)) * vy + 2 * (y * z - w * x) * vz
        tz += 2 * (x * z - w * y) * vx + 2 * (y * z + w * x) * vy + (1 - 2 * (x * x + y * y)) * vz
        w, x, y, z = (
            w * bw - x * bx - y * by - z * bz,
            w * bx + x * bw + y * bz - z * by,
            w * by - x * bz + y * bw + z * bx,
            w * bz + x * by - y * bx + z * bw,
        )
    return [tx, ty, tz, *geo._quat_to_euler(w, x, y, z)], quats


def _compose_chain_vjp(rows, quats, g: np.ndarray) -> list[np.ndarray]:
    """Adjoint of ``_compose_chain`` at ``rows``: one (6, 1) column per operand.

    With prefix products P_k = q_0 x ... x q_(k-1), suffix products
    S_k = q_k x ... x q_(w-1) and suffix translations U_k (the translation of
    the chain from operand k on), operand k enters the composite as
    t = ... + R(P_k) t_k + R(P_k q_k) U_(k+1) and q = P_k q_k S_(k+1), the
    closed-form composition Jacobians of Sola et al. (arXiv 1812.01537).
    dq_k/dr_k is taken at the input angles, so it holds over the whole
    Euler range, not only for pitch inside (-pi/2, pi/2).
    """
    count = len(rows)
    q = [np.array(qk) for qk in quats]
    prefix = [np.array([1.0, 0.0, 0.0, 0.0])]
    for qk in q:
        prefix.append(geo.quat_mul(prefix[-1], qk))
    suffix = [prefix[0]] * (count + 1)
    shift = [np.zeros(3)] * (count + 1)
    for k in range(count - 1, -1, -1):
        suffix[k] = geo.quat_mul(q[k], suffix[k + 1])
        shift[k] = np.array(rows[k][:3]) + geo.quat_to_matrix(q[k]) @ shift[k + 1]
    g_t, g_r = g[:3, 0], g[3:, 0]
    g_q = geo._deuler_dquat(prefix[count]).T @ g_r  # adjoint of the composite quaternion
    out = []
    for k in range(count):
        d_q = (geo._right_mult_matrix(suffix[k + 1]).T @ g_q
               + geo._drotate_dquat(prefix[k + 1], shift[k + 1]).T @ g_t)
        d_r = (geo._left_mult_matrix(prefix[k]) @ geo._dquat_deuler(rows[k][3:])).T @ d_q
        d_t = geo.quat_to_matrix(prefix[k]).T @ g_t
        out.append(np.concatenate([d_t, d_r]).reshape(6, 1))
    return out


def ground_truth_window_relatives(gt_relatives: np.ndarray, window: int) -> np.ndarray:
    """(T, 6) of the truth pose of frame t relative to frame t-window.

    Rows before index window-1 are zero placeholders (no full window yet).
    """
    gt_relatives = np.asarray(gt_relatives, dtype=np.float64)
    out = np.zeros_like(gt_relatives)
    rows = gt_relatives.tolist()
    for t in range(window - 1, len(rows)):
        out[t] = _compose_chain(rows[t - window + 1 : t + 1])[0]
    return out


def _objective(rows: np.ndarray, gt_relatives, weights: LossWeights):
    """The blended objective of (T, 6) predicted rows; returns ((1, 1) total, vjp).

    Relative terms run over every step; composite terms start at the first
    step with a full window and pass through the rising-value gate. Each sum
    adds left to right. At alpha = 1 the windows are skipped entirely, which
    keeps the total bit-identical to a composite-free sum of the relative
    terms. ``vjp(g)`` maps the total's adjoint to ``(rows' (T, 6) adjoint,)``.
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
        windows = [_compose_chain(chains[i : i + window]) for i in range(steps - window + 1)]
        truth = ground_truth_window_relatives(gt_relatives, window)[window - 1 :]
        com_diff = (np.array([c for c, _ in windows]).reshape(-1, 6) - truth).T
        com, previous = 0.0, None
        for i, raw in enumerate(np.sum(w6 * (com_diff * com_diff), axis=0).tolist()):
            if previous is None or raw > previous:
                com += raw
                opened.append(i)
            previous = raw
        total += com * (1.0 - alpha)

    def vjp(g):
        # a row's adjoint adds the newest open window's part first, then
        # older windows', then its own relative term: the order in which
        # ``backward`` adds them over one node per term, so gradients equal
        # that graph's bit for bit
        adjoint = g[0, 0] * alpha * w6 * 2.0 * diff  # (6, T): the relative terms
        if opened:
            window_parts = [None] * steps
            com_g = g[0, 0] * (1.0 - alpha) * w6 * 2.0 * com_diff
            for i in reversed(opened):
                operands = chains[i : i + window]
                parts = _compose_chain_vjp(operands, windows[i][1], com_g[:, i : i + 1])
                for k, part in enumerate(parts, i):
                    window_parts[k] = part if window_parts[k] is None else window_parts[k] + part
            for k, part in enumerate(window_parts):
                if part is not None:
                    adjoint[:, k : k + 1] = part + adjoint[:, k : k + 1]
        return (adjoint.T,)

    return np.array([[total]]), vjp


def sequence_loss(
    predictions: ad.Value,
    gt_relatives: np.ndarray,
    weights: LossWeights,
) -> ad.Value:
    """The objective over ``forward_sequence``'s (T, 6) predictions, as one tape node."""
    total, vjp = _objective(predictions.data, gt_relatives, weights)
    return ad.fused((predictions,), total, vjp)


def sequence_loss_value(rows: np.ndarray, gt_relatives: np.ndarray, weights: LossWeights) -> float:
    """``sequence_loss`` of plain (T, 6) rows, with no tape: the no-grad twin."""
    return _objective(np.asarray(rows, dtype=np.float64), gt_relatives, weights)[0].item()
