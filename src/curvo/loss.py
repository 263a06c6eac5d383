"""The training objective: per-step pose error, the differentiable window
composition layer, the rise-gated composite term, and their alpha blend.

A prediction is a 6x1 column (t, r). The window composite chains the last w
step predictions through SE(3) composition in chronological order (the step
w frames back is applied first), so with perfect predictions it reproduces
the ground-truth pose of frame t relative to frame t-w. Predictions and the
ground truth go through the same closed-form chain: quaternions straight from
the Euler inputs, one product per operand, Euler angles extracted once at the
end, no Pose objects.

Each piece is one tape node with a hand-written VJP: a pose error, a window
composite (its VJP uses quaternion prefix and suffix products), and the
final blend of all terms.

The composite term at step t contributes only when its raw value exceeds the
previous step's raw value (strictly); otherwise it contributes an exact zero
with no gradient. The comparison itself never carries gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .geometry import _euler_quat


class InsufficientHistoryError(ValueError):
    """A window composite was requested with fewer predictions than the window."""


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


@dataclass(frozen=True)
class WindowState:
    """Raw window loss from the previous step; None before the first window."""

    previous_window_loss: float | None = None


def pose_error(estimate: ad.Value, truth, delta: float, zeta: float) -> ad.Value:
    """delta*||t_hat - t||^2 + zeta*||r_hat - r||^2 as a differentiable scalar."""
    truth = np.asarray(truth, dtype=np.float64).reshape(6, 1)
    if estimate.shape != (6, 1):
        raise ad.ShapeMismatchError("pose_error", estimate.shape, (6, 1))
    weights = np.array([delta] * 3 + [zeta] * 3).reshape(6, 1)
    diff = estimate.data - truth
    out = np.array([[np.sum(weights * (diff * diff))]])
    return ad.fused((estimate,), out, lambda g: (g[0, 0] * weights * 2.0 * diff,))


def pose_error_value(estimate6: np.ndarray, truth6: np.ndarray, delta: float, zeta: float) -> float:
    """Plain-number version of pose_error for gating decisions and metrics."""
    diff = np.asarray(estimate6, float).reshape(6) - np.asarray(truth6, float).reshape(6)
    return float(delta * np.dot(diff[:3], diff[:3]) + zeta * np.dot(diff[3:], diff[3:]))


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


def windowed_compose(relatives: list[ad.Value], window: int) -> ad.Value:
    """Chain exactly ``window`` predicted relatives into the window composite.

    ``relatives`` is in chronological order (oldest first); the result is the
    pose of the newest frame relative to the frame ``window`` steps earlier.
    It is one tape node: the forward pass runs the closed-form quaternion
    chain, and the VJP applies the composition derivatives to the adjoint
    during backward.
    """
    if len(relatives) < window:
        raise InsufficientHistoryError(
            f"window of {window} needs {window} predictions, got {len(relatives)}"
        )
    if len(relatives) != window:
        raise ValueError(f"expected exactly {window} predictions, got {len(relatives)}")
    for v in relatives:
        if v.shape != (6, 1):
            raise ad.ShapeMismatchError("windowed_compose", v.shape, (6, 1))
    rows = [v.data.ravel().tolist() for v in relatives]
    composed, quats = _compose_chain(rows)
    return ad.fused(
        relatives,
        np.array(composed).reshape(6, 1),
        lambda g: _compose_chain_vjp(rows, quats, g),
    )


def composite_loss(
    composed: ad.Value,
    truth_window_relative,
    state: WindowState,
    weights: LossWeights,
) -> tuple[ad.Value, WindowState]:
    """Gate the window loss on rising raw value; always roll the state forward.

    Contributes pose_error(composed, truth) when the raw window loss exceeds
    the previous step's raw loss (or when there is no previous step); an exact
    zero constant otherwise. The new state carries the raw loss regardless.
    """
    truth = np.asarray(truth_window_relative, dtype=np.float64).reshape(6)
    raw = pose_error_value(composed.data, truth, weights.delta, weights.zeta)
    gate_open = state.previous_window_loss is None or raw > state.previous_window_loss
    if gate_open:
        contribution = pose_error(composed, truth, weights.delta, weights.zeta)
    else:
        contribution = composed.tape.constant(np.zeros((1, 1)))
    return contribution, WindowState(previous_window_loss=raw)


def bounded_total(rel_losses: list[ad.Value], com_losses: list[ad.Value], alpha: float) -> ad.Value:
    """alpha * sum(relative terms) + (1 - alpha) * sum(composite terms).

    One tape node; each sum is added left to right. At alpha = 1 the
    composite terms are left out entirely.
    """
    if len(rel_losses) != len(com_losses):
        raise ad.ShapeMismatchError("bounded_total", len(rel_losses), len(com_losses))
    groups = [(alpha, rel_losses)]
    if alpha < 1.0:
        groups.append((1.0 - alpha, com_losses))
    return ad.linear_sum(groups)


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


def sequence_loss(
    predictions: list[ad.Value],
    gt_relatives: np.ndarray,
    weights: LossWeights,
) -> ad.Value:
    """Assemble the full objective over a predicted sequence.

    Per-step relative terms run over every step; composite terms start at the
    first step with a full window and pass through the rising-value gate. At
    alpha = 1 the composite machinery is skipped entirely, which keeps the
    result bit-identical to a composite-free sum of the relative terms.
    """
    gt_relatives = np.asarray(gt_relatives, dtype=np.float64)
    steps = len(predictions)
    if steps < 1:
        raise ValueError("sequence_loss needs at least one prediction")
    if gt_relatives.shape != (steps, 6):
        raise ad.ShapeMismatchError("sequence_loss", gt_relatives.shape, (steps, 6))
    tape = predictions[0].tape

    rel_losses = [
        pose_error(predictions[t], gt_relatives[t], weights.delta, weights.zeta)
        for t in range(steps)
    ]
    if weights.alpha >= 1.0:
        return bounded_total(rel_losses, [tape.constant(np.zeros((1, 1)))] * steps, 1.0)

    window = weights.window
    truth_windows = ground_truth_window_relatives(gt_relatives, window)
    com_losses: list[ad.Value] = []
    state = WindowState()
    for t in range(steps):
        if t < window - 1:
            com_losses.append(tape.constant(np.zeros((1, 1))))
            continue
        composed = windowed_compose(predictions[t - window + 1 : t + 1], window)
        term, state = composite_loss(composed, truth_windows[t], state, weights)
        com_losses.append(term)
    return bounded_total(rel_losses, com_losses, weights.alpha)
