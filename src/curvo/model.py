"""Pose regressor: stacked LSTM layers plus one linear head.

Each LSTM layer carries one stacked weight matrix ``4n x (n_prev + n)`` over the
concatenated (input, previous hidden) column and a ``4n x 1`` bias, gate order
(i, f, o, g): i/f/o through the logistic function 1/(1 + exp(-a)), g through tanh,
then ``c' = f*c + i*g`` and ``h' = o*tanh(c')``; the forget-gate bias starts at +1.

Every sequence starts from the zero state. The L layers run as one wavefront loop of
K = T + L - 1 steps: at step k, layer l runs its step k - l. Each call builds one
``4N x (m + N + 1)`` block over the stacked row (x, h_0, ..., h_{L-1}, 1), N units in
all: each layer's W at its operand columns, its bias in the last column against the
constant 1, zeros elsewhere. Its rows are gate-major (g, f, i, o) over all N units,
f/i/o negated so that exp takes their product as it stands. A forward step is one gemv
and eight ufunc calls, each over all units; a reverse step is one gemv with the
block's transpose, which also sums each h's two adjoint shares, and five ufunc calls.
The head maps the top layer's outputs to (T, 6) rows, one pose (tx, ty, tz, roll,
pitch, yaw) per step. ``predict`` runs this with no tape, and ``forward_sequence``
records its rows as one tape node whose VJP is the hand-written BPTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import autodiff as ad

OUTPUT_DIM = 6
_ORDER = [3, 1, 0, 2]  # the block's gates (g, f, i, o) from a layer's (i, f, o, g)
_LAYER = [2, 1, 3, 0]  # a layer's gates (i, f, o, g) from the block's (g, f, i, o)
_SIGN = np.array([1.0, -1.0, -1.0, -1.0])[:, None, None]  # per block gate: f/i/o negated


@dataclass(frozen=True)
class RegressorConfig:
    input_dim: int
    lstm_sizes: tuple[int, ...]

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        given = tuple(self.lstm_sizes)
        sizes = tuple(int(n) for n in given)
        if sizes != given or not sizes or min(sizes) < 1:
            raise ValueError("need one or more LSTM layers of whole-number size >= 1, "
                             f"got {given}")
        object.__setattr__(self, "lstm_sizes", sizes)


def init_params(config: RegressorConfig, seed: int) -> ad.ParamStore:
    """Uniform [-k, k] init with k = 1/sqrt(fan-in); forget-gate bias +1."""
    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    prev = config.input_dim
    for layer, n in enumerate(config.lstm_sizes):
        fan_in = prev + n
        k = 1.0 / np.sqrt(fan_in)
        store.add(f"lstm{layer}.W", rng.uniform(-k, k, size=(4 * n, fan_in)))
        bias = np.zeros((4 * n, 1))
        bias[n : 2 * n] = 1.0
        store.add(f"lstm{layer}.b", bias)
        prev = n
    k = 1.0 / np.sqrt(prev)
    store.add("head.W", rng.uniform(-k, k, size=(OUTPUT_DIM, prev)))
    store.add("head.b", np.zeros((OUTPUT_DIM, 1)))
    return store


def _columns(m, sizes):
    """Each layer's (lo, u, hi) in a row (x, h_0, ..., h_{L-1}, 1) of ``stacked``: its
    gemv operand, its input then its own h, is columns lo to hi, and its h u to hi."""
    ends = list(accumulate(sizes, initial=m))  # integer sums: no numpy call
    return list(zip([0, *ends[:-2]], ends[:-1], ends[1:]))


def _block(params, sizes, m):
    """The (4N, m + N + 1) block of the layers ``lstm{l}.W``, ``lstm{l}.b`` of
    ``sizes`` over m inputs: gate-major rows (g, f, i, o) with f/i/o negated, each
    layer's W at its operand columns and its bias in the last column, zeros elsewhere."""
    n = sum(sizes)
    block = np.zeros((4, n, m + n + 1))
    for layer, (lo, u, hi) in enumerate(_columns(m, sizes)):
        rows = block[:, u - m : hi - m]
        rows[:, :, lo:hi] = params[f"lstm{layer}.W"].reshape(4, hi - u, -1)[_ORDER] * _SIGN
        rows[:, :, -1] = params[f"lstm{layer}.b"].reshape(4, -1)[_ORDER] * _SIGN[:, :, 0]
    return block.reshape(4 * n, -1)


def _wavefront(x, h, c, block, sizes):
    """The layers of ``sizes`` in ``block`` over the (T, m) rows ``x`` from the (N,) rows
    h and c of all layers' states. Row k of the (K + 1, m + N + 1) ``stacked`` is (x_k,
    h_0, ..., h_{L-1}, 1) and row k of the (K + 1, 5N) ``act`` (c, g, f, i, o): h and c
    before step k, then its gates; step k writes h' and c' into row k + 1. A layer that
    has not started gets its initial (h, c) back; steps past a layer's last are unread."""
    (steps, m), n, span = x.shape, len(h), len(x) + len(sizes) - 1
    stacked, act = np.zeros((span + 1, m + n + 1)), np.empty((span + 1, 5 * n))
    stacked[:steps, :m], stacked[0, m:-1], stacked[:, -1], act[0, :n] = x, h, 1.0, c
    pair, tc, one = np.empty(2 * n), np.empty(n), np.ones(3 * n)  # a step's work buffers
    fc, ig = pair[:n], pair[n:]
    fresh = list(accumulate(sizes[:-1]))  # the first unit of layers k + 1 and up
    # each step's views come from iterating the arrays, which costs less than indexing
    for k, (row, pre, s, g_t, f_i, c_g, o_t, c_t, h_t) in enumerate(zip(
            stacked, act[:, n:], act[:, 2 * n :], act[:, n : 2 * n], act[:, 2 * n : 4 * n],
            act[:, : 2 * n], act[:, 4 * n :], act[1:, :n], stacked[1:, m:-1])):
        np.dot(block, row, out=pre)  # the gemv of ``block @ row[:, None]``
        np.exp(s, out=s)
        np.divide(one, np.add(s, one, out=s), out=s)
        np.tanh(g_t, out=g_t)
        np.multiply(f_i, c_g, out=pair)
        np.add(fc, ig, out=c_t)
        np.multiply(o_t, np.tanh(c_t, out=tc), out=h_t)
        if k < len(fresh):  # layers k + 1 and up start later
            h_t[fresh[k] :], c_t[fresh[k] :] = h[fresh[k] :], c[fresh[k] :]
    return stacked, act


def _checked_features(op: str, features, config: RegressorConfig) -> np.ndarray:
    """The (T, input_dim) float block."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != config.input_dim:
        raise ad.ShapeMismatchError(op, features.shape, ("T", config.input_dim))
    if features.shape[0] < 1:
        raise ValueError(f"{op} needs at least one timestep")
    return features


def _run(features, config: RegressorConfig, params):
    """The regressor from the zero state: ``_wavefront`` over one block of all layers,
    then the head over the top layer's outputs as (T, k, 1) columns. Returns the (T, 6)
    rows and (block, stacked, act), which ``_bptt`` reads."""
    sizes, m = config.lstm_sizes, features.shape[1]
    n, block = sum(sizes), _block(params, sizes, m)
    stacked, act = _wavefront(features, np.zeros(n), np.zeros(n), block, sizes)
    x = stacked[len(sizes) :, m + n - sizes[-1] : m + n, None]
    rows = (np.matmul(params["head.W"], x) + params["head.b"]).reshape(-1, OUTPUT_DIM)
    return rows, (block, stacked, act)


def _gate_adjoints(head, cache):
    """``_wavefront`` backwards from ``head``, the head's share of the top h's in rows 1
    to K of stacked: the (K, 5, N) adjoints of each step's block rows (g, f, i, o), then
    c's share of its h adjoint. The factors (-tanh(c') o (1 - o), o (1 - tanh(c')^2))
    on h's adjoint and (i (1 - g^2), -c f (1 - f), -g i (1 - i)) on c's are multiplied
    once over all steps. Steps after a layer's last get a zero adjoint; those of the
    start-up triangle (k < l) pass theirs only to each other."""
    block, stacked, act = cache
    span, n, top = len(act) - 1, act.shape[1] // 5, head.shape[1]
    c, g, f, i, o = act.reshape(span + 1, 5, n).transpose(1, 0, 2)
    tanh_c, g, f, i, o = np.tanh(c[1:]), g[:-1], f[:-1], i[:-1], o[:-1]
    output = np.stack([-tanh_c * o * (1.0 - o), o * (1.0 - tanh_c * tanh_c)], axis=1)
    gates = np.stack([i * (1.0 - g * g), -c[:-1] * f * (1.0 - f), -g * i * (1.0 - i)], axis=1)
    d_gates, d_row, d_c = np.empty((span, 5, n)), np.zeros(stacked.shape[1]), np.zeros(n)
    d_h, d_top, block_t = d_row[-1 - n : -1], d_row[-1 - top : -1], block.T
    for d_pre, d_out, c_share, d_gfi, out_t, gates_t, f_t, head_t in zip(
            d_gates.reshape(span, -1)[::-1, : 4 * n], d_gates[::-1, 3:], d_gates[::-1, 4],
            d_gates[::-1, :3], output[::-1], gates[::-1], f[::-1], head[::-1]):
        np.add(d_top, head_t, out=d_top)
        np.multiply(d_h, out_t, out=d_out)
        np.add(d_c, c_share, out=d_c)
        np.multiply(d_c, gates_t, out=d_gfi)
        d_c *= f_t
        np.dot(block_t, d_pre, out=d_row)
    return d_gates


def _bptt(g, params, cache) -> dict[str, np.ndarray]:
    """Each parameter's gradient from the rows' (T, 6) adjoint ``g``: the head's over all
    T rows at once, then each layer's as one product over its T real steps of
    ``_gate_adjoints``, f/i/o negated back, and one column sum."""
    _, stacked, act = cache
    span, steps, n = len(act) - 1, len(g), act.shape[1] // 5
    depth, m = span + 1 - steps, stacked.shape[1] - n - 1
    sizes = [params[f"lstm{layer}.W"].shape[0] // 4 for layer in range(depth)]
    top = stacked[depth:, m + n - sizes[-1] : m + n]
    sums = {"head.b": g.sum(axis=0).reshape(-1, 1), "head.W": g.T @ top}
    head = np.zeros((span, sizes[-1]))
    np.matmul(g, params["head.W"], out=head[depth - 1 :])
    d_gates = _gate_adjoints(head, cache)
    for layer, (lo, u, hi) in enumerate(_columns(m, sizes)):
        real, rows = slice(layer, layer + steps), slice(u - m, hi - m)
        d = d_gates[real, _LAYER, rows]  # (T, 4, n) in the layer's order (i, f, o, g)
        d[:, :3] *= -1.0
        sums[f"lstm{layer}.W"] = d.reshape(steps, -1).T @ stacked[real, lo:hi]
        sums[f"lstm{layer}.b"] = d.reshape(steps, -1).sum(axis=0).reshape(-1, 1)
    return sums


def forward_sequence(tape: ad.Tape, features: np.ndarray, config: RegressorConfig,
                     store: ad.ParamStore):
    """Run the regressor from the zero state over a (T, input_dim) feature block.

    Returns (predictions, final): predictions is one (T, 6) Value over the
    parameter leaves, row t the step-t relative pose; its VJP is the BPTT.
    final is the per-layer list of (h, c) columns after step T-1. The pair,
    and the tape as the first argument, stay because the benchmark's gradient
    check unpacks two values and its tracer reads the tape and the features
    from the first two arguments.
    """
    features = _checked_features("forward_sequence", features, config)
    names = store.names()
    leaves = [store.leaf(tape, name) for name in names]
    rows, cache = _run(features, config, store.params)
    (_, stacked, act), (steps, m) = cache, features.shape
    final = [(stacked[steps + layer, u:hi, None], act[steps + layer, u - m : hi - m, None])
             for layer, (_, u, hi) in enumerate(_columns(m, config.lstm_sizes))]

    def vjp(g):
        sums = _bptt(g, store.params, cache)
        return [sums[name] for name in names]

    return ad.fused(leaves, rows, vjp), final


def predict(features, config: RegressorConfig, store: ad.ParamStore) -> np.ndarray:
    """The no-grad forward: ``forward_sequence``'s time loop with no tape, so its
    (T, 6) rows equal those of ``forward_sequence`` bit for bit."""
    return _run(_checked_features("predict", features, config), config, store.params)[0]
