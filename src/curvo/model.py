"""Pose regressor: stacked LSTM layers plus one linear head.

Each LSTM layer carries one stacked weight matrix of shape
``4n x (n_prev + n)`` over the concatenated (input, previous hidden) column,
with gate order (i, f, o, g): i/f/o through the logistic function, g through
tanh, then ``c' = f*c + i*g`` and ``h' = o*tanh(c')``. A bias column is added
on top of the stacked product (zero bias reproduces the bias-free cell
exactly); the forget-gate slice is initialized to +1 for trainability.

Every sequence starts from the zero state. The L layers run as one wavefront
loop of T + L - 1 steps, layer l one step behind layer l - 1: at loop step k,
layer l runs its step k - l. Each layer keeps its own ``np.dot`` on a contiguous
row, and every other op of a step runs once over all layers' units, in buffers
made once per call. The head's input is the top layer's outputs as (T, k, 1)
columns. A sequence's outputs are (T, 6) rows, one pose per step, ordered
(tx, ty, tz, roll, pitch, yaw). ``predict`` runs this with no tape, and
``forward_sequence`` records its rows as one tape node whose VJP is the
hand-written BPTT, the same wavefront run backwards, whose gradient sums over
the steps are one product each.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import autodiff as ad

OUTPUT_DIM = 6


@dataclass(frozen=True)
class RegressorConfig:
    input_dim: int
    lstm_sizes: tuple[int, ...] = (32, 32)

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
    """Each layer's (lo, u, hi) in a row (x, h_0, ..., h_{L-1}) of ``stacked``: its
    gemv operand, its input then its own h, is columns lo to hi, and its h u to hi."""
    ends = list(accumulate(sizes, initial=m))  # integer sums: no numpy call
    return list(zip([0, *ends[:-2]], ends[:-1], ends[1:]))


def _wavefront(x, h, c, layers):
    """The (W, b) ``layers``, bottom first, over the (T, m) input rows ``x`` from the
    (N,) rows h and c of all layers' states, in K = T + L - 1 steps: at step k, layer l
    runs its step k - l. Row k of the (K + 1, m + N) ``stacked`` is (x_k, h_0, ...)
    as they stand before step k; the step writes every h' into row k + 1. Each layer's
    gemv output goes into the step's gate-major (i, f, o, g) x N block, so every other
    op runs once over all N units. A layer that has not started gets its initial (h, c)
    back; steps after a layer's last are never read. Returns what ``_bptt`` reads:
    stacked, the (K + 1, N) cs from c on, the (K, N) (i, f, o, g) and tanh(c')."""
    (steps, m), depth = x.shape, len(layers)
    columns = _columns(m, [w.shape[0] // 4 for w, _ in layers])
    span, n = steps + depth - 1, len(h)
    stacked, cs = np.zeros((span + 1, m + n)), np.empty((span + 1, n))
    stacked[:steps, :m], stacked[0, m:], cs[0] = x, h, c  # x stays 0 past row T - 1, unread
    act, tanh_c = np.empty((span, 4, n)), np.empty((span, n))
    bias, z = np.concatenate([b.reshape(4, -1) for _, b in layers], axis=1), np.empty((4, n))
    per_layer = [(w, stacked[:, lo:hi], buf, buf.reshape(4, -1), z[:, u - m : hi - m])
                 for (w, _), (lo, u, hi) in zip(layers, columns) for buf in [np.empty(w.shape[0])]]
    e, ig = np.empty(3 * n), np.empty(n)  # a step's work buffers
    one = np.ones(3 * n)  # an array operand costs less than the scalar 1.0, with equal bits
    # each step's views come from iterating the arrays, which costs less than indexing
    for k, (a, s, i_t, f_t, o_t, g_t, c_prev, c_t, tc, h_t) in enumerate(zip(
            act, act.reshape(span, -1)[:, : 3 * n], *act.transpose(1, 0, 2), cs, cs[1:],
            tanh_c, stacked[1:, m:])):
        for w, operand, buf, buf4, z_l in per_layer:
            np.dot(w, operand[k], out=buf)  # the gemv of ``w @ operand[k][:, None]``
            np.copyto(z_l, buf4)
        np.add(z, bias, out=a)
        np.exp(np.negative(s, out=e), out=e)
        np.divide(one, np.add(e, one, out=e), out=s)
        np.tanh(g_t, out=g_t)
        np.multiply(f_t, c_prev, out=c_t)
        c_t += np.multiply(i_t, g_t, out=ig)
        np.multiply(o_t, np.tanh(c_t, out=tc), out=h_t)
        if k + 1 < depth:  # layers k + 1 and up start later
            fresh = columns[k + 1][1] - m
            h_t[fresh:], c_t[fresh:] = h[fresh:], c[fresh:]
    return stacked, cs, tuple(act.transpose(1, 0, 2)), tanh_c


def _adjoint_factors(cache):
    """Every step's recurrence-free factors at once, as the reverse steps read them:
    the (K, 2, N) output block, tanh(c') * o * (1 - o) for the output gate and
    o * (1 - tanh(c')^2) for c's share of h's adjoint; the (K, 4, N) gate block,
    g * i * (1 - i), c * f * (1 - f), 0 for the output gate (its adjoint comes from
    the output block) and i * (1 - g^2); then f."""
    _, cs, (i, f, o, g), tanh_c = cache
    output = np.stack([tanh_c * o * (1.0 - o), o * (1.0 - tanh_c * tanh_c)], axis=1)
    gates = np.stack([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f), np.zeros_like(o),
                      i * (1.0 - g * g)], axis=1)
    return output, gates, f


def _checked_features(op: str, features, config: RegressorConfig) -> np.ndarray:
    """The (T, input_dim) float block."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != config.input_dim:
        raise ad.ShapeMismatchError(op, features.shape, ("T", config.input_dim))
    if features.shape[0] < 1:
        raise ValueError(f"{op} needs at least one timestep")
    return features


def _run(features, config: RegressorConfig, params):
    """The regressor from the zero state: ``_wavefront`` over every layer, then the
    head over the top layer's outputs as (T, k, 1) columns. Returns the (T, 6) rows
    and the wavefront's arrays, which ``_bptt`` reads."""
    depth, n = len(config.lstm_sizes), sum(config.lstm_sizes)
    cache = _wavefront(features, np.zeros(n), np.zeros(n), [
        (params[f"lstm{layer}.W"], params[f"lstm{layer}.b"]) for layer in range(depth)])
    x = cache[0][depth:, -config.lstm_sizes[-1] :, None]
    return (np.matmul(params["head.W"], x) + params["head.b"]).reshape(-1, OUTPUT_DIM), cache


def _bptt(g, params, cache) -> dict[str, np.ndarray]:
    """Each parameter's gradient from the rows' (T, 6) adjoint ``g``: the head over
    all T rows at once, then ``_wavefront`` backwards, each step one broadcast product
    per adjoint chain over all N units and then each layer's ``w_t`` gemv on its gate
    adjoints, gathered into a contiguous row. ``adj[p, k]`` holds what step k's layers
    of parity p pass back, and the head's adjoint sits in the other parity's top
    columns, so each h adjoint is one two-term sum: its own next step's plus the layer
    above's (or the head's). Each weight gradient is one product over the layer's T
    real steps, and each bias gradient one column sum."""
    stacked, _, (_, f, _, _), _ = cache
    (span, n), steps = f.shape, len(g)
    depth, m = span + 1 - steps, stacked.shape[1] - n
    ws = [params[f"lstm{layer}.W"] for layer in range(depth)]
    columns = _columns(m, [w.shape[0] // 4 for w in ws])
    top = stacked[depth:, columns[-1][1] :]
    sums = {"head.b": g.sum(axis=0).reshape(-1, 1), "head.W": g.T @ top}
    adj = np.zeros((2, span + 1, m + n))
    adj[depth % 2, depth:, columns[-1][1] :] = g @ params["head.W"]
    gh, d_c, out, d4 = np.empty(n), np.zeros(n), np.empty((2, n)), np.empty((4, n))
    d_o, c_share = out
    per_layer = [(w.T, d, d.reshape(span, 4, -1), d4[:, u - m : hi - m], adj[layer % 2, :, lo:hi])
                 for layer, (w, (lo, u, hi)) in enumerate(zip(ws, columns))
                 for d in [np.empty((span, 4 * (hi - u)))]]
    factors = (a[::-1] for a in _adjoint_factors(cache))
    for k, even, odd, out_t, gates_t, f_t in zip(range(span - 1, -1, -1), *adj[:, :0:-1, m:],
                                                  *factors):
        np.multiply(np.add(even, odd, out=gh), out_t, out=out)
        np.multiply(np.add(d_c, c_share, out=d_c), gates_t, out=d4)
        d4[2] = d_o
        d_c *= f_t
        for w_t, d_gates, d_gates4, d4_l, d_operand in per_layer:
            d_gates4[k] = d4_l
            np.dot(w_t, d_gates[k], out=d_operand[k])
    for layer, ((_, d_gates, *_), (lo, _, hi)) in enumerate(zip(per_layer, columns)):
        real = slice(layer, layer + steps)
        sums[f"lstm{layer}.W"] = d_gates[real].T @ stacked[real, lo:hi]
        sums[f"lstm{layer}.b"] = d_gates[real].sum(axis=0).reshape(-1, 1)
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
    (stacked, cs, *_), (steps, m) = cache, features.shape
    final = [(stacked[steps + layer, u:hi, None], cs[steps + layer, u - m : hi - m, None])
             for layer, (_, u, hi) in enumerate(_columns(m, config.lstm_sizes))]

    def vjp(g):
        sums = _bptt(g, store.params, cache)
        return [sums[name] for name in names]

    return ad.fused(leaves, rows, vjp), final


def predict(features, config: RegressorConfig, store: ad.ParamStore) -> np.ndarray:
    """The no-grad forward: ``forward_sequence``'s time loop with no tape, so its
    (T, 6) rows equal those of ``forward_sequence`` bit for bit."""
    return _run(_checked_features("predict", features, config), config, store.params)[0]
