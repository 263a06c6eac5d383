"""Pose regressor: stacked LSTM layers plus one linear head.

Each LSTM layer carries one stacked weight matrix of shape
``4n x (n_prev + n)`` over the concatenated (input, previous hidden) column,
with gate order (i, f, o, g): i/f/o through the logistic function, g through
tanh, then ``c' = f*c + i*g`` and ``h' = o*tanh(c')``. A bias column is added
on top of the stacked product (zero bias reproduces the bias-free cell
exactly); the forget-gate slice is initialized to +1 for trainability.

Every sequence starts from the zero state. Inside a layer's time loop a
step's vectors are 1-D rows of (T, ·) arrays and each product is one
``np.dot`` into a buffer made once per call; the head's input is the top
layer's outputs as (T, k, 1) columns. A sequence's outputs are (T, 6) rows,
one pose per step, ordered (tx, ty, tz, roll, pitch, yaw). Layers run one at
a time, each over all T steps, then the head over all T at once: ``predict``
runs this with no tape, and ``forward_sequence`` records its rows as one tape
node whose VJP is the hand-written BPTT.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _layer(x, h, c, w, b):
    """One LSTM layer over the (T, m) input rows ``x`` from the (n, 1) columns h and c.
    Row t of the (T + 1, m + n) ``stacked`` is step t's (x, h) row, the product
    operand, and the step writes its h' into row t + 1; every intermediate goes
    into buffers made once per call. Returns what the adjoint helpers read:
    stacked (whose ``[1:, m:]`` are the hs), the (T + 1, n) cs from c on, the
    (T, n) activations (i, f, o, g) and tanh(c')."""
    (steps, m), n = x.shape, h.shape[0]
    stacked = np.empty((steps + 1, m + n))
    stacked[:-1, :m] = x
    stacked[0, m:] = h[:, 0]
    cs = np.empty((steps + 1, n))
    cs[0] = c[:, 0]
    act, tanh_c = np.empty((steps, 4 * n)), np.empty((steps, n))
    i, f, o, g = (act[:, k * n : (k + 1) * n] for k in range(4))
    b, e, ig = b.reshape(-1), np.empty(3 * n), np.empty(n)  # e and ig: a step's work buffers
    one = np.ones(3 * n)  # an array operand costs less than the scalar 1.0, with equal bits
    # each step's views come from iterating the arrays, which costs less than indexing
    for row, a, s, i_t, f_t, o_t, g_t, c_prev, c_t, tc, h_t in zip(
            stacked, act, act[:, : 3 * n], i, f, o, g, cs, cs[1:], tanh_c, stacked[1:, m:]):
        np.dot(w, row, out=a)  # the gemv of ``w @ row[:, None]``
        a += b
        np.exp(np.negative(s, out=e), out=e)
        np.divide(one, np.add(e, one, out=e), out=s)
        np.tanh(g_t, out=g_t)
        np.multiply(f_t, c_prev, out=c_t)
        c_t += np.multiply(i_t, g_t, out=ig)
        np.multiply(o_t, np.tanh(c_t, out=tc), out=h_t)
    return stacked, cs, (i, f, o, g), tanh_c


def _adjoint_factors(cache):
    """Every step's recurrence-free factors at once: the (T, k, n) A, B, C blocks of
    the chains ((x * A) * B) * C of ``_output_adjoint`` and ``_gate_adjoint``, then
    f. A chain of two products has C = 1.0 (x * 1.0 == x); the gate blocks' o slot
    is a placeholder."""
    _, cs, (i, f, o, g), tanh_c = cache
    one = np.ones_like(i)
    blocks = np.concatenate([tanh_c, o, o, 1.0 - tanh_c * tanh_c, 1.0 - o, one, g, cs[:-1], one, i,
                             i, f, one, 1.0 - g * g, 1.0 - i, 1.0 - f, one, one], axis=1)
    blocks, ends = blocks.reshape(len(i), 18, -1), (0, 2, 4, 6, 10, 14, 18)
    return [blocks[:, a:b] for a, b in zip(ends, ends[1:])] + [f]


def _output_adjoint(gh, a, b, c, out):
    """Writes gh * tanh(c') * o * (1 - o), the output gate's adjoint, and c''s share
    gh * o * (1 - tanh(c')^2) into ``out``'s two rows, from a step's h' adjoint gh."""
    np.multiply(gh, a, out=out)
    out *= b
    out *= c


def _gate_adjoint(gc, d_o, a, b, c, f, w_t, d, out, d_c):
    """Writes the gates' adjoint gc * g * i * (1 - i), gc * c_prev * f * (1 - f), d_o
    and gc * i * (1 - g^2) into the (4n,) row ``d``, the (x, h) row's adjoint
    ``w_t d`` into ``out`` and c's share gc * f into ``d_c``, which may be ``gc``."""
    d4 = d.reshape(4, -1)
    np.multiply(gc, a, out=d4)
    d4 *= b
    d4 *= c
    d4[2] = d_o
    np.dot(w_t, d, out=out)
    np.multiply(gc, f, out=d_c)


def _descending_sum(parts):
    """``parts[T-1] + parts[T-2] + ... + parts[0]``, added in that order: numpy's reduce
    over the reversed axis adds in that order where a part has 2 or more elements, as
    every parameter's parts do (a bias has at least 4 and the head's 6)."""
    return np.add.reduce(parts[::-1], axis=0)


def _checked_features(op: str, features, config: RegressorConfig) -> np.ndarray:
    """The (T, input_dim) float block."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != config.input_dim:
        raise ad.ShapeMismatchError(op, features.shape, ("T", config.input_dim))
    if features.shape[0] < 1:
        raise ValueError(f"{op} needs at least one timestep")
    return features


def _run(features, config: RegressorConfig, params, saved=None):
    """The regressor from the zero state one layer at a time over all T steps,
    then the head over the top layer's outputs as (T, k, 1) columns. Returns the
    (T, 6) rows and the final per-layer (h, c) columns; appends each layer's
    cache, then the head's input, to ``saved``, which ``_bptt`` reads."""
    x = features
    final = []
    for layer, n in enumerate(config.lstm_sizes):
        m, zero = x.shape[1], np.zeros((n, 1))
        cache = _layer(x, zero, zero, params[f"lstm{layer}.W"], params[f"lstm{layer}.b"])
        final.append((cache[0][-1, m:, None].copy(), cache[1][-1, :, None].copy()))
        x = cache[0][1:, m:]
        if saved is not None:
            saved.append(cache)
        del cache  # unless saved, the layer's arrays go once the next layer has copied x
    x = x[:, :, None]
    if saved is not None:
        saved.append(x)
    return (np.matmul(params["head.W"], x) + params["head.b"]).reshape(-1, OUTPUT_DIM), final


def _bptt(g, params, saved) -> dict[str, np.ndarray]:
    """Each parameter's gradient from the rows' (T, 6) adjoint ``g``: the head over
    all T rows at once, then each layer from the top, its steps from T-1 down
    to 0 in buffers made once per layer. Each parameter's per-step parts are
    added in descending t, the order ``ad.backward`` uses over a graph of one
    node per cell and per head product, so the sums equal that graph's bit for
    bit."""
    *caches, head_in = saved
    d_rows = np.ascontiguousarray(g).reshape(-1, OUTPUT_DIM, 1)
    sums = {"head.b": _descending_sum(d_rows),
            "head.W": _descending_sum(d_rows * head_in.transpose(0, 2, 1))}
    d_x = np.matmul(params["head.W"].T, d_rows).reshape(len(d_rows), -1)
    for layer in range(len(caches) - 1, -1, -1):
        cache = caches[layer]
        w_t, stacked, n = params[f"lstm{layer}.W"].T, cache[0][:-1], d_x.shape[1]
        m = stacked.shape[1] - n
        d_gates, d_stacked = np.empty((len(stacked), 4 * n)), np.empty(stacked.shape)
        gh, d_c, out = np.empty(n), np.empty(n), np.empty((2, n))
        d_o, c_share = out
        d_h = None  # the adjoint reaching h from the next step; d_c holds c's
        for dx, o_a, o_b, o_c, g_a, g_b, g_c, f, d, ds, ds_h in zip(*(a[::-1] for a in (
                d_x, *_adjoint_factors(cache), d_gates, d_stacked, d_stacked[:, m:]))):
            _output_adjoint(dx if d_h is None else np.add(d_h, dx, out=gh), o_a, o_b, o_c, out)
            gc = c_share if d_h is None else np.add(d_c, c_share, out=d_c)
            _gate_adjoint(gc, d_o, g_a, g_b, g_c, f, w_t, d, ds, d_c)
            d_h = ds_h
        del o_a, o_b, o_c, g_a, g_b, g_c  # views that would keep the factors alive below
        sums[f"lstm{layer}.W"] = _descending_sum(d_gates[:, :, None] * stacked[:, None])
        sums[f"lstm{layer}.b"] = _descending_sum(d_gates).reshape(-1, 1)
        d_x = d_stacked[:, :m]
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
    saved = []
    rows, final = _run(features, config, store.params, saved)

    def vjp(g):
        sums = _bptt(g, store.params, saved)
        return [sums[name] for name in names]

    return ad.fused(leaves, rows, vjp), final


def predict(features, config: RegressorConfig, store: ad.ParamStore) -> np.ndarray:
    """The no-grad forward: ``forward_sequence``'s time loop with no tape, so its
    (T, 6) rows equal those of ``forward_sequence`` bit for bit."""
    return _run(_checked_features("predict", features, config), config, store.params)[0]
