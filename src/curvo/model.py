"""Pose regressor: stacked LSTM layers plus a fully connected head.

Each LSTM layer carries one stacked weight matrix of shape
``4n x (n_prev + n)`` over the concatenated (input, previous hidden) column,
with gate order (i, f, o, g): i/f/o through the logistic function, g through
tanh, then ``c' = f*c + i*g`` and ``h' = o*tanh(c')``. A bias column is added
on top of the stacked product (zero bias reproduces the bias-free cell
exactly); the forget-gate slice is initialized to +1 for trainability.

Inside a layer's time loop a step's vectors are 1-D rows of (T, ·) arrays and
each product is one ``np.dot`` into a buffer made once per call; the hidden
state passed in and out and the head's input are (n, 1) columns. A sequence's
outputs are (T, 6) rows, one pose per step, ordered (tx, ty, tz, roll, pitch,
yaw). Layers run one at a time, each over all T steps, then the head over all
T at once: ``predict`` runs this with no tape, ``forward_sequence`` records its
rows as one tape node whose VJP is the hand-written BPTT, and ``lstm_cell`` is
the layer loop at T=1.
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
    output_dim: int = OUTPUT_DIM
    head_hidden: int | None = None  # optional second FC layer with tanh between
    dropout: float = 0.0  # inverted dropout on inter-layer h vectors, 0 = off

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not self.lstm_sizes:
            raise ValueError("at least one LSTM layer is required")
        if self.output_dim != OUTPUT_DIM:
            raise ValueError(f"output_dim is fixed at {OUTPUT_DIM}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        object.__setattr__(self, "lstm_sizes", tuple(int(n) for n in self.lstm_sizes))


@dataclass
class HiddenState:
    """Per-layer (h, c) columns; plain arrays, detached from any tape."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    @classmethod
    def zeros(cls, config: RegressorConfig) -> "HiddenState":
        return cls([(np.zeros((n, 1)), np.zeros((n, 1))) for n in config.lstm_sizes])

    def validate(self, config: RegressorConfig) -> None:
        if len(self.layers) != len(config.lstm_sizes):
            raise ad.ShapeMismatchError("hidden_state", len(self.layers), len(config.lstm_sizes))
        for (h, c), n in zip(self.layers, config.lstm_sizes):
            if h.shape != (n, 1) or c.shape != (n, 1):
                raise ad.ShapeMismatchError("hidden_state", h.shape, (n, 1))
            if not (np.isfinite(h).all() and np.isfinite(c).all()):
                raise ValueError("hidden state contains non-finite entries")


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
    if config.head_hidden is not None:
        k = 1.0 / np.sqrt(prev)
        store.add("head0.W", rng.uniform(-k, k, size=(config.head_hidden, prev)))
        store.add("head0.b", np.zeros((config.head_hidden, 1)))
        prev = config.head_hidden
    k = 1.0 / np.sqrt(prev)
    store.add("head.W", rng.uniform(-k, k, size=(config.output_dim, prev)))
    store.add("head.b", np.zeros((config.output_dim, 1)))
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
    """``parts[T-1] + parts[T-2] + ... + parts[0]``, added in that order. numpy's reduce
    over the reversed axis adds in that order where a part has 2 or more elements;
    over 1-element parts it adds pairwise, so those keep the Python sum."""
    if parts[0].size < 2:
        return sum(parts[-2::-1], parts[-1])
    return np.add.reduce(parts[::-1], axis=0)


def lstm_cell(x: ad.Value, state: tuple[ad.Value, ad.Value], weights: ad.Value, bias: ad.Value):
    """One cell update; returns (h', c') as tape Values.

    The cell is the layer loop at T=1, recorded as two tape nodes, c' and then
    h'. The reverse sweep reaches h' first: its VJP passes the output-gate
    adjoint on to the VJP of c', which assembles the adjoint of all four
    gates once and pushes it through the stacked weights in one product.
    """
    h_prev, c_prev = state
    n = h_prev.shape[0]
    m = x.shape[0]
    if weights.shape != (4 * n, m + n):
        raise ad.ShapeMismatchError("lstm_cell", weights.shape, (4 * n, m + n))
    if bias.shape != (4 * n, 1):
        raise ad.ShapeMismatchError("lstm_cell", bias.shape, (4 * n, 1))
    w = weights.data
    cache = _layer(x.data.reshape(1, m), h_prev.data, c_prev.data, w, bias.data)
    stacked, factors = cache[0], [a[0] for a in _adjoint_factors(cache)]
    output_gate_adjoint = []  # handed from the VJP of h' to the VJP of c'

    def c_vjp(gc):
        d_o = output_gate_adjoint.pop() if output_gate_adjoint else 0.0
        d_gates, d_stacked, d_c = np.empty((4 * n, 1)), np.empty((m + n, 1)), np.empty((n, 1))
        _gate_adjoint(gc.reshape(n), d_o, *factors[3:], w.T, d_gates.reshape(-1),
                      d_stacked.reshape(-1), d_c.reshape(-1))
        return d_stacked[:m], d_stacked[m:], d_c, d_gates @ stacked[:1], d_gates

    def h_vjp(gh):
        out = np.empty((2, n, 1))
        _output_adjoint(gh.reshape(n), *factors[:3], out.reshape(2, n))
        output_gate_adjoint.append(out[0, :, 0])
        return (out[1],)

    c_value = ad.fused((x, h_prev, c_prev, weights, bias), cache[1][1, :, None], c_vjp)
    return ad.fused((c_value,), stacked[1, m:, None], h_vjp), c_value


def _checked_inputs(op: str, features, config: RegressorConfig, initial: HiddenState | None):
    """The (T, input_dim) float block and the validated start state."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != config.input_dim:
        raise ad.ShapeMismatchError(op, features.shape, ("T", config.input_dim))
    if features.shape[0] < 1:
        raise ValueError(f"{op} needs at least one timestep")
    state = initial if initial is not None else HiddenState.zeros(config)
    state.validate(config)
    return features, state


def _run(features, config: RegressorConfig, params, layers, dropout_rng=None, saved=None):
    """The regressor one layer at a time over all T steps, then the head over the
    top layer's outputs as (T, k, 1) columns; dropout only with a generator, its
    masks drawn at once but filled time-major, then by layer, as per-step draws
    were. Returns the (T, 6) rows and final per-layer (h, c) columns; appends each
    layer's (cache, mask), then the head's input and output, to ``saved``, which
    ``_bptt`` reads."""
    steps, sizes = features.shape[0], config.lstm_sizes
    masks = [None] * len(sizes)
    if dropout_rng is not None and config.dropout > 0.0:
        draw = dropout_rng.random((steps, sum(sizes[:-1])))
        keep = (draw >= config.dropout) / (1.0 - config.dropout)
        masks[:-1] = [keep[:, end - n : end] for n, end in zip(sizes, np.cumsum(sizes[:-1]))]
    x = features
    final = []
    for layer, ((h, c), mask) in enumerate(zip(layers, masks)):
        m = x.shape[1]
        cache = _layer(x, h, c, params[f"lstm{layer}.W"], params[f"lstm{layer}.b"])
        final.append((cache[0][-1, m:, None].copy(), cache[1][-1, :, None].copy()))
        x = cache[0][1:, m:] if mask is None else cache[0][1:, m:] * mask
        if saved is not None:
            saved.append((cache, mask))
        del cache  # unless saved, the layer's arrays go once the next layer has copied x
    x = head_in = x[:, :, None]
    if config.head_hidden is not None:
        x = np.tanh(np.matmul(params["head0.W"], x) + params["head0.b"])
    if saved is not None:
        saved.append((head_in, x))
    return (np.matmul(params["head.W"], x) + params["head.b"]).reshape(steps, OUTPUT_DIM), final


def _bptt(g, config: RegressorConfig, params, saved) -> dict[str, np.ndarray]:
    """Each parameter's gradient from the rows' (T, 6) adjoint ``g``: the head over
    all T rows at once, then each layer from the top, its steps from T-1 down
    to 0 in buffers made once per layer. Each parameter's per-step parts are
    added in descending t, the order ``ad.backward`` uses over a graph of one
    node per cell, dropout mask and head op, so the sums equal that graph's bit
    for bit."""
    *caches, (head_in, head_out) = saved
    d_rows = np.ascontiguousarray(g).reshape(-1, OUTPUT_DIM, 1)
    sums = {"head.b": _descending_sum(d_rows),
            "head.W": _descending_sum(d_rows * head_out.transpose(0, 2, 1))}
    d_x = np.matmul(params["head.W"].T, d_rows)
    if config.head_hidden is not None:
        d_z = d_x * (1.0 - head_out * head_out)
        sums["head0.b"] = _descending_sum(d_z)
        sums["head0.W"] = _descending_sum(d_z * head_in.transpose(0, 2, 1))
        d_x = np.matmul(params["head0.W"].T, d_z)
    d_x = d_x.reshape(len(d_rows), -1)
    for layer in range(len(caches) - 1, -1, -1):
        cache, mask = caches[layer]
        if mask is not None:
            d_x = d_x * mask
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
                     store: ad.ParamStore, initial: HiddenState | None = None,
                     dropout_rng: np.random.Generator | None = None):
    """Run the regressor over a (T, input_dim) feature block.

    Returns (predictions, final_state): predictions is one (T, 6) Value over
    the parameter leaves, row t the step-t relative pose; its VJP is the BPTT.
    final_state holds detached (h, c) arrays so a sequence can be continued.
    Dropout runs only if the config enables it and a generator is supplied.
    """
    features, state = _checked_inputs("forward_sequence", features, config, initial)
    names = store.names()
    leaves = [store.leaf(tape, name) for name in names]
    saved = []
    rows, layers = _run(features, config, store.params, state.layers, dropout_rng, saved)

    def vjp(g):
        sums = _bptt(g, config, store.params, saved)
        return [sums[name] for name in names]

    return ad.fused(leaves, rows, vjp), HiddenState(layers)


def predict(features, config: RegressorConfig, store: ad.ParamStore,
            initial: HiddenState | None = None) -> tuple[np.ndarray, HiddenState]:
    """The no-grad forward: ``forward_sequence``'s time loop with no tape, so its
    (T, 6) rows and final state equal those of ``forward_sequence`` without a
    dropout generator bit for bit."""
    features, state = _checked_inputs("predict", features, config, initial)
    rows, layers = _run(features, config, store.params, state.layers)
    return rows, HiddenState(layers)
