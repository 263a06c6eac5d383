"""Pose regressor: stacked LSTM layers plus a fully connected head.

Each LSTM layer carries one stacked weight matrix of shape
``4n x (n_prev + n)`` over the concatenated (input, previous hidden) column,
with gate order (i, f, o, g): i/f/o through the logistic function, g through
tanh, then ``c' = f*c + i*g`` and ``h' = o*tanh(c')``. A bias column is added
on top of the stacked product (zero bias reproduces the bias-free cell
exactly); the forget-gate slice is initialized to +1 for trainability.

Vectors are (n, 1) columns throughout; the outputs of a sequence are (T, 6)
rows, one pose per step, ordered (tx, ty, tz, roll, pitch, yaw). One time
loop runs the sequence: ``predict`` calls it with no tape, and
``forward_sequence`` records its rows as a single tape node whose VJP is the
hand-written BPTT.
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


def _cell_kernel(x, h_prev, c_prev, w, b):
    """The cell on plain (n, 1) arrays: (h', c', what the adjoint helpers read)."""
    n = h_prev.shape[0]
    stacked = np.vstack([x, h_prev])
    gates = w @ stacked + b
    sig = 1.0 / (1.0 + np.exp(-gates[: 3 * n]))
    g = np.tanh(gates[3 * n :])
    c_new = sig[n : 2 * n] * c_prev + sig[:n] * g
    tanh_c = np.tanh(c_new)
    o = sig[2 * n :]
    return o * tanh_c, c_new, (stacked, c_prev, sig[:n], sig[n : 2 * n], o, g, tanh_c)


def _output_adjoint(gh, cache):
    """From h''s adjoint: the output gate's pre-activation adjoint and c''s share."""
    o, tanh_c = cache[4], cache[6]
    return gh * tanh_c * o * (1.0 - o), gh * o * (1.0 - tanh_c * tanh_c)


def _gate_adjoint(gc, d_o, w, cache):
    """The cell's adjoint from c''s whole adjoint ``gc`` and the output gate's
    ``d_o``: one contribution each to x, h, c, the weights and the bias."""
    stacked, c_prev, i, f, _, g, _ = cache
    n = i.shape[0]
    d_gates = np.empty((4 * n, 1))
    d_gates[:n] = gc * g * i * (1.0 - i)
    d_gates[n : 2 * n] = gc * c_prev * f * (1.0 - f)
    d_gates[2 * n : 3 * n] = d_o
    d_gates[3 * n :] = gc * i * (1.0 - g * g)
    d_stacked = w.T @ d_gates
    m = stacked.shape[0] - n
    return d_stacked[:m], d_stacked[m:], gc * f, d_gates @ stacked.T, d_gates


def lstm_cell(x: ad.Value, state: tuple[ad.Value, ad.Value], weights: ad.Value, bias: ad.Value):
    """One cell update; returns (h', c') as tape Values.

    The cell is one fused kernel recorded as two tape nodes, c' and then h'.
    The reverse sweep reaches h' first: its VJP passes the output-gate
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
    h_new, c_new, cache = _cell_kernel(x.data, h_prev.data, c_prev.data, w, bias.data)
    output_gate_adjoint = []  # handed from the VJP of h' to the VJP of c'

    def c_vjp(gc):
        d_o = output_gate_adjoint.pop() if output_gate_adjoint else 0.0
        return _gate_adjoint(gc, d_o, w, cache)

    def h_vjp(gh):
        d_o, d_c = _output_adjoint(gh, cache)
        output_gate_adjoint.append(d_o)
        return (d_c,)

    c_value = ad.fused((x, h_prev, c_prev, weights, bias), c_new, c_vjp)
    return ad.fused((c_value,), h_new, h_vjp), c_value


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
    """The time loop: cells, inter-layer dropout (only with a generator; masks
    drawn time-major, then by layer) and head. Returns the (T, 6) rows and the
    final per-layer (h, c); each step appends what ``_bptt`` reads to ``saved``.
    """
    cells = [(params[f"lstm{layer}.W"], params[f"lstm{layer}.b"])
             for layer in range(len(config.lstm_sizes))]
    dropout = config.dropout if dropout_rng is not None else 0.0
    layers = list(layers)
    rows = np.empty((features.shape[0], OUTPUT_DIM))
    for t in range(features.shape[0]):
        x = features[t].reshape(-1, 1)
        step = []
        for layer, (w, b) in enumerate(cells):
            x, c, cache = _cell_kernel(x, *layers[layer], w, b)
            layers[layer] = (x, c)
            keep = None
            if dropout > 0.0 and layer < len(cells) - 1:
                keep = (dropout_rng.random(x.shape) >= dropout) / (1.0 - dropout)
                x = x * keep
            step.append((cache, keep))
        head_in = x
        if config.head_hidden is not None:
            x = np.tanh(params["head0.W"] @ x + params["head0.b"])
        rows[t] = (params["head.W"] @ x + params["head.b"])[:, 0]
        if saved is not None:
            saved.append((step, head_in, x))
    return rows, layers


def _bptt(g, config: RegressorConfig, params, saved) -> dict[str, np.ndarray]:
    """Each parameter's gradient from the rows' (T, 6) adjoint ``g``. Steps run
    from T-1 down to 0 and each parameter's parts add to a running sum in that
    order, the order ``ad.backward`` uses over a graph of one node per cell,
    dropout mask and head op, so the sums equal that graph's bit for bit."""
    sums: dict[str, np.ndarray] = {}

    def accumulate(name, part):
        sums[name] = part if name not in sums else sums[name] + part

    top = len(config.lstm_sizes) - 1
    d_h = [None] * (top + 1)  # adjoint reaching each layer's h from the next step
    d_c = [None] * (top + 1)
    g = np.ascontiguousarray(g)
    for t in range(len(saved) - 1, -1, -1):
        step, head_in, head_out = saved[t]
        d_row = g[t].reshape(-1, 1)
        accumulate("head.b", d_row)
        accumulate("head.W", d_row @ head_out.T)
        d_x = params["head.W"].T @ d_row
        if config.head_hidden is not None:
            d_z = d_x * (1.0 - head_out * head_out)
            accumulate("head0.b", d_z)
            accumulate("head0.W", d_z @ head_in.T)
            d_x = params["head0.W"].T @ d_z
        for layer in range(top, -1, -1):
            cache, keep = step[layer]
            if keep is not None:
                d_x = d_x * keep
            gh = d_x if d_h[layer] is None else d_h[layer] + d_x
            d_o, gc = _output_adjoint(gh, cache)
            if d_c[layer] is not None:
                gc = d_c[layer] + gc
            d_x, d_h[layer], d_c[layer], d_w, d_b = _gate_adjoint(
                gc, d_o, params[f"lstm{layer}.W"], cache)
            accumulate(f"lstm{layer}.W", d_w)
            accumulate(f"lstm{layer}.b", d_b)
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
