"""Pose regressor: stacked LSTM layers plus a fully connected head.

Each LSTM layer carries one stacked weight matrix of shape
``4n x (n_prev + n)`` over the concatenated (input, previous hidden) column,
with gate order (i, f, o, g): i/f/o through the logistic function, g through
tanh, then ``c' = f*c + i*g`` and ``h' = o*tanh(c')``. A bias column is added
on top of the stacked product (zero bias reproduces the bias-free cell
exactly); the forget-gate slice is initialized to +1 for trainability.

Vectors are (n, 1) columns throughout; per-step outputs are 6x1 pose columns
ordered (tx, ty, tz, roll, pitch, yaw).
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
    """The cell on plain (n, 1) arrays: (h', c', what the VJPs read)."""
    n = h_prev.shape[0]
    stacked = np.vstack([x, h_prev])
    gates = w @ stacked + b
    sig = 1.0 / (1.0 + np.exp(-gates[: 3 * n]))
    g = np.tanh(gates[3 * n :])
    c_new = sig[n : 2 * n] * c_prev + sig[:n] * g
    tanh_c = np.tanh(c_new)
    o = sig[2 * n :]
    return o * tanh_c, c_new, (stacked, sig[:n], sig[n : 2 * n], o, g, tanh_c)


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
    c_old = c_prev.data
    h_new, c_new, saved = _cell_kernel(x.data, h_prev.data, c_old, w, bias.data)
    stacked, i, f, o, g, tanh_c = saved
    output_gate_adjoint = []  # handed from the VJP of h' to the VJP of c'

    def c_vjp(gc):
        d_gates = np.empty((4 * n, 1))
        d_gates[:n] = gc * g * i * (1.0 - i)
        d_gates[n : 2 * n] = gc * c_old * f * (1.0 - f)
        d_gates[2 * n : 3 * n] = output_gate_adjoint.pop() if output_gate_adjoint else 0.0
        d_gates[3 * n :] = gc * i * (1.0 - g * g)
        d_stacked = w.T @ d_gates
        return d_stacked[:m], d_stacked[m:], gc * f, d_gates @ stacked.T, d_gates

    def h_vjp(gh):
        output_gate_adjoint.append(gh * tanh_c * o * (1.0 - o))
        return (gh * o * (1.0 - tanh_c * tanh_c),)

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


def forward_sequence(
    tape: ad.Tape,
    features: np.ndarray,
    config: RegressorConfig,
    store: ad.ParamStore,
    initial: HiddenState | None = None,
    dropout_rng: np.random.Generator | None = None,
):
    """Run the regressor over a (T, input_dim) feature block.

    Returns (predictions, final_state): predictions is a length-T list of 6x1
    Values, row t being the estimated step-t relative pose; final_state holds
    detached (h, c) arrays so a sequence can be continued across calls.
    Dropout is applied only when the config enables it and a generator is
    supplied (training time).
    """
    features, state = _checked_inputs("forward_sequence", features, config, initial)
    weights = [
        (store.leaf(tape, f"lstm{layer}.W"), store.leaf(tape, f"lstm{layer}.b"))
        for layer in range(len(config.lstm_sizes))
    ]
    head_w = store.leaf(tape, "head.W")
    head_b = store.leaf(tape, "head.b")
    head0 = None
    if config.head_hidden is not None:
        head0 = (store.leaf(tape, "head0.W"), store.leaf(tape, "head0.b"))

    layer_state = [
        (tape.constant(h), tape.constant(c)) for h, c in state.layers
    ]
    use_dropout = config.dropout > 0.0 and dropout_rng is not None

    predictions = []
    for t in range(features.shape[0]):
        x = tape.constant(features[t].reshape(-1, 1))
        for layer, (w, b) in enumerate(weights):
            h, c = lstm_cell(x, layer_state[layer], w, b)
            layer_state[layer] = (h, c)
            x = h
            if use_dropout and layer < len(weights) - 1:
                keep = (dropout_rng.random(h.shape) >= config.dropout) / (1.0 - config.dropout)
                x = ad.mul_elementwise(x, tape.constant(keep))
        if head0 is not None:
            x = ad.tanh(ad.add(ad.matmul(head0[0], x), head0[1]))
        predictions.append(ad.add(ad.matmul(head_w, x), head_b))

    final = HiddenState([(h.data.copy(), c.data.copy()) for h, c in layer_state])
    return predictions, final


def predict(features, config: RegressorConfig, store: ad.ParamStore,
            initial: HiddenState | None = None) -> tuple[np.ndarray, HiddenState]:
    """The no-grad forward: (T, 6) rows and the final state, both equal bit for
    bit to ``forward_sequence``'s without a dropout generator; no tape."""
    features, state = _checked_inputs("predict", features, config, initial)
    params = store.params
    cells = [(params[f"lstm{layer}.W"], params[f"lstm{layer}.b"])
             for layer in range(len(config.lstm_sizes))]
    layer_state = list(state.layers)
    rows = np.empty((features.shape[0], OUTPUT_DIM))
    for t in range(features.shape[0]):
        x = features[t].reshape(-1, 1)
        for layer, (w, b) in enumerate(cells):
            x, c, _ = _cell_kernel(x, *layer_state[layer], w, b)
            layer_state[layer] = (x, c)
        if config.head_hidden is not None:
            x = np.tanh(params["head0.W"] @ x + params["head0.b"])
        rows[t] = (params["head.W"] @ x + params["head.b"])[:, 0]
    return rows, HiddenState(layer_state)
