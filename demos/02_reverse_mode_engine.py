"""The tape-based gradient engine: fused kernels, backward, Adam.

Run:  python3 demos/02_reverse_mode_engine.py
"""

import numpy as np

from curvo import autodiff as ad


def sum_of_squares(x):
    """f(x) = sum(x^2) as one tape node: the value computed off-tape, the VJP by hand."""
    data = x.data
    return ad.fused([x], [[np.sum(data * data)]], lambda g: (g[0, 0] * 2.0 * data,))


# Values live on a Tape. Every operation is a kernel that fused records with
# its VJP, which maps the node's adjoint to one contribution per input.
tape = ad.Tape()
x = tape.leaf(np.array([[3.0], [4.0]]))
loss = sum_of_squares(x)
print(f"f(x) = sum(x^2) at x = (3, 4): {loss.item()}, {len(tape)} tape nodes (x and f)")
ad.backward(loss)
print("gradient (should be 2x):", x.grad.reshape(-1))


def two_layer_loss(w1, w2, inp):
    """sum(tanh(w2 tanh(w1 inp))^2) as one node over w1 and w2: a kernel may
    hold a whole chain, with the chain rule written out in its VJP, the way
    the LSTM regressor records a sequence and its BPTT."""
    w2_data = w2.data
    hidden = np.tanh(w1.data @ inp)
    out = np.tanh(w2_data @ hidden)

    def vjp(g):
        d_out = g[0, 0] * 2.0 * out * (1.0 - out * out)
        d_hidden = (w2_data.T @ d_out) * (1.0 - hidden * hidden)
        return d_hidden @ inp.T, d_out @ hidden.T

    return ad.fused([w1, w2], [[np.sum(out * out)]], vjp)


rng = np.random.default_rng(1)
w1_data, w2_data = rng.normal(size=(4, 3)), rng.normal(size=(1, 4))
inp = rng.normal(size=(3, 1))
tape = ad.Tape()
w1, w2 = tape.leaf(w1_data), tape.leaf(w2_data)
ad.backward(two_layer_loss(w1, w2, inp))


def value_at(w1_00):
    moved = w1_data.copy()
    moved[0, 0] = w1_00
    tape = ad.Tape()
    return two_layer_loss(tape.leaf(moved), tape.leaf(w2_data), inp).item()


step = 1e-6
fd = (value_at(w1_data[0, 0] + step) - value_at(w1_data[0, 0] - step)) / (2 * step)
print("\ntwo-layer kernel: |grad w1| =", f"{np.abs(w1.grad).max():.4f}",
      " |grad w2| =", f"{np.abs(w2.grad).max():.4f}")
print(f"  d/dw1[0,0]: VJP {w1.grad[0, 0]:.8f}, central difference {fd:.8f}")

# Parameters persist across tapes in a ParamStore; Adam drives them.
store = ad.ParamStore()
store.add("x", np.array([[1.0]]))
trace = []
for _ in range(100):
    tape = ad.Tape()
    ad.backward(sum_of_squares(store.leaf(tape, "x")))
    ad.adam_step(store, lr=0.1)
    trace.append(float(store.params["x"][0, 0]))
print("\nAdam on f(x) = x^2 from x = 1:")
print("  after 10 steps:", f"{trace[9]:+.4f}", " after 100 steps:", f"{trace[-1]:+.6f}")
