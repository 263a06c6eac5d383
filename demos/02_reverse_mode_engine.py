"""The tape-based gradient engine: forward ops, backward, Adam.

Run:  python3 demos/02_reverse_mode_engine.py
"""

import numpy as np

from curvo import autodiff as ad

# Values live on a Tape; ops record how to push gradients back.
tape = ad.Tape()
x = tape.leaf(np.array([[3.0], [4.0]]))
loss = ad.sum(ad.square(x))
print(f"f(x) = sum(x^2) at x = (3, 4): {loss.item()}")
ad.backward(loss)
print("gradient (should be 2x):", x.grad.reshape(-1))

# A small network: gradients flow through matmul / tanh chains.
rng = np.random.default_rng(1)
tape = ad.Tape()
w1 = tape.leaf(rng.normal(size=(4, 3)))
w2 = tape.leaf(rng.normal(size=(1, 4)))
inp = tape.constant(rng.normal(size=(3, 1)))
out = ad.tanh(ad.matmul(w2, ad.tanh(ad.matmul(w1, inp))))
ad.backward(ad.sum(ad.square(out)))
print("\ntwo-layer chain: |grad w1| =", f"{np.abs(w1.grad).max():.4f}",
      " |grad w2| =", f"{np.abs(w2.grad).max():.4f}")

# Parameters persist across tapes in a ParamStore; Adam drives them.
store = ad.ParamStore()
store.add("x", np.array([[1.0]]))
trace = []
for _ in range(100):
    tape = ad.Tape()
    xv = store.leaf(tape, "x")
    ad.backward(ad.sum(ad.square(xv)))
    ad.adam_step(store, lr=0.1)
    trace.append(float(store.params["x"][0, 0]))
print("\nAdam on f(x) = x^2 from x = 1:")
print("  after 10 steps:", f"{trace[9]:+.4f}", " after 100 steps:", f"{trace[-1]:+.6f}")

# A custom kernel enters the tape through fused: its forward value is
# computed off-tape, and its VJP maps the node's adjoint back to each input.
# Here a fixed linear map with a known Jacobian acts like a custom layer.
tape = ad.Tape()
v = tape.leaf(np.array([[1.0], [2.0]]))
jacobian = np.array([[2.0, 0.0], [0.0, 3.0]])
mapped = ad.fused([v], jacobian @ v.data, lambda g: (jacobian.T @ g,))
ad.backward(ad.sum(mapped))
print("\ncustom linear kernel: grad =", v.grad.reshape(-1), "(columns of J summed)")
