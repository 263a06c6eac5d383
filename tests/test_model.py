import math

import numpy as np
import pytest

from curvo import autodiff as ad
from curvo import loss
from curvo import model
from oracles import gradients_close


def scalar_lstm_reference(x, h_prev, c_prev, weights, bias):
    """Straight-line scalar evaluation of the stacked-gate cell equations."""
    n = len(h_prev)
    stacked = list(x) + list(h_prev)
    h_out, c_out = [], []

    def sigm(v):
        return 1.0 / (1.0 + math.exp(-v))

    pre = []
    for row in range(4 * n):
        acc = bias[row]
        for col, value in enumerate(stacked):
            acc += weights[row][col] * value
        pre.append(acc)
    for j in range(n):
        i = sigm(pre[j])
        f = sigm(pre[n + j])
        o = sigm(pre[2 * n + j])
        g = math.tanh(pre[3 * n + j])
        c = f * c_prev[j] + i * g
        h = o * math.tanh(c)
        c_out.append(c)
        h_out.append(h)
    return h_out, c_out


def run_cell(x, h, c, w, b):
    """The cell as ``model._layer`` at T = 1; returns (h', c') as 1-D rows."""
    x = np.asarray(x, float)
    stacked, cs, _, _ = model._layer(
        x.reshape(1, -1), np.asarray(h, float).reshape(-1, 1),
        np.asarray(c, float).reshape(-1, 1), np.asarray(w, float),
        np.asarray(b, float).reshape(-1, 1),
    )
    return stacked[1, len(x):], cs[1]


def taped_cell(x, state, weights, bias):
    """One cell update as two tape nodes, c' and then h'; returns (h', c').

    The reverse sweep reaches h' first: its VJP passes the output-gate adjoint
    on to the VJP of c', which assembles the adjoint of all four gates once and
    pushes it through the stacked weights in one product.
    """
    h_prev, c_prev = state
    n, m = h_prev.shape[0], x.shape[0]
    w = weights.data
    cache = model._layer(x.data.reshape(1, m), h_prev.data, c_prev.data, w, bias.data)
    stacked, factors = cache[0], [a[0] for a in model._adjoint_factors(cache)]
    output_gate_adjoint = []  # handed from the VJP of h' to the VJP of c'

    def c_vjp(gc):
        d_o = output_gate_adjoint.pop() if output_gate_adjoint else 0.0
        d_gates, d_stacked, d_c = np.empty((4 * n, 1)), np.empty((m + n, 1)), np.empty((n, 1))
        model._gate_adjoint(gc.reshape(n), d_o, *factors[3:], w.T, d_gates.reshape(-1),
                            d_stacked.reshape(-1), d_c.reshape(-1))
        return d_stacked[:m], d_stacked[m:], d_c, d_gates @ stacked[:1], d_gates

    def h_vjp(gh):
        out = np.empty((2, n, 1))
        model._output_adjoint(gh.reshape(n), *factors[:3], out.reshape(2, n))
        output_gate_adjoint.append(out[0, :, 0])
        return (out[1],)

    c_value = ad.fused((x, h_prev, c_prev, weights, bias), cache[1][1, :, None], c_vjp)
    return ad.fused((c_value,), stacked[1, m:, None], h_vjp), c_value


def dense(w, b, x, tanh=False):
    """``w x + b``, or ``tanh(w x + b)``, as one fused node over (w, b, x)."""
    w_data, x_data = w.data, x.data
    out = w_data @ x_data + b.data
    if not tanh:
        return ad.fused((w, b, x), out, lambda g: (g @ x_data.T, g, w_data.T @ g))
    out = np.tanh(out)

    def vjp(g):
        d_z = g * (1.0 - out * out)
        return d_z @ x_data.T, d_z, w_data.T @ d_z

    return ad.fused((w, b, x), out, vjp)


def per_step_graph(tape, features, cfg, store, *, dropout_rng=None):
    """forward_sequence as one node per cell, dropout mask and head layer:
    ``taped_cell`` plus small fused kernels, from the zero state, with
    forward_sequence's signature."""
    leaf = {name: store.leaf(tape, name) for name in store.names()}
    layers = [(tape.leaf(np.zeros((n, 1))), tape.leaf(np.zeros((n, 1)))) for n in cfg.lstm_sizes]
    rows = []
    for t in range(len(features)):
        x = tape.leaf(features[t].reshape(-1, 1))
        for layer in range(len(layers)):
            x, c = taped_cell(x, layers[layer], leaf[f"lstm{layer}.W"], leaf[f"lstm{layer}.b"])
            layers[layer] = (x, c)
            if dropout_rng is not None and cfg.dropout > 0.0 and layer < len(layers) - 1:
                keep = (dropout_rng.random(x.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
                x = ad.fused((x,), x.data * keep, lambda g, keep=keep: (g * keep,))
        if cfg.head_hidden is not None:
            x = dense(leaf["head0.W"], leaf["head0.b"], x, tanh=True)
        rows.append(dense(leaf["head.W"], leaf["head.b"], x))
    stacked = ad.fused(rows, np.hstack([r.data for r in rows]).T,
                       lambda g: [g[t].reshape(6, 1) for t in range(len(rows))])
    return stacked, [(h.data, c.data) for h, c in layers]


def assert_gradients_equal_per_step_graph(sizes, head_hidden, dropout, seeded, steps):
    """forward_sequence's loss and gradients equal per_step_graph's under ==."""
    cfg = model.RegressorConfig(input_dim=3, lstm_sizes=sizes, head_hidden=head_hidden,
                                dropout=dropout)
    store = model.init_params(cfg, seed=14)
    rng = np.random.default_rng(15)
    features = rng.normal(size=(steps, 3))
    gt = rng.uniform(-0.3, 0.3, size=(steps, 6))
    weights = loss.LossWeights(alpha=0.5, delta=1.0, zeta=3.0, window=2)
    grads = []
    for run in (model.forward_sequence, per_step_graph):
        drop = np.random.default_rng(19) if seeded else None
        tape = ad.Tape()
        preds, _ = run(tape, features, cfg, store, dropout_rng=drop)
        total = loss.sequence_loss(preds, gt, weights)
        ad.backward(total)
        grads.append((total.item(), {n: g.copy() for n, g in store.grads.items()}))
        store.zero_grads()
    (fused_loss, fused), (graph_loss, graph) = grads
    assert fused_loss == graph_loss
    for name in store.names():
        assert np.array_equal(fused[name], graph[name]), name


def assert_predict_equals_forward_sequence(sizes, head_hidden, dropout, steps):
    """predict's rows equal forward_sequence's under ==."""
    cfg = model.RegressorConfig(input_dim=3, lstm_sizes=sizes, head_hidden=head_hidden,
                                dropout=dropout)
    store = model.init_params(cfg, seed=14)
    features = np.random.default_rng(15).normal(size=(steps, 3))
    preds, _ = model.forward_sequence(ad.Tape(), features, cfg, store)
    assert np.array_equal(model.predict(features, cfg, store), preds.data)


class TestLstmCell:
    def test_zero_weights_zero_cell(self):
        # all-zero weights and bias: i = f = o = 0.5, g = 0, so c' = h' = 0
        n, m = 3, 2
        h, c = run_cell(np.ones(m), np.zeros(n), np.zeros(n), np.zeros((4 * n, m + n)), np.zeros(4 * n))
        np.testing.assert_allclose(c, 0.0, atol=1e-15)
        np.testing.assert_allclose(h, 0.0, atol=1e-15)

    def test_zero_weights_nonzero_cell_state(self):
        # gates stay at 0.5 / g = 0, so c' = 0.5 c and h' = 0.5 tanh(0.5 c)
        n, m = 4, 3
        c_prev = np.array([1.0, -0.5, 2.0, 0.25])
        h, c = run_cell(np.ones(m), np.zeros(n), c_prev, np.zeros((4 * n, m + n)), np.zeros(4 * n))
        np.testing.assert_allclose(c, 0.5 * c_prev, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            x = rng.normal(size=m)
            h0 = rng.normal(size=n)
            c0 = rng.normal(size=n)
            w = rng.normal(size=(4 * n, m + n))
            b = rng.normal(size=4 * n)
            h, c = run_cell(x, h0, c0, w, b)
            h_ref, c_ref = scalar_lstm_reference(x, h0, c0, w, b)
            np.testing.assert_allclose(h, h_ref, atol=1e-12)
            np.testing.assert_allclose(c, c_ref, atol=1e-12)


class TestInit:
    def test_shapes_and_forget_bias(self):
        cfg = model.RegressorConfig(input_dim=4, lstm_sizes=(5, 3))
        store = model.init_params(cfg, seed=0)
        assert store.params["lstm0.W"].shape == (20, 9)
        assert store.params["lstm1.W"].shape == (12, 8)
        assert store.params["head.W"].shape == (6, 3)
        bias = store.params["lstm0.b"].reshape(-1)
        np.testing.assert_allclose(bias[5:10], 1.0)
        np.testing.assert_allclose(bias[:5], 0.0)

    def test_seeded_and_bounded(self):
        cfg = model.RegressorConfig(input_dim=4, lstm_sizes=(5,))
        a = model.init_params(cfg, seed=9)
        b = model.init_params(cfg, seed=9)
        c = model.init_params(cfg, seed=10)
        assert np.array_equal(a.params["lstm0.W"], b.params["lstm0.W"])
        assert not np.array_equal(a.params["lstm0.W"], c.params["lstm0.W"])
        k = 1.0 / np.sqrt(9)
        assert np.abs(a.params["lstm0.W"]).max() <= k

    def test_config_validation(self):
        with pytest.raises(ValueError):
            model.RegressorConfig(input_dim=4, lstm_sizes=())
        with pytest.raises(ValueError):
            model.RegressorConfig(input_dim=4, lstm_sizes=(3,), output_dim=7)


class TestForwardSequence:
    def test_single_step_equals_cell_plus_head(self):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=(4,))
        store = model.init_params(cfg, seed=1)
        features = np.random.default_rng(2).normal(size=(1, 3))
        tape = ad.Tape()
        preds, final = model.forward_sequence(tape, features, cfg, store)
        h, _ = run_cell(
            features[0], np.zeros(4), np.zeros(4),
            store.params["lstm0.W"], store.params["lstm0.b"].reshape(-1),
        )
        expected = store.params["head.W"] @ h.reshape(-1, 1) + store.params["head.b"]
        np.testing.assert_allclose(preds.data[0], expected[:, 0], atol=1e-12)
        np.testing.assert_allclose(final[0][0].reshape(-1), h, atol=1e-12)

    def test_zero_head_outputs_identity_motion(self):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=(4, 4))
        store = model.init_params(cfg, seed=3)
        store.params["head.W"][...] = 0.0
        store.params["head.b"][...] = 0.0
        tape = ad.Tape()
        preds, _ = model.forward_sequence(
            tape, np.random.default_rng(4).normal(size=(5, 3)), cfg, store
        )
        np.testing.assert_allclose(preds.data, 0.0, atol=1e-15)

    @pytest.mark.parametrize("sizes,head_hidden,dropout", [
        ((4, 3), None, 0.0),
        ((3, 4, 2), 5, 0.0),
        ((4, 4), None, 0.5),
    ])
    def test_bptt_gradient_matches_finite_differences(self, sizes, head_hidden, dropout):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=sizes, head_hidden=head_hidden,
                                    dropout=dropout)
        store = model.init_params(cfg, seed=7)
        # unit-scale weights keep every layer and the head in their nonlinear
        # range: at init scale the top of a 3-layer stack is nearly zero
        rng = np.random.default_rng(7)
        for param in store.params.values():
            param[...] = rng.normal(size=param.shape)
        features = np.random.default_rng(8).normal(size=(6, 3))
        target = np.random.default_rng(9).normal(size=(6, 6))
        # alpha 1, window 1, unit weights: exactly the sum of ||p_t - target_t||^2
        weights = loss.LossWeights(alpha=1.0, delta=1.0, zeta=1.0, window=1)

        def loss_value():
            tape = ad.Tape()
            preds, _ = model.forward_sequence(tape, features, cfg, store,
                                              dropout_rng=np.random.default_rng(10))
            return loss.sequence_loss(preds, target, weights)

        ad.backward(loss_value())
        analytic = {name: store.grads[name].copy() for name in store.names()}
        store.zero_grads()

        step = 1e-6
        for name in store.names():
            param = store.params[name]
            fd = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + step
                hi = loss_value().item()
                param[idx] = orig - step
                lo = loss_value().item()
                param[idx] = orig
                fd[idx] = (hi - lo) / (2 * step)
            assert gradients_close(analytic[name], fd, rtol=1e-5), name

    def test_dropout_off_by_default_and_deterministic_when_on(self):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=(4, 4), dropout=0.5)
        store = model.init_params(cfg, seed=11)
        features = np.random.default_rng(12).normal(size=(4, 3))
        tape = ad.Tape()
        no_rng, _ = model.forward_sequence(tape, features, cfg, store)
        tape2 = ad.Tape()
        plain_cfg = model.RegressorConfig(input_dim=3, lstm_sizes=(4, 4))
        plain, _ = model.forward_sequence(tape2, features, plain_cfg, store)
        assert np.array_equal(no_rng.data, plain.data)
        out = []
        for _ in range(2):
            tape_n = ad.Tape()
            preds, _ = model.forward_sequence(
                tape_n, features, cfg, store, dropout_rng=np.random.default_rng(99)
            )
            out.append(preds.data)
        assert np.array_equal(out[0], out[1])
        assert not np.array_equal(out[0], plain.data)

    def test_records_one_tape_node(self):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=(4, 3), head_hidden=5, dropout=0.5)
        store = model.init_params(cfg, seed=16)
        features = np.random.default_rng(17).normal(size=(7, 3))
        tape = ad.Tape()
        model.forward_sequence(tape, features, cfg, store, dropout_rng=np.random.default_rng(18))
        assert len(tape) == len(store.names()) + 1

    @pytest.mark.parametrize("sizes,head_hidden,dropout,seeded", [
        ((5,), None, 0.0, False),
        ((4, 3), 7, 0.0, False),
        ((3, 4, 2), None, 0.0, False),
        ((4, 4), None, 0.5, False),
        ((4, 4), None, 0.5, True),
        ((5, 3, 4), 1, 0.3, True),  # unequal layers pin the order of the mask draws
    ])
    def test_gradients_equal_per_step_graph(self, sizes, head_hidden, dropout, seeded):
        # the BPTT adds each parameter's per-step parts in the order backward
        # adds them over a graph of one node per step op: equal under ==
        assert_gradients_equal_per_step_graph(sizes, head_hidden, dropout, seeded, steps=9)

    @pytest.mark.parametrize("steps", [1, 24])
    def test_sequence_length_gradients_equal_per_step_graph(self, steps):
        # 24 steps of (T, 1, 1) head0.b parts: a numpy reduce, which sums them
        # pairwise, gives other bits here
        assert_gradients_equal_per_step_graph((5, 3, 4), 1, 0.3, True, steps)

    @pytest.mark.parametrize("head_hidden,steps", [(1, 10), (1, 60), (2, 24)])
    def test_head_gradient_sums_equal_per_step_graph(self, head_hidden, steps):
        # head0.b's parts have head_hidden elements: one takes the Python sum, two the
        # numpy reduce, and both add in descending t
        assert_gradients_equal_per_step_graph((4, 3), head_hidden, 0.0, False, steps)

    @pytest.mark.parametrize("steps", [1, 2, 10, 24, 200])
    @pytest.mark.parametrize("part", [(1,), (1, 1), (2,), (2, 1), (3, 1), (6, 1), (8, 3), (64, 26)])
    def test_descending_sum_adds_from_the_last_part(self, steps, part):
        rng = np.random.default_rng(steps)
        parts = rng.normal(size=(steps, *part)) * np.exp(3.0 * rng.normal(size=(steps, *part)))
        expected = parts[-1].copy()
        for t in range(steps - 2, -1, -1):
            expected = expected + parts[t]
        got = model._descending_sum(parts)
        assert got.shape == part and got.tobytes() == expected.tobytes()

    def test_feature_width_checked(self):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=(4,))
        store = model.init_params(cfg, seed=13)
        with pytest.raises(ad.ShapeMismatchError):
            model.forward_sequence(ad.Tape(), np.zeros((2, 5)), cfg, store)


class TestPredict:
    @pytest.mark.parametrize("sizes,head_hidden,dropout", [
        ((5,), None, 0.0),
        ((4, 3), 7, 0.0),
        ((3, 4, 2), None, 0.0),
        ((4, 4), None, 0.5),  # dropout configured, but no generator: off in both
        ((5, 3, 4), 1, 0.3),
    ])
    def test_equals_forward_sequence_bit_for_bit(self, sizes, head_hidden, dropout):
        assert_predict_equals_forward_sequence(sizes, head_hidden, dropout, steps=9)

    def test_single_step_equals_forward_sequence(self):
        assert_predict_equals_forward_sequence((5, 3, 4), 1, 0.3, steps=1)

    def test_feature_width_checked(self):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=(4,))
        store = model.init_params(cfg, seed=13)
        with pytest.raises(ad.ShapeMismatchError):
            model.predict(np.zeros((2, 5)), cfg, store)
