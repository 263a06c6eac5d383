import math
from itertools import accumulate

import numpy as np
import pytest

from curvo import autodiff as ad
from curvo import loss
from curvo import model
from oracles import gradients_close, per_layer_predict, taped_cell


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
    """The cell as ``model._wavefront`` at one layer and T = 1; returns (h', c') as 1-D rows."""
    x, w = np.asarray(x, float), np.asarray(w, float)
    sizes = (w.shape[0] // 4,)
    params = {"lstm0.W": w, "lstm0.b": np.asarray(b, float).reshape(-1, 1)}
    block = model._block(params, sizes, len(x))
    stacked, act = model._wavefront(x.reshape(1, -1), np.asarray(h, float).reshape(-1),
                                    np.asarray(c, float).reshape(-1), block, sizes)
    return stacked[1, len(x) : -1], act[1, : sizes[0]]


def dense(w, b, x):
    """``w x + b`` as one fused node over (w, b, x)."""
    w_data, x_data = w.data, x.data
    return ad.fused((w, b, x), w_data @ x_data + b.data, lambda g: (g @ x_data.T, g, w_data.T @ g))


def per_step_graph(tape, features, cfg, store):
    """forward_sequence as one node per cell and per head product: ``taped_cell``
    plus small fused kernels, from the zero state, with forward_sequence's
    signature."""
    leaf = {name: store.leaf(tape, name) for name in store.names()}
    layers = [(tape.leaf(np.zeros((n, 1))), tape.leaf(np.zeros((n, 1)))) for n in cfg.lstm_sizes]
    # each layer's operand columns in the block's (x, h_0, ..., h_{L-1}, 1) rows
    starts = [0, *accumulate(cfg.lstm_sizes, initial=cfg.input_dim)]
    width = cfg.input_dim + sum(cfg.lstm_sizes) + 1
    rows = []
    for t in range(len(features)):
        x = tape.leaf(features[t].reshape(-1, 1))
        for layer in range(len(layers)):
            x, c = taped_cell(x, layers[layer], leaf[f"lstm{layer}.W"], leaf[f"lstm{layer}.b"],
                              starts[layer], width)
            layers[layer] = (x, c)
        rows.append(dense(leaf["head.W"], leaf["head.b"], x))
    stacked = ad.fused(rows, np.hstack([r.data for r in rows]).T,
                       lambda g: [g[t].reshape(6, 1) for t in range(len(rows))])
    return stacked, [(h.data, c.data) for h, c in layers]


def assert_gradients_match_per_step_graph(sizes, steps):
    """forward_sequence's loss equals per_step_graph's under ==, and its gradients
    match to rounding: the two add each parameter's per-step parts in different orders."""
    cfg = model.RegressorConfig(input_dim=3, lstm_sizes=sizes)
    store = model.init_params(cfg, seed=14)
    rng = np.random.default_rng(15)
    features = rng.normal(size=(steps, 3))
    gt = rng.uniform(-0.3, 0.3, size=(steps, 6))
    weights = loss.LossWeights(alpha=0.5, delta=1.0, zeta=3.0, window=2)
    grads = []
    for run in (model.forward_sequence, per_step_graph):
        tape = ad.Tape()
        preds, _ = run(tape, features, cfg, store)
        total = loss.sequence_loss(preds, gt, weights)
        ad.backward(total)
        grads.append((total.item(), {n: g.copy() for n, g in store.grads.items()}))
        store.zero_grads()
    (fused_loss, fused), (graph_loss, graph) = grads
    assert fused_loss == graph_loss
    for name in store.names():
        assert gradients_close(fused[name], graph[name], rtol=1e-13), name


def assert_predict_equals_forward_sequence(sizes, steps):
    """predict's rows equal forward_sequence's under ==."""
    cfg = model.RegressorConfig(input_dim=3, lstm_sizes=sizes)
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
        for sizes in ((), (0,), (4, -2)):
            with pytest.raises(ValueError):
                model.RegressorConfig(input_dim=4, lstm_sizes=sizes)


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

    @pytest.mark.parametrize("sizes", [(4, 3), (3, 4, 2), (4, 4)])
    def test_bptt_gradient_matches_finite_differences(self, sizes):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=sizes)
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
            preds, _ = model.forward_sequence(tape, features, cfg, store)
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

    def test_records_one_tape_node(self):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=(4, 3))
        store = model.init_params(cfg, seed=16)
        features = np.random.default_rng(17).normal(size=(7, 3))
        tape = ad.Tape()
        model.forward_sequence(tape, features, cfg, store)
        assert len(tape) == len(store.names()) + 1

    @pytest.mark.parametrize("sizes", [(5,), (4, 3), (3, 4, 2), (4, 4), (5, 3, 4)])
    def test_gradients_equal_per_step_graph(self, sizes):
        # a graph of one node per cell equation and per head product, its VJPs written
        # from the equations alone: the same loss bits, the same gradients to rounding
        assert_gradients_match_per_step_graph(sizes, steps=9)

    # T < L runs only the wavefront's start-up steps, where the upper layers have not begun
    @pytest.mark.parametrize("sizes, steps", [
        pytest.param((5, 3, 4), steps, id=str(steps)) for steps in (1, 24)] + [
        pytest.param((7, 16, 9), steps, id=f"7-16-9-{steps}") for steps in (1, 2, 24)])
    def test_sequence_length_gradients_equal_per_step_graph(self, sizes, steps):
        assert_gradients_match_per_step_graph(sizes, steps)

    def test_feature_width_checked(self):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=(4,))
        store = model.init_params(cfg, seed=13)
        with pytest.raises(ad.ShapeMismatchError):
            model.forward_sequence(ad.Tape(), np.zeros((2, 5)), cfg, store)


class TestPredict:
    @pytest.mark.parametrize("sizes", [(5,), (4, 3), (3, 4, 2), (4, 4), (5, 3, 4)])
    def test_equals_forward_sequence_bit_for_bit(self, sizes):
        assert_predict_equals_forward_sequence(sizes, steps=9)

    def test_single_step_equals_forward_sequence(self):
        assert_predict_equals_forward_sequence((5, 3, 4), steps=1)

    # T < L runs only the wavefront's start-up steps, where the upper layers have not begun
    @pytest.mark.parametrize("sizes, steps", [((16, 16), 200)] + [
        (sizes, steps) for sizes in ((7, 16, 9), (5, 3, 4)) for steps in (1, 2, 24)])
    def test_equals_per_layer_reference_bit_for_bit(self, sizes, steps):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=sizes)
        store = model.init_params(cfg, seed=18)
        rng = np.random.default_rng(19)
        for param in store.params.values():  # unit scale keeps every layer nonlinear
            param[...] = rng.normal(size=param.shape)
        features = rng.normal(size=(steps, 3))
        expected = per_layer_predict(features, sizes, store.params)
        assert np.array_equal(model.predict(features, cfg, store), expected)

    def test_feature_width_checked(self):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=(4,))
        store = model.init_params(cfg, seed=13)
        with pytest.raises(ad.ShapeMismatchError):
            model.predict(np.zeros((2, 5)), cfg, store)
