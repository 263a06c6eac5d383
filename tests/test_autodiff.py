import gc
import weakref

import numpy as np
import pytest

from curvo import autodiff as ad
from oracles import gradients_close


def finite_diff_scalar(f, x, step=1e-6):
    """Central-difference gradient of a scalar function of one matrix."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        hi, lo = x.copy(), x.copy()
        hi[idx] += step
        lo[idx] -= step
        grad[idx] = (f(hi) - f(lo)) / (2.0 * step)
    return grad

# Small kernels recorded through ``ad.fused``, each with its hand-written VJP:
# the engine has no op set of its own.


def matmul(a, b):
    if a.shape[1] != b.shape[0]:
        raise ad.ShapeMismatchError("matmul", a.shape, b.shape)
    a_data, b_data = a.data, b.data
    return ad.fused((a, b), a_data @ b_data, lambda g: (g @ b_data.T, a_data.T @ g))


def add(a, b):
    """Elementwise sum; also accepts a (1, m) row bias against an (n, m) matrix."""
    if a.shape == b.shape:
        return ad.fused((a, b), a.data + b.data, lambda g: (g, g))
    if b.shape == (1, a.shape[1]):
        return ad.fused((a, b), a.data + b.data,
                        lambda g: (g, g.sum(axis=0, keepdims=True)))
    raise ad.ShapeMismatchError("add", a.shape, b.shape)


def mul(a, b):
    if a.shape != b.shape:
        raise ad.ShapeMismatchError("mul", a.shape, b.shape)
    a_data, b_data = a.data, b.data
    return ad.fused((a, b), a_data * b_data, lambda g: (g * b_data, g * a_data))


def tanh(a):
    out = np.tanh(a.data)
    return ad.fused((a,), out, lambda g: (g * (1.0 - out * out),))


def square(a):
    a_data = a.data
    return ad.fused((a,), a_data * a_data, lambda g: (g * 2.0 * a_data,))


def total(a):
    shape = a.shape
    return ad.fused((a,), [[a.data.sum()]], lambda g: (np.full(shape, g[0, 0]),))


class TestForwardValues:
    def test_tanh_at_zero(self):
        tape = ad.Tape()
        x = tape.leaf(np.zeros((1, 1)))
        y = tanh(x)
        assert y.item() == 0.0
        ad.backward(total(y))
        assert x.grad[0, 0] == 1.0

    def test_sum_of_squares(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([[3.0], [4.0]]))
        loss = total(square(x))
        assert loss.item() == 25.0
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[6.0], [8.0]])

    def test_matmul_forward(self):
        tape = ad.Tape()
        a = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = tape.leaf(np.array([[5.0], [6.0]]))
        np.testing.assert_allclose(matmul(a, b).data, [[17.0], [39.0]])

    def test_row_bias_broadcast(self):
        tape = ad.Tape()
        a = tape.leaf(np.ones((3, 2)))
        b = tape.leaf(np.array([[1.0, 2.0]]))
        out = add(a, b)
        np.testing.assert_allclose(out.data, [[2.0, 3.0]] * 3)
        ad.backward(total(out))
        np.testing.assert_allclose(b.grad, [[3.0, 3.0]])


class TestShapeErrors:
    def test_matmul_mismatch(self):
        tape = ad.Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((2, 3)))
        with pytest.raises(ad.ShapeMismatchError) as err:
            matmul(a, b)
        assert "(2, 3)" in str(err.value)

    def test_add_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(ad.ShapeMismatchError):
            add(tape.leaf(np.ones((2, 2))), tape.leaf(np.ones((3, 2))))

    def test_elementwise_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(ad.ShapeMismatchError):
            mul(tape.leaf(np.ones((2, 2))), tape.leaf(np.ones((2, 1))))

    def test_fused_rejects_values_of_two_tapes(self):
        a, b = ad.Tape().leaf(np.ones((1, 1))), ad.Tape().leaf(np.ones((1, 1)))
        with pytest.raises(ValueError, match="different tapes"):
            ad.fused((a, b), a.data + b.data, lambda g: (g, g))

    def test_non_scalar_loss(self):
        tape = ad.Tape()
        with pytest.raises(ad.NonScalarLossError):
            ad.backward(tape.leaf(np.ones((2, 1))))


class TestBackward:
    def test_sum_gives_ones(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        ad.backward(total(x))
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_sum_square_gives_2x(self):
        tape = ad.Tape()
        data = np.arange(1.0, 7.0).reshape(3, 2)
        x = tape.leaf(data)
        ad.backward(total(square(x)))
        np.testing.assert_allclose(x.grad, 2.0 * data)

    def test_value_used_twice_accumulates(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([[2.0]]))
        loss = total(add(square(x), x))
        ad.backward(loss)
        assert x.grad[0, 0] == 2.0 * 2.0 + 1.0

    def test_unreachable_grads_are_zero(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 2)))
        y = tape.leaf(np.ones((2, 2)))
        ad.backward(total(x))
        np.testing.assert_allclose(y.grad, np.zeros((2, 2)))

    def test_two_layer_composite_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        w1 = rng.normal(size=(4, 3))
        w2 = rng.normal(size=(1, 4))
        x0 = rng.normal(size=(3, 1))

        def run(w1_data, w2_data, x_data):
            tape = ad.Tape()
            w1v = tape.leaf(w1_data)
            w2v = tape.leaf(w2_data)
            xv = tape.leaf(x_data)
            hidden = tanh(matmul(w1v, xv))
            out = tanh(matmul(w2v, hidden))
            loss = total(square(out))
            return tape, loss, (w1v, w2v, xv)

        tape, loss, (w1v, w2v, xv) = run(w1, w2, x0)
        ad.backward(loss)

        fd_w1 = finite_diff_scalar(lambda w: run(w, w2, x0)[1].item(), w1)
        fd_w2 = finite_diff_scalar(lambda w: run(w1, w, x0)[1].item(), w2)
        fd_x = finite_diff_scalar(lambda v: run(w1, w2, v)[1].item(), x0)
        assert gradients_close(w1v.grad, fd_w1)
        assert gradients_close(w2v.grad, fd_w2)
        assert gradients_close(xv.grad, fd_x)

    def test_every_op_matches_finite_differences(self):
        # one graph through every kernel above: matmul, add (same shape and
        # row bias), mul, tanh, square and total, plus a two-input kernel
        rng = np.random.default_rng(7)
        for _ in range(20):
            arrays = (
                rng.normal(size=(3, 2)),
                rng.normal(size=(3, 2)),
                rng.normal(size=(2, 3)),
                rng.normal(size=(1, 2)),
            )

            def run(a_data, b_data, m_data, r_data):
                tape = ad.Tape()
                a, b, m, r = (tape.leaf(x) for x in (a_data, b_data, m_data, r_data))
                mixed = matmul(m, add(a, mul(a, b)))
                h = tanh(add(mixed, r))
                h_data = h.data
                # a two-input kernel with a broadcast row: k = h * sin(r)
                k = ad.fused(
                    [h, r],
                    h_data * np.sin(r_data),
                    lambda g: (
                        g * np.sin(r_data),
                        np.sum(g * h_data * np.cos(r_data), axis=0, keepdims=True),
                    ),
                )
                # 0.5 * (k^2 + k) - 1.7 * h
                half = tape.leaf(np.full((2, 2), 0.5))
                scale = tape.leaf(np.full((2, 2), -1.7))
                out = add(mul(half, add(square(k), k)), mul(scale, h))
                return tape, total(out), (a, b, m, r)

            tape, loss, leaves = run(*arrays)
            ad.backward(loss)
            for i, (leaf, arr) in enumerate(zip(leaves, arrays)):
                def rebuild(v, i=i):
                    return run(*arrays[:i], v, *arrays[i + 1:])[1].item()

                assert gradients_close(leaf.grad, finite_diff_scalar(rebuild, arr))

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(3)
            tape = ad.Tape()
            x = tape.leaf(rng.normal(size=(4, 4)))
            loss = total(square(tanh(matmul(x, x))))
            ad.backward(loss)
            return loss.item(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class TestTapeLifetime:
    def test_tape_is_freed_without_the_cycle_collector(self):
        # the tape keeps node ids, not Values, so dropping the last Value
        # frees it by reference counting alone
        store = ad.ParamStore()
        store.add("w", np.ones((2, 2)))
        gc.disable()
        try:
            tape = ad.Tape()
            w = store.leaf(tape, "w")
            x = tape.leaf(np.ones((2, 1)))
            y = ad.fused((w, x), w.data @ x.data, lambda g: (g @ x.data.T, w.data.T @ g))
            loss = add(total(y), total(square(y)))
            ad.backward(loss)
            alive = weakref.ref(tape)
            del tape, w, x, y, loss
            assert alive() is None
        finally:
            gc.enable()


class TestAdam:
    def test_zero_grad_no_change(self):
        store = ad.ParamStore()
        store.add("w", np.array([[1.0, -2.0]]))
        before = store.params["w"].copy()
        ad.adam_step(store, lr=0.1)
        np.testing.assert_allclose(store.params["w"], before)

    def test_first_step_is_signed_lr(self):
        store = ad.ParamStore()
        store.add("w", np.array([[1.0]]))
        store.grads["w"][...] = 0.5
        ad.adam_step(store, lr=1e-3)
        # bias-corrected first step moves by ~lr * sign(g)
        assert abs(store.params["w"][0, 0] - (1.0 - 1e-3)) < 1e-6
        np.testing.assert_allclose(store.grads["w"], 0.0)

    def test_converges_on_quadratic(self):
        store = ad.ParamStore()
        store.add("x", np.array([[1.0]]))
        reference = _reference_adam(1.0, lr=0.1, steps=100)
        for _ in range(100):
            tape = ad.Tape()
            x = store.leaf(tape, "x")
            ad.backward(total(square(x)))
            ad.adam_step(store, lr=0.1)
        assert abs(store.params["x"][0, 0]) < 1e-2
        assert abs(store.params["x"][0, 0] - reference) < 1e-12

    def test_grad_accumulates_across_backwards(self):
        store = ad.ParamStore()
        store.add("x", np.array([[2.0]]))
        tape = ad.Tape()
        x = store.leaf(tape, "x")
        ad.backward(total(square(x)))
        tape2 = ad.Tape()
        x2 = store.leaf(tape2, "x")
        ad.backward(total(square(x2)))
        assert store.grads["x"][0, 0] == 8.0


def _reference_adam(x, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Straight-line scalar Adam on f(x) = x^2."""
    m = v = 0.0
    for t in range(1, steps + 1):
        g = 2.0 * x
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        x -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    return x


def _store_of(rng):
    store = ad.ParamStore()
    for name, shape in (("lstm0.W", (8, 5)), ("lstm0.b", (8, 1)), ("head.W", (6, 2)),
                        ("head.b", (6, 1))):
        store.add(name, rng.normal(size=shape))
    return store


def _per_parameter_adam(params, grads, moments, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as one update per parameter array, on dicts of arrays."""
    for name, param in params.items():
        g, (m, v) = grads[name], moments[name]
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestFlatParamStore:
    def test_adam_equals_per_parameter_update(self):
        rng = np.random.default_rng(21)
        store = _store_of(rng)
        params = {name: p.copy() for name, p in store.params.items()}
        moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
        for t in range(1, 9):
            grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.integers(-4, 3)
                     for name, p in params.items()}
            for name, g in grads.items():
                store.grads[name][...] = g
            if t % 2 == 0:  # clipped as the trainer clips
                factor = 0.5 / store.grad_norm()
                store.scale_grads(factor)
                for g in grads.values():
                    g *= factor
            ad.adam_step(store, lr=1e-2)
            _per_parameter_adam(params, grads, moments, t, lr=1e-2)
            for name, p in params.items():
                assert store.params[name].tobytes() == p.tobytes(), (t, name)
                assert not store.grads[name].any()
            for k, flat in enumerate((store._moment1, store._moment2)):
                ref = np.concatenate([pair[k].reshape(-1) for pair in moments.values()])
                assert flat.tobytes() == ref.tobytes(), (t, k)

    def test_entries_written_through_the_views_are_the_store(self, tmp_path):
        rng = np.random.default_rng(22)
        store = _store_of(rng)
        store.params["lstm0.W"][3, 4] = 7.5
        store.grads["lstm0.W"][3, 4] = -2.0
        store.grads["head.b"][5, 0] = 0.25
        grads = {name: g.copy() for name, g in store.grads.items()}
        expected = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        assert store.grad_norm() == expected == float(np.sqrt(4.0 + 0.0625))
        params = {name: p.copy() for name, p in store.params.items()}
        moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
        ad.adam_step(store, lr=1e-3)
        _per_parameter_adam(params, grads, moments, 1, lr=1e-3)
        assert store.params["lstm0.W"][3, 4] == params["lstm0.W"][3, 4] != 7.5
        store.params["head.W"][1, 1] = -3.25
        store.save(tmp_path / "ckpt.txt")
        loaded = ad.ParamStore.load(tmp_path / "ckpt.txt")
        assert loaded.params["head.W"][1, 1] == -3.25
        for name in store.names():
            assert np.array_equal(loaded.params[name], store.params[name])

    def test_copies_share_no_memory_with_their_source(self, tmp_path):
        store = _store_of(np.random.default_rng(23))
        store.save(tmp_path / "ckpt.txt")
        before = {name: p.copy() for name, p in store.params.items()}
        copy, loaded = store.params_copy(), ad.ParamStore.load(tmp_path / "ckpt.txt")
        assert copy.grads == {}  # the parameters alone
        for other in (copy, loaded):
            assert other.names() == store.names()
            for name in store.names():
                assert np.array_equal(other.params[name], store.params[name])
            for ours in (*other.params.values(), *other.grads.values()):
                for theirs in (*store.params.values(), *store.grads.values()):
                    assert not np.shares_memory(ours, theirs)
            other.params["head.b"][0, 0] += 1.0
        loaded.grads["head.W"][0, 0] = 1.0
        ad.adam_step(loaded, lr=1e-3)
        for name, p in before.items():
            assert store.params[name].tobytes() == p.tobytes()
        assert store.step_count == 0 and not any(g.any() for g in store.grads.values())


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        store = ad.ParamStore()
        store.add("layer.W", rng.normal(size=(3, 4)))
        store.add("layer.b", rng.normal(size=(3, 1)))
        path = tmp_path / "ckpt.txt"
        store.save(path)
        loaded = ad.ParamStore.load(path)
        assert loaded.names() == store.names()
        for name in store.names():
            assert np.array_equal(loaded.params[name], store.params[name])

    def test_magic_header_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            ad.ParamStore.load(path)

    def test_save_is_deterministic(self, tmp_path):
        store = ad.ParamStore()
        store.add("w", np.array([[0.1, 0.2], [0.3, 0.4]]))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        store.save(p1)
        store.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
