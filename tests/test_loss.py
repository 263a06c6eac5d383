import numpy as np
import pytest

from curvo import autodiff as ad
from curvo import geometry as geo
from curvo import loss
from curvo import model
from oracles import euler_from_matrix, euler_matrix, geodesic_angle, gradients_close, homogeneous


def vec_to_matrix(v):
    return homogeneous(v[:3], euler_matrix(*v[3:]))


def matrix_to_vec(m):
    return np.concatenate([m[:3, 3], euler_from_matrix(m)])


def reference_sequence_loss(pred, gt, alpha, delta, zeta, window):
    """Straight-line evaluation of the blended objective via 4x4 matrices; a
    composite's rotation error is the geodesic angle of R_gt^T R_est."""

    def err(a6, b6):
        d = np.asarray(a6) - np.asarray(b6)
        return delta * d[:3] @ d[:3] + zeta * d[3:] @ d[3:]

    def composite_err(m_est, m_gt):
        d = m_est[:3, 3] - m_gt[:3, 3]
        return delta * d @ d + zeta * geodesic_angle(m_gt[:3, :3].T @ m_est[:3, :3]) ** 2

    steps = len(pred)
    rel = [err(pred[t], gt[t]) for t in range(steps)]
    com = [0.0] * steps
    previous = None
    for t in range(window - 1, steps):
        m_est = np.eye(4)
        m_gt = np.eye(4)
        for k in range(t - window + 1, t + 1):
            m_est = m_est @ vec_to_matrix(pred[k])
            m_gt = m_gt @ vec_to_matrix(gt[k])
        raw = composite_err(m_est, m_gt)
        if previous is None or raw > previous:
            com[t] = raw
        previous = raw
    return sum(alpha * r + (1 - alpha) * c for r, c in zip(rel, com))


def make_predictions(tape, rows):
    return tape.leaf(np.asarray(rows, float).reshape(-1, 6))


def step_loss(rows, gt, alpha=1.0, delta=1.0, zeta=1.0, window=1):
    """sequence_loss over a (T, 6) leaf; returns the scalar and the leaf."""
    tape = ad.Tape()
    values = make_predictions(tape, rows)
    weights = loss.LossWeights(alpha=alpha, delta=delta, zeta=zeta, window=window)
    return loss.sequence_loss(values, np.asarray(gt, float), weights), values


def pure_translation(xs):
    """Rows that step xs[t] along x, with no rotation."""
    rows = np.zeros((len(xs), 6))
    rows[:, 0] = xs
    return rows


class TestPoseError:
    # the per-step term: sequence_loss of one step at alpha = 1

    def test_exact_match_is_zero(self):
        total, _ = step_loss([np.arange(6.0)], [np.arange(6.0)])
        assert total.item() == 0.0

    def test_translation_offset(self):
        total, _ = step_loss([[0.1, 0, 0, 0, 0, 0]], np.zeros((1, 6)))
        assert abs(total.item() - 0.01) < 1e-15

    def test_kitti_weighting(self):
        # delta = 1, zeta = 100 with a 0.01 rad yaw error contributes 0.01
        total, _ = step_loss([[0, 0, 0, 0, 0, 0.01]], np.zeros((1, 6)), zeta=100.0)
        assert abs(total.item() - 0.01) < 1e-15

    def test_gradient(self):
        est = np.array([0.3, -0.2, 0.1, 0.05, -0.04, 0.02])
        truth = np.array([0.1, 0.1, 0.1, 0.0, 0.0, 0.0])
        total, v = step_loss([est], [truth], delta=2.0, zeta=3.0)
        ad.backward(total)
        expected = 2.0 * np.array([2.0] * 3 + [3.0] * 3) * (est - truth)
        np.testing.assert_allclose(v.grad.reshape(-1), expected, atol=1e-12)


class TestLossWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            loss.LossWeights(alpha=1.5, delta=1.0, zeta=1.0, window=2)
        with pytest.raises(ValueError):
            loss.LossWeights(alpha=1.0, delta=1.0, zeta=1.0, window=0)
        with pytest.raises(ValueError):
            loss.LossWeights(alpha=1.0, delta=-1.0, zeta=1.0, window=2)


def pose_vector(t, q):
    """The (t, r) 6-vector of a translation and a quaternion."""
    return np.concatenate([t, geo._quats_to_euler(geo._normalize_quat(q))[0]])


def last_window(rows, window):
    """The last (t, q) row of ground_truth_window_relatives as a (t, r) 6-vector."""
    translations, quaternions = loss.ground_truth_window_relatives(rows, window)
    return pose_vector(translations[-1], quaternions[-1])


class TestWindowedCompose:
    # the window composite: the last row of ground_truth_window_relatives,
    # which runs the same chain as the predicted windows

    def test_window_one_passthrough(self):
        row = np.array([0.1, 0.2, 0.3, 0.01, 0.02, 0.03])
        out = last_window([row], 1)
        np.testing.assert_allclose(out, row, atol=1e-12)

    def test_two_translations_add(self):
        rows = [[1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]]
        out = last_window(rows, 2)
        np.testing.assert_allclose(out, [2, 0, 0, 0, 0, 0], atol=1e-12)

    def test_matches_accumulate_final_pose(self):
        rng = np.random.default_rng(31)
        rows = rng.uniform(-0.3, 0.3, size=(3, 6))
        out = last_window(rows, 3)
        final = geo.accumulate_vectors(rows)
        np.testing.assert_allclose(
            out, pose_vector(final.positions[-1], final.quaternions[-1]), atol=1e-12)

    def test_matches_matrix_chain_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            rows = rng.uniform(-0.4, 0.4, size=(3, 6))
            out = last_window(rows, 3)
            m = np.eye(4)
            for row in rows:
                m = m @ vec_to_matrix(row)
            np.testing.assert_allclose(out, matrix_to_vec(m), atol=1e-9)

    @staticmethod
    def _gradient_error(rows, gt):
        """Analytic and central-difference gradients of one window's error.

        At alpha = 0 with the window as long as the sequence, the objective
        is the error of that single window, whose gate is always open.
        """
        window = len(rows)

        def run(flat):
            return step_loss(flat.reshape(window, 6), gt, alpha=0.0, window=window)

        scalar, values = run(rows.reshape(-1))
        ad.backward(scalar)
        analytic = values.grad.reshape(-1)

        step = 1e-6
        flat = rows.reshape(-1).copy()
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            hi, lo = flat.copy(), flat.copy()
            hi[i] += step
            lo[i] -= step
            fd[i] = (run(hi)[0].item() - run(lo)[0].item()) / (2 * step)
        return analytic, fd

    @pytest.mark.parametrize("window", [2, 3, 4])
    def test_gradient_matches_finite_differences(self, window):
        rng = np.random.default_rng(33)
        cases = [(rng.uniform(-0.3, 0.3, size=(window, 6)), rng.uniform(-0.3, 0.3, size=(window, 6)))
                 for _ in range(10)]
        # near gimbal lock: the composite pitch is within window * 0.01 of pi/2
        rows = rng.uniform(-0.3, 0.3, size=(window, 6))
        rows[:, 3] = rows[:, 5] = 0.0
        rows[:, 4] = np.pi / (2 * window) + rng.uniform(-0.01, 0.01, size=window)
        cases.append((rows, rng.uniform(-0.3, 0.3, size=(window, 6))))
        # past the wrap: a composite yaw of 3.2 rad against a truth of 3.1 rad
        rows = rng.uniform(-0.01, 0.01, size=(window, 6))
        gt = rng.uniform(-0.01, 0.01, size=(window, 6))
        rows[:, 5], gt[:, 5] = 3.2 / window, 3.1 / window
        cases.append((rows, gt))
        for rows, gt in cases:
            analytic, fd = self._gradient_error(rows, gt)
            assert gradients_close(analytic, fd, rtol=1e-5)

    @pytest.mark.parametrize("operand", [0, 1, 2])
    def test_gradient_with_pitch_outside_half_pi(self, operand):
        # pitch 2.0 is a valid Euler input whose re-extracted angles differ
        # (roll + pi, pi - pitch, yaw + pi); the derivative must follow the
        # input angles, not the re-extracted ones
        rng = np.random.default_rng(34)
        rows = rng.uniform(-0.3, 0.3, size=(3, 6))
        rows[operand, 4] = 2.0
        gt = rng.uniform(-0.3, 0.3, size=(3, 6))
        analytic, fd = self._gradient_error(rows, gt)
        assert gradients_close(analytic, fd, rtol=1e-5)
        # and near gimbal lock: the other two pitches bring the composite's
        # pitch to within 0.02 of pi/2
        rows[:, 3] = rows[:, 5] = 0.0
        others = [k for k in range(3) if k != operand]
        rows[others, 4] = (np.pi / 2 - 2.0) / 2 + rng.uniform(-0.01, 0.01, size=2)
        analytic, fd = self._gradient_error(rows, gt)
        assert gradients_close(analytic, fd, rtol=1e-5)

    def test_insufficient_history(self):
        # fewer steps than the window: no composite, relative terms only
        rng = np.random.default_rng(35)
        gt = rng.uniform(-0.3, 0.3, size=(2, 6))
        pred = gt + rng.uniform(-0.1, 0.1, size=(2, 6))
        relative, rel_values = step_loss(pred, gt, alpha=1.0, window=3)
        ad.backward(relative)
        blended, values = step_loss(pred, gt, alpha=0.5, window=3)
        ad.backward(blended)
        assert blended.item() == relative.item() * 0.5
        np.testing.assert_array_equal(values.grad, rel_values.grad * 0.5)
        assert step_loss(pred, gt, alpha=0.0, window=3)[0].item() == 0.0


class TestCompositeResidual:
    # the composite rotation residual is the log map of q_gt* x q_est: it is
    # smooth where an Euler angle wraps past +-pi and at pitch +-pi/2

    @staticmethod
    def _both(rows, gt, weights):
        total, values = step_loss(rows, gt, alpha=weights.alpha, zeta=weights.zeta,
                                  window=weights.window)
        ad.backward(total)
        return total.item(), loss.sequence_loss_value(rows, gt, weights), values.grad

    def test_yaw_past_pi_is_the_short_angle(self):
        rows, gt = np.zeros((2, 6)), np.zeros((2, 6))
        rows[:, 5], gt[:, 5] = 1.6, 1.55  # composite yaw 3.2 against 3.1
        weights = loss.LossWeights(alpha=0.0, delta=1.0, zeta=3.0, window=2)
        taped, value, grad = self._both(rows, gt, weights)
        assert abs(taped - 3.0 * 0.01) < 1e-12
        assert value == taped
        np.testing.assert_allclose(grad[:, 5], 2 * 3.0 * 0.1, rtol=1e-9)

    def test_composite_pitch_at_half_pi_is_finite(self):
        rows = np.zeros((2, 6))
        rows[:, 4] = np.pi / 4
        weights = loss.LossWeights(alpha=0.0, delta=1.0, zeta=1.0, window=2)
        taped, value, grad = self._both(rows, np.zeros((2, 6)), weights)
        assert abs(taped - (np.pi / 2) ** 2) < 1e-12
        assert value == taped
        assert np.all(np.isfinite(grad))
        np.testing.assert_allclose(grad[:, 4], np.pi, rtol=1e-12)


class TestCompositeLoss:
    # the rise gate: at window 1 and alpha = 0 the objective is the sum of
    # the step errors that rose above the previous step's error

    def test_first_step_contributes_raw(self):
        total, _ = step_loss(pure_translation([0.5]), np.zeros((1, 6)), alpha=0.0)
        assert abs(total.item() - 0.25) < 1e-15

    def test_falling_value_contributes_zero(self):
        # raws 1.0 then 0.25: only the first contributes
        total, _ = step_loss(pure_translation([1.0, 0.5]), np.zeros((2, 6)), alpha=0.0)
        assert total.item() == 1.0

    def test_rising_value_contributes(self):
        # raws 0.0625 then 0.25: both contribute
        total, _ = step_loss(pure_translation([0.25, 0.5]), np.zeros((2, 6)), alpha=0.0)
        assert total.item() == 0.3125

    def test_tie_contributes_zero(self):
        total, _ = step_loss(pure_translation([0.5, 0.5]), np.zeros((2, 6)), alpha=0.0)
        assert total.item() == 0.25

    def test_gated_zero_has_no_gradient(self):
        total, values = step_loss(pure_translation([1.0, 0.5]), np.zeros((2, 6)), alpha=0.0)
        ad.backward(total)
        assert np.all(values.grad[1] == 0.0)
        assert values.grad[0, 0] == 2.0


class TestBoundedTotal:
    # alpha * (relative sum) + (1 - alpha) * (composite sum); steps of 1 and 2
    # along x give relative terms 1 and 4 and one window-2 composite of 9

    def test_alpha_one_is_pure_relative(self):
        total, _ = step_loss(pure_translation([1.0, 2.0]), np.zeros((2, 6)), window=2)
        assert total.item() == 5.0

    def test_alpha_zero_is_pure_composite(self):
        total, _ = step_loss(pure_translation([1.0, 2.0]), np.zeros((2, 6)), alpha=0.0, window=2)
        assert total.item() == 9.0

    def test_midpoint_blend(self):
        total, _ = step_loss(pure_translation([1.0, 2.0]), np.zeros((2, 6)), alpha=0.5, window=2)
        assert total.item() == 7.0


class TestSequenceLoss:
    def _seeded_case(self, seed, steps=4):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(-0.3, 0.3, size=(steps, 6))
        pred = gt + rng.uniform(-0.1, 0.1, size=(steps, 6))
        return pred, gt

    def test_perfect_predictions_zero(self):
        pred, gt = self._seeded_case(41)
        tape = ad.Tape()
        values = make_predictions(tape, gt)
        weights = loss.LossWeights(alpha=0.5, delta=1.0, zeta=1.0, window=2)
        out = loss.sequence_loss(values, gt, weights)
        assert out.item() == 0.0

    def test_alpha_one_independent_of_window(self):
        pred, gt = self._seeded_case(42)
        results = []
        for window in (1, 2, 3):
            tape = ad.Tape()
            values = make_predictions(tape, pred)
            weights = loss.LossWeights(alpha=1.0, delta=1.0, zeta=1.0, window=window)
            results.append(loss.sequence_loss(values, gt, weights).item())
        assert results[0] == results[1] == results[2]

    def test_alpha_one_bit_equals_composite_free_reference(self):
        pred, gt = self._seeded_case(43)
        tape = ad.Tape()
        values = make_predictions(tape, pred)
        unit = loss.LossWeights(alpha=1.0, delta=1.0, zeta=1.0, window=2)
        ours = loss.sequence_loss(values, gt, unit).item()
        weights = np.array([1.0] * 3 + [1.0] * 3)
        per_step = [np.sum(weights * (p - g) ** 2) for p, g in zip(pred, gt)]
        reference = per_step[0]
        for term in per_step[1:]:
            reference = reference + term
        reference = reference * 1.0
        assert ours == reference

    def test_matches_straight_line_reference(self):
        for seed in range(8):
            pred, gt = self._seeded_case(100 + seed, steps=5)
            for alpha, window in ((0.5, 2), (0.25, 3), (0.0, 2)):
                weights = loss.LossWeights(alpha=alpha, delta=1.3, zeta=0.7, window=window)
                tape = ad.Tape()
                values = make_predictions(tape, pred)
                ours = loss.sequence_loss(values, gt, weights).item()
                ref = reference_sequence_loss(pred, gt, alpha, 1.3, 0.7, window)
                assert abs(ours - ref) < 1e-9, (seed, alpha, window)

    def test_hand_constructed_gating(self):
        # window 1 makes the composite equal the step error, so the gate
        # sequence is fully controlled: raws are 1.0, 0.25, 0.64, 0.04
        gt = np.zeros((4, 6))
        pred = np.zeros((4, 6))
        pred[:, 0] = [1.0, 0.5, 0.8, 0.2]
        tape = ad.Tape()
        values = make_predictions(tape, pred)
        weights = loss.LossWeights(alpha=0.0, delta=1.0, zeta=1.0, window=1)
        total = loss.sequence_loss(values, gt, weights).item()
        # contributions: 1.0 (first), 0 (fell), 0.64 (rose), 0 (fell)
        assert abs(total - (1.0 + 0.0 + 0.64 + 0.0)) < 1e-12

    def test_gating_monotonicity_property(self):
        # at alpha = 0 the total is exactly the sum of the window errors that
        # rose above the previous window's error; a window's error is the
        # objective of a sequence that holds only that window
        rng = np.random.default_rng(55)
        single = loss.LossWeights(alpha=0.0, delta=1.0, zeta=1.0, window=2)
        for _ in range(20):
            steps = 6
            gt = rng.uniform(-0.2, 0.2, size=(steps, 6))
            pred = gt + rng.uniform(-0.15, 0.15, size=(steps, 6))
            raws = [loss.sequence_loss_value(pred[i : i + 2], gt[i : i + 2], single)
                    for i in range(steps - 1)]
            expected = raws[0]
            for previous, raw in zip(raws, raws[1:]):
                if raw > previous:
                    expected += raw
            total, _ = step_loss(pred, gt, alpha=0.0, window=2)
            assert total.item() == expected

    def test_end_to_end_gradient_through_model(self):
        cfg = model.RegressorConfig(input_dim=3, lstm_sizes=(4, 3))
        rng = np.random.default_rng(56)
        features = rng.normal(size=(5, 3))
        gt = rng.uniform(-0.2, 0.2, size=(5, 6))
        for window in (2, 3):
            store = model.init_params(cfg, seed=57)
            weights = loss.LossWeights(alpha=0.4, delta=1.0, zeta=2.0, window=window)

            def total():
                tape = ad.Tape()
                preds, _ = model.forward_sequence(tape, features, cfg, store)
                return loss.sequence_loss(preds, gt, weights)

            scalar = total()
            ad.backward(scalar)
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
                    hi = total().item()
                    param[idx] = orig - step
                    lo = total().item()
                    param[idx] = orig
                    fd[idx] = (hi - lo) / (2 * step)
                assert gradients_close(analytic[name], fd, rtol=1e-5), (name, window)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1, 0.0])
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_value_equals_taped_loss(self, alpha, window):
        pred, gt = self._seeded_case(60 + window, steps=7)
        weights = loss.LossWeights(alpha=alpha, delta=1.3, zeta=4.0, window=window)
        taped = loss.sequence_loss(make_predictions(ad.Tape(), pred), gt, weights).item()
        assert loss.sequence_loss_value(pred, gt, weights) == taped

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("window, start, length", [
        *((w, start, length) for w in (1, 2, 3, 4) for start, length in ((0, 8), (6, 7), (14, 6))),
        *((w, 9, w - 1) for w in (2, 3, 4)),  # shorter than the window: an empty slice
    ])
    def test_sliced_truth_windows_equal_the_span_own(self, alpha, window, start, length):
        # a span takes its windows from the sequence's, as the trainer slices them
        pred, gt = self._seeded_case(70 + window, steps=20)
        weights = loss.LossWeights(alpha=alpha, delta=1.3, zeta=4.0, window=window)
        end = start + max(0, length - window + 1)
        sliced = tuple(a[start:end] for a in loss.ground_truth_window_relatives(gt, window))
        rows, truth = pred[start : start + length], gt[start : start + length]
        results = []
        for truth_windows in (None, sliced):
            tape = ad.Tape()
            values = make_predictions(tape, rows)
            total = loss.sequence_loss(values, truth, weights, truth_windows)
            ad.backward(total)
            results.append((total.item(), values.grad))
        (own, own_grad), (cut, cut_grad) = results
        assert cut == own
        assert np.array_equal(cut_grad, own_grad)
        assert loss.sequence_loss_value(rows, truth, weights, sliced) == own
        assert len(sliced[0]) == max(0, length - window + 1)

    def test_records_one_tape_node(self):
        pred, gt = self._seeded_case(61, steps=6)
        tape = ad.Tape()
        values = make_predictions(tape, pred)
        before = len(tape)
        loss.sequence_loss(values, gt, loss.LossWeights(alpha=0.5, delta=1.0, zeta=1.0, window=3))
        assert len(tape) == before + 1
