"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The gradient check in
``test_01`` is the slow one, at about 13 s; everything else finishes in
seconds.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from curvo import autodiff as ad
from curvo import evaluation as ev
from curvo import geometry as geo
from curvo import loss as ls
from curvo import model as md
from curvo import trainer as tr
from oracles import chain_trajectory, gradients_close, trajectory_matrices

from test_model import run_cell, scalar_lstm_reference


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


# --- 1. gradient correctness ---------------------------------------------------


def test_01_sequence_loss_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = 100
    passes = 0  # a host-independent work count, printed beside the time
    for case in range(cases):
        input_dim = int(rng.integers(2, 4))
        sizes = tuple(int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 3))))
        steps = int(rng.integers(2, 7))
        window = 2 if case % 2 == 0 else 3
        config = md.RegressorConfig(input_dim=input_dim, lstm_sizes=sizes)
        store = md.init_params(config, seed=int(rng.integers(2**31)))
        features = rng.normal(size=(steps, input_dim))
        gt = rng.uniform(-0.3, 0.3, size=(steps, 6))
        weights = ls.LossWeights(
            alpha=float(rng.uniform(0.1, 0.9)), delta=1.0,
            zeta=float(rng.uniform(0.5, 5.0)), window=window,
        )

        # the truth rows never change, so their windows are built once, as train does
        truth = ls.ground_truth_window_relatives(gt, window)

        def total():
            nonlocal passes
            passes += 1
            return ls.sequence_loss_value(md.predict(features, config, store), gt, weights, truth)

        passes += 1  # the analytic gradient's forward pass
        tr.span_gradients(store, config, features, gt, weights, truth)
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
                hi = total()
                param[idx] = orig - step
                lo = total()
                param[idx] = orig
                fd[idx] = (hi - lo) / (2.0 * step)
            assert gradients_close(analytic[name], fd, rtol=1e-5), (case, name)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    report(f"1 gradient correctness ({cases} cases, {elapsed:.1f}s, {passes} forward passes)")


# --- 2. geometry oracle equivalence ---------------------------------------------


def test_02_geometry_matches_homogeneous_matrix_oracle():
    from oracles import pose_matrix, random_pose_matrix

    def row(m):
        return m[:3, 3][None], geo.matrix_to_quat(m[:3, :3])[None]

    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for case in range(1000):
        m_a = random_pose_matrix(rng)
        m_b = random_pose_matrix(rng)
        t, q = geo._between(*row(m_a), *row(m_b))
        np.testing.assert_allclose(pose_matrix(t[0], q[0]), np.linalg.inv(m_a) @ m_b, atol=1e-9)
        if case % 10 == 0:
            steps = [random_pose_matrix(rng, angle_scale=0.5) for _ in range(5)]
            t, q = (np.vstack(part) for part in zip(*map(row, [m_a, *steps])))
            traj = geo._accumulate(t, q)
            expected = np.eye(4)  # the chain from the identity, through A first
            for k, m in enumerate([m_a, *steps], start=1):
                expected = expected @ m
                np.testing.assert_allclose(
                    pose_matrix(traj.positions[k], traj.quaternions[k]), expected, atol=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"geometry oracle check took {elapsed:.2f}s"
    report(f"2 geometry oracle equivalence (1000 cases, {elapsed:.2f}s)")


# --- 3. loss identities ----------------------------------------------------------


def test_03_loss_identities():
    rng = np.random.default_rng(5)
    steps = 6
    gt = rng.uniform(-0.3, 0.3, size=(steps, 6))
    pred = gt + rng.uniform(-0.1, 0.1, size=(steps, 6))

    # alpha = 1 is bit-identical to a composite-free sum of the step terms
    delta, zeta = 1.0, 3.0
    tape = ad.Tape()
    values = tape.leaf(pred)
    ours = ls.sequence_loss(values, gt, ls.LossWeights(alpha=1.0, delta=delta,
                                                       zeta=zeta, window=2)).item()
    weights6 = np.array([delta] * 3 + [zeta] * 3)
    reference = None
    for p, g in zip(pred, gt):
        term = np.sum(weights6.reshape(6, 1) * (p - g).reshape(6, 1) ** 2)
        reference = term if reference is None else reference + term
    assert ours == reference * 1.0

    # perfect predictions give exactly zero at any alpha
    for alpha in (1.0, 0.5, 0.0):
        tape = ad.Tape()
        values = tape.leaf(gt)
        weights = ls.LossWeights(alpha=alpha, delta=1.0, zeta=1.0, window=2)
        assert ls.sequence_loss(values, gt, weights).item() == 0.0

    # the rise/fall gate, hand-computed on pure-translation steps where the
    # window loss alternates: raws (x_{t-1}+x_t)^2 = 2.25, 1.69, 1.0, 1.21
    xs = [1.0, 0.5, 0.8, 0.2, 0.9]
    gt_zero = np.zeros((5, 6))
    pred_pure = np.zeros((5, 6))
    pred_pure[:, 0] = xs
    tape = ad.Tape()
    values = tape.leaf(pred_pure)
    alpha = 0.25
    weights = ls.LossWeights(alpha=alpha, delta=1.0, zeta=1.0, window=2)
    total = ls.sequence_loss(values, gt_zero, weights).item()
    rel_sum = None
    for x in xs:
        term = np.sum(np.ones((6, 1)) * np.array([x, 0, 0, 0, 0, 0]).reshape(6, 1) ** 2)
        rel_sum = term if rel_sum is None else rel_sum + term
    raws = [(a + b) ** 2 for a, b in zip(xs, xs[1:])]
    assert raws == [2.25, 1.6900000000000002, 1.0, 1.2100000000000002]
    contributions = [0.0, raws[0], 0.0, 0.0, raws[3]]  # first window open, then rise-gated
    com_sum = None
    for value in contributions:
        expected_term = np.sum(np.ones((6, 1)) * np.array(
            [math.sqrt(value), 0, 0, 0, 0, 0]).reshape(6, 1) ** 2) if value else np.float64(0.0)
        com_sum = expected_term if com_sum is None else com_sum + expected_term
    assert total == alpha * rel_sum + (1.0 - alpha) * com_sum
    report("3 loss identities (bit-equal alpha=1, exact zero, hand-checked gate)")


# --- 4. LSTM cell conformance -----------------------------------------------------


def test_04_lstm_cell_conformance():
    # run_cell is model._wavefront at one layer and T = 1;
    # zero weights: gates sit at 0.5, the candidate at 0
    n, m_dim = 4, 3
    h, c = run_cell(np.ones(m_dim), np.zeros(n), np.zeros(n),
                    np.zeros((4 * n, m_dim + n)), np.zeros(4 * n))
    assert np.all(h == 0.0) and np.all(c == 0.0)
    c_prev = np.array([1.0, -2.0, 0.5, 3.0])
    h, c = run_cell(np.ones(m_dim), np.zeros(n), c_prev,
                    np.zeros((4 * n, m_dim + n)), np.zeros(4 * n))
    np.testing.assert_allclose(c, 0.5 * c_prev, atol=1e-15)
    np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m_dim = int(rng.integers(1, 6))
        x = rng.normal(size=m_dim)
        h0 = rng.normal(size=n)
        c0 = rng.normal(size=n)
        w = rng.normal(size=(4 * n, m_dim + n))
        b = rng.normal(size=4 * n)
        h, c = run_cell(x, h0, c0, w, b)
        h_ref, c_ref = scalar_lstm_reference(x, h0, c0, w, b)
        np.testing.assert_allclose(h, h_ref, atol=1e-12)
        np.testing.assert_allclose(c, c_ref, atol=1e-12)
    report("4 LSTM cell conformance (analytic + 50 seeded scalar-reference cases)")


# --- 6. evaluation-metric fixtures --------------------------------------------------


def test_06_evaluation_fixtures():
    n = 61
    gt = chain_trajectory([[1.0, 0, 0, 0, 0, 0]] * (n - 1))
    est = geo.Trajectory(gt.positions * 0.9, gt.quaternions)
    lengths = (5.0, 10.0, 20.0, 40.0)
    segment = ev.segment_errors(gt, est, lengths)
    assert segment.lengths == lengths
    for err in segment.trans_err_pct:
        assert abs(err - 10.0) <= 0.1

    zero_seg = ev.segment_errors(gt, gt, lengths)
    assert all(v == 0.0 for v in zero_seg.trans_err_pct)
    assert all(v == 0.0 for v in zero_seg.rot_err_deg_per_m)
    zero_rpe = ev.rpe(gt, gt)
    assert zero_rpe.trans_err_pct == 0.0 and zero_rpe.rot_err_deg == 0.0
    zero_ate = ev.ate(gt, gt)
    assert zero_ate.rmse == 0.0

    rng = np.random.default_rng(13)
    rels_gt, rels_est = ([np.concatenate([rng.uniform(0.2, 1.0, 3), rng.uniform(-0.2, 0.2, 3)])
                          for _ in range(30)] for _ in range(2))
    gt_r = chain_trajectory(rels_gt)
    est_r = chain_trajectory(rels_est)
    report_rpe = ev.rpe(gt_r, est_r)
    gt_m, est_m = trajectory_matrices(gt_r), trajectory_matrices(est_r)
    trans_terms, rot_terms = [], []
    for k in range(30):
        g = np.linalg.inv(gt_m[k]) @ gt_m[k + 1]
        e = np.linalg.inv(est_m[k]) @ est_m[k + 1]
        d = np.linalg.inv(g) @ e
        rot_terms.append(math.degrees(
            math.acos(max(-1.0, min(1.0, (np.trace(d[:3, :3]) - 1.0) / 2.0)))))
        trans_terms.append(np.linalg.norm(d[:3, 3]) / np.linalg.norm(g[:3, 3]) * 100.0)
    assert abs(report_rpe.trans_err_pct - np.mean(trans_terms)) < 1e-9
    assert abs(report_rpe.rot_err_deg - np.mean(rot_terms)) < 1e-9
    report("6 evaluation-metric fixtures (10% line, zero reports, rpe brute force)")


# --- 7. determinism ------------------------------------------------------------------


def test_07_training_determinism(tmp_path):
    config = tr.RunConfig(
        n_sequences=3, seq_length=60, preset="walker", feature_dim=6, nuisance_dim=0,
        noise_sigma=0.01, lstm_sizes=(8,), max_epochs_per_stage=3, patience=2,
        subseq_count=3, subseq_min=8, subseq_max=12, val_split=0.34, seed=11,
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    tr.train(replace(config, out_dir=str(out_a)))
    tr.train(replace(config, out_dir=str(out_b)))
    compared = 0
    for name in sorted(p.name for p in out_a.iterdir()):
        a_bytes = (out_a / name).read_bytes()
        b_bytes = (out_b / name).read_bytes()
        assert a_bytes == b_bytes, name
        compared += 1
    assert compared >= 6  # runlog, transitions, 3 stage checkpoints, final
    report(f"7 determinism (byte-identical artifacts, {compared} files)")
