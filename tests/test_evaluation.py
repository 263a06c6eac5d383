import math

import numpy as np
import pytest

from curvo import evaluation as ev
from curvo import geometry as geo
from oracles import chain_trajectory, quat_wxyz_to_matrix, trajectory_matrices


def straight_line(n, step=1.0):
    return chain_trajectory([[step, 0, 0, 0, 0, 0]] * (n - 1))


def scaled(traj, factor):
    return geo.Trajectory(traj.positions * factor, traj.quaternions)


def random_trajectory(rng, n, angle=0.2, step=0.5):
    rels = []
    for _ in range(n - 1):
        t = rng.uniform(0.1, step, size=3) * np.array([1.0, 0.3, 0.1])
        rels.append(np.concatenate([t, rng.uniform(-angle, angle, size=3)]))
    return chain_trajectory(rels)


def trajectory_with_stops(rng, n, angle=0.3):
    """Random motion where every fourth step only rotates, repeating a position."""
    rels = []
    for k in range(n - 1):
        t = rng.uniform(0.1, 0.5, size=3) * np.array([1.0, 0.3, 0.1]) if k % 4 else np.zeros(3)
        rels.append(np.concatenate([t, rng.uniform(-angle, angle, size=3)]))
    return chain_trajectory(rels)


def mismatch_matrix(gt, est, start, end):
    """The 4x4 matrices of the gt relative and of its mismatch with est's, from the lists
    of 4x4 pose matrices ``gt`` and ``est``."""
    g = np.linalg.inv(gt[start]) @ gt[end]
    e = np.linalg.inv(est[start]) @ est[end]
    return g, np.linalg.inv(g) @ e


def angle_deg(m):
    return math.degrees(math.acos(max(-1.0, min(1.0, (np.trace(m[:3, :3]) - 1.0) / 2.0))))


def brute_force_segments(gt, est, lengths):
    """Segment errors by linear search over the path and 4x4 matrix products."""
    gt, est = trajectory_matrices(gt), trajectory_matrices(est)
    positions = [m[:3, 3] for m in gt]
    distances = [0.0]
    for a, b in zip(positions, positions[1:]):
        distances.append(distances[-1] + float(np.linalg.norm(b - a)))
    rows = []
    for length in lengths:
        trans, rot = [], []
        for start in range(len(gt)):
            ends = [j for j in range(start + 1, len(gt))
                    if distances[j] >= distances[start] + length]
            if not ends:
                break
            _, d = mismatch_matrix(gt, est, start, ends[0])
            trans.append(np.linalg.norm(d[:3, 3]) / length * 100.0)
            rot.append(angle_deg(d) / length)
        if trans:
            rows.append((float(length), np.mean(trans), np.mean(rot), len(trans)))
    return rows


def transform_trajectory(traj, rigid):
    """rigid @ pose for every pose of traj, with ``rigid`` a (t, r) 6-vector."""
    moved = chain_trajectory([rigid])
    positions = moved.positions[1] + traj.positions @ quat_wxyz_to_matrix(moved.quaternions[1]).T
    return geo.Trajectory(positions, np.array(geo._qmul(moved.quaternions[1], traj.quaternions.T)).T)


class TestSegmentErrors:
    def test_equal_trajectories_zero(self):
        traj = straight_line(50)
        report = ev.segment_errors(traj, traj, [5, 10, 20])
        assert report.lengths == (5.0, 10.0, 20.0)
        np.testing.assert_allclose(report.trans_err_pct, 0.0, atol=1e-9)
        np.testing.assert_allclose(report.rot_err_deg_per_m, 0.0, atol=1e-9)

    def test_scaled_straight_line_ten_percent(self):
        gt = straight_line(60)
        est = scaled(gt, 0.9)
        report = ev.segment_errors(gt, est, [5, 10, 20, 40])
        assert report.lengths == (5.0, 10.0, 20.0, 40.0)
        for err in report.trans_err_pct:
            assert abs(err - 10.0) < 0.1

    def test_constant_yaw_rate_bias(self):
        # ground truth drives straight; the estimate turns at b deg per meter
        bias_deg_per_m = 0.5
        n, step = 80, 1.0
        gt = straight_line(n, step)
        yaw_step = math.radians(bias_deg_per_m) * step
        est = chain_trajectory([[step, 0, 0, 0, 0, yaw_step]] * (n - 1))
        report = ev.segment_errors(gt, est, [5, 10, 20])
        for err in report.rot_err_deg_per_m:
            assert abs(err - bias_deg_per_m) < 0.02

    def test_self_comparison_is_exactly_zero(self):
        traj = random_trajectory(np.random.default_rng(0), 300, angle=0.3)
        report = ev.segment_errors(traj, traj, [5, 10, 20, 40])
        assert report.trans_err_pct == report.rot_err_deg_per_m == (0.0,) * 4
        rpe_report = ev.rpe(traj, traj)
        assert rpe_report.trans_err_pct == rpe_report.rot_err_deg == 0.0

    def test_unreachable_lengths_dropped(self):
        gt = straight_line(12)  # 11 meters of path
        report = ev.segment_errors(gt, gt, [5, 500])
        assert report.lengths == (5.0,)

    @pytest.mark.parametrize("make, longest_spans", [(random_trajectory, 1),
                                                     (trajectory_with_stops, 2)])
    def test_equals_single_length_calls_bit_for_bit(self, make, longest_spans):
        for seed in range(10):  # a lone span's error can round apart from a batched one
            rng = np.random.default_rng(seed)
            gt = make(rng, 80, angle=0.3)
            est = make(rng, 80, angle=0.3)
            path = np.cumsum(np.linalg.norm(np.diff(gt.positions, axis=0), axis=1))
            # reached only from the frames before the first move
            longest = float(path[-1] - path[path > 0][0] / 2)
            lengths = [0.5, 2.0, 1000.0, 5.0, 10.0, longest]  # 1000 m is past the path
            report = ev.segment_errors(gt, est, lengths)
            singles = [ev.segment_errors(gt, est, [length]) for length in lengths[:2] + lengths[3:]]
            assert report.lengths == (0.5, 2.0, 5.0, 10.0, longest)
            assert report.segment_counts[-1] == longest_spans
            for field in ("lengths", "trans_err_pct", "rot_err_deg_per_m", "segment_counts"):
                assert getattr(report, field) == tuple(getattr(s, field)[0] for s in singles), field

    def test_all_unreachable_raises(self):
        gt = straight_line(5)
        with pytest.raises(ev.SegmentTooLongError):
            ev.segment_errors(gt, gt, [100.0])

    def test_invariant_to_common_rigid_transform(self):
        rng = np.random.default_rng(2)
        gt = random_trajectory(rng, 40)
        est = random_trajectory(rng, 40)
        rigid = [5.0, -2.0, 1.0, 0.2, 0.1, -0.4]
        base = ev.segment_errors(gt, est, [2, 5])
        moved = ev.segment_errors(
            transform_trajectory(gt, rigid), transform_trajectory(est, rigid), [2, 5]
        )
        np.testing.assert_allclose(base.trans_err_pct, moved.trans_err_pct, atol=1e-9)
        np.testing.assert_allclose(base.rot_err_deg_per_m, moved.rot_err_deg_per_m, atol=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ev.segment_errors(straight_line(5), straight_line(6), [1])

    @pytest.mark.parametrize("make", [random_trajectory, trajectory_with_stops])
    def test_matches_brute_force_recomputation(self, make):
        rng = np.random.default_rng(9)
        gt = make(rng, 60, angle=0.3)
        est = make(rng, 60, angle=0.3)
        lengths = [0.5, 1.0, 2.0, 5.0, 10.0, 1000.0]
        report = ev.segment_errors(gt, est, lengths)
        want = brute_force_segments(gt, est, lengths)
        assert report.lengths == tuple(row[0] for row in want)
        assert report.lengths[-1] < 1000.0
        assert report.segment_counts == tuple(row[3] for row in want)
        np.testing.assert_allclose(report.trans_err_pct, [row[1] for row in want], atol=1e-9)
        np.testing.assert_allclose(report.rot_err_deg_per_m, [row[2] for row in want], atol=1e-9)
        # a length below the float spacing of the path still spans one step or more
        tiny = ev.segment_errors(gt, est, [1e-300])
        assert tiny.segment_counts == (brute_force_segments(gt, est, [1e-300])[0][3],)


class TestRpe:
    def test_equal_trajectories_zero(self):
        rng = np.random.default_rng(3)
        traj = random_trajectory(rng, 30)
        report = ev.rpe(traj, traj)
        assert report.trans_err_pct < 1e-9
        assert report.rot_err_deg < 1e-9
        assert report.skipped_frames == 0

    def test_doubled_translation_is_hundred_percent(self):
        rng = np.random.default_rng(4)
        rels = []
        for _ in range(20):
            t = rng.uniform(0.2, 1.0, size=3)
            r = rng.uniform(-0.2, 0.2, size=3)
            rels.append(np.concatenate([t, r]))
        gt = chain_trajectory(rels)
        est = chain_trajectory([np.concatenate([rel[:3] * 2.0, rel[3:]]) for rel in rels])
        report = ev.rpe(gt, est)
        assert abs(report.trans_err_pct - 100.0) < 1e-9
        assert report.rot_err_deg < 1e-9

    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(5)
        gt = random_trajectory(rng, 25)
        est = random_trajectory(rng, 25)
        report = ev.rpe(gt, est)
        gt, est = trajectory_matrices(gt), trajectory_matrices(est)

        # brute force via homogeneous matrices
        trans_terms, rot_terms = [], []
        for k in range(24):
            g, d = mismatch_matrix(gt, est, k, k + 1)
            angle = math.degrees(
                math.acos(max(-1.0, min(1.0, (np.trace(d[:3, :3]) - 1.0) / 2.0)))
            )
            rot_terms.append(angle)
            denom = np.linalg.norm(g[:3, 3])
            trans_terms.append(np.linalg.norm(d[:3, 3]) / denom * 100.0)
        assert abs(report.trans_err_pct - np.mean(trans_terms)) < 1e-9
        assert abs(report.rot_err_deg - np.mean(rot_terms)) < 1e-9

    def test_matches_brute_force_with_repeated_positions(self):
        rng = np.random.default_rng(10)
        gt = trajectory_with_stops(rng, 60)
        est = random_trajectory(rng, 60, angle=0.3)
        report = ev.rpe(gt, est)
        gt, est = trajectory_matrices(gt), trajectory_matrices(est)
        trans_terms, rot_terms, skipped = [], [], 0
        for k in range(59):
            g, d = mismatch_matrix(gt, est, k, k + 1)
            rot_terms.append(angle_deg(d))
            if np.linalg.norm(g[:3, 3]) <= ev.DEGENERATE_MOTION:
                skipped += 1
                continue
            trans_terms.append(np.linalg.norm(d[:3, 3]) / np.linalg.norm(g[:3, 3]) * 100.0)
        assert report.skipped_frames == skipped == 15
        assert report.frames == 59
        assert abs(report.trans_err_pct - np.mean(trans_terms)) < 1e-9
        assert abs(report.rot_err_deg - np.mean(rot_terms)) < 1e-9

    @pytest.mark.parametrize("angle", [1e-7, 1e-8])
    def test_small_rotation_error_is_exact(self, angle):
        # est turns by `angle` about z at every frame; gt does not turn
        gt = straight_line(11)
        half = np.arange(11) * angle / 2
        turning = np.stack([np.cos(half), 0 * half, 0 * half, np.sin(half)], axis=1)
        report = ev.rpe(gt, geo.Trajectory(gt.positions, turning))
        assert report.rot_err_deg == pytest.approx(math.degrees(angle), rel=1e-9)

    def test_degenerate_frames_skipped_and_counted(self):
        gt = geo.Trajectory([[0, 0, 0], [0, 0, 0], [1, 0, 0]], [[1, 0, 0, 0]] * 3)
        report = ev.rpe(gt, gt)
        assert report.skipped_frames == 1
        assert report.frames == 2

    def test_invariant_to_global_transform_of_each(self):
        rng = np.random.default_rng(6)
        gt = random_trajectory(rng, 20)
        est = random_trajectory(rng, 20)
        base = ev.rpe(gt, est)
        rigid_a = [1, 2, 3, 0.3, -0.2, 0.5]
        rigid_b = [-4, 0, 2, 0.1, 0.2, -0.3]
        moved = ev.rpe(transform_trajectory(gt, rigid_a), transform_trajectory(est, rigid_b))
        assert abs(base.trans_err_pct - moved.trans_err_pct) < 1e-9
        assert abs(base.rot_err_deg - moved.rot_err_deg) < 1e-9


class TestAte:
    def test_equal_trajectories(self):
        rng = np.random.default_rng(7)
        traj = random_trajectory(rng, 15)
        report = ev.ate(traj, traj)
        assert report.rmse == 0.0
        assert report.cdf_fractions[-1] == 1.0
        np.testing.assert_allclose(report.cdf_values, 0.0)

    def test_uniform_offset(self):
        gt = straight_line(10)
        est = geo.Trajectory(gt.positions + [1.0, 0, 0], gt.quaternions)
        report = ev.ate(gt, est)
        np.testing.assert_allclose(report.errors, 1.0, atol=1e-12)
        assert abs(report.rmse - 1.0) < 1e-12
        # entire CDF mass jumps at error 1.0
        np.testing.assert_allclose(report.cdf_values, 1.0, atol=1e-12)

    def test_linear_drift_cdf_is_uniform_ramp(self):
        n = 101
        gt = straight_line(n)
        drift = np.linspace(0.0, 1.0, n)
        est = geo.Trajectory(gt.positions + np.outer(drift, [0.0, 1.0, 0.0]), gt.quaternions)
        report = ev.ate(gt, est)
        # error at frame k is k/(n-1): the CDF at value v is v (uniform)
        np.testing.assert_allclose(report.cdf_values, np.sort(drift), atol=1e-12)
        np.testing.assert_allclose(
            report.cdf_fractions, np.arange(1, n + 1) / n, atol=1e-12
        )
        assert np.all(np.diff(report.cdf_fractions) > 0)

    def test_cdf_monotone_reaches_one(self):
        rng = np.random.default_rng(8)
        gt = random_trajectory(rng, 30)
        est = random_trajectory(rng, 30)
        report = ev.ate(gt, est)
        assert np.all(np.diff(report.cdf_values) >= 0)
        assert report.cdf_fractions[-1] == 1.0


class TestCsvWriters:
    def test_headers_and_determinism(self, tmp_path):
        gt = straight_line(30)
        est = scaled(gt, 0.9)
        seg = ev.segment_errors(gt, est, [5, 10])
        ev.write_segment_csv(seg, tmp_path / "seg.csv")
        text = (tmp_path / "seg.csv").read_text().splitlines()
        assert text[0] == "length_m,translation_error_pct,rotation_error_deg_per_m,segments"
        assert len(text) == 3

        report = ev.rpe(gt, est)
        ev.write_rpe_csv(report, tmp_path / "rpe.csv")
        assert (tmp_path / "rpe.csv").read_text().startswith("translation_error_pct,")

        ate_report = ev.ate(gt, est)
        ev.write_ate_csv(ate_report, tmp_path / "ate.csv", tmp_path / "cdf.csv")
        assert (tmp_path / "ate.csv").read_text().splitlines()[0] == "frame,position_error_m"
        assert (tmp_path / "cdf.csv").read_text().splitlines()[0] == "error_m,fraction"

        ev.write_segment_csv(seg, tmp_path / "seg2.csv")
        assert (tmp_path / "seg.csv").read_bytes() == (tmp_path / "seg2.csv").read_bytes()
