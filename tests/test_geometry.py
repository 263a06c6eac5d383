import math

import numpy as np
import pytest

from curvo import geometry as geo
from oracles import (accumulate_scan, chain_trajectory, euler_matrix, euler_quat, pose_matrix,
                     quat_to_euler, random_pose_matrix, trajectory_matrices, vector_matrix)

IDENTITY = (np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))
IDENTITY_LINE = "1 0 0 0 0 1 0 0 0 0 1 0"  # a pose file's line for the identity


def random_pose(rng, **kwargs):
    """A random pose as a (t, q) row, from the oracle's random 4x4 matrix."""
    m = random_pose_matrix(rng, **kwargs)
    return m[:3, 3], geo.matrix_to_quat(m[:3, :3])


def euler_pose(t, r):
    return np.asarray(t, dtype=float), geo._euler_quats(r)[0]


def compose(*poses):
    """T_0 @ T_1 @ ... of (t, q) rows: the last pose of the scan from the identity."""
    traj = geo._accumulate(np.array([t for t, _ in poses]), np.array([q for _, q in poses]))
    return traj.positions[-1], traj.quaternions[-1]


def between(a, b):
    """inv(T_a) @ T_b of two (t, q) rows, through the one-row case of the kernel."""
    t, q = geo._between(a[0][None], a[1][None], b[0][None], b[1][None])
    return t[0], q[0]


def euler_angles(q):
    return geo._quats_to_euler(geo._normalize_quat(q))[0]


def assert_pose_close(p, m, tol=1e-9):
    np.testing.assert_allclose(pose_matrix(*p), m, atol=tol)


def assert_pose_valid(p):
    assert abs(np.linalg.norm(p[1]) - 1.0) < 1e-9
    assert p[1][0] >= 0.0


class TestCompose:
    # composition is the trajectory scan's step: its last pose through a, b is T_a @ T_b

    def test_identity_left_and_right(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_pose(rng)
            assert_pose_close(compose(IDENTITY, p), pose_matrix(*p))
            assert_pose_close(compose(p, IDENTITY), pose_matrix(*p))

    def test_pure_translation_adds(self):
        a = euler_pose([1.0, 0, 0], [0, 0, 0])
        b = euler_pose([2.0, 0, 0], [0, 0, 0])
        t, q = compose(a, b)
        np.testing.assert_allclose(t, [3, 0, 0], atol=1e-12)
        np.testing.assert_allclose(q, [1, 0, 0, 0], atol=1e-12)

    def test_yaw_then_step(self):
        yaw90 = euler_pose([0, 0, 0], [0, 0, math.pi / 2])
        step = euler_pose([1.0, 0, 0], [0, 0, 0])
        t, q = compose(yaw90, step)
        np.testing.assert_allclose(t, [0, 1, 0], atol=1e-12)
        half = math.sqrt(0.5)
        np.testing.assert_allclose(q, [half, 0, 0, half], atol=1e-12)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            out = compose(a, b)
            assert_pose_valid(out)
            assert_pose_close(out, pose_matrix(*a) @ pose_matrix(*b))

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            np.testing.assert_allclose(pose_matrix(*left), pose_matrix(*right), atol=1e-9)


class TestInverse:
    # the inverse of p is the kernel's relative pose from p to the identity

    def test_identity(self):
        assert_pose_close(between(IDENTITY, IDENTITY), np.eye(4))

    def test_pure_translation(self):
        p = euler_pose([1.0, 2.0, 3.0], [0, 0, 0])
        np.testing.assert_allclose(between(p, IDENTITY)[0], [-1, -2, -3], atol=1e-12)

    def test_yaw_with_offset(self):
        p = euler_pose([1, 0, 0], [0, 0, math.pi / 2])
        inv = between(p, IDENTITY)
        assert_pose_close(inv, np.linalg.inv(pose_matrix(*p)))
        np.testing.assert_allclose(euler_angles(inv[1]), [0, 0, -math.pi / 2], atol=1e-12)
        np.testing.assert_allclose(inv[0], [0, 1, 0], atol=1e-12)

    def test_inverse_law(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_pose(rng)
            assert_pose_close(compose(p, between(p, IDENTITY)), np.eye(4))


class TestRelativeBetween:
    def test_self_is_identity(self):
        rng = np.random.default_rng(4)
        p = random_pose(rng)
        assert_pose_close(between(p, p), np.eye(4))

    def test_from_identity(self):
        rng = np.random.default_rng(5)
        p = random_pose(rng)
        assert_pose_close(between(IDENTITY, p), pose_matrix(*p))

    def test_worked_example(self):
        a = euler_pose([1.0, 0, 0], [0, 0, 0])
        b = euler_pose([1, 1, 0], [0, 0, math.pi / 2])
        rel = between(a, b)
        assert_pose_close(rel, np.linalg.inv(pose_matrix(*a)) @ pose_matrix(*b))
        np.testing.assert_allclose(rel[0], [0, 1, 0], atol=1e-12)

    def test_compose_recovers(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            assert_pose_close(compose(a, between(a, b)), pose_matrix(*b))

    def test_kernel_rows_keep_their_bits(self):
        rng = np.random.default_rng(7)
        a = [random_pose(rng, trans_scale=50.0) for _ in range(50)]
        b = [random_pose(rng, trans_scale=50.0) for _ in range(50)]
        arrays = [np.array([pose[part] for pose in poses]) for poses in (a, b) for part in (0, 1)]
        batch_t, batch_q = geo._between(*arrays)
        for k in range(50):
            t, q = geo._between(*(x[k : k + 1] for x in arrays))
            assert (t[0] == batch_t[k]).all() and (q[0] == batch_q[k]).all(), k


class TestEulerConversions:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(geo._euler_quats([0, 0, 0])[0], [1, 0, 0, 0], atol=1e-15)

    def test_yaw_quaternion(self):
        np.testing.assert_allclose(geo._euler_quats([0, 0, math.pi / 2])[0],
                                   [math.sqrt(2) / 2, 0, 0, math.sqrt(2) / 2], atol=1e-12)

    def test_matches_rotation_matrix_oracle(self):
        q = geo._euler_quats([0.1, 0.2, 0.3])[0]
        np.testing.assert_allclose(geo.quat_to_matrix(q), euler_matrix(0.1, 0.2, 0.3), atol=1e-12)

    def test_identity_euler(self):
        np.testing.assert_allclose(euler_angles(IDENTITY[1]), 0.0, atol=1e-15)

    def test_yaw_euler(self):
        r = euler_angles(geo._euler_quats([0, 0, math.pi / 2]))
        np.testing.assert_allclose(r, [0, 0, math.pi / 2], atol=1e-12)

    def test_round_trip(self):
        # a (t, r) row integrated into a trajectory comes back as its one step vector
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = rng.uniform(-3, 3, size=3)
            r = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, size=3)
            traj = geo.accumulate_vectors(np.concatenate([t, r]))
            row = geo._step_vectors(traj.positions, traj.quaternions)[0]
            np.testing.assert_allclose(row[:3], t, atol=1e-9)
            np.testing.assert_allclose(row[3:], r, atol=1e-9)

    def test_gimbal_lock_raises(self):
        with pytest.raises(geo.GimbalLockError):
            euler_angles(geo._euler_quats([0.3, math.pi / 2, 0.2]))
        with pytest.raises(geo.GimbalLockError):
            euler_angles(geo._euler_quats([0, -math.pi / 2 + 5e-7, 0]))


class TestRowKernels:
    """The Euler/quaternion row-kernel pair and the trajectory scan, bit for bit against
    the one-row-at-a-time references in ``oracles``."""

    @staticmethod
    def guard_pitches():
        """Pitches on both sides of the gimbal guard, at both poles."""
        near = np.linspace(0.5 * geo._GIMBAL_GUARD, 2.0 * geo._GIMBAL_GUARD, 41)
        return np.concatenate([math.pi / 2 - near, near - math.pi / 2])

    def test_euler_quats_equal_scalar_reference(self):
        rng = np.random.default_rng(31)
        angles = -rng.uniform(-math.pi, math.pi, size=(100_000, 3))  # (-pi, pi]
        angles[:82, 1] = self.guard_pitches()
        angles[82:86] = [[math.pi] * 3, [0.0] * 3, [-0.0] * 3, [math.pi, -math.pi / 2, 1e-300]]
        expected = np.array([euler_quat(*row) for row in angles.tolist()])
        assert geo._euler_quats(angles).tobytes() == expected.tobytes()

    def test_quats_to_euler_equal_scalar_reference(self):
        rng = np.random.default_rng(32)
        quats = geo._normalize_quat(rng.normal(size=(100_000, 4)))
        at_guard = np.zeros((82, 3))
        at_guard[:, 1] = self.guard_pitches()
        at_guard[:, 2] = rng.uniform(-math.pi, math.pi, size=82)
        quats = np.vstack([quats, geo._normalize_quat(geo._euler_quats(at_guard))])
        passing, locked = [], 0
        for row in quats.tolist():
            try:
                passing.append((row, quat_to_euler(*row)))
            except geo.GimbalLockError as exc:
                locked += 1
                with pytest.raises(geo.GimbalLockError) as raised:
                    geo._quats_to_euler(np.array([row]))
                assert str(raised.value) == str(exc)
        assert 0 < locked < 82 and len(passing) > 100_000 - 82
        rows = np.array([row for row, _ in passing])
        expected = np.array([euler for _, euler in passing])
        assert geo._quats_to_euler(rows).tobytes() == expected.tobytes()

    def test_gimbal_error_names_the_first_offending_row(self):
        angles = [[0.1, 0.2, 0.3], [0.3, math.pi / 2, 0.2], [0.0, 0.1, 0.0],
                  [0.2, -math.pi / 2 + 5e-7, 0.1]]
        quats = geo._euler_quats(angles)
        with pytest.raises(geo.GimbalLockError) as raised:
            geo._quats_to_euler(quats)
        with pytest.raises(geo.GimbalLockError) as first:
            quat_to_euler(*quats[1])
        assert str(raised.value) == str(first.value)
        assert str(raised.value) == f"pitch {math.pi / 2:.9f} is within 1e-06 of +-pi/2"

    def test_rotate_rows_keep_their_bits_and_match_the_matrix(self):
        # generation and segment_errors rotate whole batches and rely on each row's
        # bits not depending on its company
        rng = np.random.default_rng(33)
        q = geo._normalize_quat(rng.normal(size=(500, 4)))
        v = rng.normal(size=(500, 3)) * np.exp(3.0 * rng.normal(size=(500, 1)))
        rows = geo._rotate(q, v)
        assert rows.shape == (500, 3)
        for k in range(500):
            assert geo._rotate(q[k : k + 1], v[k : k + 1]).tobytes() == rows[k].tobytes()
            error = np.abs(rows[k] - geo.quat_to_matrix(q[k]) @ v[k]).max()
            assert error <= 1e-14 * np.linalg.norm(v[k])

    @pytest.mark.parametrize("steps", [1, 2, 200])
    def test_accumulate_vectors_equals_per_step_scan(self, steps):
        rng = np.random.default_rng(steps)
        rows = np.hstack([rng.uniform(-2.0, 2.0, size=(steps, 3)),
                          rng.uniform(-math.pi, math.pi, size=(steps, 3))])
        positions, quaternions = accumulate_scan(rows)
        traj = geo.accumulate_vectors(rows)
        assert traj.positions.tobytes() == positions.tobytes()
        assert traj.quaternions.tobytes() == quaternions.tobytes()


class TestAccumulate:
    def test_empty(self):
        traj = geo.accumulate_vectors(np.zeros((0, 6)))
        assert len(traj) == 1
        assert_pose_close((traj.positions[0], traj.quaternions[0]), np.eye(4))

    def test_straight_line(self):
        traj = geo.accumulate_vectors([[1.0, 0, 0, 0, 0, 0]] * 5)
        np.testing.assert_allclose(traj.positions[:, 0], np.arange(6), atol=1e-12)

    def test_unit_square_closes(self):
        corner = [1.0, 0, 0, 0, 0, math.pi / 2]
        traj = geo.accumulate_vectors([corner] * 4)
        np.testing.assert_allclose(traj.positions[-1], 0.0, atol=1e-12)
        m = np.eye(4)
        for _ in range(4):
            m = m @ vector_matrix(corner)
        assert_pose_close((traj.positions[-1], traj.quaternions[-1]), m)

    def test_relatives_recovered(self):
        rng = np.random.default_rng(8)
        rels = [random_pose(rng, angle_scale=0.4, trans_scale=0.5) for _ in range(15)]
        traj = geo._accumulate(np.array([t for t, _ in rels]), np.array([q for _, q in rels]))
        t, q = traj.positions, traj.quaternions
        rec_t, rec_q = geo._between(t[:-1], q[:-1], t[1:], q[1:])
        for k, rel in enumerate(rels):
            np.testing.assert_allclose(pose_matrix(rec_t[k], rec_q[k]), pose_matrix(*rel),
                                       atol=1e-9)


class TestTrajectoryValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geo.Trajectory(np.zeros((0, 3)), np.zeros((0, 4)))

    def test_rows_hold_the_bits_of_pose(self):
        # each row holds the bits of its own pose normalized alone
        rng = np.random.default_rng(13)
        positions = rng.normal(size=(1000, 3))
        quaternions = rng.normal(size=(1000, 4)) * rng.uniform(0.1, 10.0, size=(1000, 1))
        assert (quaternions[:, 0] < 0).sum() > 100
        traj = geo.Trajectory(positions, quaternions)
        assert (traj.positions == positions).all()
        for k in range(1000):
            assert (traj.quaternions[k] == geo._normalize_quat(quaternions[k])[0]).all()

    def test_arrays_are_read_only(self):
        traj = geo.Trajectory([[1.0, 2.0, 3.0]], [[2.0, 0.0, 0.0, 0.0]])
        for array in (traj.positions, traj.quaternions):
            with pytest.raises(ValueError):
                array[0] = 5.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            geo.Trajectory(np.zeros((3, 3)), [[1.0, 0.0, 0.0, 0.0]] * 2)

    def test_zero_norm_row_rejected(self):
        with pytest.raises(ValueError):
            geo.Trajectory(np.zeros((2, 3)), [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])

    def test_non_finite_quaternion_rejected(self):
        with pytest.raises(ValueError):
            geo.Trajectory(np.zeros((1, 3)), [[math.nan, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            geo.Trajectory(np.zeros((2, 3)), [[1.0, 0.0, 0.0, 0.0], [math.inf, 0.0, 0.0, 0.0]])


class TestKittiIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        rows = np.hstack([rng.uniform(-2, 2, (10, 3)), rng.uniform(-0.3, 0.3, (10, 3))])
        traj = chain_trajectory(rows)
        path = tmp_path / "poses.txt"
        geo.save_trajectory_kitti(traj, path)
        back = geo.load_trajectory_kitti(path)
        assert len(back) == len(traj)
        for a, b in zip(trajectory_matrices(traj), trajectory_matrices(back)):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_write_is_deterministic(self, tmp_path):
        traj = chain_trajectory([[0.1, 0.2, 0.3, 0.0, 0.0, 0.0]] * 3)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        geo.save_trajectory_kitti(traj, p1)
        geo.save_trajectory_kitti(traj, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(IDENTITY_LINE + "\n" + "1 2 3\n")
        with pytest.raises(geo.KittiParseError) as err:
            geo.load_trajectory_kitti(path)
        assert err.value.line_number == 2

    def test_non_finite_value_reports_line(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text(IDENTITY_LINE + "\n" + IDENTITY_LINE.replace("1", "nan", 1) + "\n")
        with pytest.raises(geo.KittiParseError) as err:
            geo.load_trajectory_kitti(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("block", [2.0 * np.eye(3), np.ones((3, 3)), np.diag([1.0, 1.0, -1.0])],
                             ids=["scaled", "rank-one", "reflection"])
    def test_block_that_is_not_a_rotation_reports_line(self, tmp_path, block):
        path = tmp_path / "block.txt"
        bad = " ".join(map(repr, np.hstack([block, np.ones((3, 1))]).ravel().tolist()))
        path.write_text(f"{IDENTITY_LINE}\n\n{IDENTITY_LINE}\n{bad}\n{IDENTITY_LINE}\n")
        with pytest.raises(geo.KittiParseError, match="not a rotation") as err:
            geo.load_trajectory_kitti(path)
        assert err.value.line_number == 4

    def test_seven_significant_digits_load(self, tmp_path):
        # KITTI's ground-truth files print each entry with %e
        rotation = euler_matrix(0.3, -1.2, 2.5)
        line = " ".join("%e" % v for v in np.hstack([rotation, [[1.5], [-2.0], [0.25]]]).ravel())
        path = tmp_path / "kitti.txt"
        path.write_text(f"{IDENTITY_LINE}\n{line}\n")
        traj = geo.load_trajectory_kitti(path)
        np.testing.assert_allclose(geo.quat_to_matrix(traj.quaternions[1]), rotation, atol=1e-6)
        np.testing.assert_allclose(traj.positions[1], [1.5, -2.0, 0.25])
