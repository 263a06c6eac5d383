import math

import numpy as np
import pytest

from curvo import geometry as geo
from curvo import synthdata as sd
from oracles import quat_to_euler, reference_generate

IDENTITY_FEATURES = sd.FeatureModel(np.eye(6))  # features equal the relatives


def check_consistency(seq, tol=1e-9):
    rebuilt = geo.accumulate_vectors(seq.relatives)
    assert len(rebuilt) == len(seq.trajectory)
    np.testing.assert_allclose(rebuilt.positions, seq.trajectory.positions, atol=tol)
    np.testing.assert_allclose(rebuilt.quaternions, seq.trajectory.quaternions, atol=tol)


def assert_same_arrays(got, want):
    for a, b in ((got.trajectory.positions, want.trajectory.positions),
                 (got.trajectory.quaternions, want.trajectory.quaternions),
                 (got.relatives, want.relatives), (got.features, want.features)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_generate_equals_per_step_loop(motion, feature_model, length, seeds):
    """Batches of the first 1, 2 and 5 ``seeds``: each sequence's arrays equal the
    per-step reference loop's bit for bit."""
    refs = [reference_generate(motion, feature_model, length, seed) for seed in seeds]
    for size in (1, 2, 5):
        batch = sd.generate(motion, feature_model, length=length, seeds=seeds[:size])
        assert [seq.seed for seq in batch] == list(seeds[:size])
        for seq, ref in zip(batch, refs):
            assert_same_arrays(seq, ref)


class TestGenerateEqualsPerStepLoop:
    @pytest.mark.parametrize("preset", sorted(sd.MOTION_PRESETS))
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_presets(self, preset, seed):
        fm = sd.FeatureModel.seeded(8, seed=1, noise_sigma=0.02, nuisance_dim=2)
        assert_generate_equals_per_step_loop(sd.MOTION_PRESETS[preset](), fm, 200,
                                             list(range(seed, seed + 5)))

    def test_silent_process_without_yaw_sweep(self):
        # roll has no noise, so each step draws three innovations, not four
        motion = sd.MotionModel(roll_rate=sd.OuParams(mean=0.2, reversion=2.0, sigma=0.0),
                                yaw_oscillation_amp=0.0)
        fm = sd.FeatureModel.seeded(7, seed=4, noise_sigma=0.05, nuisance_dim=1)
        assert_generate_equals_per_step_loop(motion, fm, 60, [3, 11, 12, 13, 14])

    def test_correlated_biased_features(self):
        # the feature noise draws follow the motion's on the same generator
        fm = sd.FeatureModel.seeded(8, seed=5, noise_sigma=0.03, nuisance_dim=2,
                                    noise_rho=0.7, bias_sigma=0.1)
        for preset in sd.MOTION_PRESETS.values():
            assert_generate_equals_per_step_loop(preset(), fm, 80, [9, 10, 11, 12, 13])

    def test_batch_equals_one_seed_per_call(self):
        fm = sd.FeatureModel.seeded(8, seed=5, noise_sigma=0.03, nuisance_dim=2,
                                    noise_rho=0.7, bias_sigma=0.1)
        seeds = [4, 4, 17, 0, 2**31 - 1]
        for preset in sd.MOTION_PRESETS.values():
            batch = sd.generate(preset(), fm, length=50, seeds=seeds)
            assert len(batch) == len(seeds)
            for seq, seed in zip(batch, seeds):
                alone = sd.generate(preset(), fm, length=50, seeds=[seed])[0]
                assert seq.seed == alone.seed
                assert_same_arrays(seq, alone)


class TestGenerate:
    def test_identity_encoding_features_equal_relatives(self):
        motion = sd.walker_motion()
        fm = IDENTITY_FEATURES
        seq = sd.generate(motion, fm, length=40, seeds=[3])[0]
        np.testing.assert_array_equal(seq.features, seq.relatives)

    def test_same_seed_bit_identical(self):
        motion = sd.walker_motion()
        fm = sd.FeatureModel.seeded(8, seed=0, noise_sigma=0.05, nuisance_dim=2)
        a = sd.generate(motion, fm, length=30, seeds=[7])[0]
        b = sd.generate(motion, fm, length=30, seeds=[7])[0]
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.relatives, b.relatives)

    def test_different_seeds_differ(self):
        motion = sd.walker_motion()
        fm = IDENTITY_FEATURES
        a = sd.generate(motion, fm, length=30, seeds=[1])[0]
        b = sd.generate(motion, fm, length=30, seeds=[2])[0]
        assert not np.array_equal(a.relatives, b.relatives)

    def test_zero_noise_constant_speed_straight_line(self):
        motion = sd.MotionModel(
            dt=0.1,
            speed=sd.OuParams(mean=2.0, reversion=1.0, sigma=0.0),
            roll_rate=sd.OuParams(sigma=0.0),
            pitch_rate=sd.OuParams(sigma=0.0),
            yaw_rate=sd.OuParams(sigma=0.0),
        )
        seq = sd.generate(motion, IDENTITY_FEATURES, length=10, seeds=[0])[0]
        expected = np.zeros((10, 6))
        expected[:, 0] = 0.2
        np.testing.assert_allclose(seq.relatives, expected, atol=1e-12)
        np.testing.assert_allclose(seq.trajectory.positions[:, 0], 0.2 * np.arange(11), atol=1e-12)

    def test_trajectory_consistency_invariant(self):
        for preset in (sd.vehicle_motion(), sd.walker_motion()):
            fm = sd.FeatureModel.seeded(8, seed=1, noise_sigma=0.02, nuisance_dim=2)
            seq = sd.generate(preset, fm, length=120, seeds=[11])[0]
            check_consistency(seq)

    def test_relatives_are_the_pose_path_bits(self):
        # row k is the one-row relative pose of frames k and k + 1, in scalar Euler angles
        fm = sd.FeatureModel.seeded(8, seed=1, noise_sigma=0.02, nuisance_dim=2)
        for preset in (sd.vehicle_motion(), sd.walker_motion()):
            seq = sd.generate(preset, fm, length=120, seeds=[11])[0]
            t, q = seq.trajectory.positions, seq.trajectory.quaternions
            for k, row in enumerate(seq.relatives):
                rel_t, rel_q = geo._between(t[k : k + 1], q[k : k + 1], t[k + 1 : k + 2],
                                            q[k + 1 : k + 2])
                euler = quat_to_euler(*geo._normalize_quat(rel_q)[0].tolist())
                assert (row == np.concatenate([rel_t[0], euler])).all()

    def test_pitch_stays_clamped(self):
        motion = sd.MotionModel(pitch_rate=sd.OuParams(mean=0.5, reversion=0.1, sigma=0.3))
        seq = sd.generate(motion, IDENTITY_FEATURES, length=300, seeds=[5])[0]
        pitch = geo._quats_to_euler(seq.trajectory.quaternions)[:, 1]
        assert (np.abs(pitch) <= motion.pitch_clamp + 1e-9).all()

    def test_length_validation(self):
        with pytest.raises(ValueError):
            sd.generate(sd.walker_motion(), IDENTITY_FEATURES, length=1, seeds=[0])

    def test_walker_yaw_exceeds_vehicle(self):
        fm = IDENTITY_FEATURES
        walker = sd.generate(sd.walker_motion(), fm, length=200, seeds=[9])[0]
        vehicle = sd.generate(sd.vehicle_motion(), fm, length=200, seeds=[9])[0]
        walker_yaw = np.abs(walker.relatives[:, 5]).mean() / sd.walker_motion().dt
        vehicle_yaw = np.abs(vehicle.relatives[:, 5]).mean() / sd.vehicle_motion().dt
        assert walker_yaw > vehicle_yaw

    def test_zero_noise_least_squares_decode(self):
        fm = sd.FeatureModel.seeded(8, seed=2)
        seq = sd.generate(sd.walker_motion(), fm, length=100, seeds=[13])[0]
        decode, *_ = np.linalg.lstsq(seq.features, seq.relatives, rcond=None)
        residual = np.linalg.norm(seq.features @ decode - seq.relatives)
        assert residual < 1e-9


class TestFeatureModel:
    def test_rank_enforced(self):
        enc = np.zeros((8, 6))
        enc[:5, :5] = np.eye(5)
        with pytest.raises(ValueError):
            sd.FeatureModel(enc)

    def test_needs_at_least_six_rows(self):
        with pytest.raises(ValueError):
            sd.FeatureModel.seeded(4, seed=0)

    def test_feature_dim_counts_nuisance(self):
        fm = sd.FeatureModel.seeded(8, seed=0, nuisance_dim=3)
        assert fm.feature_dim == 11


class TestMotionModel:
    def test_gimbal_margin_enforced(self):
        with pytest.raises(ValueError):
            sd.MotionModel(pitch_clamp=math.pi / 2 - 0.05)
        with pytest.raises(ValueError):
            sd.MotionModel(dt=0.0)


class TestSubsequenceSpans:
    def test_samples_are_contiguous_slices(self):
        spans = sd.subsequence_spans(60, count=10, min_len=5, max_len=20, seed=3)
        assert len(spans) == 10
        for start, length in spans:
            assert 5 <= length <= 20
            assert 0 <= start and start + length <= 60
        assert sd.subsequence_spans(60, count=1, min_len=60, max_len=60, seed=0) == [(0, 60)]

    def test_deterministic(self):
        a = sd.subsequence_spans(60, count=5, min_len=4, max_len=12, seed=9)
        b = sd.subsequence_spans(60, count=5, min_len=4, max_len=12, seed=9)
        assert a == b

    def test_invalid_range(self):
        with pytest.raises(sd.InvalidRangeError):
            sd.subsequence_spans(60, count=1, min_len=5, max_len=61, seed=0)
        with pytest.raises(sd.InvalidRangeError):
            sd.subsequence_spans(60, count=1, min_len=0, max_len=5, seed=0)
        with pytest.raises(sd.InvalidRangeError):
            sd.subsequence_spans(60, count=1, min_len=8, max_len=5, seed=0)


class TestNormalizeFeatures:
    def _dataset(self, noise=0.05):
        fm = sd.FeatureModel.seeded(8, seed=5, noise_sigma=noise, nuisance_dim=1)
        return sd.generate(sd.walker_motion(), fm, length=50, seeds=(1, 2, 3))

    def test_zero_mean_after_normalization(self):
        normalized, stats = sd.normalize_features(self._dataset())
        stacked = np.vstack([seq.features for seq in normalized])
        np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-9)

    def test_already_zero_mean_unchanged(self):
        normalized, _ = sd.normalize_features(self._dataset())
        again, stats2 = sd.normalize_features(normalized)
        np.testing.assert_allclose(stats2.mean, 0.0, atol=1e-12)
        for before, after in zip(normalized, again):
            np.testing.assert_allclose(before.features, after.features, atol=1e-12)

    def test_constant_channel_becomes_zero(self):
        dataset = self._dataset(noise=0.0)
        boosted = []
        for seq in dataset:
            features = seq.features.copy()
            features[:, -1] = 4.2
            boosted.append(
                sd.Sequence(seq.trajectory, seq.relatives, features, seq.seed)
            )
        normalized, _ = sd.normalize_features(boosted)
        for seq in normalized:
            np.testing.assert_allclose(seq.features[:, -1], 0.0, atol=1e-12)

    def test_stats_reapplied_verbatim(self):
        dataset = self._dataset()
        _, stats = sd.normalize_features(dataset[:2])
        held_out = sd.apply_feature_stats(dataset[2], stats)
        np.testing.assert_allclose(held_out.features, dataset[2].features - stats.mean)


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        fm = sd.FeatureModel.seeded(8, seed=6, noise_sigma=0.01, nuisance_dim=1)
        sequences = sd.generate(sd.walker_motion(), fm, length=25, seeds=(4, 5))
        sd.save_dataset(tmp_path / "data", sequences, {"preset": "walker"})
        loaded, meta = sd.load_dataset(tmp_path / "data")
        assert meta["preset"] == "walker"
        assert len(loaded) == 2
        for orig, back in zip(sequences, loaded):
            np.testing.assert_allclose(back.features, orig.features, atol=1e-12)
            np.testing.assert_allclose(back.relatives, orig.relatives, atol=1e-9)
            assert back.seed == orig.seed
            check_consistency(back)

    def test_layout(self, tmp_path):
        fm = IDENTITY_FEATURES
        sequences = sd.generate(sd.walker_motion(), fm, length=10, seeds=(1, 2, 3))
        sd.save_dataset(tmp_path / "d", sequences, {})
        assert sorted(p.name for p in (tmp_path / "d" / "poses").iterdir()) == [
            "00.txt",
            "01.txt",
            "02.txt",
        ]
        assert sorted(p.name for p in (tmp_path / "d" / "features").iterdir()) == [
            "00.csv",
            "01.csv",
            "02.csv",
        ]
        header = (tmp_path / "d" / "features" / "00.csv").read_text().splitlines()[0]
        assert header.startswith("feat_0,")

    def test_save_is_idempotent(self, tmp_path):
        fm = IDENTITY_FEATURES
        sequences = sd.generate(sd.walker_motion(), fm, length=10, seeds=[1])
        sd.save_dataset(tmp_path / "a", sequences, {"k": "v"})
        sd.save_dataset(tmp_path / "b", sequences, {"k": "v"})
        for rel in ("poses/00.txt", "features/00.csv", "meta.txt"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
