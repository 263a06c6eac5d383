import math
import re
from dataclasses import replace

import numpy as np
import pytest

from curvo import autodiff as ad
from curvo import curriculum as cur
from curvo import evaluation as ev
from curvo import geometry as geo
from curvo import loss as ls
from curvo import model as md
from curvo import synthdata as sd
from curvo import trainer as tr


def tiny_config(**overrides):
    defaults = dict(
        n_sequences=3,
        seq_length=60,
        preset="walker",
        feature_dim=6,
        nuisance_dim=0,
        noise_sigma=0.0,
        lstm_sizes=(8,),
        max_epochs_per_stage=3,
        patience=2,
        subseq_count=3,
        subseq_min=8,
        subseq_max=12,
        val_split=0.34,
        seed=0,
    )
    defaults.update(overrides)
    return tr.RunConfig(**defaults)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(val_split=0.0)
        with pytest.raises(ValueError):
            tiny_config(preset="flying")

    def test_schedule_modes(self):
        # the ablation's named schedules are alpha tuples (fixed-bounded also sets the window)
        def stages(mode):
            return tuple((w.alpha, w.window)
                         for w in tr._mode_config(tiny_config(window=3), mode).schedule().stages)

        assert stages("curriculum") == ((1.0, 3), (0.5, 3), (0.1, 3))
        assert stages("anti-curriculum") == ((0.1, 3), (0.5, 3), (1.0, 3))
        assert stages("fixed-relative") == ((1.0, 3),) * 3
        assert stages("fixed-bounded") == ((0.5, 2),) * 3
        with pytest.raises(ValueError):
            tr._mode_config(tiny_config(), "fixed")

    def test_layer_sizes_must_be_whole_numbers(self):
        for make in (tiny_config, lambda **kw: md.RegressorConfig(input_dim=3, **kw)):
            with pytest.raises(ValueError, match="whole-number"):
                make(lstm_sizes=(2.7, 3.9))
            sizes = make(lstm_sizes=(np.int64(4),)).lstm_sizes
            assert sizes == (4,) and type(sizes[0]) is int

    @pytest.mark.parametrize(
        "overrides",
        [dict(alphas=(1.0, 1.5)), dict(window=0), dict(alphas=()), dict(max_epochs_per_stage=0)],
        ids=["alpha-range", "window", "no-stages", "stage-epochs"],
    )
    def test_schedule_checked_at_construction(self, overrides):
        with pytest.raises(ValueError):
            tiny_config(**overrides)

    def test_stage_params_applied(self):
        schedule = tiny_config(max_epochs_per_stage=7, patience=4, min_delta=0.01).schedule()
        assert len(schedule.stages) == 3
        assert schedule.max_epochs == 7
        assert schedule.patience == 4
        assert schedule.min_delta == 0.01


class TestPrepareData:
    def test_split_and_normalization(self):
        data = tr.prepare_data(tiny_config())
        assert len(data.train) == 2
        assert len(data.val) == 1
        stacked = np.vstack([s.features for s in data.train])
        np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-9)
        assert data.input_dim == 6

    def test_validation_needs_two_sequences(self):
        with pytest.raises(ValueError):
            tr.prepare_data(tiny_config(), sequences=tr.synthesize(tiny_config().data_spec(), 1))

    def test_injected_sequences_used(self):
        cfg = tiny_config()
        sequences = tr.synthesize(cfg.data_spec(), cfg.n_sequences)
        data = tr.prepare_data(cfg, sequences=sequences)
        assert len(data.train) + len(data.val) == len(sequences)

    def test_no_sequences_build_no_feature_model(self, monkeypatch):
        # the data spec checks its settings without a model, too
        monkeypatch.setattr(sd.FeatureModel, "seeded", None)
        assert tr.synthesize(tiny_config().data_spec(), 0) == []

    def test_short_training_sequence_named_before_any_step(self, tmp_path, monkeypatch):
        # a loaded dataset may mix lengths; the spans of a sequence shorter than
        # subseq_max cannot be drawn, so training stops before its first Adam step
        long, short = (tr.synthesize(tiny_config(seq_length=n, subseq_min=5, subseq_max=n)
                                     .data_spec(), 2) for n in (60, 10))
        sd.save_dataset(tmp_path, [long[0], short[0], long[1]], {})
        steps = []
        monkeypatch.setattr(ad, "adam_step", lambda *args, **kwargs: steps.append(args))
        with pytest.raises(ValueError, match="^training sequence 1 has 10 steps, fewer than "
                                             "subseq_max 12$"):
            tr.train(tiny_config(dataset_dir=str(tmp_path)))
        assert steps == []

    @pytest.mark.parametrize("settings", [
        dict(feature_dim=5), dict(noise_sigma=-0.1), dict(nuisance_dim=-1),
        dict(noise_rho=1.0), dict(bias_sigma=-1.0),
    ], ids=["feature-dim", "noise", "nuisance", "rho", "bias"])
    def test_data_spec_rejects_what_the_feature_model_rejects(self, settings):
        bad = dict(feature_dim=6, noise_sigma=0.0, nuisance_dim=0, noise_rho=0.0,
                   bias_sigma=0.0) | settings  # tiny_config's data settings, one changed
        with pytest.raises(ValueError) as built:
            sd.FeatureModel.seeded(bad["feature_dim"], seed=0, noise_sigma=bad["noise_sigma"],
                                   nuisance_dim=bad["nuisance_dim"],
                                   nuisance_sigma=bad["noise_sigma"] * 5.0,
                                   noise_rho=bad["noise_rho"], bias_sigma=bad["bias_sigma"])
        with pytest.raises(ValueError, match=f"^{re.escape(str(built.value))}$"):
            replace(tiny_config().data_spec(), **settings)


SPAN_WEIGHTS = ls.LossWeights(alpha=0.5, delta=1.0, zeta=3.0, window=2)


def span_case():
    """A (4, 3)-LSTM and a 9-step span for it."""
    cfg = md.RegressorConfig(input_dim=3, lstm_sizes=(4, 3))
    rng = np.random.default_rng(22)
    features, gt = rng.normal(size=(9, 3)), rng.uniform(-0.3, 0.3, size=(9, 6))
    return cfg, md.init_params(cfg, seed=21), features, gt


def grads_of(store):
    return {name: g.copy() for name, g in store.grads.items()}


class TestSpanGradients:
    def test_total_equals_the_no_grad_objective(self):
        cfg, store, features, gt = span_case()
        total = tr.span_gradients(store, cfg, features, gt, SPAN_WEIGHTS)
        assert total == ls.sequence_loss_value(md.predict(features, cfg, store), gt, SPAN_WEIGHTS)

    def test_gradients_equal_the_taped_path(self):
        cfg, store, features, gt = span_case()
        windows = ls.ground_truth_window_relatives(gt, SPAN_WEIGHTS.window)
        total = tr.span_gradients(store, cfg, features, gt, SPAN_WEIGHTS, windows)
        got = grads_of(store)
        store.zero_grads()
        preds, _ = md.forward_sequence(ad.Tape(), features, cfg, store)
        taped = ls.sequence_loss(preds, gt, SPAN_WEIGHTS, windows)
        ad.backward(taped)
        assert total == taped.item()
        for name in store.names():
            assert np.array_equal(got[name], store.grads[name]), name

    def test_two_calls_add_up(self):
        cfg, store, features, gt = span_case()
        first, second = slice(0, 5), slice(3, 9)
        parts = []
        for rows in (first, second):
            tr.span_gradients(store, cfg, features[rows], gt[rows], SPAN_WEIGHTS)
            parts.append(grads_of(store))
            store.zero_grads()
        for rows in (first, second):
            tr.span_gradients(store, cfg, features[rows], gt[rows], SPAN_WEIGHTS)
        for name in store.names():
            assert np.array_equal(store.grads[name], parts[0][name] + parts[1][name]), name

    def test_non_finite_total_leaves_gradients_at_zero(self):
        cfg, store, features, gt = span_case()
        store.params["head.W"][...] = 1e200  # the squared step terms overflow
        with np.errstate(over="ignore", invalid="ignore"):
            total = tr.span_gradients(store, cfg, features, gt, SPAN_WEIGHTS)
        assert not math.isfinite(total)
        assert not any(g.any() for g in store.grads.values())


class TestTrain:
    def test_three_stage_runlog(self):
        store, runlog = tr.train(tiny_config())
        assert len(runlog.transitions) == 3
        epochs = [r.epoch for r in runlog.records]
        assert epochs == list(range(1, len(epochs) + 1))
        for record in runlog.records:
            assert math.isfinite(record.train_loss)
            assert math.isfinite(record.val_loss)

    def test_adam_and_grad_norm_called_through_the_module(self, monkeypatch):
        # one ad.adam_step, md.forward_sequence and ad.backward per span and one
        # grad_norm per step, each looked up on its module: the benchmark times each
        # op up to adam_step, reads clipping from grad_norm, and wraps the forward
        # and the reverse sweep where they are defined
        calls = dict.fromkeys(("adam_step", "grad_norm", "forward_sequence", "backward"), 0)

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for owner, name in ((ad, "adam_step"), (ad.ParamStore, "grad_norm"),
                            (md, "forward_sequence"), (ad, "backward")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        config = tiny_config()
        _, runlog = tr.train(config)
        spans = len(runlog.records) * len(tr.prepare_data(config).train) * config.subseq_count
        assert calls == dict.fromkeys(calls, spans)

    def test_zero_noise_relative_loss_drops_tenfold(self):
        config = tiny_config(
            n_sequences=4,
            seq_length=120,
            alphas=(1.0,),
            max_epochs_per_stage=50,
            patience=50,
            subseq_count=8,
            subseq_min=12,
            subseq_max=20,
            val_split=0.25,
        )
        store, runlog = tr.train(config)
        first = runlog.records[0].val_loss
        best = min(r.val_loss for r in runlog.records)
        assert best <= first / 10.0, (first, best)

    def test_deterministic_runs_bit_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        config = tiny_config()
        tr.train(replace(config, out_dir=str(out_a)))
        tr.train(replace(config, out_dir=str(out_b)))
        for name in ("runlog.csv", "transitions.csv", "checkpoint_final.txt",
                     "checkpoint_stage0.txt", "checkpoint_stage1.txt", "checkpoint_stage2.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_different_seed_differs(self):
        _, log_a = tr.train(tiny_config(seed=0))
        _, log_b = tr.train(tiny_config(seed=1))
        assert [r.val_loss for r in log_a.records] != [r.val_loss for r in log_b.records]

    def test_stage_isolation(self):
        # stage-3 settings cannot influence stage-1 records
        base = tiny_config(alphas=(1.0, 0.5, 0.1))
        moved = tiny_config(alphas=(1.0, 0.5, 0.3))
        _, log_a = tr.train(base)
        _, log_b = tr.train(moved)
        first_a = [r for r in log_a.records if r.stage == 0]
        first_b = [r for r in log_b.records if r.stage == 0]
        assert [(r.train_loss, r.val_loss) for r in first_a] == [
            (r.train_loss, r.val_loss) for r in first_b
        ]

    def test_validation_sequences_never_trained_on(self, monkeypatch):
        config = tiny_config()
        data = tr.prepare_data(config)
        trained = []
        original = md.forward_sequence

        def spy(tape, features, *args, **kwargs):
            trained.append(np.array(features))
            return original(tape, features, *args, **kwargs)

        monkeypatch.setattr(md, "forward_sequence", spy)
        tr.train(config, data=data)

        def slice_of(features, seq):
            n = len(features)
            return any(np.array_equal(features, seq.features[start : start + n])
                       for start in range(len(seq) - n + 1))

        assert trained
        for features in trained:
            assert any(slice_of(features, seq) for seq in data.train)
            assert not any(slice_of(features, seq) for seq in data.val)

    def test_training_builds_no_trajectory(self, monkeypatch):
        # samples are sliced from the prepared sequences; nothing re-accumulates them
        config = tiny_config()
        data = tr.prepare_data(config)
        built = []
        original = geo.Trajectory.__post_init__

        def counting(self):
            built.append(len(self.positions))
            original(self)

        monkeypatch.setattr(geo.Trajectory, "__post_init__", counting)
        tr.train(config, data=data)
        assert built == []

    def test_truth_windows_built_once_per_training_sequence(self, monkeypatch):
        config = tiny_config()
        data = tr.prepare_data(config)
        calls = []
        original = ls.ground_truth_window_relatives

        def spy(gt_relatives, window):
            calls.append(gt_relatives)
            return original(gt_relatives, window)

        monkeypatch.setattr(ls, "ground_truth_window_relatives", spy)
        _, runlog = tr.train(config, data=data)
        trained = [k for gt in calls for k, seq in enumerate(data.train) if gt is seq.relatives]
        validated = [k for gt in calls for k, seq in enumerate(data.val) if gt is seq.relatives]
        assert trained == list(range(len(data.train)))
        # the validation sequences' windows too, although several epochs have alpha < 1
        assert validated == list(range(len(data.val)))
        assert sum(r.alpha < 1.0 for r in runlog.records) > 1
        assert len(calls) == len(trained) + len(validated)

        calls.clear()
        tr.train(tiny_config(alphas=(1.0, 1.0)), data=data)
        assert calls == []

    def test_checkpoints_written(self, tmp_path):
        config = tiny_config(out_dir=str(tmp_path / "run"))
        tr.train(config)
        names = {p.name for p in (tmp_path / "run").iterdir()}
        assert {"checkpoint_stage0.txt", "checkpoint_stage1.txt", "checkpoint_stage2.txt",
                "checkpoint_final.txt", "runlog.csv", "transitions.csv"} <= names

    def test_runlog_csv_has_no_walltime(self, tmp_path):
        config = tiny_config(out_dir=str(tmp_path / "run"))
        _, runlog = tr.train(config)
        header = (tmp_path / "run" / "runlog.csv").read_text().splitlines()[0]
        assert header == "epoch,stage,alpha,train_loss,val_loss"
        assert all(r.wall_time >= 0 for r in runlog.records)

    def test_non_finite_loss_aborts_with_epoch(self):
        # one enormous Adam step saturates the head weights; the next
        # forward pass squares its way to infinity
        config = tiny_config(learning_rate=1e200, grad_clip=0.0, max_epochs_per_stage=8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(tr.NonFiniteLossError) as err:
                tr.train(config)
        assert err.value.epoch >= 1
        # the first Adam step blows up, so the next sub-trajectory of the
        # first training sequence, still in the first stage, is non-finite
        assert (err.value.stage, err.value.sequence) == (0, 0)
        assert "stage 0, training sequence 0" in str(err.value)

    def test_stage_params_are_the_stage_checkpoints(self, tmp_path):
        out = tmp_path / "run"
        _, runlog = tr.train(tiny_config(out_dir=str(out)))
        assert len(runlog.stage_params) == 3
        for k, params in enumerate(runlog.stage_params):
            params.save(tmp_path / "copy.txt")
            saved = (out / f"checkpoint_stage{k}.txt").read_bytes()
            assert (tmp_path / "copy.txt").read_bytes() == saved, k
        final = (out / "checkpoint_final.txt").read_bytes()
        assert (tmp_path / "copy.txt").read_bytes() == final  # the last stage ends the run

    def test_transitions_are_the_transitions_csv_rows(self, tmp_path):
        out = tmp_path / "run"
        _, runlog = tr.train(tiny_config(out_dir=str(out)))
        header, rows = geo.read_csv(out / "transitions.csv")
        assert header == ["epoch", "stage", "alpha", "val_loss"]
        assert [r.stage for r in runlog.transitions] == [0, 1, 2]
        assert rows == [[str(v) for v in (r.epoch, r.stage, r.alpha, r.val_loss)]
                        for r in runlog.transitions]
        for record in runlog.transitions:  # each ends its stage
            assert max(r.epoch for r in runlog.records if r.stage == record.stage) == record.epoch


class TestAblate:
    def test_report_structure_and_sharing(self):
        config = tiny_config(max_epochs_per_stage=2, patience=2, subseq_count=2)
        rows = tr.ablate(config, seeds=[0, 1], segment_lengths=(2.0, 4.0), holdout_count=1)
        # one row per stage of each run: by seed, then mode, then stage
        assert [(r.seed, r.mode, r.stage) for r in rows] == [
            (seed, mode, stage) for seed in (0, 1) for mode in tr.ABLATION_MODES
            for stage in range(3)]
        # curriculum and fixed-relative share the alpha=1 first stage on the
        # same data and init, so their first-stage metrics coincide
        for seed in (0, 1):
            by_mode = {r.mode: r for r in rows if r.seed == seed and r.stage == 0}
            assert (
                by_mode["curriculum"].val_relative_loss
                == by_mode["fixed-relative"].val_relative_loss
            )

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            tr.ablate(tiny_config(), seeds=[0])

    def test_no_fitting_segment_raises_before_any_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tr, "train", lambda *args, **kwargs: calls.append(args))
        # ~63 m vehicle paths against the 100-800 m vehicle segment lengths
        with pytest.raises(ev.SegmentTooLongError, match=r"^seed 0, held-out sequence 0: no "):
            tr.ablate(tiny_config(preset="vehicle"), seeds=[0, 1])
        assert calls == []

    def test_a_later_seed_that_does_not_fit_trains_nothing(self, monkeypatch):
        config = tiny_config()
        path_m = []
        for seed in (0, 1):
            base = replace(config, seed=seed)
            gt = tr.holdout_sequences(base, tr.prepare_data(base).stats, 1)[0].trajectory
            path_m.append(np.linalg.norm(np.diff(gt.positions, axis=0), axis=1).sum())
        short = int(np.argmin(path_m))
        calls = []
        monkeypatch.setattr(tr, "train", lambda *args, **kwargs: calls.append(args))
        seeds = [1 - short, short]  # the seed whose path is too short comes second
        with pytest.raises(ev.SegmentTooLongError,
                           match=rf"^seed {short}, held-out sequence 0: no "):
            tr.ablate(config, seeds=seeds, segment_lengths=(sum(path_m) / 2,),
                      holdout_count=1)
        assert calls == []

    def test_stages_scored_from_the_stage_checkpoints(self, tmp_path):
        config = tiny_config(max_epochs_per_stage=2, patience=2, subseq_count=2)
        lengths = (2.0, 4.0)
        rows = tr.ablate(config, seeds=[0, 1], modes=("curriculum",),
                         segment_lengths=lengths, holdout_count=1)
        tr.train(replace(config, out_dir=str(tmp_path)))
        data = tr.prepare_data(config)
        holdouts = tr.holdout_sequences(config, data.stats, 1)
        model_cfg = config.regressor_config(data.input_dim)
        recomputed = []
        for k in range(3):
            store = ad.ParamStore.load(tmp_path / f"checkpoint_stage{k}.txt")
            segments = [ev.segment_errors(h.trajectory,
                                          tr.predicted_trajectory(store, model_cfg, h), lengths)
                        for h in holdouts]
            recomputed.append(tr.StageMetrics(
                mode="curriculum",
                seed=0,
                stage=k,
                val_relative_loss=tr.relative_validation_loss(store, model_cfg, config, data.val),
                segment_trans_pct=float(np.mean([s.mean_trans_pct() for s in segments])),
                segment_rot_deg_per_m=float(np.mean([s.mean_rot_deg_per_m() for s in segments])),
            ))
        assert rows[:3] == recomputed

    def test_csv_round_trip_shape(self, tmp_path):
        config = tiny_config(max_epochs_per_stage=2, patience=2, subseq_count=2)
        rows = tr.ablate(config, seeds=[0, 1], segment_lengths=(2.0, 4.0), holdout_count=1)
        path = tmp_path / "ablation.csv"
        tr.write_ablation_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "mode,seed,stage,val_relative_loss,segment_trans_pct,segment_rot_deg_per_m"
        assert len(lines) == 1 + 8 * 3


class TestAlphaSweep:
    def test_rows_and_normalization(self):
        config = tiny_config(subseq_count=2)
        rows = tr.alpha_sweep(config, alphas=(0.0, 0.5, 1.0), epochs=2)
        assert [row.alpha for row in rows] == [0.0, 0.5, 1.0]
        assert max(row.trans_norm for row in rows) == 1.0
        assert max(row.rot_norm for row in rows) == 1.0
        for row in rows:
            assert 0.0 <= row.trans_norm <= 1.0

    def test_alpha_bounds_checked(self):
        with pytest.raises(ValueError):
            tr.alpha_sweep(tiny_config(), alphas=(0.0, 1.5), epochs=1)


class TestPredictionHelpers:
    def test_predicted_trajectory_shapes(self):
        config = tiny_config()
        data = tr.prepare_data(config)
        store, _ = tr.train(config, data=data)
        model_cfg = config.regressor_config(data.input_dim)
        seq = data.val[0]
        rows = md.predict(seq.features, model_cfg, store)
        assert rows.shape == (len(seq), 6)
        traj = tr.predicted_trajectory(store, model_cfg, seq)
        assert len(traj) == len(seq) + 1

    def test_validation_loss_equals_the_taped_objective(self):
        config = tiny_config()
        data = tr.prepare_data(config)
        model_cfg = config.regressor_config(data.input_dim)
        store = md.init_params(model_cfg, seed=3)
        seq = data.val[0]
        weights = ls.LossWeights(alpha=0.5, delta=1.0, zeta=10.0, window=3)
        taped = tr.span_gradients(store, model_cfg, seq.features, seq.relatives, weights)
        assert tr.validation_loss(store, model_cfg, [seq], weights) == taped / len(seq)
        truths = [ls.ground_truth_window_relatives(seq.relatives, weights.window)]
        assert tr.validation_loss(store, model_cfg, [seq], weights, truths) == taped / len(seq)
