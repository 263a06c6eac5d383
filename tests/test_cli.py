import configparser
import hashlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from curvo import cli
from curvo import geometry as geo
from curvo import synthdata as sd
from curvo import trainer as tr
from oracles import chain_trajectory

ROOT = Path(__file__).resolve().parent.parent

CONFIG_TEXT = """\
[data]
preset = walker
sequences = 3
length = 60
feature_dim = 6
nuisance_dim = 0
noise_sigma = 0.0

[model]
lstm_sizes = 8

[objective]
alphas = 1.0,0.5,0.1
window = 2

[training]
max_epochs_per_stage = 3
patience = 2
subseq_count = 3
subseq_min = 8
subseq_max = 12
val_split = 0.34
seed = 0
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT)
    return path


def write_line_fixture(tmp_path, n=40, scale=1.0):
    gt = chain_trajectory([[1.0, 0, 0, 0, 0, 0]] * (n - 1))
    est = geo.Trajectory(gt.positions * scale, gt.quaternions)
    gt_path, est_path = tmp_path / "gt.txt", tmp_path / "est.txt"
    geo.save_trajectory_kitti(gt, gt_path)
    geo.save_trajectory_kitti(est, est_path)
    return gt_path, est_path


class TestConfigParsing:
    def test_round_trip(self, config_file):
        config = cli.load_run_config(config_file)
        assert config.n_sequences == 3
        assert config.lstm_sizes == (8,)
        assert config.alphas == (1.0, 0.5, 0.1)

    def test_unknown_keys_all_reported(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[data]\nbogus = 1\npreset = walker\n[nosuch]\nx = 2\n"
                        "[model]\ndropout = 0.3\nhead_hidden = 4\n"
                        "[objective]\nmode = curriculum\n"
                        "[training]\nseed = notanint\n")
        with pytest.raises(cli.UsageError) as err:
            cli.load_run_config(path)
        message = str(err.value)
        assert "bogus" in message
        assert "nosuch" in message
        assert "[model] dropout" in message
        assert "[model] head_hidden" in message
        assert "[objective] mode" in message
        assert "seed" in message

    def test_schema_names_every_run_config_field_once(self):
        # the benchmark writes its config files by reading each schema field off a RunConfig
        named = sorted(name for section in cli.CONFIG_SCHEMA.values() for name, _ in section.values())
        assert named == sorted(f.name for f in fields(tr.RunConfig) if f.name != "out_dir")

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.UsageError):
            cli.load_run_config(tmp_path / "absent.ini")

    def test_readme_config_is_the_defaults_in_schema_order(self, tmp_path):
        """README's annotated config, without its ``;`` comments, loads as RunConfig()
        and names CONFIG_SCHEMA's sections and keys, in order."""
        block = (ROOT / "README.md").read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text("".join(line.split(";", 1)[0].rstrip() + "\n"
                                for line in block.splitlines()))
        assert cli.load_run_config(path) == tr.RunConfig()
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path)
        assert [(section, list(parser[section])) for section in parser.sections()] == [
            (section, list(keys)) for section, keys in cli.CONFIG_SCHEMA.items()]

    def test_overrides_win(self, config_file):
        config = cli.load_run_config(config_file, overrides={"seed": 7})
        assert config.seed == 7


class TestGenData:
    def test_layout_and_idempotence(self, tmp_path):
        args = ["gen-data", "--sequences", "3", "--length", "30", "--seed", "5",
                "--feature-dim", "6", "--nuisance-dim", "0"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        assert sorted(p.name for p in (a / "poses").iterdir()) == ["00.txt", "01.txt", "02.txt"]
        assert sorted(p.name for p in (a / "features").iterdir()) == ["00.csv", "01.csv", "02.csv"]
        for rel in ("poses/00.txt", "features/01.csv", "meta.txt"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()
        assert (a / "manifest.txt").exists()

    def test_writes_the_sequences_train_generates(self, tmp_path):
        assert cli.main([
            "gen-data", "--preset", "vehicle", "--sequences", "3", "--length", "25",
            "--seed", "4", "--feature-dim", "7", "--nuisance-dim", "1",
            "--noise-sigma", "0.05", "--out", str(tmp_path),
        ]) == 0
        written, meta = sd.load_dataset(tmp_path)
        expected = tr.synthesize(tr.RunConfig(
            preset="vehicle", seq_length=25, seed=4, feature_dim=7, nuisance_dim=1,
            noise_sigma=0.05,
        ).data_spec(), 3)
        assert len(written) == len(expected)
        for index, (got, want) in enumerate(zip(written, expected)):
            assert int(meta[f"seed_{index:02d}"]) == want.seed
            assert np.array_equal(got.features, want.features)
            assert np.array_equal(got.relatives, want.relatives)

    def test_short_length_keeps_its_bytes_and_needs_no_span_setting(self, tmp_path):
        # shorter than the default spans (subseq_max = 20), which gen-data never draws
        assert cli.main(["gen-data", "--length", "5", "--sequences", "2", "--seed", "3",
                         "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256()
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            if path.name != "manifest.txt":
                digest.update(str(path.relative_to(tmp_path)).encode())
                digest.update(path.read_bytes())
        # the files as gen-data writes them since its rotations share the one kernel
        assert digest.hexdigest() == (
            "2aa6dc65438f39e651ef1b72803fa64ef6a79d9e1138e1e23370190b2fa3c5b8")
        written, _ = sd.load_dataset(tmp_path)
        for count, low, high in ((10, 1, 5), (7, 2, 3)):
            expected = tr.synthesize(tr.RunConfig(
                seq_length=5, seed=3, subseq_count=count, subseq_min=low, subseq_max=high,
            ).data_spec(), 2)
            for got, want in zip(written, expected, strict=True):
                assert np.array_equal(got.features, want.features)
                assert np.array_equal(got.relatives, want.relatives)

    def test_walker_turns_more_than_vehicle(self, tmp_path):
        for preset in ("walker", "vehicle"):
            assert cli.main([
                "gen-data", "--preset", preset, "--sequences", "1", "--length", "150",
                "--seed", "3", "--feature-dim", "6", "--nuisance-dim", "0",
                "--noise-sigma", "0", "--out", str(tmp_path / preset),
            ]) == 0
        rates = {}
        for preset in ("walker", "vehicle"):
            traj = geo.load_trajectory_kitti(tmp_path / preset / "poses" / "00.txt")
            steps = geo._step_vectors(traj.positions, traj.quaternions)
            rates[preset] = np.mean(np.abs(steps[:, 5]))
        assert rates["walker"] > rates["vehicle"]


    @pytest.mark.parametrize("flag", [["--length", "1"], ["--feature-dim", "3"],
                                      ["--noise-sigma", "-1"], ["--nuisance-dim", "-1"],
                                      ["--sequences", "0"]],
                             ids=["length-one", "feature-dim-three", "negative-noise",
                                  "negative-nuisance", "no-sequences"])
    def test_bad_flag_is_config_error(self, tmp_path, capsys, flag):
        out = tmp_path / "data"
        assert cli.main(["gen-data", *flag, "--out", str(out)]) == 1
        assert "config errors" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_train_writes_artifacts(self, config_file, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "runlog.csv").exists()
        assert (out / "manifest.txt").exists()
        lines = (out / "transitions.csv").read_text().splitlines()
        assert len(lines) == 1 + 3  # header + one row per stage boundary

    def test_determinism_across_invocations(self, config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", str(config_file), "--out", str(out_a)]) == 0
        assert cli.main(["train", "--config", str(config_file), "--out", str(out_b)]) == 0
        assert (out_a / "runlog.csv").read_bytes() == (out_b / "runlog.csv").read_bytes()
        assert (out_a / "checkpoint_final.txt").read_bytes() == (
            out_b / "checkpoint_final.txt"
        ).read_bytes()

    def test_missing_config_is_usage_error(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "no.ini"),
                         "--out", str(tmp_path / "o")]) == 1

    def test_bad_flag_exits_one(self):
        assert cli.main(["train", "--nonsense"]) == 1

    @pytest.mark.parametrize(
        "objective",
        ["alphas = 1.0,1.5", "window = 0"],
        ids=["alpha-out-of-range", "window-zero"],
    )
    def test_objective_error_is_config_error(self, tmp_path, capsys, objective):
        config = tmp_path / "bad.ini"
        config.write_text(f"[objective]\n{objective}\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 1
        assert "config errors" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("text", [
    "[data]\npreset = walker\npreset = vehicle\n",
    "[data]\npreset = walker\n[data]\nlength = 60\n",
    "preset = walker\n",
], ids=["duplicate-key", "duplicate-section", "no-section-header"])
def test_config_syntax_error_is_config_error(tmp_path, capsys, text):
    config = tmp_path / "bad.ini"
    config.write_text(text)
    for command in (["train"], ["ablate", "--seeds", "0,1"]):
        out = tmp_path / command[0]
        assert cli.main([*command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config errors" in err and str(config) in err
        assert not out.exists()


def test_percent_in_a_config_value_is_literal(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[data]\ndataset_dir = /no/such/100%\n")
    assert cli.load_run_config(config).dataset_dir == "/no/such/100%"
    config.write_text("[data]\ndataset_dir = /no/such/100%(x)s\n")
    assert cli.load_run_config(config).dataset_dir == "/no/such/100%(x)s"


def test_train_on_a_gen_data_directory_equals_train_on_generated_data(config_file, tmp_path):
    # CONFIG_TEXT's data settings as gen-data flags; the directory name holds a literal %
    data = tmp_path / "data 100%"
    assert cli.main(["gen-data", "--preset", "walker", "--sequences", "3", "--length", "60",
                     "--seed", "3", "--feature-dim", "6", "--nuisance-dim", "0",
                     "--noise-sigma", "0.0", "--out", str(data)]) == 0
    loaded = tmp_path / "loaded.ini"
    loaded.write_text(CONFIG_TEXT.replace("[data]\n", f"[data]\ndataset_dir = {data}\n"))
    for config, out in ((config_file, "generated"), (loaded, "loaded")):
        assert cli.main(["train", "--config", str(config), "--seed", "3",
                         "--out", str(tmp_path / out)]) == 0
    names = ["checkpoint_final.txt", "checkpoint_stage0.txt", "checkpoint_stage1.txt",
             "checkpoint_stage2.txt", "manifest.txt", "runlog.csv", "transitions.csv"]
    for out in ("generated", "loaded"):
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == names
    for name in names:
        if name != "manifest.txt":  # the manifests differ in dataset_dir
            assert (tmp_path / "generated" / name).read_bytes() == (
                tmp_path / "loaded" / name).read_bytes(), name


@pytest.mark.parametrize("command", [["train"], ["alpha-sweep"]], ids=["train", "alpha-sweep"])
def test_short_loaded_sequence_is_named_before_training(config_file, tmp_path, capsys, command):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--sequences", "3", "--length", "30", "--seed", "3",
                     "--feature-dim", "6", "--nuisance-dim", "0", "--out", str(data)]) == 0
    config_file.write_text(CONFIG_TEXT.replace("[data]\n", f"[data]\ndataset_dir = {data}\n")
                           .replace("subseq_min = 8", "subseq_min = 35")
                           .replace("subseq_max = 12", "subseq_max = 40"))
    capsys.readouterr()
    out = tmp_path / "run"
    assert cli.main([*command, "--config", str(config_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("curvo: config errors:\n  training sequence 0 has 30 "
                                       "steps, fewer than subseq_max 40\n")
    assert not out.exists()


def test_generated_run_needs_two_sequences(config_file, tmp_path, capsys):
    config_file.write_text(CONFIG_TEXT.replace("sequences = 3", "sequences = 1"))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config_file), "--out", str(out)]) == 1
    assert "config errors" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["train"], ["alpha-sweep"]], ids=["train", "alpha-sweep"])
def test_dataset_without_meta_is_config_error(config_file, tmp_path, capsys, command):
    data = tmp_path / "data"  # exists, but holds no meta.txt
    data.mkdir()
    config_file.write_text(CONFIG_TEXT.replace("[data]\n", f"[data]\ndataset_dir = {data}\n"))
    out = tmp_path / command[0]
    assert cli.main([*command, "--config", str(config_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config errors" in err and "meta.txt" in err
    assert not out.exists()


def test_ablate_on_a_dataset_is_config_error(config_file, tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--sequences", "3", "--length", "60", "--seed", "7",
                     "--feature-dim", "6", "--nuisance-dim", "0", "--out", str(data)]) == 0
    config_file.write_text(CONFIG_TEXT.replace("[data]\n", f"[data]\ndataset_dir = {data}\n"))
    out = tmp_path / "ablation"
    assert cli.main(["ablate", "--config", str(config_file), "--seeds", "0,1",
                     "--out", str(out)]) == 1
    assert "generator" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="generator"):
        tr.ablate(cli.load_run_config(config_file), seeds=[0, 1])


def test_ablate_has_no_seed_flag(config_file, tmp_path, capsys):
    # every ablation run is seeded from --seeds, so a single seed would be ignored
    out = tmp_path / "ablation"
    assert cli.main(["ablate", "--config", str(config_file), "--seeds", "0,1", "--seed", "3",
                     "--out", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["ablate", "--seeds", "abc"],
    ["alpha-sweep", "--alphas", "abc"],
    ["alpha-sweep", "--alphas", ""],
    ["eval", "--segments", "abc"],
    ["eval", "--segments", "0"],
], ids=["seeds-abc", "alphas-abc", "alphas-empty", "segments-abc", "segments-zero"])
def test_bad_list_flag_is_usage_error(config_file, tmp_path, capsys, command):
    gt_path, est_path = write_line_fixture(tmp_path)
    inputs = (["--gt", str(gt_path), "--est", str(est_path)] if command[0] == "eval"
              else ["--config", str(config_file)])
    out = tmp_path / "out"
    assert cli.main([*command, *inputs, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("curvo: ")
    assert not out.exists()


@pytest.mark.parametrize("setting", ["subseq_count = 0", "subseq_min = 0", "subseq_max = 300"],
                         ids=["no-spans", "min-zero", "max-past-length"])
def test_span_setting_error_is_config_error(config_file, tmp_path, capsys, setting):
    key = setting.split(" = ")[0]
    lines = [setting if line.startswith(f"{key} = ") else line
             for line in CONFIG_TEXT.splitlines()]
    config_file.write_text("\n".join(lines) + "\n")
    for command in (["train"], ["ablate", "--seeds", "0,1"], ["alpha-sweep"]):
        out = tmp_path / command[0]
        assert cli.main([*command, "--config", str(config_file), "--out", str(out)]) == 1
        assert "config errors" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("setting", ["lstm_sizes = 0", "lstm_sizes = 4,-2", "lstm_sizes ="],
                         ids=["zero-size", "negative-size", "no-layers"])
def test_model_setting_error_is_config_error(config_file, tmp_path, capsys, setting):
    config_file.write_text(CONFIG_TEXT.replace("lstm_sizes = 8", setting))
    for command in (["train"], ["ablate", "--seeds", "0,1"], ["alpha-sweep"]):
        out = tmp_path / command[0]
        assert cli.main([*command, "--config", str(config_file), "--out", str(out)]) == 1
        assert "config errors" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("settings", [
    # spans of one step fit, so only the length is wrong
    {"length": "1", "subseq_min": "1", "subseq_max": "1"},
    {"feature_dim": "4"},
    {"noise_sigma": "-1"},
], ids=["length-one", "feature-dim-four", "negative-noise"])
def test_data_setting_error_is_config_error(config_file, tmp_path, capsys, settings):
    lines = [next((f"{key} = {settings[key]}" for key in settings
                   if line.startswith(f"{key} = ")), line)
             for line in CONFIG_TEXT.splitlines()]
    config_file.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config_file), "--out", str(out)]) == 1
    assert "config errors" in capsys.readouterr().err
    assert not out.exists()


def assert_plots_match(csv_path, svg_path, tmp_path, *metric):
    """The command's SVG is byte-equal to ``curvo plot`` of the CSV it wrote."""
    replot = tmp_path / f"replot_{svg_path.name}"
    assert cli.main(["plot", "--report", str(csv_path), *metric, "--out", str(replot)]) == 0
    assert svg_path.read_bytes() == replot.read_bytes()


class TestComparisonCommands:
    def test_ablate(self, config_file, tmp_path):
        config_file.write_text(CONFIG_TEXT.replace("max_epochs_per_stage = 3",
                                                   "max_epochs_per_stage = 2"))
        out = tmp_path / "ablation"
        assert cli.main(["ablate", "--config", str(config_file), "--seeds", "0,1",
                         "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == ("mode,seed,stage,val_relative_loss,segment_trans_pct,"
                            "segment_rot_deg_per_m")
        assert len(lines) == 1 + 4 * 2 * 3  # modes x seeds x stages
        for metric, name in (("trans", "ablation_translation.svg"),
                             ("rot", "ablation_rotation.svg")):
            assert_plots_match(out / "ablation.csv", out / name, tmp_path, "--metric", metric)
        assert (out / "manifest.txt").exists()

    def test_ablate_manifest_has_seeds_and_no_seed(self, config_file, tmp_path):
        # each run's seed comes from --seeds, so the config's own seed is not recorded
        config_file.write_text(CONFIG_TEXT.replace("max_epochs_per_stage = 3",
                                                   "max_epochs_per_stage = 1"))
        out = tmp_path / "ablation"
        assert cli.main(["ablate", "--config", str(config_file), "--seeds", "0,1",
                         "--out", str(out)]) == 0
        keys = [line.split(" = ")[0] for line in (out / "manifest.txt").read_text().splitlines()]
        assert "seeds" in keys and "seed" not in keys

    def test_alpha_sweep(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        assert cli.main(["alpha-sweep", "--config", str(config_file), "--alphas", "0,0.5,1",
                         "--epochs", "2", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,trans_err_m,rot_err_deg,trans_norm,rot_norm"
        assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "0.5", "1.0"]
        assert_plots_match(out / "sweep.csv", out / "sweep.svg", tmp_path)
        assert (out / "manifest.txt").exists()

    @pytest.mark.parametrize("flag", [["--alphas", "2"], ["--epochs", "0"]],
                             ids=["alpha-out-of-range", "no-epochs"])
    def test_alpha_sweep_flag_error_is_config_error(self, config_file, tmp_path, capsys, flag):
        out = tmp_path / "sweep"
        assert cli.main(["alpha-sweep", "--config", str(config_file), *flag,
                         "--out", str(out)]) == 1
        assert "config errors" in capsys.readouterr().err
        assert not out.exists()


class TestEvalCommand:
    def test_identical_files_zero_reports(self, tmp_path):
        gt_path, _ = write_line_fixture(tmp_path)
        out = tmp_path / "report"
        assert cli.main(["eval", "--gt", str(gt_path), "--est", str(gt_path),
                         "--segments", "5,10", "--out", str(out)]) == 0
        seg = (out / "segment_errors.csv").read_text().splitlines()
        for line in seg[1:]:
            parts = line.split(",")
            assert abs(float(parts[1])) < 1e-9
            assert abs(float(parts[2])) < 1e-9
        assert (out / "trajectory.svg").exists()
        assert (out / "ate_cdf.svg").exists()
        assert (out / "segment_errors.svg").exists()

    def test_scaled_fixture_ten_percent(self, tmp_path):
        gt_path, est_path = write_line_fixture(tmp_path, scale=0.9)
        out = tmp_path / "report"
        assert cli.main(["eval", "--gt", str(gt_path), "--est", str(est_path),
                         "--segments", "5,10,20", "--out", str(out)]) == 0
        seg = (out / "segment_errors.csv").read_text().splitlines()
        assert len(seg) == 4
        for line in seg[1:]:
            assert abs(float(line.split(",")[1]) - 10.0) < 0.1

    @pytest.mark.parametrize(
        "line",
        ["1 2 3", "1 0 0 0 0 nan 0 0 0 0 1 0", "1 0 0 0 0 1 0 0 0 0 1 inf"],
        ids=["short", "nan", "inf"],
    )
    def test_malformed_line_reported_with_number(self, tmp_path, capsys, line):
        gt_path, _ = write_line_fixture(tmp_path, n=5)
        bad = tmp_path / "bad.txt"
        lines = gt_path.read_text().splitlines()
        lines[2] = line
        bad.write_text("\n".join(lines) + "\n")
        code = cli.main(["eval", "--gt", str(gt_path), "--est", str(bad),
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_segments_too_long_write_nothing(self, tmp_path, capsys):
        gt_path, _ = write_line_fixture(tmp_path, n=10)
        out = tmp_path / "r"
        assert cli.main(["eval", "--gt", str(gt_path), "--est", str(gt_path),
                         "--segments", "1000", "--out", str(out)]) == 2
        assert "no segment" in capsys.readouterr().err
        assert not out.exists()

    def test_line_count_mismatch(self, tmp_path, capsys):
        gt_path, _ = write_line_fixture(tmp_path, n=10)
        short_path, _ = write_line_fixture(tmp_path / "sub", n=8) if False else (None, None)
        # build a shorter estimate file
        est = chain_trajectory([[1.0, 0, 0, 0, 0, 0]] * 5)
        est_path = tmp_path / "short.txt"
        geo.save_trajectory_kitti(est, est_path)
        code = cli.main(["eval", "--gt", str(gt_path), "--est", str(est_path),
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert "differ in length" in capsys.readouterr().err


class TestPlotCommand:
    def test_runlog_plot(self, config_file, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config_file), "--out", str(out)]) == 0
        svg = tmp_path / "curve.svg"
        assert cli.main(["plot", "--report", str(out / "runlog.csv"),
                         "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert "train loss" in text and "validation loss" in text

    def test_segment_report_plot(self, tmp_path):
        gt_path, est_path = write_line_fixture(tmp_path, scale=0.9)
        out = tmp_path / "report"
        cli.main(["eval", "--gt", str(gt_path), "--est", str(est_path),
                  "--segments", "5,10", "--out", str(out)])
        svg = tmp_path / "seg.svg"
        assert cli.main(["plot", "--report", str(out / "segment_errors.csv"),
                         "--out", str(svg)]) == 0
        assert "translation" in svg.read_text()

    def test_output_directory_is_made(self, tmp_path):
        runlog = tmp_path / "runlog.csv"
        runlog.write_text("epoch,stage,alpha,train_loss,val_loss\n1,0,1.0,0.5,0.4\n")
        svg = tmp_path / "new" / "dir" / "x.svg"
        assert cli.main(["plot", "--report", str(runlog), "--out", str(svg)]) == 0
        assert svg.read_text().startswith("<?xml")

    def test_identical_inputs_identical_bytes(self, tmp_path):
        gt_path, est_path = write_line_fixture(tmp_path, scale=0.9)
        out = tmp_path / "report"
        cli.main(["eval", "--gt", str(gt_path), "--est", str(est_path),
                  "--segments", "5,10", "--out", str(out)])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        cli.main(["plot", "--report", str(out / "ate_cdf.csv"), "--out", str(a)])
        cli.main(["plot", "--report", str(out / "ate_cdf.csv"), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_empty_report_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("error_m,fraction\n")
        assert cli.main(["plot", "--report", str(empty),
                         "--out", str(tmp_path / "x.svg")]) == 2
        assert not (tmp_path / "x.svg").exists()

    def test_unknown_header_errors(self, tmp_path):
        weird = tmp_path / "weird.csv"
        weird.write_text("a,b\n1,2\n")
        assert cli.main(["plot", "--report", str(weird),
                         "--out", str(tmp_path / "x.svg")]) == 2

    def test_runlog_flag_is_gone(self, tmp_path):
        runlog = tmp_path / "runlog.csv"
        runlog.write_text("epoch,stage,alpha,train_loss,val_loss\n1,0,1.0,0.5,0.4\n")
        assert cli.main(["plot", "--runlog", str(runlog), "--out", str(tmp_path / "x.svg")]) == 1
        assert not (tmp_path / "x.svg").exists()

    def test_unplottable_reports_name_the_plottable_ones(self, config_file, tmp_path, capsys):
        gt_path, est_path = write_line_fixture(tmp_path, scale=0.9)
        assert cli.main(["eval", "--gt", str(gt_path), "--est", str(est_path),
                         "--segments", "5,10", "--out", str(tmp_path / "report")]) == 0
        assert cli.main(["train", "--config", str(config_file),
                         "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        for source in (tmp_path / "report" / "rpe.csv", tmp_path / "run" / "transitions.csv"):
            svg = tmp_path / f"{source.stem}.svg"
            assert cli.main(["plot", "--report", str(source), "--out", str(svg)]) == 2
            assert not svg.exists()
            err = capsys.readouterr().err
            assert "unrecognized report header" in err
            assert ("runlog.csv, segment_errors.csv, ate_cdf.csv, ate.csv, ablation.csv, "
                    "sweep.csv") in err

    def test_header_must_match_a_report_exactly(self, tmp_path, capsys):
        longer = tmp_path / "longer.csv"
        longer.write_text("error_m,fraction,extra\n0.1,0.5,3\n")
        assert cli.main(["plot", "--report", str(longer),
                         "--out", str(tmp_path / "x.svg")]) == 2
        assert "unrecognized report header: error_m,fraction,extra" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()
