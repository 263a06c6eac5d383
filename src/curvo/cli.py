"""Command-line front end: data generation, training, comparisons, evaluation.

Subcommands: gen-data, train, ablate, alpha-sweep, eval, plot. Run settings
come from an INI-style config file of flat ``key = value`` sections (see
CONFIG_SCHEMA below); any matching command-line flag overrides the file.
Every run writes a ``manifest.txt`` capturing the fully resolved
configuration, the seed, and the tool version, so a run is reproducible from
its manifest alone.

Exit codes: 0 success, 1 usage or config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import evaluation as ev
from . import geometry as geo
from . import svgplot
from . import synthdata as sd
from . import trainer as tr


class UsageError(ValueError):
    """Bad flags or config content; maps to exit code 1."""


class LineCountMismatchError(ValueError):
    pass


def _parse_optional_str(v):
    return None if v.strip() == "" else str(v)


def _parse_int_tuple(v):
    return tuple(int(p) for p in str(v).split(",") if p.strip())


def _parse_float_tuple(v):
    return tuple(float(p) for p in str(v).split(",") if p.strip())


def _list_flag(args, name, parse):
    """``parse`` of a comma-separated flag's value; a bad value is a usage error."""
    raw = getattr(args, name)
    try:
        return parse(raw)
    except ValueError:
        raise UsageError(f"bad value for --{name}: {raw!r}") from None


# section -> key -> (RunConfig field, parser)
CONFIG_SCHEMA = {
    "data": {
        "dataset_dir": ("dataset_dir", _parse_optional_str),
        "preset": ("preset", str),
        "sequences": ("n_sequences", int),
        "length": ("seq_length", int),
        "feature_dim": ("feature_dim", int),
        "nuisance_dim": ("nuisance_dim", int),
        "noise_sigma": ("noise_sigma", float),
        "noise_rho": ("noise_rho", float),
        "bias_sigma": ("bias_sigma", float),
    },
    "model": {
        "lstm_sizes": ("lstm_sizes", _parse_int_tuple),
    },
    "objective": {
        "alphas": ("alphas", _parse_float_tuple),
        "delta": ("delta", float),
        "zeta": ("zeta", float),
        "window": ("window", int),
    },
    "training": {
        "learning_rate": ("learning_rate", float),
        "grad_clip": ("grad_clip", float),
        "max_epochs_per_stage": ("max_epochs_per_stage", int),
        "patience": ("patience", int),
        "min_delta": ("min_delta", float),
        "subseq_count": ("subseq_count", int),
        "subseq_min": ("subseq_min", int),
        "subseq_max": ("subseq_max", int),
        "val_split": ("val_split", float),
        "seed": ("seed", int),
    },
}


def load_run_config(path, overrides=None) -> tr.RunConfig:
    """Parse a config file into a RunConfig, reporting every offending key. A ``%`` in
    a value is literal, and a file that does not parse is a usage error."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise UsageError(f"config errors in {path}:\n  {exc}") from None
    if not read:
        raise UsageError(f"config file not found: {path}")
    errors = []
    values = {}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            spec = CONFIG_SCHEMA[section].get(key)
            if spec is None:
                errors.append(f"unknown key [{section}] {key}")
                continue
            field_name, convert = spec
            try:
                values[field_name] = convert(raw)
            except ValueError:
                errors.append(f"bad value for [{section}] {key}: {raw!r}")
    if errors:
        raise UsageError("config errors:\n  " + "\n  ".join(errors))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return tr.RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config errors:\n  {exc}") from None


def checked_data(config: tr.RunConfig) -> tr.PreparedData:
    """The config's data, loaded or generated and checked by ``prepare_data`` before
    anything is written. A config error: a dataset directory without the ``meta.txt``
    that loading it reads first, or data ``prepare_data`` rejects, such as a training
    sequence shorter than ``subseq_max``."""
    if config.dataset_dir is not None and not (Path(config.dataset_dir) / "meta.txt").is_file():
        raise UsageError(f"config errors:\n  dataset_dir {config.dataset_dir} has no meta.txt")
    try:
        return tr.prepare_data(config)
    except ValueError as exc:
        raise UsageError(f"config errors:\n  {exc}") from None


def write_manifest(out_dir: Path, command: str, config: tr.RunConfig | None, extra=None, omit=()):
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"tool = curvo {__version__}", f"command = {command}"]
    if config is not None:
        for name in (f.name for f in fields(tr.RunConfig) if f.name not in omit):
            value = getattr(config, name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{name} = {value}")
    for key in sorted(extra or {}):
        lines.append(f"{key} = {(extra or {})[key]}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


# --- subcommands ---------------------------------------------------------------


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    if args.sequences < 1:
        raise UsageError(f"config errors:\n  need --sequences >= 1, got {args.sequences}")
    try:
        spec = tr.DataSpec(preset=args.preset, seq_length=args.length, feature_dim=args.feature_dim,
                           nuisance_dim=args.nuisance_dim, noise_sigma=args.noise_sigma,
                           noise_rho=0.0, bias_sigma=0.0, seed=args.seed)
    except ValueError as exc:
        raise UsageError(f"config errors:\n  {exc}") from None
    sequences = tr.synthesize(spec, args.sequences)
    meta = {
        "preset": args.preset,
        "master_seed": args.seed,
        "length": args.length,
        "feature_dim": args.feature_dim,
        "nuisance_dim": args.nuisance_dim,
        "noise_sigma": args.noise_sigma,
    }
    sd.save_dataset(out, sequences, meta)
    write_manifest(out, "gen-data", None, extra=meta | {"sequences": args.sequences})
    print(f"wrote {args.sequences} sequences to {out}")
    return 0


def cmd_train(args) -> int:
    config = load_run_config(args.config, overrides={"seed": args.seed, "out_dir": str(args.out)})
    data = checked_data(config)
    out = Path(args.out)
    write_manifest(out, "train", config)
    store, runlog = tr.train(config, data=data)
    last = runlog.records[-1]
    print(f"finished after {last.epoch} epochs; final validation loss {last.val_loss:.6g}")
    print(f"artifacts in {out}")
    return 0


def cmd_ablate(args) -> int:
    config = load_run_config(args.config)
    seeds = _list_flag(args, "seeds", _parse_int_tuple)
    try:
        tr.check_ablation(config, seeds)
    except ValueError as exc:
        raise UsageError(f"config errors:\n  {exc}") from None
    out = Path(args.out)
    # each run's seed comes from --seeds, so the config's own seed is left out
    write_manifest(out, "ablate", config, extra={"seeds": args.seeds}, omit=("seed",))
    rows = tr.ablate(config, seeds=seeds)
    tr.write_ablation_csv(rows, out / "ablation.csv")
    for metric, path in (("trans", "ablation_translation.svg"), ("rot", "ablation_rotation.svg")):
        svgplot.save_plot(plot_csv(out / "ablation.csv", metric), out / path)
    last = len(config.alphas) - 1  # every mode runs the config's stage count
    for mode in dict.fromkeys(row.mode for row in rows):
        finals = [row.segment_trans_pct for row in rows if row.mode == mode and row.stage == last]
        print(f"{mode:18s} final segment translation: {np.mean(finals):7.2f}% "
              f"(over {len(finals)} seeds)")
    print(f"artifacts in {out}")
    return 0


def cmd_alpha_sweep(args) -> int:
    config = load_run_config(args.config, overrides={"seed": args.seed})
    alphas = _list_flag(args, "alphas", _parse_float_tuple)
    try:
        tr.sweep_configs(config, alphas, args.epochs)
    except ValueError as exc:
        raise UsageError(f"config errors:\n  {exc}") from None
    data = checked_data(config)
    out = Path(args.out)
    write_manifest(out, "alpha-sweep", config,
                   extra={"alphas": args.alphas, "epochs": args.epochs})
    rows = tr.alpha_sweep(config, alphas=alphas, epochs=args.epochs, data=data)
    tr.write_sweep_csv(rows, out / "sweep.csv")
    svgplot.save_plot(plot_csv(out / "sweep.csv"), out / "sweep.svg")
    for row in rows:
        print(f"alpha {row.alpha:4.2f}: normalized trans {row.trans_norm:.3f} "
              f"rot {row.rot_norm:.3f}")
    print(f"artifacts in {out}")
    return 0


def cmd_eval(args) -> int:
    lengths = _list_flag(args, "segments", _parse_float_tuple)
    if not lengths or not all(length > 0 for length in lengths):
        raise UsageError(f"--segments needs positive lengths, got {args.segments!r}")
    gt = geo.load_trajectory_kitti(args.gt)
    est = geo.load_trajectory_kitti(args.est)
    if len(gt) != len(est):
        raise LineCountMismatchError(
            f"pose files differ in length: {len(gt)} ({args.gt}) vs {len(est)} ({args.est})"
        )
    segment = ev.segment_errors(gt, est, lengths)
    rpe_report = ev.rpe(gt, est)
    ate_report = ev.ate(gt, est)

    out = Path(args.out)  # made only once every report is computed
    out.mkdir(parents=True, exist_ok=True)
    ev.write_segment_csv(segment, out / "segment_errors.csv")
    ev.write_rpe_csv(rpe_report, out / "rpe.csv")
    ev.write_ate_csv(ate_report, out / "ate.csv", out / "ate_cdf.csv")

    for report in ("segment_errors", "ate_cdf"):  # the plots `curvo plot` makes of the CSVs
        svgplot.save_plot(plot_csv(out / f"{report}.csv"), out / f"{report}.svg")
    paths = [("ground truth", gt.positions[:, :2]), ("estimate", est.positions[:, :2])]
    svgplot.save_plot(svgplot.trajectory_plot(paths), out / "trajectory.svg")
    write_manifest(out, "eval", None,
                   extra={"gt": args.gt, "est": args.est, "segments": args.segments})
    print(f"rpe: translation {rpe_report.trans_err_pct:.3f}% "
          f"rotation {rpe_report.rot_err_deg:.5f} deg/frame "
          f"({rpe_report.skipped_frames} degenerate frames skipped)")
    print(f"ate rmse: {ate_report.rmse:.4f} m")
    print(f"reports in {out}")
    return 0


def cmd_plot(args) -> int:
    source = Path(args.report)
    if not source.exists():
        raise UsageError(f"input file not found: {source}")
    svg = plot_csv(source, metric=args.metric)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    svgplot.save_plot(svg, args.out)
    print(f"wrote {args.out}")
    return 0


# the exact header of each report CSV -> (file name, x column, ((legend label, y column),
# ...), title, x label, y label); a y label of None marks the ablation report, drawn per mode
PLOTS = {
    "epoch,stage,alpha,train_loss,val_loss": (
        "runlog.csv", "epoch",
        (("train loss", "train_loss"), ("validation loss", "val_loss")),
        "training curve", "epoch", "loss (per step)"),
    "length_m,translation_error_pct,rotation_error_deg_per_m,segments": (
        "segment_errors.csv", "length_m",
        (("translation [% of length]", "translation_error_pct"),
         ("rotation [deg/m]", "rotation_error_deg_per_m")),
        "segment errors vs path length", "segment length [m]", "error"),
    "error_m,fraction": (
        "ate_cdf.csv", "error_m", (("absolute position error", "fraction"),),
        "CDF of absolute position errors", "error [m]", "fraction of frames"),
    "frame,position_error_m": (
        "ate.csv", "frame", (("absolute position error", "position_error_m"),),
        "absolute position error per frame", "frame", "error [m]"),
    "mode,seed,stage,val_relative_loss,segment_trans_pct,segment_rot_deg_per_m": (
        "ablation.csv", "stage",
        (("segment translation error [%]", "segment_trans_pct"),
         ("segment rotation error [deg/m]", "segment_rot_deg_per_m")),
        "objective schedules compared", "training stage", None),
    "alpha,trans_err_m,rot_err_deg,trans_norm,rot_norm": (
        "sweep.csv", "alpha",
        (("translation (normalized)", "trans_norm"), ("rotation (normalized)", "rot_norm")),
        "first-stage error vs alpha", "alpha", "normalized error"),
}


def plot_csv(source, metric="trans") -> str:
    """The SVG of a report CSV, looked up in ``PLOTS`` by its exact header. An
    ablation report draws, per mode, the mean over seeds of each stage's ``metric``
    (its first y column for "trans", its second for "rot")."""
    header, rows = geo.read_csv(source)
    if not rows:
        raise ValueError(f"{source}: no data rows to plot")
    kind = ",".join(header)
    if kind not in PLOTS:
        raise ValueError(f"unrecognized report header: {kind}; curvo plot draws "
                         + ", ".join(entry[0] for entry in PLOTS.values()))
    _, x_name, ys, title, xlabel, ylabel = PLOTS[kind]
    # each column's text fields, which line_plot reads as floats; a ragged row is an error
    columns = dict(zip(header, zip(*rows, strict=True)))
    if ylabel is not None:
        series = [(label, columns[x_name], columns[name]) for label, name in ys]
    else:
        ylabel, name = ys[("trans", "rot").index(metric)]
        series = []
        for mode in dict.fromkeys(columns["mode"]):
            by_stage: dict[float, list[float]] = {}
            for row_mode, stage, value in zip(columns["mode"], columns[x_name], columns[name]):
                if row_mode == mode:
                    by_stage.setdefault(float(stage) + 1, []).append(float(value))
            stages = sorted(by_stage)
            series.append((mode, stages, [np.mean(by_stage[s]) for s in stages]))
    return svgplot.line_plot(series, title=title, xlabel=xlabel, ylabel=ylabel)


# --- argument parsing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="curvo", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"curvo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    p.add_argument("--preset", choices=sorted(sd.MOTION_PRESETS), default="walker")
    p.add_argument("--sequences", type=int, default=5)
    p.add_argument("--length", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=8)
    p.add_argument("--nuisance-dim", dest="nuisance_dim", type=int, default=2)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.02)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run the staged training loop")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    # every run is seeded from --seeds, so a --seed must not pass as its abbreviation
    p = sub.add_parser("ablate", help="compare objective schedules on shared data",
                       allow_abbrev=False)
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", default="0,1", help="comma-separated seeds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("alpha-sweep", help="first-stage training at fixed alphas")
    p.add_argument("--config", required=True)
    p.add_argument("--alphas", default="0,0.25,0.5,0.75,1")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_alpha_sweep)

    p = sub.add_parser("eval", help="compare two pose files")
    p.add_argument("--gt", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--segments", default="5,10,15,20,25,30,35,40")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render a report CSV as SVG")
    p.add_argument("--report", required=True)
    p.add_argument("--metric", choices=("trans", "rot"), default="trans",
                   help="series for ablation reports")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"curvo: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"curvo: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
