"""Trajectory accuracy metrics in the KITTI reporting style.

Three views of the same comparison, all computed without any alignment or
scale correction between the two trajectories:

- segment errors: for every start frame, find the frame where the ground-truth
  path length first reaches each requested length L; the relative-pose
  mismatch over that span is reported as translation %% of L and rotation
  degrees per meter, averaged over all spans.
- frame-to-frame errors: mismatch of consecutive-step relatives; translation
  as %% of the true step length (steps under 1e-6 m are skipped and counted),
  rotation as degrees per frame.
- absolute errors: per-frame Euclidean position error plus its empirical CDF.

Rotation mismatch is always the geodesic angle of the error rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo

DEGENERATE_MOTION = 1e-6  # meters; frames below this are skipped in rpe
VEHICLE_SEGMENT_LENGTHS = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0)
WALKER_SEGMENT_LENGTHS = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)


class SegmentTooLongError(ValueError):
    """No requested segment length fits inside the ground-truth path."""


@dataclass(frozen=True)
class SegmentErrorReport:
    lengths: tuple[float, ...]
    trans_err_pct: tuple[float, ...]  # translation error as % of segment length
    rot_err_deg_per_m: tuple[float, ...]
    segment_counts: tuple[int, ...]

    def mean_trans_pct(self) -> float:
        return float(np.mean(self.trans_err_pct))

    def mean_rot_deg_per_m(self) -> float:
        return float(np.mean(self.rot_err_deg_per_m))


@dataclass(frozen=True)
class RpeReport:
    trans_err_pct: float
    rot_err_deg: float  # per frame
    skipped_frames: int
    frames: int


@dataclass(frozen=True)
class AteReport:
    errors: np.ndarray  # per-frame position error, meters
    rmse: float
    cdf_values: np.ndarray
    cdf_fractions: np.ndarray


def _check_aligned(gt: geo.Trajectory, est: geo.Trajectory) -> None:
    if len(gt) != len(est):
        raise ValueError(f"trajectories differ in length: {len(gt)} vs {len(est)}")


def _relatives(traj: geo.Trajectory, start: np.ndarray, end: np.ndarray):
    """The relative pose inv(T_start) T_end per index pair, as ``geometry._between`` rows."""
    positions, quaternions = traj.positions, traj.quaternions
    return geo._between(positions[start], quaternions[start], positions[end], quaternions[end])


def _mismatch(gt_rel, est_rel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of the mismatch inv(gt_rel) est_rel: its translation norm and geodesic
    angle 2 atan2(|v|, |w|) (radians), plus the norm of the gt_rel translation."""
    t, q = geo._between(*gt_rel, *est_rel)
    angle = 2.0 * np.arctan2(np.linalg.norm(q[:, 1:], axis=1), np.abs(q[:, 0]))
    return np.linalg.norm(t, axis=1), angle, np.linalg.norm(gt_rel[0], axis=1)


def _segment_spans(gt: geo.Trajectory, lengths) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(length, start frames, end frames) of each requested length that has a span.

    For each start frame the end frame is the first whose accumulated
    ground-truth path length reaches L. Requested lengths with no valid span
    are dropped; if none survives, SegmentTooLongError is raised.
    """
    steps = np.linalg.norm(np.diff(gt.positions, axis=0), axis=1)
    distances = np.concatenate([[0.0], np.cumsum(steps)])
    starts = np.arange(len(gt))
    spans = []
    for length in lengths:
        if length <= 0:
            raise ValueError(f"segment length must be positive, got {length}")
        # the first frame at or past the target path length, and never the start itself
        ends = np.maximum(np.searchsorted(distances, distances + length), starts + 1)
        fits = ends < len(gt)
        if fits.any():
            spans.append((float(length), starts[fits], ends[fits]))
    if not spans:
        raise SegmentTooLongError(
            f"no segment of any requested length fits a path of {distances[-1]:.3f} m"
        )
    return spans


def segment_errors(gt: geo.Trajectory, est: geo.Trajectory, lengths) -> SegmentErrorReport:
    """Average pose drift over all spans of each requested path length, as
    ``_segment_spans`` finds them."""
    _check_aligned(gt, est)
    spans = _segment_spans(gt, lengths)
    # one call for the spans of every length: a row's bits do not depend on its company
    out_lengths, start, end = zip(*spans)
    start, end = np.concatenate(start), np.concatenate(end)
    trans, angle, _ = _mismatch(_relatives(gt, start, end), _relatives(est, start, end))
    counts = tuple(len(s) for _, s, _ in spans)
    trans, angle = (np.split(x, np.cumsum(counts)[:-1]) for x in (trans, angle))
    return SegmentErrorReport(
        out_lengths,
        tuple(float(np.mean(t / length * 100.0)) for t, length in zip(trans, out_lengths)),
        tuple(float(np.mean(np.degrees(a) / length)) for a, length in zip(angle, out_lengths)),
        counts,
    )


def rpe(gt: geo.Trajectory, est: geo.Trajectory) -> RpeReport:
    """Frame-to-frame relative-pose mismatch, averaged over the sequence."""
    _check_aligned(gt, est)
    frames = len(gt) - 1
    start = np.arange(frames)
    trans, angle, motion = _mismatch(_relatives(gt, start, start + 1),
                                     _relatives(est, start, start + 1))
    moving = motion > DEGENERATE_MOTION
    trans_pct = trans[moving] / motion[moving] * 100.0
    return RpeReport(
        trans_err_pct=float(np.mean(trans_pct)) if len(trans_pct) else 0.0,
        rot_err_deg=float(np.mean(np.degrees(angle))) if frames else 0.0,
        skipped_frames=int(frames - moving.sum()),
        frames=frames,
    )


def ate(gt: geo.Trajectory, est: geo.Trajectory) -> AteReport:
    """Per-frame absolute position error and its empirical CDF."""
    _check_aligned(gt, est)
    errors = np.linalg.norm(gt.positions - est.positions, axis=1)
    order = np.sort(errors)
    fractions = np.arange(1, len(order) + 1) / len(order)
    return AteReport(
        errors=errors,
        rmse=float(np.sqrt(np.mean(errors**2))),
        cdf_values=order,
        cdf_fractions=fractions,
    )


# --- CSV report writers -------------------------------------------------------


def write_segment_csv(report: SegmentErrorReport, path) -> None:
    geo.write_csv(
        path,
        ("length_m", "translation_error_pct", "rotation_error_deg_per_m", "segments"),
        zip(report.lengths, report.trans_err_pct, report.rot_err_deg_per_m, report.segment_counts),
    )


def write_rpe_csv(report: RpeReport, path) -> None:
    geo.write_csv(
        path,
        ("translation_error_pct", "rotation_error_deg_per_frame", "skipped_frames", "frames"),
        [(report.trans_err_pct, report.rot_err_deg, report.skipped_frames, report.frames)],
    )


def write_ate_csv(report: AteReport, path, cdf_path=None) -> None:
    geo.write_csv(path, ("frame", "position_error_m"), enumerate(report.errors.tolist()))
    if cdf_path is not None:
        geo.write_csv(
            cdf_path,
            ("error_m", "fraction"),
            zip(report.cdf_values.tolist(), report.cdf_fractions.tolist()),
        )
