"""Staged objective scheduling with plateau-triggered transitions.

A schedule is plain data: the loss weights of each stage, in order, and one
stop rule that every stage shares (patience on relative validation-loss
improvement, capped by a maximum epoch count). ``trainer.RunConfig`` makes one
stage per alpha, in the order given, so the alpha tuple alone tells schedules
apart: the standard ramp (1, 0.5, 0.1) moves from relative terms only to a
small final value that emphasizes the window composite, its reversal
(0.1, 0.5, 1) is the anti-curriculum, and a repeated single value is a fixed
baseline.

The scheduler sees nothing but the validation-loss sequence, so replaying a
recorded sequence reproduces the exact same transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .loss import LossWeights

DEFAULT_ALPHAS = (1.0, 0.5, 0.1)


@dataclass(frozen=True)
class CurriculumSchedule:
    """The loss weights of each stage, in order, and the stop rule they share."""

    stages: tuple[LossWeights, ...]
    max_epochs: int
    patience: int
    min_delta: float  # relative improvement threshold

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a schedule needs at least one stage")
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.min_delta < 0:
            raise ValueError("min_delta must be >= 0")


@dataclass(frozen=True)
class StageProgress:
    stage_index: int = 0
    epochs_in_stage: int = 0
    best_loss: float | None = None
    epochs_since_improvement: int = 0
    complete: bool = False


def advance(
    progress: StageProgress, validation_loss: float, schedule: CurriculumSchedule
) -> tuple[StageProgress, bool]:
    """Consume one epoch's validation loss; maybe step to the next stage.

    Relative improvement over the stage best beyond min_delta resets the
    patience counter; exhausting patience or the stage epoch cap triggers a
    transition. Stepping past the last stage marks training complete.
    """
    if progress.complete:
        return progress, False
    epochs = progress.epochs_in_stage + 1
    best = progress.best_loss
    if best is None or (best - validation_loss) / max(abs(best), 1e-12) > schedule.min_delta:
        best = validation_loss
        stalled = 0
    else:
        stalled = progress.epochs_since_improvement + 1
    if stalled >= schedule.patience or epochs >= schedule.max_epochs:
        next_index = progress.stage_index + 1
        done = next_index >= len(schedule.stages)
        return StageProgress(stage_index=next_index, complete=done), True
    return replace(
        progress, epochs_in_stage=epochs, best_loss=best, epochs_since_improvement=stalled
    ), False
