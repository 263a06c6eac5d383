import pytest

from curvo import curriculum as cur
from curvo import trainer as tr
from curvo.loss import LossWeights


def schedule_of(alphas=cur.DEFAULT_ALPHAS, **overrides):
    """``RunConfig(...).schedule()`` with every setting but the alphas defaulted."""
    settings = dict(zeta=1.0, max_epochs_per_stage=200) | overrides
    return tr.RunConfig(alphas=alphas, **settings).schedule()


def alphas_of(schedule):
    return tuple(weights.alpha for weights in schedule.stages)


def run_schedule(losses, schedule):
    """Feed a loss sequence through advance; return per-epoch stage indices."""
    progress = cur.StageProgress()
    stages, transitions = [], []
    for epoch, value in enumerate(losses, start=1):
        if progress.complete:
            break
        stages.append(progress.stage_index)
        progress, moved = cur.advance(progress, value, schedule)
        if moved:
            transitions.append(epoch)
    return stages, transitions, progress


class TestAdvance:
    def test_decreasing_losses_run_to_epoch_cap(self):
        schedule = schedule_of((1.0,), max_epochs_per_stage=10, patience=3)
        losses = [1.0 / (k + 1) for k in range(20)]
        stages, transitions, progress = run_schedule(losses, schedule)
        assert transitions == [10]
        assert progress.complete

    def test_constant_loss_exhausts_patience(self):
        schedule = schedule_of((1.0,), patience=5)
        losses = [0.5] * 20
        stages, transitions, progress = run_schedule(losses, schedule)
        # first epoch sets the best, then exactly 5 non-improving epochs
        assert transitions == [6]
        assert progress.complete

    def test_min_delta_filters_tiny_improvements(self):
        schedule = schedule_of((1.0,), patience=2, min_delta=1e-3)
        losses = [1.0, 0.9, 0.9001, 0.89999, 0.89]
        stages, transitions, _ = run_schedule(losses, schedule)
        # 0.9 improves; the next two stay within min_delta of 0.9, so the
        # transition fires after exactly 2 stagnant epochs
        assert transitions == [4]

    def test_three_stage_walkthrough(self):
        schedule = schedule_of(max_epochs_per_stage=50, patience=2)
        losses = [1.0] + [1.0] * 2 + [0.8] + [0.8] * 2 + [0.1] + [0.1] * 2
        stages, transitions, progress = run_schedule(losses, schedule)
        assert stages == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert len(transitions) == 3
        assert progress.complete

    def test_counters_reset_on_transition(self):
        schedule = schedule_of(max_epochs_per_stage=50, patience=3)
        progress = cur.StageProgress()
        for value in [1.0, 1.0, 1.0, 1.0]:
            progress, moved = cur.advance(progress, value, schedule)
        assert moved and progress.stage_index == 1
        assert progress.epochs_in_stage == 0
        assert progress.best_loss is None
        assert progress.epochs_since_improvement == 0

    def test_patience_never_exceeded_before_transition(self):
        schedule = schedule_of((1.0,), max_epochs_per_stage=100, patience=4)
        progress = cur.StageProgress()
        for value in [0.5] * 50:
            if progress.complete:
                break
            assert progress.epochs_since_improvement <= 4
            progress, _ = cur.advance(progress, value, schedule)

    def test_replay_reproduces_transitions(self):
        schedule = schedule_of(max_epochs_per_stage=30, patience=3)
        losses = [1.0, 0.7, 0.69, 0.69, 0.69, 0.5, 0.5, 0.5, 0.4, 0.4, 0.4, 0.4]
        first = run_schedule(losses, schedule)
        second = run_schedule(losses, schedule)
        assert first[:2] == second[:2]


class TestCurrentWeights:
    """A stage's weights are ``schedule.stages[progress.stage_index]``."""

    def test_stage_alphas(self):
        schedule = schedule_of()
        assert [schedule.stages[k].alpha for k in range(3)] == [1.0, 0.5, 0.1]

    def test_anti_curriculum_first_stage(self):
        schedule = tr.RunConfig(alphas=cur.DEFAULT_ALPHAS[::-1]).schedule()
        assert schedule.stages[cur.StageProgress().stage_index].alpha == 0.1


class TestScheduleConstruction:
    def test_anti_is_exact_reverse(self):
        config = tr.RunConfig(delta=2.0, zeta=3.0, window=3)
        forward = config.schedule()
        backward = tr._mode_config(config, "anti-curriculum").schedule()
        assert alphas_of(backward) == tuple(reversed(alphas_of(forward)))
        for a, b in zip(forward.stages, reversed(backward.stages)):
            assert a == b

    def test_fixed_has_one_stage(self):
        schedule = tr.RunConfig(alphas=(0.5,), window=2).schedule()
        assert len(schedule.stages) == 1
        assert schedule.stages[0].alpha == 0.5

    def test_defaults(self):
        schedule = tr.RunConfig().schedule()
        assert cur.DEFAULT_ALPHAS == (1.0, 0.5, 0.1)
        assert alphas_of(schedule) == (1.0, 0.5, 0.1)
        assert schedule.max_epochs == 30

    def test_one_stage_per_alpha_in_the_order_given(self):
        schedule = schedule_of((0.1, 1.0, 0.1, 0.5), delta=2.0, zeta=3.0, window=4)
        assert alphas_of(schedule) == (0.1, 1.0, 0.1, 0.5)
        assert {(s.delta, s.zeta, s.window) for s in schedule.stages} == {
            (2.0, 3.0, 4)
        }

    def test_stage_validation(self):
        rule = dict(max_epochs=200, patience=5, min_delta=1e-4)
        stages = (LossWeights(alpha=1.0, delta=1.0, zeta=1.0, window=2),)
        with pytest.raises(ValueError):
            cur.CurriculumSchedule(stages=stages, **(rule | dict(max_epochs=0)))
        with pytest.raises(ValueError):
            cur.CurriculumSchedule(stages=stages, **(rule | dict(patience=0)))
        with pytest.raises(ValueError):
            cur.CurriculumSchedule(stages=(), **rule)
        with pytest.raises(ValueError):
            schedule_of(())
