"""sim._schedule, the block schedule of sim.run, against a brute-force model of synthetic failures.

No simulation runs here. The model decides which values fail from the call of a stepper that last wrote
them; it drives the schedule as run does, and it stands in for run's steppers, so that run's own checks
and clears take the same calls.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delaycomp import sim
from delaycomp.control import Gain, origin_setpoint
from delaycomp.robot import LtiPlant
from delaycomp.sim import _LIFT_MIN, _SCAN_BLOCK, Scenario, run


class Model:
    """A run over rows 0..steps, stepped in ``kind``'s whole blocks (a "fold" of the whole run, or "lift"
    blocks of L rows) or one step at a time alone ("rows", in spans of L). Step j writes u_j and x_{j+1}.

    Its synthetic failures: the per-step loop's first state past the limit is at row ``true`` (steps + 1
    if it completes), and its control at row ``control`` is not finite. The states that a fold call writes
    ``power`` or more rows after its first fail (they use an overflowing power of F). A lifted call that
    takes step ``spurious`` fails there, where the per-step loop passes: in the control u_spurious, or in
    the state it writes if ``spurious_state``."""

    def __init__(self, steps, kind, L, true, control=None, power=None, spurious=None, spurious_state=False):
        self.steps, self.kind, self.L, self.true, self.control = steps, kind, L, true, control
        self.power, self.spurious, self.spurious_state = power, spurious, spurious_state
        self.calls = []  # (k0, k1, stepper) in order
        self.writer = np.full(steps + 1, -1)  # the call that last took each step

    def take(self, k0, k1, stepper):
        self.calls.append((k0, k1, stepper))
        self.writer[k0:k1] = len(self.calls) - 1

    def state_fails(self, j):
        k0, _, stepper = self.calls[self.writer[j - 1]] if j else (0, 0, "rows")
        return j >= self.true or (stepper == "fold" and self.power is not None and j - k0 >= self.power) or (
            stepper == "lift" and self.spurious_state and j - 1 == self.spurious)

    def control_fails(self, j):
        return j == self.control or (
            self.calls[self.writer[j]][2] == "lift" and not self.spurious_state and j == self.spurious)

    def first_failure(self, k0, k1, whole):
        """The check of a span: (row, state passed) of its first failing state, rows k0..k1 - 1, and, if
        ``whole``, row k1 but not row steps + 1, or control, rows k0..k1 - 1; None if all pass."""
        rows = range(k0, min(k1 + whole, self.steps + 1))
        row = next((j for j in rows if self.state_fails(j) or whole and j < k1 and self.control_fails(j)), None)
        return None if row is None else (row, not self.state_fails(row))

    def drive(self):
        """Drive ``sim._schedule`` as ``run`` does, sending it each span's check. Returns the first failing
        row of the last span sent, where the run ends (None if it completed), whether the last call to take
        each step passed its check there, and the failing lifted blocks (first step, end, index of the next
        call). Asserts at each call that no step from its k0 on holds a write made since that step was last
        cleared."""
        good, dirty = np.zeros(self.steps + 1, bool), np.zeros(self.steps + 1, bool)
        failed_blocks, failure = [], None
        schedule = sim._schedule(self.steps, self.steps + 1 if self.kind == "fold" else self.L, self.kind != "rows")
        while span := schedule.send(failure):
            k0, k1, whole, clear = span
            assert 0 <= k0 < k1 <= self.steps + 1 and k0 <= clear <= self.steps + 1
            dirty[k0:clear] = False
            # the lifted passes add to their slots, and the per-step control map reads state slots past row k
            assert not dirty[k0:].any()
            self.take(k0, k1, self.kind if whole else "rows")
            good[k0:k1] = dirty[k0:k1] = True
            failure = self.first_failure(k0, k1, whole)
            if failure and whole:
                # the step that wrote the failing value; a call's steps before it passed, as every value of a
                # fold or lifted block comes from those of earlier rows alone
                row, passed = failure
                wrote = row if passed else row - 1
                good[max(k0, wrote):k1] = False
                if self.kind == "lift" and wrote >= k0:
                    first = k0 + (wrote - k0) // self.L * self.L
                    failed_blocks.append((first, min(first + self.L, k1), len(self.calls)))
        return None if failure is None else failure[0], good, failed_blocks

    def run(self):
        """``sim.run`` on a scalar loop whose steppers are stand-ins: each takes the model's call and
        writes 0.5, or, where the model fails a value, 2.0 (past the threshold 1) for a state and inf for
        a control. Each asserts that the record holds nothing from its first step on: run cleared those
        rows, or never wrote them."""
        lag = 0 if self.kind == "fold" else 3
        plant = LtiPlant(np.array([[0.0]]), np.array([[1.0]]), lag * 0.01)
        scenario = Scenario(plant=plant, gain=Gain.for_plant(np.array([[-1.0]]), plant),
                            setpoint=origin_setpoint(plant), controller="nodelay" if lag == 0 else "naive",
                            x0=np.array([2.0 if self.true == 0 else 0.5]), dt=0.01, T=self.steps * 0.01,
                            divergence_threshold=1.0)

        def stand_in(stepper, x_out, u_out):
            def step(k0, k1):
                assert not (x_out[k0:].any() or u_out[k0:].any())
                self.take(k0, k1, stepper)
                for j in range(k0, k1):
                    u_out[j] = math.inf if self.control_fails(j) else 0.5
                    x_out[j] = 2.0 if self.state_fails(j + 1) else 0.5
            return step

        def per_step(ctl_in, u_out, rec, x_out, control_map, plant_map, e_max):
            return stand_in("rows", x_out, u_out)

        def fold(rec, ctl_in, u_out, control_map, plant_map, Bd):
            return self.steps + 1, stand_in("fold", rec[1:, :1], u_out)

        def lift(rec, control_map, plant_map, L, N):
            return self.L, stand_in("lift", rec[1:, :1], rec[N:, 2:]) if self.kind == "lift" else None
        with pytest.MonkeyPatch.context() as patch:
            for name, stepper in (("_steps", per_step), ("_fold", fold), ("_lift", lift)):
                patch.setattr(sim, name, stepper)
            return run(scenario)[0]


def rows_stepped(model) -> int:
    return sum(k1 - k0 for k0, k1, stepper in model.calls if stepper == "rows")


def rows_lifted(model) -> int:
    return sum(k1 - k0 for k0, k1, stepper in model.calls if stepper == "lift")


@st.composite
def worlds(draw):
    kind = draw(st.sampled_from(["fold", "lift", "rows"]))
    steps = draw(st.integers(_LIFT_MIN if kind == "lift" else 1, 2000))
    if kind == "fold":
        L = steps + 1
    else:
        L = draw(st.integers(_LIFT_MIN, min(_SCAN_BLOCK, steps + 1)) if kind == "lift" else st.integers(1, _SCAN_BLOCK))

    def row(top):  # a row in 0..top, often at or beside a multiple of L or of _SCAN_BLOCK
        unit = draw(st.sampled_from([L, _SCAN_BLOCK]))
        near = st.builds(lambda q, d: q * unit + d, st.integers(0, top // unit + 1), st.integers(-1, 1))
        return min(max(draw(st.integers(0, top) | near), 0), top)

    true = steps + 1 if draw(st.booleans()) else row(steps + 1)
    world = dict(steps=steps, kind=kind, L=L, true=true)
    if true and draw(st.booleans()):
        world["control"] = row(true - 1)
    if kind == "fold" and draw(st.booleans()):
        world["power"] = 1 << draw(st.integers(0, 11))
    if kind == "lift" and draw(st.booleans()):
        world.update(spurious=row(steps), spurious_state=draw(st.booleans()))
    return world


class TestSchedule:
    @settings(max_examples=300, deadline=None)
    @given(world=worlds())
    # a control that fails on the first row of a lifted block past a span's first: the failing block starts at
    # that row, not one block before it (a restart from the block before lifts the failing block again)
    @example(world=dict(steps=1000, kind="lift", L=64, true=1001, spurious=256))
    @example(world=dict(steps=1000, kind="lift", L=128, true=1001, spurious=512))
    # blocks of 128 rows in spans from rows 0, 128, 384 and 896: the rows of a failed span past the window
    # stepped again one at a time are cleared before they are lifted again
    @example(world=dict(steps=2000, kind="lift", L=128, true=2001, spurious=168))
    @example(world=dict(steps=2000, kind="lift", L=128, true=2001, spurious=639, spurious_state=True))
    @example(world=dict(steps=2000, kind="lift", L=128, true=2001, spurious=1000, spurious_state=True))
    # a state that fails just past a lifted block's last row is stepped from the window holding the row before it
    @example(world=dict(steps=1000, kind="lift", L=64, true=512))
    # states past the limit only after the horizon, at row steps + 1, which is not recorded
    @example(world=dict(steps=1000, kind="fold", L=1001, true=1001))
    @example(world=dict(steps=1000, kind="lift", L=100, true=1001))
    def test_matches_model(self, world):
        model = Model(**world)
        cut, good, failed_blocks = model.drive()
        steps, true, L = world["steps"], world["true"], world["L"]
        # a span stepped one at a time cuts the run exactly at the true failure
        assert cut == (true if true <= steps else None)
        # every step up to it was last taken by a call that passed there
        assert good[:min(true, steps + 1)].all()
        # no failing lifted block is lifted twice
        for first, end, later in failed_blocks:
            assert not any(k0 < end and first < k1 for k0, k1, stepper in model.calls[later:] if stepper == "lift")
        # the re-step bounds: a span stepped one at a time is at most one _SCAN_BLOCK window, after
        # each failed span, which whole blocks follow, or spans stepped one at a time to the end
        assert all(k1 - k0 <= _SCAN_BLOCK for k0, k1, stepper in model.calls if stepper == "rows")
        kinds = [stepper for _, _, stepper in model.calls]
        for i in range(1, len(kinds)):
            if kinds[i - 1] == kinds[i] == "rows":
                assert set(kinds[i:]) == {"rows"}
        only_true = world.get("control") is None and world.get("spurious") is None
        if world["kind"] == "fold" and only_true and world.get("power", math.inf) > _LIFT_MIN:
            # a fold fails once on its first overflowing power, and once more on a true failure
            # that the window stepped one at a time after that does not hold
            assert rows_stepped(model) <= 2 * _SCAN_BLOCK
            if true > steps or true <= world.get("power", math.inf):
                assert rows_stepped(model) <= _SCAN_BLOCK
        if world["kind"] == "lift" and only_true:
            # doubling spans lift at most twice the rows up to the first failure
            assert rows_lifted(model) <= 2 * L * math.ceil(max(min(true, steps + 1), 1) / L)

        # run, with its own checks and clears, takes the same calls, and ends where the model does
        in_run = Model(**world)
        traj = in_run.run()
        assert in_run.calls == model.calls
        if cut is None:
            assert (traj.status, len(traj.t), traj.t_d) == ("completed", steps + 1, None)
        else:
            assert (traj.status, len(traj.t), traj.t_d) == ("diverged", cut + 1, cut * 0.01)

    # fold_overflow_scenario's runs (tests/test_sim.py): at dt = 20, F^128 overflows, and the states of
    # x0 = (1, 0) pass the float range at row 116, those of x0 = (1e-300, 0) at row 229
    @pytest.mark.parametrize("steps", [300, 3000])
    @pytest.mark.parametrize("true", [116, 229])
    def test_fold_restep_within_scan_block(self, steps, true):
        # PR 17's bound: a diverging fold run steps at most _SCAN_BLOCK rows one at a time
        model = Model(steps, "fold", steps + 1, true, power=128)
        assert model.drive()[0] == true
        assert 0 < rows_stepped(model) <= _SCAN_BLOCK

    @pytest.mark.parametrize("steps", [300, 3000])
    def test_fold_restep_once_on_completing_run(self, steps):
        # PR 19's bound: x0 = (0, 0) completes, and the fold fails once, on F^128, so one window
        # of _SCAN_BLOCK rows is stepped one at a time (1477 of 3001 rows before PR 19)
        model = Model(steps, "fold", steps + 1, steps + 1, power=128)
        assert model.drive()[0] is None
        assert [stepper for _, _, stepper in model.calls].count("rows") == 1
        assert rows_stepped(model) == _SCAN_BLOCK

    @pytest.mark.parametrize("whole", [False, True])
    def test_failed_row_span_ends_schedule(self, whole):
        # a failure sent at a span stepped one at a time ends the schedule, also on the span that steps a
        # failed span of whole blocks again; run ends at that failure
        schedule = sim._schedule(1000, 64 if whole else _SCAN_BLOCK, whole)
        assert schedule.send(None) == (0, 64 if whole else _SCAN_BLOCK, whole, 0)
        if whole:
            assert schedule.send((10, False)) == (0, 64, False, 64)
        assert schedule.send((10, False)) == ()

    def test_lifted_rows_within_twice_the_run(self):
        # PR 20's bound: the frictionless robot under naive feedback at h = 0.3 s diverges at row 1496
        # of 40001 in lifted blocks of L = 64, and lifts at most 2 L ceil(1496 / L) rows
        model = Model(40000, "lift", 64, 1496)
        assert model.drive()[0] == 1496
        assert rows_lifted(model) <= 2 * 64 * math.ceil(1496 / 64)
