"""Actuation: proportional step, motor, finger plant, safety envelope, episode loop."""

import contextlib
import hashlib
import json
import math
import re
import struct
import tracemalloc
from dataclasses import astuple, fields, replace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import exobench
from exobench import controller, protocol
from exobench.controller import (
    CONTROL_DT_S,
    FSM_STATES,
    KP,
    TENSION_CAP_N,
    Episode,
    MotorState,
    RomCalibration,
    TrajectoryColumns,
    TrajectoryLog,
    calibrate_rom,
    default_plant,
    flexed_plant,
    run_episode,
    run_episodes,
)
from exobench.signals import IntentLabel
from exobench.subject import Subject
from reference import (
    OPEN_THRESHOLD_DEG,
    ControllerState,
    MotorRecord,
    count_direction_reversals,
    events,
    passive_energy,
    proportional_step,
    select_setpoint,
    settle_fsm,
    step_motor,
    step_plant,
    stream,
    tick_commands,
    time_to_open,
)

OPEN, RELAX, CLOSE = IntentLabel.OPEN, IntentLabel.RELAX, IntentLabel.CLOSE
_LABELS = tuple(IntentLabel)


@pytest.fixture
def empty_engine_tables():
    """Run the test from an empty engine table (the remembered states, and
    the constants they were stepped under), so it does not depend on what
    an earlier test stepped. Gives a context manager that runs a block from
    an empty table of its own and puts the test's back after it."""
    @contextlib.contextmanager
    def empty():
        with mock.patch.multiple(controller, _STATES={}, _TABLES_UNDER=b""):
            yield

    with empty():
        yield empty


def _run_to_end(episode):
    """``run_episode``'s log of an episode that must break no safety invariant."""
    log = run_episode(episode)
    assert log.abort is None, log.abort
    return log


class TestRom:
    def test_size_table(self):
        assert calibrate_rom("S").extended_mm == 38.0
        assert calibrate_rom("M").extended_mm == 45.0
        assert calibrate_rom("L").extended_mm == 52.0
        assert calibrate_rom("M").retracted_mm == 0.0

    def test_unknown_size(self):
        for read in (calibrate_rom, default_plant):
            with pytest.raises(ValueError, match=re.escape(
                    "unknown hand size 'XXL'; expected one of S, M, L")):
                read("XXL")

    def test_tables_are_keyed_as_declared(self):
        # config checks --hand-size and --mas against the numpy-free copies.
        assert tuple(controller.GLOVE_TABLE) == exobench.HAND_SIZES
        assert tuple(controller.MAS_STIFFNESS) == exobench.MAS_GRADES

    @pytest.mark.parametrize("setpoints", [(0.0, math.inf), (0.0, 60.0), (-1.0, 40.0)])
    def test_rejects_setpoints_beyond_the_travel(self, setpoints):
        # The motor stops at TRAVEL_MM: a slack setpoint past it is never
        # reached, so the move would never settle.
        with pytest.raises(ValueError, match="within the 0-55 mm travel"):
            RomCalibration(*setpoints)

    def test_accepts_a_setpoint_at_the_end_of_the_travel(self):
        assert RomCalibration(0.0, controller.TRAVEL_MM).extended_mm == 55.0


class TestPid:
    """The position loop: the proportional term of a PID, with no I or D."""

    def test_proportional_only_effort(self):
        assert proportional_step(setpoint=1.0, measured=0.5) == KP * 0.5

    def test_output_clamp(self):
        assert proportional_step(10.0, 0.0) == 1.0
        assert proportional_step(-10.0, 0.0) == -1.0

    def test_default_gains_are_proportional_only(self):
        # The engine's effort on each tick is the saturated proportional step
        # on that tick's setpoint and the excursion the tick starts from;
        # before the first command it is 0. No other term adds to it.
        rom = calibrate_rom("M")
        start = MotorState(20.0, 3.0)
        log = _run_to_end(Episode(stream([(0.2, OPEN), (1.5, CLOSE), (2.0, RELAX), (2.1, OPEN)]),
                                  3.0, rom, plant=flexed_plant("M"), initial_motor=start))
        ticks = log.ticks
        x_before = np.concatenate(([start.excursion_mm], ticks.excursion_mm[:-1]))
        commanded = ~np.isnan(ticks.setpoint_mm)
        assert commanded.any() and not commanded.all()
        assert np.all(ticks.effort[~commanded] == 0.0)
        expected = [proportional_step(sp, x) for sp, x in
                    zip(ticks.setpoint_mm[commanded].tolist(), x_before[commanded].tolist())]
        assert ticks.effort[commanded].tolist() == expected
        assert np.any(np.abs(ticks.effort) == 1.0) and np.any(np.abs(ticks.effort[commanded]) < 1.0)


class TestMotor:
    def test_max_speed_from_drivetrain(self):
        expected = (controller.NO_LOAD_RPM / controller.GEAR_RATIO / 60.0 * 2.0 * math.pi
                    * controller.SPOOL_RADIUS_MM)
        assert controller.MAX_SPEED_MM_S == pytest.approx(expected)
        assert controller.MAX_SPEED_MM_S == pytest.approx(24.0633, abs=1e-3)

    def test_gear_ratio_pinned(self):
        assert controller.GEAR_RATIO == 47.0

    @pytest.mark.parametrize("field", ["gear_ratio", "no_load_rpm", "spool_radius_mm",
                                       "time_constant_s", "travel_mm"])
    @pytest.mark.parametrize("value", [0.0, -0.01, -5.0, math.nan, math.inf])
    def test_rejects_non_positive_or_non_finite_params(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            controller._drive_param(field, value)

    def test_velocity_lag_approaches_target(self):
        motor = MotorRecord(excursion_mm=10.0)
        for _ in range(200):
            motor = step_motor(motor, 0.5)
        assert motor.velocity_mm_s == pytest.approx(0.5 * controller.MAX_SPEED_MM_S, rel=1e-3)

    def test_travel_stops(self):
        motor = MotorRecord(excursion_mm=0.5)
        for _ in range(100):
            motor = step_motor(motor, -1.0)
        assert motor.excursion_mm == 0.0
        assert motor.velocity_mm_s == 0.0
        motor = MotorRecord(excursion_mm=controller.TRAVEL_MM - 0.5)
        for _ in range(100):
            motor = step_motor(motor, 1.0)
        assert motor.excursion_mm == controller.TRAVEL_MM


class TestPlant:
    def test_rest_pose_with_slack_cable_is_equilibrium(self):
        plant = default_plant("M")
        motor = MotorRecord(excursion_mm=float(plant.cable_take_up_mm().max()))
        stepped, stepped_motor = step_plant(plant, motor)
        assert np.array_equal(stepped.angles_deg, plant.angles_deg)
        assert stepped_motor.tension_n == 0.0

    def test_tension_cap_is_exact_and_pro_rata(self):
        plant = flexed_plant("M", 4.0)
        motor = MotorRecord(excursion_mm=0.0)
        take_up = plant.cable_take_up_mm()
        raw = controller.TENDON_STIFFNESS_N_MM * np.maximum(take_up, 0.0)
        assert raw.sum() > TENSION_CAP_N
        _plant, stepped = step_plant(plant, motor)
        assert stepped.tension_n == TENSION_CAP_N

    def test_hyperextension_block(self):
        plant = default_plant("M", angles_deg=np.full((4, 2), 1.0))
        motor = MotorRecord(excursion_mm=0.0)
        for _ in range(400):
            plant, motor = step_plant(plant, motor, voluntary_nmm=-5000.0)
        assert np.all(plant.angles_deg >= 0.0)
        assert np.any(plant.angles_deg == 0.0)

    def test_flexion_stop(self):
        plant = default_plant("M")
        motor = MotorRecord(excursion_mm=float(plant.cable_take_up_mm().max()))
        for _ in range(400):
            plant, motor = step_plant(plant, motor, voluntary_nmm=5000.0)
        assert np.all(plant.angles_deg <= controller.MAX_DEG)

    @pytest.mark.parametrize("field", ["angles_deg", "stiffness_nmm_deg", "moment_arm_mm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, field, value):
        plant = default_plant("M")
        arr = getattr(plant, field).copy()
        arr[2, 1] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(plant, **{field: arr})

    @pytest.mark.parametrize("arm", [0.0, -0.0, -13.0])
    def test_rejects_a_moment_arm_that_is_not_positive(self, arm):
        # A cable on a zero or negative arm pulls no joint open.
        plant = default_plant("M")
        arms = plant.moment_arm_mm.copy()
        arms[1, 0] = arm
        with pytest.raises(ValueError, match="moment arms must be > 0"):
            replace(plant, moment_arm_mm=arms)

    def test_keeps_read_only_copies_of_the_arrays_it_checked(self):
        names = ("angles_deg", "stiffness_nmm_deg", "moment_arm_mm")
        arrays = [np.full((4, 2), 30)] + [getattr(default_plant("M"), name).copy() for name in names[1:]]
        plant = controller.HandPlant(*arrays)
        episode = Episode(stream([(0.0, OPEN)]), 0.5, calibrate_rom("M"), plant=plant)
        before = _outcome_bits(run_episode(episode))
        for arr in arrays:
            arr[0, 0] = -1  # the caller's later edits reach no tick
        assert _outcome_bits(run_episode(episode)) == before
        for name in names:
            kept = getattr(plant, name)
            assert kept.dtype == np.float64 and not kept.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = math.nan

    def test_spasticity_scales_stiffness(self):
        mild = default_plant("M", stiffness_scale=1.0)
        severe = default_plant("M", stiffness_scale=4.0)
        assert np.array_equal(severe.stiffness_nmm_deg, 4.0 * mild.stiffness_nmm_deg)

    @given(st.integers(0, 2**32 - 1))
    def test_passive_energy_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0.0, 88.0, size=(4, 2))
        angles[:, 1] = np.minimum(angles[:, 1], 98.0)
        plant = default_plant("M", float(rng.uniform(1.0, 4.0)), angles_deg=angles)
        motor = MotorRecord(excursion_mm=float(rng.uniform(0.0, 50.0)))
        energy = passive_energy(plant, motor)
        for _ in range(20):
            plant, motor = step_plant(plant, motor)
            next_energy = passive_energy(plant, motor)
            assert next_energy <= energy + 1e-9
            energy = next_energy

    def test_unknown_hand_size(self):
        with pytest.raises(ValueError, match="hand size"):
            default_plant("XL")


class TestSetpointSelection:
    ROM = RomCalibration(retracted_mm=0.0, extended_mm=45.0)

    def test_open_commands_retraction(self):
        state = select_setpoint(OPEN, ControllerState(), self.ROM)
        assert state.setpoint_mm == 0.0
        assert state.fsm == "EXTENDING"

    def test_close_commands_extension(self):
        state = select_setpoint(CLOSE, ControllerState(), self.ROM)
        assert state.setpoint_mm == 45.0
        assert state.fsm == "RELEASING"

    def test_relax_holds_current_command(self):
        state = select_setpoint(CLOSE, ControllerState(), self.ROM)
        held = select_setpoint(RELAX, state, self.ROM)
        assert held == state

    def test_relax_before_any_command_has_no_setpoint(self):
        state = select_setpoint(RELAX, ControllerState(), self.ROM)
        assert state.setpoint_mm is None
        assert state.fsm == "IDLE"


class TestEpisode:
    def test_default_open_time_hits_device_figure(self):
        rom = calibrate_rom("M")
        log = _run_to_end(Episode(stream([(0.0, OPEN)]), 2.5, rom, plant=flexed_plant("M")))
        opened = time_to_open(log)
        assert opened is not None
        assert 1.62 <= opened <= 1.98

    def test_safety_envelope_holds_throughout(self):
        rom = calibrate_rom("M")
        log = _run_to_end(Episode(stream([(0.0, OPEN), (2.5, CLOSE)]), 5.0, rom,
                                  plant=flexed_plant("M", 4.0)))
        assert np.all(log.ticks.tension_n <= TENSION_CAP_N + 1e-9)
        assert np.all(log.ticks.angles_deg.min(axis=1) >= 0.0)

    def test_no_overshoot_past_either_setpoint(self):
        # The claim beside KP: the approach to either setpoint never
        # overshoots, for every glove size, spasticity grade and start pose.
        toggle = [(0.15 * k, OPEN if k % 2 else CLOSE) for k in range(14)]
        scripts = [[(0.0, OPEN), (2.5, CLOSE)], [(0.0, CLOSE), (2.5, OPEN)], toggle]
        episodes = [
            Episode(stream(script), 5.0, calibrate_rom(size), plant=make(size, scale))
            for size in ("S", "M", "L")
            for scale in controller.MAS_STIFFNESS.values()
            for make in (default_plant, flexed_plant)
            for script in scripts
        ]
        for episode, log in zip(episodes, run_episodes(episodes)):
            x = log.ticks.excursion_mm
            # The travel stop would clamp an overshoot past the open
            # setpoint to exactly 0, so that side must stay above it.
            assert x.min() > 0.0
            assert x.max() <= episode.rom.extended_mm

    def test_round_trip_has_single_reversal(self):
        rom = calibrate_rom("M")
        log = _run_to_end(Episode(stream([(0.0, OPEN), (2.5, CLOSE)]), 5.0, rom,
                                  plant=flexed_plant("M")))
        assert count_direction_reversals(log) == 1

    def test_relax_only_parks_the_motor(self):
        rom = calibrate_rom("M")
        log = _run_to_end(Episode(stream([(0.0, RELAX)]), 1.0, rom, plant=flexed_plant("M")))
        assert len(set(log.ticks.excursion_mm.tolist())) == 1
        assert count_direction_reversals(log) == 0
        assert np.all(log.ticks.effort == 0.0)
        assert {FSM_STATES[f] for f in log.ticks.fsm.tolist()} == {"IDLE"}

    def test_episode_is_deterministic(self):
        rom = calibrate_rom("L")
        script = [(0.0, OPEN), (2.0, CLOSE)]
        a = _run_to_end(Episode(stream(script), 4.0, rom, plant=flexed_plant("L", 2.0)))
        b = _run_to_end(Episode(stream(script), 4.0, rom, plant=flexed_plant("L", 2.0)))
        assert a.to_jsonl() == b.to_jsonl()

    def test_settles_into_hold_states(self):
        rom = calibrate_rom("M")
        log = _run_to_end(Episode(stream([(0.0, OPEN), (2.5, CLOSE)]), 5.0, rom,
                                  plant=flexed_plant("M")))
        assert FSM_STATES[log.ticks.fsm[-1]] == "HOLD_CLOSED"
        assert "HOLD_OPEN" in {FSM_STATES[f] for f in log.ticks.fsm.tolist()}

    def test_non_finite_disturbance_aborts_with_partial_log(self):
        rom = calibrate_rom("M")

        def disturbance(t: float) -> float:
            return math.nan if t > 0.5 else 0.0

        log = run_episode(Episode(stream([(0.0, OPEN)]), 2.0, rom, plant=flexed_plant("M"),
                                  voluntary_nmm=disturbance))
        assert log.abort.startswith("non-finite")
        assert len(log.ticks) > 0
        assert log.ticks.t[-1] >= 0.5

    def test_close_never_opens(self):
        rom = calibrate_rom("M")
        log = _run_to_end(Episode(stream([(0.0, CLOSE)]), 1.0, rom, plant=flexed_plant("M")))
        assert time_to_open(log) is None

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            Episode(stream([]), 0.0, calibrate_rom("M"))

    def test_rejects_a_duration_of_no_tick(self):
        # 0.002 s rounds to no 5 ms tick, 0.0026 s to one.
        with pytest.raises(ValueError, match=re.escape(
                "a 0.002 s episode holds no 0.005 s control tick")):
            Episode(stream([(0.0, OPEN)]), 0.002, calibrate_rom("M"))
        assert len(_run_to_end(Episode(stream([(0.0, OPEN)]), 0.0026, calibrate_rom("M"))).ticks) == 1

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_duration(self, duration):
        with pytest.raises(ValueError, match=f"duration must be positive and finite, got {duration!r}"):
            Episode(stream([(0.0, OPEN)]), duration, calibrate_rom("M"))

    def test_rejects_unpaired_stream(self):
        with pytest.raises(ValueError, match="one code per event time"):
            Episode((np.zeros(2), np.zeros(3, dtype=np.int64)), 1.0, calibrate_rom("M"))

    @pytest.mark.parametrize("code", [5, -1, 3, 2.7, math.nan, math.inf])
    def test_rejects_code_outside_intent_labels(self, code):
        # 5 and -1 would index past the labels, 2.7 truncate to CLOSE.
        with pytest.raises(ValueError, match=f"intent codes must be IntentLabel indices, "
                                             f"got {code!r}"):
            Episode((np.array([0.0, 0.1]), np.array([0, code])), 1.0, calibrate_rom("M"))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_event_time(self, t):
        # A NaN time would sort last and never apply.
        with pytest.raises(ValueError, match=f"intent event times must be finite, got {t!r}"):
            Episode((np.array([0.0, t]), np.array([0, 2])), 1.0, calibrate_rom("M"))

    def test_integral_float_codes_are_indices(self):
        # Codes are checked by value: `episode`'s array of an empty code list is float64.
        rom = calibrate_rom("M")
        ints = _run_to_end(Episode(stream([(0.0, OPEN), (0.2, CLOSE)]), 0.3, rom))
        floats = _run_to_end(Episode((np.array([0.0, 0.2]), np.array([0.0, 2.0])), 0.3, rom))
        assert ints.to_jsonl() == floats.to_jsonl()

    @pytest.mark.parametrize("times, codes", [
        ([0.0, 0.5], [0, 2]),
        (np.array([0, 1]), np.array([0, 2])),
        (np.array([0.0, 0.5]), np.array([0.0, 2.0])),
        (np.array([0.0, 0.5]), np.array([False, True])),
    ], ids=["lists", "int-times", "float-codes", "bool-codes"])
    def test_a_stream_runs_as_its_float_times_and_int_codes(self, times, codes):
        rom = calibrate_rom("M")
        arrays = np.array(times, dtype=float), np.array(codes, dtype=np.int64)
        got = run_episode(Episode((times, codes), 1.0, rom))
        assert _outcome_bits(got) == _outcome_bits(run_episode(Episode(arrays, 1.0, rom)))
        assert len(got.ticks) == 200

    def test_keeps_a_read_only_copy_of_the_stream_it_checked(self):
        t, codes = np.array([0.0, 0.5]), np.array([0, 2])
        episode = Episode((t, codes), 1.0, calibrate_rom("M"))
        before = _outcome_bits(run_episode(episode))
        t[1], codes[1] = 0.1, 1  # the caller's later edits reach no tick
        assert _outcome_bits(run_episode(episode)) == before
        assert [a.dtype for a in episode.intents] == [np.float64, np.int8]
        assert not any(a.flags.writeable for a in episode.intents)
        with pytest.raises(ValueError, match="read-only"):
            episode.intents[1][0] = 2

    @given(st.data())
    def test_accepts_exactly_the_isin_codes(self, data):
        # The check is three comparisons by value, which must accept what
        # np.isin(codes, range(3)) accepts: 1.0 and True, not 1.5 or NaN.
        dtype, elements = data.draw(st.sampled_from([
            (np.int64, st.sampled_from([-1, 0, 1, 2, 3]) | st.integers(-2**63, 2**63 - 1)),
            (np.float64, st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2.0,
                                          1.5, -1.0, 3.0]) | st.floats()),
            (np.bool_, st.booleans()),
        ]))
        codes = np.array(data.draw(st.lists(elements, max_size=6)), dtype=dtype)
        intents = (np.arange(len(codes)) * 0.01, codes)
        accepted = np.isin(codes, range(len(_LABELS)))
        if accepted.all():
            Episode(intents, 1.0, calibrate_rom("M"))
        else:
            bad = codes[~accepted][0].item()
            with pytest.raises(ValueError, match=re.escape(
                    f"intent codes must be IntentLabel indices, got {bad!r}")):
                Episode(intents, 1.0, calibrate_rom("M"))

    def test_trajectory_jsonl_round_numbers(self):
        rom = calibrate_rom("M")
        log = _run_to_end(Episode(stream([(0.0, OPEN)]), 0.1, rom, plant=flexed_plant("M")))
        text = log.to_jsonl()
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(log.ticks)
        assert '"schema": "exobench/trajectory-v1"' in lines[0].replace('":"', '": "')


def _columns_log(velocity=None, angles=None):
    """A log built from columns: the given velocities or (ticks, 8) angles, zeros elsewhere."""
    n = len(velocity) if velocity is not None else len(angles)
    zeros = np.zeros(n)
    return TrajectoryLog(TrajectoryColumns(
        t=np.arange(n) * CONTROL_DT_S,
        intent=np.zeros(n, dtype=np.int8),
        fsm=np.zeros(n, dtype=np.int8),
        setpoint_mm=np.full(n, np.nan),
        excursion_mm=zeros,
        tension_n=zeros,
        angles_deg=np.zeros((n, 8)) if angles is None else np.asarray(angles, dtype=float),
        velocity_mm_s=zeros if velocity is None else np.asarray(velocity, dtype=float),
        effort=zeros,
    ))


class TestReversalCounting:
    def test_dead_band_suppresses_dither(self):
        assert count_direction_reversals(_columns_log([0.3, -0.3, 0.4, -0.2])) == 0

    def test_counts_real_flips(self):
        assert count_direction_reversals(_columns_log([1.0, 1.2, -1.0, 0.9])) == 2

    def test_slow_crossing_between_fast_legs_ignored(self):
        assert count_direction_reversals(_columns_log([2.0, 0.1, 2.0])) == 0

    def test_edge_of_band_nan_and_zero_count_as_reverse(self):
        assert count_direction_reversals(_columns_log([1.0, -0.5, 1.0]), 0.5) == 2
        assert count_direction_reversals(_columns_log([1.0, 0.0, 1.0]), 0.0) == 2
        assert count_direction_reversals(_columns_log([1.0, math.nan, 1.0])) == 2
        assert count_direction_reversals(_columns_log([])) == 0


class RefTick(NamedTuple):
    """One tick of the scalar reference loop, as a row."""

    t: float
    intent: IntentLabel
    fsm: str
    setpoint_mm: float | None
    excursion_mm: float
    tension_n: float
    angles_deg: tuple[float, ...]
    velocity_mm_s: float
    effort: float


def reference_episode(intents, duration_s, rom, plant, voluntary_nmm=0.0, initial_motor=None):
    """The scalar tick loop, built from the primitives: (ticks, abort diagnostic or None)."""
    if initial_motor is not None:
        motor = MotorRecord(initial_motor.excursion_mm, initial_motor.velocity_mm_s)
    else:
        motor = MotorRecord(excursion_mm=min(plant.cable_take_up_mm().max(), controller.TRAVEL_MM))
    voluntary = voluntary_nmm if callable(voluntary_nmm) else (lambda _t, v=voluntary_nmm: v)
    ordered = sorted(intents, key=lambda e: e[0])
    state = ControllerState()
    ticks = []
    ev = 0
    intent = RELAX
    for i in range(int(round(duration_s / CONTROL_DT_S))):
        t = i * CONTROL_DT_S
        while ev < len(ordered) and ordered[ev][0] <= t:
            intent = ordered[ev][1]
            ev += 1
        state = select_setpoint(intent, state, rom)
        if state.setpoint_mm is None:
            effort = 0.0
        else:
            effort = proportional_step(state.setpoint_mm, motor.excursion_mm)
        motor = step_motor(motor, effort)
        plant, motor = step_plant(plant, motor, voluntary(t))
        state = settle_fsm(state, motor, rom)
        ticks.append(RefTick(
            t=t, intent=intent, fsm=state.fsm, setpoint_mm=state.setpoint_mm,
            excursion_mm=motor.excursion_mm, tension_n=motor.tension_n,
            angles_deg=tuple(plant.angles_deg.reshape(-1).tolist()),
            velocity_mm_s=motor.velocity_mm_s, effort=effort,
        ))
        angles = plant.angles_deg
        if not (np.all(np.isfinite(angles)) and math.isfinite(motor.excursion_mm)):
            return ticks, f"non-finite state at t={t:.3f}"
        if motor.tension_n > TENSION_CAP_N + 1e-9:
            return ticks, f"tension cap breached at t={t:.3f}: {motor.tension_n:.2f} N"
        if np.any(angles < -1e-9):
            return ticks, f"hyperextension block breached at t={t:.3f}"
    return ticks, None


def reference_jsonl(ticks):
    """The trajectory JSONL written from per-tick rows, one ``json.dumps`` per line."""
    def dumps(doc):
        return json.dumps(doc, separators=(",", ":"))

    header = {"schema": controller.TRAJECTORY_SCHEMA, "dt_s": CONTROL_DT_S,
              "joints": [f"{d}_{j}" for d in controller.DIGITS for j in controller.JOINTS]}
    lines = [dumps(header)]
    for tick in ticks:
        lines.append(dumps({
            "t": tick.t, "intent": str(tick.intent), "fsm": tick.fsm, "sp": tick.setpoint_mm,
            "x": tick.excursion_mm, "F": tick.tension_n, "q": list(tick.angles_deg),
        }))
    return "\n".join(lines) + "\n"


def reference_reversals(ticks, min_speed_mm_s=0.5):
    """Motor direction flips, counted tick by tick."""
    reversals = 0
    last_sign = 0
    for tick in ticks:
        v = tick.velocity_mm_s
        if abs(v) < min_speed_mm_s:
            continue
        sign = 1 if v > 0 else -1
        if last_sign and sign != last_sign:
            reversals += 1
        last_sign = sign
    return reversals


def reference_time_to_open(ticks, threshold_deg=OPEN_THRESHOLD_DEG):
    """First tick time whose largest joint angle is below the threshold."""
    for tick in ticks:
        if max(tick.angles_deg) < threshold_deg:
            return tick.t
    return None


def rows(columns):
    """The recorded columns as RefTick rows, row by row."""
    return [
        RefTick(t, _LABELS[intent], FSM_STATES[fsm],
                None if math.isnan(sp) else sp, x, tension, tuple(q), v, effort)
        for t, intent, fsm, sp, x, tension, q, v, effort in zip(
            columns.t.tolist(), columns.intent.tolist(), columns.fsm.tolist(),
            columns.setpoint_mm.tolist(), columns.excursion_mm.tolist(),
            columns.tension_n.tolist(), columns.angles_deg.tolist(),
            columns.velocity_mm_s.tolist(), columns.effort.tolist())
    ]


def _bits(value):
    """A float's bit pattern (every NaN alike); other values as they are."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return value


def _tick_bits(tick):
    return tuple(_bits(value) for value in tick)


def _outcome_bits(log):
    """(diagnostic or None, ticks as bit patterns) of an engine outcome."""
    return log.abort, [_tick_bits(tick) for tick in rows(log.ticks)]


def _reference_bits(episode):
    plant = episode.plant if episode.plant is not None else default_plant()
    ticks, diagnostic = reference_episode(
        events(episode.intents), episode.duration_s, episode.rom, plant,
        episode.voluntary_nmm, episode.initial_motor,
    )
    return diagnostic, [_tick_bits(tick) for tick in ticks]


def _nan_after(t0, torque):
    return lambda t: math.nan if t > t0 else torque


def _count_steps(monkeypatch):
    """One entry per lane-step the engine takes, the diagnostic its lane
    stops with (None if it breaks no invariant): it wraps the per-lane
    recurrence, which returns the ticks it stepped and that diagnostic."""
    steps = []
    step_lane = controller._step_lane

    def counting_step_lane(*args, **kwargs):
        stepped, abort, *rest = step_lane(*args, **kwargs)
        steps.extend([abort] * stepped)
        return stepped, abort, *rest

    monkeypatch.setattr(controller, "_step_lane", counting_step_lane)
    return steps


@pytest.fixture
def engine_steps(monkeypatch):
    """``_count_steps`` installed once for the whole test, so the examples of
    a Hypothesis test share one wrapper instead of stacking their own."""
    return _count_steps(monkeypatch)


_TIMES = st.sampled_from([0.0, 0.005, 0.05, 0.1, 0.25]) | st.floats(0.0, 0.7)


@st.composite
def _episodes(draw):
    size = draw(st.sampled_from(["S", "M", "L"]))
    stiffness = draw(st.floats(0.5, 4.0))
    plant = (flexed_plant if draw(st.booleans()) else default_plant)(size, stiffness)
    script = draw(st.lists(st.tuples(_TIMES, st.sampled_from([OPEN, RELAX, CLOSE])), max_size=6))
    torque = draw(st.just(0.0) | st.floats(-400.0, 400.0))
    nan_at = draw(st.none() | st.floats(0.0, 0.6))
    # Initial motors may start outside the 0-55 mm travel, on either side.
    excursion = st.sampled_from([-2.0, 0.0, 55.0, 58.0]) | st.floats(-5.0, 60.0)
    motor = draw(st.none() | st.builds(MotorState, excursion_mm=excursion,
                                        velocity_mm_s=st.floats(-20.0, 20.0)))
    return Episode(
        intents=stream(script),
        duration_s=draw(st.integers(1, 160)) * CONTROL_DT_S + 0.002,  # rounds to 1-160 ticks
        rom=calibrate_rom(size),
        plant=plant,
        voluntary_nmm=torque if nan_at is None else _nan_after(nan_at, torque),
        initial_motor=motor,
    )


class TestBatchedEngine:
    @settings(max_examples=40)
    @given(st.lists(_episodes(), min_size=1, max_size=5))
    def test_matches_scalar_reference_bit_for_bit(self, episodes):
        outcomes = run_episodes(episodes)
        assert len(outcomes) == len(episodes)
        for episode, outcome in zip(episodes, outcomes):
            assert _outcome_bits(outcome) == _reference_bits(episode)

    def test_nan_episode_aborts_alone(self):
        rom = calibrate_rom("M")
        script = [(0.0, OPEN), (0.6, CLOSE)]
        episodes = [
            Episode(stream(script), 1.0, rom, plant=flexed_plant("M")),
            Episode(stream(script), 1.0, rom, plant=flexed_plant("M"),
                    voluntary_nmm=_nan_after(0.5, 0.0)),
            Episode(stream([(0.1, CLOSE)]), 0.8, calibrate_rom("L"), plant=default_plant("L", 2.0)),
        ]
        outcomes = run_episodes(episodes)
        assert outcomes[1].abort == "non-finite state at t=0.505"
        assert len(outcomes[1].ticks) == 102
        for episode, outcome in zip(episodes, outcomes):
            assert _outcome_bits(outcome) == _reference_bits(episode)
        for i in (0, 2):
            alone = run_episodes([episodes[i]])[0]
            assert _outcome_bits(alone) == _outcome_bits(outcomes[i])
        alone = run_episode(Episode(stream(script), 1.0, rom, plant=flexed_plant("M"),
                                    voluntary_nmm=_nan_after(0.5, 0.0)))
        assert _outcome_bits(alone) == _outcome_bits(outcomes[1])

    def _assert_matches_reference(self, episodes):
        outcomes = run_episodes(episodes)
        for episode, outcome in zip(episodes, outcomes):
            assert _outcome_bits(outcome) == _reference_bits(episode)
        return outcomes

    def test_every_episode_commanded_from_the_first_tick(self):
        # Motors near the OPEN setpoint, so that unsaturated effort shows
        # from the first tick on.
        episodes = [Episode(stream([(0.0, OPEN), (0.3, CLOSE)]), 0.6, calibrate_rom(size),
                            plant=flexed_plant(size, 2.0), initial_motor=MotorState(excursion))
                    for size, excursion in (("S", 0.5), ("M", 1.0), ("L", 0.0))]
        self._assert_matches_reference(episodes)

    def test_never_commanded_episode_beside_commanded_ones(self):
        rom = calibrate_rom("M")
        episodes = [
            Episode(stream([(0.0, OPEN)]), 0.5, rom, plant=flexed_plant("M")),
            Episode(stream([(0.0, RELAX), (0.2, RELAX)]), 0.5, rom, plant=flexed_plant("M")),
            Episode(stream([(0.2, CLOSE)]), 0.5, rom, initial_motor=MotorState(10.0, 5.0)),
        ]
        outcomes = self._assert_matches_reference(episodes)
        assert np.all(outcomes[1].ticks.effort == 0.0)

    def test_cap_applies_beside_a_nan_episode(self):
        rom = calibrate_rom("M")
        episodes = [
            Episode(stream([(0.0, OPEN)]), 0.3, rom, plant=flexed_plant("M", 4.0),
                    initial_motor=MotorState(0.0)),
            Episode(stream([(0.0, OPEN)]), 0.3, rom, initial_motor=MotorState(math.nan)),
        ]
        capped, aborted = self._assert_matches_reference(episodes)
        assert aborted.abort == "non-finite state at t=0.000"
        # The NaN sibling's tension is NaN on the very tick the cap first binds.
        assert capped.ticks.tension_n[0] == TENSION_CAP_N

    _MOTOR_FAULTS = [MotorState(x, v) for x in (math.nan, math.inf, -math.inf, -0.0, -3.0, 55.5, 70.0)
                     for v in (math.nan, math.inf, -math.inf, 0.0, -20.0)]

    @pytest.mark.parametrize("make", [default_plant, flexed_plant])
    def test_non_finite_and_out_of_travel_motors_match_the_reference(self, make, empty_engine_tables):
        # Every pair of a NaN, infinite, signed-zero or out-of-travel initial
        # excursion and a NaN, infinite or finite initial velocity, each on
        # its own lane of one batch: every outcome is the reference's,
        # recorded or not, and no step warns (an infinite velocity minus
        # itself is NaN, which numpy would flag as an invalid value).
        episodes = [Episode(stream([(0.0, OPEN), (0.1, CLOSE)]), 0.2, calibrate_rom("M"), plant=make("M"),
                            initial_motor=motor) for motor in self._MOTOR_FAULTS]
        recorded = self._assert_matches_reference(episodes)
        # A NaN excursion, or a NaN or infinite velocity, makes a NaN excursion
        # on the first tick: 5 + 6 * 3 lanes abort there.
        assert [log.abort for log in recorded].count("non-finite state at t=0.000") == 23
        assert [log.abort for log in run_episodes(episodes, record=False)] == [log.abort for log in recorded]

    def test_infinite_angles_abort(self, monkeypatch):
        # With no flexion stop, an infinite torque makes every angle +inf: not
        # NaN and not below zero, so only a finiteness check sees it. The
        # stop is a module constant, which the engine and the reference both
        # read when they run.
        monkeypatch.setattr(controller, "MAX_DEG", np.full((4, 2), math.inf))
        rom = calibrate_rom("M")
        episodes = [
            Episode(stream([(0.0, OPEN)]), 0.2, rom, voluntary_nmm=math.inf),
            Episode(stream([(0.0, OPEN)]), 0.2, rom),
        ]
        aborted, _ = self._assert_matches_reference(episodes)
        assert aborted.abort == "non-finite state at t=0.000"
        assert np.all(aborted.ticks.angles_deg == math.inf)

    def test_without_recording_every_log_has_no_ticks(self):
        rom = calibrate_rom("M")
        episodes = [
            Episode(stream([(0.0, OPEN)]), 0.5, rom),
            Episode(stream([(0.0, OPEN)]), 0.5, rom, voluntary_nmm=_nan_after(0.2, 0.0)),
        ]
        kept, aborted = run_episodes(episodes, record=False)
        assert (kept.abort, len(kept.ticks)) == (None, 0)
        assert aborted.abort == "non-finite state at t=0.205"
        assert len(aborted.ticks) == 0

    _SCREEN_SCRIPT = [(0.0, OPEN), (2.0, CLOSE), (4.0, RELAX)]

    def test_an_aborted_episode_leaves_the_screen_passing(self, monkeypatch, empty_engine_tables):
        # An aborted lane steps no tick after its abort: the NaN one steps
        # ticks 0-41 and stops, and the three kept episodes, distinct
        # inputs, each step their own lane to its end.
        steps = _count_steps(monkeypatch)
        episodes = [Episode(stream(self._SCREEN_SCRIPT), 5.0, calibrate_rom(size), plant=flexed_plant(size))
                    for size in ("S", "M", "L")]
        episodes.insert(1, Episode(stream(self._SCREEN_SCRIPT), 5.0, calibrate_rom("M"), plant=flexed_plant("M"),
                                   voluntary_nmm=_nan_after(0.2, 0.0)))
        outcomes = run_episodes(episodes, record=False)
        assert outcomes[1].abort == "non-finite state at t=0.205"
        assert [outcomes[i].abort for i in (0, 2, 3)] == [None] * 3
        assert steps == [None] * 1000 + ["non-finite state at t=0.205"] * 42 + [None] * 2000

    def test_a_parked_lane_costs_no_later_exact_check(self, monkeypatch, empty_engine_tables):
        # A NaN initial excursion aborts its lane on tick 0, and it steps no
        # later tick, recorded or not. A recorded call leaves nothing to
        # later ones, so the first unrecorded call steps both lanes again.
        # The next parks the 400-tick sibling at the end that call left, and
        # the aborted input, which left no end, is stepped again from tick 0
        # to the same abort.
        steps = _count_steps(monkeypatch)
        rom = calibrate_rom("M")
        episodes = [Episode(stream([(0.0, OPEN)]), 2.0, rom, plant=flexed_plant("M")),
                    Episode(stream([(0.0, OPEN)]), 2.0, rom, initial_motor=MotorState(math.nan))]
        abort = "non-finite state at t=0.000"
        for record in (True, False, False):
            assert [log.abort for log in run_episodes(episodes, record=record)] == [None, abort]
        assert steps == ([None] * 400 + [abort]) * 2 + [abort]

    def test_repeated_inputs_share_a_lane_and_are_remembered(self, monkeypatch, empty_engine_tables):
        # Three episodes of one input step one lane beside an aborting one
        # whose NaN torque is a constant, so it is keyed too, recorded or
        # not. The third adds RELAX labels, which hold the same command: each
        # log keeps its own intent column. The recorded call leaves nothing
        # in the table. Unrecorded, the kept input, commanded from tick 0,
        # leaves its states at ticks 0 and 400 and at its end, under two
        # keys, so a later unrecorded call parks its lane with no step. The
        # aborted one leaves only its state at tick 0, so each later call
        # steps it again, one tick to the same abort, also beside a new
        # input. From an empty table an unrecorded call shares the lanes too.
        steps = _count_steps(monkeypatch)
        relaxed = [(0.0, OPEN), (1.0, RELAX), (2.0, CLOSE), (3.0, RELAX), (4.0, RELAX)]

        def batch():
            episodes = [Episode(stream(script), 5.0, calibrate_rom("M"), plant=flexed_plant("M"))
                        for script in (self._SCREEN_SCRIPT, relaxed, self._SCREEN_SCRIPT)]
            episodes.insert(1, replace(episodes[0], voluntary_nmm=math.nan))
            return episodes

        want = [None, "non-finite state at t=0.000", None, None]
        episodes = batch()
        recorded = run_episodes(episodes)
        assert steps == [None] * 1000 + want[1:2]
        for episode, log in zip(episodes, recorded):
            assert _outcome_bits(log) == _reference_bits(episode)
        assert controller._STATES == {}
        for _ in range(2):
            assert [log.abort for log in run_episodes(batch(), record=False)] == want
        assert steps.count(want[1]) == 3 and len(steps) == 2003
        new = Episode(stream(self._SCREEN_SCRIPT), 5.0, calibrate_rom("L"), plant=flexed_plant("L"))
        assert [log.abort for log in run_episodes([batch()[1], new], record=False)] == want[1:3]
        assert steps.count(want[1]) == 4 and len(steps) == 3004
        assert len(controller._STATES) == 9  # 4 of each kept input, 1 of the aborted one
        with empty_engine_tables():
            assert [log.abort for log in run_episodes(batch(), record=False)] == want
            assert steps.count(want[1]) == 5 and len(steps) == 4005
            assert len(controller._STATES) == 5

    def test_recorded_columns_are_read_only(self):
        # Two episodes of one input share a lane's rows: neither log can
        # write into them.
        episode = Episode(stream([(0.0, OPEN)]), 0.1, calibrate_rom("M"))
        first, second = run_episodes([episode, episode])
        assert first.ticks.excursion_mm.base is second.ticks.excursion_mm.base
        for log in (first, second):
            for field in fields(log.ticks):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(log.ticks, field.name)[0] = 0

    def test_unsorted_stream_with_tied_times(self):
        script = [(0.3, CLOSE), (0.0, OPEN), (0.3, RELAX), (0.1, CLOSE), (0.1, OPEN), (0.0, RELAX)]
        episode = Episode(stream(script), 0.6, calibrate_rom("M"), plant=flexed_plant("M"))
        (outcome,) = run_episodes([episode])
        assert _outcome_bits(outcome) == _reference_bits(episode)
        # Events at one time apply in stream order, so the last of them holds.
        labels = [_LABELS[c] for c in outcome.ticks.intent[[10, 30, 100]].tolist()]
        assert labels == [RELAX, OPEN, RELAX]

    def test_empty_batch(self):
        assert run_episodes([]) == []

    def test_episode_jsonl_is_unchanged(self):
        rom = calibrate_rom("M")
        script = [(0.0, OPEN), (3.0, RELAX), (4.0, CLOSE)]
        log = _run_to_end(Episode(stream(script), 7.0, rom, plant=flexed_plant("M", 2.0)))
        ticks, _ = reference_episode(script, 7.0, rom, flexed_plant("M", 2.0))
        assert log.to_jsonl() == reference_jsonl(ticks)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the infinite torque runs on as inf/NaN
    def test_aborted_jsonl_spells_non_finite_values_as_json(self, monkeypatch):
        # An aborted log ends on the tick that broke the invariant. json
        # writes its values as NaN or Infinity, where repr writes nan or inf.
        rom = calibrate_rom("M")
        (nan_abort,) = run_episodes([Episode(stream([(0.0, OPEN)]), 0.5, rom,
                                             voluntary_nmm=_nan_after(0.2, 0.0))])
        monkeypatch.setattr(controller, "MAX_DEG", np.full((4, 2), math.inf))
        (inf_abort,) = run_episodes([Episode(stream([(0.0, OPEN)]), 0.2, rom, voluntary_nmm=math.inf)])
        for abort, q in ((nan_abort, "NaN"), (inf_abort, "Infinity")):
            assert abort.abort.startswith("non-finite")
            text = abort.to_jsonl()
            assert text.splitlines()[-1].endswith('"q":[' + ",".join([q] * 8) + "]}")
            assert text == reference_jsonl(rows(abort.ticks))

    def test_jsonl_of_every_non_finite_spelling(self):
        # Columns no engine run gives: an infinite setpoint is written as
        # json writes it, only a NaN setpoint means "no command" (null).
        inf, nan = math.inf, math.nan
        n = 4
        log = TrajectoryLog(TrajectoryColumns(
            t=np.array([-0.0, 5e-324, 1e-07, 1e16]),
            intent=np.array([0, 1, 2, 0]),
            fsm=np.array([0, 1, 2, 4]),
            setpoint_mm=np.array([nan, inf, -inf, -0.0]),
            excursion_mm=np.array([inf, -inf, nan, 1.5]),
            tension_n=np.array([-inf, nan, inf, 0.0]),
            angles_deg=np.array([[nan, inf, -inf, 0.0, -0.0, 1e-05, 2.5e-310, 90.0]] * n),
            velocity_mm_s=np.zeros(n),
            effort=np.zeros(n),
        ))
        text = log.to_jsonl()
        assert '"sp":null' in text and '"sp":Infinity' in text and '"sp":-Infinity' in text
        assert text == reference_jsonl(rows(log.ticks))

    def test_empty_log_jsonl_is_its_header(self):
        (aborted,) = run_episodes([Episode(stream([(0.0, OPEN)]), 0.5, calibrate_rom("M"),
                                           voluntary_nmm=_nan_after(0.0, 0.0))], record=False)
        assert aborted.abort is not None and len(aborted.ticks) == 0
        assert aborted.to_jsonl() == reference_jsonl([])


_SIGNED_ZERO = st.sampled_from([-0.0, 0.0])


@st.composite
def _signed_zero_episodes(draw):
    """Episodes whose plant, motor and torque hold -0.0 where the engine's
    sums and its skipped zero-torque add could differ in the sign of a zero:
    joints at -0.0, zero stiffness of either sign, a motor at rest at -0.0."""
    size = draw(st.sampled_from(["S", "M", "L"]))
    base = default_plant(size, draw(st.sampled_from(list(controller.MAS_STIFFNESS.values()))))
    angles = draw(st.lists(_SIGNED_ZERO | st.sampled_from([55.0, 65.0, 90.0]), min_size=8, max_size=8))
    stiffness = draw(st.lists(_SIGNED_ZERO | st.just(1.3), min_size=8, max_size=8))
    plant = replace(base, angles_deg=np.reshape(angles, (4, 2)),
                    stiffness_nmm_deg=np.reshape(stiffness, (4, 2)))
    script = draw(st.lists(st.tuples(_TIMES, st.sampled_from([OPEN, RELAX, CLOSE])), max_size=4))
    return Episode(
        intents=stream(script),
        duration_s=draw(st.integers(1, 80)) * CONTROL_DT_S,
        rom=calibrate_rom(size),
        plant=plant,
        voluntary_nmm=draw(_SIGNED_ZERO),
        initial_motor=draw(st.none() | st.just(MotorState(-0.0, -0.0))
                           | st.builds(MotorState, _SIGNED_ZERO, _SIGNED_ZERO)),
    )


@st.composite
def _session_like_episodes(draw):
    """Episodes as a session builds them: any glove size and MAS grade, a
    rest or flexed hand, streams of up to 8 events, 1-100 ticks."""
    size = draw(st.sampled_from(["S", "M", "L"]))
    grade = draw(st.sampled_from(list(controller.MAS_STIFFNESS)))
    make = draw(st.sampled_from([default_plant, flexed_plant]))
    script = draw(st.lists(st.tuples(_TIMES, st.sampled_from([OPEN, RELAX, CLOSE])), max_size=8))
    return Episode(
        intents=stream(script),
        duration_s=draw(st.integers(1, 100)) * CONTROL_DT_S,
        rom=calibrate_rom(size),
        plant=make(size, controller.MAS_STIFFNESS[grade]),
    )


class TestBatchLayout:
    """Batches of lanes, each outcome checked against the scalar reference or
    the same episode run alone."""

    @settings(max_examples=40)
    @given(st.lists(_signed_zero_episodes(), min_size=1, max_size=4))
    def test_signed_zeros_match_the_reference(self, episodes):
        for episode, outcome in zip(episodes, run_episodes(episodes)):
            assert _outcome_bits(outcome) == _reference_bits(episode)

    @settings(max_examples=8)
    @given(st.lists(_session_like_episodes(), min_size=20, max_size=40))
    def test_large_batch_equals_each_episode_alone(self, episodes):
        batched = run_episodes(episodes)
        for episode, outcome in zip(episodes, batched):
            (alone,) = run_episodes([episode])
            assert _outcome_bits(outcome) == _outcome_bits(alone)
        for episode, outcome in zip(episodes[:4], batched):
            assert _outcome_bits(outcome) == _reference_bits(episode)

    @settings(max_examples=20)
    @given(st.lists(_episodes(), min_size=1, max_size=4), st.data())
    def test_one_constant_torque_among_none(self, episodes, data):
        # One episode's torque is nonzero; the others' signed zeros are added
        # as the reference adds them.
        episodes = [replace(ep, voluntary_nmm=data.draw(_SIGNED_ZERO)) for ep in episodes]
        k = data.draw(st.integers(0, len(episodes) - 1))
        torque = data.draw(st.floats(-400.0, 400.0).filter(bool))
        episodes[k] = replace(episodes[k], voluntary_nmm=torque)
        for episode, outcome in zip(episodes, run_episodes(episodes)):
            assert _outcome_bits(outcome) == _reference_bits(episode)

    @pytest.mark.parametrize("value", [3, True, np.float32(0.1), np.float64(-1.3)], ids=type)
    def test_a_callable_torque_is_cast_as_the_reference_adds_it(self, value):
        # np.float32(0.1) widens to 0.10000000149011612, not to 0.1. The
        # torque turns NaN after 0.2 s, so the unrecorded outcome shows too.
        episode = Episode(stream([(0.0, OPEN), (0.1, CLOSE)]), 0.3, calibrate_rom("M"), plant=flexed_plant("M"),
                          voluntary_nmm=lambda t: value if t <= 0.2 else value * math.nan)
        want = _reference_bits(episode)
        assert want[0] == "non-finite state at t=0.205"
        assert _outcome_bits(run_episode(episode)) == want
        assert run_episodes([episode], record=False)[0].abort == want[0]

    @settings(max_examples=40)
    @given(st.lists(_episodes(), min_size=1, max_size=6))
    def test_unrecorded_aborts_match_recorded_ones(self, episodes):
        recorded = run_episodes(episodes)
        for episode, kept, bare in zip(episodes, recorded, run_episodes(episodes, record=False)):
            diagnostic, _ticks = _reference_bits(episode)
            assert isinstance(kept, TrajectoryLog) and isinstance(bare, TrajectoryLog)
            assert bare.abort == kept.abort == diagnostic
            assert len(bare.ticks) == 0


_TORQUES = (_SIGNED_ZERO | st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(-400.0, 400.0)
            | st.floats(0.0, 0.3).map(lambda t0: _nan_after(t0, 0.0)))


@st.composite
def _distinct_inputs(draw, n_ticks):
    """An unrecorded input of ``n_ticks`` ticks and, if drawn, its twin that
    differs from it only in the sign of its zeros: the ROM's retracted
    setpoint, a zero torque and a zero initial motor."""
    size = draw(st.sampled_from(["S", "M", "L"]))
    plant = draw(st.sampled_from([default_plant, flexed_plant]))(size, draw(st.sampled_from([1.0, 4.0])))
    script = draw(st.lists(st.tuples(_TIMES, st.sampled_from([OPEN, RELAX, CLOSE])), max_size=4))
    excursion = _SIGNED_ZERO | st.sampled_from([math.nan, 20.0])
    motor = draw(st.none() | st.builds(MotorState, excursion, _SIGNED_ZERO))
    rom = RomCalibration(draw(_SIGNED_ZERO), calibrate_rom(size).extended_mm)
    base = Episode(stream(script), n_ticks * CONTROL_DT_S, rom, plant=plant, voluntary_nmm=draw(_TORQUES),
                   initial_motor=motor)
    if not draw(st.booleans()):
        return [base]

    def flip(v):
        return -v if v == 0.0 else v

    twin = replace(base, rom=RomCalibration(flip(base.rom.retracted_mm), base.rom.extended_mm),
                   voluntary_nmm=base.voluntary_nmm if callable(base.voluntary_nmm) else flip(base.voluntary_nmm),
                   initial_motor=motor and MotorState(flip(motor.excursion_mm), flip(motor.velocity_mm_s)))
    return [base, twin]


def _copies(draw, episode):
    """1-3 copies of an episode: itself, or with a separate plant of equal arrays."""
    plant = episode.plant
    return [episode if draw(st.booleans()) else replace(episode, plant=controller.HandPlant(
                plant.angles_deg.copy(), plant.stiffness_nmm_deg.copy(), plant.moment_arm_mm.copy()))
            for _ in range(draw(st.integers(1, 3)))]


def _column_layout(log):
    return [(col.dtype, col.shape) for col in astuple(log.ticks)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # infinite torques run on as inf/NaN
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.data())
def test_remembered_outcomes_match_each_episode_alone(empty_engine_tables, data):
    """Distinct inputs, repeated as the same plant object or as equal arrays,
    split over 1-3 calls, each recorded or not, in a drawn order from an
    empty table: every episode takes the abort it has run alone, a recorded
    log its bits too, every unrecorded log has a lane's zero-tick layout,
    and every state the table keeps under a key an input with a constant
    torque takes alone is the one its recorded log reaches, ±0.0 apart."""
    ticks = data.draw(st.lists(st.integers(1, 60), min_size=1, max_size=4, unique=True), label="ticks")
    inputs = [ep for n in ticks for ep in data.draw(_distinct_inputs(n), label=f"input of {n} ticks")]
    episodes = data.draw(st.permutations([copy for ep in inputs for copy in _copies(data.draw, ep)]), label="order")
    cuts = sorted(data.draw(st.lists(st.integers(0, len(episodes)), max_size=2), label="cuts"))
    calls = [(episodes[a:b], data.draw(st.booleans(), label="record"))
             for a, b in zip([0, *cuts], [*cuts, len(episodes)])]
    with empty_engine_tables():
        lane_layout = _column_layout(run_episodes(episodes[:1], record=False)[0])
    with empty_engine_tables():
        logs = [(log, record) for call, record in calls for log in run_episodes(call, record)]
        assert len(logs) == len(episodes)
        for episode in inputs:
            if not callable(episode.voluntary_nmm):
                _assert_remembered_states_are_reached(episode, empty_engine_tables)
    with empty_engine_tables():
        alone = [run_episodes([episode])[0] for episode in episodes]
    for (log, record), want in zip(logs, alone):
        if record:
            assert _outcome_bits(log) == _outcome_bits(want)
        else:
            assert log.abort == want.abort
            assert _column_layout(log) == lane_layout


def test_an_outcome_is_not_remembered_across_a_changed_constant(empty_engine_tables):
    # With no flexion stop an infinite torque makes every angle +inf and
    # aborts; with the stop the angles clamp and the episode runs to its end.
    episode = Episode(stream([(0.0, OPEN)]), 0.2, calibrate_rom("M"), voluntary_nmm=math.inf)
    with mock.patch.object(controller, "MAX_DEG", np.full((4, 2), math.inf)):
        (unstopped,) = run_episodes([episode], record=False)
    (stopped,) = run_episodes([episode], record=False)
    assert unstopped.abort == "non-finite state at t=0.000"
    assert stopped.abort is None and run_episode(episode).abort is None
    assert sorted(tick for tick, _ in controller._STATES.values()) == [0, 40, 40]  # its start, its end twice


def _at(*ticks_and_labels):
    """A stream with each event at its tick's time."""
    return stream([(tick * CONTROL_DT_S, label) for tick, label in ticks_and_labels])


@settings(max_examples=200)
@given(st.data())
def test_label_runs_and_changes_match_the_per_tick_oracle(data):
    """An episode's label runs, expanded to one label per tick, are the
    per-tick labels of ``tick_commands``, and its held-command changes are
    the ones those labels give, whatever the stream: events in any order,
    tied in time, before tick 0, exactly on a tick or at or after the end,
    RELAX only, or none, over 1 to 300 ticks."""
    n = data.draw(st.integers(1, 300), label="ticks")
    on_tick = st.integers(-3, n + 3).map(lambda k: k * CONTROL_DT_S)
    times = data.draw(st.lists(on_tick | st.floats(-0.05, (n + 3) * CONTROL_DT_S), min_size=1, max_size=6),
                      label="times")  # few, so events tie
    labels = st.just(RELAX) if data.draw(st.booleans(), label="relax only") else st.sampled_from(_LABELS)
    script = data.draw(st.lists(st.tuples(st.sampled_from(times), labels), max_size=12), label="script")
    intents = Episode(stream(script), n * CONTROL_DT_S, calibrate_rom("M")).intents
    starts, runs, ticks, codes = controller._commands(intents, np.arange(n) * CONTROL_DT_S)
    want, want_ticks, want_codes = tick_commands(intents, n)
    assert starts[0] == 0 and np.all(np.diff(starts, append=n) > 0)
    assert runs.dtype == np.int8 and np.repeat(runs, np.diff(starts, append=n)).tolist() == want.tolist()
    assert (ticks.tolist(), codes.tolist()) == (want_ticks.tolist(), want_codes.tolist())


_NAN_STATE = np.full(10, math.nan).tobytes()


def test_a_new_input_starts_at_the_deepest_remembered_state(empty_engine_tables):
    """An unrecorded lane starts at the deepest remembered state that comes
    no later than its next change, and is screened from there: a NaN state
    planted in the table aborts it on that tick, named as its own. A still
    hand (rest pose, slack cable, no torque) shares states with schedules
    shifted in time. A flexed hand is served only when commanded from tick
    0, and shares states with schedules that are too; first commanded
    later, it steps from tick 0 and leaves no key. A recorded call starts
    at tick 0."""
    rom = calibrate_rom("M")
    # Changes at ticks 100, 200 and 300 and the end at 400: states after 0,
    # 1, 2 and 3 changes, at 0, 100, 200 and 300 ticks from the first, the
    # last also under the key of its length.
    run_episodes([Episode(_at((100, OPEN), (200, CLOSE), (300, OPEN)), 2.0, rom)], record=False)
    assert sorted(tick for tick, _ in controller._STATES.values()) == [0, 100, 200, 300, 300]
    for key in controller._STATES:
        controller._STATES[key] = (controller._STATES[key][0], _NAN_STATE)
    shifted = Episode(_at((120, OPEN), (220, CLOSE), (360, OPEN)), 2.0, rom)
    (log,) = run_episodes([shifted], record=False)
    assert log.abort == "non-finite state at t=1.600"  # tick 120 + 200
    # Its next change comes before the deepest state: the one before it.
    early = Episode(_at((120, OPEN), (220, CLOSE), (310, OPEN)), 2.0, rom)
    assert run_episodes([early], record=False)[0].abort == "non-finite state at t=1.100"  # 120 + 100
    assert run_episode(shifted).abort is None

    flexed = flexed_plant("M")
    still_keys = set(controller._STATES)
    run_episodes([Episode(_at((20, OPEN), (60, CLOSE), (100, OPEN)), 0.8, rom, plant=flexed)], record=False)
    assert set(controller._STATES) == still_keys
    run_episodes([Episode(_at((0, OPEN), (40, CLOSE), (80, OPEN)), 0.8, rom, plant=flexed)], record=False)
    planted = set(controller._STATES) - still_keys
    assert len(planted) == 5
    for key in planted:
        controller._STATES[key] = (controller._STATES[key][0], _NAN_STATE)
    for script, abort in ((((20, OPEN), (60, CLOSE), (100, OPEN)), None),
                          (((0, OPEN), (40, CLOSE), (120, OPEN)), "non-finite state at t=0.400")):
        (log,) = run_episodes([Episode(_at(*script), 0.8, rom, plant=flexed)], record=False)
        assert log.abort == abort


def test_a_repeated_input_starts_at_its_end(monkeypatch, empty_engine_tables):
    """A still hand first commanded at tick 100 steps one tick that shows it
    still, then starts at its first change. An input that runs to its end
    leaves its state there, under the key of all its changes and under that
    key with its length: a repeat in a later unrecorded call steps only the
    stillness tick and reads no earlier state, so a NaN planted in its last
    change's state is not seen. A longer input of the same changes, whose
    own end is not remembered, starts at that end, and a NaN planted there
    aborts it on that tick, named as its own."""
    steps = _count_steps(monkeypatch)
    short = Episode(_at((100, OPEN), (200, CLOSE), (300, OPEN)), 2.0, calibrate_rom("M"))
    run_episodes([short], record=False)
    assert len(steps) == 1 + 300
    for key, (tick, _) in controller._STATES.items():
        if tick < 300:  # all but the end
            controller._STATES[key] = (tick, _NAN_STATE)
    assert [log.abort for log in run_episodes([short, short], record=False)] == [None, None]
    assert len(steps) == 301 + 1
    longer = replace(short, duration_s=3.0)
    for key, (tick, _) in controller._STATES.items():
        controller._STATES[key] = (tick, _NAN_STATE)
    assert run_episodes([longer], record=False)[0].abort == "non-finite state at t=2.000"
    assert len(steps) == 302 + 1 + 1
    assert run_episode(longer).abort is None


def test_a_longer_twin_starts_at_its_own_end(monkeypatch, empty_engine_tables):
    """A 600-tick input with the changes of a remembered 400-tick one starts
    at the shorter one's end the first time, and parks at its own end on
    every later call: its end is kept under its changes and its length, a
    key the shorter one's earlier end cannot hold. Each call steps one tick
    that shows the hand still."""
    steps = _count_steps(monkeypatch)
    short = Episode(_at((100, OPEN), (200, CLOSE), (300, OPEN)), 2.0, calibrate_rom("M"))
    longer = replace(short, duration_s=3.0)
    stepped = []
    for episode in (short, longer, longer, longer):
        before = len(steps)
        assert run_episodes([episode], record=False)[0].abort is None
        stepped.append(len(steps) - before)
    assert stepped == [1 + 300, 1 + 200, 1, 1]
    _assert_remembered_states_are_reached(longer, empty_engine_tables)


def test_a_recorded_call_leaves_the_table_as_it_found_it(monkeypatch, empty_engine_tables):
    """A recorded call steps every lane from tick 0, with no tick to decide
    stillness, and leaves the table as it found it, whether its hands are
    still or flexed, first commanded at tick 0 or later, and remembered or
    new."""
    scripts = (((0, OPEN), (200, CLOSE)), ((100, OPEN), (300, CLOSE)))

    def episodes(size):
        return [Episode(_at(*script), 2.0, calibrate_rom(size), plant=make(size))
                for make in (default_plant, flexed_plant) for script in scripts]

    run_episodes(episodes("M"), record=False)
    held = dict(controller._STATES)
    steps = _count_steps(monkeypatch)
    recorded = episodes("M") + episodes("L")
    for episode, log in zip(recorded, run_episodes(recorded)):
        assert _outcome_bits(log) == _reference_bits(episode)
    assert steps == [None] * 400 * 8
    assert controller._STATES == held


def test_a_flexed_hand_is_served_only_when_commanded_from_tick_0(monkeypatch, empty_engine_tables):
    """A flexed hand moves before its first command. So an unrecorded lane of
    it first commanded at tick 20 steps one tick that shows it not still
    and then all its ticks from tick 0, on every call, and leaves no key.
    The same hand commanded from tick 0 steps no stillness tick, is
    remembered, and a repeat starts at its end."""
    steps = _count_steps(monkeypatch)
    later = Episode(_at((20, OPEN), (60, CLOSE)), 0.8, calibrate_rom("M"), plant=flexed_plant("M"))
    at_once = replace(later, intents=_at((0, OPEN), (40, CLOSE)))
    stepped = []
    for episode in (later, later, at_once, at_once):
        before = len(steps)
        assert run_episodes([episode], record=False)[0].abort is None
        stepped.append(len(steps) - before)
        if episode is later:
            assert controller._STATES == {}
    assert stepped == [1 + 160, 1 + 160, 160, 0]
    assert sorted(tick for tick, _ in controller._STATES.values()) == [0, 40, 160, 160]
    _assert_remembered_states_are_reached(at_once, empty_engine_tables)


def test_an_unseen_still_hand_starts_at_its_first_command(monkeypatch, empty_engine_tables):
    """From an empty table, an unrecorded lane of a hand at rest with a slack
    cable, first commanded at tick 100 of 400, steps one tick that shows
    the hand still and then its 300 ticks from that command; the states it
    leaves are the ones its recorded log reaches. A flexed hand moves on
    its first uncommanded tick, so its lane steps all 400 ticks after it."""
    steps = _count_steps(monkeypatch)
    still = Episode(_at((100, OPEN), (200, CLOSE), (300, OPEN)), 2.0, calibrate_rom("M"))
    assert run_episodes([still], record=False)[0].abort is None
    assert len(steps) == 1 + 300
    _assert_remembered_states_are_reached(still, empty_engine_tables)
    before = len(steps)
    assert run_episodes([replace(still, plant=flexed_plant("M"))], record=False)[0].abort is None
    assert len(steps) - before == 1 + 400


def test_a_still_hand_keeps_one_start_state(monkeypatch, empty_engine_tables):
    """A lane commanded from tick 0, as an EMG stream is, and then a lane of
    the same still hand first commanded at tick 100, as an SH stream is,
    count their changes' ticks alike, so they share every key: the state
    the hand starts in is kept once, and the later lane starts at its
    second change, tick 300, in the state the first reached at tick 200.
    Each end is also kept under the key of its length."""
    steps = _count_steps(monkeypatch)
    rom = calibrate_rom("M")
    run_episodes([Episode(_at((0, OPEN), (200, CLOSE)), 2.0, rom)], record=False)
    assert len(steps) == 400
    later = Episode(_at((100, OPEN), (300, CLOSE)), 2.0, rom)
    assert run_episodes([later], record=False)[0].abort is None
    assert len(steps) == 400 + 1 + 100
    plant = default_plant("M")
    start = np.concatenate(([plant.cable_take_up_mm().max(), 0.0], plant.angles_deg), axis=None).tobytes()
    assert [state for _, state in controller._STATES.values()].count(start) == 1
    assert sorted(tick for tick, _ in controller._STATES.values()) == [0, 200, 300, 300, 400]
    _assert_remembered_states_are_reached(later, empty_engine_tables)


def test_a_lane_started_late_takes_the_states_it_would_reach(empty_engine_tables):
    """A shifted schedule starts at tick 120 + 200, ten ticks before its own
    third change, holding CLOSE; the states it takes at its fourth change,
    tick 380, and at its end, tick 400, kept under two keys, are the ones
    its recorded log reaches."""
    rom = calibrate_rom("M")
    run_episodes([Episode(_at((100, OPEN), (200, CLOSE), (300, OPEN)), 2.0, rom)], record=False)
    later = Episode(_at((120, OPEN), (220, CLOSE), (330, OPEN), (380, CLOSE)), 2.0, rom)
    assert run_episodes([later], record=False)[0].abort is None
    assert sorted(tick for tick, _ in controller._STATES.values()) == [0, 100, 200, 260, 280, 280, 300, 300]
    _assert_remembered_states_are_reached(later, empty_engine_tables)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing angles run on as inf/NaN
def test_a_resumed_lane_aborts_at_its_own_tick(monkeypatch, empty_engine_tables):
    """Without a flexion stop a huge torque overflows the angles on tick 25.
    A 20-tick episode commanded from tick 0, which the table serves though
    its hand is not still, stops short of it, and a longer one of the same
    changes starts at its end, tick 20, and aborts on tick 25, as it does
    from empty tables. It leaves no end state, so a later call steps it
    again from tick 20, to the same abort."""
    longer = Episode(_at((0, OPEN), (5, CLOSE), (10, OPEN)), 0.3, calibrate_rom("M"), voluntary_nmm=1.7e308)
    steps = _count_steps(monkeypatch)
    with mock.patch.object(controller, "MAX_DEG", np.full((4, 2), math.inf)):
        assert run_episodes([replace(longer, duration_s=0.1)], record=False)[0].abort is None
        assert sorted(tick for tick, _ in controller._STATES.values()) == [0, 5, 10, 20, 20]
        (log,) = run_episodes([longer], record=False)
        assert len(steps) == 20 + 6
        (again,) = run_episodes([longer], record=False)
        assert len(steps) == 26 + 6
        assert sorted(tick for tick, _ in controller._STATES.values()) == [0, 5, 10, 20, 20]
        with empty_engine_tables():
            (cold,) = run_episodes([longer], record=False)
    assert log.abort == again.abort == cold.abort == "non-finite state at t=0.125"


@st.composite
def _warm_table_contexts(draw):
    """What an episode's schedule runs on: a still hand (rest pose, slack
    cable, no torque); a huge torque, which overflows the angles of a hand
    with no flexion stop after tens of ticks; or any plant, torque (zero,
    finite, NaN, infinite or a function of time) and initial motor,
    moving or not."""
    size = draw(st.sampled_from(["S", "M", "L"]))
    kind = draw(st.sampled_from(["still", "huge", "any"]))
    plant = draw(st.sampled_from([default_plant, flexed_plant]))(
        size, draw(st.sampled_from(list(controller.MAS_STIFFNESS.values()))))
    if kind == "still":
        return {"rom": calibrate_rom(size), "plant": default_plant(size)}
    if kind == "huge":
        return {"rom": calibrate_rom(size), "plant": plant, "voluntary_nmm": draw(st.floats(3e307, 1.7e308))}
    torque = draw(_SIGNED_ZERO | st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(-400.0, 400.0)
                  | st.floats(0.0, 0.6).map(lambda t0: _nan_after(t0, 0.0)))
    motor = draw(st.none() | st.builds(MotorState, st.floats(0.0, 55.0), st.floats(-20.0, 20.0)))
    return {"rom": calibrate_rom(size), "plant": plant, "voluntary_nmm": torque, "initial_motor": motor}


@st.composite
def _warm_table_schedules(draw):
    """A script of events on a 4-tick grid, as a session's streams have
    them, and 1-3 more: each shares the first events of the script and
    goes on with its own, is the script shifted by 4-12 ticks, is the
    script again (its episodes differ from the script's only in length) or
    gives no command."""
    def events(first, min_size=1):
        gaps = draw(st.lists(st.integers(1, 8), min_size=min_size, max_size=6))
        labels = draw(st.lists(st.sampled_from([OPEN, CLOSE, RELAX]), min_size=len(gaps), max_size=len(gaps)))
        return [(first + 4 * sum(gaps[:i + 1]), label) for i, label in enumerate(labels)]

    script = events(draw(st.integers(-4, 30)), min_size=2)
    scripts = [script]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["kept", "shifted", "same", "none"]))
        if kind == "kept":
            kept = script[:draw(st.integers(0, len(script)))]
            scripts.append(kept + events(kept[-1][0] if kept else draw(st.integers(-4, 30))))
        elif kind == "shifted":
            shift = draw(st.sampled_from([4, 8, 12]))
            scripts.append([(tick + shift, label) for tick, label in script])
        elif kind == "same":
            scripts.append(script)
        else:
            scripts.append([(tick, RELAX) for tick in draw(st.lists(st.integers(0, 30), max_size=2))])
    return scripts


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite and overflowing torques run on as inf/NaN
@settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_warm_table_changes_no_outcome(engine_steps, empty_engine_tables, data):
    """Episodes of 1-2 contexts, each running every schedule of a family
    that shares starts or shifts, in 2-3 calls, each recorded or not and
    each under the module's tendon stiffness or a softer one, one after the
    other from empty tables of a drawn size (the default, or 2 or 6 keys,
    which evict): the first script's episodes, then all the scripts' in a
    drawn order, each with a drawn tick count. Each recorded log is the
    scalar reference's; each unrecorded outcome, aborts included, is the one
    the same call gives from empty tables, and costs no more lane-steps.
    Then, under the last call's stiffness, every remembered state that an
    episode alone takes under the same key, at that tick or later, is the
    one its recorded log reaches. And with the default table size, each
    episode the table serves that an unrecorded call ran to its end, run
    again alone and unrecorded, steps at most the tick that shows its hand
    still: a longer twin of a shorter input included, as the ``same``
    family with two tick counts makes. A smaller table may have evicted
    its states, so there a repeat may step again."""
    contexts = data.draw(st.lists(_warm_table_contexts(), min_size=1, max_size=2), label="contexts")
    first, *scripts = data.draw(_warm_table_schedules(), label="scripts")

    def episodes(scripts):
        return [Episode(_at(*script), data.draw(st.integers(20, 200), label="ticks") * CONTROL_DT_S, **context)
                for context in contexts for script in scripts]

    later = data.draw(st.permutations(episodes([first, *scripts])), label="order")
    cut = data.draw(st.integers(0, len(later)), label="cut")
    tendons = st.sampled_from([controller.TENDON_STIFFNESS_N_MM, 20.0])
    calls = [(call, data.draw(st.booleans(), label="record"), data.draw(tendons, label="tendon"))
             for call in (episodes([first]), later[:cut], later[cut:]) if call]
    stops = controller.MAX_DEG if data.draw(st.booleans(), label="stopped") else np.full((4, 2), math.inf)
    size = data.draw(st.sampled_from([controller._STATES_MAX, 2, 6]), label="table size")
    repeats_cost_a_tick = size == controller._STATES_MAX
    ended, under = [], None  # the episodes unrecorded calls ran to their end under the table's stiffness
    with (mock.patch.object(controller, "MAX_DEG", stops), mock.patch.object(controller, "_STATES_MAX", size),
          empty_engine_tables()):
        for call, record, tendon in calls:
            if tendon != under:  # the call empties the table
                ended, under = [], tendon
            with mock.patch.object(controller, "TENDON_STIFFNESS_N_MM", tendon):
                before = len(engine_steps)
                logs = run_episodes(call, record)
                if record:
                    for episode, log in zip(call, logs):
                        assert _outcome_bits(log) == _reference_bits(episode)
                    continue
                ended += [episode for episode, log in zip(call, logs) if log.abort is None]
                warm, before = len(engine_steps) - before, len(engine_steps)
                with empty_engine_tables():
                    cold = run_episodes(call, record=False)
                assert [log.abort for log in logs] == [log.abort for log in cold]
                assert warm <= len(engine_steps) - before
        with mock.patch.object(controller, "TENDON_STIFFNESS_N_MM", under):
            for episode in (episode for call, _, _ in calls for episode in call):
                _assert_remembered_states_are_reached(episode, empty_engine_tables)
            for episode in filter(_is_served, ended if repeats_cost_a_tick else []):
                before = len(engine_steps)
                assert run_episodes([episode], record=False)[0].abort is None
                assert len(engine_steps) - before <= 1


def _is_served(episode):
    """Whether the engine table serves the episode's unrecorded lane: its
    torque is a constant and its start state holds until its first command,
    since it is commanded from tick 0 or one uncommanded tick leaves its
    state bit-identical."""
    if callable(episode.voluntary_nmm):
        return False
    (log,) = run_episodes([replace(episode, duration_s=CONTROL_DT_S)])
    cols = log.ticks
    if cols.intent[0] != _LABELS.index(RELAX):
        return True
    plant = episode.plant if episode.plant is not None else default_plant()
    motor = episode.initial_motor or MotorState(min(plant.cable_take_up_mm().max(), controller.TRAVEL_MM))
    start = np.concatenate(([motor.excursion_mm, motor.velocity_mm_s], plant.angles_deg), axis=None)
    after = np.concatenate(([cols.excursion_mm[0], cols.velocity_mm_s[0]], cols.angles_deg[0]))
    return after.tobytes() == start.tobytes()


def _assert_remembered_states_are_reached(episode, empty_engine_tables):
    """Each state in the table under a key the episode alone takes, at a tick
    no later than its own, is the state its recorded log reaches then: the
    excursion, velocity and angles after the tick before. Its ticks count
    from its first command, or from its end if it has none."""
    warm = controller._STATES
    with empty_engine_tables():
        (log,) = run_episodes([episode])
        run_episodes([episode], record=False)  # a recorded call leaves no state
        own = dict(controller._STATES)
    commanded = np.flatnonzero(log.ticks.intent != _LABELS.index(RELAX))
    first = commanded[0] if len(commanded) else round(episode.duration_s / CONTROL_DT_S)
    for key, (tick, _) in own.items():
        if key in warm and 0 < first + warm[key][0] and warm[key][0] <= tick:
            row = first + warm[key][0] - 1
            cols = log.ticks
            reached = np.concatenate(([cols.excursion_mm[row], cols.velocity_mm_s[row]], cols.angles_deg[row]))
            assert warm[key][1] == reached.tobytes()


def test_the_state_table_keeps_the_newest_keys_at_their_earliest_ticks(monkeypatch, empty_engine_tables):
    """With room for 6, five still hands, one per ROM, each commanded once,
    leave the newest six states, oldest first: the state each hand starts
    in and its end, under two keys. Each call steps one tick that shows its
    hand still, so an evicted input is stepped again from its first change,
    a remembered one not at all. A key keeps the earliest tick it is taken
    at, in its place: a later first command ends the same changes sooner,
    and another input's later change is taken under the same key as an
    end."""
    monkeypatch.setattr(controller, "_STATES_MAX", 6)
    table = controller._STATES
    steps = _count_steps(monkeypatch)

    def run(k, *script):
        before = len(steps)
        (log,) = run_episodes([Episode(_at(*script), 0.5, RomCalibration(0.0, 40.0 + k))], record=False)
        assert log.abort is None
        return len(steps) - before

    keys = []
    for k in range(5):
        assert run(k, (10, OPEN)) == 1 + 90
        keys.append(list(table)[-3:])
    assert list(table) == [*keys[3], *keys[4]]
    assert [tick for tick, _ in table.values()] == [0, 90, 90, 0, 90, 90]
    assert run(0, (10, OPEN)) == 1 + 90
    assert run(0, (10, OPEN)) == 1
    assert list(table) == [*keys[4], *keys[0]]
    assert run(0, (12, OPEN)) == 1 + 88
    *kept, shorter = table
    assert kept == [*keys[4][1:], *keys[0]] and table[keys[0][1]][0] == table[shorter][0] == 88
    assert run(0, (10, OPEN), (50, CLOSE)) == 1 + 90
    *kept, end, twin = table
    assert kept == [*keys[0], shorter] and table[keys[0][1]][0] == 40 and table[end][0] == table[twin][0] == 90


def _no_donors():
    """A block in which no lane of a call starts from a state an earlier
    lane of the call kept for it: every pair of lanes steps alike for no
    tick."""
    return mock.patch.object(controller, "_shared", lambda _a, _b: 0)


def test_a_month_of_sessions_pins_the_table_s_cost(monkeypatch, empty_engine_tables):
    """From an empty table, the twelve sessions of an EMG subject and then of
    its SH twin step these lane-steps and leave these keys. A change to
    what the table remembers or resumes, or to what a lane takes from an
    earlier lane of its call, moves these figures on purpose."""
    steps = _count_steps(monkeypatch)
    emg = Subject("S", "EMG", mas="2", seed=3)
    stepped = []
    for subject in (emg, replace(emg, group="SH")):
        before = len(steps)
        for plan in protocol.build_session_plans("S"):
            protocol.run_session(plan, subject)
        stepped.append(len(steps) - before)
    assert stepped == [2440, 7688]
    assert len(controller._STATES) == 75


def test_three_still_hand_lanes_that_share_their_first_segment_step_it_once(monkeypatch, empty_engine_tables):
    """Three lanes of one still hand, 400 ticks each, from an empty table:
    OPEN at 100 and CLOSE at 200; OPEN at 100 and CLOSE at 250; and the
    first shifted by 20 ticks. The first steps the tick that shows its hand
    still and its 300 ticks from its OPEN. The second steps alike for 100
    ticks from its OPEN, so it starts at 200 and steps 200. The third steps
    as the first did for its 280 ticks from its OPEN, so it starts at its
    end and steps none. Each lane stepped alone from its first change, 881
    lane-steps, leaves the same table, in the same order."""
    steps = _count_steps(monkeypatch)
    rom = calibrate_rom("M")
    call = [Episode(_at((100, OPEN), (200, CLOSE)), 2.0, rom), Episode(_at((100, OPEN), (250, CLOSE)), 2.0, rom),
            Episode(_at((120, OPEN), (220, CLOSE)), 2.0, rom)]
    assert [log.abort for log in run_episodes(call, record=False)] == [None] * 3
    assert len(steps) == 1 + 300 + 200 + 0
    shared = list(controller._STATES.items())
    with empty_engine_tables(), _no_donors():
        assert [log.abort for log in run_episodes(call, record=False)] == [None] * 3
        assert len(steps) == 501 + 1 + 300 + 300 + 280
        assert list(controller._STATES.items()) == shared
    for episode in call:
        _assert_remembered_states_are_reached(episode, empty_engine_tables)


def test_a_lane_that_ends_on_an_earlier_lane_s_change_starts_at_its_end(monkeypatch, empty_engine_tables):
    """A lane of a still hand whose schedule, OPEN at 100 for 200 ticks, is
    the start of an earlier lane's, OPEN at 100 and CLOSE at 200 for 400
    ticks, steps as that lane did until its own end, so it starts there and
    steps none; and it leaves its end as it would alone."""
    steps = _count_steps(monkeypatch)
    rom = calibrate_rom("M")
    longer, shorter = Episode(_at((100, OPEN), (200, CLOSE)), 2.0, rom), Episode(_at((100, OPEN)), 1.0, rom)
    assert [log.abort for log in run_episodes([longer, shorter], record=False)] == [None, None]
    assert len(steps) == 1 + 300
    shared = list(controller._STATES.items())
    with empty_engine_tables(), _no_donors():
        run_episodes([longer, shorter], record=False)
        assert list(controller._STATES.items()) == shared
    _assert_remembered_states_are_reached(shorter, empty_engine_tables)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite and overflowing torques run on as inf/NaN
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.data())
def test_lanes_that_start_from_earlier_lanes_change_no_outcome(engine_steps, empty_engine_tables, data):
    """Episodes of 1-2 contexts running a family of schedules that share
    starts or shifts, in 1-3 unrecorded calls, run from an empty table of
    the default size with each lane free to start from a state an earlier
    lane of its call kept for it, and again with none: the two give the
    same aborts and, after every call, the same table items in the same
    order, and the first steps no more lane-steps than the second. A tick
    count may be a script's change tick after its first, so that one lane
    can end on another's change."""
    contexts = data.draw(st.lists(_warm_table_contexts(), min_size=1, max_size=2), label="contexts")
    scripts = data.draw(_warm_table_schedules(), label="scripts")
    ends = sorted({tick for script in scripts for tick in tick_commands(_at(*script), 250)[1][1:].tolist()})
    ticks = st.sampled_from(ends or [20]) | st.integers(20, 200)
    episodes = data.draw(st.permutations([
        Episode(_at(*script), data.draw(ticks, label="ticks") * CONTROL_DT_S, **context)
        for context in contexts for script in scripts]), label="order")
    bounds = [0, *sorted(data.draw(st.lists(st.integers(0, len(episodes)), max_size=2), label="cuts")), len(episodes)]
    calls = [episodes[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]

    def run():
        before, seen = len(engine_steps), []
        with empty_engine_tables():
            for call in calls:
                seen.append(([log.abort for log in run_episodes(call, record=False)],
                             list(controller._STATES.items())))
        return seen, len(engine_steps) - before

    shared, cost = run()
    with _no_donors():
        alone, alone_cost = run()
    assert shared == alone
    assert cost <= alone_cost


def test_a_changed_constant_empties_the_table(empty_engine_tables):
    """A table filled under a softer tendon holds nothing after a call under
    the module's own constants but what that call would leave in an empty
    one."""
    first = Episode(_at((0, OPEN), (50, CLOSE)), 0.5, calibrate_rom("M"), plant=flexed_plant("M"))
    second = Episode(_at((0, OPEN), (50, CLOSE)), 0.5, calibrate_rom("L"), plant=flexed_plant("L"))
    with mock.patch.object(controller, "TENDON_STIFFNESS_N_MM", 20.0):
        run_episodes([first], record=False)
    assert len(controller._STATES) == 4
    run_episodes([second], record=False)
    with empty_engine_tables():
        run_episodes([second], record=False)
        want = dict(controller._STATES)
    assert controller._STATES == want


def test_numpy_gives_the_second_operand_on_a_tie_of_signed_zeros():
    # The engine clamps an angle or a cable stretch at zero by comparison,
    # which turns -0.0 into 0.0. The scalar reference clamps with np.maximum
    # and np.clip, and gives the same sign of a zero only because numpy
    # gives the second operand on a tie.
    contract = ("np.maximum must give its second operand on a tie of -0.0 and 0.0: the scalar reference's "
                "clamps match the engine's bit for bit only under that rule")
    assert math.copysign(1.0, np.maximum([-0.0], 0.0)[0]) == 1.0, contract
    assert math.copysign(1.0, np.maximum(0.0, [-0.0])[0]) == -1.0, contract


@st.composite
def _fault(draw, episode, kind):
    """``episode`` with a fault: a torque that turns NaN or infinite after a
    tick ("torque"), a NaN, infinite, signed-zero or out-of-travel initial
    motor ("motor"), or an infinite torque for a hand with no flexion stop,
    which makes every angle +inf ("inf_angles")."""
    if kind == "motor":
        excursion = draw(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -3.0, -1e-6, 55.5, 70.0]))
        velocity = draw(st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(-20.0, 20.0))
        return replace(episode, initial_motor=MotorState(excursion, velocity))
    value = math.inf if kind == "inf_angles" else draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    t0 = draw(st.integers(0, int(round(episode.duration_s / CONTROL_DT_S)))) * CONTROL_DT_S
    return replace(episode, voluntary_nmm=lambda t: value if t > t0 else 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # faulted episodes run on as inf/NaN
@settings(max_examples=40)
@given(st.lists(_session_like_episodes(), min_size=1, max_size=6), st.data())
def test_faults_anywhere_in_the_batch_match_the_reference(episodes, data):
    """One or two episodes, at drawn positions, carry a fault; every outcome,
    recorded or not, is the scalar reference's. A flexed lead episode with its
    motor far out runs larger finite excursions, tensions and angles before a
    faulted one."""
    if data.draw(st.booleans(), label="lead"):
        episodes = [Episode(stream([(0.0, CLOSE)]), 0.5, calibrate_rom("L"), plant=flexed_plant("L"),
                            initial_motor=MotorState(50.0))] + episodes
    kind = data.draw(st.sampled_from(["torque", "motor", "inf_angles"]), label="kind")
    for k in data.draw(st.sets(st.integers(0, len(episodes) - 1), min_size=1, max_size=2)):
        episodes[k] = data.draw(_fault(episodes[k], kind), label=f"fault at {k}")
    no_stop = np.full((4, 2), math.inf) if kind == "inf_angles" else controller.MAX_DEG
    with mock.patch.object(controller, "MAX_DEG", no_stop):
        want = [_reference_bits(episode) for episode in episodes]
        recorded = run_episodes(episodes)
        bare = run_episodes(episodes, record=False)
    for (diagnostic, ticks), kept, unrecorded in zip(want, recorded, bare):
        assert isinstance(kept, TrajectoryLog) and isinstance(unrecorded, TrajectoryLog)
        assert _outcome_bits(kept) == (diagnostic, ticks)
        assert unrecorded.abort == kept.abort
        assert len(unrecorded.ticks) == 0


def _pinned_batches(seed=20261018, n_batches=16):
    """Seeded batches of 1-8 random episodes: unsorted streams, either plant,
    constant or NaN-after disturbances, initial motors in and out of travel."""
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        episodes = []
        for _ in range(int(rng.integers(1, 9))):
            size = str(rng.choice(["S", "M", "L"]))
            make = flexed_plant if rng.random() < 0.5 else default_plant
            n_ticks = int(rng.integers(1, 300))
            n_events = int(rng.integers(0, 7))
            if rng.random() < 0.3:
                t = rng.choice([0.0, 0.1, 0.25], n_events)
            else:
                t = rng.uniform(0.0, 1.2, n_events)
            torque = 0.0 if rng.random() < 0.5 else float(rng.uniform(-400.0, 400.0))
            motor = None
            if rng.random() < 0.5:
                x = float(rng.choice([-2.0, -0.0, 0.0, 55.0, 58.0, rng.uniform(-5.0, 60.0)]))
                motor = MotorState(x, float(rng.uniform(-20.0, 20.0)))
            if rng.random() < 0.2:
                torque = _nan_after(float(rng.uniform(0.0, 1.5)), torque)
            episodes.append(Episode(
                intents=(t, rng.integers(0, 3, n_events)),
                duration_s=n_ticks * CONTROL_DT_S,
                rom=calibrate_rom(size),
                plant=make(size, float(rng.uniform(0.5, 4.0))),
                voluntary_nmm=torque,
                initial_motor=motor,
            ))
        yield episodes


def test_unrecorded_engine_memory_does_not_grow_with_ticks(empty_engine_tables):
    """Without a trajectory the engine holds per-episode state, not per-tick
    tables: 400 episodes of five seconds, 400,000 ticks, or of ten, peak
    below 4 MB. Its logs keep no per-tick array, so after the call the
    ten-second episodes' logs and table hold no more than the five-second
    ones', within 0.05 MiB."""
    rom = calibrate_rom("M")
    held = []
    for duration in (5.0, 10.0):
        episodes = [Episode(stream([(0.5 + 0.001 * k, OPEN), (2.5, CLOSE), (4.0, RELAX)]), duration, rom)
                    for k in range(400)]
        with empty_engine_tables():
            tracemalloc.start()
            try:
                outcomes = run_episodes(episodes, record=False)
                now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert [(log.abort, len(log.ticks)) for log in outcomes] == [(None, 0)] * len(episodes)
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        held.append(now)
    assert held[1] <= held[0] + 0.05 * 2**20, f"held {held[0] / 2**20:.2f} and {held[1] / 2**20:.2f} MiB"


def test_engine_bits_are_pinned():
    # The sha256 of every recorded column (NaNs made alike) and of each
    # abort's diagnostic, over 95 episodes with 16 aborts. The value was
    # recorded from the earlier PID engine, whose integral and derivative
    # gains were zero, so it also pins that the proportional step gives the
    # same bits.
    digest = hashlib.sha256()
    n_aborts = 0
    for episodes in _pinned_batches():
        for log in run_episodes(episodes):
            if log.abort is not None:
                n_aborts += 1
                digest.update(log.abort.encode())
            for col in astuple(log.ticks):
                if col.dtype.kind == "f":
                    col = np.where(np.isnan(col), np.nan, col)
                digest.update(np.ascontiguousarray(col).tobytes())
    assert n_aborts == 16
    assert digest.hexdigest() == "304a40cb9aa8c01d76cdf4df2ed023af66cce10c6fdd59c8af701523fff86b80"


def _engine_plant_arrays(plant):
    """A plant's arrays as the engine reads them: angles, stiffness, arms,
    rest pose, flexion stop, damping and tendon stiffness."""
    return (plant.angles_deg, plant.stiffness_nmm_deg, plant.moment_arm_mm, controller.REST_DEG,
            controller.MAX_DEG, controller.DAMPING_NMM_S_DEG, controller.TENDON_STIFFNESS_N_MM)


def test_plant_bits_are_pinned():
    # The sha256 of every plant that src/ builds: 3 glove sizes x 4 MAS
    # grades x rest or flexed pose. The engine pin draws continuous
    # stiffness scales, so it may miss the exact grades. The value was
    # recorded when the rest pose, stop, damping and tendon stiffness were
    # still per-plant fields.
    digest = hashlib.sha256()
    for size in ("S", "M", "L"):
        for scale in controller.MAS_STIFFNESS.values():
            for make in (default_plant, flexed_plant):
                for arr in _engine_plant_arrays(make(size, scale)):
                    digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    assert digest.hexdigest() == "772f4ab21835865a1fe1876212505cd959f0f2a4df2df8ccca954445525ce8bb"


def test_hand_constants_are_read_only():
    # A flexed plant's angles are the stop itself, so no plant can move it.
    flexed = flexed_plant("M").angles_deg
    for const in (controller.REST_DEG, controller.MAX_DEG, controller.DAMPING_NMM_S_DEG, flexed):
        assert const.shape == (4, 2) and not const.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            const[0, 0] = 0.0


_SPEEDS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 3.0, -3.0, math.nan]) | st.floats(-5.0, 5.0)


class TestSummariesMatchTickLoops:
    @settings(max_examples=40)
    @given(st.lists(_episodes(), min_size=1, max_size=4), st.booleans())
    def test_engine_logs(self, episodes, record):
        for log in run_episodes(episodes, record=record):
            ticks = rows(log.ticks)
            assert log.to_jsonl() == reference_jsonl(ticks)
            for band in (0.0, 0.5, 3.0):
                assert count_direction_reversals(log, band) == reference_reversals(ticks, band)
            for threshold in (OPEN_THRESHOLD_DEG, 60.0):
                assert time_to_open(log, threshold) == reference_time_to_open(ticks, threshold)

    @given(st.lists(_SPEEDS, max_size=30), st.sampled_from([0.0, 0.5, 3.0]))
    def test_reversals_at_band_edges_and_nan(self, speeds, band):
        log = _columns_log(speeds)
        assert count_direction_reversals(log, band) == reference_reversals(rows(log.ticks), band)

    @given(st.lists(st.lists(st.sampled_from([0.0, 4.9, 5.0, 30.0, math.nan]),
                             min_size=8, max_size=8), max_size=20))
    def test_time_to_open_with_nan_rows(self, angles):
        # The engine's NaN rows are NaN in every joint, as here.
        angles = np.array(angles).reshape(-1, 8)
        angles[np.isnan(angles).any(axis=1)] = np.nan
        log = _columns_log(angles=angles)
        assert time_to_open(log) == reference_time_to_open(rows(log.ticks))

    def test_nan_anywhere_in_a_row_is_not_open(self):
        log = _columns_log(angles=[[0.0] * 7 + [math.nan], [math.nan] + [0.0] * 7, [1.0] * 8])
        assert time_to_open(log) == 2 * CONTROL_DT_S
