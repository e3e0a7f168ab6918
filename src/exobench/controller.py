"""Exotendon motor control loop and simulated finger plant.

A single geared motor tensions one cable network that extends all four
fingers (the thumb is statically splinted and not modeled). Intent commands
select between two calibrated excursion setpoints; one saturated
proportional step drives the motor toward the setpoint; the plant is
quasi-static-plus-damping per joint (no inertia matrix), with MCP and PIP
joints per digit, hard stops at zero extension (the hyperextension block)
and at the flexion limits, and a tension cap at the cable force limit.

Sign conventions: joint angles are degrees of flexion (0 = straight),
motor excursion is millimeters of cable paid out (0 = fully retracted =
fingers pulled open). Retracting the motor extends the fingers; releasing
cable lets finger tone and voluntary flexion close the hand.

One engine runs every episode. ``run_episodes`` steps any number of
episodes in lockstep on plain arrays, every ``CONTROL_DT_S``, and
``run_episode`` is its one-episode case. The gain, the drive and what every
hand shares (rest pose, flexion stops, damping, tendon stiffness) are
module constants, the drive's checked once at import. A ``HandPlant`` holds
only what differs between hands, the pose, the tone and the glove's moment
arms, validated once when it is built, never per tick. The engine's cost is
per array call, not per episode. A held command is state, like the motor,
set on the few ticks where it changes; from the tick on which every episode
is commanded (most ticks) the effort mask is skipped, and a
batch with no voluntary torque skips its add. The plant state is held
joint-major, (2 joints, 4 digits, E), so a digit's take-up is one add of
its MCP and PIP rows and the per-episode and per-digit arrays broadcast
without views; the angles are clamped by one maximum and one minimum. A
typical tick is 27 ufunc calls (4 for the proportional step, 7 for the
motor and 16 for the plant) and 5 arg-reductions for the screens. The
safety invariants are checked on every tick for every episode through one
merged screen: the min and max of the excursions decide the travel clamp,
the max of the tensions decides the cap, and with the min and max of the
joint angles they show at once whether any episode needs its exact check.
Each extreme is read at the index ``argmin`` or ``argmax`` gives, which is
the first NaN when there is one, so the screen sees a NaN exactly where a
full reduction would, at about half a reduction's cost per call. An
episode that breaks an invariant stops alone. A
trajectory is one set of columns, one array per quantity with a row per
tick, recorded only when the caller gets the logs back; its JSONL form and
its summaries (time to open, motor reversals) are read straight from the
columns. The scalar reference the engine matches bit for bit, one tick of
proportional step, motor, plant and setpoint at a time, lives with the
tests in ``tests/reference.py``.

An episode's intent stream is a ``(t, codes)`` pair of arrays, the codes
being indices into ``IntentLabel``, at finite times, in any order.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from exobench.signals import COMPACT_JSON, MAX_SAMPLES, IntentLabel

CONTROL_DT_S = 0.005
TENSION_CAP_N = 100.0

#: Degrees of residual flexion below which a digit counts as open.
OPEN_THRESHOLD_DEG = 5.0

DIGITS = ("index", "middle", "ring", "little")
JOINTS = ("mcp", "pip")

TRAJECTORY_SCHEMA = "exobench/trajectory-v1"

_DEG2RAD = math.pi / 180.0


class SafetyAbort(RuntimeError):
    """Raised when an episode violates a safety invariant; carries the partial log."""

    def __init__(self, diagnostic: str, log: "TrajectoryLog"):
        super().__init__(diagnostic)
        self.diagnostic = diagnostic
        self.log = log


@dataclass(frozen=True)
class RomCalibration:
    """Excursion setpoints from the per-session range-of-motion pass."""

    retracted_mm: float  # hand fully open
    extended_mm: float   # cable slack, hand closable

    def __post_init__(self) -> None:
        if not self.retracted_mm < self.extended_mm:
            raise ValueError("retracted setpoint must be below extended setpoint")
        if self.retracted_mm < 0.0:
            raise ValueError("excursion cannot be negative")


#: Excursion range by glove size, mm.
ROM_TABLE = {
    "S": RomCalibration(0.0, 38.0),
    "M": RomCalibration(0.0, 45.0),
    "L": RomCalibration(0.0, 52.0),
}


def calibrate_rom(hand_size: str) -> RomCalibration:
    """Setpoints for a glove size (S/M/L)."""
    try:
        return ROM_TABLE[hand_size]
    except KeyError:
        raise ValueError(f"unknown hand size {hand_size!r}; expected one of S, M, L") from None


# The position loop is one saturated proportional step,
# effort = clip(KP * (setpoint - x), -1, 1). KP was tuned once against the
# M-size plant so a full retraction lands on the 1.8 s device figure. The
# loop is type 1 (the motor integrates velocity), so proportional action
# alone settles with zero steady-state error, and KP keeps the velocity-lag
# pole pair at critical damping so the approach never overshoots.
KP = 0.4

def _drive_param(name: str, value: float) -> float:
    """A spool drive value, checked once at import: the speed derivation and
    the motor lag divide by them, so a zero or NaN would only show as NaN state."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


# Spool drive: a 5400 rpm (no load) gearmotor through 47:1 turns the 2 mm
# spool, which sets the peak cable speed (24.06 mm/s). The cable speed
# follows effort * peak speed with a first-order lag, over 0-55 mm of travel.
GEAR_RATIO = _drive_param("gear_ratio", 47.0)
NO_LOAD_RPM = _drive_param("no_load_rpm", 5400.0)
SPOOL_RADIUS_MM = _drive_param("spool_radius_mm", 2.0)
MAX_SPEED_MM_S = NO_LOAD_RPM / GEAR_RATIO / 60.0 * 2.0 * math.pi * SPOOL_RADIUS_MM
MOTOR_TIME_CONSTANT_S = _drive_param("time_constant_s", 0.025)
TRAVEL_MM = _drive_param("travel_mm", 55.0)


@dataclass(frozen=True)
class MotorState:
    excursion_mm: float
    velocity_mm_s: float = 0.0


# What every hand shares: per joint, as (MCP, PIP) for each digit, the flexed
# rest pose that stands in for resting flexor tone, the flexion stops and the
# damping; and the series stiffness of the cable. The arrays are read-only
# views, so no plant writes through them.
REST_DEG = np.broadcast_to([55.0, 65.0], (len(DIGITS), len(JOINTS)))
MAX_DEG = np.broadcast_to([90.0, 100.0], (len(DIGITS), len(JOINTS)))
DAMPING_NMM_S_DEG = np.broadcast_to([2.2, 1.8], (len(DIGITS), len(JOINTS)))
TENDON_STIFFNESS_N_MM = 40.0


@dataclass(frozen=True)
class HandPlant:
    """One hand in the four-digit tendon-finger system: its pose, tone and arms.

    Arrays are shaped (4 digits, 2 joints) ordered index..little x (MCP, PIP).
    Stiffness acts about ``REST_DEG``: multiplying ``stiffness_nmm_deg``
    models higher spasticity grades resisting extension harder.
    """

    angles_deg: np.ndarray
    stiffness_nmm_deg: np.ndarray
    moment_arm_mm: np.ndarray

    def __post_init__(self) -> None:
        for name in ("angles_deg", "stiffness_nmm_deg", "moment_arm_mm"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (len(DIGITS), len(JOINTS)):
                raise ValueError(f"{name} must have shape (4, 2)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        if np.any(self.angles_deg < 0.0) or np.any(self.angles_deg > MAX_DEG):
            raise ValueError("joint angles outside [0, max]")
        if np.any(self.stiffness_nmm_deg < 0.0):
            raise ValueError("stiffness must be >= 0")

    def cable_take_up_mm(self) -> np.ndarray:
        """Cable length absorbed by each digit's flexion."""
        return (self.moment_arm_mm * self.angles_deg * _DEG2RAD).sum(axis=1)


_DIGIT_SCALE = np.array([1.0, 1.05, 0.95, 0.85])
_JOINT_SCALE = np.array([0.88, 1.0])  # fingertip component enlarges the PIP arm
_BASE_ARM_MM = {"S": 11.0, "M": 13.0, "L": 15.0}

#: Modified Ashworth grade to stiffness multiplier.
MAS_STIFFNESS = {"0": 1.0, "1": 2.0, "1+": 3.0, "2": 4.0}


def default_plant(hand_size: str = "M", stiffness_scale: float = 1.0,
                  angles_deg: np.ndarray = REST_DEG) -> HandPlant:
    """Nominal plant for a glove size, optionally scaled for spasticity grade."""
    if hand_size not in _BASE_ARM_MM:
        raise ValueError(f"unknown hand size {hand_size!r}; expected one of S, M, L")
    if stiffness_scale <= 0.0:
        raise ValueError("stiffness scale must be positive")
    return HandPlant(
        angles_deg=angles_deg,
        stiffness_nmm_deg=stiffness_scale * np.tile(np.array([1.3, 1.1]), (len(DIGITS), 1)),
        moment_arm_mm=_BASE_ARM_MM[hand_size] * np.outer(_DIGIT_SCALE, _JOINT_SCALE),
    )


def flexed_plant(hand_size: str = "M", stiffness_scale: float = 1.0) -> HandPlant:
    """Plant with every joint at its flexion stop."""
    return default_plant(hand_size, stiffness_scale, MAX_DEG)


# ---------------------------------------------------------------------------
# Intent-to-setpoint state machine

FSM_STATES = ("IDLE", "EXTENDING", "HOLD_OPEN", "RELEASING", "HOLD_CLOSED")

#: Excursion tolerance for declaring a setpoint reached, mm.
SETPOINT_TOL_MM = 0.25


_LABELS = tuple(IntentLabel)
_OPEN, _RELAX, _CLOSE = (_LABELS.index(label) for label in
                         (IntentLabel.OPEN, IntentLabel.RELAX, IntentLabel.CLOSE))
# Each hold state follows its move state: settling adds 1 to the code, and
# the move states are the odd codes.
_IDLE, _EXTENDING, _HOLD_OPEN, _RELEASING, _HOLD_CLOSED = range(len(FSM_STATES))


@dataclass(frozen=True, eq=False)
class TrajectoryColumns:
    """A recorded trajectory: one array per quantity, one row per tick.

    ``intent`` and ``fsm`` hold indices into ``IntentLabel`` and
    ``FSM_STATES``, ``setpoint_mm`` is NaN before the first command, and
    ``angles_deg`` is (ticks, 8) in ``DIGITS`` x ``JOINTS`` order.
    """

    t: np.ndarray
    intent: np.ndarray
    fsm: np.ndarray
    setpoint_mm: np.ndarray
    excursion_mm: np.ndarray
    tension_n: np.ndarray
    angles_deg: np.ndarray
    velocity_mm_s: np.ndarray
    effort: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


#: One trajectory line. Fields 1 and 2 take the intent and state names as
#: JSON strings; ``_FLOAT_FIELDS`` are where the float columns t, sp, x, F
#: and the angles go, in that order.
_TICK_ROW = ('{"t":%s,"intent":%s,"fsm":%s,"sp":%s,"x":%s,"F":%s,"q":['
             + ",".join(["%s"] * (len(DIGITS) * len(JOINTS))) + "]}\n")
_FLOAT_FIELDS = np.array([0, 3, 4, 5, *range(6, 6 + len(DIGITS) * len(JOINTS))])
_INTENT_JSON = np.array([COMPACT_JSON.encode(str(label)) for label in _LABELS], dtype=object)
_FSM_JSON = np.array([COMPACT_JSON.encode(name) for name in FSM_STATES], dtype=object)


@dataclass
class TrajectoryLog:
    """One episode's trajectory: the recorded columns, one row per ``CONTROL_DT_S`` tick."""

    ticks: TrajectoryColumns

    def to_jsonl(self) -> str:
        """The header line, then one line per tick: time, intent, state,
        setpoint (``sp``), excursion (``x``), tension (``F``) and angles (``q``).

        The tick lines come from one ``%`` over the row template repeated
        once per tick, and hold the bytes that one ``json`` call per line
        would write. ``%s`` of a finite float is ``float.__repr__``, which is
        how ``json`` spells it; the values it spells otherwise (a setpoint
        before the first command, an aborted tick's NaN or inf) are put in
        as ``json`` writes them, the NaN setpoint as ``null``.
        """
        header = {"schema": TRAJECTORY_SCHEMA, "dt_s": CONTROL_DT_S, "joints": [f"{d}_{j}" for d in DIGITS for j in JOINTS]}
        cols = self.ticks
        floats = np.column_stack((cols.t, cols.setpoint_mm, cols.excursion_mm, cols.tension_n, cols.angles_deg))
        fields = np.empty((len(cols), len(_FLOAT_FIELDS) + 2), dtype=object)
        fields[:, _FLOAT_FIELDS] = floats
        fields[:, 1] = _INTENT_JSON[cols.intent]
        fields[:, 2] = _FSM_JSON[cols.fsm]
        row, col = np.nonzero(~np.isfinite(floats))
        odd = floats[row, col]
        fields[row, _FLOAT_FIELDS[col]] = np.where(
            np.isnan(odd), np.where(col == 1, "null", "NaN"),  # float column 1 is sp
            np.where(odd > 0.0, "Infinity", "-Infinity"))
        rows = (_TICK_ROW * len(cols)) % tuple(fields.ravel().tolist())
        return COMPACT_JSON.encode(header) + "\n" + rows


@dataclass(frozen=True)
class Episode:
    """One episode for ``run_episodes``: its intent stream, length (at most
    ``MAX_SAMPLES`` ticks) and hand.

    ``intents`` is a ``(t, codes)`` stream: event times in seconds and their
    indices into ``IntentLabel``. ``plant`` defaults to ``default_plant()``;
    ``initial_motor`` defaults to the motor parked at the plant's cable
    take-up (slack cable), clipped to the travel. ``voluntary_nmm`` is a
    joint torque, constant or a function of time.
    """

    intents: tuple[np.ndarray, np.ndarray]
    duration_s: float
    rom: RomCalibration
    plant: HandPlant | None = None
    voluntary_nmm: float | Callable[[float], float] = 0.0
    initial_motor: MotorState | None = None

    def __post_init__(self) -> None:
        if not (self.duration_s > 0.0 and math.isfinite(self.duration_s)):
            raise ValueError(f"duration must be positive and finite, got {self.duration_s!r}")
        if self.duration_s / CONTROL_DT_S > MAX_SAMPLES:
            raise ValueError(f"a {self.duration_s!r} s episode would exceed "
                             f"MAX_SAMPLES = {MAX_SAMPLES} ticks of {CONTROL_DT_S} s")
        t, codes = (np.asarray(a) for a in self.intents)
        if t.shape != codes.shape or t.ndim != 1:
            raise ValueError("an intent stream needs one code per event time")
        # Unequal to every index, by value: 1.0 and True are indices, 1.5 and NaN not.
        bad = codes[(codes != _OPEN) & (codes != _RELAX) & (codes != _CLOSE)]
        if len(bad):
            raise ValueError(f"intent codes must be IntentLabel indices, got {bad[0].item()!r}")
        if not np.isfinite(t).all():
            raise ValueError(f"intent event times must be finite, got {t[~np.isfinite(t)][0].item()!r}")


def _commands(
    intents: tuple[np.ndarray, np.ndarray], t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per tick, the latest label with timestamp <= t and the command it holds.

    Events are put in time order by a stable sort, so events at the same
    time apply in their stream order and the last of them holds. Labels are
    RELAX before the first event; the held command is the latest OPEN or
    CLOSE label so far, RELAX before the first.
    """
    event_t, event_codes = intents
    order = np.argsort(event_t, kind="stable")
    times = np.concatenate(([-math.inf], event_t[order]))
    codes = np.concatenate(([_RELAX], event_codes[order])).astype(np.int8)
    labels = codes[np.searchsorted(times, t, side="right") - 1]
    # Index of the latest command; before the first, tick 0, which is RELAX.
    last = np.maximum.accumulate(np.where(labels != _RELAX, np.arange(len(t)), 0))
    return labels, labels[last]


def run_episodes(
    episodes: Sequence[Episode], record: bool = True,
) -> list[TrajectoryLog | SafetyAbort | None]:
    """Run E episodes of the control loop in lockstep; one outcome per episode.

    State is held in (2 joints, 4 digits, E) joint-angle and (E,) motor and
    FSM arrays, updated in the float order of the scalar reference's
    proportional, motor, plant and setpoint steps, so each episode matches
    it bit for bit.
    Each setpoint is state too, NaN until the first command, set on the few
    ticks where the held command changes, which also start the FSM's move:
    OPEN retracts, CLOSE extends, RELAX holds the last command.

    Every live episode is checked on every tick for non-finite state, the
    tension cap and the hyperextension block, in that order. A tick whose
    merged screen passes has no breach; otherwise each episode is checked
    exactly. The screen reads the extremes of the excursions, the tensions
    and the angles at their ``argmin``/``argmax``, which pick the first NaN,
    so it misses no NaN. An episode that fails stops at that tick and its
    outcome is a ``SafetyAbort``; the others run on. Otherwise
    the outcome is its ``TrajectoryLog`` when ``record`` is set and None
    when not. Trajectories are kept only when ``record`` is set, so an
    abort's log has no ticks without it; the FSM, which feeds only its
    trajectory column, settles only then too.
    """
    n_episodes = len(episodes)
    if n_episodes == 0:
        return []
    plants = [ep.plant if ep.plant is not None else default_plant() for ep in episodes]
    steps = [int(round(ep.duration_s / CONTROL_DT_S)) for ep in episodes]
    n_max = max(steps)
    t_col = np.arange(n_max) * CONTROL_DT_S

    # Per tick, the episodes that end on it and each change of a held command
    # as (episode, setpoint, FSM move). A command once given is held, so from
    # the first tick with every episode commanded no tick needs the mask below.
    labels, changes, ends, firsts = [], {}, {}, []
    for e, (ep, n) in enumerate(zip(episodes, steps)):
        ends.setdefault(n, []).append(e)
        label, held = _commands(ep.intents, t_col[:n])
        labels.append(label)
        ticks = np.flatnonzero(held != np.concatenate(([_RELAX], held))[:-1]).tolist()
        for i, code in zip(ticks, held[ticks].tolist()):
            changes.setdefault(i, []).append(
                (e, ep.rom.retracted_mm, _EXTENDING) if code == _OPEN
                else (e, ep.rom.extended_mm, _RELEASING))
        firsts.append(ticks[0] if ticks else n_max)
    first_any, first_all = min(firsts), max(firsts)

    # Joint-major plant state, (2 joints, 4 digits, E): the hands' arrays,
    # validated when each HandPlant was built, from one stack whose release
    # lifts glibc's trim threshold over a pilot-sized tick's temporaries; and
    # the joint constants tiled once. A digit's take-up is MCP + PIP, and (E,)
    # and (4, E) arrays broadcast on the leading axes, with no view. Every
    # array is C-contiguous: strided operands cost about twice per call.
    angles, arm, stiffness = np.array([(p.angles_deg, p.moment_arm_mm, p.stiffness_nmm_deg)
                                       for p in plants]).transpose(1, 3, 2, 0).copy()
    rest, q_max, damping = (np.tile(c.T[:, :, None], (1, 1, n_episodes))
                            for c in (REST_DEG, MAX_DEG, DAMPING_NMM_S_DEG))

    motors = [
        ep.initial_motor if ep.initial_motor is not None else MotorState(
            excursion_mm=min(p.cable_take_up_mm().max(), TRAVEL_MM))
        for ep, p in zip(episodes, plants)
    ]
    x = np.array([m.excursion_mm for m in motors], dtype=float)
    velocity = np.array([m.velocity_mm_s for m in motors], dtype=float)
    setpoint = np.full(n_episodes, np.nan)
    fsm = np.full(n_episodes, _IDLE, dtype=np.int8)
    voluntary = np.array([0.0 if callable(ep.voluntary_nmm) else ep.voluntary_nmm
                          for ep in episodes], dtype=float)
    disturbed = [(e, ep.voluntary_nmm) for e, ep in enumerate(episodes)
                 if callable(ep.voluntary_nmm)]
    # Adding a zero torque can only turn a -0.0 into +0.0, which the clamp
    # at zero does too, so a batch with none skips the add.
    any_voluntary = bool(disturbed) or bool(voluntary.any())

    # Constants as 0-d arrays: a ufunc call with a Python or numpy scalar
    # operand costs about half as much again as one with arrays.
    (kp, one, neg_one, max_speed, tau, travel, dt, deg2rad, tendon, cap, tol, zero) = (
        np.asarray(v, dtype=float) for v in (
            KP, 1.0, -1.0, MAX_SPEED_MM_S, MOTOR_TIME_CONSTANT_S, TRAVEL_MM, CONTROL_DT_S,
            _DEG2RAD, TENDON_STIFFNESS_N_MM, TENSION_CAP_N, SETPOINT_TOL_MM, 0.0))
    move_bit = np.asarray(1, dtype=np.int8)
    where, maximum, minimum, add_reduce = np.where, np.maximum, np.minimum, np.add.reduce

    width = n_max if record else 0
    x_col = np.empty((n_episodes, width))
    tension_col = np.empty((n_episodes, width))
    velocity_col = np.empty((n_episodes, width))
    effort_col = np.empty((n_episodes, width))
    fsm_col = np.empty((n_episodes, width), dtype=np.int8)
    setpoint_col = np.empty((n_episodes, width))
    angles_col = np.empty((n_episodes, width, len(DIGITS), len(JOINTS)))

    live = np.ones(n_episodes, dtype=bool)
    length = list(steps)
    aborts: dict[int, str] = {}
    n_live = n_episodes
    for i in range(n_max):
        if i in ends:
            n_live -= int(live[ends[i]].sum())
            live[ends[i]] = False
        if n_live == 0:
            break
        t = i * CONTROL_DT_S
        for e, torque in disturbed:
            if live[e]:
                voluntary[e] = torque(t)
        for e, held_mm, move in changes.get(i, ()):  # a new command starts a move
            setpoint[e] = held_mm
            fsm[e] = move

        # Saturated proportional step. Before its first command an episode
        # has no setpoint (NaN, unequal to itself) and makes no effort.
        if i >= first_any:
            effort = minimum(maximum(kp * (setpoint - x), neg_one), one)
            if i < first_all:
                effort = where(setpoint == setpoint, effort, zero)
        else:
            effort = zero

        # Motor: first-order velocity lag, travel-limited. One min/max pair
        # decides the clamp and screens x: after it, x is finite or NaN.
        velocity = velocity + (effort * max_speed - velocity) * dt / tau
        x = x + velocity * dt
        x_min, x_max = x.item(x.argmin()), x.item(x.argmax())
        if not (x_min >= 0.0 and x_max <= TRAVEL_MM):
            below, beyond = x < zero, x > travel
            x = where(below, zero, where(beyond, travel, x))
            velocity = where(below | beyond, zero, velocity)
        x_finite = x_min == x_min

        # Plant: capped cable tension, tone and voluntary torque, clamped
        # angles. The cap's argmax picks a NaN, so a NaN sibling cannot
        # stop another episode being capped. A digit's take-up and the
        # total tension are sums in the scalar order, MCP + PIP and index to
        # little; stiffness * (rest - angles) - tension * arm is the same
        # bits as -tension * arm + stiffness * (rest - angles).
        p = arm * angles * deg2rad
        tension = tendon * maximum(p[0] + p[1] - x, zero)
        total = add_reduce(tension, axis=0)
        total_max = total.item(total.argmax())
        if not total_max <= TENSION_CAP_N:
            over = total > cap
            tension[:, over] = tension[:, over] * (cap / total[over])
            total[over] = cap
            total_max = total.item(total.argmax())
        torque = stiffness * (rest - angles) - tension * arm
        if any_voluntary:
            torque = torque + voluntary
        angles = minimum(maximum(angles + torque / damping * dt, zero), q_max)

        if record:
            # FSM settle: a move (the odd codes) that reaches its setpoint holds.
            fsm = fsm + ((fsm & move_bit) & (abs(x - setpoint) <= tol))
            x_col[:, i] = x
            tension_col[:, i] = total
            velocity_col[:, i] = velocity
            effort_col[:, i] = effort
            fsm_col[:, i] = fsm
            setpoint_col[:, i] = setpoint
            angles_col[:, i] = angles.transpose(2, 1, 0)

        # Safety invariants, per live episode, in order. The screen passes on
        # almost every tick: the angles' min catches NaN and hyperextension,
        # their max NaN and +inf.
        if (x_finite and total_max <= TENSION_CAP_N + 1e-9
                and angles.item(angles.argmin()) >= -1e-9
                and math.isfinite(angles.item(angles.argmax()))):
            continue
        non_finite = ~(np.isfinite(angles).all(axis=(0, 1)) & np.isfinite(x))
        over_cap = total > TENSION_CAP_N + 1e-9
        hyperextended = (angles < -1e-9).any(axis=(0, 1))
        for e in np.flatnonzero(live & (non_finite | over_cap | hyperextended)).tolist():
            if non_finite[e]:
                aborts[e] = f"non-finite state at t={t:.3f}"
            elif over_cap[e]:
                aborts[e] = f"tension cap breached at t={t:.3f}: {total[e]:.2f} N"
            else:
                aborts[e] = f"hyperextension block breached at t={t:.3f}"
            live[e] = False
            length[e] = i + 1
            n_live -= 1

    outcomes: list[TrajectoryLog | SafetyAbort | None] = []
    for e in range(n_episodes):
        n = min(length[e], width)
        log = TrajectoryLog(TrajectoryColumns(
            t=t_col[:n],
            intent=labels[e][:n],
            fsm=fsm_col[e, :n],
            setpoint_mm=setpoint_col[e, :n],
            excursion_mm=x_col[e, :n],
            tension_n=tension_col[e, :n],
            angles_deg=angles_col[e, :n].reshape(n, len(DIGITS) * len(JOINTS)),
            velocity_mm_s=velocity_col[e, :n],
            effort=effort_col[e, :n],
        ))
        if e in aborts:
            outcomes.append(SafetyAbort(aborts[e], log))
        else:
            outcomes.append(log if record else None)
    return outcomes


def run_episode(
    intents: tuple[np.ndarray, np.ndarray],
    duration_s: float,
    rom: RomCalibration,
    plant: HandPlant | None = None,
    voluntary_nmm: float | Callable[[float], float] = 0.0,
    initial_motor: MotorState | None = None,
) -> TrajectoryLog:
    """Run the control loop over a ``(t, codes)`` intent stream: ``run_episodes`` for one.

    At each tick the latest label with timestamp <= t applies (RELAX before
    the first event). Raises SafetyAbort (with the partial log attached) if
    the state goes non-finite or breaches the tension cap or the
    hyperextension block.
    """
    episode = Episode(intents, duration_s, rom, plant, voluntary_nmm, initial_motor)
    (outcome,) = run_episodes([episode])
    if isinstance(outcome, SafetyAbort):
        raise outcome
    return outcome


def count_direction_reversals(log: TrajectoryLog, min_speed_mm_s: float = 0.5) -> int:
    """Number of motor direction flips, ignoring speeds below the dead band.

    A speed outside the band that is not positive (zero or NaN) counts as
    the reverse direction.
    """
    v = log.ticks.velocity_mm_s
    forward = v[~(np.abs(v) < min_speed_mm_s)] > 0.0
    return int(np.count_nonzero(forward[1:] != forward[:-1]))


def time_to_open(log: TrajectoryLog, threshold_deg: float = OPEN_THRESHOLD_DEG) -> float | None:
    """First time every joint is below the open threshold, if reached.

    A tick with a NaN joint angle never counts as open.
    """
    opened = np.flatnonzero((log.ticks.angles_deg < threshold_deg).all(axis=1))
    return float(log.ticks.t[opened[0]]) if len(opened) else None
