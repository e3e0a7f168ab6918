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

One engine runs every episode, each an ``Episode`` checked when built:
``run_episodes`` steps each distinct one as a lane, one recurrence on Python
floats every ``CONTROL_DT_S`` (``_step_lane``), so a lane-tick costs the
same whatever the number of lanes, and gives each its ``TrajectoryLog``;
``run_episode`` runs one. An unrecorded call, as a session makes, may start
a lane where an earlier call left one in a module table (``_resume``) or
where an earlier lane of the call reached (``_share``). The gain, the drive
and what every hand shares (rest pose, flexion stops, damping, tendon
stiffness) are module constants, the drive's checked once at import; a
``HandPlant`` holds only what differs between hands. The scalar reference
the engine matches bit for bit lives with the tests in ``tests/reference.py``.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from exobench.signals import COMPACT_JSON, INTENT_CODE, MAX_SAMPLES, IntentLabel

CONTROL_DT_S = 0.005
TENSION_CAP_N = 100.0

DIGITS = ("index", "middle", "ring", "little")
JOINTS = ("mcp", "pip")

TRAJECTORY_SCHEMA = "exobench/trajectory-v1"

_DEG2RAD = math.pi / 180.0


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
class RomCalibration:
    """Excursion setpoints from the per-session range-of-motion pass."""

    retracted_mm: float  # hand fully open
    extended_mm: float   # cable slack, hand closable

    def __post_init__(self) -> None:
        if not self.retracted_mm < self.extended_mm:
            raise ValueError("retracted setpoint must be below extended setpoint")
        if not (self.retracted_mm >= 0.0 and self.extended_mm <= TRAVEL_MM):  # the motor stops there
            raise ValueError(f"setpoints must lie within the 0-{TRAVEL_MM:g} mm travel, got {self!r}")


#: By glove size: the excursion range and the base moment arm, mm, that
#: each digit's and joint's scale multiplies.
GLOVE_TABLE = {
    "S": (RomCalibration(0.0, 38.0), 11.0),
    "M": (RomCalibration(0.0, 45.0), 13.0),
    "L": (RomCalibration(0.0, 52.0), 15.0),
}


def _glove(hand_size: str) -> tuple[RomCalibration, float]:
    try:
        return GLOVE_TABLE[hand_size]
    except KeyError:
        raise ValueError(f"unknown hand size {hand_size!r}; expected one of S, M, L") from None


def calibrate_rom(hand_size: str) -> RomCalibration:
    """Setpoints for a glove size (S/M/L)."""
    return _glove(hand_size)[0]


# The position loop is one saturated proportional step,
# effort = clip(KP * (setpoint - x), -1, 1). KP was tuned once against the
# M-size plant so a full retraction lands on the 1.8 s device figure. The
# loop is type 1 (the motor integrates velocity), so proportional action
# alone settles with zero steady-state error, and KP keeps the velocity-lag
# pole pair at critical damping so the approach never overshoots.
KP = 0.4


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

    Arrays are shaped (4 digits, 2 joints) ordered index..little x (MCP, PIP),
    kept as the read-only float64 copies that were checked. Stiffness acts
    about ``REST_DEG``: multiplying ``stiffness_nmm_deg`` models higher
    spasticity grades resisting extension harder.
    """

    angles_deg: np.ndarray
    stiffness_nmm_deg: np.ndarray
    moment_arm_mm: np.ndarray

    def __post_init__(self) -> None:
        for name in ("angles_deg", "stiffness_nmm_deg", "moment_arm_mm"):
            arr = np.array(getattr(self, name), dtype=float)  # a copy: the plant runs what it checked
            if arr.shape != (len(DIGITS), len(JOINTS)):
                raise ValueError(f"{name} must have shape (4, 2)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(self.angles_deg < 0.0) or np.any(self.angles_deg > MAX_DEG):
            raise ValueError("joint angles outside [0, max]")
        if np.any(self.stiffness_nmm_deg < 0.0):
            raise ValueError("stiffness must be >= 0")
        if np.any(self.moment_arm_mm <= 0.0):  # the cable would pull no joint open
            raise ValueError("moment arms must be > 0")

    def cable_take_up_mm(self) -> np.ndarray:
        """Cable length absorbed by each digit's flexion."""
        return (self.moment_arm_mm * self.angles_deg * _DEG2RAD).sum(axis=1)


_DIGIT_SCALE = np.array([1.0, 1.05, 0.95, 0.85])
_JOINT_SCALE = np.array([0.88, 1.0])  # fingertip component enlarges the PIP arm

#: Modified Ashworth grade to stiffness multiplier.
MAS_STIFFNESS = {"0": 1.0, "1": 2.0, "1+": 3.0, "2": 4.0}


def default_plant(hand_size: str = "M", stiffness_scale: float = 1.0,
                  angles_deg: np.ndarray = REST_DEG) -> HandPlant:
    """Nominal plant for a glove size, optionally scaled for spasticity grade."""
    _rom, base_arm_mm = _glove(hand_size)
    if stiffness_scale <= 0.0:
        raise ValueError("stiffness scale must be positive")
    return HandPlant(
        angles_deg=angles_deg,
        stiffness_nmm_deg=stiffness_scale * np.tile(np.array([1.3, 1.1]), (len(DIGITS), 1)),
        moment_arm_mm=base_arm_mm * np.outer(_DIGIT_SCALE, _JOINT_SCALE),
    )


def flexed_plant(hand_size: str = "M", stiffness_scale: float = 1.0) -> HandPlant:
    """Plant with every joint at its flexion stop."""
    return default_plant(hand_size, stiffness_scale, MAX_DEG)


# ---------------------------------------------------------------------------
# Intent-to-setpoint state machine

FSM_STATES = ("IDLE", "EXTENDING", "HOLD_OPEN", "RELEASING", "HOLD_CLOSED")

#: Excursion tolerance for declaring a setpoint reached, mm.
SETPOINT_TOL_MM = 0.25

_OPEN, _RELAX, _CLOSE = map(INTENT_CODE.get, (IntentLabel.OPEN, IntentLabel.RELAX, IntentLabel.CLOSE))
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


@dataclass
class TrajectoryLog:
    """One episode's outcome: its recorded columns, one row per ``CONTROL_DT_S``
    tick, and the diagnostic of the safety invariant it broke, or None."""

    ticks: TrajectoryColumns
    abort: str | None = None

    def to_jsonl(self) -> str:
        """The header line, then one ``COMPACT_JSON.encode`` per tick line: time,
        intent, state, setpoint (``sp``, null before the first command),
        excursion (``x``), tension (``F``) and angles (``q``), where an aborted
        tick's NaN or inf is spelled ``NaN``, ``Infinity`` or ``-Infinity``."""
        header = {"schema": TRAJECTORY_SCHEMA, "dt_s": CONTROL_DT_S, "joints": [f"{d}_{j}" for d in DIGITS for j in JOINTS]}
        cols = self.ticks
        intents = [label.value for label in IntentLabel]
        encode = COMPACT_JSON.encode
        lines = [encode(header)]
        lines += [encode({"t": t, "intent": intents[i], "fsm": FSM_STATES[s], "sp": None if sp != sp else sp,
                          "x": x, "F": f, "q": q})
                  for t, i, s, sp, x, f, q in zip(cols.t.tolist(), cols.intent.tolist(), cols.fsm.tolist(),
                                                  cols.setpoint_mm.tolist(), cols.excursion_mm.tolist(),
                                                  cols.tension_n.tolist(), cols.angles_deg.tolist())]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Episode:
    """One episode for ``run_episodes``: its intent stream, length (one to
    ``MAX_SAMPLES`` ticks) and hand.

    ``intents`` is a ``(t, codes)`` stream, kept as the read-only copies it
    checked: finite float64 event times in seconds, in any order, and their
    int8 indices into ``IntentLabel``. ``plant`` defaults to ``default_plant()``;
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
        if not self.duration_s / CONTROL_DT_S > 0.5:  # the tick count rounds to 0
            raise ValueError(f"a {self.duration_s!r} s episode holds no {CONTROL_DT_S!r} s control tick")
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
        t, codes = t.astype(float), codes.astype(np.int8)  # copies: the episode runs what it checked
        t.flags.writeable = codes.flags.writeable = False
        object.__setattr__(self, "intents", (t, codes))


def _commands(intents: tuple[np.ndarray, np.ndarray],
              tick_t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The label runs over the ticks at times ``tick_t``, as their first ticks
    and labels; and the ticks and codes of the held command's changes, the
    runs not RELAX whose code differs from the last such run's.

    A tick's label is the latest event's with timestamp <= its time, RELAX
    before the first. So each event, in time order by a stable sort, applies
    from the first tick at or after it; of the events that share that tick
    the last holds, and one at or after the end never applies.
    """
    event_t, event_codes = intents
    order = np.argsort(event_t, kind="stable")
    at = np.concatenate(([0], np.searchsorted(tick_t, event_t[order]), [len(tick_t)]))  # RELAX at 0, the end
    holds = at[:-1] != at[1:]  # the last event of each tick before the end
    starts, labels = at[:-1][holds], np.concatenate(([_RELAX], event_codes[order]), dtype=np.int8)[holds]
    ticks, codes = starts[labels != _RELAX], labels[labels != _RELAX]
    changed = codes != np.concatenate(([_RELAX], codes[:-1]))
    return starts, labels, ticks[changed], codes[changed]


#: The states that unrecorded ``run_episodes`` lanes the table serves have
#: taken at the start of a tick where their held command changes, and at
#: their end if they broke no invariant, by ``_resume``'s key, oldest first:
#: the tick, counted from the lane's first change, and the float64 bits of
#: the excursion, the velocity and the eight angles in ``DIGITS`` x
#: ``JOINTS`` order. Only ``_resume`` reads it and only ``_remember`` writes
#: it; at most ``_STATES_MAX`` keys of about 550 B each, so about 2.2 MB.
#: ``_TABLES_UNDER`` holds the bits of the module constants it was filled under.
_STATES: dict[bytes, tuple[int, bytes]] = {}
_STATES_MAX = 4096
_TABLES_UNDER = b""


@dataclass(slots=True, eq=False)
class _Lane:
    """One distinct input of a ``run_episodes`` call, from plan to outcome:
    ``_step_lane``'s arguments and results, ``state`` as float64 bits; its
    change ticks and context bits; ``_resume``'s memo, for a served lane that
    steps; and ``donors`` from ``_share``: (lane, its keep tick, our start)."""

    plant: HandPlant
    torque: float | Callable[[float], float]
    state: bytes
    changes: list[int]
    moves: dict[int, tuple[float, int] | None]
    n: int
    context: bytes | None
    start: int = 0
    memo: tuple | None = None
    donors: list[tuple[_Lane, int, int]] = field(default_factory=list)
    states: dict[int, bytes] = field(default_factory=dict)
    abort: str | None = None
    rows: list | np.ndarray | None = None


def _resume(context: bytes, ticks: np.ndarray, codes: np.ndarray,
            n: int) -> tuple[int, bytes | None, tuple | None]:
    """Where an unrecorded lane that the table serves starts: its start tick,
    the bits of the remembered state it starts in (None for its own) and
    ``_remember``'s memo of it, None when it steps no tick.

    The table serves a lane whose start state holds until its first change:
    a hand that one uncommanded tick leaves bit-identical, as it does one at
    rest with a slack cable, or a lane commanded from tick 0. Its state
    after k of its held-command changes is keyed by ``context`` (the lane's
    key without its tick count and schedule) and those k changes, their
    ticks counted from the first; its end state also by all its changes and
    its length from the first, so a longer twin finds its own end, not a
    shorter one's. It starts at that end if remembered, else at the deepest
    remembered state that comes no later than its next change or its end:
    the state a lane stepped from tick 0 reaches there, bit for bit, with no
    invariant broken before it; failing that, at its first change. One that
    starts at its end is parked; an aborted input, with no end state, steps
    again to the same abort.
    """
    schedule = [*ticks.tolist(), n, n]  # the ticks of its changes, then its end under two keys
    first = schedule[0]
    changes = np.column_stack((ticks - first, codes)).astype(float).tobytes()
    keys = [context + changes[:16 * k] for k in range(len(ticks) + 1)]
    keys.append(keys[-1] + np.float64(n - first).tobytes())
    start, state = first, None
    for k in range(len(keys) - 1, -1, -1):
        found = _STATES.get(keys[k])
        if found is not None and first + found[0] <= schedule[k]:  # the end key's depth is all the changes
            start, state = first + found[0], found[1]
            break
    return start, state, (schedule, keys) if start < n else None


def _remember(served: Iterable[_Lane]) -> None:
    """Keep the states that a call's served lanes reached, with no invariant
    broken before them: the state at each tick of a lane's schedule, from
    ``_resume``'s memo, under the key of the changes before it, at its tick
    from the first change, and its end state under its end key too. A new
    key evicts the oldest once the table holds ``_STATES_MAX``. A key keeps
    the earliest tick it was taken at, which serves every lane whose next
    change or end comes then or later."""
    for lane in served:
        schedule, keys = lane.memo
        for key, a in zip(keys, schedule):
            if a in lane.states:
                held = _STATES.get(key)
                if held is None and len(_STATES) >= _STATES_MAX:
                    del _STATES[next(iter(_STATES))]  # the oldest
                if held is None or a - schedule[0] < held[0]:
                    _STATES[key] = (a - schedule[0], lane.states[a])


def _shared(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """How long two lanes of one context and first command step alike from
    their first change, given each one's change ticks and then its end,
    counted from that change: to the earlier tick of the first pair that
    differs, or to the end of the one that is a prefix of the other (their
    changes alternate, so equal ticks are equal changes)."""
    for x, y in zip(a, b):
        if x != y:
            return x if x < y else y
    return a[-1] if len(a) <= len(b) else b[-1]


def _share(served: Sequence[_Lane]) -> None:
    """The share phase: a served lane that steps may start from an earlier
    one of its context and first command. The two step alike, each counted
    from its first change, for as long as ``_shared`` says; so the earlier
    keeps its state at that tick, and the later starts at the latest such
    state an earlier lane reached, when after the start ``_resume`` gave it.
    Every table write this skips was offered, at the same key and tick, by
    an earlier lane: with no eviction inside a call, the table is unchanged."""
    groups: dict[tuple, list[tuple[_Lane, tuple[int, ...]]]] = {}
    for lane in served:
        first = lane.changes[0]
        shape = (*(tick - first for tick in lane.changes), lane.n - first)
        group = groups.setdefault((lane.context, lane.moves[first]), [])
        for earlier, earlier_shape in group:
            shared = _shared(earlier_shape, shape)
            if first + shared > lane.start:
                earlier.moves.setdefault(earlier.changes[0] + shared, None)
                lane.donors.append((earlier, earlier.changes[0] + shared, first + shared))
        group.append((lane, shape))


def _step_lane(state: Sequence[float], plant: HandPlant, torque: float | Callable[[float], float],
               moves: dict[int, tuple[float, int] | None], setpoint: float, start: int, n: int,
               record: bool) -> tuple[int, str | None, dict[int, bytes], list]:
    """One lane from tick ``start``, in ``state`` (excursion, velocity and the
    eight angles in ``DIGITS`` x ``JOINTS`` order), to its end ``n`` or its
    abort, as one recurrence on Python floats: each tick the proportional
    step, the motor and the plant, in the scalar reference's float order.

    ``setpoint`` is the one held at ``start``, NaN before the first command,
    when no effort is made; ``moves`` gives, by tick, the (setpoint, FSM
    code) each held-command change sets, or None on a tick where the lane
    only keeps its state. The hand constants are read when the lane runs.
    Each tick is screened by scalar comparisons: the sum of the excursion
    and the angles is finite, the total tension is within the cap and the
    least angle is not below the block. When the screen fails, the
    invariants are checked exactly, in the reference's order, and a breach
    stops the lane on that tick. Returns the ticks it stepped, its
    diagnostic or None, the float64 bits of its state at each tick of
    ``moves`` it reached and at its end, with no invariant broken before
    them, and, when recording, 14 values per tick: the effort, velocity,
    FSM code, setpoint, excursion, total tension and angles.
    """
    kp, speed, dt, tau, travel, tol = (KP, MAX_SPEED_MM_S, CONTROL_DT_S, MOTOR_TIME_CONSTANT_S, TRAVEL_MM,
                                       SETPOINT_TOL_MM)
    deg2rad, tendon, cap, isfinite = _DEG2RAD, TENDON_STIFFNESS_N_MM, TENSION_CAP_N, math.isfinite
    limit = cap + 1e-9
    r0, r1, r2, r3, r4, r5, r6, r7 = np.ravel(REST_DEG).tolist()
    q0, q1, q2, q3, q4, q5, q6, q7 = np.ravel(MAX_DEG).tolist()
    d0, d1, d2, d3, d4, d5, d6, d7 = np.ravel(DAMPING_NMM_S_DEG).tolist()
    m0, m1, m2, m3, m4, m5, m6, m7 = plant.moment_arm_mm.ravel().tolist()
    k0, k1, k2, k3, k4, k5, k6, k7 = plant.stiffness_nmm_deg.ravel().tolist()
    x, v, a0, a1, a2, a3, a4, a5, a6, a7 = state
    disturbed = callable(torque)
    w = 0.0 if disturbed else float(torque)
    sp, fsm, states, rows = setpoint, _IDLE, {}, []
    for tick in range(start, n + 1):
        if tick in moves or tick == n:  # a change, a kept tick, or the end
            states[tick] = np.array((x, v, a0, a1, a2, a3, a4, a5, a6, a7)).tobytes()
            if tick == n:
                break
            sp, fsm = moves[tick] or (sp, fsm)
        if disturbed:
            w = float(torque(tick * dt))  # as a float64 array store casts it
        # The reference's min(max(e, -1.0), 1.0), comparison for comparison,
        # so a NaN is kept.
        e = kp * (sp - x) if sp == sp else 0.0
        effort = -1.0 if e < -1.0 else (1.0 if e > 1.0 else e)
        v = v + (effort * speed - v) * dt / tau
        x = x + v * dt
        if x < 0.0:
            x = v = 0.0
        elif x > travel:
            x, v = travel, 0.0
        # Per digit, the stretch is its take-up (MCP + PIP) less the
        # excursion; a clamp at zero written as a comparison keeps a NaN and
        # turns -0.0 into 0.0, as np.maximum(s, 0.0) does.
        s = m0 * a0 * deg2rad + m1 * a1 * deg2rad - x
        t0 = tendon * (0.0 if s <= 0.0 else s)
        s = m2 * a2 * deg2rad + m3 * a3 * deg2rad - x
        t1 = tendon * (0.0 if s <= 0.0 else s)
        s = m4 * a4 * deg2rad + m5 * a5 * deg2rad - x
        t2 = tendon * (0.0 if s <= 0.0 else s)
        s = m6 * a6 * deg2rad + m7 * a7 * deg2rad - x
        t3 = tendon * (0.0 if s <= 0.0 else s)
        total = t0 + t1 + t2 + t3
        if total > cap:
            f = cap / total
            t0, t1, t2, t3, total = t0 * f, t1 * f, t2 * f, t3 * f, cap
        # stiffness * (rest - angle) - tension * arm is the same bits as the
        # reference's -tension * arm + stiffness * (rest - angle).
        a0 = a0 + (k0 * (r0 - a0) - t0 * m0 + w) / d0 * dt
        a1 = a1 + (k1 * (r1 - a1) - t0 * m1 + w) / d1 * dt
        a2 = a2 + (k2 * (r2 - a2) - t1 * m2 + w) / d2 * dt
        a3 = a3 + (k3 * (r3 - a3) - t1 * m3 + w) / d3 * dt
        a4 = a4 + (k4 * (r4 - a4) - t2 * m4 + w) / d4 * dt
        a5 = a5 + (k5 * (r5 - a5) - t2 * m5 + w) / d5 * dt
        a6 = a6 + (k6 * (r6 - a6) - t3 * m6 + w) / d6 * dt
        a7 = a7 + (k7 * (r7 - a7) - t3 * m7 + w) / d7 * dt
        a0 = 0.0 if a0 <= 0.0 else (q0 if a0 > q0 else a0)
        a1 = 0.0 if a1 <= 0.0 else (q1 if a1 > q1 else a1)
        a2 = 0.0 if a2 <= 0.0 else (q2 if a2 > q2 else a2)
        a3 = 0.0 if a3 <= 0.0 else (q3 if a3 > q3 else a3)
        a4 = 0.0 if a4 <= 0.0 else (q4 if a4 > q4 else a4)
        a5 = 0.0 if a5 <= 0.0 else (q5 if a5 > q5 else a5)
        a6 = 0.0 if a6 <= 0.0 else (q6 if a6 > q6 else a6)
        a7 = 0.0 if a7 <= 0.0 else (q7 if a7 > q7 else a7)
        if record:  # FSM settle: a move (the odd codes) that reaches its setpoint holds.
            fsm += fsm & 1 and abs(x - sp) <= tol
            rows += effort, v, fsm, sp, x, total, a0, a1, a2, a3, a4, a5, a6, a7
        # The screen passes on almost every tick; a sum of finite values
        # that overflows only sends the tick to the exact checks.
        if (isfinite(x + a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7) and total <= limit and a0 >= -1e-9
                and a1 >= -1e-9 and a2 >= -1e-9 and a3 >= -1e-9 and a4 >= -1e-9 and a5 >= -1e-9
                and a6 >= -1e-9 and a7 >= -1e-9):
            continue
        angles = (a0, a1, a2, a3, a4, a5, a6, a7)
        t = tick * dt
        if not all(map(isfinite, (x, *angles))):
            abort = f"non-finite state at t={t:.3f}"
        elif total > limit:
            abort = f"tension cap breached at t={t:.3f}: {total:.2f} N"
        elif min(angles) < -1e-9:
            abort = f"hyperextension block breached at t={t:.3f}"
        else:
            continue
        return tick - start + 1, abort, states, rows
    return n - start, None, states, rows


def _columns(rows: np.ndarray, t: np.ndarray, intent: np.ndarray) -> TrajectoryColumns:
    """A log's read-only columns: views of its lane's rows, and of ``t`` and ``intent`` cut to their length."""
    fsm = rows[:, 2].astype(np.int8)
    for col in (rows, t, intent, fsm):
        col.flags.writeable = False  # before their views, which inherit it
    t, intent = t[:len(rows)], intent[:len(rows)]
    return TrajectoryColumns(t=t, intent=intent, fsm=fsm, setpoint_mm=rows[:, 3], excursion_mm=rows[:, 4],
                             tension_n=rows[:, 5], angles_deg=rows[:, 6:], velocity_mm_s=rows[:, 1], effort=rows[:, 0])


def run_episodes(episodes: Sequence[Episode], record: bool = True) -> list[TrajectoryLog]:
    """Run E episodes of the control loop; one ``TrajectoryLog`` per episode.

    Each distinct input is one lane, run on its own from its start tick to
    its end or its abort, so each matches the scalar reference bit for bit.
    Its setpoint is NaN until the first command and changes only where the
    held command does, which also starts the FSM's move: OPEN retracts,
    CLOSE extends, RELAX holds the last command. Every tick is checked for
    non-finite state, the tension cap and the hyperextension block, in that
    order; a lane that fails stops there, with a diagnostic naming its own
    tick as its logs' ``abort``.

    A constant ``voluntary_nmm`` keys an episode by the float64 bits of its
    context (the ROM's setpoints, the resolved plant's arrays, initial motor
    and torque), tick count and held-command schedule, every input its
    outcome depends on, so -0.0 and 0.0 differ and a NaN matches only its
    own bits; later episodes of a key share the first one's lane. With
    ``record`` every lane starts at tick 0 and its logs view its rows, one
    read-only array up to and including an abort's tick, with the call's
    tick times as ``t`` and their own label runs as ``intent``. Without it
    every log shares one set of empty columns, and a keyed lane may start
    where ``_resume`` or ``_share`` puts it. The call runs in four phases,
    plan, share, step and assemble, over one ``_Lane`` per lane.
    """
    global _TABLES_UNDER
    scalars = (KP, MAX_SPEED_MM_S, MOTOR_TIME_CONSTANT_S, TRAVEL_MM, CONTROL_DT_S, _DEG2RAD,
               TENDON_STIFFNESS_N_MM, TENSION_CAP_N, SETPOINT_TOL_MM)
    under = np.concatenate((REST_DEG, MAX_DEG, DAMPING_NMM_S_DEG, scalars), axis=None).tobytes()
    if under != _TABLES_UNDER:
        _STATES.clear()
        _TABLES_UNDER = under

    # Plan: per episode, its tick count, label runs and changes; per distinct
    # ROM, plant, motor and torque objects, the resolved plant, start state
    # bits and context bits (None for a callable torque); per key, its lane.
    ns = [int(round(ep.duration_s / CONTROL_DT_S)) for ep in episodes]
    tick_t = np.arange(max(ns, default=0)) * CONTROL_DT_S
    contexts, still, keyed, lane_of, labels = {}, {}, {}, [], []
    for ep, n in zip(episodes, ns):
        torque = ep.voluntary_nmm
        ident = (id(ep.rom), id(ep.plant), id(ep.initial_motor), id(torque))
        if ident not in contexts:
            plant = ep.plant or default_plant()
            motor = ep.initial_motor or MotorState(excursion_mm=min(plant.cable_take_up_mm().max(), TRAVEL_MM))
            state = np.concatenate(([motor.excursion_mm, motor.velocity_mm_s], plant.angles_deg), axis=None,
                                   dtype=float)
            contexts[ident] = plant, state.tobytes(), None if callable(torque) else np.concatenate((
                [ep.rom.retracted_mm, ep.rom.extended_mm, motor.excursion_mm, motor.velocity_mm_s, torque],
                plant.angles_deg, plant.stiffness_nmm_deg, plant.moment_arm_mm), axis=None, dtype=float).tobytes()
        plant, bits, context = contexts[ident]
        starts, runs, ticks, codes = _commands(ep.intents, tick_t[:n])
        if record:
            labels.append(np.repeat(runs, np.diff(starts, append=n)))
        key = object() if context is None else context + np.concatenate(([n], ticks, codes), dtype=float).tobytes()
        if key not in keyed:  # a torque that is a function of time keys no other episode
            changes, rom = ticks.tolist(), ep.rom
            keyed[key] = lane = _Lane(plant, torque, bits, changes, {
                tick: (float(rom.retracted_mm), _EXTENDING) if code == _OPEN else (float(rom.extended_mm), _RELEASING)
                for tick, code in zip(changes, codes.tolist())}, n, context)
            if not record and context is not None:
                if 0 not in changes and context not in still:  # once per context: does a tick change no bit?
                    still[context] = _step_lane(np.frombuffer(bits).tolist(), plant, torque, {}, math.nan, 0, 1,
                                                False)[2].get(1) == bits
                if 0 in changes or still[context]:
                    lane.start, found, lane.memo = _resume(context, ticks, codes, n)
                    lane.state = bits if found is None else found
        lane_of.append(keyed[key])
    lanes = list(keyed.values())
    served = [lane for lane in lanes if lane.memo is not None]
    _share(served)

    # Step: each lane in turn, from its start or the latest state a donor
    # kept for it, holding the setpoint of its last change before then.
    for lane in lanes:
        for earlier, at, to in lane.donors:
            if to > lane.start and at in earlier.states:
                lane.start, lane.state = to, earlier.states[at]
        k = bisect.bisect_left(lane.changes, lane.start)  # the changes before its start
        setpoint = lane.moves[lane.changes[k - 1]][0] if k else math.nan
        _, lane.abort, lane.states, lane.rows = _step_lane(np.frombuffer(lane.state).tolist(), lane.plant,
                                                          lane.torque, lane.moves, setpoint, lane.start, lane.n, record)
    _remember(served)

    # Assemble: each episode's log from its lane's outcome.
    if not record:
        empty = _columns(np.empty((0, 14)), np.empty(0), np.empty(0, np.int8))
        return [TrajectoryLog(empty, lane.abort) for lane in lane_of]
    for lane in lanes:
        lane.rows = np.array(lane.rows, dtype=float).reshape(-1, 14)
    return [TrajectoryLog(_columns(lane.rows, tick_t, label), lane.abort) for lane, label in zip(lane_of, labels)]


def run_episode(episode: Episode) -> TrajectoryLog:
    """``run_episodes`` for one episode."""
    return run_episodes([episode])[0]
