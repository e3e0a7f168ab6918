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

One engine runs every episode, each an ``Episode`` checked when built.
``run_episodes`` steps any number in lockstep on plain arrays, every
``CONTROL_DT_S``, and gives each its ``TrajectoryLog``, the one outcome
record, which names the invariant an aborted episode broke; ``run_episode``
runs one. The gain, the drive and what every hand shares (rest pose, flexion
stops, damping, tendon stiffness) are module constants, the drive's checked
once at import. A ``HandPlant`` holds only what differs between hands, the
pose, the tone and the glove's moment arms, validated once when it is built,
never per tick. The motor reads nothing the plant computes, so each
episode's motor runs first, over its own ticks, as one Python-float
recurrence in the scalar reference's float order; a held command is its
state, set on the few ticks where it changes. It leaves
one row of excursions per tick, which the lockstep loop reads, and that loop
steps only the plant, whose cost is per array call, not per episode; a batch
with no voluntary torque skips its add. The plant state is held joint-major,
(2 joints, 4 digits, E), so a digit's take-up is one add of its MCP and PIP
rows and the per-episode and per-digit arrays broadcast without views; the
angles are clamped by one maximum and one minimum. A typical tick is 16
ufunc calls, all for the plant, and 3 arg-reductions for the screen. The
safety invariants are checked on every tick for every episode through one
merged screen: the max of the tensions decides the cap, and with the min and
max of the joint angles it shows at once whether any episode needs its exact
check. The motor's clamp leaves each excursion in the travel or NaN, and a
NaN excursion makes its episode's tensions and angles NaN on the same tick,
so the excursions need no screen of their own. Each extreme is read at the
index ``argmin`` or ``argmax`` gives, which is the first NaN when there is
one, so the screen sees a NaN exactly where a full reduction would, at about
half a reduction's cost per call. An episode that breaks an invariant stops
alone: a lane runs from its start tick to its stop tick, its tick count cut
to the abort tick + 1, and step i of the loop is tick start + i of each
lane; from the next step on the plant reads the travel as a stopped lane's
excursion. A trajectory is one set of columns, one array per quantity with
a row per tick, recorded only when
the caller asks for it; its JSONL form is one encode per tick of a row read
from the columns. The scalar reference the engine matches bit for bit, one
tick of proportional step, motor, plant and setpoint at a time, lives with
the tests in ``tests/reference.py``.

Every call steps each distinct input once, in one lane plan, and recorded
columns are read-only, since episodes that share a lane share its rows. An
unrecorded call, as a session makes, may start an input in a state an
earlier call reached on the same hand and schedule, kept in a module table
whose rule ``_resume`` and ``_remember`` state.

An ``Episode`` keeps read-only copies of the intent stream it checked:
finite float64 times, in any order, and int8 codes, indices into ``IntentLabel``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from exobench.signals import COMPACT_JSON, INTENT_CODE, MAX_SAMPLES, IntentLabel

CONTROL_DT_S = 0.005
TENSION_CAP_N = 100.0

DIGITS = ("index", "middle", "ring", "little")
JOINTS = ("mcp", "pip")

TRAJECTORY_SCHEMA = "exobench/trajectory-v1"

_DEG2RAD = math.pi / 180.0


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


#: The states ``run_episodes`` lanes have taken at the start of a tick where
#: their held command changes, and at their end if they broke no invariant,
#: by ``_state_keys`` key, oldest first: the tick, counted from the lane's
#: first change, and the float64 bits of the excursion, the velocity and the
#: eight angles in ``DIGITS`` x ``JOINTS`` order. Only ``_resume`` reads it
#: and only ``_remember`` writes it. A key keeps the earliest tick it was
#: taken at, which serves every lane whose next change or end comes then or
#: later; at most ``_STATES_MAX`` keys of about 550 B each, so about 2.2 MB
#: when full.
_STATES: dict[bytes, tuple[int, bytes]] = {}
_STATES_MAX = 4096
#: The bits of the module constants the table was filled under: a call
#: under others empties it first.
_TABLES_UNDER = b""


def _state_keys(context: bytes, schedule: list[int], codes: np.ndarray, still: bool) -> list[bytes]:
    """The key of a lane's state after each count of its held-command changes.

    ``schedule`` is the ticks of the changes, then the lane's tick count, so
    a lane never commanded has its count alone. The k-th key is the lane's
    context, a tick origin and the first k changes, their ticks counted from
    the schedule's first. A still context (one uncommanded tick leaves its
    state bit-identical) meets its first change in the state it starts in,
    whenever that change comes: its origin is 0, and its first key is the
    context alone, which marks it still. Any other context's origin is the
    schedule's first tick, so one first commanded at tick 0 keys its later
    states as a still one does.
    """
    changes = np.column_stack((np.subtract(schedule[:-1], schedule[0]), codes)).astype(float).tobytes()
    head = context + np.float64(0.0 if still else schedule[0]).tobytes()
    return [context if still and k == 0 else head + changes[:16 * k] for k in range(len(schedule))]


def _resume(under: bytes, context: bytes, ticks: np.ndarray, codes: np.ndarray, n: int,
            record: bool) -> tuple[int, int, np.ndarray | None, tuple | None]:
    """Where a keyed lane starts: its start tick, its count of changes before
    that tick, the remembered state it starts in (None for its own, at tick
    0) and ``_remember``'s memo of it, None when it steps no tick.

    ``context`` is the lane's key without its tick count and schedule; one
    that keys a state by itself is still (see ``_state_keys``). A table
    filled under module constants other than ``under`` reads as empty. A
    recorded lane starts at tick 0, an unrecorded one at the deepest
    remembered state of its context and schedule that comes no later than
    its next change or its end: the state a lane stepped from tick 0
    reaches there, bit for bit, with no invariant broken before it. One
    that starts at its end is parked; an aborted input left no end state,
    so it is stepped again, to the same abort. A lane that starts
    uncommanded at tick 0, of a context not known to be still, is probed:
    its state at tick 1 shows whether it is.
    """
    table = _STATES if under == _TABLES_UNDER else {}
    schedule = [*ticks.tolist(), n]  # the ticks of its changes, then its end
    still = context in table
    keys = _state_keys(context, schedule, codes, still)
    start, depth, state = 0, 0, None
    if not record:
        for k in range(len(ticks), -1, -1):
            found = table.get(keys[k])
            if found is not None and schedule[0] + found[0] <= schedule[k]:
                start, depth, state = schedule[0] + found[0], k, np.frombuffer(found[1])
                break
    probe = not still and start == 0 and schedule[0] > 0
    return start, depth, state, (context, schedule, codes, keys, probe) if start < n else None


def _remember(under: bytes, taken: Iterable[tuple[tuple, dict[int, bytes]]]) -> None:
    """Keep the states of a call's lanes, each given as ``_resume``'s memo of
    it and its states by tick, taken with no invariant broken before them.

    A table filled under module constants other than ``under`` is emptied
    first. The state at each tick of a lane's schedule goes under the key
    of the changes before it, at its tick from the first change; a probed
    lane whose state at tick 1 is its state at tick 0 is keyed as still. A
    new key evicts the oldest once the table holds ``_STATES_MAX``, and a
    key keeps the earliest tick it was taken at.
    """
    global _TABLES_UNDER
    if under != _TABLES_UNDER:
        _STATES.clear()
        _TABLES_UNDER = under
    for (context, schedule, codes, keys, probe), by_tick in taken:
        if probe and by_tick.get(1) == by_tick[0]:  # one uncommanded tick left it bit-identical
            keys = _state_keys(context, schedule, codes, True)
        first = schedule[0]
        for key, a in zip(keys, schedule):
            if a in by_tick:
                held = _STATES.get(key)
                if held is None and len(_STATES) >= _STATES_MAX:
                    del _STATES[next(iter(_STATES))]  # the oldest
                if held is None or a - first < held[0]:
                    _STATES[key] = (a - first, by_tick[a])


def _motor_rows(x: float, v: float, moves: list[tuple[int, float, int]], steps: int,
                record: bool) -> tuple[list[float], dict[int, float], list[float]]:
    """One lane's motor over its ``steps`` loop steps, as Python floats in the
    float order of the scalar reference's proportional and motor steps.

    ``moves`` is the lane's (step, setpoint, FSM code) from each step where
    its held command changes, ascending, led by (0, the setpoint it holds at
    its start, idle); a setpoint is NaN before the first command, and then
    no effort is made. Returns the excursion at the start of each step and
    after the last, the velocity at the start of each move's step and of
    step ``steps``, and, when recording, each step's effort, velocity, FSM
    code and setpoint after it, in one flat list. The motor reads nothing
    the plant computes, so it runs ahead of the plant's loop.
    """
    kp, speed, dt, tau, travel, tol = (KP, MAX_SPEED_MM_S, CONTROL_DT_S, MOTOR_TIME_CONSTANT_S, TRAVEL_MM,
                                       SETPOINT_TOL_MM)
    xs, kept, rows = [x], {}, []
    for (a, sp, fsm), (b, *_) in zip(moves, [*moves[1:], (steps,)]):
        kept[a] = v
        commanded = sp == sp
        for _ in range(a, b):
            # min and max keep a NaN as np.minimum and np.maximum do.
            effort = min(max(kp * (sp - x), -1.0), 1.0) if commanded else 0.0
            v = v + (effort * speed - v) * dt / tau
            x = x + v * dt
            if x < 0.0:
                x = v = 0.0
            elif x > travel:
                x, v = travel, 0.0
            xs.append(x)
            if record:  # FSM settle: a move (the odd codes) that reaches its setpoint holds.
                fsm += fsm & 1 and abs(x - sp) <= tol
                rows += effort, v, fsm, sp
    kept[steps] = v
    return xs, kept, rows


def run_episodes(episodes: Sequence[Episode], record: bool = True) -> list[TrajectoryLog]:
    """Run E episodes of the control loop in lockstep; one ``TrajectoryLog`` per episode.

    Each lane's motor runs first, over its own ticks, as Python floats in
    the float order of the scalar reference's proportional and motor steps
    (``_motor_rows``), and leaves an (ticks + 1, E) array of excursions.
    Its setpoint is state, NaN until the first command, set on the few
    ticks where the held command changes, which also start the FSM's move:
    OPEN retracts, CLOSE extends, RELAX holds the last command. The plant
    state is then held in (2 joints, 4 digits, E) joint-angle arrays and
    stepped in lockstep in the float order of the reference's plant step,
    reading each tick's excursions, so each episode matches the reference
    bit for bit.

    Every live episode is checked on every tick for non-finite state, the
    tension cap and the hyperextension block, in that order. A tick whose
    merged screen passes has no breach; otherwise each episode is checked
    exactly. The screen reads the extremes of the tensions and the angles
    at their ``argmin``/``argmax``, which pick the first NaN, so it misses
    no NaN, and a NaN excursion shows in both. A lane runs from its start
    tick to its stop tick, and step i of the loop is tick start + i of each
    lane. One that fails stops at that tick, with its diagnostic, which
    names the lane's own tick, as its log's ``abort``, and is parked: from
    the next step on, its excursion rows hold the travel. The others run on.

    Each distinct input gets one lane. An episode whose ``voluntary_nmm`` is
    a constant is keyed by the float64 bits of every input its outcome
    depends on: its context (the ROM's setpoints, the resolved plant's
    three arrays, the resolved initial motor and the torque), its tick count
    and its held-command schedule. So -0.0 and 0.0 differ and a NaN matches
    only its own bits. The first episode of a key gets a lane and later
    ones in the call share it. ``record`` decides the rest. With it, every
    lane starts at tick 0, the FSM settles and the columns are kept (the
    efforts, FSM codes and setpoints by the motor's run), read-only since
    episodes of one key share a lane's rows, up to and including an abort's
    tick. Without it every log has zero ticks, and a keyed lane starts
    where ``_resume`` finds a remembered state, or is parked at its end with
    no tick and no abort, and leaves its own states to ``_remember``.
    """
    if len(episodes) == 0:
        return []
    # The bits of the module constants the engine reads.
    scalars = (KP, MAX_SPEED_MM_S, MOTOR_TIME_CONSTANT_S, TRAVEL_MM, CONTROL_DT_S, _DEG2RAD,
               TENDON_STIFFNESS_N_MM, TENSION_CAP_N, SETPOINT_TOL_MM)
    under = np.concatenate((REST_DEG, MAX_DEG, DAMPING_NMM_S_DEG, scalars), axis=None).tobytes()

    # The lane plan, in one pass. Each episode resolves its hand, motor, tick
    # count and held-command schedule; a repeat of a key in the call takes
    # its lane. A lane starts at tick 0, or where ``_resume`` puts it, with
    # the setpoint of the command it holds there and an idle FSM, and keeps
    # its motor's moves, from its start and at each later held-command change.
    keyed: dict[bytes, int] = {}  # each key in the call, to its lane
    lane_of, labels, hands, motors, voluntary, disturbed, starts, stop = ([] for _ in range(8))
    taken: dict[int, tuple] = {}  # each keyed, stepped lane's (memo from _resume, states by tick)
    aborts: dict[int, str | None] = {}
    for ep in episodes:
        n = int(round(ep.duration_s / CONTROL_DT_S))
        plant = ep.plant if ep.plant is not None else default_plant()
        motor = ep.initial_motor if ep.initial_motor is not None else MotorState(
            excursion_mm=min(plant.cable_take_up_mm().max(), TRAVEL_MM))
        label, held = _commands(ep.intents, np.arange(n) * CONTROL_DT_S)
        labels.append(label)
        ticks = np.flatnonzero(held != np.concatenate(([_RELAX], held))[:-1])
        codes = held[ticks]
        torque = ep.voluntary_nmm
        context = key = None
        if not callable(torque):
            context = np.concatenate((
                [ep.rom.retracted_mm, ep.rom.extended_mm, motor.excursion_mm, motor.velocity_mm_s, torque],
                plant.angles_deg, plant.stiffness_nmm_deg, plant.moment_arm_mm), axis=None, dtype=float).tobytes()
            key = context + np.concatenate(([n], ticks, codes), dtype=float).tobytes()
        if key in keyed:
            lane_of.append(keyed[key])
            continue
        lane = len(stop)
        lane_of.append(lane)
        if key is None:
            disturbed.append((lane, torque))
        else:
            keyed[key] = lane
        start, k, found, memo = (0, 0, None, None) if key is None else _resume(under, context, ticks, codes, n, record)
        if memo is not None:
            taken[lane] = memo, {}
        # Its state (excursion, velocity, DIGITS x JOINTS angles) at its start.
        state = found if found is not None else np.concatenate(
            ([motor.excursion_mm, motor.velocity_mm_s], plant.angles_deg), axis=None, dtype=float)
        hands.append((state[2:].reshape(len(DIGITS), len(JOINTS)), plant.moment_arm_mm, plant.stiffness_nmm_deg))
        voluntary.append(0.0 if key is None else torque)
        starts.append(start)
        stop.append(n - start)
        moves = [(float(ep.rom.retracted_mm), _EXTENDING) if code == _OPEN else (float(ep.rom.extended_mm), _RELEASING)
                 for code in codes.tolist()]
        at = (ticks[k:] - start).tolist()
        plan = [(0, moves[k - 1][0] if k else math.nan, _IDLE), *((i, *move) for i, move in zip(at, moves[k:]))]
        if start == 0 and 0 not in at:  # so its velocity at step 1 is kept, for _resume's probe
            plan.insert(1, (1, math.nan, _IDLE))
        motors.append((*state[:2].tolist(), plan))
    n_lanes = len(stop)
    n_max = end = max(stop)  # the loop ends with the last lane's stop step
    width = n_max if record else 0

    # Each lane's motor, run ahead of the plant's loop over the lane's own
    # steps: its excursions, a row per step (row i + 1 after step i, and the
    # travel after its stop), its velocities at its moves and its stop, the
    # steps its state is taken at, and, recorded, its motor columns.
    xs = np.full((n_max + 1, n_lanes), TRAVEL_MM)
    velocity_col, effort_col, setpoint_col = (np.empty((n_lanes, width)) for _ in range(3))
    fsm_col = np.empty((n_lanes, width), dtype=np.int8)
    taken_at: dict[int, list[tuple[int, float]]] = {}  # per loop step, each lane whose state is taken, and its velocity
    for e, (x, v, plan) in enumerate(motors):
        rows, velocities, recorded = _motor_rows(x, v, plan, stop[e], record)
        xs[:len(rows), e] = rows
        if e in taken:
            for i, velocity in velocities.items():
                taken_at.setdefault(i, []).append((e, velocity))
        if record:
            (effort_col[e, :stop[e]], velocity_col[e, :stop[e]], fsm_col[e, :stop[e]],
             setpoint_col[e, :stop[e]]) = np.reshape(recorded, (-1, 4)).T
    stop = np.array(stop)

    # Joint-major plant state, (2 joints, 4 digits, E): the hands' arrays,
    # validated when each HandPlant was built, from one stack whose release
    # lifts glibc's trim threshold over a pilot-sized tick's temporaries; and
    # the joint constants tiled once. A digit's take-up is MCP + PIP, and (E,)
    # and (4, E) arrays broadcast on the leading axes, with no view. Every
    # array is C-contiguous: strided operands cost about twice per call.
    angles, arm, stiffness = np.array(hands).transpose(1, 3, 2, 0).copy()
    rest, q_max, damping = (np.tile(c.T[:, :, None], (1, 1, n_lanes))
                            for c in (REST_DEG, MAX_DEG, DAMPING_NMM_S_DEG))
    voluntary = np.array(voluntary, dtype=float)

    def park(lanes):
        """Hold stopped lanes at rest and tension-free, so they fail no later
        screen: a zero moment arm takes up no cable, and their rows hold the
        travel, never a NaN."""
        voluntary[lanes] = 0.0
        angles[:, :, lanes] = rest[:, :, lanes]
        arm[:, :, lanes] = 0.0

    park(stop == 0)
    # Adding a zero torque can only turn a -0.0 into +0.0, which the clamp
    # at zero does too, so a batch with none skips the add.
    any_voluntary = bool(disturbed) or bool(voluntary.any())

    # Constants as 0-d arrays: a ufunc call with a Python or numpy scalar
    # operand costs about half as much again as one with arrays.
    dt, deg2rad, tendon, cap, zero = (np.asarray(v, dtype=float) for v in (
        CONTROL_DT_S, _DEG2RAD, TENDON_STIFFNESS_N_MM, TENSION_CAP_N, 0.0))
    where, maximum, minimum, add_reduce = np.where, np.maximum, np.minimum, np.add.reduce

    t_col = np.arange(width) * CONTROL_DT_S
    tension_col = np.empty((n_lanes, width))
    angles_col = np.empty((n_lanes, width, len(DIGITS), len(JOINTS)))

    for i in range(n_max + 1):
        # A lane's states are taken before the loop can end: its last, at its
        # stop step, is the state its n ticks leave.
        for e, velocity in taken_at.get(i, ()):
            if e not in aborts:
                taken[e][1][starts[e] + i] = np.concatenate(([xs[i, e], velocity], angles[:, :, e].T),
                                                            axis=None).tobytes()
        if i >= end:
            break
        t = i * CONTROL_DT_S  # a disturbed lane's own tick: it starts at 0
        for e, torque in disturbed:
            if i < stop[e]:
                voluntary[e] = torque(t)

        # Plant, under the excursions the step's motor left (row i + 1):
        # capped cable tension, tone and voluntary torque, clamped angles.
        # The cap's argmax picks a NaN, so a NaN sibling cannot stop another
        # episode being capped. A digit's take-up and the total tension are
        # sums in the scalar order, MCP + PIP and index to little;
        # stiffness * (rest - angles) - tension * arm is the same bits as
        # -tension * arm + stiffness * (rest - angles). Only the lanes over
        # the cap are scaled, each by cap / its total, so the divisor
        # elsewhere is the cap itself and a NaN lane is untouched.
        p = arm * angles * deg2rad
        tension = tendon * maximum(p[0] + p[1] - xs[i + 1], zero)
        total = add_reduce(tension, axis=0)
        total_max = total.item(total.argmax())
        if not total_max <= TENSION_CAP_N:
            over = total > cap
            tension = where(over, tension * (cap / where(over, total, cap)), tension)
            total = where(over, cap, total)
            total_max = total.item(total.argmax())
        torque = stiffness * (rest - angles) - tension * arm
        if any_voluntary:
            torque = torque + voluntary
        angles = minimum(maximum(angles + torque / damping * dt, zero), q_max)

        if record:
            tension_col[:, i] = total
            angles_col[:, i] = angles.transpose(2, 1, 0)

        # Safety invariants, per live episode, in order. The screen passes on
        # almost every tick: the angles' min catches NaN and hyperextension,
        # their max NaN and +inf. The motor's clamp leaves each excursion in
        # the travel or NaN, and a NaN one makes its lane's tensions, and so
        # its angles, NaN on the same tick.
        if (total_max <= TENSION_CAP_N + 1e-9
                and angles.item(angles.argmin()) >= -1e-9
                and math.isfinite(angles.item(angles.argmax()))):
            continue
        non_finite = ~np.isfinite(angles).all(axis=(0, 1))
        over_cap = total > TENSION_CAP_N + 1e-9
        hyperextended = (angles < -1e-9).any(axis=(0, 1))
        hit = np.flatnonzero((i < stop) & (non_finite | over_cap | hyperextended))
        for e in hit.tolist():
            t = (starts[e] + i) * CONTROL_DT_S  # the lane's own tick
            if non_finite[e]:
                aborts[e] = f"non-finite state at t={t:.3f}"
            elif over_cap[e]:
                aborts[e] = f"tension cap breached at t={t:.3f}: {total[e]:.2f} N"
            else:
                aborts[e] = f"hyperextension block breached at t={t:.3f}"
        stop[hit] = i + 1
        xs[i + 2:, hit] = TRAVEL_MM  # from the next step on, the plant reads the travel
        park(hit)
        end = int(stop.max())

    x_col = xs[1:width + 1].T
    for col in (t_col, x_col, tension_col, velocity_col, effort_col, fsm_col, setpoint_col, angles_col, *labels):
        col.flags.writeable = False
    _remember(under, taken.values())
    return [TrajectoryLog(TrajectoryColumns(
        t=t_col[:n],
        intent=label[:n],
        fsm=fsm_col[lane, :n],
        setpoint_mm=setpoint_col[lane, :n],
        excursion_mm=x_col[lane, :n],
        tension_n=tension_col[lane, :n],
        angles_deg=angles_col[lane, :n].reshape(n, len(DIGITS) * len(JOINTS)),
        velocity_mm_s=velocity_col[lane, :n],
        effort=effort_col[lane, :n],
    ), aborts.get(lane)) for label, lane, n in zip(labels, lane_of, np.minimum(stop, width)[lane_of].tolist())]


def run_episode(episode: Episode) -> TrajectoryLog:
    """``run_episodes`` for one episode."""
    return run_episodes([episode])[0]
