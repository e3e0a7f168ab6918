"""Synthetic participant model shared by screening, sessions, and the CLI.

A Subject bundles everything the simulators need: control group, glove
size, spasticity grade (stiffness multiplier), EMG signal quality (leakage
and fatigue, with extra distortion when the forearm leaves the table), and
a pace factor for the task duration model. Every subject shares the harness
tension levels and noise (``protocol.SH_NOISE_N``). A task's ``Support`` says
if the forearm is off the table (``uses_arm_support`` is only logged), and both
EMG profiles are checked when a Subject is built.
Sub-seeds are derived from the subject seed and a context string through
SHA-256 so every generated artifact is reproducible in isolation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from exobench import HAND_SIZES, MAS_GRADES
from exobench.config import SETTINGS
from exobench.signals import SignalProfile


def derive_seed(base_seed: int, context: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{context}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Subject:
    subject_id: str
    group: str                      # "EMG" | "SH"
    hand_size: str = "M"
    mas: str = "1"
    noise_std: float = 0.02
    crosstalk: float = 0.0
    drift_rate: float = 0.0
    off_table_crosstalk: float = 0.05
    off_table_drift: float = 0.0
    duration_scale: float = 1.0
    uses_arm_support: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        for key in ("group", "hand_size", "mas", "crosstalk", "duration_scale"):
            SETTINGS[key].check(getattr(self, key))
        for off_table in (False, True):
            self.emg_profile("check", off_table)

    def emg_profile(self, context: str, off_table: bool = False) -> SignalProfile:
        # Only an off-table sum can pass 1; min keeps a NaN, which SignalProfile rejects.
        crosstalk = min(self.crosstalk + (self.off_table_crosstalk if off_table else 0.0), 1.0)
        drift = self.drift_rate + (self.off_table_drift if off_table else 0.0)
        return SignalProfile(
            noise_std=self.noise_std,
            drift_rate=drift,
            crosstalk=crosstalk,
            seed=derive_seed(self.seed, context),
        )


def preset_subject(name: str, seed: int = 0) -> Subject:
    """Named subject presets used by the CLI and the test suite."""
    presets = {
        "separable": Subject(
            subject_id="separable", group="EMG", mas="0", seed=seed,
        ),
        "distorted": Subject(
            subject_id="distorted", group="SH", mas="2",
            noise_std=0.05, crosstalk=0.6, drift_rate=0.06,
            off_table_crosstalk=0.2, off_table_drift=0.02, seed=seed,
        ),
        "table_bound": Subject(
            subject_id="table_bound", group="SH", mas="1+",
            noise_std=0.03, crosstalk=0.05, drift_rate=0.0,
            off_table_crosstalk=0.75, off_table_drift=0.1, seed=seed,
        ),
    }
    try:
        return presets[name]
    except KeyError:
        raise ValueError(f"unknown subject preset {name!r}; expected one of {', '.join(sorted(presets))}") from None
