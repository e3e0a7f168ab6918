"""Fixed reference work that measures the host's current speed.

``time_kernel`` is for ops that run in the benchmark's own process. The
kernel does a fixed amount of work in the program's own mix: small
numpy updates of a frozen dataclass, compact JSON encoding, and loading and
executing a module's code object as an import does. It imports nothing from
exobench, so a change to the program cannot change its time. The garbage
collector is off while it runs, so the program's heap cannot change its
time either, and it leaves no cyclic garbage behind, so it cannot change
the program's memory. Its time moves only with the host.

``time_child`` is for ops that are fresh CLI processes. Their cost is
mostly interpreter start and the import of the program's dependencies,
which the host can slow far more than it slows computation, so their
reference is a fresh interpreter that imports those dependencies and
nothing of exobench.
"""

from __future__ import annotations

import functools
import gc
import json
import marshal
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

STEPS = 1500
MODULE_LOADS = 10
CHILD_CODE = "import numpy, scipy.special"


@functools.cache
def _module() -> bytes:
    source = "\n".join(f"def f{i}(x, y={i}):\n    return [x + y, {{'k': {i}}}]\n"
                       for i in range(400))
    return marshal.dumps(compile(source, "<kernel>", "exec"))


@dataclass(frozen=True)
class _State:
    angles: np.ndarray
    total: float


def kernel() -> int:
    noise = np.random.default_rng(0).standard_normal((STEPS, 4, 2))
    state = _State(np.full((4, 2), 45.0), 0.0)
    lines = []
    for i in range(STEPS):
        angles = np.clip(state.angles - 0.01 * noise[i], 0.0, 90.0)
        state = replace(state, angles=angles, total=float(angles.sum()))
        lines.append(json.dumps({"t": i * 0.005, "q": [float(v) for v in angles.reshape(-1)]},
                                separators=(",", ":")))
    code = _module()
    for _ in range(MODULE_LOADS):
        namespace: dict = {}
        exec(marshal.loads(code), namespace)
        namespace.clear()  # functions and their globals form a cycle
    return len("\n".join(lines))


def time_kernel() -> float:
    """Seconds one kernel takes now, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def time_child(env: dict) -> float:
    """Seconds a fresh interpreter takes to import the program's dependencies."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_CODE], env=env, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start
