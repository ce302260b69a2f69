"""Small shared numeric helpers: the one fixed-step RK4 and the one Trajectory."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import NumericError, PreconditionError

# the blow-up rule's bound on every real and imaginary part of a state
BLOWUP_LIMIT = 1e150
# check_samples: the most values a sampled lattice or dashed-line trajectory
# may hold, samples times state size.  The text of trajectory.csv takes most
# of a run's memory: a whole nls-sim --N 1024 --sample-every 1 run took 2.1 s
# and 233 MB of peak RSS at 1.0e6 values and 8.9-9.6 s and 860 MB at 2**22;
# dashed-line --trunc 1000 --sample-every 1 took 15 s and 271 MB at 2**22
# (two runs each at 2**22, one below, 2 vCPUs, numpy kernels).
MAX_SAMPLE_VALUES = 2**22


def _below_blowup_limit(y: np.ndarray) -> bool:
    """The blow-up rule, also in the C lattice loop of _kernels.c: every
    real and imaginary part below BLOWUP_LIMIT (max propagates nan, which
    fails it).

    A complex state is tested in one reduction over its flat real view,
    which interleaves the real and imaginary parts; ravel copies only a
    strided state and turns a 0-d one into shape (1,)."""
    if np.iscomplexobj(y):
        y = np.ravel(y, order="K").view(y.real.dtype)
    return np.abs(y).max() < BLOWUP_LIMIT


def check_schedule(dt: float, steps: int, sample_every: int) -> None:
    """Reject a step schedule outside finite dt > 0, steps >= 0,
    sample_every >= 1."""
    if not (np.isfinite(dt) and dt > 0):
        raise PreconditionError("dt must be a finite number > 0")
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    if sample_every < 1:
        raise PreconditionError("sample_every must be >= 1")


def check_state(size: int) -> None:
    """Reject an empty state, which the RK4 loops cannot step."""
    if size < 1:
        raise PreconditionError("the state must have at least one component")


def check_samples(rows: int, size: int) -> None:
    """Reject a sample array of rows states of size values above
    MAX_SAMPLE_VALUES.  pdnls_rk4, on both backends, and dashed_rk4 call it
    after check_schedule and before they allocate anything."""
    if rows * size > MAX_SAMPLE_VALUES:
        raise PreconditionError(
            f"{rows} samples of {size} values exceed util.MAX_SAMPLE_VALUES = "
            f"{MAX_SAMPLE_VALUES}; raise --sample-every")


def blew_up(step: int) -> NoReturn:
    """Raise the one blow-up error, NumericError with `step`.  Every RK4 loop,
    the C lattice loop of _kernels.c too, calls it at the first step whose
    state breaks the blow-up rule; euler-sim, which integrates in chunks,
    calls it again with the step counted from the start of the run."""
    raise NumericError(f"state blew up at step {step}", step=step)


def rk4(rhs, y0, dt: float, steps: int, sample_every: int):
    """Fixed-step RK4 trajectory of dy/dt = rhs(y) from y0.

    Returns samples: y0 and the state after every sample_every-th step.  At
    the first step after which the state breaks the blow-up rule it calls
    blew_up, which raises NumericError with that step.  Time runs forward
    only: check_schedule rejects a dt that is not > 0, as in the C loop.
    """
    check_schedule(dt, steps, sample_every)
    y = np.array(y0)
    check_state(y.size)
    samples = np.empty((steps // sample_every + 1,) + y.shape, dtype=y.dtype)
    samples[0] = y
    # overflow is expected on the way to blow-up detection
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not _below_blowup_limit(y):
                blew_up(step)
            if step % sample_every == 0:
                samples[step // sample_every] = y
    return samples


@dataclass
class Trajectory:
    """states[k] of a fixed-step run at times[k] = dt * sample_every * k."""

    times: np.ndarray
    states: np.ndarray

    @classmethod
    def sampled(cls, states: np.ndarray, dt: float, sample_every: int) -> Trajectory:
        return cls(dt * sample_every * np.arange(states.shape[0]), states)


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite point sets in the plane."""
    a = np.asarray(a, dtype=np.complex128).ravel()
    b = np.asarray(b, dtype=np.complex128).ravel()
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return float("inf")
    dist = np.abs(a[:, None] - b[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def sup_norm(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if np.size(values) else 0.0
