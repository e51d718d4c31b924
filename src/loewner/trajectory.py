"""Trajectory container and CSV export.

A trajectory is an ordered set of (time, value) samples of one Loewner ODE
solution; values are complex for interior points and real for boundary
points/angles. A trajectory either completes or is swallowed at some time tau
(the value collides with the driving term), in which case the last sample sits
at tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    values: np.ndarray
    swallowed_at: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values)
        if t.ndim != 1 or t.shape[0] != v.shape[0] or t.size == 0:
            raise ValueError("trajectory needs matching non-empty times/values")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("trajectory contains non-finite samples")
        if self.swallowed_at is not None and t[-1] != self.swallowed_at:
            raise ValueError("swallowed trajectory must end at the swallowing time")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def is_swallowed(self) -> bool:
        return self.swallowed_at is not None

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_value(self):
        return self.values[-1]

    def value_at(self, t: float):
        """Value at a sample time (requested capture times are samples)."""
        return self.values_at([t])[0]

    def values_at(self, ts) -> np.ndarray:
        """Values at sample times; raises KeyError on the first time that is not
        exactly a sample (NaN included)."""
        ts = np.asarray(ts, dtype=float).ravel()
        times = self.times
        i = np.minimum(np.searchsorted(times, ts), times.size - 1)
        missing = times[i] != ts
        if missing.any():
            t = float(ts[missing.argmax()])
            raise KeyError(f"time {t!r} is not a sample of this trajectory")
        return self.values[i]


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """Write ``t,re,im`` (complex) or ``t,value`` (real) rows, 17 significant digits.

    A swallowed trajectory gets a trailing comment line ``# terminal=swallowed t=<tau>``.
    """
    with open(path, "w") as fh:
        if traj.is_complex:
            fh.write("t,re,im\n")
            for t, v in zip(traj.times, traj.values):
                fh.write(f"{t:.17g},{v.real:.17g},{v.imag:.17g}\n")
        else:
            fh.write("t,value\n")
            for t, v in zip(traj.times, traj.values):
                fh.write(f"{t:.17g},{v:.17g}\n")
        if traj.is_swallowed:
            fh.write(f"# terminal=swallowed t={traj.swallowed_at:.17g}\n")
