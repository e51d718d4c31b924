"""Driving terms for the Loewner equation.

A driving term is a real-valued continuous function of time t >= 0. It steers
the growth of a slit: lambda(t) in the half-plane equation dh/dt = 2/(h - lambda)
and u(t) in the disk equation. This module holds the closed-form families used
throughout the package plus sampled (tabulated) terms with piecewise-linear
interpolation; the tangent-circular-slit term is built in :mod:`loewner.tangent`.

Term spec grammar (used by the CLI): ``constant:<c>``, ``sqrt:<c>``,
``lind:<c>``, ``tangent:<r>``, ``file:<path>``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

# relative slack for times that overshoot the domain end by rounding
_END_RTOL = 1e-12


class DrivingTerm:
    """Base class for driving terms.

    Subclasses implement ``_raw(t)`` on the declared domain ``[0, domain_end]``
    (``domain_end = None`` means all t >= 0).
    """

    #: inclusive end of the time domain, or None when defined for all t >= 0
    domain_end: float | None = None

    #: exact Lip(1/2) sup-norm when known in closed form, else None
    exact_half_norm: float | None = None

    #: exponent p of the onset lambda(t) - lambda(0) ~ t**p at t = 0; below
    #: 1/2 the upper singular solution is stiff there (see halfplane)
    onset_exponent: float = 0.5

    def _raw(self, t: float) -> float:
        raise NotImplementedError

    def value(self, t: float) -> float:
        """Evaluate the term at a single time; a time off [0, domain_end]
        goes through ``_clip_time``."""
        t = float(t)
        end = self.domain_end
        if 0.0 <= t and (end is None or t <= end):
            return self._raw(t)
        return self._raw(self._clip_time(t))

    def values(self, ts) -> np.ndarray:
        """Evaluate on an array of times: ``value`` for each, bit for bit.

        Times in [0, domain_end] go straight to ``_raw_values``; the others
        pass through the one domain rule ``_clip_time``, which maps a time
        past the end by rounding onto the end and rejects any other. The
        closed-form families implement ``_raw_values`` with their ``_raw``
        expression on arrays (numpy's sqrt and arithmetic are the same
        correctly rounded IEEE operations as ``math``'s).
        """
        t = np.asarray(ts, dtype=float).ravel()
        end = self.domain_end
        inside = t >= 0.0
        if end is not None:
            inside &= t <= end
        if not inside.all():
            t = t.copy()
            t[~inside] = [self._clip_time(x) for x in t[~inside].tolist()]
        return self._raw_values(t)

    def _raw_values(self, t: np.ndarray) -> np.ndarray:
        """``_raw`` on a 1-d array of times inside the domain; one call per
        time unless a subclass has an array kernel."""
        return np.array([self._raw(x) for x in t.tolist()], dtype=float)

    def check_covers(self, t_end: float) -> None:
        """Raise DomainError unless the term is defined on all of [0, t_end]."""
        if t_end == math.inf:
            raise DomainError("t_end must be finite")
        self._clip_time(t_end)

    def _clip_time(self, t: float) -> float:
        """The domain rule: with T = domain_end, t is in the domain when
        0 <= t <= T*(1 + 1e-12), -0.0 counting as 0. A time in
        (T, T*(1 + 1e-12)] overshoots T by rounding and is evaluated at T;
        every other time (NaN included) raises DomainError."""
        end = self.domain_end
        if 0.0 <= t:  # NaN fails
            if end is None or t <= end:
                return t
            if t <= end * (1.0 + _END_RTOL):
                return end
        bound = "t >= 0" if end is None else f"[0, {end!r}]"
        raise DomainError(f"time {t!r} is outside the term's domain {bound}")

    def spec_string(self) -> str:
        """Canonical ``kind:params`` form; parse_term round-trips it."""
        raise NotImplementedError(f"{type(self).__name__} has no spec string")

    def __repr__(self) -> str:
        try:
            return f"{type(self).__name__}({self.spec_string()!r})"
        except NotImplementedError:
            return f"{type(self).__name__}()"


class Constant(DrivingTerm):
    """lambda(t) = c."""

    exact_half_norm = 0.0

    def __init__(self, c: float):
        self.c = _finite(c)

    def _raw(self, t: float) -> float:
        return self.c

    def _raw_values(self, t: np.ndarray) -> np.ndarray:
        return np.full(t.shape, self.c)

    def spec_string(self) -> str:
        return f"constant:{self.c!r}"


class Sqrt(DrivingTerm):
    """lambda(t) = c * sqrt(t), the self-similar family with ||lambda||_{1/2} = |c|."""

    def __init__(self, c: float):
        self.c = _finite(c)
        self.exact_half_norm = abs(self.c)

    def _raw(self, t: float) -> float:
        return self.c * math.sqrt(t)

    def _raw_values(self, t: np.ndarray) -> np.ndarray:
        return self.c * np.sqrt(t)

    def spec_string(self) -> str:
        return f"sqrt:{self.c!r}"


class Lind(DrivingTerm):
    """lambda(t) = c - c*sqrt(1 - t) on [0, 1], with ||lambda||_{1/2} = |c|.

    At c = 4 this is the extremal driving term whose boundary solution from
    x0 = 2 is caught exactly at t = 1.
    """

    domain_end = 1.0

    def __init__(self, c: float):
        self.c = _finite(c)
        self.exact_half_norm = abs(self.c)

    def _raw(self, t: float) -> float:
        return self.c - self.c * math.sqrt(1.0 - t)

    def _raw_values(self, t: np.ndarray) -> np.ndarray:
        return self.c - self.c * np.sqrt(1.0 - t)

    def spec_string(self) -> str:
        return f"lind:{self.c!r}"


class Sampled(DrivingTerm):
    """Tabulated term with piecewise-linear interpolation between nodes.

    Times must be strictly increasing and start at 0. Linear interpolation
    preserves Lipschitz classes between nodes and keeps ODE right-hand sides
    continuous.
    """

    def __init__(self, times, values, source: str | None = None):
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("sampled term needs matching 1-d times/values with >= 2 nodes")
        if t[0] != 0.0:
            raise ValueError("sampled term times must start at 0")
        if not np.all(np.diff(t) > 0):
            raise ValueError("sampled term times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("sampled term contains non-finite entries")
        self.times = t
        self.table_values = v
        # list copies for _raw: bisect and float arithmetic on Python floats
        # cost a third of what they cost on an ndarray and numpy scalars
        self._time_list = t.tolist()
        self._value_list = v.tolist()
        self.domain_end = float(t[-1])
        self.source = source

    def _raw(self, t: float) -> float:
        # bisect + manual lerp: called per ODE stage, keep it cheap
        ts = self._time_list
        vs = self._value_list
        i = bisect_right(ts, t)  # >= 1: times are >= 0 = ts[0]
        if i >= len(ts):
            return vs[-1]
        t0, t1 = ts[i - 1], ts[i]
        v0, v1 = vs[i - 1], vs[i]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def _raw_values(self, t: np.ndarray) -> np.ndarray:
        # _raw in one searchsorted and one interpolation expression
        nodes, vs = self.times, self.table_values
        i = np.searchsorted(nodes, t, side="right")
        j = np.minimum(i, nodes.size - 1)
        t0, t1 = nodes[j - 1], nodes[j]
        v0, v1 = vs[j - 1], vs[j]
        # t = end lands past the last node and takes its value, as in _raw
        return np.where(i >= nodes.size, vs[-1], v0 + (v1 - v0) * (t - t0) / (t1 - t0))

    def spec_string(self) -> str:
        if self.source is None:
            raise NotImplementedError("sampled term without a file source")
        return f"file:{self.source}"


class Scaled(DrivingTerm):
    """Loewner scaling of a base term: lambda_r(t) = r * base(t / r**2), r > 0.

    This is the driving term of the r-times-scaled hull; it has the same
    Lip(1/2) sup-norm as the base term.
    """

    def __init__(self, base: DrivingTerm, r: float):
        self.base = base
        self.r = float(r)
        # r * r is inf or 0 where it overflows or underflows; NaN fails too
        self._r2 = self.r * self.r
        if not (0 < self.r and 0 < self._r2 < math.inf):
            raise ValueError("scale factor r must be positive, with a finite nonzero square")
        if base.domain_end is not None:
            self.domain_end = base.domain_end * self._r2
        self.exact_half_norm = base.exact_half_norm
        self.onset_exponent = base.onset_exponent

    def _raw(self, t: float) -> float:
        return self.r * self.base.value(t / self._r2)

    def _raw_values(self, t: np.ndarray) -> np.ndarray:
        return self.r * self.base.values(t / self._r2)


class FromCallable(DrivingTerm):
    """Term backed by an arbitrary callable, for analytic terms built on the fly."""

    def __init__(self, fn: Callable[[float], float], domain_end: float | None = None):
        self.fn = fn
        self.domain_end = domain_end

    def _raw(self, t: float) -> float:
        return float(self.fn(t))


def parse_term(spec: str) -> DrivingTerm:
    """Parse a ``kind:params`` term spec (see module docstring for the grammar)."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed term spec {spec!r} (expected kind:params)")
    if kind == "constant":
        return Constant(_parse_float(arg, spec))
    if kind == "sqrt":
        return Sqrt(_parse_float(arg, spec))
    if kind == "lind":
        return Lind(_parse_float(arg, spec))
    if kind == "tangent":
        from .tangent import TangentTerm

        return TangentTerm(_parse_float(arg, spec))
    if kind == "file":
        return load_sampled_csv(arg)
    raise ValueError(f"unknown term kind {kind!r} in {spec!r}")


def _finite(c) -> float:
    """A family parameter as a float; NaN and infinities make every value
    non-finite and the stepper fail far from the cause."""
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"term parameter c={c!r} is not finite")
    return c


def _parse_float(arg: str, spec: str) -> float:
    try:
        return float(arg)
    except ValueError as exc:
        raise ValueError(f"malformed term spec {spec!r}: {exc}") from None


def load_sampled_csv(path: str | Path) -> Sampled:
    """Load a sampled term from CSV with header ``t,value``."""
    path = Path(path)
    lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "t,value":
        raise ValueError(f"{path}: expected CSV header 't,value'")
    times, values = [], []
    for ln in lines[1:]:
        if ln.startswith("#"):
            continue
        parts = ln.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed row {ln!r}")
        times.append(float(parts[0]))
        values.append(float(parts[1]))
    return Sampled(times, values, source=str(path))


def write_sampled_csv(path: str | Path, times: Sequence[float], values: Sequence[float]) -> None:
    """Write a sampled term in the standard ``t,value`` schema (17 significant digits)."""
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(times, values):
            fh.write(f"{t:.17g},{v:.17g}\n")
