"""Continuous-time classical and quantum walk simulation and speedup labeling.

Both walkers take their n x n models straight from the graph. The
classical walker diffuses under dp/dt = (T - I)p, with T the jump matrix
of `classical_variant` and its absorbing target column. The quantum
walker's only jump moves population from the target into a sink that the
Hamiltonian never touches, so its graph block stays the pure state psi of
the no-jump evolution psi' = -i H_eff psi, with H_eff = `quantum_variant`
= A - (i gamma / 2)|target><target|, and the sink population is
1 - ||psi||^2. A graph is labeled "quantum" when the sink population
crosses the detection threshold 1/ln(n) strictly before the classical
target probability does.

Both walkers are propagated on one path: `label_graph` builds a ladder of
exact propagators exp(G h) per walker, locates each hit time by descending
it, and records the curves for `simulate` on the same rungs. Each ladder
starts from two matrix exponentials, which `_exp` computes in numpy by
scaling and squaring a truncated Taylor series, so walks need no library
beyond numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .graphs import Graph, _integer, _real, classical_variant, quantum_variant

__all__ = [
    "CLASSICAL",
    "QUANTUM",
    "LABEL_NAMES",
    "WalkConfig",
    "Trace",
    "WalkOutcome",
    "hitting_time",
    "label_from_hit_times",
    "label_graph",
    "write_trace_csv",
]

CLASSICAL = 0
QUANTUM = 1
LABEL_NAMES = {CLASSICAL: "classical", QUANTUM: "quantum"}

# The label path propagates with a ladder of exact propagators exp(G h)
# for h = _BASE_STEP * 2**j, j = -_FINE_LEVELS, ..., J, where the longest
# step reaches the horizon. Hit times are located on the grid of the
# shortest step, 0.1 * 2**-24 (about 6e-9).
_BASE_STEP = 0.1
_FINE_LEVELS = 24
# Records per window of a recorded trace; after each window the record
# interval doubles, starting from _BASE_STEP, so late, slow dynamics are
# sampled coarsely.
_WINDOW_RECORDS = 256
# The Taylor coefficients 1/k!, k = 0..24, of `_exp`, in five blocks of five.
_TAYLOR_BLOCKS = np.array([[1.0 / math.factorial(5 * j + i) for i in range(5)] for j in range(5)])
# The 1-norm up to which `_exp` sums the series only to degree 2.
_TINY_NORM = 2.0**-17


@dataclass(frozen=True)
class WalkConfig:
    """Parameters shared by both walkers.

    `t_max_cap` of None means the default horizon 10 * n**3; the
    detection threshold defaults to 1/ln(n) unless overridden.
    """

    gamma: float = 1.0
    p_threshold_override: float | None = None
    t_max_cap: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", _real("gamma", self.gamma, 0, strict=True))
        if self.p_threshold_override is not None:
            p_th = _real("p_threshold_override", self.p_threshold_override, 0, 1, strict=True)
            object.__setattr__(self, "p_threshold_override", p_th)
        if self.t_max_cap is not None:
            t_max = _real("t_max_cap", self.t_max_cap, 0, strict=True)
            object.__setattr__(self, "t_max_cap", t_max)

    def p_threshold(self, n: int) -> float:
        if self.p_threshold_override is not None:
            return self.p_threshold_override
        return 1.0 / math.log(_integer("n", n, 3))

    def t_max(self, n: int) -> float:
        if self.t_max_cap is not None:
            return self.t_max_cap
        return 10.0 * n**3


@dataclass(frozen=True)
class Trace:
    """Sampled detection-probability curve."""

    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class WalkOutcome:
    classical_hit_time: float | None
    quantum_hit_time: float | None
    label: int
    indeterminate: bool
    p_threshold: float
    t_max: float
    classical_trace: Trace | None = None
    quantum_trace: Trace | None = None


def _sink_population(psi: np.ndarray) -> float:
    return 1.0 - float(np.vdot(psi, psi).real)


def hitting_time(trace: Trace, p_th: float, t_max: float | None = None) -> float | None:
    """First time the detection probability strictly exceeds p_th.

    The crossing is linearly interpolated between the bracketing grid
    points; None when the curve never exceeds p_th by t_max (default:
    end of trace).
    """
    times = np.asarray(trace.times, dtype=float)
    values = np.asarray(trace.values, dtype=float)
    above = np.nonzero(values > p_th)[0]
    if above.size == 0:
        return None
    k = int(above[0])
    if k == 0:
        t_star = float(times[0])
    else:
        t0, t1 = times[k - 1], times[k]
        p0, p1 = values[k - 1], values[k]
        if p1 == p0:
            t_star = float(times[k])
        else:
            t_star = float(t0 + (p_th - p0) * (t1 - t0) / (p1 - p0))
    if t_max is not None and t_star > t_max:
        return None
    return t_star


def label_from_hit_times(t_classical: float | None, t_quantum: float | None) -> int:
    """QUANTUM exactly when the quantum walker crosses and the classical
    one crosses later or never; CLASSICAL otherwise (ties included)."""
    if t_quantum is not None and (t_classical is None or t_quantum < t_classical):
        return QUANTUM
    return CLASSICAL


# ====== label path: binary descent over a propagator ladder ======


def _rung_step(k: int) -> float:
    return _BASE_STEP * 2.0 ** (k - _FINE_LEVELS)


def _exp(x: np.ndarray) -> np.ndarray:
    """exp(x) of a square matrix, by scaling and squaring a truncated
    Taylor series (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).

    x is scaled by 2**-s to y with ||y||_1 <= 2, the series is summed to
    degree 24 in eight matrix products (Paterson & Stockmeyer, SIAM J.
    Comput. 2, 60 (1973)), and the sum is squared s times. The truncated
    tail is at most sum_{k>=25} ||y||^k / k! <= 2**25 / 25! / (1 - 2/26)
    < 3e-18, below 2**-53 whatever the 1-norm of x. When ||x||_1 <= 2**-17,
    as at the ladder's shortest step, the sum stops at x**2 / 2, whose tail
    is at most ||x||^3 / 6 / (1 - ||x|| / 4) < 2**-53.
    """
    n = len(x)
    eye = np.eye(n, dtype=x.dtype)
    norm = float(np.abs(x).sum(axis=0).max())
    if norm <= _TINY_NORM:
        return eye + x + (x @ x) / 2
    squarings = max(0, math.frexp(norm / 2)[1])  # norm < 2 * 2**squarings
    y = x * 2.0**-squarings  # exact: scaled by a power of two
    powers = [eye, y]
    for _ in range(4):
        powers.append(powers[-1] @ y)
    y5 = powers.pop()
    # block j is sum_i y**i / (5j + i)!, and the series is sum_j y5**j block_j
    blocks = (_TAYLOR_BLOCKS @ np.stack(powers).reshape(5, -1)).reshape(5, n, n)
    result = blocks[4]
    for block in blocks[3::-1]:
        result = block + y5 @ result
    for _ in range(squarings):
        result = result @ result
    return result


def _ladder(generator: np.ndarray, cap: float) -> list[np.ndarray]:
    """exp(generator * _rung_step(k)) for k = 0, 1, ..., up to the first
    step that reaches cap.

    The rungs below _BASE_STEP are one `_exp` at the shortest step squared
    up; the rest are one `_exp` at _BASE_STEP squared up. The second
    anchor keeps the rounding of 24 more squarings of the first out of the
    longer rungs.
    """
    rungs = [_exp(generator * _rung_step(0))]
    while len(rungs) < _FINE_LEVELS:
        rungs.append(rungs[-1] @ rungs[-1])
    rungs.append(_exp(generator * _BASE_STEP))
    while _rung_step(len(rungs) - 1) < cap:
        rungs.append(rungs[-1] @ rungs[-1])
    return rungs


def _hit_time(rungs: list[np.ndarray], state: np.ndarray, value, p_th: float, cap: float):
    """First time value(state) exceeds p_th, or None if not by cap.

    The curve is non-decreasing, so descending the ladder from its
    longest step, and taking each step that stays within the horizon and
    keeps value <= p_th, ends at the last point of the finest grid where
    the curve is still <= p_th. The crossing lies within one finest step
    after it; the end of that step is reported. Time is counted exactly,
    in finest steps.
    """
    last = math.floor(cap / _rung_step(0))
    ticks = 0
    for k in reversed(range(len(rungs))):
        if ticks + 2**k > last:
            continue
        ahead = rungs[k] @ state
        if value(ahead) <= p_th:
            ticks, state = ticks + 2**k, ahead
    return (ticks + 1) * _rung_step(0) if ticks < last else None


def _record(rungs: list[np.ndarray], state: np.ndarray, value, t_stop: float) -> Trace:
    """Sample the curve on the window-doubled record grid, up to the first
    record at or past t_stop."""
    times, values = [0.0], [value(state)]
    k = _FINE_LEVELS
    while True:
        for _ in range(_WINDOW_RECORDS):
            state = rungs[k] @ state
            times.append(times[-1] + _rung_step(k))
            values.append(value(state))
            if times[-1] >= t_stop:
                return Trace(np.array(times), np.array(values))
        k += 1


def label_graph(g: Graph, cfg: WalkConfig = WalkConfig(), record_traces: bool = False) -> WalkOutcome:
    """Run both walkers on g and decide which one detects faster.

    Each hit time is the first point of a grid of step 0.1 * 2**-24 at
    which the exact curve exceeds p_th, so it lies within 1e-6 relative of
    the exact crossing (the propagators' rounding dominates the grid).
    The label is quantum exactly when the quantum hitting time exists and
    is strictly smaller than the classical one (or the classical walker
    never crosses). When neither crosses by the horizon the label falls
    back to classical and the outcome is flagged indeterminate.

    With record_traces, both curves are sampled on a record grid whose
    interval starts at 0.1 and doubles every 256 records, until 25% (at
    least 5) past the later hit time, or to the horizon if a walker never
    crosses.
    """
    p_th = cfg.p_threshold(g.n)
    cap = cfg.t_max(g.n)
    p0 = np.eye(g.n)[g.v_init]
    walkers = (
        (_ladder(classical_variant(g) - np.eye(g.n), cap), p0, lambda p: float(p[g.v_target])),
        (_ladder(-1j * quantum_variant(g, cfg.gamma), cap), p0.astype(np.complex128), _sink_population),
    )
    t_c, t_q = (_hit_time(rungs, start, value, p_th, cap) for rungs, start, value in walkers)

    traces = (None, None)
    if record_traces:
        t_stop = cap
        if t_c is not None and t_q is not None:
            last = max(t_c, t_q)
            t_stop = min(cap, max(1.25 * last, last + 5.0))
        traces = tuple(_record(rungs, start, value, t_stop) for rungs, start, value in walkers)
    return WalkOutcome(
        classical_hit_time=t_c,
        quantum_hit_time=t_q,
        label=label_from_hit_times(t_c, t_q),
        indeterminate=t_c is None and t_q is None,
        p_threshold=p_th,
        t_max=cap,
        classical_trace=traces[0],
        quantum_trace=traces[1],
    )


def write_trace_csv(outcome: WalkOutcome, path) -> None:
    """Dump the recorded curves as CSV with columns t, p_classical, p_quantum."""
    if outcome.classical_trace is None or outcome.quantum_trace is None:
        raise ValueError("outcome carries no traces; rerun with record_traces=True")
    classical, quantum = outcome.classical_trace, outcome.quantum_trace
    write_csv(path, ("t", "p_classical", "p_quantum"),
              zip(classical.times, classical.values, quantum.values))
