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
target probability does. `label_from_hit_times` is that rule, the one
place a label is decided; an outcome or a dataset example stores the two
hit times and derives its label and indeterminate flag from them.

Both walkers are propagated on one path: `label_graph` builds a ladder of
exact propagators exp(G h) per walker, locates each hit time by climbing
and descending it, and records the curves for `simulate` on the same
rungs. Each ladder has one anchor, exp(0.1 G), computed in numpy by
scaling and squaring a truncated Taylor series; its squarings are the
ladder's shortest rungs, and longer rungs are squared only when a walk
reaches them. Inside the last step before a crossing the state is the
same Taylor series, so the crossing is placed on the grid of step
0.1 * 2**-24 from a polynomial in the step fraction. Walks need no
library beyond numpy.
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
    "label_from_hit_times",
    "label_graph",
    "write_trace_csv",
]

CLASSICAL = 0
QUANTUM = 1
LABEL_NAMES = {CLASSICAL: "classical", QUANTUM: "quantum"}

# The label path propagates with a ladder of exact propagators exp(G h)
# that starts at h = _BASE_STEP, halved as often as the anchor G _BASE_STEP
# needs to reach a 1-norm of 2, and doubles per rung. Hit times are located
# on the grid of step _BASE_STEP * 2**-_GRID_LEVELS (about 6e-9).
_BASE_STEP = 0.1
_GRID_LEVELS = 24
# Records per window of a recorded trace; after each window the record
# interval doubles, starting from _BASE_STEP, so late, slow dynamics are
# sampled coarsely.
_WINDOW_RECORDS = 256
# The Taylor coefficients 1/k!, k = 0..24, of the ladder's series, in five
# blocks of five.
_TAYLOR_BLOCKS = np.array([[1.0 / math.factorial(5 * j + i) for i in range(5)] for j in range(5)])
# k + l for entry (k, l) of the series terms' Gram matrix: the power of the
# step fraction that entry multiplies.
_GRAM_DEGREES = np.add.outer(np.arange(25), np.arange(25)).ravel()
# Newton probes for the crossing inside the last step before bisection
# takes over; most crossings need three or four.
_NEWTON_PROBES = 8


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


def label_from_hit_times(t_classical: float | None, t_quantum: float | None) -> int:
    """QUANTUM exactly when the quantum walker crosses and the classical
    one crosses later or never; CLASSICAL otherwise (ties included)."""
    if t_quantum is not None and (t_classical is None or t_quantum < t_classical):
        return QUANTUM
    return CLASSICAL


def _indeterminate(t_classical: float | None, t_quantum: float | None) -> bool:
    """Whether neither walker crossed, so the label is only the fallback."""
    return t_classical is None and t_quantum is None


class _HitTimes:
    """The label and indeterminate flag of a class that stores the two hit
    times, derived from them on each read."""

    @property
    def label(self) -> int:
        return label_from_hit_times(self.classical_hit_time, self.quantum_hit_time)

    @property
    def indeterminate(self) -> bool:
        return _indeterminate(self.classical_hit_time, self.quantum_hit_time)


@dataclass(frozen=True)
class WalkOutcome(_HitTimes):
    """The hit times on one graph (None for a walker that does not cross
    by t_max), from which `label` and `indeterminate` are derived."""

    classical_hit_time: float | None
    quantum_hit_time: float | None
    p_threshold: float
    t_max: float
    classical_trace: Trace | None = None
    quantum_trace: Trace | None = None


def _sink_population(psi: np.ndarray) -> float:
    return 1.0 - float(np.vdot(psi, psi).real)


# ====== label path: a propagator ladder, descended, then a Taylor series ======


class _Ladder:
    """The propagators exp(G h_k), h_k = _BASE_STEP * 2**(k - squarings),
    for k = 0, 1, ..., each squared from the one below when first asked for.

    The anchor x = G _BASE_STEP is scaled by 2**-squarings to y with
    ||y||_1 <= 2 (Moler & Van Loan, SIAM Rev. 45, 3 (2003)), and rung 0,
    exp(y), is its Taylor series summed to degree 24 in eight matrix
    products (Paterson & Stockmeyer, SIAM J. Comput. 2, 60 (1973)). The
    truncated tail is at most sum_{k>=25} ||y||^k / k! <= 2**25 / 25! /
    (1 - 2/26) < 3e-18, below 2**-53 whatever the 1-norm of x. Rung
    `squarings` is exp(x), and every rung from it on has a step of
    _BASE_STEP * 2**j. The powers of y stay, so the same series also gives
    the state anywhere inside one step of rung 0 (`series`).
    """

    def __init__(self, generator: np.ndarray) -> None:
        x = generator * _BASE_STEP
        n = len(x)
        norm = float(np.abs(x).sum(axis=0).max())
        self.squarings = max(0, math.frexp(norm / 2)[1])  # norm < 2 * 2**squarings
        y = x * 2.0**-self.squarings  # exact: scaled by a power of two
        self.powers = np.empty((5, n, n), dtype=x.dtype)  # [I, y, y**2, y**3, y**4]
        self.powers[0], self.powers[1] = np.eye(n), y
        for i in range(2, 5):
            np.matmul(self.powers[i - 1], y, out=self.powers[i])
        self.y5 = self.powers[4] @ y
        # block j is sum_i y**i / (5j + i)!, and the series is sum_j y5**j block_j
        blocks = (_TAYLOR_BLOCKS @ self.powers.reshape(5, -1)).reshape(5, n, n)
        result = blocks[4]
        for block in blocks[3::-1]:
            result = block + self.y5 @ result
        self.rungs = [result]

    def __getitem__(self, k: int) -> np.ndarray:
        while len(self.rungs) <= k:
            self.rungs.append(self.rungs[-1] @ self.rungs[-1])
        return self.rungs[k]

    def step(self, k: int) -> float:
        return _BASE_STEP * 2.0 ** (k - self.squarings)

    def series(self, state: np.ndarray) -> np.ndarray:
        """The (25, n) terms y**k state / k!, row k, so that exp(theta y)
        state is their sum weighted by theta**k, for theta in [0, 1]."""
        n = len(state)
        rows = np.empty((5, n), dtype=self.y5.dtype)  # y5**j state, j = 0..4
        rows[0] = state
        for j in range(1, 5):
            rows[j] = self.y5 @ rows[j - 1]
        # entry [j, i] is y**i y5**j state, the term of degree 5j + i
        terms = (rows @ self.powers.reshape(5 * n, n).T).reshape(5, 5, n)
        return (terms * _TAYLOR_BLOCKS[..., np.newaxis]).reshape(25, n)


def _sink_series(terms: np.ndarray) -> np.ndarray:
    """The coefficients in theta of 1 - ||sum_k theta**k terms[k]||**2,
    from the terms' Gram matrix."""
    gram = (terms.conj() @ terms.T).real
    coefficients = -np.bincount(_GRAM_DEGREES, weights=gram.ravel())
    coefficients[0] += 1.0
    return coefficients


def _last_grid_point(coefficients: np.ndarray, p_th: float, per_step: int, top: int) -> int:
    """The largest j <= top with c(j / per_step) <= p_th, where c is the
    polynomial with these coefficients and c(0) <= p_th.

    Each probe is the grid point at or below the Newton root from the last
    one, kept strictly inside the bracket, so near the crossing it checks
    m and then m + 1. After _NEWTON_PROBES probes, or where the curve is
    flat, the bracket is bisected instead, so no curve can stall it.
    """
    highest_first = coefficients[::-1].tolist()

    def curve(j: int) -> tuple[float, float]:
        theta, c, slope = j / per_step, 0.0, 0.0
        for a in highest_first:
            slope = slope * theta + c
            c = c * theta + a
        return c - p_th, slope

    lo, hi = 0, top + 1  # c(lo) <= p_th; no grid point from hi on is taken
    j, probes = 0, 0
    f, slope = highest_first[-1] - p_th, highest_first[-2]  # c(0) - p_th and c'(0)
    while hi - lo > 1:
        if probes < _NEWTON_PROBES and slope > 0:
            j = math.floor(min(max(j - f * per_step / slope, lo + 1), hi - 1))
        else:
            j = (lo + hi) // 2
        probes += 1
        f, slope = curve(j)
        if f <= 0:
            lo = j
        else:
            hi = j
    return lo


def _hit_time(ladder: _Ladder, start: np.ndarray, value, series_value, p_th: float, cap: float):
    """First time value(state) exceeds p_th, or None if not by cap.

    The curve is non-decreasing. Time is counted exactly, in units of
    _BASE_STEP * 2**-levels, the grid step or rung 0's if that is finer.
    The climb applies rungs 0, 1, ... to the start until one overshoots
    p_th or the horizon, so no rung past the crossing is squared. The
    descent from the rung below it takes each shorter step that stays
    within the horizon and keeps value <= p_th, and ends inside one step
    of rung 0 before the crossing. There value is a polynomial in the
    fraction of that step (`_Ladder.series`, reduced by series_value), and
    the last grid point at or below p_th is found on it. The crossing lies
    within one grid step after that point; the end of that step is
    reported.
    """
    levels = max(_GRID_LEVELS, ladder.squarings)
    last = math.floor(cap / (_BASE_STEP * 2.0**-levels))
    per_step = 2 ** (levels - ladder.squarings)  # units in a step of rung 0
    state, ticks, k = start, 0, 0
    while per_step << k <= last and value(ahead := ladder[k] @ start) <= p_th:
        state, ticks, k = ahead, per_step << k, k + 1
    for k in reversed(range(k - 1)):
        if ticks + (per_step << k) <= last and value(ahead := ladder.rungs[k] @ state) <= p_th:
            state, ticks = ahead, ticks + (per_step << k)
    top = min(per_step - 1, last - ticks)
    if top > 0:
        ticks += _last_grid_point(series_value(ladder.series(state)), p_th, per_step, top)
    per_grid = 2 ** (levels - _GRID_LEVELS)
    grid = ticks // per_grid
    return (grid + 1) * (_BASE_STEP * 2.0**-_GRID_LEVELS) if grid < last // per_grid else None


def _record(ladder: _Ladder, state: np.ndarray, value, t_stop: float) -> Trace:
    """Sample the curve on the window-doubled record grid, up to the first
    record at or past t_stop."""
    times, values = [0.0], [value(state)]
    k = ladder.squarings
    while True:
        rung, step = ladder[k], ladder.step(k)
        for _ in range(_WINDOW_RECORDS):
            state = rung @ state
            times.append(times[-1] + step)
            values.append(value(state))
            if times[-1] >= t_stop:
                return Trace(np.array(times), np.array(values))
        k += 1


def _walkers(g: Graph, gamma: float) -> tuple:
    """(ladder, start, value, series_value) for the classical walker, then
    for the quantum one."""
    p0 = np.eye(g.n)[g.v_init]
    target = g.v_target
    return (
        (_Ladder(classical_variant(g) - np.eye(g.n)), p0, lambda p: float(p[target]),
         lambda terms: terms[:, target]),
        (_Ladder(-1j * quantum_variant(g, gamma)), p0.astype(np.complex128), _sink_population,
         _sink_series),
    )


def label_graph(g: Graph, cfg: WalkConfig = WalkConfig(), record_traces: bool = False) -> WalkOutcome:
    """Run both walkers on g and decide which one detects faster.

    Each hit time is the first point of a grid of step 0.1 * 2**-24 at
    which the curve exceeds p_th: the end of the grid step that holds the
    exact crossing, up to the propagators' rounding (a few 1e-14 on the
    curve, so within 1e-10 relative of the exact crossing, besides the
    grid step, on every graph checked against brentq roots).
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
    walkers = _walkers(g, cfg.gamma)
    t_c, t_q = (_hit_time(*walker, p_th, cap) for walker in walkers)

    traces = (None, None)
    if record_traces:
        t_stop = cap
        if t_c is not None and t_q is not None:
            last = max(t_c, t_q)
            t_stop = min(cap, max(1.25 * last, last + 5.0))
        traces = tuple(_record(ladder, start, value, t_stop) for ladder, start, value, _ in walkers)
    return WalkOutcome(
        classical_hit_time=t_c,
        quantum_hit_time=t_q,
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
