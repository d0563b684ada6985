"""Continuous-time classical and quantum walk simulation and speedup labeling.

The classical walker diffuses under dp/dt = (T - I)p with an absorbing
target column. The quantum walker's only jump moves population from the
target into a sink that the Hamiltonian never touches, so its graph block
stays the pure state psi of the no-jump evolution psi' = -i H_eff psi,
with H_eff = A - (i gamma / 2)|target><target|, and the sink population is
1 - ||psi||^2. A graph is labeled "quantum" when the sink population
crosses the detection threshold 1/ln(n) strictly before the classical
target probability does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .graphs import ClassicalSystem, Graph, QuantumSystem, classical_variant, quantum_variant

__all__ = [
    "CLASSICAL",
    "QUANTUM",
    "LABEL_NAMES",
    "IntegratorError",
    "WalkConfig",
    "Trace",
    "WalkOutcome",
    "ctrw_probabilities",
    "ctqw_density",
    "hitting_time",
    "label_graph",
    "write_trace_csv",
]

CLASSICAL = 0
QUANTUM = 1
LABEL_NAMES = {CLASSICAL: "classical", QUANTUM: "quantum"}

# Records per window of the label-path integrator; after each window the
# record interval doubles, so late, slow dynamics are sampled coarsely
# while the underlying integration step never changes.
_WINDOW_RECORDS = 256
# A dissipative H_eff can only shrink the norm; growth means the RK4 step
# is unstable for this spectrum.
_NORM_GROWTH_TOL = 1e-6


class IntegratorError(RuntimeError):
    """Pure-state integration gained norm beyond tolerance (step too coarse)."""


@dataclass(frozen=True)
class WalkConfig:
    """Parameters shared by both walkers.

    `t_max_cap` of None means the default horizon 10 * n**3; the
    detection threshold defaults to 1/ln(n) unless overridden.
    """

    gamma: float = 1.0
    p_threshold_override: float | None = None
    t_max_cap: float | None = None
    dt: float = 0.01
    record_stride: int = 10
    convergence_check: bool = False

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_max_cap is not None and self.t_max_cap <= 0:
            raise ValueError(f"t_max_cap must be positive, got {self.t_max_cap}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if self.p_threshold_override is not None and not 0 < self.p_threshold_override < 1:
            raise ValueError("p_threshold_override must lie in (0, 1)")

    def p_threshold(self, n: int) -> float:
        if self.p_threshold_override is not None:
            return self.p_threshold_override
        if n < 3:
            raise ValueError(f"detection threshold undefined for n={n}")
        return 1.0 / math.log(n)

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


# ====== direct integrators (single-time / explicit-grid) ======


def ctrw_probabilities(sys: ClassicalSystem, t: float) -> np.ndarray:
    """Occupation probabilities of the classical walker at time t.

    Exact propagation of dp/dt = (T - I)p from the unit vector at the
    start vertex, via the scaling-and-squaring matrix exponential.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    p0 = np.zeros(sys.n)
    p0[sys.v_init] = 1.0
    if t == 0:
        return p0
    return expm(sys.generator * t) @ p0


def _effective_hamiltonian(sys: QuantumSystem) -> np.ndarray:
    # Graph block of the padded Hamiltonian; the sink is the last index.
    n = sys.sink_index
    h = sys.hamiltonian[:n, :n].astype(np.complex128)
    h[sys.v_target, sys.v_target] -= 0.5j * sys.decay_rate
    return h


def _rk4_map(h_eff: np.ndarray, step: float) -> np.ndarray:
    """One classical RK4 step of psi' = -i H_eff psi.

    For a linear system that step is exactly the degree-4 Taylor
    polynomial of exp(-i step H_eff).
    """
    scaled = -1j * step * h_eff
    op = np.eye(h_eff.shape[0], dtype=np.complex128)
    term = op
    for k in (1, 2, 3, 4):
        term = term @ scaled / k
        op = op + term
    return op


def _initial_state(sys: QuantumSystem) -> np.ndarray:
    psi = np.zeros(sys.sink_index, dtype=np.complex128)
    psi[sys.v_init] = 1.0
    return psi


def _sink_population(sys: QuantumSystem, norm: float) -> float:
    # Without the jump nothing reaches the sink, whatever RK4 does to the norm.
    return 1.0 - norm if sys.decay_rate != 0.0 else 0.0


def _density(sys: QuantumSystem, psi: np.ndarray, norm: float) -> np.ndarray:
    n = sys.sink_index
    rho = np.zeros((sys.dim, sys.dim), dtype=np.complex128)
    rho[:n, :n] = np.outer(psi, psi.conj())
    rho[n, n] = _sink_population(sys, norm)
    return rho


def _check_norm(prev: float, norm: float, t: float) -> None:
    if norm - prev > _NORM_GROWTH_TOL:
        raise IntegratorError(f"state norm grew by {norm - prev:.3e} at t={t:g}; reduce dt")


def ctqw_density(sys: QuantumSystem, t_grid, dt: float = 0.01) -> list[np.ndarray]:
    """Density matrices of the quantum walker at the requested times.

    Each matrix is |psi><psi| on the graph block plus the sink population
    1 - ||psi||^2. psi is integrated with fixed-step classical
    fourth-order Runge-Kutta; each grid interval is covered by uniform
    substeps of size at most `dt`. Raises IntegratorError if the norm of
    psi grows by more than 1e-6 over an interval (the step is too large
    for this system).
    """
    times = [float(t) for t in t_grid]
    if not times or times[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("t_grid must be strictly increasing")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    h_eff = _effective_hamiltonian(sys)
    psi = _initial_state(sys)
    norm = 1.0
    out = [_density(sys, psi, norm)]
    for t_prev, t_next in zip(times, times[1:]):
        span = t_next - t_prev
        steps = max(1, math.ceil(span / dt - 1e-12))
        psi = np.linalg.matrix_power(_rk4_map(h_eff, span / steps), steps) @ psi
        prev, norm = norm, float(np.vdot(psi, psi).real)
        _check_norm(prev, norm, t_next)
        out.append(_density(sys, psi, norm))
    return out


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


# ====== label-path integrator ======
#
# Both dynamics are autonomous linear ODEs, so the per-record update is a
# fixed linear map: exp(Q*delta) for the classical vector and, for psi, the
# one-step RK4 map raised to the record stride. Squaring those maps after
# each window doubles the record interval without changing the integration
# step.


def _march(
    csys: ClassicalSystem,
    qsys: QuantumSystem,
    p_th: float,
    cap: float,
    dt: float,
    stride: int,
    extend_for_traces: bool,
):
    """Advance both walkers on a shared, window-doubled record grid.

    Returns (times, classical curve, quantum curve). Marching stops once
    both curves have crossed p_th (optionally continuing 25% further for
    plotting) or the time cap is passed.
    """
    n = csys.n
    delta = dt * stride
    c_chunk = expm(csys.generator * delta)
    q_chunk = np.linalg.matrix_power(_rk4_map(_effective_hamiltonian(qsys), dt), stride)

    p = np.zeros(n)
    p[csys.v_init] = 1.0
    psi = _initial_state(qsys)
    norm = 1.0

    t = 0.0
    times = [0.0]
    c_vals = [float(p[csys.v_target])]
    q_vals = [_sink_population(qsys, norm)]
    crossed_c = c_vals[0] > p_th
    crossed_q = q_vals[0] > p_th
    t_stop = cap

    while True:
        for _ in range(_WINDOW_RECORDS):
            p = c_chunk @ p
            psi = q_chunk @ psi
            t += delta
            prev, norm = norm, float(np.vdot(psi, psi).real)
            _check_norm(prev, norm, t)
            times.append(t)
            c_vals.append(float(p[csys.v_target]))
            q_vals.append(_sink_population(qsys, norm))
            if not crossed_c and c_vals[-1] > p_th:
                crossed_c = True
            if not crossed_q and q_vals[-1] > p_th:
                crossed_q = True
            if crossed_c and crossed_q and t_stop == cap:
                if not extend_for_traces:
                    return np.array(times), np.array(c_vals), np.array(q_vals)
                t_stop = min(cap, max(1.25 * t, t + 5.0))
            if t >= t_stop or t >= cap:
                return np.array(times), np.array(c_vals), np.array(q_vals)
        c_chunk = c_chunk @ c_chunk
        q_chunk = q_chunk @ q_chunk
        delta *= 2.0


def label_graph(g: Graph, cfg: WalkConfig = WalkConfig(), record_traces: bool = False) -> WalkOutcome:
    """Run both walkers on g and decide which one detects faster.

    The label is quantum exactly when the quantum hitting time exists and
    is strictly smaller than the classical one (or the classical walker
    never crosses). When neither crosses by the horizon the label falls
    back to classical and the outcome is flagged indeterminate.
    """
    p_th = cfg.p_threshold(g.n)
    cap = cfg.t_max(g.n)
    csys = classical_variant(g)
    qsys = quantum_variant(g, cfg.gamma)

    times, c_vals, q_vals = _march(csys, qsys, p_th, cap, cfg.dt, cfg.record_stride, record_traces)
    if cfg.convergence_check:
        times2, c2, q2 = _march(
            csys, qsys, p_th, cap, cfg.dt / 2.0, cfg.record_stride * 2, record_traces
        )
        k = min(len(times), len(times2))
        err = max(np.abs(c_vals[:k] - c2[:k]).max(), np.abs(q_vals[:k] - q2[:k]).max())
        if err > 1e-4:
            raise IntegratorError(f"halved-step curves disagree by {err:.3e}; reduce dt")

    c_trace = Trace(times, c_vals)
    q_trace = Trace(times, q_vals)
    t_c = hitting_time(c_trace, p_th, t_max=cap)
    t_q = hitting_time(q_trace, p_th, t_max=cap)
    label = QUANTUM if t_q is not None and (t_c is None or t_q < t_c) else CLASSICAL
    return WalkOutcome(
        classical_hit_time=t_c,
        quantum_hit_time=t_q,
        label=label,
        indeterminate=t_c is None and t_q is None,
        p_threshold=p_th,
        t_max=cap,
        classical_trace=c_trace if record_traces else None,
        quantum_trace=q_trace if record_traces else None,
    )


def write_trace_csv(outcome: WalkOutcome, path) -> None:
    """Dump the recorded curves as CSV with columns t, p_classical, p_quantum."""
    if outcome.classical_trace is None or outcome.quantum_trace is None:
        raise ValueError("outcome carries no traces; rerun with record_traces=True")
    lines = ["t,p_classical,p_quantum"]
    for t, pc, pq in zip(
        outcome.classical_trace.times,
        outcome.classical_trace.values,
        outcome.quantum_trace.values,
    ):
        lines.append(f"{float(t)!r},{float(pc)!r},{float(pq)!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
