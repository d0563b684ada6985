"""Exact re-computation of both hitting times, to check labeled graphs.

The benchmark's own oracle, independent of qwalk's integrators. Both
detection curves are evaluated with exact n x n propagators:

- classical: the target entry of expm(Q t) e_init, with Q = T - I for the
  column-stochastic jump matrix T whose target column is absorbing;
- quantum: 1 - ||expm(-i H t) e_init||^2 with the non-Hermitian
  H = A - (i gamma / 2) |target><target|. Population that leaves the
  n-vertex block is exactly the population in the sink.

Both curves are non-decreasing (the classical target absorbs, the sink
only gains), so each crosses p_th at most once: a walker that "never
crosses" is confirmed by one evaluation at t_max, and a reported hit time
is confirmed by the sign of the curve just before and just after it. The
root itself is then located with brentq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

CLASSICAL, QUANTUM = 0, 1

# A reported hit time may differ from the exact root by this much. The
# seed's window-doubled record grid with linear interpolation stays within
# 2.0e-3 relative over 460 random and line graphs.
REL_TOL = 1e-2
ABS_TOL = 1e-3


def tolerance(t: float) -> float:
    return REL_TOL * t + ABS_TOL


class ExactWalk:
    """Both detection curves of one graph, by exact propagation."""

    def __init__(self, adjacency, v_init: int, v_target: int, gamma: float = 1.0) -> None:
        a = np.asarray(adjacency, dtype=np.float64)
        self.n = len(a)
        self.v_init, self.v_target = v_init, v_target
        self.p_threshold = 1.0 / math.log(self.n)
        self.t_max = 10.0 * self.n**3
        jump = a / a.sum(axis=0)[np.newaxis, :]
        jump[:, v_target] = 0.0
        jump[v_target, v_target] = 1.0
        self._q = jump - np.eye(self.n)
        self._h = a.astype(np.complex128)
        self._h[v_target, v_target] -= 0.5j * gamma

    def classical(self, t: float) -> float:
        return float(expm(self._q * t)[self.v_target, self.v_init])

    def quantum(self, t: float) -> float:
        psi = expm(-1j * self._h * t)[:, self.v_init]
        return float(1.0 - np.vdot(psi, psi).real)

    def hit_time(self, which: int) -> float | None:
        """Exact first time the curve exceeds p_th, None if not by t_max."""
        f = self.classical if which == CLASSICAL else self.quantum
        p_th = self.p_threshold
        if f(self.t_max) <= p_th:
            return None
        return brentq(lambda t: f(t) - p_th, 0.0, self.t_max, xtol=1e-12, rtol=1e-12)

    def located(self, which: int, reported: float) -> float | None:
        """Exact root near a reported time, or None if it is not within tolerance.

        Monotonicity makes a sign change across [reported - tol, reported + tol]
        proof that the one crossing lies inside; brentq then pins it.
        """
        f = self.classical if which == CLASSICAL else self.quantum
        p_th = self.p_threshold
        tol = tolerance(reported)
        lo, hi = max(0.0, reported - tol), min(self.t_max, reported + tol)
        if not (f(lo) <= p_th < f(hi)):
            return None
        return brentq(lambda t: f(t) - p_th, lo, hi, xtol=1e-12, rtol=1e-12)


def exact_label(t_c: float | None, t_q: float | None) -> int:
    return QUANTUM if t_q is not None and (t_c is None or t_q < t_c) else CLASSICAL


@dataclass
class Verdict:
    problems: list[str]
    rel_error: float  # worst |reported - exact| / exact over the two walkers

    @property
    def ok(self) -> bool:
        return not self.problems


def check(
    adjacency,
    v_init: int,
    v_target: int,
    t_classical: float | None,
    t_quantum: float | None,
    label: int,
    gamma: float = 1.0,
) -> Verdict:
    """Compare one graph's reported hit times and label with the exact ones.

    A problem is a hit time off by more than `tolerance`, a walker reported
    to cross (or not) when it exactly does not (or does), or a label that
    differs from the exact one while the exact times are further apart
    than the tolerance.
    """
    walk = ExactWalk(adjacency, v_init, v_target, gamma)
    problems: list[str] = []
    exact: list[float | None] = []
    worst = 0.0
    for which, name, reported in ((CLASSICAL, "classical", t_classical), (QUANTUM, "quantum", t_quantum)):
        root = None if reported is None else walk.located(which, reported)
        if root is None:
            root = walk.hit_time(which)
        exact.append(root)
        if reported is None and root is None:
            continue
        if reported is None or root is None:
            near_horizon = tolerance(walk.t_max)
            edge = reported if reported is not None else root
            if walk.t_max - edge > near_horizon:
                problems.append(f"{name}: reported {reported!r}, exact {root!r}")
            continue
        err = abs(reported - root)
        worst = max(worst, err / root if root > 0 else err)
        if err > tolerance(root):
            problems.append(f"{name}: reported {reported:.6g}, exact {root:.6g}")
    t_c, t_q = exact
    if label != exact_label(t_c, t_q):
        tie = t_c is not None and t_q is not None and abs(t_c - t_q) <= tolerance(max(t_c, t_q))
        if not tie:
            problems.append(f"label {label} but exact times give {exact_label(t_c, t_q)}")
    return Verdict(problems, worst)
