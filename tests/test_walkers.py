"""Walker dynamics, hitting times, and speedup labeling.

Tests verify:
- detection threshold and horizon defaults
- the ladder's propagators against scipy.linalg.expm on both walkers'
  generators, at the anchor step 0.1 and at rungs squared from it, and the
  in-step Taylor series at fractions of rung 0's step; exp(0) is exactly I
- the propagator ladder the label path descends: classical rungs conserve
  probability and keep it non-negative, quantum rungs contract the no-jump
  state (unitary without decay); the ladder squares no rung past the
  crossing, and up to the horizon for a walker that never crosses
- the label path's recorded curves: the classical one against fine-step
  explicit-Euler and eigendecomposition oracles, the sink one against a
  vectorized-Liouvillian matrix-exponential oracle at small n and at
  benchmark sizes, both starting at 0 and never decreasing
- the three n=3 line labelings and the K_3 golden outcome, with golden hit
  times from the brentq oracle
- label-path hit times within 1e-6 relative of the brentq oracle, and
  independent of the propagator ladder's base step; each one the end of
  the grid step (0.1 2^-24) that holds the oracle root
- hit times pinned bit for bit on random graphs n = 8..20 and one path
  per n = 4..7
- the never-crossing certificate: a quantum walker whose bright-state
  weight eta lies below p_th never crosses, and one above it does
- recorded traces that bracket the located hit times
- invariance under free-vertex relabeling
- the trace CSV, and its refusal of an outcome recorded without traces
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm

import qwalk.walkers
from qwalk import (
    CLASSICAL,
    QUANTUM,
    Graph,
    Trace,
    WalkConfig,
    classical_variant,
    label_graph,
    line_graph,
    quantum_variant,
    random_graph,
    write_trace_csv,
)
from qwalk.walkers import _Ladder, _hit_time, _walkers

from oracles import (
    eta,
    euler_classical_probabilities,
    liouvillian_expm_density,
    oracle_hit_times,
    permute_free_vertices,
    spectral_target_probability,
)

K3 = Graph(np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))
# The grid on which hit times are located.
GRID_STEP = 0.1 * 2.0**-24


def line_classes(n: int) -> list[Graph]:
    """One path graph per (start, target) position class, up to reversal:
    the walks on a path depend on nothing else."""
    graphs = []
    for i in range(n):
        for j in range(n):
            if i != j and (i, j) <= (n - 1 - i, n - 1 - j):
                rest = iter(range(2, n))
                graphs.append(line_graph(n, [0 if p == i else 1 if p == j else next(rest) for p in range(n)]))
    return graphs


def label_random_mix(seed: int) -> list[Graph]:
    """75 random graphs at each n in 8, 12, 16, 20, drawn as the
    benchmark's label-random workload draws them."""
    rng = np.random.default_rng(seed)
    seeds = rng.integers(2**63, size=(4, 75))
    return [random_graph(n, int(s)) for n, row in zip((8, 12, 16, 20), seeds) for s in row]


# ====== configuration ======


def test_threshold_values():
    """p_th = 1/ln(n): 0.910 at n=3, 0.4343 at n=10."""
    cfg = WalkConfig()
    assert abs(cfg.p_threshold(3) - 0.910) < 1e-3
    assert abs(cfg.p_threshold(3) - 1.0 / math.log(3)) < 1e-15
    assert abs(cfg.p_threshold(10) - 0.4343) < 1e-4


def test_threshold_override_and_horizon():
    cfg = WalkConfig(p_threshold_override=0.5, t_max_cap=123.0)
    assert cfg.p_threshold(3) == 0.5
    assert cfg.t_max(3) == 123.0
    assert WalkConfig().t_max(4) == 640.0  # 10 n^3


def test_config_rejects_bad_values():
    for kwargs in (
        {"gamma": 0.0},
        {"gamma": math.nan},
        {"gamma": math.inf},
        {"t_max_cap": 0.0},
        {"t_max_cap": math.nan},
        {"t_max_cap": math.inf},
        {"p_threshold_override": 1.5},
    ):
        with pytest.raises(ValueError):
            WalkConfig(**kwargs)


# ====== matrix exponential ======


def test_exp_matches_scipy_expm():
    """Both walkers' generators, on lines with n = 3..9 and random graphs
    with n = 3..30 at gamma 0.25, 1 and 4, agree with scipy.linalg.expm to
    1e-13 in every entry: the ladder's anchor rung exp(0.1 G), its squares
    at steps 0.8 and 12.8, and the in-step series, applied to every unit
    vector, at fractions 2**-24, 2**-12, 1/2 and 1 of rung 0's step."""
    rng = np.random.default_rng(0)
    graphs = [line_graph(n, rng.permutation(n).tolist()) for n in range(3, 10)]
    graphs += [random_graph(n, n) for n in range(3, 31)]
    errors = []
    for g in graphs:
        generators = [("classical", classical_variant(g) - np.eye(g.n))]
        generators += [(f"quantum gamma={gamma}", -1j * quantum_variant(g, gamma))
                       for gamma in (0.25, 1.0, 4.0)]
        for name, generator in generators:
            ladder = _Ladder(generator)
            for k in (ladder.squarings, ladder.squarings + 3, ladder.squarings + 7):
                step = ladder.step(k)
                err = float(np.abs(ladder[k] - expm(generator * step)).max())
                errors.append((err, f"n={g.n} {name} rung step={step}"))
            # column i of exp(theta y) is the series of unit vector i
            terms = np.stack([ladder.series(e) for e in np.eye(g.n, dtype=generator.dtype)], axis=2)
            for fraction in (2.0**-24, 2.0**-12, 0.5, 1.0):
                step = fraction * ladder.step(0)
                got = np.tensordot(fraction ** np.arange(25), terms, axes=1)
                err = float(np.abs(got - expm(generator * step)).max())
                errors.append((err, f"n={g.n} {name} series step={step}"))
    assert max(errors)[0] <= 1e-13, max(errors)


def test_exp_of_zero_is_identity():
    """A zero generator gives exactly I on every rung, and a series that
    is exactly the start vector."""
    for dtype in (np.float64, np.complex128):
        ladder = _Ladder(np.zeros((5, 5), dtype=dtype))
        for k in range(4):
            assert np.array_equal(ladder[k], np.eye(5))
        terms = ladder.series(np.eye(5, dtype=dtype)[2])
        assert np.array_equal(terms[0], np.eye(5)[2]) and not terms[1:].any()


# ====== classical propagation ======
#
# The walks are checked on the propagators that label the graphs: the
# rungs of the ladder that `label_graph` descends, and the curves it
# records on them.


def _rungs(generator: np.ndarray, cap: float) -> np.ndarray:
    """The rungs of the label path's propagator ladder, stacked, up to the
    first whose step reaches the horizon cap."""
    ladder = _Ladder(generator)
    k = 0
    while ladder.step(k) < cap:
        k += 1
    return np.array([ladder[j] for j in range(k + 1)])


def _nearest(trace: Trace, t: float) -> tuple[float, float]:
    """The record nearest t, as (its time, its value)."""
    k = int(np.argmin(np.abs(trace.times - t)))
    return float(trace.times[k]), float(trace.values[k])


def test_ctrw_initial_condition():
    """The walker starts at the start vertex: the target curve is 0 at t=0,
    and one grid step of the in-step series barely moves the start vector."""
    g = line_graph(4, [0, 1, 2, 3])
    trace = label_graph(g, record_traces=True).classical_trace
    assert (trace.times[0], trace.values[0]) == (0.0, 0.0)
    p0 = np.eye(g.n)[g.v_init]
    ladder = _Ladder(classical_variant(g) - np.eye(g.n))
    step = (GRID_STEP / ladder.step(0)) ** np.arange(25) @ ladder.series(p0)
    assert np.abs(step - p0).max() < 1e-8


def test_ctrw_conserves_probability():
    """T is column-stochastic with the target absorbing, and every rung
    exp((T - I) h) of the ladder, up to the horizon, conserves and keeps
    probability non-negative."""
    g = line_graph(5, [0, 3, 1, 4, 2])
    t = classical_variant(g)
    assert np.abs(t.sum(axis=0) - 1.0).max() < 1e-12
    assert np.all(t >= 0.0)
    assert np.array_equal(t[:, g.v_target], np.eye(g.n)[g.v_target])
    rungs = _rungs(t - np.eye(g.n), WalkConfig().t_max(g.n))
    drift = np.abs(rungs.sum(axis=1) - 1.0).max()
    assert drift < 1e-9, f"probability leak {drift:.2e}"
    assert rungs.min() >= -1e-12


def test_ctrw_matches_euler_oracle():
    """The recorded target curve agrees with fine-step explicit Euler and
    with the symmetric-eigendecomposition curve."""
    g = line_graph(3, [0, 2, 1])
    trace = label_graph(g, record_traces=True).classical_trace
    for want in (0.5, 2.0, 6.0):
        t, got = _nearest(trace, want)
        assert abs(t - want) < 1e-9
        err = abs(got - euler_classical_probabilities(g, t)[g.v_target])
        assert err < 1e-5, f"t={t}: euler mismatch {err:.2e}"
        err = abs(got - spectral_target_probability(g, t))
        assert err < 1e-12, f"t={t}: spectral mismatch {err:.2e}"


def test_ctrw_target_probability_monotone():
    g = line_graph(3, [0, 2, 1])
    trace = label_graph(g, record_traces=True).classical_trace
    assert np.all(np.diff(trace.values) >= -1e-12), "absorbing target lost probability"


# ====== quantum propagation ======


def test_ctqw_initial_condition():
    out = label_graph(line_graph(3, [0, 2, 1]), record_traces=True)
    for trace in (out.classical_trace, out.quantum_trace):
        assert (trace.times[0], trace.values[0]) == (0.0, 0.0)


def test_ctqw_zero_gamma_keeps_sink_empty():
    """Without decay every rung is unitary, so no population leaves the
    graph for the sink."""
    g = line_graph(3, [0, 2, 1])
    rungs = _rungs(-1j * quantum_variant(g, 0.0), WalkConfig().t_max(g.n))
    gram = np.conj(np.transpose(rungs, (0, 2, 1))) @ rungs
    dev = np.abs(gram - np.eye(g.n)).max()
    assert dev < 1e-9, f"rungs depart from unitary by {dev:.2e}"


def test_ctqw_matches_liouvillian_expm_oracle():
    """The recorded sink curve of the n-dimensional no-jump state vs
    exponentiating the vectorized generator."""
    for g in (line_graph(3, [0, 2, 1]), line_graph(5, [2, 0, 4, 1, 3]), K3):
        trace = label_graph(g, record_traces=True).quantum_trace
        for want in (0.8, 3.0, 9.0):
            t, got = _nearest(trace, want)
            assert abs(t - want) < 1e-9
            ref = liouvillian_expm_density(g, t)[g.n, g.n].real
            err = abs(got - ref)
            assert err < 1e-5, f"n={g.n} t={t}: oracle mismatch {err:.2e}"


def test_ctqw_density_health():
    """The density matrix is psi psi^dagger on the graph plus 1 - ||psi||^2
    in the sink, so its trace, Hermiticity and positivity hold as long as
    every propagator contracts psi; the sink must also never drain."""
    g = line_graph(4, [0, 2, 3, 1])
    rungs = _rungs(-1j * quantum_variant(g), WalkConfig().t_max(g.n))
    excess = (np.linalg.norm(rungs, 2, axis=(1, 2)) - 1.0).max()
    assert excess <= 1e-8, f"a rung amplifies psi by {excess:.2e}"
    trace = label_graph(g, record_traces=True).quantum_trace
    assert np.all(np.diff(trace.values) >= -1e-9), "sink population decreased"


def test_ctqw_faster_on_opposite_ends_path():
    """On path 1-3-2 the sink crosses p_th before the classical target."""
    out = label_graph(line_graph(3, [0, 2, 1]))
    tq, tc = out.quantum_hit_time, out.classical_hit_time
    assert tq is not None and tc is not None
    assert tq < tc, f"expected quantum first: tq={tq:.3f} tc={tc:.3f}"


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_label_march_matches_oracle_at_benchmark_sizes(n):
    """The label path's recorded sink curve against the Liouvillian oracle,
    at record times on both sides of the first window doubling (t = 25.6).

    The raised threshold keeps the trace going past the first window.
    """
    g = random_graph(n, n)
    cfg = WalkConfig(p_threshold_override=0.9)
    trace = label_graph(g, cfg, record_traces=True).quantum_trace
    sink = g.n
    picks = [1, 64, 256, 257, 300]
    times = trace.times[picks]
    assert times[2] < 25.6 + 1e-9 < times[3], "first doubling not bracketed"
    for k, t in zip(picks, times):
        ref = liouvillian_expm_density(g, t)[sink, sink].real
        err = abs(trace.values[k] - ref)
        assert err < 1e-12, f"n={n} t={t:g}: oracle mismatch {err:.2e}"


# ====== labeling ======


def test_label_three_vertex_lines():
    """Line 1-3-2 is quantum; the two labelings with edge {1,2} are classical."""
    quantum_case = label_graph(line_graph(3, [0, 2, 1]))
    assert quantum_case.label == QUANTUM
    assert not quantum_case.indeterminate
    for lab in ([0, 1, 2], [2, 0, 1]):
        out = label_graph(line_graph(3, lab))
        assert out.label == CLASSICAL, f"labeling {lab} misclassified"
        assert not out.indeterminate


def test_label_three_vertex_hit_times():
    """Golden hitting times for the three n=3 labelings (brentq oracle roots)."""
    out = label_graph(line_graph(3, [0, 2, 1]))
    assert abs(out.classical_hit_time - 8.87297094) < 1e-6
    assert abs(out.quantum_hit_time - 7.24145345) < 1e-6
    out = label_graph(line_graph(3, [2, 0, 1]))
    assert abs(out.classical_hit_time - 7.68970785) < 1e-6
    assert abs(out.quantum_hit_time - 10.16905736) < 1e-6
    out = label_graph(line_graph(3, [0, 1, 2]))
    assert abs(out.classical_hit_time - 2.41060722) < 1e-6
    assert out.quantum_hit_time is None


def test_label_complete_triangle():
    """Golden outcome for K_3: classical, and the sink never reaches p_th."""
    out = label_graph(K3)
    assert out.label == CLASSICAL
    assert abs(out.classical_hit_time - 4.82121444) < 1e-6
    assert out.quantum_hit_time is None


@pytest.mark.parametrize(
    "g",
    [line_graph(3, [0, 2, 1]), line_graph(3, [2, 0, 1]), line_graph(3, [0, 1, 2]), K3,
     random_graph(8, 8), random_graph(12, 12)],
    ids=["line132", "line312", "line123", "K3", "random8", "random12"],
)
def test_label_hit_times_match_brentq_oracle(g):
    """Located hit times are within 1e-6 relative of the exact roots, and a
    walker is reported to never cross exactly when the oracle finds no root."""
    out = label_graph(g)
    expect = oracle_hit_times(g, out.p_threshold, out.t_max)
    for got, ref in zip((out.classical_hit_time, out.quantum_hit_time), expect):
        assert (got is None) == (ref is None), f"got {got}, oracle {ref}"
        if ref is not None:
            assert abs(got - ref) <= 1e-6 * ref, f"got {got!r}, oracle {ref!r}"


def test_hit_times_end_the_grid_step_holding_the_root():
    """On the line classes n = 4..7 and random graphs n = 6, 8, 10 (seeds
    0..5), every located hit time t is the end of the grid step that holds
    the exact root, root <= t <= root + 0.1 2^-24, up to 1e-10 of root on
    either side. The slack covers brentq's tolerance (2.4e-13 at t = 268)
    and the propagators' rounding: on random_graph(8, 5) the quantum curve
    rises by 1.8e-4 per unit time at its root, which 40-digit arithmetic
    puts 0.05 grid steps past a grid point, and the label path's value
    there is a few 1e-14 high, so t is that grid point."""
    graphs = [g for n in range(4, 8) for g in line_classes(n)]
    graphs += [random_graph(n, seed) for n in (6, 8, 10) for seed in range(6)]
    crossings, outside = 0, []
    for g in graphs:
        out = label_graph(g)
        expect = oracle_hit_times(g, out.p_threshold, out.t_max)
        for got, root in zip((out.classical_hit_time, out.quantum_hit_time), expect):
            assert (got is None) == (root is None), f"got {got}, oracle {root}"
            if root is None:
                continue
            crossings += 1
            if not root - 1e-10 * root <= got <= root + GRID_STEP + 1e-10 * root:
                outside.append(f"n={g.n}: {got!r} is {(got - root) / GRID_STEP:+.2f} grid steps from {root!r}")
    assert crossings == 130
    assert not outside, outside


# float.hex of (classical, quantum) hit times, None for a walker that
# never crosses. They are grid points, so any change to the propagators
# that keeps every float the same keeps them.
PINNED_RANDOM = [
    ((8, 1), "0x1.5ce0c5199999ap+2", "0x1.29fe39e000000p+3"),
    ((8, 2), "0x1.73fc294cccccdp+2", None),
    ((8, 3), "0x1.ecebd58cccccdp+1", "0x1.e79bf124ccccdp+6"),
    ((12, 1), "0x1.da991dc000000p+2", "0x1.91b9ade666667p+3"),
    ((12, 2), "0x1.f62d961333334p+2", "0x1.2cfc293333333p+2"),
    ((12, 3), "0x1.2efabbf99999ap+2", "0x1.3f31c1099999ap+4"),
    ((16, 1), "0x1.e762d9b333334p+2", "0x1.e87616ccccccdp+3"),
    ((16, 2), "0x1.3f796b1000000p+3", "0x1.47b9e18666667p+2"),
    ((16, 3), "0x1.9e2161f99999ap+2", "0x1.4bb52b0cccccdp+3"),
    ((20, 1), "0x1.6fc9eb799999ap+3", "0x1.ad76af5000000p+3"),
    ((20, 2), "0x1.42cf170333334p+3", "0x1.9001c8799999ap+3"),
    ((20, 3), "0x1.bc9619ccccccdp+2", "0x1.aa85b32e66667p+4"),
    ((20, 7), "0x1.ee0d50599999ap+2", None),
]
PINNED_LINES = [
    ([0, 2, 3, 1], "0x1.65598c1333334p+3", "0x1.c8bf198cccccdp+1"),
    ([0, 2, 3, 4, 1], "0x1.f850054666667p+3", "0x1.e2762c3333334p+1"),
    ([0, 2, 3, 4, 5, 1], "0x1.573505599999ap+4", "0x1.0b119fa666667p+2"),
    ([0, 2, 3, 4, 5, 6, 1], "0x1.c158e1d800000p+4", "0x1.283ae48cccccdp+2"),
]


@pytest.mark.parametrize(
    "g, t_c, t_q",
    [(random_graph(n, s), t_c, t_q) for (n, s), t_c, t_q in PINNED_RANDOM]
    + [(line_graph(len(lab), lab), t_c, t_q) for lab, t_c, t_q in PINNED_LINES],
    ids=[f"random{n}-{s}" for (n, s), _, _ in PINNED_RANDOM] + [f"line{len(lab)}" for lab, _, _ in PINNED_LINES],
)
def test_hit_times_pinned(g, t_c, t_q):
    """Hit times are pinned bit for bit, so a faster route to the same
    floats keeps every label: random graphs n = 8..20 (random_graph(20, 7)'s
    quantum walker never crosses) and one path per n = 4..7 with start and
    target at its ends."""
    out = label_graph(g)
    got = [None if t is None else t.hex() for t in (out.classical_hit_time, out.quantum_hit_time)]
    assert got == [t_c, t_q]


def test_never_crossing_certificate():
    """eta, the start state's weight on the target's bright states, is the
    limit of the sink population and bounds it. On the line classes
    n = 5..7 and a label-random mix, eta <= p_th - 1e-6 gives no quantum
    hit time, and eta >= p_th + 1e-6 gives one: by the default horizon, or
    past it, with the horizon at 1e6, for the two graphs of the mix whose
    slowest bright modes decay at rates of about 3e-5 and 8e-5 (sink 0.404
    and 0.479 at t = 5120 against p_th 0.481)."""
    graphs = [g for n in range(5, 8) for g in line_classes(n)] + label_random_mix(1)
    below = above = late = 0
    for g in graphs:
        out = label_graph(g)
        weight = eta(g, 1.0)
        if weight <= out.p_threshold - 1e-6:
            below += 1
            assert out.quantum_hit_time is None, f"n={g.n}: eta {weight} but crossed"
        elif weight >= out.p_threshold + 1e-6:
            above += 1
            if out.quantum_hit_time is None:
                late += 1
                t_q = label_graph(g, WalkConfig(t_max_cap=1e6)).quantum_hit_time
                assert t_q is not None and t_q > out.t_max, f"n={g.n}: eta {weight}, t_q {t_q}"
    assert (below, above, late) == (36, 310, 2)


def _climbed(g: Graph, cfg: WalkConfig = WalkConfig()) -> list:
    """(ladder, hit time) per walker, as `label_graph` locates them."""
    p_th, cap = cfg.p_threshold(g.n), cfg.t_max(g.n)
    return [(walker[0], _hit_time(*walker, p_th, cap)) for walker in _walkers(g, cfg.gamma)]


def test_ladder_squares_no_rung_past_the_crossing():
    """On path 1-3-2 (t_c 8.87, t_q 7.24, horizon 270) each walker's
    ladder holds at most ceil(log2(t / 0.1)) + 1 rungs."""
    for ladder, t in _climbed(line_graph(3, [0, 2, 1])):
        assert ladder.squarings == 0
        assert len(ladder.rungs) <= math.ceil(math.log2(t / 0.1)) + 1, (t, len(ladder.rungs))


def test_ladder_of_a_never_crossing_walker_reaches_the_horizon():
    """The quantum walker of random_graph(20, 7) never crosses, so its
    ladder holds every rung whose step fits within the horizon."""
    g = random_graph(20, 7)
    ladder, t = _climbed(g)[1]
    assert t is None
    longest = ladder.step(len(ladder.rungs) - 1)
    assert longest <= WalkConfig().t_max(g.n) < 2 * longest


def test_label_rule_consistency():
    """label = quantum iff t_q exists and (t_c missing or t_q < t_c)."""
    for lab in ([0, 2, 1], [2, 0, 1], [0, 1, 2], [1, 0, 2], [1, 2, 0], [2, 1, 0]):
        out = label_graph(line_graph(3, lab))
        tq, tc = out.quantum_hit_time, out.classical_hit_time
        expect_quantum = tq is not None and (tc is None or tq < tc)
        assert (out.label == QUANTUM) == expect_quantum


def test_label_indeterminate_flag():
    """With a horizon too short for either walker, flag and fall back to
    classical."""
    out = label_graph(line_graph(3, [0, 1, 2]), WalkConfig(t_max_cap=1.0))
    assert out.indeterminate
    assert out.label == CLASSICAL
    assert out.classical_hit_time is None and out.quantum_hit_time is None


def test_label_with_rung_steps_finer_than_the_grid():
    """At gamma = 1e9 the quantum anchor needs 25 halvings, so rung 0's
    step is shorter than the grid step and time is counted in rung 0's
    steps. The classical walker, which gamma does not touch, keeps its hit
    time, and the quantum one, held back by the strong decay (the quantum
    Zeno effect), never crosses."""
    g = line_graph(5, [0, 3, 1, 4, 2])
    assert _walkers(g, 1e9)[1][0].squarings > 24
    out = label_graph(g, WalkConfig(gamma=1e9))
    assert out.classical_hit_time == label_graph(g).classical_hit_time
    assert out.quantum_hit_time is None


def test_label_relabeling_invariance():
    """Hitting times ignore how the free vertices are numbered."""
    g = line_graph(5, [0, 3, 2, 4, 1])
    base = label_graph(g)
    for perm in ([0, 1, 3, 2, 4], [0, 1, 4, 3, 2], [0, 1, 2, 4, 3]):
        other = label_graph(permute_free_vertices(g, perm))
        assert other.label == base.label
        assert abs(other.classical_hit_time - base.classical_hit_time) < 1e-4
        assert abs(other.quantum_hit_time - base.quantum_hit_time) < 1e-4


def test_label_records_traces_on_request():
    out = label_graph(line_graph(3, [0, 2, 1]), record_traces=True)
    for trace, t_hit in ((out.classical_trace, out.classical_hit_time),
                         (out.quantum_trace, out.quantum_hit_time)):
        assert trace is not None
        assert trace.times[0] == 0.0
        assert trace.values[0] == 0.0  # walker starts away from the target
        assert np.all(np.diff(trace.values) >= -1e-9)
        # the recorded curve brackets the located hit time
        k = int(np.searchsorted(trace.times, t_hit))
        assert 0 < k < len(trace.times)
        assert trace.values[k - 1] <= out.p_threshold < trace.values[k]
    # default run skips the storage
    bare = label_graph(line_graph(3, [0, 2, 1]))
    assert bare.classical_trace is None and bare.quantum_trace is None


@pytest.mark.parametrize("g", [line_graph(3, [0, 2, 1]), random_graph(12, 12)], ids=["line132", "random12"])
def test_label_independent_of_ladder_base_step(g, monkeypatch):
    """Moving the propagator ladder onto a different grid (base step 0.1 ->
    0.07) changes neither the label nor the hit times beyond 1e-7."""
    base = label_graph(g)
    monkeypatch.setattr(qwalk.walkers, "_BASE_STEP", 0.07)
    other = label_graph(g)
    assert other.label == base.label
    for a, b in ((base.classical_hit_time, other.classical_hit_time),
                 (base.quantum_hit_time, other.quantum_hit_time)):
        assert (a is None) == (b is None)
        if a is not None:
            assert abs(a - b) < 1e-7, f"{a!r} vs {b!r}"


# ====== trace export ======


def test_write_trace_csv_roundtrip(tmp_path):
    out = label_graph(line_graph(3, [0, 2, 1]), record_traces=True)
    path = tmp_path / "trace.csv"
    write_trace_csv(out, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,p_classical,p_quantum"
    assert len(lines) == 1 + len(out.classical_trace.times)
    t, pc, pq = (float(x) for x in lines[1].split(","))
    assert (t, pc, pq) == (0.0, 0.0, 0.0)
    last = [float(x) for x in lines[-1].split(",")]
    assert last[2] == out.quantum_trace.values[-1]


def test_write_trace_csv_needs_recorded_traces(tmp_path):
    out = label_graph(line_graph(3, [0, 2, 1]))
    with pytest.raises(ValueError, match="^outcome carries no traces; rerun with record_traces=True$"):
        write_trace_csv(out, tmp_path / "trace.csv")
    assert not (tmp_path / "trace.csv").exists()
