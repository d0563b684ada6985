"""Walker dynamics, hitting times, and speedup labeling.

Tests verify:
- detection threshold and horizon defaults
- classical propagation against a fine-step explicit-Euler oracle
- quantum propagation against a vectorized-Liouvillian matrix-exponential oracle,
  at small n directly and at benchmark sizes through the label path
- density-matrix health (trace, Hermiticity, positivity, sink monotonicity)
- hitting-time interpolation rules and edge cases
- the three n=3 line labelings and the K_3 golden outcome
- invariance under free-vertex relabeling
- the trace-drift failure mode at too-coarse dt
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from qwalk import (
    CLASSICAL,
    QUANTUM,
    Graph,
    IntegratorError,
    Trace,
    WalkConfig,
    classical_variant,
    ctqw_density,
    ctrw_probabilities,
    hitting_time,
    label_graph,
    line_graph,
    permute_free_vertices,
    quantum_variant,
    random_graph,
    write_trace_csv,
)

from oracles import euler_classical_probabilities, liouvillian_expm_density

K3 = Graph(np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))
K5 = Graph(np.ones((5, 5), dtype=np.int64) - np.eye(5, dtype=np.int64))


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
    with pytest.raises(ValueError):
        WalkConfig(gamma=0.0)
    with pytest.raises(ValueError):
        WalkConfig(dt=-0.01)
    with pytest.raises(ValueError):
        WalkConfig(t_max_cap=0.0)
    with pytest.raises(ValueError):
        WalkConfig(record_stride=0)
    with pytest.raises(ValueError):
        WalkConfig(p_threshold_override=1.5)


# ====== classical propagation ======


def test_ctrw_initial_condition():
    sys = classical_variant(line_graph(4, [0, 1, 2, 3]))
    p = ctrw_probabilities(sys, 0.0)
    assert np.array_equal(p, [1.0, 0.0, 0.0, 0.0])


def test_ctrw_conserves_probability():
    sys = classical_variant(line_graph(5, [0, 3, 1, 4, 2]))
    for t in (0.1, 1.0, 7.5, 40.0):
        p = ctrw_probabilities(sys, t)
        assert abs(p.sum() - 1.0) < 1e-9, f"t={t}: sum={p.sum()}"
        assert np.all(p >= -1e-12)


def test_ctrw_matches_euler_oracle():
    """Matrix-exponential propagation agrees with fine-step explicit Euler."""
    sys = classical_variant(line_graph(3, [0, 2, 1]))
    for t in (0.5, 2.0, 6.0):
        got = ctrw_probabilities(sys, t)
        ref = euler_classical_probabilities(sys, t)
        err = np.abs(got - ref).max()
        assert err < 1e-5, f"t={t}: euler mismatch {err:.2e}"


def test_ctrw_target_probability_monotone():
    sys = classical_variant(line_graph(3, [0, 2, 1]))
    values = [ctrw_probabilities(sys, t)[sys.v_target] for t in np.linspace(0, 20, 81)]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12), "absorbing target lost probability"


# ====== quantum propagation ======


def test_ctqw_initial_condition():
    sys = quantum_variant(line_graph(3, [0, 2, 1]))
    rho = ctqw_density(sys, [0.0])[0]
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = 1.0
    assert np.array_equal(rho, expect)


def test_ctqw_zero_gamma_keeps_sink_empty():
    """Coherent dynamics never populates the sink."""
    sys = quantum_variant(line_graph(3, [0, 2, 1]), gamma=0.0)
    for rho in ctqw_density(sys, np.linspace(0.0, 12.0, 7)):
        assert rho[sys.sink_index, sys.sink_index].real == 0.0


def test_ctqw_matches_liouvillian_expm_oracle():
    """RK4 at dt=0.01 vs exponentiating the vectorized generator."""
    for g in (line_graph(3, [0, 2, 1]), line_graph(5, [2, 0, 4, 1, 3]), K3):
        sys = quantum_variant(g)
        grid = np.array([0.0, 0.8, 3.0, 9.0])
        rhos = ctqw_density(sys, grid)
        for t, rho in zip(grid, rhos):
            ref = liouvillian_expm_density(sys, t)
            err = np.abs(rho - ref).max()
            assert err < 1e-5, f"n={g.n} t={t}: oracle mismatch {err:.2e}"


def test_ctqw_density_health():
    """Trace, Hermiticity, positivity proxy, and sink monotonicity."""
    sys = quantum_variant(line_graph(4, [0, 2, 3, 1]))
    grid = np.linspace(0.0, 15.0, 31)
    rhos = ctqw_density(sys, grid)
    sink = []
    for t, rho in zip(grid, rhos):
        assert abs(np.trace(rho).real - 1.0) < 1e-6, f"trace drift at t={t}"
        assert np.abs(rho - rho.conj().T).max() < 1e-8, f"non-Hermitian at t={t}"
        assert np.all(np.diag(rho).real >= -1e-9), f"negative population at t={t}"
        sink.append(rho[sys.sink_index, sys.sink_index].real)
    assert np.all(np.diff(sink) >= -1e-9), "sink population decreased"


def test_ctqw_faster_on_opposite_ends_path():
    """On path 1-3-2 the sink crosses p_th before the classical target."""
    g = line_graph(3, [0, 2, 1])
    p_th = 1.0 / math.log(3)
    qsys = quantum_variant(g)
    csys = classical_variant(g)
    grid = np.linspace(0.0, 9.0, 181)
    sink = np.array([r[qsys.sink_index, qsys.sink_index].real for r in ctqw_density(qsys, grid)])
    target = np.array([ctrw_probabilities(csys, t)[csys.v_target] for t in grid])
    tq = hitting_time(Trace(grid, sink), p_th)
    tc = hitting_time(Trace(grid, target), p_th)
    assert tq is not None and tc is not None
    assert tq < tc, f"expected quantum first: tq={tq:.3f} tc={tc:.3f}"


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_label_march_matches_oracle_at_benchmark_sizes(n):
    """The label path's sink curve against the Liouvillian oracle, and
    against ctqw_density, at record times on both sides of the first
    window doubling (t = 25.6).

    dt=0.005 with stride 20 keeps the default record grid; at the default
    dt=0.01 the RK4 truncation alone reaches ~8e-6 on dense n=20 graphs.
    The raised threshold keeps the march going past the first window.
    """
    g = random_graph(n, n)
    cfg = WalkConfig(dt=0.005, record_stride=20, p_threshold_override=0.9)
    trace = label_graph(g, cfg, record_traces=True).quantum_trace
    qsys = quantum_variant(g)
    sink = qsys.sink_index
    picks = [1, 64, 256, 257, 300]
    times = trace.times[picks]
    assert times[2] < 25.6 + 1e-9 < times[3], "first doubling not bracketed"
    rhos = ctqw_density(qsys, np.concatenate([[0.0], times]), dt=cfg.dt)[1:]
    for k, t, rho in zip(picks, times, rhos):
        ref = liouvillian_expm_density(qsys, t)[sink, sink].real
        err = abs(trace.values[k] - ref)
        assert err < 1e-6, f"n={n} t={t:g}: oracle mismatch {err:.2e}"
        gap = abs(trace.values[k] - rho[sink, sink].real)
        assert gap < 1e-6, f"n={n} t={t:g}: ctqw_density disagrees by {gap:.2e}"


def test_ctqw_rejects_unsorted_grid():
    sys = quantum_variant(line_graph(3, [0, 1, 2]))
    with pytest.raises(ValueError):
        ctqw_density(sys, [1.0, 0.5])
    with pytest.raises(ValueError):
        ctqw_density(sys, [0.5, 1.0])  # must start at 0


# ====== hitting times ======


def test_hitting_time_never_crossed():
    trace = Trace(np.linspace(0, 10, 11), np.zeros(11))
    assert hitting_time(trace, 0.5) is None


def test_hitting_time_interpolates():
    """Crossing between grid points is located by linear interpolation."""
    trace = Trace(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.4, 0.8]))
    t = hitting_time(trace, 0.5)
    # 0.4 -> 0.8 over [1, 2]; 0.5 is a quarter of the way
    assert abs(t - 1.25) < 1e-12, f"got {t}"


def test_hitting_time_strictly_greater():
    """Touching the threshold exactly does not count as a crossing."""
    trace = Trace(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 0.5]))
    assert hitting_time(trace, 0.5) is None
    trace = Trace(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 0.5, 0.5, 0.6]))
    # the rise past p_th starts at t=2; interpolation pins the crossing there
    assert hitting_time(trace, 0.5) == 2.0


def test_hitting_time_first_sample():
    """A curve already above threshold at t=0 hits at the first grid time."""
    trace = Trace(np.array([0.0, 1.0]), np.array([0.9, 1.0]))
    assert hitting_time(trace, 0.5) == 0.0


def test_hitting_time_flat_jump():
    """A flat segment that sits above p_th reports the grid point itself."""
    trace = Trace(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.7, 0.7]))
    t = hitting_time(trace, 0.7 - 1e-12)
    assert t <= 1.0


def test_hitting_time_respects_t_max():
    trace = Trace(np.array([0.0, 5.0, 10.0]), np.array([0.0, 0.2, 0.9]))
    assert hitting_time(trace, 0.5, t_max=6.0) is None
    assert hitting_time(trace, 0.5, t_max=10.0) is not None


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
    """Golden hitting times for the three n=3 labelings (dt=0.01 grid)."""
    out = label_graph(line_graph(3, [0, 2, 1]))
    assert abs(out.classical_hit_time - 8.8733) < 1e-3
    assert abs(out.quantum_hit_time - 7.2439) < 1e-3
    out = label_graph(line_graph(3, [2, 0, 1]))
    assert abs(out.classical_hit_time - 7.6898) < 1e-3
    assert abs(out.quantum_hit_time - 10.1697) < 1e-3
    out = label_graph(line_graph(3, [0, 1, 2]))
    assert abs(out.classical_hit_time - 2.4111) < 1e-3
    assert out.quantum_hit_time is None


def test_label_complete_triangle():
    """Golden outcome for K_3: classical, and the sink never reaches p_th."""
    out = label_graph(K3)
    assert out.label == CLASSICAL
    assert abs(out.classical_hit_time - 4.8216) < 1e-3
    assert out.quantum_hit_time is None


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
    for trace in (out.classical_trace, out.quantum_trace):
        assert trace is not None
        assert trace.times[0] == 0.0
        assert trace.values[0] == 0.0  # walker starts away from the target
        assert np.all(np.diff(trace.values) >= -1e-9)
    # the recorded curves reproduce the reported hitting times
    assert abs(hitting_time(out.quantum_trace, out.p_threshold) - out.quantum_hit_time) < 1e-9
    assert abs(hitting_time(out.classical_trace, out.p_threshold) - out.classical_hit_time) < 1e-9
    # default run skips the storage
    bare = label_graph(line_graph(3, [0, 2, 1]))
    assert bare.classical_trace is None and bare.quantum_trace is None


def test_label_convergence_check_halves_dt():
    """The optional self-check reruns at dt/2 and must agree here."""
    out = label_graph(line_graph(3, [0, 2, 1]), WalkConfig(convergence_check=True))
    assert out.label == QUANTUM


def test_integrator_error_on_coarse_dt():
    """A dense Hamiltonian at dt=1 drifts the trace past the guard."""
    with pytest.raises(IntegratorError):
        label_graph(K5, WalkConfig(dt=1.0))


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
